//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for the
//! campaign server and its thin client, hand-rolled in the same
//! no-dependency discipline as the JSON codec in `socfmea-obs`.
//!
//! Server side: [`Request::read_from`] parses one request head plus a
//! `Content-Length` body (capped at [`MAX_BODY_BYTES`], larger bodies are
//! rejected before buffering), [`Response`] renders status/headers/body,
//! and [`ChunkedWriter`] frames a live stream with `Transfer-Encoding:
//! chunked` so readers see records the moment they are produced.
//!
//! Client side: [`request`] performs one round trip (decoding both
//! `Content-Length` and chunked bodies), and [`stream`] copies a chunked
//! body to a writer incrementally for `socfmea watch`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Request-body cap: a structural-Verilog netlist comfortably fits; a
/// larger body draws `413 Payload Too Large` before the server buffers it.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP request: method, path, lowercased headers, body.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, `DELETE`, …), uppercased as sent.
    pub method: String,
    /// Request target path (query strings are not used by the protocol).
    pub path: String,
    /// Header fields with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be read; each maps to one error response.
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line or header syntax.
    Bad(String),
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
    /// The connection died mid-request.
    Io(io::Error),
}

impl Request {
    /// Reads one request from the stream. `Err(None)` is a cleanly closed
    /// idle connection (no bytes before EOF) — not an error to report.
    pub fn read_from(stream: &mut BufReader<TcpStream>) -> Result<Request, Option<RequestError>> {
        let mut line = String::new();
        match stream.read_line(&mut line) {
            Ok(0) => return Err(None),
            Ok(_) => {}
            Err(e) => return Err(Some(RequestError::Io(e))),
        }
        let mut parts = line.split_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return Err(Some(RequestError::Bad(format!(
                "malformed request line `{}`",
                line.trim_end()
            ))));
        };
        let (method, path) = (method.to_owned(), path.to_owned());
        let mut headers = Vec::new();
        loop {
            let mut h = String::new();
            match stream.read_line(&mut h) {
                Ok(0) => return Err(Some(RequestError::Bad("truncated headers".into()))),
                Ok(_) => {}
                Err(e) => return Err(Some(RequestError::Io(e))),
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            let Some((name, value)) = h.split_once(':') else {
                return Err(Some(RequestError::Bad(format!("malformed header `{h}`"))));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let length = match header(&headers, "content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| Some(RequestError::Bad(format!("bad content-length `{v}`"))))?,
            None => 0,
        };
        if length > MAX_BODY_BYTES {
            return Err(Some(RequestError::TooLarge(length)));
        }
        let mut body = vec![0u8; length];
        stream
            .read_exact(&mut body)
            .map_err(|e| Some(RequestError::Io(e)))?;
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }

    /// The value of a (lowercased) header, when present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// The reason phrase of the status codes the protocol uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// One complete (non-streaming) response.
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::text(status, "application/json", body)
    }

    /// A response with an explicit content type (the Prometheus
    /// text-exposition `/v1/metrics` body uses `text/plain`). An owned
    /// `body` becomes the response without a copy.
    pub fn text(status: u16, content_type: &str, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), content_type.into())],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header field (e.g. `Retry-After` on 429).
    pub fn header(mut self, name: &str, value: impl ToString) -> Response {
        self.headers.push((name.into(), value.to_string()));
        self
    }

    /// Writes the response (with `Content-Length` framing).
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        write!(out, "content-length: {}\r\n\r\n", self.body.len())?;
        out.write_all(&self.body)?;
        out.flush()
    }
}

/// A `Transfer-Encoding: chunked` response body: each [`write`] becomes
/// one chunk on the wire, so the peer sees stream progress live;
/// [`finish`](ChunkedWriter::finish) sends the terminating zero chunk.
pub struct ChunkedWriter<W: Write> {
    out: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Sends the streaming response head and returns the chunk writer.
    pub fn start(mut out: W, status: u16, content_type: &str) -> io::Result<ChunkedWriter<W>> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\n\r\n",
            status,
            reason(status)
        )?;
        out.flush()?;
        Ok(ChunkedWriter { out })
    }

    /// Sends one chunk (empty slices are skipped — an empty chunk would
    /// terminate the stream).
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        write!(self.out, "{:x}\r\n", bytes.len())?;
        self.out.write_all(bytes)?;
        self.out.write_all(b"\r\n")?;
        self.out.flush()
    }

    /// Terminates the stream.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

/// A decoded client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header fields with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The full (de-chunked) body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The value of a (lowercased) header, when present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn read_head(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("malformed status line `{}`", line.trim_end())))?;
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    Ok((status, headers))
}

fn read_chunked(reader: &mut BufReader<TcpStream>, mut sink: impl FnMut(&[u8])) -> io::Result<()> {
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| io::Error::other(format!("bad chunk size `{}`", size_line.trim())))?;
        if size == 0 {
            let mut trailer = String::new();
            let _ = reader.read_line(&mut trailer);
            return Ok(());
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk)?;
        sink(&chunk);
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
    }
}

fn send_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(BufReader::new(stream))
}

/// One client round trip: sends `body` (may be empty), decodes the
/// response body whatever its framing.
///
/// # Errors
///
/// Connection, protocol-framing, and I/O failures.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
    let mut reader = send_request(addr, method, path, body)?;
    let (status, headers) = read_head(&mut reader)?;
    let mut out = Vec::new();
    if header(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        read_chunked(&mut reader, |chunk| out.extend_from_slice(chunk))?;
    } else if let Some(length) = header(&headers, "content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| io::Error::other("bad content-length"))?;
        out.resize(length, 0);
        reader.read_exact(&mut out)?;
    } else {
        reader.read_to_end(&mut out)?;
    }
    Ok(ClientResponse {
        status,
        headers,
        body: out,
    })
}

/// Streams a chunked response body to `out` as chunks arrive (the live
/// trace feed behind `socfmea watch`). Returns the HTTP status; non-2xx
/// responses have their (non-streamed) body copied too, so error JSON
/// still reaches the caller.
///
/// # Errors
///
/// Connection, protocol-framing, and I/O failures.
pub fn stream(addr: &str, path: &str, out: &mut impl Write) -> io::Result<u16> {
    let mut reader = send_request(addr, "GET", path, "")?;
    let (status, headers) = read_head(&mut reader)?;
    if header(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let mut write_err = None;
        read_chunked(&mut reader, |chunk| {
            if write_err.is_none() {
                write_err = out.write_all(chunk).and_then(|()| out.flush()).err();
            }
        })?;
        if let Some(e) = write_err {
            return Err(e);
        }
    } else if let Some(length) = header(&headers, "content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| io::Error::other("bad content-length"))?;
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        out.write_all(&body)?;
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(payload: &str) -> Request {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload = payload.to_owned();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(payload.as_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let req = Request::read_from(&mut BufReader::new(stream)).unwrap();
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            roundtrip("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.header("content-length"), Some("7"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn oversized_bodies_are_rejected_before_buffering() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let huge = MAX_BODY_BYTES + 1;
            write!(
                s,
                "POST /v1/jobs HTTP/1.1\r\ncontent-length: {huge}\r\n\r\n"
            )
            .unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let err = Request::read_from(&mut BufReader::new(stream)).unwrap_err();
        client.join().unwrap();
        assert!(matches!(err, Some(RequestError::TooLarge(_))));
    }

    #[test]
    fn chunked_stream_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let _ = Request::read_from(&mut reader).unwrap();
            let mut w = ChunkedWriter::start(stream, 200, "application/jsonl").unwrap();
            w.write(b"{\"ev\":\"meta\"}\n").unwrap();
            w.write(b"{\"ev\":\"end\"}\n").unwrap();
            w.finish().unwrap();
        });
        let got = request(&addr, "GET", "/v1/jobs/j-1/trace", "").unwrap();
        server.join().unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.text(), "{\"ev\":\"meta\"}\n{\"ev\":\"end\"}\n");
    }
}
