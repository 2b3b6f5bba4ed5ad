//! The JSONL event sink: structured trace records over a bounded channel.
//!
//! A [`TraceSink`] owns a writer thread; [`emit`](TraceSink::emit) enqueues
//! a [`TraceEvent`] and returns immediately — serialization and I/O happen
//! on the writer thread, so simulation threads never block on disk (they
//! only back-pressure if the writer falls a full queue behind). One event
//! serializes to one JSON object per line.
//!
//! The record vocabulary (`ev` discriminator):
//!
//! | `ev` | meaning | per run |
//! |---|---|---|
//! | `meta` | campaign parameters, schema version | 1, first |
//! | `fault` | one injected fault's classification and cost | one per fault |
//! | `span` | a closed timing span (hierarchical `/` names) | many |
//! | `phase` | a named pipeline phase's duration | one per phase |
//! | `end` | outcome totals and DC/SFF for cross-checking | 1, last |
//!
//! `fault` records are emitted at *commit* time by the campaign's
//! deterministic merge, so their order in the file is fault-list order for
//! any thread count; only `shard` and `nanos` are wall-clock-dependent.
//!
//! Schema 2 names the resolved campaign engine in `meta` (`"engine"`,
//! `lockstep` or `ppsfp`), where schema 1 had a boolean `accel`. Readers
//! (`trace summarize|flame|diff`) take either: none of them reads either
//! field.

use crate::chan::{bounded, Receiver, Sender};
use crate::json::Value;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Version tag written into every `meta` record.
pub const TRACE_SCHEMA_VERSION: i64 = 2;

/// One per-fault trace record — the evidence row behind a DC/SFF claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index into the campaign's fault list.
    pub index: u64,
    /// Human-readable fault label.
    pub label: String,
    /// Fault kind: `bitflip`, `stuckat`, `glitch`, `bridge`, `clockstuck`.
    pub kind: String,
    /// The disturbed site (net/FF name; `agg>victim` for bridges; `None`
    /// for global faults without a single site).
    pub site: Option<String>,
    /// Name of the targeted sensible zone, when the fault exercises one.
    pub zone: Option<String>,
    /// Workload cycle at which the fault activates.
    pub inject_cycle: u64,
    /// Outcome class: `NE`, `SD`, `DD`, or `DU`.
    pub outcome: &'static str,
    /// First functional-output mismatch cycle.
    pub first_mismatch: Option<u64>,
    /// First alarm-assertion cycle.
    pub alarm_cycle: Option<u64>,
    /// Cycles actually evaluated for this fault.
    pub cycles_simulated: u64,
    /// Cycles answered from the golden trace without evaluation.
    pub cycles_skipped: u64,
    /// Engine path that classified it: `lockstep`, `ppsfp`, `dictionary`
    /// (collapse back-annotation, no simulation) or `pruned` (static
    /// undetectability proof, no simulation). Schema-1 traces also carry
    /// `sparse` and `warm`, two retired kernels.
    pub engine: &'static str,
    /// Representative fault index when dictionary-annotated, else `None`
    /// (the collapse class is `rep` + every fault pointing at it).
    pub rep: Option<u64>,
    /// Worker shard that simulated it (`None` for annotated faults).
    pub shard: Option<u64>,
    /// Wall-clock nanoseconds of the simulation (0 when annotated).
    pub nanos: u64,
}

/// One structured trace event; see the module docs for the vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Campaign parameters; always the first record.
    Meta {
        /// Design name.
        design: String,
        /// Scheduled fault count.
        faults: u64,
        /// Worker threads.
        threads: u64,
        /// Workload length in cycles.
        cycles: u64,
        /// Sampling seed.
        seed: u64,
        /// The resolved campaign engine: `lockstep` or `ppsfp`.
        engine: &'static str,
        /// Whether fault collapsing is on.
        collapse: bool,
    },
    /// One injected fault.
    Fault(FaultRecord),
    /// A closed timing span.
    Span {
        /// Hierarchical name (`/`-separated path).
        name: String,
        /// Wall-clock duration.
        nanos: u64,
        /// Worker shard, for per-shard spans.
        shard: Option<u64>,
        /// Correlated job id, when a `TraceCtx` is attached.
        job: Option<String>,
        /// Correlated tenant, when a `TraceCtx` is attached.
        tenant: Option<String>,
    },
    /// A named pipeline phase's duration.
    Phase {
        /// Phase name.
        name: String,
        /// Wall-clock duration.
        nanos: u64,
        /// Correlated job id, when a `TraceCtx` is attached.
        job: Option<String>,
        /// Correlated tenant, when a `TraceCtx` is attached.
        tenant: Option<String>,
    },
    /// Outcome totals; always the last record.
    End {
        /// Faults committed to the result.
        faults: u64,
        /// No-effect outcomes.
        no_effect: u64,
        /// Safe-detected outcomes.
        safe_detected: u64,
        /// Dangerous-detected outcomes.
        dangerous_detected: u64,
        /// Dangerous-undetected outcomes.
        dangerous_undetected: u64,
        /// Measured diagnostic coverage, when defined.
        dc: Option<f64>,
        /// Measured safe failure fraction, when defined.
        sff: Option<f64>,
        /// Campaign wall-clock.
        elapsed_nanos: u64,
    },
}

impl TraceEvent {
    /// The event as one JSON object (the line the sink writes).
    pub fn to_json(&self) -> Value {
        match self {
            TraceEvent::Meta {
                design,
                faults,
                threads,
                cycles,
                seed,
                engine,
                collapse,
            } => Value::obj(vec![
                ("ev", Value::Str("meta".into())),
                ("schema", Value::Int(TRACE_SCHEMA_VERSION)),
                ("design", Value::Str(design.clone())),
                ("faults", Value::uint(*faults)),
                ("threads", Value::uint(*threads)),
                ("cycles", Value::uint(*cycles)),
                ("seed", Value::uint(*seed)),
                ("engine", Value::Str((*engine).into())),
                ("collapse", Value::Bool(*collapse)),
            ]),
            TraceEvent::Fault(r) => Value::obj(vec![
                ("ev", Value::Str("fault".into())),
                ("i", Value::uint(r.index)),
                ("label", Value::Str(r.label.clone())),
                ("kind", Value::Str(r.kind.clone())),
                ("site", Value::opt(r.site.clone(), Value::Str)),
                ("zone", Value::opt(r.zone.clone(), Value::Str)),
                ("inject", Value::uint(r.inject_cycle)),
                ("outcome", Value::Str(r.outcome.into())),
                ("mismatch", Value::opt(r.first_mismatch, Value::uint)),
                ("alarm", Value::opt(r.alarm_cycle, Value::uint)),
                ("sim", Value::uint(r.cycles_simulated)),
                ("skip", Value::uint(r.cycles_skipped)),
                ("engine", Value::Str(r.engine.into())),
                ("rep", Value::opt(r.rep, Value::uint)),
                ("shard", Value::opt(r.shard, Value::uint)),
                ("nanos", Value::uint(r.nanos)),
            ]),
            TraceEvent::Span {
                name,
                nanos,
                shard,
                job,
                tenant,
            } => {
                let mut fields = vec![
                    ("ev", Value::Str("span".into())),
                    ("name", Value::Str(name.clone())),
                    ("nanos", Value::uint(*nanos)),
                    ("shard", Value::opt(*shard, Value::uint)),
                ];
                // correlation keys only appear on correlated records, so
                // single-process CLI traces keep their exact shape
                if let Some(job) = job {
                    fields.push(("job", Value::Str(job.clone())));
                }
                if let Some(tenant) = tenant {
                    fields.push(("tenant", Value::Str(tenant.clone())));
                }
                Value::obj(fields)
            }
            TraceEvent::Phase {
                name,
                nanos,
                job,
                tenant,
            } => {
                let mut fields = vec![
                    ("ev", Value::Str("phase".into())),
                    ("name", Value::Str(name.clone())),
                    ("nanos", Value::uint(*nanos)),
                ];
                if let Some(job) = job {
                    fields.push(("job", Value::Str(job.clone())));
                }
                if let Some(tenant) = tenant {
                    fields.push(("tenant", Value::Str(tenant.clone())));
                }
                Value::obj(fields)
            }
            TraceEvent::End {
                faults,
                no_effect,
                safe_detected,
                dangerous_detected,
                dangerous_undetected,
                dc,
                sff,
                elapsed_nanos,
            } => Value::obj(vec![
                ("ev", Value::Str("end".into())),
                ("faults", Value::uint(*faults)),
                ("ne", Value::uint(*no_effect)),
                ("sd", Value::uint(*safe_detected)),
                ("dd", Value::uint(*dangerous_detected)),
                ("du", Value::uint(*dangerous_undetected)),
                ("dc", Value::opt(*dc, Value::Float)),
                ("sff", Value::opt(*sff, Value::Float)),
                ("elapsed_nanos", Value::uint(*elapsed_nanos)),
            ]),
        }
    }
}

/// Queue capacity of the sink: deep enough that the writer thread absorbs
/// bursts, small enough that a wedged writer back-pressures promptly.
const SINK_CAPACITY: usize = 4096;

/// An in-memory append-only trace stream with blocking tail reads.
///
/// The live end of a campaign's JSONL trace: one producer appends whole
/// lines (via [`StreamBuffer::writer`] hooked into a [`TraceSink`]), any
/// number of consumers follow along with [`read_from`](Self::read_from),
/// each tracking its own byte offset. [`close`](Self::close) marks the
/// stream complete, waking every waiting reader — after which a drained
/// reader sees end-of-stream instead of blocking.
///
/// Closed streams with equal bytes can share one allocation
/// ([`freeze`](Self::freeze), [`share`](Self::share)); readers see the
/// same bytes either way.
#[derive(Debug, Default)]
pub struct StreamBuffer {
    state: Mutex<StreamState>,
    readable: Condvar,
}

#[derive(Debug, Default)]
struct StreamState {
    /// The bytes, until a closed stream moves them into `shared`.
    data: Vec<u8>,
    shared: Option<Arc<[u8]>>,
    closed: bool,
}

impl StreamState {
    fn bytes(&self) -> &[u8] {
        self.shared.as_deref().unwrap_or(&self.data)
    }
}

impl StreamBuffer {
    /// An empty, open stream.
    pub fn new() -> StreamBuffer {
        StreamBuffer::default()
    }

    /// Appends raw bytes (the sink appends whole `\n`-terminated lines)
    /// and wakes blocked readers. Appends after [`close`](Self::close) are
    /// ignored.
    pub fn append(&self, bytes: &[u8]) {
        let mut st = self.state.lock().expect("stream lock");
        if !st.closed {
            st.data.extend_from_slice(bytes);
            self.readable.notify_all();
        }
    }

    /// Marks the stream complete and wakes every waiting reader.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("stream lock");
        st.closed = true;
        self.readable.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("stream lock").closed
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.state.lock().expect("stream lock").bytes().len()
    }

    /// True when nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the full stream so far.
    pub fn snapshot(&self) -> Vec<u8> {
        self.state.lock().expect("stream lock").bytes().to_vec()
    }

    /// Reads everything past `offset`, blocking up to `timeout` for fresh
    /// bytes when the reader is caught up. Returns the bytes (possibly
    /// empty on timeout) and `true` once the stream is closed **and** the
    /// reader has drained it — the end-of-stream signal.
    pub fn read_from(&self, offset: usize, timeout: Duration) -> (Vec<u8>, bool) {
        let mut st = self.state.lock().expect("stream lock");
        if st.data.len() <= offset && !st.closed {
            let (guard, _) = self
                .readable
                .wait_timeout_while(st, timeout, |s| s.data.len() <= offset && !s.closed)
                .expect("stream lock");
            st = guard;
        }
        let all = st.bytes();
        let bytes = all.get(offset..).unwrap_or_default().to_vec();
        let done = st.closed && offset + bytes.len() >= all.len();
        (bytes, done)
    }

    /// Moves a closed stream's bytes into one shareable allocation and
    /// returns it; `None` while the stream is open. A frozen or sharing
    /// stream returns the allocation it already reads from.
    pub fn freeze(&self) -> Option<Arc<[u8]>> {
        let mut st = self.state.lock().expect("stream lock");
        if !st.closed {
            return None;
        }
        if st.shared.is_none() {
            st.shared = Some(Arc::from(std::mem::take(&mut st.data)));
        }
        st.shared.clone()
    }

    /// Drops a closed stream's own bytes and reads from `shared` instead,
    /// when the two are equal byte for byte; true when it did. An open
    /// stream, or one whose bytes differ, is left alone.
    pub fn share(&self, shared: &Arc<[u8]>) -> bool {
        let mut st = self.state.lock().expect("stream lock");
        if !st.closed || st.bytes() != &shared[..] {
            return false;
        }
        st.data = Vec::new();
        st.shared = Some(Arc::clone(shared));
        true
    }

    /// A [`Write`] adapter appending into this stream; dropping it closes
    /// the stream, so a [`TraceSink`] draining into it marks end-of-stream
    /// when the sink finishes (or its writer thread dies).
    pub fn writer(self: &Arc<Self>) -> StreamWriter {
        StreamWriter(Arc::clone(self))
    }
}

/// The [`Write`] half of a [`StreamBuffer`]; see [`StreamBuffer::writer`].
#[derive(Debug)]
pub struct StreamWriter(Arc<StreamBuffer>);

impl Write for StreamWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.append(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Per-event rewrite applied on the writer thread before serialization;
/// `None` drops the event. See [`TraceSink::to_writer_mapped`].
pub type EventMap = Box<dyn FnMut(TraceEvent) -> Option<TraceEvent> + Send>;

/// A JSONL sink writing trace events on a dedicated thread.
pub struct TraceSink {
    tx: Sender<TraceEvent>,
    writer: JoinHandle<io::Result<()>>,
}

fn drain(
    rx: &Receiver<TraceEvent>,
    mut out: Box<dyn Write + Send>,
    mut map: Option<EventMap>,
) -> io::Result<()> {
    let mut line = String::new();
    while let Some(ev) = rx.recv() {
        let Some(ev) = (match map.as_mut() {
            Some(f) => f(ev),
            None => Some(ev),
        }) else {
            continue;
        };
        line.clear();
        use std::fmt::Write as _;
        let _ = write!(line, "{}", ev.to_json());
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

impl TraceSink {
    /// A sink appending JSONL to a freshly created (truncated) file.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::to_writer(Box::new(BufWriter::new(file))))
    }

    /// A sink over any writer (tests capture into a shared buffer).
    pub fn to_writer(out: Box<dyn Write + Send>) -> TraceSink {
        let (tx, rx) = bounded::<TraceEvent>(SINK_CAPACITY);
        let writer = std::thread::spawn(move || drain(&rx, out, None));
        TraceSink { tx, writer }
    }

    /// A sink that rewrites each event through `map` (on the writer
    /// thread) before serializing; events mapped to `None` are dropped.
    /// The campaign server uses this to strip wall-clock-dependent fields
    /// so streamed traces are deterministic.
    pub fn to_writer_mapped(out: Box<dyn Write + Send>, map: EventMap) -> TraceSink {
        let (tx, rx) = bounded::<TraceEvent>(SINK_CAPACITY);
        let writer = std::thread::spawn(move || drain(&rx, out, Some(map)));
        TraceSink { tx, writer }
    }

    /// Enqueues one event. Serialization and I/O happen on the writer
    /// thread; this blocks only when the queue is a full `SINK_CAPACITY`
    /// events ahead of the writer. Events emitted after a writer I/O error
    /// are silently dropped (the error surfaces from
    /// [`finish`](Self::finish)).
    pub fn emit(&self, ev: TraceEvent) {
        let _ = self.tx.send(ev);
    }

    /// Closes the queue, joins the writer, and surfaces any I/O error.
    ///
    /// # Errors
    ///
    /// The first write/flush error the writer thread hit, if any.
    pub fn finish(self) -> io::Result<()> {
        drop(self.tx);
        match self.writer.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("trace writer thread panicked")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::sync::{Arc, Mutex};

    /// A Write sink tests can read back after the writer thread is done.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub(crate) Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_fault(i: u64) -> FaultRecord {
        FaultRecord {
            index: i,
            label: format!("flip #{i}"),
            kind: "bitflip".into(),
            site: Some("data[0]".into()),
            zone: Some("regs/data".into()),
            inject_cycle: 3,
            outcome: "DD",
            first_mismatch: Some(4),
            alarm_cycle: Some(4),
            cycles_simulated: 21,
            cycles_skipped: 3,
            engine: "ppsfp",
            rep: None,
            shard: Some(0),
            nanos: 1234,
        }
    }

    #[test]
    fn events_serialize_to_one_parseable_line_each() {
        let events = [
            TraceEvent::Meta {
                design: "prot".into(),
                faults: 8,
                threads: 2,
                cycles: 24,
                seed: 7,
                engine: "ppsfp",
                collapse: false,
            },
            TraceEvent::Fault(sample_fault(0)),
            TraceEvent::Span {
                name: "campaign/shard/1".into(),
                nanos: 99,
                shard: Some(1),
                job: Some("j-000001".into()),
                tenant: Some("default".into()),
            },
            TraceEvent::Phase {
                name: "extract".into(),
                nanos: 5,
                job: None,
                tenant: None,
            },
            TraceEvent::End {
                faults: 8,
                no_effect: 1,
                safe_detected: 2,
                dangerous_detected: 4,
                dangerous_undetected: 1,
                dc: Some(0.8),
                sff: Some(0.875),
                elapsed_nanos: 1000,
            },
        ];
        for ev in &events {
            let line = ev.to_json().to_string();
            assert!(!line.contains('\n'));
            let v = parse(&line).expect("line parses");
            assert!(v.get("ev").is_some(), "{line}");
        }
    }

    #[test]
    fn sink_writes_events_in_emit_order() {
        let buf = SharedBuf::default();
        let sink = TraceSink::to_writer(Box::new(buf.clone()));
        for i in 0..100 {
            sink.emit(TraceEvent::Fault(sample_fault(i)));
        }
        sink.finish().expect("writer ok");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let indices: Vec<u64> = text
            .lines()
            .map(|l| parse(l).unwrap().get("i").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(indices, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fault_record_round_trips_through_json() {
        let r = sample_fault(7);
        let line = TraceEvent::Fault(r.clone()).to_json().to_string();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("i").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("bitflip"));
        assert_eq!(v.get("site").unwrap().as_str(), Some("data[0]"));
        assert_eq!(v.get("zone").unwrap().as_str(), Some("regs/data"));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("DD"));
        assert_eq!(v.get("sim").unwrap().as_u64(), Some(21));
        assert_eq!(v.get("skip").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("engine").unwrap().as_str(), Some("ppsfp"));
        assert!(v.get("rep").unwrap().is_null());
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn mapped_sink_rewrites_and_drops_events() {
        let buf = SharedBuf::default();
        let sink = TraceSink::to_writer_mapped(
            Box::new(buf.clone()),
            Box::new(|ev| match ev {
                // normalize wall-clock fields, drop spans entirely
                TraceEvent::Fault(mut r) => {
                    r.nanos = 0;
                    r.shard = None;
                    Some(TraceEvent::Fault(r))
                }
                TraceEvent::Span { .. } => None,
                other => Some(other),
            }),
        );
        sink.emit(TraceEvent::Fault(sample_fault(0)));
        sink.emit(TraceEvent::Span {
            name: "campaign/shard/0".into(),
            nanos: 55,
            shard: Some(0),
            job: None,
            tenant: None,
        });
        sink.emit(TraceEvent::Phase {
            name: "extract".into(),
            nanos: 9,
            job: None,
            tenant: None,
        });
        sink.finish().expect("writer ok");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2, "span must be dropped: {text}");
        let fault = parse(lines[0]).unwrap();
        assert_eq!(fault.get("nanos").unwrap().as_u64(), Some(0));
        assert!(fault.get("shard").unwrap().is_null());
        assert_eq!(
            parse(lines[1]).unwrap().get("ev").unwrap().as_str(),
            Some("phase")
        );
    }

    #[test]
    fn stream_buffer_tails_live_appends_and_signals_close() {
        let buf = Arc::new(StreamBuffer::new());
        assert!(buf.is_empty());
        buf.append(b"one\n");
        let (bytes, done) = buf.read_from(0, Duration::ZERO);
        assert_eq!(bytes, b"one\n");
        assert!(!done);
        // a caught-up reader blocks until the producer appends
        let tail = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || buf.read_from(4, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        buf.append(b"two\n");
        let (bytes, done) = tail.join().unwrap();
        assert_eq!(bytes, b"two\n");
        assert!(!done);
        buf.close();
        let (bytes, done) = buf.read_from(8, Duration::ZERO);
        assert!(bytes.is_empty());
        assert!(done, "drained reader of a closed stream sees end-of-stream");
        let (bytes, done) = buf.read_from(0, Duration::ZERO);
        assert_eq!(bytes, b"one\ntwo\n");
        assert!(done);
        assert_eq!(buf.snapshot(), b"one\ntwo\n");
    }

    #[test]
    fn closed_streams_with_equal_bytes_share_one_allocation() {
        let stream = |bytes: &[u8], close: bool| {
            let buf = StreamBuffer::new();
            buf.append(bytes);
            if close {
                buf.close();
            }
            buf
        };
        let first = stream(b"a\nb\n", true);
        assert!(
            stream(b"a\n", false).freeze().is_none(),
            "open streams never freeze"
        );
        let shared = first.freeze().expect("closed");
        assert!(Arc::ptr_eq(&shared, &first.freeze().unwrap()), "idempotent");
        assert_eq!(first.snapshot(), b"a\nb\n");

        let twin = stream(b"a\nb\n", true);
        assert!(twin.share(&shared));
        assert!(Arc::ptr_eq(&shared, &twin.freeze().unwrap()));
        // readers see the same bytes, offsets and end-of-stream as before
        assert_eq!(twin.len(), 4);
        assert_eq!(twin.read_from(2, Duration::ZERO), (b"b\n".to_vec(), true));

        // a differing or still-open stream keeps its own bytes
        let prefix = stream(b"a\n", true);
        assert!(!prefix.share(&shared));
        assert!(!Arc::ptr_eq(&shared, &prefix.freeze().unwrap()));
        let open = stream(b"a\nb\n", false);
        assert!(!open.share(&shared));
        open.append(b"c\n");
        assert_eq!(open.snapshot(), b"a\nb\nc\n");
    }

    #[test]
    fn finished_sink_closes_its_stream_buffer() {
        let buf = Arc::new(StreamBuffer::new());
        let sink = TraceSink::to_writer(Box::new(buf.writer()));
        sink.emit(TraceEvent::Phase {
            name: "p".into(),
            nanos: 1,
            job: None,
            tenant: None,
        });
        assert!(!buf.is_closed());
        sink.finish().expect("writer ok");
        assert!(buf.is_closed());
        let (bytes, done) = buf.read_from(0, Duration::ZERO);
        assert!(done);
        assert!(parse(String::from_utf8(bytes).unwrap().trim()).is_ok());
    }

    #[test]
    fn file_sink_produces_a_readable_trace() {
        let path = std::env::temp_dir().join(format!("obs_sink_{}.jsonl", std::process::id()));
        let sink = TraceSink::to_file(&path).expect("create");
        sink.emit(TraceEvent::Phase {
            name: "p".into(),
            nanos: 1,
            job: None,
            tenant: None,
        });
        sink.finish().expect("flush");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(parse(text.trim()).is_ok());
        let _ = std::fs::remove_file(path);
    }
}
