//! Protocol-level tests against a live campaign server: golden
//! request/response shapes, rejection paths, backpressure, cancellation,
//! and the determinism of concurrently streamed traces.

use socfmea_obs::json::{self, Value};
use socfmea_serve::{Client, Server, ServerConfig};
use std::time::Duration;

fn start(workers: usize, queue: usize) -> (Server, Client) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: queue,
        cache_bytes: usize::MAX,
        default_threads: 2,
        telemetry: true,
    })
    .expect("bind an ephemeral port");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn doc(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|e| panic!("malformed response `{body}`: {e}"))
}

fn submit(client: &Client, body: &str) -> String {
    let resp = client.submit_raw(body).expect("submit");
    assert_eq!(resp.status, 202, "unexpected rejection: {}", resp.text());
    doc(&resp.text())
        .get("job")
        .and_then(|v| v.as_str().map(str::to_owned))
        .expect("submit response names the job")
}

fn state_of(client: &Client, job: &str) -> (String, Value) {
    let resp = client.status(job).expect("status");
    assert_eq!(resp.status, 200);
    let d = doc(&resp.text());
    let state = d.get("state").unwrap().as_str().unwrap().to_owned();
    (state, d)
}

fn wait_terminal(client: &Client, job: &str) -> (String, Value) {
    for _ in 0..1200 {
        let (state, d) = state_of(client, job);
        if state != "queued" && state != "running" {
            return (state, d);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {job} never reached a terminal state");
}

fn wait_running(client: &Client, job: &str) {
    for _ in 0..1200 {
        let (state, _) = state_of(client, job);
        if state == "running" {
            return;
        }
        assert_eq!(state, "queued", "job {job} left the queue as {state}");
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {job} never started running");
}

fn watch(client: &Client, job: &str) -> String {
    let mut body = Vec::new();
    let status = client.watch(job, &mut body).expect("watch");
    assert_eq!(status, 200);
    String::from_utf8(body).expect("traces are UTF-8")
}

#[test]
fn submit_status_and_trace_have_the_golden_shape() {
    let (server, client) = start(1, 16);
    let resp = client
        .submit_raw(r#"{"example":"fmem","cycles":8,"seed":7}"#)
        .unwrap();
    assert_eq!(resp.status, 202);
    let d = doc(&resp.text());
    assert_eq!(d.get("job").unwrap().as_str(), Some("j-000001"));
    assert_eq!(d.get("state").unwrap().as_str(), Some("queued"));
    let key = d.get("design_key").unwrap().as_str().unwrap().to_owned();
    assert_eq!(key.len(), 16, "design key is 16 hex digits, got `{key}`");
    assert!(key.chars().all(|c| c.is_ascii_hexdigit()));

    let (state, d) = wait_terminal(&client, "j-000001");
    assert_eq!(state, "done", "error: {:?}", d.get("error"));
    assert_eq!(d.get("tenant").unwrap().as_str(), Some("default"));
    assert_eq!(d.get("design_key").unwrap().as_str(), Some(key.as_str()));
    let faults = d.get("faults").unwrap().as_u64().unwrap();
    assert!(faults > 0);
    assert_eq!(d.get("faults_done").unwrap().as_u64(), Some(faults));
    assert_eq!(d.get("faults_scheduled").unwrap().as_u64(), Some(faults));
    assert!(d.get("error").unwrap().is_null());

    // the streamed trace: meta first, one normalized record per fault, end
    // last, and nothing wall-clock-dependent anywhere
    let trace = watch(&client, "j-000001");
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.len() as u64, faults + 2, "meta + faults + end");
    let events: Vec<Value> = lines.iter().map(|l| doc(l)).collect();
    assert_eq!(events[0].get("ev").unwrap().as_str(), Some("meta"));
    let last = events.last().unwrap();
    assert_eq!(last.get("ev").unwrap().as_str(), Some("end"));
    assert_eq!(last.get("faults").unwrap().as_u64(), Some(faults));
    assert_eq!(last.get("elapsed_nanos").unwrap().as_u64(), Some(0));
    for ev in &events[1..events.len() - 1] {
        assert_eq!(ev.get("ev").unwrap().as_str(), Some("fault"));
        assert_eq!(ev.get("nanos").unwrap().as_u64(), Some(0));
        assert!(ev.get("shard").is_none_or(|s| s.is_null()));
    }

    server.shutdown();
    server.join();
}

#[test]
fn bad_submissions_and_unknown_jobs_are_rejected() {
    let (server, client) = start(1, 16);

    let resp = client.submit_raw("this is not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(doc(&resp.text())
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("malformed JSON"));

    let resp = client.submit_raw("{}").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("missing design"));

    let resp = client
        .submit_raw(r#"{"example":"dsp","cycles":8}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("unknown example"));

    let resp = client
        .submit_raw(r#"{"verilog":"module broken(;","cycles":8}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("verilog"));

    // a body over the 4 MiB cap draws 413 before the server buffers it
    // (the server may also slam the connection mid-upload, which surfaces
    // client-side as an I/O error — both are acceptable rejections)
    let huge = format!(r#"{{"verilog":"{}"}}"#, "x".repeat(5 * 1024 * 1024));
    match client.submit_raw(&huge) {
        Ok(resp) => assert_eq!(resp.status, 413),
        Err(_connection_reset) => {}
    }

    // unknown jobs: status, cancel and watch all 404
    let resp = client.status("j-999999").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.text().contains("no such job"));
    let resp = client.cancel("j-999999").unwrap();
    assert_eq!(resp.status, 404);
    let mut sink = Vec::new();
    assert_eq!(client.watch("j-999999", &mut sink).unwrap(), 404);

    // routing: wrong method and wrong path are named
    let resp = socfmea_serve::http::request(&server.addr().to_string(), "PUT", "/v1/jobs/j-1", "")
        .unwrap();
    assert_eq!(resp.status, 405);
    let resp =
        socfmea_serve::http::request(&server.addr().to_string(), "GET", "/v2/nope", "").unwrap();
    assert_eq!(resp.status, 404);

    server.shutdown();
    server.join();
}

#[test]
fn a_full_queue_draws_429_with_a_retry_hint() {
    // one worker, one queue slot: a long-running job plus one queued job
    // saturate the server
    let (server, client) = start(1, 1);
    let long = submit(&client, r#"{"example":"fmem","cycles":2048,"tenant":"a"}"#);
    wait_running(&client, &long);
    let queued = submit(&client, r#"{"example":"fmem","cycles":8,"tenant":"a"}"#);

    let resp = client
        .submit_raw(r#"{"example":"fmem","cycles":8,"tenant":"b"}"#)
        .unwrap();
    assert_eq!(resp.status, 429);
    assert!(
        resp.header("retry-after").is_some(),
        "429 carries Retry-After"
    );
    assert!(resp.text().contains("queue full"));

    // draining the long job frees the slot: the queued job completes and
    // new submissions are accepted again
    let resp = client.cancel(&long).unwrap();
    assert_eq!(resp.status, 200);
    let (state, _) = wait_terminal(&client, &long);
    assert_eq!(state, "cancelled");
    let (state, _) = wait_terminal(&client, &queued);
    assert_eq!(state, "done");
    let retry = submit(&client, r#"{"example":"fmem","cycles":8,"tenant":"b"}"#);
    let (state, _) = wait_terminal(&client, &retry);
    assert_eq!(state, "done");

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_same_design_submissions_stream_byte_identical_traces() {
    let (server, client) = start(3, 16);
    // three tenants submit the same (design, spec) concurrently with
    // *different* thread counts — results and traces must not care
    let jobs: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let client = Client::new(server.addr().to_string());
                s.spawn(move || {
                    submit(
                        &client,
                        &format!(
                            r#"{{"example":"fmem","cycles":12,"seed":9,"threads":{},"tenant":"t{}"}}"#,
                            i + 1,
                            i
                        ),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut traces = Vec::new();
    for job in &jobs {
        let (state, d) = wait_terminal(&client, job);
        assert_eq!(state, "done", "{job}: {:?}", d.get("error"));
        traces.push(watch(&client, job));
    }
    assert!(!traces[0].is_empty());
    assert_eq!(traces[0], traces[1], "traces differ across workers");
    assert_eq!(traces[0], traces[2], "traces differ across thread counts");

    server.shutdown();
    server.join();
}

#[test]
fn cancelling_a_running_job_keeps_a_clean_streamed_prefix() {
    let (server, client) = start(1, 4);
    let job = submit(&client, r#"{"example":"fmem","cycles":512}"#);
    wait_running(&client, &job);
    let resp = client.cancel(&job).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        doc(&resp.text()).get("cancelled").unwrap().as_bool(),
        Some(true)
    );

    let (state, d) = wait_terminal(&client, &job);
    assert_eq!(state, "cancelled");
    let committed = d.get("faults").unwrap().as_u64().unwrap();
    let scheduled = d.get("faults_scheduled").unwrap().as_u64().unwrap();
    assert!(
        committed < scheduled,
        "cancellation should land mid-campaign ({committed}/{scheduled})"
    );

    // the stream terminated and every record in it is complete
    let trace = watch(&client, &job);
    for line in trace.lines() {
        doc(line);
    }

    // cancelling a terminal job is a no-op, reported as such
    let resp = client.cancel(&job).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        doc(&resp.text()).get("cancelled").unwrap().as_bool(),
        Some(false)
    );

    server.shutdown();
    server.join();
}

#[test]
fn cancelling_a_queued_job_prevents_it_from_running() {
    let (server, client) = start(1, 4);
    let long = submit(&client, r#"{"example":"fmem","cycles":512}"#);
    wait_running(&client, &long);
    let queued = submit(&client, r#"{"example":"fmem","cycles":8}"#);
    let resp = client.cancel(&queued).unwrap();
    assert_eq!(resp.status, 200);
    let (state, d) = state_of(&client, &queued);
    assert_eq!(state, "cancelled");
    assert!(d.get("faults").unwrap().is_null(), "never ran, no summary");
    // its stream is closed and empty
    assert_eq!(watch(&client, &queued), "");

    client.cancel(&long).unwrap();
    wait_terminal(&client, &long);
    server.shutdown();
    server.join();
}

#[test]
fn healthz_aggregates_and_admin_shutdown_drain_the_server() {
    let (server, client) = start(2, 8);
    let job = submit(&client, r#"{"example":"fmem","cycles":8}"#);
    let (state, _) = wait_terminal(&client, &job);
    assert_eq!(state, "done");

    let resp = client.healthz().unwrap();
    assert_eq!(resp.status, 200);
    let d = doc(&resp.text());
    assert_eq!(d.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(d.get("jobs").unwrap().as_u64(), Some(1));
    assert_eq!(d.get("done").unwrap().as_u64(), Some(1));
    assert_eq!(d.get("designs_cached").unwrap().as_u64(), Some(1));

    let resp = client.metrics_json().unwrap();
    assert_eq!(resp.status, 200);
    let counters = doc(&resp.text());
    let submitted = counters
        .get("counters")
        .and_then(|c| c.get("serve.jobs.submitted"))
        .and_then(|v| v.as_u64());
    assert_eq!(submitted, Some(1));

    // the default exposition is Prometheus text with per-route series
    let resp = client.metrics().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let text = resp.text();
    assert!(
        text.contains("# TYPE serve_jobs_submitted counter"),
        "{text}"
    );
    assert!(
        text.contains(r#"serve_http_requests{method="POST",route="/v1/jobs"}"#),
        "{text}"
    );

    // shutdown over the wire; join() then returns
    let resp = client.shutdown().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"));
    server.join();
}
