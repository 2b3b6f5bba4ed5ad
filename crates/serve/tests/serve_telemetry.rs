//! Correlated-telemetry differentials: the normalized `/trace` stream
//! must be a pure function of `(design, spec)` — byte-identical whether
//! telemetry is on or off and whatever the thread count — while the
//! `/events` channel carries correlated lifecycle/progress/span records
//! whose span tree accounts for (nearly) all of the campaign wall-clock.

use socfmea_obs::json::{self, Value};
use socfmea_obs::{Profile, TraceSummary};
use socfmea_serve::{Client, Server, ServerConfig};
use std::time::Duration;

fn start(telemetry: bool) -> (Server, Client) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 16,
        cache_bytes: usize::MAX,
        default_threads: 2,
        telemetry,
    })
    .expect("bind an ephemeral port");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn doc(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|e| panic!("malformed line `{body}`: {e}"))
}

fn run_to_done(client: &Client, body: &str) -> String {
    let resp = client.submit_raw(body).expect("submit");
    assert_eq!(resp.status, 202, "rejected: {}", resp.text());
    let job = doc(&resp.text())
        .get("job")
        .and_then(|v| v.as_str().map(str::to_owned))
        .expect("job id");
    for _ in 0..2400 {
        let status = client.status(&job).expect("status");
        let d = doc(&status.text());
        match d.get("state").unwrap().as_str().unwrap() {
            "queued" | "running" => std::thread::sleep(Duration::from_millis(25)),
            "done" => return job,
            other => panic!("job {job} ended {other}: {:?}", d.get("error")),
        }
    }
    panic!("job {job} never finished");
}

fn trace_of(client: &Client, job: &str) -> String {
    let mut body = Vec::new();
    assert_eq!(client.watch(job, &mut body).expect("watch"), 200);
    String::from_utf8(body).expect("UTF-8 trace")
}

fn events_of(client: &Client, job: &str) -> String {
    let mut body = Vec::new();
    assert_eq!(client.events(job, &mut body).expect("events"), 200);
    String::from_utf8(body).expect("UTF-8 events")
}

fn spec(threads: usize) -> String {
    format!(r#"{{"example":"fmem","cycles":12,"seed":9,"threads":{threads}}}"#)
}

#[test]
fn normalized_trace_is_byte_identical_with_telemetry_on_and_off() {
    let (on_server, on) = start(true);
    let (off_server, off) = start(false);
    let mut traces = Vec::new();
    for threads in [1, 4] {
        for client in [&on, &off] {
            let job = run_to_done(client, &spec(threads));
            traces.push(trace_of(client, &job));
        }
    }
    assert!(!traces[0].is_empty());
    for t in &traces[1..] {
        assert_eq!(
            &traces[0], t,
            "normalized trace must not depend on telemetry or thread count"
        );
    }
    on_server.shutdown();
    off_server.shutdown();
    on_server.join();
    off_server.join();
}

#[test]
fn events_stream_is_correlated_and_spans_cover_the_wall_clock() {
    let (server, client) = start(true);
    // cold run warms the artifact cache; the warm run is the one profiled
    run_to_done(&client, &spec(1));
    let job = run_to_done(&client, &spec(1));
    let events = events_of(&client, &job);

    let mut kinds = std::collections::BTreeSet::new();
    let mut states = Vec::new();
    for line in events.lines() {
        let v = doc(line);
        let ev = v.get("ev").unwrap().as_str().unwrap().to_owned();
        // every correlatable record names its job and tenant
        if matches!(ev.as_str(), "lifecycle" | "progress" | "span" | "phase") {
            assert_eq!(v.get("job").unwrap().as_str(), Some(job.as_str()), "{line}");
            assert_eq!(v.get("tenant").unwrap().as_str(), Some("default"), "{line}");
        }
        if ev == "lifecycle" {
            states.push(v.get("state").unwrap().as_str().unwrap().to_owned());
        }
        if ev == "span" {
            let name = v.get("name").unwrap().as_str().unwrap().to_owned();
            assert!(name.starts_with("serve/"), "spans root under serve: {name}");
        }
        kinds.insert(ev);
    }
    for kind in ["lifecycle", "progress", "span", "meta", "end"] {
        assert!(kinds.contains(kind), "missing {kind} events in:\n{events}");
    }
    assert_eq!(states.first().map(String::as_str), Some("queued"));
    assert!(states.contains(&"running".to_owned()), "{states:?}");
    assert_eq!(states.last().map(String::as_str), Some("done"));

    // the final progress sample agrees with the job's fault count
    let last_progress = events
        .lines()
        .rfind(|l| l.contains(r#""ev":"progress""#))
        .expect("at least one progress sample");
    let p = doc(last_progress);
    let done = p.get("faults_done").unwrap().as_u64().unwrap();
    assert_eq!(p.get("faults_total").unwrap().as_u64(), Some(done));
    assert!(p.get("faults_per_sec").unwrap().as_f64().unwrap() > 0.0);

    // self-time over the span tree accounts for >=95% of the campaign
    // wall-clock reported by the (un-normalized) end record
    let summary = TraceSummary::from_str(&events).expect("events parse as a trace");
    let profile = Profile::from_summary(&summary);
    let coverage = profile.coverage().expect("end record carries wall-clock");
    assert!(
        coverage >= 0.95,
        "span self-times cover {:.1}% of wall-clock (folded:\n{})",
        coverage * 100.0,
        profile.render_folded()
    );

    // labeled per-job series surfaced in the Prometheus exposition
    let metrics = client.metrics().unwrap().text();
    let labeled = format!(r#"job="{job}",tenant="default""#);
    assert!(
        metrics.lines().any(|l| l.contains(&labeled)),
        "no labeled series for {job} in:\n{metrics}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_cold_job_times_each_build_phase_and_a_warm_job_none() {
    let (server, client) = start(true);
    let phases = |job: &str| -> Vec<String> {
        events_of(&client, job)
            .lines()
            .map(doc)
            .filter(|v| v.get("ev").and_then(Value::as_str) == Some("phase"))
            .map(|v| v.get("name").unwrap().as_str().unwrap().to_owned())
            .collect()
    };
    // the profile records the golden run the prepared artifacts share, so
    // the recording shows as its own phase, before the fault list
    let cold = run_to_done(&client, &spec(1));
    assert_eq!(
        phases(&cold),
        ["build-workload", "build-profile", "build-faults", "prepare"]
    );
    let warm = run_to_done(&client, &spec(1));
    assert!(phases(&warm).is_empty(), "{:?}", phases(&warm));
    server.shutdown();
    server.join();
}

#[test]
fn telemetry_off_keeps_the_events_stream_to_lifecycle_records() {
    let (server, client) = start(false);
    let job = run_to_done(&client, &spec(1));
    let events = events_of(&client, &job);
    for line in events.lines() {
        let v = doc(line);
        assert_eq!(
            v.get("ev").unwrap().as_str(),
            Some("lifecycle"),
            "telemetry off must not emit timing records: {line}"
        );
    }
    // the shared registry carries no per-job labeled series
    let metrics = client.metrics().unwrap().text();
    assert!(
        !metrics.contains(r#"job="j-"#),
        "labeled job series leaked into the registry:\n{metrics}"
    );
    server.shutdown();
    server.join();
}
