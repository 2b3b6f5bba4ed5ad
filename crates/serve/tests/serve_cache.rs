//! Cache-correctness differential: for every bundled example, a warm
//! resubmission of the same `(design, spec)` must (a) rebuild **nothing**
//! — asserted through the server's own build counters — and (b) stream a
//! byte-identical trace to the cold run. Under a small budget, one-off
//! designs are evicted while the warm one keeps its artifacts, and every
//! job still answers what a local lockstep campaign answers.

use socfmea_faultsim::{
    generate_fault_list, Campaign, Engine, EnvironmentBuilder, FaultListConfig, OperationalProfile,
};
use socfmea_obs::json::{self, Value};
use socfmea_obs::metrics::Registry;
use socfmea_serve::{
    random_workload, resolve, ArtifactCache, Client, DesignRef, Example, JobSpec, Server,
    ServerConfig, EXAMPLES,
};
use std::sync::Arc;
use std::time::Duration;

fn doc(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|e| panic!("malformed response `{body}`: {e}"))
}

fn counter(client: &Client, name: &str) -> u64 {
    let resp = client.metrics_json().expect("metrics");
    assert_eq!(resp.status, 200);
    doc(&resp.text())
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

fn run_to_done(client: &Client, body: &str) -> (String, String) {
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
            "done" => {
                let mut body = Vec::new();
                assert_eq!(client.watch(&job, &mut body).expect("watch"), 200);
                return (job, String::from_utf8(body).expect("UTF-8 trace"));
            }
            other => panic!("job {job} ended {other}: {:?}", d.get("error")),
        }
    }
    panic!("job {job} never finished");
}

#[test]
fn warm_resubmissions_rebuild_nothing_and_stream_bit_identical_traces() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_bytes: usize::MAX,
        default_threads: 2,
        telemetry: true,
    })
    .expect("bind");
    let client = Client::new(server.addr().to_string());

    for example in EXAMPLES {
        let spec = format!(
            r#"{{"example":"{}","cycles":10,"seed":11,"collapse":true,"prune":true}}"#,
            example.name()
        );
        let (_, cold) = run_to_done(&client, &spec);
        let builds = counter(&client, "serve.build.artifacts");
        let workloads = counter(&client, "serve.build.workload");
        let fault_builds = counter(&client, "serve.build.faults");
        let spec_hits = counter(&client, "serve.cache.spec.hit");
        let design_hits = counter(&client, "serve.cache.design.hit");

        // warm: same design hash, same spec — zero rebuild work
        let (_, warm) = run_to_done(&client, &spec);
        assert_eq!(
            counter(&client, "serve.build.artifacts"),
            builds,
            "{}: warm run rebuilt campaign artifacts",
            example.name()
        );
        assert_eq!(
            counter(&client, "serve.build.workload"),
            workloads,
            "{}: warm run rebuilt the workload",
            example.name()
        );
        assert_eq!(
            counter(&client, "serve.build.faults"),
            fault_builds,
            "{}: warm run regenerated the fault list",
            example.name()
        );
        assert_eq!(counter(&client, "serve.cache.spec.hit"), spec_hits + 1);
        assert_eq!(counter(&client, "serve.cache.design.hit"), design_hits + 1);

        assert!(!cold.is_empty());
        assert_eq!(
            cold,
            warm,
            "{}: warm trace is not bit-identical to the cold one",
            example.name()
        );

        // the end record's dc/sff agree with the status document
        let end = doc(cold.lines().last().unwrap());
        assert_eq!(end.get("ev").unwrap().as_str(), Some("end"));
    }

    // four designs admitted, none evicted under an unbounded budget
    let health = doc(&client.healthz().unwrap().text());
    assert_eq!(health.get("designs_cached").unwrap().as_u64(), Some(4));
    assert_eq!(counter(&client, "serve.cache.evict"), 0);

    server.shutdown();
    server.join();
}

/// The `end` record a local lockstep campaign writes for `(design, spec)`,
/// built by the server's own pipeline (resolve, random workload, fault
/// list), as `[faults, ne, sd, dd, du]` and DC/SFF.
fn lockstep_end(spec: &JobSpec) -> ([u64; 5], Option<f64>, Option<f64>) {
    let resolved = resolve(&spec.design).expect("the design resolves");
    let workload = random_workload(&resolved.netlist, spec.seed, spec.cycles);
    let env = EnvironmentBuilder::new(&resolved.netlist, &resolved.zones, &workload)
        .alarms_matching("alarm")
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            seed: spec.seed,
            ..FaultListConfig::default()
        },
    );
    let result = Campaign::new(&env, &faults)
        .threads(1)
        .engine(Engine::Lockstep)
        .run();
    let (ne, sd, dd, du) = result.outcome_counts();
    (
        [
            result.outcomes.len() as u64,
            ne as u64,
            sd as u64,
            dd as u64,
            du as u64,
        ],
        result.measured_dc(),
        result.measured_sff(),
    )
}

/// The streamed `end` record in the shape of [`lockstep_end`].
fn streamed_end(trace: &str) -> ([u64; 5], Option<f64>, Option<f64>) {
    let end = doc(trace.lines().last().expect("a non-empty trace"));
    assert_eq!(end.get("ev").and_then(Value::as_str), Some("end"));
    let n = |k: &str| end.get(k).and_then(Value::as_u64).expect("a count");
    let f = |k: &str| end.get(k).and_then(Value::as_f64);
    (
        [n("faults"), n("ne"), n("sd"), n("dd"), n("du")],
        f("dc"),
        f("sff"),
    )
}

#[test]
fn one_off_designs_are_evicted_while_the_warm_design_keeps_its_artifacts() {
    let spec = |design: DesignRef, seed: u64| JobSpec {
        design,
        seed,
        cycles: 16,
        threads: 1,
        ..JobSpec::parse(r#"{"example":"mcu-single"}"#).expect("a valid spec")
    };
    let warm = spec(DesignRef::Example("mcu-single".into()), 7);
    let (netlist, _) = Example::McuSingle.build().expect("the example elaborates");
    let dump = socfmea_netlist::write_verilog(&netlist);
    let from = format!("module {} (", netlist.name());
    assert!(dump.starts_with(&from), "the dump opens with the module");
    let renamed = |i: usize| {
        let source = dump.replacen(&from, &format!("module {}_c{i} (", netlist.name()), 1);
        spec(DesignRef::Verilog(source), 11 + i as u64)
    };

    // a budget whose one-off share holds two and a half cold designs
    let probe = ArtifactCache::new(usize::MAX, Arc::new(Registry::new()));
    let cold_spec = renamed(0);
    let entry = probe.design(resolve(&cold_spec.design).expect("the dump resolves"));
    probe.bundle(&entry, &cold_spec).expect("a bundle");
    let budget = entry.approx_bytes() * 25;
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 16,
        cache_bytes: budget,
        default_threads: 1,
        telemetry: true,
    })
    .expect("bind");
    let client = Client::new(server.addr().to_string());

    let cold_jobs = 8u64;
    let mut jobs = vec![warm.clone()];
    for i in 1..=cold_jobs as usize {
        jobs.push(renamed(i));
        jobs.push(warm.clone());
    }
    let mut most_cached = 0;
    for job in &jobs {
        let (id, trace) = run_to_done(&client, &job.render());
        assert_eq!(streamed_end(&trace), lockstep_end(job), "job {id}");
        let health = doc(&client.healthz().unwrap().text());
        let cached = health.get("designs_cached").unwrap().as_u64().unwrap();
        most_cached = most_cached.max(cached);
    }
    // the warm design, two one-offs and the newest admission at most
    assert!(most_cached <= 4, "{most_cached} designs cached");
    assert!(counter(&client, "serve.cache.evict") >= cold_jobs - 3);
    // one build for the warm spec, one per cold design: never a rebuild
    assert_eq!(counter(&client, "serve.build.artifacts"), 1 + cold_jobs);
    assert_eq!(
        counter(&client, "serve.cache.spec.hit"),
        cold_jobs,
        "every warm resubmission hits"
    );

    server.shutdown();
    server.join();
}
