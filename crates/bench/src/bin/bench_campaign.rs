//! Campaign scaling snapshot: wall-clock of the sharded injection engine
//! at 1/2/4/8 worker threads, written to `BENCH_campaign.json`.
//!
//! The snapshot records the host's core count because the speedup claim is
//! conditional on hardware: on a single-core container the 4-thread run is
//! expected to be no faster than serial, and the JSON says so explicitly.
//! Determinism, however, is unconditional — the binary asserts that every
//! thread count produced the identical `CampaignResult` before writing
//! anything.
//!
//! The snapshot also quantifies the observability tax: the same campaign
//! with full tracing (per-fault JSONL records streamed to a null sink, so
//! serialization and channel cost are measured without disk noise) must
//! stay within 5% of the untraced throughput, best-of-3 on each side, and
//! the traced run's metrics-registry snapshot is embedded in the JSON.

use socfmea_bench::{banner, campaign_fault_config, MemSysSetup};
use socfmea_memsys::config::MemSysConfig;
use socfmea_obs::{Observer, TraceSink};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    banner(
        "BENCH",
        "campaign scaling: threads vs faults/sec (deterministic merge)",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let setup = MemSysSetup::build(MemSysConfig::hardened().with_words(16));
    println!(
        "host: {cores} core{}; design: {} gates / {} FFs",
        if cores == 1 { "" } else { "s" },
        setup.netlist.gate_count(),
        setup.netlist.dff_count()
    );

    let mut rows = Vec::new();
    let mut reference = None;
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let run = setup.campaign_threaded(&campaign_fault_config(), threads);
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "threads {threads}: {} faults in {secs:.2}s ({:.0} faults/s)",
            run.stats.injections, run.stats.faults_per_sec
        );
        match &reference {
            None => reference = Some(run.result.clone()),
            Some(r) => assert_eq!(*r, run.result, "determinism violated at {threads} threads"),
        }
        rows.push((
            threads,
            run.stats.injections,
            secs,
            run.stats.faults_per_sec,
        ));
    }

    // The observability tax: untraced vs fully-traced serial campaigns,
    // best of 3 each. Tracing streams to io::sink() so the measurement is
    // the instrumentation cost (record building, serialization, channel),
    // not the disk.
    println!("\nobservability overhead (tracing to a null sink, best of 3):");
    let reference = reference.expect("scaling loop ran");
    let mut metrics: Option<String> = None;
    let mut best = |traced: bool| -> f64 {
        let mut best_secs = f64::INFINITY;
        for _ in 0..3 {
            let observer = traced
                .then(|| Observer::with_sink(TraceSink::to_writer(Box::new(std::io::sink()))));
            let t0 = Instant::now();
            let run = match &observer {
                Some(obs) => setup.campaign_observed(&campaign_fault_config(), 1, obs),
                None => setup.campaign_threaded(&campaign_fault_config(), 1),
            };
            best_secs = best_secs.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                reference, run.result,
                "observation changed the campaign result"
            );
            if let Some(obs) = observer {
                metrics = Some(obs.metrics_snapshot().render_json());
                obs.finish().expect("null sink never fails");
            }
        }
        best_secs
    };
    let plain_secs = best(false);
    let traced_secs = best(true);
    let faults = rows[0].1 as f64;
    let (plain_fps, traced_fps) = (faults / plain_secs, faults / traced_secs);
    let overhead_pct = 100.0 * (1.0 - traced_fps / plain_fps);
    println!(
        "plain  {plain_secs:.2}s ({plain_fps:.0} faults/s)\ntraced {traced_secs:.2}s ({traced_fps:.0} faults/s) -> {overhead_pct:+.1}% overhead"
    );
    assert!(
        traced_fps >= 0.95 * plain_fps,
        "tracing overhead {overhead_pct:.1}% exceeds the 5% budget"
    );
    let metrics = metrics.expect("traced run recorded a snapshot");

    let serial_secs = rows[0].2;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"campaign_threads\",");
    let _ = writeln!(json, "  \"design\": \"memsys hardened, 16 words\",");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"speedup is hardware-conditional; results asserted bit-identical across thread counts\","
    );
    let _ = writeln!(json, "  \"runs\": [");
    for (i, (threads, faults, secs, fps)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {threads}, \"faults\": {faults}, \"seconds\": {secs:.4}, \"faults_per_sec\": {fps:.1}, \"speedup_vs_serial\": {:.2}}}{}",
            serial_secs / secs,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"observability\": {{\"plain_seconds\": {plain_secs:.4}, \"traced_seconds\": {traced_secs:.4}, \"plain_faults_per_sec\": {plain_fps:.1}, \"traced_faults_per_sec\": {traced_fps:.1}, \"overhead_pct\": {overhead_pct:.2}, \"budget_pct\": 5.0, \"within_budget\": true}},"
    );
    let _ = writeln!(json, "  \"metrics\": {}", metrics.trim_end());
    json.push_str("}\n");

    let path = "BENCH_campaign.json";
    std::fs::write(path, &json).expect("write snapshot");
    println!("\nall thread counts produced bit-identical results");
    println!("snapshot written to {path}");
}
