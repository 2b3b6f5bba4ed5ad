//! Fault-collapsing snapshot: uncollapsed baseline vs the `FaultCollapser`
//! (equivalence collapsing + fault-dictionary back-annotation) on all four
//! bundled example designs, written to `BENCH_collapse.json`.
//!
//! Three measurements per design, over an exhaustive stuck-at list (both
//! polarities on every driven, non-constant net — the list collapsing is
//! designed for):
//!
//! * the collapse ratio (total faults per simulated representative) as
//!   reported by the campaign statistics, plus the purely structural
//!   site-collapse ratio of the `FaultCollapser` for comparison,
//! * effective throughput (faults classified per second, counting the
//!   dictionary-annotated ones) for baseline, collapsed, the bit-parallel
//!   PPSFP engine, and PPSFP composed with collapsing (representatives
//!   packed 63 per word),
//! * the speedup of each run against the baseline, and for the PPSFP runs
//!   the lanes-per-word packing density and words evaluated.
//!
//! Correctness is asserted, not assumed: every collapsed run must be
//! bit-identical to the baseline `CampaignResult` before anything is
//! written. `--quick` shrinks the designs and workloads for CI smoke runs.

use socfmea_bench::banner;
use socfmea_core::{extract_zones, ZoneSet};
use socfmea_faultsim::{
    Campaign, CampaignStats, Collapse, Engine, EnvironmentBuilder, Fault, FaultCollapser, FaultKind,
};
use socfmea_mcu::{build_mcu, fmea as mcu_fmea, programs, rtl::run_workload, McuConfig, McuPins};
use socfmea_memsys::{certification_workload, config::MemSysConfig, fmea, rtl, MemSysPins};
use socfmea_netlist::{Driver, Logic, NetId, Netlist};
use socfmea_sim::Workload;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One fully-assembled design under test.
struct Design {
    name: &'static str,
    netlist: Netlist,
    zones: ZoneSet,
    workload: Workload,
    sw_test_window: Option<(usize, usize)>,
}

fn memsys_design(name: &'static str, cfg: MemSysConfig) -> Design {
    let netlist = rtl::build_netlist(&cfg).expect("valid memsys netlist");
    let zones = extract_zones(&netlist, &fmea::extract_config());
    let pins = MemSysPins::find(&netlist, &cfg);
    let cert = certification_workload(&pins, &cfg);
    Design {
        name,
        netlist,
        zones,
        workload: cert.workload,
        sw_test_window: cert.sw_test_window,
    }
}

fn mcu_design(name: &'static str, cfg: McuConfig, cycles: usize) -> Design {
    let netlist = build_mcu(&cfg).expect("valid mcu netlist");
    let zones = extract_zones(&netlist, &mcu_fmea::extract_config());
    let pins = McuPins::find(&netlist);
    let workload = run_workload(&pins, cycles);
    Design {
        name,
        netlist,
        zones,
        workload,
        sw_test_window: None,
    }
}

/// Both stuck-at polarities on every driven, non-constant net.
fn exhaustive_stuck_list(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (i, net) in netlist.nets().iter().enumerate() {
        if matches!(net.driver, Driver::None | Driver::Const(_)) {
            continue;
        }
        for value in [Logic::Zero, Logic::One] {
            faults.push(Fault {
                kind: FaultKind::StuckAt {
                    net: NetId::from_index(i),
                    value,
                },
                zone: None,
                inject_cycle: 0,
                label: format!("stuck {}-sa{value}", net.name),
            });
        }
    }
    faults
}

struct Row {
    design: &'static str,
    faults: usize,
    base_secs: f64,
    base_fps: f64,
    collapse_secs: f64,
    collapse_fps: f64,
    collapse_speedup: f64,
    ppsfp_secs: f64,
    ppsfp_fps: f64,
    ppsfp_speedup: f64,
    ppsfp_lanes_per_word: f64,
    ppsfp_words: u64,
    cp_secs: f64,
    cp_fps: f64,
    cp_speedup: f64,
    cp_lanes_per_word: f64,
    cp_words: u64,
    simulated: usize,
    collapsed: usize,
    collapse_ratio: f64,
    structural_ratio: f64,
}

fn timed(
    label: &str,
    faults: usize,
    run: impl FnOnce() -> (socfmea_faultsim::CampaignResult, Arc<CampaignStats>),
) -> (
    socfmea_faultsim::CampaignResult,
    Arc<CampaignStats>,
    f64,
    f64,
) {
    let t0 = Instant::now();
    let (result, stats) = run();
    let secs = t0.elapsed().as_secs_f64();
    // effective throughput: the full uncollapsed list is classified either
    // way, so both sides are normalised to faults-classified per second
    let fps = faults as f64 / secs;
    println!(
        "  {label}: {faults} faults in {secs:.2}s ({fps:.0} faults/s; {} simulated, {} annotated)",
        stats.faults_done(),
        stats.faults_collapsed()
    );
    (result, stats, secs, fps)
}

fn bench_design(design: &Design) -> Row {
    let env = EnvironmentBuilder::new(&design.netlist, &design.zones, &design.workload)
        .alarms_matching("alarm_")
        .sw_test_window(design.sw_test_window)
        .build();
    let faults = exhaustive_stuck_list(&design.netlist);
    let structural_ratio = FaultCollapser::build(&env).structural_ratio();
    println!(
        "{}: {} gates / {} FFs, {} cycles, {} stuck-at faults (structural site ratio {structural_ratio:.2}x)",
        design.name,
        design.netlist.gate_count(),
        design.netlist.dff_count(),
        design.workload.len(),
        faults.len(),
    );

    let n = faults.len();
    let run = |collapse: Collapse, engine: Engine| {
        let campaign = Campaign::new(&env, &faults)
            .threads(1)
            .collapsing(collapse)
            .engine(engine);
        let stats = campaign.stats();
        (campaign.run(), stats)
    };
    let (baseline, _, base_secs, base_fps) = timed("baseline       ", n, || {
        run(Collapse::Off, Engine::Lockstep)
    });
    let (collapsed, cstats, collapse_secs, collapse_fps) = timed("collapse       ", n, || {
        run(Collapse::Dictionary, Engine::Lockstep)
    });
    let (ppsfp, pstats, ppsfp_secs, ppsfp_fps) =
        timed("ppsfp          ", n, || run(Collapse::Off, Engine::Ppsfp));
    let (cppsfp, cpstats, cp_secs, cp_fps) = timed("collapse+ppsfp ", n, || {
        run(Collapse::Dictionary, Engine::Ppsfp)
    });
    assert_eq!(
        baseline, collapsed,
        "{}: collapsed result diverges from baseline",
        design.name
    );
    assert_eq!(
        baseline, ppsfp,
        "{}: ppsfp result diverges from baseline",
        design.name
    );
    assert_eq!(
        baseline, cppsfp,
        "{}: collapse+ppsfp result diverges from baseline",
        design.name
    );

    Row {
        design: design.name,
        faults: n,
        base_secs,
        base_fps,
        collapse_secs,
        collapse_fps,
        collapse_speedup: base_secs / collapse_secs,
        ppsfp_secs,
        ppsfp_fps,
        ppsfp_speedup: base_secs / ppsfp_secs,
        ppsfp_lanes_per_word: pstats.ppsfp_lanes_per_word(),
        ppsfp_words: pstats.ppsfp_words(),
        cp_secs,
        cp_fps,
        cp_speedup: base_secs / cp_secs,
        cp_lanes_per_word: cpstats.ppsfp_lanes_per_word(),
        cp_words: cpstats.ppsfp_words(),
        simulated: cstats.faults_done(),
        collapsed: cstats.faults_collapsed(),
        collapse_ratio: cstats.collapse_ratio(),
        structural_ratio,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(
        "BENCH",
        "fault collapsing: equivalence classes + dictionary back-annotation vs baseline",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let words = if quick { 8 } else { 16 };
    let mcu_cycles = if quick { 24 } else { 48 };
    println!(
        "host: {cores} core{}; threads: 1 (algorithmic gain only)",
        if cores == 1 { "" } else { "s" }
    );

    let designs = [
        memsys_design("fmem", MemSysConfig::hardened().with_words(words)),
        memsys_design("fmem-baseline", MemSysConfig::baseline().with_words(words)),
        mcu_design(
            "mcu",
            McuConfig::lockstep(programs::checksum_loop()),
            mcu_cycles,
        ),
        mcu_design(
            "mcu-single",
            McuConfig::single(programs::checksum_loop()),
            mcu_cycles,
        ),
    ];
    let rows: Vec<Row> = designs.iter().map(bench_design).collect();

    let best = rows
        .iter()
        .max_by(|a, b| a.collapse_ratio.total_cmp(&b.collapse_ratio))
        .expect("at least one design");
    println!(
        "\nbest collapse ratio: {:.2}x on {} ({} of {} faults simulated); all collapsed runs bit-identical to baseline",
        best.collapse_ratio, best.design, best.simulated, best.faults
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"fault_collapse\",");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"fault_list\": \"exhaustive stuck-at, both polarities\","
    );
    let _ = writeln!(
        json,
        "  \"note\": \"all collapsed runs asserted bit-identical to baseline\","
    );
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"design\": \"{}\", \"faults\": {}, \"simulated\": {}, \"annotated\": {}, \"collapse_ratio\": {:.3}, \"structural_site_ratio\": {:.3}, \"baseline\": {{\"seconds\": {:.4}, \"faults_per_sec\": {:.1}}}, \"collapse\": {{\"seconds\": {:.4}, \"faults_per_sec\": {:.1}, \"speedup_vs_baseline\": {:.2}}}, \"ppsfp\": {{\"seconds\": {:.4}, \"faults_per_sec\": {:.1}, \"speedup_vs_baseline\": {:.2}, \"lanes_per_word\": {:.2}, \"words_evaluated\": {}}}, \"collapse_ppsfp\": {{\"seconds\": {:.4}, \"faults_per_sec\": {:.1}, \"speedup_vs_baseline\": {:.2}, \"lanes_per_word\": {:.2}, \"words_evaluated\": {}}}}}{}",
            r.design,
            r.faults,
            r.simulated,
            r.collapsed,
            r.collapse_ratio,
            r.structural_ratio,
            r.base_secs,
            r.base_fps,
            r.collapse_secs,
            r.collapse_fps,
            r.collapse_speedup,
            r.ppsfp_secs,
            r.ppsfp_fps,
            r.ppsfp_speedup,
            r.ppsfp_lanes_per_word,
            r.ppsfp_words,
            r.cp_secs,
            r.cp_fps,
            r.cp_speedup,
            r.cp_lanes_per_word,
            r.cp_words,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"best\": {{\"design\": \"{}\", \"collapse_ratio\": {:.3}}}",
        best.design, best.collapse_ratio
    );
    json.push_str("}\n");

    let path = "BENCH_collapse.json";
    std::fs::write(path, &json).expect("write snapshot");
    println!("snapshot written to {path}");
}
