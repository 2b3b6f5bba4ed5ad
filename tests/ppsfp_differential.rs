//! Differential tests: the bit-parallel PPSFP campaign engine
//! (`--engine ppsfp`, `Campaign::engine(Engine::Ppsfp)`) produces
//! bit-identical results to the baseline lockstep engine on all four
//! bundled example designs.
//!
//! These are the acceptance tests of the word-level simulation core and the
//! batched campaign kernel: packing up to `FAULT_LANES` faulty machines
//! into the lanes of each word is a pure execution strategy, so outcomes,
//! per-zone coverage and measured DC/SFF must match exactly — serial and
//! sharded, alone and composed with fault collapsing, and all the way out
//! to the byte-identical stdout of the `socfmea inject` binary.
//!
//! Kept deliberately small (reduced memory size, strided stuck-at lists)
//! so the suite stays fast in debug builds; the CI `ppsfp-differential`
//! job also runs it under `--release` together with a
//! `bench_collapse --quick` smoke run.

use soc_fmea::faultsim::{
    generate_fault_list, Campaign, CampaignResult, Collapse, Engine, EnvironmentBuilder, Fault,
    FaultKind, FaultListConfig, OperationalProfile,
};
use soc_fmea::fmea::extract_zones;
use soc_fmea::mcu::{build_mcu, fmea as mcu_fmea, programs, rtl::run_workload, McuConfig, McuPins};
use soc_fmea::memsys::{
    certification_workload, fmea as memsys_fmea, rtl, MemSysConfig, MemSysPins,
};
use soc_fmea::netlist::{Driver, Logic, NetId, Netlist};
use soc_fmea::sim::Workload;

/// A fault list exercising every fault kind, small enough for debug builds.
/// Inside a PPSFP run every kind shares word lanes with the others.
fn fault_config() -> FaultListConfig {
    FaultListConfig {
        bitflips_per_zone: 2,
        stuckats_per_zone: 1,
        local_faults_per_zone: 1,
        wide_faults: 4,
        bridge_faults: 3,
        global_faults: true,
        skip_inactive_zones: true,
        collapse: false,
        seed: 2007,
    }
}

/// A strided exhaustive stuck-at list: both polarities on every `stride`-th
/// driven, non-constant net, capped so debug builds stay fast. Dense enough
/// to fill several 63-fault words.
fn strided_stuck_list(netlist: &Netlist, stride: usize, cap: usize) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (i, net) in netlist.nets().iter().enumerate() {
        if i % stride != 0 || matches!(net.driver, Driver::None | Driver::Const(_)) {
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
        if faults.len() >= cap {
            break;
        }
    }
    faults
}

/// Runs baseline and PPSFP campaigns over the same environment and asserts
/// bit-identity at one and four threads, with and without collapsing.
fn assert_differential(
    design: &str,
    netlist: &Netlist,
    zones: &soc_fmea::fmea::ZoneSet,
    workload: &Workload,
    sw_test_window: Option<(usize, usize)>,
) {
    let env = EnvironmentBuilder::new(netlist, zones, workload)
        .alarms_matching("alarm_")
        .sw_test_window(sw_test_window)
        .build();
    let profile = OperationalProfile::collect(&env);
    let generated = generate_fault_list(&env, &profile, &fault_config());
    assert!(!generated.is_empty(), "{design}: empty fault list");
    let stuck = strided_stuck_list(netlist, 5, 120);
    assert!(!stuck.is_empty(), "{design}: empty stuck-at list");

    for (list_name, faults) in [("generated", &generated), ("stuck-at", &stuck)] {
        let baseline: CampaignResult = Campaign::new(&env, faults).run();
        for threads in [1usize, 4] {
            let ppsfp = Campaign::new(&env, faults)
                .engine(Engine::Ppsfp)
                .threads(threads)
                .run();
            assert_eq!(
                baseline, ppsfp,
                "{design}/{list_name}: ppsfp result diverges at {threads} threads"
            );
            let composed = Campaign::new(&env, faults)
                .engine(Engine::Ppsfp)
                .collapsing(Collapse::Dictionary)
                .threads(threads)
                .run();
            assert_eq!(
                baseline, composed,
                "{design}/{list_name}: collapse+ppsfp result diverges at {threads} threads"
            );
            // DC / SFF / coverage ride on the outcomes, but assert them
            // explicitly — they are the safety measurements the paper
            // reports.
            assert_eq!(baseline.measured_dc(), composed.measured_dc());
            assert_eq!(baseline.measured_sff(), composed.measured_sff());
            assert_eq!(baseline.coverage, composed.coverage);
        }
    }
}

fn memsys_differential(cfg: MemSysConfig, design: &str) {
    let netlist = rtl::build_netlist(&cfg).expect("valid memsys netlist");
    let zones = extract_zones(&netlist, &memsys_fmea::extract_config());
    let pins = MemSysPins::find(&netlist, &cfg);
    let cert = certification_workload(&pins, &cfg);
    assert_differential(
        design,
        &netlist,
        &zones,
        &cert.workload,
        cert.sw_test_window,
    );
}

fn mcu_differential(cfg: McuConfig, design: &str) {
    let netlist = build_mcu(&cfg).expect("valid mcu netlist");
    let zones = extract_zones(&netlist, &mcu_fmea::extract_config());
    let pins = McuPins::find(&netlist);
    let workload = run_workload(&pins, 48);
    assert_differential(design, &netlist, &zones, &workload, None);
}

#[test]
fn fmem_hardened_ppsfp_matches_baseline() {
    memsys_differential(MemSysConfig::hardened().with_words(8), "fmem");
}

#[test]
fn fmem_baseline_ppsfp_matches_baseline() {
    memsys_differential(MemSysConfig::baseline().with_words(8), "fmem-baseline");
}

#[test]
fn mcu_lockstep_ppsfp_matches_baseline() {
    mcu_differential(McuConfig::lockstep(programs::checksum_loop()), "mcu");
}

#[test]
fn mcu_single_ppsfp_matches_baseline() {
    mcu_differential(McuConfig::single(programs::checksum_loop()), "mcu-single");
}

/// The report on stdout — zone tables, measured DC/SFF, coverage — must be
/// byte-identical whichever engine classified the faults, for every example
/// design the binary bundles.
#[test]
fn inject_stdout_is_byte_identical_across_engines() {
    for example in ["fmem", "fmem-baseline", "mcu", "mcu-single"] {
        let run = |engine: &str| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_socfmea"))
                .args([
                    "inject",
                    "--example",
                    example,
                    "--cycles",
                    "12",
                    "--quiet",
                    "--engine",
                    engine,
                ])
                .output()
                .expect("binary runs");
            assert!(out.status.success(), "{example}: inject --engine {engine}");
            out.stdout
        };
        let lockstep = run("lockstep");
        for engine in ["ppsfp", "auto"] {
            assert_eq!(
                lockstep,
                run(engine),
                "{example}: stdout differs between lockstep and {engine}"
            );
        }
    }
}
