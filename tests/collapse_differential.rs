//! Differential tests: fault collapsing (`--collapse`,
//! `Campaign::collapsing(Collapse::Dictionary)`) produces bit-identical
//! results to the uncollapsed baseline on all four bundled example designs.
//!
//! These are the acceptance tests of the `FaultCollapser`: equivalence
//! collapsing plus fault-dictionary back-annotation is a pure execution
//! strategy — the campaign simulates one representative per class and
//! expands the rest from the dictionary, so outcomes, per-zone coverage
//! and measured DC/SFF must match exactly. Exercised on generated fault
//! lists (every fault kind) and on dense exhaustive stuck-at lists (where
//! collapsing actually bites), serial and sharded, and composed with the
//! accelerated engine.
//!
//! Kept deliberately small (reduced memory size, strided stuck-at lists)
//! so the suite stays fast in debug builds; the CI `collapse-differential`
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
/// that equivalence classes actually form.
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

/// Runs baseline and collapsed campaigns over the same environment and
/// asserts bit-identity, serial, sharded and composed with the PPSFP engine.
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
        // Serial-vs-sharded collapse identity is covered by the campaign
        // unit tests and `prop_collapse`; here one sharded run per list
        // keeps the debug-build suite affordable.
        let collapsed = Campaign::new(&env, faults)
            .collapsing(Collapse::Dictionary)
            .threads(2)
            .run();
        assert_eq!(
            baseline, collapsed,
            "{design}/{list_name}: collapsed result diverges"
        );
        let composed = Campaign::new(&env, faults)
            .collapsing(Collapse::Dictionary)
            .engine(Engine::Ppsfp)
            .threads(2)
            .run();
        assert_eq!(
            baseline, composed,
            "{design}/{list_name}: collapse+accel result diverges"
        );
        // DC / SFF / coverage ride on the outcomes, but assert them
        // explicitly — they are the safety measurements the paper reports.
        assert_eq!(baseline.measured_dc(), composed.measured_dc());
        assert_eq!(baseline.measured_sff(), composed.measured_sff());
        assert_eq!(baseline.coverage, composed.coverage);
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
fn fmem_hardened_collapsed_matches_baseline() {
    memsys_differential(MemSysConfig::hardened().with_words(8), "fmem");
}

#[test]
fn fmem_baseline_collapsed_matches_baseline() {
    memsys_differential(MemSysConfig::baseline().with_words(8), "fmem-baseline");
}

#[test]
fn mcu_lockstep_collapsed_matches_baseline() {
    mcu_differential(McuConfig::lockstep(programs::checksum_loop()), "mcu");
}

#[test]
fn mcu_single_collapsed_matches_baseline() {
    mcu_differential(McuConfig::single(programs::checksum_loop()), "mcu-single");
}
