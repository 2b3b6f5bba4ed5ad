//! Differential tests: the static pre-pass (`--prune`,
//! `Campaign::pruning(Prune::Static)`) produces bit-identical results to
//! the unpruned baseline on all four bundled example designs, under every
//! engine and composed with fault collapsing.
//!
//! These are the acceptance tests of the prune plan: a proof of
//! undetectability replaces a simulation, so outcomes (in fault-list
//! order), per-zone coverage attribution and measured DC/SFF must match
//! the simulated truth exactly. Any divergence means either the static
//! analysis or a simulation engine is unsound — there is no benign
//! disagreement. The golden-trace cross-check inside the plan builder
//! additionally turns every pruned campaign into a soundness oracle: a
//! simulated golden value contradicting a constant-site proof panics
//! (see `crates/faultsim/src/prune.rs`).
//!
//! Kept deliberately small (reduced memory size, strided stuck-at lists)
//! so the suite stays fast in debug builds; the CI `static-differential`
//! job also runs it under `--release` together with the SL02xx lint gate
//! and a `bench_static --quick` smoke run.

use soc_fmea::accel::Topology;
use soc_fmea::faultsim::{
    generate_fault_list, Campaign, CampaignResult, Collapse, Engine, EnvironmentBuilder, Fault,
    FaultKind, FaultListConfig, OperationalProfile, Proof, Prune, TestabilityAnalysis,
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
        seed: 2008,
    }
}

/// A strided exhaustive stuck-at list: both polarities on every `stride`-th
/// driven net, constants included — stuck-ats on constant-driven nets are
/// exactly where the `ConstantSite` proof bites.
fn strided_stuck_list(netlist: &Netlist, stride: usize, cap: usize) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (i, net) in netlist.nets().iter().enumerate() {
        if i % stride != 0 || matches!(net.driver, Driver::None) {
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

/// Runs unpruned and pruned campaigns over the same environment and
/// asserts bit-identity across every engine, with and without collapsing.
/// Returns the number of faults the pruned runs answered statically.
fn assert_differential(
    design: &str,
    netlist: &Netlist,
    zones: &soc_fmea::fmea::ZoneSet,
    workload: &Workload,
    sw_test_window: Option<(usize, usize)>,
) -> usize {
    let env = EnvironmentBuilder::new(netlist, zones, workload)
        .alarms_matching("alarm_")
        .sw_test_window(sw_test_window)
        .build();
    let profile = OperationalProfile::collect(&env);
    let generated = generate_fault_list(&env, &profile, &fault_config());
    assert!(!generated.is_empty(), "{design}: empty fault list");
    let stuck = strided_stuck_list(netlist, 5, 120);
    assert!(!stuck.is_empty(), "{design}: empty stuck-at list");

    let mut total_pruned = 0;
    for (list_name, faults) in [("generated", &generated), ("stuck-at", &stuck)] {
        let baseline: CampaignResult = Campaign::new(&env, faults).run();
        for engine in [Engine::Lockstep, Engine::Ppsfp] {
            for collapse in [Collapse::Off, Collapse::Dictionary] {
                let campaign = Campaign::new(&env, faults)
                    .engine(engine)
                    .collapsing(collapse)
                    .pruning(Prune::Static)
                    .checkpoint_interval(16)
                    .threads(2);
                let stats = campaign.stats();
                let pruned = campaign.run();
                assert_eq!(
                    baseline, pruned,
                    "{design}/{list_name}: pruned result diverges \
                     (engine {engine:?}, collapse {collapse:?})"
                );
                // DC / SFF / coverage ride on the outcomes, but assert
                // them explicitly — they are the safety measurements the
                // paper reports.
                assert_eq!(baseline.measured_dc(), pruned.measured_dc());
                assert_eq!(baseline.measured_sff(), pruned.measured_sff());
                assert_eq!(baseline.coverage, pruned.coverage);
                total_pruned += stats.faults_pruned();
            }
        }
    }
    total_pruned
}

fn memsys_differential(cfg: MemSysConfig, design: &str) -> usize {
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
    )
}

fn mcu_differential(cfg: McuConfig, design: &str) -> usize {
    let netlist = build_mcu(&cfg).expect("valid mcu netlist");
    let zones = extract_zones(&netlist, &mcu_fmea::extract_config());
    let pins = McuPins::find(&netlist);
    let workload = run_workload(&pins, 48);
    assert_differential(design, &netlist, &zones, &workload, None)
}

#[test]
fn fmem_hardened_pruned_matches_baseline() {
    memsys_differential(MemSysConfig::hardened().with_words(8), "fmem");
}

#[test]
fn fmem_baseline_pruned_matches_baseline_and_prunes() {
    // The baseline F-MEM ties its distributed-syndrome alarms to constants,
    // so the constant-site proof must actually fire here: a zero count
    // would make the whole suite vacuous.
    let pruned = memsys_differential(MemSysConfig::baseline().with_words(8), "fmem-baseline");
    assert!(
        pruned > 0,
        "fmem-baseline: expected the static pre-pass to prune at least one fault"
    );
}

#[test]
fn mcu_lockstep_pruned_matches_baseline() {
    mcu_differential(McuConfig::lockstep(programs::checksum_loop()), "mcu");
}

#[test]
fn mcu_single_pruned_matches_baseline() {
    mcu_differential(McuConfig::single(programs::checksum_loop()), "mcu-single");
}

/// Fabricated proofs must be rejected by the machine checker: claiming a
/// live net constant or a monitor-reaching net unmonitorable fails
/// `check_proof`, while every proof the classifier itself emits passes it.
#[test]
fn fabricated_proofs_are_rejected_by_the_checker() {
    let netlist = rtl::build_netlist(&MemSysConfig::baseline().with_words(8)).unwrap();
    let topo = Topology::build(&netlist).unwrap();
    let analysis = TestabilityAnalysis::analyze(&netlist, &topo, netlist.outputs());

    let mut emitted = 0;
    for (i, net) in netlist.nets().iter().enumerate() {
        let id = NetId::from_index(i);
        for value in [Logic::Zero, Logic::One] {
            if let Some(proof) = analysis.classify_stuck_at(id, value) {
                assert!(
                    analysis.check_proof(&netlist, &topo, &proof),
                    "emitted proof for `{}` fails its own checker",
                    net.name
                );
                emitted += 1;
            }
        }
    }
    assert!(emitted > 0, "classifier emitted no proofs at all");

    // A live, monitored primary output: provably neither constant nor
    // unmonitorable.
    let rdata = netlist
        .outputs()
        .iter()
        .copied()
        .find(|&n| netlist.net(n).name.starts_with("rdata"))
        .expect("memsys has rdata outputs");
    for value in [Logic::Zero, Logic::One] {
        assert!(
            !analysis.check_proof(&netlist, &topo, &Proof::ConstantSite { net: rdata, value }),
            "fabricated constant-site proof accepted"
        );
    }
    assert!(
        !analysis.check_proof(&netlist, &topo, &Proof::NoPathToMonitor { net: rdata }),
        "fabricated no-path proof accepted"
    );
}
