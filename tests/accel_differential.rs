//! Differential tests: the accelerated campaign engine (`--engine ppsfp`,
//! `Campaign::engine(Engine::Ppsfp)`, and `auto`, which resolves to it)
//! produces bit-identical results to the baseline lockstep engine on mixed
//! fault lists on all four bundled example designs.
//!
//! These are the acceptance tests of the word kernel on every fault kind:
//! PPSFP lanes, the golden-row start and the convergence early exit are
//! pure execution strategies, so outcomes *and* coverage must match
//! exactly — on the hardened and baseline F-MEM memory subsystems and on
//! the lockstep and single-core MCUs.
//!
//! Kept deliberately small (reduced memory size, modest fault lists) so the
//! suite stays fast in debug builds; the CI `accel-differential` job also
//! runs it under `--release`.

use soc_fmea::faultsim::{
    generate_fault_list, Campaign, CampaignResult, Engine, EnvironmentBuilder, FaultListConfig,
    OperationalProfile,
};
use soc_fmea::fmea::extract_zones;
use soc_fmea::mcu::{build_mcu, fmea as mcu_fmea, programs, rtl::run_workload, McuConfig, McuPins};
use soc_fmea::memsys::{
    certification_workload, fmea as memsys_fmea, rtl, MemSysConfig, MemSysPins,
};
use soc_fmea::netlist::Netlist;
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

/// Runs baseline and accelerated campaigns over the same environment and
/// asserts bit-identity, sharded and serial.
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
    let faults = generate_fault_list(&env, &profile, &fault_config());
    assert!(!faults.is_empty(), "{design}: empty fault list");

    let baseline: CampaignResult = Campaign::new(&env, &faults).run();
    for (engine, threads) in [(Engine::Ppsfp, 2), (Engine::Auto, 1)] {
        let accel = Campaign::new(&env, &faults)
            .engine(engine)
            .threads(threads)
            .run();
        assert_eq!(
            baseline, accel,
            "{design}: {engine:?} result diverges at {threads} threads"
        );
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
fn fmem_hardened_accelerated_matches_baseline() {
    memsys_differential(MemSysConfig::hardened().with_words(8), "fmem");
}

#[test]
fn fmem_baseline_accelerated_matches_baseline() {
    memsys_differential(MemSysConfig::baseline().with_words(8), "fmem-baseline");
}

#[test]
fn mcu_lockstep_accelerated_matches_baseline() {
    mcu_differential(McuConfig::lockstep(programs::checksum_loop()), "mcu");
}

#[test]
fn mcu_single_accelerated_matches_baseline() {
    mcu_differential(McuConfig::single(programs::checksum_loop()), "mcu-single");
}
