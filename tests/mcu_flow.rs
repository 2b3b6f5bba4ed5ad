//! Integration: the fault-robust microcontroller through the facade —
//! FMEA, injection and the single-vs-lockstep contrast in one flow.

use soc_fmea::faultsim::{
    analyze, generate_fault_list, Campaign, EnvironmentBuilder, FaultListConfig, OperationalProfile,
};
use soc_fmea::fmea::{extract_zones, predict_all_effects, validate, ValidationConfig, ZoneGraph};
use soc_fmea::mcu::rtl::run_workload;
use soc_fmea::mcu::{build_mcu, fmea as mcu_fmea, programs, McuConfig, McuPins};

fn campaign_dc(cfg: &McuConfig) -> (Option<f64>, bool) {
    let nl = build_mcu(cfg).expect("valid mcu");
    let zones = extract_zones(&nl, &mcu_fmea::extract_config());
    let pins = McuPins::find(&nl);
    let w = run_workload(&pins, 40);
    let env = EnvironmentBuilder::new(&nl, &zones, &w)
        .alarms_matching("alarm_")
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 8,
            stuckats_per_zone: 0,
            local_faults_per_zone: 0,
            wide_faults: 0,
            bridge_faults: 0,
            global_faults: false,
            seed: 2007,
            ..FaultListConfig::default()
        },
    );
    let result = Campaign::new(&env, &faults).run();

    // validation cross-check against the worksheet
    let fmea = mcu_fmea::build_worksheet(&zones, cfg).compute();
    let analysis = analyze(&faults, &result, &profile);
    let graph = ZoneGraph::build(&nl, &zones);
    let effects = predict_all_effects(&graph);
    let report = validate(
        &fmea,
        &effects,
        &analysis.measured,
        ValidationConfig {
            ddf_tolerance: 0.25,
            ..ValidationConfig::default()
        },
    );
    (result.measured_dc(), report.passed())
}

#[test]
fn lockstep_campaign_dc_dominates_single_core() {
    let program = programs::register_exerciser();
    let (single_dc, _) = campaign_dc(&McuConfig::single(program.clone()));
    let (lockstep_dc, lockstep_valid) = campaign_dc(&McuConfig::lockstep(program));
    // the single core has no diagnostics at all
    assert_eq!(single_dc, Some(0.0));
    // the comparator catches state corruption
    assert!(lockstep_dc.unwrap() > 0.8, "lockstep DC {lockstep_dc:?}");
    assert!(
        lockstep_valid,
        "lockstep FMEA must survive its own campaign"
    );
}

#[test]
fn mcu_worksheet_totals_are_consistent() {
    let cfg = McuConfig::lockstep(programs::counter(7));
    let nl = build_mcu(&cfg).expect("valid mcu");
    let zones = extract_zones(&nl, &mcu_fmea::extract_config());
    let fmea = mcu_fmea::build_worksheet(&zones, &cfg).compute();
    // λ bookkeeping: zone totals sum to the SoC total
    let mut sum = soc_fmea::iec61508::LambdaBreakdown::default();
    for t in &fmea.zone_totals {
        sum.accumulate(t);
    }
    assert!((sum.total().0 - fmea.total.total().0).abs() < 1e-9);
    // the two cores are symmetric: identical zone λ for pc/acc pairs
    let du = |name: &str| {
        fmea.zone_totals[zones.zone_by_name(name).unwrap().id.index()]
            .dangerous_undetected
            .0
    };
    assert!((du("core0/core0_acc") - du("core1/core1_acc")).abs() < 1e-12);
    assert!((du("core0/core0_pc") - du("core1/core1_pc")).abs() < 1e-12);
}

#[test]
fn iso26262_reading_tracks_the_lockstep_gain() {
    let program = programs::checksum_loop();
    let metrics = |cfg: &McuConfig| {
        let nl = build_mcu(cfg).unwrap();
        let zones = extract_zones(&nl, &mcu_fmea::extract_config());
        mcu_fmea::build_worksheet(&zones, cfg)
            .compute()
            .automotive_metrics()
            .expect("nonzero rates")
    };
    let single = metrics(&McuConfig::single(program.clone()));
    let dual = metrics(&McuConfig::lockstep(program));
    assert!(
        dual.spfm > single.spfm + 0.2,
        "lockstep lifts SPFM substantially"
    );
    assert!(dual.achievable_asil() > single.achievable_asil());
}
