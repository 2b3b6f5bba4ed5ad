//! End-to-end integration: build → zone → worksheet → inject → validate,
//! across crate boundaries, on a small purpose-built design.

use soc_fmea::faultsim::{
    analyze, generate_fault_list, Campaign, EnvironmentBuilder, FaultListConfig, OperationalProfile,
};
use soc_fmea::fmea::{
    census, extract_zones, predict_all_effects, sweep, validate, DiagnosticClaim, ExtractConfig,
    SensitivitySpec, ValidationConfig, Worksheet, ZoneGraph,
};
use soc_fmea::iec61508::{Sil, TechniqueId};
use soc_fmea::netlist::{Logic, Netlist};
use soc_fmea::rtl::RtlBuilder;
use soc_fmea::sim::{assign_bus, Workload};

/// A duplicated datapath with comparator — lockstep protection.
fn lockstep_design() -> Netlist {
    let mut r = RtlBuilder::new("lockstep");
    let _clk = r.clock_input("clk");
    let din = r.input_word("din", 8);
    r.push_block("main");
    let a = r.register("acc_a", &din, None, None);
    r.pop_block();
    r.push_block("shadow");
    let b = r.register("acc_b", &din, None, None);
    r.pop_block();
    let diff = r.xor(&a, &b);
    let alarm = r.or_reduce(&diff);
    r.output_word("dout", &a);
    r.output("alarm_cmp", alarm);
    r.finish().expect("valid design")
}

fn sweep_workload(nl: &Netlist, cycles: u64) -> Workload {
    let din: Vec<_> = (0..8)
        .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
        .collect();
    let mut w = Workload::new("sweep");
    for c in 0..cycles {
        let mut v = Vec::new();
        assign_bus(&mut v, &din, c.wrapping_mul(37) % 256);
        w.push_cycle(v);
    }
    w
}

#[test]
fn full_flow_on_lockstep_design() {
    let nl = lockstep_design();
    let zones = extract_zones(&nl, &ExtractConfig::default());
    assert!(zones.len() >= 5);

    // the comparator makes register faults detectable: claim it
    let mut ws = Worksheet::new(&zones);
    for name in ["main/acc_a", "shadow/acc_b"] {
        let id = zones.zone_by_name(name).expect("zone").id;
        ws.add_diagnostic(
            id,
            DiagnosticClaim::at_max(TechniqueId::RedundantComparator),
        );
    }
    let fmea = ws.compute();
    let sff = fmea.sff().expect("rates nonzero");
    assert!(
        sff > 0.80,
        "lockstep design must have a high SFF, got {sff}"
    );

    // injection campaign
    let w = sweep_workload(&nl, 24);
    let env = EnvironmentBuilder::new(&nl, &zones, &w)
        .alarms_matching("alarm_")
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 8,
            ..FaultListConfig::default()
        },
    );
    let campaign = Campaign::new(&env, &faults).run();
    assert!(campaign.coverage.sens_coverage() >= 0.99);

    // every register bit flip must be caught by the comparator
    let analysis = analyze(&faults, &campaign, &profile);
    let acc_a = zones.zone_by_name("main/acc_a").unwrap().id;
    let m = analysis.zone(acc_a).expect("measured");
    assert_eq!(
        m.dangerous_undetected, 0,
        "lockstep comparator must catch every flip"
    );

    // and the cross-check agrees with the worksheet
    let graph = ZoneGraph::build(&nl, &zones);
    let effects = predict_all_effects(&graph);
    let report = validate(
        &fmea,
        &effects,
        &analysis.measured,
        ValidationConfig::default(),
    );
    assert!(report.passed(), "{report}");
}

#[test]
fn unprotected_twin_fails_where_protected_succeeds() {
    // same design without the comparator output: flips become undetected
    let mut r = RtlBuilder::new("bare");
    let din = r.input_word("din", 8);
    let a = r.register("acc", &din, None, None);
    r.output_word("dout", &a);
    let nl = r.finish().unwrap();
    let zones = extract_zones(&nl, &ExtractConfig::default());
    let w = sweep_workload(&nl, 24);
    let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 8,
            stuckats_per_zone: 0,
            local_faults_per_zone: 0,
            wide_faults: 0,
            global_faults: false,
            ..FaultListConfig::default()
        },
    );
    let campaign = Campaign::new(&env, &faults).run();
    let (_, _, dd, du) = campaign.outcome_counts();
    assert_eq!(dd, 0, "no diagnostics exist");
    assert!(du > 0, "flips must reach the output undetected");
}

#[test]
fn sensitivity_and_sil_work_across_crates() {
    let nl = lockstep_design();
    let zones = extract_zones(&nl, &ExtractConfig::default());
    let mut ws = Worksheet::new(&zones);
    ws.assume_all(|_z, a| {
        a.s_architectural = 0.8;
        a.diagnostics
            .push(DiagnosticClaim::at_max(TechniqueId::RedundantComparator));
    });
    let fmea = ws.compute();
    assert_eq!(fmea.sil(), Some(Sil::Sil3));
    let report = sweep(&ws, &SensitivitySpec::default());
    assert!(report.min_sff().unwrap() > 0.9);
}

#[test]
fn census_accounts_for_every_gate() {
    let nl = lockstep_design();
    let zones = extract_zones(&nl, &ExtractConfig::default());
    let c = census(&nl, &zones);
    assert_eq!(
        c.local_gates + c.wide_gates + c.unassigned_gates,
        nl.gate_count()
    );
    // effective gate counts are conserved across zones
    let eff_total: f64 = zones.zones().iter().map(|z| z.effective_gate_count).sum();
    let zoned = (c.local_gates + c.wide_gates) as f64;
    assert!(
        (eff_total - zoned).abs() < 1e-6,
        "apportioned gates {eff_total} must equal zoned gates {zoned}"
    );
}

#[test]
fn simulator_and_netlist_compose_through_the_facade() {
    let nl = lockstep_design();
    let mut sim = soc_fmea::sim::Simulator::new(&nl).unwrap();
    let din: Vec<_> = (0..8)
        .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
        .collect();
    sim.set_word(&din, 0xa5);
    sim.eval();
    sim.tick();
    let dout: Vec<_> = (0..8)
        .map(|i| nl.net_by_name(&format!("dout[{i}]")).unwrap())
        .collect();
    assert_eq!(sim.get_word(&dout), Some(0xa5));
    let alarm = nl.net_by_name("alarm_cmp").unwrap();
    assert_eq!(sim.get(alarm), Logic::Zero);
    // diverge the shadow register: the comparator must fire
    let acc_b0 = nl.net_by_name("acc_b[0]").unwrap();
    let soc_fmea::netlist::Driver::Dff(ff) = nl.net(acc_b0).driver else {
        panic!("register expected");
    };
    sim.flip_ff(ff);
    sim.eval();
    assert_eq!(sim.get(alarm), Logic::One);
}
