//! Property tests: the bit-parallel (PPSFP) fault simulation paths agree
//! with their serial references on arbitrary synthetic designs and
//! workloads — the standalone coverage grader against [`serial_coverage`],
//! and the campaign's [`Engine::Ppsfp`] against the lockstep engine through
//! the public `Campaign` API, X-propagation included.

use proptest::prelude::*;
use socfmea_core::{extract_zones, ExtractConfig, ZoneSet};
use socfmea_faultsim::{
    fault_universe, ppsfp_coverage, serial_coverage, Campaign, Engine, Environment,
    EnvironmentBuilder, Fault, FaultKind,
};
use socfmea_netlist::{Driver, Logic, NetId, Netlist};
use socfmea_rtl::gen;
use socfmea_sim::{assign_bus, Workload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ppsfp_agrees_with_serial(
        seed in 0u64..1000,
        gates in 10usize..40,
        stimulus in 1u64..1_000_000,
    ) {
        let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
        let din: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let rst = nl.net_by_name("rst").unwrap();
        let mut w = Workload::new("rand");
        for c in 0..12u64 {
            let mut v = vec![(rst, if c == 0 { Logic::One } else { Logic::Zero })];
            assign_bus(&mut v, &din, stimulus.wrapping_mul(c + 1) >> 3);
            w.push_cycle(v);
        }
        let faults = fault_universe(&nl);
        let serial = serial_coverage(&nl, &w, nl.outputs(), &faults);
        let packed = ppsfp_coverage(&nl, &w, nl.outputs(), &faults);
        prop_assert_eq!(serial.total(), packed.total());
        for (s, p) in serial.faults.iter().zip(&packed.faults) {
            prop_assert_eq!(s.0, p.0);
            prop_assert_eq!(
                s.1.detected, p.1.detected,
                "detection disagreement on {:?}", s.0
            );
            prop_assert_eq!(
                s.1.excited, p.1.excited,
                "excitation disagreement on {:?}", s.0
            );
        }
    }

    /// Detection implies excitation: a fault that was never excited cannot
    /// have been detected.
    #[test]
    fn detection_implies_excitation(seed in 0u64..500) {
        let nl = gen::synthetic_datapath("dut", 4, 2, 25, seed).expect("valid");
        let din: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let rst = nl.net_by_name("rst").unwrap();
        let mut w = Workload::new("r");
        for c in 0..10u64 {
            let mut v = vec![(rst, if c == 0 { Logic::One } else { Logic::Zero })];
            assign_bus(&mut v, &din, c.wrapping_mul(7));
            w.push_cycle(v);
        }
        let report = ppsfp_coverage(&nl, &w, nl.outputs(), &fault_universe(&nl));
        for (f, g) in &report.faults {
            prop_assert!(!g.detected || g.excited, "{f:?} detected without excitation");
        }
        prop_assert!(report.coverage() <= report.coverage_of_excited() + 1e-12);
    }

    /// The campaign's PPSFP engine is exact through the public API: for
    /// arbitrary designs, stuck-at lists with staggered injection cycles,
    /// and workloads that drive whole X cycles onto the inputs,
    /// `Engine::Ppsfp` produces the bit-identical `CampaignResult` as the
    /// lockstep engine, at any thread count. `Engine::Auto` must resolve
    /// the pure stuck-at list to the same result.
    #[test]
    fn ppsfp_campaign_matches_lockstep_with_x_propagation(
        seed in 0u64..1000,
        gates in 10usize..30,
        stimulus in 1u64..1_000_000,
        threads in 1usize..4,
    ) {
        let (nl, w) = x_fixture(seed, gates, stimulus);
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let env = environment(&nl, &zones, &w);
        let faults = stuck_list(&nl);
        prop_assume!(!faults.is_empty());

        let baseline = Campaign::new(&env, &faults).threads(1).run();
        for engine in [Engine::Ppsfp, Engine::Auto] {
            let ppsfp = Campaign::new(&env, &faults)
                .engine(engine)
                .threads(threads)
                .run();
            prop_assert_eq!(
                &baseline, &ppsfp,
                "{:?} diverges from lockstep at {} threads", engine, threads
            );
        }
    }
}

/// A generated datapath with a workload that drives a whole cycle of
/// unknowns onto the inputs every fourth cycle: X must propagate
/// identically through the word-level lanes and the scalar simulator.
fn x_fixture(seed: u64, gates: usize, stimulus: u64) -> (Netlist, Workload) {
    let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
    let din: Vec<_> = (0..4)
        .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
        .collect();
    let rst = nl.net_by_name("rst").unwrap();
    let mut w = Workload::new("xrand");
    for c in 0..12u64 {
        let mut v = vec![(rst, if c == 0 { Logic::One } else { Logic::Zero })];
        if c % 4 == 2 {
            v.extend(din.iter().map(|&n| (n, Logic::X)));
        } else {
            assign_bus(&mut v, &din, stimulus.wrapping_mul(c + 1) >> 2);
        }
        w.push_cycle(v);
    }
    (nl, w)
}

/// The campaign environment, with two internal nets as diagnostic alarms
/// (a first-stage register bit that is also a zone anchor, and a
/// second-stage gate), so the SD/DD outcomes and the word-level alarm mask
/// are compared too.
fn environment<'a>(nl: &'a Netlist, zones: &'a ZoneSet, w: &'a Workload) -> Environment<'a> {
    EnvironmentBuilder::new(nl, zones, w)
        .alarm_net(nl.net_by_name("r0[0]").unwrap())
        .alarm_net(nl.net_by_name("syn1_0").unwrap())
        .build()
}

/// Both stuck-at polarities on every driven net, staggered injection.
fn stuck_list(nl: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (i, net) in nl.nets().iter().enumerate() {
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
                inject_cycle: i % 5,
                label: format!("stuck {}-sa{value}", net.name),
            });
        }
    }
    faults
}

#[test]
fn stuck_at_campaigns_reach_the_detected_outcomes() {
    // the campaign property is only as strong as the outcomes it compares:
    // pin that the generator's alarms really fire, with and without an
    // output mismatch
    let (nl, w) = x_fixture(0, 20, 777_777);
    let zones = extract_zones(&nl, &ExtractConfig::default());
    let env = environment(&nl, &zones, &w);
    let faults = stuck_list(&nl);
    let (_, sd, dd, _) = Campaign::new(&env, &faults)
        .engine(Engine::Ppsfp)
        .run()
        .outcome_counts();
    assert!(sd > 0 && dd > 0, "SD {sd}, DD {dd}");
}
