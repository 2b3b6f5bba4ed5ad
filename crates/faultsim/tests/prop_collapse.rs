//! Property test: fault collapsing is exact — for arbitrary synthetic
//! designs, workloads and fault lists, `Collapse::Dictionary` produces the
//! bit-identical `CampaignResult` (outcomes *and* coverage collection) as
//! the uncollapsed baseline, at every thread count, composed with every
//! engine (lockstep, sparse, and whatever `Engine::Auto` resolves to).
//!
//! This is the contract that makes `--collapse` safe to reach for:
//! equivalence collapsing and fault-dictionary back-annotation are pure
//! execution strategies and can never leak into the IEC 61508 evidence.

use proptest::prelude::*;
use socfmea_core::{extract_zones, ExtractConfig};
use socfmea_faultsim::{
    generate_fault_list, Campaign, Collapse, Engine, EnvironmentBuilder, Fault, FaultKind,
    FaultListConfig, OperationalProfile,
};
use socfmea_netlist::{Driver, Logic, NetId};
use socfmea_rtl::gen;
use socfmea_sim::{assign_bus, Workload};

proptest! {
    // each case runs four full campaigns over the same fault list; keep the
    // count low and the designs small
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn collapsed_campaign_matches_baseline(
        seed in 0u64..1000,
        gates in 10usize..30,
        stimulus in 1u64..1_000_000,
        threads in 1usize..4,
    ) {
        let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
        let din: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let rst = nl.net_by_name("rst").unwrap();
        let mut w = Workload::new("rand");
        for c in 0..12u64 {
            let mut v = vec![(rst, if c == 0 { Logic::One } else { Logic::Zero })];
            assign_bus(&mut v, &din, stimulus.wrapping_mul(c + 1) >> 2);
            w.push_cycle(v);
        }

        let zones = extract_zones(&nl, &ExtractConfig::default());
        // two internal nets as diagnostic alarms (a first-stage register
        // bit that is also a zone anchor, and a second-stage gate), so the
        // SD/DD outcomes and the alarm monitor are compared too
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarm_net(nl.net_by_name("r0[0]").unwrap())
            .alarm_net(nl.net_by_name("syn1_0").unwrap())
            .build();
        let profile = OperationalProfile::collect(&env);
        // generated faults (every kind) plus dense exhaustive stuck-ats on
        // the synthetic logic, where equivalence classes actually form
        let mut faults = generate_fault_list(
            &env,
            &profile,
            &FaultListConfig {
                bitflips_per_zone: 1,
                stuckats_per_zone: 1,
                wide_faults: 2,
                seed,
                ..FaultListConfig::default()
            },
        );
        for (i, net) in nl.nets().iter().enumerate() {
            if matches!(net.driver, Driver::None | Driver::Const(_)) {
                continue;
            }
            for value in [Logic::Zero, Logic::One] {
                faults.push(Fault {
                    kind: FaultKind::StuckAt { net: NetId::from_index(i), value },
                    zone: None,
                    inject_cycle: i % 3,
                    label: format!("stuck {}-sa{value}", net.name),
                });
            }
        }
        prop_assume!(!faults.is_empty());

        let baseline = Campaign::new(&env, &faults).threads(1).run();
        for (collapse_threads, engine) in [
            (1usize, Engine::Lockstep),
            (threads, Engine::Lockstep),
            (threads, Engine::Sparse),
            (threads, Engine::Auto),
        ] {
            let collapsed = Campaign::new(&env, &faults)
                .collapsing(Collapse::Dictionary)
                .engine(engine)
                .checkpoint_interval(7)
                .threads(collapse_threads)
                .run();
            prop_assert_eq!(
                &baseline.outcomes, &collapsed.outcomes,
                "outcomes diverge at {} threads ({:?})", collapse_threads, engine
            );
            prop_assert_eq!(
                &baseline.coverage, &collapsed.coverage,
                "coverage diverges at {} threads ({:?})", collapse_threads, engine
            );
        }
    }
}
