//! Property test: routing each fault to its kernel is exact. For arbitrary
//! synthetic designs, workloads with whole cycles of unknowns, and one
//! fault list carrying all five fault kinds, every accelerated setting —
//! `Auto`/`Sparse`/`Ppsfp` × 1 or 3 threads × chunk 1 or 8 × collapse off
//! or on — produces the bit-identical `CampaignResult` (outcomes *and*
//! coverage collection) of the lockstep engine.
//!
//! Inside one campaign, the known-value stuck-ats ride PPSFP words packed
//! across the whole list, the bit flips, glitches and `X` stuck-ats run on
//! the sparse kernel, and the bridges and clock outages on checkpointed
//! warm starts; the merge commits them all in fault-list order.

use proptest::prelude::*;
use socfmea_core::{extract_zones, ExtractConfig, ZoneSet};
use socfmea_faultsim::{
    generate_fault_list, Campaign, Collapse, Engine, Environment, EnvironmentBuilder, Fault,
    FaultKind, FaultListConfig, OperationalProfile,
};
use socfmea_netlist::{Driver, Logic, NetId, Netlist};
use socfmea_rtl::gen;
use socfmea_sim::{assign_bus, BridgeKind, Workload};

proptest! {
    // each case runs 24 campaigns over a list of a few hundred faults;
    // keep the count low and the designs small
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn routed_campaigns_match_lockstep_on_every_fault_kind(
        seed in 0u64..1000,
        gates in 10usize..30,
        stimulus in 1u64..1_000_000,
    ) {
        let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
        let w = workload(&nl, stimulus);
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let env = environment(&nl, &zones, &w);
        let faults = every_kind_list(&env, seed);
        prop_assume!(!faults.is_empty());

        let baseline = Campaign::new(&env, &faults).threads(1).run();
        for engine in [Engine::Auto, Engine::Sparse, Engine::Ppsfp] {
            for threads in [1usize, 3] {
                for chunk in [1usize, 8] {
                    for collapse in [Collapse::Off, Collapse::Dictionary] {
                        let routed = Campaign::new(&env, &faults)
                            .engine(engine)
                            .threads(threads)
                            .chunk(chunk)
                            .collapsing(collapse)
                            .run();
                        prop_assert_eq!(
                            &baseline, &routed,
                            "{:?}, {} threads, chunk {}, {:?} diverges from lockstep",
                            engine, threads, chunk, collapse
                        );
                    }
                }
            }
        }
    }
}

/// Random words on the data inputs, with a whole cycle of unknowns every
/// fourth cycle.
fn workload(nl: &Netlist, stimulus: u64) -> Workload {
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
    w
}

/// Two internal nets as diagnostic alarms (a first-stage register bit that
/// is also a zone anchor, and a second-stage gate), so the SD/DD outcomes
/// and every kernel's alarm readings are compared too.
fn environment<'a>(nl: &'a Netlist, zones: &'a ZoneSet, w: &'a Workload) -> Environment<'a> {
    EnvironmentBuilder::new(nl, zones, w)
        .alarm_net(nl.net_by_name("r0[0]").unwrap())
        .alarm_net(nl.net_by_name("syn1_0").unwrap())
        .build()
}

/// The generated mixed list with both stuck-at polarities on every driven
/// net woven between its faults (every seventh stuck at `X`), plus a
/// bridge and a clock outage placed mid-list: every fault kind, every
/// kernel, interleaved.
fn every_kind_list(env: &Environment<'_>, seed: u64) -> Vec<Fault> {
    let nl = env.netlist;
    let profile = OperationalProfile::collect(env);
    let generated = generate_fault_list(
        env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 1,
            stuckats_per_zone: 1,
            wide_faults: 2,
            bridge_faults: 2,
            seed,
            ..FaultListConfig::default()
        },
    );
    let driven: Vec<NetId> = (0..nl.net_count())
        .map(NetId::from_index)
        .filter(|&n| !matches!(nl.net(n).driver, Driver::None | Driver::Const(_)))
        .collect();
    if generated.is_empty() || driven.len() < 2 {
        return Vec::new();
    }
    let fault = |kind, inject_cycle, label: String| Fault {
        kind,
        zone: None,
        inject_cycle,
        label,
    };
    let mut mixed = generated.iter().cycle();
    let mut faults = Vec::new();
    for (k, (&net, value)) in driven
        .iter()
        .flat_map(|n| [(n, Logic::Zero), (n, Logic::One)])
        .enumerate()
    {
        if k % 2 == 0 {
            faults.push(mixed.next().unwrap().clone());
        }
        let value = if k % 7 == 3 { Logic::X } else { value };
        let label = format!("stuck {}-sa{value}", nl.net(net).name);
        faults.push(fault(FaultKind::StuckAt { net, value }, k % 5, label));
    }
    let bridge = FaultKind::Bridge {
        aggressor: driven[0],
        victim: driven[1],
        kind: BridgeKind::Dominant,
    };
    faults.insert(faults.len() / 2, fault(bridge, 3, "bridge".into()));
    let outage = FaultKind::ClockStuck { cycles: 2 };
    faults.insert(faults.len() / 3, fault(outage, 4, "clock outage".into()));
    faults
}
