//! Property test: running every fault on PPSFP word lanes is exact. For
//! arbitrary synthetic designs and workloads with whole cycles of unknowns,
//! every accelerated setting — `Auto`/`Ppsfp` × 1 or 3 threads × collapse
//! off or on — produces the bit-identical `CampaignResult` (outcomes *and*
//! coverage collection) of the lockstep engine, on three fault lists: a
//! generated one, one of bit flips and glitches only, and one carrying all
//! five fault kinds interleaved.
//!
//! The words are packed by inject cycle, and the merge commits them in
//! fault-list order. A word starts from the golden row at its first inject
//! cycle and stops once every lane has re-converged with the golden lane,
//! which the words of flips and glitches do. In the interleaved list the
//! bridges
//! couple onto gate outputs (one through a feedback path), a flip-flop
//! output and a primary input; the clock outages last 0 and 2 cycles, one
//! past the workload's end; and the list ends in a run of late faults of
//! every kind, so whole words start well into the workload.

use proptest::prelude::*;
use socfmea_core::{extract_zones, ExtractConfig, ZoneSet};
use socfmea_faultsim::{
    generate_fault_list, Campaign, Collapse, Engine, Environment, EnvironmentBuilder, Fault,
    FaultKind, FaultListConfig, OperationalProfile,
};
use socfmea_netlist::{DffId, Driver, Logic, NetId, Netlist};
use socfmea_rtl::gen;
use socfmea_sim::{assign_bus, BridgeKind, Workload, FAULT_LANES};

proptest! {
    // each case runs 24 campaigns over lists of up to a few hundred faults;
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
        let lists = [
            ("generated", generated_list(&env, seed)),
            ("transients", transient_list(&nl)),
            ("every kind", every_kind_list(&env, seed)),
        ];
        prop_assume!(lists.iter().all(|(_, faults)| !faults.is_empty()));

        for (list, faults) in &lists {
            let baseline = Campaign::new(&env, faults).threads(1).run();
            for engine in [Engine::Auto, Engine::Ppsfp] {
                for threads in [1usize, 3] {
                    for collapse in [Collapse::Off, Collapse::Dictionary] {
                        let routed = Campaign::new(&env, faults)
                            .engine(engine)
                            .threads(threads)
                            .collapsing(collapse)
                            .run();
                        prop_assert_eq!(
                            &baseline, &routed,
                            "{} list: {:?}, {} threads, {:?} diverges from lockstep",
                            list, engine, threads, collapse
                        );
                    }
                }
            }
        }
    }
}

/// Workload length in cycles.
const CYCLES: usize = 12;

/// Random words on the data inputs, with a whole cycle of unknowns every
/// fourth cycle.
fn workload(nl: &Netlist, stimulus: u64) -> Workload {
    let din: Vec<_> = (0..4)
        .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
        .collect();
    let rst = nl.net_by_name("rst").unwrap();
    let mut w = Workload::new("xrand");
    for c in 0..CYCLES as u64 {
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

/// A generated mixed list: one bit flip and one stuck-at pair per zone, two
/// wide faults, and the default local glitches, bridges and clock outage.
fn generated_list(env: &Environment<'_>, seed: u64) -> Vec<Fault> {
    let profile = OperationalProfile::collect(env);
    generate_fault_list(
        env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 1,
            stuckats_per_zone: 1,
            wide_faults: 2,
            seed,
            ..FaultListConfig::default()
        },
    )
}

/// Every net some gate, flip-flop or primary input drives.
fn driven_nets(nl: &Netlist) -> Vec<NetId> {
    (0..nl.net_count())
        .map(NetId::from_index)
        .filter(|&n| !matches!(nl.net(n).driver, Driver::None | Driver::Const(_)))
        .collect()
}

/// Two words of bit flips and glitches (on any driven net) at inject
/// cycles 0..=7: words whose lanes wash out before the workload ends.
fn transient_list(nl: &Netlist) -> Vec<Fault> {
    let driven = driven_nets(nl);
    (0..2 * FAULT_LANES)
        .map(|k| {
            let kind = if k % 2 == 0 {
                FaultKind::BitFlip {
                    dff: DffId::from_index(k / 2 % nl.dff_count()),
                }
            } else {
                FaultKind::Glitch {
                    net: driven[k * 5 % driven.len()],
                    value: Logic::from_bool(k % 4 == 1),
                }
            };
            Fault {
                kind,
                zone: None,
                inject_cycle: k % 8,
                label: format!("transient #{k}"),
            }
        })
        .collect()
}

/// The generated mixed list with both stuck-at polarities on every driven
/// net woven between its faults (every seventh stuck at `X`), bridges of
/// every kind and clock outages placed mid-list, and a closing run of
/// faults of every kind that all activate at cycle 6 or later.
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
    let driven = driven_nets(nl);
    let of_driver = |pick: fn(&Driver) -> bool| -> Vec<NetId> {
        driven
            .iter()
            .copied()
            .filter(|&n| pick(&nl.net(n).driver))
            .collect()
    };
    let gate_outputs = of_driver(|d| matches!(d, Driver::Gate(_)));
    let ff_outputs = of_driver(|d| matches!(d, Driver::Dff(_)));
    // a gate output read by another gate: bridged from its reader, the
    // aggressor sits in the victim's fan-out
    let feedback = nl.gates().iter().find_map(|g| {
        g.inputs
            .iter()
            .find(|&&n| matches!(nl.net(n).driver, Driver::Gate(_)))
            .map(|&victim| (g.output, victim))
    });
    let (Some((reader, looped)), true, true) = (
        feedback,
        gate_outputs.len() >= 4,
        !ff_outputs.is_empty() && !generated.is_empty(),
    ) else {
        return Vec::new();
    };
    let fault = |kind, inject_cycle, label: String| Fault {
        kind,
        zone: None,
        inject_cycle,
        label,
    };
    let bridge = |aggressor, victim, kind| FaultKind::Bridge {
        aggressor,
        victim,
        kind,
    };
    let stuck = |k: usize, inject_cycle| {
        let net = driven[(k / 2) % driven.len()];
        let value = Logic::from_bool(k % 2 == 1);
        let label = format!("stuck {}-sa{value}", nl.net(net).name);
        (net, value, inject_cycle, label)
    };

    let mut mixed = generated.iter().cycle();
    let mut faults = Vec::new();
    for k in 0..2 * driven.len() {
        if k % 2 == 0 {
            faults.push(mixed.next().unwrap().clone());
        }
        let (net, value, inject, label) = stuck(k, k % 5);
        let value = if k % 7 == 3 { Logic::X } else { value };
        faults.push(fault(FaultKind::StuckAt { net, value }, inject, label));
    }
    let din0 = nl.net_by_name("din[0]").unwrap();
    let wide = [
        (bridge(gate_outputs[0], gate_outputs[1], BridgeKind::And), 1),
        (bridge(gate_outputs[3], gate_outputs[2], BridgeKind::Or), 0),
        (bridge(reader, looped, BridgeKind::Dominant), 2),
        (bridge(gate_outputs[1], ff_outputs[0], BridgeKind::Or), 3),
        (bridge(ff_outputs[0], din0, BridgeKind::And), 1),
        (FaultKind::ClockStuck { cycles: 2 }, 4),
        (FaultKind::ClockStuck { cycles: 0 }, 5),
        (FaultKind::ClockStuck { cycles: 2 }, CYCLES - 1),
    ];
    for (i, (kind, inject)) in wide.into_iter().enumerate() {
        let at = faults.len() * (i + 1) / 9;
        faults.insert(at, fault(kind, inject, format!("wide #{i}")));
    }
    // more than two words of faults activating at cycle 6..=11, so at
    // least one whole word starts mid-run; bit flips and glitches (on any
    // driven net, primary inputs included) among them
    let dffs = nl.dff_count();
    for k in 0..2 * FAULT_LANES + 1 {
        let inject = 6 + k % 6;
        let site = driven[(k * 7) % driven.len()];
        faults.push(match k % 21 {
            5 => fault(
                bridge(
                    gate_outputs[k % 4],
                    gate_outputs[(k + 1) % 4],
                    BridgeKind::Dominant,
                ),
                inject,
                format!("late bridge #{k}"),
            ),
            13 => fault(
                FaultKind::ClockStuck { cycles: 1 },
                inject,
                format!("late clock outage #{k}"),
            ),
            _ if k % 3 == 1 => fault(
                FaultKind::BitFlip {
                    dff: DffId::from_index(k % dffs),
                },
                inject,
                format!("late flip #{k}"),
            ),
            _ if k % 3 == 2 => fault(
                FaultKind::Glitch {
                    net: site,
                    value: Logic::from_bool(k % 4 < 2),
                },
                inject,
                format!("late glitch #{k}"),
            ),
            _ => {
                let (net, value, inject, label) = stuck(k, inject);
                fault(FaultKind::StuckAt { net, value }, inject, label)
            }
        });
    }
    faults
}
