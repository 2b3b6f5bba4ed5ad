//! Property tests of the campaign set-up on generated netlists:
//!
//! * the operational profile, read from the environment's shared golden
//!   trace, equals a collection over a scalar `Workload::run` (the
//!   profiler's former loop, kept here only as the oracle), on workloads
//!   with whole cycles of unknowns;
//! * stuck-at canonicalisation over fan-out facts counted once per netlist
//!   (`collapse_stuck_at`, `fault_universe`) equals the walk that rebuilt
//!   the gate and flip-flop fan-out for every site, on synthetic datapaths
//!   and on netlists dense in buffer/inverter chains, fan-out stems,
//!   flip-flop readers and primary-output ports.

use proptest::prelude::*;
use socfmea_core::{extract_zones, ExtractConfig};
use socfmea_faultsim::{
    collapse_stuck_at, fault_universe, Environment, EnvironmentBuilder, OperationalProfile,
    StuckAtFault, ZoneActivity,
};
use socfmea_netlist::{Driver, GateKind, Logic, NetId, Netlist, NetlistBuilder};
use socfmea_rtl::gen;
use socfmea_sim::{assign_bus, Simulator, Workload};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn golden_profile_matches_a_scalar_collection(
        seed in 0u64..1000,
        gates in 6usize..40,
        stimulus in 1u64..1_000_000,
        x_every in 2u64..6,
        cycles in 0u64..24,
    ) {
        let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
        let w = workload(&nl, stimulus, x_every, cycles);
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let profile = OperationalProfile::collect(&env);
        prop_assert_eq!(profile.cycles, cycles);
        prop_assert_eq!(profile.zones, scalar_profile(&env));
    }

    #[test]
    fn once_built_canonicalisation_matches_the_per_call_walk(
        seed in 0u64..1000,
        gates in 6usize..40,
        ops in proptest::collection::vec((0u8..8, 0u16..512, 0u16..512), 1..48),
    ) {
        let datapath = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
        let chains = chain_netlist(&ops);
        for nl in [&datapath, &chains] {
            for i in 0..nl.net_count() {
                let net = NetId::from_index(i);
                for value in [Logic::Zero, Logic::One, Logic::X] {
                    prop_assert_eq!(
                        collapse_stuck_at(nl, net, value),
                        per_call_canonical(nl, net, value),
                        "{} sa{}", nl.net(net).name, value
                    );
                }
            }
            prop_assert_eq!(fault_universe(nl), per_call_universe(nl));
        }
    }
}

/// Random words on the data inputs, reset in cycle 0, and a whole cycle of
/// unknowns every `x_every` cycles.
fn workload(nl: &Netlist, stimulus: u64, x_every: u64, cycles: u64) -> Workload {
    let din: Vec<_> = (0..4)
        .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
        .collect();
    let rst = nl.net_by_name("rst").unwrap();
    let mut w = Workload::new("xrand");
    for c in 0..cycles {
        let mut v = vec![(rst, if c == 0 { Logic::One } else { Logic::Zero })];
        if c % x_every == 1 {
            v.extend(din.iter().map(|&n| (n, Logic::X)));
        } else {
            assign_bus(&mut v, &din, stimulus.wrapping_mul(c + 1) >> 2);
        }
        w.push_cycle(v);
    }
    w
}

/// The profiler's former loop: one scalar run of the workload, each zone's
/// anchors compared with their values one cycle earlier.
fn scalar_profile(env: &Environment<'_>) -> Vec<ZoneActivity> {
    let mut sim = Simulator::new(env.netlist).expect("levelizable");
    let anchors: Vec<&[NetId]> = env
        .zones
        .zones()
        .iter()
        .map(|z| z.anchors.as_slice())
        .collect();
    let mut last: Vec<Vec<Logic>> = anchors.iter().map(|a| vec![Logic::X; a.len()]).collect();
    let mut zones = vec![ZoneActivity::default(); env.zones.len()];
    env.workload.run(&mut sim, |_, s| {
        for (zi, nets) in anchors.iter().enumerate() {
            let mut changed = false;
            let mut known = true;
            for (bi, &net) in nets.iter().enumerate() {
                let now = s.get(net);
                if now != last[zi][bi] && now.is_known() && last[zi][bi].is_known() {
                    changed = true;
                }
                if !now.is_known() {
                    known = false;
                }
                last[zi][bi] = now;
            }
            let a = &mut zones[zi];
            a.total_cycles += 1;
            if changed {
                a.active_cycles += 1;
            }
            if known {
                a.known_cycles += 1;
            }
        }
    });
    zones
}

/// The canonicalisation that rebuilt the fan-out for every site.
fn per_call_canonical(netlist: &Netlist, mut net: NetId, mut value: Logic) -> (NetId, Logic) {
    let gate_fanout = netlist.gate_fanout();
    let dff_fanout = netlist.dff_fanout();
    loop {
        let Driver::Gate(g) = netlist.net(net).driver else {
            return (net, value);
        };
        let gate = netlist.gate(g);
        let flip = match gate.kind {
            GateKind::Buf => false,
            GateKind::Not => true,
            _ => return (net, value),
        };
        let src = gate.inputs[0];
        if gate_fanout[src.index()].len() != 1
            || !dff_fanout[src.index()].is_empty()
            || netlist.outputs().contains(&src)
        {
            return (net, value);
        }
        net = src;
        if flip {
            value = value.not();
        }
    }
}

/// Both polarities on every gate and flip-flop output, canonicalised one
/// site at a time.
fn per_call_universe(netlist: &Netlist) -> Vec<StuckAtFault> {
    let outputs = netlist
        .gates()
        .iter()
        .map(|g| g.output)
        .chain(netlist.dffs().iter().map(|ff| ff.q));
    let mut set = BTreeSet::new();
    for net in outputs {
        for value in [Logic::Zero, Logic::One] {
            let (net, v) = per_call_canonical(netlist, net, value);
            set.insert(StuckAtFault {
                net,
                stuck_high: v == Logic::One,
            });
        }
    }
    set.into_iter().collect()
}

/// A netlist dense in buffer/inverter chains. Each op reads one or two
/// earlier nets and adds a buffer or an inverter (most often, so chains
/// form), a two-input AND (sometimes of one net twice), a flip-flop with an
/// optional enable, a primary output through a port buffer, or a primary
/// output port on the net itself.
fn chain_netlist(ops: &[(u8, u16, u16)]) -> Netlist {
    let mut b = NetlistBuilder::new("chains");
    let mut nets = vec![b.input("a"), b.input("b")];
    let mut ports = BTreeSet::new();
    for (i, &(op, x, y)) in ops.iter().enumerate() {
        let x = nets[usize::from(x) % nets.len()];
        let y = nets[usize::from(y) % nets.len()];
        match op {
            0..=1 => nets.push(b.gate(GateKind::Buf, &[x], format!("buf{i}"))),
            2..=3 => nets.push(b.gate(GateKind::Not, &[x], format!("inv{i}"))),
            4 => nets.push(b.gate(GateKind::And, &[x, y], format!("and{i}"))),
            5 => {
                let enable = (x != y).then_some(y);
                nets.push(b.dff_full(format!("q{i}"), x, enable, None, Logic::Zero, Logic::Zero));
            }
            6 => b.output(format!("o{i}"), x),
            _ => {
                if ports.insert(x) {
                    b.register_output_port(x);
                }
            }
        }
    }
    b.finish()
        .expect("every net is driven and the logic is acyclic")
}
