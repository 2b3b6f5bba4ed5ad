//! The PPSFP campaign engine: bit-parallel fault batches on a word-level
//! simulation core.
//!
//! Pattern-parallel single-fault propagation turned fault-parallel: a
//! [`WordSim`] carries 64 lanes per net — lane 0 golden, lanes
//! `1..=FAULT_LANES` each loaded with one fault — so the levelized netlist
//! walk is paid **once per workload cycle for up to 63 faults**, instead of
//! once per cycle per fault. The monitors need no word-level copy: each
//! cycle, every monitored net and every lane's target net is reported to
//! the shared [`MonitorOracle`] as two lane masks — `diff_mask` where the
//! golden lane is known, and `one_mask` where the golden lane is not `1` —
//! and of those only the lanes not yet reported for that net.
//!
//! Three fault kinds ride lanes, each through its [`WordSim`] hook, armed at
//! the fault's inject cycle at the point where the lockstep engine calls
//! `apply_fault`: a known-value stuck-at pins its net, a bridge couples its
//! victim, a clock outage holds the lane's flip-flops for its cycles. Lane
//! *i* of a batch therefore evolves bit-for-bit like a scalar
//! [`Simulator`](socfmea_sim::Simulator) carrying the same fault, so the
//! per-lane readings fed through [`finalize_outcome`] are
//! **bit-identical** to the lockstep engine's [`FaultOutcome`]s — the
//! property `tests/ppsfp_differential.rs` and `tests/prop_routing.rs`
//! assert.
//!
//! Both accelerated engines ([`Engine::Sparse`](crate::Engine::Sparse) and
//! [`Engine::Ppsfp`](crate::Engine::Ppsfp)) put every lane fault on a lane,
//! and pack the words across the whole fault list: each word takes the
//! next up to [`FAULT_LANES`] lane faults in list order, however the other
//! kinds fall between them. Those other kinds (bit flips, glitches and `X`
//! stuck-ats) run one by one on the sparse kernel ([`accel`](crate::accel)).

use crate::accel::cancel_fired;
use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{finalize_outcome, target_net, FaultOutcome};
use crate::monitors::{MonitorOracle, Readings};
use socfmea_netlist::NetId;
use socfmea_sim::{WordSim, FAULT_LANES};

/// True for a stuck-at with a known (`0`/`1`) value. `Engine::Auto`
/// resolves to `Engine::Ppsfp` iff every fault satisfies this.
pub(crate) fn known_stuck_at(fault: &Fault) -> bool {
    matches!(fault.kind, FaultKind::StuckAt { value, .. } if value.is_known())
}

/// True when a fault can ride a PPSFP word lane: a known-value stuck-at, a
/// bridge or a clock outage.
pub(crate) fn batchable(fault: &Fault) -> bool {
    known_stuck_at(fault)
        || matches!(
            fault.kind,
            FaultKind::Bridge { .. } | FaultKind::ClockStuck { .. }
        )
}

/// Arms `fault`'s hook on word lane `lane` if `cycle` is one where the
/// lockstep engine changes it: the inject cycle, and for a clock outage
/// also the cycle its clock returns.
fn arm(word: &mut WordSim<'_>, lane: usize, fault: &Fault, cycle: usize) {
    let since = cycle.checked_sub(fault.inject_cycle);
    match fault.kind {
        FaultKind::StuckAt { net, value } if since == Some(0) => word.force_lane(net, lane, value),
        FaultKind::Bridge {
            aggressor,
            victim,
            kind,
        } if since == Some(0) => word.bridge_lane(aggressor, victim, lane, kind),
        // an outage of 0 cycles ends before the cycle it starts in
        FaultKind::ClockStuck { cycles } if cycles > 0 => match since {
            Some(0) => word.hold_clock_lane(lane, true),
            Some(c) if c == cycles => word.hold_clock_lane(lane, false),
            _ => {}
        },
        _ => {}
    }
}

/// Simulates one batch of up to [`FAULT_LANES`] lane faults against the
/// shared workload, returning one [`FaultOutcome`] per fault in batch
/// order.
///
/// `word` is reused across batches: the function resets it to power-on
/// (clearing previous lane faults) first, so a campaign worker pays
/// levelization once. The result is a pure function of `(env, batch)`.
///
/// # Panics
///
/// Panics if the batch is empty, exceeds [`FAULT_LANES`], or contains a
/// non-[`batchable`] fault.
pub(crate) fn simulate_batch(
    env: &Environment<'_>,
    oracle: &MonitorOracle,
    word: &mut WordSim<'_>,
    batch: &[(usize, &Fault)],
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> Vec<FaultOutcome> {
    assert!(
        !batch.is_empty() && batch.len() <= FAULT_LANES,
        "a PPSFP batch holds 1..={FAULT_LANES} faults, got {}",
        batch.len()
    );
    assert!(
        batch.iter().all(|&(_, f)| batchable(f)),
        "PPSFP batches hold known-value stuck-ats, bridges and clock outages only"
    );
    word.reset_to_power_on();
    // Oracle lane `i` is word lane `i + 1`; word lanes past the batch stay
    // golden copies, but are masked off anyway.
    let mut lanes: Vec<Readings> = batch.iter().map(|&(_, f)| Readings::new(f)).collect();
    let live = u64::MAX >> (64 - batch.len());
    let mut watched: Vec<NetId> = oracle.monitored().to_vec();
    watched.extend(batch.iter().filter_map(|&(_, f)| target_net(f)));
    watched.sort_unstable();
    watched.dedup();
    // Per watched net, the lanes whose divergence and whose assertion the
    // oracle has already seen. Every reading it keeps is a flag, a set
    // insert or a first cycle, so a repeat report would change nothing.
    let mut reported = vec![(0u64, 0u64); watched.len()];

    for (cycle, inputs) in env.workload.iter().enumerate() {
        if cancel_fired(cancel) {
            break;
        }
        for &(n, v) in inputs {
            word.set(n, v);
        }
        for (li, &(_, fault)) in batch.iter().enumerate() {
            arm(word, li + 1, fault, cycle);
        }
        word.eval();
        for (&net, (seen_diverged, seen_asserted)) in watched.iter().zip(&mut reported) {
            let diverged = if word.golden_known(net) {
                (word.diff_mask(net) >> 1) & live
            } else {
                0
            };
            let ones = word.one_mask(net);
            let asserted = if ones & 1 == 0 { (ones >> 1) & live } else { 0 };
            let (new_diverged, new_asserted) =
                (diverged & !*seen_diverged, asserted & !*seen_asserted);
            *seen_diverged |= diverged;
            *seen_asserted |= asserted;
            oracle.observe(&mut lanes, cycle, net, new_diverged, new_asserted);
        }
        word.tick();
    }

    batch
        .iter()
        .zip(lanes)
        .map(|(&(fault_index, fault), readings)| {
            finalize_outcome(env, fault, fault_index, readings)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::ExecContext;
    use crate::env::EnvironmentBuilder;
    use crate::inject::simulate_scalar;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_netlist::{Driver, Logic};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, BridgeKind, Simulator, Workload};

    fn protected_design() -> socfmea_netlist::Netlist {
        let mut r = RtlBuilder::new("prot");
        let _clk = r.clock_input("clk");
        let d = r.input_word("d", 8);
        r.push_block("regs");
        let q = r.register("data", &d, None, None);
        let pin = r.parity(&d);
        let pq = r.register_bit("par", pin, None, None);
        r.pop_block();
        let pout = r.parity(&q);
        let perr = r.xor2_bit(pout, pq);
        r.output_word("o", &q);
        r.output("alarm_parity", perr);
        r.finish().unwrap()
    }

    fn workload(nl: &socfmea_netlist::Netlist, cycles: u64) -> Workload {
        let d: Vec<_> = (0..8)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..cycles {
            let mut v = Vec::new();
            assign_bus(&mut v, &d, c.wrapping_mul(37) % 256);
            w.push_cycle(v);
        }
        w
    }

    /// Every stuck-at on every driven net, staggered inject cycles.
    fn stuck_list(nl: &socfmea_netlist::Netlist) -> Vec<Fault> {
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
                    inject_cycle: faults.len() % 5,
                    label: format!("stuck {}-sa{value}", net.name),
                });
            }
        }
        faults
    }

    #[test]
    fn batched_outcomes_equal_the_lockstep_engine_fault_for_fault() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let faults = stuck_list(&nl);
        assert!(faults.len() > FAULT_LANES, "want more than one batch");
        let ctx = ExecContext::prepare(&env, &faults, 16);
        let mut sim = Simulator::new(&nl).unwrap();
        let mut word = WordSim::new(&nl).unwrap();
        for chunk in faults
            .iter()
            .enumerate()
            .collect::<Vec<_>>()
            .chunks(FAULT_LANES)
        {
            let got = simulate_batch(&env, &ctx.oracle, &mut word, chunk, None);
            for (&(fi, fault), fo) in chunk.iter().zip(&got) {
                let (want, _) = simulate_scalar(&env, &ctx, &mut sim, fi, fault, None);
                assert_eq!(&want, fo, "fault #{fi} ({}) diverges", fault.label);
            }
        }
    }

    #[test]
    fn bridges_and_a_clock_outage_armed_mid_word_equal_the_lockstep_engine() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let data = |i: usize| nl.net_by_name(&format!("data[{i}]")).unwrap();
        let mut faults: Vec<Fault> = stuck_list(&nl)
            .into_iter()
            .map(|mut f| {
                f.inject_cycle += 7;
                f
            })
            .take(FAULT_LANES - 4)
            .collect();
        for (k, kind) in [BridgeKind::And, BridgeKind::Or, BridgeKind::Dominant]
            .into_iter()
            .enumerate()
        {
            faults.push(Fault {
                kind: FaultKind::Bridge {
                    aggressor: data(k),
                    victim: data(k + 1),
                    kind,
                },
                zone: None,
                inject_cycle: 9 + k,
                label: format!("bridge {kind:?}"),
            });
        }
        faults.push(Fault {
            kind: FaultKind::ClockStuck { cycles: 2 },
            zone: None,
            inject_cycle: 8,
            label: "clock outage".into(),
        });
        let ctx = ExecContext::prepare(&env, &faults, 16);
        let mut sim = Simulator::new(&nl).unwrap();
        let mut word = WordSim::new(&nl).unwrap();
        let batch: Vec<(usize, &Fault)> = faults.iter().enumerate().collect();
        assert_eq!(batch.len(), FAULT_LANES, "one full word");
        let got = simulate_batch(&env, &ctx.oracle, &mut word, &batch, None);
        for (&(fi, fault), fo) in batch.iter().zip(&got) {
            let (want, _) = simulate_scalar(&env, &ctx, &mut sim, fi, fault, None);
            assert_eq!(&want, fo, "fault #{fi} ({}) diverges", fault.label);
        }
    }

    #[test]
    fn late_injection_past_the_workload_is_no_effect() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 8);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let fault = Fault {
            kind: FaultKind::StuckAt {
                net: nl.net_by_name("data[0]").unwrap(),
                value: Logic::One,
            },
            zone: None,
            inject_cycle: 99,
            label: "never fires".into(),
        };
        let oracle = MonitorOracle::new(&env);
        let mut word = WordSim::new(&nl).unwrap();
        let got = simulate_batch(&env, &oracle, &mut word, &[(0, &fault)], None);
        assert_eq!(got[0].outcome, crate::inject::Outcome::NoEffect);
        assert!(!got[0].sens_triggered);
    }

    #[test]
    fn batchable_accepts_known_stuck_ats_bridges_and_clock_outages() {
        let net = NetId::from_index(0);
        let fault = |kind| Fault {
            kind,
            zone: None,
            inject_cycle: 0,
            label: "f".into(),
        };
        let stuck = |value| fault(FaultKind::StuckAt { net, value });
        for value in [Logic::Zero, Logic::One] {
            assert!(known_stuck_at(&stuck(value)));
            assert!(batchable(&stuck(value)));
        }
        assert!(!batchable(&stuck(Logic::X)));
        let bridge = fault(FaultKind::Bridge {
            aggressor: net,
            victim: NetId::from_index(1),
            kind: BridgeKind::And,
        });
        let outage = fault(FaultKind::ClockStuck { cycles: 2 });
        for lane in [&bridge, &outage] {
            assert!(batchable(lane));
            assert!(!known_stuck_at(lane));
        }
        let glitch = fault(FaultKind::Glitch {
            net,
            value: Logic::One,
        });
        let flip = fault(FaultKind::BitFlip {
            dff: socfmea_netlist::DffId(0),
        });
        for other in [&glitch, &flip] {
            assert!(!batchable(other));
        }
    }
}
