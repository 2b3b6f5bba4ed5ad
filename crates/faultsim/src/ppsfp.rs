//! The PPSFP campaign engine: bit-parallel fault batches on a word-level
//! simulation core.
//!
//! Pattern-parallel single-fault propagation turned fault-parallel: a
//! [`WordSim`] carries 64 lanes per net — lane 0 golden, lanes
//! `1..=FAULT_LANES` each loaded with one fault — so the levelized netlist
//! walk is paid **once per workload cycle for up to 63 faults**, instead of
//! once per cycle per fault. The monitors need no word-level copy: each
//! cycle, every monitored net and every lane's target net is reported to
//! the shared [`MonitorOracle`](crate::monitors::MonitorOracle) as two lane
//! masks — `diff_mask` where the golden lane is known, and `one_mask` where
//! the golden lane is not `1` — and of those only the lanes not yet
//! reported for that net.
//!
//! The scan reads only the watched nets whose planes the cycle's
//! evaluation changed ([`WordSim::changed_nets`], looked up through a
//! per-word slot table), and every watched net after a plain walk. That is
//! exact: both masks are functions of the net's planes, so a net whose
//! planes did not change shows the lanes it showed at its last scan, all
//! of them reported then, and the oracle's
//! [`observe`](crate::monitors::MonitorOracle::observe) is idempotent and
//! order-independent within a cycle.
//!
//! Every fault kind rides a lane through its [`WordSim`] hook, armed at the
//! fault's inject cycle at the point where the lockstep engine calls
//! `apply_fault`: a stuck-at pins its net (`X` included), a glitch pins it
//! for one cycle, a bit flip inverts the lane's flip-flop, a bridge couples
//! its victim, a clock outage holds the lane's flip-flops for its cycles.
//! Lane *i* of a batch therefore evolves bit-for-bit like a scalar
//! [`Simulator`](socfmea_sim::Simulator) carrying the same fault, so the
//! per-lane readings fed through [`finalize_outcome`] are
//! **bit-identical** to the lockstep engine's [`FaultOutcome`]s — the
//! property `tests/ppsfp_differential.rs` and `tests/prop_routing.rs`
//! assert.
//!
//! A word skips what its faulty runs share with the golden run at both
//! ends. Before the earliest inject cycle every lane is golden, so the word
//! starts from the golden trace's row there. Once its last lane has armed,
//! the word stops as soon as [`WordSim::converged`] says every lane has
//! fallen back onto lane 0 for good: no later cycle can fire a monitor.
//! The campaign packs words by inject cycle, so the lanes of a word arm
//! close together.

use crate::accel::{cancel_fired, ExecContext};
use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{finalize_outcome, target_net, FaultOutcome};
use crate::monitors::Readings;
use socfmea_netlist::NetId;
use socfmea_sim::{WordSim, FAULT_LANES};
use std::sync::atomic::AtomicBool;

/// Arms `fault`'s hook on word lane `lane` if `cycle` is one where the
/// lockstep engine changes it: the inject cycle, and for a clock outage
/// also the cycle its clock returns.
fn arm(word: &mut WordSim<'_>, lane: usize, fault: &Fault, cycle: usize) {
    let since = cycle.checked_sub(fault.inject_cycle);
    match fault.kind {
        FaultKind::StuckAt { net, value } if since == Some(0) => word.force_lane(net, lane, value),
        FaultKind::Glitch { net, value } if since == Some(0) => word.pulse_lane(net, lane, value),
        FaultKind::BitFlip { dff } if since == Some(0) => word.flip_lane(dff, lane),
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

/// What one word cost the kernel: a pure function of the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WordWork {
    /// Cycles the word evaluated.
    pub(crate) cycles: u64,
    /// Gate outputs the kernel recomputed ([`WordSim::gate_evals`]).
    pub(crate) gate_evals: u64,
    /// Flip-flop states the kernel recomputed ([`WordSim::ff_updates`]).
    pub(crate) ff_updates: u64,
}

/// Reports one watched net's lanes not yet reported to the oracle.
#[inline]
fn scan(
    ctx: &ExecContext,
    word: &WordSim<'_>,
    lanes: &mut [Readings],
    cycle: usize,
    net: NetId,
    (seen_diverged, seen_asserted): &mut (u64, u64),
    live: u64,
) {
    let diverged = if word.golden_known(net) {
        (word.diff_mask(net) >> 1) & live
    } else {
        0
    };
    let ones = word.one_mask(net);
    let asserted = if ones & 1 == 0 { (ones >> 1) & live } else { 0 };
    let (new_diverged, new_asserted) = (diverged & !*seen_diverged, asserted & !*seen_asserted);
    *seen_diverged |= diverged;
    *seen_asserted |= asserted;
    ctx.oracle
        .observe(lanes, cycle, net, new_diverged, new_asserted);
}

/// Simulates one batch of up to [`FAULT_LANES`] faults against the shared
/// workload, returning one [`FaultOutcome`] per fault in batch order and
/// the kernel work the word cost.
///
/// `word` is reused across batches: the function loads it from the golden
/// trace (clearing previous lane faults) first, so a campaign worker pays
/// levelization once. The result is a pure function of `(env, batch)`.
///
/// # Panics
///
/// Panics if the batch is empty or exceeds [`FAULT_LANES`].
pub(crate) fn simulate_batch(
    env: &Environment<'_>,
    ctx: &ExecContext,
    word: &mut WordSim<'_>,
    batch: &[(usize, &Fault)],
    cancel: Option<&AtomicBool>,
) -> (Vec<FaultOutcome>, WordWork) {
    assert!(
        !batch.is_empty() && batch.len() <= FAULT_LANES,
        "a PPSFP batch holds 1..={FAULT_LANES} faults, got {}",
        batch.len()
    );
    // Oracle lane `i` is word lane `i + 1`; word lanes past the batch stay
    // golden copies, but are masked off anyway.
    let mut lanes: Vec<Readings> = batch.iter().map(|&(_, f)| Readings::new(f)).collect();
    let live = u64::MAX >> (64 - batch.len());
    let mut watched: Vec<NetId> = ctx.oracle.monitored().to_vec();
    watched.extend(batch.iter().filter_map(|&(_, f)| target_net(f)));
    watched.sort_unstable();
    watched.dedup();
    // Per watched net, the lanes whose divergence and whose assertion the
    // oracle has already seen. Every reading it keeps is a flag, a set
    // insert or a first cycle, so a repeat report would change nothing.
    let mut reported = vec![(0u64, 0u64); watched.len()];
    // The slot of every watched net in `watched`, by net index.
    let mut slot = vec![u32::MAX; env.netlist.net_count()];
    for (k, net) in watched.iter().enumerate() {
        slot[net.index()] = k as u32;
    }
    // Every lane is golden before the first arming, and nothing is armed
    // after the last one.
    let inject = || batch.iter().map(|&(_, f)| f.inject_cycle);
    let (start, settle) = (inject().min().unwrap_or(0), inject().max().unwrap_or(0));
    if start < env.workload.len() {
        word.load_golden(start as u64, ctx.trace.row(start));
    }
    let (gate_evals, ff_updates) = (word.gate_evals(), word.ff_updates());
    let mut simulated = 0;

    for (cycle, inputs) in env.workload.iter().enumerate().skip(start) {
        if cancel_fired(cancel) {
            break;
        }
        for &(n, v) in inputs {
            word.set(n, v);
        }
        if cycle > settle && word.converged() {
            break;
        }
        for (li, &(_, fault)) in batch.iter().enumerate() {
            arm(word, li + 1, fault, cycle);
        }
        word.eval();
        simulated += 1;
        match word.changed_nets() {
            None => {
                for (&net, seen) in watched.iter().zip(&mut reported) {
                    scan(ctx, word, &mut lanes, cycle, net, seen, live);
                }
            }
            Some(changed) => {
                for &net in changed {
                    if let Some(seen) = reported.get_mut(slot[net.index()] as usize) {
                        scan(ctx, word, &mut lanes, cycle, net, seen, live);
                    }
                }
            }
        }
        word.tick();
    }
    let work = WordWork {
        cycles: simulated,
        gate_evals: word.gate_evals() - gate_evals,
        ff_updates: word.ff_updates() - ff_updates,
    };

    let outcomes = batch
        .iter()
        .zip(lanes)
        .map(|(&(fault_index, fault), readings)| {
            finalize_outcome(env, fault, fault_index, readings)
        })
        .collect();
    (outcomes, work)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let ctx = ExecContext::prepare(&env, &faults);
        let mut sim = Simulator::new(&nl).unwrap();
        let mut word = WordSim::new(&nl).unwrap();
        for chunk in faults
            .iter()
            .enumerate()
            .collect::<Vec<_>>()
            .chunks(FAULT_LANES)
        {
            let (got, _) = simulate_batch(&env, &ctx, &mut word, chunk, None);
            for (&(fi, fault), fo) in chunk.iter().zip(&got) {
                let (want, _) = simulate_scalar(&env, &ctx, &mut sim, fi, fault, None);
                assert_eq!(&want, fo, "fault #{fi} ({}) diverges", fault.label);
            }
        }
    }

    /// Runs `faults` as one word and asserts each lane against the
    /// lockstep engine; returns the cycles the word evaluated.
    fn assert_one_word_equals_lockstep(
        env: &Environment<'_>,
        nl: &socfmea_netlist::Netlist,
        faults: &[Fault],
    ) -> u64 {
        let ctx = ExecContext::prepare(env, faults);
        let mut sim = Simulator::new(nl).unwrap();
        let mut word = WordSim::new(nl).unwrap();
        let batch: Vec<(usize, &Fault)> = faults.iter().enumerate().collect();
        let (got, work) = simulate_batch(env, &ctx, &mut word, &batch, None);
        for (&(fi, fault), fo) in batch.iter().zip(&got) {
            let (want, _) = simulate_scalar(env, &ctx, &mut sim, fi, fault, None);
            assert_eq!(&want, fo, "fault #{fi} ({}) diverges", fault.label);
        }
        work.cycles
    }

    #[test]
    fn every_fault_kind_armed_mid_word_equals_the_lockstep_engine() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let data = |i: usize| nl.net_by_name(&format!("data[{i}]")).unwrap();
        let fault = |kind, inject_cycle, label: &str| Fault {
            kind,
            zone: None,
            inject_cycle,
            label: label.into(),
        };
        let mut faults: Vec<Fault> = stuck_list(&nl)
            .into_iter()
            .map(|mut f| {
                f.inject_cycle += 7;
                f
            })
            .take(FAULT_LANES - 16)
            .collect();
        for (k, kind) in [BridgeKind::And, BridgeKind::Or, BridgeKind::Dominant]
            .into_iter()
            .enumerate()
        {
            let bridge = FaultKind::Bridge {
                aggressor: data(k),
                victim: data(k + 1),
                kind,
            };
            faults.push(fault(bridge, 9 + k, "bridge"));
        }
        faults.push(fault(
            FaultKind::ClockStuck { cycles: 2 },
            8,
            "clock outage",
        ));
        for k in 0..4 {
            let flip = FaultKind::BitFlip {
                dff: socfmea_netlist::DffId::from_index(k),
            };
            faults.push(fault(flip, 7 + k, "flip"));
            let value = Logic::from_bool(k % 2 == 0);
            faults.push(fault(
                FaultKind::Glitch {
                    net: data(k),
                    value,
                },
                8 + k,
                "glitch",
            ));
            let stuck_x = FaultKind::StuckAt {
                net: data(k),
                value: Logic::X,
            };
            faults.push(fault(stuck_x, 7 + k, "X stuck-at"));
        }
        assert_eq!(faults.len(), FAULT_LANES, "one full word");
        assert_one_word_equals_lockstep(&env, &nl, &faults);
    }

    #[test]
    fn a_word_of_late_flips_starts_at_the_first_and_stops_once_they_wash_out() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        // the data register reloads every cycle: a flip is gone one clock
        // edge later, so the word runs cycles 7 and 8 only
        let faults: Vec<Fault> = (0..8)
            .map(|k| Fault {
                kind: FaultKind::BitFlip {
                    dff: socfmea_netlist::DffId::from_index(k % 4),
                },
                zone: None,
                inject_cycle: 7 + k % 2,
                label: format!("flip #{k}"),
            })
            .collect();
        assert_eq!(assert_one_word_equals_lockstep(&env, &nl, &faults), 2);
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
        let ctx = ExecContext::prepare(&env, std::slice::from_ref(&fault));
        let mut word = WordSim::new(&nl).unwrap();
        let (got, work) = simulate_batch(&env, &ctx, &mut word, &[(0, &fault)], None);
        assert_eq!(got[0].outcome, crate::inject::Outcome::NoEffect);
        assert!(!got[0].sens_triggered);
        assert_eq!(work, WordWork::default());
    }
}
