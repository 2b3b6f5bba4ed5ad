//! The PPSFP campaign engine: bit-parallel stuck-at batches on a
//! word-level simulation core.
//!
//! Pattern-parallel single-fault propagation turned fault-parallel: a
//! [`WordSim`] carries 64 lanes per net — lane 0 golden, lanes
//! `1..=FAULT_LANES` each loaded with one stuck-at fault — so the levelized
//! netlist walk is paid **once per workload cycle for up to 63 faults**,
//! instead of once per cycle per fault. The monitors need no word-level
//! copy: each cycle, every monitored net and every lane's target net is
//! reported to the shared [`MonitorOracle`] as two lane masks —
//! `diff_mask` where the golden lane is known, and `one_mask` where the
//! golden lane is not `1`.
//!
//! Lane *i* of a batch evolves bit-for-bit like a scalar
//! [`Simulator`](socfmea_sim::Simulator) carrying the same persistent
//! force, so the per-lane readings fed through [`finalize_outcome`] are
//! **bit-identical** to the lockstep engine's [`FaultOutcome`]s — the
//! property `tests/ppsfp_differential.rs` asserts on every example design.
//!
//! Only known-value stuck-at faults batch (a stuck-at is the only fault
//! kind that is a pure persistent per-net override). Both accelerated
//! engines ([`Engine::Sparse`](crate::Engine::Sparse) and
//! [`Engine::Ppsfp`](crate::Engine::Ppsfp)) put every such fault on a
//! lane, and pack the words across the whole fault list: each word takes
//! the next up to [`FAULT_LANES`] stuck-ats in list order, however the
//! other kinds fall between them. Those other kinds run one by one on the
//! sparse kernel or a checkpointed warm start
//! ([`accel`](crate::accel)).

use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{finalize_outcome, target_net, FaultOutcome};
use crate::monitors::{MonitorOracle, Readings};
use socfmea_netlist::NetId;
use socfmea_sim::{WordSim, FAULT_LANES};

/// True when a fault can ride a PPSFP word lane: a stuck-at with a known
/// (`0`/`1`) value. `Engine::Auto` resolves to `Engine::Ppsfp` iff every
/// fault satisfies this.
pub(crate) fn batchable(fault: &Fault) -> bool {
    matches!(fault.kind, FaultKind::StuckAt { value, .. } if value.is_known())
}

/// Simulates one batch of up to [`FAULT_LANES`] stuck-at faults against the
/// shared workload, returning one [`FaultOutcome`] per fault in batch
/// order.
///
/// `word` is reused across batches: the function resets it to power-on
/// (clearing previous lane pins) first, so a campaign worker pays
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
        "PPSFP batches hold known-value stuck-at faults only"
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

    for (cycle, inputs) in env.workload.iter().enumerate() {
        if crate::accel::cancel_fired(cancel) {
            break;
        }
        for &(n, v) in inputs {
            word.set(n, v);
        }
        // Lane pins activate at each fault's own inject cycle and persist,
        // mirroring the lockstep engine's `apply_fault` timing (before the
        // eval of the activation cycle).
        for (li, &(_, fault)) in batch.iter().enumerate() {
            if let FaultKind::StuckAt { net, value } = fault.kind {
                if fault.inject_cycle == cycle {
                    word.force_lane(net, li + 1, value);
                }
            }
        }
        word.eval();
        for &net in &watched {
            let diverged = if word.golden_known(net) {
                (word.diff_mask(net) >> 1) & live
            } else {
                0
            };
            let ones = word.one_mask(net);
            let asserted = if ones & 1 == 0 { (ones >> 1) & live } else { 0 };
            oracle.observe(&mut lanes, cycle, net, diverged, asserted);
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
    use socfmea_sim::{assign_bus, Simulator, Workload};

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
                let (want, _) = simulate_scalar(&env, &ctx, &mut sim, fi, fault, false, None);
                assert_eq!(&want, fo, "fault #{fi} ({}) diverges", fault.label);
            }
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
    fn batchable_accepts_known_stuck_ats_only() {
        let net = NetId::from_index(0);
        let stuck = |value| Fault {
            kind: FaultKind::StuckAt { net, value },
            zone: None,
            inject_cycle: 0,
            label: "f".into(),
        };
        assert!(batchable(&stuck(Logic::Zero)));
        assert!(batchable(&stuck(Logic::One)));
        assert!(!batchable(&stuck(Logic::X)));
        assert!(!batchable(&Fault {
            kind: FaultKind::Glitch {
                net,
                value: Logic::One
            },
            zone: None,
            inject_cycle: 0,
            label: "g".into(),
        }));
    }
}
