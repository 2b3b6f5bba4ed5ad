//! The campaign's one golden artifact, and the sparse engine.
//!
//! Every campaign, whatever its [`Engine`](crate::Engine), prepares one
//! [`ExecContext`]: the [`GoldenTrace`] (every net's value at every cycle,
//! plus periodic checkpoints), the propagation [`Topology`], the shared
//! [`MonitorOracle`] and the zones the fault list targets. The resolved
//! engine only decides which kernels a worker builds over it:
//!
//! * **Lockstep** — the scalar reference: every fault simulated in full
//!   from power-on ([`simulate_scalar`]).
//! * **Sparse** (bit flips, stuck-ats, glitches): the fault's effect is a
//!   pure state override, so the faulty run equals golden until the
//!   activation cycle by construction. A [`SparseSim`] starts *at* the
//!   activation cycle and evaluates only the fan-out cone of the nets that
//!   differ from golden, classifying the remaining cycles straight from the
//!   trace once the divergence set empties. Bridges and clock outages,
//!   which change evaluation semantics globally, take the scalar loop's
//!   checkpointed warm start instead.
//! * **PPSFP** — word-level batches of stuck-ats
//!   ([`ppsfp`](crate::ppsfp)), with everything else on the lockstep path.
//!
//! All paths report golden-vs-faulty differences to the same oracle, so
//! they observe SENS/OBSE/output/alarm events under exactly the same
//! conditions — the differential tests in this module and
//! `tests/prop_accel.rs` assert bit-identical [`FaultOutcome`]s on every
//! fault kind.

use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{finalize_outcome, simulate_scalar, FaultOutcome};
use crate::monitors::{MonitorOracle, Readings};
use socfmea_accel::{GoldenTrace, SparseSim, Topology};
use socfmea_core::ZoneId;
use socfmea_netlist::Logic;
use socfmea_sim::Simulator;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// True when a cooperative cancellation token has fired. Checked once per
/// simulated cycle on every engine path, so a `DELETE`d server job stops
/// promptly even inside a long single-fault simulation; the aborted
/// fault's (garbage) outcome is discarded by the campaign loop.
pub(crate) fn cancel_fired(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Per-fault work accounting: how many cycles the engine actually
/// evaluated versus how many it answered from the golden trace (the
/// warm-start prefix plus the post-convergence suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultMetrics {
    /// Cycles evaluated (sparsely or in full).
    pub(crate) simulated: u64,
    /// Cycles answered from the golden trace without evaluation.
    pub(crate) skipped: u64,
    /// Engine path that classified the fault: `lockstep`, `sparse`,
    /// `warm`, or `ppsfp` (the trace and metrics attribute work per path).
    pub(crate) engine: &'static str,
}

impl Default for FaultMetrics {
    fn default() -> FaultMetrics {
        FaultMetrics {
            simulated: 0,
            skipped: 0,
            engine: "lockstep",
        }
    }
}

/// Everything a campaign shares across faults: the golden trace with its
/// checkpoint store, the propagation topology, the monitor oracle, and the
/// zones the fault list targets. Immutable after construction; worker
/// threads share it by reference (each worker owns its own kernels).
pub(crate) struct ExecContext {
    pub(crate) trace: GoldenTrace,
    pub(crate) topo: Topology,
    pub(crate) oracle: MonitorOracle,
    pub(crate) injected_zones: BTreeSet<ZoneId>,
}

impl ExecContext {
    /// Records the golden trace (checkpointed every `checkpoint_interval`
    /// cycles) and builds the topology and monitor oracle for
    /// `env`/`faults`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized.
    pub(crate) fn prepare(
        env: &Environment<'_>,
        faults: &[Fault],
        checkpoint_interval: usize,
    ) -> ExecContext {
        ExecContext {
            trace: GoldenTrace::record(env.netlist, env.workload, checkpoint_interval)
                .expect("levelizable netlist"),
            topo: Topology::build(env.netlist).expect("levelizable netlist"),
            oracle: MonitorOracle::new(env),
            injected_zones: faults.iter().filter_map(|f| f.zone).collect(),
        }
    }

    /// Approximate resident size in bytes (the artifact cache's eviction
    /// currency): the golden matrix and checkpoints plus the monitor
    /// oracle.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.trace.matrix_bytes() + self.trace.checkpoint_bytes() + self.oracle.approx_bytes()
    }
}

/// Runs one fault on the worker's kernels. A worker of the sparse engine
/// carries a `sparse` kernel: state-override faults take the sparse path,
/// the rest the warm start. Every other worker runs the lockstep
/// reference. The outcome is bit-identical across paths; only the metrics
/// differ.
pub(crate) fn simulate_dispatch(
    env: &Environment<'_>,
    ctx: &ExecContext,
    sim: &mut Simulator<'_>,
    sparse: Option<&mut SparseSim<'_>>,
    fault_index: usize,
    fault: &Fault,
    cancel: Option<&AtomicBool>,
) -> (FaultOutcome, FaultMetrics) {
    match (sparse, &fault.kind) {
        (
            Some(sparse),
            FaultKind::BitFlip { .. } | FaultKind::StuckAt { .. } | FaultKind::Glitch { .. },
        ) => simulate_sparse(env, ctx, sparse, fault_index, fault, cancel),
        (sparse, _) => simulate_scalar(env, ctx, sim, fault_index, fault, sparse.is_some(), cancel),
    }
}

/// The sparse path: divergence-set propagation from the activation cycle.
///
/// Kept out of line: inlined into the campaign loop, its per-cycle loop
/// compiled markedly slower (the hardened F-MEM mixed campaign ran up to
/// 1.4x longer on one x86-64 core).
#[inline(never)]
fn simulate_sparse(
    env: &Environment<'_>,
    ctx: &ExecContext,
    sparse: &mut SparseSim<'_>,
    fault_index: usize,
    fault: &Fault,
    cancel: Option<&AtomicBool>,
) -> (FaultOutcome, FaultMetrics) {
    let len = env.workload.len();
    let inject = fault.inject_cycle;
    let mut readings = Readings::new(fault);
    let mut metrics = FaultMetrics {
        simulated: 0,
        // Everything before activation is golden by construction; a fault
        // scheduled past the workload never activates at all.
        skipped: inject.min(len) as u64,
        engine: "sparse",
    };

    if inject < len {
        sparse.begin(inject);
        match &fault.kind {
            FaultKind::BitFlip { dff } => sparse.flip_ff(*dff),
            FaultKind::StuckAt { net, value } => sparse.force(*net, *value),
            FaultKind::Glitch { net, value } => sparse.pulse(*net, *value),
            _ => unreachable!("sparse path only handles state-override faults"),
        }
        for cycle in inject..len {
            if cancel_fired(cancel) {
                break;
            }
            sparse.eval_cycle();
            metrics.simulated += 1;
            // Every net outside the (exact) divergence set equals golden
            // and can fire no monitor; a divergent net differs from golden
            // by definition, so at `1` it is asserted.
            for &net in sparse.divergent() {
                let known = ctx.trace.value(cycle, net).is_known();
                let one = sparse.get(net) == Logic::One;
                ctx.oracle.observe(
                    std::slice::from_mut(&mut readings),
                    cycle,
                    net,
                    known as u64,
                    one as u64,
                );
            }
            sparse.tick();
            if sparse.converged() {
                metrics.skipped += (len - (cycle + 1)) as u64;
                break;
            }
        }
    }

    (finalize_outcome(env, fault, fault_index, readings), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Engine};
    use crate::env::EnvironmentBuilder;
    use crate::faultlist::{generate_fault_list, FaultListConfig};
    use crate::profile::OperationalProfile;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Workload};

    fn protected_design() -> socfmea_netlist::Netlist {
        let mut r = RtlBuilder::new("prot");
        let _clk = r.clock_input("clk");
        let d = r.input_word("d", 4);
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
        let d: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..cycles {
            let mut v = Vec::new();
            assign_bus(&mut v, &d, c % 16);
            w.push_cycle(v);
        }
        w
    }

    fn fault_list(env: &Environment<'_>, seed: u64) -> Vec<Fault> {
        let profile = OperationalProfile::collect(env);
        generate_fault_list(
            env,
            &profile,
            &FaultListConfig {
                seed,
                ..FaultListConfig::default()
            },
        )
    }

    #[test]
    fn accelerated_campaign_is_bit_identical_to_baseline() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 16);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let faults = fault_list(&env, 7);
        assert!(
            faults
                .iter()
                .map(|f| std::mem::discriminant(&f.kind))
                .collect::<std::collections::HashSet<_>>()
                .len()
                >= 4,
            "fixture should exercise several fault kinds"
        );
        let baseline = Campaign::new(&env, &faults).run();
        for interval in [1, 5, 64] {
            let accel = Campaign::new(&env, &faults)
                .engine(Engine::Sparse)
                .checkpoint_interval(interval)
                .run();
            assert_eq!(
                baseline, accel,
                "divergence at checkpoint interval {interval}"
            );
        }
    }

    #[test]
    fn accelerated_matches_across_thread_counts() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let faults = fault_list(&env, 21);
        let reference = Campaign::new(&env, &faults).run();
        for threads in [1, 3] {
            let accel = Campaign::new(&env, &faults)
                .engine(Engine::Sparse)
                .threads(threads)
                .chunk(2)
                .run();
            assert_eq!(reference, accel, "divergence at {threads} threads");
        }
    }

    #[test]
    fn fault_scheduled_past_the_workload_matches_baseline() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 8);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let data = zones.zone_by_name("regs/data").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs } = &data.kind else {
            panic!("register zone expected");
        };
        // an activation cycle beyond the workload: the fault never fires
        let faults = vec![Fault {
            kind: FaultKind::BitFlip { dff: dffs[0] },
            zone: Some(data.id),
            inject_cycle: 99,
            label: "late flip".into(),
        }];
        let baseline = Campaign::new(&env, &faults).run();
        let accel = Campaign::new(&env, &faults).engine(Engine::Sparse).run();
        assert_eq!(baseline, accel);
        assert_eq!(
            baseline.outcomes[0].outcome,
            crate::inject::Outcome::NoEffect
        );
    }

    #[test]
    fn accelerated_campaign_skips_cycles() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 24);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let data = zones.zone_by_name("regs/data").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs } = &data.kind else {
            panic!("register zone expected");
        };
        // a late flip: the sparse path skips the long golden prefix, and
        // the (un-enabled, feed-forward) register flushes it out again
        let faults = vec![Fault {
            kind: FaultKind::BitFlip { dff: dffs[1] },
            zone: Some(data.id),
            inject_cycle: 20,
            label: "late flip".into(),
        }];
        let campaign = Campaign::new(&env, &faults).engine(Engine::Sparse);
        let stats = campaign.stats();
        let _ = campaign.run();
        assert!(
            stats.cycles_skipped() >= 20,
            "expected at least the pre-activation prefix skipped, got {}",
            stats.cycles_skipped()
        );
        assert!(stats.cycles_simulated() < 24);
        assert_eq!(stats.cycles_simulated() + stats.cycles_skipped(), 24);
    }
}
