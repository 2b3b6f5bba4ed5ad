//! The campaign's one golden artifact, and the per-fault kernel router.
//!
//! Every campaign, whatever its [`Engine`](crate::Engine), prepares one
//! [`ExecContext`]: the [`GoldenTrace`] (every net's value at every cycle,
//! plus periodic checkpoints), the propagation [`Topology`], the shared
//! [`MonitorOracle`] and the zones the fault list targets. The resolved
//! engine only decides which kernels a worker builds over it ([`Kernels`]):
//!
//! * **Lockstep** — the scalar reference: every fault simulated in full
//!   from power-on ([`simulate_scalar`]).
//! * **Sparse or PPSFP** — the accelerated engines. Their workers carry the
//!   two fast kernels and [`route`] each fault by kind:
//!   - a known-value stuck-at, a bridge or a clock outage rides a lane of a
//!     PPSFP word ([`ppsfp`](crate::ppsfp)), up to 63 faults per word-level
//!     walk from power-on;
//!   - a bit flip, glitch or `X` stuck-at is a pure state override, so the
//!     faulty run equals golden until the activation cycle by
//!     construction. A [`SparseSim`] starts *at* the activation cycle and
//!     evaluates only the fan-out cone of the nets that differ from golden,
//!     classifying the remaining cycles straight from the trace once the
//!     divergence set empties.
//!
//! All paths report golden-vs-faulty differences to the same oracle, so
//! they observe SENS/OBSE/output/alarm events under exactly the same
//! conditions — the differential tests in this module and
//! `tests/prop_accel.rs` / `tests/prop_routing.rs` assert bit-identical
//! [`FaultOutcome`]s on every fault kind.

use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{finalize_outcome, simulate_scalar, FaultOutcome};
use crate::monitors::{MonitorOracle, Readings};
use crate::ppsfp;
use socfmea_accel::{GoldenTrace, SparseSim, Topology};
use socfmea_core::ZoneId;
use socfmea_netlist::{Logic, Netlist};
use socfmea_sim::{Simulator, WordSim};
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
/// golden prefix before activation plus the post-convergence suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultMetrics {
    /// Cycles evaluated (sparsely or in full).
    pub(crate) simulated: u64,
    /// Cycles answered from the golden trace without evaluation.
    pub(crate) skipped: u64,
    /// Engine path that classified the fault: `lockstep`, `sparse` or
    /// `ppsfp` (the trace and metrics attribute work per path).
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
    /// currency): the golden matrix and checkpoints, the topology and the
    /// monitor oracle.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.trace.matrix_bytes()
            + self.trace.checkpoint_bytes()
            + self.topo.approx_bytes()
            + self.oracle.approx_bytes()
    }
}

/// The kernel a fault runs on; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Full co-simulation from power-on (the lockstep engine only).
    Lockstep,
    /// A lane of a PPSFP word: known-value stuck-ats, bridges, clock
    /// outages.
    Word,
    /// Divergence-set propagation: bit flips, glitches, `X` stuck-ats.
    Sparse,
}

/// Routes `fault` to its kernel: everything to the scalar reference on
/// the lockstep engine, by fault kind on an `accelerated` (sparse or
/// PPSFP) one.
pub(crate) fn route(accelerated: bool, fault: &Fault) -> Kernel {
    if !accelerated {
        Kernel::Lockstep
    } else if ppsfp::batchable(fault) {
        Kernel::Word
    } else {
        Kernel::Sparse
    }
}

/// The kernels one campaign worker owns, built once and reset between
/// faults.
// One value per worker, never moved while it works: boxing the larger
// variant would save no memory.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Kernels<'a> {
    /// The scalar reference simulator of a lockstep worker.
    Lockstep(Simulator<'a>),
    /// The word and sparse kernels of an accelerated worker.
    Accelerated {
        word: WordSim<'a>,
        sparse: SparseSim<'a>,
    },
}

impl<'a> Kernels<'a> {
    /// The kernels of a campaign's first worker: levelizes `netlist` once
    /// for the lockstep or the `accelerated` engines.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized.
    pub(crate) fn new(
        ctx: &'a ExecContext,
        netlist: &'a Netlist,
        accelerated: bool,
    ) -> Kernels<'a> {
        if accelerated {
            Kernels::Accelerated {
                word: WordSim::new(netlist).expect("levelizable netlist"),
                sparse: SparseSim::new(netlist, &ctx.topo, &ctx.trace),
            }
        } else {
            Kernels::Lockstep(Simulator::new(netlist).expect("levelizable netlist"))
        }
    }

    /// Another worker's kernels over the same context: the levelization
    /// is shared, the dynamic state is fresh.
    pub(crate) fn fork(&self, ctx: &'a ExecContext) -> Kernels<'a> {
        match self {
            Kernels::Lockstep(sim) => Kernels::Lockstep(sim.clone_fresh()),
            Kernels::Accelerated { word, .. } => Kernels::Accelerated {
                word: word.clone(),
                sparse: SparseSim::new(word.netlist(), &ctx.topo, &ctx.trace),
            },
        }
    }
}

/// Runs one fault on the worker's scalar or sparse kernel, as [`route`]d.
/// The outcome is bit-identical across paths; only the metrics differ.
///
/// # Panics
///
/// Panics on a fault routed to a word lane: those run in batches
/// ([`ppsfp::simulate_batch`]).
pub(crate) fn simulate_dispatch(
    env: &Environment<'_>,
    ctx: &ExecContext,
    kernels: &mut Kernels<'_>,
    fault_index: usize,
    fault: &Fault,
    cancel: Option<&AtomicBool>,
) -> (FaultOutcome, FaultMetrics) {
    match kernels {
        Kernels::Lockstep(sim) => simulate_scalar(env, ctx, sim, fault_index, fault, cancel),
        Kernels::Accelerated { sparse, .. } => {
            debug_assert_eq!(
                route(true, fault),
                Kernel::Sparse,
                "word-lane faults are not simulated one by one"
            );
            simulate_sparse(env, ctx, sparse, fault_index, fault, cancel)
        }
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
