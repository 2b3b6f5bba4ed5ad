//! The campaign's one golden artifact, and the kernels a worker owns.
//!
//! Every campaign, whatever its [`Engine`](crate::Engine), prepares one
//! [`ExecContext`]: the environment's [`GoldenTrace`] (every net's value at
//! every cycle, shared with the operational profile), the shared
//! [`MonitorOracle`] and the zones the fault list targets. The resolved
//! engine only decides which kernel a worker builds over it ([`Kernels`]):
//!
//! * **Lockstep** — the scalar reference: every fault simulated in full
//!   from power-on ([`simulate_scalar`](crate::inject::simulate_scalar)).
//! * **PPSFP** — the accelerated engine: every fault rides a lane of a
//!   PPSFP word ([`ppsfp`](crate::ppsfp)), up to 63 faults per word-level
//!   walk. A word starts from the golden trace's row at its earliest inject
//!   cycle and stops once every lane has fallen back onto the golden lane
//!   for good.
//!
//! Both paths report golden-vs-faulty differences to the same oracle, so
//! they observe SENS/OBSE/output/alarm events under exactly the same
//! conditions — the differential tests in this module and
//! `tests/prop_routing.rs` assert bit-identical [`FaultOutcome`]s on every
//! fault kind.
//!
//! [`FaultOutcome`]: crate::FaultOutcome

use crate::env::Environment;
use crate::faultlist::Fault;
use crate::monitors::MonitorOracle;
use socfmea_accel::GoldenTrace;
use socfmea_core::ZoneId;
use socfmea_netlist::Netlist;
use socfmea_sim::{Simulator, WordSim};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// True when a cooperative cancellation token has fired. Checked once per
/// simulated cycle on every engine path, so a `DELETE`d server job stops
/// promptly even inside a long single-fault simulation; the aborted
/// fault's (garbage) outcome is discarded by the campaign loop.
pub(crate) fn cancel_fired(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Per-fault work accounting: how many cycles the engine actually
/// evaluated versus how many it answered from the golden trace (the
/// golden prefix before a word starts, the suffix after it converged, and
/// the cycles of the lanes riding along).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultMetrics {
    /// Cycles evaluated.
    pub(crate) simulated: u64,
    /// Cycles answered from the golden trace without evaluation.
    pub(crate) skipped: u64,
    /// Engine path that classified the fault: `lockstep` or `ppsfp` (the
    /// trace and metrics attribute work per path).
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

/// Everything a campaign shares across faults: the golden trace, the
/// monitor oracle, and the zones the fault list targets. Immutable after
/// construction; worker threads share it by reference (each worker owns
/// its own kernel).
pub(crate) struct ExecContext {
    pub(crate) trace: Arc<GoldenTrace>,
    pub(crate) oracle: MonitorOracle,
    pub(crate) injected_zones: BTreeSet<ZoneId>,
}

impl ExecContext {
    /// Shares the environment's golden trace (recording it if no consumer
    /// has yet) and builds the monitor oracle for `env`/`faults`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized.
    pub(crate) fn prepare(env: &Environment<'_>, faults: &[Fault]) -> ExecContext {
        ExecContext {
            trace: Arc::clone(env.golden()),
            oracle: MonitorOracle::new(env),
            injected_zones: faults.iter().filter_map(|f| f.zone).collect(),
        }
    }

    /// Approximate resident size in bytes (the artifact cache's eviction
    /// currency): the golden matrix and the monitor oracle.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.trace.matrix_bytes() + self.oracle.approx_bytes()
    }
}

/// The kernel one campaign worker owns, built once and reset between
/// faults or words. Boxed: a worker holds one, and the word kernel's
/// compiled program and event bookkeeping make it several times the
/// scalar simulator's size.
pub(crate) enum Kernels<'a> {
    /// The scalar reference simulator of a lockstep worker.
    Lockstep(Box<Simulator<'a>>),
    /// The word of an accelerated worker.
    Word(Box<WordSim<'a>>),
}

impl<'a> Kernels<'a> {
    /// The kernel of a campaign's first worker: levelizes `netlist` once
    /// for the lockstep or the `accelerated` engine.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized.
    pub(crate) fn new(netlist: &'a Netlist, accelerated: bool) -> Kernels<'a> {
        if accelerated {
            Kernels::Word(Box::new(
                WordSim::new(netlist).expect("levelizable netlist"),
            ))
        } else {
            Kernels::Lockstep(Box::new(
                Simulator::new(netlist).expect("levelizable netlist"),
            ))
        }
    }

    /// Another worker's kernel: the levelization is shared, the dynamic
    /// state is reset by every fault or word anyway.
    pub(crate) fn fork(&self) -> Kernels<'a> {
        match self {
            Kernels::Lockstep(sim) => Kernels::Lockstep(Box::new(sim.clone_fresh())),
            Kernels::Word(word) => Kernels::Word(word.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Engine};
    use crate::env::EnvironmentBuilder;
    use crate::faultlist::{generate_fault_list, FaultKind, FaultListConfig};
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
        for engine in [Engine::Ppsfp, Engine::Auto] {
            let accel = Campaign::new(&env, &faults).engine(engine).run();
            assert_eq!(baseline, accel, "divergence on {engine:?}");
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
                .engine(Engine::Ppsfp)
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
        let accel = Campaign::new(&env, &faults).engine(Engine::Auto).run();
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
        // a late flip: its word skips the long golden prefix, and the
        // (un-enabled, feed-forward) register flushes it out again
        let faults = vec![Fault {
            kind: FaultKind::BitFlip { dff: dffs[1] },
            zone: Some(data.id),
            inject_cycle: 20,
            label: "late flip".into(),
        }];
        let campaign = Campaign::new(&env, &faults).engine(Engine::Ppsfp);
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
