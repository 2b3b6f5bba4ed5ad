//! The static pre-pass of a pruned campaign: classify every stuck-at
//! fault against the [`TestabilityAnalysis`] and synthesize the outcomes
//! of the proven-undetectable ones so the engines never simulate them.
//!
//! Soundness contract: a synthesized outcome must be bit-identical —
//! outcome class, `first_mismatch`, `alarm_cycle`, `sens_triggered`,
//! `deviated_zones`, all of it — to what any engine would have computed.
//! The two proof kinds guarantee exactly that:
//!
//! * [`Proof::ConstantSite`] — the golden run holds the forced value at
//!   every cycle, so the faulty run *is* the golden run: the all-empty
//!   `NoEffect` (the same outcome the collapse planner derives for quiet
//!   faults). The plan builder additionally cross-checks the claim
//!   against the recorded golden trace and panics on disagreement: a
//!   mismatch means either the static analysis or the simulation engine
//!   is unsound, and silently simulating would hide that.
//! * [`Proof::NoPathToMonitor`] — divergence is trapped inside the
//!   site's fan-out cone, which touches no functional output, alarm or
//!   observation net; only the SENS monitor on the fault's *own* net can
//!   fire, and its target-excitation bit is read straight off the golden
//!   trace (the same formula the collapse planner uses).

use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{FaultOutcome, Outcome};
use socfmea_netlist::{Logic, NetId, Topology};
use socfmea_static::{Proof, TestabilityAnalysis};
use std::collections::BTreeSet;

/// The per-campaign prune plan: which fault indices are answered by a
/// static proof instead of a simulation, and the outcome each one gets.
pub(crate) struct PrunePlan {
    /// `entries[i]` is `Some((proof, sens))` exactly for pruned faults;
    /// `sens` is the SENS target-excitation bit read off the golden trace.
    entries: Vec<Option<(Proof, bool)>>,
}

impl PrunePlan {
    /// Heap bytes of the per-fault proof table.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Option<(Proof, bool)>>()
    }

    /// Classifies `faults` and synthesizes the undetectable ones.
    /// `golden` reads the fault-free value of a fault-targeted net at a
    /// cycle (any engine's recorded golden trace).
    ///
    /// # Panics
    ///
    /// Panics when the golden trace contradicts a constant-site proof —
    /// a hard engine-soundness error, never a recoverable condition.
    pub(crate) fn build(
        env: &Environment<'_>,
        faults: &[Fault],
        golden: impl Fn(usize, NetId) -> Logic,
    ) -> PrunePlan {
        let topo = Topology::build(env.netlist).expect("levelizable netlist");
        let monitored: Vec<NetId> = env
            .functional_outputs
            .iter()
            .chain(&env.alarm_nets)
            .chain(&env.observation_nets)
            .copied()
            .collect();
        let analysis = TestabilityAnalysis::analyze(env.netlist, &topo, &monitored);
        let cycles = env.workload.len();
        let entries = faults
            .iter()
            .map(|fault| {
                let FaultKind::StuckAt { net, value } = fault.kind else {
                    return None;
                };
                if !value.is_known() {
                    return None;
                }
                let proof = analysis.classify_stuck_at(net, value)?;
                let sens = match proof {
                    Proof::ConstantSite { .. } => {
                        // Permanent cross-check oracle: the engines' own
                        // golden trace must agree with the proof at every
                        // cycle, else one of the two is unsound.
                        for cycle in 0..cycles {
                            let g = golden(cycle, net);
                            assert!(
                                g == value,
                                "engine soundness error: net `{}` proven stuck at {value} but \
                                 the golden trace reads {g} at cycle {cycle}",
                                env.netlist.net(net).name,
                            );
                        }
                        false
                    }
                    // The fault's own net deviates from the injection
                    // cycle on wherever golden is known and opposite —
                    // the exact SENS monitor condition (and the exact
                    // `excited` bit of the collapse planner).
                    Proof::NoPathToMonitor { .. } => (fault.inject_cycle..cycles).any(|c| {
                        let g = golden(c, net);
                        g.is_known() && g != value
                    }),
                };
                Some((proof, sens))
            })
            .collect();
        PrunePlan { entries }
    }

    /// The proof pruning fault `index`, if any.
    pub(crate) fn proof(&self, index: usize) -> Option<&Proof> {
        self.entries[index].as_ref().map(|(p, _)| p)
    }

    /// Whether fault `index` is pruned.
    pub(crate) fn pruned(&self, index: usize) -> bool {
        self.entries[index].is_some()
    }

    /// The synthesized outcome of pruned fault `index`.
    ///
    /// # Panics
    ///
    /// Panics if the fault is not pruned.
    pub(crate) fn synthesize(&self, index: usize) -> FaultOutcome {
        let (_, sens) = self.entries[index].expect("synthesize called on an unpruned fault");
        FaultOutcome {
            fault_index: index,
            outcome: Outcome::NoEffect,
            first_mismatch: None,
            alarm_cycle: None,
            sens_triggered: sens,
            deviated_zones: BTreeSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentBuilder;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::Workload;
    use socfmea_static::ProofKind;

    /// A design with a proven-constant output: `z = d AND 0`.
    fn tied_design() -> socfmea_netlist::Netlist {
        let mut r = RtlBuilder::new("tied");
        let d = r.input("d");
        let c0 = r.constant_bit(false);
        let z = r.and2_bit(d, c0);
        r.output("z", z);
        r.output("o", d);
        r.finish().unwrap()
    }

    fn stuck(nl: &socfmea_netlist::Netlist, name: &str, value: Logic) -> Fault {
        Fault {
            kind: FaultKind::StuckAt {
                net: nl.net_by_name(name).unwrap(),
                value,
            },
            zone: None,
            inject_cycle: 0,
            label: format!("stuck {name}-sa{value}"),
        }
    }

    /// The golden-trace cross-check is a permanent soundness oracle: a
    /// golden value contradicting a constant-site proof is a hard error,
    /// never a silent fallback to simulation.
    #[test]
    #[should_panic(expected = "engine soundness error")]
    fn contradicted_constant_proof_is_a_hard_error() {
        let nl = tied_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let mut w = Workload::new("idle");
        let d = nl.net_by_name("d").unwrap();
        w.push_cycle(vec![(d, Logic::Zero)]);
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let faults = vec![stuck(&nl, "z", Logic::Zero)];
        // A lying golden trace: reads 1 where the proof says constant 0.
        PrunePlan::build(&env, &faults, |_, _| Logic::One);
    }

    /// With an honest golden trace the same proof synthesizes the quiet
    /// `NoEffect` outcome without touching a simulator.
    #[test]
    fn constant_site_synthesizes_no_effect() {
        let nl = tied_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let mut w = Workload::new("idle");
        let d = nl.net_by_name("d").unwrap();
        w.push_cycle(vec![(d, Logic::Zero)]);
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let faults = vec![
            stuck(&nl, "z", Logic::Zero),
            stuck(&nl, "z", Logic::One),
            stuck(&nl, "o", Logic::Zero),
        ];
        let plan = PrunePlan::build(&env, &faults, |_, _| Logic::Zero);
        assert!(plan.pruned(0), "z-sa0 is a proven constant site");
        assert_eq!(plan.proof(0).unwrap().kind(), ProofKind::ConstantSite);
        let out = plan.synthesize(0);
        assert_eq!(out.outcome, Outcome::NoEffect);
        assert!(!plan.pruned(1), "z-sa1 actually flips the output");
        assert!(!plan.pruned(2), "o is a live monitored net");
    }
}
