//! The Fault Injection Manager: golden-vs-faulty classification and the
//! scalar (lockstep) reference engine.
//!
//! "Fault Injection Manager: this function runs all the injection campaign
//! based on automatically generated fault lists and collects all the
//! results" (paper §5). Every fault is simulated against the identical
//! workload and compared with the campaign's one golden trace
//! ([`socfmea_accel::GoldenTrace`]) through the shared monitor oracle
//! ([`monitors`](crate::monitors)): deviations are measured at the
//! observation points, detections at the diagnostic alarms, and hazards at
//! the functional outputs. One shared tail turns those readings into the
//! IEC 61508 [`Outcome`] for every engine.

use crate::accel::{cancel_fired, ExecContext, FaultMetrics};
use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::monitors::{CoverageCollection, Readings};
use socfmea_core::ZoneId;
use socfmea_netlist::NetId;
use socfmea_sim::Simulator;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::AtomicBool;

/// Classification of one injection, following the IEC 61508 split the SFF
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The fault never produced any deviation at an observation point or
    /// output (masked / latent) — a safe failure.
    NoEffect,
    /// Deviations occurred internally and/or an alarm fired, but the
    /// functional outputs never deviated (e.g. ECC corrected the error) —
    /// a safe failure, detected.
    SafeDetected,
    /// The functional outputs deviated and a diagnostic alarm fired —
    /// dangerous detected (λ_DD).
    DangerousDetected,
    /// The functional outputs deviated with no alarm — dangerous undetected
    /// (λ_DU), the SFF killer.
    DangerousUndetected,
}

impl Outcome {
    /// True for the two safe outcomes.
    pub fn is_safe(self) -> bool {
        matches!(self, Outcome::NoEffect | Outcome::SafeDetected)
    }

    /// True for the two dangerous outcomes.
    pub fn is_dangerous(self) -> bool {
        !self.is_safe()
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::NoEffect => "no-effect",
            Outcome::SafeDetected => "safe-detected",
            Outcome::DangerousDetected => "dangerous-detected",
            Outcome::DangerousUndetected => "dangerous-UNDETECTED",
        })
    }
}

/// The measured result of one injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Index into the campaign's fault list.
    pub fault_index: usize,
    /// Classification.
    pub outcome: Outcome,
    /// First cycle with a functional-output mismatch.
    pub first_mismatch: Option<usize>,
    /// First cycle with an alarm assertion (faulty asserts, golden does
    /// not).
    pub alarm_cycle: Option<usize>,
    /// Whether the injected zone's own anchors deviated (the SENS monitor).
    pub sens_triggered: bool,
    /// Zones whose anchors deviated — the raw table-of-effects entry.
    pub deviated_zones: BTreeSet<ZoneId>,
}

/// A complete campaign: per-fault outcomes plus coverage bookkeeping.
///
/// `CampaignResult` is `Eq` and intentionally carries no timing data: the
/// result of a [`Campaign`](crate::campaign::Campaign) is bit-identical for
/// any thread count, and tests assert that with plain `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// One entry per fault, in fault-list order.
    pub outcomes: Vec<FaultOutcome>,
    /// SENS/OBSE/DIAG coverage collection.
    pub coverage: CoverageCollection,
}

impl CampaignResult {
    /// Counts per outcome class: `(no_effect, safe_detected, dd, du)`.
    pub fn outcome_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for o in &self.outcomes {
            match o.outcome {
                Outcome::NoEffect => c.0 += 1,
                Outcome::SafeDetected => c.1 += 1,
                Outcome::DangerousDetected => c.2 += 1,
                Outcome::DangerousUndetected => c.3 += 1,
            }
        }
        c
    }

    /// The campaign-level diagnostic coverage: DD / (DD + DU).
    pub fn measured_dc(&self) -> Option<f64> {
        let (_, _, dd, du) = self.outcome_counts();
        if dd + du == 0 {
            return None;
        }
        Some(dd as f64 / (dd + du) as f64)
    }

    /// The campaign-level safe failure fraction: (safe + DD) / total.
    pub fn measured_sff(&self) -> Option<f64> {
        let (ne, sd, dd, du) = self.outcome_counts();
        let total = ne + sd + dd + du;
        if total == 0 {
            return None;
        }
        Some((ne + sd + dd) as f64 / total as f64)
    }
}

/// The net a fault physically disturbs (used by the SENS monitor to decide
/// whether the injection actually changed anything).
pub(crate) fn target_net(fault: &Fault) -> Option<NetId> {
    match &fault.kind {
        FaultKind::StuckAt { net, .. } | FaultKind::Glitch { net, .. } => Some(*net),
        FaultKind::Bridge { victim, .. } => Some(*victim),
        FaultKind::BitFlip { .. } | FaultKind::ClockStuck { .. } => None,
    }
}

pub(crate) fn apply_fault(sim: &mut Simulator<'_>, fault: &Fault) -> Option<usize> {
    // returns remaining clock-suppression cycles if any
    match &fault.kind {
        FaultKind::BitFlip { dff } => {
            sim.flip_ff(*dff);
            None
        }
        FaultKind::StuckAt { net, value } => {
            sim.force(*net, *value);
            None
        }
        FaultKind::Glitch { net, value } => {
            sim.pulse(*net, *value);
            None
        }
        FaultKind::Bridge {
            aggressor,
            victim,
            kind,
        } => {
            sim.add_bridge(*aggressor, *victim, *kind);
            None
        }
        FaultKind::ClockStuck { cycles } => {
            sim.suppress_clock(true);
            Some(*cycles)
        }
    }
}

/// Runs one fault on the scalar simulator against the campaign's golden
/// trace and classifies it. Two engine paths share this loop:
///
/// * **Lockstep** (`warm == false`), the reference engine: `sim` is reset
///   to power-on and the whole workload is simulated and observed.
/// * **Warm start** (`warm == true`; bridges and clock outages on the
///   sparse engine, which change evaluation semantics globally): `sim`
///   restores the nearest checkpoint at or before the activation cycle,
///   skips the monitors on the (provably golden) warm-up prefix, and exits
///   early once the fault has washed out and the flip-flop state matches
///   golden again.
///
/// `sim` is reused across calls: a campaign worker pays the levelization
/// cost once (via [`Simulator::clone_fresh`]). The result is a pure
/// function of `(env, ctx, fault)` — it does not depend on what the
/// simulator ran before, which is what makes sharded campaigns
/// bit-identical to serial ones. Kept out of line for the same reason as
/// the sparse path: the per-cycle loop compiles worse inlined into the
/// campaign loop.
#[inline(never)]
pub(crate) fn simulate_scalar(
    env: &Environment<'_>,
    ctx: &ExecContext,
    sim: &mut Simulator<'_>,
    fault_index: usize,
    fault: &Fault,
    warm: bool,
    cancel: Option<&AtomicBool>,
) -> (FaultOutcome, FaultMetrics) {
    let len = env.workload.len();
    let inject = fault.inject_cycle;
    let mut readings = Readings::new(fault);
    let start = if !warm {
        sim.reset_to_power_on();
        0
    } else if inject < len {
        let cp = ctx
            .trace
            .checkpoint_at_or_before(inject)
            .expect("non-empty trace has a cycle-0 checkpoint");
        // Restoring overwrites all dynamic state, so a reused worker
        // simulator needs no reset first.
        sim.restore(cp);
        cp.cycle() as usize
    } else {
        len // never activates: the whole run is golden
    };
    let observe_from = if warm { inject } else { 0 };
    let mut metrics = FaultMetrics {
        simulated: 0,
        skipped: start as u64,
        engine: if warm { "warm" } else { "lockstep" },
    };
    let mut clock_off: Option<usize> = None;

    for cycle in start..len {
        if cancel_fired(cancel) {
            break;
        }
        for &(n, v) in env.workload.cycle(cycle) {
            sim.set(n, v);
        }
        if cycle == inject {
            clock_off = apply_fault(sim, fault);
        }
        if clock_off == Some(0) {
            sim.suppress_clock(false);
            clock_off = None;
        }
        sim.eval();
        metrics.simulated += 1;
        if cycle >= observe_from {
            ctx.oracle
                .observe_values(&mut readings, cycle, ctx.trace.row(cycle), sim.values());
        }
        sim.tick();
        if let Some(remaining) = clock_off.as_mut() {
            *remaining = remaining.saturating_sub(1);
        }
        // Warm-start early exit: once no fault hook is active and the
        // stored flip-flop state equals golden (the q value entering the
        // next cycle), the rest of the run is cycle-for-cycle golden and
        // can fire no monitor.
        if warm
            && cycle >= inject
            && cycle + 1 < len
            && clock_off.is_none()
            && !sim.has_active_faults()
        {
            let ff_state = sim.ff_states();
            let back_in_step = sim
                .netlist()
                .dffs()
                .iter()
                .enumerate()
                .all(|(i, ff)| ff_state[i] == ctx.trace.value(cycle + 1, ff.q));
            if back_in_step {
                metrics.skipped += (len - (cycle + 1)) as u64;
                break;
            }
        }
    }

    (finalize_outcome(env, fault, fault_index, readings), metrics)
}

/// Turns a fault's monitor [`Readings`] into a classified
/// [`FaultOutcome`] — the shared tail of every engine path, so all apply
/// identical SENS adjustments and SW-test classification.
pub(crate) fn finalize_outcome(
    env: &Environment<'_>,
    fault: &Fault,
    fault_index: usize,
    readings: Readings,
) -> FaultOutcome {
    let Readings {
        first_mismatch,
        alarm_cycle,
        mut sens_triggered,
        mut deviated_zones,
        ..
    } = readings;
    // A bit flip or clock outage is itself the zone failure: count the
    // physical act as SENS even if the anchor comparison missed it.
    if matches!(
        fault.kind,
        FaultKind::BitFlip { .. } | FaultKind::ClockStuck { .. }
    ) {
        sens_triggered = true;
        if let Some(z) = fault.zone {
            deviated_zones.insert(z);
        }
    }

    let sw_detected = match (first_mismatch, env.sw_test_window) {
        (Some(m), Some((start, end))) => m >= start && m < end,
        _ => false,
    };
    let outcome = match (first_mismatch, alarm_cycle) {
        // an internal deviation that never reaches an output is safe
        (None, None) => Outcome::NoEffect,
        (None, Some(_)) => Outcome::SafeDetected,
        (Some(_), Some(_)) => Outcome::DangerousDetected,
        // no HW alarm, but the SW self-test comparison saw the mismatch
        (Some(_), None) if sw_detected => Outcome::DangerousDetected,
        (Some(_), None) => Outcome::DangerousUndetected,
    };

    FaultOutcome {
        fault_index,
        outcome,
        first_mismatch,
        alarm_cycle,
        sens_triggered,
        deviated_zones,
    }
}

/// Convenience: the functional outputs of a netlist as a probe list
/// (helper for examples).
pub fn output_nets(env: &Environment<'_>) -> Vec<NetId> {
    env.functional_outputs.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::env::EnvironmentBuilder;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_netlist::Logic;
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Workload};

    /// The outcome of a one-fault campaign.
    fn outcome_of(env: &Environment<'_>, fault: Fault) -> FaultOutcome {
        let mut result = Campaign::new(env, std::slice::from_ref(&fault)).run();
        result.outcomes.remove(0)
    }

    /// A 4-bit register with parity protection: data flows d -> reg -> out;
    /// a parity bit is stored alongside and checked at readout, raising
    /// `alarm_parity` on mismatch.
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

    fn env_of<'a>(
        nl: &'a socfmea_netlist::Netlist,
        zones: &'a socfmea_core::ZoneSet,
        w: &'a Workload,
    ) -> Environment<'a> {
        EnvironmentBuilder::new(nl, zones, w)
            .alarms_matching("alarm_")
            .build()
    }

    #[test]
    fn bitflip_in_protected_register_is_dangerous_detected() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = env_of(&nl, &zones, &w);
        let data = zones.zone_by_name("regs/data").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs } = &data.kind else {
            panic!("register zone expected");
        };
        let fo = outcome_of(
            &env,
            Fault {
                kind: FaultKind::BitFlip { dff: dffs[0] },
                zone: Some(data.id),
                inject_cycle: 3,
                label: "test".into(),
            },
        );
        // the flipped data bit reaches the output (dangerous) and the parity
        // alarm fires (detected)
        assert_eq!(fo.outcome, Outcome::DangerousDetected);
        assert!(fo.sens_triggered);
        assert!(fo.alarm_cycle.is_some());
        assert_eq!(fo.alarm_cycle, fo.first_mismatch);
    }

    #[test]
    fn glitch_masked_by_following_logic_is_no_effect() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = env_of(&nl, &zones, &w);
        // glitch a net to the value it already holds: cycle 0 drives d=0,
        // so forcing d-path XOR output low changes nothing
        let d0 = nl.net_by_name("d[0]").unwrap();
        let _ = d0;
        // glitch the parity-in cone at a cycle where it matches
        let net = nl.net_by_name("data[0]").unwrap();
        let fo = outcome_of(
            &env,
            Fault {
                kind: FaultKind::Glitch {
                    net,
                    value: Logic::Zero, // data[0] is 0 at cycle 1 (d=0 at cycle 0)
                },
                zone: zones.zone_by_name("regs/data").map(|z| z.id),
                inject_cycle: 1,
                label: "masked glitch".into(),
            },
        );
        assert_eq!(fo.outcome, Outcome::NoEffect);
    }

    #[test]
    fn stuck_alarm_high_is_safe_detected() {
        // A stuck-at-1 on the parity flag path fires the alarm with no
        // functional mismatch.
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = env_of(&nl, &zones, &w);
        let perr = nl.net_by_name("alarm_parity").unwrap();
        let fo = outcome_of(
            &env,
            Fault {
                kind: FaultKind::StuckAt {
                    net: perr,
                    value: Logic::One,
                },
                zone: None,
                inject_cycle: 0,
                label: "alarm stuck".into(),
            },
        );
        assert_eq!(fo.outcome, Outcome::SafeDetected);
    }

    #[test]
    fn unprotected_register_bitflip_is_dangerous_undetected() {
        // strip the alarm: treat it as functional? Instead build a design
        // without parity.
        let mut r = RtlBuilder::new("unprot");
        let d = r.input_word("d", 4);
        let q = r.register("data", &d, None, None);
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let data = zones.zone_by_name("data").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs } = &data.kind else {
            panic!();
        };
        let fo = outcome_of(
            &env,
            Fault {
                kind: FaultKind::BitFlip { dff: dffs[2] },
                zone: Some(data.id),
                inject_cycle: 4,
                label: "unprotected flip".into(),
            },
        );
        assert_eq!(fo.outcome, Outcome::DangerousUndetected);
        // the output zone shows up in the table of effects
        let po = zones.zone_by_name("po/o").unwrap().id;
        assert!(fo.deviated_zones.contains(&po));
    }

    #[test]
    fn campaign_aggregates_match_outcomes() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 10);
        let env = env_of(&nl, &zones, &w);
        let data = zones.zone_by_name("regs/data").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs } = &data.kind else {
            panic!();
        };
        let faults: Vec<Fault> = dffs
            .iter()
            .map(|&dff| Fault {
                kind: FaultKind::BitFlip { dff },
                zone: Some(data.id),
                inject_cycle: 2,
                label: "flip".into(),
            })
            .collect();
        let result = Campaign::new(&env, &faults).run();
        assert_eq!(result.outcomes.len(), 4);
        let (ne, sd, dd, du) = result.outcome_counts();
        assert_eq!(ne + sd + dd + du, 4);
        // parity detects every single-bit data flip
        assert_eq!(dd, 4);
        assert_eq!(result.measured_dc(), Some(1.0));
        assert_eq!(result.measured_sff(), Some(1.0));
    }

    #[test]
    fn clock_stuck_freezes_and_usually_disturbs() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = env_of(&nl, &zones, &w);
        let fo = outcome_of(
            &env,
            Fault {
                kind: FaultKind::ClockStuck { cycles: 2 },
                zone: zones.zone_by_name("critnet/clk").map(|z| z.id),
                inject_cycle: 3,
                label: "clock outage".into(),
            },
        );
        // freezing the register while inputs advance corrupts the stream:
        // outputs deviate from golden
        assert!(fo.first_mismatch.is_some());
    }
}
