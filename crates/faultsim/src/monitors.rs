//! SENS / OBSE / DIAG monitors and coverage collection.
//!
//! "In this context, coverage means a measure of the completeness of the
//! fault injection experiment. It is measured how many times a fault
//! injection (SENS) is triggered by an injection, how many changes occurred
//! on the observation points (OBSE), how many mismatches occurred between
//! faulty and golden DUT, how many times the diagnostic point (DIAG) changed
//! and so forth. Only when all the coverage items are covered at 100% we can
//! consider complete the fault injection experiment" (paper §5).
//!
//! Every engine observes its faults through one `MonitorOracle`, built
//! once per campaign: the lockstep engine feeds it one lane per fault, and
//! PPSFP feeds it the per-lane masks of a whole word — only the lanes it
//! has not reported for a net before. The per-fault readings it fills are classified by one
//! shared tail, so every engine reaches the same
//! [`FaultOutcome`](crate::FaultOutcome) for the same fault.

use crate::env::Environment;
use crate::faultlist::Fault;
use crate::inject::target_net;
use socfmea_core::ZoneId;
use socfmea_netlist::{Logic, NetId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The monitor roles of one net. A net may hold several: an alarm that is
/// also a zone anchor, an output that is also an observation point.
#[derive(Debug, Clone, Copy, Default)]
struct Role {
    /// OBSE: the zone whose observation point this net is.
    zone: Option<ZoneId>,
    /// A functional output: a deviation is a dangerous failure.
    output: bool,
    /// A diagnostic alarm: an assertion is a detection.
    alarm: bool,
}

/// The SENS/OBSE/output/alarm monitors of an environment, shared by every
/// engine. Built once per campaign artifact; immutable afterwards.
///
/// Engines report each `(cycle, net)` as two lane masks — bit `i` is lane
/// `i` of the [`Readings`] slice they pass — and [`observe`](Self::observe)
/// turns them into monitor events.
#[derive(Debug)]
pub(crate) struct MonitorOracle {
    /// Role of every net, indexed by [`NetId::index`].
    roles: Vec<Role>,
    /// Every net with at least one role, ascending.
    monitored: Vec<NetId>,
}

/// What the monitors saw of one fault so far.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Readings {
    /// The net the fault physically disturbs (SENS), if it has one.
    target: Option<NetId>,
    /// The zone the fault was injected into.
    zone: Option<ZoneId>,
    /// First cycle with a functional-output mismatch.
    pub(crate) first_mismatch: Option<usize>,
    /// First cycle with a new alarm assertion.
    pub(crate) alarm_cycle: Option<usize>,
    /// Whether the target net or the injected zone's anchors deviated.
    pub(crate) sens_triggered: bool,
    /// Zones whose observation points deviated.
    pub(crate) deviated_zones: BTreeSet<ZoneId>,
}

impl Readings {
    /// Empty readings for `fault`.
    pub(crate) fn new(fault: &Fault) -> Readings {
        Readings {
            target: target_net(fault),
            zone: fault.zone,
            first_mismatch: None,
            alarm_cycle: None,
            sens_triggered: false,
            deviated_zones: BTreeSet::new(),
        }
    }
}

impl MonitorOracle {
    /// The role table of `env`'s observation points, functional outputs
    /// and alarms.
    pub(crate) fn new(env: &Environment<'_>) -> MonitorOracle {
        let mut roles = vec![Role::default(); env.netlist.net_count()];
        for &net in &env.observation_nets {
            roles[net.index()].zone = env.zone_of_net(net);
        }
        for &net in &env.functional_outputs {
            roles[net.index()].output = true;
        }
        for &net in &env.alarm_nets {
            roles[net.index()].alarm = true;
        }
        let monitored = (0..roles.len())
            .filter(|&i| {
                let r = roles[i];
                r.zone.is_some() || r.output || r.alarm
            })
            .map(NetId::from_index)
            .collect();
        MonitorOracle { roles, monitored }
    }

    /// Every net with a monitor role, ascending.
    pub(crate) fn monitored(&self) -> &[NetId] {
        &self.monitored
    }

    /// Approximate resident size in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.roles.len() * std::mem::size_of::<Role>()
            + self.monitored.len() * std::mem::size_of::<NetId>()
    }

    /// Records what `net` shows at `cycle`. `diverged` holds the lanes
    /// whose value differs from a *known* golden value; `asserted` holds
    /// the lanes at `1` where golden is not `1`. Bit `i` of each mask is
    /// `lanes[i]`.
    ///
    /// This is the only place golden-vs-faulty values become SENS, OBSE,
    /// output and alarm observations. Calls are idempotent and
    /// order-independent within a cycle, and idempotent across cycles too:
    /// once `(net, lane)` has been reported diverged (or asserted), a
    /// report at any later cycle leaves the readings unchanged, because
    /// every reading is a flag (SENS), a set insert (the deviated zones) or
    /// keeps only its first cycle (the first mismatch, the first alarm). A
    /// caller may therefore pass only the lanes it has not reported for
    /// `net` before, as the PPSFP word scan does.
    #[inline]
    pub(crate) fn observe(
        &self,
        lanes: &mut [Readings],
        cycle: usize,
        net: NetId,
        diverged: u64,
        asserted: u64,
    ) {
        if diverged | asserted == 0 {
            return;
        }
        let role = self.roles[net.index()];
        let mut hit = diverged;
        while hit != 0 {
            let lane = &mut lanes[hit.trailing_zeros() as usize];
            hit &= hit - 1;
            if lane.target == Some(net) {
                lane.sens_triggered = true;
            }
            if let Some(zone) = role.zone {
                lane.deviated_zones.insert(zone);
                if lane.zone == Some(zone) {
                    lane.sens_triggered = true;
                }
            }
            if role.output && lane.first_mismatch.is_none() {
                lane.first_mismatch = Some(cycle);
            }
        }
        if role.alarm {
            let mut firing = asserted;
            while firing != 0 {
                let lane = &mut lanes[firing.trailing_zeros() as usize];
                firing &= firing - 1;
                lane.alarm_cycle.get_or_insert(cycle);
            }
        }
    }

    /// Records one fully evaluated scalar cycle: every monitored net and
    /// the fault's target, compared between the `golden` and `faulty` net
    /// values (both indexed by [`NetId::index`]).
    pub(crate) fn observe_values(
        &self,
        readings: &mut Readings,
        cycle: usize,
        golden: &[Logic],
        faulty: &[Logic],
    ) {
        for net in self.monitored.iter().copied().chain(readings.target) {
            let (g, f) = (golden[net.index()], faulty[net.index()]);
            let diverged = g.is_known() && f != g;
            let asserted = f == Logic::One && g != Logic::One;
            self.observe(
                std::slice::from_mut(readings),
                cycle,
                net,
                diverged as u64,
                asserted as u64,
            );
        }
    }
}

/// Per-zone and campaign-wide coverage items of the injection experiment.
///
/// `Eq` so campaign results can be compared whole: a sharded campaign must
/// produce exactly the coverage its serial twin does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageCollection {
    /// Zones faults were scheduled into.
    targeted: BTreeSet<ZoneId>,
    /// SENS: zones whose own failure was actually triggered at least once.
    sens: BTreeSet<ZoneId>,
    /// OBSE: zones observed deviating (as observation points) at least once.
    obse: BTreeSet<ZoneId>,
    /// DIAG: number of injections for which an alarm changed.
    diag_events: usize,
    /// Number of injections with a golden/faulty output mismatch.
    mismatch_events: usize,
    /// Total injections recorded.
    injections: usize,
    /// SENS trigger counts per zone.
    sens_counts: BTreeMap<ZoneId, usize>,
}

impl CoverageCollection {
    /// Prepares collection for the set of targeted zones.
    pub fn new(targeted: impl IntoIterator<Item = ZoneId>) -> CoverageCollection {
        CoverageCollection {
            targeted: targeted.into_iter().collect(),
            ..CoverageCollection::default()
        }
    }

    /// Records one injection's monitor readings.
    pub fn record(
        &mut self,
        zone: Option<ZoneId>,
        sens_triggered: bool,
        deviated_zones: &BTreeSet<ZoneId>,
        alarm_cycle: Option<usize>,
        first_mismatch: Option<usize>,
    ) {
        self.injections += 1;
        if let Some(z) = zone {
            if sens_triggered {
                self.sens.insert(z);
                *self.sens_counts.entry(z).or_insert(0) += 1;
            }
        }
        self.obse.extend(deviated_zones.iter().copied());
        if alarm_cycle.is_some() {
            self.diag_events += 1;
        }
        if first_mismatch.is_some() {
            self.mismatch_events += 1;
        }
    }

    /// SENS coverage: fraction of targeted zones whose failure was
    /// triggered at least once.
    pub fn sens_coverage(&self) -> f64 {
        if self.targeted.is_empty() {
            return 1.0;
        }
        self.sens.intersection(&self.targeted).count() as f64 / self.targeted.len() as f64
    }

    /// Targeted zones never triggered (holes in the experiment).
    pub fn sens_holes(&self) -> Vec<ZoneId> {
        self.targeted.difference(&self.sens).copied().collect()
    }

    /// Number of distinct zones observed deviating.
    pub fn obse_zones(&self) -> usize {
        self.obse.len()
    }

    /// Number of injections that fired an alarm.
    pub fn diag_events(&self) -> usize {
        self.diag_events
    }

    /// Number of injections with output mismatches.
    pub fn mismatch_events(&self) -> usize {
        self.mismatch_events
    }

    /// Total injections recorded.
    pub fn injections(&self) -> usize {
        self.injections
    }

    /// The paper's completeness criterion: every targeted zone triggered
    /// (SENS at 100 %), at least one observation change, and — when the
    /// design has diagnostics — at least one DIAG event.
    pub fn is_complete(&self, expect_diagnostics: bool) -> bool {
        self.sens_coverage() >= 1.0
            && (!self.obse.is_empty() || self.targeted.is_empty())
            && (!expect_diagnostics || self.diag_events > 0)
    }

    /// SENS trigger count of one zone.
    pub fn sens_count(&self, zone: ZoneId) -> usize {
        self.sens_counts.get(&zone).copied().unwrap_or(0)
    }
}

impl fmt::Display for CoverageCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coverage: SENS {:.0}% ({} of {} zones), OBSE {} zones, DIAG {} events, mismatches {}, injections {}",
            self.sens_coverage() * 100.0,
            self.sens.intersection(&self.targeted).count(),
            self.targeted.len(),
            self.obse.len(),
            self.diag_events,
            self.mismatch_events,
            self.injections
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentBuilder;
    use crate::faultlist::FaultKind;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::Workload;

    #[test]
    fn a_repeated_report_at_a_later_cycle_changes_no_reading() {
        // a register zone observed at its outputs, and a parity alarm
        let mut r = RtlBuilder::new("obs");
        let d = r.input_word("d", 2);
        let q = r.register("data", &d, None, None);
        let perr = r.xor2_bit(q.bit(0), q.bit(1));
        r.output_word("o", &q);
        r.output("alarm_par", perr);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = Workload::new("idle");
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let oracle = MonitorOracle::new(&env);
        let (out, alarm) = (env.functional_outputs[0], env.alarm_nets[0]);
        let zone = env.zone_of_net(out);
        assert!(zone.is_some(), "the output is an observation point");
        let fault = Fault {
            kind: FaultKind::StuckAt {
                net: out,
                value: Logic::One,
            },
            zone,
            inject_cycle: 0,
            label: "out-sa1".into(),
        };
        let mut lanes = vec![Readings::new(&fault), Readings::new(&fault)];
        // cycle 3: lane 0 diverges at the output, lane 1 asserts the alarm
        oracle.observe(&mut lanes, 3, out, 0b01, 0b01);
        oracle.observe(&mut lanes, 3, alarm, 0, 0b10);
        let first = lanes.clone();
        assert_eq!(first[0].first_mismatch, Some(3));
        assert!(first[0].sens_triggered && !first[0].deviated_zones.is_empty());
        assert_eq!(first[1].alarm_cycle, Some(3));
        // the same (net, lane) reports at later cycles change nothing
        for cycle in [4, 9] {
            oracle.observe(&mut lanes, cycle, out, 0b01, 0b01);
            oracle.observe(&mut lanes, cycle, alarm, 0, 0b10);
            assert_eq!(lanes, first, "cycle {cycle}");
        }
    }

    fn zones(ids: &[u32]) -> BTreeSet<ZoneId> {
        ids.iter().map(|&i| ZoneId(i)).collect()
    }

    #[test]
    fn complete_when_all_targets_triggered() {
        let mut c = CoverageCollection::new([ZoneId(0), ZoneId(1)]);
        c.record(Some(ZoneId(0)), true, &zones(&[0, 2]), Some(3), Some(3));
        assert!(!c.is_complete(true));
        assert_eq!(c.sens_holes(), vec![ZoneId(1)]);
        c.record(Some(ZoneId(1)), true, &zones(&[1]), None, None);
        assert!(c.is_complete(true));
        assert_eq!(c.sens_coverage(), 1.0);
        assert_eq!(c.obse_zones(), 3);
        assert_eq!(c.diag_events(), 1);
        assert_eq!(c.mismatch_events(), 1);
        assert_eq!(c.injections(), 2);
        assert_eq!(c.sens_count(ZoneId(0)), 1);
        assert_eq!(c.sens_count(ZoneId(7)), 0);
    }

    #[test]
    fn diagnostics_expectation_gates_completeness() {
        let mut c = CoverageCollection::new([ZoneId(0)]);
        c.record(Some(ZoneId(0)), true, &zones(&[0]), None, None);
        assert!(c.is_complete(false));
        assert!(!c.is_complete(true));
    }

    #[test]
    fn untriggered_injections_leave_holes() {
        let mut c = CoverageCollection::new([ZoneId(0)]);
        c.record(Some(ZoneId(0)), false, &BTreeSet::new(), None, None);
        assert_eq!(c.sens_coverage(), 0.0);
        assert!(!c.is_complete(false));
        assert!(c.to_string().contains("SENS 0%"));
    }

    #[test]
    fn empty_target_set_is_trivially_covered() {
        let c = CoverageCollection::new([]);
        assert_eq!(c.sens_coverage(), 1.0);
        assert!(c.is_complete(false));
    }
}
