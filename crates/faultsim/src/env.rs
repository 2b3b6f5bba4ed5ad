//! The environment builder: wiring the FMEA into an injection campaign.
//!
//! "Environment builder: this block extracts from the FMEA all the
//! information related to the environment for the injection campaign and
//! builds all the required environment configuration files" (paper §5).

use socfmea_accel::GoldenTrace;
use socfmea_core::{ZoneId, ZoneKind, ZoneSet};
use socfmea_netlist::{Driver, NetId, Netlist};
use socfmea_sim::Workload;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A fully-wired injection environment: design, zones, workload, the
/// three net groups every monitor needs, and — once a consumer asks for it
/// — the workload's golden trace, shared by every later consumer.
#[derive(Debug)]
pub struct Environment<'a> {
    /// The design under test.
    pub netlist: &'a Netlist,
    /// The FMEA zone set (defines injection targets and observation points).
    pub zones: &'a ZoneSet,
    /// The replayable stimulus.
    pub workload: &'a Workload,
    /// Functional primary outputs — a deviation here is a *dangerous*
    /// failure of the safety function.
    pub functional_outputs: Vec<NetId>,
    /// Diagnostic alarm nets — an assertion here is a *detection*.
    pub alarm_nets: Vec<NetId>,
    /// All observation-point nets (zone anchors + outputs), with the owning
    /// zone of each net for effects attribution.
    pub observation_nets: Vec<NetId>,
    /// Maps observation nets back to their zone.
    pub net_zone: BTreeMap<NetId, ZoneId>,
    /// Cycle window `[start, end)` of a software self-test phase: a
    /// functional mismatch first occurring inside it counts as *detected*
    /// (the SW comparison is the diagnostic).
    pub sw_test_window: Option<(usize, usize)>,
    /// The fault-free run of `workload`, recorded on first need.
    golden: OnceLock<Arc<GoldenTrace>>,
}

impl<'a> Environment<'a> {
    /// The zone owning an observation net, if any.
    pub fn zone_of_net(&self, net: NetId) -> Option<ZoneId> {
        self.net_zone.get(&net).copied()
    }

    /// The golden trace of the workload: one fault-free scalar run,
    /// recorded by its first consumer and shared by every later one — the
    /// operational profile, and every campaign prepared over this
    /// environment. It is a pure function of (netlist, workload).
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized (combinational cycle).
    pub(crate) fn golden(&self) -> &Arc<GoldenTrace> {
        self.golden.get_or_init(|| {
            Arc::new(
                GoldenTrace::record(self.netlist, self.workload, 0).expect("levelizable netlist"),
            )
        })
    }

    /// For every net, whether a deviation on it can influence at least one
    /// functional output or alarm net — combinationally or through any
    /// number of flip-flop stages.
    ///
    /// This is the *structural* observability the monitors rely on: a fault
    /// anywhere outside this set can never be seen by the injection
    /// campaign's functional or alarm monitors, no matter the workload.
    /// Computed by a backward walk from the monitored nets across gate
    /// inputs and flip-flop `d`/`enable`/`reset` pins.
    pub fn observable_nets(&self) -> Vec<bool> {
        let mut observable = vec![false; self.netlist.net_count()];
        let mut worklist: Vec<NetId> = Vec::new();
        for &n in self.functional_outputs.iter().chain(&self.alarm_nets) {
            if !observable[n.index()] {
                observable[n.index()] = true;
                worklist.push(n);
            }
        }
        while let Some(n) = worklist.pop() {
            let feeders: Vec<NetId> = match self.netlist.net(n).driver {
                Driver::Gate(g) => self.netlist.gate(g).inputs.clone(),
                Driver::Dff(f) => {
                    let ff = self.netlist.dff(f);
                    let mut v = vec![ff.d];
                    v.extend(ff.enable);
                    v.extend(ff.reset);
                    v
                }
                Driver::Input | Driver::Const(_) | Driver::None => Vec::new(),
            };
            for src in feeders {
                if !observable[src.index()] {
                    observable[src.index()] = true;
                    worklist.push(src);
                }
            }
        }
        observable
    }

    /// Zones with no observation path: none of their anchor nets can reach
    /// a functional output or an alarm net, so no monitor of this
    /// environment can ever witness their failures — a hole in the safety
    /// concept's observability.
    ///
    /// Critical-net zones are excluded: clock roots are implicit in the
    /// cycle-based model (no gate reads them), so the walk cannot see them,
    /// and their supervision (watchdog with separate time base) lives
    /// outside the simulated design anyway.
    pub fn unobservable_zones(&self) -> Vec<ZoneId> {
        let observable = self.observable_nets();
        self.zones
            .zones()
            .iter()
            .filter(|z| !matches!(z.kind, ZoneKind::CriticalNet { .. }))
            .filter(|z| !z.anchors.is_empty() && z.anchors.iter().all(|a| !observable[a.index()]))
            .map(|z| z.id)
            .collect()
    }
}

/// Builds an [`Environment`] from the FMEA artefacts.
///
/// By default every primary output is functional; outputs whose name
/// matches an alarm pattern (set with [`alarms_matching`]) are moved to the
/// alarm group instead — matching how the memory sub-system exposes its
/// `alarm_*` pins.
///
/// [`alarms_matching`]: EnvironmentBuilder::alarms_matching
///
/// # Example
///
/// ```
/// use socfmea_core::extract::{extract_zones, ExtractConfig};
/// use socfmea_faultsim::EnvironmentBuilder;
/// use socfmea_rtl::RtlBuilder;
/// use socfmea_sim::Workload;
///
/// let mut r = RtlBuilder::new("d");
/// let d = r.input_word("d", 2);
/// let q = r.register("q", &d, None, None);
/// let par = r.parity(&q);
/// r.output_word("o", &q);
/// r.output("alarm_parity", par);
/// let nl = r.finish()?;
/// let zones = extract_zones(&nl, &ExtractConfig::default());
/// let w = Workload::new("idle");
/// let env = EnvironmentBuilder::new(&nl, &zones, &w)
///     .alarms_matching("alarm_")
///     .build();
/// assert_eq!(env.alarm_nets.len(), 1);
/// assert_eq!(env.functional_outputs.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EnvironmentBuilder<'a> {
    netlist: &'a Netlist,
    zones: &'a ZoneSet,
    workload: &'a Workload,
    alarm_patterns: Vec<String>,
    extra_alarms: Vec<NetId>,
    sw_test_window: Option<(usize, usize)>,
}

impl<'a> EnvironmentBuilder<'a> {
    /// Starts building an environment over a design, its zones and a
    /// workload.
    pub fn new(
        netlist: &'a Netlist,
        zones: &'a ZoneSet,
        workload: &'a Workload,
    ) -> EnvironmentBuilder<'a> {
        EnvironmentBuilder {
            netlist,
            zones,
            workload,
            alarm_patterns: Vec::new(),
            extra_alarms: Vec::new(),
            sw_test_window: None,
        }
    }

    /// Treats outputs whose name contains `pattern` as diagnostic alarms.
    pub fn alarms_matching(mut self, pattern: impl Into<String>) -> Self {
        self.alarm_patterns.push(pattern.into());
        self
    }

    /// Adds an explicit alarm net.
    pub fn alarm_net(mut self, net: NetId) -> Self {
        self.extra_alarms.push(net);
        self
    }

    /// Declares the cycle window of a software self-test phase; functional
    /// mismatches first seen inside it count as SW-detected.
    pub fn sw_test_window(mut self, window: Option<(usize, usize)>) -> Self {
        self.sw_test_window = window;
        self
    }

    /// Finalises the environment.
    pub fn build(self) -> Environment<'a> {
        let is_alarm = |name: &str| {
            self.alarm_patterns
                .iter()
                .any(|p| name.contains(p.as_str()))
        };
        let mut functional_outputs = Vec::new();
        let mut alarm_nets = self.extra_alarms.clone();
        for &o in self.netlist.outputs() {
            if is_alarm(&self.netlist.net(o).name) {
                alarm_nets.push(o);
            } else {
                functional_outputs.push(o);
            }
        }
        let mut net_zone = BTreeMap::new();
        let mut observation_nets = Vec::new();
        for z in self.zones.zones() {
            // Primary-input zones are stimulus, not observation points.
            if matches!(z.kind, ZoneKind::PrimaryInputGroup { .. }) {
                continue;
            }
            for &a in &z.anchors {
                net_zone.entry(a).or_insert(z.id);
                observation_nets.push(a);
            }
        }
        observation_nets.sort_unstable();
        observation_nets.dedup();
        Environment {
            netlist: self.netlist,
            zones: self.zones,
            workload: self.workload,
            functional_outputs,
            alarm_nets,
            observation_nets,
            net_zone,
            sw_test_window: self.sw_test_window,
            golden: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;

    #[test]
    fn observation_nets_cover_zone_anchors_but_not_inputs() {
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = Workload::new("w");
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        // q anchors + po anchors observed; pi nets not
        let q0 = nl.net_by_name("q[0]").unwrap();
        let d0 = nl.net_by_name("d[0]").unwrap();
        assert!(env.observation_nets.contains(&q0));
        assert!(!env.observation_nets.contains(&d0));
        let q_zone = zones.zone_by_name("q").unwrap().id;
        assert_eq!(env.zone_of_net(q0), Some(q_zone));
    }

    #[test]
    fn explicit_alarm_nets_are_added() {
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        let p = r.parity(&q);
        r.output_word("o", &q);
        r.output("flag", p);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = Workload::new("w");
        let flag = nl.net_by_name("flag").unwrap();
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarm_net(flag)
            .build();
        assert!(env.alarm_nets.contains(&flag));
        // but it stays in functional outputs too unless name-matched: the
        // builder only reroutes name-matched outputs.
        assert!(env.functional_outputs.contains(&flag));
    }

    #[test]
    fn the_golden_trace_is_recorded_once_on_first_need() {
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let d0 = nl.net_by_name("d[0]").unwrap();
        let mut w = Workload::new("w");
        for c in 0..6 {
            w.push_cycle(vec![(d0, socfmea_netlist::Logic::from(c % 2 == 1))]);
        }
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        assert!(env.golden.get().is_none(), "building records nothing");
        let profile = crate::OperationalProfile::collect(&env);
        let recorded = Arc::clone(env.golden.get().expect("the profile records it"));
        assert_eq!(recorded.len(), 6);
        let _ = crate::generate_fault_list(&env, &profile, &Default::default());
        assert!(Arc::ptr_eq(&recorded, env.golden()), "recorded once");
    }

    #[test]
    fn unobservable_zones_finds_registers_cut_off_from_all_monitors() {
        // `seen` reaches the output through a second register stage; `lost`
        // feeds nothing — no monitor can ever witness its failures
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 2);
        let seen = r.register("seen", &d, None, None);
        let stage2 = r.register("stage2", &seen, None, None);
        let _lost = r.register("lost", &d, None, None);
        r.output_word("o", &stage2);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = Workload::new("w");
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let unobservable = env.unobservable_zones();
        let lost = zones.zone_by_name("lost").unwrap().id;
        let seen_id = zones.zone_by_name("seen").unwrap().id;
        assert!(unobservable.contains(&lost), "lost has no path to monitors");
        assert!(
            !unobservable.contains(&seen_id),
            "seen reaches the output across a flip-flop boundary"
        );
        // the input bus feeds `seen` and therefore the output: observable
        let pi = zones.zone_by_name("pi/d").unwrap().id;
        assert!(!unobservable.contains(&pi));
    }

    #[test]
    fn alarm_nets_grant_observability_too() {
        // a register whose only sink is a parity alarm is still observable
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        let p = r.parity(&q);
        r.output("alarm_par", p);
        let o = r.input_word("passthru", 1);
        r.output_word("o", &o);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = Workload::new("w");
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let q_zone = zones.zone_by_name("q").unwrap().id;
        assert!(!env.unobservable_zones().contains(&q_zone));
    }
}
