//! The Operational Profiler.
//!
//! "An Operational Profile (OP) is a collection of information about all
//! relevant fault-free system activities ... The purpose of the OP is to
//! better understand the situation in which the system or the application
//! will be used, and then analyze this information to ensure that only
//! faults which will produce an error are selected during the fault list
//! generation process" (paper §5).

use crate::env::Environment;
use socfmea_core::{FreqClass, ZoneId};
use socfmea_netlist::Logic;

/// Fault-free activity statistics of one zone.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ZoneActivity {
    /// Cycles in which at least one anchor net of the zone changed value.
    pub active_cycles: u64,
    /// Total observed cycles.
    pub total_cycles: u64,
    /// Cycles in which the zone held a fully-known (non-X) value.
    pub known_cycles: u64,
}

impl ZoneActivity {
    /// The activity fraction (0..=1).
    pub fn activity(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.active_cycles as f64 / self.total_cycles as f64
    }

    /// The measured frequency class, the validation counterpart of the
    /// worksheet's F factor.
    pub fn measured_freq_class(&self) -> FreqClass {
        let a = self.activity();
        if a < 0.075 {
            FreqClass::VeryLow
        } else if a < 0.25 {
            FreqClass::Low
        } else if a < 0.50 {
            FreqClass::Medium
        } else if a < 0.80 {
            FreqClass::High
        } else {
            FreqClass::VeryHigh
        }
    }
}

/// The operational profile of a workload over a zoned design.
#[derive(Debug, Clone)]
pub struct OperationalProfile {
    /// Per-zone activity, indexable by [`ZoneId::index`].
    pub zones: Vec<ZoneActivity>,
    /// Length of the profiled workload in cycles.
    pub cycles: u64,
}

impl OperationalProfile {
    /// Collects per-zone activity from the environment's golden trace (the
    /// fault-free workload run, recorded here if no consumer has recorded
    /// it yet). A zone is active in a cycle when an anchor net holds a
    /// known value that differs from its known value one cycle earlier.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized (combinational cycle) —
    /// construction of the netlist already prevents this.
    pub fn collect(env: &Environment<'_>) -> OperationalProfile {
        let golden = env.golden();
        let mut zones = vec![ZoneActivity::default(); env.zones.len()];
        let mut prev: Option<&[Logic]> = None;
        for row in golden.rows() {
            for (a, zone) in zones.iter_mut().zip(env.zones.zones()) {
                let anchors = zone.anchors.iter().map(|n| n.index());
                a.total_cycles += 1;
                if anchors.clone().all(|n| row[n].is_known()) {
                    a.known_cycles += 1;
                }
                let changed = prev.is_some_and(|prev| {
                    anchors
                        .clone()
                        .any(|n| row[n] != prev[n] && row[n].is_known() && prev[n].is_known())
                });
                if changed {
                    a.active_cycles += 1;
                }
            }
            prev = Some(row);
        }
        OperationalProfile {
            zones,
            cycles: env.workload.len() as u64,
        }
    }

    /// Activity of one zone.
    pub fn activity(&self, zone: ZoneId) -> &ZoneActivity {
        &self.zones[zone.index()]
    }

    /// Zones the workload never exercises — injecting into them yields only
    /// trivial no-effect results, so the fault-list generator skips them
    /// (and the workload-completeness check reports them).
    pub fn inactive_zones(&self) -> Vec<ZoneId> {
        self.zones
            .iter()
            .enumerate()
            .filter(|(_, a)| a.active_cycles == 0)
            .map(|(i, _)| ZoneId::from_index(i))
            .collect()
    }

    /// Fraction of zones with any activity — a completeness measure of the
    /// workload at zone granularity.
    pub fn zone_coverage(&self) -> f64 {
        if self.zones.is_empty() {
            return 1.0;
        }
        1.0 - self.inactive_zones().len() as f64 / self.zones.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentBuilder;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Workload};

    #[test]
    fn profile_distinguishes_active_and_idle_zones() {
        let mut r = RtlBuilder::new("p");
        let d = r.input_word("d", 2);
        let live = r.register("live", &d, None, None);
        let zero = r.const_word(0, 2);
        let dead = r.register("dead", &zero, None, None);
        let merged = r.or(&live, &dead);
        r.output_word("o", &merged);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());

        let d_nets: Vec<_> = (0..2)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("toggle");
        for cycle in 0..8u64 {
            let mut c = Vec::new();
            assign_bus(&mut c, &d_nets, cycle % 4);
            w.push_cycle(c);
        }
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let profile = OperationalProfile::collect(&env);

        let live_id = zones.zone_by_name("live").unwrap().id;
        let dead_id = zones.zone_by_name("dead").unwrap().id;
        assert!(profile.activity(live_id).activity() > 0.3);
        assert_eq!(profile.activity(dead_id).active_cycles, 0);
        assert!(profile.inactive_zones().contains(&dead_id));
        assert!(profile.zone_coverage() < 1.0);
        assert_eq!(profile.cycles, 8);
    }

    #[test]
    fn measured_freq_class_bands() {
        let mk = |active, total| ZoneActivity {
            active_cycles: active,
            total_cycles: total,
            known_cycles: total,
        };
        assert_eq!(mk(0, 100).measured_freq_class(), FreqClass::VeryLow);
        assert_eq!(mk(10, 100).measured_freq_class(), FreqClass::Low);
        assert_eq!(mk(40, 100).measured_freq_class(), FreqClass::Medium);
        assert_eq!(mk(70, 100).measured_freq_class(), FreqClass::High);
        assert_eq!(mk(95, 100).measured_freq_class(), FreqClass::VeryHigh);
        assert_eq!(ZoneActivity::default().activity(), 0.0);
    }

    #[test]
    fn measured_freq_class_band_boundaries_are_half_open() {
        // Each band is [lo, hi): activity exactly at a threshold belongs to
        // the *upper* class. The fractions n/1000 and the threshold
        // literals round to the same doubles, so the comparisons are exact.
        let mk = |active| ZoneActivity {
            active_cycles: active,
            total_cycles: 1000,
            known_cycles: 1000,
        };
        assert_eq!(mk(74).measured_freq_class(), FreqClass::VeryLow);
        assert_eq!(mk(75).measured_freq_class(), FreqClass::Low);
        assert_eq!(mk(249).measured_freq_class(), FreqClass::Low);
        assert_eq!(mk(250).measured_freq_class(), FreqClass::Medium);
        assert_eq!(mk(499).measured_freq_class(), FreqClass::Medium);
        assert_eq!(mk(500).measured_freq_class(), FreqClass::High);
        assert_eq!(mk(799).measured_freq_class(), FreqClass::High);
        assert_eq!(mk(800).measured_freq_class(), FreqClass::VeryHigh);
    }

    #[test]
    fn empty_profile_guards_its_zero_denominators() {
        // A design with no zones has nothing uncovered: coverage is the
        // identity 1.0, not a 0/0 NaN, and there are no inactive zones.
        let profile = OperationalProfile {
            zones: Vec::new(),
            cycles: 0,
        };
        assert_eq!(profile.zone_coverage(), 1.0);
        assert!(profile.inactive_zones().is_empty());
    }
}
