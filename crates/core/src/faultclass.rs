//! Local / wide / global classification of physical fault sites.
//!
//! The paper distinguishes three classes of physical HW faults (§3):
//! *local* faults affect gates contributing to a single sensible zone, *wide*
//! faults affect gates shared between cones (one fault, multiple zone
//! failures — Figure 2), and *global* faults (clock, power, thermal) affect
//! many cones at once. The census below drives validation steps (c) and (d)
//! of §5: local faults are covered by exhaustive zone-failure injection,
//! wide/global faults need selective injection.

use crate::extract::ZoneSet;
use crate::zone::{ZoneId, ZoneKind};
use socfmea_netlist::{GateFan, GateId, Netlist};

/// The paper's three physical-fault classes (plus unassigned logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// Gate contributes to no analysed cone.
    Unassigned,
    /// Gate contributes to exactly one zone's cone.
    Local,
    /// Gate shared between two or more cones.
    Wide,
    /// Site on a critical net (clock/reset/power) affecting many cones.
    Global,
}

/// A wide fault site and the zones it can disturb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideFaultSite {
    /// The shared gate.
    pub gate: GateId,
    /// Zones whose cones contain the gate.
    pub zones: Vec<ZoneId>,
}

/// Census of fault-site classes over a zoned netlist.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultClassCensus {
    /// Gates in exactly one cone.
    pub local_gates: usize,
    /// Gates shared between cones.
    pub wide_gates: usize,
    /// Gates in no analysed cone.
    pub unassigned_gates: usize,
    /// Global fault sites (critical-net zones).
    pub global_sites: usize,
}

impl FaultClassCensus {
    /// Fraction of zoned gates that are local (the exhaustively-covered
    /// part).
    pub fn local_fraction(&self) -> f64 {
        let zoned = self.local_gates + self.wide_gates;
        if zoned == 0 {
            return 0.0;
        }
        self.local_gates as f64 / zoned as f64
    }
}

/// Classifies one gate.
pub fn classify_gate(zones: &ZoneSet, gate: GateId) -> FaultClass {
    match zones.membership().fan(gate) {
        GateFan::Unassigned => FaultClass::Unassigned,
        GateFan::Local => FaultClass::Local,
        GateFan::Wide => FaultClass::Wide,
    }
}

/// Computes the class census for a zoned netlist.
///
/// # Example
///
/// ```
/// use socfmea_core::extract::{extract_zones, ExtractConfig};
/// use socfmea_core::faultclass::census;
/// use socfmea_rtl::RtlBuilder;
///
/// let mut r = RtlBuilder::new("w");
/// let _clk = r.clock_input("clk");
/// let d = r.input_word("d", 2);
/// let shared = r.not(&d);
/// let a = r.register("a", &shared, None, None);
/// let b = r.register("b", &shared, None, None);
/// r.output_word("qa", &a);
/// r.output_word("qb", &b);
/// let nl = r.finish()?;
/// let zones = extract_zones(&nl, &ExtractConfig::default());
/// let c = census(&nl, &zones);
/// assert_eq!(c.wide_gates, 2);   // the shared inverters
/// assert_eq!(c.global_sites, 1); // the clock
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn census(netlist: &Netlist, zones: &ZoneSet) -> FaultClassCensus {
    let (unassigned, local, wide) = zones.membership().census();
    let _ = netlist;
    let global_sites = zones
        .zones()
        .iter()
        .filter(|z| matches!(z.kind, ZoneKind::CriticalNet { .. }))
        .count();
    FaultClassCensus {
        local_gates: local,
        wide_gates: wide,
        unassigned_gates: unassigned,
        global_sites,
    }
}

/// Lists every wide fault site with the zones it touches, ordered by
/// descending zone count (the most dangerous shared logic first).
pub fn wide_fault_sites(zones: &ZoneSet) -> Vec<WideFaultSite> {
    let mut sites: Vec<WideFaultSite> = zones
        .membership()
        .iter()
        .filter(|(_, cones)| cones.len() >= 2)
        .map(|(gate, cones)| WideFaultSite {
            gate,
            zones: cones.iter().map(|&c| ZoneId::from_index(c)).collect(),
        })
        .collect();
    sites.sort_by(|a, b| b.zones.len().cmp(&a.zones.len()).then(a.gate.cmp(&b.gate)));
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;

    fn shared_design() -> (socfmea_netlist::Netlist, ZoneSet) {
        let mut r = RtlBuilder::new("w");
        let _clk = r.clock_input("clk");
        let d = r.input_word("d", 2);
        let shared = r.not(&d);
        let private = r.not(&shared);
        let a = r.register("a", &shared, None, None);
        let b = r.register("b", &private, None, None);
        // `shared` inverters feed both a (directly) and b (through private)
        r.output_word("qa", &a);
        r.output_word("qb", &b);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        (nl, zones)
    }

    #[test]
    fn census_partitions_gates() {
        let (nl, zones) = shared_design();
        let c = census(&nl, &zones);
        assert_eq!(
            c.local_gates + c.wide_gates + c.unassigned_gates,
            nl.gate_count()
        );
        assert!(c.wide_gates >= 2);
        assert!(c.local_fraction() > 0.0 && c.local_fraction() < 1.0);
    }

    #[test]
    fn wide_sites_list_their_zones() {
        let (_nl, zones) = shared_design();
        let sites = wide_fault_sites(&zones);
        assert!(!sites.is_empty());
        for site in &sites {
            assert!(site.zones.len() >= 2);
            assert_eq!(classify_gate(&zones, site.gate), FaultClass::Wide);
        }
    }

    #[test]
    fn empty_census_fraction_is_zero() {
        assert_eq!(FaultClassCensus::default().local_fraction(), 0.0);
    }
}
