//! The result analyzer: turning raw outcomes into the FMEA validation
//! sheet.
//!
//! "Result analyzer: this function collects all the results generated by the
//! injection campaign and automatically fills a sheet included in the FMEA
//! spreadsheet. In particular, S, D, F and DDF are extracted and compared
//! with the values in the FMEA ... It is also extracted a table of effects
//! for each sensible zone" (paper §5).

use crate::faultlist::Fault;
use crate::inject::CampaignResult;
use crate::profile::OperationalProfile;
use socfmea_core::{FreqClass, MeasuredZone, ZoneId};
use std::collections::{BTreeMap, BTreeSet};

/// The distilled campaign measurements, ready for
/// [`socfmea_core::validate`](fn@socfmea_core::validate).
#[derive(Debug, Clone)]
pub struct CampaignAnalysis {
    /// Per-zone measured S/D/DDF counts (one entry per zone that received
    /// injections).
    pub measured: Vec<MeasuredZone>,
    /// The measured table of effects: zone → observation points where a
    /// deviation was recorded.
    pub table_of_effects: BTreeMap<ZoneId, BTreeSet<ZoneId>>,
    /// Measured frequency class per zone (from the operational profile).
    pub measured_freq: BTreeMap<ZoneId, FreqClass>,
}

impl CampaignAnalysis {
    /// The measured entry for one zone.
    pub fn zone(&self, zone: ZoneId) -> Option<&MeasuredZone> {
        self.measured.iter().find(|m| m.zone == zone)
    }
}

/// Aggregates a campaign into per-zone measurements.
///
/// Only injections attributed to a zone contribute to that zone's S/D/DDF
/// counts; the observed-effects sets exclude the injected zone itself.
pub fn analyze(
    faults: &[Fault],
    result: &CampaignResult,
    profile: &OperationalProfile,
) -> CampaignAnalysis {
    let mut per_zone: BTreeMap<ZoneId, MeasuredZone> = BTreeMap::new();
    let mut table: BTreeMap<ZoneId, BTreeSet<ZoneId>> = BTreeMap::new();

    // Zones that received bit-flip injections compare against the
    // worksheet's soft-error rows specifically: a bit flip *is* the
    // soft-error failure mode, while cone glitches exercise other modes
    // (wrong load / addressing) with very different coverage — mixing them
    // would compare count-weighted measurements against λ-weighted
    // estimates.
    let bitflip_zones: std::collections::BTreeSet<ZoneId> = faults
        .iter()
        .filter(|f| matches!(f.kind, crate::faultlist::FaultKind::BitFlip { .. }))
        .filter_map(|f| f.zone)
        .collect();

    for outcome in &result.outcomes {
        let fault = &faults[outcome.fault_index];
        let Some(zone) = fault.zone else { continue };
        let is_bitflip = matches!(fault.kind, crate::faultlist::FaultKind::BitFlip { .. });
        let mode_limited = bitflip_zones.contains(&zone);
        let effects: BTreeSet<ZoneId> = outcome
            .deviated_zones
            .iter()
            .copied()
            .filter(|&z| z != zone)
            .collect();
        table
            .entry(zone)
            .or_default()
            .extend(effects.iter().copied());
        if mode_limited && !is_bitflip {
            continue; // counted in the effects table, not in the S/D/DDF sheet
        }
        let entry = per_zone.entry(zone).or_insert_with(|| MeasuredZone {
            zone,
            mode_key: mode_limited.then(|| "soft_error".to_owned()),
            ..MeasuredZone::default()
        });
        use crate::inject::Outcome::*;
        match outcome.outcome {
            NoEffect => entry.safe += 1,
            SafeDetected => {
                entry.safe += 1;
                entry.safe_detected += 1;
            }
            DangerousDetected => entry.dangerous_detected += 1,
            DangerousUndetected => entry.dangerous_undetected += 1,
        }
    }

    let mut measured: Vec<MeasuredZone> = per_zone.into_values().collect();
    for m in &mut measured {
        if let Some(effects) = table.get(&m.zone) {
            m.observed_effects = effects.iter().copied().collect();
        }
    }

    let measured_freq = profile
        .zones
        .iter()
        .enumerate()
        .map(|(i, a)| (ZoneId::from_index(i), a.measured_freq_class()))
        .collect();

    CampaignAnalysis {
        measured,
        table_of_effects: table,
        measured_freq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::env::EnvironmentBuilder;
    use crate::faultlist::{generate_fault_list, FaultListConfig};
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Workload};

    #[test]
    fn analysis_aggregates_by_zone_and_builds_effects_table() {
        // pipeline a -> b -> output; flips in a must show effects at b and po
        let mut r = RtlBuilder::new("an");
        let d = r.input_word("d", 4);
        let a = r.register("a", &d, None, None);
        let b = r.register("b", &a, None, None);
        r.output_word("o", &b);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let d_nets: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..20u64 {
            let mut v = Vec::new();
            assign_bus(&mut v, &d_nets, c % 16);
            w.push_cycle(v);
        }
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let profile = OperationalProfile::collect(&env);
        let faults = generate_fault_list(
            &env,
            &profile,
            &FaultListConfig {
                bitflips_per_zone: 4,
                stuckats_per_zone: 0,
                local_faults_per_zone: 0,
                wide_faults: 0,
                global_faults: false,
                ..FaultListConfig::default()
            },
        );
        let result = Campaign::new(&env, &faults).run();
        let analysis = analyze(&faults, &result, &profile);

        let a_id = zones.zone_by_name("a").unwrap().id;
        let b_id = zones.zone_by_name("b").unwrap().id;
        let po_id = zones.zone_by_name("po/o").unwrap().id;

        let ma = analysis.zone(a_id).expect("a was injected");
        assert_eq!(ma.injections(), 4);
        // unprotected pipeline: every flip that propagates is dangerous
        // undetected
        assert!(ma.dangerous_undetected > 0);
        let effects = &analysis.table_of_effects[&a_id];
        assert!(effects.contains(&b_id));
        assert!(effects.contains(&po_id));
        assert!(!effects.contains(&a_id), "self excluded");
        // measured frequency classes exist for every zone
        assert_eq!(analysis.measured_freq.len(), zones.len());
    }
}
