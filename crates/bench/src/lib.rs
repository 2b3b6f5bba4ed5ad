//! Shared plumbing for the experiment binaries and criterion benches.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (`exp_f1_zones` … `exp_t7_annex_a`); this library holds the set-up code
//! they share so each binary stays focused on printing its artefact.
//! See `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured results.

use socfmea_core::{extract_zones, CampaignStatsSummary, FmeaResult, Worksheet, ZoneSet};
use socfmea_faultsim::{
    analyze, generate_fault_list, Campaign, CampaignAnalysis, CampaignResult, Engine,
    EnvironmentBuilder, Fault, FaultListConfig, OperationalProfile,
};
use socfmea_memsys::{certification_workload, config::MemSysConfig, fmea, rtl, MemSysPins};
use socfmea_netlist::Netlist;
use socfmea_obs::Observer;
use socfmea_sim::Workload;

/// A fully-assembled memory-sub-system experiment: design, zones, workload.
#[derive(Debug)]
pub struct MemSysSetup {
    /// The configuration the design was generated from.
    pub cfg: MemSysConfig,
    /// The gate-level design.
    pub netlist: Netlist,
    /// Extracted sensible zones.
    pub zones: ZoneSet,
    /// Resolved pin handles.
    pub pins: MemSysPins,
    /// The certification workload.
    pub workload: Workload,
    /// Cycle window of the SW start-up test phase (when configured).
    pub sw_test_window: Option<(usize, usize)>,
}

impl MemSysSetup {
    /// Builds the design, zones and workload for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the generator produces an invalid netlist (a bug, not an
    /// input condition).
    pub fn build(cfg: MemSysConfig) -> MemSysSetup {
        let netlist = rtl::build_netlist(&cfg).expect("memsys generator yields valid netlists");
        let zones = extract_zones(&netlist, &fmea::extract_config());
        let pins = MemSysPins::find(&netlist, &cfg);
        let cert = certification_workload(&pins, &cfg);
        MemSysSetup {
            cfg,
            netlist,
            zones,
            pins,
            workload: cert.workload,
            sw_test_window: cert.sw_test_window,
        }
    }

    /// The worksheet with this configuration's assumptions applied.
    pub fn worksheet(&self) -> Worksheet<'_> {
        fmea::build_worksheet(&self.zones, &self.cfg)
    }

    /// Computes the FMEA.
    pub fn fmea(&self) -> FmeaResult {
        self.worksheet().compute()
    }

    /// Runs a full injection campaign on one thread; see
    /// [`campaign_threaded`](Self::campaign_threaded).
    pub fn campaign(&self, list: &FaultListConfig) -> CampaignRun {
        self.campaign_threaded(list, 1)
    }

    /// Runs a full injection campaign sharded over `threads` worker
    /// threads. The measurements are bit-identical for any thread count;
    /// only [`CampaignRun::stats`] (wall-clock, throughput) differs.
    pub fn campaign_threaded(&self, list: &FaultListConfig, threads: usize) -> CampaignRun {
        self.campaign_configured(list, threads, None)
    }

    /// Runs a full injection campaign on the checkpointed incremental
    /// engine (`socfmea-accel`) with the given checkpoint interval. The
    /// measurements are bit-identical to
    /// [`campaign_threaded`](Self::campaign_threaded); only the execution
    /// statistics differ.
    pub fn campaign_accel(
        &self,
        list: &FaultListConfig,
        threads: usize,
        checkpoint_interval: usize,
    ) -> CampaignRun {
        self.campaign_configured(list, threads, Some(checkpoint_interval))
    }

    /// Runs a campaign with an [`Observer`] attached: spans, engine-path
    /// counters and (when the observer carries a trace sink) one record per
    /// fault land in `observer`. The measurements are bit-identical to the
    /// unobserved variants — observation is how the benches quantify its
    /// own overhead.
    pub fn campaign_observed(
        &self,
        list: &FaultListConfig,
        threads: usize,
        accel_interval: Option<usize>,
        observer: &Observer,
    ) -> CampaignRun {
        self.campaign_full(list, threads, accel_interval, Some(observer))
    }

    fn campaign_configured(
        &self,
        list: &FaultListConfig,
        threads: usize,
        accel_interval: Option<usize>,
    ) -> CampaignRun {
        self.campaign_full(list, threads, accel_interval, None)
    }

    fn campaign_full(
        &self,
        list: &FaultListConfig,
        threads: usize,
        accel_interval: Option<usize>,
        observer: Option<&Observer>,
    ) -> CampaignRun {
        let env = EnvironmentBuilder::new(&self.netlist, &self.zones, &self.workload)
            .alarms_matching("alarm_")
            .sw_test_window(self.sw_test_window)
            .build();
        let profile = OperationalProfile::collect(&env);
        let faults = generate_fault_list(&env, &profile, list);
        let engine = if accel_interval.is_some() {
            Engine::Sparse
        } else {
            Engine::Lockstep
        };
        let mut campaign = Campaign::new(&env, &faults)
            .threads(threads)
            .engine(engine)
            .checkpoint_interval(accel_interval.unwrap_or(Campaign::DEFAULT_CHECKPOINT_INTERVAL));
        if let Some(obs) = observer {
            campaign = campaign.observe(obs);
        }
        let stats = campaign.stats();
        let result = campaign.run();
        let analysis = analyze(&faults, &result, &profile);
        CampaignRun {
            faults,
            result,
            profile,
            analysis,
            stats: stats.summary(),
        }
    }
}

/// The worker-thread count to use for campaign experiments: the host's
/// available parallelism, capped at 8.
pub fn default_campaign_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The artefacts of one injection campaign.
#[derive(Debug)]
pub struct CampaignRun {
    /// The injected fault list.
    pub faults: Vec<Fault>,
    /// Raw per-fault outcomes and coverage.
    pub result: CampaignResult,
    /// The operational profile of the workload.
    pub profile: OperationalProfile,
    /// Aggregated per-zone measurements.
    pub analysis: CampaignAnalysis,
    /// Execution statistics (threads, wall-clock, throughput) of the run.
    pub stats: CampaignStatsSummary,
}

/// A moderate fault-list configuration for campaign experiments: thorough
/// on zone failures, selective on local/wide/global faults — the split of
/// validation steps (a), (c) and (d).
pub fn campaign_fault_config() -> FaultListConfig {
    FaultListConfig {
        bitflips_per_zone: 8,
        stuckats_per_zone: 2,
        local_faults_per_zone: 2,
        wide_faults: 12,
        bridge_faults: 6,
        global_faults: true,
        skip_inactive_zones: true,
        collapse: false,
        seed: 2007, // DATE 2007
    }
}

/// Prints a section header used by all experiment binaries.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("  (reproduction of: Mariani/Boschi/Colucci, DATE 2007)");
    println!("================================================================");
}

/// Formats an optional fraction as a percentage.
pub fn pct(v: Option<f64>) -> String {
    v.map(|x| format!("{:6.2}%", x * 100.0))
        .unwrap_or_else(|| "   n/a".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_builds_and_computes() {
        let s = MemSysSetup::build(MemSysConfig::baseline().with_words(16));
        assert!(s.zones.len() > 20);
        let fmea = s.fmea();
        assert!(fmea.sff().unwrap() > 0.5);
        assert_eq!(pct(Some(0.5)), " 50.00%");
        assert_eq!(pct(None), "   n/a");
    }
}
