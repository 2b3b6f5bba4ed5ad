//! Extension experiment X2: the fault-robust microcontroller.
//!
//! The paper's closing line: the methodology "is currently in use for ...
//! the complete analysis of fault-robust microcontrollers for automotive
//! applications" [16, 17] — CPUs protected by lockstep duplication with a
//! hardware comparator. This binary runs the whole flow on the MCU
//! substrate: FMEA of the single vs lockstep core, then an injection
//! campaign confirming that the comparator converts the single core's
//! undetected failures into detected ones.

use socfmea_bench::{banner, pct};
use socfmea_core::{extract_zones, report};
use socfmea_faultsim::{
    analyze, generate_fault_list, Campaign, EnvironmentBuilder, FaultListConfig, OperationalProfile,
};
use socfmea_mcu::rtl::run_workload;
use socfmea_mcu::{build_mcu, fmea, programs, McuConfig, McuPins};

fn main() {
    banner(
        "X2",
        "fault-robust microcontroller: single core vs lockstep",
    );
    for (name, cfg) in [
        ("single core", McuConfig::single(programs::checksum_loop())),
        ("lockstep", McuConfig::lockstep(programs::checksum_loop())),
    ] {
        let nl = build_mcu(&cfg).expect("valid mcu");
        let zones = extract_zones(&nl, &fmea::extract_config());
        let ws = fmea::build_worksheet(&zones, &cfg);
        let result = ws.compute();
        println!("\n==== {name} ====");
        println!(
            "{} gates, {} FFs, {} zones; SFF {} DC {} SIL@HFT0 {:?}",
            nl.gate_count(),
            nl.dff_count(),
            zones.len(),
            pct(result.sff()),
            pct(result.dc()),
            result.sil()
        );
        println!(
            "top critical zones:\n{}",
            report::render_ranking(&result, &zones, 5)
        );

        // injection campaign: exhaustive bit flips into the Moore state
        let pins = McuPins::find(&nl);
        let w = run_workload(&pins, 48);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let profile = OperationalProfile::collect(&env);
        let faults = generate_fault_list(
            &env,
            &profile,
            &FaultListConfig {
                bitflips_per_zone: 8,
                stuckats_per_zone: 1,
                local_faults_per_zone: 1,
                wide_faults: 4,
                global_faults: false,
                seed: 2007,
                ..FaultListConfig::default()
            },
        );
        let campaign = Campaign::new(&env, &faults).run();
        let (ne, sd, dd, du) = campaign.outcome_counts();
        println!(
            "campaign: {} faults -> {ne} no-effect, {sd} safe-detected, {dd} dangerous-detected, {du} dangerous-UNDETECTED",
            faults.len()
        );
        println!(
            "measured DC {}  measured SFF {}",
            pct(campaign.measured_dc()),
            pct(campaign.measured_sff())
        );
        let analysis = analyze(&faults, &campaign, &profile);
        // the headline: what happens to flips in the architectural state?
        for z in ["core0/core0_acc", "core0/core0_pc"] {
            if let Some(zone) = zones.zone_by_name(z) {
                if let Some(m) = analysis.zone(zone.id) {
                    println!(
                        "  {z:<22} flips: {} safe, {} detected, {} undetected",
                        m.safe, m.dangerous_detected, m.dangerous_undetected
                    );
                }
            }
        }
    }
    println!("\nAnnex A.3 'duplicated logic with hardware comparator' at work: the");
    println!("lockstep configuration detects the core state corruptions the single");
    println!("core silently emits — the protection concept of the frCPU line.");
}
