//! The paper's §6 story end-to-end: assess the baseline memory sub-system,
//! read the criticality ranking, apply the five hardening measures, and
//! show the hardened design clearing the SIL3 bar — then validate the
//! hardened FMEA by fault injection.
//!
//! Run with `cargo run --release --example memsys_certification`
//! (release recommended: the validation campaign simulates hundreds of
//! faulty design copies).

use soc_fmea::memsys::{certification_workload, config::MemSysConfig, fmea, rtl, MemSysPins};
use soc_fmea::prelude::*;

fn assess(name: &str, cfg: &MemSysConfig) -> Result<f64, Box<dyn std::error::Error>> {
    let netlist = rtl::build_netlist(cfg)?;
    let zones = extract_zones(&netlist, &fmea::extract_config());
    let ws = fmea::build_worksheet(&zones, cfg);
    let result = ws.compute();
    let sff = result.sff().expect("nonzero rates");
    println!("==== {name} ====");
    println!(
        "{} gates, {} FFs, {} zones  ->  SFF {:.2}%, SIL @HFT=0: {}",
        netlist.gate_count(),
        netlist.dff_count(),
        zones.len(),
        sff * 100.0,
        sil_from_sff(sff, Hft(0), SubsystemType::B)
            .map(|s| s.to_string())
            .unwrap_or_else(|| "none".into())
    );
    println!(
        "most critical zones:\n{}",
        report::render_ranking(&result, &zones, 5)
    );
    Ok(sff)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. first implementation: SEC-DED only — not SIL3
    let baseline = MemSysConfig::baseline();
    let sff_base = assess("baseline (first implementation)", &baseline)?;

    // 2. the five measures of the paper's second implementation
    let hardened = MemSysConfig::hardened();
    let sff_hard = assess("hardened (second implementation)", &hardened)?;
    println!(
        "SFF improvement: {:.2}% -> {:.2}% (paper: ~95% -> 99.38%)\n",
        sff_base * 100.0,
        sff_hard * 100.0
    );

    // 3. validate the hardened FMEA by fault injection (§5); a smaller
    // array keeps the campaign quick without changing the architecture
    let hardened = MemSysConfig::hardened().with_words(16);
    let netlist = rtl::build_netlist(&hardened)?;
    let zones = extract_zones(&netlist, &fmea::extract_config());
    let pins = MemSysPins::find(&netlist, &hardened);
    let cert = certification_workload(&pins, &hardened);
    let env = EnvironmentBuilder::new(&netlist, &zones, &cert.workload)
        .alarms_matching("alarm_")
        .sw_test_window(cert.sw_test_window)
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 8,
            seed: 2007,
            ..FaultListConfig::default()
        },
    );
    println!(
        "running the injection campaign: {} faults over {} cycles...",
        faults.len(),
        cert.workload.len()
    );
    let campaign = Campaign::new(&env, &faults).run();
    let analysis = analyze(&faults, &campaign, &profile);
    let graph = ZoneGraph::build(&netlist, &zones);
    let effects = predict_all_effects(&graph);
    let ws = fmea::build_worksheet(&zones, &hardened);
    let verdict = validate(
        &ws.compute(),
        &effects,
        &analysis.measured,
        ValidationConfig {
            ddf_tolerance: 0.25,
            ..ValidationConfig::default()
        },
    );
    println!("{}", campaign.coverage);
    println!(
        "validation: {} ({} zones cross-checked)",
        if verdict.passed() {
            "SUCCESSFUL"
        } else {
            "DEVIATIONS FOUND"
        },
        verdict.zones.len()
    );
    for f in verdict.failures() {
        println!(
        "  deviation at {}: estimated DDF {:?} vs measured {:?} over {} injections          -> the FMEA gets a new line (the paper's update loop)",
            zones.zone(f.zone).name,
            f.estimated_ddf.map(|v| (v * 100.0).round()),
            f.measured_ddf.map(|v| (v * 100.0).round()),
            f.injections
        );
    }
    Ok(())
}
