//! Experiment F2 (Figure 2): wide physical faults causing multiple zone
//! failures.
//!
//! "We consider wide the physical HW faults affecting one or more gates of
//! a logic cone contributing to more than one sensible zone ... In such a
//! case, we have multiple failures." Injects a stuck-at on the most-shared
//! gate of the memory sub-system and shows the failure appearing in several
//! zones at once.

use socfmea_bench::{banner, MemSysSetup};
use socfmea_core::wide_fault_sites;
use socfmea_faultsim::{Campaign, EnvironmentBuilder, Fault, FaultKind};
use socfmea_memsys::config::MemSysConfig;
use socfmea_netlist::Logic;

fn main() {
    banner(
        "F2",
        "local / wide / global fault classification, multiple failures",
    );
    let setup = MemSysSetup::build(MemSysConfig::baseline().with_words(16));
    let census = socfmea_core::census(&setup.netlist, &setup.zones);
    println!(
        "fault-site census: {} local gates, {} wide gates, {} un-zoned, {} global sites",
        census.local_gates, census.wide_gates, census.unassigned_gates, census.global_sites
    );
    println!(
        "local fraction of zoned gates: {:.1}%\n",
        census.local_fraction() * 100.0
    );

    let sites = wide_fault_sites(&setup.zones);
    println!("top shared (wide) fault sites:");
    for site in sites.iter().take(5) {
        let gate = setup.netlist.gate(site.gate);
        println!(
            "  {} `{}` shared by {} zones",
            site.gate,
            gate.name,
            site.zones.len()
        );
    }

    let env = EnvironmentBuilder::new(&setup.netlist, &setup.zones, &setup.workload)
        .alarms_matching("alarm_")
        .build();
    // Scan the most-shared sites (both polarities) until one demonstrably
    // fails several zones at once — some stuck values coincide with the
    // fault-free behaviour and are masked.
    let candidates: Vec<Fault> = sites
        .iter()
        .take(10)
        .flat_map(|site| {
            let net = setup.netlist.gate(site.gate).output;
            [Logic::Zero, Logic::One].map(move |value| Fault {
                kind: FaultKind::StuckAt { net, value },
                zone: None,
                inject_cycle: 0,
                label: format!("wide stuck-at-{value} on shared {net}"),
            })
        })
        .collect();
    let result = Campaign::new(&env, &candidates).run();
    let best = result
        .outcomes
        .iter()
        .max_by_key(|o| o.deviated_zones.len())
        .expect("at least one candidate");
    let fault = &candidates[best.fault_index];
    println!(
        "\ninjected {} -> outcome {}, deviations observed in {} zones:",
        fault.label,
        best.outcome,
        best.deviated_zones.len()
    );
    for &z in &best.deviated_zones {
        println!("  {}", setup.zones.zone(z).name);
    }
    assert!(
        best.deviated_zones.len() >= 2,
        "a wide fault must fail multiple zones"
    );
    println!("\n(a single physical fault, multiple sensible-zone failures — Figure 2)");
}
