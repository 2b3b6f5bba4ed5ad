//! Property test: the sharded campaign engine is a drop-in replacement for
//! the serial one — for arbitrary synthetic designs, workloads and fault
//! lists, every thread count produces the bit-identical `CampaignResult`.
//!
//! This is the contract that makes `--threads` safe to default on: the
//! merge commits outcomes in fault-list order and feeds coverage (and the
//! early-stop check) only from the committed prefix, so scheduling can
//! never leak into the result.

use proptest::prelude::*;
use socfmea_core::{extract_zones, ExtractConfig, ZoneSet};
use socfmea_faultsim::{
    generate_fault_list, Campaign, Environment, EnvironmentBuilder, Fault, FaultListConfig,
    OperationalProfile,
};
use socfmea_netlist::{Logic, Netlist};
use socfmea_rtl::gen;
use socfmea_sim::{assign_bus, Workload};

/// A generated datapath with its random workload.
fn fixture(seed: u64, gates: usize, stimulus: u64) -> (Netlist, Workload) {
    let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
    let din: Vec<_> = (0..4)
        .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
        .collect();
    let rst = nl.net_by_name("rst").unwrap();
    let mut w = Workload::new("rand");
    for c in 0..10u64 {
        let mut v = vec![(rst, if c == 0 { Logic::One } else { Logic::Zero })];
        assign_bus(&mut v, &din, stimulus.wrapping_mul(c + 1) >> 2);
        w.push_cycle(v);
    }
    (nl, w)
}

/// The campaign environment. Two internal nets of the datapath are
/// declared diagnostic alarms — a first-stage register bit (also a zone
/// anchor) and a second-stage gate — so campaigns reach the SD and DD
/// outcomes, not only NE and DU.
fn environment<'a>(nl: &'a Netlist, zones: &'a ZoneSet, w: &'a Workload) -> Environment<'a> {
    EnvironmentBuilder::new(nl, zones, w)
        .alarm_net(nl.net_by_name("r0[0]").unwrap())
        .alarm_net(nl.net_by_name("syn1_0").unwrap())
        .build()
}

fn fault_list(env: &Environment<'_>, seed: u64) -> Vec<Fault> {
    let profile = OperationalProfile::collect(env);
    generate_fault_list(
        env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 1,
            stuckats_per_zone: 1,
            wide_faults: 2,
            seed,
            ..FaultListConfig::default()
        },
    )
}

#[test]
fn generated_campaigns_reach_the_detected_outcomes() {
    // the property below is only as strong as the outcomes it compares:
    // pin that the generator's alarms really fire, with and without an
    // output mismatch
    let (nl, w) = fixture(3, 20, 777_777);
    let zones = extract_zones(&nl, &ExtractConfig::default());
    let env = environment(&nl, &zones, &w);
    let faults = fault_list(&env, 3);
    let (_, sd, dd, _) = Campaign::new(&env, &faults).run().outcome_counts();
    assert!(sd > 0 && dd > 0, "SD {sd}, DD {dd}");
}

proptest! {
    // each case runs a full multi-copy injection campaign; keep the count
    // low and the designs small
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_campaign_matches_serial(
        seed in 0u64..1000,
        gates in 10usize..30,
        stimulus in 1u64..1_000_000,
        threads in 2usize..6,
        chunk in 1usize..5,
    ) {
        let (nl, w) = fixture(seed, gates, stimulus);
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let env = environment(&nl, &zones, &w);
        let faults = fault_list(&env, seed);
        prop_assume!(!faults.is_empty());

        let serial = Campaign::new(&env, &faults).threads(1).run();
        let sharded = Campaign::new(&env, &faults)
            .threads(threads)
            .chunk(chunk)
            .seed(seed ^ 0xdead_beef)
            .run();
        prop_assert_eq!(
            &serial, &sharded,
            "results diverge at {} threads (chunk {})", threads, chunk
        );
    }
}
