//! Benchmarks of the fault simulators: the serial four-state reference
//! versus the 64-way bit-parallel PPSFP engine, plus a full injection
//! campaign.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use socfmea_core::extract_zones;
use socfmea_faultsim::{
    fault_universe, generate_fault_list, ppsfp_coverage, serial_coverage, Campaign,
    EnvironmentBuilder, FaultListConfig, OperationalProfile,
};
use socfmea_memsys::{
    certification_workload, config::MemSysConfig, rtl::build_netlist, MemSysPins,
};
use std::hint::black_box;

fn setup() -> (
    socfmea_netlist::Netlist,
    socfmea_sim::Workload,
    Option<(usize, usize)>,
) {
    let cfg = MemSysConfig::hardened().with_words(16);
    let nl = build_netlist(&cfg).expect("valid");
    let pins = MemSysPins::find(&nl, &cfg);
    let cert = certification_workload(&pins, &cfg);
    (nl, cert.workload, cert.sw_test_window)
}

fn bench_serial_vs_ppsfp(c: &mut Criterion) {
    let (nl, w, _) = setup();
    let faults = fault_universe(&nl);
    let sample: Vec<_> = faults.iter().copied().take(126).collect();
    let outputs: Vec<_> = nl.outputs().to_vec();

    let mut group = c.benchmark_group("fault_simulation");
    group.throughput(Throughput::Elements(sample.len() as u64));
    group.sample_size(10);
    group.bench_function("serial_126_faults", |b| {
        b.iter(|| black_box(serial_coverage(&nl, &w, &outputs, &sample)))
    });
    group.bench_function("ppsfp_126_faults", |b| {
        b.iter(|| black_box(ppsfp_coverage(&nl, &w, &outputs, &sample)))
    });
    group.finish();
}

fn bench_ppsfp_full_universe(c: &mut Criterion) {
    let (nl, w, _) = setup();
    let faults = fault_universe(&nl);
    let outputs: Vec<_> = nl.outputs().to_vec();
    let mut group = c.benchmark_group("fault_simulation");
    group.throughput(Throughput::Elements(faults.len() as u64));
    group.sample_size(10);
    group.bench_function("ppsfp_full_universe", |b| {
        b.iter(|| black_box(ppsfp_coverage(&nl, &w, &outputs, &faults)))
    });
    group.finish();
}

fn bench_injection_campaign(c: &mut Criterion) {
    let (nl, w, sw) = setup();
    let zones = extract_zones(&nl, &socfmea_memsys::fmea::extract_config());
    let env = EnvironmentBuilder::new(&nl, &zones, &w)
        .alarms_matching("alarm_")
        .sw_test_window(sw)
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 1,
            stuckats_per_zone: 1,
            local_faults_per_zone: 0,
            wide_faults: 4,
            global_faults: true,
            ..FaultListConfig::default()
        },
    );
    let mut group = c.benchmark_group("injection_campaign");
    group.throughput(Throughput::Elements(faults.len() as u64));
    group.sample_size(10);
    group.bench_function("memsys16_small_list", |b| {
        b.iter(|| black_box(Campaign::new(&env, &faults).run()))
    });
    group.finish();
}

fn bench_campaign_threads(c: &mut Criterion) {
    let (nl, w, sw) = setup();
    let zones = extract_zones(&nl, &socfmea_memsys::fmea::extract_config());
    let env = EnvironmentBuilder::new(&nl, &zones, &w)
        .alarms_matching("alarm_")
        .sw_test_window(sw)
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            bitflips_per_zone: 1,
            stuckats_per_zone: 1,
            local_faults_per_zone: 0,
            wide_faults: 4,
            global_faults: true,
            ..FaultListConfig::default()
        },
    );
    let mut group = c.benchmark_group("campaign_threads");
    group.throughput(Throughput::Elements(faults.len() as u64));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(Campaign::new(&env, &faults).threads(t).run()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_vs_ppsfp,
    bench_ppsfp_full_universe,
    bench_injection_campaign,
    bench_campaign_threads
);
criterion_main!(benches);
