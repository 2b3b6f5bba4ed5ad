//! A fault-injection campaign from scratch on a parity-protected register
//! file: build, zone, profile, generate the fault list, inject, and read
//! the SENS/OBSE/DIAG coverage items.
//!
//! Run with `cargo run --release --example fault_injection_campaign`.

use soc_fmea::faultsim::{fault_universe, ppsfp_coverage};
use soc_fmea::prelude::*;
use soc_fmea::rtl::Word;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // a register file of four 8-bit entries, each with a stored parity bit
    // checked at readout
    let mut r = RtlBuilder::new("regfile");
    let _clk = r.clock_input("clk");
    let din = r.input_word("din", 8);
    let wsel = r.input_word("wsel", 2);
    let rsel = r.input_word("rsel", 2);
    let we = r.input("we");
    let hot = r.decoder(&wsel);
    let mut qs = Vec::new();
    let mut ps = Vec::new();
    for i in 0..4 {
        r.push_block(format!("entry{i}"));
        let en = r.and2_bit(we, hot.bit(i));
        let q = r.register(&format!("data{i}"), &din, Some(en), None);
        let par_in = r.parity(&din);
        let p = r.register_bit(&format!("par{i}"), par_in, Some(en), None);
        qs.push(q);
        ps.push(p);
        r.pop_block();
    }
    let rdata = r.mux_tree(&rsel, &qs);
    let rpar = {
        let pw: Word = ps.iter().copied().collect();
        let bits: Vec<_> = pw.bits().to_vec();
        let items: Vec<Word> = bits.iter().map(|&b| Word::new(vec![b])).collect();
        r.mux_tree(&rsel, &items).bit(0)
    };
    let live_par = r.parity(&rdata);
    let alarm = r.xor2_bit(live_par, rpar);
    r.output_word("rdata", &rdata);
    r.output("alarm_parity", alarm);
    let netlist = r.finish()?;

    // a write/read-sweep workload
    let mut w = Workload::new("sweep");
    let pin = |n: &str| netlist.net_by_name(n).expect("pin");
    let din_nets: Vec<_> = (0..8).map(|i| pin(&format!("din[{i}]"))).collect();
    let wsel_nets: Vec<_> = (0..2).map(|i| pin(&format!("wsel[{i}]"))).collect();
    let rsel_nets: Vec<_> = (0..2).map(|i| pin(&format!("rsel[{i}]"))).collect();
    let we = pin("we");
    for round in 0..3u64 {
        for e in 0..4u64 {
            let mut c = vec![(we, Logic::One)];
            assign_bus(&mut c, &din_nets, 0x35u64.wrapping_mul(e + 1 + round * 7));
            assign_bus(&mut c, &wsel_nets, e);
            assign_bus(&mut c, &rsel_nets, e);
            w.push_cycle(c);
            let mut c = vec![(we, Logic::Zero)];
            assign_bus(&mut c, &rsel_nets, e);
            w.push_cycle(c);
            w.push_idle(1);
        }
    }

    // zone, profile, generate and run the campaign
    let zones = extract_zones(&netlist, &ExtractConfig::default());
    let env = EnvironmentBuilder::new(&netlist, &zones, &w)
        .alarms_matching("alarm_")
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(&env, &profile, &FaultListConfig::default());
    println!(
        "{} zones, {} faults, workload {} cycles",
        zones.len(),
        faults.len(),
        w.len()
    );
    // shard across two worker threads; the merge is deterministic and
    // every engine is bit-identical, so the result equals
    // `Campaign::new(&env, &faults).run()` — `Engine::Auto` just picks the
    // fastest strategy the fault list admits
    let runner = Campaign::new(&env, &faults).engine(Engine::Auto).threads(2);
    let stats = runner.stats();
    let campaign = runner.run();
    println!("{}", stats.summary());
    let (ne, sd, dd, du) = campaign.outcome_counts();
    println!("outcomes: {ne} no-effect, {sd} safe-detected, {dd} dangerous-detected, {du} dangerous-undetected");
    println!("{}", campaign.coverage);

    let analysis = analyze(&faults, &campaign, &profile);
    println!("table of effects (zone -> observation points):");
    for (zone, effects) in &analysis.table_of_effects {
        let names: Vec<_> = effects
            .iter()
            .map(|&z| zones.zone(z).name.clone())
            .collect();
        println!("  {:<18} -> {}", zones.zone(*zone).name, names.join(", "));
    }

    // and the permanent-fault coverage of the workload (PPSFP)
    let report = ppsfp_coverage(&netlist, &w, netlist.outputs(), &fault_universe(&netlist));
    println!(
        "stuck-at coverage of the sweep workload: {:.1}% raw, {:.1}% of excited",
        report.coverage() * 100.0,
        report.coverage_of_excited() * 100.0
    );
    Ok(())
}
