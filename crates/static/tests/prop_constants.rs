//! Property test: ternary constant propagation is sound against the
//! simulators — for arbitrary synthetic designs and random stimulus,
//! every net the fixpoint proves constant holds exactly that value in the
//! scalar four-state simulator *and* in the word-level simulator, at
//! every cycle, whether the inputs are driven to known values or left at
//! `X`. Every proof the fault-site classifier emits must also pass its
//! own machine checker.
//!
//! This is the contract that makes `--prune` safe: a constant-site proof
//! asserts the faulty run *is* the golden run, so a single
//! counter-example here would be an unsound pruned campaign.

use proptest::prelude::*;
use socfmea_netlist::{Logic, Topology};
use socfmea_rtl::gen;
use socfmea_sim::{Simulator, WordSim};
use socfmea_static::TestabilityAnalysis;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn proven_constants_hold_in_both_simulators(
        seed in 0u64..10_000,
        gates in 10usize..40,
        stimulus in 0u64..u64::MAX,
        drive_mask in 0u16..u16::MAX,
    ) {
        let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
        let topo = Topology::build(&nl).expect("levelizable");
        let analysis = TestabilityAnalysis::analyze(&nl, &topo, nl.outputs());
        let constants: Vec<_> = (0..nl.net_count())
            .map(socfmea_netlist::NetId::from_index)
            .filter_map(|n| analysis.constant(n).map(|v| (n, v)))
            .collect();

        let din: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let rst = nl.net_by_name("rst").unwrap();

        let mut scalar = Simulator::new(&nl).expect("levelizable");
        let mut word = WordSim::new(&nl).expect("levelizable");
        for cycle in 0..10u32 {
            // Random stimulus; each input is independently either driven
            // with a fresh pseudo-random bit or left at X (the abstraction
            // point of the analysis), steered by `drive_mask`.
            let bits = stimulus.rotate_left(cycle * 5);
            for (i, &pin) in std::iter::once(&rst).chain(&din).enumerate() {
                if drive_mask & (1 << ((cycle as usize + i) % 16)) != 0 {
                    let v = Logic::from_bool(bits >> i & 1 == 1);
                    scalar.set(pin, v);
                    word.set(pin, v);
                }
            }
            scalar.eval();
            word.eval();
            for &(net, v) in &constants {
                prop_assert_eq!(
                    scalar.get(net), v,
                    "cycle {}: scalar sim contradicts proven constant on `{}`",
                    cycle, nl.net(net).name
                );
                prop_assert_eq!(
                    word.get(net), v,
                    "cycle {}: word sim contradicts proven constant on `{}`",
                    cycle, nl.net(net).name
                );
            }
            scalar.tick();
            word.tick();
        }
    }

    #[test]
    fn every_emitted_proof_passes_the_machine_checker(
        seed in 0u64..10_000,
        gates in 10usize..40,
    ) {
        let nl = gen::synthetic_datapath("dut", 4, 2, gates, seed).expect("valid");
        let topo = Topology::build(&nl).expect("levelizable");
        let analysis = TestabilityAnalysis::analyze(&nl, &topo, nl.outputs());
        for i in 0..nl.net_count() {
            let net = socfmea_netlist::NetId::from_index(i);
            for value in [Logic::Zero, Logic::One] {
                if let Some(proof) = analysis.classify_stuck_at(net, value) {
                    prop_assert!(
                        analysis.check_proof(&nl, &topo, &proof),
                        "proof for `{}` sa{} fails its own checker",
                        nl.net(net).name, value
                    );
                }
            }
        }
        prop_assert!(analysis.verify_constants(&nl, &topo).is_ok());
    }
}
