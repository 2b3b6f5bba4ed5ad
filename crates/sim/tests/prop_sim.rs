//! Property tests: the gate-level simulator matches a software model of
//! the generated pipeline, fault hooks behave algebraically, and the
//! event-driven word kernel matches one scalar simulator per lane on
//! generated datapaths.

use proptest::prelude::*;
use socfmea_netlist::{DffId, Driver, Logic, NetId, Netlist};
use socfmea_rtl::gen;
use socfmea_sim::{assign_bus, BridgeKind, Simulator, WordSim, Workload, LANES};

/// Software model of `gen::pipeline`: each stage is `x ^ rotate_left(x, 1)`
/// over `width` bits, registered.
fn pipeline_model(width: usize, depth: usize, inputs: &[u64]) -> Vec<u64> {
    let mask = (1u64 << width) - 1;
    let mix = |x: u64| {
        let rot = ((x << width).wrapping_add(x) >> 1) & mask; // rotate right by 1 == bit i takes i+1
        x ^ rot
    };
    let mut stages = vec![0u64; depth];
    let mut out = Vec::new();
    for &input in inputs {
        out.push(*stages.last().unwrap());
        // shift the pipeline: each stage captures mix(previous value)
        for s in (1..depth).rev() {
            stages[s] = mix(stages[s - 1]);
        }
        stages[0] = mix(input & mask);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pipeline_matches_software_model(
        inputs in prop::collection::vec(0u64..256, 4..12),
    ) {
        let width = 8;
        let depth = 3;
        let nl = gen::pipeline("p", width, depth).expect("valid");
        let din: Vec<_> = (0..width)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let dout: Vec<_> = (0..width)
            .map(|i| nl.net_by_name(&format!("dout[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("drive");
        for &v in &inputs {
            let mut c = Vec::new();
            assign_bus(&mut c, &din, v);
            w.push_cycle(c);
        }
        let mut sim = Simulator::new(&nl).unwrap();
        let mut got = Vec::new();
        w.run(&mut sim, |_, s| got.push(s.get_word(&dout).expect("defined")));
        let expected = pipeline_model(width, depth, &inputs);
        prop_assert_eq!(got, expected);
    }

    /// Double SEU on the same flip-flop cancels: the design returns to the
    /// golden trajectory (state-only divergence, no feedback).
    #[test]
    fn double_flip_cancels(bit in 0usize..8, v: u8) {
        let nl = gen::pipeline("p", 8, 1).expect("valid");
        let din: Vec<_> = (0..8)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let dout: Vec<_> = (0..8)
            .map(|i| nl.net_by_name(&format!("dout[{i}]")).unwrap())
            .collect();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_word(&din, v as u64);
        sim.eval();
        sim.tick();
        let golden = sim.get_word(&dout);
        let ff = socfmea_netlist::DffId(bit as u32);
        sim.flip_ff(ff);
        sim.flip_ff(ff);
        sim.eval();
        prop_assert_eq!(sim.get_word(&dout), golden);
    }

    /// Force + release restores pure combinational behaviour.
    #[test]
    fn force_release_is_transparent(v: u8, forced_bit in 0usize..8, fv: bool) {
        let nl = gen::pipeline("p", 8, 1).expect("valid");
        let din: Vec<_> = (0..8)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let dout: Vec<_> = (0..8)
            .map(|i| nl.net_by_name(&format!("dout[{i}]")).unwrap())
            .collect();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_word(&din, v as u64);
        sim.eval();
        let golden = sim.get_word(&dout);
        let victim = dout[forced_bit];
        sim.force(victim, Logic::from_bool(fv));
        sim.eval();
        sim.release(victim);
        sim.eval();
        prop_assert_eq!(sim.get_word(&dout), golden);
        prop_assert!(!sim.has_active_faults());
    }
}

/// A small deterministic generator (SplitMix64) for the word-kernel cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `0` or `1`, and `X` one time in six.
    fn value(&mut self) -> Logic {
        match self.below(6) {
            0 => Logic::X,
            k => Logic::from_bool(k % 2 == 0),
        }
    }
}

/// One lane's hook, armed at a cycle.
#[derive(Debug, Clone, Copy)]
enum Hook {
    Force(NetId, Logic),
    Pulse(NetId, Logic),
    Flip(DffId),
    Bridge(NetId, NetId, BridgeKind),
    /// A clock outage of this many ticks.
    Hold(usize),
}

impl Hook {
    fn draw(rng: &mut Rng, nl: &Netlist) -> Hook {
        let net = |rng: &mut Rng| NetId::from_index(rng.below(nl.net_count()));
        match rng.below(6) {
            0 | 1 => Hook::Force(net(rng), rng.value()),
            2 => Hook::Pulse(net(rng), rng.value()),
            3 => Hook::Flip(DffId::from_index(rng.below(nl.dff_count()))),
            4 => {
                let kinds = [BridgeKind::And, BridgeKind::Or, BridgeKind::Dominant];
                Hook::Bridge(net(rng), net(rng), kinds[rng.below(3)])
            }
            _ => Hook::Hold(1 + rng.below(4)),
        }
    }
}

/// Every lane's value of every net.
fn lane_values(word: &WordSim<'_>) -> Vec<[Logic; LANES]> {
    (0..word.netlist().net_count())
        .map(|i| std::array::from_fn(|lane| word.get_lane(NetId::from_index(i), lane)))
        .collect()
}

/// Runs a generated datapath on one word and on one scalar simulator per
/// lane, every lane carrying one random hook armed at a random cycle, the
/// stimulus alternating stretches that hold the inputs (the event-driven
/// path) with stretches that redraw every input every cycle (the plain
/// walk). After every `eval` it asserts that every net of every lane equals
/// its scalar twin, that `converged` equals a brute-force check over the
/// scalar runs, and that the changed-net report covers every net that
/// moved since the previous `eval`. Returns the event-driven and the plain
/// evaluations seen.
fn check_word_against_scalars(seed: u64) -> (usize, usize) {
    let mut rng = Rng(seed);
    let width = 2 + rng.below(5);
    let regs = 1 + rng.below(3);
    let gates = 4 + rng.below(40);
    let nl = gen::synthetic_datapath("w", width, regs, gates, seed).expect("valid");
    let inputs: Vec<NetId> = nl.inputs().to_vec();
    let cycles = 8 + rng.below(24);
    let start = rng.below(cycles / 2);
    let hooks: Vec<(usize, Hook)> = (1..1 + rng.below(12))
        .map(|_| (start + rng.below(cycles - start), Hook::draw(&mut rng, &nl)))
        .collect();
    let mut golden = Simulator::new(&nl).unwrap();
    let mut scalars: Vec<Simulator> = hooks.iter().map(|_| golden.clone_fresh()).collect();
    let mut word = WordSim::new(&nl).unwrap();
    let mut previous = lane_values(&word);
    let (mut events, mut plain) = (0, 0);
    let mut redraw = false;
    let mut held: Vec<Logic> = inputs.iter().map(|_| Logic::X).collect();
    for cycle in 0..cycles {
        if rng.below(4) == 0 {
            redraw = !redraw;
        }
        // a redraw stretch drives every input anew; a hold stretch drives
        // a few inputs, mostly to the values they already hold
        let mut drive = Vec::new();
        for (k, &net) in inputs.iter().enumerate() {
            if redraw || rng.below(8) == 0 {
                if redraw || rng.below(3) == 0 {
                    held[k] = rng.value();
                }
                drive.push((net, held[k]));
            }
        }
        for sim in scalars.iter_mut().chain([&mut golden]) {
            drive.iter().for_each(|&(n, v)| sim.set(n, v));
        }
        golden.eval();
        if cycle == start && start > 0 {
            word.load_golden(cycle as u64, golden.values());
            previous = lane_values(&word);
        }
        if cycle >= start {
            drive.iter().for_each(|&(n, v)| word.set(n, v));
            // brute force: no hook live, and every flip-flop and every
            // net no gate drives agrees with the golden run in every lane
            let live = hooks.iter().any(|&(at, hook)| match hook {
                Hook::Force(..) | Hook::Bridge(..) => at < cycle,
                Hook::Hold(ticks) => at < cycle && cycle <= at + ticks,
                Hook::Pulse(..) | Hook::Flip(_) => false,
            });
            let settled = scalars.iter().all(|sim| {
                let states = sim.ff_states().iter().zip(golden.ff_states());
                let sources = (0..nl.net_count())
                    .map(NetId::from_index)
                    .filter(|&n| !matches!(nl.net(n).driver, Driver::Gate(_) | Driver::Dff(_)));
                states.clone().all(|(a, b)| a.resolved() == b.resolved())
                    && sources
                        .clone()
                        .all(|n| sim.get(n).resolved() == golden.get(n).resolved())
            });
            assert_eq!(
                word.converged(),
                !live && settled,
                "seed {seed}, cycle {cycle}: converged"
            );
        }
        for (i, &(at, hook)) in hooks.iter().enumerate() {
            let (lane, sim) = (i + 1, &mut scalars[i]);
            match hook {
                Hook::Force(n, v) if cycle == at => {
                    word.force_lane(n, lane, v);
                    sim.force(n, v);
                }
                Hook::Pulse(n, v) if cycle == at => {
                    word.pulse_lane(n, lane, v);
                    sim.pulse(n, v);
                }
                Hook::Flip(ff) if cycle == at => {
                    word.flip_lane(ff, lane);
                    sim.flip_ff(ff);
                }
                Hook::Bridge(a, v, kind) if cycle == at => {
                    word.bridge_lane(a, v, lane, kind);
                    sim.add_bridge(a, v, kind);
                }
                Hook::Hold(ticks) => {
                    if cycle == at {
                        word.hold_clock_lane(lane, true);
                        sim.suppress_clock(true);
                    }
                    if cycle == at + ticks {
                        word.hold_clock_lane(lane, false);
                        sim.suppress_clock(false);
                    }
                }
                _ => {}
            }
        }
        scalars.iter_mut().for_each(Simulator::eval);
        if cycle >= start {
            word.eval();
            let now = lane_values(&word);
            for (lane, sim) in std::iter::once(&golden).chain(&scalars).enumerate() {
                for (i, values) in now.iter().enumerate() {
                    let net = NetId::from_index(i);
                    assert_eq!(
                        values[lane],
                        sim.get(net).resolved(),
                        "seed {seed}, cycle {cycle}: lane {lane} ({:?}) diverges on net {}",
                        hooks.get(lane.wrapping_sub(1)),
                        nl.net(net).name
                    );
                }
            }
            match word.changed_nets() {
                None => plain += 1,
                Some(changed) => {
                    events += 1;
                    for (i, (a, b)) in previous.iter().zip(&now).enumerate() {
                        assert!(
                            a == b || changed.contains(&NetId::from_index(i)),
                            "seed {seed}, cycle {cycle}: net {} moved unreported",
                            nl.net(NetId::from_index(i)).name
                        );
                    }
                }
            }
            previous = now;
            word.tick();
        }
        golden.tick();
        scalars.iter_mut().for_each(Simulator::tick);
    }
    (events, plain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn event_driven_words_match_one_scalar_run_per_lane(seed: u64) {
        check_word_against_scalars(seed);
    }
}

#[test]
fn the_word_cases_take_both_walks() {
    let (events, plain) = (1..=24)
        .map(check_word_against_scalars)
        .fold((0, 0), |(e, p), (de, dp)| (e + de, p + dp));
    assert!(
        events > 0 && plain > 0,
        "{events} event walks, {plain} plain walks"
    );
}
