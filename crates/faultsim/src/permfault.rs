//! Permanent-fault (stuck-at) simulation: serial and 64-way bit-parallel.
//!
//! Validation steps (b) and (c) of the paper need a fault simulator: "the
//! efficiency of the workload ... is measured, for instance by using a
//! toggle count coverage or a standard fault coverage" and "for critical
//! areas ... the fault simulator can be used to precisely measure the fault
//! coverage vs permanent faults respect the workload and the implemented
//! diagnostic". The commercial tool the paper references is replaced here by
//!
//! * [`serial_coverage`] — one four-state simulation per fault. This is the
//!   *differential reference*: deliberately simple (one [`Simulator`] run
//!   per fault, no batching), it exists so the bit-parallel path has an
//!   independent implementation to be tested against, and
//! * [`ppsfp_coverage`] — parallel-pattern single-fault-propagation on the
//!   word-level [`WordSim`] core: [`FAULT_LANES`] faulty machines ride the
//!   lanes of each word next to the golden machine in lane 0, so the
//!   netlist is evaluated once per cycle for the whole batch. Four-state
//!   exact — the same two-plane encoding the campaign's `Engine::Ppsfp`
//!   uses, so X-propagation matches the serial reference bit for bit.
//!
//! Both report per-fault detection (any cycle where a functional output
//! differs from a known golden value) and aggregate coverage.

use socfmea_netlist::{Logic, NetId, Netlist};
use socfmea_sim::{Simulator, WordSim, Workload, FAULT_LANES};

/// A collapsed single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StuckAtFault {
    /// The faulted net.
    pub net: NetId,
    /// Stuck polarity: `true` = stuck-at-1.
    pub stuck_high: bool,
}

/// The complete collapsed stuck-at universe of a netlist: both polarities on
/// every gate output and flip-flop output, collapsed through
/// buffer/inverter chains and deduplicated.
pub fn fault_universe(netlist: &Netlist) -> Vec<StuckAtFault> {
    let chains = crate::faultlist::ChainLinks::new(netlist);
    let mut set = std::collections::BTreeSet::new();
    let mut add = |net: NetId, value: Logic| {
        let (n, v) = chains.canonical(net, value);
        set.insert(StuckAtFault {
            net: n,
            stuck_high: v == Logic::One,
        });
    };
    for g in netlist.gates() {
        add(g.output, Logic::Zero);
        add(g.output, Logic::One);
    }
    for ff in netlist.dffs() {
        add(ff.q, Logic::Zero);
        add(ff.q, Logic::One);
    }
    set.into_iter().collect()
}

/// Per-fault grading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultGrade {
    /// The workload drove the net to the opposite value at least once (the
    /// fault was *excited*). A never-excited fault is untestable by this
    /// workload regardless of observation.
    pub excited: bool,
    /// A functional/alarm output deviated from golden.
    pub detected: bool,
}

/// Result of a permanent-fault simulation run.
#[derive(Debug, Clone)]
pub struct PermanentFaultReport {
    /// Every simulated fault with its grading.
    pub faults: Vec<(StuckAtFault, FaultGrade)>,
}

impl PermanentFaultReport {
    /// Number of simulated faults.
    pub fn total(&self) -> usize {
        self.faults.len()
    }

    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.faults.iter().filter(|&&(_, g)| g.detected).count()
    }

    /// Number of excited faults.
    pub fn excited(&self) -> usize {
        self.faults.iter().filter(|&&(_, g)| g.excited).count()
    }

    /// Raw fault coverage in `0..=1` (1.0 for an empty universe).
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            return 1.0;
        }
        self.detected() as f64 / self.total() as f64
    }

    /// Coverage over the *testable* (excited) universe — the figure fault
    /// grading reports after dropping workload-untestable faults.
    pub fn coverage_of_excited(&self) -> f64 {
        let e = self.excited();
        if e == 0 {
            return 1.0;
        }
        self.detected() as f64 / e as f64
    }

    /// The undetected faults (test holes).
    pub fn undetected(&self) -> Vec<StuckAtFault> {
        self.faults
            .iter()
            .filter(|&&(_, g)| !g.detected)
            .map(|&(f, _)| f)
            .collect()
    }

    /// Excited-but-undetected faults: real propagation holes.
    pub fn excited_undetected(&self) -> Vec<StuckAtFault> {
        self.faults
            .iter()
            .filter(|&&(_, g)| g.excited && !g.detected)
            .map(|&(f, _)| f)
            .collect()
    }
}

/// Serial fault simulation: one full four-state run per fault.
///
/// Exact but slow — kept as the independent differential reference against
/// which [`ppsfp_coverage`] (and, transitively, the campaign's bit-parallel
/// engine) is validated. Reach for [`ppsfp_coverage`] in production code.
///
/// # Panics
///
/// Panics if the netlist cannot be levelized.
pub fn serial_coverage(
    netlist: &Netlist,
    workload: &Workload,
    outputs: &[NetId],
    faults: &[StuckAtFault],
) -> PermanentFaultReport {
    // golden trace (outputs + each fault's own net, for excitation)
    let mut fault_nets: Vec<NetId> = faults.iter().map(|f| f.net).collect();
    fault_nets.sort_unstable();
    fault_nets.dedup();
    let mut golden = Simulator::new(netlist).expect("levelizable netlist");
    let mut golden_rows: Vec<Vec<Logic>> = Vec::with_capacity(workload.len());
    let mut net_rows: Vec<Vec<Logic>> = Vec::with_capacity(workload.len());
    workload.run(&mut golden, |_, s| {
        golden_rows.push(outputs.iter().map(|&n| s.get(n)).collect());
        net_rows.push(fault_nets.iter().map(|&n| s.get(n)).collect());
    });
    let col_of = |n: NetId| fault_nets.binary_search(&n).expect("recorded");

    let mut results = Vec::with_capacity(faults.len());
    for &fault in faults {
        let col = col_of(fault.net);
        let opposite = Logic::from_bool(!fault.stuck_high);
        let excited = net_rows.iter().any(|row| row[col] == opposite);
        let mut sim = Simulator::new(netlist).expect("levelizable netlist");
        sim.force(
            fault.net,
            if fault.stuck_high {
                Logic::One
            } else {
                Logic::Zero
            },
        );
        let mut detected = false;
        let mut cycle = 0usize;
        workload.run(&mut sim, |_, s| {
            if !detected {
                for (oi, &n) in outputs.iter().enumerate() {
                    let g = golden_rows[cycle][oi];
                    if g.is_known() && s.get(n) != g {
                        detected = true;
                        break;
                    }
                }
            }
            cycle += 1;
        });
        results.push((fault, FaultGrade { excited, detected }));
    }
    PermanentFaultReport { faults: results }
}

/// PPSFP fault simulation: packs up to [`FAULT_LANES`] faults per pass on
/// the word-level [`WordSim`] core (lane 0 = golden).
///
/// Four-state exact: the two-plane lane encoding carries `X`/`Z`, so the
/// grading matches [`serial_coverage`] bit for bit — including designs
/// whose state is not fully defined at power-on.
///
/// # Panics
///
/// Panics if the netlist cannot be levelized.
pub fn ppsfp_coverage(
    netlist: &Netlist,
    workload: &Workload,
    outputs: &[NetId],
    faults: &[StuckAtFault],
) -> PermanentFaultReport {
    let mut word = WordSim::new(netlist).expect("levelizable netlist");
    let mut results = Vec::with_capacity(faults.len());
    for batch in faults.chunks(FAULT_LANES) {
        word.reset_to_power_on();
        for (i, f) in batch.iter().enumerate() {
            let value = if f.stuck_high {
                Logic::One
            } else {
                Logic::Zero
            };
            word.force_lane(f.net, i + 1, value);
        }
        let mut detected_mask = 0u64;
        let mut excited = vec![false; batch.len()];
        for cycle in workload.iter() {
            for &(n, v) in cycle {
                word.set(n, v);
            }
            word.eval();
            // excitation: the golden machine (lane 0) drives the fault net
            // to the exact opposite of the stuck value — the forced lane
            // hides it in the fault's own machine, so read lane 0.
            for (i, f) in batch.iter().enumerate() {
                if !excited[i] {
                    let golden_one = word.one_mask(f.net) & 1 != 0;
                    excited[i] = if f.stuck_high {
                        word.golden_known(f.net) && !golden_one
                    } else {
                        golden_one
                    };
                }
            }
            // detection: a faulty lane deviates from a *known* golden value
            // at a functional output (same monitor form as the serial
            // reference and the campaign engine)
            for &o in outputs {
                if word.golden_known(o) {
                    detected_mask |= word.diff_mask(o);
                }
            }
            word.tick();
        }
        for (i, &f) in batch.iter().enumerate() {
            results.push((
                f,
                FaultGrade {
                    excited: excited[i],
                    detected: detected_mask & (1u64 << (i + 1)) != 0,
                },
            ));
        }
    }
    PermanentFaultReport { faults: results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::assign_bus;

    fn pipeline_design() -> socfmea_netlist::Netlist {
        let mut r = RtlBuilder::new("pp");
        let d = r.input_word("d", 4);
        let inv = r.not(&d);
        let q = r.register("q", &inv, None, None);
        let back = r.not(&q);
        r.output_word("o", &back);
        r.finish().unwrap()
    }

    fn counting_workload(nl: &socfmea_netlist::Netlist, cycles: u64) -> Workload {
        let d: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..cycles {
            let mut v = Vec::new();
            assign_bus(&mut v, &d, c % 16);
            w.push_cycle(v);
        }
        w
    }

    #[test]
    fn universe_is_collapsed_and_nonempty() {
        let nl = pipeline_design();
        let faults = fault_universe(&nl);
        assert!(!faults.is_empty());
        // collapsed sites are unique
        let mut sorted = faults.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), faults.len());
        // buffers/inverter outputs are collapsed away: every site must be a
        // collapse fixpoint
        for f in &faults {
            let v = if f.stuck_high {
                Logic::One
            } else {
                Logic::Zero
            };
            assert_eq!(
                crate::faultlist::collapse_stuck_at(&nl, f.net, v),
                (f.net, v)
            );
        }
    }

    #[test]
    fn exhaustive_workload_detects_everything() {
        let nl = pipeline_design();
        let w = counting_workload(&nl, 20);
        let faults = fault_universe(&nl);
        let report = serial_coverage(&nl, &w, nl.outputs(), &faults);
        assert_eq!(
            report.coverage(),
            1.0,
            "undetected: {:?}",
            report.undetected()
        );
    }

    #[test]
    fn constant_workload_leaves_holes() {
        let nl = pipeline_design();
        let mut w = Workload::new("idle");
        let d: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut v = Vec::new();
        assign_bus(&mut v, &d, 0);
        w.push_cycle(v);
        w.push_idle(5);
        let faults = fault_universe(&nl);
        let report = serial_coverage(&nl, &w, nl.outputs(), &faults);
        assert!(report.coverage() < 1.0);
        assert!(!report.undetected().is_empty());
    }

    #[test]
    fn ppsfp_matches_serial() {
        let nl = pipeline_design();
        let w = counting_workload(&nl, 12);
        let faults = fault_universe(&nl);
        let serial = serial_coverage(&nl, &w, nl.outputs(), &faults);
        let packed = ppsfp_coverage(&nl, &w, nl.outputs(), &faults);
        assert_eq!(serial.total(), packed.total());
        for (s, p) in serial.faults.iter().zip(&packed.faults) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1.detected, p.1.detected, "fault {:?} disagrees", s.0);
        }
    }

    #[test]
    fn ppsfp_handles_more_than_one_batch() {
        // synthetic datapath with > 63 fault sites
        let nl = socfmea_rtl::gen::synthetic_datapath("big", 8, 2, 60, 11).unwrap();
        let d: Vec<_> = (0..8)
            .map(|i| nl.net_by_name(&format!("din[{i}]")).unwrap())
            .collect();
        let rst = nl.net_by_name("rst").unwrap();
        let mut w = Workload::new("mix");
        for c in 0..24u64 {
            let mut v = vec![(rst, if c == 0 { Logic::One } else { Logic::Zero })];
            assign_bus(&mut v, &d, c.wrapping_mul(0x9e37) % 256);
            w.push_cycle(v);
        }
        let faults = fault_universe(&nl);
        assert!(faults.len() > FAULT_LANES);
        let serial = serial_coverage(&nl, &w, nl.outputs(), &faults);
        let packed = ppsfp_coverage(&nl, &w, nl.outputs(), &faults);
        let agree = serial
            .faults
            .iter()
            .zip(&packed.faults)
            .filter(|(s, p)| s.1 == p.1)
            .count();
        assert_eq!(agree, faults.len());
    }

    #[test]
    fn ppsfp_matches_serial_under_x_stimulus() {
        // the four-state lane encoding must track X-propagation exactly:
        // drive X onto the inputs for whole cycles and compare gradings
        let nl = pipeline_design();
        let d: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("xmix");
        for c in 0..16u64 {
            let mut v = Vec::new();
            if c % 3 == 0 {
                v.extend(d.iter().map(|&n| (n, Logic::X)));
            } else {
                assign_bus(&mut v, &d, c % 16);
            }
            w.push_cycle(v);
        }
        let faults = fault_universe(&nl);
        let serial = serial_coverage(&nl, &w, nl.outputs(), &faults);
        let packed = ppsfp_coverage(&nl, &w, nl.outputs(), &faults);
        for (s, p) in serial.faults.iter().zip(&packed.faults) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1, p.1, "fault {:?} disagrees under X stimulus", s.0);
        }
    }
}
