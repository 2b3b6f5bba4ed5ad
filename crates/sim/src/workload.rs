//! Deterministic, replayable stimulus sequences.
//!
//! A *workload* in the paper is the testbench replayed identically over the
//! golden and every faulty design copy, so that any output deviation is
//! attributable to the injected fault alone. Here a workload is a plain list
//! of per-cycle input assignments — trivially replayable and hashable.

use socfmea_netlist::{Logic, NetId};

/// Appends bus assignments (LSB first) to a cycle's input list.
///
/// # Example
///
/// ```
/// use socfmea_netlist::{Logic, NetId};
/// use socfmea_sim::assign_bus;
///
/// let bus = [NetId(0), NetId(1), NetId(2)];
/// let mut cycle = Vec::new();
/// assign_bus(&mut cycle, &bus, 0b101);
/// assert_eq!(cycle[0], (NetId(0), Logic::One));
/// assert_eq!(cycle[1], (NetId(1), Logic::Zero));
/// ```
pub fn assign_bus(cycle: &mut Vec<(NetId, Logic)>, nets: &[NetId], value: u64) {
    for (i, &n) in nets.iter().enumerate() {
        cycle.push((n, Logic::from_bool((value >> i) & 1 == 1)));
    }
}

/// A named, deterministic stimulus sequence: one input-assignment list per
/// cycle.
///
/// # Example
///
/// ```
/// use socfmea_netlist::{Logic, NetId};
/// use socfmea_sim::Workload;
///
/// let mut w = Workload::new("smoke");
/// w.push_cycle(vec![(NetId(0), Logic::One)]);
/// w.push_cycle(vec![(NetId(0), Logic::Zero)]);
/// assert_eq!(w.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Workload {
    name: String,
    cycles: Vec<Vec<(NetId, Logic)>>,
}

impl Workload {
    /// Heap bytes of the name and the per-cycle input lists.
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.cycles.capacity() * std::mem::size_of::<Vec<(NetId, Logic)>>()
            + self
                .cycles
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<(NetId, Logic)>())
                .sum::<usize>()
    }

    /// Creates an empty workload.
    pub fn new(name: impl Into<String>) -> Workload {
        Workload {
            name: name.into(),
            cycles: Vec::new(),
        }
    }

    /// The workload's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one cycle of input assignments.
    pub fn push_cycle(&mut self, assignments: Vec<(NetId, Logic)>) {
        self.cycles.push(assignments);
    }

    /// Appends `n` idle cycles (no assignment changes).
    pub fn push_idle(&mut self, n: usize) {
        for _ in 0..n {
            self.cycles.push(Vec::new());
        }
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True when the workload has no cycles.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The assignments of cycle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn cycle(&self, i: usize) -> &[(NetId, Logic)] {
        &self.cycles[i]
    }

    /// Iterates over cycles in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<(NetId, Logic)>> {
        self.cycles.iter()
    }

    /// Concatenates another workload after this one.
    pub fn extend_with(&mut self, other: &Workload) {
        self.cycles.extend(other.cycles.iter().cloned());
    }

    /// Runs the workload over a simulator from its current state, calling
    /// `observe` after each cycle's evaluation (before the clock edge).
    pub fn run<F>(&self, sim: &mut crate::Simulator<'_>, mut observe: F)
    where
        F: FnMut(usize, &crate::Simulator<'_>),
    {
        for (i, cycle) in self.cycles.iter().enumerate() {
            for &(n, v) in cycle {
                sim.set(n, v);
            }
            sim.eval();
            observe(i, sim);
            sim.tick();
        }
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a Vec<(NetId, Logic)>;
    type IntoIter = std::slice::Iter<'a, Vec<(NetId, Logic)>>;

    fn into_iter(self) -> Self::IntoIter {
        self.cycles.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use socfmea_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn run_drives_and_observes_each_cycle() {
        let mut b = NetlistBuilder::new("w");
        let a = b.input("a");
        let q = b.dff("q", a);
        b.output("o", q);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();

        let mut w = Workload::new("pattern");
        for v in [1u64, 0, 1, 1] {
            let mut c = Vec::new();
            assign_bus(&mut c, &[a], v);
            w.push_cycle(c);
        }
        let mut seen = Vec::new();
        w.run(&mut sim, |i, s| {
            seen.push((i, s.get(a)));
        });
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0].1, Logic::One);
        assert_eq!(seen[1].1, Logic::Zero);
        // after the run, q holds the last driven value
        assert_eq!(sim.get(nl.net_by_name("q").unwrap()), Logic::One);
    }

    #[test]
    fn idle_cycles_hold_inputs() {
        let mut b = NetlistBuilder::new("w");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, &[a], "y");
        b.output("o", y);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let mut w = Workload::new("idle");
        w.push_cycle(vec![(a, Logic::One)]);
        w.push_idle(3);
        assert_eq!(w.len(), 4);
        let mut values = Vec::new();
        w.run(&mut sim, |_, s| {
            values.push(s.get(nl.net_by_name("y").unwrap()))
        });
        assert!(values.iter().all(|&v| v == Logic::One));
    }

    #[test]
    fn workloads_compose() {
        let mut a = Workload::new("a");
        a.push_idle(2);
        let mut b = Workload::new("b");
        b.push_idle(3);
        a.extend_with(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.name(), "a");
        assert!(!a.is_empty());
    }
}
