//! Correlation analysis between logic cones.
//!
//! The paper distinguishes physical faults by how many sensible-zone cones
//! they can disturb (§3):
//!
//! * **local** — the fault site belongs to exactly one cone,
//! * **wide** — the site is shared by two or more cones (one physical fault
//!   → multiple zone failures, Figure 2),
//! * **global** — clock/reset/power faults touching many cones at once.
//!
//! [`gate_membership`] computes, for a set of cones, how many cones each gate
//! belongs to; [`CorrelationMatrix`] records pairwise shared-gate counts —
//! the "correlation between each sensible zone in terms of shared gates and
//! nets" the extraction tool delivers.

use crate::cone::Cone;
use crate::ids::GateId;
use crate::netlist::Netlist;
use std::collections::HashMap;

/// Fan class of a physical fault site, by cone membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateFan {
    /// Belongs to no analysed cone (dead or un-zoned logic).
    Unassigned,
    /// Belongs to exactly one cone — a *local* fault site.
    Local,
    /// Shared by 2+ cones — a *wide* fault site.
    Wide,
}

/// Per-gate cone membership over a set of cones, held as two flat arrays
/// (the cones containing gate `g` are `cones[start[g]..start[g + 1]]`)
/// rather than one allocation per gate.
#[derive(Debug, Clone)]
pub struct GateMembership {
    start: Vec<u32>,
    cones: Vec<usize>,
}

impl GateMembership {
    /// Heap bytes of the two membership arrays.
    pub fn heap_bytes(&self) -> usize {
        self.start.capacity() * std::mem::size_of::<u32>()
            + self.cones.capacity() * std::mem::size_of::<usize>()
    }

    /// The indices of the cones that contain `gate`, ascending.
    pub fn cones_of(&self, gate: GateId) -> &[usize] {
        let at = gate.index();
        &self.cones[self.start[at] as usize..self.start[at + 1] as usize]
    }

    /// Every gate with the cones that contain it, in gate order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &[usize])> + '_ {
        (0..self.start.len() - 1).map(|g| {
            let gate = GateId::from_index(g);
            (gate, self.cones_of(gate))
        })
    }

    /// Classifies a gate as local/wide/unassigned.
    pub fn fan(&self, gate: GateId) -> GateFan {
        match self.cones_of(gate).len() {
            0 => GateFan::Unassigned,
            1 => GateFan::Local,
            _ => GateFan::Wide,
        }
    }

    /// Counts gates in each fan class, returned as
    /// `(unassigned, local, wide)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for (_, v) in self.iter() {
            match v.len() {
                0 => counts.0 += 1,
                1 => counts.1 += 1,
                _ => counts.2 += 1,
            }
        }
        counts
    }
}

/// Computes per-gate cone membership for a set of cones.
///
/// # Example
///
/// ```
/// use socfmea_netlist::{GateKind, NetlistBuilder, fanin_cone, gate_membership};
/// use socfmea_netlist::correlate::GateFan;
///
/// // `shared` feeds both outputs: its gate is a wide fault site.
/// let mut b = NetlistBuilder::new("wide");
/// let a = b.input("a");
/// let shared = b.gate(GateKind::Not, &[a], "shared");
/// let y0 = b.gate(GateKind::Buf, &[shared], "y0");
/// let y1 = b.gate(GateKind::Buf, &[shared], "y1");
/// b.output("o0", y0);
/// b.output("o1", y1);
/// let nl = b.finish()?;
/// let cones = vec![
///     fanin_cone(&nl, nl.net_by_name("o0").unwrap()),
///     fanin_cone(&nl, nl.net_by_name("o1").unwrap()),
/// ];
/// let members = gate_membership(&nl, &cones);
/// let shared_gate = nl.gates().iter().position(|g| g.name == "shared").unwrap();
/// assert_eq!(members.fan(socfmea_netlist::GateId(shared_gate as u32)), GateFan::Wide);
/// # Ok::<(), socfmea_netlist::NetlistError>(())
/// ```
pub fn gate_membership(netlist: &Netlist, cones: &[Cone]) -> GateMembership {
    // count each gate's cones, turn the counts into offsets, then place
    // every cone index at its gate's next free slot
    let mut start = vec![0u32; netlist.gate_count() + 1];
    for cone in cones {
        for &g in &cone.gates {
            start[g.index() + 1] += 1;
        }
    }
    for g in 0..netlist.gate_count() {
        start[g + 1] += start[g];
    }
    let mut next = start.clone();
    let mut members = vec![0; start[netlist.gate_count()] as usize];
    for (ci, cone) in cones.iter().enumerate() {
        for &g in &cone.gates {
            members[next[g.index()] as usize] = ci;
            next[g.index()] += 1;
        }
    }
    GateMembership {
        start,
        cones: members,
    }
}

/// Pairwise shared-gate counts between cones, stored sparsely.
#[derive(Debug, Clone, Default)]
pub struct CorrelationMatrix {
    /// `(i, j) -> shared gate count`, with `i < j`.
    shared: HashMap<(usize, usize), usize>,
    cone_count: usize,
}

impl CorrelationMatrix {
    /// Approximate heap bytes of the shared-gate map: its bucket array
    /// (capacity rounded up to a power of two at 7/8 load) with one
    /// control byte per bucket.
    pub fn heap_bytes(&self) -> usize {
        if self.shared.capacity() == 0 {
            return 0;
        }
        let buckets = (self.shared.capacity() * 8 / 7).next_power_of_two();
        buckets * (std::mem::size_of::<((usize, usize), usize)>() + 1)
    }

    /// Builds the matrix from per-gate membership.
    pub fn from_membership(membership: &GateMembership, cone_count: usize) -> CorrelationMatrix {
        let mut shared: HashMap<(usize, usize), usize> = HashMap::new();
        for (_, cones) in membership.iter() {
            for (a_pos, &a) in cones.iter().enumerate() {
                for &b in &cones[a_pos + 1..] {
                    let key = (a.min(b), a.max(b));
                    *shared.entry(key).or_insert(0) += 1;
                }
            }
        }
        CorrelationMatrix { shared, cone_count }
    }

    /// Number of gates shared between cones `i` and `j`.
    ///
    /// # Contract
    ///
    /// * Symmetric: `shared_gates(i, j) == shared_gates(j, i)`.
    /// * The diagonal is defined as `0`: a cone trivially shares every gate
    ///   with itself, which is never a *wide* (cross-zone) fault site, so
    ///   `i == j` returns `0` rather than the cone's gate count.
    /// * Indices at or past [`cone_count`](Self::cone_count) name no cone;
    ///   they return `0` in release builds and panic with a clear message in
    ///   debug builds (out-of-range lookups are caller bugs, not data).
    pub fn shared_gates(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < self.cone_count && j < self.cone_count,
            "shared_gates({i}, {j}) out of range: matrix was built over {} cone(s)",
            self.cone_count
        );
        if i == j || i >= self.cone_count || j >= self.cone_count {
            return 0;
        }
        self.shared.get(&(i.min(j), i.max(j))).copied().unwrap_or(0)
    }

    /// All correlated pairs `(i, j, shared)` with `shared > 0`, sorted by
    /// descending overlap.
    pub fn correlated_pairs(&self) -> Vec<(usize, usize, usize)> {
        let mut v: Vec<_> = self.shared.iter().map(|(&(i, j), &s)| (i, j, s)).collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        v
    }

    /// Number of cones this matrix was built over.
    pub fn cone_count(&self) -> usize {
        self.cone_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::fanin_cone;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

    fn shared_design() -> (Netlist, Vec<Cone>) {
        // inv -> {y0 via b0, y1 via b1}; y2 independent
        let mut b = NetlistBuilder::new("wide");
        let a = b.input("a");
        let c = b.input("c");
        let inv = b.gate(GateKind::Not, &[a], "inv");
        let y0 = b.gate(GateKind::Buf, &[inv], "y0");
        let y1 = b.gate(GateKind::Buf, &[inv], "y1");
        let y2 = b.gate(GateKind::Buf, &[c], "y2");
        let _ = b.dff("q0", y0);
        let _ = b.dff("q1", y1);
        let _ = b.dff("q2", y2);
        let nl = b.finish().unwrap();
        let cones = ["y0", "y1", "y2"]
            .iter()
            .map(|n| fanin_cone(&nl, nl.net_by_name(n).unwrap()))
            .collect();
        (nl, cones)
    }

    #[test]
    fn membership_classifies_local_and_wide() {
        let (nl, cones) = shared_design();
        let m = gate_membership(&nl, &cones);
        let by_name = |name: &str| {
            GateId::from_index(nl.gates().iter().position(|g| g.name == name).unwrap())
        };
        assert_eq!(m.fan(by_name("inv")), GateFan::Wide);
        assert_eq!(m.fan(by_name("y0")), GateFan::Local);
        assert_eq!(m.fan(by_name("y2")), GateFan::Local);
        let (_un, local, wide) = m.census();
        assert_eq!(local, 3);
        assert_eq!(wide, 1);
        assert_eq!(m.cones_of(by_name("inv")), [0, 1]);
        assert_eq!(m.cones_of(by_name("y2")), [2]);
        // the flat arrays list exactly the cones that contain each gate
        assert_eq!(m.iter().count(), nl.gate_count());
        for (gate, listed) in m.iter() {
            let want: Vec<usize> = (0..cones.len())
                .filter(|&c| cones[c].gates.contains(&gate))
                .collect();
            assert_eq!(listed, want.as_slice(), "{gate:?}");
        }
    }

    #[test]
    fn correlation_matrix_counts_shared_gates() {
        let (nl, cones) = shared_design();
        let m = gate_membership(&nl, &cones);
        let corr = CorrelationMatrix::from_membership(&m, cones.len());
        assert_eq!(corr.shared_gates(0, 1), 1); // the `inv` gate
        assert_eq!(corr.shared_gates(1, 0), 1); // symmetric
        assert_eq!(corr.shared_gates(0, 2), 0);
        assert_eq!(corr.shared_gates(0, 0), 0);
        assert_eq!(corr.correlated_pairs(), vec![(0, 1, 1)]);
        assert_eq!(corr.cone_count(), 3);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out of range"))]
    fn shared_gates_rejects_out_of_range_indices() {
        let (nl, cones) = shared_design();
        let m = gate_membership(&nl, &cones);
        let corr = CorrelationMatrix::from_membership(&m, cones.len());
        // debug builds panic with a clear message; release builds return 0
        assert_eq!(corr.shared_gates(0, cones.len()), 0);
        assert_eq!(corr.shared_gates(cones.len() + 7, 1), 0);
    }

    #[test]
    fn diagonal_is_zero_even_for_nonempty_cones() {
        let (nl, cones) = shared_design();
        let m = gate_membership(&nl, &cones);
        let corr = CorrelationMatrix::from_membership(&m, cones.len());
        for i in 0..cones.len() {
            assert_eq!(corr.shared_gates(i, i), 0);
        }
    }
}
