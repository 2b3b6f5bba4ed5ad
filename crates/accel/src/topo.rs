//! Static propagation structure: the levelized gate order plus per-net
//! fan-out adjacency.
//!
//! The static testability analysis (`socfmea-static`) walks it: constant
//! propagation in levelized order, and the structural fan-out cone behind
//! every no-path-to-monitor proof.

use socfmea_netlist::{levelize, DffId, GateId, LevelizeError, NetId, Netlist};

/// Per-netlist propagation structure: the same topological gate order a
/// [`Simulator`](socfmea_sim::Simulator) evaluates in, inverted into
/// reader lists so a change on one net wakes only its fan-out.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The levelized gate evaluation order itself.
    order: Vec<GateId>,
    /// Gates reading each net (by [`NetId::index`]).
    gate_readers: Readers<GateId>,
    /// Flip-flops reading each net through `d`/`enable`/`reset`.
    dff_readers: Readers<DffId>,
    /// Output net of each gate (by [`GateId::index`]).
    gate_out: Vec<NetId>,
    /// `q` net of each flip-flop (by [`DffId::index`]).
    dff_q: Vec<NetId>,
}

impl Topology {
    /// Builds the propagation structure for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the netlist contains a combinational
    /// cycle (the same condition that makes it unsimulatable).
    pub fn build(netlist: &Netlist) -> Result<Topology, LevelizeError> {
        Ok(Topology {
            order: levelize(netlist)?,
            gate_readers: Readers::new(netlist.gate_fanout()),
            dff_readers: Readers::new(netlist.dff_fanout()),
            gate_out: netlist.gates().iter().map(|g| g.output).collect(),
            dff_q: netlist.dffs().iter().map(|ff| ff.q).collect(),
        })
    }

    /// The levelized gate evaluation order (every gate exactly once, each
    /// after all gates driving its inputs).
    #[inline]
    pub fn levels(&self) -> &[GateId] {
        &self.order
    }

    /// Per-net reachability flags for the forward structural fan-out cone
    /// of `net`: `true` for every net (including `net` itself) reachable
    /// from it through gate evaluation *and* flip-flop state transfer
    /// (`d`/`enable`/`reset` → `q`). This is the set of nets a value
    /// change on `net` could ever influence, across any number of cycles.
    pub fn fanout_cone(&self, net: NetId) -> Vec<bool> {
        let mut reach = vec![false; self.gate_readers.nets()];
        let mut stack = vec![net];
        reach[net.index()] = true;
        while let Some(n) = stack.pop() {
            for &g in self.gate_readers.of(n.index()) {
                let out = self.gate_out[g.index()];
                if !reach[out.index()] {
                    reach[out.index()] = true;
                    stack.push(out);
                }
            }
            for &ff in self.dff_readers.of(n.index()) {
                let q = self.dff_q[ff.index()];
                if !reach[q.index()] {
                    reach[q.index()] = true;
                    stack.push(q);
                }
            }
        }
        reach
    }
}

/// Per-net reader lists in compressed sparse row form: the readers of net
/// `n` are `ids[start[n]..start[n + 1]]`. Two flat arrays instead of one
/// heap allocation per net.
#[derive(Debug, Clone)]
struct Readers<T> {
    start: Vec<u32>,
    ids: Vec<T>,
}

impl<T: Copy> Readers<T> {
    /// Flattens per-net lists, keeping each list's order.
    fn new(lists: Vec<Vec<T>>) -> Readers<T> {
        let mut start = Vec::with_capacity(lists.len() + 1);
        let mut ids = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        start.push(0);
        for list in lists {
            ids.extend(list);
            start.push(u32::try_from(ids.len()).expect("fewer than 2^32 readers"));
        }
        Readers { start, ids }
    }

    /// Number of nets.
    fn nets(&self) -> usize {
        self.start.len() - 1
    }

    /// The readers of the net with index `net_index`.
    #[inline]
    fn of(&self, net_index: usize) -> &[T] {
        &self.ids[self.start[net_index] as usize..self.start[net_index + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_rtl::RtlBuilder;

    #[test]
    fn readers_agree_with_gate_inputs_and_order_is_topological() {
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        let p = r.parity(&q);
        r.output_word("o", &q);
        r.output("flag", p);
        let nl = r.finish().unwrap();
        let topo = Topology::build(&nl).unwrap();
        let position = |g: GateId| topo.levels().iter().position(|&l| l == g).unwrap();
        for (gi, gate) in nl.gates().iter().enumerate() {
            let g = GateId::from_index(gi);
            for &i in &gate.inputs {
                assert!(topo.gate_readers.of(i.index()).contains(&g));
                // a reader always evaluates after the gate driving its input
                if let socfmea_netlist::Driver::Gate(drv) = nl.net(i).driver {
                    assert!(position(drv) < position(g));
                }
            }
        }
        for (fi, ff) in nl.dffs().iter().enumerate() {
            let id = DffId::from_index(fi);
            assert!(topo.dff_readers.of(ff.d.index()).contains(&id));
        }
    }

    #[test]
    fn flat_reader_lists_equal_the_netlist_fanout_in_order() {
        let nl = socfmea_rtl::gen::synthetic_datapath("csr", 4, 2, 24, 5).unwrap();
        let topo = Topology::build(&nl).unwrap();
        let (gates, dffs) = (nl.gate_fanout(), nl.dff_fanout());
        assert_eq!(topo.gate_readers.nets(), nl.net_count());
        for n in 0..nl.net_count() {
            assert_eq!(topo.gate_readers.of(n), gates[n].as_slice(), "net {n}");
            assert_eq!(topo.dff_readers.of(n), dffs[n].as_slice(), "net {n}");
        }
        // two flat arrays per reader kind: no allocation per net
        let readers: usize = gates.iter().map(Vec::len).sum::<usize>() * 4
            + dffs.iter().map(Vec::len).sum::<usize>() * 4;
        let nested = readers + 2 * nl.net_count() * size_of::<Vec<GateId>>();
        let (g, d) = (&topo.gate_readers, &topo.dff_readers);
        let flat = (g.start.len() + g.ids.len() + d.start.len() + d.ids.len()) * 4;
        assert!(flat < nested, "{flat} bytes flat vs {nested} nested");
    }

    #[test]
    fn levels_cover_every_gate_in_dependency_order() {
        let mut r = RtlBuilder::new("lv");
        let d = r.input_word("d", 3);
        let q = r.register("q", &d, None, None);
        let p = r.parity(&q);
        r.output("flag", p);
        let nl = r.finish().unwrap();
        let topo = Topology::build(&nl).unwrap();
        assert_eq!(topo.levels().len(), nl.gate_count());
        let mut seen = vec![false; nl.gate_count()];
        for &g in topo.levels() {
            assert!(!std::mem::replace(&mut seen[g.index()], true), "{g} twice");
        }
    }

    #[test]
    fn fanout_cone_crosses_dff_boundaries_and_stays_forward() {
        let mut r = RtlBuilder::new("fc");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        let p = r.parity(&q);
        r.output_word("o", &q);
        r.output("flag", p);
        let nl = r.finish().unwrap();
        let topo = Topology::build(&nl).unwrap();
        let d0 = nl.net_by_name("d[0]").unwrap();
        let d1 = nl.net_by_name("d[1]").unwrap();
        let cone = topo.fanout_cone(d0);
        assert!(cone[d0.index()], "a net is in its own cone");
        // d[0] reaches q[0] through the register and the parity flag past it
        assert!(cone[nl.net_by_name("q[0]").unwrap().index()]);
        assert!(cone[nl.net_by_name("flag").unwrap().index()]);
        // but never its sibling input
        assert!(!cone[d1.index()]);
        // and the flag output's cone is only itself (nothing reads it)
        let flag = nl.net_by_name("flag").unwrap();
        let fcone = topo.fanout_cone(flag);
        assert_eq!(fcone.iter().filter(|&&b| b).count(), 1);
    }
}
