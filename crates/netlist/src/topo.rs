//! Static propagation structure: the levelized gate order plus per-net
//! reader lists.
//!
//! The word-level simulator (`socfmea-sim`) wakes a net's readers through
//! it when the net changes, and the static testability analysis
//! (`socfmea-static`) walks it: constant propagation in levelized order,
//! and the structural fan-out cone behind every no-path-to-monitor proof.

use crate::ids::{DffId, GateId, NetId};
use crate::levelize::{levelize_with, LevelizeError};
use crate::netlist::Netlist;

/// Per-netlist propagation structure: the same topological gate order the
/// simulators evaluate in, inverted into reader lists so a change on one
/// net wakes only its fan-out.
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
        let gate_readers = Readers::gates(netlist);
        let dff_readers = Readers::count(
            netlist.net_count(),
            netlist.dffs().iter().enumerate().flat_map(|(fi, ff)| {
                let id = DffId::from_index(fi);
                [Some(ff.d), ff.enable, ff.reset]
                    .into_iter()
                    .flatten()
                    .map(move |net| (net, id))
            }),
        );
        Ok(Topology {
            order: levelize_with(netlist, &gate_readers)?,
            gate_readers,
            dff_readers,
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

    /// The gates reading `net`, in gate order (a gate reading it on two
    /// pins appears twice).
    #[inline]
    pub fn gate_readers(&self, net: NetId) -> &[GateId] {
        self.gate_readers.of(net.index())
    }

    /// The flip-flops reading `net` through `d`, `enable` or `reset`, in
    /// flip-flop order (one entry per pin).
    #[inline]
    pub fn dff_readers(&self, net: NetId) -> &[DffId] {
        self.dff_readers.of(net.index())
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
pub(crate) struct Readers<T> {
    start: Vec<u32>,
    ids: Vec<T>,
}

impl Readers<GateId> {
    /// The gates reading each net of `netlist`.
    pub(crate) fn gates(netlist: &Netlist) -> Readers<GateId> {
        Readers::count(
            netlist.net_count(),
            netlist.gates().iter().enumerate().flat_map(|(gi, g)| {
                let id = GateId::from_index(gi);
                g.inputs.iter().map(move |&net| (net, id))
            }),
        )
    }
}

impl<T: Copy> Readers<T> {
    /// Lists `(net, reader)` pairs per net by counting: one pass counts
    /// each net's readers, a prefix sum places the lists, and a second
    /// pass fills them, so every list keeps the pairs' order.
    fn count<I>(nets: usize, pairs: I) -> Readers<T>
    where
        I: Iterator<Item = (NetId, T)> + Clone,
    {
        let mut start = vec![0u32; nets + 1];
        for (net, _) in pairs.clone() {
            start[net.index() + 1] += 1;
        }
        for i in 0..nets {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        // every slot is written below; the first reader only fills the
        // vector to length
        let mut ids = match pairs.clone().next() {
            Some((_, first)) => vec![first; start[nets] as usize],
            None => Vec::new(),
        };
        for (net, id) in pairs {
            let slot = &mut fill[net.index()];
            ids[*slot as usize] = id;
            *slot += 1;
        }
        Readers { start, ids }
    }
}

impl<T> Readers<T> {
    /// Number of nets.
    fn nets(&self) -> usize {
        self.start.len() - 1
    }

    /// The readers of the net with index `net_index`.
    #[inline]
    pub(crate) fn of(&self, net_index: usize) -> &[T] {
        &self.ids[self.start[net_index] as usize..self.start[net_index + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::logic::Logic;
    use crate::netlist::{Driver, NetlistBuilder};

    /// A register of `width` bits loaded from inputs `d`, with an enable
    /// and a reset, and a parity tree over its outputs.
    fn register_with_parity(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("reg");
        let en = b.input("en");
        let rst = b.input("rst");
        let mut qs = Vec::new();
        for i in 0..width {
            let d = b.input(format!("d[{i}]"));
            let q = b.dff(format!("q[{i}]"), d);
            b.set_dff_controls(q, Some(en), Some(rst), Logic::Zero);
            b.output(format!("o[{i}]"), q);
            qs.push(q);
        }
        let mut p = qs[0];
        for (i, &q) in qs.iter().enumerate().skip(1) {
            p = b.gate(GateKind::Xor, &[p, q], format!("par{i}"));
        }
        b.output("flag", p);
        b.finish().unwrap()
    }

    /// A random feed-forward netlist: gates over a growing pool of nets,
    /// some read twice by one gate, with flip-flops fed from the pool.
    fn scrambled(seed: u64) -> Netlist {
        let mut rng = seed | 1;
        let mut next = move |m: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % m as u64) as usize
        };
        let mut b = NetlistBuilder::new("scr");
        let mut pool: Vec<NetId> = (0..6).map(|i| b.input(format!("i{i}"))).collect();
        let qs: Vec<NetId> = (0..4).map(|i| b.dff_placeholder(format!("q{i}"))).collect();
        pool.extend(&qs);
        let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Mux2];
        for gi in 0..60 {
            let kind = kinds[next(kinds.len())];
            let arity = if kind == GateKind::Mux2 { 3 } else { 2 };
            let ins: Vec<NetId> = (0..arity).map(|_| pool[next(pool.len())]).collect();
            let out = b.gate(kind, &ins, format!("g{gi}"));
            pool.push(out);
        }
        for (i, &q) in qs.iter().enumerate() {
            b.bind_dff(&format!("q{i}"), pool[pool.len() - 1 - i]);
            b.set_dff_controls(q, Some(pool[next(pool.len())]), None, Logic::Zero);
        }
        b.output("out", *pool.last().unwrap());
        b.finish().unwrap()
    }

    #[test]
    fn readers_agree_with_gate_inputs_and_order_is_topological() {
        let nl = register_with_parity(2);
        let topo = Topology::build(&nl).unwrap();
        let position = |g: GateId| topo.levels().iter().position(|&l| l == g).unwrap();
        for (gi, gate) in nl.gates().iter().enumerate() {
            let g = GateId::from_index(gi);
            for &i in &gate.inputs {
                assert!(topo.gate_readers(i).contains(&g));
                // a reader always evaluates after the gate driving its input
                if let Driver::Gate(drv) = nl.net(i).driver {
                    assert!(position(drv) < position(g));
                }
            }
        }
        for (fi, ff) in nl.dffs().iter().enumerate() {
            let id = DffId::from_index(fi);
            assert!(topo.dff_readers(ff.d).contains(&id));
        }
    }

    #[test]
    fn counted_reader_lists_equal_the_netlist_fanout_in_order() {
        for seed in 1..6 {
            let nl = scrambled(seed);
            let topo = Topology::build(&nl).unwrap();
            let (gates, dffs) = (nl.gate_fanout(), nl.dff_fanout());
            assert_eq!(topo.gate_readers.nets(), nl.net_count());
            for n in 0..nl.net_count() {
                let net = NetId::from_index(n);
                assert_eq!(topo.gate_readers(net), gates[n].as_slice(), "net {n}");
                assert_eq!(topo.dff_readers(net), dffs[n].as_slice(), "net {n}");
            }
            // the order is the one `levelize` computes from the same lists
            assert_eq!(topo.levels(), crate::levelize(&nl).unwrap().as_slice());
        }
    }

    #[test]
    fn levels_cover_every_gate_in_dependency_order() {
        let nl = register_with_parity(3);
        let topo = Topology::build(&nl).unwrap();
        assert_eq!(topo.levels().len(), nl.gate_count());
        let mut seen = vec![false; nl.gate_count()];
        for &g in topo.levels() {
            assert!(!std::mem::replace(&mut seen[g.index()], true), "{g} twice");
        }
    }

    #[test]
    fn fanout_cone_crosses_dff_boundaries_and_stays_forward() {
        let nl = register_with_parity(2);
        let topo = Topology::build(&nl).unwrap();
        let net = |name: &str| nl.net_by_name(name).unwrap();
        let (d0, d1) = (net("d[0]"), net("d[1]"));
        let cone = topo.fanout_cone(d0);
        assert!(cone[d0.index()], "a net is in its own cone");
        // d[0] reaches q[0] through the register and the parity flag past it
        assert!(cone[net("q[0]").index()]);
        assert!(cone[net("par1").index()]);
        // but never its sibling input
        assert!(!cone[d1.index()]);
        // and the flag output's cone is only itself (nothing reads it)
        let flag = net("flag");
        let fcone = topo.fanout_cone(flag);
        assert_eq!(fcone.iter().filter(|&&b| b).count(), 1);
    }
}
