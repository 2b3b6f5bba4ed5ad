//! The divergence-set propagator: simulate only what differs from golden.
//!
//! After an injection, almost every net still carries its golden value —
//! the fault's footprint is a (usually small, often shrinking) set of
//! divergent nets. [`SparseSim`] tracks exactly that set: each cycle it
//! seeds the set from divergent flip-flop state and active fault overrides,
//! then evaluates only the levelized fan-out cone of the set, reading every
//! untouched input straight from the [`GoldenTrace`]. When the set empties
//! and no fault hook remains pending, the faulty run has re-converged with
//! golden and the remaining cycles need no simulation at all.
//!
//! The kernel is exact, not approximate: for every cycle it computes the
//! same visible net values a full lockstep simulation would, which is what
//! lets the campaign layer promise bit-identical outcomes.

use crate::golden::GoldenTrace;
use crate::topo::Topology;
use socfmea_netlist::{DffId, Logic, NetId, Netlist};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Incremental faulty-vs-golden simulation state for one fault at a time.
///
/// Reusable across faults (a campaign worker allocates one and calls
/// [`begin`](Self::begin) per fault); epoch-stamped buffers make the
/// per-fault reset O(1) in the design size.
///
/// Supported fault hooks are the sparse-friendly subset: persistent
/// [`force`](Self::force) (stuck-at), single-cycle [`pulse`](Self::pulse)
/// (glitch) and [`flip_ff`](Self::flip_ff) (SEU). Bridges and clock
/// suppression mutate global evaluation semantics; the campaign runs them
/// on word lanes (`socfmea_sim::WordSim`) instead.
#[derive(Debug)]
pub struct SparseSim<'a> {
    netlist: &'a Netlist,
    topo: &'a Topology,
    trace: &'a GoldenTrace,
    /// Cycle currently exposed by [`get`](Self::get) (advanced by `tick`).
    cycle: usize,
    /// Epoch of the current cycle's stamps.
    epoch: u32,
    /// Per-net epoch: a net diverges this cycle iff stamped with `epoch`.
    net_epoch: Vec<u32>,
    /// Faulty value of a net, valid only when `net_epoch` matches.
    faulty: Vec<Logic>,
    /// Per-net epoch marking an active override (force/pulse) this cycle.
    override_epoch: Vec<u32>,
    /// Divergent nets of the current cycle.
    divergent: Vec<NetId>,
    /// Per-gate epoch de-duplicating worklist insertion.
    gate_epoch: Vec<u32>,
    /// Per-flip-flop epoch de-duplicating tick candidates.
    ff_epoch: Vec<u32>,
    /// Level-ordered worklist of woken gates: `(position, gate index)`.
    queue: BinaryHeap<Reverse<(u32, u32)>>,
    /// Persistent forces (stuck-at model).
    forces: Vec<(NetId, Logic)>,
    /// Single-cycle forces, cleared by `tick` (glitch model).
    transients: Vec<(NetId, Logic)>,
    /// Flip-flops whose stored state differs from golden, with the faulty
    /// stored value.
    ff_div: Vec<(DffId, Logic)>,
    /// Scratch for the next `ff_div`.
    ff_next: Vec<(DffId, Logic)>,
    /// Scratch for gate-input values.
    input_buf: Vec<Logic>,
}

impl<'a> SparseSim<'a> {
    /// Allocates a sparse kernel over a design's trace and topology.
    pub fn new(netlist: &'a Netlist, topo: &'a Topology, trace: &'a GoldenTrace) -> SparseSim<'a> {
        SparseSim {
            netlist,
            topo,
            trace,
            cycle: 0,
            epoch: 0,
            net_epoch: vec![0; netlist.net_count()],
            faulty: vec![Logic::X; netlist.net_count()],
            override_epoch: vec![0; netlist.net_count()],
            divergent: Vec::new(),
            gate_epoch: vec![0; netlist.gate_count()],
            ff_epoch: vec![0; netlist.dff_count()],
            queue: BinaryHeap::new(),
            forces: Vec::new(),
            transients: Vec::new(),
            ff_div: Vec::new(),
            ff_next: Vec::new(),
            input_buf: Vec::with_capacity(8),
        }
    }

    /// Resets per-fault state and positions the kernel at `start_cycle`
    /// (the fault's activation cycle): every cycle before it is golden by
    /// construction, so nothing needs simulating there.
    pub fn begin(&mut self, start_cycle: usize) {
        self.cycle = start_cycle;
        self.forces.clear();
        self.transients.clear();
        self.ff_div.clear();
        self.divergent.clear();
        self.queue.clear();
    }

    /// The cycle the kernel currently exposes.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// Installs a persistent force (stuck-at) on `net`.
    pub fn force(&mut self, net: NetId, value: Logic) {
        self.forces.push((net, value));
    }

    /// Installs a single-cycle force (glitch) on `net`; expires at the next
    /// [`tick`](Self::tick).
    pub fn pulse(&mut self, net: NetId, value: Logic) {
        self.transients.push((net, value));
    }

    /// Flips the stored state of `dff`, exactly like
    /// [`Simulator::flip_ff`](socfmea_sim::Simulator::flip_ff) at the
    /// current cycle: the golden stored value (which equals the golden `q`
    /// value) is inverted; an `X` state stays `X` and therefore never
    /// diverges.
    pub fn flip_ff(&mut self, dff: DffId) {
        let q = self.netlist.dff(dff).q;
        let golden = self.trace.value(self.cycle, q);
        let flipped = golden.not();
        if flipped != golden {
            self.ff_div.push((dff, flipped));
        }
    }

    /// Evaluates the current cycle: seeds the divergence set from divergent
    /// flip-flop state and active overrides, then propagates it through the
    /// woken part of the combinational network in levelized order.
    ///
    /// Afterwards [`divergent`](Self::divergent) lists every net whose
    /// value differs from the golden trace this cycle, and
    /// [`get`](Self::get) answers the faulty value of any net.
    pub fn eval_cycle(&mut self) {
        let c = self.cycle;
        self.next_epoch();
        self.divergent.clear();
        debug_assert!(self.queue.is_empty());

        // Seeds: divergent stored state surfaces on the q nets…
        for i in 0..self.ff_div.len() {
            let (ff, v) = self.ff_div[i];
            let q = self.netlist.dff(ff).q;
            debug_assert_ne!(v, self.trace.value(c, q));
            self.mark_divergent(q, v);
        }
        // …then overrides stamp their nets (divergent only when the forced
        // value differs from golden this cycle).
        for i in 0..self.forces.len() {
            let (n, v) = self.forces[i];
            self.mark_override(n, v, c);
        }
        for i in 0..self.transients.len() {
            let (n, v) = self.transients[i];
            self.mark_override(n, v, c);
        }

        // Propagate: pop woken gates in evaluation order. A gate's drivers
        // all sit at lower positions, so every divergent input is final by
        // the time the gate pops.
        while let Some(Reverse((_, gi))) = self.queue.pop() {
            let gate = self.netlist.gate(socfmea_netlist::GateId(gi));
            let out = gate.output;
            if self.override_epoch[out.index()] == self.epoch {
                continue; // forced output: the override already decided it
            }
            self.input_buf.clear();
            for &i in &gate.inputs {
                let v = if self.net_epoch[i.index()] == self.epoch {
                    self.faulty[i.index()]
                } else {
                    self.trace.value(c, i)
                };
                self.input_buf.push(v);
            }
            let v = gate.kind.eval(&self.input_buf);
            if v != self.trace.value(c, out) {
                let buf = std::mem::take(&mut self.input_buf);
                self.mark_divergent(out, v);
                self.input_buf = buf;
            }
        }
    }

    /// Nets differing from golden in the current cycle (valid after
    /// [`eval_cycle`](Self::eval_cycle), until [`tick`](Self::tick)).
    pub fn divergent(&self) -> &[NetId] {
        &self.divergent
    }

    /// The faulty value of `net` in the current cycle: the tracked value
    /// when divergent, the golden value otherwise.
    #[inline]
    pub fn get(&self, net: NetId) -> Logic {
        if self.net_epoch[net.index()] == self.epoch {
            self.faulty[net.index()]
        } else {
            self.trace.value(self.cycle, net)
        }
    }

    /// Advances one cycle: flip-flops whose inputs (or stored state) were
    /// touched by the divergence set re-sample, transients expire, and the
    /// kernel moves to the next cycle.
    pub fn tick(&mut self) {
        let c = self.cycle;
        let last = c + 1 >= self.trace.len();
        self.ff_next.clear();

        // Candidates: flip-flops already divergent plus those reading a
        // divergent net through d/enable/reset; everything else re-samples
        // golden values and stays golden by definition.
        let consider = |sim: &mut Self, ff_id: DffId| {
            if sim.ff_epoch[ff_id.index()] == sim.epoch {
                return;
            }
            sim.ff_epoch[ff_id.index()] = sim.epoch;
            let ff = sim.netlist.dff(ff_id);
            // A permanently forced q net hides the stored state completely:
            // the force wins every cycle, so tracking the hidden state would
            // add un-observable divergence the full simulator also ignores.
            if sim.forces.iter().any(|&(n, _)| n == ff.q) {
                return;
            }
            if last {
                return; // no next golden row to diverge against
            }
            let cur = sim
                .ff_div
                .iter()
                .find(|&&(f, _)| f == ff_id)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| sim.trace.value(c, ff.q));
            let rst = ff.reset.map(|r| sim.get_at(r, c));
            let en = ff.enable.map(|e| sim.get_at(e, c));
            let d = sim.get_at(ff.d, c);
            let v = match rst {
                Some(Logic::One) => ff.reset_value,
                Some(Logic::X) | Some(Logic::Z) => Logic::X,
                _ => match en {
                    Some(Logic::Zero) => cur,
                    Some(Logic::One) | None => d,
                    Some(_) => Logic::X,
                },
            };
            if v != sim.trace.value(c + 1, ff.q) {
                sim.ff_next.push((ff_id, v));
            }
        };
        let mut i = 0;
        while i < self.ff_div.len() {
            let ff_id = self.ff_div[i].0;
            consider(self, ff_id);
            i += 1;
        }
        let mut i = 0;
        while i < self.divergent.len() {
            let n = self.divergent[i];
            let mut j = 0;
            while j < self.topo.dff_readers(n.index()).len() {
                let ff_id = self.topo.dff_readers(n.index())[j];
                consider(self, ff_id);
                j += 1;
            }
            i += 1;
        }

        std::mem::swap(&mut self.ff_div, &mut self.ff_next);
        self.transients.clear();
        self.cycle = c + 1;
    }

    /// True when the faulty run has provably re-converged with golden: no
    /// divergent stored state and no fault hook pending. Every remaining
    /// cycle is then cycle-for-cycle identical to the golden trace.
    pub fn converged(&self) -> bool {
        self.ff_div.is_empty() && self.forces.is_empty() && self.transients.is_empty()
    }

    #[inline]
    fn get_at(&self, net: NetId, cycle: usize) -> Logic {
        if self.net_epoch[net.index()] == self.epoch {
            self.faulty[net.index()]
        } else {
            self.trace.value(cycle, net)
        }
    }

    fn mark_divergent(&mut self, net: NetId, value: Logic) {
        let i = net.index();
        if self.net_epoch[i] != self.epoch {
            self.net_epoch[i] = self.epoch;
            self.divergent.push(net);
            for &g in self.topo.gate_readers(i) {
                if self.gate_epoch[g.index()] != self.epoch {
                    self.gate_epoch[g.index()] = self.epoch;
                    self.queue.push(Reverse((self.topo.position(g), g.0)));
                }
            }
        }
        self.faulty[i] = value;
    }

    fn mark_override(&mut self, net: NetId, value: Logic, cycle: usize) {
        self.override_epoch[net.index()] = self.epoch;
        if value != self.trace.value(cycle, net) {
            self.mark_divergent(net, value);
        }
    }

    fn next_epoch(&mut self) {
        match self.epoch.checked_add(1) {
            Some(e) => self.epoch = e,
            None => {
                // One clearing sweep every 2^32 cycles keeps the stamps
                // sound without widening them.
                self.net_epoch.fill(0);
                self.override_epoch.fill(0);
                self.gate_epoch.fill(0);
                self.ff_epoch.fill(0);
                self.epoch = 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Simulator, Workload};

    /// A small design with reconvergent logic, an enabled register and a
    /// parity checker — enough structure to exercise seeding, fan-out
    /// propagation and the tick rules.
    fn fixture() -> (Netlist, Workload) {
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 4);
        let en = r.input_word("en", 1);
        let q = r.register("q", &d, Some(en.bits()[0]), None);
        let p = r.parity(&q);
        let pq = r.register_bit("pq", p, None, None);
        r.output_word("o", &q);
        r.output("alarm_p", pq);
        let nl = r.finish().unwrap();
        let dn: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let enn = nl.net_by_name("en[0]").unwrap();
        let mut w = Workload::new("mix");
        for c in 0..16u64 {
            let mut v = vec![(enn, Logic::from_bool(c % 3 != 0))];
            assign_bus(&mut v, &dn, c.wrapping_mul(7) % 16);
            w.push_cycle(v);
        }
        (nl, w)
    }

    /// Runs one fault through both a full lockstep simulation and the
    /// sparse kernel, asserting every net value matches on every cycle and
    /// that the divergence set is exactly the differing nets.
    fn run_pair(
        nl: &Netlist,
        w: &Workload,
        inject: usize,
        apply_full: impl Fn(&mut Simulator<'_>),
        apply_sparse: impl Fn(&mut SparseSim<'_>),
    ) {
        let trace = GoldenTrace::record(nl, w, 4).unwrap();
        let topo = Topology::build(nl).unwrap();
        let mut full = Simulator::new(nl).unwrap();
        let mut sparse = SparseSim::new(nl, &topo, &trace);
        sparse.begin(inject);
        let mut converged_at: Option<usize> = None;
        for (c, inputs) in w.iter().enumerate() {
            for &(n, v) in inputs {
                full.set(n, v);
            }
            if c == inject {
                apply_full(&mut full);
                apply_sparse(&mut sparse);
            }
            full.eval();
            if c >= inject {
                match converged_at {
                    Some(conv) => {
                        for ni in 0..nl.net_count() {
                            let n = NetId::from_index(ni);
                            assert_eq!(
                                full.get(n),
                                trace.value(c, n),
                                "cycle {c}: full sim left golden after convergence at {conv}"
                            );
                        }
                    }
                    None => {
                        sparse.eval_cycle();
                        for ni in 0..nl.net_count() {
                            let n = NetId::from_index(ni);
                            assert_eq!(
                                sparse.get(n),
                                full.get(n),
                                "cycle {c} net {} diverges between sparse and full",
                                nl.net(n).name
                            );
                        }
                        // the divergent list must be exactly the differing nets
                        for ni in 0..nl.net_count() {
                            let n = NetId::from_index(ni);
                            let differs = full.get(n) != trace.value(c, n);
                            assert_eq!(
                                sparse.divergent().contains(&n),
                                differs,
                                "cycle {c} net {}: divergence set wrong",
                                nl.net(n).name
                            );
                        }
                        sparse.tick();
                        if sparse.converged() {
                            converged_at = Some(c);
                        }
                    }
                }
            }
            full.tick();
        }
    }

    #[test]
    fn bitflip_matches_full_simulation_and_converges() {
        let (nl, w) = fixture();
        for inject in [0, 3, 7] {
            run_pair(
                &nl,
                &w,
                inject,
                |full| full.flip_ff(DffId(0)),
                |sparse| sparse.flip_ff(DffId(0)),
            );
        }
    }

    #[test]
    fn stuck_at_matches_full_simulation_forever() {
        let (nl, w) = fixture();
        let target = nl.net_by_name("q[1]").unwrap();
        for value in [Logic::Zero, Logic::One] {
            run_pair(
                &nl,
                &w,
                2,
                |full| full.force(target, value),
                |sparse| sparse.force(target, value),
            );
        }
    }

    #[test]
    fn stuck_at_on_gate_output_and_input_nets() {
        let (nl, w) = fixture();
        for name in ["d[2]", "alarm_p"] {
            let target = nl.net_by_name(name).unwrap();
            run_pair(
                &nl,
                &w,
                1,
                |full| full.force(target, Logic::One),
                |sparse| sparse.force(target, Logic::One),
            );
        }
    }

    #[test]
    fn glitch_matches_and_expires() {
        let (nl, w) = fixture();
        let target = nl.net_by_name("q[0]").unwrap();
        for inject in [0, 5, 9] {
            run_pair(
                &nl,
                &w,
                inject,
                |full| full.pulse(target, Logic::One),
                |sparse| sparse.pulse(target, Logic::One),
            );
        }
    }

    #[test]
    fn glitch_equal_to_golden_never_diverges() {
        let (nl, w) = fixture();
        let trace = GoldenTrace::record(&nl, &w, 4).unwrap();
        let topo = Topology::build(&nl).unwrap();
        let target = nl.net_by_name("q[3]").unwrap();
        let golden = trace.value(5, target);
        let mut sparse = SparseSim::new(&nl, &topo, &trace);
        sparse.begin(5);
        sparse.pulse(target, golden);
        sparse.eval_cycle();
        assert!(sparse.divergent().is_empty());
        sparse.tick();
        assert!(sparse.converged());
    }

    #[test]
    fn kernel_is_reusable_across_faults() {
        let (nl, w) = fixture();
        let trace = GoldenTrace::record(&nl, &w, 4).unwrap();
        let topo = Topology::build(&nl).unwrap();
        let mut sparse = SparseSim::new(&nl, &topo, &trace);
        // first fault: persistent stuck-at (never converges)
        sparse.begin(1);
        sparse.force(nl.net_by_name("q[0]").unwrap(), Logic::One);
        for _ in 1..w.len() {
            sparse.eval_cycle();
            sparse.tick();
        }
        assert!(!sparse.converged());
        // second fault on the same kernel: must start clean
        sparse.begin(3);
        assert!(sparse.converged(), "begin() must clear fault state");
        sparse.flip_ff(DffId(1));
        sparse.eval_cycle();
        let n_div = sparse.divergent().len();
        assert!(n_div > 0, "flip must seed the divergence set");
    }
}
