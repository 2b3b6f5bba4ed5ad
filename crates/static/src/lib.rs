//! Static testability analysis over the levelized netlist.
//!
//! Three results, all computed without simulating a single cycle:
//!
//! 1. **Ternary constant propagation** to a fixpoint: every primary input
//!    is the unknown `X`, flip-flops start from their power-on `init`
//!    values and accumulate (join) every state they can ever reach, and
//!    gates evaluate with the exact same four-state operators the
//!    simulators use ([`GateKind::eval`] over [`Logic`] — the scalar view
//!    of the two-plane 0/1/X encoding `WordSim` packs into `u64` lanes).
//!    A net whose fixpoint value is a known `0`/`1` provably holds that
//!    value at *every* cycle of *any* workload.
//! 2. **SCOAP-style testability scores**: combinational controllability
//!    (`CC0`/`CC1`), observability (`CO`) toward the monitored nets, and
//!    the sequential depth (flip-flop crossings from the primary inputs).
//! 3. A **fault-site classifier**: a stuck-at fault is
//!    [`ProvenUndetectable`](Proof) when its forced value equals the
//!    proven constant (the faulty run *is* the golden run) or when no
//!    structural path connects the site to any monitored net (no monitor
//!    can ever see a difference). Each verdict carries a machine-checkable
//!    [`Proof`]; [`TestabilityAnalysis::check_proof`] re-verifies it with
//!    an independent algorithm (inductive-invariant check for constants,
//!    forward cone walk for reachability).
//!
//! The campaign engine uses the classifier as a sound pre-pass (skip the
//! simulation, synthesize the outcome); the lint engine uses the scores
//! for the `SL02xx` testability pack. Soundness argument: the abstract
//! domain `{0, 1, X}` with `γ(X) = any value` is ordered by information,
//! the Kleene operators in [`Logic`] are monotone on it, and the flip-flop
//! transfer below mirrors `Simulator::tick` case by case — so the
//! accumulated fixpoint over-approximates every reachable concrete state.

use socfmea_netlist::{Dff, Driver, GateKind, Logic, NetId, Netlist, Topology};

/// Score value meaning "cannot be done at all" (uncontrollable to that
/// value / unobservable at any monitor).
pub const UNREACHABLE: u32 = u32::MAX;

/// Why a fault site is provably undetectable. Machine-checkable: feed it
/// back to [`TestabilityAnalysis::check_proof`], which re-derives the
/// claim with an independent algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// The golden run holds `value` on `net` at every cycle of every
    /// workload (ternary constant propagation), so forcing `net` to
    /// `value` is a no-op: the faulty run *is* the golden run and every
    /// monitor sees equality.
    ConstantSite {
        /// The proven-constant fault site.
        net: NetId,
        /// The proven constant — equal to the fault's forced value.
        value: Logic,
    },
    /// No structural path (through gates or flip-flop state transfer)
    /// leads from `net` to any monitored net, so the divergence a fault
    /// on it causes can never reach an output, alarm or observation
    /// point.
    NoPathToMonitor {
        /// The unmonitorable fault site.
        net: NetId,
    },
}

impl Proof {
    /// The proof's site.
    pub fn net(&self) -> NetId {
        match *self {
            Proof::ConstantSite { net, .. } | Proof::NoPathToMonitor { net } => net,
        }
    }

    /// The proof's kind (for counters and breakdowns).
    pub fn kind(&self) -> ProofKind {
        match self {
            Proof::ConstantSite { .. } => ProofKind::ConstantSite,
            Proof::NoPathToMonitor { .. } => ProofKind::NoPathToMonitor,
        }
    }
}

/// The discriminant of a [`Proof`], for aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProofKind {
    /// See [`Proof::ConstantSite`].
    ConstantSite,
    /// See [`Proof::NoPathToMonitor`].
    NoPathToMonitor,
}

impl ProofKind {
    /// Stable machine name (used as a metrics-counter suffix).
    pub fn name(self) -> &'static str {
        match self {
            ProofKind::ConstantSite => "constant",
            ProofKind::NoPathToMonitor => "no-path",
        }
    }
}

/// The computed analysis over one netlist + monitor set. All per-net
/// queries are O(1).
#[derive(Debug, Clone)]
pub struct TestabilityAnalysis {
    /// Fixpoint value per net: a known value is a proven constant, `X`
    /// means "not provably constant".
    constants: Vec<Logic>,
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
    seq_depth: Vec<u32>,
    /// Whether a structural path from the net to a monitored net exists.
    observable: Vec<bool>,
    /// The monitor set the analysis was computed against.
    monitored: Vec<bool>,
}

impl TestabilityAnalysis {
    /// Runs the full analysis. `monitored` is the set of nets any monitor
    /// compares against golden — for campaign pruning that must be the
    /// union of functional outputs, alarm nets and observation nets.
    pub fn analyze(netlist: &Netlist, topo: &Topology, monitored: &[NetId]) -> TestabilityAnalysis {
        let n = netlist.net_count();
        let mut is_monitored = vec![false; n];
        for &m in monitored {
            is_monitored[m.index()] = true;
        }
        let constants = propagate_constants(netlist, topo);
        let observable = backward_reachable(netlist, &is_monitored);
        let (cc0, cc1, seq_depth) = controllability(netlist, topo, &constants);
        let co = observability(netlist, topo, &is_monitored, &cc0, &cc1);
        TestabilityAnalysis {
            constants,
            cc0,
            cc1,
            co,
            seq_depth,
            observable,
            monitored: is_monitored,
        }
    }

    /// The proven constant on `net`, if any.
    pub fn constant(&self, net: NetId) -> Option<Logic> {
        let v = self.constants[net.index()];
        v.is_known().then_some(v)
    }

    /// Combinational 0-controllability (1 = trivial, [`UNREACHABLE`] =
    /// impossible).
    pub fn cc0(&self, net: NetId) -> u32 {
        self.cc0[net.index()]
    }

    /// Combinational 1-controllability.
    pub fn cc1(&self, net: NetId) -> u32 {
        self.cc1[net.index()]
    }

    /// Observability toward the monitored nets (0 = is itself monitored,
    /// [`UNREACHABLE`] = no monitor can see it).
    pub fn co(&self, net: NetId) -> u32 {
        self.co[net.index()]
    }

    /// Flip-flop crossings on the shortest path from a primary
    /// input/constant to `net` ([`UNREACHABLE`] for nets fed by no
    /// source at all).
    pub fn seq_depth(&self, net: NetId) -> u32 {
        self.seq_depth[net.index()]
    }

    /// Whether any structural path leads from `net` to a monitored net.
    pub fn observable(&self, net: NetId) -> bool {
        self.observable[net.index()]
    }

    /// Whether `net` is in the analysis' monitor set.
    pub fn monitored(&self, net: NetId) -> bool {
        self.monitored[net.index()]
    }

    /// Classifies a stuck-at fault site: `Some(proof)` when the fault is
    /// provably undetectable by any monitor under any workload.
    pub fn classify_stuck_at(&self, net: NetId, value: Logic) -> Option<Proof> {
        let v = value.resolved();
        if !v.is_known() {
            return None;
        }
        if self.constants[net.index()] == v {
            return Some(Proof::ConstantSite { net, value: v });
        }
        if !self.observable[net.index()] {
            return Some(Proof::NoPathToMonitor { net });
        }
        None
    }

    /// Re-verifies a proof with an algorithm independent of the one that
    /// produced it:
    ///
    /// * [`Proof::ConstantSite`] — checks the whole constant map is an
    ///   *inductive invariant* of the netlist (every gate's output is
    ///   implied by its inputs' entries, every flip-flop's `init` and
    ///   transfer stay inside its entry), then that the site's entry
    ///   equals the claimed value. The check never re-runs the fixpoint.
    /// * [`Proof::NoPathToMonitor`] — walks the *forward* fan-out cone
    ///   ([`Topology::fanout_cone`]) and checks it contains no monitored
    ///   net (the classifier derived the claim from a backward sweep).
    pub fn check_proof(&self, netlist: &Netlist, topo: &Topology, proof: &Proof) -> bool {
        match *proof {
            Proof::ConstantSite { net, value } => {
                value.is_known()
                    && self.constants[net.index()] == value
                    && self.verify_constants(netlist, topo).is_ok()
            }
            Proof::NoPathToMonitor { net } => {
                let cone = topo.fanout_cone(net);
                !cone
                    .iter()
                    .zip(&self.monitored)
                    .any(|(&in_cone, &mon)| in_cone && mon)
            }
        }
    }

    /// Checks that the constant map is an inductive invariant: sources
    /// match their drivers, every gate is locally consistent, and every
    /// flip-flop's power-on value and transfer function stay inside its
    /// entry. Success means *every* known entry is a true invariant of
    /// every reachable concrete state, regardless of how the map was
    /// computed.
    pub fn verify_constants(&self, netlist: &Netlist, topo: &Topology) -> Result<(), String> {
        let value = &self.constants;
        for (i, net) in netlist.nets().iter().enumerate() {
            let claimed = value[i];
            if !claimed.is_known() {
                continue; // X claims nothing
            }
            match net.driver {
                Driver::Const(v) => {
                    if v.resolved() != claimed {
                        return Err(format!("net {}: constant driver disagrees", net.name));
                    }
                }
                Driver::Input | Driver::None => {
                    return Err(format!("net {}: free net claimed constant", net.name));
                }
                Driver::Gate(_) | Driver::Dff(_) => {} // checked below
            }
        }
        for &g in topo.levels() {
            let gate = netlist.gate(g);
            let ins: Vec<Logic> = gate.inputs.iter().map(|&i| value[i.index()]).collect();
            let out = gate.kind.eval(&ins);
            let claimed = value[gate.output.index()];
            if claimed.is_known() && out != claimed {
                return Err(format!(
                    "gate {}: output claim {claimed} not implied by inputs (eval {out})",
                    gate.name
                ));
            }
        }
        for ff in netlist.dffs() {
            let claimed = value[ff.q.index()];
            if !claimed.is_known() {
                continue;
            }
            if ff.init.resolved() != claimed {
                return Err(format!("dff {}: init escapes the claim", ff.name));
            }
            let next = dff_transfer(ff, value, claimed);
            if next != claimed {
                return Err(format!("dff {}: transfer escapes the claim", ff.name));
            }
        }
        Ok(())
    }
}

/// The abstract flip-flop transfer: mirrors `Simulator::tick` case by
/// case, with abstract `X` control values mapping to `X` exactly like the
/// concrete simulator maps concrete `X` controls to `X`.
fn dff_transfer(ff: &Dff, value: &[Logic], cur: Logic) -> Logic {
    let rst = ff.reset.map(|r| value[r.index()]);
    let en = ff.enable.map(|e| value[e.index()]);
    let d = value[ff.d.index()];
    match rst {
        Some(Logic::One) => ff.reset_value.resolved(),
        Some(Logic::X) | Some(Logic::Z) => Logic::X,
        _ => match en {
            Some(Logic::Zero) => cur,
            Some(Logic::One) | None => d,
            Some(_) => Logic::X,
        },
    }
    .resolved()
}

/// Join of the value lattice: agreement keeps the value, disagreement
/// (or any unknown) is `X`.
fn join(a: Logic, b: Logic) -> Logic {
    if a == b {
        a
    } else {
        Logic::X
    }
}

/// Ternary constant propagation to a fixpoint. Primary inputs are `X`
/// (any workload), flip-flop state starts at `init` and joins every
/// reachable abstract successor; terminates because each state variable
/// can only move known → `X` once.
fn propagate_constants(netlist: &Netlist, topo: &Topology) -> Vec<Logic> {
    let mut value = vec![Logic::X; netlist.net_count()];
    for (i, net) in netlist.nets().iter().enumerate() {
        if let Driver::Const(v) = net.driver {
            value[i] = v.resolved();
        }
    }
    let mut state: Vec<Logic> = netlist.dffs().iter().map(|ff| ff.init.resolved()).collect();
    let mut ins = Vec::new();
    loop {
        for (fi, ff) in netlist.dffs().iter().enumerate() {
            value[ff.q.index()] = state[fi];
        }
        for &g in topo.levels() {
            let gate = netlist.gate(g);
            ins.clear();
            ins.extend(gate.inputs.iter().map(|&i| value[i.index()]));
            value[gate.output.index()] = gate.kind.eval(&ins);
        }
        let mut changed = false;
        for (fi, ff) in netlist.dffs().iter().enumerate() {
            let joined = join(state[fi], dff_transfer(ff, &value, state[fi]));
            if joined != state[fi] {
                state[fi] = joined;
                changed = true;
            }
        }
        if !changed {
            return value;
        }
    }
}

/// Nets with a structural path to any `seed` net, walking drivers
/// backwards (gate inputs; flip-flop `d`/`enable`/`reset`).
fn backward_reachable(netlist: &Netlist, seeds: &[bool]) -> Vec<bool> {
    let mut reach = seeds.to_vec();
    let mut stack: Vec<usize> = (0..reach.len()).filter(|&i| reach[i]).collect();
    while let Some(i) = stack.pop() {
        let mut visit = |n: NetId| {
            if !reach[n.index()] {
                reach[n.index()] = true;
                stack.push(n.index());
            }
        };
        match netlist.nets()[i].driver {
            Driver::Gate(g) => {
                for &input in &netlist.gate(g).inputs {
                    visit(input);
                }
            }
            Driver::Dff(f) => {
                let ff = netlist.dff(f);
                visit(ff.d);
                if let Some(e) = ff.enable {
                    visit(e);
                }
                if let Some(r) = ff.reset {
                    visit(r);
                }
            }
            Driver::Input | Driver::Const(_) | Driver::None => {}
        }
    }
    reach
}

fn sat(a: u32, b: u32) -> u32 {
    if a == UNREACHABLE || b == UNREACHABLE {
        UNREACHABLE
    } else {
        a.saturating_add(b)
    }
}

/// SCOAP controllability (CC0/CC1) plus sequential depth, relaxed to a
/// min-fixpoint across flip-flop boundaries.
fn controllability(
    netlist: &Netlist,
    topo: &Topology,
    constants: &[Logic],
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let n = netlist.net_count();
    let mut cc0 = vec![UNREACHABLE; n];
    let mut cc1 = vec![UNREACHABLE; n];
    let mut seq = vec![UNREACHABLE; n];
    for (i, net) in netlist.nets().iter().enumerate() {
        match net.driver {
            Driver::Input => {
                cc0[i] = 1;
                cc1[i] = 1;
                seq[i] = 0;
            }
            Driver::Const(v) => {
                match v.resolved() {
                    Logic::Zero => cc0[i] = 0,
                    Logic::One => cc1[i] = 0,
                    _ => {}
                }
                seq[i] = 0;
            }
            _ => {}
        }
    }
    // Bellman-Ford-style relaxation: values only decrease and paths cross
    // at most #dff registers, so #dff + 2 sweeps suffice; the early break
    // fires far sooner on real designs.
    for _ in 0..netlist.dff_count() + 2 {
        let mut changed = false;
        let mut update = |slot: &mut u32, v: u32| {
            if v < *slot {
                *slot = v;
                changed = true;
            }
        };
        for &g in topo.levels() {
            let gate = netlist.gate(g);
            let out = gate.output.index();
            let (g0, g1) = gate_controllability(gate.kind, &gate.inputs, &cc0, &cc1);
            // A proven constant cannot be driven to the opposite value no
            // matter what the structural formula says.
            let (g0, g1) = match constants[out] {
                Logic::Zero => (g0, UNREACHABLE),
                Logic::One => (UNREACHABLE, g1),
                _ => (g0, g1),
            };
            update(&mut cc0[out], g0);
            update(&mut cc1[out], g1);
            let s = gate
                .inputs
                .iter()
                .map(|&i| seq[i.index()])
                .min()
                .unwrap_or(UNREACHABLE);
            update(&mut seq[out], s);
        }
        for ff in netlist.dffs() {
            let q = ff.q.index();
            // Through the data path: drive d, assert enable, hold reset
            // off, wait one cycle.
            let en_cost = ff.enable.map_or(0, |e| cc1[e.index()]);
            let rst_off = ff.reset.map_or(0, |r| cc0[r.index()]);
            let via_d = |ccv: &[u32]| sat(sat(ccv[ff.d.index()], en_cost), sat(rst_off, 1));
            let (mut q0, mut q1) = (via_d(&cc0), via_d(&cc1));
            // Or through the reset, when it forces the wanted value.
            if let Some(r) = ff.reset {
                let via_rst = sat(cc1[r.index()], 1);
                match ff.reset_value.resolved() {
                    Logic::Zero => q0 = q0.min(via_rst),
                    Logic::One => q1 = q1.min(via_rst),
                    _ => {}
                }
            }
            let (q0, q1) = match constants[q] {
                Logic::Zero => (q0, UNREACHABLE),
                Logic::One => (UNREACHABLE, q1),
                _ => (q0, q1),
            };
            update(&mut cc0[q], q0);
            update(&mut cc1[q], q1);
            let mut s = seq[ff.d.index()];
            if let Some(e) = ff.enable {
                s = s.min(seq[e.index()]);
            }
            if let Some(r) = ff.reset {
                s = s.min(seq[r.index()]);
            }
            update(&mut seq[q], sat(s, 1));
        }
        if !changed {
            break;
        }
    }
    (cc0, cc1, seq)
}

/// The SCOAP controllability transfer of one gate.
fn gate_controllability(kind: GateKind, inputs: &[NetId], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let v0 = |n: NetId| cc0[n.index()];
    let v1 = |n: NetId| cc1[n.index()];
    let sum = |f: &dyn Fn(NetId) -> u32| inputs.iter().fold(0, |acc, &i| sat(acc, f(i)));
    let min = |f: &dyn Fn(NetId) -> u32| inputs.iter().map(|&i| f(i)).min().unwrap_or(UNREACHABLE);
    let (c0, c1) = match kind {
        GateKind::Buf => (min(&v0), min(&v1)),
        GateKind::Not => (min(&v1), min(&v0)),
        GateKind::And => (min(&v0), sum(&v1)),
        GateKind::Nand => (sum(&v1), min(&v0)),
        GateKind::Or => (sum(&v0), min(&v1)),
        GateKind::Nor => (min(&v1), sum(&v0)),
        GateKind::Xor | GateKind::Xnor => {
            // Exact n-ary parity fold: cheapest way to end with parity 0/1.
            let (mut p0, mut p1) = (0u32, UNREACHABLE);
            for &i in inputs {
                let (n0, n1) = (
                    sat(p0, v0(i)).min(sat(p1, v1(i))),
                    sat(p0, v1(i)).min(sat(p1, v0(i))),
                );
                p0 = n0;
                p1 = n1;
            }
            if kind == GateKind::Xor {
                (p0, p1)
            } else {
                (p1, p0)
            }
        }
        GateKind::Mux2 => {
            let (s, a, b) = (inputs[0], inputs[1], inputs[2]);
            (
                sat(v0(s), v0(a)).min(sat(v1(s), v0(b))),
                sat(v0(s), v1(a)).min(sat(v1(s), v1(b))),
            )
        }
    };
    (sat(c0, 1), sat(c1, 1))
}

/// SCOAP observability toward the monitored nets, relaxed to a
/// min-fixpoint backwards through gates and flip-flops.
fn observability(
    netlist: &Netlist,
    topo: &Topology,
    monitored: &[bool],
    cc0: &[u32],
    cc1: &[u32],
) -> Vec<u32> {
    let n = netlist.net_count();
    let mut co = vec![UNREACHABLE; n];
    for i in 0..n {
        if monitored[i] {
            co[i] = 0;
        }
    }
    for _ in 0..netlist.dff_count() + 2 {
        let mut changed = false;
        let mut update = |slot: &mut u32, v: u32| {
            if v < *slot {
                *slot = v;
                changed = true;
            }
        };
        // Backwards: walk gates in reverse level order so a whole
        // combinational cone relaxes in one sweep.
        for &g in topo.levels().iter().rev() {
            let gate = netlist.gate(g);
            let out_co = co[gate.output.index()];
            if out_co == UNREACHABLE {
                continue;
            }
            for (k, &input) in gate.inputs.iter().enumerate() {
                let side: u32 = match gate.kind {
                    GateKind::Buf | GateKind::Not => 0,
                    GateKind::And | GateKind::Nand => gate
                        .inputs
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .fold(0, |acc, (_, &j)| sat(acc, cc1[j.index()])),
                    GateKind::Or | GateKind::Nor => gate
                        .inputs
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .fold(0, |acc, (_, &j)| sat(acc, cc0[j.index()])),
                    GateKind::Xor | GateKind::Xnor => gate
                        .inputs
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .fold(0, |acc, (_, &j)| {
                            sat(acc, cc0[j.index()].min(cc1[j.index()]))
                        }),
                    GateKind::Mux2 => {
                        let (s, a, b) = (gate.inputs[0], gate.inputs[1], gate.inputs[2]);
                        match k {
                            0 => sat(cc0[a.index()], cc1[b.index()])
                                .min(sat(cc1[a.index()], cc0[b.index()])),
                            1 => cc0[s.index()],
                            _ => cc1[s.index()],
                        }
                    }
                };
                update(&mut co[input.index()], sat(out_co, sat(side, 1)));
            }
        }
        for ff in netlist.dffs() {
            let q_co = co[ff.q.index()];
            if q_co == UNREACHABLE {
                continue;
            }
            // Propagating d through the register costs one cycle plus
            // holding enable on and reset off.
            let en_cost = ff.enable.map_or(0, |e| cc1[e.index()]);
            let rst_off = ff.reset.map_or(0, |r| cc0[r.index()]);
            update(
                &mut co[ff.d.index()],
                sat(q_co, sat(sat(en_cost, rst_off), 1)),
            );
            if let Some(e) = ff.enable {
                update(&mut co[e.index()], sat(q_co, 1));
            }
            if let Some(r) = ff.reset {
                update(&mut co[r.index()], sat(q_co, 1));
            }
        }
        if !changed {
            break;
        }
    }
    co
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_rtl::RtlBuilder;

    fn analyze(nl: &Netlist, monitored: &[NetId]) -> (TestabilityAnalysis, Topology) {
        let topo = Topology::build(nl).unwrap();
        (TestabilityAnalysis::analyze(nl, &topo, monitored), topo)
    }

    /// d → AND with a constant-0 leg → register → output; the AND output
    /// and everything downstream is provably stuck at 0.
    fn const_and_design() -> Netlist {
        use socfmea_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("ca");
        let d = b.input("d");
        let z = b.constant(Logic::Zero);
        let a = b.gate(GateKind::And, &[d, z], "a");
        let q = b.dff("q", a);
        b.output("o", q);
        b.finish().unwrap()
    }

    #[test]
    fn constant_legs_propagate_through_gates_and_registers() {
        let nl = const_and_design();
        let o = nl.net_by_name("o").unwrap();
        let (an, topo) = analyze(&nl, &[o]);
        let a = nl.net_by_name("a").unwrap();
        let q = nl.net_by_name("q").unwrap();
        assert_eq!(an.constant(a), Some(Logic::Zero));
        assert_eq!(an.constant(q), Some(Logic::Zero));
        assert_eq!(an.constant(nl.net_by_name("d").unwrap()), None);
        assert!(an.verify_constants(&nl, &topo).is_ok());
        // stuck-at-0 on the constant net is proven undetectable …
        let proof = an.classify_stuck_at(a, Logic::Zero).unwrap();
        assert_eq!(proof.kind(), ProofKind::ConstantSite);
        assert!(an.check_proof(&nl, &topo, &proof));
        // … stuck-at-1 is not (it genuinely flips the cone)
        assert!(an.classify_stuck_at(a, Logic::One).is_none());
    }

    #[test]
    fn unmonitored_cones_yield_no_path_proofs() {
        let mut r = RtlBuilder::new("np");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        let side = r.parity(&d); // feeds nothing monitored
        let _dead = r.register_bit("dead", side, None, None);
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let o0 = nl.net_by_name("o[0]").unwrap();
        let o1 = nl.net_by_name("o[1]").unwrap();
        let (an, topo) = analyze(&nl, &[o0, o1]);
        let dead_q = nl.net_by_name("dead").unwrap();
        assert!(!an.observable(dead_q));
        let proof = an.classify_stuck_at(dead_q, Logic::One).unwrap();
        assert_eq!(proof.kind(), ProofKind::NoPathToMonitor);
        assert!(an.check_proof(&nl, &topo, &proof));
        // monitored cone nets classify as detectable candidates
        assert!(an
            .classify_stuck_at(nl.net_by_name("q[0]").unwrap(), Logic::One)
            .is_none());
    }

    #[test]
    fn input_fed_registers_are_not_constant() {
        let mut r = RtlBuilder::new("x");
        let d = r.input_word("d", 1);
        let q = r.register("q", &d, None, None);
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let o = nl.net_by_name("o[0]").unwrap();
        let (an, _) = analyze(&nl, &[o]);
        assert_eq!(an.constant(nl.net_by_name("q[0]").unwrap()), None);
    }

    #[test]
    fn scoap_scores_grow_along_the_path_and_respect_constants() {
        let nl = const_and_design();
        let o = nl.net_by_name("o").unwrap();
        let (an, _) = analyze(&nl, &[o]);
        let d = nl.net_by_name("d").unwrap();
        let a = nl.net_by_name("a").unwrap();
        assert_eq!(an.cc0(d), 1);
        assert_eq!(an.cc1(d), 1);
        // the AND output is a proven constant 0: cheap to 0, impossible to 1
        assert!(an.cc0(a) < UNREACHABLE);
        assert_eq!(an.cc1(a), UNREACHABLE);
        // observability decreases toward the monitor, and the register
        // adds sequential depth
        assert_eq!(an.co(o), 0);
        assert!(an.co(a) > 0);
        assert_eq!(an.seq_depth(d), 0);
        assert_eq!(an.seq_depth(nl.net_by_name("q").unwrap()), 1);
    }

    #[test]
    fn enable_and_reset_paths_feed_controllability() {
        let mut r = RtlBuilder::new("er");
        let d = r.input_word("d", 1);
        let en = r.input("en");
        let rst = r.input("rst");
        let q = r.register("q", &d, Some(en), Some(rst));
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let o = nl.net_by_name("o[0]").unwrap();
        let (an, _) = analyze(&nl, &[o]);
        let qn = nl.net_by_name("q[0]").unwrap();
        assert!(an.cc0(qn) < UNREACHABLE);
        assert!(an.cc1(qn) < UNREACHABLE);
        // the controls are observable (they steer the register's q)
        assert!(an.observable(nl.net_by_name("en").unwrap()));
        assert!(an.observable(nl.net_by_name("rst").unwrap()));
        assert!(an.co(nl.net_by_name("en").unwrap()) < UNREACHABLE);
    }
}
