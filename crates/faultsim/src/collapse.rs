//! Structural fault collapsing: stuck-at equivalence classes with one
//! canonical representative each, plus dominance relations.
//!
//! The paper's validation flow places an explicit **Collapser** stage
//! between the Operational Profiler and the Randomiser: the stuck-at fault
//! universe of a gate-level netlist is highly redundant, and classic
//! equivalence collapsing shrinks it 2–4× before any simulation happens.
//! [`FaultCollapser`] implements that stage over the four-state gate
//! semantics of `socfmea-netlist`:
//!
//! * **Equivalence collapsing** — two stuck-at sites are *equivalent* when
//!   the two faulty circuits are indistinguishable at every monitored net.
//!   The per-gate rules (any arity) are the textbook ones, derived here
//!   from [`GateKind::eval`] itself:
//!
//!   | gate  | rule                                    |
//!   |-------|-----------------------------------------|
//!   | Buf   | `i` sa-v ≡ `o` sa-v                     |
//!   | Not   | `i` sa-v ≡ `o` sa-¬v                    |
//!   | And   | `i` sa-0 ≡ `o` sa-0                     |
//!   | Nand  | `i` sa-0 ≡ `o` sa-1                     |
//!   | Or    | `i` sa-1 ≡ `o` sa-1                     |
//!   | Nor   | `i` sa-1 ≡ `o` sa-0                     |
//!   | Xor/Xnor/Mux2 | only when constants degenerate them (see below) |
//!
//!   Rather than hard-coding only that table, the builder asks
//!   [`forced_output`]: "does forcing input `pos` to `v` force the gate
//!   output to a unique known value, for *every* combination of the other
//!   inputs?" The controlling-value rules above fall out in closed form;
//!   for everything else a bounded enumeration over the non-constant
//!   siblings in `{0, 1, X}` answers the question (complete because every
//!   gate input resolves `Z` to `X` — see [`Logic::resolved`]). That
//!   uniformly covers const-degenerate gates: `xor(a, const-0)` behaves as
//!   a buffer, `Mux2` with a constant select collapses onto the selected
//!   data input, and so on.
//!
//! * **Fanout soundness** — an input-site merge is only an equivalence if
//!   the *input net* is invisible to everything else: its sole reader is
//!   the gate in question (gate fanout exactly 1, no flip-flop reader) and
//!   it is not itself monitored (observation/alarm/functional-output or
//!   primary-output net). Then the two faulty circuits differ *only* on
//!   that unmonitored net, so every monitor sees identical traces. Chains
//!   compose transitively through a union-find, reproducing (and
//!   generalising) the buffer/inverter-chain collapsing of
//!   [`collapse_stuck_at`](crate::faultlist::collapse_stuck_at).
//!
//! * **Dominance collapsing** — `o` sa-1 *dominates* `i` sa-1 on an AND
//!   gate (every test for the dominated fault also detects the dominator),
//!   and dually for OR/NAND/NOR. Dominance only implies *detection*
//!   subsumption, not identical failure behaviour: detection cycles,
//!   deviated zones and therefore the IEC 61508 class can differ, and
//!   arXiv:2103.05106 argues per-fault attribution must survive
//!   collapsing. The pairs are therefore **reported, never merged** —
//!   [`Campaign`](crate::Campaign) keeps simulating dominated faults so
//!   the per-fault evidence stays exact.
//!
//! The campaign integration lives in `CollapsePlan`: representatives are
//! simulated, and a *fault dictionary* back-annotates each representative's
//! outcome onto every member of its class, so stats, coverage, DC/SFF and
//! per-zone attribution are still reported over the full uncollapsed list —
//! bit-identical to the uncollapsed run by construction.

use crate::env::Environment;
use crate::faultlist::{ChainLinks, Fault, FaultKind};
use socfmea_core::ZoneId;
use socfmea_netlist::{Driver, Gate, GateKind, Logic, NetId, Netlist};
use std::collections::HashMap;

/// A stuck-at site: a net together with the stuck polarity.
pub type Site = (NetId, Logic);

/// A dominance relation between two stuck-at sites: every workload cycle
/// that detects `dominated` also detects `dominator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DominancePair {
    /// The dominating fault (detected whenever the dominated one is).
    pub dominator: Site,
    /// The dominated fault.
    pub dominated: Site,
}

/// Structural stuck-at collapser over a netlist: equivalence classes with
/// deterministic canonical representatives, plus reported dominance pairs.
///
/// Build one with [`FaultCollapser::build`] (protection derived from an
/// injection [`Environment`]) or [`FaultCollapser::with_protected`] (an
/// explicit protected-net list). See the [module docs](self) for the
/// soundness argument.
#[derive(Debug, Clone)]
pub struct FaultCollapser {
    /// `canon[site]` is the root site of the class, which by union-by-min
    /// construction is the *smallest* site index in the class.
    canon: Vec<usize>,
    /// All non-singleton equivalence classes, members ascending, classes
    /// ordered by their canonical site.
    classes: Vec<Vec<Site>>,
    /// Dominance pairs (reported, never merged).
    dominance: Vec<DominancePair>,
    /// Number of distinct classes over *all* sites (singletons included).
    distinct: usize,
}

/// Maximum number of free (non-constant) sibling inputs enumerated by
/// [`forced_output`] before giving up: `3^4 = 81` evaluations.
const MAX_FREE_ENUM: usize = 4;

#[inline]
fn site_index(net: NetId, value: Logic) -> usize {
    net.index() * 2 + usize::from(value == Logic::One)
}

#[inline]
fn site_of_index(site: usize) -> Site {
    let value = if site % 2 == 1 {
        Logic::One
    } else {
        Logic::Zero
    };
    (NetId::from_index(site / 2), value)
}

fn find(parent: &mut [usize], mut s: usize) -> usize {
    while parent[s] != s {
        parent[s] = parent[parent[s]]; // path halving
        s = parent[s];
    }
    s
}

/// Union-by-min: the smaller root becomes the class root, so the canonical
/// representative is always the minimum site index — deterministic and
/// independent of merge order.
fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        parent[hi] = lo;
    }
}

/// Does forcing input `pos` of `gate` to `v` force the gate output to a
/// unique **known** value for every combination of the remaining inputs?
///
/// Controlling values are answered in closed form for any arity; other
/// cases (Xor/Xnor/Mux2, or non-controlling polarities made degenerate by
/// `Const`-driven siblings) are settled by enumerating the free siblings
/// over `{0, 1, X}` — complete for four-state simulation because every
/// gate input resolves `Z` to `X` first, and *conservative*: the siblings
/// are enumerated independently, a superset of the value combinations the
/// circuit can actually produce, so a unique answer here is unique in any
/// reachable state (the converse may be missed, which only costs
/// collapsing opportunity, never soundness).
pub fn forced_output(netlist: &Netlist, gate: &Gate, pos: usize, v: Logic) -> Option<Logic> {
    match (gate.kind, v) {
        (GateKind::Buf, _) => return Some(v.resolved()),
        (GateKind::Not, _) => return Some(v.not()),
        (GateKind::And, Logic::Zero) => return Some(Logic::Zero),
        (GateKind::Nand, Logic::Zero) => return Some(Logic::One),
        (GateKind::Or, Logic::One) => return Some(Logic::One),
        (GateKind::Nor, Logic::One) => return Some(Logic::Zero),
        _ => {}
    }
    let mut values = vec![Logic::X; gate.inputs.len()];
    let mut free = Vec::new();
    for (k, &input) in gate.inputs.iter().enumerate() {
        if k == pos {
            values[k] = v;
        } else if let Driver::Const(c) = netlist.net(input).driver {
            values[k] = c;
        } else {
            free.push(k);
        }
    }
    if free.len() > MAX_FREE_ENUM {
        return None;
    }
    let mut forced: Option<Logic> = None;
    for combo in 0..3usize.pow(free.len() as u32) {
        let mut c = combo;
        for &k in &free {
            values[k] = [Logic::Zero, Logic::One, Logic::X][c % 3];
            c /= 3;
        }
        let out = gate.kind.eval(&values);
        match forced {
            None => forced = Some(out),
            Some(prev) if prev == out => {}
            Some(_) => return None,
        }
    }
    forced.filter(|out| out.is_known())
}

impl FaultCollapser {
    /// Builds the collapser for an injection environment: the protected
    /// nets are exactly what the campaign monitors — observation nets
    /// (zone anchors), alarm nets, functional outputs and every primary
    /// output.
    pub fn build(env: &Environment) -> FaultCollapser {
        let mut protected = vec![false; env.netlist.net_count()];
        for &net in env
            .observation_nets
            .iter()
            .chain(&env.alarm_nets)
            .chain(&env.functional_outputs)
        {
            protected[net.index()] = true;
        }
        Self::construct(env.netlist, protected)
    }

    /// Builds the collapser with an explicit protected-net list. Primary
    /// outputs are always protected in addition to `protected` — a campaign
    /// can monitor them regardless of zone configuration.
    pub fn with_protected(netlist: &Netlist, protected: &[NetId]) -> FaultCollapser {
        let mut flags = vec![false; netlist.net_count()];
        for &net in protected {
            flags[net.index()] = true;
        }
        Self::construct(netlist, flags)
    }

    fn construct(netlist: &Netlist, protected: Vec<bool>) -> FaultCollapser {
        let chains = ChainLinks::new(netlist);
        let n_sites = netlist.net_count() * 2;
        let mut parent: Vec<usize> = (0..n_sites).collect();
        let mut dominance = Vec::new();

        for gate in netlist.gates() {
            let out = gate.output;
            for (pos, &input) in gate.inputs.iter().enumerate() {
                // The input net must be invisible to everything but this
                // gate: private (sole gate reader — a net listed twice by
                // one gate counts two pins and is conservatively skipped —
                // no flip-flop reader, not a primary output) and
                // unmonitored. Only then do the two faulty circuits differ
                // on nothing a monitor can see. Self-loops never merge
                // (they would equate the two polarities of one net).
                let eligible =
                    input != out && chains.is_private(input) && !protected[input.index()];
                if !eligible {
                    continue;
                }
                for v in [Logic::Zero, Logic::One] {
                    if let Some(fv) = forced_output(netlist, gate, pos, v) {
                        union(&mut parent, site_index(input, v), site_index(out, fv));
                    }
                }
                let dominated_by = match gate.kind {
                    GateKind::And => Some((Logic::One, Logic::One)),
                    GateKind::Or => Some((Logic::Zero, Logic::Zero)),
                    GateKind::Nand => Some((Logic::One, Logic::Zero)),
                    GateKind::Nor => Some((Logic::Zero, Logic::One)),
                    _ => None,
                };
                if let Some((ov, iv)) = dominated_by {
                    dominance.push(DominancePair {
                        dominator: (out, ov),
                        dominated: (input, iv),
                    });
                }
            }
        }

        let canon: Vec<usize> = (0..n_sites).map(|s| find(&mut parent, s)).collect();
        let mut class_size = vec![0usize; n_sites];
        for &root in &canon {
            class_size[root] += 1;
        }
        let mut members: HashMap<usize, Vec<Site>> = HashMap::new();
        for (s, &root) in canon.iter().enumerate() {
            if class_size[root] > 1 {
                members.entry(root).or_default().push(site_of_index(s));
            }
        }
        let mut roots: Vec<usize> = members.keys().copied().collect();
        roots.sort_unstable();
        let classes: Vec<Vec<Site>> = roots
            .into_iter()
            .map(|r| members.remove(&r).unwrap())
            .collect();
        let distinct = class_size.iter().filter(|&&n| n > 0).count();
        FaultCollapser {
            canon,
            classes,
            dominance,
            distinct,
        }
    }

    /// The canonical representative site of `(net, value)`. Unknown stuck
    /// values (`X`/`Z`) are never collapsed and map to themselves.
    pub fn canonical(&self, net: NetId, value: Logic) -> Site {
        if !value.is_known() {
            return (net, value);
        }
        site_of_index(self.canon[site_index(net, value)])
    }

    /// All non-singleton equivalence classes, members in ascending site
    /// order; each class's first member is its canonical representative.
    pub fn classes(&self) -> &[Vec<Site>] {
        &self.classes
    }

    /// The detected dominance pairs (see the [module docs](self) on why
    /// these are reported but never merged).
    pub fn dominance_pairs(&self) -> &[DominancePair] {
        &self.dominance
    }

    /// Total stuck-at sites of the netlist (two polarities per net).
    pub fn site_count(&self) -> usize {
        self.canon.len()
    }

    /// Number of distinct equivalence classes over all sites.
    pub fn distinct_site_count(&self) -> usize {
        self.distinct
    }

    /// The structural collapse ratio of the *exhaustive* site universe:
    /// `site_count / distinct_site_count` (≥ 1).
    pub fn structural_ratio(&self) -> f64 {
        self.site_count() as f64 / self.distinct_site_count().max(1) as f64
    }
}

/// The per-campaign collapse plan: which fault indices are simulated and
/// which are dictionary-annotated from an equivalent representative.
///
/// Grouping is deliberately *stricter* than structural equivalence, so that
/// back-annotated outcomes are bit-identical fields-and-all, not merely
/// identical classifications. Two faults share a representative only when
/// they agree on:
///
/// * the **canonical site** — the monitors outside the collapsed-through
///   nets then see identical faulty traces (`first_mismatch`,
///   `alarm_cycle`, `deviated_zones` all equal);
/// * the **injection cycle** — the forced overlays start together;
/// * the **zone attribution** — the own-zone observation component of
///   `sens_triggered` compares `deviated_zones` against `fault.zone`;
/// * the **target-excitation bit** `T` — the SENS monitor also watches the
///   fault's *own* net against golden, and equivalent sites can disagree
///   there (their golden waveforms differ). `T` reproduces that monitor
///   exactly: the faulty target reads back the forced value from the
///   injection cycle on, so it deviates iff golden is known and opposite
///   at some monitored cycle.
pub(crate) struct CollapsePlan {
    /// `rep_of[i]` is the fault index whose outcome fault `i` reuses;
    /// `rep_of[i] == i` exactly for simulated representatives.
    pub(crate) rep_of: Vec<usize>,
    /// The representative indices in ascending fault-list order — the
    /// simulation schedule.
    pub(crate) sim_order: Vec<usize>,
}

impl CollapsePlan {
    /// Heap bytes of the representative map and the schedule.
    pub(crate) fn approx_bytes(&self) -> usize {
        (self.rep_of.capacity() + self.sim_order.capacity()) * std::mem::size_of::<usize>()
    }

    /// Builds the plan for a fault list over a workload of `cycles` cycles.
    /// `golden` reads the fault-free value of a targeted net at a cycle.
    /// Faults with `skip(i)` true are answered elsewhere (statically
    /// pruned): they neither simulate nor join any dictionary group, and
    /// `rep_of[i]` stays `i` without entering `sim_order`.
    pub(crate) fn build(
        faults: &[Fault],
        cycles: usize,
        collapser: &FaultCollapser,
        golden: impl Fn(usize, NetId) -> Logic,
        skip: impl Fn(usize) -> bool,
    ) -> CollapsePlan {
        type GroupKey = (NetId, Logic, usize, Option<ZoneId>, bool);
        let mut groups: HashMap<GroupKey, usize> = HashMap::new();
        let mut quiet_rep: Option<usize> = None;
        let mut rep_of: Vec<usize> = (0..faults.len()).collect();
        for (fi, fault) in faults.iter().enumerate() {
            if skip(fi) {
                continue;
            }
            let FaultKind::StuckAt { net, value } = fault.kind else {
                continue; // only stuck-ats collapse; everything else is its own rep
            };
            if !value.is_known() {
                continue;
            }
            // A *quiet* fault forces a value the golden run already holds at
            // every cycle from injection on: the overlay is a no-op, the
            // faulty run IS the golden run, and the outcome is the empty
            // `NoEffect` regardless of site, zone or injection cycle — every
            // monitor compares faulty against golden and sees equality.
            // (Exact equality is required: where golden is `X`, a forced
            // known value can still raise an alarm the golden run did not.)
            // All quiet faults therefore share one global representative;
            // zone attribution stays per-fault because the commit path reads
            // each annotated fault's own zone.
            let quiet = (fault.inject_cycle..cycles).all(|c| golden(c, net) == value);
            if quiet {
                rep_of[fi] = *quiet_rep.get_or_insert(fi);
                continue;
            }
            let (cnet, cval) = collapser.canonical(net, value);
            let excited = (fault.inject_cycle..cycles).any(|c| {
                let g = golden(c, net);
                g.is_known() && g != value
            });
            rep_of[fi] = *groups
                .entry((cnet, cval, fault.inject_cycle, fault.zone, excited))
                .or_insert(fi);
        }
        let sim_order = (0..faults.len())
            .filter(|&i| rep_of[i] == i && !skip(i))
            .collect();
        CollapsePlan { rep_of, sim_order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_netlist::NetlistBuilder;

    /// `a → Not → x → Buf → y → Not → z`, `z` exported as output `o`.
    fn chain() -> (Netlist, NetId, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.gate(GateKind::Not, &[a], "x");
        let y = b.gate(GateKind::Buf, &[x], "y");
        let z = b.gate(GateKind::Not, &[y], "z");
        b.output("o", z);
        let nl = b.finish().unwrap();
        (nl, a, x, y, z)
    }

    #[test]
    fn buffer_inverter_chains_collapse_with_polarity() {
        let (nl, a, x, y, z) = chain();
        let c = FaultCollapser::with_protected(&nl, &[]);
        // every site along the chain lands on the chain root `a`, with the
        // polarity flipped once per inverter
        assert_eq!(c.canonical(z, Logic::Zero), (a, Logic::Zero));
        assert_eq!(c.canonical(z, Logic::One), (a, Logic::One));
        assert_eq!(c.canonical(y, Logic::Zero), (a, Logic::One));
        assert_eq!(c.canonical(x, Logic::One), (a, Logic::Zero));
        // two classes of five members each (the port buffer of `o` joins in)
        let five: Vec<_> = c.classes().iter().filter(|cl| cl.len() == 5).collect();
        assert_eq!(five.len(), 2, "classes: {:?}", c.classes());
        assert!(c.structural_ratio() > 1.0);
    }

    #[test]
    fn protected_nets_block_collapsing() {
        let (nl, a, x, y, z) = chain();
        // protecting `x` cuts the chain at the buffer: `y` may not collapse
        // *through* `x` any more, so the downstream class roots at `y`
        let c = FaultCollapser::with_protected(&nl, &[x]);
        assert_eq!(c.canonical(y, Logic::Zero), (y, Logic::Zero));
        assert_eq!(c.canonical(z, Logic::One), (y, Logic::Zero));
        assert_ne!(c.canonical(y, Logic::Zero), c.canonical(x, Logic::Zero));
        // collapsing `x` onto `a` from upstream is still sound — those two
        // faulty circuits differ only on the unmonitored net `a`
        assert_eq!(c.canonical(x, Logic::Zero), (a, Logic::One));
    }

    #[test]
    fn fanout_stems_do_not_collapse() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let x = b.gate(GateKind::Not, &[a], "x");
        let y1 = b.gate(GateKind::Buf, &[x], "y1");
        let y2 = b.gate(GateKind::Buf, &[x], "y2");
        b.output("o1", y1);
        b.output("o2", y2);
        let nl = b.finish().unwrap();
        let c = FaultCollapser::with_protected(&nl, &[]);
        // `x` fans out to two buffers: the branch faults stay distinct
        assert_eq!(c.canonical(y1, Logic::Zero), (y1, Logic::Zero));
        assert_eq!(c.canonical(y2, Logic::Zero), (y2, Logic::Zero));
        // the stem itself still collapses through the single-fanout `a`
        assert_eq!(c.canonical(x, Logic::Zero), (a, Logic::One));
    }

    #[test]
    fn and_or_controlling_values_merge_with_the_output() {
        let mut b = NetlistBuilder::new("ctl");
        let (a, bb) = (b.input("a"), b.input("b"));
        let (cc, d) = (b.input("c"), b.input("d"));
        let and = b.gate(GateKind::And, &[a, bb], "and");
        let nor = b.gate(GateKind::Nor, &[cc, d], "nor");
        let top = b.gate(GateKind::Xor, &[and, nor], "top");
        b.output("o", top);
        let nl = b.finish().unwrap();
        let c = FaultCollapser::with_protected(&nl, &[]);
        // And: i-sa0 ≡ o-sa0 for both inputs → one 3-member class
        assert_eq!(c.canonical(a, Logic::Zero), c.canonical(bb, Logic::Zero));
        assert_eq!(c.canonical(a, Logic::Zero), c.canonical(and, Logic::Zero));
        // Nor: i-sa1 ≡ o-sa0
        assert_eq!(c.canonical(cc, Logic::One), c.canonical(nor, Logic::Zero));
        // non-controlling polarities stay put
        assert_eq!(c.canonical(a, Logic::One), (a, Logic::One));
        // Xor inputs with free siblings never merge
        assert_eq!(c.canonical(and, Logic::One), (and, Logic::One));
    }

    #[test]
    fn const_degenerate_gates_collapse_via_enumeration() {
        let mut b = NetlistBuilder::new("deg");
        let a = b.input("a");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let zero = b.constant(Logic::Zero);
        let x = b.gate(GateKind::Xor, &[a, zero], "x");
        b.output("o", x);
        // Mux2 with a constant-0 select passes data input `d0`
        let m = b.gate(GateKind::Mux2, &[zero, d0, d1], "m");
        b.output("om", m);
        let nl = b.finish().unwrap();
        let c = FaultCollapser::with_protected(&nl, &[]);
        // xor(a, 0) is a buffer of `a`
        assert_eq!(c.canonical(a, Logic::One), c.canonical(x, Logic::One));
        assert_eq!(c.canonical(a, Logic::Zero), c.canonical(x, Logic::Zero));
        // the selected mux leg collapses onto the mux output…
        assert_eq!(c.canonical(d0, Logic::One), c.canonical(m, Logic::One));
        // …the deselected leg does not
        assert_eq!(c.canonical(d1, Logic::One), (d1, Logic::One));
    }

    #[test]
    fn dff_readers_block_collapsing() {
        let mut b = NetlistBuilder::new("ff");
        let d = b.input("d");
        let y = b.gate(GateKind::Buf, &[d], "y");
        let q = b.dff("q", d);
        b.output("o", y);
        b.output("oq", q);
        let nl = b.finish().unwrap();
        let c = FaultCollapser::with_protected(&nl, &[]);
        // `d` also feeds a flip-flop D pin: a stuck-at there changes the
        // sampled state, so it must not collapse through the buffer
        assert_eq!(c.canonical(d, Logic::Zero), (d, Logic::Zero));
        assert_ne!(c.canonical(y, Logic::Zero), c.canonical(d, Logic::Zero));
    }

    #[test]
    fn dominance_pairs_are_reported_not_merged() {
        let mut b = NetlistBuilder::new("dom");
        let (a, bb) = (b.input("a"), b.input("b"));
        let and = b.gate(GateKind::And, &[a, bb], "and");
        b.output("o", and);
        let nl = b.finish().unwrap();
        let c = FaultCollapser::with_protected(&nl, &[]);
        assert!(c.dominance_pairs().contains(&DominancePair {
            dominator: (and, Logic::One),
            dominated: (a, Logic::One),
        }));
        // the dominated site keeps its own identity
        assert_eq!(c.canonical(a, Logic::One), (a, Logic::One));
        assert_eq!(c.canonical(and, Logic::One), (and, Logic::One));
    }

    #[test]
    fn plan_groups_on_site_zone_cycle_and_excitation() {
        let (nl, a, x, _y, _z) = chain();
        let c = FaultCollapser::with_protected(&nl, &[]);
        let sa = |net, value, inject_cycle| Fault {
            kind: FaultKind::StuckAt { net, value },
            zone: None,
            inject_cycle,
            label: String::new(),
        };
        let faults = [
            sa(a, Logic::One, 0),  // rep of the class
            sa(x, Logic::Zero, 0), // same canonical (a sa-1), same T → annotated
            sa(x, Logic::Zero, 1), // different inject cycle → own rep
            sa(a, Logic::Zero, 0), // other polarity, excited → own rep
        ];
        // golden: `a` is X on cycle 0 then 1, `x` is X on cycles 0-1 then 0
        // — every fault sees its own value or X, so none is excited, and the
        // X cycle inside each injection window keeps them out of the quiet
        // group. Grouping must then follow (canonical site, inject cycle).
        let plan = CollapsePlan::build(
            &faults,
            4,
            &c,
            |cycle, net| match net {
                n if n == a && cycle == 0 => Logic::X,
                n if n == a => Logic::One,
                _ if cycle <= 1 => Logic::X,
                _ => Logic::Zero,
            },
            |_| false,
        );
        assert_eq!(plan.rep_of, vec![0, 0, 2, 3]);
        assert_eq!(plan.sim_order, vec![0, 2, 3]);
    }

    #[test]
    fn quiet_faults_share_one_global_representative() {
        let (nl, a, x, y, _z) = chain();
        let c = FaultCollapser::with_protected(&nl, &[]);
        let sa = |net, value, zone, inject_cycle| Fault {
            kind: FaultKind::StuckAt { net, value },
            zone,
            inject_cycle,
            label: String::new(),
        };
        // golden holds every net at the stuck value for the whole run, so
        // each overlay is a no-op and the faulty run is the golden run: one
        // representative covers all of them, across sites, zones and
        // injection cycles.
        let z0 = Some(ZoneId::from_index(0));
        let faults = [
            sa(a, Logic::One, None, 0),
            sa(x, Logic::Zero, z0, 2), // other site, zone and cycle
            // structurally equivalent to fault 3's site (a sa-0), but quiet
            // takes precedence: golden holds y at 1, fault 3 is excited
            sa(y, Logic::One, None, 1),
            sa(a, Logic::Zero, None, 0), // golden differs → excited, own rep
        ];
        let plan = CollapsePlan::build(
            &faults,
            4,
            &c,
            |_c, net| {
                if net == a || net == y {
                    Logic::One
                } else {
                    Logic::Zero
                }
            },
            |_| false,
        );
        assert_eq!(plan.rep_of, vec![0, 0, 0, 3]);
        assert_eq!(plan.sim_order, vec![0, 3]);
        // a fault whose window starts past the workload end is trivially
        // quiet: it is never applied at all
        let late = [sa(a, Logic::Zero, None, 9)];
        let plan = CollapsePlan::build(&late, 4, &c, |_c, _n| Logic::One, |_| false);
        assert_eq!(plan.rep_of, vec![0]);
    }

    #[test]
    fn plan_splits_groups_when_target_excitation_differs() {
        let (nl, a, x, _y, _z) = chain();
        let c = FaultCollapser::with_protected(&nl, &[]);
        let sa = |net, value| Fault {
            kind: FaultKind::StuckAt { net, value },
            zone: None,
            inject_cycle: 0,
            label: String::new(),
        };
        // a sa-1 and x sa-0 share the canonical site (a, 1); golden drives
        // `a` to 0 at some cycle (excites a sa-1) but holds `x` at 0
        // (never excites x sa-0) → the SENS monitor can fire for one and
        // not the other, so they must NOT share an outcome
        let faults = [sa(a, Logic::One), sa(x, Logic::Zero)];
        let plan = CollapsePlan::build(
            &faults,
            4,
            &c,
            |cycle, net| {
                if net == a && cycle == 2 {
                    Logic::Zero
                } else if net == a {
                    Logic::One
                } else {
                    Logic::Zero
                }
            },
            |_| false,
        );
        assert_eq!(plan.rep_of, vec![0, 1], "excitation split ignored");
    }

    #[test]
    fn non_stuck_faults_are_always_their_own_representative() {
        let (nl, _a, _x, _y, _z) = chain();
        let c = FaultCollapser::with_protected(&nl, &[]);
        let faults = [
            Fault {
                kind: FaultKind::ClockStuck { cycles: 2 },
                zone: None,
                inject_cycle: 1,
                label: String::new(),
            },
            Fault {
                kind: FaultKind::ClockStuck { cycles: 2 },
                zone: None,
                inject_cycle: 1,
                label: String::new(),
            },
        ];
        let plan = CollapsePlan::build(&faults, 4, &c, |_c, _n| Logic::X, |_| false);
        assert_eq!(plan.rep_of, vec![0, 1]);
    }
}
