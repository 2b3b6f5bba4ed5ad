//! Candidate fault-list generation, equivalence collapsing and seeded
//! randomisation.
//!
//! "this block extracts the Operational Profile (OP) from a given workload
//! ... to ensure that only faults which will produce an error are selected
//! during the fault list generation process. In this way the generated
//! fault list is compacted and non trivial" (paper §5).

use crate::env::Environment;
use crate::profile::OperationalProfile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use socfmea_core::{wide_fault_sites, ZoneId, ZoneKind};
use socfmea_netlist::{DffId, Driver, GateKind, Logic, NetId, Netlist};
use socfmea_sim::BridgeKind;
use std::fmt;

/// What a single injection does to the faulty design copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Soft error: flip the stored state of one flip-flop at the injection
    /// cycle.
    BitFlip {
        /// The flipped flip-flop.
        dff: DffId,
    },
    /// Permanent stuck-at on a net, active from the injection cycle on.
    StuckAt {
        /// The faulted net.
        net: NetId,
        /// The stuck value.
        value: Logic,
    },
    /// Single-cycle glitch on a net (sampled or masked by downstream logic).
    Glitch {
        /// The glitched net.
        net: NetId,
        /// The forced value.
        value: Logic,
    },
    /// Bridging fault between two nets, active from the injection cycle on.
    Bridge {
        /// Aggressor net.
        aggressor: NetId,
        /// Victim net.
        victim: NetId,
        /// Coupling model.
        kind: BridgeKind,
    },
    /// Global clock fault: the clock tree stops toggling for `cycles`
    /// cycles.
    ClockStuck {
        /// Duration of the outage.
        cycles: usize,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BitFlip { dff } => write!(f, "bitflip@{dff}"),
            FaultKind::StuckAt { net, value } => write!(f, "sa{value}@{net}"),
            FaultKind::Glitch { net, value } => write!(f, "glitch{value}@{net}"),
            FaultKind::Bridge {
                aggressor, victim, ..
            } => write!(f, "bridge {aggressor}->{victim}"),
            FaultKind::ClockStuck { cycles } => write!(f, "clock-stuck {cycles}cy"),
        }
    }
}

/// A scheduled fault: what, where (which zone it exercises) and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The physical action.
    pub kind: FaultKind,
    /// The sensible zone whose failure mode this injection exercises
    /// (`None` for raw local/global HW faults outside any zone).
    pub zone: Option<ZoneId>,
    /// Workload cycle at which the fault becomes active.
    pub inject_cycle: usize,
    /// Human-readable label for reports.
    pub label: String,
}

/// Parameters of the fault-list generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultListConfig {
    /// Bit flips sampled per sequential zone (exhaustive zone-failure
    /// injection, validation step (a)).
    pub bitflips_per_zone: usize,
    /// Stuck-at faults sampled per zone anchor group.
    pub stuckats_per_zone: usize,
    /// Local gate faults (glitches/stuck-ats inside cones) sampled per zone
    /// (validation step (c) — selective local HW injection).
    pub local_faults_per_zone: usize,
    /// Wide (shared-cone) faults sampled in total (validation step (d)).
    pub wide_faults: usize,
    /// Bridging (coupling) faults sampled in total: pairs of nets driven by
    /// gates of the same block with nearby ids — a placement-adjacency
    /// proxy, since "physical faults like resistive or capacitive coupling
    /// between lines are also included in such model" (paper §3).
    pub bridge_faults: usize,
    /// Include the global clock-stuck fault.
    pub global_faults: bool,
    /// Skip zones the operational profile shows as never active.
    pub skip_inactive_zones: bool,
    /// Canonicalise the stuck-at dedup through the full structural
    /// [`FaultCollapser`](crate::FaultCollapser) (gate equivalence rules,
    /// transitive chains) instead of buffer/inverter chains only, so the
    /// generated list is compacted across structurally equivalent sites.
    ///
    /// This changes *which faults are generated*. It is independent of
    /// [`Campaign::collapsing`](crate::Campaign::collapsing), which never
    /// changes the list and only skips redundant simulations.
    pub collapse: bool,
    /// RNG seed: identical seeds give identical lists.
    pub seed: u64,
}

impl FaultListConfig {
    /// Sets [`collapse`](Self::collapse) (builder style).
    pub fn collapse(mut self, on: bool) -> Self {
        self.collapse = on;
        self
    }
}

impl Default for FaultListConfig {
    fn default() -> FaultListConfig {
        FaultListConfig {
            bitflips_per_zone: 4,
            stuckats_per_zone: 2,
            local_faults_per_zone: 2,
            wide_faults: 8,
            bridge_faults: 4,
            global_faults: true,
            skip_inactive_zones: true,
            collapse: false,
            seed: 0x5eed,
        }
    }
}

/// Collapses a stuck-at fault site through buffer/inverter chains to its
/// canonical (driver-side) equivalent: `sa-v` on a buffer output is
/// equivalent to `sa-v` on its input; through an inverter the polarity
/// flips. Returns the canonical `(net, value)`.
///
/// A chain net is only traversed when it is invisible to everything but
/// the buffer/inverter itself: its sole gate reader is that gate, no
/// flip-flop samples it, and it is not a primary output. Collapsing
/// through a fanout stem would *not* be an equivalence — `sa-v` on one
/// branch leaves the other branches fault-free, while `sa-v` on the stem
/// faults them all. The full per-gate equivalence rules (AND/OR/NAND/NOR
/// controlling values, const-degenerate gates) live in
/// [`FaultCollapser`](crate::FaultCollapser).
///
/// Each call counts the netlist's readers afresh; the fault-list generator
/// and [`fault_universe`](crate::fault_universe) count them once for every
/// site they canonicalise.
///
/// # Example
///
/// ```
/// use socfmea_netlist::{GateKind, Logic, NetlistBuilder};
/// use socfmea_faultsim::collapse_stuck_at;
///
/// let mut b = NetlistBuilder::new("c");
/// let a = b.input("a");
/// let x = b.gate(GateKind::Not, &[a], "x");
/// let y = b.gate(GateKind::Buf, &[x], "y");
/// b.output("o", y);
/// let nl = b.finish()?;
/// let y_net = nl.net_by_name("y").unwrap();
/// // sa0 on y == sa0 on x == sa1 on a
/// assert_eq!(collapse_stuck_at(&nl, y_net, Logic::Zero), (a, Logic::One));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn collapse_stuck_at(netlist: &Netlist, net: NetId, value: Logic) -> (NetId, Logic) {
    ChainLinks::new(netlist).canonical(net, value)
}

/// The fan-out facts of buffer/inverter chain collapsing, counted once per
/// netlist: which nets are *private* — read by exactly one gate pin, by no
/// flip-flop, and not a primary output.
pub(crate) struct ChainLinks<'n> {
    netlist: &'n Netlist,
    private: Vec<bool>,
}

impl<'n> ChainLinks<'n> {
    /// Counts the readers of every net of `netlist` in one pass over its
    /// gate and flip-flop pins.
    pub(crate) fn new(netlist: &'n Netlist) -> ChainLinks<'n> {
        let mut pins = vec![0u32; netlist.net_count()];
        for g in netlist.gates() {
            for &i in &g.inputs {
                pins[i.index()] = pins[i.index()].saturating_add(1);
            }
        }
        let mut private: Vec<bool> = pins.into_iter().map(|p| p == 1).collect();
        for ff in netlist.dffs() {
            for net in [Some(ff.d), ff.enable, ff.reset].into_iter().flatten() {
                private[net.index()] = false;
            }
        }
        for &o in netlist.outputs() {
            private[o.index()] = false;
        }
        ChainLinks { netlist, private }
    }

    /// Whether `net` is read by exactly one gate pin and nothing else.
    pub(crate) fn is_private(&self, net: NetId) -> bool {
        self.private[net.index()]
    }

    /// The canonical site of `(net, value)`; see [`collapse_stuck_at`].
    pub(crate) fn canonical(&self, mut net: NetId, mut value: Logic) -> (NetId, Logic) {
        loop {
            let Driver::Gate(g) = self.netlist.net(net).driver else {
                return (net, value);
            };
            let gate = self.netlist.gate(g);
            let flip = match gate.kind {
                GateKind::Buf => false,
                GateKind::Not => true,
                _ => return (net, value),
            };
            let src = gate.inputs[0];
            if !self.is_private(src) {
                return (net, value);
            }
            net = src;
            if flip {
                value = value.not();
            }
        }
    }
}

/// Generates a compacted, randomised fault list from the FMEA zones, the
/// operational profile and the configuration.
///
/// The list is deterministic in the seed. Injection cycles are sampled from
/// the first 80 % of the workload so effects have time to propagate.
pub fn generate_fault_list(
    env: &Environment<'_>,
    profile: &OperationalProfile,
    config: &FaultListConfig,
) -> Vec<Fault> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut faults = Vec::new();
    let horizon = (env.workload.len().saturating_mul(4) / 5).max(1);
    let pick_cycle = |rng: &mut StdRng| rng.random_range(0..horizon);

    let chains = ChainLinks::new(env.netlist);
    let collapser = config
        .collapse
        .then(|| crate::collapse::FaultCollapser::build(env));
    let canonical_of = |net: NetId, value: Logic| match &collapser {
        Some(c) => c.canonical(net, value),
        None => chains.canonical(net, value),
    };
    let mut seen_stuck: std::collections::HashSet<(NetId, Logic)> =
        std::collections::HashSet::new();
    let mut seen_zone_stuck: std::collections::HashSet<(NetId, Logic, ZoneId)> =
        std::collections::HashSet::new();

    for zone in env.zones.zones() {
        if config.skip_inactive_zones
            && profile.activity(zone.id).active_cycles == 0
            && zone.is_sequential()
        {
            continue;
        }
        // (a) exhaustive sensible-zone failure injection: bit flips in
        // sequential zones.
        if let ZoneKind::RegisterGroup { dffs } | ZoneKind::SubBlock { dffs, .. } = &zone.kind {
            let mut targets: Vec<DffId> = dffs.clone();
            targets.shuffle(&mut rng);
            for &dff in targets.iter().take(config.bitflips_per_zone) {
                faults.push(Fault {
                    kind: FaultKind::BitFlip { dff },
                    zone: Some(zone.id),
                    inject_cycle: pick_cycle(&mut rng),
                    label: format!("{}: soft error in {dff}", zone.name),
                });
            }
        }
        // stuck-at on zone anchors (DC fault model of the zone itself);
        // both polarities per anchor so one of them always disturbs the net
        let mut anchors = zone.anchors.clone();
        anchors.shuffle(&mut rng);
        for &net in anchors.iter().take(config.stuckats_per_zone) {
            for value in [Logic::Zero, Logic::One] {
                let (cnet, cval) = canonical_of(net, value);
                // The dedup is per zone: a second anchor of the *same* zone
                // landing on an already-scheduled canonical site adds
                // nothing, but when the anchors of two zones collapse to a
                // shared site (e.g. a buffered anchor net), each zone keeps
                // its own attributed fault — silently dropping the second
                // would lose that zone's DC evidence.
                if !seen_zone_stuck.insert((cnet, cval, zone.id)) {
                    continue;
                }
                let mut label = format!("{}: stuck-at-{value} on {net}", zone.name);
                if !seen_stuck.insert((cnet, cval)) {
                    label.push_str(" (canonical site shared with another zone)");
                }
                faults.push(Fault {
                    kind: FaultKind::StuckAt { net, value },
                    zone: Some(zone.id),
                    inject_cycle: 0,
                    label,
                });
            }
        }
        // (c) selective local HW faults inside the converging cone;
        // restricted to genuinely *local* gates (single-cone membership) so
        // the zone attribution — and thus the effects cross-check — is
        // sound. Shared gates are wide fault sites and handled below.
        if !zone.cone.gates.is_empty() {
            let mut gates: Vec<_> = zone
                .cone
                .gates
                .iter()
                .copied()
                .filter(|&g| env.zones.membership().fan(g) == socfmea_netlist::GateFan::Local)
                .collect();
            gates.shuffle(&mut rng);
            for &g in gates.iter().take(config.local_faults_per_zone) {
                let net = env.netlist.gate(g).output;
                // both polarities: one of them always disturbs the net
                for value in [Logic::Zero, Logic::One] {
                    faults.push(Fault {
                        kind: FaultKind::Glitch { net, value },
                        zone: Some(zone.id),
                        inject_cycle: pick_cycle(&mut rng),
                        label: format!("{}: local glitch{value} on {net}", zone.name),
                    });
                }
            }
        }
    }

    // (d) wide faults: permanent stuck-at on gates shared between cones
    let mut wide = wide_fault_sites(env.zones);
    wide.truncate(config.wide_faults.max(wide.len().min(config.wide_faults)));
    for site in wide.into_iter().take(config.wide_faults) {
        let net = env.netlist.gate(site.gate).output;
        let value = if rng.random_bool(0.5) {
            Logic::One
        } else {
            Logic::Zero
        };
        let canonical = canonical_of(net, value);
        if !seen_stuck.insert(canonical) {
            continue;
        }
        // Wide faults carry no single-zone attribution: one physical fault
        // fails several zones at once (validation step (d) checks them
        // separately against the exhaustive zone-failure results).
        faults.push(Fault {
            kind: FaultKind::StuckAt { net, value },
            zone: None,
            inject_cycle: 0,
            label: format!("wide: stuck-at-{value} on shared {net}"),
        });
    }

    // bridging faults between same-block neighbours (layout proxy)
    if config.bridge_faults > 0 {
        let gates = env.netlist.gates();
        let mut candidates: Vec<(NetId, NetId)> = gates
            .windows(2)
            .filter(|w| w[0].block == w[1].block)
            .map(|w| (w[0].output, w[1].output))
            .collect();
        candidates.shuffle(&mut rng);
        for (aggressor, victim) in candidates.into_iter().take(config.bridge_faults) {
            let kind = if rng.random_bool(0.5) {
                BridgeKind::And
            } else {
                BridgeKind::Or
            };
            faults.push(Fault {
                kind: FaultKind::Bridge {
                    aggressor,
                    victim,
                    kind,
                },
                zone: None,
                inject_cycle: 0,
                label: format!("bridge {aggressor}->{victim} ({kind:?})"),
            });
        }
    }

    // global clock fault
    if config.global_faults {
        let clock_zone = env.zones.zones().iter().find(|z| {
            matches!(
                z.kind,
                ZoneKind::CriticalNet {
                    role: socfmea_netlist::CriticalNetKind::Clock,
                    ..
                }
            )
        });
        faults.push(Fault {
            kind: FaultKind::ClockStuck { cycles: 2 },
            zone: clock_zone.map(|z| z.id),
            inject_cycle: pick_cycle(&mut rng),
            label: "global: clock stuck for 2 cycles".into(),
        });
    }

    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentBuilder;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Workload};

    fn setup() -> (socfmea_netlist::Netlist, Workload) {
        let mut r = RtlBuilder::new("fl");
        let _clk = r.clock_input("clk");
        let d = r.input_word("d", 4);
        let inv = r.not(&d);
        let a = r.register("a", &inv, None, None);
        let b = r.register("b", &a, None, None);
        r.output_word("o", &b);
        let nl = r.finish().unwrap();
        let d_nets: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..16u64 {
            let mut v = Vec::new();
            assign_bus(&mut v, &d_nets, c);
            w.push_cycle(v);
        }
        (nl, w)
    }

    #[test]
    fn list_is_deterministic_in_seed() {
        let (nl, w) = setup();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let profile = OperationalProfile::collect(&env);
        let cfg = FaultListConfig::default();
        let a = generate_fault_list(&env, &profile, &cfg);
        let b = generate_fault_list(&env, &profile, &cfg);
        assert_eq!(a, b);
        let c = generate_fault_list(&env, &profile, &FaultListConfig { seed: 999, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn list_contains_all_fault_classes() {
        let (nl, w) = setup();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let profile = OperationalProfile::collect(&env);
        let faults = generate_fault_list(&env, &profile, &FaultListConfig::default());
        assert!(faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::BitFlip { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::StuckAt { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Glitch { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::ClockStuck { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Bridge { .. })));
        // all zone-failure faults are attributed
        assert!(faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::BitFlip { .. }))
            .all(|f| f.zone.is_some()));
        // injection cycles are within the workload
        assert!(faults.iter().all(|f| f.inject_cycle < w.len()));
    }

    #[test]
    fn collapse_through_chains() {
        let mut b = socfmea_netlist::NetlistBuilder::new("c");
        let a = b.input("a");
        let n1 = b.gate(GateKind::Not, &[a], "n1");
        let n2 = b.gate(GateKind::Not, &[n1], "n2");
        let bf = b.gate(GateKind::Buf, &[n2], "bf");
        b.output("o", bf);
        let nl = b.finish().unwrap();
        let bf_net = nl.net_by_name("bf").unwrap();
        // two inverters cancel: sa1 on bf == sa1 on a
        assert_eq!(collapse_stuck_at(&nl, bf_net, Logic::One), (a, Logic::One));
    }

    #[test]
    fn collapse_stops_at_fanout_stems() {
        let mut b = socfmea_netlist::NetlistBuilder::new("fan");
        let a = b.input("a");
        let x = b.gate(GateKind::Not, &[a], "x");
        let y1 = b.gate(GateKind::Buf, &[x], "y1");
        let y2 = b.gate(GateKind::Buf, &[x], "y2");
        b.output("o1", y1);
        b.output("o2", y2);
        let nl = b.finish().unwrap();
        // `x` fans out to two buffers: sa0 on branch `y1` leaves `y2`
        // fault-free, so neither branch may collapse onto the stem — the
        // two branch faults must stay distinct
        assert_eq!(collapse_stuck_at(&nl, y1, Logic::Zero), (y1, Logic::Zero));
        assert_eq!(collapse_stuck_at(&nl, y2, Logic::Zero), (y2, Logic::Zero));
        assert_ne!(
            collapse_stuck_at(&nl, y1, Logic::Zero),
            collapse_stuck_at(&nl, y2, Logic::Zero)
        );
        // the single-fanout inverter input still collapses
        assert_eq!(collapse_stuck_at(&nl, x, Logic::Zero), (a, Logic::One));
    }

    #[test]
    fn collapse_stops_at_dff_readers_and_primary_outputs() {
        let mut b = socfmea_netlist::NetlistBuilder::new("edge");
        let d = b.input("d");
        let y = b.gate(GateKind::Buf, &[d], "y");
        let q = b.dff("q", d);
        let z = b.gate(GateKind::Buf, &[q], "z");
        b.output("o", y);
        b.output("oq", z);
        let nl = b.finish().unwrap();
        // `d` feeds a flip-flop D pin besides the buffer: not collapsible
        assert_eq!(collapse_stuck_at(&nl, y, Logic::One), (y, Logic::One));
        // `q` is only read by `z`, so that link still collapses
        assert_eq!(collapse_stuck_at(&nl, z, Logic::One), (q, Logic::One));
        // a port net never collapses past another primary output
        let o = nl.net_by_name("o").unwrap();
        assert_eq!(collapse_stuck_at(&nl, o, Logic::Zero), (y, Logic::Zero));
    }

    #[test]
    fn shared_canonical_site_keeps_both_zones_attribution() {
        // The `q` register zone anchors the q nets; the `po/o` output zone
        // anchors the port nets, which are port buffers of those same q
        // nets — so every po anchor collapses onto a q anchor's canonical
        // site. Before the per-zone dedup, the second zone's stuck-at
        // evidence was silently dropped.
        let mut r = RtlBuilder::new("share");
        let d = r.input_word("d", 2);
        let q = r.register("q", &d, None, None);
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let d_nets: Vec<_> = (0..2)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..8u64 {
            let mut v = Vec::new();
            assign_bus(&mut v, &d_nets, c);
            w.push_cycle(v);
        }
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let profile = OperationalProfile::collect(&env);
        let faults = generate_fault_list(
            &env,
            &profile,
            &FaultListConfig {
                bitflips_per_zone: 0,
                stuckats_per_zone: 4,
                local_faults_per_zone: 0,
                wide_faults: 0,
                bridge_faults: 0,
                global_faults: false,
                skip_inactive_zones: false,
                collapse: false,
                seed: 1,
            },
        );
        let q_id = zones.zone_by_name("q").unwrap().id;
        let po_id = zones.zone_by_name("po/o").unwrap().id;
        let stuckats_of = |zone| {
            faults
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::StuckAt { .. }) && f.zone == Some(zone))
                .count()
        };
        // both zones keep their full evidence: 2 anchors × 2 polarities
        assert_eq!(stuckats_of(q_id), 4, "faults: {faults:#?}");
        assert_eq!(stuckats_of(po_id), 4, "faults: {faults:#?}");
        // and the merge is recorded on the labels of the later zone
        assert_eq!(
            faults.iter().filter(|f| f.label.contains("shared")).count(),
            4
        );
    }

    #[test]
    fn collapse_config_is_deterministic_and_never_grows_the_list() {
        let (nl, w) = setup();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let profile = OperationalProfile::collect(&env);
        let cfg = FaultListConfig {
            seed: 7,
            ..FaultListConfig::default()
        };
        let plain = generate_fault_list(&env, &profile, &cfg);
        let collapsed = generate_fault_list(&env, &profile, &cfg.clone().collapse(true));
        assert_eq!(
            collapsed,
            generate_fault_list(&env, &profile, &cfg.clone().collapse(true))
        );
        // structural canonicalisation can only merge more sites
        assert!(collapsed.len() <= plain.len());
        // non-stuck-at faults are untouched by the collapser
        let non_stuck = |fs: &[Fault]| {
            fs.iter()
                .filter(|f| !matches!(f.kind, FaultKind::StuckAt { .. }))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(non_stuck(&collapsed), non_stuck(&plain));
    }

    #[test]
    fn display_of_fault_kinds() {
        let s = FaultKind::StuckAt {
            net: NetId(3),
            value: Logic::One,
        }
        .to_string();
        assert_eq!(s, "sa1@n3");
        assert_eq!(
            FaultKind::ClockStuck { cycles: 2 }.to_string(),
            "clock-stuck 2cy"
        );
    }
}
