//! Automatic extraction of sensible zones from a gate-level netlist.
//!
//! This is the open reimplementation of the paper's extraction tool ("the
//! extraction of sensible zones and observation points is automatically
//! performed by a tool ... working on the synthesized RTL. Besides to
//! collect and properly compact the registers, the tool extracts as well the
//! data needed by the FMEA statistical model, such the composition of the
//! logic cone in front of each sensible zone ... and the correlation between
//! each sensible zone in terms of shared gates and nets", §3).

use crate::zone::{SensibleZone, ZoneId, ZoneKind};
use socfmea_iec61508::ComponentClass;
use socfmea_netlist::{
    fanin_cone_multi, gate_membership, split_bit_suffix, Cone, CorrelationMatrix, DffId,
    GateMembership, NetId, Netlist,
};
use std::collections::BTreeMap;

/// Configuration of the zone extraction.
#[derive(Debug, Clone)]
pub struct ExtractConfig {
    /// Compact flip-flops into architectural registers by
    /// `(block, base name)` (default `true`; when `false` every flip-flop
    /// becomes its own zone).
    pub group_registers: bool,
    /// Create zones for primary input buses.
    pub input_zones: bool,
    /// Create zones for primary output buses.
    pub output_zones: bool,
    /// Create zones for critical nets (clock/reset/long nets).
    pub critical_net_zones: bool,
    /// Block paths collapsed into a single [`ZoneKind::SubBlock`] zone each
    /// (matched by path prefix). Registers inside are not zoned
    /// individually.
    pub opaque_blocks: Vec<String>,
    /// Component-class assignment by block-path prefix; first match wins,
    /// later entries lose to earlier ones. Zones with no match default to
    /// [`ComponentClass::ProcessingUnit`].
    pub class_rules: Vec<(String, ComponentClass)>,
    /// User-defined *logical entity* zones — the paper's third zone kind:
    /// "logical entities that can or cannot directly map to a memory
    /// element. Example: wrong conditional field of a conditional
    /// instruction". Each entry is `(zone name, net names)`; net names that
    /// do not resolve are skipped.
    pub logical_entities: Vec<(String, Vec<String>)>,
}

impl Default for ExtractConfig {
    fn default() -> ExtractConfig {
        ExtractConfig {
            group_registers: true,
            input_zones: true,
            output_zones: true,
            critical_net_zones: true,
            opaque_blocks: Vec::new(),
            class_rules: Vec::new(),
            logical_entities: Vec::new(),
        }
    }
}

impl ExtractConfig {
    /// Adds a component-class rule for blocks whose path starts with
    /// `prefix`.
    pub fn classify(mut self, prefix: impl Into<String>, class: ComponentClass) -> Self {
        self.class_rules.push((prefix.into(), class));
        self
    }

    /// Marks a block path (prefix) as opaque: one sub-block zone instead of
    /// per-register zones.
    pub fn opaque(mut self, prefix: impl Into<String>) -> Self {
        self.opaque_blocks.push(prefix.into());
        self
    }

    /// Declares a logical-entity zone over the named nets.
    pub fn entity(mut self, name: impl Into<String>, nets: &[&str]) -> Self {
        self.logical_entities
            .push((name.into(), nets.iter().map(|s| (*s).to_owned()).collect()));
        self
    }

    fn class_of(&self, block: &str, fallback: ComponentClass) -> ComponentClass {
        for (prefix, class) in &self.class_rules {
            if block.starts_with(prefix.as_str()) {
                return *class;
            }
        }
        fallback
    }
}

/// The extracted zones plus the shared-cone correlation data.
#[derive(Debug, Clone)]
pub struct ZoneSet {
    zones: Vec<SensibleZone>,
    membership: GateMembership,
    correlation: CorrelationMatrix,
    /// For each flip-flop, the register zone containing it (if any).
    dff_zone: Vec<Option<ZoneId>>,
}

impl ZoneSet {
    /// Heap bytes the zone set owns: every zone's names, anchors, cone and
    /// member lists, plus the gate membership, the correlation map and the
    /// flip-flop index.
    pub fn heap_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let zone = |z: &SensibleZone| {
            let members = match &z.kind {
                ZoneKind::RegisterGroup { dffs } => vec(dffs),
                ZoneKind::PrimaryInputGroup { nets }
                | ZoneKind::PrimaryOutputGroup { nets }
                | ZoneKind::LogicalEntity { nets } => vec(nets),
                ZoneKind::CriticalNet { .. } => 0,
                ZoneKind::SubBlock { gates, dffs } => vec(gates) + vec(dffs),
            };
            z.name.capacity()
                + z.block.capacity()
                + vec(&z.anchors)
                + vec(&z.cone.gates)
                + vec(&z.cone.leaves)
                + members
        };
        vec(&self.zones)
            + self.zones.iter().map(zone).sum::<usize>()
            + self.membership.heap_bytes()
            + self.correlation.heap_bytes()
            + vec(&self.dff_zone)
    }

    /// All zones, indexable by [`ZoneId::index`].
    pub fn zones(&self) -> &[SensibleZone] {
        &self.zones
    }

    /// Borrow one zone.
    pub fn zone(&self, id: ZoneId) -> &SensibleZone {
        &self.zones[id.index()]
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True when no zones were extracted.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Per-gate cone membership (how many zones each gate's faults can
    /// disturb).
    pub fn membership(&self) -> &GateMembership {
        &self.membership
    }

    /// Pairwise shared-gate correlation between zones.
    pub fn correlation(&self) -> &CorrelationMatrix {
        &self.correlation
    }

    /// The zone containing a flip-flop, if it belongs to one.
    pub fn zone_of_dff(&self, dff: DffId) -> Option<ZoneId> {
        self.dff_zone[dff.index()]
    }

    /// Looks a zone up by exact name.
    pub fn zone_by_name(&self, name: &str) -> Option<&SensibleZone> {
        self.zones.iter().find(|z| z.name == name)
    }

    /// Iterates over zones of one kind tag (`"reg"`, `"pi"`, ...).
    pub fn zones_tagged<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a SensibleZone> {
        self.zones.iter().filter(move |z| z.kind.tag() == tag)
    }
}

/// Extracts sensible zones from a netlist.
///
/// # Example
///
/// ```
/// use socfmea_core::extract::{extract_zones, ExtractConfig};
/// use socfmea_rtl::RtlBuilder;
///
/// let mut r = RtlBuilder::new("demo");
/// let d = r.input_word("d", 8);
/// let q = r.register("state", &d, None, None);
/// r.output_word("q", &q);
/// let nl = r.finish()?;
/// let zones = extract_zones(&nl, &ExtractConfig::default());
/// // one register zone (8 bits compacted), one input bus, one output bus
/// assert_eq!(zones.zones_tagged("reg").count(), 1);
/// assert_eq!(zones.zones_tagged("pi").count(), 1);
/// assert_eq!(zones.zones_tagged("po").count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn extract_zones(netlist: &Netlist, config: &ExtractConfig) -> ZoneSet {
    let mut zones: Vec<SensibleZone> = Vec::new();
    let mut dff_zone: Vec<Option<ZoneId>> = vec![None; netlist.dff_count()];
    let is_opaque = |block: &str| {
        config
            .opaque_blocks
            .iter()
            .any(|p| block.starts_with(p.as_str()))
    };

    // --- sub-block zones (opaque blocks) -----------------------------
    // Group gates and dffs by the opaque prefix that matched.
    let mut opaque_groups: BTreeMap<String, (Vec<socfmea_netlist::GateId>, Vec<DffId>)> =
        BTreeMap::new();
    for (gi, g) in netlist.gates().iter().enumerate() {
        let block = netlist.block_path(g.block);
        if let Some(prefix) = config
            .opaque_blocks
            .iter()
            .find(|p| block.starts_with(p.as_str()))
        {
            opaque_groups
                .entry(prefix.clone())
                .or_default()
                .0
                .push(socfmea_netlist::GateId::from_index(gi));
        }
    }
    for (fi, ff) in netlist.dffs().iter().enumerate() {
        let block = netlist.block_path(ff.block);
        if let Some(prefix) = config
            .opaque_blocks
            .iter()
            .find(|p| block.starts_with(p.as_str()))
        {
            opaque_groups
                .entry(prefix.clone())
                .or_default()
                .1
                .push(DffId::from_index(fi));
        }
    }

    // --- register-group zones ----------------------------------------
    // Key: (block path, base name) -> dffs ordered by bit index.
    let mut groups: BTreeMap<(String, String), Vec<(u32, DffId)>> = BTreeMap::new();
    for (fi, ff) in netlist.dffs().iter().enumerate() {
        let block = netlist.block_path(ff.block).to_owned();
        if is_opaque(&block) {
            continue;
        }
        let (base, bit) = split_bit_suffix(&ff.name);
        let key = if config.group_registers {
            (block, base.to_owned())
        } else {
            (block, ff.name.clone())
        };
        groups
            .entry(key)
            .or_default()
            .push((bit.unwrap_or(0), DffId::from_index(fi)));
    }
    for ((block, base), mut members) in groups {
        members.sort_unstable();
        let dffs: Vec<DffId> = members.into_iter().map(|(_, f)| f).collect();
        let anchors: Vec<NetId> = dffs.iter().map(|&f| netlist.dff(f).q).collect();
        // The converging cone of a register is the logic in front of its D
        // (and control) pins.
        let d_nets: Vec<NetId> = dffs
            .iter()
            .flat_map(|&f| {
                let ff = netlist.dff(f);
                let mut v = vec![ff.d];
                v.extend(ff.enable);
                v.extend(ff.reset);
                v
            })
            .collect();
        let cone = fanin_cone_multi(netlist, &d_nets);
        let stats = cone.stats(netlist);
        let id = ZoneId::from_index(zones.len());
        for &f in &dffs {
            dff_zone[f.index()] = Some(id);
        }
        let name = if block.is_empty() {
            base.clone()
        } else {
            format!("{block}/{base}")
        };
        zones.push(SensibleZone {
            id,
            name,
            kind: ZoneKind::RegisterGroup { dffs },
            block: block.clone(),
            anchors,
            cone,
            stats,
            effective_gate_count: 0.0,
            class: config.class_of(&block, ComponentClass::ProcessingUnit),
        });
    }

    // materialise opaque sub-block zones
    for (prefix, (gates, dffs)) in opaque_groups {
        let anchors: Vec<NetId> = dffs.iter().map(|&f| netlist.dff(f).q).collect();
        let gate_set: std::collections::BTreeSet<_> = gates.iter().copied().collect();
        let cone = Cone {
            anchor: anchors.first().copied(),
            gates: gate_set.into_iter().collect(),
            leaves: Vec::new(),
        };
        let stats = cone.stats(netlist);
        let id = ZoneId::from_index(zones.len());
        for &f in &dffs {
            dff_zone[f.index()] = Some(id);
        }
        zones.push(SensibleZone {
            id,
            name: format!("{prefix} (block)"),
            kind: ZoneKind::SubBlock { gates, dffs },
            block: prefix.clone(),
            anchors,
            cone,
            stats,
            effective_gate_count: 0.0,
            class: config.class_of(&prefix, ComponentClass::ProcessingUnit),
        });
    }

    // --- primary I/O zones --------------------------------------------
    if config.input_zones {
        for (base, nets) in group_ports(netlist, netlist.inputs()) {
            // Skip nets already zoned as critical (clock/reset get their own
            // zone below).
            let critical: Vec<NetId> = netlist.critical_nets().iter().map(|&(n, _)| n).collect();
            let nets: Vec<NetId> = nets.into_iter().filter(|n| !critical.contains(n)).collect();
            if nets.is_empty() {
                continue;
            }
            let id = ZoneId::from_index(zones.len());
            zones.push(SensibleZone {
                id,
                name: format!("pi/{base}"),
                kind: ZoneKind::PrimaryInputGroup { nets: nets.clone() },
                block: String::new(),
                anchors: nets,
                cone: Cone::default(),
                stats: Default::default(),
                effective_gate_count: 0.0,
                class: config.class_of(&format!("pi/{base}"), ComponentClass::InputOutput),
            });
        }
    }
    if config.output_zones {
        for (base, nets) in group_ports(netlist, netlist.outputs()) {
            let cone = fanin_cone_multi(netlist, &nets);
            let stats = cone.stats(netlist);
            let id = ZoneId::from_index(zones.len());
            zones.push(SensibleZone {
                id,
                name: format!("po/{base}"),
                kind: ZoneKind::PrimaryOutputGroup { nets: nets.clone() },
                block: String::new(),
                anchors: nets,
                cone,
                stats,
                effective_gate_count: 0.0,
                class: config.class_of(&format!("po/{base}"), ComponentClass::InputOutput),
            });
        }
    }

    // --- logical-entity zones --------------------------------------------
    for (name, net_names) in &config.logical_entities {
        let nets: Vec<NetId> = net_names
            .iter()
            .filter_map(|n| netlist.net_by_name(n))
            .collect();
        if nets.is_empty() {
            continue;
        }
        let cone = fanin_cone_multi(netlist, &nets);
        let stats = cone.stats(netlist);
        let id = ZoneId::from_index(zones.len());
        zones.push(SensibleZone {
            id,
            name: format!("entity/{name}"),
            kind: ZoneKind::LogicalEntity { nets: nets.clone() },
            block: String::new(),
            anchors: nets,
            cone,
            stats,
            effective_gate_count: 0.0,
            class: config.class_of(&format!("entity/{name}"), ComponentClass::ProcessingUnit),
        });
    }

    // --- critical-net zones --------------------------------------------
    if config.critical_net_zones {
        for &(net, role) in netlist.critical_nets() {
            let id = ZoneId::from_index(zones.len());
            zones.push(SensibleZone {
                id,
                name: format!("critnet/{}", netlist.net(net).name),
                kind: ZoneKind::CriticalNet { net, role },
                block: String::new(),
                anchors: vec![net],
                cone: Cone::default(),
                stats: Default::default(),
                effective_gate_count: 0.0,
                class: ComponentClass::Clock,
            });
        }
    }

    // --- correlation ----------------------------------------------------
    let cones: Vec<Cone> = zones.iter().map(|z| z.cone.clone()).collect();
    let membership = gate_membership(netlist, &cones);
    let correlation = CorrelationMatrix::from_membership(&membership, cones.len());
    // Apportion shared (wide) gates across the cones containing them so the
    // per-zone gate failure rates sum to the real total.
    for z in &mut zones {
        z.effective_gate_count = z
            .cone
            .gates
            .iter()
            .map(|&g| 1.0 / membership.cones_of(g).len() as f64)
            .sum::<f64>()
            .max(0.0);
    }

    ZoneSet {
        zones,
        membership,
        correlation,
        dff_zone,
    }
}

/// [`extract_zones`] timed as the pipeline's `extract-zones` phase, with
/// the extraction's headline numbers (zone, gate, and flip-flop counts)
/// recorded into the observer's metrics registry. The returned zone set is
/// identical to the unobserved call.
pub fn extract_zones_observed(
    netlist: &Netlist,
    config: &ExtractConfig,
    obs: &socfmea_obs::Observer,
) -> ZoneSet {
    let zones = obs.phase("extract-zones", || extract_zones(netlist, config));
    let reg = obs.registry();
    reg.gauge("extract.zones").set(zones.len() as f64);
    reg.gauge("extract.gates").set(netlist.gate_count() as f64);
    reg.gauge("extract.dffs").set(netlist.dff_count() as f64);
    zones
}

/// Groups port nets by bus base name, preserving bit order.
fn group_ports(netlist: &Netlist, ports: &[NetId]) -> Vec<(String, Vec<NetId>)> {
    let mut map: BTreeMap<String, Vec<(u32, NetId)>> = BTreeMap::new();
    for &n in ports {
        let (base, bit) = split_bit_suffix(&netlist.net(n).name);
        map.entry(base.to_owned())
            .or_default()
            .push((bit.unwrap_or(0), n));
    }
    map.into_iter()
        .map(|(base, mut v)| {
            v.sort_unstable();
            (base, v.into_iter().map(|(_, n)| n).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_rtl::RtlBuilder;

    fn demo_netlist() -> socfmea_netlist::Netlist {
        // Two register stages in different blocks sharing a source bus, with
        // a clock and reset.
        let mut r = RtlBuilder::new("demo");
        let _clk = r.clock_input("clk");
        let rst = r.reset_input("rst");
        let d = r.input_word("din", 4);
        r.push_block("u_front");
        let inv = r.not(&d);
        let a = r.register("a_reg", &inv, None, Some(rst));
        r.pop_block();
        r.push_block("u_back");
        let mixed = r.xor(&a, &d);
        let b = r.register("b_reg", &mixed, None, Some(rst));
        r.pop_block();
        r.output_word("dout", &b);
        r.finish().unwrap()
    }

    #[test]
    fn registers_are_compacted_by_base_name() {
        let nl = demo_netlist();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let regs: Vec<_> = zones.zones_tagged("reg").collect();
        assert_eq!(regs.len(), 2);
        let a = zones.zone_by_name("u_front/a_reg").expect("a_reg zone");
        assert_eq!(a.storage_bits(), 4);
        assert!(a.stats.gate_count >= 4); // the inverters
    }

    #[test]
    fn ungrouped_extraction_gives_per_bit_zones() {
        let nl = demo_netlist();
        let cfg = ExtractConfig {
            group_registers: false,
            ..ExtractConfig::default()
        };
        let zones = extract_zones(&nl, &cfg);
        assert_eq!(zones.zones_tagged("reg").count(), 8);
    }

    #[test]
    fn io_and_critical_zones_present() {
        let nl = demo_netlist();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        assert_eq!(zones.zones_tagged("pi").count(), 1); // din (clk/rst are critical)
        assert_eq!(zones.zones_tagged("po").count(), 1); // dout
        assert_eq!(zones.zones_tagged("critnet").count(), 2); // clk, rst
    }

    #[test]
    fn dff_zone_mapping_is_consistent() {
        let nl = demo_netlist();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        for (zi, z) in zones.zones().iter().enumerate() {
            if let ZoneKind::RegisterGroup { dffs } = &z.kind {
                for &f in dffs {
                    assert_eq!(zones.zone_of_dff(f), Some(ZoneId::from_index(zi)));
                }
            }
        }
    }

    #[test]
    fn class_rules_apply_by_prefix() {
        let nl = demo_netlist();
        let cfg = ExtractConfig::default()
            .classify("u_front", ComponentClass::VariableMemory)
            .classify("u_back", ComponentClass::Bus);
        let zones = extract_zones(&nl, &cfg);
        assert_eq!(
            zones.zone_by_name("u_front/a_reg").unwrap().class,
            ComponentClass::VariableMemory
        );
        assert_eq!(
            zones.zone_by_name("u_back/b_reg").unwrap().class,
            ComponentClass::Bus
        );
    }

    #[test]
    fn logical_entity_zones_cover_named_nets() {
        let nl = demo_netlist();
        // an entity over two register bits plus one unresolvable name
        let cfg = ExtractConfig::default()
            .entity("front_low_bits", &["a_reg[0]", "ghost_net", "a_reg[1]"]);
        let zones = extract_zones(&nl, &cfg);
        let entity = zones
            .zone_by_name("entity/front_low_bits")
            .expect("entity extracted");
        assert_eq!(entity.kind.tag(), "entity");
        assert_eq!(entity.anchors.len(), 2, "unresolved names are skipped");
        // a fully unresolvable entity is skipped entirely
        let cfg = ExtractConfig::default().entity("nothing", &["does_not_exist"]);
        let zones = extract_zones(&nl, &cfg);
        assert_eq!(zones.zones_tagged("entity").count(), 0);
    }

    #[test]
    fn opaque_blocks_collapse_to_one_zone() {
        let nl = demo_netlist();
        let cfg = ExtractConfig::default().opaque("u_back");
        let zones = extract_zones(&nl, &cfg);
        assert_eq!(zones.zones_tagged("reg").count(), 1); // only a_reg
        let blocks: Vec<_> = zones.zones_tagged("block").collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].storage_bits(), 4); // b_reg inside
    }

    #[test]
    fn shared_inputs_create_wide_gates() {
        // `din` feeds both register cones through shared inverters? The
        // inverters feed only a_reg; the xor feeds only b_reg — but a_reg's
        // q nets are leaves of b_reg's cone, so no gate sharing here.
        // Construct explicit sharing instead:
        let mut r = RtlBuilder::new("wide");
        let d = r.input_word("din", 2);
        let shared = r.not(&d);
        let a = r.register("a", &shared, None, None);
        let b = r.register("b", &shared, None, None);
        r.output_word("qa", &a);
        r.output_word("qb", &b);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let (_, _, wide) = zones.membership().census();
        assert_eq!(wide, 2); // two shared inverters
        let za = zones.zone_by_name("a").unwrap().id;
        let zb = zones.zone_by_name("b").unwrap().id;
        assert_eq!(zones.correlation().shared_gates(za.index(), zb.index()), 2);
    }

    #[test]
    fn empty_netlist_extracts_no_zones() {
        let nl = RtlBuilder::new("void").finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        assert!(zones.is_empty());
        assert_eq!(zones.len(), 0);
        assert_eq!(zones.membership().census(), (0, 0, 0));
        assert!(zones.correlation().correlated_pairs().is_empty());
        assert_eq!(zones.correlation().cone_count(), 0);
    }

    #[test]
    fn gate_shared_by_three_cones_is_wide_in_all_of_them() {
        // one inverter fans out to three registers: its gate sits in three
        // cones and must appear in the membership of each, counted once in
        // the wide census and 1/3 in each effective gate count
        let mut r = RtlBuilder::new("tri");
        let d = r.input_word("din", 1);
        let shared = r.not(&d);
        let a = r.register("a", &shared, None, None);
        let b = r.register("b", &shared, None, None);
        let c = r.register("c", &shared, None, None);
        r.output_word("qa", &a);
        r.output_word("qb", &b);
        r.output_word("qc", &c);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let shared_gate = nl
            .gates()
            .iter()
            .position(|g| g.name.contains("not"))
            .expect("the shared inverter");
        let cones = zones
            .membership()
            .cones_of(socfmea_netlist::GateId::from_index(shared_gate));
        assert!(
            cones.len() >= 3,
            "expected >= 3 cones sharing the inverter, got {cones:?}"
        );
        let (_, _, wide) = zones.membership().census();
        assert_eq!(wide, 1);
        // all three register pairs are correlated through the single gate
        for (x, y) in [("a", "b"), ("a", "c"), ("b", "c")] {
            let zx = zones.zone_by_name(x).unwrap().id.index();
            let zy = zones.zone_by_name(y).unwrap().id.index();
            assert_eq!(zones.correlation().shared_gates(zx, zy), 1, "{x}/{y}");
        }
        // apportioning: each register zone credits 1/3 of the shared gate
        let za = zones.zone_by_name("a").unwrap();
        assert!((za.effective_gate_count - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn primary_input_fed_register_has_zero_gate_cone() {
        // a register latching an input directly: the converging cone exists
        // (anchored at the D net) but contains zero gates
        let mut r = RtlBuilder::new("thin");
        let d = r.input_word("din", 2);
        let q = r.register("latch", &d, None, None);
        r.output_word("dout", &q);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let latch = zones.zone_by_name("latch").expect("latch zone");
        assert!(latch.cone.gates.is_empty());
        assert_eq!(latch.stats.gate_count, 0);
        assert_eq!(latch.effective_gate_count, 0.0);
        assert_eq!(latch.storage_bits(), 2);
        // the only gates are the two output-port buffers, local to the
        // primary-output zone's cone; nothing is wide or unassigned
        assert_eq!(zones.membership().census(), (0, 2, 0));
    }

    #[test]
    fn observed_extraction_is_identical_and_records_metrics() {
        let nl = demo_netlist();
        let plain = extract_zones(&nl, &ExtractConfig::default());
        let obs = socfmea_obs::Observer::new();
        let observed = extract_zones_observed(&nl, &ExtractConfig::default(), &obs);
        assert_eq!(plain.len(), observed.len());
        for (a, b) in plain.zones().iter().zip(observed.zones()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.anchors, b.anchors);
            assert_eq!(a.cone.gates, b.cone.gates);
        }
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.gauges["extract.zones"], plain.len() as f64);
        assert_eq!(snap.gauges["extract.dffs"], nl.dff_count() as f64);
        assert!(snap.gauges.contains_key("phase.extract-zones.nanos"));
    }
}
