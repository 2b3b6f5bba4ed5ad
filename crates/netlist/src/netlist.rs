//! The flat gate-level netlist container and its builder.

use crate::gate::{Gate, GateKind};
use crate::ids::{BlockId, DffId, GateId, NetId};
use crate::logic::Logic;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Nothing drives the net (illegal in a finished netlist unless the net
    /// is unused).
    None,
    /// A primary input port.
    Input,
    /// A constant tie cell.
    Const(Logic),
    /// The output of a combinational gate.
    Gate(GateId),
    /// The `Q` output of a flip-flop.
    Dff(DffId),
}

/// A named wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Unique name within the netlist (bused nets use `name[bit]`).
    pub name: String,
    /// The unique driver of this net.
    pub driver: Driver,
}

/// Port direction for primary ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Primary input.
    Input,
    /// Primary output.
    Output,
}

/// Role of a net marked *critical* for the FMEA (clock trees, resets, long
/// nets): faults on these nets are the paper's **global** physical faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CriticalNetKind {
    /// A clock root or clock-tree net.
    Clock,
    /// A reset root net.
    Reset,
    /// Any other net flagged by the designer (e.g. a long routing net).
    Other,
}

/// A positive-edge D flip-flop with optional synchronous control.
///
/// The cycle-based simulator updates every flip-flop once per
/// [`tick`](../socfmea_sim/struct.Simulator.html): `q' = reset_value` when the
/// (active-high, synchronous) reset is asserted, else `d` when the enable is
/// high (or absent), else `q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dff {
    /// Data input net.
    pub d: NetId,
    /// Output net (driven by this flip-flop).
    pub q: NetId,
    /// Optional active-high clock enable.
    pub enable: Option<NetId>,
    /// Optional active-high synchronous reset.
    pub reset: Option<NetId>,
    /// Value loaded while `reset` is asserted.
    pub reset_value: Logic,
    /// Power-on value (use [`Logic::X`] for un-initialised state).
    pub init: Logic,
    /// Instance name; bused registers use `name[bit]` so the zone extractor
    /// can group them.
    pub name: String,
    /// Hierarchical block this flip-flop belongs to.
    pub block: BlockId,
}

/// Errors produced while building or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// Two entities were given the same name.
    DuplicateName(String),
    /// A gate was created with an illegal number of inputs.
    BadArity {
        /// The offending instance name.
        gate: String,
        /// Its cell kind.
        kind: GateKind,
        /// The number of inputs supplied.
        inputs: usize,
    },
    /// A net that is read (by a gate, flip-flop or output port) has no
    /// driver.
    UndrivenNet(String),
    /// A name was empty.
    EmptyName,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            NetlistError::BadArity { gate, kind, inputs } => {
                write!(f, "gate `{gate}` of kind {kind} has illegal arity {inputs}")
            }
            NetlistError::UndrivenNet(n) => write!(f, "net `{n}` is read but never driven"),
            NetlistError::EmptyName => write!(f, "empty name"),
        }
    }
}

impl Error for NetlistError {}

/// A flat, validated gate-level netlist.
///
/// Construct one with [`NetlistBuilder`] or parse structural Verilog with
/// [`parse_verilog`](crate::parse_verilog).
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    blocks: Vec<String>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    critical_nets: Vec<(NetId, CriticalNetKind)>,
    /// Net ids sorted by net name, for [`net_by_name`](Self::net_by_name):
    /// four bytes per net rather than a second copy of every name.
    by_name: Vec<NetId>,
}

impl Netlist {
    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Heap bytes the netlist owns: every vector by capacity, every name,
    /// and each gate's input list (the netlist's own `size_of` excluded).
    pub fn heap_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.name.capacity()
            + vec(&self.nets)
            + self.nets.iter().map(|n| n.name.capacity()).sum::<usize>()
            + vec(&self.gates)
            + self
                .gates
                .iter()
                .map(|g| vec(&g.inputs) + g.name.capacity())
                .sum::<usize>()
            + vec(&self.dffs)
            + self.dffs.iter().map(|d| d.name.capacity()).sum::<usize>()
            + vec(&self.blocks)
            + self.blocks.iter().map(String::capacity).sum::<usize>()
            + vec(&self.inputs)
            + vec(&self.outputs)
            + vec(&self.critical_nets)
            + vec(&self.by_name)
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All combinational gates, indexable by [`GateId::index`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops, indexable by [`DffId::index`].
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Interned hierarchical block paths.
    pub fn blocks(&self) -> &[String] {
        &self.blocks
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Nets flagged as critical (clock/reset/long nets).
    pub fn critical_nets(&self) -> &[(NetId, CriticalNetKind)] {
        &self.critical_nets
    }

    /// Looks a net up by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        let nets = &self.nets;
        self.by_name
            .binary_search_by(|id| nets[id.index()].name.as_str().cmp(name))
            .ok()
            .map(|at| self.by_name[at])
    }

    /// Borrow a net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Borrow a gate by id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Borrow a flip-flop by id.
    pub fn dff(&self, id: DffId) -> &Dff {
        &self.dffs[id.index()]
    }

    /// The hierarchical path of a block id.
    pub fn block_path(&self, id: BlockId) -> &str {
        &self.blocks[id.index()]
    }

    /// Total number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Total number of combinational gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Total number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Collects, per net, the gates that read it (flip-flop loads excluded).
    ///
    /// The result is indexable by [`NetId::index`].
    pub fn gate_fanout(&self) -> Vec<Vec<GateId>> {
        let mut fan = vec![Vec::new(); self.nets.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            for &i in &g.inputs {
                fan[i.index()].push(GateId::from_index(gi));
            }
        }
        fan
    }

    /// Collects, per net, the flip-flops that read it through `d`, `enable`
    /// or `reset`.
    pub fn dff_fanout(&self) -> Vec<Vec<DffId>> {
        let mut fan = vec![Vec::new(); self.nets.len()];
        for (fi, ff) in self.dffs.iter().enumerate() {
            let id = DffId::from_index(fi);
            fan[ff.d.index()].push(id);
            if let Some(en) = ff.enable {
                fan[en.index()].push(id);
            }
            if let Some(rst) = ff.reset {
                fan[rst.index()].push(id);
            }
        }
        fan
    }
}

/// Splits a bused name like `data[7]` into `("data", Some(7))`; plain names
/// return `(name, None)`.
///
/// # Example
///
/// ```
/// use socfmea_netlist::netlist::split_bit_suffix;
///
/// assert_eq!(split_bit_suffix("wbuf[12]"), ("wbuf", Some(12)));
/// assert_eq!(split_bit_suffix("enable"), ("enable", None));
/// ```
pub fn split_bit_suffix(name: &str) -> (&str, Option<u32>) {
    if let Some(stripped) = name.strip_suffix(']') {
        if let Some(pos) = stripped.rfind('[') {
            if let Ok(bit) = stripped[pos + 1..].parse::<u32>() {
                return (&name[..pos], Some(bit));
            }
        }
    }
    (name, None)
}

/// Incremental builder for [`Netlist`].
///
/// Names must be unique across nets; the builder maintains a hierarchical
/// *block stack* ([`push_block`](Self::push_block) /
/// [`pop_block`](Self::pop_block)) so that every gate and flip-flop is tagged
/// with the sub-block it belongs to — the FMEA zone extractor groups by these
/// tags.
///
/// # Example
///
/// ```
/// use socfmea_netlist::{GateKind, Logic, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("toggle");
/// b.push_block("ctrl");
/// let q = b.dff_placeholder("q");
/// let nq = b.gate(GateKind::Not, &[q], "nq");
/// b.bind_dff("q", nq);
/// b.pop_block();
/// b.output("q_out", q);
/// let nl = b.finish()?;
/// assert_eq!(nl.dff_count(), 1);
/// # Ok::<(), socfmea_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    blocks: Vec<String>,
    block_stack: Vec<String>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    critical_nets: Vec<(NetId, CriticalNetKind)>,
    net_index: HashMap<String, NetId>,
    const_cache: HashMap<char, NetId>,
    placeholder_dffs: HashMap<String, DffId>,
    error: Option<NetlistError>,
}

impl NetlistBuilder {
    /// Starts a new netlist with the given module name.
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            blocks: vec![String::new()],
            block_stack: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            critical_nets: Vec::new(),
            net_index: HashMap::new(),
            const_cache: HashMap::new(),
            placeholder_dffs: HashMap::new(),
            error: None,
        }
    }

    fn record_error(&mut self, e: NetlistError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn current_block(&mut self) -> BlockId {
        let path = self.block_stack.join("/");
        if let Some(pos) = self.blocks.iter().position(|b| *b == path) {
            BlockId::from_index(pos)
        } else {
            self.blocks.push(path);
            BlockId::from_index(self.blocks.len() - 1)
        }
    }

    /// Enters a hierarchical sub-block; all gates/flip-flops created until the
    /// matching [`pop_block`](Self::pop_block) are tagged with it.
    pub fn push_block(&mut self, name: impl Into<String>) {
        self.block_stack.push(name.into());
    }

    /// Leaves the innermost sub-block.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn pop_block(&mut self) {
        self.block_stack
            .pop()
            .expect("pop_block without matching push_block");
    }

    /// The hierarchical path currently on the block stack.
    pub fn current_path(&self) -> String {
        self.block_stack.join("/")
    }

    fn add_net(&mut self, name: String, driver: Driver) -> NetId {
        if name.is_empty() {
            self.record_error(NetlistError::EmptyName);
        }
        if self.net_index.contains_key(&name) {
            self.record_error(NetlistError::DuplicateName(name.clone()));
        }
        let id = NetId::from_index(self.nets.len());
        self.net_index.insert(name.clone(), id);
        self.nets.push(Net { name, driver });
        id
    }

    /// Declares a primary input and returns its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name.into(), Driver::Input);
        self.inputs.push(id);
        id
    }

    /// Declares a `width`-bit primary input bus, returning nets LSB first
    /// (named `name[0]`, `name[1]`, ...).
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Declares a primary output fed by `net`.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        let name = name.into();
        // An output port is an alias; emit a buffer so the port has its own
        // net and the alias relation is explicit in the structure.
        let out = self.gate(GateKind::Buf, &[net], name);
        self.outputs.push(out);
    }

    /// Registers an existing net directly as a primary output port, without
    /// inserting a port buffer (used by the Verilog reader, where the output
    /// net is already driven by an instance).
    pub fn register_output_port(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Declares a `width`-bit output bus fed by `nets` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `nets.len() != width` is violated by the caller (the length
    /// of `nets` defines the width).
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(format!("{name}[{i}]"), n);
        }
    }

    /// Returns a constant-driving net (tie cell), cached per value.
    pub fn constant(&mut self, value: Logic) -> NetId {
        let key = value.to_char();
        if let Some(&id) = self.const_cache.get(&key) {
            return id;
        }
        let name = format!("const_{key}_{}", self.nets.len());
        let id = self.add_net(name, Driver::Const(value));
        self.const_cache.insert(key, id);
        id
    }

    /// Creates a gate driving a fresh net named `name`; returns the output
    /// net.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId], name: impl Into<String>) -> NetId {
        let name = name.into();
        if !kind.arity_ok(inputs.len()) {
            self.record_error(NetlistError::BadArity {
                gate: name.clone(),
                kind,
                inputs: inputs.len(),
            });
        }
        let block = self.current_block();
        let out = self.add_net(name.clone(), Driver::None);
        let gid = GateId::from_index(self.gates.len());
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
            name,
            block,
        });
        self.nets[out.index()].driver = Driver::Gate(gid);
        out
    }

    /// Creates a flip-flop with data input `d`; returns its `q` net (named
    /// `name`).
    pub fn dff(&mut self, name: impl Into<String>, d: NetId) -> NetId {
        self.dff_full(name, d, None, None, Logic::Zero, Logic::Zero)
    }

    /// Creates a flip-flop with full synchronous controls; returns its `q`
    /// net.
    pub fn dff_full(
        &mut self,
        name: impl Into<String>,
        d: NetId,
        enable: Option<NetId>,
        reset: Option<NetId>,
        reset_value: Logic,
        init: Logic,
    ) -> NetId {
        let name = name.into();
        let block = self.current_block();
        let q = self.add_net(name.clone(), Driver::None);
        let fid = DffId::from_index(self.dffs.len());
        self.dffs.push(Dff {
            d,
            q,
            enable,
            reset,
            reset_value,
            init,
            name,
            block,
        });
        self.nets[q.index()].driver = Driver::Dff(fid);
        q
    }

    /// Creates a flip-flop whose `d` input is not known yet (feedback loops);
    /// bind it later with [`bind_dff`](Self::bind_dff). Returns the `q` net.
    pub fn dff_placeholder(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let q = self.dff_full(
            name.clone(),
            NetId(u32::MAX),
            None,
            None,
            Logic::Zero,
            Logic::Zero,
        );
        let Driver::Dff(fid) = self.nets[q.index()].driver else {
            unreachable!("dff_full drives q with a Dff driver");
        };
        self.placeholder_dffs.insert(name, fid);
        q
    }

    /// Binds the `d` input of a placeholder flip-flop created with
    /// [`dff_placeholder`](Self::dff_placeholder).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a placeholder flip-flop.
    pub fn bind_dff(&mut self, name: &str, d: NetId) {
        let fid = *self
            .placeholder_dffs
            .get(name)
            .unwrap_or_else(|| panic!("no placeholder dff named `{name}`"));
        self.dffs[fid.index()].d = d;
        self.placeholder_dffs.remove(name);
    }

    /// Sets synchronous controls on a previously created flip-flop (looked up
    /// by its `q` net).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not driven by a flip-flop.
    pub fn set_dff_controls(
        &mut self,
        q: NetId,
        enable: Option<NetId>,
        reset: Option<NetId>,
        reset_value: Logic,
    ) {
        let Driver::Dff(fid) = self.nets[q.index()].driver else {
            panic!("net {q} is not driven by a flip-flop");
        };
        let ff = &mut self.dffs[fid.index()];
        ff.enable = enable;
        ff.reset = reset;
        ff.reset_value = reset_value;
    }

    /// Flags a net as critical (clock/reset/long net) for global-fault
    /// analysis.
    pub fn mark_critical(&mut self, net: NetId, kind: CriticalNetKind) {
        self.critical_nets.push((net, kind));
    }

    /// Declares a clock input marked as a critical net.
    ///
    /// The simulator is cycle based so the clock net carries no waveform, but
    /// the FMEA treats it as a *global* fault zone.
    pub fn clock_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.input(name);
        self.mark_critical(id, CriticalNetKind::Clock);
        id
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns the first construction error (duplicate names, bad arity) or a
    /// validation error (a read net with no driver, including unbound
    /// placeholder flip-flops).
    pub fn finish(mut self) -> Result<Netlist, NetlistError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(name) = self.placeholder_dffs.keys().next() {
            return Err(NetlistError::UndrivenNet(format!(
                "{name}.d (unbound placeholder)"
            )));
        }
        // Every net read anywhere must have a driver.
        let check = |nets: &[Net], id: NetId| -> Result<(), NetlistError> {
            let net = nets
                .get(id.index())
                .ok_or_else(|| NetlistError::UndrivenNet(format!("{id}")))?;
            if net.driver == Driver::None {
                return Err(NetlistError::UndrivenNet(net.name.clone()));
            }
            Ok(())
        };
        for g in &self.gates {
            for &i in &g.inputs {
                check(&self.nets, i)?;
            }
        }
        for ff in &self.dffs {
            check(&self.nets, ff.d)?;
            if let Some(en) = ff.enable {
                check(&self.nets, en)?;
            }
            if let Some(rst) = ff.reset {
                check(&self.nets, rst)?;
            }
        }
        // names are unique (`add_net` rejects duplicates), so a binary
        // search over this order finds each one
        let mut by_name: Vec<NetId> = (0..self.nets.len()).map(NetId::from_index).collect();
        by_name.sort_unstable_by(|a, b| self.nets[a.index()].name.cmp(&self.nets[b.index()].name));
        Ok(Netlist {
            name: self.name,
            nets: self.nets,
            gates: self.gates,
            dffs: self.dffs,
            blocks: self.blocks,
            inputs: self.inputs,
            outputs: self.outputs,
            critical_nets: self.critical_nets,
            by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_simple_netlist() {
        let mut b = NetlistBuilder::new("demo");
        let a = b.input("a");
        let c = b.input("c");
        b.push_block("u1");
        let y = b.gate(GateKind::And, &[a, c], "y");
        b.pop_block();
        b.output("out", y);
        let nl = b.finish().expect("valid netlist");
        assert_eq!(nl.name(), "demo");
        assert_eq!(nl.gate_count(), 2); // and + output buffer
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        let y_id = nl.net_by_name("y").expect("y exists");
        assert!(matches!(nl.net(y_id).driver, Driver::Gate(_)));
        let gate = nl.gate(GateId(0));
        assert_eq!(nl.block_path(gate.block), "u1");
    }

    #[test]
    fn every_net_is_found_by_its_own_name() {
        let mut b = NetlistBuilder::new("names");
        let ins: Vec<NetId> = ["m", "a[1]", "a[10]", "a[2]", "Z", "b"]
            .iter()
            .map(|n| b.input(*n))
            .collect();
        let y = b.gate(GateKind::Xor, &ins[..2], "y");
        let q = b.dff("q", y);
        b.output("out", q);
        let nl = b.finish().expect("valid netlist");
        for (i, net) in nl.nets().iter().enumerate() {
            assert_eq!(nl.net_by_name(&net.name), Some(NetId::from_index(i)));
        }
        for missing in ["", "a", "a[3]", "zz", "out "] {
            assert_eq!(nl.net_by_name(missing), None, "{missing:?}");
        }
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("a");
        let _ = b.gate(GateKind::Buf, &[a], "a");
        assert_eq!(
            b.finish().unwrap_err(),
            NetlistError::DuplicateName("a".into())
        );
    }

    #[test]
    fn bad_arity_is_rejected() {
        let mut b = NetlistBuilder::new("arity");
        let a = b.input("a");
        let _ = b.gate(GateKind::And, &[a], "bad");
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::BadArity { inputs: 1, .. }
        ));
    }

    #[test]
    fn unbound_placeholder_is_rejected() {
        let mut b = NetlistBuilder::new("ph");
        let _q = b.dff_placeholder("q");
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::UndrivenNet(_)
        ));
    }

    #[test]
    fn placeholder_feedback_loop_binds() {
        let mut b = NetlistBuilder::new("toggle");
        let q = b.dff_placeholder("q");
        let nq = b.gate(GateKind::Not, &[q], "nq");
        b.bind_dff("q", nq);
        let nl = b.finish().expect("bound");
        assert_eq!(nl.dff(DffId(0)).d, nl.net_by_name("nq").unwrap());
    }

    #[test]
    fn buses_and_bit_suffix() {
        let mut b = NetlistBuilder::new("bus");
        let data = b.input_bus("data", 4);
        assert_eq!(data.len(), 4);
        b.output_bus("q", &data);
        let nl = b.finish().unwrap();
        assert!(nl.net_by_name("data[3]").is_some());
        assert!(nl.net_by_name("q[0]").is_some());
        assert_eq!(split_bit_suffix("data[3]"), ("data", Some(3)));
        assert_eq!(split_bit_suffix("data[x]"), ("data[x]", None));
        assert_eq!(split_bit_suffix("plain"), ("plain", None));
    }

    #[test]
    fn constants_are_cached_per_value() {
        let mut b = NetlistBuilder::new("c");
        let one_a = b.constant(Logic::One);
        let one_b = b.constant(Logic::One);
        let zero = b.constant(Logic::Zero);
        assert_eq!(one_a, one_b);
        assert_ne!(one_a, zero);
    }

    #[test]
    fn fanout_maps_cover_gate_and_dff_readers() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let en = b.input("en");
        let g1 = b.gate(GateKind::Not, &[a], "g1");
        let _g2 = b.gate(GateKind::And, &[a, g1], "g2");
        let _q = b.dff_full("q", g1, Some(en), None, Logic::Zero, Logic::Zero);
        let nl = b.finish().unwrap();
        let gfan = nl.gate_fanout();
        assert_eq!(gfan[a.index()].len(), 2);
        let dfan = nl.dff_fanout();
        assert_eq!(dfan[nl.net_by_name("g1").unwrap().index()].len(), 1);
        assert_eq!(dfan[en.index()].len(), 1);
    }

    #[test]
    fn clock_input_is_marked_critical() {
        let mut b = NetlistBuilder::new("clk");
        let clk = b.clock_input("clk");
        let a = b.input("a");
        b.output("y", a);
        let nl = b.finish().unwrap();
        assert_eq!(nl.critical_nets(), &[(clk, CriticalNetKind::Clock)]);
    }
}
