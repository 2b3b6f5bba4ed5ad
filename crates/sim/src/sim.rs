//! The levelized cycle-based simulator.

use crate::fault::BridgeKind;
use socfmea_netlist::{levelize, DffId, Driver, GateId, LevelizeError, Logic, NetId, Netlist};

/// A cycle-based four-state simulator over a gate-level netlist.
///
/// The evaluation model per clock cycle is:
///
/// 1. [`set`](Self::set) primary inputs (values persist until changed),
/// 2. [`eval`](Self::eval) the combinational network (topological order),
/// 3. observe nets with [`get`](Self::get) / [`get_word`](Self::get_word),
/// 4. [`tick`](Self::tick) — all flip-flops sample simultaneously, transient
///    forces expire, the combinational network is re-evaluated.
///
/// [`step`](Self::step) bundles 1, 2 and 4 for stimulus-driven loops.
///
/// Fault-injection hooks (persistent forces, transients, flip-flop flips,
/// bridges, clock suppression) are documented on their methods; they are what
/// the `socfmea-faultsim` campaign manager drives.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: Vec<GateId>,
    values: Vec<Logic>,
    ff_state: Vec<Logic>,
    forces: Vec<Option<Logic>>,
    /// The nets with a force, for applying them without a scan.
    forced: Vec<NetId>,
    /// Transient (single-cycle) forces, cleared by `tick`.
    transients: Vec<(NetId, Logic)>,
    bridges: Vec<(NetId, NetId, BridgeKind)>,
    clock_suppressed: bool,
    cycle: u64,
    dirty: bool,
    /// The next flip-flop states of a `tick`, kept between ticks so the
    /// clock edge allocates nothing.
    ff_next: Vec<Logic>,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator for `netlist`: levelizes the combinational
    /// network and initialises every flip-flop to its declared power-on
    /// value; primary inputs start at [`Logic::X`].
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the netlist contains a combinational
    /// cycle.
    pub fn new(netlist: &'a Netlist) -> Result<Simulator<'a>, LevelizeError> {
        let order = levelize(netlist)?;
        let mut sim = Simulator {
            netlist,
            order,
            values: vec![Logic::X; netlist.net_count()],
            ff_state: netlist.dffs().iter().map(|ff| ff.init).collect(),
            forces: vec![None; netlist.net_count()],
            forced: Vec::new(),
            transients: Vec::new(),
            bridges: Vec::new(),
            clock_suppressed: false,
            cycle: 0,
            dirty: true,
            ff_next: Vec::with_capacity(netlist.dff_count()),
        };
        sim.load_constants();
        sim.load_ff_outputs();
        sim.eval();
        Ok(sim)
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The number of completed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn load_constants(&mut self) {
        for (i, net) in self.netlist.nets().iter().enumerate() {
            if let Driver::Const(v) = net.driver {
                self.values[i] = v;
            }
        }
    }

    fn load_ff_outputs(&mut self) {
        for (fi, ff) in self.netlist.dffs().iter().enumerate() {
            self.values[ff.q.index()] = self.ff_state[fi];
        }
    }

    /// Clones this simulator into an independent power-on instance,
    /// reusing the (already computed) levelization.
    ///
    /// This is the cheap fresh-instance path for campaign workers: levelize
    /// once, then hand each worker thread its own simulator without paying
    /// the topological sort again.
    pub fn clone_fresh(&self) -> Simulator<'a> {
        let mut fresh = self.clone();
        fresh.reset_to_power_on();
        fresh
    }

    /// Resets simulation state to power-on: flip-flops to their `init`
    /// values, inputs to `X`, all injected faults removed.
    pub fn reset_to_power_on(&mut self) {
        self.values.fill(Logic::X);
        for (fi, ff) in self.netlist.dffs().iter().enumerate() {
            self.ff_state[fi] = ff.init;
        }
        self.forces.fill(None);
        self.forced.clear();
        self.transients.clear();
        self.bridges.clear();
        self.clock_suppressed = false;
        self.cycle = 0;
        self.load_constants();
        self.load_ff_outputs();
        self.dirty = true;
        self.eval();
    }

    /// Drives a primary input. The value persists across cycles until
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set(&mut self, net: NetId, value: Logic) {
        assert!(
            matches!(self.netlist.net(net).driver, Driver::Input),
            "net {net} is not a primary input"
        );
        if self.values[net.index()] != value {
            self.values[net.index()] = value;
            self.dirty = true;
        }
    }

    /// Drives a bus of primary inputs (LSB first) from an integer.
    pub fn set_word(&mut self, nets: &[NetId], value: u64) {
        for (i, &n) in nets.iter().enumerate() {
            self.set(n, Logic::from_bool((value >> i) & 1 == 1));
        }
    }

    /// Reads the current value of any net (call [`eval`](Self::eval) first
    /// if inputs changed).
    pub fn get(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Reads a bus (LSB first) as an integer; `None` if any bit is `X`/`Z`.
    pub fn get_word(&self, nets: &[NetId]) -> Option<u64> {
        let bits: Vec<Logic> = nets.iter().map(|&n| self.get(n)).collect();
        socfmea_netlist::logic::bits_to_u64(&bits)
    }

    /// Direct read of a flip-flop's stored state.
    pub fn ff(&self, id: DffId) -> Logic {
        self.ff_state[id.index()]
    }

    /// The current value of every net (indexed by `NetId`), as of the last
    /// [`eval`](Self::eval). This is the whole-row counterpart of
    /// [`get`](Self::get), used by trace recorders that archive full cycles.
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// Stored state of every flip-flop (indexed by `DffId`).
    pub fn ff_states(&self) -> &[Logic] {
        &self.ff_state
    }

    /// Evaluates the combinational network. Idempotent: re-evaluation
    /// without input/state changes is a no-op unless faults are active.
    pub fn eval(&mut self) {
        if !self.dirty && self.bridges.is_empty() && self.transients.is_empty() {
            return;
        }
        self.apply_overrides_to_sources();
        self.propagate();
        if !self.bridges.is_empty() {
            // A bridge couples two evaluated nets; apply the coupling and
            // re-propagate once (sufficient for feed-forward victims; a
            // bridge creating feedback settles pessimistically to the second
            // pass value).
            let victims = self.bridge_victims();
            for _pass in 0..2 {
                let mut changed = false;
                let bridges = self.bridges.clone();
                for (aggressor, victim, kind) in bridges {
                    let a = self.values[aggressor.index()];
                    let v = self.values[victim.index()];
                    let coupled = kind.couple(a, v);
                    if coupled != v {
                        self.values[victim.index()] = coupled;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
                self.propagate_with_pins(&victims);
            }
        }
        self.dirty = false;
    }

    fn bridge_victims(&self) -> Vec<NetId> {
        self.bridges.iter().map(|&(_, v, _)| v).collect()
    }

    fn apply_overrides_to_sources(&mut self) {
        // Forces on inputs / ff outputs / constants take effect here; forces
        // on gate outputs are applied during propagation.
        for &net in &self.forced {
            if let Some(v) = self.forces[net.index()] {
                self.values[net.index()] = v;
            }
        }
        for &(net, v) in &self.transients {
            self.values[net.index()] = v;
        }
    }

    fn propagate(&mut self) {
        let order = std::mem::take(&mut self.order);
        let mut input_buf: Vec<Logic> = Vec::with_capacity(8);
        for &g in &order {
            let gate = self.netlist.gate(g);
            let out = gate.output.index();
            if let Some(v) = self.forces[out] {
                self.values[out] = v;
                continue;
            }
            if let Some(&(_, v)) = self.transients.iter().find(|&&(n, _)| n.index() == out) {
                self.values[out] = v;
                continue;
            }
            input_buf.clear();
            input_buf.extend(gate.inputs.iter().map(|&i| self.values[i.index()]));
            self.values[out] = gate.kind.eval(&input_buf);
        }
        self.order = order;
    }

    /// Re-propagates only gates downstream of the given pinned nets, keeping
    /// the pinned values fixed. Used for bridge re-evaluation.
    fn propagate_with_pins(&mut self, pins: &[NetId]) {
        let pinned: std::collections::HashSet<usize> = pins.iter().map(|n| n.index()).collect();
        let order = std::mem::take(&mut self.order);
        let mut input_buf: Vec<Logic> = Vec::with_capacity(8);
        for &g in &order {
            let gate = self.netlist.gate(g);
            let out = gate.output.index();
            if pinned.contains(&out) {
                continue;
            }
            if let Some(v) = self.forces[out] {
                self.values[out] = v;
                continue;
            }
            input_buf.clear();
            input_buf.extend(gate.inputs.iter().map(|&i| self.values[i.index()]));
            self.values[out] = gate.kind.eval(&input_buf);
        }
        self.order = order;
    }

    /// Advances one clock cycle: every flip-flop samples simultaneously
    /// (unless the clock is suppressed), transient forces expire, and the
    /// combinational network is re-evaluated.
    pub fn tick(&mut self) {
        self.eval();
        if !self.clock_suppressed {
            let mut next = std::mem::take(&mut self.ff_next);
            next.clear();
            for (fi, ff) in self.netlist.dffs().iter().enumerate() {
                let cur = self.ff_state[fi];
                let rst = ff.reset.map(|r| self.values[r.index()]);
                let en = ff.enable.map(|e| self.values[e.index()]);
                let d = self.values[ff.d.index()];
                let v = match rst {
                    Some(Logic::One) => ff.reset_value,
                    Some(Logic::X) | Some(Logic::Z) => Logic::X,
                    _ => match en {
                        Some(Logic::Zero) => cur,
                        Some(Logic::One) | None => d,
                        Some(_) => Logic::X,
                    },
                };
                next.push(v);
            }
            self.ff_next = std::mem::replace(&mut self.ff_state, next);
            self.load_ff_outputs();
        }
        self.transients.clear();
        self.cycle += 1;
        self.dirty = true;
        self.eval();
    }

    /// Applies one cycle of stimulus: drive `inputs`, evaluate, advance the
    /// clock.
    pub fn step(&mut self, inputs: &[(NetId, Logic)]) {
        for &(n, v) in inputs {
            self.set(n, v);
        }
        self.eval();
        self.tick();
    }

    // ------------------------------------------------------------------
    // fault-injection hooks
    // ------------------------------------------------------------------

    /// Forces `net` to `value` persistently (stuck-at / stuck-open model).
    /// Remove with [`release`](Self::release).
    pub fn force(&mut self, net: NetId, value: Logic) {
        if self.forces[net.index()].replace(value).is_none() {
            self.forced.push(net);
        }
        self.dirty = true;
    }

    /// Removes a persistent force. The net immediately recovers its driven
    /// value where one exists independently of the combinational network
    /// (flip-flop outputs reload the stored state, constants their value);
    /// gate outputs recover at the next [`eval`](Self::eval), and a forced
    /// primary input keeps the forced value until driven again.
    pub fn release(&mut self, net: NetId) {
        if self.forces[net.index()].take().is_some() {
            self.forced.retain(|&n| n != net);
        }
        // A force on a source net overwrites `values` directly; without this
        // the stale forced value would linger until the next tick (for a
        // flip-flop output) or forever (for a constant).
        match self.netlist.net(net).driver {
            Driver::Dff(f) => self.values[net.index()] = self.ff_state[f.index()],
            Driver::Const(v) => self.values[net.index()] = v,
            _ => {}
        }
        self.dirty = true;
    }

    /// Forces `net` for the current cycle only (transient fault / glitch);
    /// the force expires at the next [`tick`](Self::tick). Whether the
    /// glitch is *sampled* depends on the downstream logic — an unsampled
    /// glitch is exactly the paper's masked local fault.
    pub fn pulse(&mut self, net: NetId, value: Logic) {
        self.transients.push((net, value));
        self.dirty = true;
    }

    /// Flips the stored state of a flip-flop (soft-error / SEU model);
    /// `X` state stays `X`.
    pub fn flip_ff(&mut self, id: DffId) {
        let v = self.ff_state[id.index()];
        self.ff_state[id.index()] = v.not();
        let q = self.netlist.dff(id).q;
        self.values[q.index()] = self.ff_state[id.index()];
        self.dirty = true;
    }

    /// Overwrites the stored state of a flip-flop.
    pub fn set_ff(&mut self, id: DffId, value: Logic) {
        self.ff_state[id.index()] = value;
        let q = self.netlist.dff(id).q;
        self.values[q.index()] = value;
        self.dirty = true;
    }

    /// Installs a bridging fault coupling `victim` to `aggressor`.
    pub fn add_bridge(&mut self, aggressor: NetId, victim: NetId, kind: BridgeKind) {
        self.bridges.push((aggressor, victim, kind));
        self.dirty = true;
    }

    /// Removes all bridging faults.
    pub fn clear_bridges(&mut self) {
        self.bridges.clear();
        self.dirty = true;
    }

    /// Suppresses the global clock (clock-tree fault): while suppressed,
    /// [`tick`](Self::tick) advances time but no flip-flop updates.
    pub fn suppress_clock(&mut self, suppressed: bool) {
        self.clock_suppressed = suppressed;
    }

    /// True if any fault hook is currently active.
    pub fn has_active_faults(&self) -> bool {
        self.clock_suppressed
            || !self.bridges.is_empty()
            || !self.transients.is_empty()
            || self.forces.iter().any(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_netlist::{GateKind, NetlistBuilder};

    fn counter2() -> Netlist {
        // 2-bit counter with reset
        let mut b = NetlistBuilder::new("cnt2");
        let rst = b.input("rst");
        let q0 = b.dff_placeholder("q0");
        let q1 = b.dff_placeholder("q1");
        let n0 = b.gate(GateKind::Not, &[q0], "n0");
        let t1 = b.gate(GateKind::Xor, &[q1, q0], "t1");
        b.bind_dff("q0", n0);
        b.bind_dff("q1", t1);
        b.set_dff_controls(q0, None, Some(rst), Logic::Zero);
        b.set_dff_controls(q1, None, Some(rst), Logic::Zero);
        b.output("o0", q0);
        b.output("o1", q1);
        b.finish().unwrap()
    }

    fn count_of(sim: &Simulator, nl: &Netlist) -> u64 {
        let nets = [nl.net_by_name("q0").unwrap(), nl.net_by_name("q1").unwrap()];
        sim.get_word(&nets).unwrap()
    }

    #[test]
    fn counter_counts() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::Zero);
        sim.eval();
        for expected in [0u64, 1, 2, 3, 0, 1] {
            assert_eq!(count_of(&sim, &nl), expected);
            sim.tick();
        }
        assert_eq!(sim.cycle(), 6);
    }

    #[test]
    fn reset_clears_state() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::Zero);
        sim.eval();
        sim.tick();
        sim.tick();
        assert_eq!(count_of(&sim, &nl), 2);
        sim.set(rst, Logic::One);
        sim.tick();
        assert_eq!(count_of(&sim, &nl), 0);
    }

    #[test]
    fn stuck_at_force_holds_value() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        let q0 = nl.net_by_name("q0").unwrap();
        sim.set(rst, Logic::Zero);
        sim.force(q0, Logic::Zero); // bit 0 stuck at 0
        sim.eval();
        for _ in 0..4 {
            sim.tick();
            assert_eq!(sim.get(q0), Logic::Zero);
        }
        // q1 still follows xor(q1, q0=0) = q1, i.e. frozen at 0
        assert_eq!(count_of(&sim, &nl), 0);
        sim.release(q0);
        sim.tick();
        assert_ne!(count_of(&sim, &nl), 0);
    }

    #[test]
    fn transient_pulse_expires_after_tick() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::Zero);
        sim.eval();
        sim.tick(); // count = 1
        let n0 = nl.net_by_name("n0").unwrap();
        // glitch the toggle input so q0 reloads 1 instead of 0
        sim.pulse(n0, Logic::One);
        sim.eval();
        assert_eq!(sim.get(n0), Logic::One);
        sim.tick(); // sampled: q0 stays 1, q1 toggles (t1 = q1^q0 = 0^1... )
        assert!(!sim.has_active_faults());
    }

    #[test]
    fn ff_flip_models_seu() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::Zero);
        sim.eval();
        assert_eq!(count_of(&sim, &nl), 0);
        sim.flip_ff(DffId(1)); // flip q1
        sim.eval();
        assert_eq!(count_of(&sim, &nl), 2);
    }

    #[test]
    fn clock_suppression_freezes_state() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::Zero);
        sim.eval();
        sim.tick();
        let before = count_of(&sim, &nl);
        sim.suppress_clock(true);
        sim.tick();
        sim.tick();
        assert_eq!(count_of(&sim, &nl), before);
        sim.suppress_clock(false);
        sim.tick();
        assert_ne!(count_of(&sim, &nl), before);
    }

    #[test]
    fn bridge_couples_victim_to_aggressor() {
        // y = buf(a); z = buf(b); bridge z (victim) AND-coupled to y
        let mut b = NetlistBuilder::new("br");
        let a = b.input("a");
        let bb = b.input("b");
        let y = b.gate(GateKind::Buf, &[a], "y");
        let z = b.gate(GateKind::Buf, &[bb], "z");
        let w = b.gate(GateKind::Buf, &[z], "w");
        b.output("oy", y);
        b.output("ow", w);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set(a, Logic::Zero);
        sim.set(bb, Logic::One);
        sim.add_bridge(y, z, BridgeKind::And);
        sim.eval();
        // z should be dragged to 0 by the aggressor, and propagate to w
        assert_eq!(sim.get(nl.net_by_name("w").unwrap()), Logic::Zero);
        sim.clear_bridges();
        sim.eval();
        assert_eq!(sim.get(nl.net_by_name("w").unwrap()), Logic::One);
    }

    #[test]
    fn power_on_reset_restores_everything() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::Zero);
        sim.force(nl.net_by_name("q0").unwrap(), Logic::One);
        sim.tick();
        sim.pulse(nl.net_by_name("n0").unwrap(), Logic::One);
        sim.reset_to_power_on();
        assert_eq!(sim.cycle(), 0);
        assert!(!sim.has_active_faults());
        sim.set(rst, Logic::Zero);
        sim.eval();
        assert_eq!(count_of(&sim, &nl), 0);
    }

    #[test]
    fn clone_fresh_is_power_on_and_independent() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::Zero);
        sim.force(nl.net_by_name("q0").unwrap(), Logic::One);
        sim.suppress_clock(true);
        sim.tick();
        sim.tick();
        let mut fresh = sim.clone_fresh();
        assert_eq!(fresh.cycle(), 0);
        assert!(!fresh.has_active_faults());
        fresh.set(rst, Logic::Zero);
        fresh.eval();
        assert_eq!(count_of(&fresh, &nl), 0);
        // the clone's clock runs, and advancing it leaves the original
        // untouched
        fresh.tick();
        assert_eq!(count_of(&fresh, &nl), 1);
        assert_eq!(sim.cycle(), 2);
        assert!(sim.has_active_faults());
    }

    #[test]
    fn release_recovers_the_stored_ff_value_immediately() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        let q0 = nl.net_by_name("q0").unwrap();
        sim.set(rst, Logic::Zero);
        sim.eval();
        sim.tick(); // ff q0 stores 1
        assert_eq!(sim.ff(DffId(0)), Logic::One);
        sim.force(q0, Logic::Zero);
        sim.eval();
        assert_eq!(sim.get(q0), Logic::Zero);
        // the hidden state keeps evolving under the force; releasing must
        // expose the *stored* state, not the stale forced value
        sim.release(q0);
        assert_eq!(sim.get(q0), sim.ff(DffId(0)));
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn driving_internal_net_panics() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set(nl.net_by_name("n0").unwrap(), Logic::One);
    }

    #[test]
    fn x_reset_poisons_state() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        sim.set(rst, Logic::X);
        sim.tick();
        assert_eq!(sim.get(nl.net_by_name("q0").unwrap()), Logic::X);
    }
}
