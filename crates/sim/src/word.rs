//! Word-level (bit-parallel) four-state simulation: 64 lanes per net.
//!
//! [`WordSim`] evaluates the same netlist as [`Simulator`](crate::Simulator)
//! but holds **64 independent simulations** in each net — one per bit lane
//! of a `u64` — so the levelized gate walk is paid once per cycle for all
//! lanes. This is the classic PPSFP (parallel-pattern single-fault
//! propagation) substrate turned sideways: here the lanes carry *faults*,
//! not patterns, which suits a fault-injection campaign where every fault
//! sees the same workload.
//!
//! # Lane convention
//!
//! Lane 0 is the **golden** (fault-free) machine; lanes `1..=FAULT_LANES`
//! carry faulty machines. [`FAULT_LANES`] (= [`LANES`]` - 1` = 63) is the
//! batch capacity every PPSFP consumer shares — the historical 63-vs-64
//! confusion ("64 lanes" vs "at most 63 faults") is resolved here, in one
//! place: 64 lanes of simulation, 63 of which may be faulty.
//!
//! # Encoding
//!
//! Each net stores two bit-planes, `lo` and `hi`, one bit per lane:
//!
//! | value | `lo` | `hi` |
//! |---|---|---|
//! | `0` | 1 | 0 |
//! | `1` | 0 | 1 |
//! | `X` (and `Z`) | 1 | 1 |
//!
//! `(0,0)` is unreachable. `Z` is conflated with `X` at encoding time —
//! exactly the [`Logic::resolved`] collapse every gate input applies —
//! which is sound for fault classification because every campaign monitor
//! gates on [`Logic::is_known`] (false for both) or compares against
//! `Logic::One` (distinct from both). Under this encoding the gate
//! operations become plane-parallel bitwise ops: AND folds `hi &=`,
//! `lo |=`; NOT swaps the planes; XOR is a 4-AND/2-OR plane product.
//!
//! # Event-driven evaluation
//!
//! The netlist is compiled once into a flat program in levelized order
//! (opcode, output and input indices per gate), and the word evaluates only
//! what a change reaches. Every change to a net's planes — an input
//! [`set`](WordSim::set), a lane hook, a flip-flop output at
//! [`tick`](WordSim::tick), a gate output — wakes the net's readers from
//! the netlist's [`Topology`]: its reader gates are scheduled in a bitmap
//! over levelized positions, and its reader flip-flops are marked.
//! [`eval`](WordSim::eval) walks the scheduled gates in order (a gate whose
//! output changes schedules its own readers, which always sit later in the
//! order), and `tick` updates only the marked flip-flops. A lifted pin
//! reschedules the gate driving the pinned net.
//!
//! Wake-ups are lazy: a change only records its net and adds the net's
//! gate fan-out to a running sum. When that sum exceeds
//! [`1 / FALLBACK_SHARE`](FALLBACK_SHARE) of the gates, `eval` runs the
//! plain walk over every gate instead, with no per-gate bookkeeping, and
//! every flip-flop updates at the next `tick`. A high-activity word (every
//! input redrawn every cycle) thus costs what the plain walk costs, and a
//! quiet one only its changes. Lane bridges ride both walks (see
//! [`WordSim::bridge_lane`]).
//!
//! After each `eval`, [`changed_nets`](WordSim::changed_nets) lists the
//! nets whose planes changed since the previous `eval` (every net after a
//! plain walk), so a monitor scan can skip the nets that did not move.
//!
//! # Per-lane faults
//!
//! Each hook touches its own lane only and mirrors one scalar hook:
//!
//! - [`WordSim::force_lane`] (stuck-at, [`Simulator::force`]): a per-net pin
//!   mask overrides the lane at every source load and gate-output write.
//! - [`WordSim::pulse_lane`] (glitch, [`Simulator::pulse`]): the same pin,
//!   lifted at the next [`tick`](WordSim::tick).
//! - [`WordSim::flip_lane`] (bit flip, [`Simulator::flip_ff`]): the lane's
//!   stored flip-flop state is inverted once.
//! - [`WordSim::bridge_lane`] (bridge, [`Simulator::add_bridge`]): after
//!   each gate walk the lane's victim couples from its aggressor with the
//!   scalar two-pass rule, and only the victims' fan-out cone re-propagates.
//! - [`WordSim::hold_clock_lane`] (clock outage,
//!   [`Simulator::suppress_clock`]): a lane mask on the flip-flop update.
//!
//! A word need not start at power-on: [`WordSim::load_golden`] broadcasts
//! one cycle of a fault-free run to every lane, and
//! [`WordSim::converged`] tells when every lane has fallen back onto lane 0
//! for good.
//!
//! [`Simulator::force`]: crate::Simulator::force
//! [`Simulator::pulse`]: crate::Simulator::pulse
//! [`Simulator::flip_ff`]: crate::Simulator::flip_ff
//! [`Simulator::add_bridge`]: crate::Simulator::add_bridge
//! [`Simulator::suppress_clock`]: crate::Simulator::suppress_clock

use crate::fault::BridgeKind;
use socfmea_netlist::{DffId, Driver, GateKind, LevelizeError, Logic, NetId, Netlist, Topology};

/// Bit lanes in one simulation word.
pub const LANES: usize = 64;

/// Fault capacity of one word: lane 0 is reserved for the golden machine,
/// so a PPSFP batch holds at most `LANES - 1 = 63` faults.
pub const FAULT_LANES: usize = LANES - 1;

/// The event-driven walk's break-even, as a share of the gates: an
/// [`eval`](WordSim::eval) whose pending changes wake more than
/// `gates / FALLBACK_SHARE` reader gates directly (counted per input pin)
/// runs the plain walk instead.
///
/// Set from measured costs (one x86-64 core). Per gate evaluation, a dense
/// event walk costs ~1.8× the plain walk (lockstep-MCU stuck-at sweep:
/// ~13 vs ~7 ns, the rest of the cycle included), so it pays only while it
/// skips close to half of the gates or more. A plain walk also leaves more to the rest of the cycle: every
/// flip-flop updates, and every monitored net is scanned. On the MCU sweep,
/// changes that wake 40–80% of the gates directly reach 50–100% of them,
/// and the event walk there ran 1.5× slower than the plain one; on the
/// hardened F-MEM the certification workload's busiest cycles wake 30–80%
/// directly, reach 40–80%, and still ran faster event-driven. No cycle of
/// the MCU sweep wakes between 25% and 40% of its gates, so a third keeps
/// the sweep on the plain walk and the F-MEM's busy cycles off it.
pub const FALLBACK_SHARE: usize = 3;

/// No enable or reset pin in the compiled flip-flop program.
const NO_PIN: u32 = u32::MAX;

/// Marks a flip-flop index in a gate's wake list (a gate position
/// otherwise).
const FF_READER: u32 = 1 << 31;

/// Broadcasts a logic value to all 64 lanes as `(lo, hi)` planes.
#[inline]
fn encode(v: Logic) -> (u64, u64) {
    match v {
        Logic::Zero => (!0, 0),
        Logic::One => (0, !0),
        Logic::X | Logic::Z => (!0, !0),
    }
}

/// True when every lane of a plane holds lane 0's bit.
#[inline]
fn uniform(plane: u64) -> bool {
    plane == (plane & 1).wrapping_neg()
}

/// Decodes one lane's `(lo, hi)` bit pair.
#[inline]
fn decode(lo: bool, hi: bool) -> Logic {
    match (lo, hi) {
        (true, false) => Logic::Zero,
        (false, true) => Logic::One,
        // (0,0) is unreachable by construction; decode it as X too so the
        // function is total.
        _ => Logic::X,
    }
}

/// Sets bit `i` of a bitmap.
#[inline]
fn set_bit(map: &mut [u64], i: usize) {
    map[i / 64] |= 1 << (i % 64);
}

/// One gate of the compiled program, at its levelized position.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Output net index.
    out: u32,
    /// The gate's input net indices are `ins[start..start + len]`.
    start: u32,
    len: u16,
    kind: GateKind,
}

/// One flip-flop of the compiled program.
#[derive(Debug, Clone, Copy)]
struct FfOp {
    d: u32,
    q: u32,
    /// Enable net index, or [`NO_PIN`].
    enable: u32,
    /// Reset net index, or [`NO_PIN`].
    reset: u32,
    /// `reset_value` as planes.
    reset_lo: u64,
    reset_hi: u64,
}

/// The netlist compiled for the word kernel: gates in levelized order,
/// flip-flops in [`DffId`] order, and the reader lists that say what a
/// change wakes.
#[derive(Debug, Clone)]
struct Program {
    ops: Vec<Op>,
    /// Input net indices of every op, op after op.
    ins: Vec<u32>,
    /// Levelized position of every gate (by [`GateId::index`]).
    ///
    /// [`GateId::index`]: socfmea_netlist::GateId::index
    pos: Vec<u32>,
    /// What a change of the gate output at position `p` wakes:
    /// `wakes[wake_start[p]..wake_start[p + 1]]`, the reader gates'
    /// positions and the reader flip-flops (as `FF_READER | index`). The
    /// topology's per-net lists, resolved once for the hot path.
    wake_start: Vec<u32>,
    wakes: Vec<u32>,
    ffs: Vec<FfOp>,
    topo: Topology,
}

impl Program {
    fn compile(netlist: &Netlist) -> Result<Program, LevelizeError> {
        let topo = Topology::build(netlist)?;
        let mut ops = Vec::with_capacity(netlist.gate_count());
        let mut ins = Vec::new();
        let mut pos = vec![0u32; netlist.gate_count()];
        for (p, &g) in topo.levels().iter().enumerate() {
            let gate = netlist.gate(g);
            pos[g.index()] = p as u32;
            ops.push(Op {
                out: gate.output.0,
                start: ins.len() as u32,
                len: u16::try_from(gate.inputs.len()).expect("fewer than 2^16 gate inputs"),
                kind: gate.kind,
            });
            ins.extend(gate.inputs.iter().map(|n| n.0));
        }
        let mut wake_start = Vec::with_capacity(ops.len() + 1);
        let mut wakes = Vec::new();
        wake_start.push(0);
        for op in &ops {
            let out = NetId(op.out);
            wakes.extend(topo.gate_readers(out).iter().map(|g| pos[g.index()]));
            wakes.extend(topo.dff_readers(out).iter().map(|f| FF_READER | f.0));
            wake_start.push(wakes.len() as u32);
        }
        let ffs = netlist
            .dffs()
            .iter()
            .map(|ff| {
                let (reset_lo, reset_hi) = encode(ff.reset_value);
                FfOp {
                    d: ff.d.0,
                    q: ff.q.0,
                    enable: ff.enable.map_or(NO_PIN, |n| n.0),
                    reset: ff.reset.map_or(NO_PIN, |n| n.0),
                    reset_lo,
                    reset_hi,
                }
            })
            .collect();
        Ok(Program {
            ops,
            ins,
            pos,
            wake_start,
            wakes,
            ffs,
            topo,
        })
    }
}

/// A bridge armed in one lane: the victim couples from the aggressor.
#[derive(Debug, Clone, Copy)]
struct LaneBridge {
    aggressor: NetId,
    victim: NetId,
    kind: BridgeKind,
    /// The lane's bit.
    bit: u64,
}

impl LaneBridge {
    /// The victim's planes after one coupling: [`BridgeKind::couple`] in
    /// this bridge's lane, every other lane unchanged.
    #[inline]
    fn couple(self, (al, ah): (u64, u64), (vl, vh): (u64, u64)) -> (u64, u64) {
        let (cl, ch) = match self.kind {
            BridgeKind::And => (al | vl, ah & vh),
            BridgeKind::Or => (al & vl, ah | vh),
            BridgeKind::Dominant => (al, ah),
        };
        let m = self.bit;
        ((vl & !m) | (cl & m), (vh & !m) | (ch & m))
    }
}

/// A 64-lane bit-parallel four-state simulator over a gate-level netlist.
///
/// Mirrors the [`Simulator`](crate::Simulator) evaluation model exactly —
/// levelized combinational propagation, simultaneous DFF sampling on
/// [`tick`](Self::tick), persistent primary inputs — such that lane 0
/// tracks a fault-free `Simulator` run bit for bit, and a lane carrying one
/// of the per-lane hooks (see the module docs) tracks a `Simulator` run
/// carrying the equivalent scalar hook, driven through the same sequence
/// of `set`/`eval`/`tick` calls, as read after each `eval`. Evaluation is
/// event-driven (see the module docs); the values are the plain walk's.
#[derive(Debug, Clone)]
pub struct WordSim<'a> {
    netlist: &'a Netlist,
    prog: Program,
    /// `lo` plane per net (bit set ⇒ lane may be 0 or X).
    lo: Vec<u64>,
    /// `hi` plane per net (bit set ⇒ lane may be 1 or X).
    hi: Vec<u64>,
    ff_lo: Vec<u64>,
    ff_hi: Vec<u64>,
    /// Per-net pin masks: lanes where a stuck-at force overrides the value.
    pin_mask: Vec<u64>,
    pin_lo: Vec<u64>,
    pin_hi: Vec<u64>,
    /// Nets with a nonzero `pin_mask`, for cheap re-application in `eval`.
    pinned: Vec<NetId>,
    /// The pins of this cycle's glitches, lifted at the next `tick`.
    glitches: Vec<(NetId, u64)>,
    /// Per-lane bridges, coupled after every gate walk.
    bridges: Vec<LaneBridge>,
    /// Per net, the lanes in which it is a bridge victim (held while the
    /// victims' fan-out re-propagates).
    bridge_held: Vec<u64>,
    /// The positions of the gates driving a bridge victim: an event walk
    /// recomputes them every time, uncoupled, before coupling again.
    bridge_drivers: Vec<u32>,
    /// Some bridge victim is a net no gate drives, so `tick` re-evaluates
    /// after the clock edge (see there).
    source_bridged: bool,
    /// Lanes whose flip-flops keep their state at the clock edge.
    clock_hold: u64,
    /// The nets neither a gate nor a flip-flop drives: primary inputs,
    /// constants and undriven wires.
    sources: Vec<NetId>,
    cycle: u64,
    /// Something changed since the last `eval`.
    dirty: bool,
    /// The next `eval` walks every gate.
    full: bool,
    /// Nets whose planes changed since the last `eval`; their readers are
    /// woken there.
    pending: Vec<NetId>,
    /// Positions to re-evaluate at the next `eval` whatever their inputs
    /// do: gates whose output pin lifted.
    pending_gates: Vec<u32>,
    /// The reader gates `pending` and `pending_gates` wake, counted with
    /// multiplicity: the fallback rule's measure.
    pending_fanout: usize,
    /// Bitmap over levelized positions: the gates the running event walk
    /// still has to evaluate (all clear outside `eval`).
    sched: Vec<u64>,
    /// Bitmap over flip-flops: the ones the next `tick` updates.
    ff_mark: Vec<u64>,
    /// The next `tick` updates every flip-flop.
    ff_all: bool,
    /// Flip-flops whose state the running `tick` changed.
    ff_changed: Vec<u32>,
    /// The nets whose planes changed since the previous `eval` returned,
    /// unless `changed_all`.
    changed: Vec<NetId>,
    /// A plain walk ran since the previous `eval` returned: every net
    /// counts as changed.
    changed_all: bool,
    /// `changed` is the report of the last `eval`: the next evaluation,
    /// an `eval`'s or a `tick`'s, starts a new one.
    reported: bool,
    /// Gate outputs and flip-flop states recomputed so far.
    gate_evals: u64,
    ff_updates: u64,
}

impl<'a> WordSim<'a> {
    /// Prepares a 64-lane simulator: compiles the netlist into a levelized
    /// program, initialises every flip-flop to its declared power-on value
    /// in all lanes, and settles the combinational network. Primary inputs
    /// start at `X`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the netlist contains a combinational
    /// cycle.
    pub fn new(netlist: &'a Netlist) -> Result<WordSim<'a>, LevelizeError> {
        let prog = Program::compile(netlist)?;
        let n = netlist.net_count();
        let mut sim = WordSim {
            netlist,
            lo: vec![!0; n],
            hi: vec![!0; n],
            ff_lo: Vec::with_capacity(netlist.dff_count()),
            ff_hi: Vec::with_capacity(netlist.dff_count()),
            pin_mask: vec![0; n],
            pin_lo: vec![0; n],
            pin_hi: vec![0; n],
            pinned: Vec::new(),
            glitches: Vec::new(),
            bridges: Vec::new(),
            bridge_held: vec![0; n],
            bridge_drivers: Vec::new(),
            source_bridged: false,
            clock_hold: 0,
            sources: (0..n)
                .map(NetId::from_index)
                .filter(|&i| !matches!(netlist.net(i).driver, Driver::Gate(_) | Driver::Dff(_)))
                .collect(),
            cycle: 0,
            dirty: true,
            full: true,
            pending: Vec::new(),
            pending_gates: Vec::new(),
            pending_fanout: 0,
            sched: vec![0; prog.ops.len().div_ceil(64)],
            ff_mark: vec![0; prog.ffs.len().div_ceil(64)],
            ff_all: true,
            ff_changed: Vec::new(),
            changed: Vec::new(),
            changed_all: false,
            reported: false,
            gate_evals: 0,
            ff_updates: 0,
            prog,
        };
        for ff in netlist.dffs() {
            let (l, h) = encode(ff.init);
            sim.ff_lo.push(l);
            sim.ff_hi.push(h);
        }
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

    /// Gate outputs recomputed since construction: every gate of a plain
    /// walk, the scheduled ones of an event-driven walk, and the bridge
    /// cone's re-propagations.
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Flip-flop states recomputed at clock edges since construction.
    pub fn ff_updates(&self) -> u64 {
        self.ff_updates
    }

    fn load_constants(&mut self) {
        for (i, net) in self.netlist.nets().iter().enumerate() {
            if let Driver::Const(v) = net.driver {
                let (l, h) = encode(v);
                self.lo[i] = l;
                self.hi[i] = h;
            }
        }
    }

    fn load_ff_outputs(&mut self) {
        for (fi, ff) in self.prog.ffs.iter().enumerate() {
            let q = ff.q as usize;
            self.lo[q] = self.ff_lo[fi];
            self.hi[q] = self.ff_hi[fi];
        }
    }

    /// Drops every pending wake-up and flip-flop mark: the next `eval`
    /// walks every gate and the `tick` after it updates every flip-flop.
    fn invalidate(&mut self) {
        self.pending.clear();
        self.pending_gates.clear();
        self.pending_fanout = 0;
        self.ff_mark.fill(0);
        self.full = true;
        self.dirty = true;
    }

    /// Records that the planes of net `i` changed outside a gate walk:
    /// the next `eval` wakes its readers.
    #[inline]
    fn note_change(&mut self, i: usize) {
        self.pending.push(NetId::from_index(i));
        self.pending_fanout += self.prog.topo.gate_readers(NetId::from_index(i)).len();
        self.dirty = true;
    }

    /// Resets to power-on in every lane: flip-flops to `init`, inputs to
    /// `X`, all lane faults removed. The word-level analogue of
    /// [`Simulator::reset_to_power_on`](crate::Simulator::reset_to_power_on),
    /// letting one `WordSim` be reused batch after batch without paying
    /// levelization again.
    pub fn reset_to_power_on(&mut self) {
        self.lo.fill(!0);
        self.hi.fill(!0);
        for (fi, ff) in self.netlist.dffs().iter().enumerate() {
            let (l, h) = encode(ff.init);
            self.ff_lo[fi] = l;
            self.ff_hi[fi] = h;
        }
        self.clear_lane_faults();
        self.cycle = 0;
        self.load_constants();
        self.load_ff_outputs();
        self.invalidate();
        self.eval();
    }

    /// Starts every lane at cycle `cycle` of a fault-free run: `row` holds
    /// every net's value at that cycle after its inputs were driven and the
    /// network evaluated (one row of a golden trace). All lane faults are
    /// removed. Driving that cycle's inputs again and going on with
    /// `eval`/`tick` then continues the fault-free run in every lane,
    /// exactly as a `WordSim` stepped there from power-on would.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not hold one value per net.
    pub fn load_golden(&mut self, cycle: u64, row: &[Logic]) {
        assert_eq!(row.len(), self.lo.len(), "one golden value per net");
        for (i, &v) in row.iter().enumerate() {
            (self.lo[i], self.hi[i]) = encode(v);
        }
        for (fi, ff) in self.prog.ffs.iter().enumerate() {
            // a flip-flop output carries the stored state in a fault-free run
            (self.ff_lo[fi], self.ff_hi[fi]) = encode(row[ff.q as usize]);
        }
        self.clear_lane_faults();
        self.cycle = cycle;
        self.invalidate();
    }

    /// Removes every lane pin, glitch, bridge and clock hold.
    fn clear_lane_faults(&mut self) {
        self.clear_pins();
        for b in &self.bridges {
            self.bridge_held[b.victim.index()] = 0;
        }
        self.bridges.clear();
        self.bridge_drivers.clear();
        self.source_bridged = false;
        self.clock_hold = 0;
    }

    /// Removes every lane pin and glitch without touching simulation state:
    /// the next [`eval`](Self::eval) walks every gate, and a net no gate
    /// drives keeps its pinned value until something drives it again.
    pub fn clear_pins(&mut self) {
        for &net in &self.pinned {
            self.pin_mask[net.index()] = 0;
            self.pin_lo[net.index()] = 0;
            self.pin_hi[net.index()] = 0;
        }
        self.pinned.clear();
        self.glitches.clear();
        self.full = true;
        self.dirty = true;
    }

    /// The bit of a faulty lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 (the golden lane) or ≥ [`LANES`].
    fn lane_bit(lane: usize) -> u64 {
        assert!(lane != 0, "lane 0 is the golden lane");
        assert!(lane < LANES, "lane {lane} out of range");
        1 << lane
    }

    /// Pins `net` to `value` in the lanes of `bit`. The pin takes effect at
    /// the next `eval`, which applies every pin.
    fn pin(&mut self, net: NetId, bit: u64, value: Logic) {
        let i = net.index();
        if self.pin_mask[i] == 0 {
            self.pinned.push(net);
        }
        let (l, h) = encode(value);
        self.pin_mask[i] |= bit;
        self.pin_lo[i] = (self.pin_lo[i] & !bit) | (l & bit);
        self.pin_hi[i] = (self.pin_hi[i] & !bit) | (h & bit);
        self.dirty = true;
    }

    /// Lifts the pin of `net` in the lanes of `bit` at a clock edge. The
    /// lanes recover what drives the net: a gate output is recomputed at
    /// the next `eval`, a flip-flop output reloads the stored state, and
    /// any other net keeps the pinned value until driven again.
    fn unpin(&mut self, net: NetId, bit: u64) {
        let i = net.index();
        self.pin_mask[i] &= !bit;
        self.pin_lo[i] &= !bit;
        self.pin_hi[i] &= !bit;
        if self.pin_mask[i] == 0 {
            self.pinned.retain(|&n| n != net);
        }
        match self.netlist.net(net).driver {
            Driver::Gate(g) => {
                self.pending_gates.push(self.prog.pos[g.index()]);
                self.pending_fanout += 1;
            }
            Driver::Dff(f) => {
                let (l, h) = (self.ff_lo[f.index()], self.ff_hi[f.index()]);
                if (self.lo[i], self.hi[i]) != (l, h) {
                    (self.lo[i], self.hi[i]) = (l, h);
                    self.note_change(i);
                }
            }
            _ => {}
        }
        self.dirty = true;
    }

    /// Drives a primary input in **all** lanes (the whole batch sees the
    /// same workload). The value persists across cycles until changed.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set(&mut self, net: NetId, value: Logic) {
        assert!(
            matches!(self.netlist.net(net).driver, Driver::Input),
            "net {net} is not a primary input"
        );
        let (l, h) = encode(value);
        let i = net.index();
        if (self.lo[i], self.hi[i]) != (l, h) {
            self.lo[i] = l;
            self.hi[i] = h;
            self.note_change(i);
        }
    }

    /// Pins `net` to `value` in one lane only — a per-lane stuck-at force,
    /// the analogue of [`Simulator::force`](crate::Simulator::force) (`Z`
    /// pins as `X`). Lane 0 is the golden lane and must stay clean.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or ≥ [`LANES`].
    pub fn force_lane(&mut self, net: NetId, lane: usize, value: Logic) {
        self.pin(net, Self::lane_bit(lane), value);
    }

    /// Pins `net` to `value` in one lane for the current cycle only — a
    /// per-lane glitch, the analogue of
    /// [`Simulator::pulse`](crate::Simulator::pulse). The pin lifts at the
    /// next [`tick`](Self::tick). As in the scalar simulator, a net no gate
    /// drives keeps the glitched value after that until something drives it
    /// again: a primary input its next [`set`](Self::set), a flip-flop
    /// output the clock edge itself.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or ≥ [`LANES`].
    pub fn pulse_lane(&mut self, net: NetId, lane: usize, value: Logic) {
        let bit = Self::lane_bit(lane);
        self.pin(net, bit, value);
        self.glitches.push((net, bit));
    }

    /// Inverts the stored state of flip-flop `dff` in one lane — a per-lane
    /// bit flip, the analogue of
    /// [`Simulator::flip_ff`](crate::Simulator::flip_ff): `X` stays `X`,
    /// and the flip-flop's output shows the new state at once. The
    /// flip-flop is marked, so the next [`tick`](Self::tick) updates it.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or ≥ [`LANES`].
    pub fn flip_lane(&mut self, dff: DffId, lane: usize) {
        let bit = Self::lane_bit(lane);
        let fi = dff.index();
        // NOT swaps the planes; X is (1, 1) either way
        let (l, h) = (self.ff_lo[fi], self.ff_hi[fi]);
        self.ff_lo[fi] = (l & !bit) | (h & bit);
        self.ff_hi[fi] = (h & !bit) | (l & bit);
        set_bit(&mut self.ff_mark, fi);
        let q = self.prog.ffs[fi].q as usize;
        let (nl, nh) = (
            (self.lo[q] & !bit) | (self.ff_lo[fi] & bit),
            (self.hi[q] & !bit) | (self.ff_hi[fi] & bit),
        );
        if (self.lo[q], self.hi[q]) != (nl, nh) {
            (self.lo[q], self.hi[q]) = (nl, nh);
            self.note_change(q);
        }
    }

    /// Couples `victim` to `aggressor` in one lane only — a per-lane
    /// bridge, the analogue of
    /// [`Simulator::add_bridge`](crate::Simulator::add_bridge). Lane 0 is
    /// the golden lane and must stay clean.
    ///
    /// Bridges are evaluated with the scalar rule in both walks. An event
    /// walk recomputes every gate driving a victim, so the victim starts
    /// each evaluation uncoupled as in a plain walk, then couples, and the
    /// changed victims wake their readers, which re-evaluate with every
    /// victim held in its own lanes.
    ///
    /// A lane carries at most one bridge, and that is what lets
    /// [`eval`](Self::eval) skip a call when nothing changed. The scalar
    /// simulator re-couples its bridges on every call, also onto a source
    /// net (input, flip-flop output, constant), whose coupled value the
    /// next call starts from. But one bridge's coupling, as a map of its
    /// victim's value, is monotone (with `X` below `0` and `1`): after the
    /// up to two passes of one call the victim sits on a fixed point or on
    /// a `0`/`1` cycle of length two, so a repeated call ends where it
    /// started.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or ≥ [`LANES`], or already carries a bridge.
    pub fn bridge_lane(&mut self, aggressor: NetId, victim: NetId, lane: usize, kind: BridgeKind) {
        let bit = Self::lane_bit(lane);
        assert!(
            self.bridges.iter().all(|b| b.bit != bit),
            "lane {lane} already carries a bridge"
        );
        self.bridges.push(LaneBridge {
            aggressor,
            victim,
            kind,
            bit,
        });
        self.bridge_held[victim.index()] |= bit;
        match self.netlist.net(victim).driver {
            Driver::Gate(g) => self.bridge_drivers.push(self.prog.pos[g.index()]),
            _ => self.source_bridged = true,
        }
        self.dirty = true;
    }

    /// Holds one lane's flip-flops at every clock edge while `held` — a
    /// per-lane clock outage, the analogue of
    /// [`Simulator::suppress_clock`](crate::Simulator::suppress_clock).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or ≥ [`LANES`].
    pub fn hold_clock_lane(&mut self, lane: usize, held: bool) {
        let bit = Self::lane_bit(lane);
        if held {
            self.clock_hold |= bit;
        } else if self.clock_hold & bit != 0 {
            self.clock_hold &= !bit;
            // the release edge: the held lanes catch up with their inputs
            self.ff_all = true;
        }
    }

    /// True when every lane has fallen back onto lane 0 for good: no pin,
    /// glitch, bridge or clock hold is live, and every flip-flop state and
    /// every net no gate drives holds lane 0's value in every lane. (A
    /// flip-flop output is reloaded from its state at every clock edge.)
    /// With no further lane fault armed, every lane then repeats lane 0 for
    /// the rest of the run.
    pub fn converged(&self) -> bool {
        self.pinned.is_empty()
            && self.bridges.is_empty()
            && self.clock_hold == 0
            && self.ff_lo.iter().chain(&self.ff_hi).all(|&p| uniform(p))
            && self
                .sources
                .iter()
                .all(|n| uniform(self.lo[n.index()]) && uniform(self.hi[n.index()]))
    }

    /// Reads one lane of a net (call [`eval`](Self::eval) first if inputs,
    /// state or lane faults changed since the last call, a
    /// [`tick`](Self::tick) included). `Z` reads as `X` — see the module
    /// docs on conflation.
    pub fn get_lane(&self, net: NetId, lane: usize) -> Logic {
        assert!(lane < LANES, "lane {lane} out of range");
        let bit = 1u64 << lane;
        decode(
            self.lo[net.index()] & bit != 0,
            self.hi[net.index()] & bit != 0,
        )
    }

    /// The golden (lane 0) value of a net.
    pub fn get(&self, net: NetId) -> Logic {
        self.get_lane(net, 0)
    }

    /// Lanes whose value differs from the golden lane: bit `i` is set when
    /// lane `i` disagrees with lane 0 (bit 0 is always clear).
    pub fn diff_mask(&self, net: NetId) -> u64 {
        let lo = self.lo[net.index()];
        let hi = self.hi[net.index()];
        let lo0 = (lo & 1).wrapping_neg(); // broadcast bit 0
        let hi0 = (hi & 1).wrapping_neg();
        (lo ^ lo0) | (hi ^ hi0)
    }

    /// True when the golden lane holds a known (`0`/`1`) value.
    pub fn golden_known(&self, net: NetId) -> bool {
        let lo = self.lo[net.index()] & 1;
        let hi = self.hi[net.index()] & 1;
        lo ^ hi == 1
    }

    /// Lanes in which the net is exactly `One` (not `X`): `hi & !lo`.
    pub fn one_mask(&self, net: NetId) -> u64 {
        self.hi[net.index()] & !self.lo[net.index()]
    }

    /// Read after an [`eval`](Self::eval): the nets whose planes changed
    /// since the previous `eval` returned (a [`tick`](Self::tick) and the
    /// hooks in between included), in no particular order and possibly
    /// more than once; `None` when a plain walk ran in that span, after
    /// which every net counts as changed. A net missing from the list holds
    /// the planes it held when the previous `eval` returned.
    pub fn changed_nets(&self) -> Option<&[NetId]> {
        (!self.changed_all).then_some(self.changed.as_slice())
    }

    /// Applies lane pins to a stored value pair.
    #[inline]
    fn pinned_planes(&self, i: usize, lo: u64, hi: u64) -> (u64, u64) {
        let m = self.pin_mask[i];
        ((lo & !m) | self.pin_lo[i], (hi & !m) | self.pin_hi[i])
    }

    /// Evaluates the combinational network in all lanes, then couples the
    /// lane bridges. Idempotent when nothing changed since the last call
    /// (see [`bridge_lane`](Self::bridge_lane) for why that holds for
    /// bridged lanes too).
    ///
    /// Walks only the gates the changes since the last call reach, unless
    /// they wake more than [`1 / FALLBACK_SHARE`](FALLBACK_SHARE) of the
    /// gates: then it walks every gate.
    pub fn eval(&mut self) {
        self.settle();
        self.reported = true;
    }

    /// [`eval`](Self::eval) without closing the changed-net report: the
    /// evaluations inside `tick` add to the next `eval`'s report.
    fn settle(&mut self) {
        if std::mem::take(&mut self.reported) {
            self.changed.clear();
            self.changed_all = false;
        }
        if !self.dirty {
            return;
        }
        // Pins take effect here: a stored value with its pins applied stays
        // put, a new pin changes the net, and its readers wake. A gate
        // output is re-pinned at its write as well.
        for pi in 0..self.pinned.len() {
            let i = self.pinned[pi].index();
            let (l, h) = self.pinned_planes(i, self.lo[i], self.hi[i]);
            if (self.lo[i], self.hi[i]) != (l, h) {
                (self.lo[i], self.hi[i]) = (l, h);
                self.note_change(i);
            }
        }
        self.dirty = false;
        let fallback = self.full || self.pending_fanout * FALLBACK_SHARE > self.prog.ops.len();
        if fallback {
            self.walk_all();
            if !self.bridges.is_empty() {
                self.couple_bridges();
            }
            self.pending.clear();
            self.pending_gates.clear();
            self.pending_fanout = 0;
            self.full = false;
            self.changed_all = true;
            self.ff_all = true;
        } else {
            self.walk_events();
            if !self.bridges.is_empty() {
                self.couple_bridges();
            }
        }
    }

    /// The plain walk: every gate in levelized order, no bookkeeping.
    fn walk_all(&mut self) {
        let prog = std::mem::take(&mut self.prog.ops);
        for op in &prog {
            let (mut lo, mut hi) = self.op_planes(op);
            let out = op.out as usize;
            if self.pin_mask[out] != 0 {
                (lo, hi) = self.pinned_planes(out, lo, hi);
            }
            self.lo[out] = lo;
            self.hi[out] = hi;
        }
        self.gate_evals += prog.len() as u64;
        self.prog.ops = prog;
    }

    /// Schedules the gate readers of net `i` and marks its flip-flop
    /// readers.
    #[inline]
    fn wake(&mut self, i: usize) {
        let net = NetId::from_index(i);
        for &g in self.prog.topo.gate_readers(net) {
            set_bit(&mut self.sched, self.prog.pos[g.index()] as usize);
        }
        for &ff in self.prog.topo.dff_readers(net) {
            set_bit(&mut self.ff_mark, ff.index());
        }
    }

    /// The event walk: wakes the readers of every pending change and
    /// schedules the lifted pins' and the bridge victims' drivers, then
    /// walks the scheduled gates.
    fn walk_events(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for &net in &pending {
            self.wake(net.index());
        }
        self.changed.extend_from_slice(&pending);
        self.pending = pending;
        self.pending.clear();
        for k in 0..self.pending_gates.len() {
            let p = self.pending_gates[k] as usize;
            set_bit(&mut self.sched, p);
        }
        for k in 0..self.bridge_drivers.len() {
            let p = self.bridge_drivers[k] as usize;
            set_bit(&mut self.sched, p);
        }
        self.pending_gates.clear();
        self.pending_fanout = 0;
        self.walk_scheduled::<false>();
    }

    /// Evaluates the scheduled gates in levelized order, waking the readers
    /// of every output that changes. A reader sits after its driver, so one
    /// forward pass over the bitmap reaches everything. With `HELD`, a
    /// bridge victim keeps its coupled value in its own lanes.
    fn walk_scheduled<const HELD: bool>(&mut self) {
        for w in 0..self.sched.len() {
            // the word's bits stay in a register; a wake into this word
            // joins them there (a reader sits at a later position)
            let mut bits = std::mem::take(&mut self.sched[w]);
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let op = self.prog.ops[p];
                let (mut lo, mut hi) = self.op_planes(&op);
                self.gate_evals += 1;
                let out = op.out as usize;
                if self.pin_mask[out] != 0 {
                    (lo, hi) = self.pinned_planes(out, lo, hi);
                }
                if HELD {
                    let held = self.bridge_held[out];
                    lo = (lo & !held) | (self.lo[out] & held);
                    hi = (hi & !held) | (self.hi[out] & held);
                }
                if (self.lo[out], self.hi[out]) != (lo, hi) {
                    self.lo[out] = lo;
                    self.hi[out] = hi;
                    self.changed.push(NetId::from_index(out));
                    let wakes =
                        self.prog.wake_start[p] as usize..self.prog.wake_start[p + 1] as usize;
                    for &r in &self.prog.wakes[wakes] {
                        if r & FF_READER != 0 {
                            set_bit(&mut self.ff_mark, (r & !FF_READER) as usize);
                        } else if r as usize / 64 == w {
                            bits |= 1 << (r % 64);
                        } else {
                            set_bit(&mut self.sched, r as usize);
                        }
                    }
                }
            }
        }
    }

    /// The output planes of `op` from its current input planes.
    #[inline(always)]
    fn op_planes(&self, op: &Op) -> (u64, u64) {
        let ins = &self.prog.ins[op.start as usize..][..op.len as usize];
        let (lo, hi) = (&self.lo, &self.hi);
        match op.kind {
            GateKind::Buf => (lo[ins[0] as usize], hi[ins[0] as usize]),
            GateKind::Not => (hi[ins[0] as usize], lo[ins[0] as usize]),
            GateKind::And | GateKind::Nand => {
                let (mut l, mut h) = (0u64, !0u64);
                for &n in ins {
                    l |= lo[n as usize];
                    h &= hi[n as usize];
                }
                if op.kind == GateKind::Nand {
                    (h, l)
                } else {
                    (l, h)
                }
            }
            GateKind::Or | GateKind::Nor => {
                let (mut l, mut h) = (!0u64, 0u64);
                for &n in ins {
                    l &= lo[n as usize];
                    h |= hi[n as usize];
                }
                if op.kind == GateKind::Nor {
                    (h, l)
                } else {
                    (l, h)
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // Parity fold starting from encoded Zero.
                let (mut l, mut h) = (!0u64, 0u64);
                for &n in ins {
                    let (bl, bh) = (lo[n as usize], hi[n as usize]);
                    let nl = (l & bl) | (h & bh);
                    let nh = (l & bh) | (h & bl);
                    l = nl;
                    h = nh;
                }
                if op.kind == GateKind::Xnor {
                    (h, l)
                } else {
                    (l, h)
                }
            }
            GateKind::Mux2 => {
                let (s, a, b) = (ins[0] as usize, ins[1] as usize, ins[2] as usize);
                let (sl, sh) = (lo[s], hi[s]);
                let (al, ah) = (lo[a], hi[a]);
                let (bl, bh) = (lo[b], hi[b]);
                let sel0 = sl & !sh;
                let sel1 = sh & !sl;
                let selx = sl & sh;
                // Unknown select: the plane union is the pessimistic
                // join — known only where both data inputs agree.
                (
                    (sel0 & al) | (sel1 & bl) | (selx & (al | bl)),
                    (sel0 & ah) | (sel1 & bh) | (selx & (ah | bh)),
                )
            }
        }
    }

    /// Couples every lane bridge with `Simulator::eval`'s rule, after
    /// either walk: up to two passes, each coupling from the victim's
    /// current value; after a pass that changed any lane, the changed
    /// victims' readers re-evaluate, with every victim held in its own
    /// lanes, and so on down their fan-out. A lane whose pass changed
    /// nothing recomputes to the same values, so sharing the passes is
    /// exact.
    ///
    /// Kept out of line: inlined into `eval`, bridge coupling slowed the
    /// plain gate walk of bridge-free words by ~10% (hardened F-MEM
    /// certification workload, one x86-64 core).
    #[inline(never)]
    fn couple_bridges(&mut self) {
        for _pass in 0..2 {
            let mut changed = false;
            for bi in 0..self.bridges.len() {
                let b = self.bridges[bi];
                let (a, v) = (b.aggressor.index(), b.victim.index());
                let (lo, hi) = b.couple((self.lo[a], self.hi[a]), (self.lo[v], self.hi[v]));
                if (lo, hi) != (self.lo[v], self.hi[v]) {
                    self.lo[v] = lo;
                    self.hi[v] = hi;
                    self.changed.push(b.victim);
                    self.wake(v);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            self.walk_scheduled::<true>();
        }
    }

    /// Advances one clock cycle in all lanes: every flip-flop samples
    /// simultaneously (per lane, with the same reset/enable/X semantics as
    /// [`Simulator::tick`](crate::Simulator::tick); a
    /// [held](Self::hold_clock_lane) lane keeps its state), and this
    /// cycle's [glitches](Self::pulse_lane) lift.
    ///
    /// Only the flip-flops marked since the last edge are recomputed: those
    /// whose `d`, `enable` or `reset` planes changed, and the
    /// [flipped](Self::flip_lane) ones. That is exact because the update
    /// is idempotent per lane: with `reset` at `1` it loads `reset_value`,
    /// with `reset` or `enable` at `X` it loads `X`, with `enable` at `1`
    /// it loads `d`, and with `enable` at `0` it keeps the state. Every
    /// branch yields a value set by the inputs or by the state itself, so
    /// a flip-flop whose inputs are unchanged since its last update keeps
    /// its state. Every flip-flop is recomputed instead after a plain
    /// walk (which records no changes), after
    /// [`load_golden`](Self::load_golden) and
    /// [`reset_to_power_on`](Self::reset_to_power_on), and while a clock
    /// hold is live or at its release edge (a held lane skipped its
    /// updates). A flip-flop whose state changes reloads its output, and
    /// the next [`eval`](Self::eval) wakes the output's readers.
    ///
    /// The combinational network is left for the next [`eval`](Self::eval)
    /// to walk, once the next cycle's inputs are driven, so a cycle costs
    /// one gate walk. `Simulator::tick` also re-evaluates here, with the
    /// previous cycle's inputs. That evaluation matters only to a bridge
    /// whose victim no gate drives (a flip-flop output, a primary input, a
    /// constant): it couples that victim, and the next evaluation couples
    /// again from the coupled value. While some lane carries such a bridge,
    /// this evaluation runs here too.
    pub fn tick(&mut self) {
        self.settle();
        let hold = self.clock_hold;
        if self.ff_all || hold != 0 {
            for fi in 0..self.prog.ffs.len() {
                self.update_ff(fi, hold);
            }
            self.ff_updates += self.prog.ffs.len() as u64;
            self.ff_mark.fill(0);
        } else {
            for w in 0..self.ff_mark.len() {
                let mut bits = std::mem::take(&mut self.ff_mark[w]);
                self.ff_updates += u64::from(bits.count_ones());
                while bits != 0 {
                    self.update_ff(w * 64 + bits.trailing_zeros() as usize, hold);
                    bits &= bits - 1;
                }
            }
        }
        self.ff_all = false;
        // outputs change only after every flip-flop sampled
        let changed = std::mem::take(&mut self.ff_changed);
        for &fi in &changed {
            let fi = fi as usize;
            let q = self.prog.ffs[fi].q as usize;
            self.lo[q] = self.ff_lo[fi];
            self.hi[q] = self.ff_hi[fi];
            self.note_change(q);
        }
        self.ff_changed = changed;
        self.ff_changed.clear();
        for (net, bit) in std::mem::take(&mut self.glitches) {
            self.unpin(net, bit);
        }
        if !self.bridges.is_empty() {
            // the scalar simulator reloads every flip-flop output here,
            // which uncouples a victim among them; and every evaluation
            // couples again
            for bi in 0..self.bridges.len() {
                let v = self.bridges[bi].victim.index();
                if let Driver::Dff(f) = self.netlist.net(self.bridges[bi].victim).driver {
                    let state = (self.ff_lo[f.index()], self.ff_hi[f.index()]);
                    if (self.lo[v], self.hi[v]) != state {
                        (self.lo[v], self.hi[v]) = state;
                        self.note_change(v);
                    }
                }
            }
            self.dirty = true;
        }
        self.cycle += 1;
        if self.source_bridged {
            self.settle();
        }
    }

    /// Recomputes the state of flip-flop `fi` (lanes in `hold` keep it),
    /// noting it in `ff_changed` if it changed.
    #[inline]
    fn update_ff(&mut self, fi: usize, hold: u64) {
        let ff = self.prog.ffs[fi];
        let (cl, ch) = (self.ff_lo[fi], self.ff_hi[fi]);
        let (dl, dh) = (self.lo[ff.d as usize], self.hi[ff.d as usize]);
        // Reset plane masks; no reset net behaves as constant 0
        // (the `_` arm of the Simulator's reset match).
        let (r1, r0, rx) = if ff.reset == NO_PIN {
            (0, !0, 0)
        } else {
            let (rl, rh) = (self.lo[ff.reset as usize], self.hi[ff.reset as usize]);
            (rh & !rl, rl & !rh, rl & rh)
        };
        // Enable plane masks; no enable net behaves as constant 1.
        let (e1, e0, ex) = if ff.enable == NO_PIN {
            (!0, 0, 0)
        } else {
            let (el, eh) = (self.lo[ff.enable as usize], self.hi[ff.enable as usize]);
            (eh & !el, el & !eh, el & eh)
        };
        // Per lane: rst==1 → reset_value; rst X → X; rst==0 →
        // (en==1 → d, en==0 → hold, en X → X).
        let loaded_lo = (e1 & dl) | (e0 & cl) | ex;
        let loaded_hi = (e1 & dh) | (e0 & ch) | ex;
        let next_lo = (r1 & ff.reset_lo) | rx | (r0 & loaded_lo);
        let next_hi = (r1 & ff.reset_hi) | rx | (r0 & loaded_hi);
        // a held lane keeps its state
        let next_lo = (next_lo & !hold) | (cl & hold);
        let next_hi = (next_hi & !hold) | (ch & hold);
        if (next_lo, next_hi) != (cl, ch) {
            self.ff_lo[fi] = next_lo;
            self.ff_hi[fi] = next_hi;
            self.ff_changed.push(fi as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use socfmea_netlist::NetlistBuilder;

    /// 2-bit counter with reset — the Simulator's own reference fixture.
    fn counter2() -> Netlist {
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

    /// A fixture exercising every gate kind plus an enabled DFF.
    fn all_gates() -> Netlist {
        let mut b = NetlistBuilder::new("allg");
        let a = b.input("a");
        let c = b.input("c");
        let en = b.input("en");
        let q = b.dff_placeholder("q");
        let and = b.gate(GateKind::And, &[a, c], "g_and");
        let nand = b.gate(GateKind::Nand, &[a, c], "g_nand");
        let or = b.gate(GateKind::Or, &[a, c], "g_or");
        let nor = b.gate(GateKind::Nor, &[a, c], "g_nor");
        let xor = b.gate(GateKind::Xor, &[a, c, q], "g_xor");
        let xnor = b.gate(GateKind::Xnor, &[a, c], "g_xnor");
        let mux = b.gate(GateKind::Mux2, &[a, c, xor], "g_mux");
        let nb = b.gate(GateKind::Not, &[mux], "g_not");
        let bf = b.gate(GateKind::Buf, &[nb], "g_buf");
        b.bind_dff("q", bf);
        b.set_dff_controls(q, Some(en), None, Logic::Zero);
        for (name, net) in [
            ("o_and", and),
            ("o_nand", nand),
            ("o_or", or),
            ("o_nor", nor),
            ("o_xnor", xnor),
            ("o_buf", bf),
        ] {
            b.output(name, net);
        }
        b.finish().unwrap()
    }

    /// Asserts that every net of `word` lane `lane` equals `scalar`.
    fn assert_lane_matches(word: &WordSim, scalar: &Simulator, lane: usize, tag: &str) {
        for (i, net) in word.netlist().nets().iter().enumerate() {
            let id = NetId::from_index(i);
            assert_eq!(
                word.get_lane(id, lane),
                scalar.get(id).resolved(),
                "{tag}: lane {lane} diverges on net {}",
                net.name
            );
        }
    }

    #[test]
    fn golden_lane_matches_the_scalar_simulator_cycle_by_cycle() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        let mut scalar = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        for (cycle, r) in [Logic::One, Logic::Zero, Logic::Zero, Logic::Zero, Logic::X]
            .iter()
            .cycle()
            .take(12)
            .enumerate()
        {
            word.set(rst, *r);
            scalar.set(rst, *r);
            word.eval();
            scalar.eval();
            assert_lane_matches(&word, &scalar, 0, &format!("cycle {cycle}"));
            word.tick();
            scalar.tick();
        }
        assert_eq!(word.cycle(), scalar.cycle());
    }

    #[test]
    fn every_gate_kind_matches_the_scalar_simulator_on_all_input_values() {
        let nl = all_gates();
        let mut word = WordSim::new(&nl).unwrap();
        let mut scalar = Simulator::new(&nl).unwrap();
        let a = nl.net_by_name("a").unwrap();
        let c = nl.net_by_name("c").unwrap();
        let en = nl.net_by_name("en").unwrap();
        for va in Logic::ALL {
            for vc in Logic::ALL {
                for ve in Logic::ALL {
                    for (n, v) in [(a, va), (c, vc), (en, ve)] {
                        word.set(n, v);
                        scalar.set(n, v);
                    }
                    word.eval();
                    scalar.eval();
                    assert_lane_matches(&word, &scalar, 0, &format!("{va}{vc}{ve}"));
                    word.tick();
                    scalar.tick();
                    word.eval();
                    assert_lane_matches(&word, &scalar, 0, &format!("{va}{vc}{ve} post-tick"));
                }
            }
        }
    }

    #[test]
    fn forced_lane_matches_a_forced_scalar_simulator() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        let mut golden = Simulator::new(&nl).unwrap();
        let mut faulty = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        let q0 = nl.net_by_name("q0").unwrap();
        word.force_lane(q0, 3, Logic::Zero);
        faulty.force(q0, Logic::Zero);
        for r in [
            Logic::One,
            Logic::Zero,
            Logic::Zero,
            Logic::Zero,
            Logic::Zero,
        ] {
            word.set(rst, r);
            golden.set(rst, r);
            faulty.set(rst, r);
            word.eval();
            golden.eval();
            faulty.eval();
            assert_lane_matches(&word, &golden, 0, "golden");
            assert_lane_matches(&word, &faulty, 3, "faulty");
            word.tick();
            golden.tick();
            faulty.tick();
        }
    }

    /// Gate, flip-flop, input and constant nets to bridge: `g_nand`
    /// inverts `g_xor`, which reads `g_and`, so bridging `g_and` from
    /// `g_nand` closes a feedback loop. Input `c` is driven once, at cycle
    /// 0, and never again.
    fn bridge_fixture() -> Netlist {
        let mut b = NetlistBuilder::new("brg");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let rst = b.input("rst");
        let one = b.constant(Logic::One);
        let q0 = b.dff_placeholder("q0");
        let q1 = b.dff_placeholder("q1");
        let g_and = b.gate(GateKind::And, &[a, q0], "g_and");
        let g_or = b.gate(GateKind::Or, &[bb, q1], "g_or");
        let g_xor = b.gate(GateKind::Xor, &[g_and, g_or], "g_xor");
        let g_nand = b.gate(GateKind::Nand, &[g_xor, one], "g_nand");
        let t1 = b.gate(GateKind::Xor, &[q1, g_and], "t1");
        let g_c = b.gate(GateKind::Or, &[c, g_xor], "g_c");
        b.bind_dff("q0", g_nand);
        b.bind_dff("q1", t1);
        b.set_dff_controls(q0, None, Some(rst), Logic::Zero);
        b.set_dff_controls(q1, None, Some(rst), Logic::Zero);
        b.output("o_xor", g_xor);
        b.output("o_c", g_c);
        b.output("o0", q0);
        b.output("o1", q1);
        b.finish().unwrap()
    }

    /// `(rst, a, b)` per cycle of the fixture workload; `c` is driven to 0
    /// at cycle 0 only. The `X` reset at cycle 8 leaves both flip-flops at
    /// `X` in every lane.
    const STIMULUS: [(Logic, Logic, Logic); 11] = {
        use Logic::{One as I, Zero as O, X};
        [
            (I, O, O),
            (O, I, O),
            (O, I, I),
            (O, O, O),
            (O, X, I),
            (O, I, X),
            (O, O, I),
            (O, I, I),
            (X, I, O),
            (O, O, O),
            (O, I, O),
        ]
    };

    /// One lane's fault, armed at a cycle.
    #[derive(Debug, Clone, Copy)]
    enum LaneFault {
        Force(NetId, Logic),
        Pulse(NetId, Logic),
        Flip(DffId),
        Bridge(NetId, NetId, BridgeKind),
        /// A clock outage of this many ticks.
        Hold(usize),
    }

    /// Drives a word and one scalar simulator per faulty lane through the
    /// fixture workload, arming lane `i + 1`'s fault where `faults[i]`
    /// says, and asserts every net of every lane against its scalar twin
    /// after every `eval`, and every lane's [`diff_mask`](WordSim::diff_mask)
    /// bit against its value. The word starts at cycle `start` from the
    /// golden row there (the scalars step to it fault-free).
    ///
    /// Returns the first cycle past the last arming at which the word
    /// reports [`converged`](WordSim::converged) once that cycle's inputs
    /// are driven, asserting that from there on it stays converged and
    /// every lane equals lane 0 on every net.
    fn assert_lanes_track_scalar_runs(
        nl: &Netlist,
        start: usize,
        faults: &[(usize, LaneFault)],
    ) -> Option<usize> {
        let net = |name: &str| nl.net_by_name(name).unwrap();
        let (a, b, c, rst) = (net("a"), net("b"), net("c"), net("rst"));
        let mut word = WordSim::new(nl).unwrap();
        let mut golden = Simulator::new(nl).unwrap();
        let mut scalars: Vec<Simulator> = faults.iter().map(|_| golden.clone_fresh()).collect();
        let settle = faults.iter().map(|&(at, _)| at).max().unwrap_or(0);
        let mut converged = None;
        for (cycle, &(vr, va, vb)) in STIMULUS.iter().enumerate() {
            let mut drive = vec![(rst, vr), (a, va), (b, vb)];
            if cycle == 0 {
                drive.push((c, Logic::Zero));
            }
            for sim in scalars.iter_mut().chain([&mut golden]) {
                drive.iter().for_each(|&(n, v)| sim.set(n, v));
            }
            golden.eval();
            if cycle == start && start > 0 {
                word.load_golden(cycle as u64, golden.values());
            }
            if cycle >= start {
                drive.iter().for_each(|&(n, v)| word.set(n, v));
                if cycle > settle && word.converged() {
                    converged.get_or_insert(cycle);
                }
                assert_eq!(
                    converged.is_some(),
                    word.converged() && cycle > settle,
                    "cycle {cycle}: convergence is for good"
                );
            }
            for (i, &(at, fault)) in faults.iter().enumerate() {
                assert!(at >= start, "a fault armed before the word starts");
                let (lane, sim) = (i + 1, &mut scalars[i]);
                match fault {
                    LaneFault::Force(n, v) if cycle == at => {
                        word.force_lane(n, lane, v);
                        sim.force(n, v);
                    }
                    LaneFault::Pulse(n, v) if cycle == at => {
                        word.pulse_lane(n, lane, v);
                        sim.pulse(n, v);
                    }
                    LaneFault::Flip(ff) if cycle == at => {
                        word.flip_lane(ff, lane);
                        sim.flip_ff(ff);
                    }
                    LaneFault::Bridge(agg, victim, kind) if cycle == at => {
                        word.bridge_lane(agg, victim, lane, kind);
                        sim.add_bridge(agg, victim, kind);
                    }
                    LaneFault::Hold(ticks) => {
                        if cycle == at {
                            word.hold_clock_lane(lane, true);
                            sim.suppress_clock(true);
                        }
                        if cycle == at + ticks {
                            word.hold_clock_lane(lane, false);
                            sim.suppress_clock(false);
                        }
                    }
                    _ => {}
                }
            }
            scalars.iter_mut().for_each(Simulator::eval);
            if cycle >= start {
                word.eval();
                assert_lane_matches(&word, &golden, 0, &format!("golden, cycle {cycle}"));
                for (i, sim) in scalars.iter().enumerate() {
                    let tag = format!("{:?}, cycle {cycle}", faults[i]);
                    assert_lane_matches(&word, sim, i + 1, &tag);
                    for n in (0..nl.net_count()).map(NetId::from_index) {
                        let differs = word.get_lane(n, i + 1) != word.get(n);
                        assert_eq!(word.diff_mask(n) >> (i + 1) & 1 == 1, differs, "{tag}");
                    }
                }
                if converged.is_some() {
                    for i in 0..nl.net_count() {
                        assert_eq!(word.diff_mask(NetId::from_index(i)), 0, "cycle {cycle}");
                    }
                }
                word.tick();
            }
            golden.tick();
            scalars.iter_mut().for_each(Simulator::tick);
        }
        converged
    }

    /// Every fault of `faults` alone in a word, then all of them in one.
    fn assert_each_and_all_track_scalar_runs(nl: &Netlist, faults: &[(usize, LaneFault)]) {
        for &fault in faults {
            assert_lanes_track_scalar_runs(nl, 0, &[fault]);
        }
        assert_lanes_track_scalar_runs(nl, 0, faults);
    }

    #[test]
    fn bridged_lanes_match_bridged_scalar_simulators() {
        let nl = bridge_fixture();
        let net = |name: &str| nl.net_by_name(name).unwrap();
        let tie1 = (0..nl.net_count())
            .map(NetId::from_index)
            .find(|&n| nl.net(n).driver == Driver::Const(Logic::One))
            .unwrap();
        let mut faults = Vec::new();
        for (k, kind) in [BridgeKind::And, BridgeKind::Or, BridgeKind::Dominant]
            .into_iter()
            .enumerate()
        {
            // victims on a gate output, a flip-flop output, a primary input
            // and a constant; then the feedback bridge, which at cycle 1
            // (Dominant) only settles with the second coupling pass
            for (aggressor, victim) in [
                (net("b"), net("g_and")),
                (net("g_or"), net("q1")),
                (net("q0"), net("a")),
                (net("a"), tie1),
                (net("g_nand"), net("g_and")),
            ] {
                for at in [1, 4 + k] {
                    faults.push((at, LaneFault::Bridge(aggressor, victim, kind)));
                }
            }
        }
        // a pinned lane inside the bridges' fan-out cone
        faults.push((1, LaneFault::Force(net("g_xor"), Logic::One)));
        assert_each_and_all_track_scalar_runs(&nl, &faults);
    }

    #[test]
    fn clock_held_lanes_match_suppressed_scalar_simulators() {
        let nl = bridge_fixture();
        let faults: Vec<_> = [0, 1, 2]
            .into_iter()
            .flat_map(|ticks| [(3, LaneFault::Hold(ticks)), (9, LaneFault::Hold(ticks))])
            .collect();
        assert_each_and_all_track_scalar_runs(&nl, &faults);
    }

    #[test]
    fn flipped_lanes_match_flipped_scalar_simulators() {
        let nl = bridge_fixture();
        // cycle 9 follows the `X` reset: both flip-flops hold `X` there
        let mut golden = Simulator::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        for &(vr, _, _) in &STIMULUS[..9] {
            golden.set(rst, vr);
            golden.tick();
        }
        assert_eq!(golden.ff(DffId(0)), Logic::X);
        let faults: Vec<_> = [0, 3, 9]
            .into_iter()
            .flat_map(|at| {
                [
                    (at, LaneFault::Flip(DffId(0))),
                    (at, LaneFault::Flip(DffId(1))),
                ]
            })
            .collect();
        assert_each_and_all_track_scalar_runs(&nl, &faults);
    }

    #[test]
    fn pulsed_lanes_match_pulsed_scalar_simulators() {
        let nl = bridge_fixture();
        let net = |name: &str| nl.net_by_name(name).unwrap();
        let mut faults = Vec::new();
        // a gate output, a re-driven input, the never re-driven input `c`
        // and a flip-flop output, at both values
        for name in ["g_and", "g_xor", "a", "c", "q0"] {
            for (at, value) in [(1, Logic::One), (4, Logic::Zero), (9, Logic::One)] {
                faults.push((at, LaneFault::Pulse(net(name), value)));
            }
        }
        assert_each_and_all_track_scalar_runs(&nl, &faults);
    }

    #[test]
    fn x_forced_lanes_match_x_forced_scalar_simulators() {
        let nl = bridge_fixture();
        let net = |name: &str| nl.net_by_name(name).unwrap();
        let faults: Vec<_> = ["g_and", "g_xor", "a", "q1"]
            .into_iter()
            .flat_map(|name| [0, 3].map(|at| (at, LaneFault::Force(net(name), Logic::X))))
            .collect();
        assert_each_and_all_track_scalar_runs(&nl, &faults);
    }

    #[test]
    fn a_word_started_from_a_golden_row_stops_early() {
        let nl = bridge_fixture();
        let net = |name: &str| nl.net_by_name(name).unwrap();
        // flips and a glitch that the `X` reset at cycle 8 washes out
        let faults = [
            (5, LaneFault::Flip(DffId(0))),
            (5, LaneFault::Flip(DffId(1))),
            (6, LaneFault::Pulse(net("g_and"), Logic::One)),
        ];
        let converged = assert_lanes_track_scalar_runs(&nl, 5, &faults);
        assert!(
            matches!(converged, Some(c) if c <= 9),
            "converged at {converged:?}"
        );
    }

    #[test]
    fn a_live_clock_hold_is_never_converged() {
        let nl = counter2();
        let (rst, q0) = (
            nl.net_by_name("rst").unwrap(),
            nl.net_by_name("q0").unwrap(),
        );
        let mut word = WordSim::new(&nl).unwrap();
        word.set(rst, Logic::One);
        word.hold_clock_lane(1, true);
        word.eval();
        word.tick();
        // the reset kept lane 0 at the power-on state the held lane keeps
        assert_eq!(word.diff_mask(q0), 0);
        assert!(
            !word.converged(),
            "the golden lane counts on at the next edge"
        );
        word.hold_clock_lane(1, false);
        assert!(word.converged());
    }

    #[test]
    fn a_glitched_input_never_re_driven_keeps_the_word_running() {
        let nl = bridge_fixture();
        let c = nl.net_by_name("c").unwrap();
        // `c` is 0 from cycle 0 on: the glitched lane keeps its 1 to the end
        let faults = [(2, LaneFault::Pulse(c, Logic::One))];
        assert_eq!(assert_lanes_track_scalar_runs(&nl, 2, &faults), None);
    }

    #[test]
    fn diff_mask_flags_exactly_the_diverged_lanes() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        let q0 = nl.net_by_name("q0").unwrap();
        let q1 = nl.net_by_name("q1").unwrap();
        // lane 5: q0 stuck at 0 — after reset+count the counter freezes
        word.force_lane(q0, 5, Logic::Zero);
        word.set(rst, Logic::One);
        word.eval();
        word.tick();
        word.set(rst, Logic::Zero);
        word.eval();
        word.tick();
        word.eval(); // golden q0 = 1, lane 5 pinned to 0
        assert!(word.golden_known(q0));
        assert_eq!(word.diff_mask(q0), 1 << 5);
        word.tick();
        word.eval(); // golden: q1 = 1; lane 5: frozen at 0
        assert_eq!(word.diff_mask(q1), 1 << 5);
        // one_mask: golden q1 is One everywhere except the frozen lane
        assert_eq!(word.one_mask(q1), !(1u64 << 5));
    }

    #[test]
    fn x_reset_poisons_all_lanes() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        word.set(rst, Logic::X);
        word.tick();
        let q0 = nl.net_by_name("q0").unwrap();
        assert_eq!(word.get(q0), Logic::X);
        assert!(!word.golden_known(q0));
        assert_eq!(word.diff_mask(q0), 0);
    }

    #[test]
    fn reset_to_power_on_clears_pins_and_state() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        let q0 = nl.net_by_name("q0").unwrap();
        word.force_lane(q0, 7, Logic::One);
        word.set(rst, Logic::Zero);
        word.eval();
        word.tick();
        word.reset_to_power_on();
        assert_eq!(word.cycle(), 0);
        assert_eq!(word.diff_mask(q0), 0);
        let mut scalar = Simulator::new(&nl).unwrap();
        assert_lane_matches(&word, &scalar, 0, "power-on");
        word.set(rst, Logic::Zero);
        scalar.set(rst, Logic::Zero);
        word.eval();
        scalar.eval();
        word.tick();
        scalar.tick();
        word.eval();
        assert_lane_matches(&word, &scalar, 7, "ex-faulty lane after reset");
    }

    #[test]
    #[should_panic(expected = "golden lane")]
    fn forcing_lane_zero_panics() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        word.force_lane(nl.net_by_name("q0").unwrap(), 0, Logic::One);
    }

    #[test]
    #[should_panic(expected = "already carries a bridge")]
    fn a_second_bridge_on_one_lane_panics() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        let (rst, n0) = (
            nl.net_by_name("rst").unwrap(),
            nl.net_by_name("n0").unwrap(),
        );
        word.bridge_lane(rst, n0, 2, BridgeKind::And);
        word.bridge_lane(n0, rst, 3, BridgeKind::Or);
        word.bridge_lane(n0, rst, 2, BridgeKind::Or);
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn driving_internal_net_panics() {
        let nl = counter2();
        let mut word = WordSim::new(&nl).unwrap();
        word.set(nl.net_by_name("n0").unwrap(), Logic::One);
    }

    #[test]
    fn sixty_three_independent_faults_each_match_their_own_scalar_run() {
        // A wider register file so 63 distinct fault sites exist.
        let mut b = NetlistBuilder::new("wide");
        let rst = b.input("rst");
        let mut qs = Vec::new();
        for i in 0..32 {
            let q = b.dff_placeholder(format!("q{i}"));
            let n = b.gate(GateKind::Not, &[q], format!("n{i}"));
            b.bind_dff(&format!("q{i}"), n);
            b.set_dff_controls(q, None, Some(rst), Logic::Zero);
            b.output(format!("o{i}"), q);
            qs.push((q, n));
        }
        let nl = b.finish().unwrap();
        let mut word = WordSim::new(&nl).unwrap();
        let rst = nl.net_by_name("rst").unwrap();
        let mut scalars = Vec::new();
        for lane in 1..LANES {
            let (q, n) = qs[lane % qs.len()];
            let v = Logic::from_bool(lane % 2 == 0);
            let site = if lane % 3 == 0 { n } else { q };
            word.force_lane(site, lane, v);
            let mut s = Simulator::new(&nl).unwrap();
            s.force(site, v);
            scalars.push(s);
        }
        let mut golden = Simulator::new(&nl).unwrap();
        for r in [Logic::One, Logic::Zero, Logic::Zero, Logic::Zero] {
            word.set(rst, r);
            golden.set(rst, r);
            word.eval();
            golden.eval();
            assert_lane_matches(&word, &golden, 0, "golden");
            for (li, s) in scalars.iter_mut().enumerate() {
                s.set(rst, r);
                s.eval();
                assert_lane_matches(&word, s, li + 1, "fault lane");
            }
            word.tick();
            golden.tick();
            for s in scalars.iter_mut() {
                s.tick();
            }
        }
    }
}
