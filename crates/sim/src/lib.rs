//! Cycle-based four-state gate-level simulation for the SoC-level FMEA flow.
//!
//! The paper's validation flow needs a deterministic logic simulator that can
//! (a) replay a *workload* over a golden and a faulty copy of the design,
//! (b) observe arbitrary nets each cycle, (c) measure toggle coverage of the
//! workload (validation step (b) of §5), and (d) host fault-injection hooks:
//! persistent stuck-at forces, single-cycle transients (SEU-like glitches),
//! flip-flop bit flips, bridging faults and global clock suppression.
//!
//! [`Simulator`] is a levelized, cycle-based evaluator over the
//! [`socfmea_netlist`] IR: per cycle, primary inputs are applied, the
//! combinational network is evaluated in topological order, observations are
//! taken, and [`tick`](Simulator::tick) advances every flip-flop at once.
//!
//! # Example
//!
//! ```
//! use socfmea_netlist::{GateKind, Logic, NetlistBuilder};
//! use socfmea_sim::Simulator;
//!
//! // q toggles every cycle: q' = not q
//! let mut b = NetlistBuilder::new("toggle");
//! let q = b.dff_placeholder("q");
//! let nq = b.gate(GateKind::Not, &[q], "nq");
//! b.bind_dff("q", nq);
//! b.output("out", q);
//! let nl = b.finish()?;
//!
//! let mut sim = Simulator::new(&nl)?;
//! let q_net = nl.net_by_name("q").unwrap();
//! assert_eq!(sim.get(q_net), Logic::Zero);
//! sim.tick();
//! assert_eq!(sim.get(q_net), Logic::One);
//! sim.tick();
//! assert_eq!(sim.get(q_net), Logic::Zero);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod coverage;
pub mod fault;
pub mod probe;
pub mod sim;
pub mod vcd;
pub mod word;
pub mod workload;

pub use coverage::ToggleCoverage;
pub use fault::BridgeKind;
pub use probe::Probe;
pub use sim::Simulator;
pub use vcd::VcdWriter;
pub use word::{WordSim, FAULT_LANES, LANES};
pub use workload::{assign_bus, Workload};
