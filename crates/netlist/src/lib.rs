//! Gate-level netlist intermediate representation for the SoC-level FMEA flow.
//!
//! This crate is the structural foundation of the workspace. It provides:
//!
//! * a four-state logic value type ([`Logic`]) with IEEE-1164-style gate
//!   evaluation semantics,
//! * a flat, arena-backed gate-level netlist ([`Netlist`]) with typed ids,
//!   hierarchical block tags and bused-name metadata,
//! * a [`NetlistBuilder`] for programmatic construction (used by the word-level
//!   `socfmea-rtl` elaborator and by the `socfmea-memsys` design generator),
//! * combinational levelization with cycle detection ([`levelize`](fn@crate::levelize)),
//!   and the propagation [`Topology`] built on it: the levelized order plus
//!   per-net gate and flip-flop reader lists,
//! * fan-in **logic cone** extraction and per-zone statistics ([`cone`]) — the
//!   data the paper's extraction tool collects for each sensible zone,
//! * **correlation analysis** between cones ([`correlate`]): which gates are
//!   shared between several cones (the paper's *wide* physical faults) and
//!   which belong to exactly one cone (*local* faults),
//! * a structural Verilog-2001 subset reader/writer ([`verilog`]) so designs
//!   can be exchanged with external synthesis flows.
//!
//! # Example
//!
//! Build a tiny majority voter, levelize it and extract the cone of its
//! output:
//!
//! ```
//! use socfmea_netlist::{GateKind, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("majority");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let c = b.input("c");
//! let ab = b.gate(GateKind::And, &[a, bb], "ab");
//! let bc = b.gate(GateKind::And, &[bb, c], "bc");
//! let ac = b.gate(GateKind::And, &[a, c], "ac");
//! let y = b.gate(GateKind::Or, &[ab, bc, ac], "y");
//! b.output("y_out", y);
//! let nl = b.finish()?;
//!
//! let order = socfmea_netlist::levelize(&nl)?;
//! assert_eq!(order.len(), 5); // four logic gates + the output port buffer
//! let cone = socfmea_netlist::cone::fanin_cone(&nl, y);
//! assert_eq!(cone.gates.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cone;
pub mod correlate;
pub mod gate;
pub mod ids;
pub mod levelize;
pub mod logic;
pub mod netlist;
pub mod stats;
pub mod topo;
pub mod verilog;

pub use cone::{fanin_cone, fanin_cone_multi, fanout_region, Cone, ConeStats, FanoutRegion};
pub use correlate::{gate_membership, CorrelationMatrix, GateFan, GateMembership};
pub use gate::{Gate, GateKind};
pub use ids::{BlockId, DffId, GateId, NetId};
pub use levelize::{gate_depths, levelize, LevelizeError};
pub use logic::Logic;
pub use netlist::{
    split_bit_suffix, CriticalNetKind, Dff, Driver, Net, Netlist, NetlistBuilder, NetlistError,
    PortDir,
};
pub use stats::NetlistStats;
pub use topo::Topology;
pub use verilog::{parse_verilog, write_verilog, ParseVerilogError};
