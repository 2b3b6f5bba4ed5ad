//! The golden trace of a fault-injection campaign, and the propagation
//! topology of a netlist.
//!
//! A fault-injection campaign re-simulates the same workload thousands of
//! times, and compares every faulty run with one fault-free reference:
//!
//! 1. **[`GoldenTrace`]** — one fault-free recording per environment: the
//!    post-eval value of every net at every cycle, plus full-state
//!    [`SimSnapshot`](socfmea_sim::SimSnapshot) checkpoints at a
//!    configurable interval. The campaign's monitors compare against its
//!    rows, and a PPSFP word (`socfmea-faultsim`) starts from the row at its
//!    first inject cycle instead of re-simulating the golden prefix. No
//!    kernel reads the checkpoints; a full simulator could resume from the
//!    nearest one ([`GoldenTrace::checkpoint_at_or_before`]).
//! 2. **[`Topology`]** — the levelized gate order and per-net fan-out
//!    adjacency the static testability analysis walks.
//!
//! Both are exact recordings, never approximations, so the campaign layer
//! can promise bit-identical outcomes across engines.

pub mod golden;
pub mod topo;

pub use golden::GoldenTrace;
pub use topo::Topology;
