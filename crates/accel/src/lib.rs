//! The golden trace of a fault-injection campaign.
//!
//! A fault-injection campaign re-simulates the same workload thousands of
//! times, and compares every faulty run with one fault-free reference:
//! **[`GoldenTrace`]**, one fault-free recording per environment: the
//! post-eval value of every net at every cycle. The operational profile
//! reads its zone activity from the rows, the campaign's monitors compare
//! against them, and a PPSFP word (`socfmea-faultsim`) starts from the row
//! at its first inject cycle instead of re-simulating the golden prefix.
//!
//! It is an exact recording, never an approximation, so the campaign layer
//! can promise bit-identical outcomes across engines.
//!
//! The propagation [`Topology`] lives in `socfmea-netlist` now; it is
//! re-exported here under its old path.

pub mod golden;

pub use golden::GoldenTrace;
pub use socfmea_netlist::Topology;
