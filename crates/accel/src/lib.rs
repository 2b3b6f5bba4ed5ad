//! Checkpointed incremental fault simulation for the SoC-FMEA flow.
//!
//! A fault-injection campaign re-simulates the same workload thousands of
//! times, and almost all of that work is redundant: before a fault
//! activates, the faulty run *is* the golden run, and after a transient
//! fault washes out it is the golden run again. This crate removes the
//! redundancy in three layers, each exact (never approximate), so the
//! campaign engine can promise bit-identical outcomes to full lockstep
//! simulation:
//!
//! 1. **[`GoldenTrace`]** — one fault-free recording per environment: the
//!    post-eval value of every net at every cycle, plus full-state
//!    [`SimSnapshot`](socfmea_sim::SimSnapshot) checkpoints at a
//!    configurable interval.
//! 2. **Start at activation** — sparse-friendly faults skip the warm-up
//!    entirely and start *at* their activation cycle `c`, because
//!    everything before it is golden by construction. (A full simulator
//!    can instead resume from the nearest checkpoint at or before `c`,
//!    [`GoldenTrace::checkpoint_at_or_before`]; none of the campaign's
//!    kernels does.)
//! 3. **[`SparseSim`]** — the divergence-set propagator: each cycle it
//!    evaluates only the levelized fan-out cone of the nets that differ
//!    from golden (via the shared [`Topology`]), reads every untouched
//!    value from the trace, and declares **convergence** the moment no
//!    divergent flip-flop state and no fault hook remains — the rest of the
//!    run is then classified straight from the golden trace.
//!
//! The campaign integration lives in `socfmea-faultsim`, where every
//! engine shares one [`GoldenTrace`] per campaign and the accelerated
//! engines (`Campaign::engine(Engine::Sparse)`) run the [`SparseSim`]
//! kernel beside their PPSFP words; this crate holds the engine itself and
//! knows nothing about fault models beyond force/pulse/flip hooks.

pub mod golden;
pub mod sparse;
pub mod topo;

pub use golden::GoldenTrace;
pub use sparse::SparseSim;
pub use topo::Topology;
