//! The fault-injection environment and permanent-fault simulator.
//!
//! This crate reproduces the validation side of the paper (§5, Figure 4):
//! a simulation-based fault injector built around deterministic golden/faulty
//! co-simulation, structured exactly like the paper's block diagram:
//!
//! * [`env`](mod@crate::env) — **Environment builder**: extracts from the FMEA (zone set)
//!   the observation points, alarms and functional outputs of the campaign,
//! * [`profile`] — **Operational Profiler**: runs the workload fault-free
//!   and records per-zone activity, so the fault list only contains faults
//!   that can produce an error and so measured frequency classes F can be
//!   cross-checked against the worksheet,
//! * [`faultlist`] — **Collapser and Randomiser**: candidate fault
//!   generation from zone failure modes (bit flips, stuck-at, glitches),
//!   local gate faults, wide (shared-cone) faults and global faults;
//!   equivalence collapsing through buffer/inverter chains; seeded sampling,
//! * [`collapse`] — the structural **Fault Collapser**: per-gate stuck-at
//!   equivalence classes (controlling values, const-degenerate gates,
//!   transitive single-fanout chains) with deterministic canonical
//!   representatives plus reported dominance pairs;
//!   `Campaign::collapsing(Collapse::Dictionary)` simulates one
//!   representative per class and back-annotates the outcome onto every
//!   member (fault dictionary) — bit-identical results over the full
//!   uncollapsed list,
//! * [`inject`] — **Fault Injection Manager**: golden-vs-faulty
//!   classification of each injection as safe / dangerous detected /
//!   dangerous undetected, and the scalar lockstep reference engine,
//! * [`campaign`] — the campaign loop: the [`Campaign`] builder shards the
//!   fault list over worker threads (one worker on the calling thread when
//!   single-threaded) and merges outcomes in fault-list order, so results
//!   are bit-identical for any thread count,
//!   with live progress counters ([`CampaignStats`]) and optional early
//!   stop on coverage saturation. `Campaign::engine(Engine::…)` selects the
//!   execution strategy — the accelerated engine ([`Engine::Ppsfp`], and
//!   [`Engine::Auto`], which resolves to it) packs faults of every kind
//!   into the 63 fault lanes of the word-level simulator next to the golden
//!   machine in lane 0. Every engine runs over the campaign's one golden
//!   trace and yields the same bit-identical result as the
//!   [`Engine::Lockstep`] reference, in far fewer evaluated cycles,
//! * [`monitors`] — **Monitors and Coverage Collection**: the one
//!   SENS/OBSE/output/alarm monitor oracle every engine reports to, and
//!   the SENS/OBSE/DIAG coverage items; the campaign is complete only when
//!   every item is covered,
//! * [`analyzer`] — **Result analyzer**: fills the measured S/D/DDF sheet
//!   ([`socfmea_core::MeasuredZone`]) and the per-zone table of effects for
//!   the FMEA cross-check,
//! * [`permfault`] — a permanent-fault simulator (serial reference and
//!   word-level bit-parallel PPSFP) measuring stuck-at fault coverage of a
//!   workload, the open replacement for the commercial fault simulator the
//!   paper references.

mod accel;
pub mod analyzer;
pub mod campaign;
pub mod collapse;
pub mod env;
pub mod faultlist;
pub mod inject;
pub mod monitors;
pub mod permfault;
mod ppsfp;
pub mod profile;
mod prune;

pub use analyzer::{analyze, CampaignAnalysis};
pub use campaign::{
    Campaign, CampaignArtifacts, CampaignStats, Collapse, EarlyStop, Engine, Prune,
};
pub use collapse::{DominancePair, FaultCollapser};
pub use env::{Environment, EnvironmentBuilder};
pub use faultlist::{collapse_stuck_at, generate_fault_list, Fault, FaultKind, FaultListConfig};
pub use inject::{CampaignResult, FaultOutcome, Outcome};
pub use monitors::CoverageCollection;
pub use permfault::{
    fault_universe, ppsfp_coverage, serial_coverage, FaultGrade, PermanentFaultReport, StuckAtFault,
};
pub use profile::{OperationalProfile, ZoneActivity};
pub use socfmea_static::{Proof, ProofKind, TestabilityAnalysis};
