//! # soc-fmea — SoC-level FMEA for IEC 61508 compliance
//!
//! An open reproduction of *"Using an innovative SoC-level FMEA methodology
//! to design in compliance with IEC61508"* (R. Mariani, G. Boschi,
//! F. Colucci — DATE 2007): a complete flow to decompose a digital design
//! into **sensible zones**, compute the IEC 61508 metrics (**Safe Failure
//! Fraction**, **Diagnostic Coverage**, SIL grant), and validate the
//! analysis with a deterministic **fault-injection** environment.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netlist`] | `socfmea-netlist` | gate-level IR, Verilog subset, logic cones, correlation |
//! | [`rtl`] | `socfmea-rtl` | word-level RTL builder elaborating to gates |
//! | [`sim`] | `socfmea-sim` | four-state cycle simulator, toggle coverage, fault hooks |
//! | [`iec61508`] | `socfmea-iec61508` | SIL/HFT/SFF tables, Annex A techniques, failure modes |
//! | [`fmea`] | `socfmea-core` | zones, worksheet, SFF/DC, ranking, sensitivity, validation |
//! | [`faultsim`] | `socfmea-faultsim` | injection environment, monitors, permanent-fault simulator |
//! | [`accel`] | `socfmea-accel` | golden traces, checkpoints, propagation topology |
//! | [`obs`] | `socfmea-obs` | spans, metrics registry, JSONL fault traces, live progress |
//! | [`lint`] | `socfmea-lint` | static safety lints over netlist, zones, and worksheet |
//! | [`serve`] | `socfmea-serve` | multi-tenant campaign server, artifact cache, live streaming |
//! | [`memsys`] | `socfmea-memsys` | the paper's fault-robust memory sub-system (Figure 5) |
//! | [`mcu`] | `socfmea-mcu` | the fault-robust lockstep microcontroller substrate |
//!
//! # Quickstart
//!
//! ```
//! use soc_fmea::fmea::{extract_zones, DiagnosticClaim, ExtractConfig, Worksheet};
//! use soc_fmea::iec61508::TechniqueId;
//! use soc_fmea::rtl::RtlBuilder;
//!
//! // 1. describe (or import) a design
//! let mut r = RtlBuilder::new("soc");
//! let d = r.input_word("din", 8);
//! let q = r.register("state", &d, None, None);
//! r.output_word("dout", &q);
//! let netlist = r.finish()?;
//!
//! // 2. extract sensible zones, 3. fill the worksheet, 4. compute
//! let zones = extract_zones(&netlist, &ExtractConfig::default());
//! let mut ws = Worksheet::new(&zones);
//! let state = zones.zone_by_name("state").unwrap().id;
//! ws.add_diagnostic(state, DiagnosticClaim::at_max(TechniqueId::RamEcc));
//! let result = ws.compute();
//! println!("SFF = {:.2}%  ->  {:?}", result.sff().unwrap() * 100.0, result.sil());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for the full memory-sub-system certification flow and
//! `crates/bench/src/bin/` for the binaries regenerating every table and
//! figure of the paper (documented in `EXPERIMENTS.md`).

pub mod cli;
pub mod prelude;

/// Gate-level netlist IR, structural Verilog, cones and correlation.
pub use socfmea_netlist as netlist;

/// Word-level RTL construction and elaboration.
pub use socfmea_rtl as rtl;

/// Cycle-based four-state simulation with fault hooks.
pub use socfmea_sim as sim;

/// IEC 61508 data model (SIL, DC levels, Annex A, failure modes).
pub use socfmea_iec61508 as iec61508;

/// The FMEA engine: zones, worksheet, SFF/DC, sensitivity, validation.
pub use socfmea_core as fmea;

/// The fault-injection environment and permanent-fault simulator.
pub use socfmea_faultsim as faultsim;

/// The golden trace every campaign records, and the propagation topology
/// the static analyses and lints walk.
pub use socfmea_accel as accel;

/// Static testability analysis: ternary constant propagation, SCOAP
/// controllability/observability, and the proven-undetectable fault
/// classifier behind `inject --prune` and `analyze`'s testability tables.
pub use socfmea_static as static_analysis;

/// Structured tracing, metrics, and live campaign telemetry: hierarchical
/// spans, a thread-safe counter/gauge/histogram registry, the JSONL trace
/// sink behind `inject --trace-out`, and its offline re-aggregation.
pub use socfmea_obs as obs;

/// Clippy-style static safety lints (structural + worksheet rule packs).
pub use socfmea_lint as lint;

/// The multi-tenant campaign server behind `socfmea serve`: design-keyed
/// artifact caching, tenant-fair scheduling, live JSONL result streaming,
/// and the thin client behind `socfmea submit|status|watch|cancel`.
pub use socfmea_serve as serve;

/// The paper's fault-robust memory sub-system example.
pub use socfmea_memsys as memsys;

/// The fault-robust (lockstep) microcontroller substrate.
pub use socfmea_mcu as mcu;
