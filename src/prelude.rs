//! One-stop imports for the common FMEA + fault-injection flow.
//!
//! The facade modules ([`crate::fmea`], [`crate::faultsim`], …) mirror the
//! workspace layout, which is the right granularity for libraries building
//! on one subsystem — but an application walking the whole paper flow
//! (describe → zone → worksheet → inject → validate) ends up with five
//! `use` blocks. `use soc_fmea::prelude::*;` pulls in just the names that
//! flow needs.
//!
//! ```
//! use soc_fmea::prelude::*;
//!
//! let mut r = RtlBuilder::new("soc");
//! let d = r.input_word("din", 4);
//! let q = r.register("state", &d, None, None);
//! r.output_word("dout", &q);
//! let netlist = r.finish()?;
//!
//! let zones = extract_zones(&netlist, &ExtractConfig::default());
//! let mut ws = Worksheet::new(&zones);
//! let state = zones.zone_by_name("state").unwrap().id;
//! ws.add_diagnostic(state, DiagnosticClaim::at_max(TechniqueId::RamEcc));
//! assert!(ws.compute().sff().unwrap() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// design entry
pub use socfmea_netlist::{parse_verilog, Logic, NetId, Netlist};
pub use socfmea_rtl::RtlBuilder;
pub use socfmea_sim::{assign_bus, Simulator, Workload};

// FMEA worksheet and reports
pub use socfmea_core::{
    extract_zones, predict_all_effects, report, validate, DiagnosticClaim, ExtractConfig,
    ValidationConfig, ValidationReport, Worksheet, ZoneGraph, ZoneId, ZoneSet,
};
pub use socfmea_iec61508::{sil_from_sff, ComponentClass, Hft, SubsystemType, TechniqueId};

// fault-injection campaign
pub use socfmea_faultsim::{
    analyze, generate_fault_list, Campaign, CampaignResult, CampaignStats, Collapse, EarlyStop,
    Engine, EnvironmentBuilder, Fault, FaultListConfig, OperationalProfile,
};

// static safety lints
pub use socfmea_lint::{LintConfig, LintReport, LintRunner};
