//! The campaign-server wire protocol: job submissions, job status, and
//! error documents, all rendered through the hand-rolled JSON codec in
//! `socfmea-obs`.
//!
//! A submission is one flat JSON object:
//!
//! ```json
//! {
//!   "tenant": "team-a",
//!   "example": "fmem",            // or "verilog": "<netlist source>"
//!   "seed": 24301, "cycles": 48, "threads": 0,
//!   "engine": "auto", "checkpoint_interval": 16,
//!   "collapse": false, "prune": false
//! }
//! ```
//!
//! Every field except the design reference is optional and defaults to the
//! `socfmea inject` defaults, so the same `(seed, cycles, engine, collapse,
//! prune)` tuple reproduces the CLI's campaign bit for bit. `threads: 0`
//! means "server default" — thread count never changes results, only
//! wall-clock, so it is deliberately *not* part of the artifact cache key.

use socfmea_faultsim::{Collapse, Engine, Prune};
use socfmea_obs::json::{parse, Value};

/// How a submission names its design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignRef {
    /// One of the bundled example designs
    /// (`fmem|fmem-baseline|mcu|mcu-single`).
    Example(String),
    /// An inline structural-Verilog netlist.
    Verilog(String),
}

/// One parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Submitting tenant; jobs are scheduled FIFO per tenant with
    /// round-robin between tenants.
    pub tenant: String,
    /// The design to inject into.
    pub design: DesignRef,
    /// Fault-list sampling and workload seed.
    pub seed: u64,
    /// Synthetic workload length in cycles.
    pub cycles: usize,
    /// Worker threads for this campaign; `0` = server default.
    pub threads: usize,
    /// Campaign execution engine.
    pub engine: Engine,
    /// Ignored: the golden trace keeps no checkpoints, and the interval is
    /// not part of the artifact cache key. Parsed (at least 1) and rendered
    /// until the benchmark harness, which fills it in, changes.
    pub checkpoint_interval: usize,
    /// Fault-collapsing mode.
    pub collapse: Collapse,
    /// Static-pruning mode.
    pub prune: Prune,
}

impl JobSpec {
    /// Parses a submission body; messages are user-facing (they travel
    /// back in a 400 error document).
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing/ambiguous design reference, or an
    /// out-of-range field.
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let doc = parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
        if !matches!(doc, Value::Obj(_)) {
            return Err("submission must be a JSON object".into());
        }
        let design = match (doc.get("example"), doc.get("verilog")) {
            (Some(e), None) => {
                DesignRef::Example(e.as_str().ok_or("`example` must be a string")?.to_owned())
            }
            (None, Some(v)) => {
                DesignRef::Verilog(v.as_str().ok_or("`verilog` must be a string")?.to_owned())
            }
            (Some(_), Some(_)) => {
                return Err("give exactly one of `example` or `verilog`, not both".into())
            }
            (None, None) => return Err("missing design: give `example` or `verilog`".into()),
        };
        let uint = |key: &str, default: u64| -> Result<u64, String> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or(format!("`{key}` must be a non-negative integer")),
            }
        };
        let flag = |key: &str| -> Result<bool, String> {
            match doc.get(key) {
                None => Ok(false),
                Some(v) => v.as_bool().ok_or(format!("`{key}` must be a boolean")),
            }
        };
        let tenant = match doc.get("tenant") {
            None => "default".to_owned(),
            Some(v) => {
                let t = v.as_str().ok_or("`tenant` must be a string")?;
                if t.is_empty() || t.len() > 64 {
                    return Err("`tenant` must be 1..=64 characters".into());
                }
                t.to_owned()
            }
        };
        let engine = match doc.get("engine") {
            None => Engine::Auto,
            Some(v) => match v.as_str() {
                Some("auto") => Engine::Auto,
                Some("lockstep") => Engine::Lockstep,
                Some("ppsfp") => Engine::Ppsfp,
                _ => return Err("`engine` must be auto|lockstep|ppsfp".into()),
            },
        };
        let cycles = uint("cycles", 48)? as usize;
        if cycles == 0 {
            return Err("`cycles` must be at least 1".into());
        }
        let checkpoint_interval = uint("checkpoint_interval", 16)? as usize;
        if checkpoint_interval == 0 {
            return Err("`checkpoint_interval` must be at least 1".into());
        }
        Ok(JobSpec {
            tenant,
            design,
            seed: uint("seed", 0x5eed)?,
            cycles,
            threads: uint("threads", 0)? as usize,
            engine,
            checkpoint_interval,
            collapse: if flag("collapse")? {
                Collapse::Dictionary
            } else {
                Collapse::Off
            },
            prune: if flag("prune")? {
                Prune::Static
            } else {
                Prune::Off
            },
        })
    }

    /// Renders a submission body (the client half of [`JobSpec::parse`]).
    pub fn render(&self) -> String {
        let engine = match self.engine {
            Engine::Auto => "auto",
            Engine::Lockstep => "lockstep",
            Engine::Ppsfp => "ppsfp",
        };
        let (dkey, dval) = match &self.design {
            DesignRef::Example(name) => ("example", name.clone()),
            DesignRef::Verilog(src) => ("verilog", src.clone()),
        };
        Value::obj(vec![
            ("tenant", Value::Str(self.tenant.clone())),
            (dkey, Value::Str(dval)),
            ("seed", Value::uint(self.seed)),
            ("cycles", Value::uint(self.cycles as u64)),
            ("threads", Value::uint(self.threads as u64)),
            ("engine", Value::Str(engine.into())),
            (
                "checkpoint_interval",
                Value::uint(self.checkpoint_interval as u64),
            ),
            (
                "collapse",
                Value::Bool(self.collapse == Collapse::Dictionary),
            ),
            ("prune", Value::Bool(self.prune == Prune::Static)),
        ])
        .to_string()
    }
}

/// Renders the uniform error document (`{"error": "..."}`).
pub fn error_doc(message: &str) -> String {
    Value::obj(vec![("error", Value::Str(message.into()))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_inject_cli() {
        let spec = JobSpec::parse(r#"{"example":"fmem"}"#).unwrap();
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.design, DesignRef::Example("fmem".into()));
        assert_eq!(spec.seed, 0x5eed);
        assert_eq!(spec.cycles, 48);
        assert_eq!(spec.threads, 0);
        assert_eq!(spec.engine, Engine::Auto);
        assert_eq!(spec.checkpoint_interval, 16);
        assert_eq!(spec.collapse, Collapse::Off);
        assert_eq!(spec.prune, Prune::Off);
    }

    #[test]
    fn full_specs_round_trip_through_render() {
        let spec = JobSpec {
            tenant: "team-a".into(),
            design: DesignRef::Verilog("module m; endmodule".into()),
            seed: 7,
            cycles: 24,
            threads: 3,
            engine: Engine::Ppsfp,
            checkpoint_interval: 8,
            collapse: Collapse::Dictionary,
            prune: Prune::Static,
        };
        assert_eq!(JobSpec::parse(&spec.render()).unwrap(), spec);
    }

    #[test]
    fn bad_submissions_are_named() {
        let err = |body: &str| JobSpec::parse(body).unwrap_err();
        assert!(err("not json").contains("malformed JSON"));
        assert!(err("[1,2]").contains("JSON object"));
        assert!(err("{}").contains("missing design"));
        assert!(err(r#"{"example":"fmem","verilog":"m"}"#).contains("exactly one"));
        assert!(err(r#"{"example":"fmem","cycles":0}"#).contains("at least 1"));
        assert!(err(r#"{"example":"fmem","engine":"warp"}"#).contains("engine"));
        assert!(err(r#"{"example":"fmem","engine":"sparse"}"#).contains("engine"));
        assert!(err(r#"{"example":"fmem","seed":-4}"#).contains("seed"));
        assert!(err(r#"{"example":"fmem","collapse":"yes"}"#).contains("boolean"));
        assert!(err(r#"{"example":"fmem","tenant":""}"#).contains("tenant"));
    }
}
