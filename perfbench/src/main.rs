//! perfbench: the soc-fmea benchmark.
//!
//! ```text
//! perfbench --workload <fmem-mixed|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|smoke]
//! perfbench --regen-reference
//! ```
//!
//! Each run builds its workload from the seed, measures it for the given
//! seconds, checks every verdict against the lockstep oracle, prints every
//! metric by name and unit, and ends its standard output with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` is the separate traced run
//! that reports the per-layer metrics and writes its spans to
//! `out/spans-<workload>-<seed>.jsonl` under this package. See README.md.

mod campaign;
mod layers;
mod oracle;
mod serve;
mod spans;
mod stats;
#[cfg(test)]
mod tests;

use campaign::Kind;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Workload size: `Full` is what the benchmark measures, `Smoke` a
/// seconds-long version of each workload for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }

    /// An exact work count.
    pub fn count(name: &str, value: u64) -> Metric {
        Metric::new(name, value as f64, "count")
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked: fault verdicts, or jobs on serve-mixed.
    pub attempted: u64,
    /// Operations that failed a check or were refused.
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable context (sample counts, sizes, failures).
    pub notes: Vec<String>,
    /// The traced run's spans as JSONL.
    pub spans: String,
}

impl Outcome {
    /// The metrics this run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.layers
        } else {
            &self.e2e
        }
    }

    /// Correct when something was checked, nothing failed and every
    /// reported value is a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.metrics(trace).iter().all(|m| m.value.is_finite())
    }

    /// The result line the benchmark ends its output with.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics(trace).iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                metrics,
                r#"{}"{}": {{"value": {value}, "unit": "{}"}}"#,
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(trace),
            self.attempted,
            self.failed
        )
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub const WORKLOADS: [&str; 2] = ["fmem-mixed", "serve-mixed"];

/// Runs one workload in this process.
pub fn run_workload(workload: &str, cfg: &RunConfig) -> Outcome {
    let mut out = match workload {
        "fmem-mixed" => campaign::run(Kind::FmemMixed, cfg),
        "serve-mixed" => serve::run(cfg),
        other => panic!("unknown workload `{other}`"),
    };
    out.layers.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]\n       perfbench --regen-reference",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Rewrites every lockstep reference under `reference/`.
fn regen_reference() -> ExitCode {
    for kind in [Kind::FmemMixed, Kind::McuStuckat] {
        for size in [Size::Smoke, Size::Full] {
            let t0 = std::time::Instant::now();
            let reference = campaign::derive_reference(kind, size);
            let file = kind.reference_file(size);
            let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
            let title = format!("{} ({size:?})", kind.name());
            if let Err(e) = std::fs::write(&path, reference.render(&title)) {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "{file}: {} verdicts in {:.1}s",
                reference.verdicts.len(),
                t0.elapsed().as_secs_f64()
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--regen-reference"] {
        return regen_reference();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].contains(&value.as_str()).then(|| value == "1"),
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return usage("`--size` takes full or smoke"),
                }
            }
            _ => return usage(&format!("bad argument `{flag} {value}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        size,
    };
    let outcome = run_workload(&workload, &cfg);
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# {workload} seed {seed}: {} of {} operations failed (error_rate {})",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in outcome.metrics(trace) {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{workload}-{seed}.jsonl");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &outcome.spans)) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: writing {path}: {e}"),
        }
    }
    println!("{}", outcome.json(trace));
    if outcome.correct(trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
