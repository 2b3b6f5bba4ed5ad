//! Typed argument handling for the `socfmea` command-line tool.
//!
//! Each subcommand parses into its own options struct, so the binary's
//! `main` is a thin dispatcher and the parsing rules are unit-testable
//! without spawning processes:
//!
//! * `socfmea zones <netlist.v>` → [`ZonesOptions`],
//! * `socfmea analyze <netlist.v>` → [`AnalyzeOptions`],
//! * `socfmea inject [<netlist.v>]` → [`InjectOptions`],
//! * `socfmea lint [<netlist.v>]` → [`LintOptions`],
//! * `socfmea trace summarize|flame <trace.jsonl>` → [`TraceOptions`],
//! * `socfmea trace diff <a.jsonl> <b.jsonl>` → [`TraceDiffOptions`],
//! * `socfmea serve` → [`ServeOptions`],
//! * `socfmea submit [<netlist.v>]` → [`SubmitOptions`],
//! * `socfmea status|watch|cancel <job>` → [`JobRefOptions`],
//! * `socfmea shutdown` → [`ShutdownOptions`].
//!
//! [`parse`] turns `std::env::args` (minus the program name) into a
//! [`Command`]; errors carry a message for stderr, and the caller prints
//! [`USAGE`].

use socfmea_core::extract::ExtractConfig;
use socfmea_faultsim::{Collapse, Engine, Prune};
use socfmea_iec61508::{ComponentClass, Hft, Sil, SubsystemType};

/// The default campaign-server address.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7171";

/// The usage string printed on argument errors.
pub const USAGE: &str = "usage: socfmea <zones|analyze|inject|lint|trace|serve|submit|status|watch|cancel|shutdown> [<netlist.v>] [options]
  zones   <netlist.v>   list the extracted sensible zones
  analyze <netlist.v>   run the FMEA with per-zone testability tables
                        (or --example <design>)
  inject  <netlist.v>   run a fault-injection campaign, print measured DC/SFF
                        (or --example <design>)
  lint    <netlist.v>   run the structural safety lints (or --example <design>)
  trace summarize <trace.jsonl>
                        re-aggregate a --trace-out file into summary tables
                        (non-zero exit on a truncated trace unless
                        --allow-partial)
  trace flame <trace.jsonl>
                        span self-times as folded stacks for flamegraph
                        tooling (coverage note on stderr)
  trace diff <a.jsonl> <b.jsonl>
                        compare two traces' span self-times, largest
                        absolute delta first
  serve                 run the multi-tenant campaign server
  submit  <netlist.v>   submit a campaign to a server (or --example <design>)
  status  <job>         query a submitted job
  watch   <job>         stream a job's live JSONL trace to stdout
                        (--events streams the progress channel instead)
  cancel  <job>         cancel a queued or running job cooperatively
  shutdown              drain and stop a campaign server

common options:
  --class <prefix>=<class>   classify zones under a block-path prefix
                             (memory|rom|cpu|bus|io|clock|power)
analyze options:
  --hft <n>                  hardware fault tolerance for the SIL grant
  --type-a                   assess as a type-A subsystem (default: B)
  --format text|csv|srs|json report format (default: text)
  --example <design>         analyze a bundled design instead of a netlist
                             file (fmem|fmem-baseline|mcu|mcu-single)
inject options:
  --threads <n>              campaign worker threads (default: host cores, max 8)
  --seed <s>                 fault-list sampling seed (default: 0x5eed)
  --cycles <n>               synthetic workload length in cycles (default: 48)
  --engine <e>               campaign execution engine (auto|lockstep|ppsfp);
                             every engine yields the bit-identical result
                             (default: auto — ppsfp, lockstep for an empty
                             fault list)
  --checkpoint-interval <n>  golden-trace checkpoint spacing; no engine
                             reads the checkpoints, so it changes only the
                             trace's memory (default: 16)
  --collapse                 simulate one representative per equivalence
                             class, back-annotate the rest (bit-identical)
  --prune                    statically prove faults undetectable and skip
                             their simulation (bit-identical)
  --example <design>         inject into a bundled design instead of a
                             netlist file (fmem|fmem-baseline|mcu|mcu-single)
  --trace-out <f.jsonl>      stream one JSONL record per fault (plus span,
                             phase, and end-of-run records) to a file
  --metrics-out <f.json>     write the metrics-registry snapshot as JSON
  --progress                 live progress line on stderr (faults/s, ETA,
                             running DC/SFF, per-outcome counts)
  --quiet                    suppress the stderr stats and progress lines
lint options:
  --example <design>         lint a bundled design instead of a netlist file
                             (fmem|fmem-baseline|mcu|mcu-single)
  --format text|json         report format (default: text)
  --deny warnings            promote every warning to an error
  --deny <SLxxxx>            promote one rule's findings to errors (repeatable)
  --allow <SLxxxx>           drop one rule's findings (repeatable)
  --target-sil <n>           check SIL reachability (enables SL0103)
serve options:
  --addr <host:port>         listen address (default: 127.0.0.1:7171)
  --workers <n>              concurrent campaign workers (default: 2)
  --queue <n>                queued-job cap before 429 (default: 64)
  --cache-mb <n>             artifact-cache budget in MiB (default: 256),
                             counting each design's netlist, zones, source
                             and per-spec workload, faults, artifacts and
                             trace; designs never hit again get a tenth
  --no-telemetry             skip per-job spans, progress samples, and
                             labeled metrics (lifecycle events remain)
submit options (plus --seed/--cycles/--engine/--checkpoint-interval/
                --collapse/--prune as for inject):
  --addr <host:port>         server address (default: 127.0.0.1:7171)
  --tenant <name>            tenant the job queues under (default: default)
  --threads <n>              campaign threads (default: 0 — server default;
                             results do not depend on the thread count)
  --example <design>         submit a bundled design instead of a netlist
                             file (fmem|fmem-baseline|mcu|mcu-single)
  --watch                    stream the job's trace to stdout until it ends
status/watch/cancel/shutdown options:
  --addr <host:port>         server address (default: 127.0.0.1:7171)
  --events                   (watch only) stream /v1/jobs/<id>/events —
                             lifecycle, progress, and span records";

/// A parsed command line: one variant per subcommand.
#[derive(Debug)]
pub enum Command {
    /// `socfmea zones`.
    Zones(ZonesOptions),
    /// `socfmea analyze`.
    Analyze(AnalyzeOptions),
    /// `socfmea inject`.
    Inject(InjectOptions),
    /// `socfmea lint`.
    Lint(LintOptions),
    /// `socfmea trace summarize`.
    TraceSummarize(TraceOptions),
    /// `socfmea trace flame`.
    TraceFlame(TraceOptions),
    /// `socfmea trace diff`.
    TraceDiff(TraceDiffOptions),
    /// `socfmea serve`.
    Serve(ServeOptions),
    /// `socfmea submit`.
    Submit(SubmitOptions),
    /// `socfmea status`.
    Status(JobRefOptions),
    /// `socfmea watch`.
    Watch(JobRefOptions),
    /// `socfmea cancel`.
    Cancel(JobRefOptions),
    /// `socfmea shutdown`.
    Shutdown(ShutdownOptions),
}

/// Options of `socfmea serve`.
#[derive(Debug)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Concurrent campaign workers.
    pub workers: usize,
    /// Queued-job cap before submissions draw 429.
    pub queue: usize,
    /// Artifact-cache byte budget, in MiB: everything a cached design
    /// holds counts, and designs no later submission hit share a tenth.
    pub cache_mb: usize,
    /// Per-job telemetry (spans, progress samples, labeled metrics);
    /// `--no-telemetry` turns it off, lifecycle events remain.
    pub telemetry: bool,
}

/// Options of `socfmea submit`.
#[derive(Debug)]
pub struct SubmitOptions {
    /// Server address.
    pub addr: String,
    /// Tenant the job queues under.
    pub tenant: String,
    /// Path of the Verilog netlist; `None` when submitting an example.
    pub input: Option<String>,
    /// A bundled example design; `None` when reading a netlist file.
    pub example: Option<ExampleDesign>,
    /// Fault-list sampling seed.
    pub seed: u64,
    /// Length of the synthetic stimulus, in cycles.
    pub cycles: usize,
    /// Campaign threads (0 = server default; results are thread-invariant).
    pub threads: usize,
    /// Campaign execution engine.
    pub engine: Engine,
    /// Checkpoint spacing of the golden trace (read by no engine).
    pub checkpoint_interval: usize,
    /// Fault-collapsing mode.
    pub collapse: Collapse,
    /// Static pre-pass mode.
    pub prune: Prune,
    /// Stream the job's trace to stdout until it ends.
    pub watch: bool,
}

/// Options of `socfmea status|watch|cancel` — a server plus a job id.
#[derive(Debug)]
pub struct JobRefOptions {
    /// Server address.
    pub addr: String,
    /// The job id (`j-000001`).
    pub job: String,
    /// `watch` only: stream the `/events` progress channel instead of the
    /// normalized result trace.
    pub events: bool,
}

/// Options of `socfmea shutdown`.
#[derive(Debug)]
pub struct ShutdownOptions {
    /// Server address.
    pub addr: String,
}

/// Options of `socfmea zones`.
#[derive(Debug)]
pub struct ZonesOptions {
    /// Path of the Verilog netlist.
    pub input: String,
    /// Zone-extraction configuration (classification prefixes applied).
    pub config: ExtractConfig,
}

/// Report format of `socfmea analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable worksheet.
    Text,
    /// Machine-readable rows.
    Csv,
    /// Safety Requirements Specification draft.
    Srs,
    /// One JSON document (worksheet summary + testability tables).
    Json,
}

/// Options of `socfmea analyze`.
#[derive(Debug)]
pub struct AnalyzeOptions {
    /// Path of the Verilog netlist; `None` when analyzing an example.
    pub input: Option<String>,
    /// A bundled example design; `None` when reading a netlist file.
    pub example: Option<ExampleDesign>,
    /// Zone-extraction configuration.
    pub config: ExtractConfig,
    /// Hardware fault tolerance assumed for the SIL grant.
    pub hft: Hft,
    /// Type-A or type-B subsystem assessment.
    pub subsystem: SubsystemType,
    /// Output format.
    pub format: ReportFormat,
}

/// Options of `socfmea inject`.
#[derive(Debug)]
pub struct InjectOptions {
    /// Path of the Verilog netlist; `None` when injecting into an example.
    pub input: Option<String>,
    /// A bundled example design; `None` when reading a netlist file.
    pub example: Option<ExampleDesign>,
    /// Zone-extraction configuration.
    pub config: ExtractConfig,
    /// Campaign worker threads.
    pub threads: usize,
    /// Fault-list sampling seed.
    pub seed: u64,
    /// Length of the synthetic stimulus, in cycles.
    pub cycles: usize,
    /// Campaign execution engine; every engine yields the bit-identical
    /// result, so this only selects the execution strategy.
    pub engine: Engine,
    /// Checkpoint spacing of the golden trace (read by no engine).
    pub checkpoint_interval: usize,
    /// Fault-collapsing mode: simulate one representative per equivalence
    /// class and expand the rest from the fault dictionary (bit-identical).
    pub collapse: Collapse,
    /// Static pre-pass mode: skip faults proven undetectable and
    /// synthesize their outcomes (bit-identical).
    pub prune: Prune,
    /// Stream a JSONL trace (one record per fault, plus span/phase/end
    /// records) to this path.
    pub trace_out: Option<String>,
    /// Write the metrics-registry snapshot as JSON to this path.
    pub metrics_out: Option<String>,
    /// Show a live progress line on stderr while the campaign runs.
    pub progress: bool,
    /// Suppress the stderr stats and progress reporting.
    pub quiet: bool,
}

/// Options of `socfmea trace summarize` and `socfmea trace flame`.
#[derive(Debug)]
pub struct TraceOptions {
    /// Path of the JSONL trace written by `inject --trace-out` (or a
    /// server `/trace` / `/events` capture).
    pub input: String,
    /// `summarize` only: accept a truncated trace (no `end` record)
    /// instead of exiting non-zero.
    pub allow_partial: bool,
}

/// Options of `socfmea trace diff` — two traces to compare.
#[derive(Debug)]
pub struct TraceDiffOptions {
    /// The baseline trace (`a` column).
    pub a: String,
    /// The comparison trace (`b` column).
    pub b: String,
}

/// One of the example designs bundled with the workspace, lintable without
/// a netlist file on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExampleDesign {
    /// The hardened F-MEM memory subsystem (the paper's case study).
    Fmem,
    /// The F-MEM with every hardening mechanism disabled.
    FmemBaseline,
    /// The lockstep dual-core MCU.
    Mcu,
    /// The MCU with a single core (no lockstep comparator).
    McuSingle,
}

impl ExampleDesign {
    fn parse(name: &str) -> Option<ExampleDesign> {
        Some(match name {
            "fmem" => ExampleDesign::Fmem,
            "fmem-baseline" => ExampleDesign::FmemBaseline,
            "mcu" => ExampleDesign::Mcu,
            "mcu-single" => ExampleDesign::McuSingle,
            _ => return None,
        })
    }
}

/// Report format of `socfmea lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintFormat {
    /// Rustc-style findings plus a summary line.
    Text,
    /// One JSON document.
    Json,
}

/// Options of `socfmea lint`.
#[derive(Debug)]
pub struct LintOptions {
    /// Path of the Verilog netlist; `None` when linting an example.
    pub input: Option<String>,
    /// A bundled example design; `None` when linting a netlist file.
    pub example: Option<ExampleDesign>,
    /// Zone-extraction configuration (used for netlist-file inputs; the
    /// examples carry their own classification).
    pub config: ExtractConfig,
    /// Output format.
    pub format: LintFormat,
    /// Promote every warning to an error.
    pub deny_warnings: bool,
    /// Rule codes whose findings are dropped.
    pub allow: Vec<String>,
    /// Rule codes whose findings become errors.
    pub deny: Vec<String>,
    /// Target SIL for the reachability rule (`SL0103`).
    pub target_sil: Option<Sil>,
}

fn parse_class(name: &str) -> Option<ComponentClass> {
    Some(match name {
        "memory" | "ram" => ComponentClass::VariableMemory,
        "rom" | "flash" => ComponentClass::InvariableMemory,
        "cpu" | "processing" => ComponentClass::ProcessingUnit,
        "bus" => ComponentClass::Bus,
        "io" => ComponentClass::InputOutput,
        "clock" => ComponentClass::Clock,
        "power" => ComponentClass::PowerSupply,
        _ => return None,
    })
}

/// The default `--threads` value: host parallelism, capped at 8.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Parses the argument list (program name already stripped).
///
/// # Errors
///
/// Returns a message suitable for stderr when the command line is invalid;
/// callers should follow it with [`USAGE`].
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let command = it.next().ok_or("missing command")?.clone();

    // option validity per subcommand
    let is_analyze = command == "analyze";
    let is_inject = command == "inject";
    let is_lint = command == "lint";
    let is_serve = command == "serve";
    let is_submit = command == "submit";
    if !matches!(
        command.as_str(),
        "zones"
            | "analyze"
            | "inject"
            | "lint"
            | "trace"
            | "serve"
            | "submit"
            | "status"
            | "watch"
            | "cancel"
            | "shutdown"
    ) {
        return Err(format!("unknown command `{command}`"));
    }

    // the job-reference client commands take `<job>` plus `--addr` only
    if matches!(command.as_str(), "status" | "watch" | "cancel" | "shutdown") {
        let mut addr = DEFAULT_SERVE_ADDR.to_owned();
        let mut job: Option<String> = None;
        let mut events = false;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--addr" => addr = it.next().ok_or("--addr needs <host:port>")?.clone(),
                "--events" if command == "watch" => events = true,
                other if !other.starts_with('-') && job.is_none() && command != "shutdown" => {
                    job = Some(other.to_owned());
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        if command == "shutdown" {
            return Ok(Command::Shutdown(ShutdownOptions { addr }));
        }
        let job = job.ok_or_else(|| format!("{command} needs a job id"))?;
        let opts = JobRefOptions { addr, job, events };
        return Ok(match command.as_str() {
            "status" => Command::Status(opts),
            "watch" => Command::Watch(opts),
            _ => Command::Cancel(opts),
        });
    }

    // `trace` takes an action word plus one or two paths; only
    // `summarize` accepts a flag (`--allow-partial`)
    if command == "trace" {
        let action = it
            .next()
            .ok_or("trace needs an action (summarize|flame|diff)")?;
        if !matches!(action.as_str(), "summarize" | "flame" | "diff") {
            return Err(format!("unknown trace action `{action}`"));
        }
        let mut paths: Vec<String> = Vec::new();
        let mut allow_partial = false;
        for arg in it {
            match arg.as_str() {
                "--allow-partial" if action == "summarize" => allow_partial = true,
                other if !other.starts_with('-') => paths.push(other.to_owned()),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        let wanted = if action == "diff" { 2 } else { 1 };
        if paths.len() > wanted {
            return Err(format!("unknown option `{}`", paths[wanted]));
        }
        if action == "diff" {
            let mut paths = paths.into_iter();
            let (a, b) = (paths.next(), paths.next());
            let (Some(a), Some(b)) = (a, b) else {
                return Err("trace diff needs two trace files".into());
            };
            return Ok(Command::TraceDiff(TraceDiffOptions { a, b }));
        }
        let Some(input) = paths.into_iter().next() else {
            return Err(format!("trace {action} needs a trace file"));
        };
        let opts = TraceOptions {
            input,
            allow_partial,
        };
        return Ok(match action.as_str() {
            "summarize" => Command::TraceSummarize(opts),
            _ => Command::TraceFlame(opts),
        });
    }

    // analyze's, inject's, lint's and submit's netlist paths are optional
    // (an --example may stand in), so they are collected as positionals
    // inside the option loop instead of up front; serve takes no input
    let takes_example = is_analyze || is_inject || is_lint || is_submit;
    let mut input = String::new();
    if !takes_example && !is_serve {
        input = it.next().ok_or("missing input file")?.clone();
    }
    let mut config = ExtractConfig::default();
    let mut hft = Hft(0);
    let mut subsystem = SubsystemType::B;
    let mut format = ReportFormat::Text;
    let mut threads: Option<usize> = None;
    let mut seed = 0x5eed;
    let mut cycles = 48usize;
    let mut engine = Engine::Auto;
    let mut checkpoint_interval = 16usize;
    let mut collapse = Collapse::Off;
    let mut prune = Prune::Off;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut progress = false;
    let mut quiet = false;
    let mut positional: Option<String> = None;
    let mut example: Option<ExampleDesign> = None;
    let mut lint_format = LintFormat::Text;
    let mut deny_warnings = false;
    let mut allow: Vec<String> = Vec::new();
    let mut deny: Vec<String> = Vec::new();
    let mut target_sil: Option<Sil> = None;
    let mut addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut tenant = "default".to_owned();
    let mut workers = 2usize;
    let mut queue = 64usize;
    let mut cache_mb = 256usize;
    let mut telemetry = true;
    let mut watch = false;

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--class" => {
                let spec = it.next().ok_or("--class needs <prefix>=<class>")?;
                let (prefix, class) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad --class spec `{spec}`"))?;
                let class = parse_class(class).ok_or_else(|| format!("unknown class `{class}`"))?;
                config = config.classify(prefix, class);
            }
            "--hft" if is_analyze => {
                let n = it.next().ok_or("--hft needs a number")?;
                hft = Hft(n.parse().map_err(|_| format!("bad HFT `{n}`"))?);
            }
            "--type-a" if is_analyze => subsystem = SubsystemType::A,
            "--format" if is_analyze => {
                let f = it.next().ok_or("--format needs a value")?;
                format = match f.as_str() {
                    "text" => ReportFormat::Text,
                    "csv" => ReportFormat::Csv,
                    "srs" => ReportFormat::Srs,
                    "json" => ReportFormat::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--threads" if is_inject || is_submit => {
                let n = it.next().ok_or("--threads needs a number")?;
                threads = Some(n.parse().map_err(|_| format!("bad thread count `{n}`"))?);
            }
            "--seed" if is_inject || is_submit => {
                let s = it.next().ok_or("--seed needs a number")?;
                seed = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
            }
            "--cycles" if is_inject || is_submit => {
                let n = it.next().ok_or("--cycles needs a number")?;
                cycles = n.parse().map_err(|_| format!("bad cycle count `{n}`"))?;
                if cycles == 0 {
                    return Err("--cycles must be at least 1".into());
                }
            }
            "--engine" if is_inject || is_submit => {
                let e = it.next().ok_or("--engine needs a value")?;
                engine = match e.as_str() {
                    "auto" => Engine::Auto,
                    "lockstep" => Engine::Lockstep,
                    "ppsfp" => Engine::Ppsfp,
                    other => return Err(format!("unknown engine `{other}`")),
                };
            }
            "--collapse" if is_inject || is_submit => collapse = Collapse::Dictionary,
            "--prune" if is_inject || is_submit => prune = Prune::Static,
            "--checkpoint-interval" if is_inject || is_submit => {
                let n = it.next().ok_or("--checkpoint-interval needs a number")?;
                checkpoint_interval = n
                    .parse()
                    .map_err(|_| format!("bad checkpoint interval `{n}`"))?;
                if checkpoint_interval == 0 {
                    return Err("--checkpoint-interval must be at least 1".into());
                }
            }
            "--trace-out" if is_inject => {
                let p = it.next().ok_or("--trace-out needs a file path")?;
                trace_out = Some(p.clone());
            }
            "--metrics-out" if is_inject => {
                let p = it.next().ok_or("--metrics-out needs a file path")?;
                metrics_out = Some(p.clone());
            }
            "--progress" if is_inject => progress = true,
            "--quiet" if is_inject => quiet = true,
            "--addr" if is_serve || is_submit => {
                addr = it.next().ok_or("--addr needs <host:port>")?.clone();
            }
            "--tenant" if is_submit => {
                tenant = it.next().ok_or("--tenant needs a name")?.clone();
            }
            "--watch" if is_submit => watch = true,
            "--workers" if is_serve => {
                let n = it.next().ok_or("--workers needs a number")?;
                workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--queue" if is_serve => {
                let n = it.next().ok_or("--queue needs a number")?;
                queue = n.parse().map_err(|_| format!("bad queue depth `{n}`"))?;
                if queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--cache-mb" if is_serve => {
                let n = it.next().ok_or("--cache-mb needs a number")?;
                cache_mb = n.parse().map_err(|_| format!("bad cache budget `{n}`"))?;
            }
            "--no-telemetry" if is_serve => telemetry = false,
            "--example" if takes_example => {
                let e = it.next().ok_or("--example needs a design name")?;
                example = Some(
                    ExampleDesign::parse(e)
                        .ok_or_else(|| format!("unknown example design `{e}`"))?,
                );
            }
            "--format" if is_lint => {
                let f = it.next().ok_or("--format needs a value")?;
                lint_format = match f.as_str() {
                    "text" => LintFormat::Text,
                    "json" => LintFormat::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--deny" if is_lint => {
                let v = it.next().ok_or("--deny needs `warnings` or a rule code")?;
                if v == "warnings" {
                    deny_warnings = true;
                } else {
                    check_rule_code(v)?;
                    deny.push(v.clone());
                }
            }
            "--allow" if is_lint => {
                let v = it.next().ok_or("--allow needs a rule code")?;
                check_rule_code(v)?;
                allow.push(v.clone());
            }
            "--target-sil" if is_lint => {
                let n = it.next().ok_or("--target-sil needs a level (1-4)")?;
                let level: u8 = n.parse().map_err(|_| format!("bad SIL level `{n}`"))?;
                target_sil =
                    Some(Sil::from_level(level).ok_or_else(|| format!("bad SIL level `{n}`"))?);
            }
            other if takes_example && !other.starts_with('-') && positional.is_none() => {
                positional = Some(other.to_owned());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    Ok(match command.as_str() {
        "zones" => Command::Zones(ZonesOptions { input, config }),
        "analyze" => {
            if positional.is_some() == example.is_some() {
                return Err("analyze needs exactly one of <netlist.v> or --example".into());
            }
            Command::Analyze(AnalyzeOptions {
                input: positional,
                example,
                config,
                hft,
                subsystem,
                format,
            })
        }
        "inject" => {
            if positional.is_some() == example.is_some() {
                return Err("inject needs exactly one of <netlist.v> or --example".into());
            }
            Command::Inject(InjectOptions {
                input: positional,
                example,
                config,
                threads: threads.unwrap_or_else(default_threads),
                seed,
                cycles,
                engine,
                checkpoint_interval,
                collapse,
                prune,
                trace_out,
                metrics_out,
                progress,
                quiet,
            })
        }
        "serve" => Command::Serve(ServeOptions {
            addr,
            workers,
            queue,
            cache_mb,
            telemetry,
        }),
        "submit" => {
            if positional.is_some() == example.is_some() {
                return Err("submit needs exactly one of <netlist.v> or --example".into());
            }
            Command::Submit(SubmitOptions {
                addr,
                tenant,
                input: positional,
                example,
                seed,
                cycles,
                threads: threads.unwrap_or(0),
                engine,
                checkpoint_interval,
                collapse,
                prune,
                watch,
            })
        }
        "lint" => {
            if positional.is_some() == example.is_some() {
                return Err("lint needs exactly one of <netlist.v> or --example".into());
            }
            Command::Lint(LintOptions {
                input: positional,
                example,
                config,
                format: lint_format,
                deny_warnings,
                allow,
                deny,
                target_sil,
            })
        }
        _ => unreachable!("validated above"),
    })
}

fn check_rule_code(code: &str) -> Result<(), String> {
    if socfmea_lint::is_known_code(code) {
        Ok(())
    } else {
        Err(format!("unknown rule code `{code}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn zones_parses_with_classification() {
        let cmd = parse(&argv(&["zones", "d.v", "--class", "mem=memory"])).unwrap();
        let Command::Zones(o) = cmd else {
            panic!("zones expected")
        };
        assert_eq!(o.input, "d.v");
    }

    #[test]
    fn analyze_parses_all_options() {
        let cmd = parse(&argv(&[
            "analyze", "d.v", "--hft", "1", "--type-a", "--format", "csv",
        ]))
        .unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("analyze expected")
        };
        assert_eq!(o.input.as_deref(), Some("d.v"));
        assert!(o.example.is_none());
        assert_eq!(o.hft, Hft(1));
        assert_eq!(o.subsystem, SubsystemType::A);
        assert_eq!(o.format, ReportFormat::Csv);
    }

    #[test]
    fn analyze_takes_an_example_and_a_json_format() {
        let cmd = parse(&argv(&["analyze", "--example", "mcu", "--format", "json"])).unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("analyze expected")
        };
        assert!(o.input.is_none());
        assert_eq!(o.example, Some(ExampleDesign::Mcu));
        assert_eq!(o.format, ReportFormat::Json);
        // exactly one of <netlist.v> / --example
        assert!(parse(&argv(&["analyze"]))
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse(&argv(&["analyze", "d.v", "--example", "mcu"]))
            .unwrap_err()
            .contains("exactly one"));
    }

    #[test]
    fn inject_parses_prune() {
        let cmd = parse(&argv(&["inject", "d.v", "--prune", "--collapse"])).unwrap();
        let Command::Inject(o) = cmd else {
            panic!("inject expected")
        };
        assert_eq!(o.prune, Prune::Static);
        assert_eq!(
            o.collapse,
            Collapse::Dictionary,
            "prune composes with collapse"
        );
        // default is off, and the flag is inject-only
        let Command::Inject(o) = parse(&argv(&["inject", "d.v"])).unwrap() else {
            panic!("inject expected")
        };
        assert_eq!(o.prune, Prune::Off);
        assert!(parse(&argv(&["analyze", "d.v", "--prune"])).is_err());
        assert!(parse(&argv(&["lint", "d.v", "--prune"])).is_err());
    }

    #[test]
    fn inject_parses_threads_seed_cycles() {
        let cmd = parse(&argv(&[
            "inject",
            "d.v",
            "--threads",
            "4",
            "--seed",
            "7",
            "--cycles",
            "16",
        ]))
        .unwrap();
        let Command::Inject(o) = cmd else {
            panic!("inject expected")
        };
        assert_eq!(o.threads, 4);
        assert_eq!(o.seed, 7);
        assert_eq!(o.cycles, 16);
    }

    #[test]
    fn inject_defaults_are_sensible() {
        let cmd = parse(&argv(&["inject", "d.v"])).unwrap();
        let Command::Inject(o) = cmd else {
            panic!("inject expected")
        };
        assert_eq!(o.input.as_deref(), Some("d.v"));
        assert!(o.example.is_none());
        assert!(o.threads >= 1);
        assert_eq!(o.seed, 0x5eed);
        assert_eq!(o.cycles, 48);
        assert_eq!(o.engine, Engine::Auto);
        assert_eq!(o.checkpoint_interval, 16);
        assert_eq!(o.collapse, Collapse::Off);
        assert!(o.trace_out.is_none());
        assert!(o.metrics_out.is_none());
        assert!(!o.progress);
        assert!(!o.quiet);
    }

    #[test]
    fn inject_parses_observability_flags() {
        let cmd = parse(&argv(&[
            "inject",
            "d.v",
            "--trace-out",
            "t.jsonl",
            "--metrics-out",
            "m.json",
            "--progress",
            "--quiet",
        ]))
        .unwrap();
        let Command::Inject(o) = cmd else {
            panic!("inject expected")
        };
        assert_eq!(o.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert!(o.progress);
        assert!(o.quiet);
        // observability flags are inject-only
        assert!(parse(&argv(&["analyze", "d.v", "--trace-out", "t.jsonl"])).is_err());
        assert!(parse(&argv(&["lint", "d.v", "--progress"])).is_err());
        assert!(parse(&argv(&["zones", "d.v", "--quiet"])).is_err());
        // missing values are named
        assert!(parse(&argv(&["inject", "d.v", "--trace-out"]))
            .unwrap_err()
            .contains("--trace-out"));
    }

    #[test]
    fn inject_takes_a_netlist_or_an_example_but_not_both() {
        let cmd = parse(&argv(&["inject", "--example", "fmem"])).unwrap();
        let Command::Inject(o) = cmd else {
            panic!("inject expected")
        };
        assert!(o.input.is_none());
        assert_eq!(o.example, Some(ExampleDesign::Fmem));
        assert!(parse(&argv(&["inject"]))
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse(&argv(&["inject", "d.v", "--example", "mcu"]))
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse(&argv(&["inject", "--example", "dsp"]))
            .unwrap_err()
            .contains("unknown example"));
    }

    #[test]
    fn trace_summarize_parses_one_path() {
        let cmd = parse(&argv(&["trace", "summarize", "run.jsonl"])).unwrap();
        let Command::TraceSummarize(o) = cmd else {
            panic!("trace summarize expected")
        };
        assert_eq!(o.input, "run.jsonl");
        assert!(!o.allow_partial);
        assert!(parse(&argv(&["trace"]))
            .unwrap_err()
            .contains("needs an action"));
        assert!(parse(&argv(&["trace", "replay", "run.jsonl"]))
            .unwrap_err()
            .contains("unknown trace action"));
        assert!(parse(&argv(&["trace", "summarize"]))
            .unwrap_err()
            .contains("needs a trace file"));
        assert!(parse(&argv(&["trace", "summarize", "a.jsonl", "b.jsonl"])).is_err());
    }

    #[test]
    fn trace_summarize_takes_allow_partial() {
        let cmd = parse(&argv(&[
            "trace",
            "summarize",
            "--allow-partial",
            "run.jsonl",
        ]))
        .unwrap();
        let Command::TraceSummarize(o) = cmd else {
            panic!("trace summarize expected")
        };
        assert_eq!(o.input, "run.jsonl");
        assert!(o.allow_partial);
        // flag order does not matter
        let Command::TraceSummarize(o) = parse(&argv(&[
            "trace",
            "summarize",
            "run.jsonl",
            "--allow-partial",
        ]))
        .unwrap() else {
            panic!("trace summarize expected")
        };
        assert!(o.allow_partial);
        // summarize-only: flame and diff reject it
        assert!(parse(&argv(&["trace", "flame", "run.jsonl", "--allow-partial"])).is_err());
        assert!(parse(&argv(&[
            "trace",
            "diff",
            "a.jsonl",
            "b.jsonl",
            "--allow-partial"
        ]))
        .is_err());
    }

    #[test]
    fn trace_flame_parses_one_path() {
        let cmd = parse(&argv(&["trace", "flame", "run.jsonl"])).unwrap();
        let Command::TraceFlame(o) = cmd else {
            panic!("trace flame expected")
        };
        assert_eq!(o.input, "run.jsonl");
        assert!(parse(&argv(&["trace", "flame"]))
            .unwrap_err()
            .contains("needs a trace file"));
        assert!(parse(&argv(&["trace", "flame", "a.jsonl", "b.jsonl"])).is_err());
    }

    #[test]
    fn trace_diff_parses_two_paths() {
        let cmd = parse(&argv(&["trace", "diff", "a.jsonl", "b.jsonl"])).unwrap();
        let Command::TraceDiff(o) = cmd else {
            panic!("trace diff expected")
        };
        assert_eq!(o.a, "a.jsonl");
        assert_eq!(o.b, "b.jsonl");
        assert!(parse(&argv(&["trace", "diff", "a.jsonl"]))
            .unwrap_err()
            .contains("needs two trace files"));
        assert!(parse(&argv(&["trace", "diff", "a.jsonl", "b.jsonl", "c.jsonl"])).is_err());
    }

    #[test]
    fn inject_parses_engine_options() {
        for (name, engine) in [
            ("auto", Engine::Auto),
            ("lockstep", Engine::Lockstep),
            ("ppsfp", Engine::Ppsfp),
        ] {
            let cmd = parse(&argv(&["inject", "d.v", "--engine", name])).unwrap();
            let Command::Inject(o) = cmd else {
                panic!("inject expected")
            };
            assert_eq!(o.engine, engine, "--engine {name}");
        }
        let cmd = parse(&argv(&[
            "inject",
            "d.v",
            "--engine",
            "ppsfp",
            "--checkpoint-interval",
            "8",
        ]))
        .unwrap();
        let Command::Inject(o) = cmd else {
            panic!("inject expected")
        };
        assert_eq!(o.engine, Engine::Ppsfp);
        assert_eq!(o.checkpoint_interval, 8);
        // unknown (and retired) engines, degenerate and foreign uses are
        // rejected
        for retired in ["warp", "sparse"] {
            assert!(parse(&argv(&["inject", "d.v", "--engine", retired]))
                .unwrap_err()
                .contains("unknown engine"));
        }
        assert!(
            parse(&argv(&["inject", "d.v", "--checkpoint-interval", "0"]))
                .unwrap_err()
                .contains("at least 1")
        );
        assert!(parse(&argv(&["analyze", "d.v", "--engine", "ppsfp"])).is_err());
        assert!(parse(&argv(&["lint", "d.v", "--checkpoint-interval", "4"])).is_err());
    }

    #[test]
    fn inject_parses_collapse() {
        let cmd = parse(&argv(&["inject", "d.v", "--collapse", "--engine", "ppsfp"])).unwrap();
        let Command::Inject(o) = cmd else {
            panic!("inject expected")
        };
        assert_eq!(o.collapse, Collapse::Dictionary);
        assert_eq!(o.engine, Engine::Ppsfp, "collapse composes with any engine");
        // --collapse is an inject-only option
        assert!(parse(&argv(&["analyze", "d.v", "--collapse"])).is_err());
        assert!(parse(&argv(&["zones", "d.v", "--collapse"])).is_err());
    }

    #[test]
    fn subcommand_scoping_rejects_foreign_options() {
        // analyze-only options are rejected under zones/inject and vice versa
        assert!(parse(&argv(&["zones", "d.v", "--hft", "1"])).is_err());
        assert!(parse(&argv(&["inject", "d.v", "--format", "csv"])).is_err());
        assert!(parse(&argv(&["analyze", "d.v", "--threads", "4"])).is_err());
    }

    #[test]
    fn lint_parses_example_and_policy() {
        let cmd = parse(&argv(&[
            "lint",
            "--example",
            "mcu",
            "--format",
            "json",
            "--deny",
            "warnings",
            "--deny",
            "SL0004",
            "--allow",
            "SL0002",
            "--target-sil",
            "3",
        ]))
        .unwrap();
        let Command::Lint(o) = cmd else {
            panic!("lint expected")
        };
        assert_eq!(o.example, Some(ExampleDesign::Mcu));
        assert!(o.input.is_none());
        assert_eq!(o.format, LintFormat::Json);
        assert!(o.deny_warnings);
        assert_eq!(o.deny, vec!["SL0004".to_owned()]);
        assert_eq!(o.allow, vec!["SL0002".to_owned()]);
        assert_eq!(o.target_sil, Some(Sil::from_level(3).unwrap()));
    }

    #[test]
    fn lint_accepts_a_netlist_path_positionally() {
        let cmd = parse(&argv(&["lint", "d.v", "--class", "mem=memory"])).unwrap();
        let Command::Lint(o) = cmd else {
            panic!("lint expected")
        };
        assert_eq!(o.input.as_deref(), Some("d.v"));
        assert!(o.example.is_none());
        assert_eq!(o.format, LintFormat::Text);
        assert!(!o.deny_warnings);
    }

    #[test]
    fn lint_rejects_bad_combinations() {
        // neither input nor example
        assert!(parse(&argv(&["lint"])).unwrap_err().contains("exactly one"));
        // both input and example
        assert!(parse(&argv(&["lint", "d.v", "--example", "mcu"]))
            .unwrap_err()
            .contains("exactly one"));
        // unknown example, rule code, format, SIL level
        assert!(parse(&argv(&["lint", "--example", "dsp"]))
            .unwrap_err()
            .contains("unknown example"));
        assert!(parse(&argv(&["lint", "d.v", "--deny", "SL9999"]))
            .unwrap_err()
            .contains("unknown rule code"));
        assert!(parse(&argv(&["lint", "d.v", "--allow", "warnings"]))
            .unwrap_err()
            .contains("unknown rule code"));
        assert!(parse(&argv(&["lint", "d.v", "--format", "xml"]))
            .unwrap_err()
            .contains("unknown format"));
        assert!(parse(&argv(&["lint", "d.v", "--target-sil", "9"]))
            .unwrap_err()
            .contains("bad SIL level"));
        // lint options are scoped to lint
        assert!(parse(&argv(&["analyze", "d.v", "--example", "mcu"])).is_err());
        assert!(parse(&argv(&["zones", "d.v", "--deny", "warnings"])).is_err());
    }

    #[test]
    fn serve_parses_defaults_and_overrides() {
        let Command::Serve(o) = parse(&argv(&["serve"])).unwrap() else {
            panic!("serve expected")
        };
        assert_eq!(o.addr, DEFAULT_SERVE_ADDR);
        assert_eq!(o.workers, 2);
        assert_eq!(o.queue, 64);
        assert_eq!(o.cache_mb, 256);
        assert!(o.telemetry, "telemetry defaults on");
        let Command::Serve(o) = parse(&argv(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "4",
            "--queue",
            "8",
            "--cache-mb",
            "64",
        ]))
        .unwrap() else {
            panic!("serve expected")
        };
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(o.workers, 4);
        assert_eq!(o.queue, 8);
        assert_eq!(o.cache_mb, 64);
        let Command::Serve(o) = parse(&argv(&["serve", "--no-telemetry"])).unwrap() else {
            panic!("serve expected")
        };
        assert!(!o.telemetry);
        assert!(parse(&argv(&["inject", "d.v", "--no-telemetry"])).is_err());
        // degenerate values and foreign options are rejected
        assert!(parse(&argv(&["serve", "--workers", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv(&["serve", "--queue", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv(&["serve", "--threads", "4"])).is_err());
        assert!(parse(&argv(&["inject", "d.v", "--workers", "4"])).is_err());
    }

    #[test]
    fn submit_mirrors_the_inject_spec_flags() {
        let Command::Submit(o) = parse(&argv(&[
            "submit",
            "--example",
            "fmem",
            "--tenant",
            "certlab",
            "--seed",
            "7",
            "--cycles",
            "16",
            "--engine",
            "ppsfp",
            "--checkpoint-interval",
            "8",
            "--collapse",
            "--prune",
            "--watch",
        ]))
        .unwrap() else {
            panic!("submit expected")
        };
        assert_eq!(o.addr, DEFAULT_SERVE_ADDR);
        assert_eq!(o.tenant, "certlab");
        assert_eq!(o.example, Some(ExampleDesign::Fmem));
        assert!(o.input.is_none());
        assert_eq!(o.seed, 7);
        assert_eq!(o.cycles, 16);
        assert_eq!(o.engine, Engine::Ppsfp);
        assert_eq!(o.checkpoint_interval, 8);
        assert_eq!(o.collapse, Collapse::Dictionary);
        assert_eq!(o.prune, Prune::Static);
        assert!(o.watch);
    }

    #[test]
    fn submit_defaults_defer_threads_to_the_server() {
        let Command::Submit(o) = parse(&argv(&["submit", "d.v"])).unwrap() else {
            panic!("submit expected")
        };
        assert_eq!(o.input.as_deref(), Some("d.v"));
        assert_eq!(o.threads, 0, "0 = server default");
        assert_eq!(o.tenant, "default");
        assert_eq!(o.seed, 0x5eed);
        assert_eq!(o.cycles, 48);
        assert_eq!(o.engine, Engine::Auto);
        assert!(!o.watch);
        let Command::Submit(o) = parse(&argv(&["submit", "d.v", "--threads", "3"])).unwrap() else {
            panic!("submit expected")
        };
        assert_eq!(o.threads, 3);
        // exactly one of <netlist.v> / --example, like inject
        assert!(parse(&argv(&["submit"]))
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse(&argv(&["submit", "d.v", "--example", "mcu"]))
            .unwrap_err()
            .contains("exactly one"));
        // inject-only observability flags stay inject-only
        assert!(parse(&argv(&["submit", "d.v", "--trace-out", "t.jsonl"])).is_err());
        assert!(parse(&argv(&["submit", "d.v", "--progress"])).is_err());
        assert!(parse(&argv(&["submit", "d.v", "--accel"])).is_err());
    }

    #[test]
    fn job_reference_commands_take_a_job_and_an_addr() {
        for (name, want_status, want_watch) in [
            ("status", true, false),
            ("watch", false, true),
            ("cancel", false, false),
        ] {
            let cmd = parse(&argv(&[name, "j-000001", "--addr", "10.0.0.1:7171"])).unwrap();
            let o = match cmd {
                Command::Status(o) if want_status => o,
                Command::Watch(o) if want_watch => o,
                Command::Cancel(o) if !want_status && !want_watch => o,
                other => panic!("unexpected parse of {name}: {other:?}"),
            };
            assert_eq!(o.job, "j-000001");
            assert_eq!(o.addr, "10.0.0.1:7171");
            assert!(!o.events);
            assert!(parse(&argv(&[name]))
                .unwrap_err()
                .contains("needs a job id"));
            assert!(parse(&argv(&[name, "j-1", "j-2"])).is_err());
        }
    }

    #[test]
    fn watch_takes_an_events_flag() {
        let Command::Watch(o) = parse(&argv(&["watch", "j-000001", "--events"])).unwrap() else {
            panic!("watch expected")
        };
        assert!(o.events);
        assert_eq!(o.job, "j-000001");
        // --events is watch-only
        assert!(parse(&argv(&["status", "j-000001", "--events"])).is_err());
        assert!(parse(&argv(&["cancel", "j-000001", "--events"])).is_err());
    }

    #[test]
    fn shutdown_takes_only_an_addr() {
        let Command::Shutdown(o) = parse(&argv(&["shutdown"])).unwrap() else {
            panic!("shutdown expected")
        };
        assert_eq!(o.addr, DEFAULT_SERVE_ADDR);
        let Command::Shutdown(o) = parse(&argv(&["shutdown", "--addr", "127.0.0.1:7272"])).unwrap()
        else {
            panic!("shutdown expected")
        };
        assert_eq!(o.addr, "127.0.0.1:7272");
        assert!(parse(&argv(&["shutdown", "j-000001"])).is_err());
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(parse(&[]).unwrap_err().contains("missing command"));
        assert!(parse(&argv(&["zones"]))
            .unwrap_err()
            .contains("missing input"));
        assert!(parse(&argv(&["frobnicate", "x.v"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&argv(&["analyze", "d.v", "--format", "pdf"]))
            .unwrap_err()
            .contains("unknown format"));
        assert!(parse(&argv(&["inject", "d.v", "--cycles", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv(&["zones", "d.v", "--class", "broken"]))
            .unwrap_err()
            .contains("bad --class"));
    }
}
