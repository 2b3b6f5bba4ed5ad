//! `socfmea` — command-line front end of the SoC-level FMEA flow.
//!
//! ```text
//! socfmea zones   <netlist.v> [options]   list the extracted sensible zones
//! socfmea analyze [<netlist.v>] [options] run the FMEA and print the report
//!                                         with per-zone testability tables
//! socfmea inject  [<netlist.v>] [options] run a fault-injection campaign
//! socfmea lint    [<netlist.v>] [options] run the structural safety lints
//! socfmea trace summarize <trace.jsonl>   re-aggregate a campaign trace
//!                                         (non-zero on truncation unless
//!                                         --allow-partial)
//! socfmea trace flame <trace.jsonl>       span self-times as folded stacks
//! socfmea trace diff <a.jsonl> <b.jsonl>  compare two traces' self-times
//! socfmea serve   [options]               run the multi-tenant campaign server
//!                                         (--no-telemetry drops per-job
//!                                         spans/progress/labeled metrics)
//! socfmea submit  [<netlist.v>] [options] submit a campaign to a server
//! socfmea status  <job> [--addr]          query a submitted job
//! socfmea watch   <job> [--addr]          stream a job's live JSONL trace
//!                                         (--events: the progress channel)
//! socfmea cancel  <job> [--addr]          cancel a queued or running job
//! socfmea shutdown [--addr]               drain and stop a campaign server
//!
//! common options:
//!   --class <prefix>=<class>   classify zones under a block-path prefix
//!                              (memory|rom|cpu|bus|io|clock|power)
//! analyze options:
//!   --hft <n>                  hardware fault tolerance for the SIL grant
//!   --type-a                   assess as a type-A subsystem (default: B)
//!   --format text|csv|srs|json report format (default: text)
//!   --example <design>         analyze a bundled design
//! inject options:
//!   --threads <n>              campaign worker threads
//!   --seed <s>                 fault-list sampling seed
//!   --cycles <n>               synthetic workload length in cycles
//!   --engine <e>               campaign engine (auto|lockstep|ppsfp)
//!   --checkpoint-interval <n>  golden-trace checkpoint spacing
//!   --collapse                 simulate one representative per equivalence
//!                              class, back-annotate the rest
//!   --prune                    skip statically proven-undetectable faults,
//!                              synthesize their outcomes (bit-identical)
//!   --example <design>         inject into a bundled design
//!   --trace-out <f.jsonl>      stream one JSONL record per fault
//!   --metrics-out <f.json>     write the metrics-registry snapshot
//!   --progress                 live progress line on stderr
//!   --quiet                    suppress the stderr stats/progress lines
//! lint options:
//!   --example <design>         lint a bundled design (fmem|fmem-baseline|
//!                              mcu|mcu-single) instead of a netlist file
//!   --format text|json         report format
//!   --deny warnings|<SLxxxx>   promote findings to errors
//!   --allow <SLxxxx>           drop a rule's findings
//!   --target-sil <n>           check SIL reachability (SL0103)
//! ```
//!
//! Argument parsing lives in [`soc_fmea::cli`]; this binary is the
//! dispatcher. The input is the structural Verilog subset documented in
//! [`soc_fmea::netlist::verilog`]; zones get default worksheet assumptions
//! (no diagnostic claims — add those programmatically for real
//! assessments), so `analyze` prints the *uncovered* FMEA a safety
//! analysis starts from, while `inject` measures DC/SFF directly by
//! golden-vs-faulty co-simulation under a seeded random workload.

use soc_fmea::accel::Topology;
use soc_fmea::cli::{
    self, AnalyzeOptions, Command, ExampleDesign, InjectOptions, JobRefOptions, LintFormat,
    LintOptions, ReportFormat, ServeOptions, ShutdownOptions, SubmitOptions, TraceDiffOptions,
    TraceOptions, ZonesOptions,
};
use soc_fmea::faultsim::{
    analyze, generate_fault_list, Campaign, EnvironmentBuilder, FaultListConfig, OperationalProfile,
};
use soc_fmea::fmea::{
    extract_zones, predict_all_effects, report, ExtractConfig, Worksheet, ZoneGraph,
};
use soc_fmea::lint::{LintConfig, LintRunner};
use soc_fmea::netlist::{parse_verilog, Netlist};
use soc_fmea::obs::{
    json, Observer, Profile, ProgressReporter, StderrRender, TraceSink, TraceSummary,
};
use soc_fmea::serve::{Client, DesignRef, JobSpec, Server, ServerConfig};
use soc_fmea::static_analysis::TestabilityAnalysis;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The binary's standard output. Every report line and streamed body goes
/// through it: a closed pipe (`socfmea … | head -1`) is the reader saying
/// it has seen enough, so the run ends quietly with exit 0 instead of a
/// broken-pipe panic or error.
struct Out;

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match std::io::stdout().write(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
            written => written,
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match std::io::stdout().flush() {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
            flushed => flushed,
        }
    }
}

// `print!`/`println!` write through `Out` in this binary.
macro_rules! print {
    ($($arg:tt)*) => {
        if let Err(e) = Out.write_fmt(format_args!($($arg)*)) {
            panic!("failed printing to stdout: {e}");
        }
    };
}

macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

fn usage() -> ExitCode {
    eprintln!("{}", cli::USAGE);
    ExitCode::from(2)
}

fn load_netlist(input: &str) -> Result<Netlist, ExitCode> {
    let source = std::fs::read_to_string(input).map_err(|e| {
        eprintln!("socfmea: cannot read `{input}`: {e}");
        ExitCode::FAILURE
    })?;
    parse_verilog(&source).map_err(|e| {
        eprintln!("socfmea: {input}: {e}");
        ExitCode::FAILURE
    })
}

fn run_zones(opts: &ZonesOptions) -> Result<(), ExitCode> {
    let netlist = load_netlist(&opts.input)?;
    let zones = extract_zones(&netlist, &opts.config);
    println!(
        "{}: {} gates, {} flip-flops -> {} sensible zones",
        netlist.name(),
        netlist.gate_count(),
        netlist.dff_count(),
        zones.len()
    );
    for z in zones.zones() {
        println!("  {z}");
    }
    let (unassigned, local, wide) = zones.membership().census();
    println!("cone membership: {local} local, {wide} wide, {unassigned} un-zoned gates");
    Ok(())
}

fn run_analyze(opts: &AnalyzeOptions) -> Result<(), ExitCode> {
    let (netlist, config) = match opts.example {
        Some(example) => example_netlist(example)?,
        None => {
            let input = opts.input.as_deref().expect("validated by the parser");
            (load_netlist(input)?, opts.config.clone())
        }
    };
    let zones = extract_zones(&netlist, &config);
    // The bundled examples carry their own diagnostic claims; a netlist
    // file starts from the uncovered worksheet.
    let mut ws = match opts.example {
        Some(ExampleDesign::Fmem) => soc_fmea::memsys::fmea::build_worksheet(
            &zones,
            &soc_fmea::memsys::MemSysConfig::hardened(),
        ),
        Some(ExampleDesign::FmemBaseline) => soc_fmea::memsys::fmea::build_worksheet(
            &zones,
            &soc_fmea::memsys::MemSysConfig::baseline(),
        ),
        Some(ExampleDesign::Mcu) => soc_fmea::mcu::fmea::build_worksheet(
            &zones,
            &soc_fmea::mcu::McuConfig::lockstep(soc_fmea::mcu::programs::checksum_loop()),
        ),
        Some(ExampleDesign::McuSingle) => soc_fmea::mcu::fmea::build_worksheet(
            &zones,
            &soc_fmea::mcu::McuConfig::single(soc_fmea::mcu::programs::checksum_loop()),
        ),
        None => Worksheet::new(&zones),
    };
    ws.set_hft(opts.hft);
    ws.set_subsystem(opts.subsystem);
    let result = ws.compute();
    let statics = Topology::build(&netlist)
        .ok()
        .map(|topo| TestabilityAnalysis::analyze(&netlist, &topo, netlist.outputs()));
    match opts.format {
        ReportFormat::Csv => print!("{}", report::render_csv(&result, &zones)),
        ReportFormat::Srs => {
            let graph = ZoneGraph::build(&netlist, &zones);
            let effects = predict_all_effects(&graph);
            print!(
                "{}",
                report::render_srs(netlist.name(), &result, &zones, &effects)
            );
        }
        ReportFormat::Text => {
            print!("{}", report::render_text(&result, &zones));
            if let Some(statics) = &statics {
                print!("{}", render_testability_text(&netlist, &zones, statics));
            }
        }
        ReportFormat::Json => match &statics {
            Some(statics) => println!(
                "{}",
                render_analyze_json(&netlist, &zones, &result, statics)
            ),
            None => {
                eprintln!("socfmea: design is not levelizable; no static analysis possible");
                return Err(ExitCode::FAILURE);
            }
        },
    }
    Ok(())
}

/// Per-zone static testability gathered for one zone of the report: anchor
/// sites split into proven-constant, structurally unobservable and live,
/// plus the SCOAP observability / sequential-depth extremes of the live
/// sites.
struct ZoneTestability {
    sites: usize,
    constant: usize,
    unobservable: usize,
    co_max: Option<u32>,
    seq_max: Option<u32>,
}

impl ZoneTestability {
    fn gather(
        zone: &soc_fmea::fmea::SensibleZone,
        statics: &TestabilityAnalysis,
    ) -> ZoneTestability {
        let mut t = ZoneTestability {
            sites: zone.anchors.len(),
            constant: 0,
            unobservable: 0,
            co_max: None,
            seq_max: None,
        };
        for &a in &zone.anchors {
            if statics.constant(a).is_some() {
                t.constant += 1;
            } else if !statics.observable(a) {
                t.unobservable += 1;
            } else {
                let co = statics.co(a);
                if co != soc_fmea::static_analysis::UNREACHABLE {
                    t.co_max = Some(t.co_max.unwrap_or(0).max(co));
                }
                let seq = statics.seq_depth(a);
                if seq != soc_fmea::static_analysis::UNREACHABLE {
                    t.seq_max = Some(t.seq_max.unwrap_or(0).max(seq));
                }
            }
        }
        t
    }

    fn live(&self) -> usize {
        self.sites - self.constant - self.unobservable
    }
}

/// The `analyze` text-format appendix: one static-testability row per zone.
fn render_testability_text(
    netlist: &Netlist,
    zones: &soc_fmea::fmea::ZoneSet,
    statics: &TestabilityAnalysis,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\nstatic testability ({} monitored outputs)",
        netlist.outputs().len()
    );
    let _ = writeln!(
        s,
        "{:<30} {:>6} {:>6} {:>6} {:>6} {:>7} {:>8}",
        "zone", "sites", "const", "unobs", "live", "co max", "seq max"
    );
    let (mut dead, mut total) = (0usize, 0usize);
    let opt = |v: Option<u32>| v.map_or("-".to_owned(), |x| x.to_string());
    for z in zones.zones() {
        let t = ZoneTestability::gather(z, statics);
        dead += t.constant + t.unobservable;
        total += t.sites;
        let _ = writeln!(
            s,
            "{:<30} {:>6} {:>6} {:>6} {:>6} {:>7} {:>8}",
            z.name,
            t.sites,
            t.constant,
            t.unobservable,
            t.live(),
            opt(t.co_max),
            opt(t.seq_max)
        );
    }
    if total > 0 {
        let _ = writeln!(
            s,
            "statically dead fault sites: {dead}/{total} ({:.1}%)",
            100.0 * dead as f64 / total as f64
        );
    }
    s
}

/// The `analyze --format json` document: worksheet summary plus the same
/// per-zone testability table the text format appends, in the style of the
/// lint report (strings escaped by `socfmea_obs::json`).
fn render_analyze_json(
    netlist: &Netlist,
    zones: &soc_fmea::fmea::ZoneSet,
    result: &soc_fmea::fmea::worksheet::FmeaResult,
    statics: &TestabilityAnalysis,
) -> String {
    let num = |v: Option<f64>| v.map_or("null".to_owned(), |x| format!("{x:.6}"));
    let mut zone_docs = Vec::new();
    let (mut dead, mut total) = (0usize, 0usize);
    for z in zones.zones() {
        let t = ZoneTestability::gather(z, statics);
        dead += t.constant + t.unobservable;
        total += t.sites;
        let opt = |v: Option<u32>| v.map_or("null".to_owned(), |x| x.to_string());
        zone_docs.push(format!(
            "{{\"name\":{},\"lambda_fit\":{:.4},\"dc\":{},\"sff\":{},\
             \"sites\":{},\"constant\":{},\"unobservable\":{},\"live\":{},\
             \"co_max\":{},\"seq_max\":{}}}",
            json::quote(&z.name),
            result.zone_totals[z.id.index()].total().0,
            num(result.zone_dc(z.id)),
            num(result.zone_sff(z.id)),
            t.sites,
            t.constant,
            t.unobservable,
            t.live(),
            opt(t.co_max),
            opt(t.seq_max)
        ));
    }
    format!(
        "{{\"design\":{},\"hft\":{},\"subsystem\":\"{:?}\",\"sff\":{},\"dc\":{},\
         \"sil\":{},\"monitored_outputs\":{},\"dead_sites\":{},\"total_sites\":{},\
         \"zones\":[{}]}}",
        json::quote(netlist.name()),
        result.hft.0,
        result.subsystem,
        num(result.sff()),
        num(result.dc()),
        result
            .sil()
            .map_or("null".to_owned(), |s| s.level().to_string()),
        netlist.outputs().len(),
        dead,
        total,
        zone_docs.join(",")
    )
}

/// The protocol name of a bundled example (the CLI and the serve crate
/// agree on these).
fn example_name(example: ExampleDesign) -> &'static str {
    match example {
        ExampleDesign::Fmem => "fmem",
        ExampleDesign::FmemBaseline => "fmem-baseline",
        ExampleDesign::Mcu => "mcu",
        ExampleDesign::McuSingle => "mcu-single",
    }
}

/// Builds one of the bundled example designs together with its zone
/// classification, for `inject --example`. Delegates to the serve crate's
/// resolver so `inject` and a campaign server build the identical netlist.
fn example_netlist(example: ExampleDesign) -> Result<(Netlist, ExtractConfig), ExitCode> {
    soc_fmea::serve::Example::parse(example_name(example))
        .expect("bundled example names agree")
        .build()
        .map_err(|e| {
            eprintln!("socfmea: {e}");
            ExitCode::FAILURE
        })
}

fn run_inject(opts: &InjectOptions) -> Result<(), ExitCode> {
    let (netlist, config) = match opts.example {
        Some(example) => example_netlist(example)?,
        None => {
            let input = opts.input.as_deref().expect("validated by the parser");
            (load_netlist(input)?, opts.config.clone())
        }
    };
    let zones = extract_zones(&netlist, &config);
    // the serve crate owns the workload generator, so a server job and a
    // local inject of the same (design, seed, cycles) drive identical bits
    let workload = soc_fmea::serve::random_workload(&netlist, opts.seed, opts.cycles);
    let env = EnvironmentBuilder::new(&netlist, &zones, &workload)
        .alarms_matching("alarm")
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            seed: opts.seed,
            ..FaultListConfig::default()
        },
    );
    if faults.is_empty() {
        eprintln!("socfmea: no injectable faults (does the design have sensible zones?)");
        return Err(ExitCode::FAILURE);
    }

    println!(
        "{}: {} gates, {} flip-flops, {} sensible zones",
        netlist.name(),
        netlist.gate_count(),
        netlist.dff_count(),
        zones.len()
    );
    println!(
        "workload `{}`: {} cycles driving {} inputs; fault list: {} faults (seed {:#x})",
        workload.name(),
        workload.len(),
        netlist.inputs().len(),
        faults.len(),
        opts.seed
    );

    // The observer is optional machinery: without --trace-out it still
    // collects metrics (cheap), with it every fault streams a JSONL record
    // through a bounded channel to a writer thread.
    let observer = match &opts.trace_out {
        Some(path) => {
            let sink = TraceSink::to_file(path).map_err(|e| {
                eprintln!("socfmea: cannot create `{path}`: {e}");
                ExitCode::FAILURE
            })?;
            Observer::with_sink(sink)
        }
        None => Observer::new(),
    };

    let campaign = Campaign::new(&env, &faults)
        .threads(opts.threads)
        .seed(opts.seed)
        .engine(opts.engine)
        .checkpoint_interval(opts.checkpoint_interval)
        .collapsing(opts.collapse)
        .pruning(opts.prune)
        .observe(&observer);
    let stats = campaign.stats();
    let reporter = (opts.progress && !opts.quiet).then(|| {
        let stats = Arc::clone(&stats);
        ProgressReporter::start(
            Box::new(StderrRender::default()),
            Duration::from_millis(200),
            move || stats.progress_sample(),
        )
    });
    let result = campaign.run();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    // The stats line carries wall-clock timing, so it goes to stderr and
    // stdout stays deterministic for a given seed.
    if !opts.quiet {
        eprintln!("{}", stats.summary());
    }

    let analysis = analyze(&faults, &result, &profile);
    println!(
        "\n{:<30} {:>5} {:>5} {:>5} {:>5} {:>9}",
        "zone", "S", "SD", "DD", "DU", "zone DC"
    );
    for m in &analysis.measured {
        let dangerous = m.dangerous_detected + m.dangerous_undetected;
        let dc = if dangerous == 0 {
            "-".to_owned()
        } else {
            format!(
                "{:.1}%",
                100.0 * m.dangerous_detected as f64 / dangerous as f64
            )
        };
        println!(
            "{:<30} {:>5} {:>5} {:>5} {:>5} {:>9}",
            zones.zone(m.zone).name,
            m.safe - m.safe_detected,
            m.safe_detected,
            m.dangerous_detected,
            m.dangerous_undetected,
            dc
        );
    }
    let fmt = |v: Option<f64>| match v {
        Some(x) => format!("{:.2}%", x * 100.0),
        None => "n/a (no dangerous outcomes)".to_owned(),
    };
    println!("\nmeasured DC  = {}", fmt(result.measured_dc()));
    println!("measured SFF = {}", fmt(result.measured_sff()));
    println!("{}", result.coverage);

    if let Some(path) = &opts.metrics_out {
        let mut json = observer.metrics_snapshot().render_json();
        json.push('\n');
        std::fs::write(path, json).map_err(|e| {
            eprintln!("socfmea: cannot write `{path}`: {e}");
            ExitCode::FAILURE
        })?;
    }
    observer.finish().map_err(|e| {
        eprintln!("socfmea: trace write failed: {e}");
        ExitCode::FAILURE
    })?;
    Ok(())
}

fn run_serve(opts: &ServeOptions) -> Result<(), ExitCode> {
    let config = ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        queue_capacity: opts.queue,
        cache_bytes: opts.cache_mb.saturating_mul(1024 * 1024),
        default_threads: cli::default_threads(),
        telemetry: opts.telemetry,
    };
    let server = Server::start(config).map_err(|e| {
        eprintln!("socfmea: cannot listen on `{}`: {e}", opts.addr);
        ExitCode::FAILURE
    })?;
    eprintln!(
        "socfmea serve: listening on {} ({} workers, queue {}, cache {} MiB)",
        server.addr(),
        opts.workers,
        opts.queue,
        opts.cache_mb
    );
    server.join();
    eprintln!("socfmea serve: drained, bye");
    Ok(())
}

/// Maps a client-side transport error to an exit code with a hint naming
/// the server address.
fn transport_err(addr: &str, e: std::io::Error) -> ExitCode {
    eprintln!("socfmea: cannot reach server at `{addr}`: {e}");
    ExitCode::FAILURE
}

fn run_submit(opts: &SubmitOptions) -> Result<(), ExitCode> {
    let design = match opts.example {
        Some(example) => DesignRef::Example(example_name(example).to_owned()),
        None => {
            let input = opts.input.as_deref().expect("validated by the parser");
            let source = std::fs::read_to_string(input).map_err(|e| {
                eprintln!("socfmea: cannot read `{input}`: {e}");
                ExitCode::FAILURE
            })?;
            DesignRef::Verilog(source)
        }
    };
    let spec = JobSpec {
        tenant: opts.tenant.clone(),
        design,
        seed: opts.seed,
        cycles: opts.cycles,
        threads: opts.threads,
        engine: opts.engine,
        checkpoint_interval: opts.checkpoint_interval,
        collapse: opts.collapse,
        prune: opts.prune,
    };
    let client = Client::new(opts.addr.clone());
    let resp = client
        .submit(&spec)
        .map_err(|e| transport_err(&opts.addr, e))?;
    if resp.status != 202 {
        eprintln!(
            "socfmea: submit rejected ({}): {}",
            resp.status,
            resp.text().trim()
        );
        return Err(ExitCode::FAILURE);
    }
    if opts.watch {
        let doc = json::parse(&resp.text()).map_err(|e| {
            eprintln!("socfmea: malformed submit response: {e}");
            ExitCode::FAILURE
        })?;
        let job = doc
            .get("job")
            .and_then(|v| v.as_str().map(str::to_owned))
            .ok_or_else(|| {
                eprintln!("socfmea: submit response names no job");
                ExitCode::FAILURE
            })?;
        watch_to_stdout(&client, &opts.addr, &job)
    } else {
        println!("{}", resp.text().trim());
        Ok(())
    }
}

fn watch_to_stdout(client: &Client, addr: &str, job: &str) -> Result<(), ExitCode> {
    let status = client
        .watch(job, &mut Out)
        .map_err(|e| transport_err(addr, e))?;
    if status != 200 {
        eprintln!("socfmea: watch failed ({status})");
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

/// Shared shape of `status` and `cancel`: one round trip, body to stdout,
/// non-200 exits nonzero.
fn run_job_query(
    opts: &JobRefOptions,
    call: impl Fn(&Client, &str) -> std::io::Result<soc_fmea::serve::http::ClientResponse>,
) -> Result<(), ExitCode> {
    let client = Client::new(opts.addr.clone());
    let resp = call(&client, &opts.job).map_err(|e| transport_err(&opts.addr, e))?;
    if resp.status != 200 {
        eprintln!("socfmea: ({}) {}", resp.status, resp.text().trim());
        return Err(ExitCode::FAILURE);
    }
    println!("{}", resp.text().trim());
    Ok(())
}

fn run_watch(opts: &JobRefOptions) -> Result<(), ExitCode> {
    let client = Client::new(opts.addr.clone());
    if opts.events {
        let status = client
            .events(&opts.job, &mut Out)
            .map_err(|e| transport_err(&opts.addr, e))?;
        if status != 200 {
            eprintln!("socfmea: watch --events failed ({status})");
            return Err(ExitCode::FAILURE);
        }
        return Ok(());
    }
    watch_to_stdout(&client, &opts.addr, &opts.job)
}

fn run_shutdown(opts: &ShutdownOptions) -> Result<(), ExitCode> {
    let client = Client::new(opts.addr.clone());
    let resp = client
        .shutdown()
        .map_err(|e| transport_err(&opts.addr, e))?;
    if resp.status != 200 {
        eprintln!("socfmea: ({}) {}", resp.status, resp.text().trim());
        return Err(ExitCode::FAILURE);
    }
    println!("{}", resp.text().trim());
    Ok(())
}

fn load_trace(path: &str) -> Result<TraceSummary, ExitCode> {
    TraceSummary::from_file(path).map_err(|e| {
        eprintln!("socfmea: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn run_trace_summarize(opts: &TraceOptions) -> Result<(), ExitCode> {
    let summary = load_trace(&opts.input)?;
    print!("{}", summary.render());
    if let Some(diagnosis) = summary.truncation() {
        if opts.allow_partial {
            eprintln!("socfmea: warning: {}: {diagnosis}", opts.input);
        } else {
            eprintln!(
                "socfmea: {}: {diagnosis} (pass --allow-partial to accept a prefix)",
                opts.input
            );
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}

fn run_trace_flame(opts: &TraceOptions) -> Result<(), ExitCode> {
    let profile = Profile::from_summary(&load_trace(&opts.input)?);
    // stdout is pure folded stacks, pipeable straight into flamegraph
    // tooling; the coverage note rides on stderr
    print!("{}", profile.render_folded());
    match profile.coverage() {
        Some(coverage) => eprintln!(
            "socfmea: {:.1}% of the campaign wall-clock attributed to named spans/phases",
            coverage * 100.0
        ),
        None => eprintln!("socfmea: no end record, so wall-clock coverage is unknown"),
    }
    Ok(())
}

fn run_trace_diff(opts: &TraceDiffOptions) -> Result<(), ExitCode> {
    let a = Profile::from_summary(&load_trace(&opts.a)?);
    let b = Profile::from_summary(&load_trace(&opts.b)?);
    print!("{}", a.diff(&b));
    Ok(())
}

fn run_lint(opts: &LintOptions) -> Result<(), ExitCode> {
    let mut config = LintConfig {
        target_sil: opts.target_sil,
        deny_warnings: opts.deny_warnings,
        ..LintConfig::default()
    };
    for code in &opts.allow {
        config = config.allow(code.clone());
    }
    for code in &opts.deny {
        config = config.deny(code.clone());
    }
    let runner = LintRunner::new(config);

    // The examples carry their own zone classification and worksheet
    // (diagnostic claims included); a netlist file gets default worksheet
    // assumptions, so only the structural pack and the domain checks bite.
    let report = match opts.example {
        Some(ExampleDesign::Fmem) | Some(ExampleDesign::FmemBaseline) => {
            use soc_fmea::memsys::{build_netlist, fmea, MemSysConfig};
            let cfg = if opts.example == Some(ExampleDesign::Fmem) {
                MemSysConfig::hardened()
            } else {
                MemSysConfig::baseline()
            };
            let netlist = build_netlist(&cfg).map_err(|e| {
                eprintln!("socfmea: building example: {e}");
                ExitCode::FAILURE
            })?;
            let zones = extract_zones(&netlist, &fmea::extract_config());
            let worksheet = fmea::build_worksheet(&zones, &cfg);
            runner.run(&netlist, &zones, Some(&worksheet))
        }
        Some(ExampleDesign::Mcu) | Some(ExampleDesign::McuSingle) => {
            use soc_fmea::mcu::{build_mcu, fmea, programs, McuConfig};
            let cfg = if opts.example == Some(ExampleDesign::Mcu) {
                McuConfig::lockstep(programs::checksum_loop())
            } else {
                McuConfig::single(programs::checksum_loop())
            };
            let netlist = build_mcu(&cfg).map_err(|e| {
                eprintln!("socfmea: building example: {e}");
                ExitCode::FAILURE
            })?;
            let zones = extract_zones(&netlist, &fmea::extract_config());
            let worksheet = fmea::build_worksheet(&zones, &cfg);
            runner.run(&netlist, &zones, Some(&worksheet))
        }
        None => {
            let input = opts.input.as_deref().expect("validated by the parser");
            let netlist = load_netlist(input)?;
            let zones = extract_zones(&netlist, &opts.config);
            let worksheet = Worksheet::new(&zones);
            runner.run(&netlist, &zones, Some(&worksheet))
        }
    };

    match opts.format {
        LintFormat::Json => println!("{}", report.render_json()),
        LintFormat::Text => print!("{}", report.render_text()),
    }
    if report.has_errors() {
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("socfmea: {e}");
            return usage();
        }
    };
    let outcome = match &command {
        Command::Zones(o) => run_zones(o),
        Command::Analyze(o) => run_analyze(o),
        Command::Inject(o) => run_inject(o),
        Command::Lint(o) => run_lint(o),
        Command::TraceSummarize(o) => run_trace_summarize(o),
        Command::TraceFlame(o) => run_trace_flame(o),
        Command::TraceDiff(o) => run_trace_diff(o),
        Command::Serve(o) => run_serve(o),
        Command::Submit(o) => run_submit(o),
        Command::Status(o) => run_job_query(o, |c, j| c.status(j)),
        Command::Watch(o) => run_watch(o),
        Command::Cancel(o) => run_job_query(o, |c, j| c.cancel(j)),
        Command::Shutdown(o) => run_shutdown(o),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
