//! The campaigns: `fmem-mixed` (the paper's mixed validation campaign on
//! the hardened F-MEM), a workload of its own, and `mcu-stuckat` (the
//! exhaustive permanent-fault sweep of the lockstep MCU), whose layers
//! serve-mixed's traced run reports.
//!
//! A run sets the campaign up several times (`setup_s` is the median),
//! runs it once untimed to warm caches, then repeats `Campaign::run` over
//! the prepared artifacts for the requested seconds on one campaign
//! thread. Every repetition's verdicts are checked against the lockstep
//! reference, and every repetition's work counts must agree exactly.

use crate::oracle::Reference;
use crate::spans::Tracer;
use crate::stats::{iqr_share, median};
use crate::{layers, peak_rss_mb, serve, Metric, Outcome, RunConfig, Size};
use socfmea_core::{extract_zones, ZoneSet};
use socfmea_faultsim::{
    analyze, generate_fault_list, Campaign, CampaignArtifacts, CampaignResult, CampaignStats,
    Collapse, Engine, Environment, EnvironmentBuilder, Fault, FaultKind, FaultListConfig,
    OperationalProfile, Prune,
};
use socfmea_netlist::{Driver, Logic, NetId, Netlist};
use socfmea_obs::trace::TraceEvent;
use socfmea_obs::{Observer, TraceSink};
use socfmea_sim::Workload;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FmemMixed,
    McuStuckat,
}

/// Segments of the timed window, each opened by [`SETUPS`] timed set-ups;
/// `setup_s` is the median of all of them, and every segment runs the
/// campaign at least once.
const SEGMENTS: u32 = 6;
/// Timed set-ups at the opening of each segment.
const SETUPS: u32 = 2;
/// Set-ups of the permanent-fault sweep in serve-mixed's traced run.
const SETUPS_TRACED: u32 = 3;
/// Program-run cycles of the MCU sweep.
const MCU_CYCLES: usize = 4000;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FmemMixed => "fmem-mixed",
            Kind::McuStuckat => "mcu-stuckat",
        }
    }

    /// The bundled example with the same netlist (what `socfmea inject
    /// --example` and the campaign server build).
    pub fn example(self) -> &'static str {
        match self {
            Kind::FmemMixed => "fmem",
            Kind::McuStuckat => "mcu",
        }
    }

    /// Engine, collapse and prune settings: `inject` defaults for the mixed
    /// campaign, the full permanent-fault toolbox for the sweep.
    pub fn settings(self) -> (Engine, Collapse, Prune) {
        match self {
            Kind::FmemMixed => (Engine::Auto, Collapse::Off, Prune::Off),
            Kind::McuStuckat => (Engine::Auto, Collapse::Dictionary, Prune::Static),
        }
    }

    /// The fault list of the mixed campaign: the paper's list, or a
    /// smaller one with every fault kind for the smoke size.
    fn fault_config(size: Size) -> FaultListConfig {
        let paper = socfmea_bench::campaign_fault_config();
        match size {
            Size::Full => paper,
            Size::Smoke => FaultListConfig {
                bitflips_per_zone: 1,
                stuckats_per_zone: 1,
                local_faults_per_zone: 0,
                wide_faults: 2,
                bridge_faults: 1,
                ..paper
            },
        }
    }

    /// MCU program-run length in cycles.
    fn mcu_cycles(size: Size) -> usize {
        match size {
            Size::Full => MCU_CYCLES,
            Size::Smoke => 96,
        }
    }

    /// The lockstep reference compiled into the binary.
    pub fn reference_text(self, size: Size) -> &'static str {
        match (self, size) {
            (Kind::FmemMixed, Size::Full) => include_str!("../reference/fmem-mixed.ref"),
            (Kind::FmemMixed, Size::Smoke) => include_str!("../reference/fmem-mixed.smoke.ref"),
            (Kind::McuStuckat, Size::Full) => include_str!("../reference/mcu-stuckat.ref"),
            (Kind::McuStuckat, Size::Smoke) => include_str!("../reference/mcu-stuckat.smoke.ref"),
        }
    }

    /// Where [`reference_text`](Self::reference_text) lives in the package.
    pub fn reference_file(self, size: Size) -> String {
        let smoke = if size == Size::Smoke { ".smoke" } else { "" };
        format!("reference/{}{smoke}.ref", self.name())
    }
}

/// The owned inputs of a campaign: design, zones and stimulus.
#[derive(Debug)]
pub struct Design {
    pub example: &'static str,
    /// Net-name pattern of the alarm outputs.
    pub alarms: &'static str,
    pub netlist: Netlist,
    pub zones: ZoneSet,
    pub workload: Workload,
    pub sw_test_window: Option<(usize, usize)>,
}

impl Design {
    pub fn env(&self) -> Environment<'_> {
        EnvironmentBuilder::new(&self.netlist, &self.zones, &self.workload)
            .alarms_matching(self.alarms)
            .sw_test_window(self.sw_test_window)
            .build()
    }
}

/// A set-up campaign: the design, its profile, the fault list and the
/// prepared artifacts.
#[derive(Debug)]
pub struct Setup {
    pub design: Design,
    pub profile: OperationalProfile,
    pub faults: Vec<Fault>,
    pub settings: (Engine, Collapse, Prune),
    pub artifacts: Arc<CampaignArtifacts>,
}

/// Both stuck-at polarities on every driven, non-constant net, active
/// from cycle 0.
pub fn exhaustive_stuck_list(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (i, net) in netlist.nets().iter().enumerate() {
        if matches!(net.driver, Driver::None | Driver::Const(_)) {
            continue;
        }
        for value in [Logic::Zero, Logic::One] {
            faults.push(Fault {
                kind: FaultKind::StuckAt {
                    net: NetId::from_index(i),
                    value,
                },
                zone: None,
                inject_cycle: 0,
                label: format!("stuck {}-sa{value}", net.name),
            });
        }
    }
    faults
}

/// Builds the design, zones and stimulus, each call in its layer span.
fn build_design(kind: Kind, size: Size, tracer: &Tracer, job: u64, root: Option<u64>) -> Design {
    match kind {
        Kind::FmemMixed => {
            use socfmea_memsys::{certification_workload, fmea, MemSysConfig, MemSysPins};
            let cfg = match size {
                Size::Full => MemSysConfig::hardened(),
                Size::Smoke => MemSysConfig::hardened().with_words(16),
            };
            let netlist = tracer.span("rtl.elaborate", job, root, |_| {
                socfmea_memsys::build_netlist(&cfg).expect("memsys generator yields valid netlists")
            });
            let zones = tracer.span("core.extract_zones", job, root, |_| {
                extract_zones(&netlist, &fmea::extract_config())
            });
            let cert = tracer.span("memsys.workload", job, root, |_| {
                certification_workload(&MemSysPins::find(&netlist, &cfg), &cfg)
            });
            Design {
                example: kind.example(),
                alarms: "alarm_",
                netlist,
                zones,
                workload: cert.workload,
                sw_test_window: cert.sw_test_window,
            }
        }
        Kind::McuStuckat => {
            use socfmea_mcu::{build_mcu, fmea, programs, rtl::run_workload, McuConfig, McuPins};
            let netlist = tracer.span("rtl.elaborate", job, root, |_| {
                build_mcu(&McuConfig::lockstep(programs::checksum_loop()))
                    .expect("mcu generator yields valid netlists")
            });
            let zones = tracer.span("core.extract_zones", job, root, |_| {
                extract_zones(&netlist, &fmea::extract_config())
            });
            let workload = tracer.span("mcu.workload", job, root, |_| {
                run_workload(&McuPins::find(&netlist), Kind::mcu_cycles(size))
            });
            Design {
                example: kind.example(),
                alarms: "alarm_",
                netlist,
                zones,
                workload,
                sw_test_window: None,
            }
        }
    }
}

/// Everything an `inject` user pays before the first injection:
/// elaborate → zones → workload → environment → profile → fault list →
/// `CampaignArtifacts::prepare`.
pub fn setup(kind: Kind, size: Size, tracer: &Tracer, job: u64) -> Setup {
    tracer.span("setup", job, None, |root| {
        let design = build_design(kind, size, tracer, job, root);
        let env = tracer.span("faultsim.env", job, root, |_| design.env());
        let profile = tracer.span("faultsim.profile", job, root, |_| {
            OperationalProfile::collect(&env)
        });
        let faults = tracer.span("faultsim.faultlist", job, root, |_| match kind {
            Kind::FmemMixed => generate_fault_list(&env, &profile, &Kind::fault_config(size)),
            Kind::McuStuckat => exhaustive_stuck_list(&design.netlist),
        });
        let artifacts = prepare(&env, &faults, kind.settings(), tracer, job, root);
        drop(env);
        Setup {
            design,
            profile,
            faults,
            settings: kind.settings(),
            artifacts,
        }
    })
}

/// `CampaignArtifacts::prepare` at the default checkpoint interval.
pub fn prepare(
    env: &Environment<'_>,
    faults: &[Fault],
    (engine, collapse, prune): (Engine, Collapse, Prune),
    tracer: &Tracer,
    job: u64,
    root: Option<u64>,
) -> Arc<CampaignArtifacts> {
    tracer.span("faultsim.prepare", job, root, |_| {
        Arc::new(CampaignArtifacts::prepare(
            env,
            faults,
            engine,
            Campaign::DEFAULT_CHECKPOINT_INTERVAL,
            collapse,
            prune,
        ))
    })
}

/// The lockstep reference verdicts of a workload's fault list.
pub fn derive_reference(kind: Kind, size: Size) -> Reference {
    let s = setup(kind, size, &Tracer::new(false), 0);
    let env = s.design.env();
    let result = Campaign::new(&env, &s.faults)
        .threads(1)
        .engine(Engine::Lockstep)
        .run();
    Reference::from_result(&s.faults, &result)
}

/// A `Write` that keeps a copy of everything written to it.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("capture lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The exact work counts of one campaign repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    simulated: usize,
    collapsed: usize,
    pruned: usize,
    cycles_simulated: u64,
    cycles_skipped: u64,
    ppsfp_words: u64,
    ppsfp_batches: u64,
    ppsfp_lanes: u64,
}

impl Counts {
    fn of(stats: &CampaignStats) -> Counts {
        Counts {
            simulated: stats.faults_done(),
            collapsed: stats.faults_collapsed(),
            pruned: stats.faults_pruned(),
            cycles_simulated: stats.cycles_simulated(),
            cycles_skipped: stats.cycles_skipped(),
            ppsfp_words: stats.ppsfp_words(),
            ppsfp_batches: stats.ppsfp_batches(),
            ppsfp_lanes: stats.ppsfp_lanes(),
        }
    }
}

/// What a traced repetition adds: the observer's engine counters and the
/// size of the trace it streamed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TracedCounts {
    engines: Vec<u64>,
    records: u64,
    bytes: u64,
}

const ENGINES: [&str; 6] = [
    "lockstep",
    "sparse",
    "warm",
    "ppsfp",
    "dictionary",
    "pruned",
];

struct Rep {
    secs: f64,
    counts: Counts,
    traced: Option<TracedCounts>,
}

/// One `Campaign::run` over the prepared artifacts, timed from outside.
fn run_once(
    env: &Environment<'_>,
    s: &Setup,
    observer: Option<&Observer>,
) -> (Rep, CampaignResult) {
    let (engine, collapse, prune) = s.settings;
    let mut campaign = Campaign::new(env, &s.faults)
        .threads(1)
        .engine(engine)
        .checkpoint_interval(Campaign::DEFAULT_CHECKPOINT_INTERVAL)
        .collapsing(collapse)
        .pruning(prune)
        .artifacts(Arc::clone(&s.artifacts));
    if let Some(obs) = observer {
        campaign = campaign.observe(obs);
    }
    let stats = campaign.stats();
    let t0 = Instant::now();
    let result = campaign.run();
    let rep = Rep {
        secs: t0.elapsed().as_secs_f64(),
        counts: Counts::of(&stats),
        traced: None,
    };
    (rep, result)
}

/// The trace as the campaign server streams it: wall-clock fields zeroed,
/// span and phase records dropped, so its size is an exact count.
fn normalize(ev: TraceEvent) -> Option<TraceEvent> {
    match ev {
        TraceEvent::Fault(mut r) => {
            r.nanos = 0;
            r.shard = None;
            Some(TraceEvent::Fault(r))
        }
        TraceEvent::Span { .. } | TraceEvent::Phase { .. } => None,
        TraceEvent::End {
            faults,
            no_effect,
            safe_detected,
            dangerous_detected,
            dangerous_undetected,
            dc,
            sff,
            elapsed_nanos: _,
        } => Some(TraceEvent::End {
            faults,
            no_effect,
            safe_detected,
            dangerous_detected,
            dangerous_undetected,
            dc,
            sff,
            elapsed_nanos: 0,
        }),
        meta @ TraceEvent::Meta { .. } => Some(meta),
    }
}

/// One traced repetition: an observer with a capturing, normalizing trace
/// sink. Returns the captured trace too.
fn run_traced(
    env: &Environment<'_>,
    s: &Setup,
    tracer: &Tracer,
    job: u64,
) -> (Rep, CampaignResult, Vec<u8>) {
    let capture = Capture::default();
    let observer = Observer::with_sink(TraceSink::to_writer_mapped(
        Box::new(capture.clone()),
        Box::new(normalize),
    ));
    let (mut rep, result) = tracer.span("faultsim.run", job, None, |_| {
        run_once(env, s, Some(&observer))
    });
    let engines = ENGINES
        .iter()
        .map(|e| observer.counter(&format!("campaign.engine.{e}")).get())
        .collect();
    observer.finish().expect("an in-memory trace cannot fail");
    let bytes = std::mem::take(&mut *capture.0.lock().expect("capture lock"));
    let counts = TracedCounts {
        engines,
        records: bytes.iter().filter(|&&b| b == b'\n').count() as u64,
        bytes: bytes.len() as u64,
    };
    rep.traced = Some(counts);
    (rep, result, bytes)
}

/// The repetitions of one timed window.
pub struct Timed {
    /// The untimed warm-up: the base every repetition's counts must match.
    warm: Rep,
    warm_result: CampaignResult,
    reps: Vec<Rep>,
    /// The first traced repetition's normalized trace.
    trace: Vec<u8>,
}

impl Timed {
    /// Runs the campaign once untimed, to warm caches and fix the counts
    /// every later repetition must repeat exactly.
    pub fn warm_up(
        s: &Setup,
        out: &mut Outcome,
        check: &mut dyn FnMut(&Setup, &CampaignResult) -> usize,
    ) -> Timed {
        let (warm, warm_result) = run_once(&s.design.env(), s, None);
        tally(s, &warm_result, out, check);
        Timed {
            warm,
            warm_result,
            reps: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Repeats the campaign of `s` until `until` (at least `min_reps`
    /// times). In a traced run every other repetition is traced, so the
    /// tracing overhead is measured under the same host conditions.
    /// Repetitions whose exact work counts differ fail.
    pub fn extend(
        &mut self,
        s: &Setup,
        until: Instant,
        min_reps: usize,
        tracer: &Tracer,
        out: &mut Outcome,
        check: &mut dyn FnMut(&Setup, &CampaignResult) -> usize,
    ) {
        let env = s.design.env();
        let first = self.reps.len();
        while self.reps.len() - first < min_reps || Instant::now() < until {
            let (rep, result) = if tracer.enabled() && self.reps.len() % 2 == 1 {
                let (rep, result, trace) = run_traced(&env, s, tracer, self.reps.len() as u64);
                if self.trace.is_empty() {
                    self.trace = trace;
                }
                (rep, result)
            } else {
                run_once(&env, s, None)
            };
            tally(s, &result, out, check);
            if rep.counts != self.warm.counts {
                out.failed += 1;
                out.notes.push(format!(
                    "work counts differ between repetitions: {:?} vs {:?}",
                    self.warm.counts, rep.counts
                ));
            }
            let first_traced = self.reps.iter().find_map(|r| r.traced.as_ref());
            if let (Some(a), Some(b)) = (&rep.traced, first_traced) {
                if a != b {
                    out.failed += 1;
                    out.notes
                        .push(format!("traced work counts differ: {a:?} vs {b:?}"));
                }
            }
            self.reps.push(rep);
        }
    }

    /// Wall seconds of the plain (untraced) repetitions.
    fn plain_secs(&self) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| r.traced.is_none())
            .map(|r| r.secs)
            .collect()
    }
}

/// Counts one repetition's verdicts as attempted and its mismatches as
/// failed.
fn tally(
    s: &Setup,
    result: &CampaignResult,
    out: &mut Outcome,
    check: &mut dyn FnMut(&Setup, &CampaignResult) -> usize,
) {
    out.attempted += s.faults.len() as u64;
    out.failed += check(s, result).min(s.faults.len()) as u64;
}

/// The end-to-end metrics of a campaign window: a job is one
/// `Campaign::run` of the prepared fault list.
fn e2e_metrics(faults: usize, setup_secs: &[f64], t: &Timed, out: &mut Outcome) {
    let secs = t.plain_secs();
    let run = median(&secs);
    out.e2e = vec![
        Metric::new("faults_per_s", faults as f64 / run, "1/s"),
        Metric::new("setup_s", median(setup_secs), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("jobs_per_s", 1.0 / run, "1/s"),
        Metric::new("job_p50_ms", run * 1e3, "ms"),
    ];
    out.notes.push(format!(
        "job = one Campaign::run: {} samples (s) {:.3?}; set-ups (s) {:.3?}",
        secs.len(),
        secs,
        setup_secs
    ));
}

/// The campaign-layer metrics of a traced window, plus the layer probe
/// over the same design and fault list.
pub fn layer_metrics(s: &Setup, t: &Timed, tracer: &Tracer, out: &mut Outcome) {
    let faults = s.faults.len();
    let plain = t.plain_secs();
    let traced: Vec<f64> = t
        .reps
        .iter()
        .filter(|r| r.traced.is_some())
        .map(|r| r.secs)
        .collect();
    let tc = t
        .reps
        .iter()
        .find_map(|r| r.traced.as_ref())
        .expect("a traced window has a traced repetition");
    let c = &t.warm.counts;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let med = |name: &str| median(&tracer.millis(name));
    let m = &mut out.layers;
    for (metric, span) in [
        ("rtl.elaborate_ms", "rtl.elaborate"),
        ("core.extract_zones_ms", "core.extract_zones"),
        ("faultsim.env_ms", "faultsim.env"),
        ("faultsim.profile_ms", "faultsim.profile"),
        ("faultsim.faultlist_ms", "faultsim.faultlist"),
        ("faultsim.prepare_ms", "faultsim.prepare"),
    ] {
        m.push(Metric::new(metric, med(span), "ms"));
    }
    m.push(Metric::new("faultsim.run_s", median(&traced), "s"));
    m.push(Metric::new(
        "faultsim.us_per_simulated_fault",
        median(&plain) * 1e6 / c.simulated.max(1) as f64,
        "us",
    ));
    m.push(Metric::count("faultsim.faults", faults as u64));
    m.push(Metric::count(
        "faultsim.faults_simulated",
        c.simulated as u64,
    ));
    m.push(Metric::count(
        "faultsim.faults_collapsed",
        c.collapsed as u64,
    ));
    // CampaignStats::collapse_ratio: (simulated + collapsed) / simulated
    m.push(Metric::new(
        "faultsim.collapse_ratio",
        ratio((c.simulated + c.collapsed) as u64, c.simulated as u64),
        "ratio",
    ));
    m.push(Metric::count("static.faults_pruned", c.pruned as u64));
    m.push(Metric::new(
        "static.prune_ratio",
        ratio(c.pruned as u64, faults as u64),
        "ratio",
    ));
    m.push(Metric::count("accel.cycles_simulated", c.cycles_simulated));
    m.push(Metric::count("accel.cycles_skipped", c.cycles_skipped));
    m.push(Metric::new(
        "accel.skip_ratio",
        ratio(c.cycles_skipped, c.cycles_simulated + c.cycles_skipped),
        "ratio",
    ));
    m.push(Metric::count("faultsim.ppsfp_words", c.ppsfp_words));
    m.push(Metric::new(
        "faultsim.lanes_per_word",
        ratio(c.ppsfp_lanes, c.ppsfp_batches),
        "lanes",
    ));
    for (engine, n) in ENGINES.iter().zip(&tc.engines) {
        m.push(Metric::count(&format!("faultsim.engine.{engine}"), *n));
    }
    m.push(Metric::count("obs.trace_records", tc.records));
    m.push(Metric::count("obs.trace_bytes", tc.bytes));
    let analyze_ms: Vec<f64> = (0..3)
        .map(|i| {
            tracer.span("faultsim.analyze", i, None, |_| {
                let t0 = Instant::now();
                std::hint::black_box(analyze(&s.faults, &t.warm_result, &s.profile));
                t0.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect();
    m.push(Metric::new(
        "faultsim.analyze_ms",
        median(&analyze_ms),
        "ms",
    ));
    // signed: a traced run that happens to beat the plain one shows as a
    // negative overhead, next to the plain run's own spread
    m.push(Metric::new(
        "perfbench.trace_overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
        "%",
    ));
    m.push(Metric::new(
        "perfbench.untraced_iqr_pct",
        iqr_share(&plain) * 100.0,
        "%",
    ));
    layers::probe(&s.design, tracer, &t.trace, out);
}

/// The campaign layers of the permanent-fault sweep, the one campaign
/// where PPSFP, collapse and static prune do real work; serve-mixed's
/// traced run reports them. Every repetition is checked against the
/// sweep's lockstep reference.
pub fn sweep_layers(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome) {
    let kind = Kind::McuStuckat;
    let reference = Reference::parse(kind.reference_text(cfg.size))
        .unwrap_or_else(|e| panic!("{}: {e}", kind.reference_file(cfg.size)));
    let mut check = |s: &Setup, result: &CampaignResult| reference.check(&s.faults, result);
    let mut s = setup(kind, cfg.size, tracer, 0);
    for job in 1..SETUPS_TRACED {
        drop(s);
        s = setup(kind, cfg.size, tracer, u64::from(job));
    }
    let mut t = Timed::warm_up(&s, out, &mut check);
    let until = Instant::now() + Duration::from_secs(2);
    t.extend(&s, until, 4, tracer, out, &mut check);
    out.notes.push(format!(
        "{}: {} faults; {} traced-window repetitions",
        kind.name(),
        s.faults.len(),
        t.reps.len()
    ));
    layer_metrics(&s, &t, tracer, out);
}

/// Runs a campaign workload end to end; see the module docs. The window
/// is cut into segments, each opening with fresh timed set-ups, so the
/// set-up samples span the run the way the repetitions do.
pub fn run(kind: Kind, cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let reference = Reference::parse(kind.reference_text(cfg.size))
        .unwrap_or_else(|e| panic!("{}: {e}", kind.reference_file(cfg.size)));
    let mut check = |s: &Setup, result: &CampaignResult| reference.check(&s.faults, result);
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    // one set-up alive at a time, as in a single `inject` run
    let mut timed_setups = |previous: Option<Setup>| {
        let mut s = previous;
        for _ in 0..SETUPS {
            drop(s.take());
            let t0 = Instant::now();
            s = Some(setup(kind, cfg.size, &tracer, setup_secs.len() as u64));
            setup_secs.push(t0.elapsed().as_secs_f64());
        }
        s.expect("at least one set-up")
    };
    let mut s = timed_setups(None);
    let mut t = Timed::warm_up(&s, &mut out, &mut check);
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    for segment in 1..=SEGMENTS {
        let until = start + window * segment / SEGMENTS;
        t.extend(&s, until, 1, &tracer, &mut out, &mut check);
        if segment < SEGMENTS {
            s = timed_setups(Some(s));
        }
    }
    out.notes.push(format!(
        "{}: {} faults; {} timed repetitions in {:.1}s",
        kind.name(),
        s.faults.len(),
        t.reps.len(),
        start.elapsed().as_secs_f64()
    ));
    if cfg.trace {
        layer_metrics(&s, &t, &tracer, &mut out);
        serve::probe(s.design.example, cfg, &tracer, &mut out);
        out.spans = tracer.to_jsonl();
    } else {
        e2e_metrics(s.faults.len(), &setup_secs, &t, &mut out);
    }
    out
}
