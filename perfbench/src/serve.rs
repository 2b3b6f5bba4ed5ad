//! The `serve-mixed` workload: an in-process `socfmea serve` (one worker,
//! telemetry on) driven by two closed-loop clients, one per tenant. Each
//! client submits a job, follows its `/trace` stream to the end, then
//! submits the next — the `submit --watch` pattern CI uses.
//!
//! The seeded job sequence mixes three classes:
//!
//! * `warm`: resubmissions of bundled examples at a fixed seed, answered
//!   from the artifact cache;
//! * `spec_cold`: a cached example design at a fresh seed, which rebuilds
//!   workload, fault list, golden trace and plans;
//! * `design_cold`: the example's Verilog dump under a fresh module name,
//!   which also pays parse, zone extraction and the design key.
//!
//! After the timed window every job must have ended `done`, and its
//! streamed `end` record must equal that of an untimed in-process lockstep
//! campaign of the same (design, spec).

use crate::campaign;
use crate::layers::{job_body, rename_module};
use crate::spans::Tracer;
use crate::stats::{beyond, median, quantile};
use crate::{peak_rss_mb, Metric, Outcome, RunConfig, Size};
use socfmea_faultsim::{
    generate_fault_list, Campaign, CampaignResult, Engine, EnvironmentBuilder, FaultListConfig,
    OperationalProfile,
};
use socfmea_obs::json::{self, Value};
use socfmea_serve::{random_workload, resolve, Client, DesignRef, Example, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Workload cycles of every job: short, so the campaign part stays small.
pub const CYCLES: usize = 16;
/// The seed of every warm submission.
const WARM_SEED: u64 = 7;
/// Server start-ups before the window and again after it; `setup_s` is
/// the median of all of them.
const SETUP_REPS: usize = 6;
/// The server counters read after the closed loop.
const COUNTERS: [&str; 6] = [
    "serve.cache.design.hit",
    "serve.cache.design.miss",
    "serve.cache.spec.hit",
    "serve.cache.spec.miss",
    "serve.build.artifacts",
    "serve.jobs.rejected",
];
/// Closed-loop seconds of the serve probe in a campaign workload's traced
/// run.
const PROBE_SECONDS: f64 = 2.0;

/// A SplitMix64 stream: the source of every seeded choice of the mix.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A job class of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Warm,
    SpecCold,
    DesignCold,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::SpecCold => "spec_cold",
            Class::DesignCold => "design_cold",
        }
    }
}

/// The traffic mix: which designs each class submits and how often.
#[derive(Debug, Clone)]
struct Mix {
    /// The example resubmitted warm; pre-warmed during set-up.
    warm: &'static str,
    /// The example submitted at fresh seeds.
    spec_cold: &'static str,
    /// The example whose Verilog dump is submitted under fresh names.
    design_cold: &'static str,
}

/// Jobs per class in every block of 20 jobs. A client draws its jobs
/// block by block, each block in a seeded order, so every run meets the
/// same mix to within one block.
const SHARES: [(Class, usize); 3] = [
    (Class::Warm, 15),
    (Class::SpecCold, 3),
    (Class::DesignCold, 2),
];

impl Mix {
    /// Latencies sort by class — spec-cold `mcu-single` jobs are the
    /// fastest, warm `fmem` jobs (which still re-elaborate the example on
    /// every submit) fill the middle, design-cold `mcu` jobs are the
    /// slowest — so the 75/15/10 split puts p50 deep inside the warm class
    /// and p95 inside the design-cold one, not on a class boundary.
    fn serve_mixed() -> Mix {
        Mix {
            warm: "fmem",
            spec_cold: "mcu-single",
            design_cold: "mcu",
        }
    }

    /// The probe mix of a campaign workload: every class on its example.
    fn probe(example: &'static str) -> Mix {
        Mix {
            warm: example,
            spec_cold: example,
            design_cold: example,
        }
    }
}

/// What a job submitted: the oracle key of its (design, spec).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum JobDesign {
    Example(&'static str),
    /// The design-cold example renamed with this tag.
    Renamed(String),
}

/// A job's streamed `end` record: outcome totals and DC/SFF.
#[derive(Debug, Clone, PartialEq)]
struct End {
    counts: [u64; 5],
    dc: Option<f64>,
    sff: Option<f64>,
}

impl End {
    fn of_result(r: &CampaignResult) -> End {
        let (ne, sd, dd, du) = r.outcome_counts();
        End {
            counts: [
                r.outcomes.len() as u64,
                ne as u64,
                sd as u64,
                dd as u64,
                du as u64,
            ],
            dc: r.measured_dc(),
            sff: r.measured_sff(),
        }
    }

    fn parse(line: &str) -> Option<End> {
        let v = json::parse(line).ok()?;
        if v.get("ev")?.as_str()? != "end" {
            return None;
        }
        let n = |k: &str| v.get(k).and_then(Value::as_u64);
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(End {
            counts: [n("faults")?, n("ne")?, n("sd")?, n("dd")?, n("du")?],
            dc: f("dc"),
            sff: f("sff"),
        })
    }
}

/// One job of the sequence: its class, its (design, spec) and its body.
struct Submission {
    class: Class,
    design: JobDesign,
    seed: u64,
    body: String,
}

/// One job as the client saw it.
#[derive(Debug)]
struct Sample {
    class: Class,
    design: JobDesign,
    seed: u64,
    /// `None` when the submission was refused.
    job: Option<String>,
    submit_ms: f64,
    first_ms: f64,
    total_ms: f64,
    stream_bytes: usize,
    end: Option<End>,
}

/// A `Write` sink that timestamps the first streamed byte and keeps the
/// stream's last line.
struct Stream {
    t0: Instant,
    first: Option<Instant>,
    bytes: usize,
    buf: Vec<u8>,
}

impl Write for Stream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.first.is_none() && !data.is_empty() {
            self.first = Some(Instant::now());
        }
        self.bytes += data.len();
        self.buf.extend_from_slice(data);
        // keep only the unfinished line and the last complete one
        let text_end = self.buf.len().saturating_sub(1);
        if let Some(cut) = self.buf[..text_end].iter().rposition(|&b| b == b'\n') {
            self.buf.drain(..=cut);
        }
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The job sequence of one client, drawn from the run seed.
struct Jobs<'m> {
    mix: &'m Mix,
    rng: Rng,
    tenant: String,
    /// Keeps the two clients' module names apart (and valid identifiers).
    tag_prefix: String,
    /// What is left of the current block, drawn from the back.
    block: Vec<Class>,
}

impl Jobs<'_> {
    fn next(&mut self, cold: &ColdSource) -> Submission {
        if self.block.is_empty() {
            for (class, n) in SHARES {
                self.block.extend(std::iter::repeat_n(class, n));
            }
            // Fisher-Yates
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let class = self.block.pop().expect("a refilled block");
        let (design, seed) = match class {
            Class::Warm => (JobDesign::Example(self.mix.warm), WARM_SEED),
            Class::SpecCold => (
                JobDesign::Example(self.mix.spec_cold),
                self.rng.next_u64() >> 24,
            ),
            Class::DesignCold => {
                let tag = format!("{}{:012x}", self.tag_prefix, self.rng.next_u64() >> 16);
                (JobDesign::Renamed(tag), WARM_SEED)
            }
        };
        let body = match &design {
            JobDesign::Example(ex) => {
                job_body(DesignRef::Example((*ex).into()), &self.tenant, seed)
            }
            JobDesign::Renamed(tag) => {
                job_body(DesignRef::Verilog(cold.renamed(tag)), &self.tenant, seed)
            }
        };
        Submission {
            class,
            design,
            seed,
            body,
        }
    }
}

/// Submits a job and follows its trace to the end.
fn submit_and_watch(client: &Client, sub: Submission, tracer: &Tracer, job: u64) -> Sample {
    let t0 = Instant::now();
    let mut sample = Sample {
        class: sub.class,
        design: sub.design,
        seed: sub.seed,
        job: None,
        submit_ms: f64::NAN,
        first_ms: f64::NAN,
        total_ms: f64::NAN,
        stream_bytes: 0,
        end: None,
    };
    tracer.span("serve.job", job, None, |root| {
        let resp = tracer.span("serve.submit", job, root, |_| client.submit_raw(&sub.body));
        sample.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let Ok(resp) = resp else { return };
        if resp.status != 202 {
            return;
        }
        let Some(id) = json::parse(&resp.text())
            .ok()
            .and_then(|d| d.get("job").and_then(Value::as_str).map(str::to_owned))
        else {
            return;
        };
        let mut stream = Stream {
            t0: Instant::now(),
            first: None,
            bytes: 0,
            buf: Vec::new(),
        };
        let watched = tracer.span("serve.watch", job, root, |_| client.watch(&id, &mut stream));
        let end = Instant::now();
        if let Some(first) = stream.first {
            tracer.record("serve.first_record", job, root, stream.t0, first);
            sample.first_ms = first.duration_since(t0).as_secs_f64() * 1e3;
        }
        sample.total_ms = end.duration_since(t0).as_secs_f64() * 1e3;
        sample.stream_bytes = stream.bytes;
        if matches!(watched, Ok(200)) {
            sample.end = End::parse(String::from_utf8_lossy(&stream.buf).trim_end());
        }
        sample.job = Some(id);
    });
    sample
}

/// A started server with its warm classes pre-warmed.
struct Running {
    server: Server,
    client: Client,
}

/// Server start to ready, plus one pre-warm submission of the warm class.
fn start(mix: &Mix, out: &mut Outcome) -> (Running, f64) {
    let t0 = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        default_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind the campaign server on localhost");
    let client = Client::new(server.addr().to_string());
    while !matches!(client.healthz(), Ok(r) if r.status == 200) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let prewarm = Submission {
        class: Class::Warm,
        design: JobDesign::Example(mix.warm),
        seed: WARM_SEED,
        body: job_body(DesignRef::Example(mix.warm.into()), "setup", WARM_SEED),
    };
    out.attempted += 1;
    if submit_and_watch(&client, prewarm, &Tracer::new(false), 0)
        .end
        .is_none()
    {
        out.failed += 1;
        out.notes
            .push(format!("pre-warm job on {} failed", mix.warm));
    }
    (Running { server, client }, t0.elapsed().as_secs_f64())
}

impl Running {
    fn stop(self) {
        let _ = self.client.shutdown();
        self.server.join();
    }

    /// The named counters from `/v1/metrics?format=json` (0 when absent).
    ///
    /// The document holds every job's labeled series, so it is searched
    /// for the few names needed instead of parsed whole.
    fn counters(&self, names: &[&str]) -> BTreeMap<String, u64> {
        let doc = self
            .client
            .metrics_json()
            .map(|r| r.text())
            .unwrap_or_default();
        names
            .iter()
            .map(|&name| {
                let value = doc
                    .find(&format!("\"{name}\":"))
                    .map(|at| &doc[at + name.len() + 3..])
                    .and_then(|rest| {
                        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
                        rest[..digits].parse().ok()
                    })
                    .unwrap_or(0);
                (name.to_owned(), value)
            })
            .collect()
    }
}

/// The in-process oracle: `(design, seed)` → the lockstep `end` record of
/// the server's pipeline (resolve, random workload, fault list) on it.
struct Oracle<'c> {
    cold: &'c ColdSource,
    ends: BTreeMap<(JobDesign, u64), End>,
}

impl Oracle<'_> {
    fn end(&mut self, design: &JobDesign, seed: u64) -> &End {
        let key = (design.clone(), seed);
        if !self.ends.contains_key(&key) {
            let reference = match design {
                JobDesign::Example(ex) => DesignRef::Example((*ex).into()),
                JobDesign::Renamed(tag) => DesignRef::Verilog(self.cold.renamed(tag)),
            };
            let resolved = resolve(&reference).expect("the job resolved on the server");
            let workload = random_workload(&resolved.netlist, seed, CYCLES);
            let env = EnvironmentBuilder::new(&resolved.netlist, &resolved.zones, &workload)
                .alarms_matching("alarm")
                .build();
            let profile = OperationalProfile::collect(&env);
            let faults = generate_fault_list(
                &env,
                &profile,
                &FaultListConfig {
                    seed,
                    ..FaultListConfig::default()
                },
            );
            let result = Campaign::new(&env, &faults)
                .threads(1)
                .engine(Engine::Lockstep)
                .run();
            self.ends.insert(key.clone(), End::of_result(&result));
        }
        &self.ends[&key]
    }
}

/// The design-cold base: an example's Verilog dump and module name.
struct ColdSource {
    dump: String,
    module: String,
}

impl ColdSource {
    fn new(example: &str) -> ColdSource {
        let (netlist, _) = Example::parse(example)
            .expect("bundled example")
            .build()
            .expect("bundled examples elaborate");
        ColdSource {
            dump: socfmea_netlist::write_verilog(&netlist),
            module: netlist.name().to_owned(),
        }
    }

    /// The dump under a module name the server has not seen.
    fn renamed(&self, tag: &str) -> String {
        rename_module(&self.dump, &self.module, tag)
    }
}

/// Everything one closed loop measured.
struct Traffic {
    samples: Vec<Sample>,
    window: f64,
    counters: BTreeMap<String, u64>,
    retained: u64,
    rtt_us: Vec<f64>,
}

/// Runs the two closed-loop clients against `running` for `seconds`,
/// then checks every job and reads the server's counters.
fn closed_loop(
    running: &Running,
    mix: &Mix,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Traffic {
    let cold = ColdSource::new(mix.design_cold);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // the loop also runs on until every class has answered once (a short
    // probe on a slow design might otherwise miss one), up to a hard stop
    let hard_stop = deadline + Duration::from_secs(60);
    let answered: [AtomicUsize; 3] = Default::default();
    let more = || {
        let now = Instant::now();
        now < deadline
            || (now < hard_stop && answered.iter().any(|n| n.load(Ordering::Relaxed) == 0))
    };
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = ["tenant-a", "tenant-b"]
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                let (client, cold, more, answered) =
                    (running.client.clone(), &cold, &more, &answered);
                scope.spawn(move || {
                    let mut jobs = Jobs {
                        mix,
                        rng: Rng::new(seed.wrapping_mul(2).wrapping_add(i as u64)),
                        tenant: (*tenant).to_owned(),
                        tag_prefix: format!("c{i}_"),
                        block: Vec::new(),
                    };
                    let mut samples = Vec::new();
                    while more() {
                        let job = (i as u64) << 32 | samples.len() as u64;
                        let sample = submit_and_watch(&client, jobs.next(cold), tracer, job);
                        if sample.end.is_some() {
                            answered[sample.class as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();

    // every job must end `done` and match the lockstep oracle
    let oracle_t0 = Instant::now();
    let mut oracle = Oracle {
        cold: &cold,
        ends: BTreeMap::new(),
    };
    for s in &samples {
        out.attempted += 1;
        let done = s
            .job
            .as_ref()
            .is_some_and(|id| ends_done(&running.client, id));
        let matches = s
            .end
            .as_ref()
            .is_some_and(|end| end == oracle.end(&s.design, s.seed));
        if !(done && matches) {
            out.failed += 1;
            out.notes.push(format!(
                "{} job {:?} on {:?} seed {}: done={done} end-matches-oracle={matches}",
                s.class.name(),
                s.job,
                s.design,
                s.seed
            ));
        }
    }
    out.notes.push(format!(
        "oracle: {} distinct (design, spec) campaigns in {:.1}s",
        oracle.ends.len(),
        oracle_t0.elapsed().as_secs_f64()
    ));
    let counters = running.counters(&COUNTERS);
    let retained = running
        .client
        .healthz()
        .ok()
        .and_then(|r| json::parse(&r.text()).ok())
        .and_then(|d| d.get("jobs").and_then(Value::as_u64))
        .unwrap_or(0);
    let rtt_us = if tracer.enabled() {
        (0..50)
            .map(|_| {
                let t0 = Instant::now();
                let _ = running.client.healthz();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    } else {
        Vec::new()
    };
    Traffic {
        samples,
        window,
        counters,
        retained,
        rtt_us,
    }
}

/// Whether job `id` reached `done` (the stream closes a moment before the
/// job records its terminal state, so a `running` job is polled briefly).
fn ends_done(client: &Client, id: &str) -> bool {
    for _ in 0..200 {
        let state = client
            .status(id)
            .ok()
            .and_then(|r| json::parse(&r.text()).ok())
            .and_then(|d| d.get("state").and_then(Value::as_str).map(str::to_owned));
        match state.as_deref() {
            Some("done") => return true,
            Some("running") => std::thread::sleep(Duration::from_millis(5)),
            _ => return false,
        }
    }
    false
}

/// The per-layer `serve.*` metrics of a closed loop.
fn serve_layers(traffic: &Traffic, out: &mut Outcome) {
    let c = |k: &str| traffic.counters.get(k).copied().unwrap_or(0);
    let hit_ratio = |level: &str| {
        let (hit, miss) = (
            c(&format!("serve.cache.{level}.hit")),
            c(&format!("serve.cache.{level}.miss")),
        );
        hit as f64 / (hit + miss).max(1) as f64
    };
    let class_ms = |class: Class| -> Vec<f64> {
        traffic
            .samples
            .iter()
            .filter(|s| s.class == class && s.end.is_some())
            .map(|s| s.total_ms)
            .collect()
    };
    // exact accounting: one artifact build for the pre-warm and per
    // spec-cold and design-cold job; nothing for a warm one
    let cold = traffic
        .samples
        .iter()
        .filter(|s| s.class != Class::Warm && s.job.is_some())
        .count() as u64;
    let builds = c("serve.build.artifacts");
    if builds != 1 + cold {
        out.failed += 1;
        out.notes.push(format!(
            "artifact builds {builds} != 1 pre-warm + {cold} cold jobs"
        ));
    }
    let submit: Vec<f64> = traffic.samples.iter().map(|s| s.submit_ms).collect();
    let done = || traffic.samples.iter().filter(|s| s.end.is_some());
    let total: Vec<f64> = done().map(|s| s.total_ms).collect();
    let firsts: Vec<f64> = done().map(|s| s.first_ms).collect();
    let m = &mut out.layers;
    m.push(Metric::new("serve.submit_ms_p50", median(&submit), "ms"));
    m.push(Metric::new(
        "serve.job_p95_ms",
        quantile(&total, 0.95),
        "ms",
    ));
    m.push(Metric::new(
        "serve.first_record_p50_ms",
        median(&firsts),
        "ms",
    ));
    m.push(Metric::new(
        "serve.http_rtt_us_p50",
        median(&traffic.rtt_us),
        "us",
    ));
    for class in [Class::Warm, Class::SpecCold, Class::DesignCold] {
        m.push(Metric::new(
            &format!("serve.job_p50_ms.{}", class.name()),
            median(&class_ms(class)),
            "ms",
        ));
    }
    m.push(Metric::new(
        "serve.cache.design_hit_ratio",
        hit_ratio("design"),
        "ratio",
    ));
    m.push(Metric::new(
        "serve.cache.spec_hit_ratio",
        hit_ratio("spec"),
        "ratio",
    ));
    m.push(Metric::count("serve.build.artifacts", builds));
    m.push(Metric::count(
        "serve.jobs_rejected",
        c("serve.jobs.rejected"),
    ));
    m.push(Metric::count("serve.jobs_retained", traffic.retained));
    m.push(Metric::count(
        "serve.stream_bytes",
        traffic.samples.iter().map(|s| s.stream_bytes as u64).sum(),
    ));
}

/// The serve probe of a campaign workload's traced run: a short closed
/// loop of every job class on the workload's own example design.
pub fn probe(example: &'static str, cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome) {
    let mix = Mix::probe(example);
    let (running, _) = start(&mix, out);
    let seconds = match cfg.size {
        Size::Full => PROBE_SECONDS,
        Size::Smoke => 0.5,
    };
    let traffic = closed_loop(&running, &mix, cfg.seed, seconds, tracer, out);
    running.stop();
    serve_layers(&traffic, out);
}

/// Runs serve-mixed end to end; see the module docs.
pub fn run(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let mix = Mix::serve_mixed();
    let mut out = Outcome::default();
    // half the timed start-ups before the window and half after it, so
    // `setup_s` samples the host at both ends of the run
    let mut setup_secs = Vec::new();
    let mut start_up = |out: &mut Outcome| {
        let (running, secs) = start(&mix, out);
        setup_secs.push(secs);
        running
    };
    for _ in 1..SETUP_REPS {
        start_up(&mut out).stop();
    }
    let running = start_up(&mut out);
    let seconds = match cfg.size {
        Size::Full => cfg.seconds,
        Size::Smoke => cfg.seconds.min(1.0),
    };
    let traffic = closed_loop(&running, &mix, cfg.seed, seconds, &tracer, &mut out);
    running.stop();
    for _ in 0..SETUP_REPS {
        start_up(&mut out).stop();
    }
    let ok: Vec<&Sample> = traffic.samples.iter().filter(|s| s.end.is_some()).collect();
    let total: Vec<f64> = ok.iter().map(|s| s.total_ms).collect();
    let classes: BTreeMap<Class, usize> =
        traffic.samples.iter().fold(BTreeMap::new(), |mut m, s| {
            *m.entry(s.class).or_default() += 1;
            m
        });
    out.notes.push(format!(
        "serve-mixed: {} jobs in {:.1}s; p95 rests on {} samples beyond it",
        traffic.samples.len(),
        traffic.window,
        beyond(&total, 0.95)
    ));
    for (class, n) in &classes {
        let ms: Vec<f64> = ok
            .iter()
            .filter(|s| s.class == *class)
            .map(|s| s.total_ms)
            .collect();
        let faults: u64 = ok
            .iter()
            .filter(|s| s.class == *class)
            .filter_map(|s| s.end.as_ref())
            .map(|e| e.counts[0])
            .sum();
        out.notes.push(format!(
            "  {}: {n} jobs, p05 {:.1} p50 {:.1} p95 {:.1} ms, {:.0} faults/job",
            class.name(),
            quantile(&ms, 0.05),
            median(&ms),
            quantile(&ms, 0.95),
            faults as f64 / ms.len().max(1) as f64
        ));
    }
    // which classes surround p50 and p95: each should sit inside one class
    let mut by_latency: Vec<(f64, Class)> = ok.iter().map(|s| (s.total_ms, s.class)).collect();
    by_latency.sort_by(|a, b| a.0.total_cmp(&b.0));
    for q in [0.5, 0.95] {
        let at = (q * (by_latency.len().saturating_sub(1)) as f64) as usize;
        let near = &by_latency[at.saturating_sub(by_latency.len() / 20)
            ..(at + by_latency.len() / 20).min(by_latency.len())];
        let mut shares: BTreeMap<Class, usize> = BTreeMap::new();
        for (_, class) in near {
            *shares.entry(*class).or_default() += 1;
        }
        out.notes.push(format!(
            "  jobs within 5 points of p{:.0}: {}",
            q * 100.0,
            shares
                .iter()
                .map(|(c, n)| format!("{} {n}", c.name()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    if !cfg.trace {
        let faults: u64 = ok
            .iter()
            .filter_map(|s| s.end.as_ref())
            .map(|e| e.counts[0])
            .sum();
        let (setup, job) = (median(&setup_secs), median(&total));
        out.e2e = vec![
            Metric::new("faults_per_s", faults as f64 / traffic.window, "1/s"),
            Metric::new("setup_s", setup, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric::new("jobs_per_s", ok.len() as f64 / traffic.window, "1/s"),
            Metric::new("job_p50_ms", job, "ms"),
        ];
        out.notes.push(format!("set-ups (s) {setup_secs:.3?}"));
        return out;
    }
    serve_layers(&traffic, &mut out);
    campaign::sweep_layers(cfg, &tracer, &mut out);
    out.spans = tracer.to_jsonl();
    out
}
