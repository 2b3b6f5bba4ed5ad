//! The sharded campaign engine: multi-threaded fault injection with a
//! deterministic, fault-list-ordered merge.
//!
//! Every fault in a campaign is an independent golden-vs-faulty
//! co-simulation, which makes the campaign embarrassingly parallel — but
//! IEC 61508 evidence must be *reproducible*: the measured S/DD/DU split,
//! the coverage collection and any early-stop decision have to come out the
//! same whether the campaign ran on one laptop core or a 64-way server.
//!
//! [`Campaign`] delivers both. Worker threads claim work from the fault
//! list — a PPSFP word, or a run of faults for the lockstep engine — and
//! simulate it against a shared golden trace, each on its own kernel
//! (levelized once per campaign, reset — not re-levelized — between
//! faults). Finished claims stream back over a channel and are
//! committed **strictly in fault-list order**; coverage
//! recording and the early-stop check only ever run on committed, in-order
//! outcomes. The result is therefore a pure function of `(environment,
//! fault list)` — bit-identical for any thread count, chunk size or
//! scheduling seed, and `CampaignResult` is `Eq` so tests assert exactly
//! that.

use crate::accel::{ExecContext, FaultMetrics, Kernels};
use crate::collapse::{CollapsePlan, FaultCollapser};
use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{simulate_scalar, CampaignResult, FaultOutcome, Outcome};
use crate::monitors::CoverageCollection;
use crate::ppsfp::{self, WordWork};
use crate::prune::PrunePlan;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use socfmea_core::CampaignStatsSummary;
use socfmea_obs::metrics::{Counter, Histogram};
use socfmea_obs::trace::{FaultRecord, TraceEvent};
use socfmea_obs::{Observer, ProgressSample};
use socfmea_sim::FAULT_LANES;
use socfmea_static::ProofKind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// When a campaign may stop before exhausting its fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EarlyStop {
    /// Stop once the [`CoverageCollection`] saturates: SENS at 100 % over
    /// the targeted zones, at least one observed deviation, and — when
    /// `expect_diagnostics` — at least one alarm event.
    ///
    /// The check runs on the in-order committed prefix of the fault list,
    /// so the stopping point is the same for any thread count.
    CoverageComplete {
        /// Require at least one DIAG event before stopping (set when the
        /// design has diagnostic alarms).
        expect_diagnostics: bool,
    },
}

/// The simulation engine a [`Campaign`] runs its faults on.
///
/// Every engine computes the same [`CampaignResult`] — the choice only
/// changes *how fast* the verdicts arrive and which counters advance in
/// [`CampaignStats`] / the observer's metrics registry:
///
/// | Engine     | Kernel |
/// |------------|--------|
/// | `Lockstep` | full golden-vs-faulty co-simulation from power-on, one fault at a time (the reference) |
/// | `Ppsfp`    | a lane of a bit-parallel PPSFP word for every fault kind: up to [`FAULT_LANES`] faults per `u64` word, lane 0 golden, started from the golden trace at the word's first inject cycle and stopped once every lane has re-converged with lane 0 |
/// | `Auto`     | resolves to `Ppsfp` for a non-empty fault list, `Lockstep` for an empty one |
///
/// The trace's `meta` record names the resolved engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Resolve per fault list: [`Ppsfp`](Engine::Ppsfp) for any non-empty
    /// list.
    #[default]
    Auto,
    /// The baseline golden-vs-faulty lockstep engine.
    Lockstep,
    /// The accelerated engine (fault-parallel single-fault propagation:
    /// batches of up to [`FAULT_LANES`] faults of any kind share one
    /// word-level netlist evaluation per cycle).
    Ppsfp,
}

impl Engine {
    /// The engine a campaign over `faults` will actually run on:
    /// [`Engine::Auto`] picks PPSFP for any fault and the lockstep engine
    /// (the cheapest prepare) for an empty list; a fixed engine is returned
    /// unchanged. [`Campaign::run`] and [`CampaignArtifacts::prepare`]
    /// resolve with exactly this function, so artifacts prepared ahead of
    /// time match the run that uses them.
    pub fn resolve_for(self, faults: &[Fault]) -> Engine {
        match self {
            Engine::Auto if faults.is_empty() => Engine::Lockstep,
            Engine::Auto => Engine::Ppsfp,
            fixed => fixed,
        }
    }
}

/// Whether a [`Campaign`] simulates equivalence-class representatives only
/// and back-annotates their outcomes (the fault dictionary), or every fault
/// on its own. Orthogonal to the [`Engine`] choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Collapse {
    /// Simulate every fault in the list.
    #[default]
    Off,
    /// Simulate one representative per structural equivalence class (per
    /// [`FaultCollapser`]) and copy its outcome onto every class member.
    Dictionary,
}

/// Whether a [`Campaign`] runs the static testability pre-pass: stuck-at
/// faults proven undetectable (site stuck at a proven constant, or no
/// structural path to any monitored net) are skipped and their outcomes
/// synthesized from the proof. Orthogonal to both the [`Engine`] choice
/// and [`Collapse`] — a pruned fault is excluded from the collapse
/// grouping and committed straight from its proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prune {
    /// Simulate every fault in the list.
    #[default]
    Off,
    /// Run `socfmea-static` over the netlist first and answer
    /// proven-undetectable faults without simulating them. The proofs
    /// double as a permanent soundness oracle: a golden trace that
    /// contradicts a constant-site proof panics the run, and the
    /// differential suite asserts pruned results stay bit-identical.
    Static,
}

/// Live progress counters of a running campaign, updated by the worker
/// threads and safe to poll from any other thread.
///
/// Obtain the shared handle with [`Campaign::stats`] *before* calling
/// [`Campaign::run`]; a monitor thread can then report progress while the
/// campaign executes. Counters advance as faults are *simulated*, so under
/// early stop [`faults_done`](Self::faults_done) may exceed the number of
/// outcomes finally committed to the result.
#[derive(Debug)]
pub struct CampaignStats {
    scheduled: AtomicUsize,
    threads: AtomicUsize,
    done: AtomicUsize,
    /// Faults answered from an equivalent representative's outcome instead
    /// of a simulation (collapsed campaigns only; not counted in `done`).
    collapsed: AtomicUsize,
    /// Faults answered by a static proven-undetectable proof instead of a
    /// simulation (pruned campaigns only; not counted in `done`).
    pruned: AtomicUsize,
    /// Pruned faults whose proof is a proven-constant site.
    pruned_constant: AtomicUsize,
    /// Pruned faults whose proof is a missing path to any monitored net.
    pruned_no_path: AtomicUsize,
    no_effect: AtomicUsize,
    safe_detected: AtomicUsize,
    dangerous_detected: AtomicUsize,
    dangerous_undetected: AtomicUsize,
    /// Cycles actually evaluated across all faults so far.
    cycles_simulated: AtomicU64,
    /// Cycles answered from the golden trace without evaluation (golden
    /// prefixes before a word starts, suffixes after it converged and lanes
    /// sharing a word; 0 on the baseline path).
    cycles_skipped: AtomicU64,
    /// Total wall-clock nanoseconds spent inside per-fault simulation.
    sim_nanos: AtomicU64,
    /// PPSFP batches launched (each evaluates the netlist word-wide).
    ppsfp_batches: AtomicU64,
    /// Fault lanes packed across all PPSFP batches (≤ [`FAULT_LANES`]
    /// per batch; lane 0 is always the golden machine and is not counted).
    ppsfp_lanes: AtomicU64,
    /// Word-level cycle evaluations across all PPSFP batches (one per
    /// cycle a batch ran — each answers every packed lane at once).
    ppsfp_words: AtomicU64,
    /// Gate outputs the word kernel recomputed across all PPSFP batches.
    gate_evals: AtomicU64,
    /// Flip-flop states the word kernel recomputed across all PPSFP
    /// batches.
    ff_updates: AtomicU64,
    /// Nanoseconds from `anchor` to run start / end; `u64::MAX` = not yet.
    started_nanos: AtomicU64,
    finished_nanos: AtomicU64,
    /// Set when the run was aborted by a cancellation token.
    cancelled: AtomicBool,
    anchor: Instant,
}

impl CampaignStats {
    fn new() -> CampaignStats {
        CampaignStats {
            scheduled: AtomicUsize::new(0),
            threads: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            collapsed: AtomicUsize::new(0),
            pruned: AtomicUsize::new(0),
            pruned_constant: AtomicUsize::new(0),
            pruned_no_path: AtomicUsize::new(0),
            no_effect: AtomicUsize::new(0),
            safe_detected: AtomicUsize::new(0),
            dangerous_detected: AtomicUsize::new(0),
            dangerous_undetected: AtomicUsize::new(0),
            cycles_simulated: AtomicU64::new(0),
            cycles_skipped: AtomicU64::new(0),
            sim_nanos: AtomicU64::new(0),
            ppsfp_batches: AtomicU64::new(0),
            ppsfp_lanes: AtomicU64::new(0),
            ppsfp_words: AtomicU64::new(0),
            gate_evals: AtomicU64::new(0),
            ff_updates: AtomicU64::new(0),
            started_nanos: AtomicU64::new(u64::MAX),
            finished_nanos: AtomicU64::new(u64::MAX),
            cancelled: AtomicBool::new(false),
            anchor: Instant::now(),
        }
    }

    fn begin(&self, scheduled: usize, threads: usize) {
        self.scheduled.store(scheduled, Ordering::Relaxed);
        self.threads.store(threads, Ordering::Relaxed);
        self.started_nanos
            .store(self.anchor.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn finish(&self) {
        self.finished_nanos
            .store(self.anchor.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True when the run was aborted by a [`Campaign::cancel_token`]: the
    /// result then holds only the in-order prefix committed before the
    /// abort.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    // Per-class tallies advance *before* `done`/`collapsed`, and all four
    // use `SeqCst`, so at every instant
    //   done + collapsed <= sum(class tallies) <= done + collapsed + in-flight
    // — the invariant `consistent_counts` relies on.
    fn record(&self, outcome: Outcome, metrics: &FaultMetrics, nanos: u64) {
        match outcome {
            Outcome::NoEffect => &self.no_effect,
            Outcome::SafeDetected => &self.safe_detected,
            Outcome::DangerousDetected => &self.dangerous_detected,
            Outcome::DangerousUndetected => &self.dangerous_undetected,
        }
        .fetch_add(1, Ordering::SeqCst);
        self.cycles_simulated
            .fetch_add(metrics.simulated, Ordering::Relaxed);
        self.cycles_skipped
            .fetch_add(metrics.skipped, Ordering::Relaxed);
        self.sim_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::SeqCst);
    }

    /// Accounts one finished PPSFP batch: `lanes` faults answered by the
    /// kernel work of one word.
    fn record_ppsfp_batch(&self, lanes: u64, work: &WordWork) {
        self.ppsfp_batches.fetch_add(1, Ordering::Relaxed);
        self.ppsfp_lanes.fetch_add(lanes, Ordering::Relaxed);
        self.ppsfp_words.fetch_add(work.cycles, Ordering::Relaxed);
        self.gate_evals
            .fetch_add(work.gate_evals, Ordering::Relaxed);
        self.ff_updates
            .fetch_add(work.ff_updates, Ordering::Relaxed);
    }

    /// Records a dictionary-annotated outcome: the per-class tallies
    /// advance (the fault *is* classified), but `done` does not — nothing
    /// was simulated.
    fn record_annotated(&self, outcome: Outcome) {
        match outcome {
            Outcome::NoEffect => &self.no_effect,
            Outcome::SafeDetected => &self.safe_detected,
            Outcome::DangerousDetected => &self.dangerous_detected,
            Outcome::DangerousUndetected => &self.dangerous_undetected,
        }
        .fetch_add(1, Ordering::SeqCst);
        self.collapsed.fetch_add(1, Ordering::SeqCst);
    }

    /// Records a statically pruned outcome: the per-class tallies advance
    /// (the fault *is* classified), but `done` does not — nothing was
    /// simulated.
    fn record_pruned(&self, outcome: Outcome, kind: ProofKind) {
        match outcome {
            Outcome::NoEffect => &self.no_effect,
            Outcome::SafeDetected => &self.safe_detected,
            Outcome::DangerousDetected => &self.dangerous_detected,
            Outcome::DangerousUndetected => &self.dangerous_undetected,
        }
        .fetch_add(1, Ordering::SeqCst);
        match kind {
            ProofKind::ConstantSite => &self.pruned_constant,
            ProofKind::NoPathToMonitor => &self.pruned_no_path,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.pruned.fetch_add(1, Ordering::SeqCst);
    }

    /// A mutually consistent `(done, collapsed, class tallies)` triple.
    ///
    /// The individual counters are updated lock-free by the workers, so
    /// reading them one by one can catch a fault between its class bump and
    /// its `done` bump. This re-reads until a stable instant where the
    /// tallies sum exactly to `done + collapsed + pruned`; under sustained
    /// update pressure it falls back to deriving `done` from the tallies
    /// (each fault bumps its class exactly once), which is consistent by
    /// construction.
    #[allow(clippy::type_complexity)]
    fn consistent_counts(&self) -> (usize, usize, usize, (usize, usize, usize, usize)) {
        let load_counts = || {
            (
                self.no_effect.load(Ordering::SeqCst),
                self.safe_detected.load(Ordering::SeqCst),
                self.dangerous_detected.load(Ordering::SeqCst),
                self.dangerous_undetected.load(Ordering::SeqCst),
            )
        };
        for _ in 0..64 {
            let done = self.done.load(Ordering::SeqCst);
            let collapsed = self.collapsed.load(Ordering::SeqCst);
            let pruned = self.pruned.load(Ordering::SeqCst);
            let counts = load_counts();
            let sum = counts.0 + counts.1 + counts.2 + counts.3;
            if sum == done + collapsed + pruned
                && done == self.done.load(Ordering::SeqCst)
                && collapsed == self.collapsed.load(Ordering::SeqCst)
                && pruned == self.pruned.load(Ordering::SeqCst)
            {
                return (done, collapsed, pruned, counts);
            }
        }
        let counts = load_counts();
        let sum = counts.0 + counts.1 + counts.2 + counts.3;
        let pruned = self.pruned.load(Ordering::SeqCst).min(sum);
        let collapsed = self.collapsed.load(Ordering::SeqCst).min(sum - pruned);
        (sum - collapsed - pruned, collapsed, pruned, counts)
    }

    /// Faults scheduled in the campaign (0 until the run starts).
    pub fn scheduled(&self) -> usize {
        self.scheduled.load(Ordering::Relaxed)
    }

    /// Worker threads of the run (0 until the run starts).
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Faults simulated so far.
    pub fn faults_done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Faults classified from an equivalent representative's outcome
    /// instead of a simulation of their own (0 unless
    /// [`Campaign::collapsing`] is on).
    pub fn faults_collapsed(&self) -> usize {
        self.collapsed.load(Ordering::Relaxed)
    }

    /// Faults answered by a static undetectability proof instead of a
    /// simulation (0 unless [`Campaign::pruning`] is on).
    pub fn faults_pruned(&self) -> usize {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Pruned faults split by proof kind: `(constant-site, no-path)`.
    pub fn pruned_breakdown(&self) -> (usize, usize) {
        (
            self.pruned_constant.load(Ordering::Relaxed),
            self.pruned_no_path.load(Ordering::Relaxed),
        )
    }

    /// Classified-to-simulated ratio so far:
    /// `(done + collapsed) / done`, or 1.0 before anything ran. A ratio of
    /// 2.0 means every simulation answered two faults on average.
    pub fn collapse_ratio(&self) -> f64 {
        let done = self.faults_done();
        if done == 0 {
            return 1.0;
        }
        (done + self.faults_collapsed()) as f64 / done as f64
    }

    /// Per-class tallies so far: `(no_effect, safe_detected, dd, du)`.
    pub fn outcome_counts(&self) -> (usize, usize, usize, usize) {
        (
            self.no_effect.load(Ordering::Relaxed),
            self.safe_detected.load(Ordering::Relaxed),
            self.dangerous_detected.load(Ordering::Relaxed),
            self.dangerous_undetected.load(Ordering::Relaxed),
        )
    }

    /// Cycles actually evaluated so far (scalar or word-level).
    pub fn cycles_simulated(&self) -> u64 {
        self.cycles_simulated.load(Ordering::Relaxed)
    }

    /// Cycles answered from the golden trace without evaluation: golden
    /// prefixes before a word starts, suffixes after it converged and the
    /// cycles of lanes that shared a word. Always 0 for baseline runs.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped.load(Ordering::Relaxed)
    }

    /// PPSFP batches launched so far (0 on the lockstep engine).
    pub fn ppsfp_batches(&self) -> u64 {
        self.ppsfp_batches.load(Ordering::Relaxed)
    }

    /// Fault lanes packed into PPSFP words so far (lane 0, the golden
    /// machine, is not counted).
    pub fn ppsfp_lanes(&self) -> u64 {
        self.ppsfp_lanes.load(Ordering::Relaxed)
    }

    /// Word-level cycle evaluations performed by the PPSFP engine so far.
    pub fn ppsfp_words(&self) -> u64 {
        self.ppsfp_words.load(Ordering::Relaxed)
    }

    /// Gate outputs the word kernel recomputed so far: every gate of a
    /// plain walk, the scheduled gates of an event-driven one (0 on the
    /// lockstep engine). A pure function of the fault list, like
    /// [`ppsfp_words`](Self::ppsfp_words).
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals.load(Ordering::Relaxed)
    }

    /// Flip-flop states the word kernel recomputed at clock edges so far
    /// (0 on the lockstep engine).
    pub fn ff_updates(&self) -> u64 {
        self.ff_updates.load(Ordering::Relaxed)
    }

    /// Mean fault lanes per PPSFP batch so far (the packing efficiency
    /// against the [`FAULT_LANES`] ceiling), or 0.0 before any batch ran.
    pub fn ppsfp_lanes_per_word(&self) -> f64 {
        let batches = self.ppsfp_batches();
        if batches == 0 {
            return 0.0;
        }
        self.ppsfp_lanes() as f64 / batches as f64
    }

    /// Mean wall-clock time per simulated fault so far.
    pub fn mean_fault_time(&self) -> Duration {
        let done = self.faults_done() as u64;
        if done == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sim_nanos.load(Ordering::Relaxed) / done)
    }

    /// Wall-clock time since the run started (frozen once it finished;
    /// zero before it started).
    pub fn elapsed(&self) -> Duration {
        let started = self.started_nanos.load(Ordering::Relaxed);
        if started == u64::MAX {
            return Duration::ZERO;
        }
        let end = match self.finished_nanos.load(Ordering::Relaxed) {
            u64::MAX => self.anchor.elapsed().as_nanos() as u64,
            done => done,
        };
        Duration::from_nanos(end.saturating_sub(started))
    }

    /// Current throughput in faults per second.
    pub fn faults_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.faults_done() as f64 / secs
    }

    /// True once [`Campaign::run`] has returned.
    pub fn is_finished(&self) -> bool {
        self.finished_nanos.load(Ordering::Relaxed) != u64::MAX
    }

    /// Snapshot as the summary a [`socfmea_core::ValidationReport`] carries.
    ///
    /// Safe to call mid-run: the injection count, collapse count and
    /// per-class tallies come from one consistent instant, so
    /// `injections + faults_collapsed` always equals the sum of the four
    /// outcome counts.
    pub fn summary(&self) -> CampaignStatsSummary {
        let (injections, faults_collapsed, faults_pruned, counts) = self.consistent_counts();
        let (no_effect, safe_detected, dangerous_detected, dangerous_undetected) = counts;
        let (pruned_constant, pruned_no_path) = self.pruned_breakdown();
        CampaignStatsSummary {
            injections,
            scheduled: self.scheduled(),
            no_effect,
            safe_detected,
            dangerous_detected,
            dangerous_undetected,
            threads: self.threads(),
            elapsed: self.elapsed(),
            faults_per_sec: self.faults_per_sec(),
            cycles_simulated: self.cycles_simulated(),
            cycles_skipped: self.cycles_skipped(),
            mean_fault_time: self.mean_fault_time(),
            faults_collapsed,
            collapse_ratio: if injections == 0 {
                1.0
            } else {
                (injections + faults_collapsed) as f64 / injections as f64
            },
            faults_pruned,
            pruned_constant,
            pruned_no_path,
            ppsfp_batches: self.ppsfp_batches(),
            ppsfp_lanes: self.ppsfp_lanes(),
            ppsfp_lanes_per_word: self.ppsfp_lanes_per_word(),
            ppsfp_gate_evals: self.gate_evals(),
            ppsfp_ff_updates: self.ff_updates(),
        }
    }

    /// A consistent live sample for the progress reporter (faults/s, ETA,
    /// running DC/SFF and collapse/skip effectiveness all derive from it).
    pub fn progress_sample(&self) -> ProgressSample {
        let (done, collapsed, pruned, counts) = self.consistent_counts();
        ProgressSample {
            faults_total: self.scheduled() as u64,
            faults_done: (done + collapsed + pruned) as u64,
            collapsed: collapsed as u64,
            no_effect: counts.0 as u64,
            safe_detected: counts.1 as u64,
            dangerous_detected: counts.2 as u64,
            dangerous_undetected: counts.3 as u64,
            cycles_simulated: self.cycles_simulated(),
            cycles_skipped: self.cycles_skipped(),
            elapsed_nanos: self.elapsed().as_nanos() as u64,
        }
    }
}

/// A configurable fault-injection campaign: shard the fault list over
/// worker threads, merge deterministically.
///
/// The builder methods configure *how* the campaign executes; none of them
/// change *what* it computes. [`run`](Self::run) returns the same
/// [`CampaignResult`] for every combination of
/// [`threads`](Self::threads), [`chunk`](Self::chunk) and
/// [`seed`](Self::seed).
///
/// # Example
///
/// ```
/// use socfmea_core::extract::{extract_zones, ExtractConfig};
/// use socfmea_faultsim::{
///     generate_fault_list, Campaign, EnvironmentBuilder, FaultListConfig,
///     OperationalProfile,
/// };
/// use socfmea_rtl::RtlBuilder;
/// use socfmea_sim::{assign_bus, Workload};
///
/// // a parity-protected 4-bit register
/// let mut r = RtlBuilder::new("d");
/// let d = r.input_word("d", 4);
/// let q = r.register("data", &d, None, None);
/// let pin = r.parity(&d);
/// let pq = r.register_bit("par", pin, None, None);
/// let pout = r.parity(&q);
/// let perr = r.xor2_bit(pout, pq);
/// r.output_word("o", &q);
/// r.output("alarm_parity", perr);
/// let nl = r.finish()?;
///
/// let zones = extract_zones(&nl, &ExtractConfig::default());
/// let mut w = Workload::new("count");
/// let dn: Vec<_> = (0..4).map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap()).collect();
/// for c in 0..12 {
///     let mut v = Vec::new();
///     assign_bus(&mut v, &dn, c % 16);
///     w.push_cycle(v);
/// }
/// let env = EnvironmentBuilder::new(&nl, &zones, &w).alarms_matching("alarm_").build();
/// let profile = OperationalProfile::collect(&env);
/// let faults = generate_fault_list(&env, &profile, &FaultListConfig::default());
///
/// let campaign = Campaign::new(&env, &faults).threads(2).chunk(4);
/// let stats = campaign.stats(); // pollable from a monitor thread
/// let sharded = campaign.run();
///
/// // bit-identical to the serial run, by construction
/// let serial = Campaign::new(&env, &faults).threads(1).run();
/// assert_eq!(sharded, serial);
/// assert_eq!(stats.faults_done(), faults.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Campaign<'a> {
    env: &'a Environment<'a>,
    faults: &'a [Fault],
    threads: usize,
    seed: u64,
    chunk: usize,
    early_stop: Option<EarlyStop>,
    engine: Engine,
    checkpoint_interval: usize,
    collapse: Collapse,
    prune: Prune,
    observer: Option<&'a Observer>,
    stats: Arc<CampaignStats>,
    artifacts: Option<Arc<CampaignArtifacts>>,
    cancel: Option<Arc<AtomicBool>>,
}

/// Everything a campaign builds before the first injection, prepared once
/// and shareable (via `Arc`) across any number of runs over the same
/// environment and fault list: the execution context (golden trace +
/// checkpoints, propagation topology, monitor lookups), the collapse
/// dictionary and the static prune plan.
///
/// [`Campaign::run`] normally builds all of this itself; handing a
/// prepared bundle in through [`Campaign::artifacts`] skips every build
/// phase, which is what makes a warm-cache campaign server submission
/// jump straight to injection. A run with supplied artifacts is
/// bit-identical to a cold run — the artifacts are a pure function of
/// `(environment, fault list, engine, checkpoint interval, collapse,
/// prune)` and the run validates the settings match before using them.
pub struct CampaignArtifacts {
    engine: Engine,
    checkpoint_interval: usize,
    collapse: Collapse,
    prune: Prune,
    faults_len: usize,
    ctx: ExecContext,
    collapse_plan: Option<CollapsePlan>,
    prune_plan: Option<PrunePlan>,
    approx_bytes: usize,
}

impl std::fmt::Debug for CampaignArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignArtifacts")
            .field("engine", &self.engine)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("collapse", &self.collapse)
            .field("prune", &self.prune)
            .field("faults_len", &self.faults_len)
            .field("approx_bytes", &self.approx_bytes)
            .finish_non_exhaustive()
    }
}

/// Runs `f` as an observed pipeline phase when an observer is attached.
fn obs_phase_opt<R>(observer: Option<&Observer>, name: &str, f: impl FnOnce() -> R) -> R {
    match observer {
        Some(obs) => obs.phase(name, f),
        None => f(),
    }
}

impl CampaignArtifacts {
    /// Builds every pre-injection artifact for a campaign over
    /// `env`/`faults`: the execution context for the (resolved) `engine`,
    /// plus the collapse dictionary and static prune plan when requested.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized, or if a recorded golden
    /// trace contradicts a static constant-site proof (an engine-soundness
    /// error; see [`Prune`]).
    pub fn prepare(
        env: &Environment<'_>,
        faults: &[Fault],
        engine: Engine,
        checkpoint_interval: usize,
        collapse: Collapse,
        prune: Prune,
    ) -> CampaignArtifacts {
        Self::prepare_observed(
            env,
            faults,
            engine,
            checkpoint_interval,
            collapse,
            prune,
            None,
        )
    }

    /// [`prepare`](Self::prepare) with the build steps wrapped in the
    /// observer's `prepare`/`static-prune`/`collapse-plan` phases — the
    /// exact sequence [`Campaign::run`] records when it builds cold.
    pub fn prepare_observed(
        env: &Environment<'_>,
        faults: &[Fault],
        engine: Engine,
        checkpoint_interval: usize,
        collapse: Collapse,
        prune: Prune,
        observer: Option<&Observer>,
    ) -> CampaignArtifacts {
        let engine = engine.resolve_for(faults);
        let checkpoint_interval = checkpoint_interval.max(1);
        let ctx = obs_phase_opt(observer, "prepare", || {
            ExecContext::prepare(env, faults, checkpoint_interval)
        });
        let prune_plan = (prune == Prune::Static && !faults.is_empty()).then(|| {
            obs_phase_opt(observer, "static-prune", || {
                PrunePlan::build(env, faults, |cycle, net| ctx.trace.value(cycle, net))
            })
        });
        let collapse_plan = (collapse == Collapse::Dictionary && !faults.is_empty()).then(|| {
            obs_phase_opt(observer, "collapse-plan", || {
                CollapsePlan::build(
                    faults,
                    env.workload.len(),
                    &FaultCollapser::build(env),
                    |cycle, net| ctx.trace.value(cycle, net),
                    |i| prune_plan.as_ref().is_some_and(|pp| pp.pruned(i)),
                )
            })
        });
        let approx_bytes = ctx.approx_bytes()
            + collapse_plan.as_ref().map_or(0, CollapsePlan::approx_bytes)
            + prune_plan.as_ref().map_or(0, PrunePlan::approx_bytes);
        CampaignArtifacts {
            engine,
            checkpoint_interval,
            collapse,
            prune,
            faults_len: faults.len(),
            ctx,
            collapse_plan,
            prune_plan,
            approx_bytes,
        }
    }

    /// The resolved engine the artifacts were prepared for (never
    /// [`Engine::Auto`]).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The fault-list length the artifacts were prepared over.
    pub fn faults_len(&self) -> usize {
        self.faults_len
    }

    /// Approximate heap bytes the artifacts own (golden trace matrix and
    /// checkpoints, monitor lookups, collapse and prune plans; not the
    /// fault list they were prepared over) — part of the currency of a
    /// byte-budget artifact cache.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }
}

/// What a worker measured while simulating one fault; rides the merge
/// channel next to the outcome so per-fault trace records can be emitted
/// at commit time, in fault-list order.
struct FaultTelemetry {
    metrics: FaultMetrics,
    nanos: u64,
    shard: u64,
}

/// One simulated fault as it travels from a worker to the merge.
type Simulated = (FaultOutcome, FaultTelemetry);

/// Pre-resolved observability handles for the campaign's hot path: one
/// registry lookup per instrument at `run` start instead of one per fault.
struct ObsHooks<'o> {
    obs: &'o Observer,
    trace_faults: bool,
    fault_nanos: Arc<Histogram>,
    engines: [(&'static str, Arc<Counter>); 4],
}

impl<'o> ObsHooks<'o> {
    fn new(obs: &'o Observer) -> ObsHooks<'o> {
        // resolve through the observer so a server-attached `TraceCtx`
        // labels every series with the job and tenant
        ObsHooks {
            trace_faults: obs.tracing(),
            fault_nanos: obs.histogram("campaign.fault.nanos"),
            engines: [
                ("lockstep", obs.counter("campaign.engine.lockstep")),
                ("ppsfp", obs.counter("campaign.engine.ppsfp")),
                ("dictionary", obs.counter("campaign.engine.dictionary")),
                ("pruned", obs.counter("campaign.engine.pruned")),
            ],
            obs,
        }
    }

    /// Accounts one committed fault under `engine` ("dictionary" for
    /// collapse-annotated faults, "pruned" for statically proven ones);
    /// `tel` is `None` for both of those, `rep` names a dictionary fault's
    /// representative.
    fn record_fault(
        &self,
        env: &Environment<'_>,
        fault: &Fault,
        fo: &FaultOutcome,
        tel: Option<&FaultTelemetry>,
        rep: Option<u64>,
        engine: &'static str,
    ) {
        if let Some((_, counter)) = self.engines.iter().find(|(name, _)| *name == engine) {
            counter.incr();
        }
        if let Some(t) = tel {
            self.fault_nanos.record(t.nanos);
        }
        if !self.trace_faults {
            return;
        }
        self.obs.emit(TraceEvent::Fault(FaultRecord {
            index: fo.fault_index as u64,
            label: fault.label.clone(),
            kind: kind_name(&fault.kind),
            site: fault_site(env, fault),
            zone: fault.zone.map(|z| env.zones.zone(z).name.clone()),
            inject_cycle: fault.inject_cycle as u64,
            outcome: outcome_code(fo.outcome),
            first_mismatch: fo.first_mismatch.map(|c| c as u64),
            alarm_cycle: fo.alarm_cycle.map(|c| c as u64),
            cycles_simulated: tel.map_or(0, |t| t.metrics.simulated),
            cycles_skipped: tel.map_or(0, |t| t.metrics.skipped),
            engine,
            rep,
            shard: tel.map(|t| t.shard),
            nanos: tel.map_or(0, |t| t.nanos),
        }));
    }
}

fn kind_name(kind: &FaultKind) -> String {
    match kind {
        FaultKind::BitFlip { .. } => "bitflip",
        FaultKind::StuckAt { .. } => "stuckat",
        FaultKind::Glitch { .. } => "glitch",
        FaultKind::Bridge { .. } => "bridge",
        FaultKind::ClockStuck { .. } => "clockstuck",
    }
    .to_string()
}

/// The disturbed site as a human-readable name (`agg>victim` for bridges;
/// `None` for global faults without a single site).
fn fault_site(env: &Environment<'_>, fault: &Fault) -> Option<String> {
    let net_name = |n: socfmea_netlist::NetId| env.netlist.net(n).name.clone();
    match &fault.kind {
        FaultKind::BitFlip { dff } => Some(net_name(env.netlist.dff(*dff).q)),
        FaultKind::StuckAt { net, .. } | FaultKind::Glitch { net, .. } => Some(net_name(*net)),
        FaultKind::Bridge {
            aggressor, victim, ..
        } => Some(format!("{}>{}", net_name(*aggressor), net_name(*victim))),
        FaultKind::ClockStuck { .. } => None,
    }
}

fn outcome_code(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::NoEffect => "NE",
        Outcome::SafeDetected => "SD",
        Outcome::DangerousDetected => "DD",
        Outcome::DangerousUndetected => "DU",
    }
}

impl<'a> Campaign<'a> {
    /// Default chunk size (faults claimed per worker grab).
    pub const DEFAULT_CHUNK: usize = 8;

    /// Default golden checkpoint interval (see
    /// [`checkpoint_interval`](Self::checkpoint_interval)).
    pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 16;

    /// Prepares a campaign over `faults` in `env`, initially
    /// single-threaded on [`Engine::Lockstep`].
    pub fn new(env: &'a Environment<'a>, faults: &'a [Fault]) -> Campaign<'a> {
        Campaign {
            env,
            faults,
            threads: 1,
            seed: 0,
            chunk: Self::DEFAULT_CHUNK,
            early_stop: None,
            engine: Engine::Lockstep,
            checkpoint_interval: Self::DEFAULT_CHECKPOINT_INTERVAL,
            collapse: Collapse::Off,
            prune: Prune::Off,
            observer: None,
            stats: Arc::new(CampaignStats::new()),
            artifacts: None,
            cancel: None,
        }
    }

    /// Sets the worker-thread count (0 is treated as 1). The result is
    /// independent of this setting; only wall-clock time changes.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the scheduling seed. It shuffles the order in which workers
    /// *claim* chunks — useful for exercising the merge under adversarial
    /// completion orders — and provably does not affect the result.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk size: how many faults a lockstep worker claims at a
    /// time (0 is treated as 1). Smaller chunks balance load better; larger
    /// chunks lower synchronisation traffic.
    ///
    /// A lockstep claim holds the next `faults_per_chunk` faults in list
    /// order. The accelerated engine ignores the chunk size: it claims a
    /// whole PPSFP word at a time, up to [`FAULT_LANES`] faults packed by
    /// inject cycle (list order among equal cycles), so that a word's lanes
    /// arm close together.
    pub fn chunk(mut self, faults_per_chunk: usize) -> Self {
        self.chunk = faults_per_chunk.max(1);
        self
    }

    /// Enables early exit; see [`EarlyStop`]. Outcomes past the
    /// (deterministic) stopping point are discarded.
    pub fn early_stop(mut self, policy: EarlyStop) -> Self {
        self.early_stop = Some(policy);
        self
    }

    /// Selects the simulation [`Engine`]. [`Engine::Auto`] resolves per
    /// fault list at [`run`](Self::run) time.
    ///
    /// Like every other builder setting, this changes only *how* the
    /// campaign executes: the [`CampaignResult`] is bit-identical across
    /// engines. The work saved shows up in
    /// [`CampaignStats::cycles_skipped`] (the cycles before a word starts
    /// and after it converged, and the lanes riding a word) and
    /// [`CampaignStats::ppsfp_lanes_per_word`].
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the golden checkpoint interval (0 is treated as 1): the
    /// campaign's golden trace keeps a full simulator snapshot every
    /// `cycles` cycles. No kernel reads them — a PPSFP word starts from the
    /// trace's per-cycle values — so the interval sizes only the trace's
    /// checkpoint store; provably does not affect the result.
    pub fn checkpoint_interval(mut self, cycles: usize) -> Self {
        self.checkpoint_interval = cycles.max(1);
        self
    }

    /// Selects the fault-collapsing mode. [`Collapse::Dictionary`] shares
    /// one simulation per structural equivalence class (per
    /// [`FaultCollapser`]) and copies the representative's outcome onto
    /// every class member.
    ///
    /// Like every other builder setting, this changes only *how* the
    /// campaign executes: the [`CampaignResult`] — per-fault
    /// classifications, coverage, DC/SFF, per-zone attribution over the
    /// *full uncollapsed* list — is bit-identical to an uncollapsed run,
    /// and it composes freely with any [`engine`](Self::engine) and any
    /// thread count. The simulations saved show up in
    /// [`CampaignStats::faults_collapsed`] and
    /// [`CampaignStats::collapse_ratio`].
    pub fn collapsing(mut self, mode: Collapse) -> Self {
        self.collapse = mode;
        self
    }

    /// Enables the static testability pre-pass; see [`Prune`]. Faults the
    /// pre-pass proves undetectable are answered by their proof instead of
    /// a simulation and back-annotated in fault-list order, exactly like
    /// collapse-dictionary followers.
    ///
    /// Like every other builder setting, this changes only *how* the
    /// campaign executes: the [`CampaignResult`] is bit-identical to an
    /// unpruned run, and it composes freely with any
    /// [`engine`](Self::engine), thread count and
    /// [`collapsing`](Self::collapsing) mode. The simulations saved show
    /// up in [`CampaignStats::faults_pruned`].
    pub fn pruning(mut self, mode: Prune) -> Self {
        self.prune = mode;
        self
    }

    /// Attaches a [`socfmea_obs::Observer`]: the run then emits one trace
    /// record per committed fault (in fault-list order, so the trace is as
    /// deterministic as the result), per-shard and whole-campaign spans,
    /// phase timings for context preparation and collapse planning, and
    /// engine-path counters into the observer's metrics registry.
    ///
    /// Like every other builder setting, this changes only *what is
    /// recorded about* the campaign, never its [`CampaignResult`].
    pub fn observe(mut self, observer: &'a Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Supplies pre-built [`CampaignArtifacts`]: [`run`](Self::run) then
    /// skips the `prepare`/`static-prune`/`collapse-plan` build phases
    /// entirely and injects against the shared bundle. The result is
    /// bit-identical to a cold run; the artifacts' settings (engine,
    /// checkpoint interval, collapse, prune, fault-list length) must match
    /// this builder's or [`run`](Self::run) panics.
    pub fn artifacts(mut self, artifacts: Arc<CampaignArtifacts>) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Attaches a cooperative cancellation token. Once another thread
    /// stores `true`, workers abort — checked between faults *and* every
    /// cycle inside a running simulation, so cancellation takes effect
    /// promptly even mid-way through a long single-fault run. A cancelled
    /// campaign returns the outcomes committed so far (a clean in-order
    /// prefix of the fault list) and [`CampaignStats::is_cancelled`]
    /// reports the abort.
    pub fn cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The live progress counters of this campaign. Clone the `Arc` out
    /// before [`run`](Self::run) to poll from another thread.
    pub fn stats(&self) -> Arc<CampaignStats> {
        Arc::clone(&self.stats)
    }

    /// Whether the attached cancellation token (if any) has fired.
    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// The engine the run will actually use; see [`Engine::resolve_for`].
    fn resolved_engine(&self) -> Engine {
        self.engine.resolve_for(self.faults)
    }

    /// Executes the campaign and returns its (thread-count-independent)
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized (prevented by
    /// construction for `RtlBuilder` designs), or if supplied
    /// [`artifacts`](Self::artifacts) were prepared under different
    /// settings than this builder's.
    pub fn run(self) -> CampaignResult {
        let engine = self.resolved_engine();
        let collapse = self.collapse == Collapse::Dictionary;
        if let Some(obs) = self.observer {
            obs.emit(TraceEvent::Meta {
                design: self.env.netlist.name().to_string(),
                faults: self.faults.len() as u64,
                threads: self.threads as u64,
                cycles: self.env.workload.len() as u64,
                seed: self.seed,
                engine: match engine {
                    Engine::Lockstep => "lockstep",
                    _ => "ppsfp",
                },
                collapse,
            });
        }
        // Use the supplied pre-built artifacts, or build them now (cold)
        // under the usual observed phases. Either way the injection loop
        // below sees the same bundle — that equivalence is what the serve
        // cache-correctness differential tests assert.
        let built;
        let art: &CampaignArtifacts = match self.artifacts.as_deref() {
            Some(a) => {
                assert_eq!(
                    a.engine, engine,
                    "supplied artifacts were prepared for a different engine"
                );
                assert_eq!(
                    a.faults_len,
                    self.faults.len(),
                    "supplied artifacts cover a different fault list"
                );
                assert_eq!(
                    (a.collapse, a.prune),
                    (self.collapse, self.prune),
                    "supplied artifacts use different collapse/prune settings"
                );
                if engine != Engine::Lockstep {
                    assert_eq!(
                        a.checkpoint_interval, self.checkpoint_interval,
                        "supplied artifacts use a different checkpoint interval"
                    );
                }
                a
            }
            None => {
                built = CampaignArtifacts::prepare_observed(
                    self.env,
                    self.faults,
                    engine,
                    self.checkpoint_interval,
                    self.collapse,
                    self.prune,
                    self.observer,
                );
                &built
            }
        };
        let ctx = &art.ctx;
        let (plan, prune_plan) = (&art.collapse_plan, &art.prune_plan);
        // The simulation schedule: representatives only under collapsing,
        // every unpruned fault otherwise. Outcomes are still committed for
        // the full list, in fault-list order, by `commit_expanded`.
        let order: Vec<usize> = match (plan, prune_plan) {
            (Some(p), _) => p.sim_order.clone(),
            (None, Some(pp)) => (0..self.faults.len()).filter(|&i| !pp.pruned(i)).collect(),
            (None, None) => (0..self.faults.len()).collect(),
        };
        let hooks = self.observer.map(ObsHooks::new);
        let mut coverage = CoverageCollection::new(ctx.injected_zones.iter().copied());
        self.stats.begin(self.faults.len(), self.threads);
        let outcomes = {
            let _campaign_span = self.observer.map(|obs| obs.span("campaign"));
            let plans = (plan.as_ref(), prune_plan.as_ref());
            self.run_sharded(
                ctx,
                art.engine,
                plans,
                &order,
                &mut coverage,
                hooks.as_ref(),
            )
        };
        if self.is_cancelled() {
            self.stats.cancel();
        }
        self.stats.finish();
        let result = CampaignResult { outcomes, coverage };
        if let Some(obs) = self.observer {
            let (no_effect, safe_detected, dangerous_detected, dangerous_undetected) =
                result.outcome_counts();
            obs.emit(TraceEvent::End {
                faults: result.outcomes.len() as u64,
                no_effect: no_effect as u64,
                safe_detected: safe_detected as u64,
                dangerous_detected: dangerous_detected as u64,
                dangerous_undetected: dangerous_undetected as u64,
                dc: result.measured_dc(),
                sff: result.measured_sff(),
                elapsed_nanos: self.stats.elapsed().as_nanos() as u64,
            });
            // final totals for the metrics snapshot, mirrored once —
            // resolved through the observer so a server-attached
            // `TraceCtx` stamps job/tenant labels onto every series
            obs.counter("campaign.faults.simulated")
                .add(self.stats.faults_done() as u64);
            obs.counter("campaign.faults.collapsed")
                .add(self.stats.faults_collapsed() as u64);
            obs.counter("campaign.cycles.simulated")
                .add(self.stats.cycles_simulated());
            obs.counter("campaign.cycles.skipped")
                .add(self.stats.cycles_skipped());
            if self.stats.faults_pruned() > 0 {
                let (constant, no_path) = self.stats.pruned_breakdown();
                obs.counter("campaign.static.pruned")
                    .add(self.stats.faults_pruned() as u64);
                obs.counter("campaign.static.pruned.constant")
                    .add(constant as u64);
                obs.counter("campaign.static.pruned.no-path")
                    .add(no_path as u64);
            }
            let elapsed_nanos = self.stats.elapsed().as_nanos() as u64;
            obs.gauge("campaign.elapsed_nanos")
                .set(elapsed_nanos as f64);
            if elapsed_nanos > 0 {
                obs.gauge("campaign.faults_per_sec")
                    .set(self.stats.faults_done() as f64 / (elapsed_nanos as f64 / 1e9));
            }
            if self.stats.ppsfp_batches() > 0 {
                obs.counter("campaign.ppsfp.batches")
                    .add(self.stats.ppsfp_batches());
                obs.counter("campaign.ppsfp.lanes")
                    .add(self.stats.ppsfp_lanes());
                obs.counter("campaign.ppsfp.words")
                    .add(self.stats.ppsfp_words());
                obs.counter("campaign.ppsfp.gate_evals")
                    .add(self.stats.gate_evals());
                obs.counter("campaign.ppsfp.ff_updates")
                    .add(self.stats.ff_updates());
                obs.gauge("campaign.ppsfp.lanes_per_word")
                    .set(self.stats.ppsfp_lanes_per_word());
            }
            if let Some(dc) = result.measured_dc() {
                obs.gauge("campaign.dc").set(dc);
            }
            if let Some(sff) = result.measured_sff() {
                obs.gauge("campaign.sff").set(sff);
            }
        }
        result
    }

    /// Commits one in-order outcome to the coverage collection; true when
    /// the early-stop policy says the campaign is done.
    fn commit(&self, coverage: &mut CoverageCollection, fo: &FaultOutcome) -> bool {
        coverage.record(
            self.faults[fo.fault_index].zone,
            fo.sens_triggered,
            &fo.deviated_zones,
            fo.alarm_cycle,
            fo.first_mismatch,
        );
        match self.early_stop {
            Some(EarlyStop::CoverageComplete { expect_diagnostics }) => {
                coverage.is_complete(expect_diagnostics)
            }
            None => false,
        }
    }

    /// Commits a just-simulated representative, then
    /// [expands](Self::expand_annotated) every annotated fault now due.
    /// Keeps outcomes committed strictly in fault-list order, so coverage
    /// evolution — and with it any early-stop point — is identical to an
    /// unpruned, uncollapsed run.
    fn commit_expanded(
        &self,
        plans: (Option<&CollapsePlan>, Option<&PrunePlan>),
        coverage: &mut CoverageCollection,
        outcomes: &mut Vec<FaultOutcome>,
        fo: FaultOutcome,
        tel: &FaultTelemetry,
        hooks: Option<&ObsHooks<'_>>,
    ) -> bool {
        debug_assert_eq!(fo.fault_index, outcomes.len(), "out-of-order commit");
        let stop = self.commit(coverage, &fo);
        if let Some(h) = hooks {
            h.record_fault(
                self.env,
                &self.faults[fo.fault_index],
                &fo,
                Some(tel),
                None,
                tel.metrics.engine,
            );
        }
        outcomes.push(fo);
        if stop {
            return true;
        }
        self.expand_annotated(plans, coverage, outcomes, hooks)
    }

    /// Commits every fault at the head of the remaining list whose outcome
    /// is already known without a simulation of its own: statically pruned
    /// faults get their synthesized proof outcome, collapse followers get
    /// a re-indexed clone of their committed representative. Stops at the
    /// first fault that still needs its own simulation (or at the
    /// early-stop point, returning true).
    fn expand_annotated(
        &self,
        (plan, prune): (Option<&CollapsePlan>, Option<&PrunePlan>),
        coverage: &mut CoverageCollection,
        outcomes: &mut Vec<FaultOutcome>,
        hooks: Option<&ObsHooks<'_>>,
    ) -> bool {
        loop {
            let next = outcomes.len();
            if next >= self.faults.len() {
                return false;
            }
            if let Some(pp) = prune.filter(|pp| pp.pruned(next)) {
                let fo = pp.synthesize(next);
                let kind = pp.proof(next).expect("pruned fault has a proof").kind();
                self.stats.record_pruned(fo.outcome, kind);
                let stop = self.commit(coverage, &fo);
                if let Some(h) = hooks {
                    h.record_fault(self.env, &self.faults[next], &fo, None, None, "pruned");
                }
                outcomes.push(fo);
                if stop {
                    return true;
                }
                continue;
            }
            let Some(plan) = plan else { return false };
            let rep = plan.rep_of[next];
            if rep == next {
                return false;
            }
            let mut annotated = outcomes[rep].clone();
            annotated.fault_index = next;
            self.stats.record_annotated(annotated.outcome);
            let stop = self.commit(coverage, &annotated);
            if let Some(h) = hooks {
                h.record_fault(
                    self.env,
                    &self.faults[next],
                    &annotated,
                    None,
                    Some(rep as u64),
                    "dictionary",
                );
            }
            outcomes.push(annotated);
            if stop {
                return true;
            }
        }
    }

    /// Simulates one claim, recording live stats per verdict, and returns
    /// the outcomes with their telemetry in claim order. A word worker runs
    /// the claim as one PPSFP batch; a lockstep worker goes fault by fault.
    /// A set `stop` flag (the merged result is already complete) or
    /// cancellation aborts between simulations, and an aborted simulation's
    /// outcome is dropped: the returned prefix is then short, and the merge
    /// commits nothing past it.
    fn simulate_claim(
        &self,
        ctx: &ExecContext,
        kernels: &mut Kernels<'_>,
        claim: &[usize],
        order: &[usize],
        shard: u64,
        stop: &AtomicBool,
    ) -> Vec<Simulated> {
        let cancel = self.cancel.as_deref();
        let stopped = || stop.load(Ordering::Relaxed) || self.is_cancelled();
        let mut out = Vec::with_capacity(claim.len());
        let telemetry = |metrics, nanos| FaultTelemetry {
            metrics,
            nanos,
            shard,
        };
        match kernels {
            Kernels::Word(word) => {
                if stopped() {
                    return out;
                }
                let batch: Vec<(usize, &Fault)> = claim
                    .iter()
                    .map(|&p| (order[p], &self.faults[order[p]]))
                    .collect();
                let t0 = Instant::now();
                let (fos, work) = ppsfp::simulate_batch(self.env, ctx, word, &batch, cancel);
                let nanos = t0.elapsed().as_nanos() as u64;
                if self.is_cancelled() {
                    return out;
                }
                self.stats.record_ppsfp_batch(batch.len() as u64, &work);
                let cycles = work.cycles;
                // Per-fault attribution of the shared batch: the first lane
                // carries the evaluated cycles (the word walk ran once), the
                // others ride along for free; wall-clock splits evenly with
                // the rounding remainder on the first.
                let len = self.env.workload.len() as u64;
                let share = nanos / batch.len() as u64;
                let mut remainder = nanos - share * batch.len() as u64;
                for (k, fo) in fos.into_iter().enumerate() {
                    let simulated = if k == 0 { cycles } else { 0 };
                    let metrics = FaultMetrics {
                        simulated,
                        skipped: len - simulated,
                        engine: "ppsfp",
                    };
                    let nanos = share + std::mem::take(&mut remainder);
                    self.stats.record(fo.outcome, &metrics, nanos);
                    out.push((fo, telemetry(metrics, nanos)));
                }
            }
            Kernels::Lockstep(sim) => {
                for &p in claim {
                    if stopped() {
                        break;
                    }
                    let fi = order[p];
                    let t0 = Instant::now();
                    let (fo, metrics) =
                        simulate_scalar(self.env, ctx, sim, fi, &self.faults[fi], cancel);
                    let nanos = t0.elapsed().as_nanos() as u64;
                    if self.is_cancelled() {
                        break;
                    }
                    self.stats.record(fo.outcome, &metrics, nanos);
                    out.push((fo, telemetry(metrics, nanos)));
                }
            }
        }
        out
    }

    /// Claims work from the simulation order, simulates it, and commits
    /// the outcomes strictly in fault-list order.
    ///
    /// The order is split into [claims](plan_claims) up front. Several
    /// workers run on scoped threads, take claims in the order the
    /// scheduling seed shuffles, and stream them back to the merge on the
    /// calling thread. A lone worker runs on the calling thread itself and
    /// takes claims in list order, so outcomes are committed — traced, and
    /// checked for early stop — as soon as the faults before them are.
    fn run_sharded(
        &self,
        ctx: &ExecContext,
        engine: Engine,
        plans: (Option<&CollapsePlan>, Option<&PrunePlan>),
        order: &[usize],
        coverage: &mut CoverageCollection,
        hooks: Option<&ObsHooks<'_>>,
    ) -> Vec<FaultOutcome> {
        let accelerated = engine != Engine::Lockstep;
        let claims = if accelerated {
            let inject = order.iter().map(|&fi| self.faults[fi].inject_cycle);
            plan_claims(inject, FAULT_LANES)
        } else {
            plan_claims(std::iter::repeat_n(0, order.len()), self.chunk)
        };
        let workers = self.threads.min(claims.len().max(1));
        // The seed shuffles only the order in which workers take claims.
        let mut claim_order: Vec<usize> = (0..claims.len()).collect();
        if workers > 1 {
            claim_order.shuffle(&mut StdRng::seed_from_u64(self.seed));
        }

        let next_claim = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let mut base = Kernels::new(self.env.netlist, accelerated);
        let mut outcomes = Vec::with_capacity(self.faults.len());
        // Leading pruned faults precede the first simulated commit (an
        // all-pruned list never simulates at all).
        if self.expand_annotated(plans, coverage, &mut outcomes, hooks) {
            return outcomes;
        }

        // One worker on its kernels: take claims, simulate them, and hand
        // each to `deliver` until it declines or the claims run out.
        let work = |shard: usize,
                    kernels: &mut Kernels<'_>,
                    deliver: &mut dyn FnMut(usize, Vec<Simulated>) -> bool| {
            let _shard_span = hooks.map(|h| h.obs.shard_span("campaign/shard", shard as u64));
            // A set stop flag means the result is already fully committed;
            // no further claim can be needed.
            while !stop.load(Ordering::Relaxed) {
                let Some(&ci) = claim_order.get(next_claim.fetch_add(1, Ordering::Relaxed)) else {
                    return;
                };
                let out =
                    self.simulate_claim(ctx, kernels, &claims[ci], order, shard as u64, &stop);
                if !deliver(ci, out) {
                    return;
                }
            }
        };

        // Deterministic merge: park each outcome at its position in the
        // simulation order, commit strictly in that order; true once the
        // result is complete. Trace records are emitted here, on the
        // calling thread, so their file order matches fault-list order for
        // any thread count.
        let mut parked: Vec<Option<Simulated>> = (0..order.len()).map(|_| None).collect();
        let mut next_commit = 0usize;
        let mut merge = |ci: usize, out: Vec<Simulated>| -> bool {
            let positions = &claims[ci];
            // A cancelled worker sends a short claim: commit the in-order
            // prefix that is complete, then stop — everything past the
            // first hole must stay uncommitted.
            let partial = out.len() < positions.len();
            for (&p, simulated) in positions.iter().zip(out) {
                parked[p] = Some(simulated);
            }
            while let Some((fo, tel)) = parked.get_mut(next_commit).and_then(Option::take) {
                next_commit += 1;
                if self.commit_expanded(plans, coverage, &mut outcomes, fo, &tel, hooks) {
                    return true;
                }
            }
            partial
        };

        if workers == 1 {
            work(0, &mut base, &mut |ci, out| !merge(ci, out));
        } else {
            // The first worker takes the base kernel, the others fork it:
            // the levelization is shared, and each fault or batch resets the
            // dynamic state anyway.
            let forks: Vec<Kernels<'_>> = (1..workers).map(|_| base.fork()).collect();
            std::thread::scope(|scope| {
                let (tx, rx) = mpsc::channel::<(usize, Vec<Simulated>)>();
                for (shard, mut kernels) in std::iter::once(base).chain(forks).enumerate() {
                    let (tx, work) = (tx.clone(), &work);
                    scope.spawn(move || {
                        work(shard, &mut kernels, &mut |ci, out| {
                            tx.send((ci, out)).is_ok()
                        })
                    });
                }
                drop(tx);
                for (ci, out) in rx.iter() {
                    if merge(ci, out) {
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                // The receiver drops here; workers still sending see a
                // closed channel and exit. The scope joins them.
            });
        }
        outcomes
    }
}

/// Splits a simulation order into claims, the units of work a campaign
/// worker takes, given each position's inject cycle: the positions are
/// packed by (inject cycle, position), up to `capacity` per claim. A
/// lockstep worker gets runs of `chunk` faults in list order (all inject
/// cycles equal); a word gets the next up to [`FAULT_LANES`] faults to arm,
/// so it starts late when they do and can stop early once they all wash
/// out. Each claim's positions ascend, and the claims are ordered by their
/// first position, so one worker taking them in turn commits as early as
/// the packing allows.
fn plan_claims(inject_cycles: impl Iterator<Item = usize>, capacity: usize) -> Vec<Vec<usize>> {
    let mut positions: Vec<(usize, usize)> = inject_cycles.zip(0..).collect();
    positions.sort_unstable();
    let mut claims: Vec<Vec<usize>> = positions
        .chunks(capacity)
        .map(|packed| {
            let mut claim: Vec<usize> = packed.iter().map(|&(_, p)| p).collect();
            claim.sort_unstable();
            claim
        })
        .collect();
    claims.sort_unstable_by_key(|claim| claim[0]);
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentBuilder;
    use crate::faultlist::{generate_fault_list, FaultListConfig};
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Workload};

    fn protected_design() -> socfmea_netlist::Netlist {
        let mut r = RtlBuilder::new("prot");
        let _clk = r.clock_input("clk");
        let d = r.input_word("d", 4);
        r.push_block("regs");
        let q = r.register("data", &d, None, None);
        let pin = r.parity(&d);
        let pq = r.register_bit("par", pin, None, None);
        r.pop_block();
        let pout = r.parity(&q);
        let perr = r.xor2_bit(pout, pq);
        r.output_word("o", &q);
        r.output("alarm_parity", perr);
        r.finish().unwrap()
    }

    fn workload(nl: &socfmea_netlist::Netlist, cycles: u64) -> Workload {
        let d: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..cycles {
            let mut v = Vec::new();
            assign_bus(&mut v, &d, c % 16);
            w.push_cycle(v);
        }
        w
    }

    struct Fixture {
        nl: socfmea_netlist::Netlist,
        zones: socfmea_core::ZoneSet,
        w: Workload,
    }

    impl Fixture {
        fn new(cycles: u64) -> Fixture {
            let nl = protected_design();
            let zones = extract_zones(&nl, &ExtractConfig::default());
            let w = workload(&nl, cycles);
            Fixture { nl, zones, w }
        }

        fn env(&self) -> Environment<'_> {
            EnvironmentBuilder::new(&self.nl, &self.zones, &self.w)
                .alarms_matching("alarm_")
                .build()
        }
    }

    fn fault_list(env: &Environment<'_>) -> Vec<Fault> {
        let profile = crate::profile::OperationalProfile::collect(env);
        generate_fault_list(
            env,
            &profile,
            &FaultListConfig {
                seed: 99,
                ..FaultListConfig::default()
            },
        )
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = fault_list(&env);
        assert!(
            faults.len() > 8,
            "need a non-trivial list, got {}",
            faults.len()
        );
        let serial = Campaign::new(&env, &faults).threads(1).run();
        for threads in [2, 3, 4, 7] {
            let sharded = Campaign::new(&env, &faults).threads(threads).chunk(3).run();
            assert_eq!(serial, sharded, "divergence at {threads} threads");
        }
    }

    #[test]
    fn scheduling_seed_and_chunk_size_do_not_change_the_result() {
        let fx = Fixture::new(10);
        let env = fx.env();
        let faults = fault_list(&env);
        let reference = Campaign::new(&env, &faults).threads(2).run();
        for (seed, chunk) in [(1, 1), (42, 2), (0xdead_beef, 5), (7, 64)] {
            let got = Campaign::new(&env, &faults)
                .threads(4)
                .seed(seed)
                .chunk(chunk)
                .run();
            assert_eq!(reference, got, "divergence at seed {seed} chunk {chunk}");
        }
    }

    #[test]
    fn stats_count_every_fault_and_throughput_is_positive() {
        let fx = Fixture::new(10);
        let env = fx.env();
        let faults = fault_list(&env);
        let campaign = Campaign::new(&env, &faults).threads(2);
        let stats = campaign.stats();
        assert_eq!(stats.faults_done(), 0);
        assert!(!stats.is_finished());
        let result = campaign.run();
        assert!(stats.is_finished());
        assert_eq!(stats.faults_done(), faults.len());
        assert_eq!(stats.scheduled(), faults.len());
        assert_eq!(stats.threads(), 2);
        assert_eq!(stats.outcome_counts(), result.outcome_counts());
        assert!(stats.faults_per_sec() > 0.0);
        let summary = stats.summary();
        assert_eq!(summary.injections, faults.len());
        assert_eq!(summary.threads, 2);
    }

    /// A crafted list whose coverage saturates mid-list: the `par` zone is
    /// only touched by fault #5, so SENS hits 100 % there and an
    /// early-stopping campaign must stop with exactly 6 outcomes
    /// committed. `tail` more data-register flips follow.
    fn early_stop_list(fx: &Fixture, tail: usize) -> Vec<Fault> {
        let data = fx.zones.zone_by_name("regs/data").unwrap();
        let par = fx.zones.zone_by_name("regs/par").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs: data_dffs } = &data.kind else {
            panic!("register zone expected");
        };
        let socfmea_core::ZoneKind::RegisterGroup { dffs: par_dffs } = &par.kind else {
            panic!("register zone expected");
        };
        let flip = |dff, zone, cycle| Fault {
            kind: crate::faultlist::FaultKind::BitFlip { dff },
            zone: Some(zone),
            inject_cycle: cycle,
            label: "crafted flip".into(),
        };
        let mut faults: Vec<Fault> = (0..5)
            .map(|i| flip(data_dffs[i % data_dffs.len()], data.id, 1 + i))
            .collect();
        faults.push(flip(par_dffs[0], par.id, 2));
        faults.extend((0..tail).map(|i| flip(data_dffs[i % data_dffs.len()], data.id, 2 + i % 6)));
        faults
    }

    const STOP_ON_COVERAGE: EarlyStop = EarlyStop::CoverageComplete {
        expect_diagnostics: true,
    };

    #[test]
    fn early_stop_truncates_identically_across_thread_counts() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = early_stop_list(&fx, 6);
        let serial = Campaign::new(&env, &faults)
            .threads(1)
            .early_stop(STOP_ON_COVERAGE)
            .run();
        let full = Campaign::new(&env, &faults).threads(1).run();
        assert!(
            serial.outcomes.len() < full.outcomes.len(),
            "early stop never triggered ({} faults) — fixture too small?",
            full.outcomes.len()
        );
        assert!(serial.coverage.is_complete(true));
        for threads in [2, 4] {
            let sharded = Campaign::new(&env, &faults)
                .threads(threads)
                .chunk(2)
                .early_stop(STOP_ON_COVERAGE)
                .run();
            assert_eq!(
                serial, sharded,
                "early-stop divergence at {threads} threads"
            );
        }
    }

    #[test]
    fn a_lone_worker_claims_in_fault_list_order_whatever_the_seed() {
        // The scheduling seed must not reorder a single worker's claims:
        // otherwise it simulates most of the list before the chunk holding
        // the stopping point commits.
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = early_stop_list(&fx, 60);
        let chunk = 2;
        for seed in [1, 42, 0xdead_beef] {
            let campaign = Campaign::new(&env, &faults)
                .threads(1)
                .seed(seed)
                .chunk(chunk)
                .early_stop(STOP_ON_COVERAGE);
            let stats = campaign.stats();
            let result = campaign.run();
            assert_eq!(result.outcomes.len(), 6, "seed {seed}");
            assert!(
                stats.faults_done() < result.outcomes.len() + chunk,
                "seed {seed}: {} faults simulated for {} committed",
                stats.faults_done(),
                result.outcomes.len()
            );
        }
    }

    #[test]
    fn empty_fault_list_yields_empty_result_on_any_thread_count() {
        let fx = Fixture::new(6);
        let env = fx.env();
        for threads in [1, 4] {
            let result = Campaign::new(&env, &[]).threads(threads).run();
            assert!(result.outcomes.is_empty());
            assert!(result.coverage.is_complete(false));
        }
    }

    #[test]
    fn degenerate_builder_settings_are_clamped() {
        let fx = Fixture::new(8);
        let env = fx.env();
        let faults = fault_list(&env);
        let reference = Campaign::new(&env, &faults).run();
        let clamped = Campaign::new(&env, &faults).threads(0).chunk(0).run();
        assert_eq!(reference, clamped);
    }

    /// Every stuck-at on every driven, non-constant net — the densest list
    /// the collapser can chew on.
    fn exhaustive_stuck_list(nl: &socfmea_netlist::Netlist) -> Vec<Fault> {
        use socfmea_netlist::{Driver, Logic, NetId};
        let mut faults = Vec::new();
        for (i, net) in nl.nets().iter().enumerate() {
            if matches!(net.driver, Driver::None | Driver::Const(_)) {
                continue;
            }
            for value in [Logic::Zero, Logic::One] {
                faults.push(Fault {
                    kind: crate::faultlist::FaultKind::StuckAt {
                        net: NetId::from_index(i),
                        value,
                    },
                    zone: None,
                    inject_cycle: 0,
                    label: format!("exhaustive {}-sa{value}", net.name),
                });
            }
        }
        faults
    }

    #[test]
    fn collapse_is_bit_identical_on_generated_lists() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = fault_list(&env);
        let baseline = Campaign::new(&env, &faults).threads(1).run();
        for threads in [1, 2, 4] {
            let collapsed = Campaign::new(&env, &faults)
                .threads(threads)
                .collapsing(Collapse::Dictionary)
                .run();
            assert_eq!(
                baseline, collapsed,
                "collapse diverges at {threads} threads"
            );
        }
        let composed = Campaign::new(&env, &faults)
            .threads(2)
            .collapsing(Collapse::Dictionary)
            .engine(Engine::Ppsfp)
            .run();
        assert_eq!(baseline, composed, "collapse+accel diverges");
    }

    #[test]
    fn collapse_simulates_fewer_faults_and_accounts_for_all() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = exhaustive_stuck_list(&fx.nl);
        let baseline = Campaign::new(&env, &faults).threads(1).run();
        let campaign = Campaign::new(&env, &faults)
            .threads(1)
            .collapsing(Collapse::Dictionary);
        let stats = campaign.stats();
        let result = campaign.run();
        assert_eq!(baseline, result, "collapsed outcomes diverge");
        assert!(
            stats.faults_collapsed() > 0,
            "exhaustive list on the protected design must collapse something"
        );
        assert_eq!(
            stats.faults_done() + stats.faults_collapsed(),
            result.outcomes.len(),
            "every fault is either simulated or dictionary-annotated"
        );
        assert!(stats.collapse_ratio() > 1.0);
        assert_eq!(stats.outcome_counts(), result.outcome_counts());
        let summary = stats.summary();
        assert_eq!(summary.faults_collapsed, stats.faults_collapsed());
        assert!(summary.collapse_ratio > 1.0);
        assert!(summary.to_string().contains("via dictionary"), "{summary}");
    }

    #[test]
    fn collapse_preserves_early_stop_behaviour() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = exhaustive_stuck_list(&fx.nl);
        let policy = EarlyStop::CoverageComplete {
            expect_diagnostics: true,
        };
        let baseline = Campaign::new(&env, &faults)
            .threads(1)
            .early_stop(policy)
            .run();
        for threads in [1, 3] {
            let collapsed = Campaign::new(&env, &faults)
                .threads(threads)
                .collapsing(Collapse::Dictionary)
                .early_stop(policy)
                .run();
            assert_eq!(
                baseline, collapsed,
                "early-stop divergence under collapse at {threads} threads"
            );
        }
    }

    /// The live path of [`protected_design`] plus two statically dead
    /// corners: a constant-zero cone (an AND leg tied to `const 0`,
    /// registered and re-masked) and a cone that never reaches any
    /// output, alarm or observation net.
    fn dead_corner_fixture() -> (socfmea_netlist::Netlist, socfmea_core::ZoneSet, Workload) {
        use socfmea_netlist::{GateKind, Logic, NetlistBuilder};
        let mut b = NetlistBuilder::new("deadcorner");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let c0 = b.constant(Logic::Zero);
        // live, observable path
        let live = b.gate(GateKind::Or, &[d0, d1], "live");
        let q = b.dff("q", live);
        b.output("o", q);
        // constant cone: provably stuck at 0 through a register and a mask
        let gz = b.gate(GateKind::And, &[d0, c0], "gz");
        let qz = b.dff("qz", gz);
        let masked = b.gate(GateKind::And, &[qz, d1], "masked");
        b.output("oz", masked);
        // dead cone: structurally disconnected from every monitor
        let dead = b.gate(GateKind::Xor, &[d0, d1], "dead");
        let qd = b.dff("qd", dead);
        b.gate(GateKind::Not, &[qd], "deadtail");
        let nl = b.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let mut w = Workload::new("toggle");
        for c in 0..10u64 {
            w.push_cycle(vec![
                (d0, if c % 2 == 0 { Logic::Zero } else { Logic::One }),
                (d1, if c % 3 == 0 { Logic::One } else { Logic::Zero }),
            ]);
        }
        (nl, zones, w)
    }

    #[test]
    fn static_pruning_is_bit_identical_and_saves_simulations() {
        let (nl, zones, w) = dead_corner_fixture();
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let faults = exhaustive_stuck_list(&nl);
        let baseline = Campaign::new(&env, &faults).threads(1).run();
        let campaign = Campaign::new(&env, &faults)
            .threads(1)
            .pruning(Prune::Static);
        let stats = campaign.stats();
        let result = campaign.run();
        assert_eq!(baseline, result, "pruned outcomes diverge");
        assert!(
            stats.faults_pruned() > 0,
            "the dead corners must prune something"
        );
        let (constant, no_path) = stats.pruned_breakdown();
        assert!(constant > 0, "constant cone never proven");
        assert!(no_path > 0, "dead cone never proven");
        assert_eq!(constant + no_path, stats.faults_pruned());
        assert_eq!(
            stats.faults_done() + stats.faults_collapsed() + stats.faults_pruned(),
            result.outcomes.len(),
            "every fault is simulated, annotated or pruned"
        );
        let summary = stats.summary();
        assert_eq!(summary.faults_pruned, stats.faults_pruned());
        assert_eq!(summary.pruned_constant, constant);
        assert_eq!(summary.pruned_no_path, no_path);
        assert!(summary.to_string().contains("statically"), "{summary}");
    }

    #[test]
    fn static_pruning_composes_with_collapse_engines_and_threads() {
        let (nl, zones, w) = dead_corner_fixture();
        let env = EnvironmentBuilder::new(&nl, &zones, &w).build();
        let faults = exhaustive_stuck_list(&nl);
        let baseline = Campaign::new(&env, &faults).threads(1).run();
        for (threads, engine, collapse) in [
            (1, Engine::Lockstep, Collapse::Dictionary),
            (2, Engine::Ppsfp, Collapse::Off),
            (3, Engine::Ppsfp, Collapse::Dictionary),
            (4, Engine::Auto, Collapse::Dictionary),
        ] {
            let pruned = Campaign::new(&env, &faults)
                .threads(threads)
                .engine(engine)
                .collapsing(collapse)
                .pruning(Prune::Static)
                .chunk(3)
                .run();
            assert_eq!(
                baseline, pruned,
                "prune diverges at {threads} threads on {engine:?}/{collapse:?}"
            );
        }
    }

    #[test]
    fn summary_snapshots_are_internally_consistent_mid_run() {
        // Satellite: `summary()` used to read each atomic one by one, so a
        // mid-run snapshot could see a fault's class tally without its
        // `done` bump. Hammer the recorders from another thread and assert
        // every snapshot balances.
        let stats = Arc::new(CampaignStats::new());
        let total = 200_000usize;
        stats.begin(total, 1);
        let writer = {
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                let metrics = FaultMetrics::default();
                for i in 0..total {
                    let outcome = match i % 4 {
                        0 => Outcome::NoEffect,
                        1 => Outcome::SafeDetected,
                        2 => Outcome::DangerousDetected,
                        _ => Outcome::DangerousUndetected,
                    };
                    if i % 5 == 0 {
                        stats.record_annotated(outcome);
                    } else {
                        stats.record(outcome, &metrics, 3);
                    }
                }
            })
        };
        let mut snapshots = 0usize;
        while !writer.is_finished() {
            let s = stats.summary();
            let classified =
                s.no_effect + s.safe_detected + s.dangerous_detected + s.dangerous_undetected;
            assert_eq!(
                classified,
                s.injections + s.faults_collapsed,
                "snapshot does not balance"
            );
            assert!(
                s.injections + s.faults_collapsed <= s.scheduled,
                "more faults classified than scheduled"
            );
            let p = stats.progress_sample();
            assert!(p.faults_done <= p.faults_total);
            assert_eq!(
                p.no_effect + p.safe_detected + p.dangerous_detected + p.dangerous_undetected,
                p.faults_done,
                "progress sample does not balance"
            );
            snapshots += 1;
        }
        writer.join().unwrap();
        assert!(snapshots > 0, "never observed the run in flight");
        let end = stats.summary();
        assert_eq!(end.injections, total - total.div_ceil(5));
        assert_eq!(end.faults_collapsed, total.div_ceil(5));
    }

    /// A Write sink the trace tests can read back once the campaign (and
    /// the sink's writer thread) is done.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn traced_observer() -> (Observer, SharedBuf) {
        let buf = SharedBuf::default();
        let obs = Observer::with_sink(socfmea_obs::TraceSink::to_writer(Box::new(buf.clone())));
        (obs, buf)
    }

    #[test]
    fn observed_campaign_emits_one_ordered_fault_record_per_fault() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = fault_list(&env);
        let (obs, buf) = traced_observer();
        let result = Campaign::new(&env, &faults)
            .threads(3)
            .chunk(2)
            .observe(&obs)
            .run();
        obs.finish().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();

        // one fault record per fault, in fault-list order, framed by
        // meta-first and end-last
        let lines: Vec<socfmea_obs::json::Value> = text
            .lines()
            .map(|l| socfmea_obs::json::parse(l).expect("every line parses"))
            .collect();
        assert_eq!(lines[0].get("ev").unwrap().as_str(), Some("meta"));
        assert_eq!(
            lines.last().unwrap().get("ev").unwrap().as_str(),
            Some("end")
        );
        let indices: Vec<u64> = lines
            .iter()
            .filter(|v| v.get("ev").unwrap().as_str() == Some("fault"))
            .map(|v| v.get("i").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(indices, (0..faults.len() as u64).collect::<Vec<_>>());

        // re-aggregating the trace reproduces the run's numbers exactly
        let summary = socfmea_obs::TraceSummary::from_str(&text).unwrap();
        assert_eq!(summary.faults as usize, result.outcomes.len());
        let (ne, sd, dd, du) = result.outcome_counts();
        assert_eq!(summary.counts.no_effect as usize, ne);
        assert_eq!(summary.counts.safe_detected as usize, sd);
        assert_eq!(summary.counts.dangerous_detected as usize, dd);
        assert_eq!(summary.counts.dangerous_undetected as usize, du);
        assert_eq!(summary.dc(), result.measured_dc());
        assert_eq!(summary.sff(), result.measured_sff());
        assert_eq!(summary.end.as_ref().unwrap().counts, summary.counts);
    }

    #[test]
    fn observing_does_not_change_the_result() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = fault_list(&env);
        let plain = Campaign::new(&env, &faults).threads(2).run();
        let (obs, _buf) = traced_observer();
        let observed = Campaign::new(&env, &faults).threads(2).observe(&obs).run();
        obs.finish().unwrap();
        assert_eq!(plain, observed);
    }

    #[test]
    fn collapsed_campaign_traces_dictionary_faults_with_their_representative() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = exhaustive_stuck_list(&fx.nl);
        let (obs, buf) = traced_observer();
        let campaign = Campaign::new(&env, &faults)
            .collapsing(Collapse::Dictionary)
            .observe(&obs);
        let stats = campaign.stats();
        let _ = campaign.run();
        let snap = obs.metrics_snapshot();
        obs.finish().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let summary = socfmea_obs::TraceSummary::from_str(&text).unwrap();
        let dict = summary.per_engine.get("dictionary").expect("dict faults");
        assert_eq!(dict.counts.total() as usize, stats.faults_collapsed());
        assert_eq!(
            snap.counters["campaign.engine.dictionary"] as usize,
            stats.faults_collapsed()
        );
        // every dictionary record points at an earlier representative
        for line in text.lines() {
            let v = socfmea_obs::json::parse(line).unwrap();
            if v.get("ev").unwrap().as_str() != Some("fault") {
                continue;
            }
            let rep = v.get("rep").unwrap();
            if v.get("engine").unwrap().as_str() == Some("dictionary") {
                assert!(rep.as_u64().unwrap() < v.get("i").unwrap().as_u64().unwrap());
            } else {
                assert!(rep.is_null());
            }
        }
        // the collapse planning phase was traced
        assert!(summary.phases.iter().any(|(n, _)| n == "collapse-plan"));
    }

    #[test]
    fn fresh_stats_guard_their_zero_denominators() {
        // Satellite: a stats block with no work done must not divide by
        // zero — the mean fault time is zero and the collapse ratio is the
        // identity 1.0.
        let stats = CampaignStats::new();
        assert_eq!(stats.mean_fault_time(), std::time::Duration::ZERO);
        assert_eq!(stats.collapse_ratio(), 1.0);
        assert_eq!(stats.faults_collapsed(), 0);
        assert_eq!(stats.ppsfp_batches(), 0);
        assert_eq!(stats.ppsfp_lanes_per_word(), 0.0);
    }

    #[test]
    fn auto_engine_resolves_per_fault_list() {
        let fx = Fixture::new(12);
        let env = fx.env();
        // pure known-value stuck-at list → the bit-parallel engine
        let stuck = exhaustive_stuck_list(&fx.nl);
        assert_eq!(
            Campaign::new(&env, &stuck)
                .engine(Engine::Auto)
                .resolved_engine(),
            Engine::Ppsfp
        );
        // a generated list carries every kind → the bit-parallel engine too
        let mixed = fault_list(&env);
        assert!(mixed
            .iter()
            .any(|f| matches!(f.kind, FaultKind::BitFlip { .. })));
        assert_eq!(
            Campaign::new(&env, &mixed)
                .engine(Engine::Auto)
                .resolved_engine(),
            Engine::Ppsfp
        );
        // nothing to run → the cheapest prepare
        assert_eq!(
            Campaign::new(&env, &[])
                .engine(Engine::Auto)
                .resolved_engine(),
            Engine::Lockstep
        );
        // a fixed engine is never second-guessed, and the builder default
        // stays lockstep
        assert_eq!(
            Campaign::new(&env, &mixed)
                .engine(Engine::Ppsfp)
                .resolved_engine(),
            Engine::Ppsfp
        );
        assert_eq!(
            Campaign::new(&env, &mixed).resolved_engine(),
            Engine::Lockstep
        );
    }

    /// The generated mixed list with two rounds of the exhaustive stuck-at
    /// list woven in, one stuck-at after each mixed fault, and every tenth
    /// of those turned into an `X` stuck-at: all five fault kinds, with the
    /// known-value stuck-ats spread over the whole list.
    fn interleaved_list(fx: &Fixture, env: &Environment<'_>) -> Vec<Fault> {
        use socfmea_netlist::Logic;
        let mixed = fault_list(env);
        let stuck = exhaustive_stuck_list(&fx.nl);
        let mut faults = Vec::new();
        for (i, s) in stuck.iter().chain(&stuck).enumerate() {
            faults.push(mixed[i % mixed.len()].clone());
            let mut s = s.clone();
            s.inject_cycle = i % 5;
            if let FaultKind::StuckAt { value, .. } = &mut s.kind {
                if i % 10 == 0 {
                    *value = Logic::X;
                }
            }
            faults.push(s);
        }
        faults
    }

    #[test]
    fn claims_pack_words_by_inject_cycle_and_runs_by_chunk() {
        // 130 faults whose inject cycles fall back to 0 every 13th
        let inject: Vec<usize> = (0..130).map(|p| p % 13).collect();
        let claims = plan_claims(inject.iter().copied(), FAULT_LANES);
        let mut seen = vec![false; inject.len()];
        let mut firsts = Vec::new();
        let mut latest = Vec::new();
        for claim in &claims {
            assert!(claim.len() <= FAULT_LANES);
            assert!(claim.windows(2).all(|w| w[0] < w[1]));
            for &p in claim {
                assert!(!std::mem::replace(&mut seen[p], true), "{p} claimed twice");
            }
            firsts.push(claim[0]);
            latest.push(claim.iter().map(|&p| inject[p]).max().unwrap());
        }
        assert!(seen.iter().all(|&s| s), "every position claimed");
        assert!(
            firsts.windows(2).all(|w| w[0] < w[1]),
            "claims by first position"
        );
        assert_eq!(
            claims.iter().map(Vec::len).collect::<Vec<_>>(),
            [FAULT_LANES, FAULT_LANES, 4]
        );
        // packed by inject cycle: the first word holds cycles 0..=6, with
        // cycle 6 split at list order
        assert_eq!(latest, [6, 12, 12]);
        assert_eq!(claims[0].iter().filter(|&&p| inject[p] == 6).count(), 3);
        assert_eq!(claims[0].iter().rev().find(|&&p| inject[p] == 6), Some(&32));
        // equal inject cycles (the lockstep engine): runs of `chunk` in list
        // order
        let claims = plan_claims(std::iter::repeat_n(0, 10), 4);
        assert_eq!(claims, [vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        // a chunk past the list length is one run
        let claims = plan_claims(std::iter::repeat_n(0, 10), usize::MAX);
        assert_eq!(claims, [(0..10).collect::<Vec<_>>()]);
    }

    #[test]
    fn every_fault_kind_rides_words_packed_by_inject_cycle() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = interleaved_list(&fx, &env);
        let kinds: std::collections::BTreeSet<String> =
            faults.iter().map(|f| kind_name(&f.kind)).collect();
        assert_eq!(kinds.len(), 5, "every fault kind: {kinds:?}");
        let n = faults.len() as u64;
        assert!(n > FAULT_LANES as u64, "want more than one word");
        let baseline = Campaign::new(&env, &faults).run();
        for (engine, threads, chunk) in [
            (Engine::Ppsfp, 1, 8),
            (Engine::Ppsfp, 1, 1),
            (Engine::Auto, 3, 8),
            (Engine::Ppsfp, 3, 1),
        ] {
            let setting = format!("{engine:?}, {threads} threads, chunk {chunk}");
            let (obs, buf) = traced_observer();
            let campaign = Campaign::new(&env, &faults)
                .engine(engine)
                .threads(threads)
                .chunk(chunk)
                .observe(&obs);
            let stats = campaign.stats();
            let result = campaign.run();
            obs.finish().unwrap();
            assert_eq!(baseline, result, "{setting}");
            // one word per FAULT_LANES faults, whatever the chunk
            assert_eq!(
                stats.ppsfp_batches(),
                n.div_ceil(FAULT_LANES as u64),
                "{setting}"
            );
            assert_eq!(stats.ppsfp_lanes(), n, "{setting}");
            assert_eq!(
                stats.cycles_simulated() + stats.cycles_skipped(),
                n * fx.w.len() as u64,
                "{setting}"
            );
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let mut records = 0;
            for line in text.lines() {
                let v = socfmea_obs::json::parse(line).unwrap();
                if v.get("ev").unwrap().as_str() != Some("fault") {
                    continue;
                }
                let i = v.get("i").unwrap().as_u64().unwrap() as usize;
                assert_eq!(i, records, "trace order ({setting})");
                assert_eq!(
                    v.get("engine").unwrap().as_str(),
                    Some("ppsfp"),
                    "fault #{i} ({}) on {setting}",
                    faults[i].label
                );
                records += 1;
            }
            assert_eq!(records, faults.len());
        }
    }

    #[test]
    fn early_stop_on_an_interleaved_list_stops_at_the_lockstep_fault() {
        let fx = Fixture::new(12);
        let env = fx.env();
        // the crafted flips (coverage completes at #5) with ten known
        // stuck-ats after each, so a word runs far past the stopping point
        let stuck = exhaustive_stuck_list(&fx.nl);
        let mut faults = Vec::new();
        for (i, flip) in early_stop_list(&fx, 6).into_iter().enumerate() {
            faults.push(flip);
            faults.extend(stuck.iter().cycle().skip(10 * i).take(10).cloned());
        }
        let lockstep = Campaign::new(&env, &faults)
            .early_stop(STOP_ON_COVERAGE)
            .run();
        let stopped = lockstep.outcomes.len();
        assert!(stopped < faults.len(), "early stop never triggered");
        assert!(lockstep.coverage.is_complete(true));
        for (engine, threads) in [(Engine::Auto, 1), (Engine::Ppsfp, 1), (Engine::Auto, 3)] {
            let campaign = Campaign::new(&env, &faults)
                .engine(engine)
                .threads(threads)
                .chunk(2)
                .early_stop(STOP_ON_COVERAGE);
            let stats = campaign.stats();
            let result = campaign.run();
            assert_eq!(lockstep, result, "{engine:?} at {threads} threads");
            assert!(
                stats.ppsfp_lanes() > stopped as u64,
                "the first word reaches past the stop ({engine:?})"
            );
        }
    }

    #[test]
    fn a_cancel_mid_word_leaves_a_clean_in_order_prefix() {
        // Two flips, then more than a word of stuck-ats over a long
        // workload. Packed by inject cycle, the flips share the second word
        // with the last stuck-ats; it opens the list, so it is claimed
        // first. The watcher cancels once it is simulated, while the other
        // word is still walking its cycles.
        let fx = Fixture::new(20_000);
        let env = fx.env();
        let mut faults = early_stop_list(&fx, 0)[..2].to_vec();
        faults.extend(
            exhaustive_stuck_list(&fx.nl)
                .into_iter()
                .cycle()
                .take(FAULT_LANES + 10),
        );
        let token = Arc::new(AtomicBool::new(false));
        let campaign = Campaign::new(&env, &faults)
            .engine(Engine::Ppsfp)
            .chunk(2)
            .cancel_token(Arc::clone(&token));
        let stats = campaign.stats();
        let watcher = {
            let (token, stats) = (Arc::clone(&token), Arc::clone(&stats));
            std::thread::spawn(move || {
                while stats.faults_done() < 2 && !stats.is_finished() {
                    std::thread::yield_now();
                }
                token.store(true, Ordering::Relaxed);
            })
        };
        let result = campaign.run();
        watcher.join().unwrap();
        assert!(stats.is_cancelled());
        let n = result.outcomes.len();
        assert!(n < faults.len(), "cancellation never truncated the run");
        if stats.ppsfp_batches() == 1 {
            // the other word was aborted: only the flips before it committed
            assert_eq!(n, 2);
        }
        let prefix = Campaign::new(&env, &faults[..n]).run();
        assert_eq!(result.outcomes, prefix.outcomes);
    }

    #[test]
    fn ppsfp_stats_account_batches_lanes_and_words() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let mut faults = exhaustive_stuck_list(&fx.nl);
        while faults.len() <= FAULT_LANES {
            faults.extend(exhaustive_stuck_list(&fx.nl));
        }
        let n = faults.len() as u64;
        assert!(n > FAULT_LANES as u64, "want more than one batch");
        let campaign = Campaign::new(&env, &faults)
            .engine(Engine::Ppsfp)
            .threads(1);
        let stats = campaign.stats();
        let result = campaign.run();
        assert_eq!(result.outcomes.len(), faults.len());
        let cycles = fx.w.len() as u64;
        let batches = n.div_ceil(FAULT_LANES as u64);
        assert_eq!(stats.ppsfp_batches(), batches);
        assert_eq!(stats.ppsfp_lanes(), n);
        assert_eq!(stats.ppsfp_words(), batches * cycles);
        let lanes_per_word = stats.ppsfp_lanes_per_word();
        assert!(lanes_per_word > 1.0 && lanes_per_word <= FAULT_LANES as f64);
        // per-fault cycle accounting stays balanced: each fault's workload
        // is either simulated (one lane per batch pays for the word) or
        // skipped (it shared the word)
        assert_eq!(
            stats.cycles_simulated() + stats.cycles_skipped(),
            n * cycles
        );
        assert_eq!(stats.cycles_simulated(), batches * cycles);
    }

    #[test]
    fn prepared_artifacts_run_bit_identical_to_cold_across_settings() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = fault_list(&env);
        for (engine, collapse, prune) in [
            (Engine::Lockstep, Collapse::Off, Prune::Off),
            (Engine::Ppsfp, Collapse::Dictionary, Prune::Static),
            (Engine::Auto, Collapse::Off, Prune::Static),
            (Engine::Auto, Collapse::Dictionary, Prune::Off),
        ] {
            let cold = Campaign::new(&env, &faults)
                .engine(engine)
                .collapsing(collapse)
                .pruning(prune)
                .run();
            let art = Arc::new(CampaignArtifacts::prepare(
                &env,
                &faults,
                engine,
                Campaign::DEFAULT_CHECKPOINT_INTERVAL,
                collapse,
                prune,
            ));
            assert_eq!(art.engine(), engine.resolve_for(&faults));
            assert_eq!(art.faults_len(), faults.len());
            assert!(art.approx_bytes() > 0);
            // one shared bundle, many runs, any thread count
            for threads in [1, 3] {
                let warm = Campaign::new(&env, &faults)
                    .engine(engine)
                    .collapsing(collapse)
                    .pruning(prune)
                    .threads(threads)
                    .artifacts(Arc::clone(&art))
                    .run();
                assert_eq!(
                    cold, warm,
                    "artifact run diverges ({engine:?}/{collapse:?}/{prune:?}, {threads} threads)"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "different engine")]
    fn mismatched_artifact_engine_is_rejected() {
        let fx = Fixture::new(8);
        let env = fx.env();
        let faults = fault_list(&env);
        let art = Arc::new(CampaignArtifacts::prepare(
            &env,
            &faults,
            Engine::Lockstep,
            Campaign::DEFAULT_CHECKPOINT_INTERVAL,
            Collapse::Off,
            Prune::Off,
        ));
        let _ = Campaign::new(&env, &faults)
            .engine(Engine::Ppsfp)
            .artifacts(art)
            .run();
    }

    #[test]
    fn pre_set_cancel_token_aborts_before_any_commit() {
        let fx = Fixture::new(10);
        let env = fx.env();
        let faults = fault_list(&env);
        for threads in [1, 3] {
            let token = Arc::new(AtomicBool::new(true));
            let campaign = Campaign::new(&env, &faults)
                .threads(threads)
                .cancel_token(Arc::clone(&token));
            let stats = campaign.stats();
            let result = campaign.run();
            assert!(result.outcomes.is_empty(), "{threads} threads");
            assert!(stats.is_cancelled());
            assert!(stats.is_finished());
        }
        // an unfired token changes nothing
        let token = Arc::new(AtomicBool::new(false));
        let campaign = Campaign::new(&env, &faults).cancel_token(token);
        let stats = campaign.stats();
        let full = campaign.run();
        assert_eq!(full, Campaign::new(&env, &faults).run());
        assert!(!stats.is_cancelled());
    }

    /// A trace writer that fires a cancellation token once it has written
    /// a fault record.
    struct CancelOnFaultRecord(Arc<AtomicBool>);

    impl std::io::Write for CancelOnFaultRecord {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.windows(12).any(|w| w == br#""ev":"fault""#) {
                self.0.store(true, Ordering::Relaxed);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn cancellation_mid_run_keeps_a_clean_in_order_prefix() {
        // The token fires once the trace writer has written the first fault
        // record. A lone worker commits, and traces, each claim before it
        // simulates the next, and the trace sink queues at most 4096
        // records ahead of its writer, so the run blocks before it can
        // commit the 4100th fault unless the cancel has landed: a longer
        // list is cut short however the threads are scheduled.
        let fx = Fixture::new(8);
        let env = fx.env();
        let faults: Vec<Fault> = fault_list(&env).into_iter().cycle().take(4500).collect();
        let full = Campaign::new(&env, &faults).run();
        let token = Arc::new(AtomicBool::new(false));
        let writer = CancelOnFaultRecord(Arc::clone(&token));
        let obs = Observer::with_sink(socfmea_obs::TraceSink::to_writer(Box::new(writer)));
        let campaign = Campaign::new(&env, &faults)
            .chunk(2)
            .cancel_token(token)
            .observe(&obs);
        let stats = campaign.stats();
        let result = campaign.run();
        obs.finish().unwrap();
        assert!(
            result.outcomes.len() < faults.len(),
            "cancellation never truncated the run ({} outcomes)",
            result.outcomes.len()
        );
        assert!(stats.is_cancelled());
        // whatever was committed is the exact in-order prefix of a full run
        assert_eq!(result.outcomes, full.outcomes[..result.outcomes.len()]);
    }

    #[test]
    fn kernel_work_counts_repeat_across_threads_and_stay_below_full_walks() {
        // a 16-bit parity-protected register on a low-activity workload
        // (the data input changes every 8 cycles), and a list without
        // bridges (a bridged word walks every gate every cycle)
        let mut r = RtlBuilder::new("wide");
        let d = r.input_word("d", 16);
        r.push_block("regs");
        let q = r.register("data", &d, None, None);
        let pin = r.parity(&d);
        let pq = r.register_bit("par", pin, None, None);
        r.pop_block();
        let pout = r.parity(&q);
        let perr = r.xor2_bit(pout, pq);
        r.output_word("o", &q);
        r.output("alarm_parity", perr);
        let nl = r.finish().unwrap();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let mut w = Workload::new("slow count");
        for c in 0..48u64 {
            let mut v = Vec::new();
            assign_bus(&mut v, d.bits(), (c / 8).wrapping_mul(0x9e37) & 0xffff);
            w.push_cycle(v);
        }
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let faults: Vec<Fault> = fault_list(&env)
            .into_iter()
            .filter(|f| !matches!(f.kind, FaultKind::Bridge { .. }))
            .collect();
        let counts = |threads| {
            let (obs, _buf) = traced_observer();
            let campaign = Campaign::new(&env, &faults)
                .engine(Engine::Ppsfp)
                .threads(threads)
                .observe(&obs);
            let stats = campaign.stats();
            let _ = campaign.run();
            let snap = obs.metrics_snapshot();
            obs.finish().unwrap();
            assert_eq!(
                snap.counters["campaign.ppsfp.gate_evals"],
                stats.gate_evals()
            );
            assert_eq!(
                snap.counters["campaign.ppsfp.ff_updates"],
                stats.ff_updates()
            );
            (stats.ppsfp_words(), stats.gate_evals(), stats.ff_updates())
        };
        let (words, gate_evals, ff_updates) = counts(1);
        assert_eq!(counts(3), (words, gate_evals, ff_updates));
        assert!(
            gate_evals < words * nl.gate_count() as u64,
            "{gate_evals} gate evals in {words} word-cycles"
        );
        assert!(
            ff_updates < words * nl.dff_count() as u64,
            "{ff_updates} flip-flop updates in {words} word-cycles"
        );
        // the counts are exact: a change in the kernel's walk shows here
        assert_eq!((words, gate_evals, ff_updates), (48, 499, 325));
    }

    #[test]
    fn observed_ppsfp_campaign_counts_engine_and_batches() {
        let fx = Fixture::new(12);
        let env = fx.env();
        let faults = exhaustive_stuck_list(&fx.nl);
        let (obs, _buf) = traced_observer();
        let campaign = Campaign::new(&env, &faults)
            .engine(Engine::Ppsfp)
            .observe(&obs);
        let stats = campaign.stats();
        let _ = campaign.run();
        let snap = obs.metrics_snapshot();
        obs.finish().unwrap();
        assert_eq!(
            snap.counters["campaign.engine.ppsfp"] as usize,
            faults.len(),
            "every fault is classified by the ppsfp engine"
        );
        assert_eq!(
            snap.counters["campaign.ppsfp.batches"],
            stats.ppsfp_batches()
        );
        assert_eq!(snap.counters["campaign.ppsfp.lanes"], stats.ppsfp_lanes());
        assert_eq!(snap.counters["campaign.ppsfp.words"], stats.ppsfp_words());
    }
}
