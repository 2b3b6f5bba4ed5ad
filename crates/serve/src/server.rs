//! The campaign daemon: accept loop, HTTP routes, worker pool, and the
//! job runner that replays the `socfmea inject` pipeline bit for bit.
//!
//! ```text
//! POST   /v1/jobs              submit a campaign        202 / 400 / 413 / 429
//! GET    /v1/jobs/<id>         job status                200 / 404
//! GET    /v1/jobs/<id>/trace   live JSONL trace (chunked)
//! GET    /v1/jobs/<id>/events  live progress/telemetry events (chunked)
//! DELETE /v1/jobs/<id>         cooperative cancel        200 / 404
//! GET    /v1/healthz           liveness + job aggregates
//! GET    /v1/metrics           Prometheus text (`?format=json` for JSON)
//! POST   /v1/admin/shutdown    drain and stop
//! ```
//!
//! Streamed traces are **normalized**: per-fault `nanos` are zeroed,
//! `shard` is dropped, span/phase records are suppressed, and the end
//! record's `elapsed_nanos` is zeroed — everything left is a pure
//! function of `(design, spec)`, so two submissions of the same work
//! stream byte-identical bodies no matter which worker ran them or how
//! many threads it used.
//!
//! Everything timing-bearing rides a **separate channel**: with
//! [`ServerConfig::telemetry`] on (the default), each job gets a
//! [`TraceCtx`] minted at submit time, its observer aggregates into the
//! process-wide registry with `{job,tenant}` labels, and span/phase
//! records, wall-clock `meta`/`end` copies, lifecycle transitions and
//! periodic `progress` samples stream on `GET /v1/jobs/<id>/events` —
//! leaving `/trace` byte-identical whether telemetry is on or off.

use crate::cache::{ArtifactCache, DesignEntry};
use crate::design;
use crate::http::{ChunkedWriter, Request, RequestError, Response};
use crate::job::{Job, JobState, JobSummary, JobTable};
use crate::protocol::{error_doc, JobSpec};
use crate::scheduler::Scheduler;
use socfmea_faultsim::{Campaign, EnvironmentBuilder};
use socfmea_obs::json::Value;
use socfmea_obs::metrics::Registry;
use socfmea_obs::trace::TraceEvent;
use socfmea_obs::{
    Observer, ProgressReporter, ProgressSample, Render, StreamBuffer, TraceCtx, TraceSink,
};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Campaign worker threads in the pool (jobs running concurrently).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions draw 429.
    pub queue_capacity: usize,
    /// Artifact-cache byte budget.
    pub cache_bytes: usize,
    /// Campaign threads for jobs submitting `threads: 0`.
    pub default_threads: usize,
    /// Correlated telemetry: labeled job metrics in the shared registry,
    /// span/phase/progress records on `/v1/jobs/<id>/events`. Off reverts
    /// jobs to private registries and an empty events stream; the
    /// normalized `/trace` stream is byte-identical either way.
    pub telemetry: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7171".into(),
            workers: 2,
            queue_capacity: 64,
            cache_bytes: 256 * 1024 * 1024,
            default_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            telemetry: true,
        }
    }
}

struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    registry: Arc<Registry>,
    cache: ArtifactCache,
    jobs: JobTable,
    scheduler: Scheduler,
    shutdown: AtomicBool,
}

impl Shared {
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.scheduler.close();
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running campaign server; see the module docs for the routes.
pub struct Server {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// When the listen address cannot be bound.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        let shared = Arc::new(Shared {
            cache: ArtifactCache::new(config.cache_bytes, Arc::clone(&registry)),
            scheduler: Scheduler::with_registry(config.queue_capacity, Arc::clone(&registry)),
            jobs: JobTable::new(),
            registry,
            addr,
            shutdown: AtomicBool::new(false),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Server {
            shared,
            accept,
            workers,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts a drain-and-stop (the in-process form of
    /// `POST /v1/admin/shutdown`).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the accept loop and every worker have exited, then
    /// closes the streams of jobs that never ran so watchers unblock.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        for job in self.shared.jobs.all() {
            job.stream.close();
            job.events.close();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || handle_connection(&shared, stream));
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_half);
    let mut out = stream;
    match Request::read_from(&mut reader) {
        Err(None) | Err(Some(RequestError::Io(_))) => {}
        Err(Some(RequestError::Bad(msg))) => {
            let _ = Response::json(400, error_doc(&msg)).write_to(&mut out);
        }
        Err(Some(RequestError::TooLarge(n))) => {
            let _ = Response::json(
                413,
                error_doc(&format!(
                    "body of {n} bytes exceeds the {} byte limit",
                    crate::http::MAX_BODY_BYTES
                )),
            )
            .write_to(&mut out);
        }
        Ok(req) => route(shared, &req, out),
    }
}

/// The bounded-cardinality route label for the per-route HTTP metrics:
/// job ids collapse to `:id`, unknown paths to `other`.
fn route_label(path: &str) -> &'static str {
    match path {
        "/v1/jobs" => "/v1/jobs",
        "/v1/healthz" => "/v1/healthz",
        "/v1/metrics" => "/v1/metrics",
        "/v1/admin/shutdown" => "/v1/admin/shutdown",
        _ if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            if rest.ends_with("/trace") {
                "/v1/jobs/:id/trace"
            } else if rest.ends_with("/events") {
                "/v1/jobs/:id/events"
            } else {
                "/v1/jobs/:id"
            }
        }
        _ => "other",
    }
}

fn route(shared: &Arc<Shared>, req: &Request, out: TcpStream) {
    // the request target may carry a query string (`/v1/metrics?format=json`)
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    let labels = [
        ("method", req.method.as_str()),
        ("route", route_label(path)),
    ];
    shared
        .registry
        .counter_labeled("serve.http.requests", &labels)
        .incr();
    let started = Instant::now();
    dispatch(shared, req, path, query, out);
    // streaming routes count their full stream duration as latency
    shared
        .registry
        .histogram_labeled("serve.http.latency.nanos", &labels)
        .record(started.elapsed().as_nanos() as u64);
}

fn dispatch(shared: &Arc<Shared>, req: &Request, path: &str, query: &str, mut out: TcpStream) {
    let respond = |out: &mut TcpStream, status: u16, body: &str| {
        let _ = Response::json(status, body).write_to(out);
    };
    match (req.method.as_str(), path) {
        ("POST", "/v1/jobs") => submit(shared, req, &mut out),
        ("GET", "/v1/healthz") => respond(&mut out, 200, &healthz_doc(shared)),
        ("GET", "/v1/metrics") => {
            let snap = shared.registry.snapshot();
            let response = if query.split('&').any(|kv| kv == "format=json") {
                Response::json(200, snap.render_json())
            } else {
                Response::text(200, "text/plain; version=0.0.4", snap.render_prometheus())
            };
            // the snapshot copies every series: free it before the write
            drop(snap);
            let _ = response.write_to(&mut out);
        }
        ("POST", "/v1/admin/shutdown") => {
            respond(&mut out, 200, r#"{"ok":true,"state":"draining"}"#);
            shared.initiate_shutdown();
        }
        (method, path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            match (
                method,
                rest.strip_suffix("/trace"),
                rest.strip_suffix("/events"),
            ) {
                ("GET", Some(id), _) => stream_job(shared, id, out, |job| &job.stream),
                ("GET", _, Some(id)) => stream_job(shared, id, out, |job| &job.events),
                ("GET", None, None) => match shared.jobs.get(rest) {
                    Some(job) => respond(&mut out, 200, &job.status_doc().to_string()),
                    None => respond(&mut out, 404, &error_doc(&format!("no such job `{rest}`"))),
                },
                ("DELETE", None, None) => cancel(shared, rest, &mut out),
                _ => respond(&mut out, 405, &error_doc("method not allowed")),
            }
        }
        _ => respond(
            &mut out,
            404,
            &error_doc(&format!("no route for {} {}", req.method, req.path)),
        ),
    }
}

fn submit(shared: &Arc<Shared>, req: &Request, out: &mut TcpStream) {
    let body = String::from_utf8_lossy(&req.body);
    let spec = match JobSpec::parse(&body) {
        Ok(spec) => spec,
        Err(msg) => {
            let _ = Response::json(400, error_doc(&msg)).write_to(out);
            return;
        }
    };
    let resolved = match design::resolve(&spec.design) {
        Ok(resolved) => resolved,
        Err(msg) => {
            let _ = Response::json(400, error_doc(&msg)).write_to(out);
            return;
        }
    };
    let entry = shared.cache.design(resolved);
    let job = shared.jobs.create(spec, entry);
    let enqueued = shared
        .scheduler
        .enqueue_with(&job.spec.tenant, job.id.clone(), |position| {
            // under the scheduler lock: no worker can report `running`
            // before this `queued` event lands on the stream
            job.push_event(&lifecycle_event(
                &job,
                "queued",
                vec![("queue_position", Value::uint(position as u64))],
            ));
        });
    if let Err(full) = enqueued {
        shared.registry.counter("serve.jobs.rejected").incr();
        drop(job.take_design());
        job.finish(JobState::Failed("rejected: queue full".into()));
        job.stream.close();
        job.push_event(&lifecycle_event(
            &job,
            "failed",
            vec![("error", Value::Str("rejected: queue full".into()))],
        ));
        job.events.close();
        let _ = Response::json(429, error_doc("queue full, retry later"))
            .header("retry-after", full.retry_after)
            .write_to(out);
        return;
    }
    shared.registry.counter("serve.jobs.submitted").incr();
    let doc = Value::obj(vec![
        ("job", Value::Str(job.id.clone())),
        ("design_key", Value::Str(format!("{:016x}", job.design_key))),
        ("state", Value::Str("queued".into())),
    ]);
    let _ = Response::json(202, doc.to_string()).write_to(out);
}

fn cancel(shared: &Arc<Shared>, id: &str, out: &mut TcpStream) {
    let Some(job) = shared.jobs.get(id) else {
        let _ = Response::json(404, error_doc(&format!("no such job `{id}`"))).write_to(out);
        return;
    };
    let accepted = job.request_cancel();
    if accepted {
        shared
            .registry
            .counter("serve.jobs.cancel_requested")
            .incr();
    }
    if matches!(job.state(), JobState::Cancelled(None)) {
        // cancelled straight out of the queue: nothing will ever stream
        job.stream.close();
        job.push_event(&lifecycle_event(&job, "cancelled", vec![]));
        job.events.close();
    }
    let doc = Value::obj(vec![
        ("job", Value::Str(job.id.clone())),
        ("cancelled", Value::Bool(accepted)),
        (
            "state",
            match job.status_doc().get("state") {
                Some(v) => v.clone(),
                None => Value::Null,
            },
        ),
    ]);
    let _ = Response::json(200, doc.to_string()).write_to(out);
}

fn stream_job(
    shared: &Arc<Shared>,
    id: &str,
    mut out: TcpStream,
    buffer: impl Fn(&Job) -> &Arc<StreamBuffer>,
) {
    let Some(job) = shared.jobs.get(id) else {
        let _ = Response::json(404, error_doc(&format!("no such job `{id}`"))).write_to(&mut out);
        return;
    };
    let stream = Arc::clone(buffer(&job));
    let Ok(mut chunks) = ChunkedWriter::start(out, 200, "application/x-ndjson") else {
        return;
    };
    let mut offset = 0usize;
    loop {
        let (bytes, done) = stream.read_from(offset, Duration::from_millis(250));
        offset += bytes.len();
        if chunks.write(&bytes).is_err() {
            return; // watcher went away
        }
        if done {
            break;
        }
    }
    let _ = chunks.finish();
}

fn healthz_doc(shared: &Shared) -> String {
    let jobs = shared.jobs.all();
    let count =
        |f: &dyn Fn(&JobState) -> bool| jobs.iter().filter(|j| f(&j.state())).count() as u64;
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("jobs", Value::uint(jobs.len() as u64)),
        (
            "queued",
            Value::uint(count(&|s| matches!(s, JobState::Queued))),
        ),
        (
            "running",
            Value::uint(count(&|s| matches!(s, JobState::Running))),
        ),
        (
            "done",
            Value::uint(count(&|s| matches!(s, JobState::Done(_)))),
        ),
        (
            "cancelled",
            Value::uint(count(&|s| matches!(s, JobState::Cancelled(_)))),
        ),
        (
            "failed",
            Value::uint(count(&|s| matches!(s, JobState::Failed(_)))),
        ),
        (
            "designs_cached",
            Value::uint(shared.cache.designs_cached() as u64),
        ),
    ])
    .to_string()
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.scheduler.dequeue() {
        let Some(job) = shared.jobs.get(&id) else {
            continue;
        };
        // held for this iteration only: a finished job pins no design
        let design = job.take_design();
        if shared.shutdown.load(Ordering::SeqCst) {
            // draining: don't start new campaigns, just unblock watchers
            job.request_cancel();
            job.stream.close();
            job.push_event(&lifecycle_event(&job, "cancelled", vec![]));
            job.events.close();
            continue;
        }
        if !job.start() {
            // cancelled while queued
            job.stream.close();
            job.events.close();
            continue;
        }
        job.push_event(&lifecycle_event(&job, "running", vec![]));
        match run_job(shared, &job, design) {
            Ok(()) => {}
            Err(msg) => {
                shared.registry.counter("serve.jobs.failed").incr();
                job.push_event(&lifecycle_event(
                    &job,
                    "failed",
                    vec![("error", Value::Str(msg.clone()))],
                ));
                job.finish(JobState::Failed(msg));
                job.stream.close();
            }
        }
        job.events.close();
    }
}

/// One `{"ev":"lifecycle",...}` line for the job's events stream.
fn lifecycle_event(job: &Job, state: &str, extra: Vec<(&str, Value)>) -> Value {
    let mut members = vec![
        ("ev", Value::Str("lifecycle".into())),
        ("job", Value::Str(job.id.clone())),
        ("tenant", Value::Str(job.spec.tenant.clone())),
        ("state", Value::Str(state.into())),
    ];
    members.extend(extra);
    Value::obj(members)
}

/// A [`Write`] adapter for the telemetry sink: appends into the job's
/// events stream but — unlike [`StreamBuffer::writer`] — does **not**
/// close the stream on drop, so lifecycle events can follow after the
/// sink finishes.
struct EventsWriter(Arc<StreamBuffer>);

impl Write for EventsWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.append(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A progress [`Render`] that appends structured `{"ev":"progress",...}`
/// samples (with correlation ids) to the job's events stream instead of
/// formatting terminal lines.
struct EventsRender {
    events: Arc<StreamBuffer>,
    job: String,
    tenant: String,
}

impl Render for EventsRender {
    fn render(&mut self, _line: &str) {}
    fn observe(&mut self, sample: &ProgressSample) {
        let mut members = vec![
            ("ev".to_owned(), Value::Str("progress".into())),
            ("job".to_owned(), Value::Str(self.job.clone())),
            ("tenant".to_owned(), Value::Str(self.tenant.clone())),
        ];
        if let Value::Obj(fields) = sample.to_json() {
            members.extend(fields);
        }
        self.events
            .append(format!("{}\n", Value::Obj(members)).as_bytes());
    }
}

/// Zeroes/strips every wall-clock-dependent field so the streamed trace
/// is a pure function of `(design, spec)`.
fn normalize_event(ev: TraceEvent) -> Option<TraceEvent> {
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
        // thread count never changes results, so it is normalized out of
        // the meta record too — the whole stream is spec-pure
        TraceEvent::Meta {
            design,
            faults,
            threads: _,
            cycles,
            seed,
            engine,
            collapse,
        } => Some(TraceEvent::Meta {
            design,
            faults,
            threads: 0,
            cycles,
            seed,
            engine,
            collapse,
        }),
    }
}

/// Runs one job on its `design`: warm (or build) the artifact bundle, then
/// execute the exact `socfmea inject` campaign against it, streaming the
/// normalized trace into the job's buffer. A job that ends `done` shares
/// its trace bytes with the bundle's earlier identical ones.
fn run_job(
    shared: &Arc<Shared>,
    job: &Arc<Job>,
    design: Option<Arc<DesignEntry>>,
) -> Result<(), String> {
    let design = design.ok_or("the job's design was already released")?;
    let sink =
        TraceSink::to_writer_mapped(Box::new(job.stream.writer()), Box::new(normalize_event));
    let observer = if shared.config.telemetry {
        // correlated: labeled metrics in the shared registry, timing
        // records on the job's events stream, spans rooted under `serve`
        Observer::with_registry(Arc::clone(&shared.registry))
            .sink(sink)
            .telemetry(TraceSink::to_writer(Box::new(EventsWriter(Arc::clone(
                &job.events,
            )))))
            .context(TraceCtx {
                job_id: job.id.clone(),
                tenant: job.spec.tenant.clone(),
                parent_span: Some("serve".into()),
            })
    } else {
        Observer::with_sink(sink)
    };
    let bundle = match shared
        .cache
        .bundle_observed(&design, &job.spec, Some(&observer))
    {
        Ok(bundle) => bundle,
        Err(msg) => {
            let _ = observer.finish();
            return Err(msg);
        }
    };
    let env = EnvironmentBuilder::new(&design.netlist, &design.zones, &bundle.workload)
        .alarms_matching("alarm")
        .build();
    let threads = if job.spec.threads == 0 {
        shared.config.default_threads
    } else {
        job.spec.threads
    };
    let campaign = Campaign::new(&env, &bundle.faults)
        .threads(threads)
        .seed(job.spec.seed)
        .engine(job.spec.engine)
        .checkpoint_interval(job.spec.checkpoint_interval)
        .collapsing(job.spec.collapse)
        .pruning(job.spec.prune)
        .artifacts(Arc::clone(&bundle.artifacts))
        .cancel_token(Arc::clone(&job.cancel))
        .observe(&observer);
    let stats = campaign.stats();
    job.attach_stats(Arc::clone(&stats));
    let reporter = shared.config.telemetry.then(|| {
        let stats = Arc::clone(&stats);
        let render = EventsRender {
            events: Arc::clone(&job.events),
            job: job.id.clone(),
            tenant: job.spec.tenant.clone(),
        };
        ProgressReporter::start(Box::new(render), Duration::from_millis(100), move || {
            stats.progress_sample()
        })
    });
    let result = campaign.run();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    // finishing the observer drops the stream writer, closing the stream
    observer
        .finish()
        .map_err(|e| format!("trace stream: {e}"))?;
    let summary = JobSummary {
        faults: result.outcomes.len() as u64,
        dc: result.measured_dc(),
        sff: result.measured_sff(),
    };
    let terminal = if stats.is_cancelled() {
        shared.registry.counter("serve.jobs.cancelled").incr();
        job.finish(JobState::Cancelled(Some(summary)));
        "cancelled"
    } else {
        shared.registry.counter("serve.jobs.completed").incr();
        design.share_trace(&bundle, &job.stream);
        job.finish(JobState::Done(summary));
        "done"
    };
    job.push_event(&lifecycle_event(
        job,
        terminal,
        vec![
            ("faults", Value::uint(summary.faults)),
            ("dc", Value::opt(summary.dc, Value::Float)),
            ("sff", Value::opt(summary.sff, Value::Float)),
        ],
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use socfmea_obs::json;

    /// Submits `body` and returns the server-side record of the job.
    fn submit(server: &Server, client: &Client, body: &str) -> Arc<Job> {
        let resp = client.submit_raw(body).expect("submit");
        assert_eq!(resp.status, 202, "rejected: {}", resp.text());
        let doc = json::parse(&resp.text()).expect("submit response");
        let id = doc.get("job").and_then(|v| v.as_str()).expect("job id");
        server.shared.jobs.get(id).expect("admitted job")
    }

    fn wait_until(job: &Job, reached: impl Fn(&JobState) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(120);
        while !reached(&job.state()) {
            assert!(
                Instant::now() < deadline,
                "{} stuck {:?}",
                job.id,
                job.state()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn done_jobs_of_one_spec_share_one_trace_and_a_cancelled_one_does_not() {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            default_threads: 1,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let client = Client::new(server.addr().to_string());
        let body = r#"{"example":"fmem","cycles":2048}"#;

        // First on the bundle, but cancelled mid-run: its partial trace
        // must not become the copy the done jobs share.
        let cancelled = submit(&server, &client, body);
        wait_until(&cancelled, |s| *s == JobState::Running);
        assert_eq!(client.cancel(&cancelled.id).expect("cancel").status, 200);
        wait_until(&cancelled, |s| !matches!(s, JobState::Running));
        assert!(
            matches!(cancelled.state(), JobState::Cancelled(Some(_))),
            "the cancel landed after the run: {:?}",
            cancelled.state()
        );

        let done: Vec<Arc<Job>> = (0..3)
            .map(|_| {
                let job = submit(&server, &client, body);
                wait_until(&job, |s| matches!(s, JobState::Done(_)));
                job
            })
            .collect();
        let shared = done[0]
            .stream
            .freeze()
            .expect("a done job's stream is closed");
        for job in &done {
            let mut watched = Vec::new();
            assert_eq!(client.watch(&job.id, &mut watched).expect("watch"), 200);
            assert_eq!(watched, &shared[..], "{}: /trace bytes differ", job.id);
            let own = job.stream.freeze().expect("closed");
            assert!(Arc::ptr_eq(&shared, &own), "{} keeps its own copy", job.id);
        }
        let partial = cancelled.stream.freeze().expect("closed");
        assert!(!Arc::ptr_eq(&shared, &partial));
        assert!(
            partial.len() < shared.len(),
            "the cancelled trace is partial"
        );

        server.shutdown();
        server.join();
    }
}
