//! The [`Observer`]: one handle bundling the trace sink(s) and the metrics
//! registry, passed by reference into the pipeline stages.
//!
//! Instrumented code never owns I/O: it asks the observer for a
//! [`Span`] guard (timed, emitted on drop), calls
//! [`emit`](Observer::emit) for structured records, or touches
//! pre-resolved registry instruments. An observer without a sink is valid
//! and cheap — metrics still aggregate, trace events go nowhere — so
//! callers can instrument unconditionally and let the CLI decide what to
//! collect.
//!
//! # Channel separation
//!
//! An observer can carry *two* sinks. The **result** sink receives the
//! deterministic campaign record stream (`meta`/`fault`/`end`): the
//! campaign server normalizes it into a pure function of (design, spec).
//! The optional **telemetry** sink receives everything timing-bearing
//! (`span`/`phase`, plus `meta`/`end` copies with real wall-clock) so
//! correlation and profiling never perturb the result stream. Without a
//! telemetry sink every event goes to the result sink — the single-file
//! `socfmea inject --trace-out` behaviour.
//!
//! # Correlation
//!
//! A [`TraceCtx`] attached via [`Observer::context`] stamps its `job_id`
//! and `tenant` onto every emitted span/phase record and onto every
//! instrument resolved through [`Observer::counter`]/[`gauge`](Observer::gauge)/
//! [`histogram`](Observer::histogram) (as `{job="...",tenant="..."}`
//! labels), and roots span names under `parent_span`.

use crate::metrics::{MetricsSnapshot, Registry};
use crate::trace::{TraceEvent, TraceSink};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Correlation identifiers minted where a unit of work enters the system
/// (the campaign server mints one per accepted job) and threaded through
/// every pipeline stage via the [`Observer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The job this work belongs to (`j-000001`).
    pub job_id: String,
    /// The submitting tenant.
    pub tenant: String,
    /// Optional root span name; observer spans nest under it
    /// (`<parent_span>/<name>`).
    pub parent_span: Option<String>,
}

/// The shared telemetry handle for one pipeline run.
#[derive(Default)]
pub struct Observer {
    sink: Option<TraceSink>,
    telemetry: Option<TraceSink>,
    registry: Arc<Registry>,
    ctx: Option<TraceCtx>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("tracing", &self.tracing())
            .field("ctx", &self.ctx)
            .finish_non_exhaustive()
    }
}

impl Observer {
    /// A metrics-only observer (no trace sink).
    pub fn new() -> Observer {
        Observer::default()
    }

    /// An observer that also streams trace events into `sink`.
    pub fn with_sink(sink: TraceSink) -> Observer {
        Observer {
            sink: Some(sink),
            ..Observer::default()
        }
    }

    /// An observer aggregating into a shared registry (the campaign server
    /// passes its process-wide registry so job metrics surface on
    /// `/v1/metrics`).
    pub fn with_registry(registry: Arc<Registry>) -> Observer {
        Observer {
            registry,
            ..Observer::default()
        }
    }

    /// Sets the result sink (the deterministic `meta`/`fault`/`end`
    /// stream).
    #[must_use]
    pub fn sink(mut self, sink: TraceSink) -> Observer {
        self.sink = Some(sink);
        self
    }

    /// Sets the telemetry sink: timing-bearing records (`span`/`phase`,
    /// plus wall-clock `meta`/`end` copies) flow here instead of the
    /// result sink.
    #[must_use]
    pub fn telemetry(mut self, sink: TraceSink) -> Observer {
        self.telemetry = Some(sink);
        self
    }

    /// Attaches correlation identifiers; see the module docs.
    #[must_use]
    pub fn context(mut self, ctx: TraceCtx) -> Observer {
        self.ctx = Some(ctx);
        self
    }

    /// The attached correlation context, if any.
    pub fn ctx(&self) -> Option<&TraceCtx> {
        self.ctx.as_ref()
    }

    /// The metrics registry (get-or-create instruments by name).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A shareable handle to the registry.
    pub fn registry_handle(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The counter for `name`, context-labeled when a [`TraceCtx`] is
    /// attached.
    pub fn counter(&self, name: &str) -> Arc<crate::metrics::Counter> {
        match self.ctx_labels() {
            Some(labels) => self.registry.counter_labeled(name, &labels),
            None => self.registry.counter(name),
        }
    }

    /// The gauge for `name`, context-labeled when a [`TraceCtx`] is
    /// attached.
    pub fn gauge(&self, name: &str) -> Arc<crate::metrics::Gauge> {
        match self.ctx_labels() {
            Some(labels) => self.registry.gauge_labeled(name, &labels),
            None => self.registry.gauge(name),
        }
    }

    /// The histogram for `name`, context-labeled when a [`TraceCtx`] is
    /// attached.
    pub fn histogram(&self, name: &str) -> Arc<crate::metrics::Histogram> {
        match self.ctx_labels() {
            Some(labels) => self.registry.histogram_labeled(name, &labels),
            None => self.registry.histogram(name),
        }
    }

    /// Whether trace events are being collected on the result channel.
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    fn ctx_labels(&self) -> Option<[(&str, &str); 2]> {
        self.ctx
            .as_ref()
            .map(|c| [("job", c.job_id.as_str()), ("tenant", c.tenant.as_str())])
    }

    /// Stamps the correlation IDs onto a span/phase event.
    fn correlate(&self, job: &mut Option<String>, tenant: &mut Option<String>) {
        if let Some(ctx) = &self.ctx {
            *job = Some(ctx.job_id.clone());
            *tenant = Some(ctx.tenant.clone());
        }
    }

    /// Sends one structured record to the appropriate channel(s):
    /// spans/phases to the telemetry sink when present (else the result
    /// sink), faults to the result sink, meta/end to both.
    pub fn emit(&self, ev: TraceEvent) {
        match &ev {
            TraceEvent::Span { .. } | TraceEvent::Phase { .. } => match &self.telemetry {
                Some(telemetry) => telemetry.emit(ev),
                None => {
                    if let Some(sink) = &self.sink {
                        sink.emit(ev);
                    }
                }
            },
            TraceEvent::Meta { .. } | TraceEvent::End { .. } => {
                if let Some(telemetry) = &self.telemetry {
                    telemetry.emit(ev.clone());
                }
                if let Some(sink) = &self.sink {
                    sink.emit(ev);
                }
            }
            TraceEvent::Fault(_) => {
                if let Some(sink) = &self.sink {
                    sink.emit(ev);
                }
            }
        }
    }

    /// Opens a timed span; closing (dropping) it emits a `span` record and
    /// feeds the `span.<name>.nanos` histogram. Nest by naming:
    /// `parent.child("sub")` yields `parent/sub`. With a [`TraceCtx`]
    /// attached, the emitted name is rooted under `ctx.parent_span` and
    /// the record carries `job`/`tenant`.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        Span {
            obs: self,
            name: name.into(),
            shard: None,
            start: Instant::now(),
        }
    }

    /// A span attributed to one campaign worker shard.
    pub fn shard_span(&self, name: impl Into<String>, shard: u64) -> Span<'_> {
        Span {
            obs: self,
            name: name.into(),
            shard: Some(shard),
            start: Instant::now(),
        }
    }

    /// Times `f` as a named pipeline phase: emits a `phase` record and sets
    /// the `phase.<name>.nanos` gauge (context-labeled when a [`TraceCtx`]
    /// is attached).
    pub fn phase<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.gauge(&format!("phase.{name}.nanos")).set(nanos as f64);
        let (mut job, mut tenant) = (None, None);
        self.correlate(&mut job, &mut tenant);
        self.emit(TraceEvent::Phase {
            name: name.to_string(),
            nanos,
            job,
            tenant,
        });
        out
    }

    /// A point-in-time copy of every metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Closes both sinks (flushing their writer threads) and surfaces the
    /// first I/O error. Metrics-only observers finish trivially.
    ///
    /// # Errors
    ///
    /// The first write/flush error either sink's writer thread hit.
    pub fn finish(self) -> io::Result<()> {
        let result = match self.sink {
            Some(sink) => sink.finish(),
            None => Ok(()),
        };
        let telemetry = match self.telemetry {
            Some(sink) => sink.finish(),
            None => Ok(()),
        };
        result.and(telemetry)
    }
}

/// An RAII timing guard from [`Observer::span`]; the measurement happens
/// on drop.
pub struct Span<'a> {
    obs: &'a Observer,
    name: String,
    shard: Option<u64>,
    start: Instant,
}

impl Span<'_> {
    /// Opens a nested span named `<self>/<name>` starting now.
    pub fn child(&self, name: &str) -> Span<'_> {
        self.obs.span(format!("{}/{}", self.name, name))
    }

    /// Elapsed time since the span opened.
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = self.elapsed_nanos();
        let name = std::mem::take(&mut self.name);
        // root the emitted name under the context's parent span; the raw
        // name stays in `child()`-built paths so nesting prefixes once
        let full = match self.obs.ctx.as_ref().and_then(|c| c.parent_span.as_ref()) {
            Some(parent) => format!("{parent}/{name}"),
            None => name,
        };
        self.obs
            .histogram(&format!("span.{full}.nanos"))
            .record(nanos);
        let (mut job, mut tenant) = (None, None);
        self.obs.correlate(&mut job, &mut tenant);
        self.obs.emit(TraceEvent::Span {
            name: full,
            nanos,
            shard: self.shard,
            job,
            tenant,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn traced() -> (Observer, SharedBuf) {
        let buf = SharedBuf::default();
        let obs = Observer::with_sink(TraceSink::to_writer(Box::new(buf.clone())));
        (obs, buf)
    }

    #[test]
    fn metrics_only_observer_collects_without_a_sink() {
        let obs = Observer::new();
        assert!(!obs.tracing());
        obs.registry().counter("faults.done").add(3);
        {
            let _s = obs.span("quiet");
        }
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.counters["faults.done"], 3);
        assert_eq!(snap.histograms["span.quiet.nanos"].count, 1);
        obs.finish().unwrap();
    }

    #[test]
    fn spans_emit_records_and_histograms_on_drop() {
        let (obs, buf) = traced();
        {
            let outer = obs.span("campaign");
            let _inner = outer.child("merge");
        }
        let snap = obs.metrics_snapshot();
        obs.finish().unwrap();
        let names: Vec<String> = buf
            .text()
            .lines()
            .map(|l| {
                parse(l)
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        // inner drops first
        assert_eq!(names, ["campaign/merge", "campaign"]);
        assert_eq!(snap.histograms["span.campaign.nanos"].count, 1);
        assert_eq!(snap.histograms["span.campaign/merge.nanos"].count, 1);
    }

    #[test]
    fn phase_times_the_closure_and_emits_a_record() {
        let (obs, buf) = traced();
        let answer = obs.phase("extract", || 41 + 1);
        assert_eq!(answer, 42);
        let snap = obs.metrics_snapshot();
        assert!(snap.gauges.contains_key("phase.extract.nanos"));
        obs.finish().unwrap();
        let v = parse(buf.text().lines().next().unwrap()).unwrap();
        assert_eq!(v.get("ev").unwrap().as_str(), Some("phase"));
        assert_eq!(v.get("name").unwrap().as_str(), Some("extract"));
        // no context attached: no correlation keys in the record
        assert!(v.get("job").is_none());
        assert!(v.get("tenant").is_none());
    }

    #[test]
    fn shard_spans_carry_the_shard_id() {
        let (obs, buf) = traced();
        {
            let _s = obs.shard_span("campaign/shard", 3);
        }
        obs.finish().unwrap();
        let v = parse(buf.text().lines().next().unwrap()).unwrap();
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn context_stamps_correlation_ids_and_roots_span_names() {
        let buf = SharedBuf::default();
        let obs = Observer::new()
            .telemetry(TraceSink::to_writer(Box::new(buf.clone())))
            .context(TraceCtx {
                job_id: "j-000007".into(),
                tenant: "acme".into(),
                parent_span: Some("serve".into()),
            });
        {
            let outer = obs.span("campaign");
            let _inner = outer.child("merge");
        }
        obs.phase("prepare", || ());
        let snap = obs.metrics_snapshot();
        obs.finish().unwrap();

        for line in buf.text().lines() {
            let v = parse(line).unwrap();
            assert_eq!(v.get("job").unwrap().as_str(), Some("j-000007"), "{line}");
            assert_eq!(v.get("tenant").unwrap().as_str(), Some("acme"), "{line}");
        }
        let names: Vec<String> = buf
            .text()
            .lines()
            .map(|l| {
                parse(l)
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .into()
            })
            .collect();
        // child() nests on the raw name; the parent root prefixes exactly
        // once at emit time
        assert_eq!(names, ["serve/campaign/merge", "serve/campaign", "prepare"]);
        // instruments resolved through the observer carry the labels
        assert_eq!(
            snap.histograms[r#"span.serve/campaign.nanos{job="j-000007",tenant="acme"}"#].count,
            1
        );
        assert!(snap
            .gauges
            .contains_key(r#"phase.prepare.nanos{job="j-000007",tenant="acme"}"#));
    }

    #[test]
    fn telemetry_channel_splits_timing_from_results() {
        let (results, telemetry) = (SharedBuf::default(), SharedBuf::default());
        let obs = Observer::new()
            .sink(TraceSink::to_writer(Box::new(results.clone())))
            .telemetry(TraceSink::to_writer(Box::new(telemetry.clone())));
        obs.emit(TraceEvent::Meta {
            design: "d".into(),
            faults: 1,
            threads: 1,
            cycles: 4,
            seed: 0,
            engine: "lockstep",
            collapse: false,
        });
        {
            let _s = obs.span("campaign");
        }
        obs.phase("prepare", || ());
        obs.emit(TraceEvent::End {
            faults: 1,
            no_effect: 1,
            safe_detected: 0,
            dangerous_detected: 0,
            dangerous_undetected: 0,
            dc: None,
            sff: None,
            elapsed_nanos: 123,
        });
        obs.finish().unwrap();

        let evs = |text: String| -> Vec<String> {
            text.lines()
                .map(|l| {
                    parse(l)
                        .unwrap()
                        .get("ev")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .into()
                })
                .collect()
        };
        // result channel: deterministic records only, no spans/phases
        assert_eq!(evs(results.text()), ["meta", "end"]);
        // telemetry channel: timing records plus meta/end copies with the
        // real wall-clock
        assert_eq!(evs(telemetry.text()), ["meta", "span", "phase", "end"]);
        let end = telemetry.text();
        let end = parse(end.lines().last().unwrap()).unwrap();
        assert_eq!(end.get("elapsed_nanos").unwrap().as_u64(), Some(123));
    }

    #[test]
    fn shared_registry_aggregates_across_observers() {
        let registry = Arc::new(Registry::new());
        let a = Observer::with_registry(Arc::clone(&registry));
        let b = Observer::with_registry(Arc::clone(&registry));
        a.counter("campaign.faults.simulated").add(2);
        b.counter("campaign.faults.simulated").add(3);
        assert_eq!(registry.snapshot().counters["campaign.faults.simulated"], 5);
        a.finish().unwrap();
        b.finish().unwrap();
    }
}
