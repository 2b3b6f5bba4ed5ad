//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a `socfmea-*` layer in a span: name,
//! start, end, parent and the id of the job it belongs to. Spans stay in
//! memory while the workload runs and are written out as JSONL when it
//! ends. A layer's self time is its span minus the part of that interval
//! its child spans cover.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub job: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    anchor: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            anchor: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// pass as the parent of nested spans (`None` when disabled).
    pub fn span<R>(
        &self,
        name: &str,
        job: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span table lock").push(Span {
            id,
            name: name.to_owned(),
            job,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records an already-measured interval (for spans whose start and end
    /// are observed by another party, such as a streamed first byte).
    pub fn record(&self, name: &str, job: u64, parent: Option<u64>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.anchor).as_nanos() as u64;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span table lock").push(Span {
            id,
            name: name.to_owned(),
            job,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Every recorded span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span table lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn millis(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// The spans as JSONL, one object per line with its self time.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        for s in &spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{},"name":"{}","job":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                s.id,
                s.name,
                s.job,
                s.start_ns,
                s.end_ns,
                self_nanos(s, &spans)
            );
        }
        out
    }
}

/// `span`'s duration minus the union of its direct children's intervals
/// (clipped to the span).
pub fn self_nanos(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.nanos() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),  // overlaps 2: counted once
            span(4, Some(2), 12, 20),  // grandchild: not subtracted from 1
            span(5, Some(1), 90, 130), // clipped to the parent's end
        ];
        assert_eq!(self_nanos(&all[0], &all), 100 - 50 - 10);
        assert_eq!(self_nanos(&all[1], &all), 30 - 8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", 0, None, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", 7, None, |id| t.span("inner", 7, id, |_| 1));
        assert_eq!(inner, 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(t.to_jsonl().lines().count() == 2);
    }
}
