//! The thread-safe counter/gauge/histogram registry.
//!
//! Handles are `Arc`-shared atomics: resolving a name takes the registry
//! lock once, after which every update is a single relaxed atomic op —
//! cheap enough to leave on inside campaign worker loops. For genuinely
//! per-cycle hot paths, [`SampleEvery`] thins observations to every n-th
//! event so the instrument cost stays bounded.
//!
//! [`Registry::snapshot`] freezes all instruments into a
//! [`MetricsSnapshot`] that renders as one JSON document — the
//! `--metrics-out` artefact and the `metrics` section of the bench
//! snapshots.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two histogram buckets (bucket `i` counts values whose
/// highest set bit is `i`; bucket 0 additionally holds zeros).
const BUCKETS: usize = 64;

/// A lock-free histogram over `u64` observations (log2 buckets plus exact
/// count/sum/min/max).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let bucket = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the histogram into plain numbers.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // upper bound of the bucket: 2^(i+1) - 1
                    return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                }
            }
            self.max.load(Ordering::Relaxed)
        };
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: quantile(0.50),
            p99: quantile(0.99),
        }
    }
}

/// Frozen view of one [`Histogram`]: exact count/sum/min/max/mean plus
/// bucket-resolution (power-of-two upper bound) p50/p99 estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median, rounded up to the enclosing power-of-two bucket bound.
    pub p50: u64,
    /// 99th percentile, same resolution.
    pub p99: u64,
}

/// A deterministic sampler for per-cycle hot paths: [`hit`](Self::hit)
/// returns true on every `n`-th call, so a hot loop can record one
/// histogram observation per `n` events at the cost of one atomic increment
/// per event.
#[derive(Debug)]
pub struct SampleEvery {
    n: u64,
    seen: AtomicU64,
}

impl SampleEvery {
    /// A sampler keeping every `n`-th event (`n` is clamped to at least 1).
    pub fn new(n: u64) -> SampleEvery {
        SampleEvery {
            n: n.max(1),
            seen: AtomicU64::new(0),
        }
    }

    /// True when this event should be recorded.
    pub fn hit(&self) -> bool {
        self.seen
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.n)
    }

    /// Total events observed (sampled or not).
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The named-instrument registry. Cloning the returned `Arc` handles out of
/// the registry is the fast path; the internal lock is only held while
/// resolving names and while snapshotting.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the registry lock was poisoned by a panicking instrument
    /// user (not reachable from this crate's own code).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry lock");
        Arc::clone(inner.counters.entry(name.to_owned()).or_default())
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry lock");
        Arc::clone(inner.gauges.entry(name.to_owned()).or_default())
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry lock");
        Arc::clone(inner.histograms.entry(name.to_owned()).or_default())
    }

    /// The counter registered under `name` with `labels` attached
    /// (created on first use). Each distinct label set is its own series.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&labeled_name(name, labels))
    }

    /// The gauge registered under `name` with `labels` attached.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge(&labeled_name(name, labels))
    }

    /// The histogram registered under `name` with `labels` attached.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&labeled_name(name, labels))
    }

    /// Freezes every instrument into one [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Encodes a label set into the flat registry namespace:
/// `name{k="v",k2="v2"}`. An empty label set is just `name`. Quotes and
/// backslashes in values are escaped so the rendered form survives both
/// the JSON snapshot and Prometheus exposition unambiguously.
pub fn labeled_name(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a registry key back into `(family, labels)` where `labels` keeps
/// its enclosing braces (empty string when unlabeled), sanitizing the
/// family for the Prometheus metric-name charset (`[a-zA-Z0-9_:]`).
fn prometheus_family(key: &str) -> (String, String) {
    let (base, labels) = match key.find('{') {
        Some(brace) => (&key[..brace], key[brace..].to_owned()),
        None => (key, String::new()),
    };
    let family = base
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    (family, labels)
}

/// Merges an extra label into a `{...}`-or-empty label suffix.
fn with_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

/// A frozen registry: every instrument's value at snapshot time, ordered by
/// name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON value (`{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}`).
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::uint(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Float(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::obj(vec![
                        ("count", Value::uint(h.count)),
                        ("sum", Value::uint(h.sum)),
                        ("min", Value::uint(h.min)),
                        ("max", Value::uint(h.max)),
                        ("mean", Value::Float(h.mean)),
                        ("p50", Value::uint(h.p50)),
                        ("p99", Value::uint(h.p99)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("counters", Value::Obj(counters)),
            ("gauges", Value::Obj(gauges)),
            ("histograms", Value::Obj(histograms)),
        ])
    }

    /// The snapshot rendered as one compact JSON document, byte for byte
    /// [`to_json`](Self::to_json)`().to_string()`, but written straight
    /// into one `String`: a server that has run thousands of jobs holds
    /// thousands of labeled series, and a [`Value`] tree of them costs
    /// several times the document.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        fn members<T>(
            out: &mut String,
            map: &BTreeMap<String, T>,
            mut value: impl FnMut(&mut String, &T),
        ) {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                crate::json::quote_into(out, k);
                out.push(':');
                value(out, v);
            }
            out.push('}');
        }
        let mut out = String::new();
        out.push_str("{\"counters\":");
        members(&mut out, &self.counters, |out, &v| {
            let _ = write!(out, "{}", Value::uint(v));
        });
        out.push_str(",\"gauges\":");
        members(&mut out, &self.gauges, |out, &v| {
            let _ = write!(out, "{}", Value::Float(v));
        });
        out.push_str(",\"histograms\":");
        members(&mut out, &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                Value::uint(h.count),
                Value::uint(h.sum),
                Value::uint(h.min),
                Value::uint(h.max),
                Value::Float(h.mean),
                Value::uint(h.p50),
                Value::uint(h.p99),
            );
        });
        out.push('}');
        out
    }

    /// The snapshot in Prometheus text exposition format (version 0.0.4):
    /// one `# TYPE` line per metric family, counters and gauges as plain
    /// samples, histograms as `summary` families with p50/p99 quantile
    /// samples plus `_sum`/`_count`. Dots and dashes in registry names map
    /// to underscores; labels encoded by [`labeled_name`] pass through.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        // group by sanitized family so each TYPE line is emitted exactly
        // once, even when labeled and unlabeled series interleave
        let mut counters: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        for (key, &v) in &self.counters {
            let (family, labels) = prometheus_family(key);
            counters
                .entry(family)
                .or_default()
                .push((labels, v.to_string()));
        }
        let mut gauges: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        for (key, &v) in &self.gauges {
            let (family, labels) = prometheus_family(key);
            gauges
                .entry(family)
                .or_default()
                .push((labels, format!("{v}")));
        }
        let mut summaries: BTreeMap<String, Vec<(String, HistogramSnapshot)>> = BTreeMap::new();
        for (key, h) in &self.histograms {
            let (family, labels) = prometheus_family(key);
            summaries.entry(family).or_default().push((labels, *h));
        }

        let mut out = String::new();
        for (family, series) in &counters {
            let _ = writeln!(out, "# TYPE {family} counter");
            for (labels, value) in series {
                let _ = writeln!(out, "{family}{labels} {value}");
            }
        }
        for (family, series) in &gauges {
            let _ = writeln!(out, "# TYPE {family} gauge");
            for (labels, value) in series {
                let _ = writeln!(out, "{family}{labels} {value}");
            }
        }
        for (family, series) in &summaries {
            let _ = writeln!(out, "# TYPE {family} summary");
            for (labels, h) in series {
                let p50 = with_label(labels, "quantile=\"0.5\"");
                let p99 = with_label(labels, "quantile=\"0.99\"");
                let _ = writeln!(out, "{family}{p50} {}", h.p50);
                let _ = writeln!(out, "{family}{p99} {}", h.p99);
                let _ = writeln!(out, "{family}_sum{labels} {}", h.sum);
                let _ = writeln!(out, "{family}_count{labels} {}", h.count);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_read_back() {
        let reg = Registry::new();
        let c = reg.counter("campaign.faults");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        // same name resolves to the same instrument
        reg.counter("campaign.faults").add(1);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("campaign.dc");
        g.set(0.875);
        assert_eq!(reg.gauge("campaign.dc").get(), 0.875);
    }

    #[test]
    fn histogram_statistics_are_exact_where_promised() {
        let reg = Registry::new();
        let h = reg.histogram("fault.nanos");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 221.2).abs() < 1e-9);
        // p50 of {1,2,3,100,1000} is 3 -> bucket bound 3
        assert_eq!(s.p50, 3);
        assert!(s.p99 >= 1000, "p99 bound must cover the max: {}", s.p99);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p99),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn zero_observations_land_in_bucket_zero() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50, 1, "bucket-0 upper bound");
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("n");
        let h = reg.histogram("h");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.incr();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.snapshot().count, 4000);
        assert_eq!(reg.snapshot().counters["n"], 4000);
    }

    #[test]
    fn sampler_keeps_every_nth() {
        let s = SampleEvery::new(3);
        let hits: Vec<bool> = (0..9).map(|_| s.hit()).collect();
        assert_eq!(
            hits,
            [true, false, false, true, false, false, true, false, false]
        );
        assert_eq!(s.seen(), 9);
        // degenerate n is clamped
        let every = SampleEvery::new(0);
        assert!(every.hit() && every.hit());
    }

    #[test]
    fn histogram_bucket_edges_cover_the_full_u64_range() {
        // 0 and 1 both land in bucket 0 (upper bound 1)
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (2, 0, 1));
        assert_eq!(s.p50, 1);
        assert_eq!(s.p99, 1);

        // u64::MAX lands in the top bucket, whose bound saturates instead
        // of overflowing `2 << 63`
        let h = Histogram::default();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (1, u64::MAX, u64::MAX));
        assert_eq!(s.p50, u64::MAX);
        assert_eq!(s.p99, u64::MAX);
        assert_eq!(s.sum, u64::MAX);

        // bucket-boundary values: 2^i sits in bucket i (bound 2^(i+1)-1),
        // 2^i - 1 in bucket i-1 (bound 2^i - 1)
        for i in [1u32, 2, 7, 31, 62] {
            let lo = Histogram::default();
            lo.record((1u64 << i) - 1);
            assert_eq!(lo.snapshot().p50, (1u64 << i) - 1, "below boundary 2^{i}");
            let hi = Histogram::default();
            hi.record(1u64 << i);
            assert_eq!(
                hi.snapshot().p50,
                (1u64 << (i + 1)) - 1,
                "at boundary 2^{i}"
            );
        }
        // the 2^63 boundary: top bucket's bound is u64::MAX
        let top = Histogram::default();
        top.record(1u64 << 63);
        assert_eq!(top.snapshot().p50, u64::MAX);
    }

    #[test]
    fn concurrent_recording_keeps_quantiles_within_bucket_bounds() {
        // four threads hammer disjoint magnitude bands; the snapshot's
        // p50/p99 must respect the aggregate distribution's bucket bounds
        // no matter how the interleaving lands
        let h = Arc::new(Histogram::default());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        // half the observations are small (bucket 3: 8..=15),
                        // half are large (bucket 13: 8192..=16383)
                        let v = if (t + i) % 2 == 0 {
                            8 + (i % 8)
                        } else {
                            8192 + i
                        };
                        h.record(v);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        // exactly 2000 small + 2000 large: the median rank falls on the
        // last small observation, so p50 is the small band's bucket bound
        assert_eq!(s.p50, 15);
        // p99 is deep inside the large band
        assert_eq!(s.p99, 16383);
        assert!(s.min >= 8 && s.max <= 8192 + 999);
    }

    #[test]
    fn labeled_instruments_are_distinct_series() {
        let reg = Registry::new();
        reg.counter_labeled("serve.http.requests", &[("route", "/v1/jobs")])
            .add(2);
        reg.counter_labeled("serve.http.requests", &[("route", "/v1/healthz")])
            .incr();
        reg.counter("serve.http.requests").add(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[r#"serve.http.requests{route="/v1/jobs"}"#], 2);
        assert_eq!(
            snap.counters[r#"serve.http.requests{route="/v1/healthz"}"#],
            1
        );
        assert_eq!(snap.counters["serve.http.requests"], 10);
        // values with quotes/backslashes stay unambiguous
        assert_eq!(labeled_name("m", &[("k", "a\"b\\c")]), r#"m{k="a\"b\\c"}"#);
        assert_eq!(labeled_name("m", &[]), "m");
    }

    #[test]
    fn prometheus_rendering_groups_families_and_exposes_quantiles() {
        let reg = Registry::new();
        reg.counter_labeled(
            "serve.http.requests",
            &[("route", "/v1/jobs"), ("method", "POST")],
        )
        .add(3);
        reg.counter("serve.http.requests").add(7);
        // a name that sorts between the unlabeled and labeled series must
        // not split the family's TYPE group
        reg.counter("serve.http.requests.total").add(1);
        reg.gauge("campaign.dc").set(0.875);
        let h = reg.histogram_labeled("span.campaign.nanos", &[("job", "j-000001")]);
        h.record(100);
        h.record(200);
        let text = reg.snapshot().render_prometheus();

        assert!(text.contains("# TYPE serve_http_requests counter\n"));
        assert_eq!(
            text.matches("# TYPE serve_http_requests counter").count(),
            1,
            "family TYPE line must be unique:\n{text}"
        );
        assert!(text.contains("serve_http_requests 7\n"));
        assert!(text.contains(r#"serve_http_requests{route="/v1/jobs",method="POST"} 3"#));
        assert!(text.contains("# TYPE campaign_dc gauge\n"));
        assert!(text.contains("campaign_dc 0.875\n"));
        assert!(text.contains("# TYPE span_campaign_nanos summary\n"));
        assert!(text.contains(r#"span_campaign_nanos{job="j-000001",quantile="0.5"}"#));
        assert!(text.contains(r#"span_campaign_nanos{job="j-000001",quantile="0.99"}"#));
        assert!(text.contains(r#"span_campaign_nanos_sum{job="j-000001"} 300"#));
        assert!(text.contains(r#"span_campaign_nanos_count{job="j-000001"} 2"#));

        // every non-comment line is `name[{labels}] value`
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "bad value in `{line}`");
            let base = name.split('{').next().unwrap();
            assert!(
                base.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad family in `{line}`"
            );
        }
    }

    #[test]
    fn streamed_json_equals_the_value_tree_rendering() {
        let reg = Registry::new();
        reg.counter("a.b").add(7);
        reg.counter("huge").add(u64::MAX);
        reg.counter_labeled(
            "serve.http.requests",
            &[("route", "/v1/jobs"), ("tenant", "q\"uo\\te\n")],
        )
        .add(3);
        reg.gauge("g").set(1.5);
        reg.gauge("whole").set(2.0);
        reg.gauge("nan").set(f64::NAN);
        reg.gauge("inf").set(f64::INFINITY);
        reg.gauge("neg_inf").set(f64::NEG_INFINITY);
        reg.gauge_labeled("cache.bytes", &[("job", "j-000001")])
            .set(1e300);
        let h = reg.histogram_labeled("span.campaign.nanos", &[("job", "j-000001")]);
        h.record(100);
        h.record(7_000_000);
        reg.histogram("empty");
        let snap = reg.snapshot();
        assert_eq!(snap.render_json(), snap.to_json().to_string());
        assert_eq!(
            MetricsSnapshot::default().render_json(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }

    #[test]
    fn snapshot_renders_parseable_json() {
        let reg = Registry::new();
        reg.counter("a.b").add(7);
        reg.gauge("g").set(1.5);
        reg.histogram("h").record(12);
        let json = reg.snapshot().render_json();
        let v = crate::json::parse(&json).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.b"))
                .and_then(crate::json::Value::as_u64),
            Some(7)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(crate::json::Value::as_f64),
            Some(1.5)
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("h"))
            .expect("histogram");
        assert_eq!(h.get("count").and_then(crate::json::Value::as_u64), Some(1));
        assert_eq!(h.get("sum").and_then(crate::json::Value::as_u64), Some(12));
    }
}
