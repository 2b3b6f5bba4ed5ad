//! Offline aggregation of a JSONL trace: `socfmea trace summarize`.
//!
//! A [`TraceSummary`] re-derives the campaign's outcome counts, DC, and
//! SFF purely from per-fault records — so a trace can be cross-checked
//! against the live run's printed numbers — and aggregates per-zone,
//! per-kind, per-engine, per-phase, and per-span tables plus the slowest
//! individual faults.

use crate::json::{parse, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// How many of the slowest faults the summary keeps.
const SLOWEST_KEPT: usize = 10;

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryError {
    /// 1-based line number in the trace.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SummaryError {}

/// Outcome tallies in IEC 61508 classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// No-effect faults.
    pub no_effect: u64,
    /// Safe-detected faults.
    pub safe_detected: u64,
    /// Dangerous-detected faults.
    pub dangerous_detected: u64,
    /// Dangerous-undetected faults.
    pub dangerous_undetected: u64,
}

impl OutcomeCounts {
    /// Sum over all four classes.
    pub fn total(&self) -> u64 {
        self.no_effect + self.safe_detected + self.dangerous_detected + self.dangerous_undetected
    }

    fn bump(&mut self, outcome: &str) -> bool {
        match outcome {
            "NE" => self.no_effect += 1,
            "SD" => self.safe_detected += 1,
            "DD" => self.dangerous_detected += 1,
            "DU" => self.dangerous_undetected += 1,
            _ => return false,
        }
        true
    }
}

/// Aggregate over a group of fault records (one zone, kind, or engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupAgg {
    /// Outcome tallies for the group.
    pub counts: OutcomeCounts,
    /// Cycles simulated by the group.
    pub cycles_simulated: u64,
    /// Cycles skipped by the group.
    pub cycles_skipped: u64,
    /// Wall-clock nanoseconds spent simulating the group.
    pub nanos: u64,
}

/// Aggregate over same-named spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// How many spans closed with this name.
    pub count: u64,
    /// Their summed duration.
    pub total_nanos: u64,
}

/// One of the slowest faults in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowFault {
    /// Fault-list index.
    pub index: u64,
    /// Fault label.
    pub label: String,
    /// Outcome class.
    pub outcome: String,
    /// Simulation wall-clock.
    pub nanos: u64,
}

/// The `end` record's claims, kept for cross-checking.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndClaims {
    /// Claimed fault count.
    pub faults: u64,
    /// Claimed outcome tallies.
    pub counts: OutcomeCounts,
    /// Claimed diagnostic coverage.
    pub dc: Option<f64>,
    /// Claimed safe failure fraction.
    pub sff: Option<f64>,
    /// Claimed campaign wall-clock.
    pub elapsed_nanos: u64,
}

/// Everything `trace summarize` derives from one JSONL trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Design name from the `meta` record.
    pub design: Option<String>,
    /// Scheduled fault count claimed by the `meta` record.
    pub meta_faults: Option<u64>,
    /// `progress` events seen (server `/events` captures interleave them
    /// with spans and phases; they carry no aggregate information).
    pub progress_events: u64,
    /// `lifecycle` events seen (queued/running/done transitions on server
    /// `/events` captures).
    pub lifecycle_events: u64,
    /// Per-fault records seen.
    pub faults: u64,
    /// Outcome tallies recomputed from the fault records.
    pub counts: OutcomeCounts,
    /// Total cycles simulated across faults.
    pub cycles_simulated: u64,
    /// Total cycles skipped across faults.
    pub cycles_skipped: u64,
    /// Summed per-fault simulation time.
    pub fault_nanos: u64,
    /// Aggregates keyed by zone name (`"-"` for zoneless faults).
    pub per_zone: BTreeMap<String, GroupAgg>,
    /// Aggregates keyed by fault kind.
    pub per_kind: BTreeMap<String, GroupAgg>,
    /// Aggregates keyed by engine path.
    pub per_engine: BTreeMap<String, GroupAgg>,
    /// Phase durations in trace order.
    pub phases: Vec<(String, u64)>,
    /// Span aggregates keyed by span name.
    pub spans: BTreeMap<String, SpanAgg>,
    /// The slowest faults, most expensive first.
    pub slowest: Vec<SlowFault>,
    /// The trailing `end` record, when present.
    pub end: Option<EndClaims>,
}

fn err(line: usize, message: impl Into<String>) -> SummaryError {
    SummaryError {
        line,
        message: message.into(),
    }
}

fn req_str(v: &Value, key: &str, line: usize) -> Result<String, SummaryError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| err(line, format!("missing string field {key:?}")))
}

fn req_u64(v: &Value, key: &str, line: usize) -> Result<u64, SummaryError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| err(line, format!("missing integer field {key:?}")))
}

impl TraceSummary {
    /// Summarizes a trace read from `path`.
    ///
    /// # Errors
    ///
    /// I/O failures are reported as a line-0 [`SummaryError`]; malformed
    /// records carry their line number.
    pub fn from_file(path: impl AsRef<Path>) -> Result<TraceSummary, SummaryError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| err(0, format!("cannot read {}: {e}", path.as_ref().display())))?;
        TraceSummary::from_str(&text)
    }

    /// Summarizes a trace held in memory.
    ///
    /// # Errors
    ///
    /// The first malformed line, with its 1-based line number.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<TraceSummary, SummaryError> {
        let mut s = TraceSummary::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let v = parse(raw).map_err(|e| err(line, e.to_string()))?;
            let ev = req_str(&v, "ev", line)?;
            match ev.as_str() {
                "meta" => {
                    s.design = Some(req_str(&v, "design", line)?);
                    s.meta_faults = v.get("faults").and_then(Value::as_u64);
                }
                "progress" => s.progress_events += 1,
                "lifecycle" => s.lifecycle_events += 1,
                "fault" => s.add_fault(&v, line)?,
                "span" => {
                    let name = req_str(&v, "name", line)?;
                    let nanos = req_u64(&v, "nanos", line)?;
                    let agg = s.spans.entry(name).or_default();
                    agg.count += 1;
                    agg.total_nanos += nanos;
                }
                "phase" => {
                    let name = req_str(&v, "name", line)?;
                    let nanos = req_u64(&v, "nanos", line)?;
                    s.phases.push((name, nanos));
                }
                "end" => {
                    s.end = Some(EndClaims {
                        faults: req_u64(&v, "faults", line)?,
                        counts: OutcomeCounts {
                            no_effect: req_u64(&v, "ne", line)?,
                            safe_detected: req_u64(&v, "sd", line)?,
                            dangerous_detected: req_u64(&v, "dd", line)?,
                            dangerous_undetected: req_u64(&v, "du", line)?,
                        },
                        dc: v.get("dc").and_then(Value::as_f64),
                        sff: v.get("sff").and_then(Value::as_f64),
                        elapsed_nanos: req_u64(&v, "elapsed_nanos", line)?,
                    });
                }
                other => return Err(err(line, format!("unknown event kind {other:?}"))),
            }
        }
        s.slowest
            .sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.index.cmp(&b.index)));
        s.slowest.truncate(SLOWEST_KEPT);
        Ok(s)
    }

    fn add_fault(&mut self, v: &Value, line: usize) -> Result<(), SummaryError> {
        let outcome = req_str(v, "outcome", line)?;
        let kind = req_str(v, "kind", line)?;
        let zone = v
            .get("zone")
            .and_then(Value::as_str)
            .unwrap_or("-")
            .to_string();
        let engine = req_str(v, "engine", line)?;
        let sim = req_u64(v, "sim", line)?;
        let skip = req_u64(v, "skip", line)?;
        let nanos = req_u64(v, "nanos", line)?;

        if !self.counts.bump(&outcome) {
            return Err(err(line, format!("unknown outcome {outcome:?}")));
        }
        self.faults += 1;
        self.cycles_simulated += sim;
        self.cycles_skipped += skip;
        self.fault_nanos += nanos;
        for (key, table) in [
            (zone, &mut self.per_zone),
            (kind, &mut self.per_kind),
            (engine, &mut self.per_engine),
        ] {
            let agg = table.entry(key).or_default();
            agg.counts.bump(&outcome);
            agg.cycles_simulated += sim;
            agg.cycles_skipped += skip;
            agg.nanos += nanos;
        }
        self.slowest.push(SlowFault {
            index: req_u64(v, "i", line)?,
            label: req_str(v, "label", line)?,
            outcome,
            nanos,
        });
        // keep the working set small on big traces
        if self.slowest.len() > 4 * SLOWEST_KEPT {
            self.slowest
                .sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.index.cmp(&b.index)));
            self.slowest.truncate(SLOWEST_KEPT);
        }
        Ok(())
    }

    /// `None` when the trace is complete (a trailing `end` record was
    /// seen); otherwise a description of the truncation. `from_str` stays
    /// lenient so partial traces — a cancelled job's valid prefix — still
    /// summarize; strict consumers (the `trace summarize` CLI) check this
    /// and refuse unless explicitly allowed.
    pub fn truncation(&self) -> Option<String> {
        if self.end.is_some() {
            return None;
        }
        Some(match self.meta_faults {
            Some(total) => format!(
                "no end record: {} of {} fault records present, so the trace is a truncated prefix",
                self.faults, total
            ),
            None => format!(
                "no end record after {} fault records, so the trace is a truncated prefix",
                self.faults
            ),
        })
    }

    /// Diagnostic coverage DD/(DD+DU) recomputed from the fault records.
    pub fn dc(&self) -> Option<f64> {
        let dangerous = self.counts.dangerous_detected + self.counts.dangerous_undetected;
        if dangerous == 0 {
            return None;
        }
        Some(self.counts.dangerous_detected as f64 / dangerous as f64)
    }

    /// Safe failure fraction (NE+SD+DD)/total recomputed from the fault
    /// records.
    pub fn sff(&self) -> Option<f64> {
        let total = self.counts.total();
        if total == 0 {
            return None;
        }
        Some((total - self.counts.dangerous_undetected) as f64 / total as f64)
    }

    /// The summary as a text report; DC/SFF lines use the exact format of
    /// `socfmea inject` so the two can be diffed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        if let Some(design) = &self.design {
            let _ = writeln!(out, "trace of design {design:?}");
        }
        let c = self.counts;
        let _ = writeln!(
            out,
            "faults: {} total | NE {} | SD {} | DD {} | DU {}",
            self.faults, c.no_effect, c.safe_detected, c.dangerous_detected, c.dangerous_undetected
        );
        match self.dc() {
            Some(dc) => {
                let _ = writeln!(out, "measured DC  = {:.2}%", dc * 100.0);
            }
            None => {
                let _ = writeln!(out, "measured DC  = n/a (no dangerous faults)");
            }
        }
        match self.sff() {
            Some(sff) => {
                let _ = writeln!(out, "measured SFF = {:.2}%", sff * 100.0);
            }
            None => {
                let _ = writeln!(out, "measured SFF = n/a (no faults)");
            }
        }
        let _ = writeln!(
            out,
            "cycles: {} simulated, {} skipped ({})",
            self.cycles_simulated,
            self.cycles_skipped,
            match self.cycles_simulated + self.cycles_skipped {
                0 => "no cycle work".to_string(),
                total => format!(
                    "{:.1}% avoided",
                    100.0 * self.cycles_skipped as f64 / total as f64
                ),
            }
        );

        let _ = writeln!(out, "\nper-zone:");
        let _ = writeln!(
            out,
            "  {:<28} {:>6} {:>6} {:>6} {:>6} {:>10}",
            "zone", "NE", "SD", "DD", "DU", "ms"
        );
        for (zone, agg) in &self.per_zone {
            let _ = writeln!(
                out,
                "  {:<28} {:>6} {:>6} {:>6} {:>6} {:>10.2}",
                zone,
                agg.counts.no_effect,
                agg.counts.safe_detected,
                agg.counts.dangerous_detected,
                agg.counts.dangerous_undetected,
                agg.nanos as f64 / 1e6
            );
        }

        let _ = writeln!(out, "\nper-kind:");
        for (kind, agg) in &self.per_kind {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} faults {:>10.2} ms",
                kind,
                agg.counts.total(),
                agg.nanos as f64 / 1e6
            );
        }

        let _ = writeln!(out, "\nper-engine:");
        for (engine, agg) in &self.per_engine {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} faults {:>12} sim {:>12} skip {:>10.2} ms",
                engine,
                agg.counts.total(),
                agg.cycles_simulated,
                agg.cycles_skipped,
                agg.nanos as f64 / 1e6
            );
        }

        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphases:");
            for (name, nanos) in &self.phases {
                let _ = writeln!(out, "  {:<20} {:>10.2} ms", name, *nanos as f64 / 1e6);
            }
        }

        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nspans:");
            for (name, agg) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<28} x{:<5} {:>10.2} ms total",
                    name,
                    agg.count,
                    agg.total_nanos as f64 / 1e6
                );
            }
        }

        if !self.slowest.is_empty() {
            let _ = writeln!(out, "\nslowest faults:");
            for f in &self.slowest {
                let _ = writeln!(
                    out,
                    "  #{:<6} {:<32} {:<3} {:>10.3} ms",
                    f.index,
                    f.label,
                    f.outcome,
                    f.nanos as f64 / 1e6
                );
            }
        }

        if let Some(end) = &self.end {
            let agrees = end.faults == self.faults && end.counts == self.counts;
            let _ = writeln!(
                out,
                "\nend record: {} faults in {:.2} ms — {}",
                end.faults,
                end.elapsed_nanos as f64 / 1e6,
                if agrees {
                    "consistent with fault records"
                } else {
                    "INCONSISTENT with fault records"
                }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FaultRecord, TraceEvent};

    fn fault(i: u64, outcome: &'static str, zone: &str, nanos: u64) -> String {
        TraceEvent::Fault(FaultRecord {
            index: i,
            label: format!("f{i}"),
            kind: "stuckat".into(),
            site: Some(format!("n{i}")),
            zone: Some(zone.into()),
            inject_cycle: 1,
            outcome,
            first_mismatch: None,
            alarm_cycle: None,
            cycles_simulated: 10,
            cycles_skipped: 2,
            engine: "sparse",
            rep: None,
            shard: Some(0),
            nanos,
        })
        .to_json()
        .to_string()
    }

    /// A schema-1 trace (`accel` in `meta`, `sparse` fault records): the
    /// summary reads it as it reads schema 2.
    fn sample_trace() -> String {
        let mut lines = vec![
            r#"{"ev":"meta","schema":1,"design":"prot","faults":4,"threads":1,"cycles":24,"seed":7,"accel":false,"collapse":false}"#.to_string(),
            r#"{"ev":"phase","name":"extract","nanos":1000}"#.to_string(),
        ];
        lines.push(fault(0, "NE", "za", 500));
        lines.push(fault(1, "DD", "za", 900));
        lines.push(fault(2, "DD", "zb", 100));
        lines.push(fault(3, "DU", "zb", 700));
        lines.push(r#"{"ev":"span","name":"campaign","nanos":4000,"shard":null}"#.to_string());
        lines.push(
            r#"{"ev":"end","faults":4,"ne":1,"sd":0,"dd":2,"du":1,"dc":0.6666666666666666,"sff":0.75,"elapsed_nanos":5000}"#
                .to_string(),
        );
        lines.join("\n")
    }

    #[test]
    fn summary_recomputes_counts_dc_and_sff_from_fault_records() {
        let s = TraceSummary::from_str(&sample_trace()).expect("parses");
        assert_eq!(s.faults, 4);
        assert_eq!(s.counts.no_effect, 1);
        assert_eq!(s.counts.dangerous_detected, 2);
        assert_eq!(s.counts.dangerous_undetected, 1);
        assert!((s.dc().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.sff().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(s.end.unwrap().counts, s.counts);
    }

    #[test]
    fn groups_aggregate_by_zone_and_engine() {
        let s = TraceSummary::from_str(&sample_trace()).unwrap();
        assert_eq!(s.per_zone["za"].counts.total(), 2);
        assert_eq!(s.per_zone["zb"].counts.dangerous_undetected, 1);
        assert_eq!(s.per_engine["sparse"].counts.total(), 4);
        assert_eq!(s.per_engine["sparse"].cycles_simulated, 40);
        assert_eq!(s.spans["campaign"].count, 1);
        assert_eq!(s.phases, vec![("extract".to_string(), 1000)]);
    }

    #[test]
    fn slowest_faults_rank_by_cost() {
        let s = TraceSummary::from_str(&sample_trace()).unwrap();
        let order: Vec<u64> = s.slowest.iter().map(|f| f.index).collect();
        assert_eq!(order, [1, 3, 0, 2]);
    }

    #[test]
    fn malformed_lines_fail_with_their_line_number() {
        let text = format!("{}\nnot json\n", sample_trace().lines().next().unwrap());
        let e = TraceSummary::from_str(&text).unwrap_err();
        assert_eq!(e.line, 2);

        let bad_outcome = fault(0, "XX", "z", 1);
        let e = TraceSummary::from_str(&bad_outcome).unwrap_err();
        assert!(e.message.contains("unknown outcome"), "{e}");
    }

    #[test]
    fn render_uses_the_inject_dc_sff_format() {
        let s = TraceSummary::from_str(&sample_trace()).unwrap();
        let text = s.render();
        assert!(text.contains("measured DC  = 66.67%"), "{text}");
        assert!(text.contains("measured SFF = 75.00%"), "{text}");
        assert!(text.contains("consistent with fault records"), "{text}");
    }

    #[test]
    fn progress_events_are_tolerated_and_counted() {
        let mut lines: Vec<String> = sample_trace().lines().map(str::to_owned).collect();
        lines.insert(
            2,
            r#"{"ev":"progress","job":"j-000001","tenant":"default","faults_done":1,"faults_total":4}"#.into(),
        );
        lines.insert(
            3,
            r#"{"ev":"lifecycle","job":"j-000001","tenant":"default","state":"running"}"#.into(),
        );
        let s = TraceSummary::from_str(&lines.join("\n")).expect("progress lines parse");
        assert_eq!(s.progress_events, 1);
        assert_eq!(s.lifecycle_events, 1);
        assert_eq!(s.faults, 4);
        // genuinely unknown kinds still fail with their line number
        let e = TraceSummary::from_str(r#"{"ev":"mystery"}"#).unwrap_err();
        assert!(e.message.contains("unknown event kind"), "{e}");
    }

    #[test]
    fn truncation_is_reported_but_not_fatal() {
        let complete = TraceSummary::from_str(&sample_trace()).unwrap();
        assert_eq!(complete.truncation(), None);

        // drop the end record: a cancelled job's valid prefix
        let full = sample_trace();
        let partial: Vec<&str> = full
            .lines()
            .filter(|l| !l.contains(r#""ev":"end""#))
            .collect();
        let s = TraceSummary::from_str(&partial.join("\n")).expect("prefix still summarizes");
        let diag = s.truncation().expect("truncation detected");
        assert!(diag.contains("4 of 4"), "{diag}");
        assert!(diag.contains("truncated prefix"), "{diag}");
    }

    #[test]
    fn fault_record_cap_keeps_the_true_top_n() {
        let mut lines = Vec::new();
        for i in 0..200u64 {
            // make fault 123 the most expensive, then descending by index
            let nanos = if i == 123 { 1_000_000 } else { 10_000 - i };
            lines.push(fault(i, "NE", "z", nanos));
        }
        let s = TraceSummary::from_str(&lines.join("\n")).unwrap();
        assert_eq!(s.slowest.len(), SLOWEST_KEPT);
        assert_eq!(s.slowest[0].index, 123);
        assert_eq!(s.slowest[1].index, 0);
    }
}
