//! Golden schema tests of the JSONL campaign trace written by
//! `socfmea inject --trace-out`.
//!
//! The trace is the audit artefact of a fault-injection campaign, so its
//! shape is a contract: one `fault` record per scheduled fault in fault-list
//! order (the deterministic merge guarantees this for any thread count), a
//! `meta` record first, an `end` record last, and field types that an
//! external consumer can rely on. These tests drive the real binary and
//! re-parse its output with the same JSON codec `trace summarize` uses.

use soc_fmea::obs::json::{self, Value};
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

/// A lockstep accumulator bit with a comparator alarm — small enough to
/// inject into in a test, protected enough that every outcome class shows
/// up in the trace.
const PROTECTED: &str = "
    module lockstep_acc(clk, rst, en, din, q, alarm_cmp);
    input clk, rst, en, din;
    output q;
    output alarm_cmp;
    wire d_a; wire d_b; wire q_a; wire q_b;
    xor g0 (d_a, q_a, din);
    xor g1 (d_b, q_b, din);
    dffre r0 (q_a, d_a, en, rst);
    dffre r1 (q_b, d_b, en, rst);
    buf g2 (q, q_a);
    xor g3 (alarm_cmp, q_a, q_b);
    endmodule";

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("socfmea_trace_{tag}_{}.{ext}", std::process::id()))
}

/// The lockstep accumulator plus a tied-off (feature-disabled) alarm stub:
/// stuck-ats matching the tied value are provably silent, so `--prune`
/// answers them statically and the trace grows `engine: "pruned"` records.
const TIED: &str = "
    module pruned_acc(clk, rst, en, din, q, alarm_cmp, alarm_stub);
    input clk, rst, en, din;
    output q;
    output alarm_cmp;
    output alarm_stub;
    wire d_a; wire d_b; wire q_a; wire q_b; wire stub;
    xor g0 (d_a, q_a, din);
    xor g1 (d_b, q_b, din);
    dffre r0 (q_a, d_a, en, rst);
    dffre r1 (q_b, d_b, en, rst);
    buf g2 (q, q_a);
    xor g3 (alarm_cmp, q_a, q_b);
    tie0 t0 (stub);
    buf g4 (alarm_stub, stub);
    endmodule";

fn write_design(tag: &str) -> PathBuf {
    write_design_src(tag, PROTECTED)
}

fn write_design_src(tag: &str, src: &str) -> PathBuf {
    let path = temp_path(tag, "v");
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(src.as_bytes()).expect("write");
    path
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_socfmea"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Runs an injection campaign writing a trace, returns the parsed records
/// and the campaign's stdout report.
fn inject_traced(tag: &str, extra: &[&str]) -> (Vec<Value>, String) {
    inject_traced_src(tag, PROTECTED, extra)
}

fn inject_traced_src(tag: &str, src: &str, extra: &[&str]) -> (Vec<Value>, String) {
    let design = write_design_src(tag, src);
    let trace = temp_path(tag, "jsonl");
    let mut args = vec![
        "inject",
        design.to_str().unwrap(),
        "--seed",
        "42",
        "--cycles",
        "24",
        "--quiet",
        "--trace-out",
        trace.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "inject failed: {stderr}");
    let text = std::fs::read_to_string(&trace).expect("trace file");
    let records: Vec<Value> = text
        .lines()
        .enumerate()
        .map(|(n, line)| {
            json::parse(line).unwrap_or_else(|e| panic!("trace line {}: {e:?}", n + 1))
        })
        .collect();
    let _ = std::fs::remove_file(design);
    let _ = std::fs::remove_file(trace);
    (records, stdout)
}

fn ev(v: &Value) -> &str {
    v.get("ev").and_then(Value::as_str).expect("ev field")
}

fn faults_of(records: &[Value]) -> Vec<&Value> {
    records.iter().filter(|r| ev(r) == "fault").collect()
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("field `{key}` missing or not u64 in {v}"))
}

fn opt_u64_field(v: &Value, key: &str) -> Option<u64> {
    let field = v
        .get(key)
        .unwrap_or_else(|| panic!("field `{key}` missing in {v}"));
    if field.is_null() {
        None
    } else {
        Some(
            field
                .as_u64()
                .unwrap_or_else(|| panic!("field `{key}` not u64 in {v}")),
        )
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("field `{key}` missing or not a string in {v}"))
}

/// The canonical rendering of a fault record's deterministic fields — i.e.
/// everything except the wall-clock `nanos` and placement-dependent `shard`.
fn deterministic_key(f: &Value) -> String {
    const DETERMINISTIC: &[&str] = &[
        "i", "label", "kind", "site", "zone", "inject", "outcome", "mismatch", "alarm", "sim",
        "skip", "engine", "rep",
    ];
    DETERMINISTIC
        .iter()
        .map(|k| {
            let field = f
                .get(k)
                .unwrap_or_else(|| panic!("field `{k}` missing in {f}"));
            format!("{k}={field}")
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Just the observable outcome of a fault — identical across engines
/// (baseline, accel, collapse) by the bit-identical contract.
fn outcome_key(f: &Value) -> String {
    const OUTCOME: &[&str] = &[
        "i", "label", "kind", "site", "zone", "inject", "outcome", "mismatch", "alarm",
    ];
    OUTCOME
        .iter()
        .map(|k| format!("{k}={}", f.get(k).expect("outcome field")))
        .collect::<Vec<_>>()
        .join("|")
}

#[test]
fn trace_has_meta_first_end_last_and_one_typed_record_per_fault() {
    let (records, _) = inject_traced("schema", &["--threads", "2"]);
    assert!(
        records.len() >= 3,
        "trace too short: {} records",
        records.len()
    );

    // meta opens the stream and names the run configuration
    let meta = &records[0];
    assert_eq!(ev(meta), "meta");
    assert_eq!(
        u64_field(meta, "schema"),
        soc_fmea::obs::TRACE_SCHEMA_VERSION as u64
    );
    assert_eq!(str_field(meta, "design"), "lockstep_acc");
    assert_eq!(u64_field(meta, "threads"), 2);
    assert_eq!(u64_field(meta, "cycles"), 24);
    assert_eq!(u64_field(meta, "seed"), 42);
    // The CLI defaults to `--engine auto`, which resolves to the sparse
    // engine for this mixed generated fault list (bit flips can't ride a
    // PPSFP word lane), so the meta record reports the accelerated path.
    assert_eq!(meta.get("accel").and_then(Value::as_bool), Some(true));
    assert_eq!(meta.get("collapse").and_then(Value::as_bool), Some(false));

    // end closes it with the totals
    let end = records.last().unwrap();
    assert_eq!(ev(end), "end");
    for k in ["faults", "ne", "sd", "dd", "du", "elapsed_nanos"] {
        u64_field(end, k);
    }

    // exactly one fault record per scheduled fault, in fault-list order
    let faults = faults_of(&records);
    assert_eq!(faults.len() as u64, u64_field(meta, "faults"));
    assert_eq!(faults.len() as u64, u64_field(end, "faults"));
    let mut tally = std::collections::BTreeMap::new();
    for (n, f) in faults.iter().enumerate() {
        assert_eq!(u64_field(f, "i"), n as u64, "records out of order at {n}");
        str_field(f, "label");
        str_field(f, "kind");
        let outcome = str_field(f, "outcome");
        assert!(
            matches!(outcome, "NE" | "SD" | "DD" | "DU"),
            "bad outcome `{outcome}`"
        );
        *tally.entry(outcome.to_owned()).or_insert(0u64) += 1;
        let engine = str_field(f, "engine");
        assert!(
            matches!(
                engine,
                "lockstep" | "sparse" | "warm" | "ppsfp" | "dictionary" | "pruned"
            ),
            "bad engine `{engine}`"
        );
        for k in ["inject", "sim", "skip", "nanos"] {
            u64_field(f, k);
        }
        for k in ["site", "zone"] {
            let field = f.get(k).unwrap_or_else(|| panic!("missing `{k}`"));
            assert!(
                field.is_null() || field.as_str().is_some(),
                "`{k}` not str|null"
            );
        }
        for k in ["mismatch", "alarm", "rep", "shard"] {
            opt_u64_field(f, k);
        }
    }

    // the end record's totals are the tallies of the fault records
    for (k, code) in [("ne", "NE"), ("sd", "SD"), ("dd", "DD"), ("du", "DU")] {
        assert_eq!(
            u64_field(end, k),
            tally.get(code).copied().unwrap_or(0),
            "end `{k}` disagrees with the fault records"
        );
    }
    // the fixture is protected, so the campaign sees detections
    assert!(tally.contains_key("SD") || tally.contains_key("DD"));
}

#[test]
fn trace_deterministic_fields_are_identical_across_thread_counts() {
    let (one, _) = inject_traced("det1", &["--threads", "1"]);
    let (four, _) = inject_traced("det4", &["--threads", "4"]);
    let (f1, f4) = (faults_of(&one), faults_of(&four));
    assert_eq!(f1.len(), f4.len());
    for (a, b) in f1.iter().zip(&f4) {
        assert_eq!(deterministic_key(a), deterministic_key(b));
    }
    // serial campaigns run on one shard; the merge keeps order regardless
    assert!(f1.iter().all(|f| opt_u64_field(f, "shard") == Some(0)));
}

#[test]
fn ppsfp_trace_labels_batched_faults_and_matches_baseline_outcomes() {
    let (base, _) = inject_traced("pbase", &["--threads", "2", "--engine", "lockstep"]);
    let (records, _) = inject_traced("ppsfp", &["--threads", "2", "--engine", "ppsfp"]);
    let (fb, fp) = (faults_of(&base), faults_of(&records));
    assert_eq!(fb.len(), fp.len());
    // bit-identical contract again: only the engine column may differ
    for (b, p) in fb.iter().zip(&fp) {
        assert_eq!(outcome_key(b), outcome_key(p));
    }
    // known-value stuck-ats ride word lanes; the other kinds in the
    // generated list fall back to the per-fault dispatcher
    assert!(fp.iter().any(|f| str_field(f, "engine") == "ppsfp"));
    assert!(fp.iter().any(|f| str_field(f, "engine") != "ppsfp"));
    // batched faults evaluate either the whole workload (first lane of the
    // word) or nothing (the lanes riding along)
    for f in fp.iter().filter(|f| str_field(f, "engine") == "ppsfp") {
        let (sim, skip) = (u64_field(f, "sim"), u64_field(f, "skip"));
        assert_eq!(sim + skip, 24, "ppsfp lane cycles in {f}");
        assert!(sim == 0 || skip == 0, "ppsfp lane split in {f}");
    }
}

#[test]
fn accel_collapse_trace_matches_baseline_outcomes_and_reaggregates() {
    let (base, _) = inject_traced("base", &["--threads", "2"]);
    let design = write_design("accel");
    let trace = temp_path("accel", "jsonl");
    let (stdout, stderr, ok) = run(&[
        "inject",
        design.to_str().unwrap(),
        "--seed",
        "42",
        "--cycles",
        "24",
        "--quiet",
        "--threads",
        "2",
        "--engine",
        "sparse",
        "--collapse",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "accelerated inject failed: {stderr}");
    let text = std::fs::read_to_string(&trace).expect("trace file");
    let records: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    let _ = std::fs::remove_file(design);

    // bit-identical contract: per-fault outcomes equal the baseline's even
    // though the engine column differs
    let (fb, fa) = (faults_of(&base), faults_of(&records));
    assert_eq!(fb.len(), fa.len());
    for (b, a) in fb.iter().zip(&fa) {
        assert_eq!(outcome_key(b), outcome_key(a));
    }
    assert!(fa
        .iter()
        .all(|f| matches!(str_field(f, "engine"), "sparse" | "warm" | "dictionary")));
    // a dictionary fault's representative precedes it in the fault list
    for f in &fa {
        match opt_u64_field(f, "rep") {
            Some(rep) => {
                assert_eq!(str_field(f, "engine"), "dictionary");
                assert!(rep < u64_field(f, "i"));
            }
            None => assert_ne!(str_field(f, "engine"), "dictionary"),
        }
    }

    // `trace summarize` independently recomputes the DC/SFF the run printed
    let (summary, _, ok) = run(&["trace", "summarize", trace.to_str().unwrap()]);
    assert!(ok, "trace summarize failed");
    let claims = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("measured DC") || l.starts_with("measured SFF"))
            .map(str::to_owned)
            .collect()
    };
    let printed = claims(&stdout);
    assert_eq!(printed.len(), 2, "inject printed no DC/SFF: {stdout}");
    assert_eq!(printed, claims(&summary));
    assert!(summary.contains("consistent with fault records"));
    let _ = std::fs::remove_file(trace);
}

#[test]
fn pruned_trace_matches_baseline_outcomes_and_summarizes_per_engine() {
    let (base, _) = inject_traced_src("prbase", TIED, &["--threads", "2"]);
    let design = write_design_src("pruned", TIED);
    let trace = temp_path("pruned", "jsonl");
    let (_, stderr, ok) = run(&[
        "inject",
        design.to_str().unwrap(),
        "--seed",
        "42",
        "--cycles",
        "24",
        "--quiet",
        "--threads",
        "2",
        "--prune",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "pruned inject failed: {stderr}");
    let text = std::fs::read_to_string(&trace).expect("trace file");
    let records: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    let _ = std::fs::remove_file(design);

    // bit-identical contract: synthesized outcomes equal the simulated
    // baseline's, record for record
    let (fb, fp) = (faults_of(&base), faults_of(&records));
    assert_eq!(fb.len(), fp.len());
    for (b, p) in fb.iter().zip(&fp) {
        assert_eq!(outcome_key(b), outcome_key(p));
    }
    // the tied-off alarm stub guarantees the pre-pass actually fires
    let pruned: Vec<_> = fp
        .iter()
        .filter(|f| str_field(f, "engine") == "pruned")
        .collect();
    assert!(!pruned.is_empty(), "no pruned records in the trace");
    for f in &pruned {
        // a proof replaces a simulation: quiet outcome, zero cycle budget,
        // no representative, no shard placement
        assert_eq!(str_field(f, "outcome"), "NE");
        assert_eq!(u64_field(f, "sim"), 0);
        assert_eq!(u64_field(f, "skip"), 0);
        assert_eq!(opt_u64_field(f, "rep"), None);
        assert_eq!(opt_u64_field(f, "shard"), None);
    }

    // the offline re-aggregation stays consistent and breaks the run down
    // by engine, pruned column included
    let (summary, _, ok) = run(&["trace", "summarize", trace.to_str().unwrap()]);
    assert!(ok, "trace summarize failed");
    assert!(summary.contains("consistent with fault records"));
    let per_engine: Vec<&str> = summary
        .lines()
        .skip_while(|l| !l.starts_with("per-engine"))
        .collect();
    assert!(
        per_engine
            .iter()
            .any(|l| l.trim_start().starts_with("pruned")),
        "per-engine table lacks a pruned row:\n{summary}"
    );
    let _ = std::fs::remove_file(trace);
}

#[test]
fn trace_flame_folds_spans_and_summarize_rejects_truncation() {
    let design = write_design("flame");
    let trace = temp_path("flame", "jsonl");
    let (_, stderr, ok) = run(&[
        "inject",
        design.to_str().unwrap(),
        "--seed",
        "42",
        "--cycles",
        "24",
        "--quiet",
        "--threads",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "inject failed: {stderr}");
    let _ = std::fs::remove_file(design);

    // flame: stdout is pure folded stacks (`a;b;c nanos`), the coverage
    // note rides on stderr so the stacks pipe straight into flamegraph
    // tooling
    let (folded, stderr, ok) = run(&["trace", "flame", trace.to_str().unwrap()]);
    assert!(ok, "trace flame failed: {stderr}");
    assert!(!folded.is_empty(), "no folded stacks");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack nanos` shape");
        assert!(!stack.is_empty() && !stack.contains('/'), "{line}");
        count.parse::<u64>().expect("integer self-time");
    }
    assert!(
        folded.lines().any(|l| l.starts_with("campaign")),
        "campaign span missing from:\n{folded}"
    );
    assert!(
        stderr.contains("wall-clock"),
        "no coverage note on stderr: {stderr}"
    );

    // diff of a trace against itself is all-zero deltas but keeps the shape
    let (diff, _, ok) = run(&[
        "trace",
        "diff",
        trace.to_str().unwrap(),
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "trace diff failed");
    assert!(diff.starts_with("span"), "no header row:\n{diff}");
    assert!(diff.lines().last().unwrap().starts_with("total attributed"));
    assert!(diff.contains("campaign"));

    // dropping the end record makes strict summarize exit non-zero with a
    // truncation diagnosis; --allow-partial downgrades it to a warning
    let text = std::fs::read_to_string(&trace).expect("trace file");
    let partial: String = text
        .lines()
        .filter(|l| !l.contains(r#""ev":"end""#))
        .map(|l| format!("{l}\n"))
        .collect();
    let cut = temp_path("flame_cut", "jsonl");
    std::fs::write(&cut, partial).expect("write truncated trace");
    let (_, stderr, ok) = run(&["trace", "summarize", cut.to_str().unwrap()]);
    assert!(!ok, "truncated trace must fail strict summarize");
    assert!(stderr.contains("truncated"), "{stderr}");
    assert!(stderr.contains("--allow-partial"), "{stderr}");
    let (partial_out, stderr, ok) = run(&[
        "trace",
        "summarize",
        "--allow-partial",
        cut.to_str().unwrap(),
    ]);
    assert!(ok, "--allow-partial must accept a prefix: {stderr}");
    assert!(stderr.contains("warning"), "{stderr}");
    assert!(partial_out.contains("faults:"), "{partial_out}");
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(cut);
}
