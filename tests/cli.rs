//! Integration tests of the `socfmea` command-line tool, driving the real
//! binary through `CARGO_BIN_EXE`.

use std::io::Write;
use std::process::Command;

const DEMO: &str = "
    module demo(clk, rst, a, b, y);
    input clk, rst, a, b;
    output y;
    wire s; wire q;
    xor g0(s, a, b);
    dffr r0(q, s, rst);
    buf g1(y, q);
    endmodule";

/// A lockstep accumulator bit with a comparator alarm — small enough to
/// inject into in a test, protected enough that the campaign measures a
/// nonzero diagnostic coverage.
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

fn write_design(tag: &str, source: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("socfmea_cli_{tag}_{}.v", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(source.as_bytes()).expect("write");
    path
}

fn write_demo() -> std::path::PathBuf {
    write_design("demo", DEMO)
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

#[test]
fn zones_lists_the_design() {
    let path = write_demo();
    let (stdout, _, ok) = run(&["zones", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("sensible zones"));
    assert!(stdout.contains("critnet/clk"));
    assert!(stdout.contains("[reg] q"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn analyze_produces_every_format() {
    let path = write_demo();
    let (text, _, ok) = run(&["analyze", path.to_str().unwrap()]);
    assert!(ok);
    assert!(text.contains("SFF ="));

    let (csv, _, ok) = run(&["analyze", path.to_str().unwrap(), "--format", "csv"]);
    assert!(ok);
    assert!(csv.starts_with("zone,kind"));

    let (srs, _, ok) = run(&["analyze", path.to_str().unwrap(), "--format", "srs"]);
    assert!(ok);
    assert!(srs.contains("# Safety Requirements Specification"));
    assert!(srs.contains("ISO 26262 reading"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn options_change_the_verdict() {
    let path = write_demo();
    let (hft0, _, _) = run(&["analyze", path.to_str().unwrap()]);
    let (hft1, _, _) = run(&["analyze", path.to_str().unwrap(), "--hft", "1"]);
    assert!(hft0.contains("HFT=0"));
    assert!(hft1.contains("HFT=1"));
    let (typed, _, ok) = run(&[
        "analyze",
        path.to_str().unwrap(),
        "--type-a",
        "--class",
        "q=cpu",
    ]);
    assert!(ok);
    assert!(typed.contains("A-type"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn inject_measures_coverage_on_a_protected_design() {
    let path = write_design("inject", PROTECTED);
    let (stdout, stderr, ok) = run(&[
        "inject",
        path.to_str().unwrap(),
        "--threads",
        "2",
        "--seed",
        "7",
        "--cycles",
        "24",
    ]);
    assert!(ok, "inject failed: {stderr}");
    assert!(stdout.contains("fault list:"));
    // the wall-clock stats line lives on stderr, keeping stdout
    // deterministic for a given seed
    assert!(stderr.contains("campaign:"), "missing stats line: {stderr}");
    assert!(!stdout.contains("campaign:"));
    assert!(stdout.contains("zone DC"));
    assert!(stdout.contains("measured DC"));
    assert!(stdout.contains("measured SFF"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn inject_quiet_silences_stderr_but_not_the_report() {
    let path = write_design("inject_quiet", PROTECTED);
    let (stdout, stderr, ok) = run(&[
        "inject",
        path.to_str().unwrap(),
        "--seed",
        "7",
        "--cycles",
        "24",
        "--quiet",
    ]);
    assert!(ok, "inject --quiet failed: {stderr}");
    assert!(stderr.is_empty(), "stderr not quiet: {stderr}");
    assert!(stdout.contains("measured DC"));
    assert!(stdout.contains("measured SFF"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn inject_accepts_the_bundled_examples() {
    let (stdout, stderr, ok) = run(&["inject", "--example", "fmem", "--cycles", "8", "--quiet"]);
    assert!(ok, "inject --example fmem failed: {stderr}");
    assert!(stdout.contains("memsys:"));
    assert!(stdout.contains("measured SFF"));
}

#[test]
fn inject_output_is_identical_across_thread_counts() {
    let path = write_design("inject_det", PROTECTED);
    // the wall-clock stats line goes to stderr, so the whole of stdout is
    // deterministic and can be compared verbatim
    let tabulate = |threads: &str| {
        let (stdout, _, ok) = run(&[
            "inject",
            path.to_str().unwrap(),
            "--threads",
            threads,
            "--seed",
            "42",
            "--cycles",
            "24",
        ]);
        assert!(ok);
        stdout
    };
    assert_eq!(tabulate("1"), tabulate("4"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn errors_are_reported_cleanly() {
    let (_, stderr, ok) = run(&["analyze", "/nonexistent/file.v"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));

    let (_, stderr, ok) = run(&["frobnicate", "x.v"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `socfmea … | head -1`: the reader is gone before the first line. The
    // read end is dropped before the binary starts, so its first write
    // fails with a broken pipe every time, not by a race.
    let path = write_design("closed_stdout", DEMO);
    let demo = path.to_str().unwrap();
    for args in [
        &["analyze", "--example", "fmem"][..],
        &["zones", demo],
        &["lint", "--example", "mcu-single"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_socfmea"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{args:?}: {}", out.status);
        assert!(
            out.stderr.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn lint_mcu_example_reports_seeded_findings_as_json() {
    let (json, _, ok) = run(&["lint", "--example", "mcu", "--format", "json"]);
    assert!(ok, "lint must exit 0 when only info findings remain");
    assert!(json.starts_with("{\"design\":\"mcu\""));
    // the seeded structural finding (lockstep cores share cone logic) and
    // the seeded worksheet finding (alarm zones claim no diagnostics)
    assert!(
        json.contains("\"code\":\"SL0004\""),
        "missing SL0004 in {json}"
    );
    assert!(
        json.contains("\"code\":\"SL0107\""),
        "missing SL0107 in {json}"
    );
    assert!(json.contains("\"errors\":0"));
}

#[test]
fn lint_examples_pass_the_deny_warnings_gate() {
    for example in ["fmem", "fmem-baseline", "mcu", "mcu-single"] {
        let (stdout, _, ok) = run(&["lint", "--example", example, "--deny", "warnings"]);
        assert!(ok, "{example} failed --deny warnings:\n{stdout}");
        assert!(stdout.contains("0 error(s), 0 warning(s)"));
    }
}

#[test]
fn lint_deny_rule_gates_and_allow_silences() {
    let (_, _, ok) = run(&["lint", "--example", "mcu", "--deny", "SL0004"]);
    assert!(!ok, "denied rule with findings must exit nonzero");

    let (json, _, ok) = run(&[
        "lint",
        "--example",
        "mcu",
        "--deny",
        "SL0004",
        "--allow",
        "SL0004",
        "--format",
        "json",
    ]);
    assert!(ok, "a later --allow wins over an earlier --deny");
    assert!(!json.contains("\"code\":\"SL0004\""));
}

#[test]
fn lint_accepts_a_netlist_file() {
    let path = write_design("lint_file", PROTECTED);
    let (text, _, ok) = run(&["lint", path.to_str().unwrap()]);
    assert!(ok, "clean design must lint clean:\n{text}");
    assert!(text.contains("socfmea-lint: lockstep_acc:"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn lint_argument_errors_exit_with_usage() {
    let (_, stderr, ok) = run(&["lint"]);
    assert!(!ok);
    assert!(stderr.contains("exactly one"));

    let (_, stderr, ok) = run(&["lint", "--example", "nonsuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown example"));

    let (_, stderr, ok) = run(&["lint", "x.v", "--deny", "SL4242"]);
    assert!(!ok);
    assert!(stderr.contains("unknown rule code"));
}
