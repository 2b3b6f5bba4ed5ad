//! The benchmark's own checks, on the smoke size of every workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! `-- --ignored` adds the full-size reference re-derivation (minutes).

use crate::campaign::{derive_reference, setup, Kind};
use crate::oracle::{list_digest, Reference};
use crate::spans::Tracer;
use crate::{run_workload, RunConfig, Size, WORKLOADS};
use socfmea_faultsim::{Campaign, Outcome as Verdict};
use socfmea_obs::json::{self, Value};

fn smoke(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.5,
        trace,
        size: Size::Smoke,
    }
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the package");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// The `name`s of a BENCHMARK.json metric list.
fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

/// Parses a run's result line and returns its metric names in order.
fn result_metrics(line: &str) -> Vec<String> {
    let doc = json::parse(line).expect("the result line is JSON");
    let Value::Obj(top) = &doc else {
        panic!("the result line is an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    assert!(doc.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object")
    };
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name} has a value"
        );
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name} has a unit"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_passes_its_oracle_and_reports_every_metric() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_owned())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(w, &smoke(3, trace));
            assert!(out.correct(trace), "{w} trace={trace}: {:?}", out.notes);
            let expected = names(&doc, if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(
                result_metrics(&out.json(trace)),
                expected,
                "{w} trace={trace}"
            );
            if trace {
                assert!(!out.spans.is_empty(), "{w}: the traced run records spans");
            } else {
                assert!(out.e2e.iter().all(|m| m.value > 0.0), "{w}: {:?}", out.e2e);
            }
        }
    }
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    let doc = benchmark_json();
    let e2e = names(&doc, "end_to_end");
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json"))
        .expect("layers.json");
    let layers = json::parse(&text).expect("layers.json is JSON");
    let entries = layers.as_arr().expect("a list of layer metrics");
    let listed: Vec<String> = entries
        .iter()
        .map(|e| e.get("metric").and_then(Value::as_str).unwrap().to_owned())
        .collect();
    assert_eq!(listed, names(&doc, "per_layer"));
    for e in entries {
        let moves = e.get("moves").and_then(Value::as_arr).unwrap();
        assert!(!moves.is_empty(), "{e}");
        for m in moves {
            let target = m.get("metric").and_then(Value::as_str).unwrap();
            // a normaliser must not change; a flat layer should not move
            // any end-to-end metric; a layer of the permanent-fault sweep
            // (serve-mixed's traced run) moves a per-layer metric of it
            assert!(
                ["normaliser", "flat"].contains(&target)
                    || e2e.iter().chain(&listed).any(|n| n == target),
                "{e}"
            );
            for w in m.get("workloads").and_then(Value::as_arr).unwrap() {
                assert!(WORKLOADS.contains(&w.as_str().unwrap()), "{e}");
            }
        }
    }
}

#[test]
fn smoke_references_rederive_from_the_lockstep_engine() {
    for kind in [Kind::FmemMixed, Kind::McuStuckat] {
        let kept = Reference::parse(kind.reference_text(Size::Smoke)).unwrap();
        assert_eq!(derive_reference(kind, Size::Smoke), kept, "{}", kind.name());
    }
}

#[test]
#[ignore = "re-runs the full lockstep campaigns (minutes)"]
fn full_references_rederive_from_the_lockstep_engine() {
    for kind in [Kind::FmemMixed, Kind::McuStuckat] {
        let kept = Reference::parse(kind.reference_text(Size::Full)).unwrap();
        assert_eq!(derive_reference(kind, Size::Full), kept, "{}", kind.name());
    }
}

#[test]
fn full_references_cover_the_full_fault_lists() {
    for kind in [Kind::FmemMixed, Kind::McuStuckat] {
        let kept = Reference::parse(kind.reference_text(Size::Full)).unwrap();
        let s = setup(kind, Size::Full, &Tracer::new(false), 0);
        assert_eq!(kept.verdicts.len(), s.faults.len(), "{}", kind.name());
        assert_eq!(kept.list_digest, list_digest(&s.faults), "{}", kind.name());
    }
}

#[test]
fn a_corrupted_reference_fails_the_check() {
    let kind = Kind::McuStuckat;
    let s = setup(kind, Size::Smoke, &Tracer::new(false), 0);
    let env = s.design.env();
    let (engine, collapse, prune) = s.settings;
    let result = Campaign::new(&env, &s.faults)
        .engine(engine)
        .collapsing(collapse)
        .pruning(prune)
        .run();
    let kept = Reference::parse(kind.reference_text(Size::Smoke)).unwrap();
    assert_eq!(kept.check(&s.faults, &result), 0);

    // one verdict moved to another class: that verdict, and DC or SFF
    let mut wrong = kept.clone();
    let v = &mut wrong.verdicts[0];
    v.outcome = match v.outcome {
        Verdict::DangerousUndetected => Verdict::NoEffect,
        _ => Verdict::DangerousUndetected,
    };
    assert!(wrong.check(&s.faults, &result) >= 2);

    // a later first-mismatch cycle alone is caught too
    let mut late = kept.clone();
    late.verdicts[1].first_mismatch = Some(late.verdicts[1].first_mismatch.map_or(0, |c| c + 1));
    assert_eq!(late.check(&s.faults, &result), 1);

    // and a reference made for another fault list fails everything
    let mut other = kept;
    other.list_digest ^= 1;
    assert_eq!(other.check(&s.faults, &result), s.faults.len() + 2);

    // the text form round-trips, and a damaged file is refused
    let text = wrong.render("t");
    assert_eq!(Reference::parse(&text).unwrap(), wrong);
    assert!(Reference::parse(&text.replacen("faults ", "fault ", 1)).is_err());
    assert!(Reference::parse(&text.replacen("\n0 ", "\n0 extra ", 1)).is_err());
}
