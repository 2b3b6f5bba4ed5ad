//! The layer probe of the traced run: times single calls into the public
//! functions of each `socfmea-*` crate on the workload's own design, each
//! in its span, and reports the medians next to exact work counts.

use crate::campaign::Design;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Metric, Outcome};
use socfmea_accel::{GoldenTrace, Topology};
use socfmea_faultsim::{Campaign, FaultCollapser};
use socfmea_netlist::{levelize, parse_verilog, write_verilog};
use socfmea_obs::json;
use socfmea_obs::metrics::Registry;
use socfmea_serve::{resolve, ArtifactCache, DesignRef, JobSpec};
use socfmea_sim::{Simulator, WordSim};
use socfmea_static::TestabilityAnalysis;
use std::hint::black_box;
use std::sync::Arc;

/// Repetitions of each probed call; the metric is their median.
const REPS: u64 = 3;

/// A `write_verilog` dump of module `module` renamed to `<module>_<tag>`:
/// a distinct design as far as the design key goes.
pub fn rename_module(dump: &str, module: &str, tag: &str) -> String {
    let from = format!("module {module} (");
    assert!(
        dump.starts_with(&from),
        "write_verilog opens with the module"
    );
    dump.replacen(&from, &format!("module {module}_{tag} ("), 1)
}

/// The submission body of a campaign-server job.
pub fn job_body(design: DesignRef, tenant: &str, seed: u64) -> String {
    JobSpec {
        tenant: tenant.to_owned(),
        design,
        seed,
        cycles: crate::serve::CYCLES,
        threads: 1,
        engine: socfmea_faultsim::Engine::Auto,
        checkpoint_interval: Campaign::DEFAULT_CHECKPOINT_INTERVAL,
        collapse: socfmea_faultsim::Collapse::Off,
        prune: socfmea_faultsim::Prune::Off,
    }
    .render()
}

/// Median milliseconds of `REPS` calls of `f`, each in a span `name`.
fn timed<R>(tracer: &Tracer, name: &str, mut f: impl FnMut() -> R) -> f64 {
    for job in 0..REPS {
        tracer.span(name, job, None, |_| black_box(f()));
    }
    median(&tracer.millis(name))
}

/// Probes every layer on `design`; `trace` is a captured JSONL trace of
/// its campaign (the JSON codec's input next to the submission bodies).
pub fn probe(design: &Design, tracer: &Tracer, trace: &[u8], out: &mut Outcome) {
    let nl = &design.netlist;
    let w = &design.workload;
    let gate_cycles = (nl.gate_count() * w.len()) as u64;
    let m = &mut out.layers;
    m.push(Metric::count("netlist.gates", nl.gate_count() as u64));
    m.push(Metric::count("netlist.dffs", nl.dff_count() as u64));
    m.push(Metric::count("core.zones", design.zones.len() as u64));
    m.push(Metric::count("sim.gate_cycles", gate_cycles));
    m.push(Metric::new(
        "netlist.levelize_ms",
        timed(tracer, "netlist.levelize", || levelize(nl)),
        "ms",
    ));
    m.push(Metric::new(
        "netlist.write_verilog_ms",
        timed(tracer, "netlist.write_verilog", || write_verilog(nl)),
        "ms",
    ));
    let verilog = rename_module(&write_verilog(nl), nl.name(), "probe");
    m.push(Metric::new(
        "netlist.parse_verilog_ms",
        timed(tracer, "netlist.parse_verilog", || {
            parse_verilog(&verilog).expect("a dumped netlist parses")
        }),
        "ms",
    ));
    m.push(Metric::new(
        "accel.topology_ms",
        timed(tracer, "accel.topology", || {
            Topology::build(nl).expect("levelizable")
        }),
        "ms",
    ));
    let interval = Campaign::DEFAULT_CHECKPOINT_INTERVAL;
    let mut golden_bytes = 0;
    m.push(Metric::new(
        "accel.golden_record_ms",
        timed(tracer, "accel.golden_record", || {
            let g = GoldenTrace::record(nl, w, interval).expect("levelizable");
            golden_bytes = g.matrix_bytes() + g.checkpoint_bytes();
            g
        }),
        "ms",
    ));
    m.push(Metric::new(
        "accel.golden_bytes",
        golden_bytes as f64,
        "bytes",
    ));
    let env = design.env();
    let topo = Topology::build(nl).expect("levelizable");
    let monitored: Vec<_> = env
        .functional_outputs
        .iter()
        .chain(&env.alarm_nets)
        .chain(&env.observation_nets)
        .copied()
        .collect();
    m.push(Metric::new(
        "static.analyze_ms",
        timed(tracer, "static.analyze", || {
            TestabilityAnalysis::analyze(nl, &topo, &monitored)
        }),
        "ms",
    ));
    m.push(Metric::new(
        "faultsim.collapser_ms",
        timed(tracer, "faultsim.collapser", || FaultCollapser::build(&env)),
        "ms",
    ));
    let per_gate_cycle = |ms: f64| ms * 1e6 / gate_cycles.max(1) as f64;
    let scalar = timed(tracer, "sim.scalar", || {
        let mut sim = Simulator::new(nl).expect("levelizable");
        for inputs in w.iter() {
            sim.step(inputs);
        }
        sim.cycle()
    });
    m.push(Metric::new(
        "sim.scalar_ns_per_gate_cycle",
        per_gate_cycle(scalar),
        "ns",
    ));
    let word = timed(tracer, "sim.word", || {
        let mut sim = WordSim::new(nl).expect("levelizable");
        for inputs in w.iter() {
            for &(net, value) in inputs {
                sim.set(net, value);
            }
            sim.eval();
            sim.tick();
        }
        sim.cycle()
    });
    m.push(Metric::new(
        "sim.word_ns_per_gate_cycle",
        per_gate_cycle(word),
        "ns",
    ));
    let example = DesignRef::Example(design.example.to_owned());
    m.push(Metric::new(
        "serve.resolve_ms.example",
        timed(tracer, "serve.resolve.example", || {
            resolve(&example).expect("bundled example")
        }),
        "ms",
    ));
    let inline = DesignRef::Verilog(verilog.clone());
    m.push(Metric::new(
        "serve.resolve_ms.verilog",
        timed(tracer, "serve.resolve.verilog", || {
            resolve(&inline).expect("dumped netlist")
        }),
        "ms",
    ));
    let spec = JobSpec::parse(&job_body(example.clone(), "probe", 7)).expect("valid spec");
    m.push(Metric::new(
        "serve.bundle_build_ms",
        timed(tracer, "serve.bundle_build", || {
            let cache = ArtifactCache::new(usize::MAX, Arc::new(Registry::new()));
            let entry = cache.design(resolve(&example).expect("bundled example"));
            cache.bundle(&entry, &spec).expect("injectable design")
        }),
        "ms",
    ));
    // the JSON codec over what the server parses and renders: submission
    // bodies (an inline-Verilog body is one large string) and trace lines
    let mut docs: Vec<String> = vec![job_body(example, "probe", 7), job_body(inline, "probe", 7)];
    docs.extend(String::from_utf8_lossy(trace).lines().map(str::to_owned));
    let bytes: usize = docs.iter().map(String::len).sum();
    let values: Vec<json::Value> = docs
        .iter()
        .map(|d| json::parse(d).expect("well-formed JSON"))
        .collect();
    let parse = timed(tracer, "obs.json_parse", || {
        docs.iter()
            .filter(|d| black_box(json::parse(black_box(d))).is_ok())
            .count()
    });
    let render = timed(tracer, "obs.json_render", || {
        values.iter().map(|v| v.to_string().len()).sum::<usize>()
    });
    m.push(Metric::new(
        "obs.json_parse_ns_per_byte",
        parse * 1e6 / bytes as f64,
        "ns",
    ));
    m.push(Metric::new(
        "obs.json_render_ns_per_byte",
        render * 1e6 / bytes as f64,
        "ns",
    ));
}
