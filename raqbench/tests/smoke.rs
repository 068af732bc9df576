//! End-to-end smoke of the harness at quick size: all eight workloads, both
//! passes, the span files, and the agreement between `BENCHMARK.json` and
//! the metric tables in the code.

use std::time::Instant;

use raqbench::json::Json;
use raqbench::runner::{run, Budget, RunConfig};
use raqbench::workloads::Kind;
use raqbench::{scratch_dir, Source, END_TO_END, PER_LAYER};

fn config(kind: Kind, seed: u64, traced: bool) -> RunConfig {
    RunConfig { kind, seed, budget: Budget::Ops(30), traced, quick: true }
}

#[test]
fn all_workloads_run_both_passes_at_quick_size() {
    let start = Instant::now();
    for kind in Kind::ALL {
        let plain = run(config(kind, 42, false));
        assert_eq!(plain.failed, 0, "{}: untraced ops failed", kind.name());
        assert_eq!(plain.attempted, 31, "{}: 30 ops and the final check", kind.name());
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (name, _, value) in &plain.metrics {
            assert!(value.is_finite() && *value > 0.0, "{}: {name} = {value}", kind.name());
        }

        let traced = run(config(kind, 42, true));
        assert_eq!(traced.failed, 0, "{}: traced ops failed", kind.name());
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        let get = |name: &str| traced.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert!(traced.metrics.iter().all(|m| m.2.is_finite()));
        assert!(get("trace_overhead_ratio") > 0.0, "{}", kind.name());
        // A workload reports the layers it enters and 0 for the rest: the
        // home workloads of a layer, by one metric of each.
        let enters = |metric: &str, homes: &[Kind]| {
            assert_eq!(get(metric) > 0.0, homes.contains(&kind), "{}: {metric}", kind.name());
        };
        use Kind::*;
        let compiles: Vec<Kind> = Kind::ALL.into_iter().filter(|k| *k != PointsTo).collect();
        enters("cypher.parse_ms", &compiles);
        enters(
            "engine.datalog.tuples_derived",
            &[InteractiveMix, ClosureAnalytic, PointsTo, Table1Datalog, IvmChurn],
        );
        enters(
            "engine.graph.run_ms",
            &[InteractiveMix, ClosureAnalytic, Table1Graph, Table1Datalog, Table1Sql],
        );
        enters("graph_geomean_ms", &[Table1Graph]);
        enters("datalog_geomean_ms", &[Table1Datalog]);
        enters("engine.sql.run_ms", &[Table1Sql]);
        enters("unparse.sql_ms", &[Table1Datalog, Table1Sql]);
        enters("opt_speedup_geomean", &[Table1Datalog, Table1Sql]);
        enters("storage.log_delta_ms", &[IvmChurn]);
        enters("engine.ivm.apply_insert_ms", &[IvmChurn]);
        enters("storage.open_ms", &[Reopen]);
        enters("storage.snapshot_bytes", &[IvmChurn, Reopen]);

        // The span file: one JSON object per span, children inside parents.
        let path = scratch_dir().join(format!("trace-{}.jsonl", kind.name()));
        let text = std::fs::read_to_string(&path).expect("span file written");
        let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("span parses")).collect();
        assert!(spans.len() > 20, "{}: {} spans", kind.name(), spans.len());
        let num = |s: &Json, key: &str| s.get(key).and_then(Json::as_f64).expect("span field");
        for s in &spans {
            assert!(num(s, "end_ns") >= num(s, "start_ns"));
            assert!(num(s, "self_ns") <= num(s, "end_ns") - num(s, "start_ns"));
            if let Some(parent) = s.get("parent").and_then(Json::as_f64) {
                let p = &spans[parent as usize];
                assert!(
                    num(p, "start_ns") <= num(s, "start_ns")
                        && num(s, "end_ns") <= num(p, "end_ns")
                );
                assert_eq!(num(p, "op_id"), num(s, "op_id"));
            }
        }

        // The traced pass repeats too: same digests, same exact counts.
        let again = run(config(kind, 42, true));
        assert_eq!(again.fingerprint, traced.fingerprint, "{}: traced digests differ", kind.name());
        assert_eq!(again.exact, traced.exact, "{}: exact counts differ", kind.name());
        assert_eq!(
            again.exact.len(),
            PER_LAYER.iter().filter(|m| m.source == Source::ExactCount).count()
        );
    }
    // Thirty-two quick runs. An optimized build does this in a few seconds;
    // the limit leaves room for the unoptimized build `cargo test` makes.
    assert!(start.elapsed().as_secs() < 60, "quick smoke took {:?}", start.elapsed());
}

#[test]
fn op_streams_repeat_per_seed_and_differ_across_seeds() {
    for kind in Kind::ALL {
        let a = run(config(kind, 7, false));
        let b = run(config(kind, 7, false));
        let c = run(config(kind, 8, false));
        assert_eq!(a.fingerprint, b.fingerprint, "{}: same seed, different results", kind.name());
        // All pairs of a connected graph reach each other whatever its
        // edges are, so the closure's result is the one thing no seed moves.
        if kind != Kind::ClosureAnalytic {
            assert_ne!(
                a.fingerprint,
                c.fingerprint,
                "{}: seed does not reach the inputs",
                kind.name()
            );
        }
        assert_eq!(a.failed + b.failed + c.failed, 0, "{}", kind.name());
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        raqbench::report::benchmark_json(),
        "regenerate with `raqbench --describe`"
    );
    let doc = Json::parse(&on_disk).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
    let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();

    assert_eq!(list("paths"), [Json::Str("raqbench".into())]);
    let command: Vec<String> = list("command").iter().map(|s| s.as_str().unwrap().into()).collect();
    assert!(command.contains(&"raqbench/Cargo.toml".to_string()));

    let workloads = list("workloads");
    assert_eq!(workloads.len(), Kind::ALL.len());
    for (w, kind) in workloads.iter().zip(Kind::ALL) {
        assert_eq!(text(w, "name"), kind.name());
        assert_eq!(text(w, "why"), kind.why());
        assert!(kind.why().len() <= 200 && !kind.why().contains('\n'));
    }

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!((text(j, "name"), text(j, "unit")), (m.name.to_string(), m.unit.to_string()));
        assert_eq!(text(j, "better"), m.better.as_str());
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(END_TO_END.iter().find(|m| m.name == "setup_s").unwrap().bound, largest);

    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!((text(j, "name"), text(j, "unit")), (m.name.to_string(), m.unit.to_string()));
        assert_eq!(text(j, "better"), m.better.as_str());
        assert!(m.name.len() <= 64 && m.unit.len() <= 16);
    }
}
