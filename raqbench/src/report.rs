//! Result lines for the driver, run-set files, and `compare`.
//!
//! A *run-set* is what `raqbench --all` records: for every workload, the
//! end-to-end metrics of several untraced runs (each in its own process, so
//! `peak_rss_mb` is that run's own) and the per-layer metrics of one traced
//! run, together with the machine facts a reader needs to judge them.

use std::fmt::Write as _;

use crate::json::{quote, Json};
use crate::runner::RunResult;
use crate::stats::{median, spread};
use crate::{Better, END_TO_END};

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(name), quote(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "raqbench/Cargo.toml",
    "--",
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 10;

/// The contents of `BENCHMARK.json`, generated from the tables in the code
/// so the two cannot drift (the smoke test compares them).
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| items.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ");
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"command\": [{}],", strings(COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"raqbench\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(out, "  \"workloads\": [");
    let kinds = crate::workloads::Kind::ALL;
    for (i, k) in kinds.iter().enumerate() {
        let comma = if i + 1 < kinds.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            quote(k.name()),
            quote(k.why())
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"end_to_end\": [");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"per_layer\": [");
    for (i, m) in crate::PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < crate::PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// One workload's part of a run-set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: String,
    /// Ops attempted / failed, summed over the untraced runs.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// End-to-end metric → one value per untraced run.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    /// Per-layer metric → value of the traced run.
    pub per_layer: Vec<(String, f64)>,
}

/// A recorded `--all` pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSet {
    /// Seed every run used.
    pub seed: u64,
    /// Seconds per window.
    pub seconds: f64,
    /// `available_parallelism` of the recording machine.
    pub nproc: usize,
    /// Commit the tree was at (as given on the command line).
    pub commit: String,
    /// Date of the recording (as given on the command line).
    pub date: String,
    /// One entry per workload.
    pub workloads: Vec<WorkloadRuns>,
}

impl RunSet {
    /// Serialise to the run-set file format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(out, "  \"nproc\": {},", self.nproc);
        let _ = writeln!(out, "  \"commit\": {},", quote(&self.commit));
        let _ = writeln!(out, "  \"date\": {},", quote(&self.date));
        let _ = writeln!(out, "  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": {},", quote(&w.name));
            let _ = writeln!(out, "      \"attempted\": {},", w.attempted);
            let _ = writeln!(out, "      \"failed\": {},", w.failed);
            let _ = writeln!(out, "      \"end_to_end\": {{");
            for (j, (name, values)) in w.end_to_end.iter().enumerate() {
                let vs: Vec<String> = values.iter().map(f64::to_string).collect();
                let comma = if j + 1 < w.end_to_end.len() { "," } else { "" };
                let _ = writeln!(out, "        {}: [{}]{comma}", quote(name), vs.join(", "));
            }
            let _ = writeln!(out, "      }},");
            let _ = writeln!(out, "      \"per_layer\": {{");
            for (j, (name, value)) in w.per_layer.iter().enumerate() {
                let comma = if j + 1 < w.per_layer.len() { "," } else { "" };
                let _ = writeln!(out, "        {}: {value}{comma}", quote(name));
            }
            let _ = writeln!(out, "      }}");
            let comma = if i + 1 < self.workloads.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parse a run-set file.
    pub fn from_json(text: &str) -> Result<RunSet, String> {
        let doc = Json::parse(text)?;
        let num = |v: &Json, key: &str| {
            v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number `{key}`"))
        };
        let text_of = |v: &Json, key: &str| {
            v.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing `{key}`"))
        };
        let mut set = RunSet {
            seed: num(&doc, "seed")? as u64,
            seconds: num(&doc, "seconds")?,
            nproc: num(&doc, "nproc")? as usize,
            commit: text_of(&doc, "commit")?,
            date: text_of(&doc, "date")?,
            workloads: Vec::new(),
        };
        for w in doc.get("workloads").and_then(Json::as_array).ok_or("missing `workloads`")? {
            let members = |key: &str| {
                w.get(key)
                    .and_then(Json::as_object)
                    .ok_or_else(|| format!("missing object `{key}`"))
            };
            let mut runs = WorkloadRuns {
                name: text_of(w, "name")?,
                attempted: num(w, "attempted")? as u64,
                failed: num(w, "failed")? as u64,
                ..Default::default()
            };
            for (name, values) in members("end_to_end")? {
                let values = values.as_array().ok_or("end_to_end values must be arrays")?;
                let values = values.iter().filter_map(Json::as_f64).collect();
                runs.end_to_end.push((name.clone(), values));
            }
            for (name, value) in members("per_layer")? {
                runs.per_layer.push((
                    name.clone(),
                    value.as_f64().ok_or("per_layer values must be numbers")?,
                ));
            }
            set.workloads.push(runs);
        }
        Ok(set)
    }
}

/// Verdict of one (workload, metric) row of `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// One side's own spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median of `a`'s runs (the base of the ratio).
    pub a: f64,
    /// Median of `b`'s runs.
    pub b: f64,
    /// Larger quartile spread of the two sides.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The row's verdict.
    pub verdict: Verdict,
}

/// Hold run-set `b` against run-set `a`, one row per (workload, end-to-end
/// metric) both have.
pub fn compare(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else { continue };
        for m in END_TO_END {
            let values = |w: &WorkloadRuns| {
                w.end_to_end.iter().find(|(n, _)| n == m.name).map(|(_, v)| v.clone())
            };
            let (Some(va), Some(vb)) = (values(wa), values(wb)) else { continue };
            let (ma, mb) = (median(&va), median(&vb));
            let worsening = match m.better {
                Better::Lower => mb / ma - 1.0,
                Better::Higher => ma / mb - 1.0,
            };
            let spread = spread(&va).max(spread(&vb));
            let verdict = if spread > m.bound {
                Verdict::Unresolved
            } else if worsening > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: wa.name.clone(),
                metric: m.name,
                a: ma,
                b: mb,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// The `compare` table as text.
pub fn render_compare(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        let _ = writeln!(
            out,
            "{:<18} {:<12} {:>12.4} {:>12.4} {:>9.4} {:>8.4} {:>7.2}  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.spread,
            r.bound
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops: &[f64], p50: &[f64]) -> RunSet {
        RunSet {
            seed: 42,
            seconds: 10.0,
            nproc: 2,
            commit: "abc \"quoted\"".into(),
            date: "2026-01-01".into(),
            workloads: vec![WorkloadRuns {
                name: "points_to".into(),
                attempted: 300,
                failed: 0,
                end_to_end: vec![
                    ("ops_per_s".into(), ops.to_vec()),
                    ("op_p50_ms".into(), p50.to_vec()),
                ],
                per_layer: vec![("dlir.rules".into(), 4.0), ("engine.datalog.t1_ms".into(), 61.25)],
            }],
        }
    }

    #[test]
    fn run_sets_round_trip_through_their_file_format() {
        let s = set(&[100.0, 101.5, 99.25], &[10.0, 9.875, 10.125]);
        assert_eq!(RunSet::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn compare_judges_by_direction_bound_and_spread() {
        let base = set(&[100.0, 101.0, 99.0, 100.5, 99.5], &[10.0, 10.1, 9.9, 10.0, 10.05]);
        // Throughput down 40 % (worse: higher is better), latency down 20 % (fine).
        let slower = set(&[60.0, 60.5, 59.5, 60.2, 59.8], &[8.0, 8.1, 7.9, 8.0, 8.05]);
        let rows = compare(&base, &slower);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].metric, rows[0].verdict), ("ops_per_s", Verdict::Worse));
        assert_eq!((rows[1].metric, rows[1].verdict), ("op_p50_ms", Verdict::Ok));
        // Within the bound either way.
        let same = set(&[96.0, 97.0, 95.0, 96.5, 95.5], &[10.5, 10.6, 10.4, 10.5, 10.55]);
        assert!(compare(&base, &same).iter().all(|r| r.verdict == Verdict::Ok));
        // A side that scatters more than the bound cannot be judged.
        let noisy = set(&[60.0, 140.0, 80.0, 120.0, 100.0], &[10.0, 10.1, 9.9, 10.0, 10.05]);
        let rows = compare(&base, &noisy);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(render_compare(&rows).contains("unresolved"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 10,
            failed: 1,
            metrics: vec![("op_p50_ms", "ms", 1.25), ("setup_s", "s", 0.5)],
            fingerprint: 0,
            exact: Vec::new(),
        };
        let v = Json::parse(&result_line(&r)).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.get("op_p50_ms").unwrap().get("value").unwrap().as_f64(), Some(1.25));
    }
}
