//! `raqbench` — the repository's one benchmark.
//!
//! Eight closed-loop, single-client workloads drive Raqlet from the outside
//! (Cypher text or a DLIR program in, result rows out) and check every
//! result against a reference computed by a different code path. One run
//! reports five end-to-end metrics a user of the system would see; a
//! separate traced run wraps every call into each crate in a span and
//! reports where the time went. See `README.md` beside this crate for why
//! each workload and metric was chosen and how the metrics interact.
//!
//! Layout: [`stats`] (median, tail rule, geomean, quartile spread),
//! [`digest`] (order-independent row-set digests), [`trace`] (spans and
//! self time), [`snb`] (the seeded SNB fixture, facade and staged
//! compilation), [`probe`] (engine probes), [`workloads`] (the eight
//! workloads), [`runner`] (one measured run), [`report`] (result lines,
//! run-set files, `compare`).

pub mod digest;
pub mod json;
pub mod probe;
pub mod report;
pub mod runner;
pub mod snb;
pub mod stats;
pub mod trace;
pub mod workloads;

use trace::Tracer;

/// What one op reports back to the runner.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Time inside the system under test, milliseconds. Result checking and
    /// op generation are outside it.
    pub ms: f64,
    /// The result's digest matched its reference.
    pub ok: bool,
    /// Fingerprint of the result, folded into the run's fingerprint so two
    /// runs of one seed can be compared op by op.
    pub digest: u64,
}

/// What a workload reports after its last op.
#[derive(Debug, Default)]
pub struct Finish {
    /// Post-run checks that failed (counted like failed ops).
    pub failed: usize,
    /// Layer metrics the workload computes itself, by metric name.
    pub layers: Vec<(&'static str, f64)>,
}

/// A set-up workload: warm state, a seeded op stream, and reference
/// answers. All eight are closed loops with one client.
pub trait Workload {
    /// Run the next op of the seeded stream. Without a tracer it goes
    /// through the public facade, as an application would; with one, every
    /// call into a crate is wrapped in a span — the same work on the same
    /// inputs, only the call path differs (staged crate functions in place
    /// of the facade).
    fn op(&mut self, t: Option<&mut Tracer>) -> OpOutcome;

    /// Final checks, and in a traced run the off-op probes.
    fn finish(&mut self, t: &mut Tracer, traced: bool) -> Finish;
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, bounded.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
///
/// The driver accepts a metric only if the quartile spread of ten runs, each
/// with another seed, stays inside its bound on every workload, and asks for
/// spreads below a third of it. Measured on the 2-core reference box
/// (README, "Steadiness"), the widest spread of each metric over the eight
/// workloads is 0.12–0.14 for the three time metrics (`closure_analytic`,
/// `reopen`, the tail of `table1_graph`) and 0.08 for memory
/// (`closure_analytic`), and the box has phases of minutes in which the two
/// multi-threaded engine workloads run 15–35 % slower. Three times the widest spread is at or above the 0.25 the
/// driver allows at most, so every metric gets 0.25. Tighter claims take
/// interleaved pairs (README, "A/B-ing two commits").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_tail_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// Where a layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Median duration (ms) of the spans named like the metric minus `_ms`.
    Span,
    /// Median of the observations of the count of the same name, taken in
    /// set-up, over the first ops of the traced stream and in the probes
    /// after the window; repeats exactly for a seed.
    ExactCount,
    /// Computed by the runner or the workload from other measurements.
    Derived,
}

/// A per-layer metric: reported by the traced run, no bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, prefixed by the crate it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
}

const fn span(name: &'static str) -> Layer {
    Layer { name, unit: "ms", better: Better::Lower, source: Source::Span }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, source: Source::ExactCount }
}

const fn derived(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better, source: Source::Derived }
}

/// The per-layer metrics, in `BENCHMARK.json` order. A workload that never
/// enters a layer reports 0 for every metric of it — which is the
/// prediction "this workload bypasses that layer" made checkable.
pub const PER_LAYER: &[Layer] = &[
    // The Table 1 numbers as the paper reports them: a geomean over the
    // queries of a `table1_*` workload (its `op_p50_ms` is their sum), and
    // the `None ÷ Full` speedup of the optimizer.
    derived("transpile_p50_ms", "ms", Better::Lower),
    derived("datalog_geomean_ms", "ms", Better::Lower),
    derived("sql_geomean_ms", "ms", Better::Lower),
    derived("graph_geomean_ms", "ms", Better::Lower),
    derived("opt_speedup_geomean", "ratio", Better::Higher),
    // The traced window itself.
    derived("trace_overhead_ratio", "ratio", Better::Higher),
    derived("tail_percentile", "%", Better::Higher),
    derived("traced_ops", "count", Better::Higher),
    derived("setup_peak_rss_mb", "MB", Better::Lower),
    // Compiler, front to back.
    span("cypher.parse_ms"),
    count("cypher.tokens", "count"),
    span("pgir.lower_ms"),
    span("dlir.lower_ms"),
    span("dlir.validate_ms"),
    count("dlir.rules", "count"),
    span("analysis.analyze_ms"),
    span("analysis.raqcheck_ms"),
    span("opt.optimize_any_ms"),
    span("opt.optimize_sql_ms"),
    count("opt.rules_after", "count"),
    count("opt.passes_applied", "count"),
    span("sqir.lower_ms"),
    count("sqir.ctes", "count"),
    span("unparse.souffle_ms"),
    span("unparse.sql_ms"),
    count("unparse.souffle_bytes", "bytes"),
    count("unparse.sql_bytes", "bytes"),
    span("core.compile_ms"),
    derived("core.compile_self_ms", "ms", Better::Lower),
    // Engines.
    span("engine.prepared.new_ms"),
    span("engine.prepared.first_run_ms"),
    span("engine.prepared.warm_run_ms"),
    count("engine.prepared.plan_compiles", "count"),
    count("engine.prepared.index_builds", "count"),
    span("engine.datalog.cold_run_ms"),
    span("engine.datalog.t1_ms"),
    span("engine.datalog.tN_ms"),
    derived("engine.datalog.parallel_speedup", "ratio", Better::Higher),
    count("engine.datalog.iterations", "count"),
    count("engine.datalog.rule_applications", "count"),
    count("engine.datalog.tuples_derived", "count"),
    count("engine.datalog.parallel_tasks", "count"),
    Layer {
        name: "engine.datalog.useful_tuple_ratio",
        unit: "ratio",
        better: Better::Higher,
        source: Source::ExactCount,
    },
    span("engine.sql.run_ms"),
    span("engine.sql.cq13_ms"),
    count("engine.sql.rows_produced", "count"),
    count("engine.sql.recursive_iterations", "count"),
    span("engine.graph.run_ms"),
    count("engine.graph.expansions", "count"),
    span("engine.ivm.install_view_ms"),
    span("engine.ivm.apply_insert_ms"),
    span("engine.ivm.apply_delete_ms"),
    span("engine.ivm.apply_dense_ms"),
    span("engine.ivm.recompute_ms"),
    derived("engine.ivm.speedup_vs_recompute", "ratio", Better::Higher),
    count("engine.ivm.tuples_per_delta", "count"),
    // Durability.
    span("storage.create_ms"),
    span("storage.log_delta_ms"),
    derived("storage.commit_self_ms", "ms", Better::Lower),
    span("storage.checkpoint_ms"),
    span("storage.open_ms"),
    count("storage.fsyncs", "count"),
    count("storage.io_ops", "count"),
    count("storage.wal_bytes", "bytes"),
    count("storage.snapshot_bytes", "bytes"),
    Layer {
        name: "storage.bytes_per_heap_byte",
        unit: "ratio",
        better: Better::Lower,
        source: Source::ExactCount,
    },
    // Data.
    count("common.heap_bytes", "bytes"),
    count("common.index_bytes", "bytes"),
    count("common.tuples", "count"),
    span("ldbc.generate_ms"),
    span("ldbc.to_database_ms"),
    span("ldbc.to_property_graph_ms"),
];

/// Directory for everything a run leaves behind (span files, the durable
/// store of `ivm_churn`): `raqbench/` under `CARGO_TARGET_DIR`, or under
/// `target/` of the working directory. Always inside the checkout.
pub fn scratch_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join("raqbench")
}
