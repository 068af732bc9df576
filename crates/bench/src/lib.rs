//! Shared benchmark harness for the Raqlet evaluation.
//!
//! The benches in `benches/` regenerate the paper's evaluation artifacts:
//!
//! * `table1` — Table 1 (SQ1 and CQ2, unoptimized vs optimized, on the four
//!   simulated backends);
//! * `optimizations` — per-pass ablation of the Section 5 optimizations;
//! * `recursion` — the recursive-query comparisons discussed in Section 2
//!   (transitive closure and shortest paths across engines, naive vs
//!   semi-naive evaluation, magic sets on/off);
//! * `scaling` — the recursive queries swept across SNB scale factors, so
//!   evaluation improvements show as curves rather than points; includes
//!   the `semi-naive-t{1,2,4,8}` thread sweep of the parallel evaluator;
//! * `ivm` — incremental maintenance of a standing reachability view under
//!   edge churn against a warm recompute (asserts the small-batch speedup
//!   in quick mode);
//! * `durability` — checkpoint, WAL append and cold open of a durable
//!   store, and the snapshot-load vs regenerate speedup (asserted in quick
//!   mode).
//!
//! `table1` and `scaling` also carry `*-warm` variants that execute against
//! a [`raqlet::PreparedDatabase`], isolating evaluation time from the
//! per-call EDB clone+reindex tax.
//!
//! This library holds the workload setup shared by the benches and the
//! `table1` example. Set `RAQLET_BENCH_QUICK=1` to run every bench in a
//! reduced quick mode (small scale factor, short measurement window) — the
//! CI smoke job uses this to catch panics and harness rot cheaply.

use raqlet::{CompileOptions, CompiledQuery, Database, OptLevel, PropertyGraph, Raqlet};
use raqlet_ldbc::{generate, to_database, to_property_graph, GeneratorConfig, SNB_PG_SCHEMA};

/// True if `RAQLET_BENCH_QUICK` is set (CI smoke mode: tiny workloads and
/// short measurement windows; results are not comparable across runs).
pub fn quick_mode() -> bool {
    std::env::var("RAQLET_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A fully prepared benchmark workload: data loaded into every store plus the
/// compiler instantiated for the SNB schema.
pub struct Workload {
    /// Relational / deductive store.
    pub db: Database,
    /// Property-graph store.
    pub graph: PropertyGraph,
    /// The compiler.
    pub raqlet: Raqlet,
    /// The person id used as the query parameter.
    pub person: i64,
}

impl Workload {
    /// Build a workload at the given scale factor (see
    /// [`raqlet_ldbc::GeneratorConfig`]).
    pub fn new(scale: f64) -> Self {
        let network = generate(&GeneratorConfig { scale, seed: 42 });
        let person = network.sample_person();
        Workload {
            db: to_database(&network),
            graph: to_property_graph(&network),
            raqlet: Raqlet::from_pg_schema(SNB_PG_SCHEMA).expect("SNB schema parses"),
            person,
        }
    }

    /// Compile one of the corpus queries at the given optimization level with
    /// the standard parameter bindings.
    pub fn compile(&self, cypher: &str, level: OptLevel) -> CompiledQuery {
        let options = CompileOptions::new(level)
            .with_param("personId", self.person)
            .with_param("otherId", self.person + 7)
            .with_param("maxDate", 20_200_101i64)
            .with_param("firstName", "Alice");
        self.raqlet.compile(cypher, &options).expect("benchmark query compiles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet::SqlProfile;

    #[test]
    fn workload_builds_and_queries_run() {
        let w = Workload::new(0.2);
        let compiled = w.compile(raqlet_ldbc::SQ1.cypher, OptLevel::Full);
        let rows = compiled.execute_datalog(&w.db).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(rows, compiled.execute_sql(&w.db, SqlProfile::Duck).unwrap());
    }
}
