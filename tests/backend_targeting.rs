//! Backend-targeted optimization: the optimizer must not apply rewrites that
//! are pathological for the execution paradigm they are compiled to.
//!
//! The concrete regression pinned here is the magic-sets-vs-SQL pathology:
//! magic predicates turn into extra recursive CTE branches that
//! working-table evaluation re-joins every iteration, which once made the
//! "fully optimized" CQ2 ~90x *slower* than the
//! unoptimized program on duckdb-sim/hyper-sim, while the same rewrite is
//! ~18x faster on the Datalog engine. The fix routes each backend its own
//! optimized program ([`raqlet_opt::TargetBackend`]).

use std::time::Instant;

use raqlet::{CompileOptions, CompiledQuery, OptLevel, Raqlet, SqlDialect, SqlProfile};
use raqlet_ldbc::{generate, to_database, GeneratorConfig, CQ2, REACHABILITY, SNB_PG_SCHEMA};

fn compile(cypher: &str, level: OptLevel, person: i64) -> CompiledQuery {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).expect("SNB schema parses");
    let options = CompileOptions::new(level)
        .with_param("personId", person)
        .with_param("otherId", person + 7)
        .with_param("maxDate", 20_200_101i64);
    raqlet.compile(cypher, &options).expect("benchmark query compiles")
}

#[test]
fn sql_programs_never_contain_magic_predicates() {
    // REACHABILITY is recursive with a bound source: the magic-set rewrite
    // fires on it (unlike CQ2, whose selection is pushed by inlining alone).
    let compiled = compile(REACHABILITY.cypher, OptLevel::Full, 42);
    // The Datalog side keeps the rewrite (it is what makes the Datalog
    // engine fast on bound recursive queries)...
    assert!(
        compiled.to_souffle().contains("Magic_"),
        "Datalog-targeted compilation should still apply magic sets:\n{}",
        compiled.to_souffle()
    );
    // ... while the SQL side must not: magic predicates become extra
    // recursive CTE branches that working-table evaluation re-joins every
    // iteration.
    let sql = compiled.to_sql(SqlDialect::DuckDb).unwrap();
    assert!(
        !sql.contains("Magic_"),
        "SQL-targeted compilation must skip the magic-set rewrite:\n{sql}"
    );
}

#[test]
fn cq2_on_duckdb_sim_optimized_no_longer_regresses_vs_unoptimized() {
    let network = generate(&GeneratorConfig { scale: 0.2, seed: 42 });
    let person = network.sample_person();
    let db = to_database(&network);
    let compiled = compile(CQ2.cypher, OptLevel::Full, person);
    let baseline = compile(CQ2.cypher, OptLevel::None, person);

    // Same answers either way.
    let started = Instant::now();
    let optimized = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
    let optimized_elapsed = started.elapsed();
    let started = Instant::now();
    let unoptimized = baseline.execute_sql(&db, SqlProfile::Duck).unwrap();
    let unoptimized_elapsed = started.elapsed();
    assert_eq!(optimized.sorted(), unoptimized.sorted());
    assert!(!optimized.is_empty(), "CQ2 should return rows on the generated workload");

    // The pathology was a ~90x regression; a generous 5x bound keeps this
    // robust to CI noise while still catching any recursion blow-up.
    assert!(
        optimized_elapsed <= unoptimized_elapsed * 5,
        "optimized CQ2 on duckdb-sim regressed: optimized {optimized_elapsed:?} vs \
         unoptimized {unoptimized_elapsed:?}"
    );
}

#[test]
fn datalog_and_sql_targeted_programs_agree_on_results() {
    let network = generate(&GeneratorConfig { scale: 0.2, seed: 7 });
    let person = network.sample_person();
    let db = to_database(&network);
    let compiled = compile(CQ2.cypher, OptLevel::Full, person);
    let datalog = compiled.execute_datalog(&db).unwrap();
    let duck = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
    let hyper = compiled.execute_sql(&db, SqlProfile::Hyper).unwrap();
    assert_eq!(datalog.sorted(), duck.sorted());
    assert_eq!(duck.sorted(), hyper.sorted());
}
