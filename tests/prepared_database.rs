//! `PreparedDatabase` semantics: warm executions must be indistinguishable
//! from cold ones *except* for the work they skip.
//!
//! * warm-vs-cold equivalence — running a compiled query against a prepared
//!   set returns exactly what a fresh `DatalogEngine::evaluate` returns;
//! * idempotence — repeated executions (same or different programs) never
//!   leak derivations into one another;
//! * the point of the API — a second execution performs **zero** index
//!   rebuilds (pinned through the relation-level build counter), **zero**
//!   program recompiles (pinned through the plan-cache counter) and **zero**
//!   dictionary re-encoding (pinned through the shared value dictionary's
//!   entry count);
//! * what warm state costs and saves — index memory per tuple, and the work
//!   a one-edge maintenance pass does against a warm recompute.

use raqlet::{
    CompileOptions, Database, DatalogEngine, EdbDelta, EvalStats, OptLevel, PreparedDatabase,
    Raqlet, Value,
};
use raqlet_dlir::{Atom, BodyElem, DlirProgram, Rule};

fn atom(name: &str, vars: &[&str]) -> BodyElem {
    BodyElem::Atom(Atom::with_vars(name, vars))
}

fn tc_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
    ));
    p.add_output("tc");
    p
}

fn chain_db(n: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert_fact("edge", vec![Value::Int(i), Value::Int(i + 1)]).unwrap();
    }
    db
}

fn snb_setup() -> (Raqlet, Database, i64) {
    let network = raqlet_ldbc::generate(&raqlet_ldbc::GeneratorConfig { scale: 0.25, seed: 42 });
    let db = raqlet_ldbc::to_database(&network);
    let person = network.sample_person();
    (Raqlet::from_pg_schema(raqlet_ldbc::SNB_PG_SCHEMA).unwrap(), db, person)
}

#[test]
fn warm_equals_cold_on_the_ldbc_workload() {
    let (raqlet, db, person) = snb_setup();
    let mut prepared = PreparedDatabase::new(db.clone());
    for query in [raqlet_ldbc::SQ1, raqlet_ldbc::CQ2, raqlet_ldbc::REACHABILITY] {
        let options = CompileOptions::new(OptLevel::Full)
            .with_param("personId", person)
            .with_param("otherId", person + 7)
            .with_param("maxDate", 20_200_101i64)
            .with_param("firstName", "Alice");
        let compiled = raqlet.compile(query.cypher, &options).unwrap();
        let cold = compiled.execute_datalog(&db).unwrap();
        let warm = compiled.execute_datalog_prepared(&mut prepared).unwrap();
        assert_eq!(cold.sorted(), warm.sorted(), "{} warm != cold", query.name);
        // And again, now fully warm.
        let warmer = compiled.execute_datalog_prepared(&mut prepared).unwrap();
        assert_eq!(cold.sorted(), warmer.sorted(), "{} re-run diverged", query.name);
    }
    assert_eq!(prepared.executions(), 6);
}

#[test]
fn repeated_execution_is_idempotent() {
    let mut prepared = PreparedDatabase::new(chain_db(12));
    let program = tc_program();
    let first = prepared.run(&program, "tc").unwrap();
    for _ in 0..4 {
        let again = prepared.run(&program, "tc").unwrap();
        assert_eq!(first.sorted(), again.sorted());
    }
    // Derived state never leaks into the warm working set between runs.
    assert!(prepared.database().get("tc").is_none());
    assert_eq!(prepared.database().get("edge").unwrap().len(), 12);
}

#[test]
fn second_execution_performs_zero_index_rebuilds() {
    let (raqlet, db, person) = snb_setup();
    let options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
    let compiled = raqlet.compile(raqlet_ldbc::SQ1.cypher, &options).unwrap();

    let mut prepared = PreparedDatabase::new(db);
    compiled.execute_datalog_prepared(&mut prepared).unwrap();
    let builds_after_first = prepared.index_builds();
    assert!(builds_after_first > 0, "the first run must build the EDB join indexes");

    compiled.execute_datalog_prepared(&mut prepared).unwrap();
    assert_eq!(
        prepared.index_builds(),
        builds_after_first,
        "a warm re-run must not rebuild any persistent index"
    );

    // A *different* program over the same relations may add new column
    // combinations but must reuse what exists: the count can only grow by
    // genuinely new indexes, never reset.
    compiled.execute_datalog_prepared(&mut prepared).unwrap();
    assert_eq!(prepared.index_builds(), builds_after_first);
}

#[test]
fn second_execution_performs_zero_plan_recompiles() {
    let (raqlet, db, person) = snb_setup();
    let options = CompileOptions::new(OptLevel::Full)
        .with_param("personId", person)
        .with_param("otherId", person + 7)
        .with_param("maxDate", 20_200_101i64)
        .with_param("firstName", "Alice");
    let sq1 = raqlet.compile(raqlet_ldbc::SQ1.cypher, &options).unwrap();
    let cq2 = raqlet.compile(raqlet_ldbc::CQ2.cypher, &options).unwrap();

    let mut prepared = PreparedDatabase::new(db);
    sq1.execute_datalog_prepared(&mut prepared).unwrap();
    assert_eq!(prepared.plan_compiles(), 1, "the first run compiles the program once");
    for _ in 0..3 {
        sq1.execute_datalog_prepared(&mut prepared).unwrap();
    }
    assert_eq!(prepared.plan_compiles(), 1, "warm re-executions must compile nothing");

    // A different program compiles exactly once more, then caches too.
    cq2.execute_datalog_prepared(&mut prepared).unwrap();
    cq2.execute_datalog_prepared(&mut prepared).unwrap();
    assert_eq!(prepared.plan_compiles(), 2);
}

#[test]
fn warm_executions_perform_zero_dictionary_reencoding() {
    let (raqlet, db, person) = snb_setup();
    let options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
    let compiled = raqlet.compile(raqlet_ldbc::SQ1.cypher, &options).unwrap();

    let mut prepared = PreparedDatabase::new(db);
    // The first run may intern program constants the EDB never mentioned.
    compiled.execute_datalog_prepared(&mut prepared).unwrap();
    let warm_entries = prepared.database().dict().len();
    assert!(warm_entries > 0, "the SNB strings live in the shared dictionary");
    for _ in 0..3 {
        compiled.execute_datalog_prepared(&mut prepared).unwrap();
    }
    assert_eq!(
        prepared.database().dict().len(),
        warm_entries,
        "warm runs must not re-encode any EDB string or constant"
    );
}

#[test]
fn interleaved_programs_share_the_warm_set_without_interference() {
    let mut prepared = PreparedDatabase::new(chain_db(8));
    let tc = tc_program();

    // A second program over the same EDB: direct successors-of-successors.
    let mut hop2 = DlirProgram::default();
    hop2.add_rule(Rule::new(
        Atom::with_vars("hop2", &["x", "z"]),
        vec![atom("edge", &["x", "y"]), atom("edge", &["y", "z"])],
    ));
    hop2.add_output("hop2");

    let tc_expected = DatalogEngine::new().run_output(&tc, prepared.database(), "tc").unwrap();
    let hop2_expected =
        DatalogEngine::new().run_output(&hop2, prepared.database(), "hop2").unwrap();

    for _ in 0..3 {
        assert_eq!(prepared.run(&tc, "tc").unwrap().sorted(), tc_expected.sorted());
        assert_eq!(prepared.run(&hop2, "hop2").unwrap().sorted(), hop2_expected.sorted());
    }
    assert!(prepared.database().get("tc").is_none());
    assert!(prepared.database().get("hop2").is_none());
}

#[test]
fn only_plan_declared_indexes_are_materialized() {
    // Transitive closure probes `edge` on its first column and nothing
    // else — `tc` is always the driving scan. The compile-time
    // index-requirements analysis must declare exactly that index, and
    // evaluation must build no other.
    let mut prepared = PreparedDatabase::new(chain_db(8));
    prepared.run(&tc_program(), "tc").unwrap();
    assert_eq!(prepared.index_builds(), 1, "exactly the declared edge index");
    let edge = prepared.database().get("edge").unwrap();
    assert!(edge.has_index(&[0]));
    assert_eq!(edge.index_count(), 1, "no undeclared index may be built");

    // Warm re-runs keep the declared set as-is: zero additional builds.
    prepared.run(&tc_program(), "tc").unwrap();
    assert_eq!(prepared.index_builds(), 1);
    assert_eq!(prepared.database().get("edge").unwrap().index_count(), 1);
}

/// Maintenance hygiene: `apply_delta` must run entirely on the standing
/// machinery — no program recompiles and no index builds beyond what
/// `install_view` declared and materialized up front.
#[test]
fn apply_delta_compiles_no_plans_and_builds_no_undeclared_indexes() {
    use raqlet::EdbDelta;

    let mut prepared = PreparedDatabase::new(chain_db(8));
    let program = tc_program();
    prepared.install_view(&program, "tc").unwrap();
    let compiles = prepared.plan_compiles();
    let builds = prepared.index_builds();
    assert!(builds > 0, "install_view materializes the declared maintenance indexes");

    for i in 0..6i64 {
        let mut delta = EdbDelta::new();
        if i % 2 == 0 {
            delta.insert("edge", vec![Value::Int(20 + i), Value::Int(21 + i)]);
        } else {
            delta.delete("edge", vec![Value::Int(i), Value::Int(i + 1)]);
        }
        prepared.apply_delta(delta).unwrap();
        assert_eq!(prepared.plan_compiles(), compiles, "batch {i}: maintenance recompiled a plan");
        assert_eq!(prepared.index_builds(), builds, "batch {i}: maintenance built a new index");
    }
}

/// Installing a standing view must not perturb the warm execution path:
/// `run` over the same prepared set returns exactly the pre-IVM results as
/// long as no delta was applied, and derived state still never leaks.
#[test]
fn standing_views_leave_the_warm_path_untouched() {
    let program = tc_program();
    let mut baseline = PreparedDatabase::new(chain_db(10));
    let expected = baseline.run(&program, "tc").unwrap().sorted();

    let mut prepared = PreparedDatabase::new(chain_db(10));
    let view = prepared.install_view(&program, "tc").unwrap();
    for _ in 0..3 {
        assert_eq!(prepared.run(&program, "tc").unwrap().sorted(), expected);
    }
    assert!(prepared.database().get("tc").is_none(), "derived state must not leak into the EDB");
    assert_eq!(prepared.view_relation(view, "tc").unwrap().sorted(), expected);
    assert_eq!(prepared.view_epoch(view), Some(0), "no delta was applied");
}

/// After maintenance, the warm execution path sees the mutated EDB: a fresh
/// `run` agrees with both the maintained view and a cold engine.
#[test]
fn warm_runs_after_apply_delta_see_the_mutated_edb() {
    use raqlet::EdbDelta;

    let program = tc_program();
    let mut prepared = PreparedDatabase::new(chain_db(6));
    let view = prepared.install_view(&program, "tc").unwrap();

    let mut delta = EdbDelta::new();
    delta.delete("edge", vec![Value::Int(2), Value::Int(3)]);
    delta.insert("edge", vec![Value::Int(6), Value::Int(7)]);
    prepared.apply_delta(delta).unwrap();

    let warm = prepared.run(&program, "tc").unwrap().sorted();
    let maintained = prepared.view_relation(view, "tc").unwrap().sorted();
    let cold =
        DatalogEngine::new().run_output(&program, prepared.database(), "tc").unwrap().sorted();
    assert_eq!(warm, maintained, "warm re-run vs maintained view");
    assert_eq!(warm, cold, "warm re-run vs cold engine on the mutated EDB");
}

/// Index memory stays within budget: a warm run materialises only the
/// plan-declared join indexes, which on the SNB set stay under 120 bytes per
/// extensional tuple. Building undeclared indexes again would blow the bound.
#[test]
fn warm_index_memory_stays_within_the_per_tuple_budget() {
    let (raqlet, db, person) = snb_setup();
    let options = CompileOptions::new(OptLevel::None).with_param("personId", person);
    let compiled = raqlet.compile(raqlet_ldbc::REACHABILITY.cypher, &options).unwrap();
    let mut prepared = PreparedDatabase::new(db.clone());
    compiled.execute_datalog_prepared(&mut prepared).unwrap();
    let index_bytes = prepared.database().index_heap_bytes();
    let per_tuple = index_bytes as f64 / db.total_tuples() as f64;
    assert!(index_bytes > 0, "the warm run must build the declared indexes");
    assert!(per_tuple <= 120.0, "{per_tuple:.1} index bytes per tuple, budget 120");
}

/// Small-batch maintenance does a fraction of a warm recompute's work: one
/// fresh KNOWS edge into the standing REACHABILITY view, against a warm
/// re-execution of the same query. Both costs are pinned exactly, and the
/// recompute must derive at least five times the tuples the insert does.
#[test]
fn one_edge_insert_derives_a_fifth_of_a_warm_recompute() {
    let network = raqlet_ldbc::generate(&raqlet_ldbc::GeneratorConfig { scale: 0.25, seed: 42 });
    let (raqlet, db, person) = snb_setup();
    let options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
    let compiled = raqlet.compile(raqlet_ldbc::REACHABILITY.cypher, &options).unwrap();

    let mut maintained = PreparedDatabase::new(db.clone());
    maintained.install_view(compiled.dlir(), &compiled.output).unwrap();
    let mut delta = EdbDelta::new();
    delta.insert(
        "Person_KNOWS_Person",
        vec![
            Value::Int(network.persons[1].id),
            Value::Int(5_000_000),
            Value::Int(9_000_000),
            Value::Int(20_200_101),
        ],
    );
    let insert = maintained.apply_delta(delta).unwrap();

    let mut warm = PreparedDatabase::new(db);
    compiled.execute_datalog_prepared(&mut warm).unwrap();
    compiled.execute_datalog_prepared(&mut warm).unwrap();
    let recompute = warm.last_stats().clone();

    let stats = |sccs, iterations, rule_applications, tuples_derived| EvalStats {
        strata: 1,
        sccs,
        looping_sccs: 1,
        iterations,
        rule_applications,
        tuples_derived,
        parallel_tasks: 0,
    };
    assert_eq!(insert, stats(2, 2, 7, 2), "insert");
    assert_eq!(recompute, stats(3, 6, 12, 153), "warm recompute");
    assert!(
        recompute.tuples_derived >= 5 * insert.tuples_derived,
        "recompute derives {} tuples, the insert {}",
        recompute.tuples_derived,
        insert.tuples_derived
    );
}

#[test]
fn facts_added_between_runs_are_visible_and_extend_indexes() {
    let mut prepared = PreparedDatabase::new(chain_db(3));
    let program = tc_program();
    assert_eq!(prepared.run(&program, "tc").unwrap().len(), 6); // 3+2+1
    let builds = prepared.index_builds();

    // Extending the chain grows the closure; the persistent index is
    // extended in place, not rebuilt.
    prepared.insert_fact("edge", vec![Value::Int(3), Value::Int(4)]).unwrap();
    assert_eq!(prepared.run(&program, "tc").unwrap().len(), 10); // 4+3+2+1
    assert_eq!(prepared.index_builds(), builds);
}
