//! Execution-governance limits: deadlines, budgets and cancellation must
//! interrupt runaway queries promptly, surface as structured errors carrying
//! partial statistics, and — when they never trip — change nothing at all.
//!
//! The acceptance bar for deadlines is quantitative: a deadline-bound dense
//! non-linear transitive closure must return [`RaqletError::Timeout`] within
//! **2x** the requested deadline (the engine checkpoints at fixpoint rounds,
//! SCC boundaries, parallel chunk starts and periodically inside join scans,
//! so the overshoot is bounded by one checkpoint interval, not by a round).

use std::time::{Duration, Instant};

use raqlet::{
    CancellationToken, CompileOptions, Database, DatalogEngine, OptLevel, PreparedDatabase,
    QueryGuard, Raqlet, RaqletError, SqlProfile, Value,
};
use raqlet_dlir::{Atom, BodyElem, DlirProgram, Rule};
use raqlet_engine::fault::count_checkpoints;
use raqlet_ldbc::{generate, to_database, to_property_graph, GeneratorConfig, SNB_PG_SCHEMA};

fn atom(name: &str, vars: &[&str]) -> BodyElem {
    BodyElem::Atom(Atom::with_vars(name, vars))
}

/// Linear transitive closure (also accepted by the SQL lowering).
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

/// Non-linear (quadratic) transitive closure: each round joins `tc` with
/// itself, so round cost grows with the square of the closure — the
/// canonical runaway query for deadline tests.
fn nonlinear_tc_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
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

/// A dense strongly connected graph: a cycle plus long chords, so the full
/// closure holds `n * n` tuples and the non-linear rule's self-join is huge.
fn dense_cycle_db(n: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert_fact("edge", vec![Value::Int(i), Value::Int((i + 1) % n)]).unwrap();
        db.insert_fact("edge", vec![Value::Int(i), Value::Int((i + 7) % n)]).unwrap();
    }
    db
}

#[test]
fn deadline_bound_nonlinear_tc_times_out_within_2x() {
    let db = dense_cycle_db(500);
    let deadline = Duration::from_millis(150);
    let guard = QueryGuard::new().with_deadline(deadline);
    let started = Instant::now();
    let err = DatalogEngine::new()
        .evaluate_guarded(&nonlinear_tc_program(), &db, &guard)
        .expect_err("a 150ms deadline cannot evaluate a 250k-tuple non-linear closure");
    let elapsed = started.elapsed();
    match &err {
        RaqletError::Timeout { elapsed_ms, limit_ms, stats } => {
            assert_eq!(*limit_ms, 150);
            assert!(*elapsed_ms >= 150, "reported {elapsed_ms}ms under the deadline");
            // Partial statistics: the engine was mid-evaluation, not at rest.
            assert!(
                stats.rule_applications > 0 || stats.iterations > 0,
                "timeout should carry partial progress, got {stats:?}"
            );
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(err.is_guard_trip());
    assert!(
        elapsed <= deadline * 2,
        "timeout returned after {elapsed:?}, more than 2x the {deadline:?} deadline"
    );
}

#[test]
fn tuple_budget_trips_with_partial_stats() {
    let db = chain_db(150);
    let guard = QueryGuard::new().with_tuple_budget(2_000);
    let err = DatalogEngine::new()
        .evaluate_guarded(&tc_program(), &db, &guard)
        .expect_err("an 11k-tuple closure cannot fit a 2k tuple budget");
    match &err {
        RaqletError::BudgetExceeded { resource, used, limit, stats } => {
            assert_eq!(*resource, "tuples");
            assert_eq!(*limit, 2_000);
            assert!(*used >= 2_000, "trip reported under-budget usage {used}");
            assert!(stats.iterations > 0, "budget trip should carry partial stats: {stats:?}");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn memory_budget_trips_on_heap_bytes() {
    let db = chain_db(50);
    // The extensional arenas alone exceed one byte, so the very first
    // armed checkpoint that samples heap usage trips.
    let guard = QueryGuard::new().with_memory_budget(1);
    let err = DatalogEngine::new()
        .evaluate_guarded(&tc_program(), &db, &guard)
        .expect_err("a one-byte heap budget must trip");
    match &err {
        RaqletError::BudgetExceeded { resource, used, limit, .. } => {
            assert_eq!(*resource, "heap_bytes");
            assert_eq!(*limit, 1);
            assert!(*used > 1);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_token_returns_cancelled() {
    let token = CancellationToken::new();
    token.cancel();
    let guard = QueryGuard::new().with_cancellation(token);
    let err = DatalogEngine::new()
        .evaluate_guarded(&tc_program(), &chain_db(50), &guard)
        .expect_err("a pre-cancelled token must stop evaluation");
    assert!(matches!(err, RaqletError::Cancelled { .. }), "got {err:?}");
    assert!(err.is_guard_trip());
    assert!(err.partial_stats().is_some());
}

#[test]
fn cancellation_from_another_thread_stops_a_running_query() {
    let token = CancellationToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let guard = QueryGuard::new().with_cancellation(token);
    let started = Instant::now();
    let outcome = DatalogEngine::new().evaluate_guarded(
        &nonlinear_tc_program(),
        &dense_cycle_db(500),
        &guard,
    );
    canceller.join().unwrap();
    let err = outcome.expect_err("cancellation must interrupt the dense closure");
    assert!(matches!(err, RaqletError::Cancelled { .. }), "got {err:?}");
    // Cooperative, but prompt: well under what the full closure would take.
    assert!(started.elapsed() < Duration::from_secs(10));
}

#[test]
fn sql_recursive_cte_honours_the_deadline() {
    use raqlet_common::schema::{Column, RelationDecl, RelationKind};
    use raqlet_common::ValueType;
    let mut program = tc_program();
    program.schema.upsert(RelationDecl::new(
        "edge",
        vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
        RelationKind::BaseTable,
    ));
    let sqir = raqlet_sqir::lower_to_sqir(&program, "tc", &Default::default()).unwrap();
    let catalog = raqlet::TableCatalog::from_schema(&program.schema);
    let db = dense_cycle_db(400);
    let guard = QueryGuard::new().with_deadline(Duration::from_millis(100));
    let err = raqlet::SqlEngine::duck()
        .execute_guarded(&sqir, &db, &catalog, &guard)
        .expect_err("a 100ms deadline cannot materialise a 160k-row recursive CTE");
    assert!(matches!(err, RaqletError::Timeout { .. }), "got {err:?}");

    // And a tuple budget trips through the same checkpoints.
    let guard = QueryGuard::new().with_tuple_budget(1_000);
    let err = raqlet::SqlEngine::hyper()
        .execute_guarded(&sqir, &db, &catalog, &guard)
        .expect_err("a 1k tuple budget cannot hold the closure");
    assert!(matches!(err, RaqletError::BudgetExceeded { .. }), "got {err:?}");
}

#[test]
fn graph_engine_honours_cancellation_and_budgets() {
    let network = generate(&GeneratorConfig { scale: 0.3, seed: 11 });
    let graph = to_property_graph(&network);
    let person = network.sample_person();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let compiled = raqlet
        .compile(
            "MATCH (p:Person {id:$personId})-[:KNOWS*1..3]->(q:Person) \
             RETURN DISTINCT q.id AS other",
            &CompileOptions::new(OptLevel::Full).with_param("personId", person),
        )
        .unwrap();

    let token = CancellationToken::new();
    token.cancel();
    let guard = QueryGuard::new().with_cancellation(token);
    let err = compiled
        .execute_graph_guarded(&graph, &guard)
        .expect_err("a pre-cancelled token must stop the traversal");
    assert!(matches!(err, RaqletError::Cancelled { .. }), "got {err:?}");

    // An untripped guard returns exactly the unguarded rows.
    let plain = compiled.execute_graph(&graph).unwrap();
    let guarded = compiled
        .execute_graph_guarded(&graph, &QueryGuard::new().with_deadline(Duration::from_secs(120)))
        .unwrap();
    assert_eq!(plain.sorted(), guarded.sorted());
}

#[test]
fn untripped_guards_are_invisible() {
    // Generous limits that never trip: results, stats-bearing behaviour and
    // warm state must be indistinguishable from unguarded execution.
    let program = tc_program();
    let db = chain_db(60);
    let generous = QueryGuard::new()
        .with_deadline(Duration::from_secs(120))
        .with_tuple_budget(u64::MAX)
        .with_memory_budget(usize::MAX)
        .with_cancellation(CancellationToken::new());

    let plain = DatalogEngine::new().evaluate(&program, &db).unwrap();
    let guarded = DatalogEngine::new().evaluate_guarded(&program, &db, &generous).unwrap();
    assert_eq!(plain.relation("tc").sorted(), guarded.relation("tc").sorted());
    assert_eq!(plain.stats.tuples_derived, guarded.stats.tuples_derived);

    // Warm path: guarded success leaves the same state a plain run leaves.
    let mut prepared = PreparedDatabase::new(db.clone());
    let warm_plain = prepared.run(&program, "tc").unwrap();
    let warm_guarded = prepared.run_guarded(&program, "tc", &generous).unwrap();
    assert_eq!(warm_plain.sorted(), warm_guarded.sorted());
    assert_eq!(prepared.executions(), 2);
    assert!(prepared.database().get("tc").is_none());
}

#[test]
fn facade_guarded_entry_points_agree_with_unguarded() {
    let network = generate(&GeneratorConfig { scale: 0.25, seed: 42 });
    let db = to_database(&network);
    let person = network.sample_person();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let compiled = raqlet
        .compile(
            raqlet_ldbc::REACHABILITY.cypher,
            &CompileOptions::new(OptLevel::Full).with_param("personId", person),
        )
        .unwrap();
    let generous = QueryGuard::new().with_deadline(Duration::from_secs(120));

    let plain = compiled.execute_datalog(&db).unwrap();
    let guarded = compiled.execute_datalog_guarded(&db, &generous).unwrap();
    assert_eq!(plain.sorted(), guarded.sorted());

    let sql_plain = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
    let sql_guarded = compiled.execute_sql_guarded(&db, SqlProfile::Duck, &generous).unwrap();
    assert_eq!(sql_plain.sorted(), sql_guarded.sorted());

    let mut prepared = PreparedDatabase::new(db.clone());
    let warm = compiled.execute_datalog_prepared_guarded(&mut prepared, &generous).unwrap();
    assert_eq!(plain.sorted(), warm.sorted());

    // Warm Table 1 runs under an armed guard that cannot trip: deadline,
    // tuple budget and cancellation token, but no memory budget (arming one
    // adds a heap walk per round on purpose). The guarded run must do exactly
    // the unguarded run's work, and the checkpoints it takes are pinned.
    let armed = QueryGuard::new()
        .with_deadline(Duration::from_secs(3600))
        .with_tuple_budget(u64::MAX)
        .with_cancellation(CancellationToken::new());
    let cases = [
        (raqlet_ldbc::SQ1, OptLevel::None, 6),
        (raqlet_ldbc::SQ1, OptLevel::Full, 2),
        (raqlet_ldbc::CQ2, OptLevel::None, 7),
        (raqlet_ldbc::CQ2, OptLevel::Full, 3),
    ];
    for (query, level, checkpoints) in cases {
        let label = format!("{} at {level:?}", query.name);
        let options = CompileOptions::new(level)
            .with_param("personId", person)
            .with_param("maxDate", 20_200_101i64);
        let compiled = raqlet.compile(query.cypher, &options).unwrap();
        let mut prepared =
            PreparedDatabase::with_engine(db.clone(), DatalogEngine::with_threads(1));
        compiled.execute_datalog_prepared(&mut prepared).unwrap();

        let plain = compiled.execute_datalog_prepared(&mut prepared).unwrap();
        let plain_stats = prepared.last_stats().clone();
        let guarded = compiled.execute_datalog_prepared_guarded(&mut prepared, &armed).unwrap();
        assert!(!plain.is_empty(), "{label}: no rows to compare");
        assert_eq!(plain, guarded, "{label}: rows");
        assert_eq!(&plain_stats, prepared.last_stats(), "{label}: EvalStats");
        let hits = count_checkpoints(|g| {
            compiled.execute_datalog_prepared_guarded(&mut prepared, g).map(|_| ())
        })
        .unwrap();
        assert_eq!(hits, checkpoints, "{label}: guard checkpoints");
    }
}
