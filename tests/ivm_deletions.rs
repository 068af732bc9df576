//! Targeted deletion-semantics pins for incremental view maintenance.
//!
//! Each test pins one classic DRed / counting / lattice trap with a
//! hand-built fixture small enough to reason about by eye.

use raqlet::{Database, DatalogEngine, EdbDelta, EvalStats, PreparedDatabase, Value};
use raqlet_dlir::{Atom, BodyElem, DlExpr, DlirProgram, LatticeMerge, Rule};
use raqlet_engine::fault::count_checkpoints;

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

fn edges(pairs: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.get_or_create("edge", 2);
    for (a, b) in pairs {
        db.insert_fact("edge", vec![Value::Int(*a), Value::Int(*b)]).unwrap();
    }
    db
}

fn rows(prepared: &PreparedDatabase, view: usize, name: &str) -> Vec<Vec<Value>> {
    prepared.view_relation(view, name).unwrap().sorted()
}

fn pair(a: i64, b: i64) -> Vec<Value> {
    vec![Value::Int(a), Value::Int(b)]
}

/// DRed's raison d'être: a tuple with two independent derivations must
/// survive the deletion of one of them.
#[test]
fn deleting_one_of_two_derivations_keeps_the_tuple() {
    // 0 -> 2 both directly and via 1.
    let db = edges(&[(0, 2), (0, 1), (1, 2)]);
    let mut prepared = PreparedDatabase::new(db);
    let view = prepared.install_view(&tc_program(), "tc").unwrap();

    let mut delta = EdbDelta::new();
    delta.delete("edge", pair(0, 2));
    prepared.apply_delta(delta).unwrap();

    let tc = rows(&prepared, view, "tc");
    assert!(tc.contains(&pair(0, 2)), "alternative derivation 0->1->2 must survive");
    assert_eq!(tc, vec![pair(0, 1), pair(0, 2), pair(1, 2)]);
}

/// The over-deletion trap: a cycle is self-supporting, so naive counting
/// would keep it alive forever; DRed must retract the whole reachable set
/// when the only incoming edge is cut.
#[test]
fn cutting_a_cycle_edge_retracts_the_whole_reachable_set() {
    // 0 -> 1 -> 2 -> 1 (cycle between 1 and 2).
    let db = edges(&[(0, 1), (1, 2), (2, 1)]);
    let mut prepared = PreparedDatabase::new(db);
    let view = prepared.install_view(&tc_program(), "tc").unwrap();
    assert!(rows(&prepared, view, "tc").contains(&pair(0, 2)));

    let mut delta = EdbDelta::new();
    delta.delete("edge", pair(0, 1));
    prepared.apply_delta(delta).unwrap();

    // The cycle keeps deriving itself, but nothing from 0 survives: DRed's
    // re-derivation phase must not resurrect 0->1 / 0->2 from the marked set.
    let tc = rows(&prepared, view, "tc");
    assert_eq!(tc, vec![pair(1, 1), pair(1, 2), pair(2, 1), pair(2, 2)]);
}

/// Delete-then-reinsert across two batches is a round-trip: state, stats
/// epochs aside, must be exactly the pre-deletion fixpoint.
#[test]
fn reinserting_a_deleted_fact_round_trips() {
    let db = edges(&[(0, 1), (1, 2), (2, 3)]);
    let mut prepared = PreparedDatabase::new(db);
    let view = prepared.install_view(&tc_program(), "tc").unwrap();
    let before = rows(&prepared, view, "tc");

    let mut del = EdbDelta::new();
    del.delete("edge", pair(1, 2));
    prepared.apply_delta(del).unwrap();
    assert_ne!(rows(&prepared, view, "tc"), before, "deletion must take effect");

    let mut ins = EdbDelta::new();
    ins.insert("edge", pair(1, 2));
    prepared.apply_delta(ins).unwrap();
    assert_eq!(rows(&prepared, view, "tc"), before, "reinsert must restore the old fixpoint");
}

/// Deleting a `@min` lattice winner must surface the runner-up, not leave a
/// hole and not keep the stale winner.
#[test]
fn deleting_a_lattice_winning_row_rederives_the_runner_up() {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(
        Atom::with_vars("dist", &["s", "d", "l"]),
        vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
    ));
    p.add_rule(Rule::new(
        Atom::with_vars("dist", &["s", "d", "l"]),
        vec![
            atom("dist", &["s", "m", "l0"]),
            atom("edge", &["m", "d"]),
            BodyElem::eq(
                DlExpr::var("l"),
                DlExpr::Arith {
                    op: raqlet_dlir::ArithOp::Add,
                    lhs: Box::new(DlExpr::var("l0")),
                    rhs: Box::new(DlExpr::int(1)),
                },
            ),
        ],
    ));
    p.set_lattice("dist", LatticeMerge::MinOnColumn(2));
    p.add_output("dist");

    // Direct edge 0->2 (length 1) wins over the 0->1->2 path (length 2).
    let db = edges(&[(0, 2), (0, 1), (1, 2)]);
    let mut prepared = PreparedDatabase::new(db);
    let view = prepared.install_view(&p, "dist").unwrap();
    let dist = rows(&prepared, view, "dist");
    assert!(dist.contains(&vec![Value::Int(0), Value::Int(2), Value::Int(1)]));

    let mut delta = EdbDelta::new();
    delta.delete("edge", pair(0, 2));
    prepared.apply_delta(delta).unwrap();

    let dist = rows(&prepared, view, "dist");
    assert!(
        dist.contains(&vec![Value::Int(0), Value::Int(2), Value::Int(2)]),
        "runner-up path 0->1->2 must be re-derived, got {dist:?}"
    );
    assert!(
        !dist.contains(&vec![Value::Int(0), Value::Int(2), Value::Int(1)]),
        "stale winner must be retracted"
    );
}

/// Deleting a row that is not in the database is a no-op, and the returned
/// stats witness that no maintenance work ran.
#[test]
fn deleting_an_absent_row_is_a_no_op_with_zero_stats() {
    let db = edges(&[(0, 1), (1, 2)]);
    let mut prepared = PreparedDatabase::new(db);
    let view = prepared.install_view(&tc_program(), "tc").unwrap();
    let before = rows(&prepared, view, "tc");
    let epoch_before = prepared.view_epoch(view).unwrap();

    let mut delta = EdbDelta::new();
    delta.delete("edge", pair(7, 8)); // row never existed
    delta.delete("edge", vec![Value::str("no-such-symbol"), Value::Int(0)]);
    let stats = prepared.apply_delta(delta).unwrap();

    assert_eq!(stats.rule_applications, 0, "no rules may fire for an absent delete");
    assert_eq!(stats.tuples_derived, 0);
    assert_eq!(stats.iterations, 0);
    assert_eq!(rows(&prepared, view, "tc"), before);
    // The epoch still advances: the delta was accepted, it just changed nothing.
    assert!(prepared.view_epoch(view).unwrap() > epoch_before);
}

/// `tc` with a negated extensional `blocked` inside both rules.
fn blocked_tc_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    let blocked = || BodyElem::Negated(Atom::with_vars("blocked", &["y"]));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("edge", &["x", "y"]), blocked()],
    ));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"]), blocked()],
    ));
    p.add_output("tc");
    p
}

/// `@min` shortest hop counts.
fn dist_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(
        Atom::with_vars("dist", &["s", "d", "l"]),
        vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
    ));
    p.add_rule(Rule::new(
        Atom::with_vars("dist", &["s", "d", "l"]),
        vec![
            atom("dist", &["s", "m", "l0"]),
            atom("edge", &["m", "d"]),
            BodyElem::eq(
                DlExpr::var("l"),
                DlExpr::Arith {
                    op: raqlet_dlir::ArithOp::Add,
                    lhs: Box::new(DlExpr::var("l0")),
                    rhs: Box::new(DlExpr::int(1)),
                },
            ),
        ],
    ));
    p.set_lattice("dist", LatticeMerge::MinOnColumn(2));
    p.add_output("dist");
    p
}

fn stats(
    strata: usize,
    sccs: usize,
    looping_sccs: usize,
    iterations: usize,
    rule_applications: usize,
    tuples_derived: usize,
) -> EvalStats {
    EvalStats {
        strata,
        sccs,
        looping_sccs,
        iterations,
        rule_applications,
        tuples_derived,
        parallel_tasks: 0,
    }
}

/// The exact cost of one `apply_delta` per maintenance strategy — counting,
/// DRed, DRed through a changed negation, lattice-monotone, and DRed's
/// bail-out to a scoped recompute — as `EvalStats` and as guard-checkpoint
/// hits. Refactors of the join and derive path must move none of them: the
/// counters are what the benchmark reports as exact counts, and the
/// checkpoint sequence is where the fault-injection schedules land.
#[test]
fn one_batch_per_strategy_has_pinned_cost() {
    let mut hop2 = DlirProgram::default();
    hop2.add_rule(Rule::new(
        Atom::with_vars("hop2", &["x", "z"]),
        vec![atom("edge", &["x", "y"]), atom("edge", &["y", "z"])],
    ));
    hop2.add_output("hop2");
    let mut blocked_db = edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
    blocked_db.insert_fact("blocked", vec![Value::Int(3)]).unwrap();
    let cycle: Vec<(i64, i64)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();

    let mut ins_del = EdbDelta::new();
    ins_del.delete("edge", pair(1, 2));
    ins_del.insert("edge", pair(3, 4));
    let mut block_moves = EdbDelta::new();
    block_moves.delete("blocked", vec![Value::Int(3)]);
    block_moves.insert("blocked", vec![Value::Int(2)]);
    block_moves.insert("edge", pair(4, 0));
    let mut inserts = EdbDelta::new();
    inserts.insert("edge", pair(2, 3));
    inserts.insert("edge", pair(0, 3));
    let mut cut = EdbDelta::new();
    cut.delete("edge", pair(0, 1));
    cut.insert("edge", pair(0, 4));

    let cases = [
        (
            "counting",
            hop2,
            "hop2",
            edges(&[(0, 1), (1, 2), (2, 3), (1, 3)]),
            ins_del.clone(),
            stats(1, 1, 0, 1, 8, 4),
            5,
        ),
        (
            "dred",
            tc_program(),
            "tc",
            edges(&[(0, 1), (1, 2), (2, 3), (0, 2)]),
            ins_del,
            stats(1, 1, 1, 2, 17, 11),
            11,
        ),
        (
            "dred-negation",
            blocked_tc_program(),
            "tc",
            blocked_db,
            block_moves,
            stats(1, 1, 1, 5, 15, 13),
            14,
        ),
        (
            "lattice-monotone",
            dist_program(),
            "dist",
            edges(&[(0, 1), (1, 2)]),
            inserts,
            stats(1, 1, 1, 2, 3, 4),
            4,
        ),
        ("dred-bail-out", tc_program(), "tc", edges(&cycle), cut, stats(1, 1, 1, 8, 12, 68), 20),
    ];
    for (label, program, output, db, delta, expected, checkpoints) in cases {
        let mut prepared = PreparedDatabase::new(db);
        prepared.install_view(&program, output).unwrap();
        let mut counted = prepared.clone();
        let hits = count_checkpoints(|g| counted.apply_delta_guarded(delta.clone(), g).map(|_| ()))
            .unwrap();
        let got = prepared.apply_delta(delta).unwrap();
        assert_eq!(got, expected, "{label}: EvalStats");
        assert_eq!(hits, checkpoints, "{label}: guard checkpoints");
    }
}

/// A delete and an insert of the same row inside one batch cancel: deletes
/// are applied first, so the row is present afterwards — and a tuple whose
/// only support went away mid-batch but came back must remain derived.
#[test]
fn same_batch_delete_then_insert_cancels() {
    let db = edges(&[(0, 1), (1, 2)]);
    let mut prepared = PreparedDatabase::new(db);
    let view = prepared.install_view(&tc_program(), "tc").unwrap();
    let before = rows(&prepared, view, "tc");

    let mut delta = EdbDelta::new();
    delta.delete("edge", pair(1, 2));
    delta.insert("edge", pair(1, 2));
    prepared.apply_delta(delta).unwrap();

    assert_eq!(rows(&prepared, view, "tc"), before);

    // Cold recompute agrees the state is unchanged.
    let mut shadow = edges(&[(0, 1), (1, 2)]);
    shadow.get_or_create("edge", 2);
    let cold = DatalogEngine::new().evaluate(&tc_program(), &shadow).unwrap();
    assert_eq!(rows(&prepared, view, "tc"), cold.relation("tc").sorted());
}
