//! Datalog evaluation must not depend on the thread that runs it.
//!
//! The engine evaluates every rule application on the calling thread and
//! keeps no global or thread-local state, so a program evaluated on the
//! test's own thread and the same program evaluated by several threads at
//! once over one shared `Database` must reach the same fixpoint by the same
//! work. These suites pin that across:
//!
//! * PRNG-driven random-graph transitive closures (the base rule of `tc` is
//!   a pure round-zero application, the recursive rule is delta-driven),
//! * negation + stratification, mutual recursion and lattice (shortest-path)
//!   programs.

use raqlet::{Database, DatalogEngine, Value};
use raqlet_common::SplitMix64;
use raqlet_dlir::{Atom, BodyElem, DlExpr, DlirProgram, LatticeMerge, Rule, Term};

/// How many threads evaluate the program at the same time, besides the
/// test's own thread.
const CONCURRENT_EVALUATORS: usize = 3;

/// Evaluate `program` on the calling thread, then on
/// [`CONCURRENT_EVALUATORS`] threads at once over the same `db`, and assert
/// the sorted `output` tuples and the work counters never change.
fn assert_thread_invariant(program: &DlirProgram, db: &Database, output: &str, label: &str) {
    let reference = DatalogEngine::new().evaluate(program, db).unwrap();
    let expected = reference.relation(output).sorted();
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONCURRENT_EVALUATORS)
            .map(|_| scope.spawn(|| DatalogEngine::new().evaluate(program, db).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("evaluator thread panicked")).collect()
    });
    for (worker, result) in concurrent.iter().enumerate() {
        assert_eq!(
            expected,
            result.relation(output).sorted(),
            "{label}: result on evaluator thread {worker} diverged from the calling thread"
        );
        // The same rule applications fire and the same tuples are derived:
        // the thread must change neither the answer nor the work.
        assert_eq!(
            reference.stats.iterations, result.stats.iterations,
            "{label}: iterations changed on evaluator thread {worker}"
        );
        assert_eq!(
            reference.stats.rule_applications, result.stats.rule_applications,
            "{label}: rule applications changed on evaluator thread {worker}"
        );
        assert_eq!(
            reference.stats.tuples_derived, result.stats.tuples_derived,
            "{label}: derived-tuple count changed on evaluator thread {worker}"
        );
    }
}

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

fn edges_to_db(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.get_or_create("edge", 2);
    for (a, b) in edges {
        db.insert_fact("edge", vec![Value::Int(*a), Value::Int(*b)]).unwrap();
    }
    db
}

fn random_edges(rng: &mut SplitMix64, nodes: i64, max_edges: i64) -> Vec<(i64, i64)> {
    let count = rng.gen_range(0..max_edges);
    (0..count).map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes))).collect()
}

#[test]
fn round_zero_parallelism_is_thread_invariant_on_random_graphs() {
    // Mixed round-zero and delta-driven work: the base rule of tc is a pure
    // round-zero application.
    let mut rng = SplitMix64::seed_from_u64(0x2E20);
    for case in 0..12 {
        let edges = random_edges(&mut rng, 20, 80);
        let db = edges_to_db(&edges);
        assert_thread_invariant(&tc_program(), &db, "tc", &format!("round-zero tc case {case}"));
    }
}

#[test]
fn transitive_closure_on_random_graphs_is_thread_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0x9A7A11E1);
    for case in 0..16 {
        let edges = random_edges(&mut rng, 24, 90);
        let db = edges_to_db(&edges);
        assert_thread_invariant(&tc_program(), &db, "tc", &format!("tc case {case}"));
    }
}

#[test]
fn negation_and_stratification_are_thread_invariant() {
    // unreachable(y) :- node(y), !tc(0, y) — negation over a recursive
    // lower stratum.
    let mut p = tc_program();
    p.add_rule(Rule::new(Atom::with_vars("node", &["x"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(Atom::with_vars("node", &["y"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("unreachable", &["y"]),
        vec![
            atom("node", &["y"]),
            BodyElem::Negated(Atom::new("tc", vec![Term::int(0), Term::var("y")])),
        ],
    ));
    p.add_output("unreachable");

    let mut rng = SplitMix64::seed_from_u64(0x5EC0);
    for case in 0..12 {
        let edges = random_edges(&mut rng, 16, 60);
        let db = edges_to_db(&edges);
        assert_thread_invariant(&p, &db, "unreachable", &format!("negation case {case}"));
    }
}

#[test]
fn mutual_recursion_is_thread_invariant() {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(Atom::with_vars("even", &["x"]), vec![atom("zero", &["x"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("even", &["x"]),
        vec![atom("odd", &["y"]), atom("succ", &["y", "x"])],
    ));
    p.add_rule(Rule::new(
        Atom::with_vars("odd", &["x"]),
        vec![atom("even", &["y"]), atom("succ", &["y", "x"])],
    ));
    p.add_output("even");
    p.add_output("odd");
    let mut db = Database::new();
    db.insert_fact("zero", vec![Value::Int(0)]).unwrap();
    for i in 0..50 {
        db.insert_fact("succ", vec![Value::Int(i), Value::Int(i + 1)]).unwrap();
    }
    assert_thread_invariant(&p, &db, "even", "even/odd");
    assert_thread_invariant(&p, &db, "odd", "even/odd");
}

#[test]
fn lattice_shortest_paths_are_thread_invariant() {
    // Weighted-by-hop shortest distances with @min lattice merges, on cyclic
    // random graphs — lattice inserts publish mid-round.
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

    let mut rng = SplitMix64::seed_from_u64(0x10C4);
    for case in 0..12 {
        let edges = random_edges(&mut rng, 12, 40);
        let db = edges_to_db(&edges);
        assert_thread_invariant(&p, &db, "dist", &format!("lattice case {case}"));
    }
}
