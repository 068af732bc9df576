//! Property-based tests over the core invariants:
//!
//! * naive and semi-naive evaluation compute the same fixpoint on random
//!   graphs, on linear and mutual recursion, negation over a recursive
//!   stratum and `@min` lattice merges;
//! * the optimizer preserves results on random graphs and random source
//!   parameters;
//! * the SQL engine agrees with the Datalog engine on random graphs, on
//!   recursion, negation, aggregation, filters and a three-atom join;
//! * the Cypher lexer/parser never panics on arbitrary input and round-trips
//!   the PGIR unparser's output.
//!
//! The build environment is offline, so instead of `proptest` these use the
//! deterministic [`SplitMix64`] generator from `raqlet_common` — every case
//! is reproducible from the fixed seed, and failures print the offending
//! generated input.

use raqlet::{CompileOptions, Database, DatalogEngine, OptLevel, Raqlet, SqlProfile, Value};
use raqlet_common::SplitMix64;
use raqlet_dlir::{Atom, BodyElem, DlExpr, DlirProgram, Rule};
use raqlet_opt::optimize;

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

fn reachability_from(source: i64) -> DlirProgram {
    let mut p = tc_program();
    p.outputs.clear();
    p.add_rule(Rule::new(
        Atom::with_vars("Return", &["y"]),
        vec![atom("tc", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(source))],
    ));
    p.add_output("Return");
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

/// A random edge list with node ids in `0..nodes` and `0..max_edges` edges.
fn random_edges(rng: &mut SplitMix64, nodes: i64, max_edges: i64) -> Vec<(i64, i64)> {
    let count = rng.gen_range(0..max_edges);
    (0..count).map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes))).collect()
}

/// The programs naive and semi-naive evaluation are checked on, each with
/// its output: a linear closure, negation over a recursive lower stratum,
/// mutual recursion (walks of odd and even length from node 0) and `@min`
/// lattice shortest distances, whose merges publish mid-round.
fn fixpoint_shapes() -> Vec<(DlirProgram, &'static str)> {
    use raqlet_dlir::{ArithOp, LatticeMerge, Term};
    let rule = |head: &str, vars: &[&str], body: Vec<BodyElem>| {
        Rule::new(Atom::with_vars(head, vars), body)
    };

    let mut negation = tc_program();
    negation.outputs.clear();
    negation.add_rule(rule("node", &["x"], vec![atom("edge", &["x", "y"])]));
    negation.add_rule(rule("node", &["y"], vec![atom("edge", &["x", "y"])]));
    negation.add_rule(rule(
        "unreachable",
        &["y"],
        vec![
            atom("node", &["y"]),
            BodyElem::Negated(Atom::new("tc", vec![Term::int(0), Term::var("y")])),
        ],
    ));
    negation.add_output("unreachable");

    let mut mutual = DlirProgram::default();
    mutual.add_rule(Rule::new(
        Atom::new("odd", vec![Term::var("y")]),
        vec![BodyElem::Atom(Atom::new("edge", vec![Term::int(0), Term::var("y")]))],
    ));
    mutual.add_rule(rule("even", &["y"], vec![atom("odd", &["x"]), atom("edge", &["x", "y"])]));
    mutual.add_rule(rule("odd", &["y"], vec![atom("even", &["x"]), atom("edge", &["x", "y"])]));
    mutual.add_output("even");

    let mut lattice = DlirProgram::default();
    lattice.add_rule(rule(
        "dist",
        &["s", "d", "l"],
        vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
    ));
    lattice.add_rule(rule(
        "dist",
        &["s", "d", "l"],
        vec![
            atom("dist", &["s", "m", "l0"]),
            atom("edge", &["m", "d"]),
            BodyElem::eq(
                DlExpr::var("l"),
                DlExpr::Arith {
                    op: ArithOp::Add,
                    lhs: Box::new(DlExpr::var("l0")),
                    rhs: Box::new(DlExpr::int(1)),
                },
            ),
        ],
    ));
    lattice.set_lattice("dist", LatticeMerge::MinOnColumn(2));
    lattice.add_output("dist");

    vec![(tc_program(), "tc"), (negation, "unreachable"), (mutual, "even"), (lattice, "dist")]
}

#[test]
fn naive_and_semi_naive_agree_on_random_graphs() {
    let mut rng = SplitMix64::seed_from_u64(0xA11CE);
    let shapes = fixpoint_shapes();
    let mut answered = vec![false; shapes.len()];
    for case in 0..32 {
        let edges = random_edges(&mut rng, 20, 60);
        let db = edges_to_db(&edges);
        for (shape, (program, output)) in shapes.iter().enumerate() {
            let semi = DatalogEngine::new().run_output(program, &db, output).unwrap();
            let naive = DatalogEngine::naive().run_output(program, &db, output).unwrap();
            answered[shape] |= !semi.is_empty();
            assert_eq!(semi.sorted(), naive.sorted(), "case {case}, {output}: edges {edges:?}");
        }
    }
    // Every shape met data it answers, not only empty inputs.
    assert!(answered.iter().all(|&a| a), "shapes answered: {answered:?}");
}

#[test]
fn optimizer_preserves_reachability_on_random_graphs() {
    let mut rng = SplitMix64::seed_from_u64(0xB0B);
    for case in 0..32 {
        let edges = random_edges(&mut rng, 16, 50);
        let source = rng.gen_range(0..16);
        let db = edges_to_db(&edges);
        let program = reachability_from(source);
        let baseline = DatalogEngine::new().run_output(&program, &db, "Return").unwrap();
        for level in [OptLevel::Basic, OptLevel::Full] {
            let optimized = optimize(&program, level).unwrap();
            let result =
                DatalogEngine::new().run_output(&optimized.program, &db, "Return").unwrap();
            assert_eq!(
                baseline.sorted(),
                result.sorted(),
                "case {case}: {level:?} from {source} on {edges:?}"
            );
        }
    }
}

/// The program shapes the SQL engine is checked on, each with its output:
/// recursion, stratified negation (NOT EXISTS), aggregation (GROUP BY with
/// `count` and `min`), a literal plus a non-equi filter, and a three-atom
/// join.
fn sql_shapes() -> Vec<(DlirProgram, &'static str)> {
    use raqlet_dlir::{AggFunc, Aggregation, CmpOp, Term};
    let rule = |head: &str, vars: &[&str], body: Vec<BodyElem>| {
        Rule::new(Atom::with_vars(head, vars), body)
    };
    let aggregated = |head: &str, func, input: &str| {
        let mut r = rule(head, &["x", "a"], vec![atom("edge", &["x", "y"])]);
        r.aggregation = Some(Aggregation {
            func,
            input_var: Some(input.into()),
            output_var: "a".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        r
    };

    let mut negation = tc_program();
    negation.outputs.clear();
    negation.add_rule(rule(
        "unreached",
        &["x", "y"],
        vec![
            BodyElem::Atom(Atom::new("edge", vec![Term::var("x"), Term::Wildcard])),
            BodyElem::Atom(Atom::new("edge", vec![Term::Wildcard, Term::var("y")])),
            BodyElem::Negated(Atom::with_vars("tc", &["x", "y"])),
        ],
    ));
    negation.add_output("unreached");

    let mut aggregate = DlirProgram::default();
    aggregate.add_rule(aggregated("outdeg", AggFunc::Count, "y"));
    aggregate.add_rule(aggregated("minout", AggFunc::Min, "y"));
    aggregate.add_rule(rule(
        "degmin",
        &["x", "c", "m"],
        vec![atom("outdeg", &["x", "c"]), atom("minout", &["x", "m"])],
    ));
    aggregate.add_output("degmin");

    let mut filtered = DlirProgram::default();
    filtered.add_rule(rule(
        "q",
        &["x", "z"],
        vec![
            atom("edge", &["x", "y"]),
            atom("edge", &["y", "z"]),
            BodyElem::eq(DlExpr::var("y"), DlExpr::int(2)),
            BodyElem::Constraint { op: CmpOp::Lt, lhs: DlExpr::var("x"), rhs: DlExpr::var("z") },
        ],
    ));
    filtered.add_output("q");

    let mut three = DlirProgram::default();
    three.add_rule(rule(
        "path3",
        &["x", "w"],
        vec![atom("edge", &["x", "y"]), atom("edge", &["y", "z"]), atom("edge", &["z", "w"])],
    ));
    three.add_output("path3");

    vec![
        (tc_program(), "tc"),
        (negation, "unreached"),
        (aggregate, "degmin"),
        (filtered, "q"),
        (three, "path3"),
    ]
}

#[test]
fn sql_engine_agrees_with_datalog_engine_on_random_graphs() {
    use raqlet_common::schema::{Column, RelationDecl, RelationKind};
    use raqlet_common::ValueType;
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    let shapes = sql_shapes();
    let mut answered = vec![false; shapes.len()];
    for case in 0..32 {
        let edges = random_edges(&mut rng, 12, 40);
        let db = edges_to_db(&edges);
        for (shape, (mut program, output)) in shapes.clone().into_iter().enumerate() {
            program.schema.upsert(RelationDecl::new(
                "edge",
                vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
                RelationKind::BaseTable,
            ));
            let dl = DatalogEngine::new().run_output(&program, &db, output).unwrap();
            answered[shape] |= !dl.is_empty();
            let sqir = raqlet_sqir::lower_to_sqir(&program, output, &Default::default()).unwrap();
            let catalog = raqlet::TableCatalog::from_schema(&program.schema);
            for engine in [raqlet::SqlEngine::duck(), raqlet::SqlEngine::hyper()] {
                let sql = engine.execute(&sqir, &db, &catalog).unwrap().rows;
                assert_eq!(dl.sorted(), sql.sorted(), "case {case}, {output}: edges {edges:?}");
            }
        }
    }
    // Every shape met data it answers, not only empty inputs.
    assert!(answered.iter().all(|&a| a), "shapes answered: {answered:?}");
}

#[test]
fn cypher_parser_never_panics() {
    // Errors are fine; panics are not. Mix fully random char soup with
    // shuffled fragments of real Cypher so the parser gets deep enough to
    // exercise every recovery path.
    const FRAGMENTS: &[&str] = &[
        "MATCH",
        "RETURN",
        "WHERE",
        "DISTINCT",
        "(n:Person",
        ")-[",
        ":KNOWS*",
        "]->",
        "{id:",
        "$param",
        "42",
        "'str",
        "\"q\"",
        "AS",
        "n.x",
        ",",
        "..",
        "<-",
        "--",
        ") ",
        "}",
        "OPTIONAL",
        "WITH",
        "ORDER BY",
        "LIMIT",
        "\u{1F980}",
        "\\",
        "\0",
    ];
    let mut rng = SplitMix64::seed_from_u64(0xF00D);
    for _ in 0..200 {
        let mut input = String::new();
        for _ in 0..rng.gen_range(0..12) {
            if rng.gen_bool(0.5) {
                input.push_str(FRAGMENTS[rng.gen_index(0..FRAGMENTS.len())]);
            } else {
                // Any scalar value except the surrogate gap.
                let c = loop {
                    let raw = rng.gen_range(0..0x110000) as u32;
                    if let Some(c) = char::from_u32(raw) {
                        break c;
                    }
                };
                input.push(c);
            }
            if rng.gen_bool(0.3) {
                input.push(' ');
            }
        }
        let _ = raqlet_cypher::parse(&input);
    }
}

#[test]
fn cypher_identifier_round_trip() {
    // A generated query parses, lowers and unparses back to parseable Cypher.
    let mut rng = SplitMix64::seed_from_u64(0xCAFE);
    for _ in 0..32 {
        let id = rng.gen_range(0..1000);
        let label = ["Person", "City", "Message"][rng.gen_index(0..3)];
        let query = format!("MATCH (n:{label} {{id: {id}}}) RETURN n.id AS id");
        let pgir = raqlet_pgir::cypher_to_pgir(&query, &raqlet::LowerOptions::new()).unwrap();
        let text = raqlet::to_cypher(&pgir);
        let reparsed = raqlet_pgir::cypher_to_pgir(&text, &raqlet::LowerOptions::new()).unwrap();
        assert_eq!(raqlet::to_cypher(&reparsed), text, "query: {query}");
    }
}

/// Full-pipeline property: on random small social graphs, the compiled
/// direct-friends query returns the same rows on the Datalog, SQL, and
/// graph engines.
#[test]
fn compiled_query_agrees_across_engines_on_random_graphs() {
    let mut rng = SplitMix64::seed_from_u64(0xD1CE);
    for case in 0..12 {
        let count = rng.gen_range(1..40);
        let friendships: Vec<(i64, i64)> =
            (0..count).map(|_| (rng.gen_range(0..12), rng.gen_range(0..12))).collect();
        let person = rng.gen_range(0..12);

        let schema = "CREATE GRAPH {
            (personType : Person { id INT, firstName STRING }),
            (:personType)-[knowsType: knows { id INT }]->(:personType)
        }";
        let raqlet = Raqlet::from_pg_schema(schema).unwrap();

        let mut db = Database::new();
        let mut graph = raqlet::PropertyGraph::new();
        let mut node_idx = std::collections::HashMap::new();
        for i in 0..12i64 {
            db.insert_fact("Person", vec![Value::Int(i), Value::str(format!("p{i}"))]).unwrap();
            let idx = graph
                .add_node(
                    "Person",
                    vec![("id", Value::Int(i)), ("firstName", Value::str(format!("p{i}")))],
                )
                .unwrap();
            node_idx.insert(i, idx);
        }
        db.get_or_create("Person_KNOWS_Person", 3);
        for (eid, (a, b)) in friendships.iter().enumerate() {
            if a == b {
                continue;
            }
            db.insert_fact(
                "Person_KNOWS_Person",
                vec![Value::Int(*a), Value::Int(*b), Value::Int(eid as i64)],
            )
            .unwrap();
            graph
                .add_edge("KNOWS", node_idx[a], node_idx[b], vec![("id", Value::Int(eid as i64))])
                .unwrap();
        }

        let query = "MATCH (p:Person {id: $personId})-[:KNOWS]-(f:Person) \
                     RETURN DISTINCT f.id AS id";
        let options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
        let compiled = raqlet.compile(query, &options).unwrap();
        let dl = compiled.execute_datalog(&db).unwrap();
        let gr = compiled.execute_graph(&graph).unwrap();
        let duck = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
        assert_eq!(dl.sorted(), gr.sorted(), "case {case}: person {person} on {friendships:?}");
        assert_eq!(dl.sorted(), duck.sorted(), "case {case}: person {person} on {friendships:?}");
    }
}
