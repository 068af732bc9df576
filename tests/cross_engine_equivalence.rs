//! Cross-paradigm equivalence: the same Cypher query, compiled once, must
//! produce identical result sets on the Datalog engine, both SQL engine
//! profiles, and the property-graph engine — Raqlet's "golden reference"
//! claim exercised on the LDBC-like workload.

use raqlet::{
    CompileOptions, Database, DatalogEngine, DlirProgram, OptLevel, Raqlet, SqlEngine,
    SqlLowerOptions, SqlProfile, TableCatalog, Value,
};
use raqlet_common::schema::{Column, DlSchema, RelationDecl, RelationKind};
use raqlet_common::ValueType;
use raqlet_dlir::{Atom, BodyElem, Rule};
use raqlet_ldbc::{generate, to_database, to_property_graph, GeneratorConfig, SNB_PG_SCHEMA};

fn workload() -> (raqlet::Database, raqlet::PropertyGraph, i64) {
    let network = generate(&GeneratorConfig { scale: 0.4, seed: 7 });
    let person = network.sample_person();
    (to_database(&network), to_property_graph(&network), person)
}

fn check_query(name: &str, cypher: &str, params: &[(&str, raqlet::Value)]) {
    let (db, graph, person) = workload();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let mut options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
    for (k, v) in params {
        options = options.with_param(k, v.clone());
    }
    let compiled = raqlet.compile(cypher, &options).unwrap();

    let datalog = compiled.execute_datalog(&db).unwrap();
    let graph_rows = compiled.execute_graph(&graph).unwrap();
    assert_eq!(datalog.sorted(), graph_rows.sorted(), "{name}: datalog vs graph");

    // The SQL backends require linear, non-mutual recursion; all corpus
    // queries satisfy that.
    let duck = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
    let hyper = compiled.execute_sql(&db, SqlProfile::Hyper).unwrap();
    assert_eq!(datalog.sorted(), duck.sorted(), "{name}: datalog vs duckdb-sim");
    assert_eq!(duck.sorted(), hyper.sorted(), "{name}: duckdb-sim vs hyper-sim");

    // Results are non-trivial for the chosen parameter (guards against the
    // engines "agreeing" on empty outputs).
    assert!(!datalog.is_empty(), "{name}: expected a non-empty result");
}

#[test]
fn sq1_person_profile() {
    check_query("SQ1", raqlet_ldbc::SQ1.cypher, &[]);
}

/// The variable-length / path-pattern matrix: every bound shape (`*0..`,
/// `*0..2`, `*2..3`, exact, undirected, incoming), `shortestPath` (single and
/// multi-hop), alternative relationship types, and `UNWIND` must agree
/// row-for-row on the Datalog engine, both SQL profiles, and the graph
/// engine. Each entry is also required to be non-empty, so the engines can
/// not trivially "agree" on nothing.
#[test]
fn variable_length_and_path_matrix() {
    let matrix: &[(&str, &str)] = &[
        (
            "*0.. directed (zero-hop regression)",
            "MATCH (a:Person {id: $personId})-[:KNOWS*0..]->(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "*0..2 bounded zero-hop",
            "MATCH (a:Person {id: $personId})-[:KNOWS*0..2]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "*2..3 undirected",
            "MATCH (a:Person {id: $personId})-[:KNOWS*2..3]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "*1..2 incoming",
            "MATCH (a:Person {id: $personId})<-[:KNOWS*1..2]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "*2.. unbounded with a minimum",
            "MATCH (a:Person {id: $personId})-[:KNOWS*2..]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "*2 exact hop count",
            "MATCH (a:Person {id: $personId})-[:KNOWS*2]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "shortestPath unbounded undirected",
            "MATCH p = shortestPath((a:Person {id: $personId})-[:KNOWS*]-(b:Person)) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "shortestPath *0..",
            "MATCH p = shortestPath((a:Person {id: $personId})-[:KNOWS*0..]-(b:Person)) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            ":A|B undirected",
            "MATCH (a:Person {id: $personId})-[:KNOWS|FOLLOWS]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            ":A|B variable-length",
            "MATCH (a:Person {id: $personId})-[:KNOWS|FOLLOWS*1..2]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "UNWIND joined into a match",
            "UNWIND [$personId, $otherId] AS pid MATCH (n:Person {id: pid}) \
             RETURN DISTINCT n.id AS id, n.firstName AS firstName",
        ),
        (
            "multi-hop shortestPath",
            "MATCH sp = shortestPath((a:Person {id: $personId})-[:KNOWS*]-(b:Person)\
-[:IS_LOCATED_IN]->(c:City)) RETURN DISTINCT c.id AS cityId",
        ),
        (
            "multi-hop shortestPath with a *0..0 step",
            // A zero-only step must not leak one-hop rows: the chain
            // collapses to a's own city on every engine.
            "MATCH sp = shortestPath((a:Person {id: $personId})-[:KNOWS*0..0]-(b:Person)\
-[:IS_LOCATED_IN]->(c:City)) RETURN DISTINCT c.id AS cityId",
        ),
    ];
    let other = generate(&GeneratorConfig { scale: 0.4, seed: 7 }).persons[1].id;
    for (name, cypher) in matrix {
        check_query(name, cypher, &[("otherId", raqlet::Value::Int(other))]);
    }
}

/// Label lookups are normalization-tolerant on every engine: a query may
/// spell `IS_LOCATED_IN` as `isLocatedIn` (and `KNOWS` as `knows`), including
/// inside `:A|B` alternatives, and must return exactly the same rows as the
/// canonical spelling. Pins the graph engine's keyed (normalized) label
/// indexes against the pre-normalization full-scan behaviour.
#[test]
fn mixed_case_label_spellings_agree_across_engines() {
    let pairs: &[(&str, &str, &str)] = &[
        (
            "single-hop mixed-case edge label",
            "MATCH (a:Person {id: $personId})-[:IS_LOCATED_IN]->(c:City) \
             RETURN DISTINCT c.id AS cityId",
            "MATCH (a:person {id: $personId})-[:isLocatedIn]->(c:City) \
             RETURN DISTINCT c.id AS cityId",
        ),
        (
            ":A|B mixed-case alternatives",
            "MATCH (a:Person {id: $personId})-[:KNOWS|FOLLOWS]-(b:Person) \
             RETURN DISTINCT b.id AS id",
            "MATCH (a:Person {id: $personId})-[:knows|Follows]-(b:Person) \
             RETURN DISTINCT b.id AS id",
        ),
        (
            "variable-length mixed-case label",
            "MATCH (a:Person {id: $personId})-[:KNOWS*1..2]-(b:Person) \
             RETURN DISTINCT b.id AS id",
            "MATCH (a:Person {id: $personId})-[:Knows*1..2]-(b:PERSON) \
             RETURN DISTINCT b.id AS id",
        ),
    ];
    let (db, graph, person) = workload();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
    for (name, canonical, mixed) in pairs {
        let reference = raqlet.compile(canonical, &options).unwrap();
        let expected = reference.execute_datalog(&db).unwrap().sorted();
        assert!(!expected.is_empty(), "{name}: canonical result must be non-trivial");

        let compiled = raqlet.compile(mixed, &options).unwrap();
        let datalog = compiled.execute_datalog(&db).unwrap();
        let graph_rows = compiled.execute_graph(&graph).unwrap();
        let duck = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
        assert_eq!(expected, datalog.sorted(), "{name}: mixed-case datalog diverged");
        assert_eq!(expected, graph_rows.sorted(), "{name}: mixed-case graph diverged");
        assert_eq!(expected, duck.sorted(), "{name}: mixed-case duckdb-sim diverged");
    }
}

/// Run `cypher` with `$personId` bound on every engine and assert each
/// returns the source person's own row.
fn assert_every_engine_returns_the_source(what: &str, cypher: &str) {
    let (db, graph, person) = workload();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
    let compiled = raqlet.compile(cypher, &options).unwrap();
    let source_row = vec![raqlet::Value::Int(person)];
    for (engine, rows) in [
        ("datalog", compiled.execute_datalog(&db).unwrap()),
        ("duckdb-sim", compiled.execute_sql(&db, SqlProfile::Duck).unwrap()),
        ("hyper-sim", compiled.execute_sql(&db, SqlProfile::Hyper).unwrap()),
        ("graph", compiled.execute_graph(&graph).unwrap()),
    ] {
        assert!(
            rows.sorted().contains(&source_row),
            "{engine}: {what} {source_row:?} missing from {:?}",
            rows.sorted()
        );
    }
}

/// Acceptance pin for the `needs_length` bug: `*0..` must return the
/// zero-hop row (the source itself) on every engine.
#[test]
fn zero_hop_rows_are_returned_on_all_engines() {
    assert_every_engine_returns_the_source(
        "zero-hop row",
        "MATCH (a:Person {id: $personId})-[:KNOWS*0..]->(b:Person) RETURN DISTINCT b.id AS id",
    );
}

/// Variable-length paths are walks, not trails: a relationship may repeat,
/// so a two-hop walk there and back over one `KNOWS` edge returns the source
/// itself on every engine. (openCypher's relationship uniqueness would not.)
#[test]
fn var_length_paths_are_walks_not_trails() {
    assert_every_engine_returns_the_source(
        "walk back to the source",
        "MATCH (a:Person {id: $personId})-[:KNOWS*2..2]-(b:Person) RETURN DISTINCT b.id AS id",
    );
}

#[test]
fn sq3_direct_friends() {
    check_query("SQ3", raqlet_ldbc::SQ3.cypher, &[]);
}

#[test]
fn cq2_friends_messages() {
    check_query("CQ2", raqlet_ldbc::CQ2.cypher, &[("maxDate", raqlet::Value::Int(20_200_101))]);
}

#[test]
fn cq1_variable_length_friends() {
    // Use a first name guaranteed to exist among close friends by picking the
    // most common generated name.
    check_query("CQ1", raqlet_ldbc::CQ1.cypher, &[("firstName", raqlet::Value::str("Alice"))]);
}

#[test]
fn reachability_transitive_closure() {
    check_query("REACH", raqlet_ldbc::REACHABILITY.cypher, &[]);
}

#[test]
fn aggregation_message_counts() {
    check_query("AGG1", raqlet_ldbc::FRIEND_MESSAGE_COUNTS.cypher, &[]);
}

#[test]
fn shortest_path_agrees_between_datalog_and_graph_engines() {
    // CQ13 uses lattice recursion, which the SQL lowering bounds by depth;
    // compare the two engines that support it natively.
    let (db, graph, person) = workload();
    let network = generate(&GeneratorConfig { scale: 0.4, seed: 7 });
    // Pick a target that is actually reachable: a friend of a friend.
    let friend = network
        .knows
        .iter()
        .find(|(a, _, _)| *a == person)
        .or_else(|| network.knows.iter().find(|(_, b, _)| *b == person))
        .map(|(a, b, _)| if *a == person { *b } else { *a })
        .unwrap();
    let target = network
        .knows
        .iter()
        .find(|(a, b, _)| *a == friend && *b != person || *b == friend && *a != person)
        .map(|(a, b, _)| if *a == friend { *b } else { *a })
        .unwrap_or(friend);

    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::Full)
        .with_param("personId", person)
        .with_param("otherId", target);
    let compiled = raqlet.compile(raqlet_ldbc::CQ13.cypher, &options).unwrap();
    let datalog = compiled.execute_datalog(&db).unwrap();
    let graph_rows = compiled.execute_graph(&graph).unwrap();
    assert_eq!(datalog.sorted(), graph_rows.sorted());
    assert_eq!(datalog.len(), 1, "the target person is reachable");
}

/// Incremental maintenance is invisible to the cross-paradigm claim: after a
/// random sequence of KNOWS insert/delete batches, the *maintained* Datalog
/// view must hold exactly what every engine computes cold over the final
/// database state.
#[test]
fn maintained_view_matches_cold_engines_after_delta_sequence() {
    use raqlet::{EdbDelta, PreparedDatabase, Value};
    use raqlet_common::SplitMix64;

    let mut network = generate(&GeneratorConfig { scale: 0.4, seed: 7 });
    let person = network.sample_person();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::Full).with_param("personId", person);
    let compiled = raqlet.compile(raqlet_ldbc::REACHABILITY.cypher, &options).unwrap();

    let mut shadow = to_database(&network);
    let mut prepared = PreparedDatabase::new(shadow.clone());
    let view = prepared.install_view(compiled.dlir(), &compiled.output).unwrap();

    let persons: Vec<i64> = network.persons.iter().map(|p| p.id).collect();
    let mut rng = SplitMix64::seed_from_u64(0xCAFE);
    let mut next_edge_id = 1_000_000i64;
    for _ in 0..8 {
        let mut delta = EdbDelta::new();
        for _ in 0..4 {
            let delete = rng.gen_bool(0.5);
            if delete {
                let rows = shadow.get("Person_KNOWS_Person").unwrap().sorted();
                if rows.is_empty() {
                    continue;
                }
                let row = rows[rng.gen_index(0..rows.len())].clone();
                delta.delete("Person_KNOWS_Person", row.clone());
                shadow.get_mut("Person_KNOWS_Person").unwrap().remove(&row);
                // Keep the generator's edge list in sync so the property
                // graph of the final state can be rebuilt from it.
                if let (Value::Int(a), Value::Int(b), Value::Int(date)) =
                    (&row[0], &row[1], &row[3])
                {
                    if let Some(i) =
                        network.knows.iter().position(|(x, y, d)| x == a && y == b && d == date)
                    {
                        network.knows.remove(i);
                    }
                }
            } else {
                let a = persons[rng.gen_index(0..persons.len())];
                let b = persons[rng.gen_index(0..persons.len())];
                let date = 20_200_101i64;
                next_edge_id += 1;
                let tuple =
                    vec![Value::Int(a), Value::Int(b), Value::Int(next_edge_id), Value::Int(date)];
                delta.insert("Person_KNOWS_Person", tuple.clone());
                shadow.insert_fact("Person_KNOWS_Person", tuple).unwrap();
                network.knows.push((a, b, date));
            }
        }
        prepared.apply_delta(delta).unwrap();
    }

    let maintained = prepared.view_relation(view, &compiled.output).unwrap().sorted();
    let cold_datalog = compiled.execute_datalog(&shadow).unwrap();
    let graph_rows = compiled.execute_graph(&to_property_graph(&network)).unwrap();
    let duck = compiled.execute_sql(&shadow, SqlProfile::Duck).unwrap();
    let hyper = compiled.execute_sql(&shadow, SqlProfile::Hyper).unwrap();
    assert_eq!(maintained, cold_datalog.sorted(), "maintained vs cold datalog");
    assert_eq!(maintained, graph_rows.sorted(), "maintained vs cold graph");
    assert_eq!(maintained, duck.sorted(), "maintained vs cold duckdb-sim");
    assert_eq!(maintained, hyper.sorted(), "maintained vs cold hyper-sim");
    assert!(!maintained.is_empty(), "expected a non-trivial final state");
}

#[test]
fn optimization_levels_never_change_results() {
    let (db, _, person) = workload();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    for query in [raqlet_ldbc::SQ1, raqlet_ldbc::SQ3, raqlet_ldbc::CQ2, raqlet_ldbc::REACHABILITY] {
        let mut results = Vec::new();
        for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
            let options = CompileOptions::new(level)
                .with_param("personId", person)
                .with_param("maxDate", 20_200_101i64);
            let compiled = raqlet.compile(query.cypher, &options).unwrap();
            results.push(compiled.execute_datalog(&db).unwrap().sorted());
        }
        assert_eq!(results[0], results[1], "{}: None vs Basic", query.name);
        assert_eq!(results[1], results[2], "{}: Basic vs Full", query.name);
    }
}

/// The bound-source sweep: the four recursive corpus queries whose bound
/// source is pushed into the recursion by magic sets (CQ1, REACH, CQ13,
/// CQ13B), compiled at `OptLevel::Full` and bound in turn to every person of
/// a small network, to an id with no person, and to a person with no
/// outgoing KNOWS edge. CQ1 also sweeps every first name of the network, and
/// CQ13 targets the source itself, the next person and the id with no
/// person. Both SQL profiles must return exactly the rows of the
/// Datalog engine and of the graph engine, whatever program SQL is handed.
#[test]
fn bound_source_sweep_agrees_on_every_engine() {
    use raqlet_ldbc::queries::{CQ1, CQ13, CQ13_CITIES, REACHABILITY};

    let network = generate(&GeneratorConfig { scale: 0.1, seed: 42 });
    let (db, graph) = (to_database(&network), to_property_graph(&network));
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();

    let persons: Vec<i64> = network.persons.iter().map(|p| p.id).collect();
    let no_person = persons.iter().max().unwrap() + 1;
    let no_outgoing = persons
        .iter()
        .copied()
        .find(|p| network.knows.iter().all(|(from, _, _)| from != p))
        .expect("some person has no outgoing KNOWS edge");
    assert!(network.knows.iter().any(|(_, to, _)| *to == no_outgoing), "it has incoming ones");
    let sources: Vec<i64> = persons.iter().copied().chain([no_person]).collect();
    let mut first_names: Vec<&str> =
        network.persons.iter().map(|p| p.first_name.as_str()).collect();
    first_names.sort_unstable();
    first_names.dedup();

    let mut cases: Vec<(&str, &str, CompileOptions)> = Vec::new();
    for &source in &sources {
        let bound = || CompileOptions::new(OptLevel::Full).with_param("personId", source);
        cases.push((REACHABILITY.name, REACHABILITY.cypher, bound()));
        cases.push((CQ13_CITIES.name, CQ13_CITIES.cypher, bound()));
        for name in &first_names {
            cases.push((CQ1.name, CQ1.cypher, bound().with_param("firstName", *name)));
        }
        let next =
            persons[(persons.iter().position(|&p| p == source).unwrap_or(0) + 1) % persons.len()];
        for target in [source, next, no_person] {
            cases.push((CQ13.name, CQ13.cypher, bound().with_param("otherId", target)));
        }
    }

    let mut non_empty = std::collections::BTreeMap::<&str, usize>::new();
    for (name, cypher, options) in &cases {
        let label = format!("{name} {:?}", options.params);
        let compiled = raqlet.compile(cypher, options).unwrap();
        let datalog = compiled.execute_datalog(&db).unwrap().sorted();
        let graph_rows = compiled.execute_graph(&graph).unwrap().sorted();
        assert_eq!(datalog, graph_rows, "{label}: datalog vs graph");
        for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
            let sql = compiled.execute_sql(&db, profile).unwrap().sorted();
            assert_eq!(sql, datalog, "{label}: {profile:?} vs datalog");
        }
        if options.params["personId"] == Value::Int(no_person) {
            assert!(datalog.is_empty(), "{label}: an id with no person binds no rows");
        }
        *non_empty.entry(name).or_default() += usize::from(!datalog.is_empty());
    }
    // The engines must not agree on nothing: every query answers for most
    // of the sources.
    for name in [CQ1.name, REACHABILITY.name, CQ13.name, CQ13_CITIES.name] {
        assert!(
            non_empty.get(name).copied().unwrap_or(0) >= persons.len(),
            "{name}: {non_empty:?}"
        );
    }
}

/// `p(x) :- base(x), !p(x)` has no stratification: every engine refuses it
/// with the same RAQ106 error, rather than one of them returning rows.
#[test]
fn negation_through_recursion_is_refused_on_every_engine() {
    let mut schema = DlSchema::new();
    for (name, kind) in [("base", RelationKind::BaseTable), ("p", RelationKind::Idb)] {
        schema.add(RelationDecl::new(name, vec![Column::new("x", ValueType::Int)], kind)).unwrap();
    }
    let mut program = DlirProgram::new(schema);
    program.add_rule(Rule::new(
        Atom::with_vars("p", &["x"]),
        vec![
            BodyElem::Atom(Atom::with_vars("base", &["x"])),
            BodyElem::Negated(Atom::with_vars("p", &["x"])),
        ],
    ));
    program.add_output("p");
    let mut db = Database::new();
    for x in 0..3 {
        db.insert_fact("base", vec![Value::Int(x)]).unwrap();
    }

    let datalog = DatalogEngine::new().run_output(&program, &db, "p").unwrap_err();
    assert!(datalog.to_string().contains("RAQ106"), "{datalog}");
    let catalog = TableCatalog::from_schema(&program.schema);
    for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
        let sql = raqlet_sqir::lower_to_sqir(&program, "p", &SqlLowerOptions::default())
            .and_then(|query| SqlEngine { profile }.execute(&query, &db, &catalog));
        assert_eq!(sql.map(|result| result.rows.sorted()), Err(datalog.clone()), "{profile:?}");
    }
}
