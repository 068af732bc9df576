//! Lexer / parser round-trips over the LDBC SNB query corpus.
//!
//! Every corpus query must tokenize, parse, lower to PGIR, unparse back to
//! Cypher, and re-parse to an equivalent PGIR — the fixed-point property the
//! paper relies on when it treats the normalised Cypher rendering as the
//! canonical form of a query.

use raqlet::{CompileOptions, LowerOptions, OptLevel, Raqlet, SqlProfile, Value};
use raqlet_ldbc::{
    generate, to_database, to_property_graph, GeneratorConfig, ALL_QUERIES, SNB_PG_SCHEMA,
};

/// Queries that must compile *and execute identically on every engine*. A
/// corpus query that merely parses does not count towards coverage; this
/// floor is raised whenever a PR unlocks more of the workload, and CI fails
/// if the executable count ever regresses below it.
const MIN_EXECUTABLE_QUERIES: usize = 10;

/// The standard parameter bindings the corpus queries expect (same set the
/// bench workload uses).
fn corpus_options() -> LowerOptions {
    LowerOptions::new()
        .with_param("personId", Value::Int(1001))
        .with_param("otherId", Value::Int(1008))
        .with_param("maxDate", Value::Int(20_200_101))
        .with_param("firstName", Value::str("Alice"))
}

#[test]
fn every_corpus_query_tokenizes() {
    for q in ALL_QUERIES {
        let tokens = raqlet_cypher::lexer::tokenize(q.cypher)
            .unwrap_or_else(|e| panic!("{} does not tokenize: {e}", q.name));
        assert!(!tokens.is_empty(), "{} produced no tokens", q.name);
    }
}

#[test]
fn every_corpus_query_parses() {
    for q in ALL_QUERIES {
        let ast = raqlet_cypher::parse(q.cypher)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", q.name));
        assert!(!ast.clauses.is_empty(), "{} parsed to an empty query", q.name);
    }
}

#[test]
fn every_corpus_query_round_trips_through_the_unparser() {
    for q in ALL_QUERIES {
        let pgir = raqlet_pgir::cypher_to_pgir(q.cypher, &corpus_options())
            .unwrap_or_else(|e| panic!("{} does not lower to PGIR: {e}", q.name));
        let text = raqlet::to_cypher(&pgir);
        let reparsed =
            raqlet_pgir::cypher_to_pgir(&text, &LowerOptions::new()).unwrap_or_else(|e| {
                panic!("{}'s unparsed form does not re-parse: {e}\n{text}", q.name)
            });
        // The unparsed rendering is a fixed point: unparse(parse(unparse(x)))
        // is textually identical to unparse(x).
        assert_eq!(raqlet::to_cypher(&reparsed), text, "{} is not a fixed point", q.name);
    }
}

#[test]
fn corpus_executable_query_count_does_not_regress() {
    let network = generate(&GeneratorConfig { scale: 0.3, seed: 11 });
    let db = to_database(&network);
    let graph = to_property_graph(&network);
    let person = network.sample_person();
    let other = network.persons.get(1).map(|p| p.id).unwrap_or(person);
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();

    let mut executable = Vec::new();
    let mut failures = Vec::new();
    for q in ALL_QUERIES {
        let options = CompileOptions::new(OptLevel::Full)
            .with_param("personId", person)
            .with_param("otherId", other)
            .with_param("maxDate", 20_200_101i64)
            .with_param("firstName", "Alice");
        let outcome = (|| -> raqlet::Result<()> {
            let compiled = raqlet.compile(q.cypher, &options)?;
            let datalog = compiled.execute_datalog(&db)?;
            let duck = compiled.execute_sql(&db, SqlProfile::Duck)?;
            let hyper = compiled.execute_sql(&db, SqlProfile::Hyper)?;
            let neo = compiled.execute_graph(&graph)?;
            for (engine, rows) in [("duckdb-sim", duck), ("hyper-sim", hyper), ("neo4j-sim", neo)] {
                if rows.sorted() != datalog.sorted() {
                    return Err(raqlet::RaqletError::execution(format!(
                        "{engine} disagrees with the datalog engine"
                    )));
                }
            }
            Ok(())
        })();
        match outcome {
            Ok(()) => executable.push(q.name),
            Err(e) => failures.push(format!("{}: {e}", q.name)),
        }
    }
    assert!(
        executable.len() >= MIN_EXECUTABLE_QUERIES,
        "only {}/{} corpus queries compile and execute on every engine (floor: {}).\n\
         executable: {executable:?}\nfailures:\n  {}",
        executable.len(),
        ALL_QUERIES.len(),
        MIN_EXECUTABLE_QUERIES,
        failures.join("\n  ")
    );
}

#[test]
fn corpus_recursive_flags_match_the_compiled_analysis() {
    let raqlet = raqlet::Raqlet::from_pg_schema(raqlet_ldbc::SNB_PG_SCHEMA).unwrap();
    for q in ALL_QUERIES {
        let options = raqlet::CompileOptions::new(raqlet::OptLevel::None)
            .with_param("personId", 1001i64)
            .with_param("otherId", 1008i64)
            .with_param("maxDate", 20_200_101i64)
            .with_param("firstName", "Alice");
        let compiled = raqlet
            .compile(q.cypher, &options)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", q.name));
        let recursive = compiled.analysis().recursive;
        assert_eq!(
            recursive, q.recursive,
            "{}: corpus says recursive={}, analysis says {recursive}",
            q.name, q.recursive
        );
    }
}
