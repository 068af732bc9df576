//! Work-count golden: the exact work each engine does on the LDBC corpus,
//! pinned as text in `tests/golden/work_counts.txt`.
//!
//! Time is a weak signal on a shared machine; exact counts are not. A
//! refactor that claims "no behaviour change" must leave this file
//! byte-identical, and a change that removes work shows it as a reviewable
//! diff of the golden file. On a mismatch the actual text is written under
//! the target directory; diff it against the golden file, and copy it over
//! the golden file only if the change in work is intended.
//!
//! Rows so far: every corpus query on the Datalog engine (a cold guarded
//! evaluation) and on SQL-sim (both profiles), each at `OptLevel::None` and
//! `OptLevel::Full`, and every corpus query on the graph engine (which runs
//! PGIR, so the optimization level does not apply).

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex};

use raqlet::{
    CompileOptions, DatalogEngine, GraphEngine, OptLevel, QueryGuard, Raqlet, SqlEngine,
    SqlProfile, TableCatalog,
};
use raqlet_ldbc::{
    generate, to_database, to_property_graph, GeneratorConfig, SocialNetwork, ALL_QUERIES,
    SNB_PG_SCHEMA,
};

/// The seeded SNB every row runs against: small enough that the whole file
/// costs well under two seconds in a debug build.
const SNB: GeneratorConfig = GeneratorConfig { scale: 0.1, seed: 42 };

/// One line per corpus query x optimization level on the Datalog engine:
/// the `EvalStats` counters of a cold guarded evaluation, the guard
/// checkpoint hits by kind, and the result's row count, or the error text.
fn datalog_work_counts(network: &SocialNetwork) -> String {
    let db = to_database(network);
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();

    let mut out = String::new();
    for query in ALL_QUERIES {
        for level in [OptLevel::None, OptLevel::Full] {
            let hits = Arc::new(Mutex::new(BTreeMap::<String, u64>::new()));
            let sink = Arc::clone(&hits);
            let guard = QueryGuard::new().with_fault_hook(Arc::new(move |site, _| {
                *sink.lock().unwrap().entry(format!("{site:?}")).or_default() += 1;
                None
            }));
            let outcome = raqlet.compile(query.cypher, &corpus_options(network, level)).and_then(
                |compiled| {
                    let result =
                        DatalogEngine::new().evaluate_guarded(compiled.dlir(), &db, &guard)?;
                    let rows = result.relation(&compiled.output).len();
                    Ok((result.stats, rows))
                },
            );
            let label = format!("{} datalog {level:?}", query.name);
            match outcome {
                Ok((stats, rows)) => {
                    let checkpoints: Vec<String> = hits
                        .lock()
                        .unwrap()
                        .iter()
                        .map(|(kind, n)| format!("{kind}:{n}"))
                        .collect();
                    writeln!(
                        out,
                        "{label}: strata={} sccs={} looping_sccs={} iterations={} \
                         rule_applications={} tuples_derived={} checkpoints=[{}] rows={rows}",
                        stats.strata,
                        stats.sccs,
                        stats.looping_sccs,
                        stats.iterations,
                        stats.rule_applications,
                        stats.tuples_derived,
                        checkpoints.join(" ")
                    )
                }
                Err(e) => writeln!(out, "{label}: error: {e}"),
            }
            .unwrap();
        }
    }
    out
}

/// One line per corpus query x SQL profile x optimization level: the
/// `SqlStats` of the run and the result's row count, or the error text if
/// the query does not compile for or run on SQL-sim.
fn sql_work_counts(network: &SocialNetwork) -> String {
    let db = to_database(network);
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();

    let mut out = String::new();
    for query in ALL_QUERIES {
        for level in [OptLevel::None, OptLevel::Full] {
            let options = corpus_options(network, level);
            for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
                let outcome = raqlet.compile(query.cypher, &options).and_then(|compiled| {
                    let catalog = TableCatalog::from_schema(&compiled.dlir().schema);
                    SqlEngine { profile }.execute(&compiled.sqir()?, &db, &catalog)
                });
                let label = format!("{} sql-{profile:?} {level:?}", query.name);
                match outcome {
                    Ok(result) => {
                        let stats = &result.stats;
                        writeln!(
                            out,
                            "{label}: ctes_materialised={} recursive_iterations={} \
                             rows_produced={} rows={}",
                            stats.ctes_materialised,
                            stats.recursive_iterations,
                            stats.rows_produced,
                            result.rows.len()
                        )
                    }
                    Err(e) => writeln!(out, "{label}: error: {e}"),
                }
                .unwrap();
            }
        }
    }
    out
}

/// The corpus bindings every row uses.
fn corpus_options(network: &SocialNetwork, level: OptLevel) -> CompileOptions {
    let other = &network.persons[1];
    CompileOptions::new(level)
        .with_param("personId", network.sample_person())
        .with_param("otherId", other.id)
        .with_param("maxDate", 20_200_101i64)
        .with_param("firstName", other.first_name.as_str())
}

/// One line per corpus query on the graph engine: the `GraphStats` of the
/// run and the result's row count, or the error text.
fn graph_work_counts(network: &SocialNetwork) -> String {
    let graph = to_property_graph(network);
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();

    let mut out = String::new();
    for query in ALL_QUERIES {
        let outcome = raqlet
            .compile(query.cypher, &corpus_options(network, OptLevel::None))
            .and_then(|compiled| GraphEngine::new().execute(&compiled.pgir, &graph));
        let label = format!("{} graph", query.name);
        match outcome {
            Ok(result) => writeln!(
                out,
                "{label}: expansions={} intermediate_rows={} rows={}",
                result.stats.expansions,
                result.stats.intermediate_rows,
                result.rows.len()
            ),
            Err(e) => writeln!(out, "{label}: error: {e}"),
        }
        .unwrap();
    }
    out
}

#[test]
fn work_counts_match_the_golden_file() {
    let network = generate(&SNB);
    let actual =
        datalog_work_counts(&network) + &sql_work_counts(&network) + &graph_work_counts(&network);
    let expected = include_str!("golden/work_counts.txt");
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("work_counts.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "work counts differ from tests/golden/work_counts.txt; actual output: {}",
            path.display()
        );
    }
}
