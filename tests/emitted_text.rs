//! Emitted-text golden: the Soufflé and SQL text Raqlet prints for every
//! corpus query, pinned as text in `tests/golden/emitted_text.txt`.
//!
//! The unparsers own the operator spellings of each target language (SQL
//! `<>`, `COUNT`; Soufflé `!=`, `mean`), and nothing else checks them byte
//! for byte. A refactor of the IR vocabulary must leave this file
//! byte-identical. On a mismatch the actual text is written under the target
//! directory; diff it against the golden file, and copy it over the golden
//! file only if the change in emitted text is intended.

use std::fmt::Write;

use raqlet::{CompileOptions, OptLevel, Raqlet, SqlDialect};
use raqlet_ldbc::{generate, GeneratorConfig, SocialNetwork, ALL_QUERIES, SNB_PG_SCHEMA};

/// The seeded SNB the bindings are drawn from: the same as
/// `tests/work_counts.rs`.
const SNB: GeneratorConfig = GeneratorConfig { scale: 0.1, seed: 42 };

/// Shapes beyond the corpus that spell every comparison, arithmetic and
/// aggregate operator, so each target's spelling of each one is pinned.
const SPELLINGS: &[(&str, &str)] = &[
    (
        "OPS-CMP",
        "MATCH (p:Person {id: $personId})-[:KNOWS]-(f:Person)\n\
         WHERE f.firstName <> $firstName AND f.birthday >= 19800101\n\
               AND NOT (f.birthday > 20100101) AND f.creationDate < $maxDate AND f.id > 0\n\
         RETURN DISTINCT f.id AS id",
    ),
    (
        "OPS-ARITH",
        "MATCH (p:Person {id: $personId})-[:KNOWS]-(f:Person)\n\
         RETURN DISTINCT f.id + 1 AS a, f.id - 1 AS b, f.id * 2 AS c, f.id / 3 AS d,\n\
                f.id % 7 AS e",
    ),
    ("OPS-SUM", "MATCH (p:Person)-[:KNOWS]-(f:Person) RETURN p.id AS id, sum(f.birthday) AS s"),
    ("OPS-AVG", "MATCH (p:Person)-[:KNOWS]-(f:Person) RETURN p.id AS id, avg(f.birthday) AS s"),
    ("OPS-MIN", "MATCH (p:Person)-[:KNOWS]-(f:Person) RETURN p.id AS id, min(f.birthday) AS s"),
    ("OPS-MAX", "MATCH (p:Person)-[:KNOWS]-(f:Person) RETURN p.id AS id, max(f.birthday) AS s"),
    (
        "OPS-COUNT",
        "MATCH (p:Person)-[:KNOWS]-(f:Person)\n\
         RETURN p.id AS id, count(DISTINCT f.firstName) AS s",
    ),
    ("OPS-COUNT-STAR", "MATCH (p:Person)-[:KNOWS]-(f:Person) RETURN p.id AS id, count(*) AS s"),
];

const DIALECTS: [SqlDialect; 4] =
    [SqlDialect::Generic, SqlDialect::DuckDb, SqlDialect::Hyper, SqlDialect::Postgres];

/// The corpus bindings every query uses (those of `tests/work_counts.rs`).
fn corpus_options(network: &SocialNetwork, level: OptLevel) -> CompileOptions {
    let other = &network.persons[1];
    CompileOptions::new(level)
        .with_param("personId", network.sample_person())
        .with_param("otherId", other.id)
        .with_param("maxDate", 20_200_101i64)
        .with_param("firstName", other.first_name.as_str())
}

/// One section per query (the corpus, then [`SPELLINGS`]) x optimization
/// level x target: the Soufflé program, then the SQL text in each dialect,
/// or the error text.
fn emitted_text(network: &SocialNetwork) -> String {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let queries = ALL_QUERIES.iter().map(|q| (q.name, q.cypher)).chain(SPELLINGS.iter().copied());
    let mut out = String::new();
    for (name, cypher) in queries {
        for level in [OptLevel::None, OptLevel::Full] {
            let compiled = match raqlet.compile(cypher, &corpus_options(network, level)) {
                Ok(compiled) => compiled,
                Err(e) => {
                    writeln!(out, "== {name} {level:?}: error: {e}").unwrap();
                    continue;
                }
            };
            writeln!(out, "== {name} {level:?} souffle\n{}", compiled.to_souffle()).unwrap();
            for dialect in DIALECTS {
                let label = format!("== {name} {level:?} sql-{}", dialect.name());
                match compiled.to_sql(dialect) {
                    Ok(sql) => writeln!(out, "{label}\n{sql}\n"),
                    Err(e) => writeln!(out, "{label}: error: {e}\n"),
                }
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn emitted_text_matches_the_golden_file() {
    let actual = emitted_text(&generate(&SNB));
    let expected = include_str!("golden/emitted_text.txt");
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("emitted_text.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "emitted text differs from tests/golden/emitted_text.txt; actual output: {}",
            path.display()
        );
    }
}
