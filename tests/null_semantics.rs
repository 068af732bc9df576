//! NULL semantics agreement: openCypher's three-valued logic on every engine.
//!
//! A comparison with NULL is NULL, `<`/`<=`/`>`/`>=` across types are NULL,
//! `AND`/`OR`/`NOT` are Kleene, `WHERE` keeps only true, aggregates skip
//! NULL, and arithmetic on NULL or past `i64` is NULL. The LDBC data has no NULL, so the corpus cannot show a difference;
//! this fixture can. Three persons and KNOWS edges 1→2, 2→3 and 1→3;
//! person 2 lacks `firstName` and `birthday`, person 3 lacks `firstName`.
//! The relational copy stores the missing properties as NULL cells, the
//! property graph leaves them out.
//!
//! Every shape runs on the graph engine, cold and prepared Datalog, and
//! SQL-sim's Duck and Hyper profiles, at `OptLevel::None` and `Full`, and
//! must return openCypher's answer on each.

use raqlet::{
    CompileOptions, Database, OptLevel, PreparedDatabase, PropertyGraph, Raqlet, SqlProfile, Value,
};
use raqlet_ldbc::SNB_PG_SCHEMA;

/// (id, firstName, birthday) of the three persons.
const PERSONS: [(i64, Option<&str>, Option<i64>); 3] =
    [(1, Some("Alice"), Some(3)), (2, None, None), (3, None, Some(7))];

/// The directed KNOWS edges.
const KNOWS: [(i64, i64); 3] = [(1, 2), (2, 3), (1, 3)];

fn opt_value<T: Into<Value>>(v: Option<T>) -> Value {
    v.map_or(Value::Null, Into::into)
}

/// The fixture as relations of the SNB DL-Schema, missing properties as NULL.
fn database() -> Database {
    let mut db = Database::new();
    for (id, first_name, birthday) in PERSONS {
        let row = vec![
            Value::Int(id),
            opt_value(first_name),
            Value::str("Doe"),
            Value::str("female"),
            opt_value(birthday),
            Value::Int(20_100_101),
            Value::str("10.0.0.1"),
            Value::str("Firefox"),
        ];
        db.insert_fact("Person", row).unwrap();
    }
    for (i, (src, dst)) in KNOWS.into_iter().enumerate() {
        let row = vec![Value::Int(src), Value::Int(dst), Value::Int(100 + i as i64), Value::Int(1)];
        db.insert_fact("Person_KNOWS_Person", row).unwrap();
    }
    db
}

/// The fixture as a property graph, missing properties left out.
fn graph() -> PropertyGraph {
    let mut graph = PropertyGraph::new();
    let mut nodes = Vec::new();
    for (id, first_name, birthday) in PERSONS {
        let mut props = vec![("id", Value::Int(id))];
        if let Some(name) = first_name {
            props.push(("firstName", Value::str(name)));
        }
        if let Some(day) = birthday {
            props.push(("birthday", Value::Int(day)));
        }
        nodes.push(graph.add_node("Person", props).unwrap());
    }
    for (i, (src, dst)) in KNOWS.into_iter().enumerate() {
        let props = vec![("id", Value::Int(100 + i as i64)), ("creationDate", Value::Int(1))];
        graph.add_edge("KNOWS", nodes[src as usize - 1], nodes[dst as usize - 1], props).unwrap();
    }
    graph
}

/// One probe shape and openCypher's answer, as sorted rows.
struct Shape {
    name: &'static str,
    cypher: &'static str,
    expected: &'static [&'static [Value]],
}

const NULL: Value = Value::Null;
const fn int(v: i64) -> Value {
    Value::Int(v)
}

const SHAPES: &[Shape] = &[
    Shape {
        // NULL = NULL is NULL, and 'Alice' = NULL is NULL: no pair matches.
        name: "equal properties",
        cypher: "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.firstName = b.firstName \
                 RETURN a.id AS a, b.id AS b",
        expected: &[],
    },
    Shape {
        // NULL <> 'Alice' is NULL, not true.
        name: "not equal to a constant",
        cypher: "MATCH (a:Person) WHERE a.firstName <> 'Alice' RETURN a.id AS id",
        expected: &[],
    },
    Shape {
        // NULL does not sort below 5.
        name: "less than",
        cypher: "MATCH (a:Person) WHERE a.birthday < 5 RETURN a.id AS id",
        expected: &[&[int(1)]],
    },
    Shape {
        // NOT NULL is NULL.
        name: "negated comparison",
        cypher: "MATCH (a:Person) WHERE NOT (a.birthday > 5) RETURN a.id AS id",
        expected: &[&[int(1)]],
    },
    Shape {
        // Equality with the NULL literal is NULL for every row, so the
        // optimizer proves the output empty at Full.
        name: "equal to NULL",
        cypher: "MATCH (a:Person) WHERE a.birthday = null RETURN a.id AS id",
        expected: &[],
    },
    Shape {
        // A constant-false WHERE: no row, and at Full no rule derives the
        // output.
        name: "constant-false comparison",
        cypher: "MATCH (a:Person) WHERE 1 = 2 RETURN a.id AS id",
        expected: &[],
    },
    Shape {
        // A string and an integer do not order: 'Alice' < 5 is NULL.
        name: "cross-type comparison",
        cypher: "MATCH (a:Person) WHERE a.firstName < 5 RETURN a.id AS id",
        expected: &[],
    },
    Shape {
        // min skips NULL: person 1 knows persons 2 (no birthday) and 3 (7).
        name: "min skips NULL",
        cypher: "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a.id AS id, min(b.birthday) AS m",
        expected: &[&[int(1), int(7)], &[int(2), int(7)]],
    },
    Shape {
        // count(x) skips NULL: no friend has a firstName.
        name: "count skips NULL",
        cypher: "MATCH (a:Person)-[:KNOWS]->(b:Person) \
                 RETURN a.id AS id, count(b.firstName) AS c",
        expected: &[&[int(1), int(0)], &[int(2), int(0)]],
    },
    Shape {
        // count(*) counts rows, whatever properties they lack.
        name: "count(*) counts rows",
        cypher: "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a.id AS id, count(*) AS c",
        expected: &[&[int(1), int(2)], &[int(2), int(1)]],
    },
    Shape {
        // Kleene OR: true OR NULL is true, NULL OR NULL is NULL.
        name: "disjunction with a NULL side",
        cypher: "MATCH (a:Person) WHERE a.firstName <> 'Bob' OR a.birthday > 5 \
                 RETURN a.id AS id",
        expected: &[&[int(1)], &[int(3)]],
    },
    Shape {
        // A projection passes NULL through.
        name: "NULL projected",
        cypher: "MATCH (a:Person) RETURN a.id AS id, a.birthday AS b",
        expected: &[&[int(1), int(3)], &[int(2), NULL], &[int(3), int(7)]],
    },
    Shape {
        // Overflow is NULL (3 and 7 times 2^62), and so is NULL times 2^62:
        // each row keeps a NULL column.
        name: "overflow projected",
        cypher: "MATCH (a:Person) RETURN a.id AS id, a.birthday * 4611686018427387904 AS b",
        expected: &[&[int(1), NULL], &[int(2), NULL], &[int(3), NULL]],
    },
    Shape {
        // An overflowed comparison is NULL, and NULL OR true is true.
        name: "overflow compared",
        cypher: "MATCH (a:Person) WHERE a.birthday * 4611686018427387904 > 0 OR a.id = 3 \
                 RETURN a.id AS id",
        expected: &[&[int(3)]],
    },
];

fn expected_rows(shape: &Shape) -> Vec<Vec<Value>> {
    shape.expected.iter().map(|row| row.to_vec()).collect()
}

/// Every (shape, level, engine) whose answer differs from openCypher's, with
/// the answer it gave.
fn disagreements() -> Vec<String> {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let db = database();
    let graph = graph();
    let mut found = Vec::new();
    for shape in SHAPES {
        let expected = expected_rows(shape);
        for level in [OptLevel::None, OptLevel::Full] {
            let compiled = raqlet.compile(shape.cypher, &CompileOptions::new(level)).unwrap();
            let mut prepared = PreparedDatabase::new(db.clone());
            let answers = [
                ("graph", compiled.execute_graph(&graph)),
                ("datalog", compiled.execute_datalog(&db)),
                ("datalog-prepared", compiled.execute_datalog_prepared(&mut prepared)),
                ("sql-Duck", compiled.execute_sql(&db, SqlProfile::Duck)),
                ("sql-Hyper", compiled.execute_sql(&db, SqlProfile::Hyper)),
            ];
            for (engine, answer) in answers {
                let answer = answer.map(|rows| rows.sorted());
                if answer.as_ref().ok() != Some(&expected) {
                    found.push(format!(
                        "{} {level:?} on {engine}: {answer:?}, expected {expected:?}",
                        shape.name
                    ));
                }
            }
        }
    }
    found
}

#[test]
fn every_engine_gives_opencypher_answers_on_null() {
    let found = disagreements();
    assert!(found.is_empty(), "{} disagreements:\n{}", found.len(), found.join("\n"));
}
