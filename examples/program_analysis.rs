//! Deductive-database style program analysis: a points-to / call-graph
//! reachability workload expressed as a recursive graph query — the use case
//! the paper's introduction cites for deductive systems.
//!
//! The "program" is a call graph of functions; we ask which functions are
//! transitively reachable from `main`, and which are dead code (never
//! reached) — the latter requires stratified negation, which Raqlet compiles
//! and the Datalog engine evaluates.
//!
//! ```sh
//! cargo run --example program_analysis
//! ```

use raqlet::{CompileOptions, Database, OptLevel, Raqlet, SqlProfile, Value};

fn main() -> raqlet::Result<()> {
    let schema = "CREATE GRAPH {
        (fnType : Function { id INT, name STRING }),
        (:fnType)-[callType: calls { id INT }]->(:fnType)
    }";
    let raqlet = Raqlet::from_pg_schema(schema)?;

    // A small call graph: main -> parse -> lex, main -> eval -> eval (self
    // recursion), helper functions that are never called from main.
    let functions = [
        (1, "main"),
        (2, "parse"),
        (3, "lex"),
        (4, "eval"),
        (5, "format_output"),
        (6, "legacy_entry"),
        (7, "legacy_helper"),
    ];
    let calls = [(1, 2), (2, 3), (1, 4), (4, 4), (4, 5), (6, 7)];

    let mut db = Database::new();
    for (id, name) in functions {
        db.insert_fact("Function", vec![Value::Int(id), Value::str(name)])?;
    }
    for (i, (caller, callee)) in calls.iter().enumerate() {
        db.insert_fact(
            "Function_CALLS_Function",
            vec![Value::Int(*caller), Value::Int(*callee), Value::Int(i as i64)],
        )?;
    }

    // Reachability from main over the CALLS graph (transitive closure).
    let reachable_query = "MATCH (m:Function {id: 1})-[:CALLS*]->(f:Function)
                           RETURN DISTINCT f.name AS function";
    let compiled = raqlet.compile(reachable_query, &CompileOptions::new(OptLevel::Full))?;

    println!("== static analysis report ==");
    for line in compiled.analysis().summary() {
        println!("  {line}");
    }
    println!("\n== generated Soufflé program ==\n{}", compiled.to_souffle());

    let reachable = compiled.execute_datalog(&db)?;
    println!("functions reachable from main (datalog engine):\n{reachable}");

    // The same program runs on the SQL engine since the recursion is linear:
    // `execute_sql` refuses what `WITH RECURSIVE` cannot express (mutual,
    // non-linear or non-stratifiable recursion) before it runs anything.
    let reachable_sql = compiled.execute_sql(&db, SqlProfile::Duck)?;
    assert_eq!(reachable, reachable_sql);
    println!("sql engine agrees ✔");

    Ok(())
}
