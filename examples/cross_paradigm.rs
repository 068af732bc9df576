//! Walk one query through every implemented edge of the architecture diagram
//! (Figure 1): Cypher → PGIR → DLIR → {Soufflé Datalog, SQIR → SQL dialects,
//! Cypher}, with static analysis and optimization in the middle.
//!
//! ```sh
//! cargo run --example cross_paradigm
//! ```

use raqlet::{CompileOptions, OptLevel, Raqlet, SqlDialect};
use raqlet_ldbc::{CQ1, SNB_PG_SCHEMA};

fn main() -> raqlet::Result<()> {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA)?;
    let options = CompileOptions::new(OptLevel::Full)
        .with_param("personId", 1000i64)
        .with_param("firstName", "Alice");

    println!("== input Cypher (LDBC IC1, simplified) ==\n{}\n", CQ1.cypher);
    let compiled = raqlet.compile(CQ1.cypher, &options)?;

    println!("== PGIR ==\n{}", compiled.pgir);
    println!("== static analysis ==");
    for line in compiled.analysis().summary() {
        println!("  {line}");
    }
    println!("\n== DLIR (unoptimized) ==\n{}", compiled.unoptimized);
    println!(
        "== DLIR (optimized: {:?}) ==\n{}",
        compiled.optimized.applied_passes,
        compiled.dlir()
    );
    println!("== Soufflé Datalog backend ==\n{}", compiled.to_souffle());
    for dialect in [SqlDialect::DuckDb, SqlDialect::Hyper] {
        println!("== SQL backend ({}) ==\n{}\n", dialect.name(), compiled.to_sql(dialect)?);
    }
    println!("== Cypher backend (round trip) ==\n{}", compiled.to_cypher());
    Ok(())
}
