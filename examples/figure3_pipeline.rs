//! Reproduce Figures 2, 3 and 4 of the paper: the running example at every
//! stage of the translation pipeline, before and after optimization.
//!
//! ```sh
//! cargo run --example figure3_pipeline
//! ```

use raqlet::{CompileOptions, OptLevel, Raqlet, SqlDialect};

fn main() -> raqlet::Result<()> {
    // Figure 2a: the PG-Schema.
    let schema = "CREATE GRAPH {
        (personType : Person { id INT, firstName STRING, locationIP STRING }),
        (cityType : City { id INT, name STRING }),
        (:personType)-[locationType: isLocatedIn { id INT }]->(:cityType)
    }";
    println!("== Figure 2a: PG-Schema ==\n{schema}\n");

    let raqlet = Raqlet::from_pg_schema(schema)?;
    println!("== Figure 2b: generated DL-Schema ==\n{}", raqlet.dl_schema());

    // Figure 3a: the input Cypher query.
    let query = "MATCH (n:Person {id:42})-[:IS_LOCATED_IN]->(p:City)
                 RETURN DISTINCT n.firstName AS firstName, p.id AS cityId";
    println!("== Figure 3a: input Cypher ==\n{query}\n");

    // Unoptimized pipeline (Figures 3b-3e).
    let unopt = raqlet.compile(query, &CompileOptions::new(OptLevel::None))?;
    println!("== Figure 3b: PGIR ==\n{}", unopt.pgir);
    println!("== Figure 3c: DLIR rules ==\n{}", unopt.unoptimized);
    println!("== Figure 3d: generated Soufflé Datalog ==\n{}", unopt.to_souffle());
    println!("== Figure 3e: generated SQL ==\n{}\n", unopt.to_sql(SqlDialect::Generic)?);

    // Optimized versions (Figure 4).
    let basic = raqlet.compile(query, &CompileOptions::new(OptLevel::Basic))?;
    println!("== Figure 4: optimized Datalog (inlining + dead-rule elimination) ==");
    println!("applied passes: {:?}", basic.optimized.applied_passes);
    println!(
        "rules: {} -> {}\n\n{}",
        basic.optimized.rules_before,
        basic.optimized.rules_after,
        basic.to_souffle()
    );
    println!("== optimized SQL ==\n{}", basic.to_sql(SqlDialect::Generic)?);
    Ok(())
}
