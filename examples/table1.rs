//! Regenerate Table 1 of the paper: execution time for LDBC SQ1 and CQ2,
//! unoptimized vs fully optimized, on the four simulated backends
//! (Neo4j-sim, Soufflé-sim, DuckDB-sim, HyPer-sim).
//!
//! Absolute numbers differ from the paper (the backends are in-process
//! simulators, not the authors' testbed); the *shape* should hold: translated
//! Datalog / SQL beat the original Cypher execution, and the optimized
//! versions are at least as fast as the unoptimized ones.
//!
//! ```sh
//! cargo run --release --example table1 [scale]
//! ```

use std::time::Instant;

use raqlet::{CompileOptions, OptLevel, Raqlet, SqlProfile};
use raqlet_ldbc::{
    generate, to_database, to_property_graph, GeneratorConfig, SNB_PG_SCHEMA, TABLE1_QUERIES,
};

fn median_millis(mut f: impl FnMut(), runs: usize) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() -> raqlet::Result<()> {
    let scale: f64 = match std::env::args().nth(1) {
        None => 1.0,
        Some(arg) => match arg.parse() {
            Ok(scale) if scale > 0.0 && f64::is_finite(scale) => scale,
            _ => {
                eprintln!("usage: table1 [scale]  (a positive number, default 1.0; got `{arg}`)");
                std::process::exit(2);
            }
        },
    };
    let runs = 3;
    let network = generate(&GeneratorConfig { scale, seed: 42 });
    let db = to_database(&network);
    let graph = to_property_graph(&network);
    let person = network.sample_person();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA)?;

    println!(
        "Table 1 (reproduction): execution time (ms) per query, scale={scale}, median of {runs} runs"
    );
    println!(
        "{:<6} {:<10} {:>12} {:>12} {:>12} {:>12}",
        "Query", "Optimized", "Neo4j-sim", "Souffle-sim", "DuckDB-sim", "HyPer-sim"
    );

    for query in TABLE1_QUERIES {
        for (label, level) in [("no", OptLevel::None), ("yes", OptLevel::Full)] {
            let options = CompileOptions::new(level)
                .with_param("personId", person)
                .with_param("maxDate", 20_200_101i64);
            let compiled = raqlet.compile(query.cypher, &options)?;
            // The paper runs the original Cypher query on Neo4j only once
            // (there is no "optimized Cypher" configuration); mirror that.
            let neo4j = if level == OptLevel::None {
                let ms = median_millis(|| drop(compiled.execute_graph(&graph).unwrap()), runs);
                format!("{ms:.2}")
            } else {
                "-".to_string()
            };
            let souffle = median_millis(|| drop(compiled.execute_datalog(&db).unwrap()), runs);
            let duck =
                median_millis(|| drop(compiled.execute_sql(&db, SqlProfile::Duck).unwrap()), runs);
            let hyper =
                median_millis(|| drop(compiled.execute_sql(&db, SqlProfile::Hyper).unwrap()), runs);
            println!(
                "{:<6} {:<10} {:>12} {:>12.2} {:>12.2} {:>12.2}",
                query.name, label, neo4j, souffle, duck, hyper
            );
        }
    }
    Ok(())
}
