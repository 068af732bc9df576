//! End-to-end pipeline tests: the paper's running example and figures,
//! exercised through the public `raqlet` facade.

use raqlet::{CompileOptions, OptLevel, Raqlet, SqlDialect};

const FIGURE2A: &str = "CREATE GRAPH {
    (personType : Person { id INT, firstName STRING, locationIP STRING }),
    (cityType : City { id INT, name STRING }),
    (:personType)-[locationType: isLocatedIn { id INT }]->(:cityType)
}";

const FIGURE3A: &str = "MATCH (n:Person {id:42})-[:IS_LOCATED_IN]->(p:City)
RETURN DISTINCT n.firstName AS firstName, p.id AS cityId";

#[test]
fn figure2_schema_transformation() {
    let raqlet = Raqlet::from_pg_schema(FIGURE2A).unwrap();
    let schema = raqlet.dl_schema().to_string();
    assert!(schema.contains(".decl Person(id: number, firstName: symbol, locationIP: symbol)"));
    assert!(schema.contains(".decl City(id: number, name: symbol)"));
    assert!(
        schema.contains(".decl Person_IS_LOCATED_IN_City(id1: number, id2: number, id: number)")
    );
}

#[test]
fn figure3_pipeline_representations() {
    let raqlet = Raqlet::from_pg_schema(FIGURE2A).unwrap();
    let compiled = raqlet.compile(FIGURE3A, &CompileOptions::new(OptLevel::None)).unwrap();

    // Figure 3b: PGIR has MATCH, WHERE, RETURN constructs.
    let pgir = compiled.pgir.to_string();
    assert!(pgir.contains("MATCH"));
    assert!(pgir.contains("WHERE"));
    assert!(pgir.contains("RETURN DISTINCT"));
    assert!(pgir.contains("IS_LOCATED_IN"));

    // Figure 3c: DLIR rules Match1 / Where1 / Return.
    let dlir = compiled.unoptimized.to_string();
    assert!(dlir.contains("Match1(n, x1, p) :-"));
    assert!(dlir.contains("Where1(n, x1, p) :-"));
    assert!(dlir.contains("Return(firstName, cityId) :-"));
    assert!(dlir.contains("n = 42"));
    assert!(dlir.contains("p = cityId"));

    // Figure 3d: Soufflé output with declarations and the output directive.
    let souffle = compiled.to_souffle();
    assert!(souffle.contains(".decl Person_IS_LOCATED_IN_City"));
    assert!(souffle.contains(".output Return"));

    // Figure 3e: SQL with a CTE per rule and a final SELECT DISTINCT.
    let sql = compiled.to_sql(SqlDialect::Generic).unwrap();
    assert!(sql.contains("WITH "));
    assert!(sql.contains("Match1"));
    assert!(sql.contains("Where1"));
    assert!(sql.contains("SELECT DISTINCT"));
    assert!(sql.contains("FROM Return AS OUT"));
}

#[test]
fn figure4_optimizations_reduce_the_program_to_one_rule() {
    let raqlet = Raqlet::from_pg_schema(FIGURE2A).unwrap();
    let compiled = raqlet.compile(FIGURE3A, &CompileOptions::new(OptLevel::Full)).unwrap();
    // Figure 4b: only the Return rule survives inlining + dead rule
    // elimination.
    assert_eq!(compiled.optimized.rules_after, 1);
    assert_eq!(compiled.dlir().rules[0].head.relation, "Return");
    assert!(compiled.optimized.applied_passes.contains(&"inline".to_string()));
    assert!(compiled.optimized.applied_passes.contains(&"dead-rule-elimination".to_string()));
    // The id = 42 filter must survive, either as a constraint or pushed into
    // the edge atom by constant propagation.
    assert!(compiled.dlir().rules[0].to_string().contains("42"));
}

#[test]
fn ldbc_queries_compile_at_every_optimization_level() {
    let raqlet = Raqlet::from_pg_schema(raqlet_ldbc::SNB_PG_SCHEMA).unwrap();
    for query in raqlet_ldbc::ALL_QUERIES {
        for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
            let options = CompileOptions::new(level)
                .with_param("personId", 1000i64)
                .with_param("otherId", 1001i64)
                .with_param("maxDate", 20_200_101i64)
                .with_param("firstName", "Alice");
            let compiled = raqlet.compile(query.cypher, &options);
            assert!(
                compiled.is_ok(),
                "query {} failed to compile at {level:?}: {:?}",
                query.name,
                compiled.err()
            );
            let compiled = compiled.unwrap();
            assert_eq!(compiled.analysis.recursive, query.recursive, "query {}", query.name);
        }
    }
}

#[test]
fn souffle_and_sql_text_are_generated_for_recursive_queries() {
    let raqlet = Raqlet::from_pg_schema(raqlet_ldbc::SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::Basic).with_param("personId", 1000i64);
    let compiled = raqlet.compile(raqlet_ldbc::REACHABILITY.cypher, &options).unwrap();
    let souffle = compiled.to_souffle();
    assert!(souffle.contains("Path1"), "{souffle}");
    let sql = compiled.to_sql(SqlDialect::DuckDb).unwrap();
    assert!(sql.contains("WITH RECURSIVE"), "{sql}");
}

#[test]
fn compiled_query_exposes_the_analysis_report() {
    let raqlet = Raqlet::from_pg_schema(raqlet_ldbc::SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::None)
        .with_param("personId", 1000i64)
        .with_param("firstName", "Alice");
    let compiled = raqlet.compile(raqlet_ldbc::CQ1.cypher, &options).unwrap();
    assert!(compiled.analysis.recursive);
    assert!(compiled.analysis.linearity.is_linear_or_nonrecursive());
    assert!(compiled.analysis.stratum_count.is_some());
    assert!(compiled.analysis.scc_count >= 1);
    assert!(compiled.analysis.looping_scc_count >= 1, "CQ1 is recursive");
    assert_eq!(compiled.analysis.summary().len(), 7);
}
