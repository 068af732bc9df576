//! Long-path cross-engine agreement: shortest paths deeper than SQL-sim's
//! default lattice depth bound (`SqlLowerOptions::max_recursion_depth`, 30).
//!
//! SQL has no subsumption, so the SQL lowering enumerates path lengths up to
//! the bound and takes the `MIN` per group. On a graph whose diameter
//! exceeds the bound that would silently drop every node further away. The
//! fixture is the SNB at scale 0.4, seed 7, with `KNOWS` replaced by one
//! 40-person chain (diameter 39). Datalog and the graph engine must agree on
//! every query; each SQL profile must either agree too or refuse with the
//! error that names the bound, never return fewer rows.

use raqlet::{CompileOptions, OptLevel, Raqlet, RaqletError, SqlProfile, Value};
use raqlet_ldbc::{
    generate, to_database, to_property_graph, GeneratorConfig, SocialNetwork, CQ13, SNB_PG_SCHEMA,
};

/// Every person shortest-path reachable from `$personId`.
const SHORTEST_FROM_HEAD: &str =
    "MATCH p = shortestPath((a:Person {id: $personId})-[:KNOWS*]-(b:Person)) \
     RETURN DISTINCT b.id AS id";

/// The SNB at scale 0.4, seed 7, with its `KNOWS` edges replaced by one
/// chain through all 40 persons in generation order.
fn chain_network() -> SocialNetwork {
    let mut network = generate(&GeneratorConfig { scale: 0.4, seed: 7 });
    assert_eq!(network.persons.len(), 40);
    network.knows =
        network.persons.windows(2).map(|pair| (pair[0].id, pair[1].id, 20_200_101i64)).collect();
    network
}

/// Run `cypher` on every engine at `level` with `options`; returns the
/// Datalog rows after checking the graph engine and both SQL profiles.
fn agree(
    name: &str,
    cypher: &str,
    options: &CompileOptions,
    network: &SocialNetwork,
) -> (Vec<Vec<Value>>, Vec<(SqlProfile, RaqletError)>) {
    let db = to_database(network);
    let graph = to_property_graph(network);
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let compiled = raqlet.compile(cypher, options).unwrap();
    let datalog = compiled.execute_datalog(&db).unwrap().sorted();
    let graph_rows = compiled.execute_graph(&graph).unwrap().sorted();
    assert_eq!(datalog, graph_rows, "{name}: datalog vs graph");
    let mut refused = Vec::new();
    for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
        match compiled.execute_sql(&db, profile) {
            Ok(rows) => assert_eq!(rows.sorted(), datalog, "{name}: datalog vs {profile:?}"),
            Err(e) => refused.push((profile, e)),
        }
    }
    (datalog, refused)
}

fn options(network: &SocialNetwork, level: OptLevel) -> CompileOptions {
    let persons = &network.persons;
    CompileOptions::new(level)
        .with_param("personId", persons[0].id)
        .with_param("otherId", persons[persons.len() - 1].id)
}

/// A refusal must be the depth-bound error, naming the option. Both
/// profiles enumerate path lengths up to the bound, so both refuse.
fn assert_depth_refusals(name: &str, refused: &[(SqlProfile, RaqletError)]) {
    assert_eq!(refused.len(), 2, "{name}: {refused:?}");
    for (profile, err) in refused {
        assert!(
            matches!(err, RaqletError::RecursionDepthExceeded { max_depth: 30, .. }),
            "{name} on {profile:?}: unexpected error {err}"
        );
        assert!(err.to_string().contains("max_recursion_depth"), "{err}");
    }
}

#[test]
fn shortest_paths_past_the_depth_bound_agree_or_refuse() {
    let network = chain_network();
    for level in [OptLevel::None, OptLevel::Full] {
        let name = format!("shortest from head {level:?}");
        let (rows, refused) = agree(&name, SHORTEST_FROM_HEAD, &options(&network, level), &network);
        // 39 others, plus the head itself two hops away (there and back).
        assert_eq!(rows.len(), 40, "{name}");
        assert!(rows.contains(&vec![Value::Int(network.persons[39].id)]), "{name}");
        assert_depth_refusals(&name, &refused);

        let name = format!("CQ13 to the tail {level:?}");
        let (rows, refused) = agree(&name, CQ13.cypher, &options(&network, level), &network);
        assert_eq!(rows.len(), 1, "{name}");
        assert_depth_refusals(&name, &refused);
    }
}

#[test]
fn a_depth_bound_above_the_diameter_agrees_on_sql() {
    let network = chain_network();
    for level in [OptLevel::None, OptLevel::Full] {
        let mut options = options(&network, level);
        options.sql.max_recursion_depth = 40;
        for (name, cypher, expected) in
            [("shortest from head", SHORTEST_FROM_HEAD, 40), ("CQ13 to the tail", CQ13.cypher, 1)]
        {
            let (rows, refused) = agree(name, cypher, &options, &network);
            assert_eq!(rows.len(), expected, "{name} {level:?}");
            assert!(refused.is_empty(), "{name} {level:?}: {refused:?}");
        }
    }
}

#[test]
fn emitted_sql_states_the_depth_bound() {
    let network = chain_network();
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let compiled = raqlet.compile(CQ13.cypher, &options(&network, OptLevel::Full)).unwrap();
    let sql = compiled.to_sql(raqlet::SqlDialect::DuckDb).unwrap();
    assert!(
        sql.contains("-- path lengths are cut at max_recursion_depth = 30"),
        "the lattice helper CTE must state its bound:\n{sql}"
    );
    let plain = raqlet.compile(raqlet_ldbc::SQ1.cypher, &options(&network, OptLevel::Full));
    assert!(!plain.unwrap().to_sql(raqlet::SqlDialect::DuckDb).unwrap().contains("--"));
}
