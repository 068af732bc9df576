//! Backend-targeted optimization: every backend now runs the one optimized
//! program, magic sets included, and the SQL lowering refuses what recursive
//! SQL cannot express rather than falling back to a different program.
//!
//! History: the magic predicates once turned into extra recursive CTE
//! branches that working-table evaluation re-joined every iteration, which
//! made the "fully optimized" CQ2 ~90x *slower* than the unoptimized program
//! on duckdb-sim/hyper-sim, while the same rewrite was ~18x faster on the
//! Datalog engine. The fix then routed each backend its own optimized
//! program ([`raqlet_opt::TargetBackend`]). SQL-sim has planned its joins
//! since, and CQ2 no longer fires magic sets; the CQ2 regression test stays
//! as the pin on that pathology, and the SQL program is the Datalog one.

use std::time::Instant;

use raqlet::{
    CompileOptions, CompiledQuery, OptLevel, OptimizedProgram, PassConfig, Raqlet, RaqletError,
    SqlDialect, SqlProfile, TargetBackend,
};
use raqlet_ldbc::{
    generate, to_database, GeneratorConfig, ALL_QUERIES, CQ2, REACHABILITY, SNB_PG_SCHEMA,
};

fn compile(cypher: &str, level: OptLevel, person: i64) -> CompiledQuery {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).expect("SNB schema parses");
    let options = CompileOptions::new(level)
        .with_param("personId", person)
        .with_param("otherId", person + 7)
        .with_param("maxDate", 20_200_101i64)
        .with_param("firstName", "Alice");
    raqlet.compile(cypher, &options).expect("benchmark query compiles")
}

/// The facade's two optimized programs are exactly what a standalone
/// `optimize_for` run per backend produces from the unoptimized program —
/// program, pass trail and rule counts — however the facade gets there.
#[test]
fn facade_optimizations_equal_standalone_optimize_for_runs() {
    fn assert_same(query: &str, label: &str, got: &OptimizedProgram, want: &OptimizedProgram) {
        assert_eq!(got.program, want.program, "{query} {label}: program differs");
        assert_eq!(got.applied_passes, want.applied_passes, "{query} {label}: passes differ");
        assert_eq!(got.rules_before, want.rules_before, "{query} {label}: rules_before differs");
        assert_eq!(got.rules_after, want.rules_after, "{query} {label}: rules_after differs");
    }
    for query in ALL_QUERIES {
        for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
            let compiled = compile(query.cypher, level, 42);
            let any = raqlet_opt::optimize_for(&compiled.unoptimized, level, TargetBackend::Any)
                .expect("optimizes for Any");
            let sql = raqlet_opt::optimize_for(&compiled.unoptimized, level, TargetBackend::Sql)
                .expect("optimizes for Sql");
            let label = format!("{level:?}");
            assert_same(query.name, &format!("{label}/Any"), &compiled.optimized, &any);
            assert_same(query.name, &format!("{label}/Sql"), &compiled.sql_optimized, &sql);
        }
    }
}

#[test]
fn sql_programs_are_the_one_optimized_program() {
    // REACHABILITY is recursive with a bound source: the magic-set rewrite
    // fires on it (unlike CQ2, whose selection is pushed by inlining alone).
    let compiled = compile(REACHABILITY.cypher, OptLevel::Full, 42);
    let magic = |program: &raqlet::DlirProgram| {
        program.idb_names().iter().any(|name| name.starts_with("Magic_"))
    };
    assert!(magic(compiled.dlir()), "magic sets fire on REACH:\n{}", compiled.to_souffle());
    // SQL gets the same program, magic predicates and all: the bound source
    // is pushed into the recursive CTE instead of selected after it.
    assert!(magic(compiled.dlir_for_sql()));
    assert_eq!(compiled.dlir_for_sql(), compiled.dlir());
    let sql = compiled.to_sql(SqlDialect::DuckDb).unwrap();
    assert!(sql.contains("Magic_"), "SQL reads the magic predicate:\n{sql}");
}

/// Refuse, never fall back: SQL lowers the one optimized program or returns
/// the lowering's structured error; no code builds it a second program.
///
/// Magic sets cannot be what makes a program mutually recursive, so there is
/// no Cypher or DLIR program whose optimized form SQL must refuse because of
/// them. Each firing of `raqlet_opt::magic_sets` adds exactly one rule, the
/// seed fact `Magic_P_<adornment>(c1, ..., ck).` with an empty body, and adds
/// a `Magic_P_<adornment>` atom to the body of `P`'s rules. The only new
/// dependency edges run from `P` to the magic predicate, and the magic
/// predicate depends on nothing. A relation with no dependency of its own
/// lies on no cycle, so every recursive component of the rewritten program
/// is one of the input program, and each magic predicate is a non-recursive
/// component of its own. (The textbook rewrite would add magic rules such as
/// `Magic_tc(z) :- Magic_tc(x), tc(x, z)` for non-linear recursion, which
/// does make the two mutually recursive; this one leaves such programs
/// alone.) The test checks the argument on each fixture and on every corpus
/// query: the magic rules are body-less and the recursive components are
/// those of the program without magic sets.
///
/// A program that is mutually recursive before optimization stays so, and
/// its optimized program is refused with the lowering's error. Every corpus
/// query's `Full` program lowers.
#[test]
fn sql_refuses_what_it_cannot_lower_and_never_falls_back() {
    use raqlet_dlir::{Atom, BodyElem, DepGraph, DlExpr, DlirProgram, Rule};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }
    /// A rule body: `(relation, variables)` per atom.
    type Body<'a> = [(&'a str, &'a [&'a str])];
    /// `head(x, y) :- body...` plus `Return(y) :- out(x, y), x = 1`.
    fn program(rules: &[(&str, &Body)], out: &str) -> DlirProgram {
        let mut p = DlirProgram::default();
        for (head, body) in rules {
            let body = body.iter().map(|(name, vars)| atom(name, vars)).collect();
            p.add_rule(Rule::new(Atom::with_vars(*head, &["x", "y"]), body));
        }
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["y"]),
            vec![atom(out, &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(1))],
        ));
        p.add_output("Return");
        p
    }
    /// The recursive components of a program, magic predicates left out.
    fn recursive_components(p: &DlirProgram) -> Vec<Vec<String>> {
        let graph = DepGraph::build(p);
        let mut components: Vec<Vec<String>> = graph
            .sccs()
            .iter()
            .filter(|scc| scc.iter().any(|name| graph.is_recursive(name)))
            .map(|scc| {
                assert!(scc.iter().all(|name| !name.starts_with("Magic_")), "{scc:?} in\n{p}");
                let mut scc = scc.clone();
                scc.sort();
                scc
            })
            .collect();
        components.sort();
        components
    }

    let edge: (&str, &[&str]) = ("edge", &["x", "y"]);
    let left_linear =
        program(&[("tc", &[edge]), ("tc", &[("tc", &["x", "z"]), ("edge", &["z", "y"])])], "tc");
    let right_linear =
        program(&[("tc", &[edge]), ("tc", &[("edge", &["x", "z"]), ("tc", &["z", "y"])])], "tc");
    let non_linear =
        program(&[("tc", &[edge]), ("tc", &[("tc", &["x", "z"]), ("tc", &["z", "y"])])], "tc");
    // a and b call each other: two hops at a time, with a bound source.
    let mutual = program(
        &[
            ("a", &[edge]),
            ("a", &[("b", &["x", "z"]), ("edge", &["z", "y"])]),
            ("b", &[("a", &["x", "z"]), ("edge", &["z", "y"])]),
        ],
        "a",
    );

    // The magic rules are body-less and the recursive components are those
    // of the program without magic sets. Returns whether magic sets fired.
    let check = |label: &str, without: &DlirProgram, with: &DlirProgram| {
        for rule in with.rules.iter().filter(|r| r.head.relation.starts_with("Magic_")) {
            assert!(rule.body.is_empty(), "{label}: a magic rule with a body: {rule}");
        }
        assert_eq!(recursive_components(with), recursive_components(without), "{label}");
        with.idb_names().iter().any(|name| name.starts_with("Magic_"))
    };
    for (name, fixture) in [
        ("left-linear", &left_linear),
        ("right-linear", &right_linear),
        ("non-linear", &non_linear),
        ("mutual", &mutual),
    ] {
        let mut rewritten = fixture.clone();
        while raqlet_opt::magic_sets(&mut rewritten) {}
        assert_eq!(check(name, fixture, &rewritten), name == "left-linear", "{name} fires");
    }

    // The mutual program keeps its recursion through the whole pipeline,
    // and SQL refuses the optimized program with the lowering's error.
    let optimized = raqlet_opt::optimize(&mutual, OptLevel::Full).unwrap().program;
    assert_eq!(recursive_components(&optimized), vec![vec!["a".to_string(), "b".to_string()]]);
    let err = raqlet_sqir::lower_to_sqir(&optimized, "Return", &Default::default()).unwrap_err();
    match &err {
        RaqletError::BackendRejected { backend, reason } => {
            assert_eq!(backend, "recursive-sql");
            assert!(
                reason.starts_with("mutual recursion between")
                    && reason.ends_with("cannot be expressed with WITH RECURSIVE"),
                "{reason}"
            );
        }
        other => panic!("expected BackendRejected, got {other:?}"),
    }

    // Every corpus query's Full program passes the check against the same
    // pipeline without magic sets, is the program SQL runs, and lowers.
    let no_magic = PassConfig { magic_sets: false, ..PassConfig::for_level(OptLevel::Full) };
    let mut fired = Vec::new();
    for query in ALL_QUERIES {
        let compiled = compile(query.cypher, OptLevel::Full, 42);
        let without = raqlet_opt::optimize_with(&compiled.unoptimized, &no_magic).unwrap();
        if check(query.name, &without.program, compiled.dlir()) {
            fired.push(query.name);
        }
        assert_eq!(compiled.dlir_for_sql(), compiled.dlir(), "{}", query.name);
        if let Err(e) = compiled.sqir() {
            panic!("{}: the Full program does not lower: {e}", query.name);
        }
    }
    assert_eq!(fired, ["CQ1", "REACH", "CQ13", "CQ13B"]);
}

#[test]
fn cq2_on_duckdb_sim_optimized_no_longer_regresses_vs_unoptimized() {
    let network = generate(&GeneratorConfig { scale: 0.2, seed: 42 });
    let person = network.sample_person();
    let db = to_database(&network);
    let compiled = compile(CQ2.cypher, OptLevel::Full, person);
    let baseline = compile(CQ2.cypher, OptLevel::None, person);

    // Same answers either way.
    let started = Instant::now();
    let optimized = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
    let optimized_elapsed = started.elapsed();
    let started = Instant::now();
    let unoptimized = baseline.execute_sql(&db, SqlProfile::Duck).unwrap();
    let unoptimized_elapsed = started.elapsed();
    assert_eq!(optimized.sorted(), unoptimized.sorted());
    assert!(!optimized.is_empty(), "CQ2 should return rows on the generated workload");

    // The pathology was a ~90x regression; a generous 5x bound keeps this
    // robust to CI noise while still catching any recursion blow-up.
    assert!(
        optimized_elapsed <= unoptimized_elapsed * 5,
        "optimized CQ2 on duckdb-sim regressed: optimized {optimized_elapsed:?} vs \
         unoptimized {unoptimized_elapsed:?}"
    );
}

#[test]
fn datalog_and_sql_targeted_programs_agree_on_results() {
    let network = generate(&GeneratorConfig { scale: 0.2, seed: 7 });
    let person = network.sample_person();
    let db = to_database(&network);
    let compiled = compile(CQ2.cypher, OptLevel::Full, person);
    let datalog = compiled.execute_datalog(&db).unwrap();
    let duck = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
    let hyper = compiled.execute_sql(&db, SqlProfile::Hyper).unwrap();
    assert_eq!(datalog.sorted(), duck.sorted());
    assert_eq!(duck.sorted(), hyper.sorted());
}
