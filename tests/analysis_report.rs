//! Analysis-report golden: the full `AnalysisReport` of every corpus query
//! and of the recursion fixtures, pinned as text in
//! `tests/golden/analysis_reports.txt`.
//!
//! Each section is the report's `Debug` rendering, so the offending rule
//! indices of a non-linear program, the mutually recursive groups, the
//! reason a program does not stratify and every termination risk are pinned
//! along with the counts. A refactor of the analyses must leave this file
//! byte-identical. On a mismatch the actual text is written under the target
//! directory; diff it against the golden file, and copy it over the golden
//! file only if the change in the reports is intended.

use std::fmt::Write;

use raqlet::{analyze, CompileOptions, DlirProgram, OptLevel, Raqlet};
use raqlet_dlir::{
    AggFunc, Aggregation, ArithOp, Atom, BodyElem, CmpOp, DlExpr, LatticeMerge, Rule,
};
use raqlet_ldbc::{ALL_QUERIES, SNB_PG_SCHEMA};

fn atom(name: &str, vars: &[&str]) -> BodyElem {
    BodyElem::Atom(Atom::with_vars(name, vars))
}

fn rule(head: &str, vars: &[&str], body: Vec<BodyElem>) -> Rule {
    Rule::new(Atom::with_vars(head, vars), body)
}

fn program(rules: Vec<Rule>) -> DlirProgram {
    let mut p = DlirProgram::default();
    for r in rules {
        p.add_rule(r);
    }
    p
}

/// `tc(x, y) :- edge(x, y).  tc(x, y) :- tc(x, z), <step>(z, y).`
fn closure(step: &str) -> DlirProgram {
    program(vec![
        rule("tc", &["x", "y"], vec![atom("edge", &["x", "y"])]),
        rule("tc", &["x", "y"], vec![atom("tc", &["x", "z"]), atom(step, &["z", "y"])]),
    ])
}

/// `l = l0 + 1`
fn plus_one(out: &str, inp: &str) -> BodyElem {
    BodyElem::eq(
        DlExpr::var(out),
        DlExpr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(DlExpr::var(inp)),
            rhs: Box::new(DlExpr::int(1)),
        },
    )
}

/// Hop counting from every edge: `dist(s, d, l0 + 1) :- dist(s, m, l0),
/// edge(m, d), <extra>`.
fn counter(extra: Vec<BodyElem>) -> DlirProgram {
    let mut step =
        vec![atom("dist", &["s", "m", "l0"]), atom("edge", &["m", "d"]), plus_one("l", "l0")];
    step.extend(extra);
    program(vec![
        rule(
            "dist",
            &["s", "d", "l"],
            vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
        ),
        rule("dist", &["s", "d", "l"], step),
    ])
}

/// The programs the analyses' unit tests are built on.
fn fixtures() -> Vec<(&'static str, DlirProgram)> {
    let even_odd = program(vec![
        rule("even", &["x"], vec![atom("zero", &["x"])]),
        rule("even", &["x"], vec![atom("odd", &["y"]), atom("succ", &["y", "x"])]),
        rule("odd", &["x"], vec![atom("even", &["y"]), atom("succ", &["y", "x"])]),
    ]);
    let three_way_cycle = program(vec![
        rule("a", &["x"], vec![atom("b", &["x"])]),
        rule("b", &["x"], vec![atom("c", &["x"])]),
        rule("c", &["x"], vec![atom("a", &["x"]), atom("base", &["x"])]),
    ]);
    let mutual_non_linear = program(vec![
        rule("p", &["x"], vec![atom("q", &["x"]), atom("p", &["x"])]),
        rule("q", &["x"], vec![atom("p", &["x"])]),
    ]);
    let mut stratified_negation = closure("edge");
    stratified_negation.add_rule(rule(
        "unreachable",
        &["x"],
        vec![atom("node", &["x"]), BodyElem::Negated(Atom::with_vars("tc", &["s", "x"]))],
    ));
    let negation_cycle = program(vec![
        rule("p", &["x"], vec![atom("q", &["x"])]),
        rule(
            "q",
            &["x"],
            vec![atom("base", &["x"]), BodyElem::Negated(Atom::with_vars("p", &["x"]))],
        ),
    ]);
    let self_negation = program(vec![rule(
        "p",
        &["x"],
        vec![atom("base", &["x"]), BodyElem::Negated(Atom::with_vars("p", &["x"]))],
    )]);
    let mut aggregation = closure("edge");
    let mut degree = rule("deg", &["x", "d"], vec![atom("tc", &["x", "y"])]);
    degree.aggregation = Some(Aggregation {
        func: AggFunc::Count,
        input_var: Some("y".into()),
        output_var: "d".into(),
        group_by: vec!["x".into()],
        distinct: false,
    });
    aggregation.add_rule(degree);
    let mut lattice_distance = counter(Vec::new());
    lattice_distance.set_lattice("dist", LatticeMerge::MinOnColumn(2));
    let mut lattice_edges =
        program(vec![rule("dist", &["s", "d", "l"], vec![atom("edge", &["s", "d", "l"])])]);
    lattice_edges.set_lattice("dist", LatticeMerge::MinOnColumn(2));
    let bounded_counter = counter(vec![BodyElem::Constraint {
        op: CmpOp::Lt,
        lhs: DlExpr::var("l0"),
        rhs: DlExpr::int(5),
    }]);
    let non_recursive_arithmetic =
        program(vec![rule("q", &["x", "y"], vec![atom("edge", &["x", "z"]), plus_one("y", "z")])]);
    let mut downstream_projection = closure("edge");
    downstream_projection.add_rule(rule("twice", &["x", "y"], vec![atom("tc", &["x", "y"])]));
    vec![
        ("non-recursive", program(vec![rule("q", &["x"], vec![atom("edge", &["x", "y"])])])),
        ("linear-closure", closure("edge")),
        ("doubling-closure", closure("tc")),
        ("downstream-projection", downstream_projection),
        ("even-odd", even_odd),
        ("three-way-cycle", three_way_cycle),
        ("mutual-non-linear", mutual_non_linear),
        ("stratified-negation", stratified_negation),
        ("negation-cycle", negation_cycle),
        ("self-negation", self_negation),
        ("aggregation", aggregation),
        ("lattice-distance", lattice_distance),
        ("lattice-edges", lattice_edges),
        ("bounded-counter", bounded_counter),
        ("unbounded-counter", counter(Vec::new())),
        ("non-recursive-arithmetic", non_recursive_arithmetic),
    ]
}

/// One section per corpus query (unoptimized, then optimized at `Full`) and
/// per fixture: the report's `Debug`, then its summary lines.
fn analysis_reports() -> String {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::Full)
        .with_param("personId", 42i64)
        .with_param("otherId", 49i64)
        .with_param("maxDate", 20_200_101i64)
        .with_param("firstName", "Alice");
    let mut programs: Vec<(String, DlirProgram)> = Vec::new();
    for query in ALL_QUERIES {
        let compiled = raqlet.compile(query.cypher, &options).unwrap();
        programs.push((format!("{} unoptimized", query.name), compiled.unoptimized.clone()));
        programs.push((format!("{} Full", query.name), compiled.dlir().clone()));
    }
    programs.extend(fixtures().into_iter().map(|(name, p)| (name.to_string(), p)));

    let mut out = String::new();
    for (name, program) in programs {
        let report = analyze(&program);
        writeln!(out, "== {name}\n{report:#?}").unwrap();
        for line in report.summary() {
            writeln!(out, "{line}").unwrap();
        }
    }
    out
}

#[test]
fn analysis_reports_match_the_golden_file() {
    let actual = analysis_reports();
    let expected = include_str!("golden/analysis_reports.txt");
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("analysis_reports.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "analysis reports differ from tests/golden/analysis_reports.txt; actual output: {}",
            path.display()
        );
    }
}
