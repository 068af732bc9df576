//! Optimization soundness: every optimizer configuration must preserve the
//! query's result set on concrete data (semantic preservation, Section 6's
//! goal, checked empirically).

use raqlet::{Database, DatalogEngine, Value};
use raqlet_dlir::{Atom, BodyElem, CmpOp, DlExpr, DlirProgram, Rule, Term};
use raqlet_opt::{optimize, optimize_with, OptLevel, PassConfig};

fn atom(name: &str, vars: &[&str]) -> BodyElem {
    BodyElem::Atom(Atom::with_vars(name, vars))
}

/// A small random-ish graph database (deterministic, no RNG needed).
fn graph_db(nodes: i64) -> Database {
    let mut db = Database::new();
    for i in 0..nodes {
        db.insert_fact("edge", vec![Value::Int(i), Value::Int((i * 7 + 3) % nodes)]).unwrap();
        if i % 3 == 0 {
            db.insert_fact("edge", vec![Value::Int(i), Value::Int((i + 1) % nodes)]).unwrap();
        }
        db.insert_fact("node", vec![Value::Int(i)]).unwrap();
    }
    db
}

/// Reachability-from-source program with intermediate views, negation-free.
fn reachability_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
    ));
    p.add_rule(Rule::new(
        Atom::with_vars("View1", &["y"]),
        vec![atom("tc", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(1))],
    ));
    p.add_rule(Rule::new(Atom::with_vars("Return", &["y"]), vec![atom("View1", &["y"])]));
    p.add_output("Return");
    p
}

/// Non-linear transitive closure with a negation-based "unreached" view.
fn nonlinear_with_negation() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
    ));
    p.add_rule(Rule::new(
        Atom::with_vars("Return", &["y"]),
        vec![
            atom("node", &["y"]),
            BodyElem::Negated(Atom::new(
                "tc",
                vec![raqlet_dlir::Term::int(1), raqlet_dlir::Term::var("y")],
            )),
        ],
    ));
    p.add_output("Return");
    p
}

/// Non-linear closure over two-hop paths whose base rule has a local
/// variable under a constraint, so linearization has to rename it.
fn nonlinear_two_hop() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(
        Atom::with_vars("hop2", &["x", "y"]),
        vec![
            atom("edge", &["x", "w"]),
            atom("edge", &["w", "y"]),
            BodyElem::Constraint { op: CmpOp::Neq, lhs: DlExpr::var("w"), rhs: DlExpr::int(0) },
        ],
    ));
    p.add_rule(Rule::new(
        Atom::with_vars("hop2", &["x", "y"]),
        vec![atom("hop2", &["x", "z"]), atom("hop2", &["z", "y"])],
    ));
    p.add_rule(Rule::new(Atom::with_vars("Return", &["x", "y"]), vec![atom("hop2", &["x", "y"])]));
    p.add_output("Return");
    p
}

fn run(program: &DlirProgram, db: &Database) -> Vec<Vec<Value>> {
    DatalogEngine::new().run_output(program, db, "Return").unwrap().sorted()
}

#[test]
fn every_optimization_level_preserves_reachability_results() {
    let db = graph_db(30);
    let program = reachability_program();
    let baseline = run(&program, &db);
    assert!(!baseline.is_empty());
    for level in [OptLevel::Basic, OptLevel::Full] {
        let optimized = optimize(&program, level).unwrap();
        assert_eq!(run(&optimized.program, &db), baseline, "{level:?}");
    }
}

#[test]
fn individual_passes_preserve_results() {
    let db = graph_db(24);
    let program = reachability_program();
    let baseline = run(&program, &db);
    let full = PassConfig::for_level(OptLevel::Full);
    // Toggle each pass off in turn; results must not change.
    type Toggle<'a> = (&'a str, Box<dyn Fn(&mut PassConfig)>);
    let toggles: Vec<Toggle> = vec![
        ("no-inline", Box::new(|c: &mut PassConfig| c.inline = false)),
        ("no-constprop", Box::new(|c: &mut PassConfig| c.constant_propagation = false)),
        ("no-semantic", Box::new(|c: &mut PassConfig| c.semantic_joins = false)),
        ("no-dre", Box::new(|c: &mut PassConfig| c.dead_rule_elimination = false)),
        ("no-linearize", Box::new(|c: &mut PassConfig| c.linearization = false)),
        ("no-magic", Box::new(|c: &mut PassConfig| c.magic_sets = false)),
    ];
    for (name, toggle) in toggles {
        let mut config = full.clone();
        toggle(&mut config);
        let optimized = optimize_with(&program, &config).unwrap();
        assert_eq!(run(&optimized.program, &db), baseline, "{name}");
    }
}

#[test]
fn linearization_plus_magic_sets_preserve_nonlinear_tc_with_negation() {
    let db = graph_db(20);
    let program = nonlinear_with_negation();
    let baseline = run(&program, &db);
    let optimized = optimize(&program, OptLevel::Full).unwrap();
    assert_eq!(run(&optimized.program, &db), baseline);
    // The optimized program is linear, so the SQL backend accepts it too.
    assert!(raqlet_analysis::analyze(&optimized.program).linearity.is_linear_or_nonrecursive());
}

#[test]
fn linearizing_a_base_rule_with_constrained_locals_preserves_results() {
    let db = graph_db(20);
    let program = nonlinear_two_hop();
    let baseline = run(&program, &db);
    assert!(!baseline.is_empty());
    let optimized = optimize(&program, OptLevel::Full).unwrap();
    assert!(optimized.applied_passes.contains(&"linearization".to_string()));
    assert_eq!(run(&optimized.program, &db), baseline);
}

/// `p(x, y) :- edge(x, y), y > 3.` called with `_` for `y`: the callee's
/// `y` is local to the call. Inlining must not bind it to the caller's `y`
/// in the constraint, nor leave it unbound when the caller has no `y`.
#[test]
fn inlining_through_a_wildcard_argument_keeps_the_callee_variable_local() {
    let db = graph_db(12);
    let callee = Rule::new(
        Atom::with_vars("p", &["x", "y"]),
        vec![
            atom("edge", &["x", "y"]),
            BodyElem::Constraint { op: CmpOp::Gt, lhs: DlExpr::var("y"), rhs: DlExpr::int(3) },
        ],
    );
    let call = BodyElem::Atom(Atom::new("p", vec![Term::var("x"), Term::Wildcard]));
    let callers = [
        Rule::new(Atom::with_vars("Return", &["x", "y"]), vec![call.clone(), atom("node", &["y"])]),
        Rule::new(Atom::with_vars("Return", &["x"]), vec![call]),
    ];
    for caller in callers {
        let mut program = DlirProgram::default();
        program.add_rule(callee.clone());
        program.add_rule(caller.clone());
        program.add_output("Return");
        let baseline = run(&program, &db);
        assert!(!baseline.is_empty());
        for level in [OptLevel::Basic, OptLevel::Full] {
            let optimized = optimize(&program, level).unwrap();
            assert!(optimized.applied_passes.contains(&"inline".to_string()));
            assert_eq!(run(&optimized.program, &db), baseline, "{caller} at {level:?}");
        }
    }
}

/// The same capture through linearization: the base rule's `y` is bound to
/// `_` at the second recursive call and must not meet the rule's own `y`.
/// `tc(x, y) :- tc(x, z), tc(z, _), edge(z, y).` On edges 1→5, 5→6 and
/// 5→2 it derives `tc(1, 2)`, which a captured `y > 3` would filter out.
#[test]
fn linearizing_through_a_wildcard_argument_keeps_the_base_variable_local() {
    let mut db = Database::new();
    for (from, to) in [(1, 5), (5, 6), (5, 2)] {
        db.insert_fact("edge", vec![Value::Int(from), Value::Int(to)]).unwrap();
    }
    let mut program = DlirProgram::default();
    program.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![
            atom("edge", &["x", "y"]),
            BodyElem::Constraint { op: CmpOp::Gt, lhs: DlExpr::var("y"), rhs: DlExpr::int(3) },
        ],
    ));
    program.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![
            atom("tc", &["x", "z"]),
            BodyElem::Atom(Atom::new("tc", vec![Term::var("z"), Term::Wildcard])),
            atom("edge", &["z", "y"]),
        ],
    ));
    program
        .add_rule(Rule::new(Atom::with_vars("Return", &["x", "y"]), vec![atom("tc", &["x", "y"])]));
    program.add_output("Return");
    let baseline = run(&program, &db);
    assert!(baseline.contains(&vec![Value::Int(1), Value::Int(2)]));
    let optimized = optimize(&program, OptLevel::Full).unwrap();
    assert!(optimized.applied_passes.contains(&"linearization".to_string()));
    assert_eq!(run(&optimized.program, &db), baseline);
}

/// A base rule with a repeated head variable: `tc(x, x) :- node(x).` makes
/// `tc` reflexive. Instantiating it at `tc(z, y)` must keep `z = y`, so
/// linearization leaves the predicate alone rather than drop the binding.
#[test]
fn linearization_keeps_the_binding_of_a_repeated_base_head_variable() {
    let db = graph_db(12);
    let mut program = DlirProgram::default();
    program.add_rule(Rule::new(Atom::with_vars("tc", &["x", "x"]), vec![atom("node", &["x"])]));
    program
        .add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
    program.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
    ));
    program.add_rule(Rule::new(
        Atom::with_vars("Return", &["y"]),
        vec![atom("tc", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(0))],
    ));
    program.add_output("Return");
    let baseline = run(&program, &db);
    for level in [OptLevel::Basic, OptLevel::Full] {
        let optimized = optimize(&program, level).unwrap();
        assert_eq!(run(&optimized.program, &db), baseline, "{level:?}");
    }
}

#[test]
fn magic_sets_reduce_derived_tuples_without_changing_results() {
    let db = graph_db(60);
    let program = reachability_program();
    let baseline_result = DatalogEngine::new().evaluate(&program, &db).unwrap();
    let optimized = optimize(&program, OptLevel::Full).unwrap();
    let optimized_result = DatalogEngine::new().evaluate(&optimized.program, &db).unwrap();
    assert_eq!(
        baseline_result.relation("Return").sorted(),
        optimized_result.relation("Return").sorted()
    );
    // The whole point of the magic-set transformation: less work.
    assert!(
        optimized_result.stats.tuples_derived < baseline_result.stats.tuples_derived,
        "expected fewer derived tuples ({} vs {})",
        optimized_result.stats.tuples_derived,
        baseline_result.stats.tuples_derived
    );
}

#[test]
fn optimizer_is_idempotent() {
    let program = reachability_program();
    let once = optimize(&program, OptLevel::Full).unwrap();
    let twice = optimize(&once.program, OptLevel::Full).unwrap();
    assert_eq!(once.program, twice.program);
}

/// The unoptimized program of every corpus query, by query name.
fn corpus_programs() -> Vec<(&'static str, DlirProgram)> {
    use raqlet::{CompileOptions, Raqlet};
    use raqlet_ldbc::{ALL_QUERIES, SNB_PG_SCHEMA};

    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).unwrap();
    let options = CompileOptions::new(OptLevel::None)
        .with_param("personId", 42i64)
        .with_param("otherId", 49i64)
        .with_param("maxDate", 20_200_101i64)
        .with_param("firstName", "Alice");
    ALL_QUERIES
        .iter()
        .map(|query| (query.name, raqlet.compile(query.cypher, &options).unwrap().unoptimized))
        .collect()
}

/// The recursive fixtures above, by name.
fn fixture_programs() -> [(&'static str, DlirProgram); 3] {
    [
        ("reachability", reachability_program()),
        ("nonlinear-negation", nonlinear_with_negation()),
        ("nonlinear-two-hop", nonlinear_two_hop()),
    ]
}

/// The optimizer's output as text: every corpus query at every level for
/// both backends, and the recursive fixtures at `Full` and under each
/// single-pass ablation. No corpus query fires linearization, so the latter
/// are what pin its renaming.
fn optimized_programs_text() -> String {
    use raqlet::TargetBackend;
    use raqlet_opt::{optimize_for, OptimizedProgram};
    use std::fmt::Write;

    fn record(out: &mut String, label: &str, optimized: &OptimizedProgram) {
        writeln!(out, "== {label}").unwrap();
        writeln!(out, "passes: {}", optimized.applied_passes.join(", ")).unwrap();
        for rule in &optimized.program.rules {
            writeln!(out, "{rule}").unwrap();
        }
    }

    let mut out = String::new();
    for (name, unoptimized) in corpus_programs() {
        for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
            for backend in [TargetBackend::Any, TargetBackend::Sql] {
                let optimized = optimize_for(&unoptimized, level, backend).unwrap();
                record(&mut out, &format!("{name} {level:?} {backend:?}"), &optimized);
            }
        }
    }

    type Toggle = fn(&mut PassConfig);
    let ablations: [(&str, Toggle); 7] = [
        ("full", |_| {}),
        ("no-inline", |c| c.inline = false),
        ("no-constprop", |c| c.constant_propagation = false),
        ("no-semantic", |c| c.semantic_joins = false),
        ("no-dre", |c| c.dead_rule_elimination = false),
        ("no-linearize", |c| c.linearization = false),
        ("no-magic", |c| c.magic_sets = false),
    ];
    for (name, program) in fixture_programs() {
        for (ablation, toggle) in ablations {
            let mut config = PassConfig::for_level(OptLevel::Full);
            toggle(&mut config);
            let optimized = optimize_with(&program, &config).unwrap();
            record(&mut out, &format!("{name} {ablation}"), &optimized);
        }
    }
    out
}

/// Pins the optimizer's output byte for byte. A mismatch writes the actual
/// text under the target directory; diff it against the golden file, and
/// copy it over the golden file only if the change is intended.
#[test]
fn optimized_programs_match_the_golden_file() {
    let actual = optimized_programs_text();
    let expected = include_str!("golden/optimized_programs.txt");
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("optimized_programs.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "optimizer output differs from tests/golden/optimized_programs.txt; actual output: {}",
            path.display()
        );
    }
}

/// A pass that reports no change must leave the program exactly as it was:
/// the pipeline relies on that to detect its fixpoint. Checked on every
/// program state the pipeline passes through.
#[test]
fn passes_that_report_no_change_leave_the_program_untouched() {
    use raqlet_opt::{
        eliminate_dead_rules, inline, linearize, magic_sets, optimize_joins, propagate_constants,
    };
    type Pass = fn(&mut DlirProgram) -> bool;
    let passes: [(&str, Pass); 6] = [
        ("inline", inline),
        ("constant-propagation", propagate_constants),
        ("semantic-joins", optimize_joins),
        ("dead-rule-elimination", eliminate_dead_rules),
        ("linearization", linearize),
        ("magic-sets", magic_sets),
    ];
    for (name, mut program) in corpus_programs().into_iter().chain(fixture_programs()) {
        for round in 0..4 {
            for (pass, run_pass) in passes {
                let before = format!("{program:?}");
                if !run_pass(&mut program) {
                    assert_eq!(format!("{program:?}"), before, "{name}, round {round}: {pass}");
                }
            }
        }
    }
}
