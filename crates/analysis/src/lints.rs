//! The `raqcheck` lint suite: RAQ001–RAQ008 over a [`DlirProgram`], built on
//! the [`crate::dataflow`] fixpoint and (for the advisory plan lints) on
//! [`crate::stats::EdbStats`].
//!
//! Each lint is a standalone function collecting [`Diagnostic`]s at their
//! default severities; [`crate::raqcheck::RaqCheck`] composes them with the
//! DLIR validator's semantic checks and resolves severities against a
//! [`raqlet_common::diag::SeverityConfig`].

use std::collections::{BTreeMap, BTreeSet};

use raqlet_common::diag::{DiagCode, Diagnostic};
use raqlet_dlir::depgraph::DepGraph;
use raqlet_dlir::ir::{BodyElem, DlirProgram, Rule, Term};

use crate::dataflow::Dataflow;
use crate::stats::EdbStats;

/// Rows below this are never worth a join-order warning.
const PLAN_LARGE_ROWS: usize = 1024;
/// A later atom must be at least this many times smaller (or filtered) for
/// the leading unfiltered scan to be called out.
const PLAN_SIZE_RATIO: usize = 8;

/// RAQ001: IDB relations unreachable from every output. Only meaningful when
/// the program declares outputs; intermediate programs without outputs are
/// skipped entirely.
pub fn lint_unused_relations(program: &DlirProgram, flow: &Dataflow) -> Vec<Diagnostic> {
    if program.outputs.is_empty() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for name in program.idb_names() {
        if !flow.reachable.contains(&name) {
            diags.push(
                Diagnostic::new(
                    DiagCode::UnusedRelation,
                    format!(
                        "relation `{name}` is derived by {} rule(s) but is unreachable from every output",
                        program.rules_for(&name).len()
                    ),
                )
                .with_relation(name.clone())
                .with_suggestion("remove its rules or mark it as an output"),
            );
        }
    }
    diags
}

/// RAQ002: rules that can provably never fire — contradictory constraints,
/// statically false comparisons, or joins against relations that can hold no
/// tuples. The constraint causes come straight from the dataflow pass; a
/// pairwise key-equality check additionally catches two atoms of one keyed
/// relation that agree on the key but demand different constants elsewhere
/// (the defect `opt/semantic.rs` declines to merge).
pub fn lint_never_firing(program: &DlirProgram, flow: &Dataflow) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (index, rule) in program.rules.iter().enumerate() {
        if let Some(reason) = flow.rule_dead.get(index).and_then(|d| d.as_ref()) {
            diags.push(at_rule(
                Diagnostic::new(
                    DiagCode::NeverFiringRule,
                    format!("rule can never fire: {}", reason.describe()),
                )
                .with_suggestion("remove the rule or fix the contradictory condition"),
                rule,
                index,
            ));
            continue;
        }
        if let Some(msg) = key_contradiction(program, rule) {
            diags.push(at_rule(
                Diagnostic::new(DiagCode::NeverFiringRule, format!("rule can never fire: {msg}"))
                    .with_suggestion("remove the rule or fix the contradictory condition"),
                rule,
                index,
            ));
        }
    }
    diags
}

/// Two positive atoms of one keyed relation that bind identical terms on
/// every key column but conflicting constants on some other column demand
/// two different values of a key-determined cell — impossible.
fn key_contradiction(program: &DlirProgram, rule: &Rule) -> Option<String> {
    let atoms: Vec<_> = rule.body.iter().filter_map(BodyElem::as_positive_atom).collect();
    for (i, a) in atoms.iter().enumerate() {
        for b in atoms.iter().skip(i + 1) {
            if a.relation != b.relation || a.arity() != b.arity() {
                continue;
            }
            let decl = program.schema.get(&a.relation)?;
            if decl.key.is_empty() || decl.key.iter().any(|&k| k >= a.arity()) {
                continue;
            }
            let keys_equal = decl
                .key
                .iter()
                .all(|&k| a.terms[k] == b.terms[k] && !matches!(a.terms[k], Term::Wildcard));
            if !keys_equal {
                continue;
            }
            for col in 0..a.arity() {
                if decl.key.contains(&col) {
                    continue;
                }
                if let (Term::Const(va), Term::Const(vb)) = (&a.terms[col], &b.terms[col]) {
                    if va != vb {
                        return Some(format!(
                            "atoms `{a}` and `{b}` agree on the key of `{}` but demand different constants in column {col}",
                            a.relation
                        ));
                    }
                }
            }
        }
    }
    None
}

/// RAQ003: rule bodies whose positive atoms split into groups sharing no
/// variables (directly or through constraints) — a cartesian product.
/// Rules lowered from `UNWIND` are exempt, as are atoms over relations an
/// `UNWIND` rule defines: the frontier × list cross join is the construct's
/// meaning, and the list side stays small by construction.
pub fn lint_cartesian_products(program: &DlirProgram) -> Vec<Diagnostic> {
    // Relations whose rows come from an UNWIND clause (the materialised
    // literal list). Cross-joining against them is intended.
    let unwind_rels: BTreeSet<&str> = program
        .rules
        .iter()
        .filter(|r| r.provenance.as_deref().is_some_and(|p| p.starts_with("UNWIND")))
        .map(|r| r.head.relation.as_str())
        .collect();
    let mut diags = Vec::new();
    for (index, rule) in program.rules.iter().enumerate() {
        if rule.provenance.as_deref().is_some_and(|p| p.starts_with("UNWIND")) {
            continue;
        }
        let groups = connected_atom_groups(rule, &unwind_rels);
        if groups > 1 {
            diags.push(at_rule(
                Diagnostic::new(
                    DiagCode::CartesianProduct,
                    format!(
                        "rule body joins {groups} groups of atoms that share no variables (cartesian product)"
                    ),
                )
                .with_suggestion(
                    "connect the groups with a shared variable or split the rule if the cross product is intended",
                ),
                rule,
                index,
            ));
        }
    }
    diags
}

/// Number of connected components among the rule's variable-carrying
/// positive atoms, where atoms connect through shared variables and through
/// constraints mentioning variables of both sides. Atoms over `exempt_rels`
/// (UNWIND-produced lists) are not counted as group members.
fn connected_atom_groups(rule: &Rule, exempt_rels: &BTreeSet<&str>) -> usize {
    // Union-find over variables: all variables of one atom or one constraint
    // are connected.
    let mut parent: BTreeMap<String, String> = BTreeMap::new();
    fn find(parent: &mut BTreeMap<String, String>, v: &str) -> String {
        let p = parent.entry(v.to_string()).or_insert_with(|| v.to_string()).clone();
        if p == v {
            return p;
        }
        let root = find(parent, &p);
        parent.insert(v.to_string(), root.clone());
        root
    }
    let union = |parent: &mut BTreeMap<String, String>, vars: &[String]| {
        let Some(first) = vars.first() else { return };
        let root = find(parent, first);
        for v in &vars[1..] {
            let r = find(parent, v);
            parent.insert(r, root.clone());
        }
    };
    for elem in &rule.body {
        union(&mut parent, &elem.variables());
    }

    let mut roots: BTreeSet<String> = BTreeSet::new();
    let mut grouped_atoms = 0usize;
    for elem in &rule.body {
        if let BodyElem::Atom(atom) = elem {
            if exempt_rels.contains(atom.relation.as_str()) {
                continue;
            }
            let vars = atom.variables();
            if let Some(first) = vars.first() {
                grouped_atoms += 1;
                let root = find(&mut parent, first);
                roots.insert(root);
            }
        }
    }
    if grouped_atoms < 2 {
        return roots.len().min(1);
    }
    roots.len()
}

/// RAQ005: column-type conflicts across the rules of one IDB, straight from
/// the dataflow pass.
pub fn lint_type_mismatches(program: &DlirProgram, flow: &Dataflow) -> Vec<Diagnostic> {
    flow.type_conflicts
        .iter()
        .map(|c| {
            let diag = Diagnostic::new(
                DiagCode::ColumnTypeMismatch,
                format!(
                    "rules of `{}` derive both {:?} and {:?} for column {}",
                    c.relation, c.expected, c.found, c.column
                ),
            )
            .with_suggestion("make every rule of the relation produce one column type");
            match program.rules.get(c.rule_index) {
                Some(rule) => at_rule(diag, rule, c.rule_index),
                None => diag.with_relation(c.relation.clone()),
            }
        })
        .collect()
}

/// RAQ006: rules that duplicate an earlier rule of the same relation up to
/// variable renaming (alpha-equivalence). The later rule is reported.
pub fn lint_duplicate_rules(program: &DlirProgram) -> Vec<Diagnostic> {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut diags = Vec::new();
    for (index, rule) in program.rules.iter().enumerate() {
        let canon = canonical_rule(rule);
        match seen.get(&canon) {
            Some(&first) => diags.push(at_rule(
                Diagnostic::new(
                    DiagCode::DuplicateRule,
                    format!(
                        "rule duplicates rule #{first} for `{}` (identical up to variable renaming)",
                        rule.head.relation
                    ),
                )
                .with_suggestion("remove the duplicate rule"),
                rule,
                index,
            )),
            None => {
                seen.insert(canon, index);
            }
        }
    }
    diags
}

/// Canonical rendering of a rule with variables renamed to `v0, v1, …` in
/// first-occurrence order (head first, then body in order).
fn canonical_rule(rule: &Rule) -> String {
    let mut order: Vec<String> = Vec::new();
    for t in &rule.head.terms {
        if let Term::Var(v) = t {
            collect_var(v, &mut order);
        }
    }
    for elem in &rule.body {
        for v in elem.variables() {
            collect_var(&v, &mut order);
        }
    }
    if let Some(agg) = &rule.aggregation {
        if let Some(v) = &agg.input_var {
            collect_var(v, &mut order);
        }
        collect_var(&agg.output_var, &mut order);
        for v in &agg.group_by {
            collect_var(v, &mut order);
        }
    }
    let canonical = |v: &str| order.iter().position(|o| o == v).map(|i| format!("v{i}"));
    let mut rename = |v: &str| canonical(v).map(Term::Var);
    let mut renamed = rule.clone();
    renamed.head.substitute(&mut rename);
    for elem in &mut renamed.body {
        elem.substitute(&mut rename);
    }
    if let Some(agg) = &mut renamed.aggregation {
        let vars = agg.input_var.iter_mut().chain([&mut agg.output_var]).chain(&mut agg.group_by);
        for v in vars {
            if let Some(name) = canonical(v) {
                *v = name;
            }
        }
    }
    renamed.to_string()
}

fn collect_var(v: &str, order: &mut Vec<String>) {
    if !order.iter().any(|o| o == v) {
        order.push(v.to_string());
    }
}

/// RAQ007: an output whose recursive derivation carries no constant
/// anywhere. Magic sets (and every other demand transformation) specialize
/// recursion around constants; without one, the full closure is
/// materialized. Fires once per affected output.
pub fn lint_unbound_outputs(program: &DlirProgram) -> Vec<Diagnostic> {
    if program.outputs.is_empty() || program.rules.is_empty() {
        return Vec::new();
    }
    let graph = DepGraph::build(program);
    let mut diags = Vec::new();
    for output in &program.outputs {
        // The cone: every relation the output depends on, plus itself.
        let mut cone: BTreeSet<String> = BTreeSet::new();
        let mut work = vec![output.clone()];
        while let Some(name) = work.pop() {
            if !cone.insert(name.clone()) {
                continue;
            }
            for rule in program.rules_for(&name) {
                for dep in rule.dependencies() {
                    work.push(dep.to_string());
                }
            }
        }
        let recursive = cone.iter().any(|r| graph.is_recursive(r));
        if !recursive {
            continue;
        }
        let has_constant =
            program.rules.iter().filter(|r| cone.contains(&r.head.relation)).any(rule_has_constant);
        if !has_constant {
            diags.push(
                Diagnostic::new(
                    DiagCode::UnboundOutputHead,
                    format!(
                        "recursive derivation of output `{output}` carries no constant: magic sets cannot specialize it and the full closure will be materialized"
                    ),
                )
                .with_relation(output.clone())
                .with_suggestion(
                    "bind a parameter or constant in the query so demand transformation can restrict the recursion",
                ),
            );
        }
    }
    diags
}

/// Does the rule mention any constant, in an atom term or a constraint?
fn rule_has_constant(rule: &Rule) -> bool {
    fn expr_has_const(e: &raqlet_dlir::ir::DlExpr) -> bool {
        match e {
            raqlet_dlir::ir::DlExpr::Const(_) => true,
            raqlet_dlir::ir::DlExpr::Var(_) => false,
            raqlet_dlir::ir::DlExpr::Arith { lhs, rhs, .. } => {
                expr_has_const(lhs) || expr_has_const(rhs)
            }
        }
    }
    rule.head.terms.iter().any(|t| matches!(t, Term::Const(_)))
        || rule.body.iter().any(|elem| match elem {
            BodyElem::Atom(a) | BodyElem::Negated(a) => {
                a.terms.iter().any(|t| matches!(t, Term::Const(_)))
            }
            BodyElem::Constraint { lhs, rhs, .. } => expr_has_const(lhs) || expr_has_const(rhs),
        })
}

/// RAQ008 (advisory, needs stats): a rule whose first positive atom scans a
/// large relation without any filter while a later atom is filtered or much
/// smaller. The engines join left to right within a body, so the leading
/// unfiltered scan drives the join.
pub fn lint_plan_order(program: &DlirProgram, stats: &EdbStats) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (index, rule) in program.rules.iter().enumerate() {
        let atoms: Vec<_> = rule.body.iter().filter_map(BodyElem::as_positive_atom).collect();
        if atoms.len() < 2 {
            continue;
        }
        let Some(first) = atoms.first() else { continue };
        let Some(first_stats) = stats.get(&first.relation) else { continue };
        if first_stats.rows < PLAN_LARGE_ROWS || atom_is_filtered(rule, first) {
            continue;
        }
        // A later atom that is filtered, or at least PLAN_SIZE_RATIO×
        // smaller, would make a cheaper driver.
        let better = atoms.iter().skip(1).find(|atom| {
            let filtered = atom_is_filtered(rule, atom);
            let smaller = stats
                .rows(&atom.relation)
                .is_some_and(|r| r.saturating_mul(PLAN_SIZE_RATIO) <= first_stats.rows);
            filtered || smaller
        });
        if let Some(better) = better {
            diags.push(at_rule(
                Diagnostic::new(
                    DiagCode::PlanUnfilteredFirst,
                    format!(
                        "join order scans `{}` ({} rows) unfiltered first; starting from `{}` ({}) would drive the join with less data",
                        first.relation,
                        first_stats.rows,
                        better.relation,
                        stats
                            .rows(&better.relation)
                            .map(|r| format!("{r} rows"))
                            .unwrap_or_else(|| "filtered".to_string()),
                    ),
                )
                .with_suggestion("reorder the body so a filtered or smaller relation comes first"),
                rule,
                index,
            ));
        }
    }
    diags
}

/// Is this atom filtered within the rule: a constant term, or one of its
/// variables pinned to a constant by an equality constraint?
fn atom_is_filtered(rule: &Rule, atom: &raqlet_dlir::ir::Atom) -> bool {
    if atom.terms.iter().any(|t| matches!(t, Term::Const(_))) {
        return true;
    }
    let vars: BTreeSet<String> = atom.variables().into_iter().collect();
    rule.body.iter().any(|elem| {
        if let BodyElem::Constraint { op: raqlet_dlir::ir::CmpOp::Eq, lhs, rhs } = elem {
            let const_side = matches!(lhs, raqlet_dlir::ir::DlExpr::Const(_))
                || matches!(rhs, raqlet_dlir::ir::DlExpr::Const(_));
            if !const_side {
                return false;
            }
            let mut cvars = Vec::new();
            lhs.variables(&mut cvars);
            rhs.variables(&mut cvars);
            cvars.iter().any(|v| vars.contains(v))
        } else {
            false
        }
    })
}

/// Attach rule provenance uniformly (mirrors the helper in DLIR validation).
fn at_rule(diag: Diagnostic, rule: &Rule, index: usize) -> Diagnostic {
    diag.with_relation(rule.head.relation.clone()).with_rule(
        index,
        rule.to_string(),
        rule.provenance.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::analyze_dataflow;
    use crate::stats::RelationStats;
    use raqlet_common::schema::{Column, DlSchema, RelationDecl, RelationKind};
    use raqlet_common::{Value, ValueType};
    use raqlet_dlir::ir::{Atom, CmpOp, DlExpr};

    fn schema() -> DlSchema {
        let mut s = DlSchema::new();
        s.add(RelationDecl::new(
            "edge",
            vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
            RelationKind::BaseTable,
        ))
        .unwrap();
        let mut person = RelationDecl::new(
            "person",
            vec![Column::new("id", ValueType::Int), Column::new("name", ValueType::Text)],
            RelationKind::NodeEdb,
        );
        person.key = vec![0];
        s.add(person).unwrap();
        s
    }

    #[test]
    fn unused_relation_is_flagged() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("out", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("orphan", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_output("out");
        let flow = analyze_dataflow(&p, None);
        let diags = lint_unused_relations(&p, &flow);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].relation.as_deref(), Some("orphan"));
    }

    #[test]
    fn key_bound_constant_conflict_never_fires() {
        // q(x) :- person(x, "Alice"), person(x, "Bob").
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::new(
                    "person",
                    vec![Term::var("x"), Term::Const(Value::str("Alice"))],
                )),
                BodyElem::Atom(Atom::new(
                    "person",
                    vec![Term::var("x"), Term::Const(Value::str("Bob"))],
                )),
            ],
        ));
        let flow = analyze_dataflow(&p, None);
        let diags = lint_never_firing(&p, &flow);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::NeverFiringRule);
        assert!(diags[0].message.contains("agree on the key"), "{}", diags[0].message);
    }

    #[test]
    fn cartesian_product_is_flagged_and_unwind_exempt() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "a"]),
            vec![
                BodyElem::Atom(Atom::with_vars("edge", &["x", "y"])),
                BodyElem::Atom(Atom::with_vars("person", &["a", "n"])),
            ],
        ));
        p.add_rule(
            Rule::new(
                Atom::with_vars("u", &["x", "a"]),
                vec![
                    BodyElem::Atom(Atom::with_vars("edge", &["x", "y"])),
                    BodyElem::Atom(Atom::with_vars("person", &["a", "n"])),
                ],
            )
            .with_provenance("UNWIND #1"),
        );
        let diags = lint_cartesian_products(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule_index, Some(0));
    }

    #[test]
    fn constraint_connected_atoms_are_not_cartesian() {
        // q(x, a) :- edge(x, y), person(a, n), a = y.
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "a"]),
            vec![
                BodyElem::Atom(Atom::with_vars("edge", &["x", "y"])),
                BodyElem::Atom(Atom::with_vars("person", &["a", "n"])),
                BodyElem::eq(DlExpr::var("a"), DlExpr::var("y")),
            ],
        ));
        assert!(lint_cartesian_products(&p).is_empty());
    }

    #[test]
    fn duplicate_rules_up_to_renaming_are_flagged() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["a", "b"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["a", "b"]))],
        ));
        let diags = lint_duplicate_rules(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule_index, Some(1));
        assert!(diags[0].message.contains("rule #0"));
    }

    #[test]
    fn different_rules_are_not_duplicates() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["y", "x"]))],
        ));
        assert!(lint_duplicate_rules(&p).is_empty());
    }

    #[test]
    fn unbound_recursive_output_is_flagged() {
        // tc with no constants anywhere.
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![
                BodyElem::Atom(Atom::with_vars("tc", &["x", "z"])),
                BodyElem::Atom(Atom::with_vars("edge", &["z", "y"])),
            ],
        ));
        p.add_output("tc");
        let diags = lint_unbound_outputs(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::UnboundOutputHead);
    }

    #[test]
    fn constant_in_cone_suppresses_unbound_output() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![
                BodyElem::Atom(Atom::with_vars("edge", &["x", "y"])),
                BodyElem::eq(DlExpr::var("x"), DlExpr::int(1001)),
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![
                BodyElem::Atom(Atom::with_vars("tc", &["x", "z"])),
                BodyElem::Atom(Atom::with_vars("edge", &["z", "y"])),
            ],
        ));
        p.add_output("tc");
        assert!(lint_unbound_outputs(&p).is_empty());
    }

    #[test]
    fn non_recursive_outputs_are_not_flagged() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_output("q");
        assert!(lint_unbound_outputs(&p).is_empty());
    }

    #[test]
    fn plan_lint_flags_large_unfiltered_first_atom() {
        // q(n) :- person(p, n), edge(p, f), f = 7.   person large, edge filtered.
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["n"]),
            vec![
                BodyElem::Atom(Atom::with_vars("person", &["p", "n"])),
                BodyElem::Atom(Atom::with_vars("edge", &["p", "f"])),
                BodyElem::eq(DlExpr::var("f"), DlExpr::int(7)),
            ],
        ));
        let mut stats = EdbStats::new();
        stats.insert("person", RelationStats { rows: 100_000, distinct: vec![100_000, 40_000] });
        stats.insert("edge", RelationStats { rows: 90_000, distinct: vec![50_000, 50_000] });
        let diags = lint_plan_order(&p, &stats);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::PlanUnfilteredFirst);
        assert!(diags[0].message.contains("person"), "{}", diags[0].message);
    }

    #[test]
    fn plan_lint_quiet_when_first_atom_filtered_or_small() {
        let mut p = DlirProgram::new(schema());
        // Filtered first atom: quiet.
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["n"]),
            vec![
                BodyElem::Atom(Atom::new("person", vec![Term::int(5), Term::var("n")])),
                BodyElem::Atom(Atom::with_vars("edge", &["p", "f"])),
            ],
        ));
        // Small first atom: quiet.
        p.add_rule(Rule::new(
            Atom::with_vars("r", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("edge", &["x", "y"])),
                BodyElem::Atom(Atom::with_vars("person", &["x", "n"])),
            ],
        ));
        let mut stats = EdbStats::new();
        stats.insert("person", RelationStats { rows: 100_000, distinct: vec![100_000, 40_000] });
        stats.insert("edge", RelationStats { rows: 500, distinct: vec![300, 300] });
        assert!(lint_plan_order(&p, &stats).is_empty());
    }

    #[test]
    fn never_firing_via_false_comparison() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("edge", &["x", "y"])),
                BodyElem::Constraint { op: CmpOp::Lt, lhs: DlExpr::int(5), rhs: DlExpr::int(2) },
            ],
        ));
        let flow = analyze_dataflow(&p, None);
        let diags = lint_never_firing(&p, &flow);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("always false"), "{}", diags[0].message);
    }
}
