//! Rule inlining (Section 5, "Inlining").
//!
//! An IDB atom in a rule body is replaced by the body of the rule defining
//! it, after renaming the definition's variables ([`instantiate`]): head
//! variables map onto the caller's argument terms, every other variable —
//! and a head variable whose argument is `_` — gets a fresh name. Inlining
//! is performed only when it is semantics-preserving and non-exploding:
//!
//! * the callee must not be recursive;
//! * the callee must not aggregate;
//! * the callee must not be referenced under negation at the call site;
//! * the callee is defined by a bounded number of rules (each definition
//!   multiplies the caller).
//!
//! After substitution, exact duplicate body atoms are removed — this is what
//! turns the paper's Figure 3d into Figure 4a (the duplicated `Person` atom
//! in `Where1` disappears).

use raqlet_dlir::{instantiate, Atom, BodyElem, DepGraph, DlirProgram, Rule};

/// Maximum number of defining rules a callee may have to still be inlined
/// (each definition multiplies the calling rule).
const MAX_DEFINITIONS: usize = 4;

/// Maximum number of inlining sweeps (each sweep inlines one level).
const MAX_ROUNDS: usize = 8;

/// Run the inlining pass in place. Returns whether any change was made.
pub fn inline(program: &mut DlirProgram) -> bool {
    let mut changed = false;
    for _ in 0..MAX_ROUNDS {
        if !inline_once(program) {
            break;
        }
        changed = true;
    }
    changed
}

fn inline_once(program: &mut DlirProgram) -> bool {
    let graph = DepGraph::build(program);
    // Inline the first inlinable atom in each rule; later sweeps handle the
    // rest.
    let expansions: Vec<(usize, Vec<Rule>)> = program
        .rules
        .iter()
        .enumerate()
        .filter_map(|(i, rule)| {
            let idx = rule.body.iter().position(|elem| {
                matches!(elem, BodyElem::Atom(atom) if inlinable(program, &graph, rule, atom))
            })?;
            let BodyElem::Atom(call) = &rule.body[idx] else { return None };
            let expanded = program
                .rules_for(&call.relation)
                .into_iter()
                .map(|def| expand_call(rule, idx, instantiate(def, call, rule, "_i")))
                .collect();
            Some((i, expanded))
        })
        .collect();
    replace_rules(&mut program.rules, expansions)
}

/// Is `atom` a call site we can inline into `caller`?
fn inlinable(program: &DlirProgram, graph: &DepGraph, caller: &Rule, atom: &Atom) -> bool {
    let name = &atom.relation;
    if !program.is_idb(name) {
        return false;
    }
    if graph.is_recursive(name)
        || graph.is_recursive(&caller.head.relation) && name == &caller.head.relation
    {
        return false;
    }
    let defs = program.rules_for(name);
    if defs.is_empty() || defs.len() > MAX_DEFINITIONS {
        return false;
    }
    if defs.iter().any(|d| d.aggregation.is_some()) {
        return false;
    }
    // Arity must line up (otherwise the program is ill-formed; leave it to
    // validation).
    if defs.iter().any(|d| d.head.arity() != atom.arity()) {
        return false;
    }
    // Substitution maps the definition's head *variables* onto the call
    // arguments, so every head term must be a distinct variable: a constant
    // head term (a fact such as a magic seed or an UNWIND list entry) or a
    // repeated variable (`p(x, x)`) carries a binding the substitution would
    // silently drop, changing the rule's meaning.
    if defs.iter().any(|d| {
        let vars = d.head.variables();
        vars.len() != d.head.arity()
    }) {
        return false;
    }
    true
}

/// `caller` with the body element at `idx` replaced by `body`, minus exact
/// duplicate body elements.
pub(crate) fn expand_call(caller: &Rule, idx: usize, body: Vec<BodyElem>) -> Rule {
    let mut rule = caller.clone();
    rule.body.splice(idx..=idx, body);
    dedup_body(&mut rule.body);
    rule
}

/// Replace each rule `rules[i]` by the rules of its expansion `(i, ..)`,
/// keeping the order. `expansions` is sorted by index. Returns whether
/// there was anything to replace.
pub(crate) fn replace_rules(rules: &mut Vec<Rule>, expansions: Vec<(usize, Vec<Rule>)>) -> bool {
    let changed = !expansions.is_empty();
    for (i, expanded) in expansions.into_iter().rev() {
        rules.splice(i..=i, expanded);
    }
    changed
}

/// Remove exact duplicate body elements (e.g. the duplicated `Person` atom
/// after inlining in the paper's running example).
fn dedup_body(body: &mut Vec<BodyElem>) {
    let mut seen: Vec<BodyElem> = Vec::new();
    body.retain(|elem| {
        if seen.contains(elem) {
            false
        } else {
            seen.push(elem.clone());
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{CmpOp, DlExpr, Term};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    /// Build the paper's running example (Figure 3d): Match1, Where1, Return.
    fn figure3d() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("Match1", &["n", "x1", "p"]),
            vec![
                atom("Person_IS_LOCATED_IN_City", &["n", "p", "x1"]),
                atom("Person", &["n"]),
                atom("City", &["p"]),
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Where1", &["n", "x1", "p"]),
            vec![
                atom("Match1", &["n", "x1", "p"]),
                atom("Person", &["n"]),
                BodyElem::Constraint { op: CmpOp::Eq, lhs: DlExpr::var("n"), rhs: DlExpr::int(42) },
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["firstName", "cityId"]),
            vec![
                atom("Where1", &["n", "x1", "p"]),
                atom("PersonName", &["n", "firstName"]),
                atom("City", &["p"]),
                BodyElem::Constraint {
                    op: CmpOp::Eq,
                    lhs: DlExpr::var("p"),
                    rhs: DlExpr::var("cityId"),
                },
            ],
        ));
        p.add_output("Return");
        p
    }

    #[test]
    fn inlining_the_running_example_matches_figure4a() {
        let p = figure3d();
        let mut inlined = p.clone();
        let changed = inline(&mut inlined);
        assert!(changed);
        // After full inlining, the Return rule no longer references Where1 or
        // Match1.
        let ret = inlined.rules_for("Return")[0];
        assert!(!ret.positive_dependencies().contains(&"Where1"));
        assert!(!ret.positive_dependencies().contains(&"Match1"));
        assert!(ret.positive_dependencies().contains(&"Person_IS_LOCATED_IN_City"));
        // The n = 42 filter survived inlining.
        assert!(ret.body.iter().any(|b| b.to_string() == "n = 42"), "{ret}");
        // And the duplicated Person atom was removed.
        assert_eq!(ret.count_positive("Person"), 1);
    }

    #[test]
    fn duplicate_atoms_are_removed_after_inlining() {
        let p = figure3d();
        let mut inlined = p.clone();
        inline(&mut inlined);
        // Where1 inlines Match1, which mentions Person(n); Where1 already
        // mentions Person(n) — only one copy remains (Figure 4a).
        let where1 = inlined.rules_for("Where1")[0];
        assert_eq!(where1.count_positive("Person"), 1);
    }

    #[test]
    fn recursive_relations_are_never_inlined() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("tc", &["x", "y"])]));
        p.add_output("q");
        let mut inlined = p.clone();
        let changed = inline(&mut inlined);
        assert!(!changed);
        assert_eq!(inlined.rules.len(), p.rules.len());
    }

    #[test]
    fn multi_definition_idbs_multiply_the_caller() {
        // v(x) :- a(x).   v(x) :- b(x).   q(x) :- v(x), c(x).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("v", &["x"]), vec![atom("a", &["x"])]));
        p.add_rule(Rule::new(Atom::with_vars("v", &["x"]), vec![atom("b", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![atom("v", &["x"]), atom("c", &["x"])],
        ));
        p.add_output("q");
        let mut inlined = p.clone();
        let changed = inline(&mut inlined);
        assert!(changed);
        let q_rules = inlined.rules_for("q");
        assert_eq!(q_rules.len(), 2);
        assert!(q_rules[0].positive_dependencies().contains(&"a"));
        assert!(q_rules[1].positive_dependencies().contains(&"b"));
    }

    #[test]
    fn inlining_respects_max_definitions() {
        let mut p = DlirProgram::default();
        for base in ["a", "b", "c", "d", "e"] {
            p.add_rule(Rule::new(Atom::with_vars("v", &["x"]), vec![atom(base, &["x"])]));
        }
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("v", &["x"])]));
        p.add_output("q");
        let changed = inline(&mut p);
        assert!(!changed, "five definitions exceed the limit of four");
    }

    #[test]
    fn aggregating_rules_are_not_inlined() {
        use raqlet_dlir::{AggFunc, Aggregation};
        let mut p = DlirProgram::default();
        let mut deg =
            Rule::new(Atom::with_vars("deg", &["x", "d"]), vec![atom("edge", &["x", "y"])]);
        deg.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "d".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(deg);
        p.add_rule(Rule::new(Atom::with_vars("q", &["x", "d"]), vec![atom("deg", &["x", "d"])]));
        p.add_output("q");
        let changed = inline(&mut p);
        assert!(!changed);
    }

    #[test]
    fn constant_head_facts_are_never_inlined() {
        // seed(1).   q(x, y) :- seed(x), e(x, y).
        // Inlining the fact would substitute nothing (its head has no
        // variables) and silently delete the `x = 1` restriction along with
        // the binding of `x` — exactly what a magic seed or an UNWIND list
        // entry looks like.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::new("seed", vec![Term::int(1)]), vec![]));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "y"]),
            vec![atom("seed", &["x"]), atom("e", &["x", "y"])],
        ));
        p.add_output("q");
        let mut inlined = p.clone();
        let changed = inline(&mut inlined);
        assert!(!changed);
        assert!(inlined.rules_for("q")[0].positive_dependencies().contains(&"seed"));
    }

    #[test]
    fn repeated_head_variables_are_never_inlined() {
        // refl(x, x) :- node(x).   q(a, b) :- refl(a, b).
        // Mapping head vars onto call args would drop the a = b constraint.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("refl", &["x", "x"]), vec![atom("node", &["x"])]));
        p.add_rule(Rule::new(Atom::with_vars("q", &["a", "b"]), vec![atom("refl", &["a", "b"])]));
        p.add_output("q");
        let changed = inline(&mut p);
        assert!(!changed);
    }

    #[test]
    fn constants_at_call_sites_are_propagated_into_the_definition() {
        // v(x, y) :- e(x, y).     q(y) :- v(7, y).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("v", &["x", "y"]), vec![atom("e", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![BodyElem::Atom(Atom::new("v", vec![Term::int(7), Term::var("y")]))],
        ));
        p.add_output("q");
        let mut inlined = p.clone();
        inline(&mut inlined);
        let q = inlined.rules_for("q")[0];
        assert_eq!(q.body[0].to_string(), "e(7, y)");
    }

    #[test]
    fn local_variables_are_renamed_to_avoid_capture() {
        // v(x) :- e(x, z).    q(x, z) :- v(x), f(z).
        // The z inside v's body must not collide with the caller's z.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("v", &["x"]), vec![atom("e", &["x", "z"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "z"]),
            vec![atom("v", &["x"]), atom("f", &["z"])],
        ));
        p.add_output("q");
        let mut inlined = p.clone();
        inline(&mut inlined);
        let q = inlined.rules_for("q")[0];
        let e_atom =
            q.body.iter().filter_map(|b| b.as_positive_atom()).find(|a| a.relation == "e").unwrap();
        assert_ne!(e_atom.terms[1], Term::var("z"), "callee-local z must be renamed");
    }
}
