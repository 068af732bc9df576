//! Rule inlining (Section 5, "Inlining").
//!
//! An IDB atom in a rule body is replaced by the body of the rule defining
//! it, after renaming the definition's variables: head variables map onto the
//! caller's argument terms, every other variable gets a fresh name. Inlining
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

use std::collections::HashMap;

use raqlet_dlir::{Atom, BodyElem, DepGraph, DlExpr, DlirProgram, Rule, Term};

/// Configuration for the inlining pass.
#[derive(Debug, Clone)]
pub struct InlineConfig {
    /// Maximum number of defining rules a callee may have to still be
    /// inlined (each definition multiplies the calling rule).
    pub max_definitions: usize,
    /// Maximum number of inlining sweeps (each sweep inlines one level).
    pub max_rounds: usize,
}

impl Default for InlineConfig {
    fn default() -> Self {
        InlineConfig { max_definitions: 4, max_rounds: 8 }
    }
}

/// Run the inlining pass, returning the rewritten program and whether any
/// change was made.
pub fn inline(program: &DlirProgram, config: &InlineConfig) -> (DlirProgram, bool) {
    let mut current = program.clone();
    let mut changed_any = false;
    for _ in 0..config.max_rounds {
        let (next, changed) = inline_once(&current, config);
        current = next;
        if !changed {
            break;
        }
        changed_any = true;
    }
    (current, changed_any)
}

fn inline_once(program: &DlirProgram, config: &InlineConfig) -> (DlirProgram, bool) {
    let graph = DepGraph::build(program);
    let mut out = DlirProgram::new(program.schema.clone());
    out.outputs = program.outputs.clone();
    out.annotations = program.annotations.clone();

    let mut changed = false;
    for rule in &program.rules {
        let mut expanded = vec![rule.clone()];
        // Try to inline the first inlinable atom in each rule; iterating the
        // pass handles the rest.
        let target = rule.body.iter().enumerate().find_map(|(i, elem)| match elem {
            BodyElem::Atom(atom) if inlinable(program, &graph, rule, atom, config) => Some(i),
            _ => None,
        });
        if let Some(idx) = target {
            let BodyElem::Atom(call) = &rule.body[idx] else { unreachable!() };
            let definitions = program.rules_for(&call.relation);
            let mut new_rules = Vec::new();
            for def in definitions {
                let mut new_rule = rule.clone();
                let substituted = substitute_body(def, call, rule);
                new_rule.body.splice(idx..=idx, substituted);
                dedup_body(&mut new_rule.body);
                new_rules.push(new_rule);
            }
            expanded = new_rules;
            changed = true;
        }
        for r in expanded {
            out.add_rule(r);
        }
    }
    (out, changed)
}

/// Is `atom` a call site we can inline into `caller`?
fn inlinable(
    program: &DlirProgram,
    graph: &DepGraph,
    caller: &Rule,
    atom: &Atom,
    config: &InlineConfig,
) -> bool {
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
    if defs.is_empty() || defs.len() > config.max_definitions {
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

/// Instantiate the body of `def` for the call site `call` occurring in
/// `caller`: head variables of `def` are replaced by the corresponding call
/// arguments, all other variables are renamed to avoid capture.
fn substitute_body(def: &Rule, call: &Atom, caller: &Rule) -> Vec<BodyElem> {
    // Mapping from the definition's head variables to the caller's terms.
    let mut mapping: HashMap<String, Term> = HashMap::new();
    for (def_term, call_term) in def.head.terms.iter().zip(&call.terms) {
        if let Term::Var(v) = def_term {
            mapping.insert(v.clone(), call_term.clone());
        }
    }
    // Variables already used in the caller (to avoid capture when renaming
    // the definition's local variables).
    let mut used: Vec<String> = Vec::new();
    for elem in &caller.body {
        used.extend(elem.variables());
    }
    used.extend(caller.head.variables());

    let mut local_renames: HashMap<String, String> = HashMap::new();
    let mut fresh_idx = 0usize;
    let mut map_term =
        |t: &Term, mapping: &HashMap<String, Term>, local: &mut HashMap<String, String>| -> Term {
            match t {
                Term::Var(v) => {
                    if let Some(replacement) = mapping.get(v) {
                        replacement.clone()
                    } else {
                        let name = local.entry(v.clone()).or_insert_with(|| loop {
                            let candidate = format!("{v}_i{fresh_idx}");
                            fresh_idx += 1;
                            if !used.contains(&candidate) {
                                used.push(candidate.clone());
                                break candidate;
                            }
                        });
                        Term::Var(name.clone())
                    }
                }
                other => other.clone(),
            }
        };

    let map_expr = |e: &DlExpr,
                    mapping: &HashMap<String, Term>,
                    local: &HashMap<String, String>|
     -> DlExpr { rename_expr(e, mapping, local) };

    let mut out = Vec::new();
    for elem in &def.body {
        let new_elem = match elem {
            BodyElem::Atom(a) => BodyElem::Atom(Atom::new(
                a.relation.clone(),
                a.terms.iter().map(|t| map_term(t, &mapping, &mut local_renames)).collect(),
            )),
            BodyElem::Negated(a) => BodyElem::Negated(Atom::new(
                a.relation.clone(),
                a.terms.iter().map(|t| map_term(t, &mapping, &mut local_renames)).collect(),
            )),
            BodyElem::Constraint { op, lhs, rhs } => {
                // Ensure variables in constraints get renamed consistently:
                // first walk them as terms so `local_renames` is populated.
                let mut vars = Vec::new();
                lhs.variables(&mut vars);
                rhs.variables(&mut vars);
                for v in vars {
                    let _ = map_term(&Term::Var(v), &mapping, &mut local_renames);
                }
                BodyElem::Constraint {
                    op: *op,
                    lhs: map_expr(lhs, &mapping, &local_renames),
                    rhs: map_expr(rhs, &mapping, &local_renames),
                }
            }
        };
        out.push(new_elem);
    }
    out
}

fn rename_expr(
    e: &DlExpr,
    mapping: &HashMap<String, Term>,
    local: &HashMap<String, String>,
) -> DlExpr {
    match e {
        DlExpr::Var(v) => {
            if let Some(t) = mapping.get(v) {
                match t {
                    Term::Var(name) => DlExpr::Var(name.clone()),
                    Term::Const(c) => DlExpr::Const(c.clone()),
                    Term::Wildcard => DlExpr::Var(v.clone()),
                }
            } else if let Some(renamed) = local.get(v) {
                DlExpr::Var(renamed.clone())
            } else {
                DlExpr::Var(v.clone())
            }
        }
        DlExpr::Const(c) => DlExpr::Const(c.clone()),
        DlExpr::Arith { op, lhs, rhs } => DlExpr::Arith {
            op: *op,
            lhs: Box::new(rename_expr(lhs, mapping, local)),
            rhs: Box::new(rename_expr(rhs, mapping, local)),
        },
    }
}

/// Remove exact duplicate body elements (e.g. the duplicated `Person` atom
/// after inlining in the paper's running example).
pub fn dedup_body(body: &mut Vec<BodyElem>) {
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
    use raqlet_dlir::{CmpOp, Term};

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
        let (inlined, changed) = inline(&p, &InlineConfig::default());
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
        let (inlined, _) = inline(&p, &InlineConfig::default());
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
        let (inlined, changed) = inline(&p, &InlineConfig::default());
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
        let (inlined, changed) = inline(&p, &InlineConfig::default());
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
        let config = InlineConfig { max_definitions: 4, ..Default::default() };
        let (_, changed) = inline(&p, &config);
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
        let (_, changed) = inline(&p, &InlineConfig::default());
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
        let (inlined, changed) = inline(&p, &InlineConfig::default());
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
        let (_, changed) = inline(&p, &InlineConfig::default());
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
        let (inlined, _) = inline(&p, &InlineConfig::default());
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
        let (inlined, _) = inline(&p, &InlineConfig::default());
        let q = inlined.rules_for("q")[0];
        let e_atom =
            q.body.iter().filter_map(|b| b.as_positive_atom()).find(|a| a.relation == "e").unwrap();
        assert_ne!(e_atom.terms[1], Term::var("z"), "callee-local z must be renamed");
    }
}
