//! Magic-set transformation (Section 5, "Pushing Operators Past Recursion").
//!
//! When a rule consumes a recursive IDB with one or more arguments bound to
//! constants (directly, or through an equality constraint in the same rule),
//! computing the *whole* IDB and filtering afterwards wastes work. The
//! magic-set transformation restricts the recursive computation to the tuples
//! relevant to those bindings:
//!
//! 1. a *magic* predicate `Magic_<P>_<adornment>` is introduced holding the
//!    bound argument values;
//! 2. it is seeded with the constants found at the call site;
//! 3. every rule defining `P` gets the magic predicate added to its body
//!    (joined on the bound head arguments);
//! 4. for the recursive body atoms of `P`, additional magic rules propagate
//!    the bindings sideways (for the common left-linear case the propagation
//!    is the identity and folds away).
//!
//! The implementation purposely targets the patterns Raqlet's own lowering
//! generates — linear recursion with the bound argument kept in the same head
//! position — which covers reachability-from-a-source and the LDBC
//! variable-length queries. Programs outside that fragment are returned
//! unchanged.

use raqlet_common::Value;
use raqlet_dlir::{Atom, BodyElem, CmpOp, DepGraph, DlExpr, DlirProgram, Rule, Term};

/// A magic-set candidate: target IDB relation, and the bound argument
/// positions with their constant values.
type CallSite = (String, Vec<(usize, Value)>);

/// Apply the magic-set transformation in place. Returns whether anything
/// changed.
pub fn magic_sets(program: &mut DlirProgram) -> bool {
    let graph = DepGraph::build(program);

    let mut candidates: Vec<CallSite> = Vec::new();
    for rule in &program.rules {
        // Constants available through equality constraints in this rule.
        let const_of = |var: &str| -> Option<Value> {
            rule.body.iter().find_map(|b| match b {
                BodyElem::Constraint { op: CmpOp::Eq, lhs, rhs } => match (lhs, rhs) {
                    (DlExpr::Var(v), DlExpr::Const(c)) | (DlExpr::Const(c), DlExpr::Var(v))
                        if v == var =>
                    {
                        Some(c.clone())
                    }
                    _ => None,
                },
                _ => None,
            })
        };
        for elem in &rule.body {
            let Some(atom) = elem.as_positive_atom() else { continue };
            if !graph.is_recursive(&atom.relation) {
                continue;
            }
            // The consumer must not itself be part of the same recursion.
            if graph.scc_of(&atom.relation).contains(&rule.head.relation) {
                continue;
            }
            let mut bound = Vec::new();
            for (i, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(c) => bound.push((i, c.clone())),
                    Term::Var(v) => {
                        if let Some(c) = const_of(v) {
                            bound.push((i, c.clone()));
                        }
                    }
                    Term::Wildcard => {}
                }
            }
            if !bound.is_empty() {
                candidates.push((atom.relation.clone(), bound));
            }
        }
    }

    // Apply the transformation for the first eligible target (iterating the
    // optimizer pipeline handles multiple targets).
    let Some((target, (magic_name, bound))) = candidates.into_iter().find_map(|(target, bound)| {
        eligible_binding(program, &graph, &target, &bound).map(|found| (target, found))
    }) else {
        return false;
    };

    // Seed rule: Magic_P(c1, ..., ck).
    let seed = Rule::new(
        Atom::new(magic_name.clone(), bound.iter().map(|(_, c)| Term::Const(c.clone())).collect()),
        vec![],
    );
    // Guard every defining rule with the magic predicate joined on the
    // bound head arguments.
    for rule in program.rules.iter_mut().filter(|r| r.head.relation == target) {
        let magic_atom = Atom::new(
            magic_name.clone(),
            bound.iter().map(|(i, _)| rule.head.terms[*i].clone()).collect(),
        );
        rule.body.insert(0, BodyElem::Atom(magic_atom));
    }
    program.rules.insert(0, seed);
    true
}

fn adornment(arity: usize, bound: &[(usize, Value)]) -> String {
    (0..arity).map(|i| if bound.iter().any(|(b, _)| *b == i) { 'b' } else { 'f' }).collect()
}

/// Check eligibility of `target`: the magic predicate's name and the bound
/// positions that propagate through the recursion.
fn eligible_binding(
    program: &DlirProgram,
    graph: &DepGraph,
    target: &str,
    bound: &[(usize, Value)],
) -> Option<(String, Vec<(usize, Value)>)> {
    let defs = program.rules_for(target);
    if defs.is_empty() {
        return None;
    }
    // Eligibility: linear recursion, no aggregation, no negation on the
    // recursive atom, and in every recursive rule the bound head positions
    // carry plain variables that also appear (in the same positions) in the
    // recursive body atom — i.e. the binding propagates unchanged (left- or
    // right-linear chains both satisfy this for reachability-style rules on
    // at least one bound column).
    let mut propagating_positions: Vec<usize> = bound.iter().map(|(i, _)| *i).collect();
    for def in &defs {
        if def.aggregation.is_some() {
            return None;
        }
        let recursive_atoms: Vec<&Atom> = def
            .body
            .iter()
            .filter_map(|b| b.as_positive_atom())
            .filter(|a| graph.scc_of(target).contains(&a.relation))
            .collect();
        if recursive_atoms.len() > 1 {
            return None;
        }
        if let Some(rec) = recursive_atoms.first() {
            if rec.relation != *target {
                // Mutual recursion: out of scope for this implementation.
                return None;
            }
            propagating_positions.retain(|&i| match (def.head.terms.get(i), rec.terms.get(i)) {
                (Some(Term::Var(h)), Some(Term::Var(b))) => h == b,
                _ => false,
            });
        }
    }
    if propagating_positions.is_empty() {
        return None;
    }
    let bound: Vec<(usize, Value)> =
        bound.iter().filter(|(i, _)| propagating_positions.contains(i)).cloned().collect();

    let target_arity = defs[0].head.arity();
    let magic_name = format!("Magic_{}_{}", target, adornment(target_arity, &bound));
    if program.is_idb(&magic_name) {
        // Already transformed.
        return None;
    }

    Some((magic_name, bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    /// tc(x, y) :- edge(x, y).
    /// tc(x, y) :- tc(x, z), edge(z, y).
    /// Return(y) :- tc(x, y), x = 1.
    fn reachability_from_source() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["y"]),
            vec![atom("tc", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(1))],
        ));
        p.add_output("Return");
        p
    }

    #[test]
    fn reachability_from_a_constant_source_is_transformed() {
        let mut out = reachability_from_source();
        let changed = magic_sets(&mut out);
        assert!(changed);
        // A magic predicate with adornment bf exists and is seeded with 1.
        let magic_rules = out.rules_for("Magic_tc_bf");
        assert_eq!(magic_rules.len(), 1);
        assert_eq!(magic_rules[0].to_string(), "Magic_tc_bf(1).");
        // Every tc rule is guarded by the magic predicate.
        for rule in out.rules_for("tc") {
            assert!(rule.positive_dependencies().contains(&"Magic_tc_bf"), "{rule}");
        }
        // The consumer rule is untouched.
        let ret = out.rules_for("Return")[0];
        assert!(ret.positive_dependencies().contains(&"tc"));
    }

    #[test]
    fn constant_directly_in_the_atom_is_also_detected() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["y"]),
            vec![BodyElem::Atom(Atom::new("tc", vec![Term::int(7), Term::var("y")]))],
        ));
        p.add_output("Return");
        let mut out = p;
        let changed = magic_sets(&mut out);
        assert!(changed);
        assert_eq!(out.rules_for("Magic_tc_bf")[0].to_string(), "Magic_tc_bf(7).");
    }

    #[test]
    fn unbound_uses_are_left_alone() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["x", "y"]),
            vec![atom("tc", &["x", "y"])],
        ));
        p.add_output("Return");
        let changed = magic_sets(&mut p);
        assert!(!changed);
    }

    #[test]
    fn binding_on_a_non_propagating_position_is_skipped() {
        // Right-linear recursion where the bound position is the one being
        // rewritten: tc(x, y) :- edge(x, z), tc(z, y) with x bound — the
        // binding does not propagate through the head position, so the
        // transformation must refuse (x of the recursive atom differs).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("edge", &["x", "z"]), atom("tc", &["z", "y"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["y"]),
            vec![atom("tc", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(1))],
        ));
        p.add_output("Return");
        let changed = magic_sets(&mut p);
        assert!(!changed);
    }

    #[test]
    fn non_linear_recursion_is_skipped() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["y"]),
            vec![atom("tc", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(1))],
        ));
        p.add_output("Return");
        let changed = magic_sets(&mut p);
        assert!(!changed);
    }

    #[test]
    fn transformation_is_idempotent() {
        let mut program = reachability_from_source();
        assert!(magic_sets(&mut program));
        let once = program.clone();
        let changed_again = magic_sets(&mut program);
        assert_eq!(program, once);
        assert!(!changed_again);
    }

    #[test]
    fn both_endpoints_bound_produces_bb_adornment() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["x", "y"]),
            vec![
                atom("tc", &["x", "y"]),
                BodyElem::eq(DlExpr::var("x"), DlExpr::int(1)),
                BodyElem::eq(DlExpr::var("y"), DlExpr::int(9)),
            ],
        ));
        p.add_output("Return");
        let mut out = p;
        let changed = magic_sets(&mut out);
        assert!(changed);
        // Only the source position propagates through the recursion (y is
        // rewritten by the recursive rule), so the adornment stays `bf`.
        assert!(out.is_idb("Magic_tc_bf"));
    }
}
