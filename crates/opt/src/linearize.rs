//! Linearization of non-linear recursive rules.
//!
//! The classic non-linear transitive closure
//!
//! ```text
//! tc(x, y) :- edge(x, y).
//! tc(x, y) :- tc(x, z), tc(z, y).
//! ```
//!
//! produces the same least model as the left-linear version
//!
//! ```text
//! tc(x, y) :- edge(x, y).
//! tc(x, y) :- tc(x, z), edge(z, y).
//! ```
//!
//! when the second recursive atom can be replaced by the predicate's
//! non-recursive (base) definition — the well-known linearization rewrite the
//! paper cites ([Troy, Yu, Zhang 1989]). Linear recursion avoids the costly
//! self-join of two recursive relations and is the only form recursive CTE
//! backends accept.
//!
//! The pass handles the common chain pattern: a rule whose body consists of
//! exactly two positive atoms over the head's own relation (plus optional
//! constraints), where the predicate also has at least one non-recursive
//! rule. The second recursive atom is replaced by each base rule's body
//! (instantiated at the call as in inlining, with fresh names suffixed
//! `_l`), yielding one linear rule per base rule.

use raqlet_dlir::{instantiate, BodyElem, DepGraph, DlirProgram, Rule};

use crate::inline::{expand_call, replace_rules};

/// Linearize non-linear recursive rules where possible, in place. Returns
/// whether anything changed.
pub fn linearize(program: &mut DlirProgram) -> bool {
    let graph = DepGraph::build(program);
    let expansions: Vec<(usize, Vec<Rule>)> = program
        .rules
        .iter()
        .enumerate()
        .filter_map(|(i, rule)| {
            let head_rel = &rule.head.relation;
            if !graph.is_recursive(head_rel) || rule.aggregation.is_some() {
                return None;
            }
            // Positions of body atoms that reference the head relation itself.
            let recursive_positions: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter_map(|(pos, b)| match b.as_positive_atom() {
                    Some(a) if a.relation == *head_rel => Some(pos),
                    _ => None,
                })
                .collect();
            if recursive_positions.len() != 2 {
                return None;
            }
            // Base (non-recursive) rules of the same predicate.
            let base_rules: Vec<&Rule> = program
                .rules_for(head_rel)
                .into_iter()
                .filter(|r| r.count_positive(head_rel) == 0 && r.aggregation.is_none())
                .collect();
            // Instantiation maps head variables onto the call's arguments,
            // so a constant or repeated head variable (`tc(x, x) :- node(x).`)
            // would lose its binding: leave such a predicate alone, as
            // inlining does.
            if base_rules.is_empty()
                || base_rules.iter().any(|r| r.head.variables().len() != r.head.arity())
            {
                return None;
            }
            // Replace the *second* recursive atom with each base definition.
            let replace_at = recursive_positions[1];
            let BodyElem::Atom(call) = &rule.body[replace_at] else { return None };
            let expanded = base_rules
                .into_iter()
                .map(|base| expand_call(rule, replace_at, instantiate(base, call, rule, "_l")))
                .collect();
            Some((i, expanded))
        })
        .collect();
    replace_rules(&mut program.rules, expansions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_analysis::{analyze, Linearity};
    use raqlet_dlir::{Atom, Term};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    fn nonlinear_tc() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
        ));
        p.add_output("tc");
        p
    }

    #[test]
    fn nonlinear_tc_becomes_linear() {
        let mut out = nonlinear_tc();
        let changed = linearize(&mut out);
        assert!(changed);
        assert_eq!(analyze(&out).linearity, Linearity::Linear);
        // The rewritten recursive rule joins tc with the base relation.
        let recursive =
            out.rules_for("tc").into_iter().find(|r| r.count_positive("tc") == 1).unwrap();
        assert!(recursive.positive_dependencies().contains(&"edge"), "{recursive}");
    }

    #[test]
    fn linear_programs_are_untouched() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        let mut out = p;
        let changed = linearize(&mut out);
        assert!(!changed);
        assert_eq!(out.rules.len(), 2);
    }

    #[test]
    fn predicates_without_base_rules_are_left_alone() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
        ));
        let changed = linearize(&mut p);
        assert!(!changed);
    }

    #[test]
    fn multiple_base_rules_produce_multiple_linear_rules() {
        let mut p = nonlinear_tc();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge2", &["x", "y"])]));
        let mut out = p;
        let changed = linearize(&mut out);
        assert!(changed);
        // 2 base rules + 2 linearized recursive rules.
        assert_eq!(out.rules_for("tc").len(), 4);
        assert_eq!(analyze(&out).linearity, Linearity::Linear);
    }

    #[test]
    fn base_rule_local_variables_are_renamed() {
        // Base rule has an extra local variable w that must not collide.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("edge", &["x", "y", "w"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "w"]), atom("tc", &["w", "y"])],
        ));
        let mut out = p;
        let changed = linearize(&mut out);
        assert!(changed);
        let recursive =
            out.rules_for("tc").into_iter().find(|r| r.count_positive("tc") == 1).unwrap();
        let edge = recursive
            .body
            .iter()
            .filter_map(|b| b.as_positive_atom())
            .find(|a| a.relation == "edge")
            .unwrap();
        // edge(w, y, w_l...) — the base-local third column must not be `w`.
        assert_ne!(edge.terms[2], Term::var("w"), "{recursive}");
    }
}
