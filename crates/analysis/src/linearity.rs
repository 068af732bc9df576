//! Linearity analysis.
//!
//! A recursive rule is *linear* when its body contains at most one atom that
//! is mutually recursive with the rule's head (i.e. in the same SCC of the
//! predicate dependency graph). Linear recursion is what SQL's
//! `WITH RECURSIVE` supports; non-linear rules (e.g. the doubling transitive
//! closure `tc(x,y) :- tc(x,z), tc(z,y)`) must either be rejected for such
//! backends or rewritten by the optimizer's linearization pass.

use std::collections::BTreeMap;

use raqlet_dlir::{DepGraph, DlirProgram};

/// Linearity classification of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Linearity {
    /// No recursion at all.
    NonRecursive,
    /// Every recursive rule has exactly one recursive body atom.
    Linear,
    /// At least one rule has two or more recursive body atoms; the offending
    /// rule indices (into `DlirProgram::rules`) are listed.
    NonLinear { offending_rules: Vec<usize> },
}

impl Linearity {
    /// True if the program can run on a linear-recursion-only backend.
    pub fn is_linear_or_nonrecursive(&self) -> bool {
        !matches!(self, Linearity::NonLinear { .. })
    }
}

/// Classify the linearity of a DLIR program.
pub fn linearity(program: &DlirProgram) -> Linearity {
    let graph = DepGraph::build(program);
    let sccs = graph.sccs();
    let mut scc_of = BTreeMap::new();
    let mut scc_sizes = BTreeMap::new();
    for (i, scc) in sccs.iter().enumerate() {
        for n in scc {
            scc_of.insert(n.clone(), i);
            scc_sizes.insert(n.clone(), scc.len());
        }
    }

    let mut any_recursive = false;
    let mut offending = Vec::new();
    for (idx, rule) in program.rules.iter().enumerate() {
        let head = &rule.head.relation;
        let head_recursive = graph.is_recursive(head);
        if !head_recursive {
            continue;
        }
        any_recursive = true;
        let count = rule
            .body
            .iter()
            .filter_map(|b| b.as_positive_atom())
            .filter(|a| {
                a.relation == *head
                    || (scc_of.get(&a.relation) == scc_of.get(head)
                        && scc_sizes.get(&a.relation).copied().unwrap_or(1) > 1)
            })
            .count();
        if count > 1 {
            offending.push(idx);
        }
    }

    if !any_recursive {
        Linearity::NonRecursive
    } else if offending.is_empty() {
        Linearity::Linear
    } else {
        Linearity::NonLinear { offending_rules: offending }
    }
}

/// Convenience predicate: true when the program contains only linear (or no)
/// recursion.
pub fn is_linear(program: &DlirProgram) -> bool {
    linearity(program).is_linear_or_nonrecursive()
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{Atom, BodyElem, Rule};

    fn rule(head: &str, head_vars: &[&str], body: Vec<BodyElem>) -> Rule {
        Rule::new(Atom::with_vars(head, head_vars), body)
    }

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    #[test]
    fn non_recursive_program() {
        let mut p = DlirProgram::default();
        p.add_rule(rule("q", &["x"], vec![atom("edge", &["x", "y"])]));
        assert_eq!(linearity(&p), Linearity::NonRecursive);
        assert!(is_linear(&p));
    }

    #[test]
    fn linear_transitive_closure() {
        let mut p = DlirProgram::default();
        p.add_rule(rule("tc", &["x", "y"], vec![atom("edge", &["x", "y"])]));
        p.add_rule(rule(
            "tc",
            &["x", "y"],
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        assert_eq!(linearity(&p), Linearity::Linear);
    }

    #[test]
    fn doubling_transitive_closure_is_non_linear() {
        let mut p = DlirProgram::default();
        p.add_rule(rule("tc", &["x", "y"], vec![atom("edge", &["x", "y"])]));
        p.add_rule(rule("tc", &["x", "y"], vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])]));
        let Linearity::NonLinear { offending_rules } = linearity(&p) else {
            panic!("expected non-linear")
        };
        assert_eq!(offending_rules, vec![1]);
        assert!(!is_linear(&p));
    }

    #[test]
    fn mutual_recursion_with_one_atom_per_rule_is_linear() {
        let mut p = DlirProgram::default();
        p.add_rule(rule("even", &["x"], vec![atom("zero", &["x"])]));
        p.add_rule(rule("even", &["x"], vec![atom("odd", &["y"]), atom("succ", &["y", "x"])]));
        p.add_rule(rule("odd", &["x"], vec![atom("even", &["y"]), atom("succ", &["y", "x"])]));
        assert_eq!(linearity(&p), Linearity::Linear);
    }

    #[test]
    fn mutual_recursion_with_two_recursive_atoms_is_non_linear() {
        // p(x) :- q(x), p(y).    q(x) :- p(x).
        let mut prog = DlirProgram::default();
        prog.add_rule(rule("p", &["x"], vec![atom("q", &["x"]), atom("p", &["x"])]));
        prog.add_rule(rule("q", &["x"], vec![atom("p", &["x"])]));
        assert!(matches!(linearity(&prog), Linearity::NonLinear { .. }));
    }

    #[test]
    fn base_rules_never_count_as_offending() {
        let mut p = DlirProgram::default();
        p.add_rule(rule("tc", &["x", "y"], vec![atom("edge", &["x", "y"])]));
        p.add_rule(rule("tc", &["x", "y"], vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])]));
        let Linearity::NonLinear { offending_rules } = linearity(&p) else { panic!() };
        assert!(!offending_rules.contains(&0));
    }
}
