//! Stratification of DLIR programs.
//!
//! A program is *stratified* when no relation depends on itself through a
//! negation or an aggregation. Stratification assigns every relation a
//! stratum number such that:
//!
//! * positive dependencies stay within the same stratum or refer to lower
//!   strata, and
//! * negative / aggregated dependencies refer strictly to lower strata.
//!
//! The Datalog engine evaluates strata bottom-up, running a fixpoint inside
//! each stratum. Programs that cannot be stratified (negation or aggregation
//! through a cycle) are rejected, mirroring the monotonicity analysis of
//! Section 4 of the paper.

use std::collections::BTreeMap;

use raqlet_common::{RaqletError, Result};

use crate::depgraph::{DepGraph, DepKind};
use crate::ir::DlirProgram;

/// The result of stratification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratification {
    /// Stratum index of every relation (EDBs are stratum 0).
    pub stratum_of: BTreeMap<String, usize>,
    /// Relations grouped by stratum, lowest first. Only relations that appear
    /// in the program are listed.
    pub strata: Vec<Vec<String>>,
}

impl Stratification {
    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// True if there are no strata (empty program).
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// The stratum of a relation (0 if unknown / extensional).
    pub fn stratum(&self, name: &str) -> usize {
        self.stratum_of.get(name).copied().unwrap_or(0)
    }
}

/// Compute a stratification, or explain why none exists.
pub fn stratify(program: &DlirProgram) -> Result<Stratification> {
    stratify_with(program, &DepGraph::build(program))
}

/// [`stratify`] over the dependency graph of `program` the caller has
/// already built, so that a caller which needs the graph anyway builds it
/// once.
pub fn stratify_with(program: &DlirProgram, graph: &DepGraph) -> Result<Stratification> {
    let sccs = graph.sccs();

    // Map each relation to its SCC index (SCCs are already in dependency
    // order: dependencies before dependents).
    let mut scc_of: BTreeMap<String, usize> = BTreeMap::new();
    for (i, scc) in sccs.iter().enumerate() {
        for n in scc {
            scc_of.insert(n.clone(), i);
        }
    }

    // Reject negation / aggregation inside an SCC (a cycle through a
    // non-monotonic operator).
    for rule in &program.rules {
        let head_scc = scc_of[&rule.head.relation];
        let aggregated = rule.aggregation.is_some();
        for dep in rule.negative_dependencies() {
            if scc_of.get(dep) == Some(&head_scc)
                && sccs[head_scc].len() + usize::from(graph.depends_on(dep, dep)) > 1
                || dep == rule.head.relation
            {
                return Err(RaqletError::semantic(format!(
                    "RAQ106: program is not stratifiable: `{}` depends on `{}` through negation inside a cycle",
                    rule.head.relation, dep
                )));
            }
        }
        if aggregated {
            for dep in rule.positive_dependencies() {
                let same_scc = scc_of.get(dep) == Some(&head_scc);
                let cyclic = sccs[head_scc].len() > 1 || dep == rule.head.relation;
                if same_scc && cyclic {
                    return Err(RaqletError::semantic(format!(
                        "RAQ107: program is not stratifiable: `{}` aggregates over `{}` inside a cycle",
                        rule.head.relation, dep
                    )));
                }
            }
        }
    }

    // Assign stratum numbers: process SCCs in order; a relation's stratum is
    // the maximum over (dep stratum) for positive deps and (dep stratum + 1)
    // for negative/aggregated deps, and all members of an SCC share a stratum.
    let mut stratum_of: BTreeMap<String, usize> = BTreeMap::new();
    for scc in sccs {
        let mut stratum = 0usize;
        for member in scc {
            for (dep, kind) in graph.dependencies_of(member) {
                if scc.contains(dep) {
                    continue;
                }
                let dep_stratum = stratum_of.get(dep).copied().unwrap_or(0);
                let required = match kind {
                    DepKind::Positive => dep_stratum,
                    DepKind::Negative | DepKind::Aggregated => dep_stratum + 1,
                };
                stratum = stratum.max(required);
            }
        }
        for member in scc {
            stratum_of.insert(member.clone(), stratum);
        }
    }

    // Group IDBs (and referenced EDBs) by stratum.
    let max_stratum = stratum_of.values().copied().max().unwrap_or(0);
    let mut strata: Vec<Vec<String>> = vec![Vec::new(); max_stratum + 1];
    for scc in sccs {
        for member in scc {
            strata[stratum_of[member]].push(member.clone());
        }
    }
    Ok(Stratification { stratum_of, strata })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AggFunc, Aggregation, Atom, BodyElem, Rule};

    fn tc() -> DlirProgram {
        let mut p = DlirProgram::default();
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
        p
    }

    #[test]
    fn positive_recursion_is_a_single_stratum() {
        let s = stratify(&tc()).unwrap();
        assert_eq!(s.stratum("tc"), s.stratum("edge"));
    }

    #[test]
    fn negation_over_a_completed_idb_is_stratified() {
        // unreachable(x) :- node(x), !tc(s, x): tc must be in a lower stratum.
        let mut p = tc();
        p.add_rule(Rule::new(
            Atom::with_vars("unreachable", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("node", &["x"])),
                BodyElem::Negated(Atom::with_vars("tc", &["s", "x"])),
            ],
        ));
        let s = stratify(&p).unwrap();
        assert!(s.stratum("unreachable") > s.stratum("tc"));
    }

    #[test]
    fn negation_through_recursion_is_rejected() {
        // p(x) :- q(x).  q(x) :- r(x), !p(x).   (cycle p -> q -> !p)
        let mut prog = DlirProgram::default();
        prog.add_rule(Rule::new(
            Atom::with_vars("p", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("q", &["x"]))],
        ));
        prog.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("r", &["x"])),
                BodyElem::Negated(Atom::with_vars("p", &["x"])),
            ],
        ));
        let err = stratify(&prog).unwrap_err();
        assert!(err.to_string().contains("not stratifiable"));
    }

    #[test]
    fn direct_negative_self_dependency_is_rejected() {
        // p(x) :- q(x), !p(x).
        let mut prog = DlirProgram::default();
        prog.add_rule(Rule::new(
            Atom::with_vars("p", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("q", &["x"])),
                BodyElem::Negated(Atom::with_vars("p", &["x"])),
            ],
        ));
        assert!(stratify(&prog).is_err());
    }

    #[test]
    fn aggregation_over_lower_stratum_is_fine() {
        // reach_count(x, c) :- {tc(x, y)} group by x with c = count(y).
        let mut p = tc();
        let mut rule = Rule::new(
            Atom::with_vars("reach_count", &["x", "c"]),
            vec![BodyElem::Atom(Atom::with_vars("tc", &["x", "y"]))],
        );
        rule.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "c".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(rule);
        let s = stratify(&p).unwrap();
        assert!(s.stratum("reach_count") > s.stratum("tc"));
    }

    #[test]
    fn aggregation_inside_recursion_is_rejected() {
        // cost(x, y, c) :- {cost(x, z, c1), edge(z, y, c2)} with c = sum(...)
        // modelled minimally: an aggregated rule whose head is in the same SCC
        // as a positive body atom.
        let mut p = DlirProgram::default();
        let mut rule = Rule::new(
            Atom::with_vars("cost", &["x", "c"]),
            vec![BodyElem::Atom(Atom::with_vars("cost", &["x", "c0"]))],
        );
        rule.aggregation = Some(Aggregation {
            func: AggFunc::Sum,
            input_var: Some("c0".into()),
            output_var: "c".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(rule);
        assert!(stratify(&p).is_err());
    }

    #[test]
    fn strata_list_contains_every_relation_once() {
        let mut p = tc();
        p.add_rule(Rule::new(
            Atom::with_vars("unreachable", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("node", &["x"])),
                BodyElem::Negated(Atom::with_vars("tc", &["s", "x"])),
            ],
        ));
        let s = stratify(&p).unwrap();
        let all: Vec<String> = s.strata.iter().flatten().cloned().collect();
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(all.len(), sorted.len(), "no relation should appear twice");
        assert!(all.contains(&"tc".to_string()));
        assert!(all.contains(&"unreachable".to_string()));
    }

    #[test]
    fn empty_program_has_single_empty_stratum() {
        let s = stratify(&DlirProgram::default()).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.strata[0].is_empty());
    }

    #[test]
    fn mutual_negation_cycle_is_rejected() {
        // p(x) :- r(x), !q(x).  q(x) :- s(x), !p(x).  (cycle p -> !q -> !p)
        let mut prog = DlirProgram::default();
        prog.add_rule(Rule::new(
            Atom::with_vars("p", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("r", &["x"])),
                BodyElem::Negated(Atom::with_vars("q", &["x"])),
            ],
        ));
        prog.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("s", &["x"])),
                BodyElem::Negated(Atom::with_vars("p", &["x"])),
            ],
        ));
        let err = stratify(&prog).unwrap_err();
        assert!(err.to_string().contains("not stratifiable"), "got: {err}");
    }

    #[test]
    fn negation_cycle_through_longer_chain_is_rejected() {
        // a :- !c.  b :- a.  c :- b.  (cycle a -> b -> c -> !a, one negation)
        let mut prog = DlirProgram::default();
        prog.add_rule(Rule::new(
            Atom::with_vars("a", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("base", &["x"])),
                BodyElem::Negated(Atom::with_vars("c", &["x"])),
            ],
        ));
        prog.add_rule(Rule::new(
            Atom::with_vars("b", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("a", &["x"]))],
        ));
        prog.add_rule(Rule::new(
            Atom::with_vars("c", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("b", &["x"]))],
        ));
        assert!(stratify(&prog).is_err());
    }

    /// A three-stratum program used by the determinism tests: tc over edge,
    /// `unreachable` negating tc, and a count over `unreachable`.
    fn layered_program(rule_order: &[usize]) -> DlirProgram {
        let negation = Rule::new(
            Atom::with_vars("unreachable", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("node", &["x"])),
                BodyElem::Negated(Atom::with_vars("tc", &["s", "x"])),
            ],
        );
        let mut agg = Rule::new(
            Atom::with_vars("lost_count", &["c"]),
            vec![BodyElem::Atom(Atom::with_vars("unreachable", &["x"]))],
        );
        agg.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("x".into()),
            output_var: "c".into(),
            group_by: vec![],
            distinct: false,
        });
        let base = tc();
        let rules = [base.rules[0].clone(), base.rules[1].clone(), negation, agg];
        let mut p = DlirProgram::default();
        for &i in rule_order {
            p.add_rule(rules[i].clone());
        }
        p
    }

    #[test]
    fn strata_ordering_is_deterministic_across_runs() {
        let p = layered_program(&[0, 1, 2, 3]);
        let first = stratify(&p).unwrap();
        for _ in 0..10 {
            assert_eq!(stratify(&p).unwrap(), first);
        }
    }

    #[test]
    fn strata_assignment_is_independent_of_rule_order() {
        let reference = stratify(&layered_program(&[0, 1, 2, 3])).unwrap();
        assert_eq!(reference.stratum("tc"), 0);
        assert_eq!(reference.stratum("unreachable"), 1);
        assert_eq!(reference.stratum("lost_count"), 2);
        for order in [[3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1], [0, 2, 1, 3], [3, 1, 2, 0]] {
            let s = stratify(&layered_program(&order)).unwrap();
            // Stratum numbers are identical whatever order the rules were
            // added in; so is the per-stratum relation grouping (as sets).
            assert_eq!(s.stratum_of, reference.stratum_of, "order {order:?}");
            assert_eq!(s.len(), reference.len(), "order {order:?}");
            for (got, want) in s.strata.iter().zip(&reference.strata) {
                let mut got = got.clone();
                let mut want = want.clone();
                got.sort();
                want.sort();
                assert_eq!(got, want, "order {order:?}");
            }
        }
    }
}
