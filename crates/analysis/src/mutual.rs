//! Mutual-recursion analysis.
//!
//! Two or more predicates are mutually recursive when they depend on each
//! other in a cycle — an SCC of the predicate dependency graph with more than
//! one member. `WITH RECURSIVE` in SQL cannot express this directly, so the
//! compiler uses this analysis to reject such queries for RDBMS backends (or
//! to trigger rewrites that merge the predicates).

use raqlet_dlir::{DepGraph, DlirProgram};

/// The groups of mutually recursive predicates (SCCs with more than one
/// member), in dependency order.
pub fn mutual_recursion_groups(program: &DlirProgram) -> Vec<Vec<String>> {
    DepGraph::build(program).sccs().iter().filter(|scc| scc.len() > 1).cloned().collect()
}

/// True if the program contains any mutually recursive predicates.
pub fn has_mutual_recursion(program: &DlirProgram) -> bool {
    !mutual_recursion_groups(program).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{Atom, BodyElem, Rule};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    #[test]
    fn self_recursion_is_not_mutual() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        assert!(!has_mutual_recursion(&p));
        assert!(mutual_recursion_groups(&p).is_empty());
    }

    #[test]
    fn even_odd_is_mutual() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("even", &["x"]), vec![atom("zero", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![atom("odd", &["y"]), atom("succ", &["y", "x"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("odd", &["x"]),
            vec![atom("even", &["y"]), atom("succ", &["y", "x"])],
        ));
        assert!(has_mutual_recursion(&p));
        let groups = mutual_recursion_groups(&p);
        assert_eq!(groups.len(), 1);
        let mut g = groups[0].clone();
        g.sort();
        assert_eq!(g, vec!["even".to_string(), "odd".to_string()]);
    }

    #[test]
    fn non_recursive_program_has_no_groups() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("edge", &["x", "y"])]));
        assert!(!has_mutual_recursion(&p));
    }

    #[test]
    fn three_way_cycle_is_one_group() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("a", &["x"]), vec![atom("b", &["x"])]));
        p.add_rule(Rule::new(Atom::with_vars("b", &["x"]), vec![atom("c", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("c", &["x"]),
            vec![atom("a", &["x"]), atom("base", &["x"])],
        ));
        let groups = mutual_recursion_groups(&p);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }
}
