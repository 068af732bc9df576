//! Dead rule elimination (Section 5, "Dead Rule Elimination").
//!
//! After inlining, intermediate rules often no longer contribute to any
//! output. This pass removes every rule whose head relation is not reachable
//! from the program's `.output` relations in the predicate dependency graph —
//! turning Figure 4a into Figure 4b in the paper's running example.

use std::collections::BTreeSet;

use raqlet_dlir::DlirProgram;

/// Remove rules that cannot contribute to any output relation, in place.
/// Returns whether anything was removed.
pub fn eliminate_dead_rules(program: &mut DlirProgram) -> bool {
    // Compute the set of relations reachable from the outputs by walking
    // rule bodies transitively.
    let mut live: BTreeSet<String> = program.outputs.iter().cloned().collect();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if live.contains(&rule.head.relation) {
                for dep in rule.dependencies() {
                    changed |= live.insert(dep.to_string());
                }
            }
        }
        if !changed {
            break;
        }
    }

    let before = program.rules.len();
    program.rules.retain(|rule| live.contains(&rule.head.relation));
    program.rules.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{Atom, BodyElem, Rule};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    #[test]
    fn unreferenced_intermediate_rules_are_removed() {
        // The paper's Figure 4a -> 4b: after inlining, Match1 and Where1 no
        // longer feed Return and are removed.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("Match1", &["n"]), vec![atom("Person", &["n"])]));
        p.add_rule(Rule::new(Atom::with_vars("Where1", &["n"]), vec![atom("Match1", &["n"])]));
        p.add_rule(Rule::new(Atom::with_vars("Return", &["n"]), vec![atom("Person", &["n"])]));
        p.add_output("Return");

        let mut optimized = p;
        let changed = eliminate_dead_rules(&mut optimized);
        assert!(changed);
        assert_eq!(optimized.rules.len(), 1);
        assert_eq!(optimized.rules[0].head.relation, "Return");
    }

    #[test]
    fn live_chains_are_kept() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("Match1", &["n"]), vec![atom("Person", &["n"])]));
        p.add_rule(Rule::new(Atom::with_vars("Return", &["n"]), vec![atom("Match1", &["n"])]));
        p.add_output("Return");
        let mut optimized = p;
        let changed = eliminate_dead_rules(&mut optimized);
        assert!(!changed);
        assert_eq!(optimized.rules.len(), 2);
    }

    #[test]
    fn rules_reachable_through_negation_are_kept() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("blocked", &["x"]), vec![atom("raw", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["x"]),
            vec![atom("node", &["x"]), BodyElem::Negated(Atom::with_vars("blocked", &["x"]))],
        ));
        p.add_output("Return");
        let mut optimized = p;
        let changed = eliminate_dead_rules(&mut optimized);
        assert!(!changed);
        assert_eq!(optimized.rules.len(), 2);
    }

    #[test]
    fn recursive_live_relations_are_fully_kept() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_rule(Rule::new(Atom::with_vars("dead", &["x"]), vec![atom("edge", &["x", "x"])]));
        p.add_output("tc");
        let mut optimized = p;
        let changed = eliminate_dead_rules(&mut optimized);
        assert!(changed);
        assert_eq!(optimized.rules.len(), 2);
        assert!(optimized.rules.iter().all(|r| r.head.relation == "tc"));
    }

    #[test]
    fn programs_without_outputs_drop_everything() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("edge", &["x", "y"])]));
        let mut optimized = p;
        let changed = eliminate_dead_rules(&mut optimized);
        assert!(changed);
        assert!(optimized.rules.is_empty());
    }
}
