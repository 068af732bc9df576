//! The DLIR-level recursion analyses, computed together in one pass.
//!
//! [`analyze`] builds the predicate dependency graph once and stratifies the
//! program once, and from those answers the four questions of Section 4 of
//! the paper:
//!
//! * **linearity** — does every recursive rule have at most one body atom in
//!   its head's cycle? SQL's `WITH RECURSIVE` needs this; the doubling
//!   closure `tc(x,y) :- tc(x,z), tc(z,y)` breaks it unless the optimizer's
//!   linearization rewrites it;
//! * **mutual recursion** — is there a cycle through two or more predicates
//!   (an SCC with more than one member)? `WITH RECURSIVE` cannot express it
//!   either;
//! * **monotonicity** — can adding EDB facts only add derived facts? Negation
//!   and aggregation break it, and are fine only over lower strata; a program
//!   with negation or aggregation inside a cycle has no least model.
//!   Lattice-annotated recursion (shortest-path `@min`) is monotone in the
//!   lattice order (the Datalog° view the paper cites);
//! * **termination** — may evaluation fail to terminate? Arithmetic in a
//!   recursive rule invents values outside the EDBs' finite domain, unless a
//!   comparison against a constant bounds it or a lattice annotation makes
//!   the fixpoint converge on cyclic data. The check is conservative: it
//!   reports risks, warning that a query "may not terminate under certain
//!   conditions, for example over cyclic data".
//!
//! The report is advisory. The backends refuse what they cannot run where
//! they compile it: the SQL lowering (`raqlet_sqir::lower_to_sqir`) refuses
//! mutual, non-linear and non-stratifiable recursion, and the Datalog engine
//! refuses non-stratifiable programs.

use std::collections::HashMap;

use raqlet_dlir::{stratify_with, BodyElem, CmpOp, DepGraph, DlExpr, DlirProgram, LatticeMerge};

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

/// Monotonicity classification of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Monotonicity {
    /// No negation or aggregation anywhere: monotone under set inclusion.
    Monotonic,
    /// Monotone only up to a lattice order: recursion uses `@min`/`@max`
    /// annotations but no stratification violation exists.
    LatticeMonotonic,
    /// Uses negation/aggregation but only over fully-computed lower strata.
    Stratified,
    /// Negation or aggregation occurs inside a recursive cycle; the program
    /// has no well-defined least model. The message explains where.
    NonMonotonic { reason: String },
}

/// One potential non-termination risk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminationRisk {
    /// Index of the offending rule in `DlirProgram::rules`.
    pub rule_index: usize,
    /// Human-readable explanation.
    pub reason: String,
}

/// The combined result of all DLIR-level static analyses.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Linearity classification.
    pub linearity: Linearity,
    /// Mutually recursive predicate groups (empty when none).
    pub mutual_groups: Vec<Vec<String>>,
    /// Monotonicity classification.
    pub monotonicity: Monotonicity,
    /// Potential non-termination risks (warnings, not errors). Empty when
    /// the analysis proves termination (finite EDB ⇒ finite fixpoint).
    pub termination_risks: Vec<TerminationRisk>,
    /// Number of strata when the program stratifies.
    pub stratum_count: Option<usize>,
    /// Strongly connected components of the rule-head dependency graph
    /// (the units the engine schedules), and how many of them need a
    /// fixpoint loop (self- or mutual recursion). `looping_scc_count == 0`
    /// means the whole program evaluates in single-round passes.
    pub scc_count: usize,
    /// SCCs that require iterating to fixpoint.
    pub looping_scc_count: usize,
    /// True if any relation is recursive.
    pub recursive: bool,
}

impl AnalysisReport {
    /// True if the program has mutual recursion.
    pub fn has_mutual_recursion(&self) -> bool {
        !self.mutual_groups.is_empty()
    }

    /// Human-readable one-line-per-finding summary (used by examples and the
    /// CLI-style driver).
    pub fn summary(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!("recursive:          {}", self.recursive));
        lines.push(format!("linearity:          {:?}", self.linearity));
        lines.push(format!("mutual recursion:   {}", self.has_mutual_recursion()));
        lines.push(format!("monotonicity:       {:?}", self.monotonicity));
        lines.push(format!(
            "strata:             {}",
            self.stratum_count.map(|n| n.to_string()).unwrap_or_else(|| "n/a".into())
        ));
        lines.push(format!(
            "sccs:               {} ({} looping)",
            self.scc_count, self.looping_scc_count
        ));
        lines.push(format!("termination risks:  {}", self.termination_risks.len()));
        lines
    }
}

/// Run every analysis on the program, from one dependency graph and one
/// stratification.
pub fn analyze(program: &DlirProgram) -> AnalysisReport {
    let graph = DepGraph::build(program);
    let sccs = graph.sccs();
    let scc_of: HashMap<&str, usize> = sccs
        .iter()
        .enumerate()
        .flat_map(|(i, scc)| scc.iter().map(move |n| (n.as_str(), i)))
        .collect();
    // A body atom is recursive in a rule when it is the head itself or shares
    // the head's multi-member SCC.
    let in_cycle_of = |relation: &str, head: &str| {
        relation == head
            || scc_of
                .get(relation)
                .is_some_and(|&i| sccs[i].len() > 1 && Some(&i) == scc_of.get(head))
    };

    let mut recursive = false;
    let mut offending_rules = Vec::new();
    let mut termination_risks = Vec::new();
    let mut heads: Vec<String> = Vec::new();
    for (idx, rule) in program.rules.iter().enumerate() {
        let head = &rule.head.relation;
        if !heads.contains(head) {
            heads.push(head.clone());
        }
        if !graph.is_recursive(head) {
            continue;
        }
        recursive = true;
        let recursive_atoms = rule
            .body
            .iter()
            .filter_map(|b| b.as_positive_atom())
            .filter(|a| in_cycle_of(&a.relation, head))
            .count();
        if recursive_atoms > 1 {
            offending_rules.push(idx);
        }
        // A lattice-annotated relation converges by subsumption.
        if invents_unbounded_values(&rule.body) && program.lattice_for(head) == LatticeMerge::Set {
            termination_risks.push(TerminationRisk {
                rule_index: idx,
                reason: format!(
                    "recursive rule `{}` performs arithmetic over an unbounded domain; it may not \
                     terminate on cyclic data",
                    rule
                ),
            });
        }
    }
    let linearity = if !recursive {
        Linearity::NonRecursive
    } else if offending_rules.is_empty() {
        Linearity::Linear
    } else {
        Linearity::NonLinear { offending_rules }
    };

    let strata = stratify_with(program, &graph);
    let monotonicity = match &strata {
        Err(e) => Monotonicity::NonMonotonic { reason: e.to_string() },
        Ok(_)
            if program
                .rules
                .iter()
                .any(|r| r.aggregation.is_some() || !r.negative_dependencies().is_empty()) =>
        {
            Monotonicity::Stratified
        }
        Ok(_) if program.annotations.values().any(|a| a.lattice != LatticeMerge::Set) => {
            Monotonicity::LatticeMonotonic
        }
        Ok(_) => Monotonicity::Monotonic,
    };

    let groups = graph.condense(&heads);
    AnalysisReport {
        linearity,
        mutual_groups: sccs.iter().filter(|scc| scc.len() > 1).cloned().collect(),
        monotonicity,
        termination_risks,
        stratum_count: strata.ok().map(|s| s.len()),
        scc_count: groups.len(),
        looping_scc_count: groups.iter().filter(|g| g.looping).count(),
        recursive,
    }
}

/// True when a rule body computes a value by arithmetic and bounds nothing:
/// no non-equality comparison against a constant restores a finite domain.
fn invents_unbounded_values(body: &[BodyElem]) -> bool {
    let invents = body.iter().any(|b| {
        matches!(
            b,
            BodyElem::Constraint { lhs: DlExpr::Arith { .. }, .. }
                | BodyElem::Constraint { rhs: DlExpr::Arith { .. }, .. }
        )
    });
    let bounded = body.iter().any(|b| {
        matches!(
            b,
            BodyElem::Constraint { op, lhs, rhs }
                if *op != CmpOp::Eq
                    && (matches!(lhs, DlExpr::Const(_)) || matches!(rhs, DlExpr::Const(_)))
        )
    });
    invents && !bounded
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{AggFunc, Aggregation, ArithOp, Atom, Rule};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    fn rule(head: &str, head_vars: &[&str], body: Vec<BodyElem>) -> Rule {
        Rule::new(Atom::with_vars(head, head_vars), body)
    }

    fn program(rules: Vec<Rule>) -> DlirProgram {
        let mut p = DlirProgram::default();
        for r in rules {
            p.add_rule(r);
        }
        p
    }

    fn linear_tc() -> DlirProgram {
        program(vec![
            rule("tc", &["x", "y"], vec![atom("edge", &["x", "y"])]),
            rule("tc", &["x", "y"], vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])]),
        ])
    }

    fn doubling_tc() -> DlirProgram {
        program(vec![
            rule("tc", &["x", "y"], vec![atom("edge", &["x", "y"])]),
            rule("tc", &["x", "y"], vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])]),
        ])
    }

    fn even_odd() -> DlirProgram {
        program(vec![
            rule("even", &["x"], vec![atom("zero", &["x"])]),
            rule("even", &["x"], vec![atom("odd", &["y"]), atom("succ", &["y", "x"])]),
            rule("odd", &["x"], vec![atom("even", &["y"]), atom("succ", &["y", "x"])]),
        ])
    }

    fn non_recursive() -> DlirProgram {
        program(vec![rule("q", &["x"], vec![atom("edge", &["x", "y"])])])
    }

    /// `l = l0 + 1`
    fn plus_one(out: &str, inp: &str) -> BodyElem {
        BodyElem::eq(
            DlExpr::var(out),
            DlExpr::Arith {
                op: ArithOp::Add,
                lhs: Box::new(DlExpr::var(inp)),
                rhs: Box::new(DlExpr::int(1)),
            },
        )
    }

    /// `dist(s, d, l) :- dist(s, m, l0), edge(m, d), l = l0 + 1, <extra>`
    /// over a one-hop base rule.
    fn counter(extra: Vec<BodyElem>) -> DlirProgram {
        let mut step =
            vec![atom("dist", &["s", "m", "l0"]), atom("edge", &["m", "d"]), plus_one("l", "l0")];
        step.extend(extra);
        program(vec![
            rule(
                "dist",
                &["s", "d", "l"],
                vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
            ),
            rule("dist", &["s", "d", "l"], step),
        ])
    }

    #[test]
    fn report_summarises_all_analyses() {
        let report = analyze(&linear_tc());
        assert!(report.recursive);
        assert_eq!(report.linearity, Linearity::Linear);
        assert!(!report.has_mutual_recursion());
        assert_eq!(report.monotonicity, Monotonicity::Monotonic);
        assert!(report.termination_risks.is_empty());
        assert_eq!(report.stratum_count, Some(1));
        assert_eq!(report.scc_count, 1);
        assert_eq!(report.looping_scc_count, 1);
        assert_eq!(report.summary().len(), 7);
    }

    #[test]
    fn scc_counts_distinguish_looping_from_single_round_components() {
        // tc loops; a downstream projection of it does not.
        let mut p = linear_tc();
        p.add_rule(rule("twice", &["x", "y"], vec![atom("tc", &["x", "y"])]));
        let report = analyze(&p);
        assert_eq!(report.scc_count, 2);
        assert_eq!(report.looping_scc_count, 1);

        // A fully non-recursive program needs no fixpoint anywhere.
        let flat = program(vec![rule(
            "hop2",
            &["x", "z"],
            vec![atom("edge", &["x", "y"]), atom("edge", &["y", "z"])],
        )]);
        let flat_report = analyze(&flat);
        assert_eq!(flat_report.scc_count, 1);
        assert_eq!(flat_report.looping_scc_count, 0);
        assert!(!flat_report.recursive);
    }

    // Linearity.

    #[test]
    fn non_recursive_program() {
        let report = analyze(&non_recursive());
        assert_eq!(report.linearity, Linearity::NonRecursive);
        assert!(report.linearity.is_linear_or_nonrecursive());
        assert!(!report.recursive);
    }

    #[test]
    fn linear_transitive_closure() {
        assert_eq!(analyze(&linear_tc()).linearity, Linearity::Linear);
    }

    #[test]
    fn doubling_transitive_closure_is_non_linear() {
        let linearity = analyze(&doubling_tc()).linearity;
        assert!(!linearity.is_linear_or_nonrecursive());
        assert_eq!(linearity, Linearity::NonLinear { offending_rules: vec![1] });
    }

    #[test]
    fn mutual_recursion_with_one_atom_per_rule_is_linear() {
        assert_eq!(analyze(&even_odd()).linearity, Linearity::Linear);
    }

    #[test]
    fn mutual_recursion_with_two_recursive_atoms_is_non_linear() {
        // p(x) :- q(x), p(x).    q(x) :- p(x).
        let p = program(vec![
            rule("p", &["x"], vec![atom("q", &["x"]), atom("p", &["x"])]),
            rule("q", &["x"], vec![atom("p", &["x"])]),
        ]);
        assert!(matches!(analyze(&p).linearity, Linearity::NonLinear { .. }));
    }

    #[test]
    fn base_rules_never_count_as_offending() {
        let Linearity::NonLinear { offending_rules } = analyze(&doubling_tc()).linearity else {
            panic!("expected non-linear")
        };
        assert!(!offending_rules.contains(&0));
    }

    // Mutual recursion.

    #[test]
    fn self_recursion_is_not_mutual() {
        let report = analyze(&linear_tc());
        assert!(!report.has_mutual_recursion());
        assert!(report.mutual_groups.is_empty());
    }

    #[test]
    fn even_odd_is_mutual() {
        let report = analyze(&even_odd());
        assert!(report.has_mutual_recursion());
        assert_eq!(report.mutual_groups.len(), 1);
        let mut g = report.mutual_groups[0].clone();
        g.sort();
        assert_eq!(g, vec!["even".to_string(), "odd".to_string()]);
    }

    #[test]
    fn non_recursive_program_has_no_groups() {
        assert!(!analyze(&non_recursive()).has_mutual_recursion());
    }

    #[test]
    fn three_way_cycle_is_one_group() {
        let p = program(vec![
            rule("a", &["x"], vec![atom("b", &["x"])]),
            rule("b", &["x"], vec![atom("c", &["x"])]),
            rule("c", &["x"], vec![atom("a", &["x"]), atom("base", &["x"])]),
        ]);
        let groups = analyze(&p).mutual_groups;
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    // Monotonicity.

    #[test]
    fn plain_recursion_is_monotonic() {
        assert_eq!(analyze(&linear_tc()).monotonicity, Monotonicity::Monotonic);
    }

    #[test]
    fn stratified_negation_is_reported_as_stratified() {
        let mut p = linear_tc();
        p.add_rule(rule(
            "unreachable",
            &["x"],
            vec![atom("node", &["x"]), BodyElem::Negated(Atom::with_vars("tc", &["s", "x"]))],
        ));
        let report = analyze(&p);
        assert_eq!(report.monotonicity, Monotonicity::Stratified);
        assert_eq!(report.stratum_count, Some(2));
    }

    #[test]
    fn aggregation_outside_recursion_is_stratified() {
        let mut p = linear_tc();
        let mut degree = rule("deg", &["x", "d"], vec![atom("tc", &["x", "y"])]);
        degree.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "d".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(degree);
        assert_eq!(analyze(&p).monotonicity, Monotonicity::Stratified);
    }

    #[test]
    fn negation_in_cycle_is_non_monotonic() {
        let p = program(vec![
            rule("p", &["x"], vec![atom("q", &["x"])]),
            rule(
                "q",
                &["x"],
                vec![atom("base", &["x"]), BodyElem::Negated(Atom::with_vars("p", &["x"]))],
            ),
        ]);
        let report = analyze(&p);
        let Monotonicity::NonMonotonic { reason } = &report.monotonicity else {
            panic!("expected non-monotonic, got {:?}", report.monotonicity)
        };
        assert!(reason.contains("RAQ106"), "{reason}");
        assert_eq!(report.stratum_count, None);
    }

    #[test]
    fn lattice_recursion_is_lattice_monotonic() {
        let mut p =
            program(vec![rule("dist", &["s", "d", "l"], vec![atom("edge", &["s", "d", "l"])])]);
        p.set_lattice("dist", LatticeMerge::MinOnColumn(2));
        assert_eq!(analyze(&p).monotonicity, Monotonicity::LatticeMonotonic);
    }

    // Termination.

    #[test]
    fn plain_tc_terminates() {
        assert!(analyze(&linear_tc()).termination_risks.is_empty());
    }

    #[test]
    fn unbounded_counter_recursion_is_flagged() {
        // dist(s, d, l) :- dist(s, m, l0), edge(m, d), l = l0 + 1.
        let risks = analyze(&counter(Vec::new())).termination_risks;
        assert_eq!(risks.len(), 1);
        assert_eq!(risks[0].rule_index, 1);
        assert!(risks[0].reason.contains("may not"));
    }

    #[test]
    fn bounded_counter_recursion_is_fine() {
        let bound =
            BodyElem::Constraint { op: CmpOp::Lt, lhs: DlExpr::var("l0"), rhs: DlExpr::int(5) };
        assert!(analyze(&counter(vec![bound])).termination_risks.is_empty());
    }

    #[test]
    fn lattice_annotated_distance_recursion_is_fine() {
        let mut p = counter(Vec::new());
        p.set_lattice("dist", LatticeMerge::MinOnColumn(2));
        assert!(analyze(&p).termination_risks.is_empty());
    }

    #[test]
    fn arithmetic_in_non_recursive_rules_is_fine() {
        let p = program(vec![rule(
            "q",
            &["x", "y"],
            vec![atom("edge", &["x", "z"]), plus_one("y", "z")],
        )]);
        assert!(analyze(&p).termination_risks.is_empty());
    }
}
