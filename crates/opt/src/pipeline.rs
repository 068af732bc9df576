//! The optimization pass manager.
//!
//! Every pass has the shape `fn(&mut DlirProgram) -> bool`: it rewrites the
//! program in place and reports whether it changed anything (a pass that
//! reports no change has left the program untouched). The pipeline runs the
//! enabled passes in a fixed order, repeating until a fixpoint (or an
//! iteration cap) is reached, and records which passes fired. The ordering
//! mirrors Section 5 of the paper: inline first (it exposes further
//! opportunities), then semantic join elimination and constant propagation,
//! then dead-rule elimination, and finally the recursion-aware rewrites
//! (linearization and magic sets).

use raqlet_common::Result;
use raqlet_dlir::{validate, DlirProgram};

use crate::constprop::propagate_constants;
use crate::dead::eliminate_dead_rules;
use crate::inline::inline;
use crate::linearize::linearize;
use crate::magic::magic_sets;
use crate::semantic::optimize_joins;

/// Maximum number of whole-pipeline iterations.
const MAX_ITERATIONS: usize = 4;

/// How aggressively to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// No optimization: the program is returned as-is (the paper's
    /// "unoptimized" configuration).
    None,
    /// Inlining, constant propagation, semantic join elimination and
    /// dead-rule elimination.
    Basic,
    /// Everything in `Basic` plus linearization and the magic-set
    /// transformation (the paper's "fully optimized" configuration).
    #[default]
    Full,
}

/// The execution backend a program is being optimized *for*. Both targets
/// get the same pass set, magic sets included: a selection pushed into the
/// fixpoint pays off on bottom-up Datalog and on recursive CTEs alike. The
/// type, [`PassConfig::for_target`], [`optimize_for_backends`] and the
/// facade's `sql_optimized` stay only so that their callers keep building;
/// ROADMAP item 18's third slice deletes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetBackend {
    /// No backend commitment: every pass of the level.
    #[default]
    Any,
    /// A SQL engine evaluating recursive CTEs with working-table semantics
    /// (DuckDB / HyPer or the in-tree simulators): the same pass set as
    /// [`TargetBackend::Any`].
    Sql,
}

impl TargetBackend {
    /// True if the magic-set rewrite runs for this backend: for every one.
    pub fn wants_magic_sets(&self) -> bool {
        true
    }
}

/// Which individual passes to run; constructed from an [`OptLevel`] or
/// customised field by field (the per-pass ablation in
/// `tests/optimization_soundness.rs` turns each off in turn).
#[derive(Debug, Clone)]
pub struct PassConfig {
    pub inline: bool,
    pub constant_propagation: bool,
    pub semantic_joins: bool,
    pub dead_rule_elimination: bool,
    pub linearization: bool,
    pub magic_sets: bool,
}

impl PassConfig {
    /// The pass set for an optimization level (no backend commitment).
    pub fn for_level(level: OptLevel) -> Self {
        Self::for_target(level, TargetBackend::Any)
    }

    /// The pass set for an optimization level and a target backend: the
    /// same for both targets (see [`TargetBackend`]).
    pub fn for_target(level: OptLevel, backend: TargetBackend) -> Self {
        let all = PassConfig {
            inline: true,
            constant_propagation: true,
            semantic_joins: true,
            dead_rule_elimination: true,
            linearization: true,
            magic_sets: backend.wants_magic_sets(),
        };
        match level {
            OptLevel::None => PassConfig {
                inline: false,
                constant_propagation: false,
                semantic_joins: false,
                dead_rule_elimination: false,
                linearization: false,
                magic_sets: false,
            },
            OptLevel::Basic => PassConfig { linearization: false, magic_sets: false, ..all },
            OptLevel::Full => all,
        }
    }
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig::for_level(OptLevel::Full)
    }
}

/// The outcome of running the optimizer.
#[derive(Debug, Clone)]
pub struct OptimizedProgram {
    /// The optimized DLIR program.
    pub program: DlirProgram,
    /// Names of the passes that changed the program, in application order
    /// (repeated entries mean the pass fired in several iterations).
    pub applied_passes: Vec<String>,
    /// Rule count before and after.
    pub rules_before: usize,
    /// Rule count after optimization.
    pub rules_after: usize,
}

/// Optimize a DLIR program at the given level.
pub fn optimize(program: &DlirProgram, level: OptLevel) -> Result<OptimizedProgram> {
    optimize_with(program, &PassConfig::for_level(level))
}

/// Optimize a DLIR program at the given level for a specific target backend.
pub fn optimize_for(
    program: &DlirProgram,
    level: OptLevel,
    backend: TargetBackend,
) -> Result<OptimizedProgram> {
    optimize_with(program, &PassConfig::for_target(level, backend))
}

/// Optimize for both backend families at once: the pipeline runs once and
/// its one program is returned twice, as the [`TargetBackend::Any`] program
/// and the [`TargetBackend::Sql`] one, since both targets get the same pass
/// set.
pub fn optimize_for_backends(
    program: &DlirProgram,
    level: OptLevel,
) -> Result<(OptimizedProgram, OptimizedProgram)> {
    let optimized = optimize(program, level)?;
    Ok((optimized.clone(), optimized))
}

/// Optimize with an explicit pass configuration.
pub fn optimize_with(program: &DlirProgram, config: &PassConfig) -> Result<OptimizedProgram> {
    type Pass = fn(&mut DlirProgram) -> bool;
    let passes: [(&str, bool, Pass); 6] = [
        ("inline", config.inline, inline),
        ("constant-propagation", config.constant_propagation, propagate_constants),
        ("semantic-joins", config.semantic_joins, optimize_joins),
        ("dead-rule-elimination", config.dead_rule_elimination, eliminate_dead_rules),
        ("linearization", config.linearization, linearize),
        ("magic-sets", config.magic_sets, magic_sets),
    ];
    let rules_before = program.rules.len();
    let mut current = program.clone();
    let mut applied = Vec::new();

    for _ in 0..MAX_ITERATIONS {
        let mut changed_this_round = false;
        for (name, enabled, pass) in passes {
            if enabled && pass(&mut current) {
                applied.push(name.to_string());
                changed_this_round = true;
            }
        }
        if !changed_this_round {
            break;
        }
    }

    // The optimizer must never produce an invalid program.
    validate(&current)?;
    Ok(OptimizedProgram {
        rules_after: current.rules.len(),
        program: current,
        applied_passes: applied,
        rules_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{Atom, BodyElem, CmpOp, DlExpr, Rule};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    /// The paper's running example in DLIR form (Figure 3d).
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
            Atom::with_vars("Return", &["n", "cityId"]),
            vec![
                atom("Where1", &["n", "x1", "p"]),
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
    fn level_none_is_identity() {
        let p = figure3d();
        let out = optimize(&p, OptLevel::None).unwrap();
        assert_eq!(out.program, p);
        assert!(out.applied_passes.is_empty());
        assert_eq!(out.rules_before, out.rules_after);
    }

    #[test]
    fn full_optimization_of_the_running_example_leaves_one_rule() {
        // Figure 4b: after inlining + dead rule elimination only the Return
        // rule remains.
        let out = optimize(&figure3d(), OptLevel::Full).unwrap();
        assert_eq!(out.rules_after, 1);
        assert_eq!(out.program.rules[0].head.relation, "Return");
        assert!(out.applied_passes.contains(&"inline".to_string()));
        assert!(out.applied_passes.contains(&"dead-rule-elimination".to_string()));
    }

    #[test]
    fn optimizer_output_is_always_valid() {
        let out = optimize(&figure3d(), OptLevel::Full).unwrap();
        assert!(raqlet_dlir::validate(&out.program).is_ok());
    }

    #[test]
    fn basic_level_skips_recursion_rewrites() {
        // Non-linear TC with a bound source: Basic leaves it non-linear and
        // without magic predicates; Full applies both.
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

        let basic = optimize(&p, OptLevel::Basic).unwrap();
        assert!(!basic.applied_passes.contains(&"linearization".to_string()));
        assert!(!basic.program.idb_names().iter().any(|n| n.starts_with("Magic_")));

        let full = optimize(&p, OptLevel::Full).unwrap();
        assert!(full.applied_passes.contains(&"linearization".to_string()));
        assert!(full.applied_passes.contains(&"magic-sets".to_string()));
        assert!(full.program.idb_names().iter().any(|n| n.starts_with("Magic_")));
        assert!(raqlet_analysis::analyze(&full.program).linearity.is_linear_or_nonrecursive());
    }

    #[test]
    fn sql_target_runs_magic_sets_like_any() {
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

        let sql = optimize_for(&p, OptLevel::Full, TargetBackend::Sql).unwrap();
        assert!(sql.applied_passes.contains(&"magic-sets".to_string()));
        assert!(sql.program.idb_names().iter().any(|n| n.starts_with("Magic_")));

        let any = optimize_for(&p, OptLevel::Full, TargetBackend::Any).unwrap();
        assert_eq!(sql.applied_passes, any.applied_passes);
        assert_eq!(sql.program.to_string(), any.program.to_string());

        let (both_any, both_sql) = optimize_for_backends(&p, OptLevel::Full).unwrap();
        assert_eq!(both_any.program.to_string(), any.program.to_string());
        assert_eq!(both_sql.program.to_string(), sql.program.to_string());
    }

    #[test]
    fn both_targets_get_the_same_pass_set() {
        for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
            let any = PassConfig::for_target(level, TargetBackend::Any);
            let sql = PassConfig::for_target(level, TargetBackend::Sql);
            assert_eq!(format!("{any:?}"), format!("{sql:?}"), "{level:?}");
        }
        assert!(PassConfig::for_target(OptLevel::Full, TargetBackend::Sql).magic_sets);
    }

    #[test]
    fn pass_config_allows_individual_ablation() {
        let mut config = PassConfig::for_level(OptLevel::Full);
        config.inline = false;
        let out = optimize_with(&figure3d(), &config).unwrap();
        assert!(!out.applied_passes.contains(&"inline".to_string()));
        // Without inlining the chain Match1 -> Where1 -> Return stays.
        assert_eq!(out.rules_after, 3);
    }

    #[test]
    fn optimization_reports_rule_counts() {
        let out = optimize(&figure3d(), OptLevel::Full).unwrap();
        assert_eq!(out.rules_before, 3);
        assert!(out.rules_after <= out.rules_before);
    }
}
