//! # raqlet-opt
//!
//! DLIR-level query optimization (Section 5 of the paper). The passes are
//! independent in-place rewrites of shape `fn(&mut DlirProgram) -> bool`
//! (the flag says whether the program changed), orchestrated by a small pass
//! manager ([`pipeline`]):
//!
//! * [`mod@inline`] — view/rule inlining with duplicate-atom removal;
//! * [`dead`] — dead rule elimination;
//! * [`constprop`] — constant propagation and constraint folding;
//! * [`semantic`] — semantic join optimizations driven by schema keys
//!   (self-join merging, referential-integrity join elimination);
//! * [`magic`] — the magic-set transformation (pushing selections past
//!   recursion);
//! * [`mod@linearize`] — rewriting non-linear recursion into linear recursion.
//!
//! All passes preserve the program's least-model semantics; the integration
//! and property tests in the workspace check this by executing optimized and
//! unoptimized programs on the same data and comparing results.
//!
//! One optimized program serves every backend: the magic-set rewrite pushes
//! a bound source into the fixpoint of a bottom-up Datalog engine and of a
//! recursive CTE alike, so the SQL-targeted pass set is the Datalog one
//! ([`TargetBackend`]), and [`optimize_for_backends`] runs the pipeline once
//! and hands the same program to both.
//!
//! ```
//! use raqlet_dlir::{Atom, BodyElem, DlExpr, DlirProgram, Rule};
//! use raqlet_opt::{optimize_for, OptLevel, TargetBackend};
//!
//! // tc(x, y) :- edge(x, y).  tc(x, y) :- tc(x, z), edge(z, y).
//! // Return(y) :- tc(x, y), x = 1.
//! let mut program = DlirProgram::default();
//! let atom = |name: &str, vars: &[&str]| BodyElem::Atom(Atom::with_vars(name, vars));
//! program.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
//! program.add_rule(Rule::new(
//!     Atom::with_vars("tc", &["x", "y"]),
//!     vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
//! ));
//! program.add_rule(Rule::new(
//!     Atom::with_vars("Return", &["y"]),
//!     vec![atom("tc", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(1))],
//! ));
//! program.add_output("Return");
//!
//! // The full pipeline pushes the bound source into the recursion via
//! // magic sets, for Datalog engines and SQL engines alike.
//! let datalog = optimize_for(&program, OptLevel::Full, TargetBackend::Any).unwrap();
//! assert!(datalog.program.idb_names().iter().any(|n| n.starts_with("Magic_")));
//! assert!(datalog.applied_passes.contains(&"magic-sets".to_string()));
//!
//! let sql = optimize_for(&program, OptLevel::Full, TargetBackend::Sql).unwrap();
//! assert_eq!(sql.program, datalog.program);
//! ```

// Robustness: non-test code must not unwrap/expect its way into a panic on a
// reachable path — every justified exception carries an `#[allow]` with its
// invariant spelled out. Tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod constprop;
pub mod dead;
pub mod inline;
pub mod linearize;
pub mod magic;
pub mod pipeline;
pub mod semantic;

pub use constprop::propagate_constants;
pub use dead::eliminate_dead_rules;
pub use inline::inline;
pub use linearize::linearize;
pub use magic::magic_sets;
pub use pipeline::{
    optimize, optimize_for, optimize_for_backends, optimize_with, OptLevel, OptimizedProgram,
    PassConfig, TargetBackend,
};
pub use semantic::optimize_joins;
