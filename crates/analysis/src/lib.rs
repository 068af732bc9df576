//! # raqlet-analysis
//!
//! Static analyses over DLIR (Section 4 of the paper). Every analysis is
//! implemented once, at the DLIR level, independent of the source query
//! language:
//!
//! * [`report`] — [`analyze`] answers the recursion questions in one pass
//!   over one dependency graph and one stratification: [`Linearity`], mutual
//!   recursion, [`Monotonicity`], [`TerminationRisk`]s and the SCC and
//!   stratum counts, combined in an [`AnalysisReport`]. The report warns; it
//!   refuses nothing. Each backend refuses what it cannot run where it
//!   compiles the program (the SQL lowering, the Datalog engine).
//!
//! Beside the report sits **raqcheck**, the static-analysis and lint layer:
//!
//! * [`dataflow`] — abstract interpretation over DLIR: per-column
//!   type/constant lattice inference, emptiness propagation, reachability;
//! * [`lints`] — the RAQ001–RAQ008 lint suite (unused relations,
//!   never-firing rules, cartesian products, type mismatches, duplicate
//!   rules, magic-sets-defeating outputs, stats-seeded plan advisories);
//! * [`stats`] — [`EdbStats`] collected from a live database, feeding the
//!   plan lints and the future cost model;
//! * [`raqcheck`] — the [`RaqCheck`] driver combining DLIR validation and
//!   the lint suite under a configurable severity policy.
//!
//! See `docs/diagnostics.md` for the full diagnostic code table.

// Robustness: non-test code must not unwrap/expect its way into a panic on a
// reachable path — every justified exception carries an `#[allow]` with its
// invariant spelled out. Tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod dataflow;
pub mod lints;
pub mod raqcheck;
pub mod report;
pub mod stats;

pub use dataflow::{analyze_dataflow, AbsVal, Dataflow, DeadReason, TypeConflict};
pub use raqcheck::RaqCheck;
pub use report::{analyze, AnalysisReport, Linearity, Monotonicity, TerminationRisk};
pub use stats::{EdbStats, RelationStats};

// Re-export the diagnostic currency so analyzer users need only this crate.
pub use raqlet_common::diag::{DiagCode, Diagnostic, Severity, SeverityConfig};
