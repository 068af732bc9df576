//! Evaluation counters shared by the engines and the error type.
//!
//! `EvalStats` lives in `raqlet_common` (rather than the engine crate that
//! fills it in) so that guard-trip errors — [`crate::error::RaqletError::Timeout`],
//! [`crate::error::RaqletError::BudgetExceeded`], [`crate::error::RaqletError::Cancelled`]
//! — can carry the partial counters accumulated up to the trip point without
//! a dependency cycle. The engine crate re-exports it, so downstream code can
//! keep using `raqlet_engine::EvalStats`.

/// Counters describing an evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of strata evaluated.
    pub strata: usize,
    /// Strongly connected components scheduled across all strata (only
    /// components owning at least one fixpoint rule are counted).
    pub sccs: usize,
    /// Components that required fixpoint iteration (self- or mutual
    /// recursion). `sccs - looping_sccs` components were fully evaluated in
    /// a single round with no delta bookkeeping.
    pub looping_sccs: usize,
    /// Total evaluation rounds across all components (one per non-looping
    /// component; round zero plus every delta round for looping ones).
    pub iterations: usize,
    /// Total number of rule applications. Evaluation counts one per rule
    /// per round (per recursive position in semi-naive rounds);
    /// incremental maintenance counts one per pinned join — per subset of
    /// changed positions and per insert/delete part — plus one per DRed
    /// re-derivation check.
    pub rule_applications: usize,
    /// Total tuples derived (including duplicates discarded by set
    /// semantics).
    pub tuples_derived: usize,
    /// Worker tasks spawned for partitioned rule applications (0 when every
    /// rule ran on the calling thread). Both delta-driven and round-zero
    /// applications count.
    pub parallel_tasks: usize,
}
