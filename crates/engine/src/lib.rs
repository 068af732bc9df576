//! # raqlet-engine
//!
//! Execution substrates for Raqlet. The paper evaluates its generated queries
//! on Neo4j (Cypher), Soufflé (Datalog), DuckDB and Tableau HyPer (SQL);
//! this crate provides laptop-scale in-memory simulators of those backends so
//! the whole evaluation can run hermetically (the engine table in
//! `docs/ARCHITECTURE.md` lists which engine stands in for which backend):
//!
//! * [`datalog`] — a stratified naive/semi-naive Datalog engine with lattice
//!   (shortest-path) support — the Soufflé stand-in and Raqlet's golden
//!   reference implementation;
//! * [`prepared`] — warm execution: a [`PreparedDatabase`] keeps the EDB row
//!   arenas and persistent indexes alive across runs, eliminating the
//!   per-call clone+reindex tax;
//! * [`ivm`] — incremental view maintenance: standing queries installed on a
//!   [`PreparedDatabase`] absorb batches of extensional inserts and deletes
//!   ([`EdbDelta`]) without recomputation, via per-SCC counting / DRed /
//!   scoped-lattice strategies;
//! * [`sql`] — a SQIR interpreter (CTE chains, recursive CTEs, hash or
//!   nested-loop joins, aggregation, NOT EXISTS) with DuckDB-like and
//!   HyPer-like profiles;
//! * [`graph`] — a property-graph store plus a clause-by-clause PGIR
//!   interpreter — the Neo4j stand-in executing the original Cypher query.
//!
//! Every engine entry point has a `*_guarded` variant taking a
//! [`raqlet_common::QueryGuard`] — a wall-clock deadline, derived-tuple and
//! heap budgets, and a cooperative cancellation token, checked at fixpoint
//! rounds, SCC boundaries, join scans and traversal steps. The `fault`
//! module (compiled for tests and the `fault-inject` feature only) sweeps
//! deterministic fault schedules across those checkpoints to prove failure
//! atomicity.

#![deny(missing_docs)]
// Robustness: the engine's non-test code must not unwrap/expect its way into
// a panic on a reachable path — every justified exception carries an
// `#[allow]` with its invariant spelled out. Tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod datalog;
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod graph;
pub mod ivm;
pub mod prepared;
pub mod sql;

pub use datalog::{DatalogEngine, EvalResult, EvalStats, EvalStrategy};
pub use graph::{GraphEngine, GraphResult, GraphStats, PropertyGraph};
pub use ivm::EdbDelta;
pub use prepared::PreparedDatabase;
pub use sql::{SqlEngine, SqlProfile, SqlResult, SqlStats, TableCatalog};
