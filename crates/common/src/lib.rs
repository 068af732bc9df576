//! # raqlet-common
//!
//! Shared data model for the Raqlet cross-paradigm compiler.
//!
//! This crate contains the types that every other Raqlet crate builds on:
//!
//! * [`value::Value`] — the dynamically typed scalar value that flows through
//!   every engine (graph, relational, deductive);
//! * [`ops`] — the comparison, arithmetic and aggregate operators every IR
//!   names and every engine evaluates, with their three-valued semantics;
//! * [`types::ValueType`] — the static type lattice used by schemas and by
//!   type inference in the IR lowerings;
//! * [`schema`] — the property-graph schema (PG-Schema) and the Datalog
//!   schema (DL-Schema) models, mirroring Figure 2 of the paper;
//! * [`cell`] — packed, dictionary-encoded tuple cells (tagged `u64` words)
//!   and the per-database [`cell::ValueDict`];
//! * [`relation`] — in-memory relations (flat packed-row arenas) and
//!   databases, shared by the Datalog and SQL execution substrates;
//! * [`guard`] — cooperative execution governance: the [`guard::QueryGuard`]
//!   deadlines/budgets/cancellation checked at engine checkpoints;
//! * [`stats`] — evaluation counters ([`stats::EvalStats`]) shared by the
//!   engines and by guard-trip errors;
//! * [`hash`] — the fast multiply-xor hasher used on the storage hot paths;
//! * [`rng`] — a tiny deterministic PRNG for data generators and tests;
//! * [`diag`] — coded diagnostics ([`diag::Diagnostic`], `RAQxxx` codes,
//!   allow/warn/deny severities) shared by DLIR validation and the
//!   `raqcheck` analyzer;
//! * [`error`] — the common error type.
//!
//! The crate is dependency-free on purpose so every layer of the compiler can
//! use it without pulling anything external into the build.

#![deny(missing_docs)]
// Robustness: non-test code must not unwrap/expect its way into a panic on a
// reachable path — every justified exception carries an `#[allow]` with its
// invariant spelled out. Tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cell;
pub mod diag;
pub mod error;
pub mod guard;
pub mod hash;
pub mod ids;
pub mod ops;
pub mod relation;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod support;
pub mod types;
pub mod value;

pub use cell::{Cell, ValueDict};
pub use diag::{DiagCode, Diagnostic, Severity, SeverityConfig};
pub use error::{RaqletError, Result};
pub use guard::{CancellationToken, CheckPoint, InjectedFault, QueryGuard};
pub use ops::{AggFunc, ArithOp, CmpOp};
pub use relation::{Database, Relation, Tuple};
pub use rng::SplitMix64;
pub use schema::{DlSchema, PgSchema};
pub use stats::EvalStats;
pub use support::{SupportChange, SupportCounts};
pub use types::ValueType;
pub use value::Value;
