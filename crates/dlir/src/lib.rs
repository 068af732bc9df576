//! # raqlet-dlir
//!
//! DLIR — the Datalog Intermediate Representation — is the core of Raqlet's
//! pipeline and the level at which static analysis and optimization happen
//! (Sections 3–5 of the paper). This crate provides:
//!
//! * [`ir`] — the DLIR data structures: rules, atoms, terms, constraints,
//!   aggregation, lattice annotations and whole programs;
//! * [`schema_gen`] — the data-model transformation from PG-Schema to
//!   DL-Schema (Figure 2);
//! * [`lower`] — the PGIR → DLIR translation (Figure 3b → Figure 3c);
//! * [`depgraph`] — the predicate dependency graph and its SCCs;
//! * [`mod@stratify`] — stratification (negation/aggregation must not occur in a
//!   recursive cycle);
//! * [`mod@validate`] — safety (range restriction) and arity validation;
//! * [`subst`] — in-place variable substitution and capture-avoiding
//!   instantiation of a definition's body at a call site.

// Robustness: non-test code must not unwrap/expect its way into a panic on a
// reachable path — every justified exception carries an `#[allow]` with its
// invariant spelled out. Tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod depgraph;
pub mod ir;
pub mod lower;
pub mod schema_gen;
pub mod stratify;
pub mod subst;
pub mod validate;

pub use depgraph::{DepGraph, DepKind, SccGroup};
pub use ir::*;
pub use lower::{lower_pgir, lower_pgir_with_schema, LoweredQuery};
pub use schema_gen::{edge_label_to_snake, generate_dl_schema};
pub use stratify::{stratify, stratify_with, Stratification};
pub use subst::instantiate;
pub use validate::{bound_with_equalities, check_program, validate};
