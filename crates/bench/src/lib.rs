//! The quick-mode switch of the `raqbench` benchmark.
//!
//! This crate exists only because `raqbench/src/main.rs` imports
//! [`quick_mode`] from it. Its `[dependencies]` table is frozen: the
//! benchmark builds with `--locked` against `raqbench/Cargo.lock`, which
//! pins this crate's dependency list, so dropping an entry that nothing here
//! uses would still break that build.

/// True if `RAQLET_BENCH_QUICK` is set to anything but empty or `0`: every
/// `raqbench` workload then runs at a fraction-of-a-second quick size.
pub fn quick_mode() -> bool {
    std::env::var("RAQLET_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}
