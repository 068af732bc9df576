//! Deterministic fault-injection harness for the execution-governance layer.
//!
//! Robustness claims are only worth what their tests exercise, so this module
//! turns one PRNG seed into a *fault schedule*: a fault kind (cancellation,
//! deadline trip, budget trip, or a synthetic panic) plus the guard-checkpoint
//! hit number at which to inject it. Because every engine checkpoint reports
//! its global hit count to the guard's fault hook, a schedule deterministically
//! picks one moment inside an evaluation — a fixpoint round, an SCC boundary,
//! a join-scan tick, an IVM step — and fails it
//! there. Sweeping seeds sweeps injection points across the whole execution.
//!
//! The module is compiled only for tests (`cfg(test)` or the `fault-inject`
//! feature); release builds of the engine carry none of it.
//!
//! Typical use, from a differential test:
//!
//! ```ignore
//! let schedule = FaultSchedule::from_seed(seed, 40);
//! let guard = schedule.guard();
//! let err = prepared.run_guarded(&program, "tc", &guard);
//! // `err` is Ok only if the schedule's trip point was past the end of the
//! // execution; on Err, assert the database equals an untouched control.
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use raqlet_common::error::panic_message;
use raqlet_common::guard::{CheckPoint, InjectedFault, QueryGuard};
use raqlet_common::rng::SplitMix64;
use raqlet_common::{RaqletError, Result};

/// One deterministic fault schedule: inject `kind` at the `trip_at`-th guard
/// checkpoint hit (1-based). Derived from a seed, so a failing schedule is
/// reproducible from its seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The seed this schedule was derived from (kept for diagnostics).
    pub seed: u64,
    /// The fault to inject.
    pub kind: InjectedFault,
    /// 1-based checkpoint hit count at which the fault fires. A schedule
    /// whose trip point lies past the end of the execution injects nothing —
    /// the call succeeds, which sweeps naturally cover.
    pub trip_at: u64,
}

impl FaultSchedule {
    /// Derive a schedule from `seed`, tripping somewhere within the first
    /// `max_hit` checkpoint hits. All four fault kinds are drawn uniformly.
    pub fn from_seed(seed: u64, max_hit: u64) -> FaultSchedule {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let kind = match rng.gen_index(0..4) {
            0 => InjectedFault::Cancel,
            1 => InjectedFault::Timeout,
            2 => InjectedFault::Budget,
            _ => InjectedFault::Panic,
        };
        let trip_at = 1 + rng.next_u64() % max_hit.max(1);
        FaultSchedule { seed, kind, trip_at }
    }

    /// A guard armed with this schedule: its fault hook fires `kind` at
    /// checkpoint hit `trip_at` and stays silent otherwise.
    pub fn guard(&self) -> QueryGuard {
        let FaultSchedule { kind, trip_at, .. } = *self;
        QueryGuard::new().with_fault_hook(Arc::new(move |_site: CheckPoint, hit: u64| {
            (hit == trip_at).then_some(kind)
        }))
    }
}

/// Run `f`, converting any panic into [`RaqletError::Internal`] carrying the
/// panic message. The differential suites use this to keep sweeping after an
/// injected synthetic panic (`PreparedDatabase`'s guarded entry points
/// contain panics themselves, so this is for driving the raw engines).
pub fn with_contained_panics<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(RaqletError::internal(format!("contained panic: {}", panic_message(payload.as_ref()))))
    })
}

/// Count the guard checkpoints an execution hits, by running it once under an
/// armed guard whose fault hook never fires. Sweeps use this to size
/// `max_hit` so the schedule space actually covers the execution.
pub fn count_checkpoints(f: impl FnOnce(&QueryGuard) -> Result<()>) -> Result<u64> {
    let guard = QueryGuard::new().with_fault_hook(Arc::new(|_, _| None));
    f(&guard)?;
    Ok(guard.checkpoints_hit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        for seed in 0..64 {
            let a = FaultSchedule::from_seed(seed, 40);
            let b = FaultSchedule::from_seed(seed, 40);
            assert_eq!(a, b);
            assert!(a.trip_at >= 1 && a.trip_at <= 40);
        }
    }

    #[test]
    fn seed_sweep_covers_every_fault_kind() {
        let mut seen = [false; 4];
        for seed in 0..64 {
            let s = FaultSchedule::from_seed(seed, 10);
            seen[match s.kind {
                InjectedFault::Cancel => 0,
                InjectedFault::Timeout => 1,
                InjectedFault::Budget => 2,
                InjectedFault::Panic => 3,
            }] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn contained_panics_become_internal_errors() {
        let out: Result<()> = with_contained_panics(|| panic!("boom at {}", 7));
        let err = out.unwrap_err();
        assert!(err.to_string().contains("boom at 7"), "{err}");
    }
}
