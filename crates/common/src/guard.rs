//! Cooperative execution governance: deadlines, budgets, and cancellation.
//!
//! A [`QueryGuard`] travels by reference through every evaluation path (the
//! Datalog, SQL, and graph engines plus incremental view maintenance) and is
//! consulted at well-defined checkpoints: the top of each fixpoint round,
//! before each strongly connected component, at the start of every parallel
//! rule-application chunk, and periodically inside join/scan inner loops so a
//! single dense round cannot overshoot a deadline by more than a bounded
//! amount of work. A tripped guard surfaces as one of the structured error
//! variants [`RaqletError::Timeout`], [`RaqletError::BudgetExceeded`], or
//! [`RaqletError::Cancelled`], each carrying the partial
//! [`EvalStats`](crate::stats::EvalStats)
//! accumulated up to the trip.
//!
//! The guard is deliberately cheap when idle: a default (unlimited) guard is
//! a single branch per checkpoint, so the ungoverned public APIs can share
//! the governed code paths without measurable overhead.
//!
//! Fault injection for tests rides the same mechanism: a [`FaultHook`]
//! installed on the guard sees every checkpoint (site + global hit count) and
//! may force a cancellation, a budget trip, or a synthetic panic at a
//! schedule chosen by the harness (`raqlet_engine::fault`).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::RaqletError;

/// A shareable cooperative cancellation flag.
///
/// Clones share the same underlying flag: cancel from any thread, observe
/// from any thread. Engines poll it at guard checkpoints; there is no
/// preemption, so cancellation latency is bounded by the checkpoint spacing
/// (at most one join-scan period, see [`QueryGuard::checkpoint`]).
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Where in the engines a guard checkpoint fires.
///
/// Fault-injection hooks receive the site so schedules can target (or avoid)
/// specific classes of checkpoint; production checks treat all sites alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckPoint {
    /// Top of a semi-naive fixpoint round (Datalog SCC delta rounds, SQL
    /// recursive-CTE iterations).
    FixpointRound,
    /// Before evaluating one strongly connected component (or one aggregate
    /// rule batch) of a stratum.
    Scc,
    /// Start of a parallel rule-application chunk, on the worker thread.
    ParallelChunk,
    /// Periodic check inside a join/scan inner loop (every
    /// [`JOIN_SCAN_PERIOD`] candidate rows), and once after each Datalog rule
    /// application's join, before its rows are stored.
    JoinScan,
    /// Per-clause and per-frontier-step checks in the graph engine.
    GraphStep,
    /// Per-relation / per-cascade-round steps during incremental view
    /// maintenance.
    IvmStep,
}

/// How many inner-loop iterations a join/scan may run between guard checks.
///
/// Chosen so the periodic check costs well under 0.1% of join time while
/// bounding deadline overshoot: 64Ki candidate rows is microseconds of work,
/// far inside the 2x-deadline envelope the governance layer promises.
pub const JOIN_SCAN_PERIOD: u64 = 1 << 16;

/// A fault a test harness may inject at a checkpoint via [`FaultHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Behave as if the cancellation token had been tripped.
    Cancel,
    /// Behave as if the wall-clock deadline had expired.
    Timeout,
    /// Behave as if the derived-tuple budget had been exhausted.
    Budget,
    /// Panic on the checkpointing thread (exercises containment paths).
    Panic,
}

/// A fault-injection hook: sees every checkpoint's site and the 1-based
/// global hit count, returns a fault to inject or `None` to let execution
/// proceed. Must be deterministic for reproducible schedules.
pub type FaultHook = dyn Fn(CheckPoint, u64) -> Option<InjectedFault> + Send + Sync;

/// Execution limits and cancellation for one evaluation call.
///
/// Construct with [`QueryGuard::new`] (unlimited) and arm selectively:
///
/// ```
/// use raqlet_common::guard::{CancellationToken, QueryGuard};
/// use std::time::Duration;
///
/// let token = CancellationToken::new();
/// let guard = QueryGuard::new()
///     .with_deadline(Duration::from_millis(250))
///     .with_tuple_budget(1_000_000)
///     .with_cancellation(token.clone());
/// // ... pass &guard to an engine's *_guarded entry point; call
/// // token.cancel() from another thread to stop it cooperatively.
/// # let _ = guard;
/// ```
///
/// The guard is `Sync`: parallel rule-application workers check the same
/// guard concurrently. All counters are relaxed atomics — checkpoints need
/// no ordering guarantees beyond eventual visibility.
pub struct QueryGuard {
    /// False for a fully unlimited guard: checkpoints return immediately.
    armed: bool,
    /// When the guarded call started (set at construction).
    start: Instant,
    /// Absolute deadline, if a wall-clock limit was requested.
    deadline: Option<Instant>,
    /// The requested relative limit (for error reporting).
    deadline_limit: Option<Duration>,
    /// Maximum derived tuples (as reported via [`add_tuples`](Self::add_tuples)).
    tuple_budget: Option<u64>,
    /// Maximum `Database::heap_bytes` (checked where the engine can see the
    /// database, via [`check_memory`](Self::check_memory)).
    memory_budget: Option<usize>,
    token: CancellationToken,
    fault: Option<Arc<FaultHook>>,
    /// Checkpoints hit so far (1-based counter feeding fault schedules).
    hits: AtomicU64,
    /// Derived tuples reported so far.
    tuples: AtomicU64,
}

impl fmt::Debug for QueryGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryGuard")
            .field("deadline", &self.deadline_limit)
            .field("tuple_budget", &self.tuple_budget)
            .field("memory_budget", &self.memory_budget)
            .field("cancelled", &self.token.is_cancelled())
            .field("fault_hook", &self.fault.is_some())
            .field("checkpoints_hit", &self.hits.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for QueryGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryGuard {
    /// An unlimited guard: no deadline, no budgets, a private (never
    /// cancelled) token, no fault hook. Checkpoints cost one branch.
    pub fn new() -> Self {
        QueryGuard {
            armed: false,
            start: Instant::now(),
            deadline: None,
            deadline_limit: None,
            tuple_budget: None,
            memory_budget: None,
            token: CancellationToken::new(),
            fault: None,
            hits: AtomicU64::new(0),
            tuples: AtomicU64::new(0),
        }
    }

    /// Arm a wall-clock deadline, measured from guard construction.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(self.start + limit);
        self.deadline_limit = Some(limit);
        self.armed = true;
        self
    }

    /// Arm a derived-tuple budget. Tuples are counted as engines report them
    /// (every derived tuple before set-semantics deduplication), so the
    /// budget bounds work performed, not result size.
    pub fn with_tuple_budget(mut self, max_tuples: u64) -> Self {
        self.tuple_budget = Some(max_tuples);
        self.armed = true;
        self
    }

    /// Arm a heap budget in bytes, compared against `Database::heap_bytes()`
    /// at round/SCC boundaries. The measurement is the engine's own packed
    /// arena + dictionary accounting, not allocator-level RSS.
    pub fn with_memory_budget(mut self, max_heap_bytes: usize) -> Self {
        self.memory_budget = Some(max_heap_bytes);
        self.armed = true;
        self
    }

    /// Attach a shared cancellation token (replacing the private one).
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.token = token;
        self.armed = true;
        self
    }

    /// Install a fault-injection hook (test harnesses only; see
    /// `raqlet_engine::fault`). The hook is consulted at every checkpoint.
    pub fn with_fault_hook(mut self, hook: Arc<FaultHook>) -> Self {
        self.fault = Some(hook);
        self.armed = true;
        self
    }

    /// True if any limit, shared token, or fault hook is armed. Engines use
    /// this to decide whether error-path rollback snapshots are needed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// A clone of the guard's cancellation token.
    pub fn cancellation_token(&self) -> CancellationToken {
        self.token.clone()
    }

    /// Wall-clock time since the guard was constructed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The heap budget, if armed. Engines skip computing `heap_bytes()`
    /// (which walks the dictionary) when this is `None`.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// Checkpoints hit so far (0 for unarmed guards, which do not count).
    pub fn checkpoints_hit(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Report `n` freshly derived tuples against the tuple budget.
    ///
    /// Engines call this where they bump `EvalStats::tuples_derived`; the
    /// budget itself is enforced at the next [`checkpoint`](Self::checkpoint).
    #[inline]
    pub fn add_tuples(&self, n: usize) {
        if self.tuple_budget.is_some() {
            self.tuples.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Consult the guard at a checkpoint.
    ///
    /// Returns `Err` with a [`RaqletError::Timeout`], `BudgetExceeded`, or
    /// `Cancelled` (with empty stats — the engine's top-level entry point
    /// attaches the partial counters via
    /// [`RaqletError::with_partial_stats`]) when a limit has been exceeded.
    /// Unarmed guards return `Ok(())` after a single branch.
    ///
    /// # Panics
    ///
    /// Panics only when an installed fault hook injects
    /// [`InjectedFault::Panic`] (test harnesses exercising containment).
    #[inline]
    pub fn checkpoint(&self, site: CheckPoint) -> Result<(), RaqletError> {
        if !self.armed {
            return Ok(());
        }
        self.checkpoint_armed(site)
    }

    /// The slow path of [`checkpoint`](Self::checkpoint); kept out of line so
    /// the unarmed fast path stays a branch + tail call.
    #[cold]
    fn checkpoint_armed(&self, site: CheckPoint) -> Result<(), RaqletError> {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(hook) = &self.fault {
            match hook(site, hit) {
                None => {}
                Some(InjectedFault::Cancel) => {
                    // Trip the real token so sibling workers stop too and the
                    // injected fault is indistinguishable from a user cancel.
                    self.token.cancel();
                }
                Some(InjectedFault::Timeout) => {
                    return Err(self.timeout_error());
                }
                Some(InjectedFault::Budget) => {
                    return Err(RaqletError::budget_exceeded(
                        "tuples",
                        self.tuples.load(Ordering::Relaxed),
                        self.tuple_budget.unwrap_or(0),
                    ));
                }
                Some(InjectedFault::Panic) => {
                    panic!("injected fault: synthetic panic at {site:?} (checkpoint {hit})");
                }
            }
        }
        if self.token.is_cancelled() {
            return Err(RaqletError::cancelled());
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.timeout_error());
            }
        }
        if let Some(budget) = self.tuple_budget {
            let used = self.tuples.load(Ordering::Relaxed);
            if used > budget {
                return Err(RaqletError::budget_exceeded("tuples", used, budget));
            }
        }
        Ok(())
    }

    /// Check the heap budget against a measured `heap_bytes` value. Called
    /// by engines at round boundaries, only when
    /// [`memory_budget`](Self::memory_budget) is armed.
    pub fn check_memory(&self, heap_bytes: usize) -> Result<(), RaqletError> {
        match self.memory_budget {
            Some(budget) if heap_bytes > budget => {
                Err(RaqletError::budget_exceeded("heap_bytes", heap_bytes as u64, budget as u64))
            }
            _ => Ok(()),
        }
    }

    fn timeout_error(&self) -> RaqletError {
        RaqletError::timeout(self.elapsed(), self.deadline_limit.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RaqletError;

    #[test]
    fn unarmed_guard_never_trips() {
        let guard = QueryGuard::new();
        assert!(!guard.is_armed());
        for _ in 0..1000 {
            guard.checkpoint(CheckPoint::FixpointRound).unwrap();
        }
        assert_eq!(guard.checkpoints_hit(), 0, "unarmed guards do not count");
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let token = CancellationToken::new();
        let guard = QueryGuard::new().with_cancellation(token.clone());
        guard.checkpoint(CheckPoint::Scc).unwrap();
        token.cancel();
        let err = guard.checkpoint(CheckPoint::Scc).unwrap_err();
        assert!(matches!(err, RaqletError::Cancelled { .. }), "{err:?}");
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let guard = QueryGuard::new().with_deadline(Duration::ZERO);
        let err = guard.checkpoint(CheckPoint::FixpointRound).unwrap_err();
        assert!(matches!(err, RaqletError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn tuple_budget_trips_once_exceeded() {
        let guard = QueryGuard::new().with_tuple_budget(10);
        guard.add_tuples(10);
        guard.checkpoint(CheckPoint::FixpointRound).unwrap();
        guard.add_tuples(1);
        let err = guard.checkpoint(CheckPoint::FixpointRound).unwrap_err();
        match err {
            RaqletError::BudgetExceeded { resource, used, limit, .. } => {
                assert_eq!(resource, "tuples");
                assert_eq!((used, limit), (11, 10));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_checks_supplied_measurement() {
        let guard = QueryGuard::new().with_memory_budget(4096);
        assert_eq!(guard.memory_budget(), Some(4096));
        guard.check_memory(4096).unwrap();
        let err = guard.check_memory(4097).unwrap_err();
        assert!(
            matches!(err, RaqletError::BudgetExceeded { resource: "heap_bytes", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn fault_hook_sees_sites_and_hit_counts() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(CheckPoint, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let guard = QueryGuard::new().with_fault_hook(Arc::new(move |site, hit| {
            log.lock().unwrap().push((site, hit));
            None
        }));
        guard.checkpoint(CheckPoint::Scc).unwrap();
        guard.checkpoint(CheckPoint::JoinScan).unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, vec![(CheckPoint::Scc, 1), (CheckPoint::JoinScan, 2)]);
    }

    #[test]
    fn injected_cancel_trips_the_real_token() {
        let guard = QueryGuard::new()
            .with_fault_hook(Arc::new(|_, hit| (hit == 2).then_some(InjectedFault::Cancel)));
        let token = guard.cancellation_token();
        guard.checkpoint(CheckPoint::FixpointRound).unwrap();
        let err = guard.checkpoint(CheckPoint::FixpointRound).unwrap_err();
        assert!(matches!(err, RaqletError::Cancelled { .. }), "{err:?}");
        assert!(token.is_cancelled(), "sibling workers observe the injected cancel");
    }

    #[test]
    fn injected_panic_panics_at_the_checkpoint() {
        let guard = QueryGuard::new().with_fault_hook(Arc::new(|_, _| Some(InjectedFault::Panic)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = guard.checkpoint(CheckPoint::ParallelChunk);
        }));
        assert!(result.is_err());
    }
}
