//! Common error type shared by all Raqlet crates.

use std::fmt;
use std::time::Duration;

use crate::stats::EvalStats;

/// Convenience alias used across the workspace.
pub type Result<T, E = RaqletError> = std::result::Result<T, E>;

/// Errors produced anywhere in the Raqlet pipeline.
///
/// The variants are organised by pipeline stage so that callers can surface
/// the right kind of diagnostic (parse error vs. semantic error vs. backend
/// limitation) without needing stage-specific error types everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaqletError {
    /// Lexing failed (unexpected character, unterminated string, ...).
    Lex {
        /// What the lexer could not make sense of.
        message: String,
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        column: u32,
    },
    /// Parsing failed (unexpected token, missing clause, ...).
    Parse {
        /// What the parser expected or found instead.
        message: String,
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        column: u32,
    },
    /// A name (label, property, relation, variable) could not be resolved
    /// against the active schema or rule set.
    UnknownName {
        /// The syntactic category of the name (e.g. "label", "property").
        kind: &'static str,
        /// The unresolved name itself.
        name: String,
    },
    /// The query is well-formed but uses a feature Raqlet does not support.
    Unsupported(String),
    /// A semantic check failed during lowering (type mismatch, unbound
    /// variable, unsafe rule, ...).
    Semantic(String),
    /// A backend cannot express the query: the SQL lowering refuses mutual
    /// and non-linear recursion, which `WITH RECURSIVE` cannot express.
    BackendRejected {
        /// The backend that cannot run the query.
        backend: String,
        /// Why the backend cannot run it.
        reason: String,
    },
    /// An optimization pass detected an internal inconsistency.
    Optimization(String),
    /// Execution of a query against one of the built-in engines failed.
    Execution(String),
    /// A depth-bounded recursive SQL CTE (a shortest-path helper) would
    /// derive rows for a new group one round past its bound: the `MIN` taken
    /// over the bounded rows would silently miss that group, so the engine
    /// refuses instead of truncating.
    RecursionDepthExceeded {
        /// The bounded recursive CTE.
        cte: String,
        /// The `SqlLowerOptions::max_recursion_depth` it was lowered with.
        max_depth: i64,
    },
    /// Schema violation (duplicate relation, arity mismatch, ...).
    Schema(String),
    /// A filesystem operation performed by the durability layer failed.
    ///
    /// Carries structured context instead of a `std::io::Error` so the error
    /// stays `Clone + Eq` like every other variant; the OS message (or the
    /// injected-fault description, under crash testing) is preserved in
    /// `message`.
    Io {
        /// The operation that failed (`"create"`, `"write"`, `"fsync"`,
        /// `"rename"`, `"truncate"`, `"read"`, `"open"`, `"remove"`).
        op: &'static str,
        /// The file (or directory) the operation targeted.
        path: String,
        /// The underlying OS error or injected-fault description.
        message: String,
    },
    /// On-disk data failed validation during snapshot load or WAL recovery:
    /// bad magic, version/checksum mismatch, truncated section, impossible
    /// length, or a decoded value that violates a format invariant.
    Corrupt {
        /// The file in which the corruption was detected.
        path: String,
        /// The section being decoded when the check failed (`"header"`,
        /// `"dict"`, `"relation \`edge\`"`, `"frame"`).
        section: String,
        /// Byte offset (from the start of the file) at which the check
        /// failed.
        offset: u64,
        /// What the check expected versus what it found.
        message: String,
    },
    /// The query guard's wall-clock deadline expired before evaluation
    /// finished. Carries the counters accumulated up to the trip point.
    Timeout {
        /// Wall-clock time elapsed when the trip was observed, in
        /// milliseconds (rounded up so a sub-millisecond trip reads as 1).
        elapsed_ms: u64,
        /// The requested deadline, in milliseconds.
        limit_ms: u64,
        /// Partial evaluation counters at the trip point (boxed to keep the
        /// common error variants pointer-sized).
        stats: Box<EvalStats>,
    },
    /// A query-guard resource budget (derived tuples or heap bytes) was
    /// exhausted. Carries the counters accumulated up to the trip point.
    BudgetExceeded {
        /// Which budget tripped: `"tuples"` or `"heap_bytes"`.
        resource: &'static str,
        /// The measured consumption at the trip point.
        used: u64,
        /// The armed budget.
        limit: u64,
        /// Partial evaluation counters at the trip point.
        stats: Box<EvalStats>,
    },
    /// The query's cooperative cancellation token was tripped. Carries the
    /// counters accumulated up to the trip point.
    Cancelled {
        /// Partial evaluation counters at the trip point.
        stats: Box<EvalStats>,
    },
    /// Catch-all for internal invariant violations. Seeing this is a bug.
    Internal(String),
}

impl RaqletError {
    /// Construct a parse error with position information.
    pub fn parse(message: impl Into<String>, line: u32, column: u32) -> Self {
        RaqletError::Parse { message: message.into(), line, column }
    }

    /// Construct a lex error with position information.
    pub fn lex(message: impl Into<String>, line: u32, column: u32) -> Self {
        RaqletError::Lex { message: message.into(), line, column }
    }

    /// Construct a semantic error.
    pub fn semantic(message: impl Into<String>) -> Self {
        RaqletError::Semantic(message.into())
    }

    /// Construct an unsupported-feature error.
    pub fn unsupported(message: impl Into<String>) -> Self {
        RaqletError::Unsupported(message.into())
    }

    /// Construct an execution error.
    pub fn execution(message: impl Into<String>) -> Self {
        RaqletError::Execution(message.into())
    }

    /// Construct an internal error (invariant violation).
    pub fn internal(message: impl Into<String>) -> Self {
        RaqletError::Internal(message.into())
    }

    /// Construct a schema error.
    pub fn schema(message: impl Into<String>) -> Self {
        RaqletError::Schema(message.into())
    }

    /// Construct an I/O error with operation and path context.
    pub fn io(op: &'static str, path: impl Into<String>, message: impl Into<String>) -> Self {
        RaqletError::Io { op, path: path.into(), message: message.into() }
    }

    /// Construct a corruption error with file, section and offset context.
    pub fn corrupt(
        path: impl Into<String>,
        section: impl Into<String>,
        offset: u64,
        message: impl Into<String>,
    ) -> Self {
        RaqletError::Corrupt {
            path: path.into(),
            section: section.into(),
            offset,
            message: message.into(),
        }
    }

    /// True if this error came from the durability layer — either the
    /// filesystem failed ([`Io`](Self::Io)) or on-disk data failed
    /// validation ([`Corrupt`](Self::Corrupt)).
    pub fn is_storage_error(&self) -> bool {
        matches!(self, RaqletError::Io { .. } | RaqletError::Corrupt { .. })
    }

    /// Construct a timeout error from elapsed/limit durations (stats empty;
    /// engines attach them via [`with_partial_stats`](Self::with_partial_stats)).
    pub fn timeout(elapsed: Duration, limit: Duration) -> Self {
        RaqletError::Timeout {
            elapsed_ms: (elapsed.as_millis() as u64).max(1),
            limit_ms: limit.as_millis() as u64,
            stats: Box::default(),
        }
    }

    /// Construct a budget-exceeded error (stats empty; engines attach them
    /// via [`with_partial_stats`](Self::with_partial_stats)).
    pub fn budget_exceeded(resource: &'static str, used: u64, limit: u64) -> Self {
        RaqletError::BudgetExceeded { resource, used, limit, stats: Box::default() }
    }

    /// Construct a cancellation error (stats empty; engines attach them via
    /// [`with_partial_stats`](Self::with_partial_stats)).
    pub fn cancelled() -> Self {
        RaqletError::Cancelled { stats: Box::default() }
    }

    /// True if this error originated in the frontend (lexer or parser).
    pub fn is_syntax_error(&self) -> bool {
        matches!(self, RaqletError::Lex { .. } | RaqletError::Parse { .. })
    }

    /// True if this is a query-guard trip ([`Timeout`](Self::Timeout),
    /// [`BudgetExceeded`](Self::BudgetExceeded), or
    /// [`Cancelled`](Self::Cancelled)): the query exceeded an armed limit
    /// rather than being invalid, so retrying with a larger allowance is
    /// meaningful.
    pub fn is_guard_trip(&self) -> bool {
        matches!(
            self,
            RaqletError::Timeout { .. }
                | RaqletError::BudgetExceeded { .. }
                | RaqletError::Cancelled { .. }
        )
    }

    /// The partial evaluation counters carried by a guard-trip error.
    pub fn partial_stats(&self) -> Option<&EvalStats> {
        match self {
            RaqletError::Timeout { stats, .. }
            | RaqletError::BudgetExceeded { stats, .. }
            | RaqletError::Cancelled { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Attach partial evaluation counters to a guard-trip error.
    ///
    /// Checkpoints deep in the engines cannot see the run's counters, so
    /// they raise trips with empty stats; each engine's entry point calls
    /// this on the way out. Non-trip errors pass through unchanged.
    pub fn with_partial_stats(mut self, partial: &EvalStats) -> Self {
        if let RaqletError::Timeout { stats, .. }
        | RaqletError::BudgetExceeded { stats, .. }
        | RaqletError::Cancelled { stats } = &mut self
        {
            **stats = partial.clone();
        }
        self
    }
}

impl fmt::Display for RaqletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaqletError::Lex { message, line, column } => {
                write!(f, "lex error at {line}:{column}: {message}")
            }
            RaqletError::Parse { message, line, column } => {
                write!(f, "parse error at {line}:{column}: {message}")
            }
            RaqletError::UnknownName { kind, name } => write!(f, "unknown {kind}: `{name}`"),
            RaqletError::Unsupported(m) => write!(f, "unsupported feature: {m}"),
            RaqletError::Semantic(m) => write!(f, "semantic error: {m}"),
            RaqletError::BackendRejected { backend, reason } => {
                write!(f, "query rejected for backend `{backend}`: {reason}")
            }
            RaqletError::Optimization(m) => write!(f, "optimization error: {m}"),
            RaqletError::Execution(m) => write!(f, "execution error: {m}"),
            RaqletError::RecursionDepthExceeded { cte, max_depth } => write!(
                f,
                "recursive CTE `{cte}` derives a new group past max_recursion_depth = \
                 {max_depth}: its shortest paths would be truncated; raise \
                 SqlLowerOptions::max_recursion_depth above the graph's diameter"
            ),
            RaqletError::Schema(m) => write!(f, "schema error: {m}"),
            RaqletError::Io { op, path, message } => {
                write!(f, "i/o error: {op} on `{path}`: {message}")
            }
            RaqletError::Corrupt { path, section, offset, message } => {
                write!(f, "corrupt store file `{path}`: {section} at byte {offset}: {message}")
            }
            RaqletError::Timeout { elapsed_ms, limit_ms, .. } => {
                write!(f, "query timed out after {elapsed_ms}ms (deadline {limit_ms}ms)")
            }
            RaqletError::BudgetExceeded { resource, used, limit, .. } => {
                write!(f, "query exceeded its {resource} budget: used {used} of {limit}")
            }
            RaqletError::Cancelled { .. } => write!(f, "query cancelled"),
            RaqletError::Internal(m) => write!(f, "internal error (please report): {m}"),
        }
    }
}

impl std::error::Error for RaqletError {}

/// Extract a human-readable message from a panic payload (the `Box<dyn Any>`
/// returned by `std::panic::catch_unwind`).
///
/// Used by the engines to convert a caught panic into a structured
/// [`RaqletError::Internal`].
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_for_parse_errors() {
        let e = RaqletError::parse("expected RETURN", 3, 14);
        let s = e.to_string();
        assert!(s.contains("3:14"), "{s}");
        assert!(s.contains("expected RETURN"), "{s}");
    }

    #[test]
    fn display_includes_position_for_lex_errors() {
        let e = RaqletError::lex("unterminated string", 1, 7);
        assert_eq!(e.to_string(), "lex error at 1:7: unterminated string");
    }

    #[test]
    fn is_syntax_error_distinguishes_frontend_errors() {
        assert!(RaqletError::parse("x", 1, 1).is_syntax_error());
        assert!(RaqletError::lex("x", 1, 1).is_syntax_error());
        assert!(!RaqletError::semantic("x").is_syntax_error());
        assert!(!RaqletError::execution("x").is_syntax_error());
    }

    #[test]
    fn unknown_name_display() {
        let e = RaqletError::UnknownName { kind: "label", name: "Persn".into() };
        assert_eq!(e.to_string(), "unknown label: `Persn`");
    }

    #[test]
    fn backend_rejected_display_names_backend() {
        let e = RaqletError::BackendRejected {
            backend: "recursive-sql".into(),
            reason: "mutual recursion is not supported".into(),
        };
        assert!(e.to_string().contains("recursive-sql"));
        assert!(e.to_string().contains("mutual recursion"));
    }

    #[test]
    fn io_and_corrupt_errors_carry_full_source_context() {
        let io = RaqletError::io("fsync", "/data/wal.raq", "No space left on device");
        assert!(io.is_storage_error());
        assert_eq!(io.to_string(), "i/o error: fsync on `/data/wal.raq`: No space left on device");

        let corrupt = RaqletError::corrupt(
            "/data/snapshot.raq",
            "relation `edge`",
            4096,
            "checksum mismatch",
        );
        assert!(corrupt.is_storage_error());
        let s = corrupt.to_string();
        assert!(s.contains("/data/snapshot.raq"), "{s}");
        assert!(s.contains("relation `edge`"), "{s}");
        assert!(s.contains("4096"), "{s}");
        assert!(s.contains("checksum mismatch"), "{s}");

        assert!(!RaqletError::execution("x").is_storage_error());
        assert!(!io.is_guard_trip());
        assert!(!corrupt.is_syntax_error());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RaqletError::semantic("a"), RaqletError::semantic("a"));
        assert_ne!(RaqletError::semantic("a"), RaqletError::semantic("b"));
    }

    #[test]
    fn guard_trips_are_recognised_and_carry_stats() {
        let partial = EvalStats { iterations: 7, tuples_derived: 1234, ..EvalStats::default() };

        let timeout = RaqletError::timeout(Duration::from_millis(120), Duration::from_millis(100))
            .with_partial_stats(&partial);
        assert!(timeout.is_guard_trip());
        assert_eq!(timeout.partial_stats().unwrap().iterations, 7);
        assert!(timeout.to_string().contains("120ms"), "{timeout}");
        assert!(timeout.to_string().contains("100ms"), "{timeout}");

        let budget = RaqletError::budget_exceeded("tuples", 1500, 1000);
        assert!(budget.is_guard_trip());
        assert!(budget.to_string().contains("1500"), "{budget}");

        let cancelled = RaqletError::cancelled().with_partial_stats(&partial);
        assert!(cancelled.is_guard_trip());
        assert_eq!(cancelled.partial_stats().unwrap().tuples_derived, 1234);

        assert!(!RaqletError::execution("x").is_guard_trip());
        assert_eq!(RaqletError::execution("x").partial_stats(), None);
    }

    #[test]
    fn with_partial_stats_is_a_no_op_on_other_variants() {
        let partial = EvalStats { iterations: 3, ..EvalStats::default() };
        let e = RaqletError::semantic("nope").with_partial_stats(&partial);
        assert_eq!(e, RaqletError::semantic("nope"));
    }

    #[test]
    fn sub_millisecond_timeouts_report_at_least_one_ms() {
        let e = RaqletError::timeout(Duration::from_micros(50), Duration::ZERO);
        match e {
            RaqletError::Timeout { elapsed_ms, .. } => assert_eq!(elapsed_ms, 1),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let static_payload = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(static_payload.as_ref()), "static str");
        let n = 42;
        let string_payload = std::panic::catch_unwind(move || panic!("formatted {n}")).unwrap_err();
        assert_eq!(panic_message(string_payload.as_ref()), "formatted 42");
        let opaque = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(opaque.as_ref()), "opaque panic payload");
    }
}
