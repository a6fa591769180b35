//! Statement lifecycle governance: cancellation, deadlines, memory budgets.
//!
//! Every statement executes under an [`ExecGuard`] — a small shared token
//! carrying three cooperative limits:
//!
//! - a **cancellation flag**, settable from any thread via [`CancelHandle`];
//! - a **deadline** derived from a per-statement or per-system timeout;
//! - a **memory budget** charged (approximately) as operators materialize
//!   rows, batches, hash tables and sort buffers.
//!
//! The guard is *cooperative*: executors poll it at block/morsel granularity
//! (operator entry, every morsel a parallel worker pulls, every ~1k rows of
//! a scalar loop). A poll is a pair of relaxed atomic loads on the happy
//! path; when a deadline is set, the clock is only consulted on every 32nd
//! poll (the first included, so a zero deadline trips before any work),
//! which keeps governed execution within ~2% of ungoverned execution.
//!
//! Once any limit trips, the guard latches the *first* violation (cancel
//! beats timeout beats memory if they race) and every subsequent poll
//! reports it. Parallel morsel workers that observe a tripped guard abandon
//! their remaining work and return cheap shape-valid placeholders; the
//! executor's next checkpoint converts the latched state into a structured
//! [`GovernError`], which the engine surfaces as
//! `HtapError::{Cancelled, Timeout, MemoryBudget}`. Work counters are only
//! reported for statements that complete, so governance never perturbs the
//! counter-identity invariant the three executors are proven under.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Approximate bytes charged against the memory budget per materialized
/// cell (one value in one row). The accounting is deliberately coarse — it
/// exists to bound runaway materialization, not to be an allocator.
pub const BYTES_PER_CELL: u64 = 16;

/// Declarative limits for one statement (or a system/session default).
/// `None` means unlimited.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatementLimits {
    /// Wall-clock budget for the statement, measured from guard creation.
    pub timeout: Option<Duration>,
    /// Approximate materialization budget in bytes (see [`BYTES_PER_CELL`]).
    pub memory_budget: Option<u64>,
}

impl StatementLimits {
    /// No limits at all (the default).
    pub fn unlimited() -> StatementLimits {
        StatementLimits::default()
    }
}

/// Why a governed statement was stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernError {
    /// The statement's cancel flag was raised (via [`CancelHandle`]).
    Cancelled,
    /// The statement exceeded its wall-clock budget.
    Timeout {
        /// The configured budget that was exceeded.
        limit: Duration,
    },
    /// The statement tried to materialize past its memory budget.
    MemoryBudget {
        /// The configured budget in (approximate) bytes.
        budget_bytes: u64,
        /// The approximate total the statement had charged when it tripped.
        attempted_bytes: u64,
    },
}

impl fmt::Display for GovernError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernError::Cancelled => write!(f, "statement cancelled"),
            GovernError::Timeout { limit } => {
                write!(f, "statement timed out (limit {limit:?})")
            }
            GovernError::MemoryBudget { budget_bytes, attempted_bytes } => write!(
                f,
                "statement exceeded its memory budget ({attempted_bytes} of {budget_bytes} \
                 approx bytes)"
            ),
        }
    }
}

impl std::error::Error for GovernError {}

const TRIP_NONE: u8 = 0;
const TRIP_CANCELLED: u8 = 1;
const TRIP_TIMEOUT: u8 = 2;
const TRIP_MEMORY: u8 = 3;

#[derive(Debug)]
struct GuardState {
    /// Shared with every [`CancelHandle`]; raised from any thread.
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
    /// Kept for error reporting alongside `deadline`.
    timeout: Option<Duration>,
    budget: Option<u64>,
    used: AtomicU64,
    /// Recorded at memory-trip time for the error message.
    attempted: AtomicU64,
    /// Poll counter used to amortize deadline clock reads (see [`ExecGuard::poll`]).
    poll_tick: AtomicU64,
    /// Latched first violation (`TRIP_*`); 0 = still healthy.
    tripped: AtomicU8,
}

impl GuardState {
    /// Latch `kind` if nothing tripped yet; the first violation wins.
    fn trip(&self, kind: u8) {
        let _ = self
            .tripped
            .compare_exchange(TRIP_NONE, kind, Ordering::SeqCst, Ordering::SeqCst);
    }
}

/// The per-statement governance token. Cheap to clone (one `Arc`).
#[derive(Debug, Clone)]
pub struct ExecGuard {
    state: Arc<GuardState>,
}

/// Cancels the statement(s) governed by the guard it came from. Safe to
/// call from any thread, any number of times.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// A handle over an existing shared flag (the session layer keeps one
    /// flag per session and threads it into every statement's guard).
    pub(crate) fn from_flag(flag: Arc<AtomicBool>) -> CancelHandle {
        CancelHandle { flag }
    }

    /// Raise the cancellation flag. The in-flight statement observes it at
    /// its next block/morsel boundary and returns `Cancelled`.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

impl ExecGuard {
    /// A guard enforcing `limits`, watching `cancel` (shared with the
    /// session's [`CancelHandle`]s). The deadline starts now.
    pub fn with_cancel(limits: &StatementLimits, cancel: Arc<AtomicBool>) -> ExecGuard {
        ExecGuard {
            state: Arc::new(GuardState {
                cancel,
                deadline: limits.timeout.map(|t| Instant::now() + t),
                timeout: limits.timeout,
                budget: limits.memory_budget,
                used: AtomicU64::new(0),
                attempted: AtomicU64::new(0),
                poll_tick: AtomicU64::new(0),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
        }
    }

    /// A guard enforcing `limits` with a private (never externally raised)
    /// cancel flag.
    pub fn new(limits: &StatementLimits) -> ExecGuard {
        ExecGuard::with_cancel(limits, Arc::new(AtomicBool::new(false)))
    }

    /// The shared no-limit guard used by ungoverned entry points. Polling it
    /// is a single relaxed load that never trips.
    pub fn unlimited() -> &'static ExecGuard {
        static UNLIMITED: OnceLock<ExecGuard> = OnceLock::new();
        UNLIMITED.get_or_init(|| ExecGuard::new(&StatementLimits::unlimited()))
    }

    /// A handle that cancels this guard (and anything else sharing its
    /// cancel flag) from another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle { flag: Arc::clone(&self.state.cancel) }
    }

    /// Cheap cooperative poll: returns `true` once any limit has tripped.
    /// Parallel morsel workers use this to abandon work without plumbing a
    /// `Result` through every kernel; the owning executor calls [`check`]
    /// (which reports the latched cause) at its next boundary.
    ///
    /// [`check`]: ExecGuard::check
    #[inline]
    pub fn poll(&self) -> bool {
        let s = &*self.state;
        if s.tripped.load(Ordering::Relaxed) != TRIP_NONE {
            return true;
        }
        if s.cancel.load(Ordering::Relaxed) {
            s.trip(TRIP_CANCELLED);
            return true;
        }
        if let Some(deadline) = s.deadline {
            // A clock read costs far more than the rest of the poll, so the
            // deadline only consults it every 32nd poll. The tick counter is
            // deliberately a racy load+store (plain movs), NOT a fetch_add:
            // a locked RMW would cost as much as the clock read it amortizes,
            // and concurrent workers losing a tick merely shifts which poll
            // reads the clock. The counter starts at 0, so the FIRST poll
            // always reads the clock — a zero deadline still trips before
            // any work — and the cancel flag above is checked on every poll
            // regardless.
            let tick = s.poll_tick.load(Ordering::Relaxed);
            s.poll_tick.store(tick.wrapping_add(1), Ordering::Relaxed);
            if tick & 31 == 0 && Instant::now() >= deadline {
                s.trip(TRIP_TIMEOUT);
                return true;
            }
        }
        false
    }

    /// Poll, surfacing the latched violation as an error.
    #[inline]
    pub fn check(&self) -> Result<(), GovernError> {
        if self.poll() {
            Err(self.violation().expect("poll() returned true, so a cause is latched"))
        } else {
            Ok(())
        }
    }

    /// Charge `cells` materialized values against the memory budget
    /// (approximated at [`BYTES_PER_CELL`] each).
    #[inline]
    pub fn charge_cells(&self, cells: u64) -> Result<(), GovernError> {
        self.charge_bytes(cells.saturating_mul(BYTES_PER_CELL))
    }

    /// Charge approximate `bytes` against the memory budget.
    #[inline]
    pub fn charge_bytes(&self, bytes: u64) -> Result<(), GovernError> {
        let s = &*self.state;
        if let Some(budget) = s.budget {
            let total = s.used.fetch_add(bytes, Ordering::Relaxed).saturating_add(bytes);
            if total > budget {
                s.attempted.store(total, Ordering::Relaxed);
                s.trip(TRIP_MEMORY);
            }
        }
        self.check()
    }

    /// The latched violation, if any.
    pub fn violation(&self) -> Option<GovernError> {
        let s = &*self.state;
        match s.tripped.load(Ordering::SeqCst) {
            TRIP_CANCELLED => Some(GovernError::Cancelled),
            TRIP_TIMEOUT => Some(GovernError::Timeout {
                limit: s.timeout.unwrap_or(Duration::ZERO),
            }),
            TRIP_MEMORY => Some(GovernError::MemoryBudget {
                budget_bytes: s.budget.unwrap_or(0),
                attempted_bytes: s.attempted.load(Ordering::SeqCst),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = ExecGuard::unlimited();
        for _ in 0..1000 {
            assert!(!g.poll());
        }
        assert!(g.check().is_ok());
        assert!(g.charge_cells(u64::MAX / BYTES_PER_CELL).is_ok());
    }

    #[test]
    fn cancel_handle_trips_from_another_thread() {
        let g = ExecGuard::new(&StatementLimits::unlimited());
        let h = g.cancel_handle();
        assert!(!g.poll());
        let t = std::thread::spawn(move || h.cancel());
        t.join().unwrap();
        assert!(g.poll());
        assert_eq!(g.check(), Err(GovernError::Cancelled));
    }

    #[test]
    fn deadline_trips_and_latches() {
        let g = ExecGuard::new(&StatementLimits {
            timeout: Some(Duration::ZERO),
            memory_budget: None,
        });
        assert!(g.poll());
        match g.check() {
            Err(GovernError::Timeout { limit }) => assert_eq!(limit, Duration::ZERO),
            other => panic!("expected timeout, got {other:?}"),
        }
        // A later cancel does not displace the latched cause.
        g.cancel_handle().cancel();
        assert!(matches!(g.check(), Err(GovernError::Timeout { .. })));
    }

    #[test]
    fn memory_budget_trips_at_the_boundary() {
        let g = ExecGuard::new(&StatementLimits {
            timeout: None,
            memory_budget: Some(10 * BYTES_PER_CELL),
        });
        assert!(g.charge_cells(10).is_ok());
        match g.charge_cells(1) {
            Err(GovernError::MemoryBudget { budget_bytes, attempted_bytes }) => {
                assert_eq!(budget_bytes, 10 * BYTES_PER_CELL);
                assert_eq!(attempted_bytes, 11 * BYTES_PER_CELL);
            }
            other => panic!("expected memory trip, got {other:?}"),
        }
    }

    #[test]
    fn first_violation_wins() {
        let g = ExecGuard::new(&StatementLimits {
            timeout: None,
            memory_budget: Some(1),
        });
        let _ = g.charge_bytes(2);
        g.cancel_handle().cancel();
        assert!(matches!(g.check(), Err(GovernError::MemoryBudget { .. })));
    }
}
