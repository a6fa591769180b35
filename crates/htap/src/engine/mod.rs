//! The HTAP system facade: one database, two engines, measured outcomes.
//!
//! [`HtapSystem::run_sql`] is the entry point the explanation framework sits
//! on: it binds a query once, optimizes and executes it on *both* engines,
//! verifies the engines agree on the result, and reports per-engine plans,
//! work counters and simulated latencies — the raw material for router
//! training, knowledge-base construction, and explanations.
//!
//! # Layout
//!
//! * `mod.rs` (this file): what a statement returns — [`EngineKind`], the
//!   run and outcome types, [`HtapError`] — and the cross-engine agreement
//!   check every dual read passes.
//! * `database.rs`: [`Database`] — catalog, statistics and dual-format
//!   storage, the `apply_*` write entry points WAL replay re-runs,
//!   compaction and statistics maintenance — plus the pinned MVCC
//!   [`Snapshot`] and the per-engine planner entry.
//! * `system.rs`: [`HtapSystem`] — the statement path (one planning
//!   function, one execution site, one read, one write), the plan cache and
//!   the executor/latency configuration.
//! * `durability.rs`: opening and recovering a data directory, checkpoints,
//!   WAL-logged compaction and the background compactor thread.
//! * `health.rs`: read-only degraded mode, fault counters and the
//!   poison-recovering database lock.

mod database;
mod durability;
mod health;
mod system;

pub use database::{Database, Snapshot};
pub use durability::{BackgroundCompaction, DurabilityOptions, RecoveryReport};
pub use health::Health;
pub use system::HtapSystem;

use crate::exec::{self, DmlResult, GovernError, Row, WorkCounters};
use crate::opt::OptError;
use crate::plan::PlanNode;
use crate::storage::durable_io::DurabilityError;
use crate::storage::TableFreshness;
use qpe_sql::binder::BoundQuery;
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use qpe_sql::SqlError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Which engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// Row-oriented OLTP engine.
    Tp,
    /// Column-oriented OLAP engine.
    Ap,
}

impl EngineKind {
    /// Paper-style short name: `TP` / `AP`.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Tp => "TP",
            EngineKind::Ap => "AP",
        }
    }

    /// The other engine.
    pub fn other(&self) -> EngineKind {
        match self {
            EngineKind::Tp => EngineKind::Ap,
            EngineKind::Ap => EngineKind::Tp,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything that happened when one engine ran the query.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Which engine ran.
    pub engine: EngineKind,
    /// The physical plan.
    pub plan: PlanNode,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Work performed.
    pub counters: WorkCounters,
    /// Simulated latency in nanoseconds (deterministic).
    pub latency_ns: u64,
}

/// Outcome of one write statement: DML runs on the TP engine only (the row
/// store and its indexes are the write-optimized side; the column store
/// absorbs the same write through its delta region).
#[derive(Debug, Clone)]
pub struct DmlOutcome {
    /// Original SQL.
    pub sql: String,
    /// What happened (kind, table, rows affected, new version stamp).
    pub result: DmlResult,
    /// The TP write plan.
    pub plan: PlanNode,
    /// Work performed (scan + write counters).
    pub counters: WorkCounters,
    /// Simulated TP latency in nanoseconds.
    pub latency_ns: u64,
    /// Freshness of the written table after the statement.
    pub freshness: TableFreshness,
}

/// Outcome of a single-engine (pinned) read: exactly one [`EngineRun`], no
/// dual-run and no cross-engine agreement check. This is what a server
/// client that knows its workload gets from
/// [`crate::session::Session::pin_engine`] or
/// [`crate::session::PreparedStatement::execute_on`] — the other engine's cost is
/// simply never paid. The run is produced by the same plan → substitute →
/// execute pipeline as the corresponding side of a dual run, so its rows,
/// [`WorkCounters`] and simulated latency are byte-identical to what
/// [`QueryOutcome::run`] would report for that engine
/// (`tests/engine_pinning.rs` proves it).
#[derive(Debug, Clone)]
pub struct PinnedQueryOutcome {
    /// Original SQL.
    pub sql: String,
    /// The bound query.
    pub bound: Arc<BoundQuery>,
    /// The single engine run.
    pub run: EngineRun,
}

/// Outcome of [`HtapSystem::execute_statement`]: a read ran on both engines, or a
/// write ran on the TP engine. The read variant boxes its payload — a
/// [`QueryOutcome`] carries two full engine runs and dwarfs the DML variant.
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    /// A `SELECT` executed on both engines.
    Query(Box<QueryOutcome>),
    /// A `SELECT` executed on one pinned engine only (no dual-run; see
    /// [`crate::session::Session::pin_engine`]).
    PinnedQuery(Box<PinnedQueryOutcome>),
    /// An `INSERT`/`UPDATE`/`DELETE` executed on the TP engine.
    Dml(Box<DmlOutcome>),
}

impl StatementOutcome {
    /// The dual-run read outcome, if this was an unpinned query.
    pub fn as_query(&self) -> Option<&QueryOutcome> {
        match self {
            StatementOutcome::Query(q) => Some(q),
            _ => None,
        }
    }

    /// The single-engine read outcome, if this was a pinned query.
    pub fn as_pinned(&self) -> Option<&PinnedQueryOutcome> {
        match self {
            StatementOutcome::PinnedQuery(p) => Some(p),
            _ => None,
        }
    }

    /// The write outcome, if this was DML.
    pub fn as_dml(&self) -> Option<&DmlOutcome> {
        match self {
            StatementOutcome::Dml(d) => Some(d),
            _ => None,
        }
    }

    /// Result rows of a read (dual-run rows are engine-agreed, so the TP
    /// side is reported); `None` for DML.
    pub fn rows(&self) -> Option<&[exec::Row]> {
        match self {
            StatementOutcome::Query(q) => Some(&q.tp.rows),
            StatementOutcome::PinnedQuery(p) => Some(&p.run.rows),
            StatementOutcome::Dml(_) => None,
        }
    }
}

/// Outcome of running one query on both engines.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Original SQL.
    pub sql: String,
    /// The bound query (shared — prepared statements reuse one bound form
    /// across executions, and outcome clones stay cheap).
    pub bound: Arc<BoundQuery>,
    /// TP run.
    pub tp: EngineRun,
    /// AP run.
    pub ap: EngineRun,
}

impl QueryOutcome {
    /// The faster engine.
    pub fn winner(&self) -> EngineKind {
        if self.tp.latency_ns <= self.ap.latency_ns {
            EngineKind::Tp
        } else {
            EngineKind::Ap
        }
    }

    /// Loser latency / winner latency (≥ 1).
    pub fn speedup(&self) -> f64 {
        let (w, l) = if self.winner() == EngineKind::Tp {
            (self.tp.latency_ns, self.ap.latency_ns)
        } else {
            (self.ap.latency_ns, self.tp.latency_ns)
        };
        l as f64 / w.max(1) as f64
    }

    /// Run for a specific engine.
    pub fn run(&self, engine: EngineKind) -> &EngineRun {
        match engine {
            EngineKind::Tp => &self.tp,
            EngineKind::Ap => &self.ap,
        }
    }
}

/// Errors from the full bind→plan→execute pipeline.
#[derive(Debug)]
pub enum HtapError {
    /// SQL front-end failure.
    Sql(SqlError),
    /// Planning failure.
    Opt(OptError),
    /// Execution failure.
    Exec(exec::ExecError),
    /// The two engines disagreed on the result — an internal invariant
    /// violation that must surface loudly.
    EngineMismatch {
        /// The query.
        sql: String,
        /// TP row count.
        tp_rows: usize,
        /// AP row count.
        ap_rows: usize,
    },
    /// A prepared statement was executed with the wrong number of parameter
    /// values.
    ParamCountMismatch {
        /// Parameters the statement declares.
        expected: usize,
        /// Values the caller supplied.
        got: usize,
    },
    /// A supplied parameter value does not fit the type its
    /// comparison/assignment context inferred at prepare time.
    ParamTypeMismatch {
        /// 0-based parameter index.
        idx: usize,
        /// The context-inferred type.
        expected: DataType,
        /// The offending value.
        got: Value,
    },
    /// Durable storage failed: I/O error, simulated crash, or corrupt
    /// on-disk state discovered during recovery.
    Durability(DurabilityError),
    /// The statement's cancellation flag was raised (see
    /// [`crate::session::Session::cancel_handle`]); execution stopped at the
    /// next block/morsel boundary.
    Cancelled,
    /// The statement exceeded its wall-clock budget
    /// ([`crate::exec::StatementLimits::timeout`]).
    Timeout {
        /// The configured budget that was exceeded.
        limit: Duration,
    },
    /// The statement tried to materialize past its memory budget
    /// ([`crate::exec::StatementLimits::memory_budget`]).
    MemoryBudget {
        /// The configured budget in (approximate) bytes.
        budget_bytes: u64,
        /// The approximate total the statement had charged when it tripped.
        attempted_bytes: u64,
    },
    /// The system is in read-only degraded mode: durable writes kept failing
    /// past their retry budget (or a writer panicked mid-statement), so
    /// write statements are rejected until [`HtapSystem::resume_writes`]
    /// succeeds. Reads and snapshots keep serving throughout.
    ReadOnly {
        /// Root cause that tripped degradation.
        cause: String,
    },
    /// An executor panicked; the panic was contained at the session boundary
    /// and the payload captured here. The system stays usable.
    Internal(String),
}

impl From<SqlError> for HtapError {
    fn from(e: SqlError) -> Self {
        HtapError::Sql(e)
    }
}

impl From<OptError> for HtapError {
    fn from(e: OptError) -> Self {
        HtapError::Opt(e)
    }
}

impl From<exec::ExecError> for HtapError {
    fn from(e: exec::ExecError) -> Self {
        match e {
            // Governance violations get first-class variants — callers match
            // on Cancelled/Timeout/MemoryBudget, not on executor internals.
            exec::ExecError::Governed(g) => g.into(),
            other => HtapError::Exec(other),
        }
    }
}

impl From<GovernError> for HtapError {
    fn from(e: GovernError) -> Self {
        match e {
            GovernError::Cancelled => HtapError::Cancelled,
            GovernError::Timeout { limit } => HtapError::Timeout { limit },
            GovernError::MemoryBudget { budget_bytes, attempted_bytes } => {
                HtapError::MemoryBudget { budget_bytes, attempted_bytes }
            }
        }
    }
}

impl From<DurabilityError> for HtapError {
    fn from(e: DurabilityError) -> Self {
        HtapError::Durability(e)
    }
}

impl std::fmt::Display for HtapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HtapError::Sql(e) => write!(f, "sql: {e}"),
            HtapError::Opt(e) => write!(f, "optimizer: {e}"),
            HtapError::Exec(e) => write!(f, "executor: {e}"),
            HtapError::EngineMismatch { sql, tp_rows, ap_rows } => write!(
                f,
                "engines disagree on {sql:?}: TP returned {tp_rows} rows, AP {ap_rows}"
            ),
            HtapError::ParamCountMismatch { expected, got } => write!(
                f,
                "statement expects {expected} parameter(s), {got} supplied"
            ),
            HtapError::ParamTypeMismatch { idx, expected, got } => write!(
                f,
                "parameter ${} expects a {expected:?} value, got {got}",
                idx + 1
            ),
            HtapError::Durability(e) => write!(f, "durability: {e}"),
            HtapError::Cancelled => write!(f, "statement cancelled"),
            HtapError::Timeout { limit } => {
                write!(f, "statement timed out (limit {limit:?})")
            }
            HtapError::MemoryBudget { budget_bytes, attempted_bytes } => write!(
                f,
                "statement exceeded its memory budget ({attempted_bytes} of {budget_bytes} \
                 approx bytes)"
            ),
            HtapError::ReadOnly { cause } => write!(
                f,
                "system is read-only (degraded mode): {cause}; reads keep serving, call \
                 resume_writes() after the fault clears"
            ),
            HtapError::Internal(msg) => write!(f, "internal executor panic (contained): {msg}"),
        }
    }
}

impl std::error::Error for HtapError {}

/// Engine-agreement gate of every dual read.
fn check_results_match(
    bound: &BoundQuery,
    tp: &EngineRun,
    ap: &EngineRun,
) -> Result<(), HtapError> {
    if !results_match(bound, &tp.rows, &ap.rows) {
        return Err(HtapError::EngineMismatch {
            sql: bound.sql.clone(),
            tp_rows: tp.rows.len(),
            ap_rows: ap.rows.len(),
        });
    }
    Ok(())
}

/// Result-agreement check: rows compare as multisets (ordered queries may
/// permute ties), and floats compare with a relative tolerance because the
/// two engines aggregate in different orders (float addition is not
/// associative).
fn results_match(bound: &BoundQuery, tp: &[Row], ap: &[Row]) -> bool {
    let _ = bound;
    if tp.len() != ap.len() {
        return false;
    }
    let cmp = |x: &Row, y: &Row| {
        for (u, v) in x.iter().zip(y.iter()) {
            let o = u.total_cmp(v);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    };
    // Single-row results (point lookups, scalar aggregates — the serving
    // hot path) need no sort or copy.
    if tp.len() <= 1 {
        return tp.iter().zip(ap.iter()).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb.iter()).all(|(u, v)| value_approx_eq(u, v))
        });
    }
    let mut a: Vec<&Row> = tp.iter().collect();
    let mut b: Vec<&Row> = ap.iter().collect();
    a.sort_by(|x, y| cmp(x, y));
    b.sort_by(|x, y| cmp(x, y));
    a.iter().zip(b.iter()).all(|(ra, rb)| {
        ra.len() == rb.len() && ra.iter().zip(rb.iter()).all(|(u, v)| value_approx_eq(u, v))
    })
}

/// Structural equality with relative tolerance on floats.
fn value_approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}
