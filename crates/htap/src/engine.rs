//! The HTAP system facade: one database, two engines, measured outcomes.
//!
//! [`HtapSystem::run_sql`] is the entry point the explanation framework sits
//! on: it binds a query once, optimizes and executes it on *both* engines,
//! verifies the engines agree on the result, and reports per-engine plans,
//! work counters and simulated latencies — the raw material for router
//! training, knowledge-base construction, and explanations.

use crate::exec::{self, DmlResult, ExecConfig, ExecGuard, GovernError, Row, StatementLimits,
                  WorkCounters};
use crate::latency::LatencyModel;
use crate::opt::{ap, tp, OptError, PlannerCtx};
use crate::plan::PlanNode;
use crate::session::{PlanCache, PlanCacheStats};
use crate::stats::{DbStats, TableStats};
use crate::storage::col_store::ColumnTableSnapshot;
use crate::storage::durable_io::{
    lock_unpoisoned, DurabilityError, DurableFile, FailPoints, RetryPolicy,
};
use crate::storage::persist::{self, Manifest, SegmentRef, MANIFEST_FORMAT};
use crate::storage::wal::{self, SyncPolicy, Wal, WalRecord, WalStats};
use crate::storage::{CompactSnapshot, CompactedTable, StoredTable, TableFreshness, TableOp};
use crate::tpch::{self, TpchConfig};
use qpe_sql::binder::{Binder, BoundDml, BoundQuery, BoundStatement};
use qpe_sql::catalog::{Catalog, DataType, MemoryCatalog};
use qpe_sql::value::Value;
use qpe_sql::SqlError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

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
/// client that knows its workload gets from [`HtapSystem::execute_on`] /
/// [`crate::session::Session::pin_engine`] — the other engine's cost is
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
    /// [`HtapSystem::execute_on`]).
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
    /// ([`StatementLimits::timeout`]).
    Timeout {
        /// The configured budget that was exceeded.
        limit: Duration,
    },
    /// The statement tried to materialize past its memory budget
    /// ([`StatementLimits::memory_budget`]).
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

/// The database: catalog, statistics, and dual-format storage.
///
/// Catalog and statistics sit behind `Arc` with copy-on-write
/// ([`Arc::make_mut`]) so [`Database::pin_snapshot`] shares them in O(1);
/// a writer only pays for a copy while a pinned snapshot is outstanding.
pub struct Database {
    catalog: Arc<MemoryCatalog>,
    stats: Arc<DbStats>,
    tables: HashMap<String, StoredTable>,
    config: TpchConfig,
    /// When armed (one DML statement's scope), every `apply_*` records the
    /// logical [`TableOp`]s it performed, for the WAL. `None` outside
    /// durable DML — and during WAL replay, which is what makes replay
    /// re-run the same entry points without re-logging.
    op_tap: Option<Vec<(String, TableOp)>>,
}

impl Database {
    /// Generates TPC-H data and loads both storage formats.
    pub fn generate(config: &TpchConfig) -> Self {
        let (catalog, generated) = tpch::generate(config);
        let mut stats = DbStats::new();
        let mut tables = HashMap::new();
        for g in &generated {
            stats.insert(TableStats::collect(&g.name, &g.columns));
            let def = catalog.table(&g.name).expect("generated table in catalog");
            tables.insert(g.name.clone(), StoredTable::load(def, g));
        }
        Database {
            catalog: Arc::new(catalog),
            stats: Arc::new(stats),
            tables,
            config: config.clone(),
            op_tap: None,
        }
    }

    /// Rebuilds a database from recovered durable state: the manifest's
    /// catalog/stats/config plus one recovered column table per entry. The
    /// row-store side (tuples + indexes) derives from the column state.
    pub(crate) fn from_recovered(
        catalog: MemoryCatalog,
        stats: DbStats,
        config: TpchConfig,
        col_tables: Vec<crate::storage::ColumnTable>,
    ) -> Result<Self, DurabilityError> {
        let mut tables = HashMap::new();
        for cols in col_tables {
            let name = cols.name().to_string();
            let def = catalog.table(&name).ok_or_else(|| {
                DurabilityError::Corrupt(format!("segment table {name:?} not in manifest catalog"))
            })?;
            if def.columns.len() != cols.width() {
                return Err(DurabilityError::Corrupt(format!(
                    "table {name:?}: segment width {} != catalog width {}",
                    cols.width(),
                    def.columns.len()
                )));
            }
            tables.insert(name.clone(), StoredTable::from_recovered(def, cols));
        }
        Ok(Database {
            catalog: Arc::new(catalog),
            stats: Arc::new(stats),
            tables,
            config,
            op_tap: None,
        })
    }

    /// The catalog.
    pub fn catalog(&self) -> &MemoryCatalog {
        &self.catalog
    }

    /// Collected statistics.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// The generation config.
    pub fn config(&self) -> &TpchConfig {
        &self.config
    }

    /// Both storage formats for a table.
    pub fn stored_table(&self, name: &str) -> Option<&StoredTable> {
        self.tables.get(name)
    }

    /// Row-store side of a table.
    pub fn row_table(&self, name: &str) -> Option<&crate::storage::RowTable> {
        self.tables.get(name).map(|t| &t.rows)
    }

    /// Applies validated full-width rows to both storage formats, keeping
    /// statistics and the catalog row count current. Returns the insert
    /// count.
    pub fn apply_insert(&mut self, table: &str, rows: &[Vec<Value>]) -> u64 {
        let Some(st) = self.tables.get_mut(table) else {
            return 0;
        };
        for row in rows {
            st.insert(row.clone());
        }
        if !rows.is_empty() && (st.captures_window() || self.op_tap.is_some()) {
            let op = TableOp::Insert { rows: rows.to_vec() };
            st.record_op(&op);
            if let Some(tap) = &mut self.op_tap {
                tap.push((table.to_string(), op));
            }
        }
        Arc::make_mut(&mut self.stats).note_insert(table, rows);
        self.sync_row_count(table);
        self.maybe_refresh_stats(table);
        rows.len() as u64
    }

    /// Tombstones the given rids in both storage formats. Returns how many
    /// were live.
    pub fn apply_delete(&mut self, table: &str, rids: &[u32]) -> u64 {
        let Some(st) = self.tables.get_mut(table) else {
            return 0;
        };
        let capture = st.captures_window() || self.op_tap.is_some();
        let mut n = 0u64;
        let mut effective = Vec::new();
        for &rid in rids {
            if st.delete(rid) {
                n += 1;
                if capture {
                    effective.push(rid);
                }
            }
        }
        // Only *effective* deletes are recorded: replay flips exactly the
        // same tombstone bits, and a background-compaction remap never sees
        // a rid that was already dead.
        if capture && !effective.is_empty() {
            let op = TableOp::Delete { rids: effective };
            st.record_op(&op);
            if let Some(tap) = &mut self.op_tap {
                tap.push((table.to_string(), op));
            }
        }
        Arc::make_mut(&mut self.stats).note_delete(table, n);
        self.sync_row_count(table);
        self.maybe_refresh_stats(table);
        n
    }

    /// Rewrites rows (relocating them in both formats). Returns the update
    /// count.
    pub fn apply_update(&mut self, table: &str, changes: Vec<(u32, Vec<Value>)>) -> u64 {
        let Some(st) = self.tables.get_mut(table) else {
            return 0;
        };
        let new_rows: Vec<Vec<Value>> = changes.iter().map(|(_, r)| r.clone()).collect();
        let n = changes.len() as u64;
        if !changes.is_empty() && (st.captures_window() || self.op_tap.is_some()) {
            let op = TableOp::Update { changes: changes.clone() };
            st.record_op(&op);
            if let Some(tap) = &mut self.op_tap {
                tap.push((table.to_string(), op));
            }
        }
        for (rid, row) in changes {
            st.update(rid, row);
        }
        Arc::make_mut(&mut self.stats).note_update(table, &new_rows);
        self.maybe_refresh_stats(table);
        n
    }

    /// Arms the per-statement op tap ([`Database::apply_insert`] et al.
    /// record into it). Called by durable DML before execution.
    pub(crate) fn begin_op_capture(&mut self) {
        self.op_tap = Some(Vec::new());
    }

    /// Takes whatever the statement recorded and disarms the tap.
    pub(crate) fn take_op_capture(&mut self) -> Vec<(String, TableOp)> {
        self.op_tap.take().unwrap_or_default()
    }

    /// Converts captured ops into WAL records, translating rids through the
    /// table's background-compaction remap when a durable build is in
    /// flight (the log must stay consistent with the `Compact` record
    /// already written at the build's snapshot point).
    pub(crate) fn wal_records_for(&self, ops: &[(String, TableOp)]) -> Vec<WalRecord> {
        ops.iter()
            .map(|(table, op)| WalRecord::Op {
                table: table.clone(),
                op: match self.tables.get(table).and_then(|st| st.wal_remap()) {
                    Some(remap) => op.translate(remap),
                    None => op.clone(),
                },
            })
            .collect()
    }

    /// Re-applies one logged op through the same entry points the live
    /// statement used, so statistics maintenance (incremental widening,
    /// lazy ndv refresh) fires at identical points of the timeline.
    pub(crate) fn replay_op(&mut self, table: &str, op: TableOp) {
        match op {
            TableOp::Insert { rows } => {
                self.apply_insert(table, &rows);
            }
            TableOp::Delete { rids } => {
                self.apply_delete(table, &rids);
            }
            TableOp::Update { changes } => {
                self.apply_update(table, changes);
            }
        }
    }

    /// Replays one WAL record during recovery.
    pub(crate) fn replay_wal_record(&mut self, record: WalRecord) {
        match record {
            WalRecord::Op { table, op } => self.replay_op(&table, op),
            WalRecord::Compact { table } => {
                self.compact_table(&table);
            }
            // Pure rotation marker; the generation chain carries the
            // continuity, nothing to apply.
            WalRecord::Checkpoint { .. } => {}
        }
    }

    /// Pins a consistent MVCC snapshot of the whole database for AP reads:
    /// every table's column store is pinned at its current epoch
    /// ([`ColumnTable::view_at`]), catalog/stats/config are shared, and the
    /// row-store halves are empty shells (AP plans never touch rows or
    /// indexes). O(tables × width) `Arc` bumps — cheap enough to take per
    /// statement under the read lock, after which execution proceeds with
    /// **no lock at all**: writers mutate through copy-on-write and never
    /// wait for, or block, a pinned reader.
    pub(crate) fn pin_snapshot(&self) -> Database {
        let tables = self
            .tables
            .iter()
            .filter_map(|(name, st)| {
                let def = self.catalog.table(name)?;
                Some((name.clone(), st.ap_view(def)))
            })
            .collect();
        Database {
            catalog: Arc::clone(&self.catalog),
            stats: Arc::clone(&self.stats),
            tables,
            config: self.config.clone(),
            op_tap: None,
        }
    }

    /// Physical-design epoch of one table (see
    /// [`StoredTable::design_epoch`]). `None` for unknown tables.
    pub fn design_epoch(&self, table: &str) -> Option<u64> {
        self.tables.get(table).map(|st| st.design_epoch())
    }

    /// Consistent snapshots of every table's physical column-store state,
    /// sorted by name (O(width) each — base columns are `Arc`-shared).
    pub(crate) fn snapshot_tables(&self) -> Vec<ColumnTableSnapshot> {
        let mut snaps: Vec<_> = self.tables.values().map(|st| st.cols.snapshot()).collect();
        snaps.sort_by(|a, b| a.name.cmp(&b.name));
        snaps
    }

    /// Opens a background compaction on one table (see
    /// [`StoredTable::begin_background_compact`]).
    pub(crate) fn begin_background_compact(
        &mut self,
        table: &str,
        durable: bool,
    ) -> Option<CompactSnapshot> {
        let def = self.catalog.table(table)?.clone();
        self.tables
            .get_mut(table)?
            .begin_background_compact(&def, durable)
    }

    /// Rolls back a just-opened background compaction (WAL append failed
    /// before anything escaped the write lock).
    pub(crate) fn abort_background_compact(&mut self, table: &str) {
        if let Some(st) = self.tables.get_mut(table) {
            st.abort_background_compact();
        }
    }

    /// Swaps an offline-built compaction in and re-applies the captured
    /// write window. Mirrors the synchronous path exactly: install ≡
    /// compact-at-snapshot + stats refresh, then the window ops re-run
    /// through the normal `apply_*` entry points (translated into the new
    /// rid space). Returns false when a sync compact made the build stale.
    pub(crate) fn finish_background_compact(&mut self, table: &str, built: CompactedTable) -> bool {
        let Some(st) = self.tables.get_mut(table) else {
            return false;
        };
        let Some((window, stats, remap)) = st.finish_background_compact(built) else {
            return false;
        };
        let live = st.row_count() as u64;
        Arc::make_mut(&mut self.stats).insert(stats);
        if let Some(def) = Arc::make_mut(&mut self.catalog).table_mut(table) {
            def.row_count = live;
            if let Some(ts) = self.stats.table(table) {
                for (cd, cs) in def.columns.iter_mut().zip(&ts.columns) {
                    cd.ndv = cs.ndv;
                }
            }
        }
        for op in window {
            self.replay_op(table, op.translate(&remap));
        }
        true
    }

    /// Compacts one table: the column store merges its delta into the base,
    /// the row store drops tombstones, and — compaction being the moment the
    /// data gets rewritten anyway — the table's ndv/min/max stats refresh
    /// too. Compacting an already-clean table is a no-op (no rescan).
    /// Returns false for an unknown table.
    pub fn compact_table(&mut self, table: &str) -> bool {
        let Some(st) = self.tables.get_mut(table) else {
            return false;
        };
        if st.cols.is_clean() && !st.rows.has_deletions() {
            return true;
        }
        st.compact();
        self.refresh_table_stats(table);
        true
    }

    /// Re-chunks one table's zone maps at a different block size (metadata
    /// rebuild only — the base stays contiguous). Tests and small-scale
    /// benchmarks use it so tiny tables still yield multiple prunable
    /// blocks. Returns false for an unknown table.
    pub fn set_zone_block_rows(&mut self, table: &str, rows: usize) -> bool {
        match self.tables.get_mut(table) {
            Some(st) => {
                st.cols.set_block_rows(rows);
                st.bump_design_epoch();
                true
            }
            None => false,
        }
    }

    /// Enables/disables one table's per-block bloom filters (the `_nobloom`
    /// benchmark baselines and the forced-encoding test matrix use this;
    /// pruning stays correct either way). Returns false for an unknown
    /// table.
    pub fn set_bloom_filters(&mut self, table: &str, enabled: bool) -> bool {
        match self.tables.get_mut(table) {
            Some(st) => {
                st.cols.set_bloom_filters(enabled);
                st.bump_design_epoch();
                true
            }
            None => false,
        }
    }

    /// Pins one table's base-segment encoding policy, re-encoding the
    /// current base under it (see
    /// [`crate::storage::col_store::EncodingPolicy`]); compactions keep the
    /// policy. Returns false for an unknown table.
    pub fn set_encoding_policy(
        &mut self,
        table: &str,
        policy: crate::storage::col_store::EncodingPolicy,
    ) -> bool {
        match self.tables.get_mut(table) {
            Some(st) => {
                st.cols.set_encoding_policy(policy);
                st.bump_design_epoch();
                true
            }
            None => false,
        }
    }

    /// Current freshness snapshot of a table's column-store side.
    pub fn freshness(&self, table: &str) -> Option<crate::storage::TableFreshness> {
        self.tables.get(table).map(|st| st.freshness())
    }

    /// Freshness snapshots for every table, sorted by name.
    pub fn freshness_all(&self) -> Vec<crate::storage::TableFreshness> {
        let mut out: Vec<_> = self.tables.values().map(|st| st.freshness()).collect();
        out.sort_by(|a, b| a.table.cmp(&b.table));
        out
    }

    /// Mirrors the live row count into the catalog so queries bound after a
    /// write see current table sizes.
    fn sync_row_count(&mut self, table: &str) {
        let Some(st) = self.tables.get(table) else {
            return;
        };
        let n = st.row_count() as u64;
        if let Some(def) = Arc::make_mut(&mut self.catalog).table_mut(table) {
            def.row_count = n;
        }
    }

    /// Lazy ndv refresh: only once the write backlog crosses the staleness
    /// threshold does the table pay for a full stats recompute.
    fn maybe_refresh_stats(&mut self, table: &str) {
        if self
            .stats
            .table(table)
            .map(|ts| ts.ndv_is_stale())
            .unwrap_or(false)
        {
            self.refresh_table_stats(table);
        }
    }

    /// Full recompute of one table's column statistics (ndv, min/max,
    /// null fraction) from the live rows, clearing the write backlog and
    /// refreshing catalog ndv.
    pub fn refresh_table_stats(&mut self, table: &str) {
        let Some(st) = self.tables.get(table) else {
            return;
        };
        let width = st.rows.width();
        let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(st.row_count()); width];
        for (_, row) in st.rows.iter_live() {
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v.clone());
            }
        }
        Arc::make_mut(&mut self.stats).insert(TableStats::collect(table, &columns));
        if let Some(def) = Arc::make_mut(&mut self.catalog).table_mut(table) {
            def.row_count = columns.first().map(|c| c.len()).unwrap_or(0) as u64;
            if let Some(ts) = self.stats.table(table) {
                for (cd, cs) in def.columns.iter_mut().zip(&ts.columns) {
                    cd.ndv = cs.ndv;
                }
            }
        }
    }

    /// Creates a TP-side secondary index at runtime (the paper's
    /// "additional index on c_phone" user context). Returns false if the
    /// table/column doesn't exist.
    pub fn create_index(&mut self, table: &str, column: &str) -> bool {
        let Some(def) = Arc::make_mut(&mut self.catalog).table_mut(table) else {
            return false;
        };
        let Some(ci) = def.column_index(column) else {
            return false;
        };
        if !def.indexed_columns.iter().any(|c| c == column) && def.primary_key != column {
            def.indexed_columns.push(column.to_string());
        }
        if let Some(st) = self.tables.get_mut(table) {
            st.rows.create_index(ci);
            st.bump_design_epoch();
        }
        true
    }
}

/// How and when the WAL makes committed statements durable.
///
/// See [`SyncPolicy`]: `PerStatement` fsyncs on every commit,
/// `GroupCommit { interval }` batches concurrent committers into one fsync
/// (the leader dwells up to `interval` collecting followers).
#[derive(Debug, Clone, Default)]
pub struct DurabilityOptions {
    /// WAL fsync batching policy.
    pub sync: SyncPolicy,
    /// Crash-injection hooks (tests only; `FailPoints::default()` is inert
    /// and adds one relaxed atomic load per durable write).
    pub failpoints: FailPoints,
    /// When set, a dedicated thread compacts tables off the write lock.
    pub background: Option<BackgroundCompaction>,
    /// Bounded retry (exponential backoff + jitter) wrapped around every
    /// transiently-failing durable I/O step: WAL fsyncs, segment seals, the
    /// manifest swap. Exhausted retries — or a non-retryable error like
    /// ENOSPC — trip read-only degraded mode instead of looping forever.
    pub retry: RetryPolicy,
}

/// Background-compaction tuning for [`HtapSystem::open_with`].
#[derive(Debug, Clone)]
pub struct BackgroundCompaction {
    /// Compact a table once `delta rows + tombstones` reaches this.
    pub min_delta_rows: usize,
    /// How often the compactor thread re-checks the tables.
    pub poll: Duration,
}

impl Default for BackgroundCompaction {
    fn default() -> Self {
        BackgroundCompaction {
            min_delta_rows: 4096,
            poll: Duration::from_millis(20),
        }
    }
}

/// What [`HtapSystem::open_with`] found and did on startup.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// True when the directory was empty and the database was generated
    /// fresh (no recovery happened).
    pub created: bool,
    /// Manifest version the segments were loaded from.
    pub manifest_version: u64,
    /// Tables materialized from persistent segments.
    pub tables_loaded: usize,
    /// WAL records replayed on top of the segment snapshot.
    pub wal_records_replayed: u64,
    /// WAL generation files the replay walked.
    pub wal_files_replayed: usize,
    /// Bytes discarded from torn (partially flushed) WAL tails.
    pub torn_bytes_discarded: u64,
    /// Wall-clock time of the whole open (load + replay + index rebuild).
    pub elapsed: Duration,
}

/// Durable-mode state shared by the write path, the checkpointer and the
/// background compactor.
struct DurabilityCtx {
    /// Data directory holding `manifest.json`, `*.seg` and `wal.N`.
    dir: PathBuf,
    /// Group-commit write-ahead log (active generation).
    wal: Wal,
    /// Crash-injection hooks threaded through every durable I/O site.
    fp: FailPoints,
    /// Version counter: the last published manifest/checkpoint version.
    version: AtomicU64,
    /// Serializes checkpoints, durable sync compacts and background
    /// compaction runs against each other. Critically this means a durable
    /// `Compact` WAL record is only ever appended while no *other*
    /// compaction's rid remap is armed, so log order ≡ replay order.
    /// Lock order: `ckpt_lock` before the db lock, never the reverse.
    ckpt_lock: Mutex<()>,
    /// Retry policy for segment seals and manifest swaps (the WAL holds its
    /// own copy and retries its fsyncs internally).
    retry: RetryPolicy,
}

/// Shared mutable health status: degraded-mode latch plus fault counters.
/// One `Arc` is held by the system, another by the compactor thread.
struct HealthState {
    /// Read-only degraded mode: writes are rejected until
    /// [`HtapSystem::resume_writes`] clears it.
    degraded: AtomicBool,
    /// Root cause recorded when `degraded` was first tripped.
    cause: Mutex<Option<String>>,
    /// One-shot latch for database-lock poison recovery: the first recovery
    /// after a writer panic trips degraded mode exactly once.
    poison_handled: AtomicBool,
    /// Writer panics observed through lock-poison recovery.
    writer_panics: AtomicU64,
    /// Background compaction cycles that returned an error.
    compactor_failures: AtomicU64,
    /// Compaction candidates skipped because their table was backing off.
    compactor_backoffs: AtomicU64,
}

impl HealthState {
    fn new() -> HealthState {
        HealthState {
            degraded: AtomicBool::new(false),
            cause: Mutex::new(None),
            poison_handled: AtomicBool::new(false),
            writer_panics: AtomicU64::new(0),
            compactor_failures: AtomicU64::new(0),
            compactor_backoffs: AtomicU64::new(0),
        }
    }

    /// Enter degraded mode, recording `cause` if this is the first trip.
    fn trip_degraded(&self, cause: &str) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            *lock_unpoisoned(&self.cause) = Some(cause.to_string());
        }
    }

    /// Leave degraded mode (after a successful write probe).
    fn clear_degraded(&self) {
        self.degraded.store(false, Ordering::SeqCst);
        *lock_unpoisoned(&self.cause) = None;
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn cause_string(&self) -> String {
        lock_unpoisoned(&self.cause)
            .clone()
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// Called when a database-lock acquisition found the lock poisoned. The
    /// std `RwLock` only poisons when a *writer* panicked, so the committed
    /// copy-on-write state readers observe is still consistent — recovery is
    /// safe — but an interrupted write statement may have applied without
    /// reaching the WAL, so the first recovery trips degraded mode until an
    /// operator (or test) resumes writes deliberately.
    fn note_poisoned_db_lock(&self) {
        if !self.poison_handled.swap(true, Ordering::SeqCst) {
            self.writer_panics.fetch_add(1, Ordering::Relaxed);
            self.trip_degraded("database write lock poisoned by a panicking writer");
        }
    }
}

/// Point-in-time health snapshot from [`HtapSystem::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// True while the system is in read-only degraded mode.
    pub degraded: bool,
    /// Root cause of the current degradation, when degraded.
    pub degraded_cause: Option<String>,
    /// Writer panics absorbed through lock-poison recovery.
    pub writer_panics: u64,
    /// Background-compaction cycles that failed.
    pub compactor_failures: u64,
    /// Compaction candidates skipped while their table was backing off.
    pub compactor_backoffs: u64,
    /// Transient WAL fsync failures absorbed by the retry policy.
    pub wal_flush_retries: u64,
}

/// Cap on the compactor's per-table backoff exponent: a repeatedly-failing
/// table is skipped for at most `2^6 = 64` polls between attempts.
const COMPACTOR_MAX_BACKOFF_EXP: u32 = 6;

/// Stop flag + wakeup for the background compactor thread.
struct CompactorShared {
    stop: Mutex<bool>,
    cv: Condvar,
}

struct CompactorHandle {
    shared: Arc<CompactorShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    fn stop(&mut self) {
        *lock_unpoisoned(&self.shared.stop) = true;
        self.shared.cv.notify_all();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// The HTAP system: database + latency model + per-engine pipelines.
///
/// The **query path is `&self`**: binding, planning and execution of reads
/// only ever take a shared (read) lock on the database, so any number of
/// sessions/threads can execute SELECTs concurrently over one
/// `Arc<HtapSystem>`. Writes (`INSERT`/`UPDATE`/`DELETE`, `compact`) take
/// the write lock internally — interior mutability confined to the one
/// place the data actually changes. The shared [`PlanCache`] serves
/// prepared statements ([`crate::session::Session::prepare`]) across all
/// sessions.
///
/// # Durability
///
/// [`HtapSystem::new`] builds an in-memory system (nothing survives drop).
/// [`HtapSystem::open`] / [`HtapSystem::open_with`] attach a data
/// directory: every committed DML statement is WAL-logged before its
/// outcome is returned, [`HtapSystem::checkpoint`] publishes sealed column
/// segments plus a manifest and truncates the log, and reopening the
/// directory recovers byte-identical state (segments + WAL replay). See
/// the [`crate::storage`] module docs for the full lifecycle.
pub struct HtapSystem {
    db: Arc<RwLock<Database>>,
    /// Present iff the system was opened against a data directory.
    durability: Option<Arc<DurabilityCtx>>,
    /// Background compactor thread, when enabled in [`DurabilityOptions`].
    compactor: Option<CompactorHandle>,
    /// Startup report from [`HtapSystem::open_with`].
    recovery: Option<RecoveryReport>,
    latency: LatencyModel,
    /// Parallelism knob for the AP batch executor (threads + morsel size).
    /// Defaults to the machine's available cores (`QPE_AP_THREADS` /
    /// `QPE_MORSEL_ROWS` override); `threads == 1` is the exact serial
    /// executor. Execution results are bit-identical at any setting — only
    /// wall-clock depends on it.
    exec_cfg: ExecConfig,
    /// Thread count the *latency simulation* prices AP work at. Stays 1 —
    /// the host-independent serial model — unless parallelism is explicitly
    /// requested (env var or setter): simulated latencies, winner labels,
    /// router training data and explanations must not silently vary with
    /// how many cores the current machine happens to have.
    priced_threads: u64,
    /// Whether AP plans push filter conjunctions into their scan nodes for
    /// zone-map block pruning. On by default; turning it off restores the
    /// read-every-block plans (results are identical either way — only the
    /// work counters and latencies move), which is how benchmarks measure
    /// the pruning win and differential tests pin the equivalence.
    pruning: bool,
    /// Shared prepared-statement cache: parameterized bound statements and
    /// their physical plans, keyed by SQL fingerprint, LRU-evicted, with
    /// hit/miss stats.
    plan_cache: PlanCache,
    /// Degraded-mode latch + fault counters, shared with the compactor.
    health: Arc<HealthState>,
    /// Default [`StatementLimits`] applied to every statement that does not
    /// carry explicit per-call limits. Unlimited by default.
    limits: StatementLimits,
}

impl HtapSystem {
    /// Generates data and builds the system.
    pub fn new(config: &TpchConfig) -> Self {
        Self::with_database(Database::generate(config))
    }

    /// Builds from an existing database.
    pub fn with_database(db: Database) -> Self {
        HtapSystem {
            db: Arc::new(RwLock::new(db)),
            durability: None,
            compactor: None,
            recovery: None,
            latency: LatencyModel::default(),
            exec_cfg: ExecConfig::global().clone(),
            // Explicit env request ⇒ priced; available-cores default ⇒ the
            // executor still uses the cores (results identical), but the
            // simulation keeps the deterministic serial pricing.
            priced_threads: ExecConfig::env_requested_threads().unwrap_or(1) as u64,
            pruning: true,
            plan_cache: PlanCache::default(),
            health: Arc::new(HealthState::new()),
            limits: StatementLimits::default(),
        }
    }

    /// Opens (or creates) a durable system in `dir` with default options:
    /// group-commit WAL, no failpoints, no background compactor.
    ///
    /// First open of an empty directory generates the database from
    /// `config` and seals it as checkpoint 1; any later open ignores
    /// `config` (the manifest's own config wins — the recovered data was
    /// generated under it) and recovers: load the manifest's segments,
    /// replay the WAL chain past the last checkpoint, rebuild indexes and
    /// statistics. After recovery, TP scans, AP scans and index lookups see
    /// exactly the committed pre-crash state.
    pub fn open(dir: impl AsRef<Path>, config: &TpchConfig) -> Result<Self, HtapError> {
        Self::open_with(dir, config, DurabilityOptions::default())
    }

    /// [`HtapSystem::open`] with explicit [`DurabilityOptions`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: &TpchConfig,
        opts: DurabilityOptions,
    ) -> Result<Self, HtapError> {
        let started = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DurabilityError::Io(format!("create {}: {e}", dir.display())))?;
        let fp = opts.failpoints.clone();

        let manifest = persist::read_manifest(&dir)?;
        let (db, wal, version, report) = match manifest {
            None => {
                // Fresh directory: generate, then seal everything as
                // checkpoint 1 so a crash right after open recovers to the
                // same generated state.
                let db = Database::generate(config);
                let wal_path = dir.join(persist::wal_file_name(1));
                let wal_file = DurableFile::create_log(&wal_path, fp.clone(), "wal")?;
                let wal = Wal::with_retry(wal_file, opts.sync, opts.retry.clone());
                let snaps = db.snapshot_tables();
                let mut tables = Vec::with_capacity(snaps.len());
                for snap in &snaps {
                    let file = persist::segment_file_name(&snap.name, 1);
                    persist::write_segment(&dir.join(&file), snap, fp.clone())?;
                    tables.push(SegmentRef {
                        table: snap.name.clone(),
                        file,
                    });
                }
                fp.hit("ckpt:after_segments")?;
                let m = Manifest {
                    format: MANIFEST_FORMAT,
                    version: 1,
                    wal_gen: 1,
                    catalog: (*db.catalog).clone(),
                    stats: (*db.stats).clone(),
                    config: db.config.clone(),
                    tables,
                };
                persist::write_manifest(&dir, &m, &fp)?;
                let report = RecoveryReport {
                    created: true,
                    manifest_version: 1,
                    tables_loaded: snaps.len(),
                    wal_records_replayed: 0,
                    wal_files_replayed: 0,
                    torn_bytes_discarded: 0,
                    elapsed: started.elapsed(),
                };
                (db, wal, 1, report)
            }
            Some(m) => {
                // Recover: segments give the checkpointed snapshot, the WAL
                // chain replays everything committed since.
                let mut col_tables = Vec::with_capacity(m.tables.len());
                for seg in &m.tables {
                    let cols = persist::read_segment(&dir.join(&seg.file))?;
                    if cols.name() != seg.table {
                        return Err(DurabilityError::Corrupt(format!(
                            "segment {} holds table {:?}, manifest says {:?}",
                            seg.file,
                            cols.name(),
                            seg.table
                        ))
                        .into());
                    }
                    col_tables.push(cols);
                }
                let tables_loaded = col_tables.len();
                let mut db = Database::from_recovered(
                    m.catalog.clone(),
                    m.stats.clone(),
                    m.config.clone(),
                    col_tables,
                )?;
                let chain = persist::wal_chain(&dir, m.wal_gen);
                let mut records_replayed = 0u64;
                let mut torn_bytes = 0u64;
                for (_, path) in &chain {
                    let outcome = wal::read_wal_file(path)?;
                    torn_bytes += outcome.truncated_bytes;
                    for rec in outcome.records {
                        db.replay_wal_record(rec);
                        records_replayed += 1;
                    }
                }
                // The newest generation (which replay just truncated to its
                // last whole record) becomes the active log again.
                let (active_gen, active_path) = chain
                    .last()
                    .cloned()
                    .unwrap_or_else(|| (m.wal_gen, dir.join(persist::wal_file_name(m.wal_gen))));
                let wal_file = if active_path.exists() {
                    DurableFile::open_append(&active_path, fp.clone(), "wal")?
                } else {
                    DurableFile::create_log(&active_path, fp.clone(), "wal")?
                };
                let wal = Wal::with_retry(wal_file, opts.sync, opts.retry.clone());
                persist::clean_stale(&dir, &m);
                let report = RecoveryReport {
                    created: false,
                    manifest_version: m.version,
                    tables_loaded,
                    wal_records_replayed: records_replayed,
                    wal_files_replayed: chain.len(),
                    torn_bytes_discarded: torn_bytes,
                    elapsed: started.elapsed(),
                };
                (db, wal, m.version.max(active_gen), report)
            }
        };

        let mut sys = HtapSystem::with_database(db);
        sys.durability = Some(Arc::new(DurabilityCtx {
            dir,
            wal,
            fp,
            version: AtomicU64::new(version),
            ckpt_lock: Mutex::new(()),
            retry: opts.retry,
        }));
        sys.recovery = Some(report);
        if let Some(bg) = opts.background {
            sys.start_compactor(bg);
        }
        Ok(sys)
    }

    /// The startup report, when this system was opened from a directory.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// WAL throughput counters (records appended, fsyncs issued), when
    /// durable. `fsyncs < records` is the group-commit win.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.wal.stats())
    }

    /// Publishes a checkpoint: rotates the WAL to a fresh generation, seals
    /// every table's current column-store state into versioned segment
    /// files, swaps the manifest atomically, and removes the WAL
    /// generations the new manifest no longer needs. Readers proceed
    /// throughout; writers are excluded only while the snapshot is taken
    /// (O(tables × width) `Arc` clones). Returns the new version.
    pub fn checkpoint(&self) -> Result<u64, HtapError> {
        self.check_writable()?;
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| DurabilityError::Io("checkpoint on a non-durable system".into()))?;
        let _ckpt = lock_unpoisoned(&d.ckpt_lock);
        let version = d.version.load(Ordering::SeqCst) + 1;
        let new_wal_path = d.dir.join(persist::wal_file_name(version));
        let new_wal = DurableFile::create_log(&new_wal_path, d.fp.clone(), "wal")?;
        // Read lock: DML takes the write lock, so nothing can commit between
        // the rotation point and the snapshot — the segments hold exactly
        // the state the old log's tail described.
        let db = self.database();
        d.wal
            .rotate(new_wal, WalRecord::Checkpoint { version })
            .map_err(|e| self.degrade_on("wal rotate", e))?;
        let snaps = db.snapshot_tables();
        let catalog = (*db.catalog).clone();
        let stats = (*db.stats).clone();
        let config = db.config.clone();
        drop(db);
        let mut tables = Vec::with_capacity(snaps.len());
        for snap in &snaps {
            let file = persist::segment_file_name(&snap.name, version);
            // Re-creating a segment file is idempotent, so a transient
            // failure anywhere inside the write retries the whole file.
            let (sealed, _) = d
                .retry
                .run(|| persist::write_segment(&d.dir.join(&file), snap, d.fp.clone()));
            sealed.map_err(|e| self.degrade_on("segment seal", e))?;
            tables.push(SegmentRef {
                table: snap.name.clone(),
                file,
            });
        }
        let (hit, _) = d.retry.run(|| d.fp.hit("ckpt:after_segments"));
        hit.map_err(|e| self.degrade_on("checkpoint", e))?;
        let m = Manifest {
            format: MANIFEST_FORMAT,
            version,
            wal_gen: version,
            catalog,
            stats,
            config,
            tables,
        };
        let (swapped, _) = d.retry.run(|| persist::write_manifest(&d.dir, &m, &d.fp));
        swapped.map_err(|e| self.degrade_on("manifest swap", e))?;
        d.version.store(version, Ordering::SeqCst);
        persist::clean_stale(&d.dir, &m);
        Ok(version)
    }

    /// Graceful shutdown: stop the compactor, publish a final checkpoint
    /// (so the next open recovers from segments alone, replaying nothing).
    pub fn close(mut self) -> Result<(), HtapError> {
        if let Some(mut c) = self.compactor.take() {
            c.stop();
        }
        if self.durability.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn start_compactor(&mut self, cfg: BackgroundCompaction) {
        let db = Arc::clone(&self.db);
        let durability = self.durability.clone();
        let health = Arc::clone(&self.health);
        let shared = Arc::new(CompactorShared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("qpe-compactor".into())
            .spawn(move || {
                // Per-table consecutive-failure counts drive an exponential
                // backoff: a table whose compaction failed f times in a row
                // is skipped for the next 2^f polls (capped), so a
                // persistent fault on one table can't spin this thread while
                // healthy tables keep compacting. Every failure and every
                // backoff skip is counted into [`HealthState`].
                let mut failures: HashMap<String, u32> = HashMap::new();
                let mut skip_until: HashMap<String, u64> = HashMap::new();
                let mut tick: u64 = 0;
                loop {
                    {
                        let stop = lock_unpoisoned(&thread_shared.stop);
                        if *stop {
                            return;
                        }
                        let (stop, _) = thread_shared
                            .cv
                            .wait_timeout(stop, cfg.poll)
                            .unwrap_or_else(|e| e.into_inner());
                        if *stop {
                            return;
                        }
                    }
                    tick += 1;
                    // Degraded mode: the WAL is down, so a durable compact's
                    // Compact record can't be logged — don't grind on it.
                    if durability.is_some() && health.is_degraded() {
                        continue;
                    }
                    let candidates: Vec<String> = {
                        let db = read_recovered(&db, &health);
                        db.tables
                            .iter()
                            .filter(|(_, st)| st.compaction_debt() >= cfg.min_delta_rows)
                            .map(|(name, _)| name.clone())
                            .collect()
                    };
                    for table in candidates {
                        if skip_until.get(&table).is_some_and(|&until| tick < until) {
                            health.compactor_backoffs.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        match background_compact_once(&db, durability.as_deref(), &health, &table)
                        {
                            Ok(_) => {
                                failures.remove(&table);
                                skip_until.remove(&table);
                            }
                            Err(_) => {
                                let f = failures.entry(table.clone()).or_insert(0);
                                *f = (*f + 1).min(COMPACTOR_MAX_BACKOFF_EXP);
                                health.compactor_failures.fetch_add(1, Ordering::Relaxed);
                                skip_until.insert(table, tick + (1u64 << *f));
                            }
                        }
                    }
                }
            })
            .expect("spawn compactor thread");
        self.compactor = Some(CompactorHandle {
            shared,
            join: Some(join),
        });
    }

    /// Runs one background-compaction pass over every table that has any
    /// delta rows or tombstones, regardless of thresholds. Exposed for
    /// tests and benchmarks; the compactor thread does the same thing on a
    /// timer.
    pub fn background_compact_all(&self) -> Result<usize, HtapError> {
        self.check_writable()?;
        let tables: Vec<String> = {
            let db = self.database();
            db.tables
                .iter()
                .filter(|(_, st)| st.compaction_debt() > 0)
                .map(|(name, _)| name.clone())
                .collect()
        };
        let mut n = 0;
        for table in tables {
            if background_compact_once(&self.db, self.durability.as_deref(), &self.health, &table)?
            {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Enables/disables scan-predicate pushdown (zone-map pruning) for AP
    /// plans built by this system. Clears the plan cache — cached plans were
    /// built under the previous setting.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
        self.plan_cache.clear();
    }

    /// Whether AP plans currently push scan predicates for zone-map pruning.
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// Shared read access to the database. The guard holds the read lock —
    /// writes block while it lives, so keep it short-lived; any number of
    /// concurrent readers proceed in parallel.
    pub fn database(&self) -> RwLockReadGuard<'_, Database> {
        read_recovered(&self.db, &self.health)
    }

    /// Mutable database access (index creation, compaction knobs).
    /// Physical-design changes bump the affected table's design epoch, and
    /// cached plans revalidate their recorded epochs on hit — so unlike the
    /// old blanket cache clear, plans for untouched tables stay cached.
    /// The guard holds the write lock — keep it short-lived. Changes made
    /// through this handle bypass the WAL; on a durable system, follow up
    /// with [`HtapSystem::checkpoint`] if they must survive a crash.
    pub fn database_mut(&mut self) -> RwLockWriteGuard<'_, Database> {
        self.db_write()
    }

    fn db_write(&self) -> RwLockWriteGuard<'_, Database> {
        write_recovered(&self.db, &self.health)
    }

    /// Point-in-time health snapshot: degraded-mode state plus the fault
    /// counters (writer panics absorbed, compactor failures/backoffs, WAL
    /// fsync retries).
    pub fn health(&self) -> Health {
        Health {
            degraded: self.health.is_degraded(),
            degraded_cause: if self.health.is_degraded() {
                Some(self.health.cause_string())
            } else {
                None
            },
            writer_panics: self.health.writer_panics.load(Ordering::Relaxed),
            compactor_failures: self.health.compactor_failures.load(Ordering::Relaxed),
            compactor_backoffs: self.health.compactor_backoffs.load(Ordering::Relaxed),
            wal_flush_retries: self
                .durability
                .as_ref()
                .map(|d| d.wal.flush_retries())
                .unwrap_or(0),
        }
    }

    /// Whether the system is currently read-only (degraded mode).
    pub fn is_degraded(&self) -> bool {
        self.health.is_degraded()
    }

    /// Rejects write statements while degraded.
    fn check_writable(&self) -> Result<(), HtapError> {
        if self.health.is_degraded() {
            return Err(HtapError::ReadOnly { cause: self.health.cause_string() });
        }
        Ok(())
    }

    /// Trips degraded mode with the failing step as root cause and converts
    /// the durability error for propagation.
    fn degrade_on(&self, what: &str, e: DurabilityError) -> HtapError {
        self.health.trip_degraded(&format!("{what} failed: {e}"));
        e.into()
    }

    /// Attempts to leave read-only degraded mode: revives the WAL, then
    /// probes it end to end (append + committed fsync of a no-op
    /// `Checkpoint` marker — ignored at replay). Only a successful probe
    /// lifts the degradation; a still-broken WAL leaves the system degraded
    /// and returns the probe's error. A *crashed* failpoint state is
    /// permanent by design (the process is simulating a kill) and is never
    /// lifted.
    pub fn resume_writes(&self) -> Result<(), HtapError> {
        if let Some(d) = &self.durability {
            if d.fp.crashed() {
                return Err(DurabilityError::Crashed.into());
            }
            d.wal.revive();
            let version = d.version.load(Ordering::SeqCst);
            let lsn = d
                .wal
                .append(&[WalRecord::Checkpoint { version }])
                .map_err(HtapError::from)?;
            d.wal.commit(lsn).map_err(HtapError::from)?;
        }
        self.health.clear_degraded();
        // Poison recovery may arm again after a genuine new writer panic.
        self.health.poison_handled.store(false, Ordering::SeqCst);
        Ok(())
    }

    /// Default limits applied to statements without per-call limits.
    pub fn statement_limits(&self) -> &StatementLimits {
        &self.limits
    }

    /// Sets the system-wide default [`StatementLimits`] (timeout and memory
    /// budget). Sessions and prepared statements can still override them
    /// per call.
    pub fn set_statement_limits(&mut self, limits: StatementLimits) {
        self.limits = limits;
    }

    /// A fresh guard enforcing the system-default limits.
    fn statement_guard(&self) -> ExecGuard {
        ExecGuard::new(&self.limits)
    }

    /// Shared plan-cache counters (hits, misses, residency).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drops every cached prepared statement (prepared handles stay valid —
    /// they own their statement via `Arc`).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The AP executor's parallelism config.
    pub fn exec_config(&self) -> &ExecConfig {
        &self.exec_cfg
    }

    /// Replaces the AP executor's parallelism config. An explicit config
    /// also opts the latency simulation into parallel pricing.
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        self.priced_threads = cfg.threads as u64;
        self.exec_cfg = cfg;
    }

    /// Sets the AP worker-thread count (execution *and* latency pricing),
    /// keeping the morsel size.
    pub fn set_ap_threads(&mut self, threads: usize) {
        self.exec_cfg.threads = threads.max(1);
        self.priced_threads = self.exec_cfg.threads as u64;
    }

    /// The thread count the latency simulation prices AP work at.
    pub fn priced_threads(&self) -> u64 {
        self.priced_threads
    }

    /// Binds a SQL string against the system catalog.
    pub fn bind(&self, sql: &str) -> Result<BoundQuery, HtapError> {
        Ok(Binder::new(self.database().catalog()).bind_sql(sql)?)
    }

    /// Binds any statement (read or write) against the system catalog.
    pub fn bind_statement(&self, sql: &str) -> Result<BoundStatement, HtapError> {
        Ok(Binder::new(self.database().catalog()).bind_statement(sql)?)
    }

    /// Optimizes a bound query for one engine (EXPLAIN without execution).
    pub fn explain(&self, bound: &BoundQuery, engine: EngineKind) -> Result<PlanNode, HtapError> {
        plan_on(&self.database(), bound, engine, self.pruning)
    }

    /// Runs a bound query on one engine. An AP run executes on a pinned
    /// MVCC snapshot with the read lock released.
    pub fn run_engine(
        &self,
        bound: &BoundQuery,
        engine: EngineKind,
    ) -> Result<EngineRun, HtapError> {
        let engines = Engines::Pinned(engine, None);
        self.read(bound, engines, &self.statement_guard())
            .map(Runs::into_pinned)
    }

    /// Executes an already-built physical plan on one engine (the prepared
    /// path: no re-bind, no re-plan) and prices its counters.
    pub fn run_engine_with_plan(
        &self,
        plan: PlanNode,
        bound: &BoundQuery,
        engine: EngineKind,
    ) -> Result<EngineRun, HtapError> {
        let engines = Engines::Pinned(engine, Some(plan));
        self.read(bound, engines, &self.statement_guard())
            .map(Runs::into_pinned)
    }

    /// Full pipeline: bind, run on both engines, check result agreement.
    /// Governed by the system-default [`StatementLimits`].
    pub fn run_sql(&self, sql: &str) -> Result<QueryOutcome, HtapError> {
        let bound = self.bind(sql)?;
        let engines = Engines::Dual(None, None);
        let Runs::Dual(tp, ap) = self.read(&bound, engines, &self.statement_guard())? else {
            unreachable!("a dual read returns both runs");
        };
        Ok(QueryOutcome {
            sql: sql.to_string(),
            bound: Arc::new(bound),
            tp,
            ap,
        })
    }

    /// The statement path's one read. Takes the read lock, plans every side
    /// `engines` left unplanned, runs TP under the lock, then pins an MVCC
    /// snapshot and releases the lock before AP runs — a writer waits for
    /// the TP run plus an O(tables × width) pin, never for an analytical
    /// scan. One guard governs both sides of a dual read, which is then
    /// agreement-checked.
    pub(crate) fn read(
        &self,
        bound: &BoundQuery,
        engines: Engines,
        guard: &ExecGuard,
    ) -> Result<Runs, HtapError> {
        let db = self.database();
        let plan = |given: Option<PlanNode>, engine| {
            given.map_or_else(|| plan_on(&db, bound, engine, self.pruning), Ok)
        };
        let (tp, ap) = match engines {
            Engines::Dual(tp, ap) => (
                Some(plan(tp, EngineKind::Tp)?),
                Some(plan(ap, EngineKind::Ap)?),
            ),
            Engines::Pinned(EngineKind::Tp, given) => (Some(plan(given, EngineKind::Tp)?), None),
            Engines::Pinned(EngineKind::Ap, given) => (None, Some(plan(given, EngineKind::Ap)?)),
        };
        let tp = tp
            .map(|plan| self.run_plan_on(&db, plan, bound, EngineKind::Tp, guard))
            .transpose()?;
        let ap = match ap {
            Some(plan) => {
                let snap = db.pin_snapshot();
                drop(db);
                Some(self.run_plan_on(&snap, plan, bound, EngineKind::Ap, guard)?)
            }
            None => None,
        };
        match (tp, ap) {
            (Some(tp), Some(ap)) => {
                check_results_match(bound, &tp, &ap)?;
                Ok(Runs::Dual(tp, ap))
            }
            (Some(run), None) | (None, Some(run)) => Ok(Runs::Pinned(run)),
            (None, None) => unreachable!("every read runs at least one engine"),
        }
    }

    fn run_plan_on(
        &self,
        db: &Database,
        plan: PlanNode,
        bound: &BoundQuery,
        engine: EngineKind,
        guard: &ExecGuard,
    ) -> Result<EngineRun, HtapError> {
        let cfg = self.exec_cfg.with_guard(guard.clone());
        let (rows, counters) = exec::execute_with(&plan, bound, db, engine, &cfg)?;
        // Counters are executor-invariant, so the serial and parallel AP
        // latencies price the *same* work — the parallel model just walks
        // the critical path instead of the full sum.
        let latency_ns = match engine {
            EngineKind::Tp => self.latency.tp_latency_ns(&counters),
            EngineKind::Ap => self
                .latency
                .ap_latency_ns_threads(&counters, self.priced_threads),
        };
        Ok(EngineRun {
            engine,
            plan,
            rows,
            counters,
            latency_ns,
        })
    }

    /// Executes any statement through a **shared** reference. Reads take the
    /// dual-engine pipeline ([`HtapSystem::run_sql`]); writes route to the TP
    /// engine *only* — planned by the TP optimizer, executed against the row
    /// store under the write lock, with the column store absorbing the same
    /// change through its delta region, so the next AP read is fresh without
    /// blocking readers of other tables.
    pub fn execute_statement(&self, sql: &str) -> Result<StatementOutcome, HtapError> {
        self.bind_and_execute(sql, None)
    }

    /// Executes any statement with reads pinned to **one** engine: the
    /// statement is planned and run on `engine` only — no dual-run, no
    /// cross-engine agreement check — so a client that knows its workload
    /// (a pure-OLTP server connection, say) stops paying for the engine it
    /// never wants. Writes are unaffected (DML is TP-only on every path).
    /// The single run is byte-identical — rows, [`WorkCounters`], simulated
    /// latency — to the same engine's side of a dual
    /// [`HtapSystem::execute_statement`] run.
    pub fn execute_on(&self, sql: &str, engine: EngineKind) -> Result<StatementOutcome, HtapError> {
        self.bind_and_execute(sql, Some(engine))
    }

    /// Binds `sql` and dispatches it under the system-default limits: a read
    /// runs on both engines (or on `pin` alone), a write on the TP engine.
    fn bind_and_execute(
        &self,
        sql: &str,
        pin: Option<EngineKind>,
    ) -> Result<StatementOutcome, HtapError> {
        let guard = self.statement_guard();
        match self.bind_statement(sql)? {
            BoundStatement::Query(bound) => {
                let engines = match pin {
                    None => Engines::Dual(None, None),
                    Some(engine) => Engines::Pinned(engine, None),
                };
                let runs = self.read(&bound, engines, &guard)?;
                Ok(runs.into_outcome(sql.to_string(), Arc::new(bound)))
            }
            BoundStatement::Dml(dml) => Ok(StatementOutcome::Dml(Box::new(
                self.execute_dml_with_plan(sql, &dml, None, &guard)?,
            ))),
        }
    }

    /// Plans (unless a prepared, parameter-substituted write plan is given)
    /// and executes one bound write statement on the TP engine under the
    /// caller's guard. Takes the write lock internally.
    pub(crate) fn execute_dml_with_plan(
        &self,
        sql: &str,
        dml: &BoundDml,
        plan: Option<PlanNode>,
        guard: &ExecGuard,
    ) -> Result<DmlOutcome, HtapError> {
        self.check_writable()?;
        let mut db = self.db_write();
        let plan = match plan {
            Some(p) => p,
            None => tp::plan_dml(dml, db.stats(), db.catalog())?,
        };
        if self.durability.is_some() {
            db.begin_op_capture();
        }
        let exec_result = exec::execute_dml_guarded(&plan, dml, &mut db, guard);
        let (result, counters) = match exec_result {
            Ok(rc) => rc,
            Err(e) => {
                // Validation failures reject the whole statement before any
                // row is touched, so discarding the (empty) capture is safe.
                db.take_op_capture();
                return Err(e.into());
            }
        };
        let latency_ns = self.latency.tp_latency_ns(&counters);
        let freshness = db
            .freshness(&result.table)
            .expect("written table exists");
        // Durable path: append under the write lock (log order = apply
        // order), then release it and group-commit — concurrent writers
        // proceed while this statement waits for its fsync batch.
        let commit_lsn = match &self.durability {
            Some(d) => {
                // Fault-injection hook: a panic here models an executor
                // dying after the rows applied but before the WAL append —
                // the worst spot, proving poison recovery + degraded mode
                // keep the system serving.
                d.fp.panic_if_armed("dml:after_apply");
                let ops = db.take_op_capture();
                let records = db.wal_records_for(&ops);
                if records.is_empty() {
                    None
                } else {
                    let lsn = d
                        .wal
                        .append(&records)
                        .map_err(|e| self.degrade_on("wal append", e))?;
                    Some((Arc::clone(d), lsn))
                }
            }
            None => None,
        };
        drop(db);
        if let Some((d, lsn)) = commit_lsn {
            d.wal
                .commit(lsn)
                .map_err(|e| self.degrade_on("wal commit", e))?;
        }
        Ok(DmlOutcome {
            sql: sql.to_string(),
            result,
            plan,
            counters,
            latency_ns,
            freshness,
        })
    }

    /// Compacts one table (merging the AP delta into the base and dropping
    /// row-store tombstones). Takes the write lock internally. Returns false
    /// for an unknown table. On a durable system the compaction is
    /// WAL-logged (replay re-runs it at the same point in the op stream).
    pub fn compact(&self, table: &str) -> bool {
        // Degraded mode: a durable compact cannot log its Compact record.
        if self.durability.is_some() && self.health.is_degraded() {
            return false;
        }
        match &self.durability {
            None => self.db_write().compact_table(table),
            Some(d) => {
                // ckpt_lock: a durable sync compact must not interleave with
                // a background build's armed remap (see DurabilityCtx).
                let _ckpt = lock_unpoisoned(&d.ckpt_lock);
                let mut db = self.db_write();
                let Some(st) = db.tables.get(table) else {
                    return false;
                };
                let lsn = if st.is_dirty() {
                    match d.wal.append(&[WalRecord::Compact {
                        table: table.to_string(),
                    }]) {
                        Ok(lsn) => Some(lsn),
                        Err(_) => return false,
                    }
                } else {
                    None
                };
                let ok = db.compact_table(table);
                drop(db);
                if let Some(lsn) = lsn {
                    if d.wal.commit(lsn).is_err() {
                        return false;
                    }
                }
                ok
            }
        }
    }

    /// Freshness snapshot of one table.
    pub fn freshness(&self, table: &str) -> Option<TableFreshness> {
        self.database().freshness(table)
    }

    /// Pins an MVCC [`Snapshot`] of the current committed state. The pin
    /// itself briefly holds the read lock (O(tables × width) `Arc` bumps);
    /// the returned snapshot holds **no lock** — concurrent writers append
    /// new versions through copy-on-write and never disturb it, and the
    /// versions it pinned stay reachable (hence unreclaimable) until the
    /// snapshot drops.
    pub fn pin_snapshot(&self) -> Snapshot {
        Snapshot {
            db: self.database().pin_snapshot(),
            exec_cfg: self.exec_cfg.clone(),
            pruning: self.pruning,
        }
    }
}

/// The engine side(s) one [`HtapSystem::read`] runs. Each side carries the
/// plan a prepared statement already built, or `None` to plan it under the
/// read lock.
///
/// This and [`Runs`] only travel between `read` and its caller, so their
/// variants stay unboxed: boxing would cost a heap allocation per read.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Engines {
    /// Both engines (TP plan, AP plan), agreement-checked.
    Dual(Option<PlanNode>, Option<PlanNode>),
    /// One engine only.
    Pinned(EngineKind, Option<PlanNode>),
}

/// What one [`HtapSystem::read`] ran, shaped like its [`Engines`].
#[allow(clippy::large_enum_variant)]
pub(crate) enum Runs {
    /// The TP and AP runs of a dual read.
    Dual(EngineRun, EngineRun),
    /// The single run of a pinned read.
    Pinned(EngineRun),
}

impl Runs {
    /// The statement outcome reporting these runs.
    pub(crate) fn into_outcome(self, sql: String, bound: Arc<BoundQuery>) -> StatementOutcome {
        match self {
            Runs::Dual(tp, ap) => {
                StatementOutcome::Query(Box::new(QueryOutcome { sql, bound, tp, ap }))
            }
            Runs::Pinned(run) => {
                StatementOutcome::PinnedQuery(Box::new(PinnedQueryOutcome { sql, bound, run }))
            }
        }
    }

    fn into_pinned(self) -> EngineRun {
        match self {
            Runs::Pinned(run) => run,
            Runs::Dual(..) => unreachable!("a pinned read returns one run"),
        }
    }
}

/// Optimizes a bound query for one engine against `db`'s statistics, with
/// AP scan-predicate pushdown (zone-map pruning) on or off.
pub(crate) fn plan_on(
    db: &Database,
    bound: &BoundQuery,
    engine: EngineKind,
    pruning: bool,
) -> Result<PlanNode, HtapError> {
    let mut ctx = PlannerCtx::new(bound, db.stats(), db.catalog());
    ctx.pushdown = pruning;
    Ok(match engine {
        EngineKind::Tp => tp::plan(&ctx)?,
        EngineKind::Ap => ap::plan(&ctx)?,
    })
}

/// A pinned MVCC snapshot of the database: every table's column store
/// frozen at the epoch current when [`HtapSystem::pin_snapshot`] ran,
/// readable lock-free on any AP executor while writers proceed. Reads see
/// exactly the committed prefix at the pin — never a torn statement, never
/// a later write.
pub struct Snapshot {
    db: Database,
    exec_cfg: ExecConfig,
    pruning: bool,
}

impl Snapshot {
    /// The pinned database state (AP side only — row stores are empty
    /// shells; run AP plans against this, not TP plans).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The epoch one table was pinned at.
    pub fn epoch(&self, table: &str) -> Option<u64> {
        self.db.stored_table(table).map(|st| st.cols.version())
    }

    /// Binds and AP-plans `sql` against the pinned catalog and statistics
    /// (deterministic: two snapshots of identical logical state plan
    /// identically).
    pub fn plan(&self, sql: &str) -> Result<(PlanNode, BoundQuery), HtapError> {
        let bound = Binder::new(self.db.catalog()).bind_sql(sql)?;
        let plan = plan_on(&self.db, &bound, EngineKind::Ap, self.pruning)?;
        Ok((plan, bound))
    }

    /// Runs `sql` against the pinned state (AP batch executor, this
    /// snapshot's parallelism config), returning rows and work counters.
    pub fn run_sql(&self, sql: &str) -> Result<(Vec<Row>, exec::WorkCounters), HtapError> {
        let (plan, bound) = self.plan(sql)?;
        Ok(exec::execute_with(&plan, &bound, &self.db, EngineKind::Ap, &self.exec_cfg)?)
    }
}

impl Drop for HtapSystem {
    fn drop(&mut self) {
        if let Some(mut c) = self.compactor.take() {
            c.stop();
        }
        // Crash-consistency means an unclean drop loses nothing committed;
        // flushing here is just courtesy for buffered-but-unacked appends.
        if let Some(d) = &self.durability {
            let _ = d.wal.flush_all();
        }
    }
}

/// One background-compaction cycle for one table: snapshot under a brief
/// write lock, build the compacted state (encode, zones, stats, indexes)
/// entirely off-lock, swap it in under a second brief lock and re-apply
/// the writes that landed in between. On a durable system the `Compact`
/// record is appended at the snapshot point and every concurrent write's
/// WAL record is rid-translated into the post-compaction space, so replay
/// reproduces the exact same state.
///
/// Returns `Ok(false)` when there was nothing to compact or a synchronous
/// compact made the build stale.
fn background_compact_once(
    db: &RwLock<Database>,
    durability: Option<&DurabilityCtx>,
    health: &HealthState,
    table: &str,
) -> Result<bool, HtapError> {
    // Held for the whole cycle when durable: checkpoints and durable sync
    // compacts never observe a half-done background build's remap.
    let _ckpt = durability.map(|d| lock_unpoisoned(&d.ckpt_lock));
    let durable = durability.is_some();
    let mut lsn = None;
    let snapshot = {
        let mut db = write_recovered(db, health);
        let Some(snapshot) = db.begin_background_compact(table, durable) else {
            return Ok(false);
        };
        if let Some(d) = durability {
            match d.wal.append(&[WalRecord::Compact {
                table: table.to_string(),
            }]) {
                Ok(l) => lsn = Some(l),
                Err(e) => {
                    db.abort_background_compact(table);
                    return Err(e.into());
                }
            }
        }
        snapshot
    };
    // Append under the lock fixed the record's position; the swap below
    // publishes the matching in-memory state.
    let built = snapshot.build();
    let swapped = {
        let mut db = write_recovered(db, health);
        db.finish_background_compact(table, built)
    };
    if let (Some(d), Some(lsn)) = (durability, lsn) {
        // Commit (fsync) the Compact record so a compaction is only
        // reported successful once its record is durable. On failure the
        // swap stands — memory and the WAL buffer still agree, and the
        // record flushes with the next successful sync — but the error
        // feeds the compactor's failure accounting and the WAL's dead
        // latch turns the next write into a degraded-mode trip.
        d.wal.commit(lsn)?;
    }
    Ok(swapped)
}

/// Read-lock the database, recovering (and recording) a poisoned lock.
/// Safe per the MVCC design: readers only ever observe committed
/// copy-on-write state, so a writer's panic cannot leave a torn row/column
/// visible — see [`HealthState::note_poisoned_db_lock`].
fn read_recovered<'a>(
    db: &'a RwLock<Database>,
    health: &HealthState,
) -> RwLockReadGuard<'a, Database> {
    match db.read() {
        Ok(g) => g,
        Err(poisoned) => {
            health.note_poisoned_db_lock();
            // Clear the flag so one panic is one incident: without this,
            // every access after `resume_writes()` would re-trip degraded
            // mode on the same long-dead poison.
            db.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Write-lock twin of [`read_recovered`].
fn write_recovered<'a>(
    db: &'a RwLock<Database>,
    health: &HealthState,
) -> RwLockWriteGuard<'a, Database> {
    match db.write() {
        Ok(g) => g,
        Err(poisoned) => {
            health.note_poisoned_db_lock();
            db.clear_poison();
            poisoned.into_inner()
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::value::Value;

    fn system() -> HtapSystem {
        HtapSystem::new(&TpchConfig::with_scale(0.002))
    }

    #[test]
    fn run_sql_produces_consistent_outcome() {
        let sys = system();
        let out = sys
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap();
        assert_eq!(out.tp.rows, out.ap.rows);
        assert!(out.tp.latency_ns > 0 && out.ap.latency_ns > 0);
        assert!(out.speedup() >= 1.0);
    }

    #[test]
    fn point_lookup_favors_tp() {
        let sys = system();
        let out = sys
            .run_sql("SELECT c_name FROM customer WHERE c_custkey = 42")
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Tp);
    }

    #[test]
    fn big_join_favors_ap() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        let out = sys
            .run_sql(
                "SELECT COUNT(*) FROM customer, orders, lineitem \
                 WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey",
            )
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Ap, "speedup={}", out.speedup());
    }

    #[test]
    fn index_served_topn_favors_tp() {
        let sys = system();
        let out = sys
            .run_sql("SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10")
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Tp);
    }

    #[test]
    fn unindexed_topn_on_big_table_favors_ap() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        let out = sys
            .run_sql(
                "SELECT l_orderkey, l_extendedprice FROM lineitem \
                 ORDER BY l_extendedprice DESC LIMIT 10",
            )
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Ap);
    }

    #[test]
    fn create_index_changes_plans() {
        let mut sys = system();
        let before = sys
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap();
        assert_eq!(before.tp.plan.count_type(crate::plan::NodeType::IndexScan), 0);
        assert!(sys.database_mut().create_index("customer", "c_mktsegment"));
        let after = sys
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap();
        assert_eq!(after.tp.plan.count_type(crate::plan::NodeType::IndexScan), 1);
        // Results identical either way.
        assert_eq!(before.tp.rows, after.tp.rows);
    }

    #[test]
    fn create_index_rejects_unknown() {
        let mut sys = system();
        assert!(!sys.database_mut().create_index("nope", "c_phone"));
        assert!(!sys.database_mut().create_index("customer", "nope"));
    }

    #[test]
    fn engine_kind_helpers() {
        assert_eq!(EngineKind::Tp.other(), EngineKind::Ap);
        assert_eq!(EngineKind::Ap.as_str(), "AP");
        assert_eq!(EngineKind::Tp.to_string(), "TP");
    }

    #[test]
    fn outcome_run_accessor() {
        let sys = system();
        let out = sys.run_sql("SELECT COUNT(*) FROM nation").unwrap();
        assert_eq!(out.run(EngineKind::Tp).engine, EngineKind::Tp);
        assert_eq!(out.run(EngineKind::Ap).engine, EngineKind::Ap);
        assert_eq!(out.tp.rows[0][0], Value::Int(25));
    }

    #[test]
    fn explain_does_not_execute() {
        let sys = system();
        let bound = sys.bind("SELECT COUNT(*) FROM customer").unwrap();
        let plan = sys.explain(&bound, EngineKind::Ap).unwrap();
        assert!(plan.total_cost > 0.0);
    }

    #[test]
    fn bind_error_propagates() {
        let sys = system();
        assert!(matches!(
            sys.run_sql("SELECT * FROM missing_table"),
            Err(HtapError::Sql(_))
        ));
    }

    fn count_machinery(sys: &HtapSystem) -> i64 {
        sys.run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap()
            .tp
            .rows[0][0]
            .as_int()
            .unwrap()
    }

    #[test]
    fn insert_is_visible_to_both_engines_before_compaction() {
        let sys = system();
        let before = count_machinery(&sys);
        let out = sys
            .execute_statement(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES (900001, 'customer#900001', 4, '20-555-000-1111', \
                 1234.5, 'machinery')",
            )
            .unwrap();
        let dml = out.as_dml().expect("insert is DML");
        assert_eq!(dml.result.kind, crate::exec::DmlKind::Insert);
        assert_eq!(dml.result.rows_affected, 1);
        assert_eq!(dml.plan.node_type, crate::plan::NodeType::Insert);
        assert!(dml.counters.rows_inserted == 1 && dml.counters.index_updates > 0);
        assert!(dml.latency_ns > 0);
        assert_eq!(dml.freshness.delta_rows, 1);
        // run_sql internally asserts TP/AP agreement — the delta row is
        // already visible to the AP engine.
        assert_eq!(count_machinery(&sys), before + 1);
        // ... and still after compaction.
        assert!(sys.compact("customer"));
        assert_eq!(count_machinery(&sys), before + 1);
        assert_eq!(sys.freshness("customer").unwrap().delta_rows, 0);
    }

    #[test]
    fn update_and_delete_round_trip() {
        let sys = system();
        let before = count_machinery(&sys);
        let up = sys
            .execute_statement("UPDATE customer SET c_mktsegment = 'machinery' WHERE c_custkey = 7")
            .unwrap();
        let up = up.as_dml().unwrap();
        assert_eq!(up.result.kind, crate::exec::DmlKind::Update);
        assert_eq!(up.result.rows_affected, 1);
        // PK equality predicate drives an index access path, not a scan
        assert_eq!(up.plan.children[0].node_type, crate::plan::NodeType::IndexScan);
        let after_update = count_machinery(&sys);
        assert!(after_update == before || after_update == before + 1);
        let del = sys
            .execute_statement("DELETE FROM customer WHERE c_custkey = 7")
            .unwrap();
        assert_eq!(del.as_dml().unwrap().result.rows_affected, 1);
        // engines still agree after a delete, pre- and post-compaction
        assert_eq!(count_machinery(&sys), after_update - 1);
        sys.compact("customer");
        assert_eq!(count_machinery(&sys), after_update - 1);
    }

    #[test]
    fn update_assignment_reads_old_row() {
        let sys = system();
        let before = sys
            .run_sql("SELECT c_acctbal FROM customer WHERE c_custkey = 3")
            .unwrap()
            .tp
            .rows[0][0]
            .as_float()
            .unwrap();
        sys.execute_statement("UPDATE customer SET c_acctbal = c_acctbal + 100 WHERE c_custkey = 3")
            .unwrap();
        let after = sys
            .run_sql("SELECT c_acctbal FROM customer WHERE c_custkey = 3")
            .unwrap()
            .tp
            .rows[0][0]
            .as_float()
            .unwrap();
        assert!((after - (before + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn duplicate_or_null_primary_key_rejected() {
        let sys = system();
        // key 1 exists in generated data
        assert!(matches!(
            sys.execute_statement(
                "INSERT INTO customer (c_custkey, c_name) VALUES (1, 'dup')"
            ),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        assert!(matches!(
            sys.execute_statement("INSERT INTO customer (c_name) VALUES ('nokey')"),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // duplicate within one VALUES batch
        assert!(matches!(
            sys.execute_statement(
                "INSERT INTO customer (c_custkey, c_name) VALUES (900009, 'a'), (900009, 'b')"
            ),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // failed statements leave no trace
        assert_eq!(sys.freshness("customer").unwrap().delta_rows, 0);
    }

    #[test]
    fn update_enforces_primary_key_constraints() {
        let sys = system();
        // moving a PK onto a surviving row's key is rejected
        assert!(matches!(
            sys.execute_statement("UPDATE customer SET c_custkey = 1 WHERE c_custkey = 2"),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // two updated rows collapsing onto one new key is rejected
        assert!(matches!(
            sys.execute_statement("UPDATE customer SET c_custkey = 900100 WHERE c_custkey < 3"),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // rejections leave storage untouched
        assert_eq!(sys.freshness("customer").unwrap().delta_rows, 0);
        // an updated row may keep its own key (self-match is not a clash) …
        let out = sys
            .execute_statement("UPDATE customer SET c_custkey = 2, c_name = 'renamed' \
                          WHERE c_custkey = 2")
            .unwrap();
        assert_eq!(out.as_dml().unwrap().result.rows_affected, 1);
        // … and may move to a genuinely free key
        sys.execute_statement("UPDATE customer SET c_custkey = 900200 WHERE c_custkey = 3")
            .unwrap();
        let rows = sys
            .run_sql("SELECT c_custkey FROM customer WHERE c_custkey = 900200")
            .unwrap()
            .tp
            .rows;
        assert_eq!(rows.len(), 1);
        // non-PK assignments never pay PK probes
        let out = sys
            .execute_statement("UPDATE customer SET c_acctbal = 1.0 WHERE c_custkey = 4")
            .unwrap();
        assert_eq!(out.as_dml().unwrap().result.rows_affected, 1);
    }

    #[test]
    fn delta_fraction_ignores_tombstoned_delta_rows() {
        let sys = system();
        sys.execute_statement(
            "INSERT INTO region (r_regionkey, r_name) VALUES (90, 'x'), (91, 'y')",
        )
        .unwrap();
        let f = sys.freshness("region").unwrap();
        assert_eq!(f.live_delta_rows, 2);
        assert!(f.delta_fraction() > 0.0);
        sys.execute_statement("DELETE FROM region WHERE r_regionkey >= 90").unwrap();
        let f = sys.freshness("region").unwrap();
        assert_eq!(f.delta_rows, 2, "physical backlog remains");
        assert_eq!(f.live_delta_rows, 0);
        assert_eq!(f.delta_fraction(), 0.0, "no live row resides in the delta");
    }

    /// Satellite: planner cardinality estimates must track post-DML table
    /// sizes — both the catalog row count the binder snapshots and the
    /// statistics row count the optimizers estimate from.
    #[test]
    fn stats_and_plans_track_post_dml_sizes() {
        let sys = system();
        let n0 = sys.database().stats().table("nation").unwrap().row_count;
        assert_eq!(n0, 25);
        for i in 0..5 {
            sys.execute_statement(&format!(
                "INSERT INTO nation (n_nationkey, n_name, n_regionkey) VALUES ({}, 'x{}', 0)",
                100 + i,
                i
            ))
            .unwrap();
        }
        // incremental row_count maintenance, no refresh needed
        assert_eq!(sys.database().stats().table("nation").unwrap().row_count, 30);
        let bound = sys.bind("SELECT COUNT(*) FROM nation").unwrap();
        assert_eq!(bound.tables[0].row_count, 30);
        // a full-scan plan's cardinality estimate reflects the new size
        let plan = sys.explain(&bound, EngineKind::Ap).unwrap();
        let mut scan_rows = 0.0;
        plan.walk(&mut |n| {
            if n.node_type == crate::plan::NodeType::TableScan {
                scan_rows = n.plan_rows;
            }
        });
        assert_eq!(scan_rows, 30.0);
        sys.execute_statement("DELETE FROM nation WHERE n_nationkey >= 100")
            .unwrap();
        assert_eq!(sys.database().stats().table("nation").unwrap().row_count, 25);
        // min/max widened incrementally by the inserts (lazy ndv refresh
        // corrects them later; widening alone must be immediate)
        assert!(sys.database().stats().table("nation").unwrap().columns[0]
            .max
            .unwrap()
            >= 104.0);
        // compaction triggers the full stats refresh: bounds shrink back
        sys.compact("nation");
        let db = sys.database();
        let ts = db.stats().table("nation").unwrap();
        assert_eq!(ts.columns[0].max, Some(24.0));
        assert_eq!(ts.pending_ndv_writes, 0);
    }

    #[test]
    fn lazy_ndv_refresh_after_write_backlog() {
        let sys = system();
        let ndv0 = sys.database().stats().table("nation").unwrap().columns[1].ndv;
        assert_eq!(ndv0, 25);
        // 64+ inserts with distinct names crosses the staleness threshold
        for i in 0..70 {
            sys.execute_statement(&format!(
                "INSERT INTO nation (n_nationkey, n_name, n_regionkey) VALUES ({}, 'n{}', 0)",
                1000 + i,
                i
            ))
            .unwrap();
        }
        let db = sys.database();
        let ts = db.stats().table("nation").unwrap();
        assert_eq!(ts.row_count, 95);
        // The refresh fired when the backlog hit the threshold (64 writes →
        // 89 rows at that moment), not on every write: lazily, not eagerly.
        assert_eq!(ts.columns[1].ndv, 89, "ndv refreshed once at the threshold");
        assert_eq!(ts.pending_ndv_writes, 6, "post-refresh backlog keeps accumulating");
    }

    /// Read-only statements go through `&self`: two threads can execute
    /// SELECTs concurrently against one shared system.
    #[test]
    fn concurrent_reads_share_the_system() {
        let sys = std::sync::Arc::new(system());
        let mut handles = Vec::new();
        for t in 0..2 {
            let sys = std::sync::Arc::clone(&sys);
            handles.push(std::thread::spawn(move || {
                for i in 0..5 {
                    let key = 1 + (t * 5 + i) % 20;
                    let out = sys
                        .execute_statement(&format!(
                            "SELECT c_custkey FROM customer WHERE c_custkey = {key}"
                        ))
                        .unwrap();
                    let q = out.as_query().unwrap();
                    assert_eq!(q.tp.rows, vec![vec![Value::Int(key)]]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn dml_routes_to_tp_only_and_select_still_dual_runs(){
        let sys = system();
        let q = sys.execute_statement("SELECT COUNT(*) FROM region").unwrap();
        assert!(q.as_query().is_some() && q.as_dml().is_none());
        let w = sys
            .execute_statement("DELETE FROM region WHERE r_regionkey = 4")
            .unwrap();
        let dml = w.as_dml().unwrap();
        assert!(w.as_query().is_none());
        // write counters priced by the TP latency model
        assert_eq!(dml.counters.rows_deleted, 1);
        assert_eq!(
            dml.latency_ns,
            sys.latency_model().tp_latency_ns(&dml.counters)
        );
    }
}
