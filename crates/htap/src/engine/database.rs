//! The database — catalog, statistics and dual-format storage — and the
//! pinned MVCC snapshot AP reads run on.

use super::{EngineKind, HtapError};
use crate::exec::{self, ExecConfig, Row};
use crate::opt::{ap, tp, PlannerCtx};
use crate::plan::PlanNode;
use crate::stats::{DbStats, TableStats};
use crate::storage::durable_io::DurabilityError;
use crate::storage::wal::WalRecord;
use crate::storage::{ColumnTable, CompactSnapshot, CompactedTable, StoredTable, TableOp};
use crate::tpch::{self, TpchConfig};
use qpe_sql::binder::{Binder, BoundQuery};
use qpe_sql::catalog::{Catalog, MemoryCatalog};
use qpe_sql::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// The database: catalog, statistics, and dual-format storage.
///
/// Catalog and statistics sit behind `Arc` with copy-on-write
/// ([`Arc::make_mut`]) so `Database::pin_snapshot` shares them in O(1);
/// a writer only pays for a copy while a pinned snapshot is outstanding.
pub struct Database {
    pub(super) catalog: Arc<MemoryCatalog>,
    pub(super) stats: Arc<DbStats>,
    pub(super) tables: HashMap<String, StoredTable>,
    pub(super) config: TpchConfig,
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

    /// Tables whose compaction debt (delta rows plus tombstones) reaches
    /// `min_debt` rows.
    pub(super) fn indebted(&self, min_debt: usize) -> Vec<String> {
        self.tables
            .iter()
            .filter(|(_, st)| st.compaction_debt() >= min_debt)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Opens a background compaction on one table (see
    /// [`StoredTable::begin_background_compact`]).
    pub(crate) fn begin_background_compact(
        &mut self,
        table: &str,
        durable: bool,
    ) -> Option<CompactSnapshot> {
        self.tables.get_mut(table)?.begin_background_compact(durable)
    }

    /// Rolls back a just-opened background compaction (WAL append failed
    /// before anything escaped the write lock).
    pub(crate) fn abort_background_compact(&mut self, table: &str) {
        if let Some(st) = self.tables.get_mut(table) {
            st.abort_background_compact();
        }
    }

    /// Swaps an offline-built compaction in and re-applies the captured
    /// write window: the install a synchronous [`Database::compact_table`]
    /// at the snapshot point performs, then the window ops re-run through
    /// the normal `apply_*` entry points (translated into the new rid
    /// space). Returns false when a sync compact made the build stale.
    pub(crate) fn finish_background_compact(&mut self, table: &str, built: CompactedTable) -> bool {
        let Some(st) = self.tables.get_mut(table) else {
            return false;
        };
        let Some((window, stats, remap)) = st.finish_background_compact(built) else {
            return false;
        };
        self.install_table_stats(table, stats);
        for op in window {
            self.replay_op(table, op.translate(&remap));
        }
        true
    }

    /// Compacts one table under the write lock the caller holds: the
    /// background path's build and install in one step. The column store
    /// merges its delta into the base, the row store drops tombstones, and
    /// — compaction being the moment the data gets rewritten anyway — the
    /// table's ndv/min/max stats refresh too. Compacting an already-clean
    /// table is a no-op (no rescan). Returns false for an unknown table.
    pub fn compact_table(&mut self, table: &str) -> bool {
        let Some(st) = self.tables.get_mut(table) else {
            return false;
        };
        if st.is_dirty() {
            let stats = st.compact();
            self.install_table_stats(table, stats);
        }
        true
    }

    /// Re-chunks one table's zone maps at a different block size (metadata
    /// rebuild only — the base stays contiguous). Tests and small-scale
    /// benchmarks use it so tiny tables still yield multiple prunable
    /// blocks. Returns false for an unknown table.
    pub fn set_zone_block_rows(&mut self, table: &str, rows: usize) -> bool {
        self.redesign(table, |cols| cols.set_block_rows(rows))
    }

    /// Enables/disables one table's per-block bloom filters (the
    /// forced-encoding test matrix and the bloom pruning test use this;
    /// pruning stays correct either way). Returns false for an unknown
    /// table.
    pub fn set_bloom_filters(&mut self, table: &str, enabled: bool) -> bool {
        self.redesign(table, |cols| cols.set_bloom_filters(enabled))
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
        self.redesign(table, |cols| cols.set_encoding_policy(policy))
    }

    /// Applies a plan-relevant change to one table's column-store design
    /// and bumps its design epoch. Returns false for an unknown table.
    fn redesign(&mut self, table: &str, change: impl FnOnce(&mut ColumnTable)) -> bool {
        let Some(st) = self.tables.get_mut(table) else {
            return false;
        };
        change(&mut st.cols);
        st.bump_design_epoch();
        true
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
        self.install_table_stats(table, TableStats::collect(table, &columns));
    }

    /// Publishes freshly collected statistics for one table and mirrors its
    /// live row count and per-column ndv into the catalog.
    fn install_table_stats(&mut self, table: &str, stats: TableStats) {
        let live = self.tables.get(table).map_or(0, |st| st.row_count()) as u64;
        if let Some(def) = Arc::make_mut(&mut self.catalog).table_mut(table) {
            def.row_count = live;
            for (cd, cs) in def.columns.iter_mut().zip(&stats.columns) {
                cd.ndv = cs.ndv;
            }
        }
        Arc::make_mut(&mut self.stats).insert(stats);
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

/// Optimizes a bound query for one engine against `db`'s statistics. AP
/// plans push filters into their scans for zone-map pruning.
pub(crate) fn plan_on(
    db: &Database,
    bound: &BoundQuery,
    engine: EngineKind,
) -> Result<PlanNode, HtapError> {
    let ctx = PlannerCtx::new(bound, db.stats(), db.catalog());
    Ok(match engine {
        EngineKind::Tp => tp::plan(&ctx)?,
        EngineKind::Ap => ap::plan(&ctx)?,
    })
}

/// A pinned MVCC snapshot of the database: every table's column store
/// frozen at the epoch current when [`super::HtapSystem::pin_snapshot`]
/// ran, readable lock-free on any AP executor while writers proceed. Reads
/// see exactly the committed prefix at the pin — never a torn statement,
/// never a later write.
pub struct Snapshot {
    pub(super) db: Database,
    pub(super) exec_cfg: ExecConfig,
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
        let plan = plan_on(&self.db, &bound, EngineKind::Ap)?;
        Ok((plan, bound))
    }

    /// Runs `sql` against the pinned state (AP batch executor, this
    /// snapshot's parallelism config), returning rows and work counters.
    pub fn run_sql(&self, sql: &str) -> Result<(Vec<Row>, exec::WorkCounters), HtapError> {
        let (plan, bound) = self.plan(sql)?;
        Ok(exec::execute_with(&plan, &bound, &self.db, EngineKind::Ap, &self.exec_cfg)?)
    }
}
