//! Dual-format mutable storage — row store + column store sharing one rid
//! space — plus the durability subsystem (WAL, segments, manifest,
//! checkpoints) that makes that state survive a kill.
//!
//! # The in-memory pair
//!
//! The paper's ByteHTAP keeps a row-oriented copy for the TP engine and a
//! column-oriented copy for the AP engine *with high data freshness*. Here
//! that freshness mechanism is explicit:
//!
//! * the **row store** applies writes directly — inserts append, deletes
//!   tombstone, updates relocate the tuple (heap-update style) — and every
//!   B-tree index is maintained in place on each write;
//! * the **column store** keeps its base columns immutable (block-structured
//!   with [`zone::BlockZone`] headers, compressed where a cost rule fires —
//!   see below) and buffers all writes in an append-friendly **delta
//!   region** versioned per row: the table's monotonically increasing
//!   version stamp doubles as the **visibility epoch**, and every physical
//!   row carries a begin version (the epoch its insert committed) and an
//!   end version (the epoch a delete/relocating-update retired it;
//!   `u64::MAX` while live). A row is visible at epoch `E` iff
//!   `begin <= E < end`. Compaction merges the delta into fresh base
//!   columns, drops retired versions, and advances the **history floor** —
//!   the oldest epoch a version view can still be reconstructed at.
//!
//! Both representations share one physical rid space at all times, so the
//! DML executor locates rows once — on the row store — and applies the
//! change to both copies. AP scans read base + delta through selection
//! vectors; zone maps cover only the immutable base (delta rids are always
//! scanned, never pruned), which keeps block skipping correct under DML.
//!
//! # MVCC snapshot reads
//!
//! Column state lives behind `Arc`s, so pinning a snapshot is cheap: every
//! read statement's AP side (and `HtapSystem::pin_snapshot` explicitly)
//! clones those `Arc`s at the current epoch under a briefly-held read lock,
//! then executes with no lock at all. Writers mutate through
//! `Arc::make_mut` — copy-on-write when an outstanding snapshot still
//! references the state, in-place when nobody does — so readers never block
//! writers and vice versa. Because delta begin stamps are monotone, a
//! snapshot truncates its delta view at the pin epoch (`view_at`), making
//! its physical shape identical to a table that simply stopped there: work
//! counters, pruning and encodings all match the committed-prefix oracle,
//! not just the row set. Old versions are reclaimed by `Arc` drop when the
//! last snapshot holding them goes away — there is no separate vacuum.
//! Begin/end stamps are assigned deterministically in commit order, so WAL
//! replay after a crash reproduces them byte-identically (v2 segments
//! persist the vectors and the floor).
//!
//! # Base-segment encodings (and why the delta stays plain)
//!
//! Because the base is immutable between compactions, it is the one place
//! compression pays for itself: encode once at (re)build time, scan many
//! times. [`col_store`] picks a representation per column when a base is
//! built, in cost-rule order:
//!
//! * **Dictionary** ([`DictColumn`]): string columns whose distinct count is
//!   small relative to the row count. Scans, hash joins and group-bys then
//!   work on the `u32` codes — equality/IN compare codes, joins hash codes
//!   and translate probe-side codes through a build-side remap — and decode
//!   strings only at materialization.
//! * **Run-length** ([`RleRuns`]): int/date columns whose average run length
//!   clears the break-even point. Predicate kernels evaluate once per *run*,
//!   not once per row, then fan the verdict out to the covered rids.
//! * **Frame-of-reference** ([`col_store::ForInt`]): int columns that are
//!   neither low-cardinality nor run-heavy but locally narrow — each
//!   [`col_store::FOR_BLOCK_ROWS`]-row block stores one reference value plus
//!   bit-packed deltas, provided the packed widths actually undercut plain
//!   `i64` storage. Point access stays O(1) (shift + mask), and range
//!   predicates translate into the packed domain once per block.
//! * **Plain** typed vectors otherwise; nullable columns carry a null mask
//!   rather than demoting to generic values.
//!
//! The **delta region never encodes**: it is append-hot (every write would
//! re-run the cost rule), too small to amortize a dictionary or reference
//! frame, and scanned in full anyway because zone maps don't cover it.
//! Encoding it would buy nothing and cost every DML statement; compaction is
//! the moment delta rows earn a compressed representation. A per-table
//! [`col_store::EncodingPolicy`] can force one representation everywhere
//! (tests sweep the full matrix; compaction preserves the pinned policy).
//!
//! # Per-block bloom filters
//!
//! Zone min/max headers refute *range* predicates but are weak against
//! point predicates over unclustered keys (a block spanning the whole key
//! domain refutes nothing). Each base block therefore also carries a small
//! bloom filter over the column's hashed values ([`zone::BlockZone`]), and
//! the [`ScanPruner`] consults it for `=` and `IN` conjuncts. The safety
//! argument is one-sided: a bloom answers "definitely absent" or "maybe
//! present" — false *positives* merely scan a block that min/max would have
//! scanned anyway (pure, bounded overhead: one probe per block per
//! conjunct), while false *negatives* cannot occur, so a pruned block
//! provably contains no match and results are unchanged. Delta rows are
//! never bloom-pruned (same rule as zone maps), filters are recomputed —
//! not persisted — whenever a base is (re)built or recovered, and literals
//! that cannot equal any stored value under SQL comparison semantics (e.g.
//! fractional floats probing an int column) skip the filter rather than
//! hash incompatibly.
//!
//! # Durability lifecycle: WAL → segments → manifest → checkpoint
//!
//! Nothing above survives a process kill by itself; the durability layer
//! arranges that recovery rebuilds the *identical* physical state. The WAL
//! records and the segment files are binary; their layouts and envelopes
//! are stated once, in [`codec`], which also lays out the wire protocol's
//! frames:
//!
//! 1. **WAL** ([`wal`]): every DML statement appends its logical operations
//!    ([`TableOp`] batches, plus [`wal::WalRecord::Compact`] markers) to a
//!    checksummed log *while holding the database write lock* — record
//!    order equals apply order — and is acknowledged only after a batched
//!    group-commit fsync ([`wal::Wal::commit`]) that runs off the lock.
//! 2. **Segments** ([`persist`]): a checkpoint pins every table's head
//!    [`ColumnTable::view_at`] — the same O(width) `Arc`-shared view an
//!    MVCC read pins — and serializes it, off the lock, to per-table
//!    segment files (`<table>.v<N>.seg`, CRC-trailed). The row store is
//!    *not* persisted: it is derivable — tuples decode from the column
//!    state, indexes rebuild from the catalog — and recovery does exactly
//!    that.
//! 3. **Manifest** (`manifest.json`): the catalog, statistics, config and
//!    segment list publish atomically via write-temp + rename. The manifest
//!    names the WAL generation (`wal.<N>`) replay starts from.
//! 4. **Checkpoint** ([`crate::engine::HtapSystem::checkpoint`]): rotates
//!    the WAL onto a fresh generation file (cutting it with a
//!    [`wal::WalRecord::Checkpoint`]), writes segments + manifest for the
//!    rotation point, then deletes older generations and segments. A crash
//!    anywhere in that sequence is safe: until the rename lands, the *old*
//!    manifest + old WAL generation — whose replay continues seamlessly
//!    into the new generation file — still reconstruct everything.
//!
//! **Recovery** ([`crate::engine::HtapSystem::open`]) loads the manifest's
//! segments, rebuilds row tables/indexes/zones from them, then replays the
//! WAL generation chain, truncating any torn tail the checksums expose.
//! Because replay re-runs the same `apply_*`/`compact` entry points the
//! live system used, the recovered row store, column store, delta region
//! and statistics are byte-identical to the pre-crash committed state
//! (`tests/crash_recovery.rs` pins this against an oracle, across all
//! executors).
//!
//! # Compaction: one view, one build
//!
//! Every compaction reads one view and runs one build: the table's head
//! [`ColumnTable::view_at`], merged by `ColumnTable::compacted` (gather
//! the visible rows, re-encode, rebuild zones and blooms), from which the
//! row store's tuples, its indexes and the table statistics are decoded.
//! A synchronous `StoredTable::compact` builds and installs under the
//! write lock it already holds. In the background,
//! `StoredTable::begin_background_compact` pins the view in O(width)
//! under the lock, a worker thread runs the build *offline*, and the swap
//! installs the result under a brief lock. Writes arriving during the build
//! are captured in a window (and WAL-logged through a [`RidRemap`] into the
//! post-compaction rid space) and re-applied on top of the swapped state; a
//! synchronous compact racing the build bumps an epoch so the stale swap
//! aborts harmlessly. Writers therefore never stall for O(table) work — the
//! bench pins p99 write latency during a concurrent compaction.
//!
//! # Error handling: retry, then degrade — never lose an acked write
//!
//! Durable I/O distinguishes three failure classes:
//!
//! * **Transient** I/O errors (a flaky fsync, a hiccuping filesystem —
//!   simulated by [`durable_io::FailPoints::arm_errors`], which makes a
//!   site fail N times then heal). These are absorbed by a bounded
//!   [`durable_io::RetryPolicy`] (exponential backoff + deterministic
//!   jitter): the WAL retries only the *fsync* step — the record batch is
//!   written to the page cache once, and a failed flush keeps the pending
//!   buffer intact, so a retry re-flushes the same prefix-consistent bytes
//!   and the log never holds a torn or duplicated record. Segment seals and
//!   the manifest swap retry by idempotent re-creation of the whole file.
//! * **Non-retryable** errors — ENOSPC-class I/O errors, simulated crashes
//!   ([`DurabilityError::Crashed`]), checksum corruption
//!   ([`DurabilityError::Corrupt`]). Retrying cannot help; they fail
//!   immediately ([`durable_io::RetryPolicy::is_retryable`]).
//! * **Exhausted** retries, which collapse into the non-retryable outcome.
//!
//! Either terminal outcome trips the engine's **read-only degraded mode**
//! ([`crate::engine::HtapError::ReadOnly`]): the WAL latches dead with the
//! root cause, in-flight followers are woken with that cause, and every
//! subsequent write statement fails fast — while reads and MVCC snapshots,
//! which never touch durable I/O, keep serving lock-free. No acked write is
//! ever lost: a statement is acknowledged only after its commit fsync, so
//! everything before the fault is durable and everything after it errored
//! structurally. [`crate::engine::HtapSystem::resume_writes`] revives the
//! WAL, probes it with an appended + committed no-op record, and lifts the
//! degradation only if the probe round-trips.
//!
//! **Poison recovery**: locks guarding this state are acquired through
//! recover-don't-propagate helpers (`durable_io::lock_unpoisoned` and the
//! engine's database-lock twins). This is safe, not optimistic: readers
//! only ever observe committed copy-on-write state (a panicking writer
//! cannot expose a torn row or column), and the database write lock —
//! where a mid-statement panic *could* mean a statement applied but never
//! logged — additionally trips degraded mode on first recovery, forcing an
//! explicit `resume_writes()` decision before any further write.

pub mod col_store;
pub mod codec;
pub mod durable_io;
pub mod index;
pub mod persist;
pub mod row_store;
pub mod wal;
pub mod zone;

pub use col_store::{ColRef, ColumnData, ColumnTable, DictColumn, RleRuns};
pub use durable_io::{crc32, DurabilityError, DurableFile, FailPoints};
pub use index::{BTreeIndex, KeyVal};
pub use row_store::RowTable;
pub use wal::{Wal, WalRecord, WalStats};
pub use zone::{BlockZone, PruneOutcome, ScanPruner, DEFAULT_BLOCK_ROWS};

use crate::stats::TableStats;
use crate::tpch::GeneratedTable;
use col_store::CompactedCols;
use qpe_sql::catalog::TableDef;
use qpe_sql::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-table freshness snapshot: how far the column store's delta region has
/// drifted from its base since the last compaction. Surfaced to the system
/// facade and the explainer's evidence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableFreshness {
    /// Table name.
    pub table: String,
    /// Monotonic write-version stamp (bumps on every write and compaction).
    pub version: u64,
    /// Rows in the immutable base segment.
    pub base_rows: usize,
    /// Rows buffered in the delta region since the last compaction
    /// (tombstoned delta rows included — this is the physical backlog).
    pub delta_rows: usize,
    /// Delta rows still live (not deleted again since insertion).
    pub live_delta_rows: usize,
    /// Rids tombstoned since the last compaction.
    pub deleted_rows: usize,
}

impl TableFreshness {
    /// Fraction of *live* data residing in the delta region (0.0 = fully
    /// compacted). A row inserted and then deleted contributes nothing.
    pub fn delta_fraction(&self) -> f64 {
        let live = (self.base_rows + self.delta_rows).saturating_sub(self.deleted_rows);
        if live == 0 {
            0.0
        } else {
            self.live_delta_rows.min(live) as f64 / live as f64
        }
    }
}

/// One statement's worth of logical operations against one table — the unit
/// the WAL logs and replay re-applies. Batched (a multi-row INSERT is one
/// op) so that replay triggers lazy stats refreshes at the *same* points of
/// the timeline the live run did.
#[derive(Debug, Clone, PartialEq)]
pub enum TableOp {
    /// Validated full-width rows appended by one statement.
    Insert {
        /// The rows, in insertion order.
        rows: Vec<Vec<Value>>,
    },
    /// Rids tombstoned by one statement (only *effective* deletes — rids
    /// that were live — are recorded, so replay flips exactly the same
    /// bits).
    Delete {
        /// The tombstoned rids.
        rids: Vec<u32>,
    },
    /// Relocating updates applied by one statement.
    Update {
        /// `(old rid, full new row)` pairs, in application order.
        changes: Vec<(u32, Vec<Value>)>,
    },
}

impl TableOp {
    /// Rewrites every rid through `remap` (used when an op recorded against
    /// the pre-compaction rid space must be logged/applied in the
    /// post-compaction space).
    pub(crate) fn translate(&self, remap: &RidRemap) -> TableOp {
        match self {
            TableOp::Insert { rows } => TableOp::Insert { rows: rows.clone() },
            TableOp::Delete { rids } => TableOp::Delete {
                rids: rids.iter().map(|&r| remap.translate_rid(r)).collect(),
            },
            TableOp::Update { changes } => TableOp::Update {
                changes: changes
                    .iter()
                    .map(|(r, row)| (remap.translate_rid(*r), row.clone()))
                    .collect(),
            },
        }
    }
}

/// Rid translation from a pre-compaction physical space into the space the
/// compaction produces: live pre-snapshot rids pack down to `0..n_live` in
/// ascending order, and rids appended after the snapshot follow
/// contiguously. Both the WAL (logging during a background build) and the
/// swap (re-applying the captured window) translate through the same map,
/// which is why replayed logs and the live timeline land on identical
/// physical states.
#[derive(Debug)]
pub struct RidRemap {
    /// Pre-snapshot physical rid → packed rid (`u32::MAX` = dead at
    /// snapshot; such rids can never appear in a captured op).
    map: Vec<u32>,
    /// Physical length at snapshot time.
    snap_phys: u32,
    /// Live rows at snapshot time (= first post-snapshot packed rid).
    n_live: u32,
}

impl RidRemap {
    /// Builds the packing map from a snapshot's tombstone bitmap.
    pub(crate) fn from_deleted(deleted: &[bool]) -> RidRemap {
        let mut map = Vec::with_capacity(deleted.len());
        let mut next = 0u32;
        for &dead in deleted {
            if dead {
                map.push(u32::MAX);
            } else {
                map.push(next);
                next += 1;
            }
        }
        RidRemap { map, snap_phys: deleted.len() as u32, n_live: next }
    }

    /// Translates one rid. Must only be fed rids that are live post-snapshot
    /// (captured ops guarantee this).
    pub(crate) fn translate_rid(&self, rid: u32) -> u32 {
        if rid < self.snap_phys {
            let packed = self.map[rid as usize];
            debug_assert_ne!(packed, u32::MAX, "op touched a rid dead at snapshot");
            packed
        } else {
            self.n_live + (rid - self.snap_phys)
        }
    }
}

/// Background-compaction bookkeeping of one table.
#[derive(Debug, Default)]
struct BgState {
    /// Bumps on every compaction (sync or background swap); a build whose
    /// snapshot epoch is stale aborts its swap.
    epoch: u64,
    /// A background build is running for this table.
    in_flight: bool,
    /// Writes landing while the build runs, while it is still current.
    window: Option<Window>,
}

/// The writes a background build must re-apply on top of its swap.
#[derive(Debug)]
struct Window {
    /// Ops applied since the snapshot (old rid space).
    ops: Vec<TableOp>,
    /// Translation from the snapshot's rid space into the build's.
    remap: Arc<RidRemap>,
    /// WAL records written during the build translate through `remap`, so
    /// the log stays consistent with the `Compact` record at the snapshot
    /// point.
    durable: bool,
}

/// Both physical representations of one logical table.
#[derive(Debug)]
pub struct StoredTable {
    /// Row-oriented copy with indexes (TP engine).
    pub rows: RowTable,
    /// Column-oriented copy with the delta region (AP engine).
    pub cols: ColumnTable,
    /// Background-compaction state.
    bg: BgState,
    /// Physical-design epoch: bumps whenever this table's plan-relevant
    /// physical design changes (index creation, encoding policy, zone block
    /// size, bloom toggles). The plan cache records the epochs a statement
    /// was planned under and revalidates on hit, so a design change on one
    /// table no longer evicts every other table's cached plans.
    design_epoch: u64,
}

impl StoredTable {
    /// Builds both representations from generated column-major data.
    pub fn load(def: &TableDef, data: &GeneratedTable) -> Self {
        let cols = ColumnTable::from_columns(&def.name, &data.columns);
        let rows = RowTable::from_columns(def, &data.columns);
        StoredTable { rows, cols, bg: BgState::default(), design_epoch: 0 }
    }

    /// A read-only AP view of this table pinned at the current epoch: the
    /// column store is [`ColumnTable::view_at`] the head version (O(width)
    /// `Arc` shares), the row store is an empty shell — AP plans never
    /// touch rows or indexes, and snapshot reads are AP-only.
    pub(crate) fn ap_view(&self, def: &TableDef) -> StoredTable {
        let cols = self
            .cols
            .view_at(self.cols.version())
            .expect("head epoch is always pinnable");
        StoredTable {
            rows: RowTable::from_physical(def, Vec::new(), Vec::new(), &[]),
            cols,
            bg: BgState::default(),
            design_epoch: self.design_epoch,
        }
    }

    /// Current physical-design epoch (see the field docs).
    pub fn design_epoch(&self) -> u64 {
        self.design_epoch
    }

    /// Marks a plan-relevant physical-design change.
    pub(crate) fn bump_design_epoch(&mut self) {
        self.design_epoch += 1;
    }

    /// Rebuilds a table from a recovered column-store segment: the row
    /// store decodes from the same physical slots (tombstoned slots keep
    /// their last tuple, like the live table) and indexes rebuild over live
    /// rows per the catalog.
    pub(crate) fn from_recovered(def: &TableDef, cols: ColumnTable) -> Self {
        let phys = cols.physical_len();
        let width = cols.width();
        let mut rows = Vec::with_capacity(phys);
        let mut deleted = Vec::with_capacity(phys);
        for rid in 0..phys {
            rows.push((0..width).map(|ci| cols.value(ci, rid)).collect());
            deleted.push(cols.is_deleted(rid));
        }
        let indexed: Vec<usize> = def
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| def.has_index(&c.name))
            .map(|(ci, _)| ci)
            .collect();
        let rows = RowTable::from_physical(def, rows, deleted, &indexed);
        StoredTable { rows, cols, bg: BgState::default(), design_epoch: 0 }
    }

    /// Live row count (identical in both representations).
    pub fn row_count(&self) -> usize {
        debug_assert_eq!(self.rows.row_count(), self.cols.row_count());
        self.rows.row_count()
    }

    /// Applies one insert to both copies. Returns the shared new rid.
    pub fn insert(&mut self, row: Vec<Value>) -> u32 {
        let rid_cols = self.cols.insert(&row);
        let rid_rows = self.rows.insert(row);
        debug_assert_eq!(rid_rows, rid_cols);
        rid_rows
    }

    /// Applies one delete to both copies. Returns whether the rid was live.
    pub fn delete(&mut self, rid: u32) -> bool {
        let was_live = self.rows.delete(rid);
        if was_live {
            self.cols.delete(rid);
        }
        was_live
    }

    /// Applies one update to both copies. Returns the row's shared new rid.
    pub fn update(&mut self, rid: u32, new_row: Vec<Value>) -> u32 {
        let rid_cols = self.cols.update(rid, &new_row);
        let rid_rows = self.rows.update(rid, new_row);
        debug_assert_eq!(rid_rows, rid_cols);
        rid_rows
    }

    /// Compacts both copies together, returning the table's recomputed
    /// statistics: builds from the head view and installs under the
    /// caller's lock — the background path's build and swap, run in one
    /// step. The column store merges its delta into the base, the row store
    /// drops tombstones, and the shared rid space re-packs to
    /// `0..row_count()`. A racing background build (if any) is
    /// invalidated: its snapshot epoch goes stale, so its swap aborts.
    pub(crate) fn compact(&mut self) -> TableStats {
        let built = self.compact_snapshot().build();
        self.install(built).expect("a build of the head view is current")
    }

    /// What a compaction build reads, in O(width): the head
    /// [`ColumnTable::view_at`] — the same view MVCC reads pin — and the
    /// indexed columns.
    fn compact_snapshot(&self) -> CompactSnapshot {
        CompactSnapshot {
            cols: self
                .cols
                .view_at(self.cols.version())
                .expect("head epoch is always pinnable"),
            indexed: self.rows.indexed_columns(),
            epoch: self.bg.epoch,
        }
    }

    /// Swaps a build in unless a compaction since its snapshot made it
    /// stale. Either way no window survives: the rid spaces reconverge.
    fn install(&mut self, built: CompactedTable) -> Option<TableStats> {
        if built.epoch != self.bg.epoch {
            return None;
        }
        self.bg.epoch += 1;
        self.bg.window = None;
        self.cols.install_compacted(built.cols);
        self.rows.install_compacted(built.rows, built.indexes);
        debug_assert_eq!(self.rows.physical_len(), self.cols.physical_len());
        Some(built.stats)
    }

    /// True when DML against this table must be recorded into a
    /// background-build window.
    pub(crate) fn captures_window(&self) -> bool {
        self.bg.window.is_some()
    }

    /// Records one applied op into the build window, if one is open.
    pub(crate) fn record_op(&mut self, op: &TableOp) {
        if let Some(w) = &mut self.bg.window {
            w.ops.push(op.clone());
        }
    }

    /// Rid translation WAL records must apply while a durable background
    /// build is in flight.
    pub(crate) fn wal_remap(&self) -> Option<&Arc<RidRemap>> {
        self.bg.window.as_ref().filter(|w| w.durable).map(|w| &w.remap)
    }

    /// True when the table has compaction debt (delta rows or tombstones).
    pub fn is_dirty(&self) -> bool {
        !self.cols.is_clean() || self.rows.has_deletions()
    }

    /// Compaction debt in rows: delta-region rows plus tombstoned slots.
    /// The background compactor triggers on this.
    pub fn compaction_debt(&self) -> usize {
        self.cols.delta_len() + (self.rows.physical_len() - self.rows.row_count())
    }

    /// Opens a background compaction: pins the head view in O(width),
    /// starts window capture, and (when `durable`) arms the WAL rid
    /// translation. Returns `None` when the table is clean or a build is
    /// already in flight.
    pub(crate) fn begin_background_compact(&mut self, durable: bool) -> Option<CompactSnapshot> {
        if self.bg.in_flight || !self.is_dirty() {
            return None;
        }
        let snap = self.compact_snapshot();
        let dead: Vec<bool> = (0..snap.cols.physical_len())
            .map(|rid| snap.cols.is_deleted(rid))
            .collect();
        self.bg.in_flight = true;
        self.bg.window = Some(Window {
            ops: Vec::new(),
            remap: Arc::new(RidRemap::from_deleted(&dead)),
            durable,
        });
        Some(snap)
    }

    /// Rolls back [`StoredTable::begin_background_compact`] before anything
    /// escaped the lock (e.g. the WAL append of the `Compact` marker
    /// failed): no window was exposed, nothing to translate.
    pub(crate) fn abort_background_compact(&mut self) {
        self.bg.in_flight = false;
        self.bg.window = None;
    }

    /// Swaps in an offline-built compaction. Returns the captured window
    /// ops (old rid space) + the offline stats + the remap to re-apply the
    /// ops with, or `None` when a synchronous compact invalidated the build.
    pub(crate) fn finish_background_compact(
        &mut self,
        built: CompactedTable,
    ) -> Option<(Vec<TableOp>, TableStats, Arc<RidRemap>)> {
        self.bg.in_flight = false;
        let window = self.bg.window.take();
        let stats = self.install(built)?;
        let window = window.expect("a current build keeps its window");
        Some((window.ops, stats, window.remap))
    }

    /// Current freshness snapshot of the column-store side.
    pub fn freshness(&self) -> TableFreshness {
        TableFreshness {
            table: self.cols.name().to_string(),
            version: self.cols.version(),
            base_rows: self.cols.physical_len() - self.cols.delta_len(),
            delta_rows: self.cols.delta_len(),
            live_delta_rows: self.cols.live_delta_len(),
            deleted_rows: self.cols.deleted_len(),
        }
    }
}

/// Everything a compaction build needs, captured under the write lock in
/// O(width) time. [`CompactSnapshot::build`] may run off-lock.
#[derive(Debug)]
pub(crate) struct CompactSnapshot {
    /// The head view the build merges.
    cols: ColumnTable,
    /// Columns the rebuilt row store indexes.
    indexed: Vec<usize>,
    epoch: u64,
}

impl CompactSnapshot {
    /// The expensive part: merge the column store
    /// ([`ColumnTable::compacted`]), decode tuples for the row store,
    /// rebuild indexes, and recompute table statistics.
    pub(crate) fn build(self) -> CompactedTable {
        let cols = self.cols.compacted();
        let n_live = cols.n_live;
        // Decode columns once; rows, indexes and stats all derive from it.
        let decoded: Vec<Vec<Value>> = cols
            .base
            .iter()
            .map(|c| (0..n_live).map(|i| c.get(i)).collect())
            .collect();
        let rows: Vec<Vec<Value>> = (0..n_live)
            .map(|r| decoded.iter().map(|col| col[r].clone()).collect())
            .collect();
        let indexes = self
            .indexed
            .iter()
            .map(|&ci| (ci, BTreeIndex::build(&decoded[ci])))
            .collect();
        let stats = TableStats::collect(self.cols.name(), &decoded);
        CompactedTable { cols, rows, indexes, stats, epoch: self.epoch }
    }
}

/// A built compaction, ready for [`StoredTable::finish_background_compact`]
/// or a synchronous [`StoredTable::compact`]'s install.
#[derive(Debug)]
pub(crate) struct CompactedTable {
    cols: CompactedCols,
    rows: Vec<Vec<Value>>,
    indexes: HashMap<usize, BTreeIndex>,
    stats: TableStats,
    epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::catalog::{ColumnDef, DataType};
    use qpe_sql::value::Value;

    fn tiny_table() -> (TableDef, GeneratedTable) {
        let def = TableDef {
            name: "t".into(),
            columns: vec![
                ColumnDef { name: "k".into(), data_type: DataType::Int, ndv: 4 },
                ColumnDef { name: "s".into(), data_type: DataType::Str, ndv: 2 },
            ],
            row_count: 4,
            indexed_columns: vec!["s".into()],
            primary_key: "k".into(),
        };
        let data = GeneratedTable {
            name: "t".into(),
            columns: vec![
                vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
                vec![
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                ],
            ],
        };
        (def, data)
    }

    #[test]
    fn both_representations_agree() {
        let (def, data) = tiny_table();
        let st = StoredTable::load(&def, &data);
        assert_eq!(st.row_count(), 4);
        for r in 0..4 {
            for c in 0..2 {
                assert_eq!(st.rows.row(r)[c], st.cols.value(c, r));
            }
        }
    }

    /// The load-bearing invariant of the mutable design: after any write
    /// sequence, both copies hold the same live rows at the same rids.
    fn assert_aligned(st: &StoredTable) {
        assert_eq!(st.rows.physical_len(), st.cols.physical_len());
        assert_eq!(st.rows.row_count(), st.cols.row_count());
        for rid in 0..st.rows.physical_len() {
            assert_eq!(st.rows.is_deleted(rid), st.cols.is_deleted(rid));
            if !st.rows.is_deleted(rid) {
                for c in 0..st.rows.width() {
                    assert_eq!(st.rows.row(rid)[c], st.cols.value(c, rid));
                }
            }
        }
    }

    #[test]
    fn writes_keep_copies_rid_aligned() {
        let (def, data) = tiny_table();
        let mut st = StoredTable::load(&def, &data);
        let rid = st.insert(vec![Value::Int(5), Value::Str("c".into())]);
        assert_eq!(rid, 4);
        assert_aligned(&st);
        assert!(st.delete(1));
        assert!(!st.delete(1));
        assert_aligned(&st);
        let new_rid = st.update(0, vec![Value::Int(10), Value::Str("a2".into())]);
        assert_eq!(new_rid, 5);
        assert_aligned(&st);
        assert_eq!(st.row_count(), 4);
        // indexes track the writes
        assert_eq!(st.rows.index_on(0).unwrap().lookup(&Value::Int(10)), &[5]);
        assert!(st.rows.index_on(0).unwrap().lookup(&Value::Int(1)).is_empty());
    }

    #[test]
    fn compact_realigns_both_sides() {
        let (def, data) = tiny_table();
        let mut st = StoredTable::load(&def, &data);
        st.insert(vec![Value::Int(5), Value::Str("c".into())]);
        st.delete(2);
        st.update(0, vec![Value::Int(11), Value::Str("z".into())]);
        let fresh = st.freshness();
        assert_eq!(fresh.delta_rows, 2);
        assert_eq!(fresh.deleted_rows, 2);
        assert!(fresh.delta_fraction() > 0.0);
        st.compact();
        assert_aligned(&st);
        assert_eq!(st.row_count(), 4);
        let fresh = st.freshness();
        assert_eq!(fresh.delta_rows, 0);
        assert_eq!(fresh.deleted_rows, 0);
        assert_eq!(fresh.delta_fraction(), 0.0);
        // index rids re-packed with the shared rid space
        assert_eq!(st.rows.index_on(0).unwrap().lookup(&Value::Int(11)), &[3]);
    }

    /// The row side of the one compaction: tombstones drop, rids re-pack,
    /// and every index rebuilds over the new rid space.
    #[test]
    fn compact_repacks_rids_and_rebuilds_indexes() {
        let (def, data) = tiny_table();
        let mut st = StoredTable::load(&def, &data);
        st.delete(0);
        st.insert(vec![Value::Int(40), Value::Str("w".into())]);
        st.compact();
        assert_eq!(st.rows.row_count(), 4);
        assert_eq!(st.rows.physical_len(), 4);
        assert!(!st.rows.has_deletions());
        assert_eq!(st.rows.index_on(0).unwrap().lookup(&Value::Int(2)), &[0]);
        assert_eq!(st.rows.index_on(0).unwrap().lookup(&Value::Int(40)), &[3]);
        assert_eq!(st.rows.index_on(1).unwrap().lookup(&Value::Str("w".into())), &[3]);
    }

    #[test]
    fn rid_remap_packs_live_and_extends_tail() {
        let remap = RidRemap::from_deleted(&[false, true, false, true, false]);
        assert_eq!(remap.translate_rid(0), 0);
        assert_eq!(remap.translate_rid(2), 1);
        assert_eq!(remap.translate_rid(4), 2);
        // Post-snapshot appends continue contiguously after the packed live.
        assert_eq!(remap.translate_rid(5), 3);
        assert_eq!(remap.translate_rid(7), 5);
    }

    /// Applies one logged op the way replay does, row by row.
    fn apply(st: &mut StoredTable, op: TableOp) {
        match op {
            TableOp::Insert { rows } => rows.into_iter().for_each(|r| _ = st.insert(r)),
            TableOp::Delete { rids } => rids.into_iter().for_each(|r| _ = st.delete(r)),
            TableOp::Update { changes } => {
                changes.into_iter().for_each(|(r, row)| _ = st.update(r, row))
            }
        }
    }

    /// Background compaction must land on the exact state a synchronous
    /// compaction (then the same ops) would produce — including when writes
    /// arrive between snapshot and swap.
    #[test]
    fn background_build_with_window_matches_sync_compact() {
        let (def, data) = tiny_table();
        // Build two identical tables.
        let mut bg = StoredTable::load(&def, &data);
        let mut sync = StoredTable::load(&def, &data);
        for st in [&mut bg, &mut sync] {
            st.insert(vec![Value::Int(5), Value::Str("c".into())]);
            st.delete(1);
        }
        // bg: snapshot, then apply window ops *before* the swap.
        let snap = bg.begin_background_compact(false).expect("dirty table");
        assert!(bg.captures_window());
        let window_ops = [
            TableOp::Insert { rows: vec![vec![Value::Int(6), Value::Str("d".into())]] },
            TableOp::Delete { rids: vec![0] },
            TableOp::Update { changes: vec![(4, vec![Value::Int(50), Value::Str("e".into())])] },
        ];
        // Apply + record, the way the engine's apply_* entry points do.
        bg.insert(vec![Value::Int(6), Value::Str("d".into())]);
        bg.delete(0);
        bg.update(4, vec![Value::Int(50), Value::Str("e".into())]);
        for op in &window_ops {
            bg.record_op(op);
        }
        // sync: compact at the snapshot point, then the same ops replayed
        // through the remap (the swap path below does exactly this).
        sync.compact();
        let remap = Arc::clone(&bg.bg.window.as_ref().expect("window open").remap);
        for op in &window_ops {
            apply(&mut sync, op.translate(&remap));
        }
        // Swap the offline build in and re-apply the captured window.
        let built = snap.build();
        let (window, _stats, remap2) = bg.finish_background_compact(built).expect("fresh epoch");
        assert_eq!(window.len(), 3);
        for op in &window {
            apply(&mut bg, op.translate(&remap2));
        }
        assert_aligned(&bg);
        assert_aligned(&sync);
        assert_eq!(bg.rows.physical_len(), sync.rows.physical_len());
        for rid in 0..bg.rows.physical_len() {
            assert_eq!(bg.rows.is_deleted(rid), sync.rows.is_deleted(rid));
            if !bg.rows.is_deleted(rid) {
                assert_eq!(bg.rows.row(rid), sync.rows.row(rid));
            }
        }
        assert_eq!(bg.cols.version(), sync.cols.version());
    }

    #[test]
    fn stale_background_build_aborts_after_sync_compact() {
        let (def, data) = tiny_table();
        let mut st = StoredTable::load(&def, &data);
        st.delete(0);
        let snap = st.begin_background_compact(true).expect("dirty");
        assert!(st.wal_remap().is_some());
        // A synchronous compact intervenes: epoch bumps, window clears.
        st.compact();
        assert!(st.wal_remap().is_none());
        assert!(!st.captures_window());
        let built = snap.build();
        assert!(st.finish_background_compact(built).is_none(), "stale build must abort");
        // The table is usable and a new build can start after more writes.
        st.insert(vec![Value::Int(9), Value::Str("z".into())]);
        assert!(st.begin_background_compact(false).is_some());
    }
}
