//! Zone maps and the scan pruner.
//!
//! The column store's base segment is logically divided into fixed-size
//! **blocks** (the storage stays physically contiguous — blocks are metadata
//! views, like pages inside one Parquet column chunk). Each block carries a
//! small stats header ([`BlockZone`]): per-column min/max (computed over
//! non-NULL values with [`Value::total_cmp`], the same total order the
//! executors compare with), a NULL count, and a constant-block hint. Headers
//! are built when a table loads and rebuilt by `compact()` — never on the
//! write path, which is what keeps them cheap and also why they are only an
//! *over-approximation* after deletes (a tombstone can shrink the true range;
//! the stale header stays conservative, so pruning remains safe).
//!
//! [`ScanPruner`] consumes the filter conjunction a plan pushed into its
//! scan node and refutes whole blocks against these headers: a block whose
//! min/max proves no row can satisfy some conjunct is skipped without
//! touching a single cell. Two safety rules are load-bearing:
//!
//! * **delta rows are never pruned** — the delta region has no zone maps
//!   (it changes on every write), so buffered inserts/updates are always
//!   scanned and DML visibility is preserved;
//! * **refutation mirrors executor semantics exactly** — range checks use
//!   the same `total_cmp` the filter kernels use, equality additionally
//!   admits `sql_eq` boundary hits (`-0.0` vs `+0.0`), and NULL-bearing
//!   literals never prune (comparisons with NULL are false row-by-row, so
//!   the ordinary filter already rejects them).
//!
//! Pruning therefore never changes results — only which blocks are read —
//! and the savings surface in `WorkCounters` (`blocks_pruned`,
//! `cells_scanned`) where the latency model and router features see them.

use super::col_store::{ColumnData, ColumnTable};
use qpe_sql::ast::BinaryOp;
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::cmp::Ordering;

// ---------------------------------------------------------------------------
// Per-block bloom filters
// ---------------------------------------------------------------------------

/// Bloom bits for blocks of up to 512 rows (512 bytes per block/column) —
/// the floor of the adaptive sizing below.
pub const BLOOM_BITS: usize = 4096;
const BLOOM_PROBES: u32 = 3;

/// Filter size for a block of `block_rows` rows: ~8 bits per row, rounded
/// to a power of two, never below [`BLOOM_BITS`]. [`default_block_rows`]
/// grows blocks to 4096 rows on big segments; a fixed-size filter would
/// saturate there (every probe a false positive, so the pruner keeps — and
/// pays sel-vector assembly for — every block). Scaling with the block
/// keeps the fill factor ≤3/8 and the false-positive rate ≈5% at any size.
fn bloom_bits_for(block_rows: usize) -> usize {
    block_rows.saturating_mul(8).next_power_of_two().max(BLOOM_BITS)
}

/// A small bloom filter over one block of one column (sized to the block by
/// `bloom_bits_for`), built at
/// load/compact beside the [`BlockZone`] headers (and, like them, never
/// persisted — recomputed deterministically from the base). It answers
/// "might a row equal to this value live in the block?" for `=`/`IN`
/// pruning on high-cardinality unclustered columns, where min/max always
/// straddles the literal. A false positive only costs reading the block; a
/// false negative is forbidden — every row value is inserted at build time,
/// and probing is restricted to literal types whose `sql_eq` matches are
/// guaranteed hash-identical (see `bloom_probe_hash`).
#[derive(Debug, Clone)]
pub struct BlockBloom {
    words: Box<[u64]>,
    /// `bits - 1`; the bit count is a power of two, so masking replaces `%`.
    mask: usize,
}

impl BlockBloom {
    fn new(block_rows: usize) -> Self {
        let bits = bloom_bits_for(block_rows);
        BlockBloom { words: vec![0u64; bits / 64].into_boxed_slice(), mask: bits - 1 }
    }

    /// Sets the `BLOOM_PROBES` bits derived from `h` (double hashing with an
    /// odd stride, so probes stay distinct without rehashing).
    #[inline]
    fn insert(&mut self, h: u64) {
        let stride = (h >> 32) | 1;
        let mut g = h;
        for _ in 0..BLOOM_PROBES {
            let bit = (g as usize) & self.mask;
            self.words[bit / 64] |= 1 << (bit % 64);
            g = g.wrapping_add(stride);
        }
    }

    /// True unless some probe bit is clear (which proves absence).
    #[inline]
    pub fn may_contain(&self, h: u64) -> bool {
        let stride = (h >> 32) | 1;
        let mut g = h;
        for _ in 0..BLOOM_PROBES {
            let bit = (g as usize) & self.mask;
            if self.words[bit / 64] & (1 << (bit % 64)) == 0 {
                return false;
            }
            g = g.wrapping_add(stride);
        }
        true
    }
}

/// splitmix64 finalizer — the shared scalar mixer under every bloom hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Integer-domain bloom hash. Int and Date rows share this domain because
/// `sql_eq` equates them numerically (`Date(5) = 5` is true), so an Int
/// literal probing a date bloom must hash identically to the day it matches.
#[inline]
fn bloom_hash_i64(x: i64) -> u64 {
    mix64(x as u64)
}

/// String-domain bloom hash (FNV-1a over the bytes, then mixed).
fn bloom_hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// Hash of a predicate literal for bloom probing, or `None` when the literal
/// must not probe at all. Float literals are excluded: `sql_eq` compares
/// them to int rows through `as_float`, and above 2^53 several distinct i64
/// rows round to one float — a hash probe would refute a block that holds a
/// genuine match. NULL literals never prune anywhere. (Cross-domain probes
/// — a Str literal against an int bloom — are safe: `sql_eq` is false for
/// every such row, so refuting the block cannot drop a match.)
pub(crate) fn bloom_probe_hash(lit: &Value) -> Option<u64> {
    match lit {
        Value::Int(x) => Some(bloom_hash_i64(*x)),
        Value::Date(d) => Some(bloom_hash_i64(*d as i64)),
        Value::Str(s) => Some(bloom_hash_str(s)),
        _ => None,
    }
}

/// Builds the per-block bloom filters for one column, or `None` for column
/// types equality blooms do not cover (Float rows because of the rounding
/// edge above, Nullable/Mixed to keep the build path simple — those columns
/// still prune through their zone headers).
pub(crate) fn column_blooms(col: &ColumnData, block_rows: usize) -> Option<Vec<BlockBloom>> {
    let n = col.len();
    let step = block_rows.max(1);
    let n_blocks = n.div_ceil(step);
    let mut out = Vec::with_capacity(n_blocks);
    // Dict values hash once per distinct string, not once per row.
    let dict_hashes: Option<Vec<u64>> = match col {
        ColumnData::Dict(d) => Some(d.values.iter().map(|s| bloom_hash_str(s)).collect()),
        _ => None,
    };
    for b in 0..n_blocks {
        let range = b * step..((b + 1) * step).min(n);
        let mut bloom = BlockBloom::new(step);
        match col {
            ColumnData::Int(v) => {
                for &x in &v[range] {
                    bloom.insert(bloom_hash_i64(x));
                }
            }
            ColumnData::Date(v) => {
                for &x in &v[range] {
                    bloom.insert(bloom_hash_i64(x as i64));
                }
            }
            ColumnData::Str(v) => {
                for s in &v[range] {
                    bloom.insert(bloom_hash_str(s));
                }
            }
            ColumnData::Dict(d) => {
                let hashes = dict_hashes.as_ref().unwrap();
                for i in range {
                    bloom.insert(hashes[d.codes[i] as usize]);
                }
            }
            ColumnData::RleInt(r) => {
                for i in range {
                    bloom.insert(bloom_hash_i64(r.get(i)));
                }
            }
            ColumnData::RleDate(r) => {
                for i in range {
                    bloom.insert(bloom_hash_i64(r.get(i) as i64));
                }
            }
            ColumnData::ForInt(f) => {
                for i in range {
                    bloom.insert(bloom_hash_i64(f.get(i)));
                }
            }
            ColumnData::Float(_) | ColumnData::Nullable { .. } | ColumnData::Mixed(_) => {
                return None;
            }
        }
        out.push(bloom);
    }
    Some(out)
}

/// Smallest zone-map block (tiny tables still get real skipping).
pub const MIN_BLOCK_ROWS: usize = 16;
/// Largest zone-map block (production-style page size).
pub const MAX_BLOCK_ROWS: usize = 4096;
/// Default block size for mid-size tables; kept as the name tests and docs
/// reference, though [`default_block_rows`] adapts per table.
pub const DEFAULT_BLOCK_ROWS: usize = 64;

/// Adaptive block size: target ~64 blocks per base segment (rounded to a
/// power of two, clamped to `[MIN_BLOCK_ROWS, MAX_BLOCK_ROWS]`). Laptop-scale
/// tables get fine blocks so a 300-row bench table still prunes ~18/19 of
/// itself on a point predicate, while big segments keep headers cheap: the
/// per-scan header-check cost stays O(64) per column regardless of row
/// count. Header overhead is ~100 bytes per block/column.
pub fn default_block_rows(base_rows: usize) -> usize {
    (base_rows / 64)
        .next_power_of_two()
        .clamp(MIN_BLOCK_ROWS, MAX_BLOCK_ROWS)
}

/// Per-block, per-column stats header.
#[derive(Debug, Clone)]
pub struct BlockZone {
    /// Smallest non-NULL value in the block (by [`Value::total_cmp`]).
    pub min: Option<Value>,
    /// Largest non-NULL value in the block.
    pub max: Option<Value>,
    /// NULLs in the block.
    pub null_count: u32,
    /// Rows covered by the block.
    pub rows: u32,
}

impl BlockZone {
    fn empty() -> Self {
        BlockZone { min: None, max: None, null_count: 0, rows: 0 }
    }

    /// Distinct-ness hint: every row holds the same non-NULL value. Lets the
    /// pruner refute `<>` conjuncts and the encoder spot RLE-friendly data.
    pub fn is_constant(&self) -> bool {
        self.null_count == 0
            && match (&self.min, &self.max) {
                (Some(a), Some(b)) => a.total_cmp(b) == Ordering::Equal,
                _ => false,
            }
    }
}

/// Builds the zone headers for one column, one entry per `block_rows` rows.
/// Typed columns track min/max without per-row `Value` cloning; only the two
/// winners per block materialize as `Value`s.
pub(crate) fn column_zones(col: &ColumnData, block_rows: usize) -> Vec<BlockZone> {
    let n = col.len();
    let step = block_rows.max(1);
    let n_blocks = n.div_ceil(step);
    let mut out = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let range = b * step..((b + 1) * step).min(n);
        out.push(block_zone(col, range));
    }
    out
}

fn block_zone(col: &ColumnData, range: std::ops::Range<usize>) -> BlockZone {
    let rows = range.len() as u32;
    // Copy-free scans for the typed representations; the `Value`-based
    // fallback handles Nullable/Mixed (rare in base segments).
    macro_rules! numeric_zone {
        ($v:expr, $wrap:expr, $cmp:expr) => {{
            let mut min = None;
            let mut max = None;
            for x in &$v[range] {
                min = Some(match min {
                    None => *x,
                    Some(m) => {
                        if $cmp(x, &m) == Ordering::Less {
                            *x
                        } else {
                            m
                        }
                    }
                });
                max = Some(match max {
                    None => *x,
                    Some(m) => {
                        if $cmp(x, &m) == Ordering::Greater {
                            *x
                        } else {
                            m
                        }
                    }
                });
            }
            BlockZone { min: min.map($wrap), max: max.map($wrap), null_count: 0, rows }
        }};
    }
    match col {
        ColumnData::Int(v) => numeric_zone!(v, Value::Int, |a: &i64, b: &i64| a.cmp(b)),
        ColumnData::Date(v) => numeric_zone!(v, Value::Date, |a: &i32, b: &i32| a.cmp(b)),
        ColumnData::Float(v) => {
            numeric_zone!(v, Value::Float, |a: &f64, b: &f64| a.total_cmp(b))
        }
        ColumnData::RleInt(r) => {
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            for i in range.clone() {
                let x = r.get(i);
                min = min.min(x);
                max = max.max(x);
            }
            if range.is_empty() {
                BlockZone::empty()
            } else {
                BlockZone {
                    min: Some(Value::Int(min)),
                    max: Some(Value::Int(max)),
                    null_count: 0,
                    rows,
                }
            }
        }
        ColumnData::RleDate(r) => {
            let mut min = i32::MAX;
            let mut max = i32::MIN;
            for i in range.clone() {
                let x = r.get(i);
                min = min.min(x);
                max = max.max(x);
            }
            if range.is_empty() {
                BlockZone::empty()
            } else {
                BlockZone {
                    min: Some(Value::Date(min)),
                    max: Some(Value::Date(max)),
                    null_count: 0,
                    rows,
                }
            }
        }
        ColumnData::ForInt(f) => {
            if range.is_empty() {
                return BlockZone::empty();
            }
            // When the zone block nests inside FOR blocks, the stored
            // per-FOR-block min/max bound it; exact only when aligned, so
            // fall back to scanning values otherwise.
            use super::col_store::FOR_BLOCK_ROWS;
            let (fb_lo, fb_hi) = (range.start / FOR_BLOCK_ROWS, (range.end - 1) / FOR_BLOCK_ROWS);
            let aligned = range.start.is_multiple_of(FOR_BLOCK_ROWS)
                && (range.end.is_multiple_of(FOR_BLOCK_ROWS) || range.end == f.len());
            let (min, max) = if aligned {
                let min = (fb_lo..=fb_hi).map(|b| f.refs[b]).min().unwrap();
                let max = (fb_lo..=fb_hi).map(|b| f.maxs[b]).max().unwrap();
                (min, max)
            } else {
                let mut min = i64::MAX;
                let mut max = i64::MIN;
                for i in range {
                    let x = f.get(i);
                    min = min.min(x);
                    max = max.max(x);
                }
                (min, max)
            };
            BlockZone {
                min: Some(Value::Int(min)),
                max: Some(Value::Int(max)),
                null_count: 0,
                rows,
            }
        }
        ColumnData::Str(v) => {
            let mut min: Option<&str> = None;
            let mut max: Option<&str> = None;
            for s in &v[range] {
                track_str(&mut min, &mut max, s);
            }
            BlockZone {
                min: min.map(|s| Value::Str(s.to_string())),
                max: max.map(|s| Value::Str(s.to_string())),
                null_count: 0,
                rows,
            }
        }
        ColumnData::Dict(d) => {
            let mut min: Option<&str> = None;
            let mut max: Option<&str> = None;
            for i in range.clone() {
                track_str(&mut min, &mut max, d.get(i));
            }
            BlockZone {
                min: min.map(|s| Value::Str(s.to_string())),
                max: max.map(|s| Value::Str(s.to_string())),
                null_count: 0,
                rows,
            }
        }
        ColumnData::Nullable { nulls, values } => {
            let mut zone = BlockZone::empty();
            zone.rows = rows;
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            for i in range.clone() {
                if nulls[i] {
                    zone.null_count += 1;
                    continue;
                }
                let v = values.get(i);
                track_value(&mut min, &mut max, v);
            }
            zone.min = min;
            zone.max = max;
            zone
        }
        ColumnData::Mixed(v) => {
            let mut zone = BlockZone::empty();
            zone.rows = rows;
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            for val in &v[range] {
                if val.is_null() {
                    zone.null_count += 1;
                    continue;
                }
                track_value(&mut min, &mut max, val.clone());
            }
            zone.min = min;
            zone.max = max;
            zone
        }
    }
}

fn track_str<'a>(min: &mut Option<&'a str>, max: &mut Option<&'a str>, s: &'a str) {
    match min {
        None => *min = Some(s),
        Some(m) if s < *m => *min = Some(s),
        _ => {}
    }
    match max {
        None => *max = Some(s),
        Some(m) if s > *m => *max = Some(s),
        _ => {}
    }
}

fn track_value(min: &mut Option<Value>, max: &mut Option<Value>, v: Value) {
    let lower = match min {
        None => true,
        Some(m) => v.total_cmp(m) == Ordering::Less,
    };
    if lower {
        *min = Some(v.clone());
    }
    let higher = match max {
        None => true,
        Some(m) => v.total_cmp(m) == Ordering::Greater,
    };
    if higher {
        *max = Some(v);
    }
}

// ---------------------------------------------------------------------------
// Scan pruning
// ---------------------------------------------------------------------------

/// One zone-map-refutable conjunct of a pushed predicate.
enum Conjunct<'a> {
    /// `col OP literal` comparison (already oriented column-first).
    Cmp { ci: usize, op: BinaryOp, lit: &'a Value },
    /// `col BETWEEN lo AND hi` with literal bounds.
    Between { ci: usize, lo: &'a Value, hi: &'a Value },
    /// `col IN (literals)` (non-negated only).
    InList { ci: usize, items: &'a [Value] },
    /// `col IS [NOT] NULL`.
    IsNull { ci: usize, negated: bool },
}

/// Evaluates a scan's pushed filter conjunction against block stats headers
/// to skip whole base blocks. Constructed per scan from the plan's pushed
/// predicate; holds only the conjunct shapes zone maps can refute (the rest
/// of the predicate still runs row-wise in the Filter above, so an
/// unrecognized conjunct merely prunes nothing).
pub struct ScanPruner<'a> {
    conjuncts: Vec<Conjunct<'a>>,
}

/// What a pruned scan reads.
pub struct PruneOutcome {
    /// Surviving physical rids in ascending order, or `None` for the dense
    /// zero-copy scan (clean table, nothing pruned).
    pub sel: Option<Vec<u32>>,
    /// Live rows the scan will touch (selection length, or the live count
    /// for a dense scan).
    pub survivors: usize,
    /// Base blocks whose stats headers were consulted.
    pub blocks_checked: u64,
    /// Base blocks skipped outright.
    pub blocks_pruned: u64,
    /// Dense positions in `sel` where the selection jumps a storage
    /// discontinuity (a pruned gap or the base→delta boundary) — the cut
    /// points morsel splitting respects.
    pub sel_cuts: Vec<usize>,
}

impl<'a> ScanPruner<'a> {
    /// Collects the refutable conjuncts of `pushed` that reference bare
    /// columns of table slot `slot`.
    pub fn for_scan(pushed: &'a BoundExpr, slot: usize) -> Self {
        let mut p = ScanPruner { conjuncts: Vec::new() };
        p.collect(pushed, slot);
        p
    }

    /// True when no conjunct can drive block skipping.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    fn collect(&mut self, e: &'a BoundExpr, slot: usize) {
        let bare = |x: &BoundExpr| -> Option<usize> {
            x.as_bare_column()
                .filter(|c| c.table_slot == slot)
                .map(|c| c.column_idx)
        };
        match e {
            BoundExpr::Binary { left, op: BinaryOp::And, right } => {
                self.collect(left, slot);
                self.collect(right, slot);
            }
            BoundExpr::Binary { left, op, right }
                if matches!(
                    op,
                    BinaryOp::Eq
                        | BinaryOp::NotEq
                        | BinaryOp::Lt
                        | BinaryOp::LtEq
                        | BinaryOp::Gt
                        | BinaryOp::GtEq
                ) =>
            {
                // Orient column-first; NULL literals never prune (the filter
                // rejects every row itself, block stats can't say it safer).
                if let (Some(ci), BoundExpr::Literal(lit)) = (bare(left), right.as_ref()) {
                    if !lit.is_null() {
                        self.conjuncts.push(Conjunct::Cmp { ci, op: *op, lit });
                    }
                } else if let (BoundExpr::Literal(lit), Some(ci)) = (left.as_ref(), bare(right)) {
                    if !lit.is_null() {
                        let flipped = match op {
                            BinaryOp::Lt => BinaryOp::Gt,
                            BinaryOp::LtEq => BinaryOp::GtEq,
                            BinaryOp::Gt => BinaryOp::Lt,
                            BinaryOp::GtEq => BinaryOp::LtEq,
                            other => *other,
                        };
                        self.conjuncts.push(Conjunct::Cmp { ci, op: flipped, lit });
                    }
                }
            }
            BoundExpr::Between { expr, low, high } => {
                if let (Some(ci), BoundExpr::Literal(lo), BoundExpr::Literal(hi)) =
                    (bare(expr), low.as_ref(), high.as_ref())
                {
                    if !lo.is_null() && !hi.is_null() {
                        self.conjuncts.push(Conjunct::Between { ci, lo, hi });
                    }
                }
            }
            BoundExpr::InList { expr, list, negated: false } => {
                if let Some(ci) = bare(expr) {
                    self.conjuncts.push(Conjunct::InList { ci, items: list });
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                if let Some(ci) = bare(expr) {
                    self.conjuncts.push(Conjunct::IsNull { ci, negated: *negated });
                }
            }
            _ => {}
        }
    }

    /// Applies the conjuncts to `table`'s block headers and assembles the
    /// surviving selection: live rids of kept base blocks in ascending
    /// order, then every live delta rid (the delta is never pruned).
    pub fn prune(&self, table: &ColumnTable) -> PruneOutcome {
        let n_blocks = table.n_blocks();
        let base_rows = table.base_len();
        let phys = table.physical_len();
        // Equality/IN literals hash once per scan; per block only bloom bits
        // are tested. `None` = this conjunct cannot drive bloom refutation.
        let probes: Vec<Option<Vec<u64>>> = self
            .conjuncts
            .iter()
            .map(|c| match c {
                Conjunct::Cmp { op: BinaryOp::Eq, lit, .. } => {
                    bloom_probe_hash(lit).map(|h| vec![h])
                }
                Conjunct::InList { items, .. } => {
                    let non_null = items.iter().filter(|v| !v.is_null());
                    let hs: Vec<u64> =
                        non_null.clone().filter_map(bloom_probe_hash).collect();
                    // Every non-NULL item must be hashable, or a block
                    // holding an unhashable match could be refuted.
                    (hs.len() == non_null.count()).then_some(hs)
                }
                _ => None,
            })
            .collect();
        let mut keep = vec![true; n_blocks];
        let mut pruned = 0u64;
        for (b, k) in keep.iter_mut().enumerate() {
            for (idx, c) in self.conjuncts.iter().enumerate() {
                let ci = match c {
                    Conjunct::Cmp { ci, .. }
                    | Conjunct::Between { ci, .. }
                    | Conjunct::InList { ci, .. }
                    | Conjunct::IsNull { ci, .. } => *ci,
                };
                let Some(zone) = table.zones(ci).get(b) else {
                    continue;
                };
                if !conjunct_may_match(c, zone) {
                    *k = false;
                    pruned += 1;
                    break;
                }
                // Zone min/max kept the block; a bloom miss on every
                // equality candidate still proves no row matches. Base
                // blocks only — the delta below is never pruned.
                if let (Some(hashes), Some(blooms)) = (&probes[idx], table.blooms(ci)) {
                    if let Some(bloom) = blooms.get(b) {
                        if hashes.iter().all(|h| !bloom.may_contain(*h)) {
                            *k = false;
                            pruned += 1;
                            break;
                        }
                    }
                }
            }
        }

        if pruned == 0 && table.is_clean() {
            // Dense zero-copy fast path preserved.
            return PruneOutcome {
                sel: None,
                survivors: table.row_count(),
                blocks_checked: n_blocks as u64,
                blocks_pruned: 0,
                sel_cuts: Vec::new(),
            };
        }

        let mut sel: Vec<u32> = Vec::new();
        let mut cuts: Vec<usize> = Vec::new();
        let mut expected = 0usize;
        for (b, k) in keep.iter().enumerate() {
            if !k {
                continue;
            }
            let range = table.block_range(b);
            if range.start != expected && !sel.is_empty() {
                cuts.push(sel.len());
            }
            for rid in range.clone() {
                if !table.is_deleted(rid) {
                    sel.push(rid as u32);
                }
            }
            expected = range.end;
        }
        if phys > base_rows {
            if !sel.is_empty() {
                cuts.push(sel.len());
            }
            for rid in base_rows..phys {
                if !table.is_deleted(rid) {
                    sel.push(rid as u32);
                }
            }
        }
        let survivors = sel.len();
        PruneOutcome {
            sel: Some(sel),
            survivors,
            blocks_checked: n_blocks as u64,
            blocks_pruned: pruned,
            sel_cuts: cuts,
        }
    }
}

/// Can any row of a block with header `z` satisfy conjunct `c`? Must err
/// toward `true` — a wrong `false` silently drops rows.
fn conjunct_may_match(c: &Conjunct<'_>, z: &BlockZone) -> bool {
    let (min, max) = match (&z.min, &z.max) {
        (Some(a), Some(b)) => (a, b),
        // No non-NULL value in the block: every comparison/IN conjunct is
        // false row-by-row; only `IS NULL` can still match.
        _ => return matches!(c, Conjunct::IsNull { negated: false, .. }) && z.null_count > 0,
    };
    match c {
        Conjunct::Cmp { op, lit, .. } => match op {
            BinaryOp::Eq => value_in_range(lit, min, max),
            // A constant block refutes `<>` only when the constant equals
            // the literal under the executor's own equality (sql_eq also
            // guards the NaN case, where total_cmp and `==` disagree).
            BinaryOp::NotEq => !(z.is_constant() && min.sql_eq(lit)),
            BinaryOp::Lt => min.total_cmp(lit) == Ordering::Less,
            BinaryOp::LtEq => min.total_cmp(lit) != Ordering::Greater,
            BinaryOp::Gt => max.total_cmp(lit) == Ordering::Greater,
            BinaryOp::GtEq => max.total_cmp(lit) != Ordering::Less,
            _ => true,
        },
        Conjunct::Between { lo, hi, .. } => {
            max.total_cmp(lo) != Ordering::Less && min.total_cmp(hi) != Ordering::Greater
        }
        Conjunct::InList { items, .. } => items
            .iter()
            .any(|v| !v.is_null() && value_in_range(v, min, max)),
        Conjunct::IsNull { negated: false, .. } => z.null_count > 0,
        Conjunct::IsNull { negated: true, .. } => z.null_count < z.rows,
    }
}

/// Could a row equal to `lit` (under `sql_eq`) live inside `[min, max]`?
/// The range test uses `total_cmp` like the executors; the extra boundary
/// `sql_eq` checks admit the one case where the two orders disagree on
/// equality (`-0.0` vs `+0.0`), keeping equality pruning exact.
fn value_in_range(lit: &Value, min: &Value, max: &Value) -> bool {
    (lit.total_cmp(min) != Ordering::Less && lit.total_cmp(max) != Ordering::Greater)
        || lit.sql_eq(min)
        || lit.sql_eq(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::binder::Binder;
    use qpe_sql::catalog::{ColumnDef, DataType, MemoryCatalog, TableDef};

    fn zone(min: Value, max: Value) -> BlockZone {
        BlockZone { min: Some(min), max: Some(max), null_count: 0, rows: 4 }
    }

    fn bind_filter(sql_where: &str) -> BoundExpr {
        let mut cat = MemoryCatalog::new();
        cat.add_table(TableDef {
            name: "t".into(),
            columns: vec![
                ColumnDef { name: "a".into(), data_type: DataType::Int, ndv: 10 },
                ColumnDef { name: "s".into(), data_type: DataType::Str, ndv: 4 },
            ],
            row_count: 10,
            indexed_columns: vec![],
            primary_key: "a".into(),
        });
        let q = Binder::new(&cat)
            .bind_sql(&format!("SELECT * FROM t WHERE {sql_where}"))
            .unwrap();
        let mut it = q.filters.iter().map(|f| f.expr.clone());
        let first = it.next().unwrap();
        it.fold(first, |acc, e| BoundExpr::Binary {
            left: Box::new(acc),
            op: BinaryOp::And,
            right: Box::new(e),
        })
    }

    fn may_match(sql_where: &str, z: &BlockZone) -> bool {
        let pred = bind_filter(sql_where);
        let pruner = ScanPruner::for_scan(&pred, 0);
        assert!(!pruner.is_empty(), "conjunct not recognized: {sql_where}");
        pruner
            .conjuncts
            .iter()
            .all(|c| conjunct_may_match(c, z))
    }

    #[test]
    fn range_and_equality_refutation() {
        let z = zone(Value::Int(10), Value::Int(20));
        assert!(may_match("a = 15", &z));
        assert!(!may_match("a = 9", &z));
        assert!(!may_match("a = 21", &z));
        assert!(may_match("a >= 20", &z));
        assert!(!may_match("a > 20", &z));
        assert!(may_match("a < 11", &z));
        assert!(!may_match("a < 10", &z));
        assert!(may_match("25 > a", &z), "flipped orientation recognized");
        assert!(!may_match("5 >= a", &z), "flipped orientation prunes too");
        assert!(may_match("a BETWEEN 18 AND 30", &z));
        assert!(!may_match("a BETWEEN 21 AND 30", &z));
        assert!(may_match("a IN (1, 2, 12)", &z));
        assert!(!may_match("a IN (1, 2, 30)", &z));
    }

    #[test]
    fn string_zones_refute_string_predicates() {
        let z = zone(Value::Str("building".into()), Value::Str("machinery".into()));
        assert!(may_match("s = 'household'", &z));
        assert!(!may_match("s = 'automobile'", &z));
        assert!(!may_match("s = 'steel'", &z));
    }

    #[test]
    fn cross_type_literals_prune_via_rank_order() {
        // Int literal against a string block: sql_eq is always false, and
        // the rank order the executors compare with puts Int below Str — so
        // the block is refutable.
        let z = zone(Value::Str("a".into()), Value::Str("b".into()));
        assert!(!may_match("s = 5", &z));
    }

    #[test]
    fn constant_blocks_refute_not_equal() {
        let constant = zone(Value::Int(7), Value::Int(7));
        assert!(!may_match("a <> 7", &constant));
        assert!(may_match("a <> 8", &constant));
        let varied = zone(Value::Int(7), Value::Int(9));
        assert!(may_match("a <> 7", &varied));
    }

    #[test]
    fn null_blocks_and_is_null() {
        let all_null = BlockZone { min: None, max: None, null_count: 4, rows: 4 };
        assert!(may_match("a IS NULL", &all_null));
        assert!(!may_match("a IS NOT NULL", &all_null));
        assert!(!may_match("a = 1", &all_null));
        let no_null = zone(Value::Int(1), Value::Int(2));
        assert!(!may_match("a IS NULL", &no_null));
        assert!(may_match("a IS NOT NULL", &no_null));
    }

    #[test]
    fn signed_zero_boundary_is_not_pruned() {
        let z = zone(Value::Float(-1.0), Value::Float(-0.0));
        // +0.0 sorts above -0.0 in total_cmp, but sql_eq equates them — the
        // boundary check must keep the block.
        assert!(may_match("a = 0.0", &z));
    }

    #[test]
    fn unrecognized_shapes_prune_nothing() {
        let pred = bind_filter("s LIKE 'x%'");
        assert!(ScanPruner::for_scan(&pred, 0).is_empty());
        let pred = bind_filter("a + 1 = 2");
        assert!(ScanPruner::for_scan(&pred, 0).is_empty());
        // Conjuncts of other table slots are ignored.
        let pred = bind_filter("a = 1");
        assert!(ScanPruner::for_scan(&pred, 3).is_empty());
    }

    #[test]
    fn zones_cover_blocks_and_track_minmax() {
        let col = ColumnData::Int((0..10).collect());
        let zones = column_zones(&col, 4);
        assert_eq!(zones.len(), 3);
        assert_eq!(zones[0].min, Some(Value::Int(0)));
        assert_eq!(zones[0].max, Some(Value::Int(3)));
        assert_eq!(zones[2].min, Some(Value::Int(8)));
        assert_eq!(zones[2].rows, 2);
        assert!(!zones[0].is_constant());
        let constant = column_zones(&ColumnData::Int(vec![5; 8]), 4);
        assert!(constant.iter().all(BlockZone::is_constant));
    }

    #[test]
    fn zones_skip_nulls_in_minmax() {
        let col = ColumnData::from_values(&[
            Value::Null,
            Value::Int(3),
            Value::Int(1),
            Value::Null,
        ]);
        let zones = column_zones(&col, 4);
        assert_eq!(zones[0].null_count, 2);
        assert_eq!(zones[0].min, Some(Value::Int(1)));
        assert_eq!(zones[0].max, Some(Value::Int(3)));
    }
}
