//! Column-oriented storage for the AP engine.
//!
//! Columns are typed vectors; scans touch only the columns a query
//! references, and filters are evaluated vectorized over a selection vector.
//! This is the structural advantage the paper's expert explanations cite for
//! AP ("scan only relevant columns and apply filters before joining").
//!
//! # Base segment: blocks, zone maps, encodings
//!
//! The immutable base segment is logically divided into fixed-size blocks
//! (sized adaptively per table by
//! [`crate::storage::zone::default_block_rows`]). Each block carries a
//! stats header — min/max, NULL count, constant hint
//! ([`crate::storage::zone::BlockZone`]) — built at load and rebuilt by
//! every compaction. Scans with a pushed-down predicate consult the
//! headers through [`crate::storage::zone::ScanPruner`] and skip whole
//! blocks without touching a cell.
//!
//! On top of the plain typed vectors, two encoded representations are chosen
//! per column by a cost rule over the data ([`ColumnData::encoded`]):
//!
//! * **dictionary** ([`ColumnData::Dict`]) for low-cardinality strings —
//!   per-row `u32` codes into a small value table, so equality and IN
//!   predicates compare codes instead of strings and cell reads stay
//!   zero-copy (`&str` borrowed from the dictionary);
//! * **run-length** ([`ColumnData::RleInt`] / [`ColumnData::RleDate`]) for
//!   run-heavy (sorted or constant) integer/date columns — `(value, end)`
//!   runs with `O(log runs)` point access.
//!
//! Typed-but-nullable data keeps its typed vector plus a null mask
//! ([`ColumnData::Nullable`]) instead of demoting to generic `Value`s, so a
//! single NULL no longer knocks a column off the vectorized fast path.
//! Encodings apply to the *base* only; delta builders stay plain typed
//! (append-friendly), and compaction re-runs the cost rule over the merged
//! data.
//!
//! # Delta region (write path)
//!
//! The base columns are immutable between compactions. Writes land in a
//! **delta region** — one append-only typed column builder per base column —
//! plus a deleted-rid bitmap over the combined `base + delta` rid space:
//!
//! * insert → append to the delta builders;
//! * delete → set the rid's bit;
//! * update → delete + append (out-of-place, the column-store discipline).
//!
//! A monotonically increasing **version stamp** advances on every write and
//! on compaction; it is the freshness signal the system surfaces per table.
//! Compaction merges live delta rows into fresh base columns and clears the
//! end stamps, restoring the zero-copy clean-scan fast path.
//! Readers see every write immediately — scans cover both regions through
//! [`ColRef`] — so AP reads are always fresh without waiting for compaction.
//! Zone-map pruning never touches the delta (it has no headers), which is
//! the rule that keeps block skipping correct under DML: a block header can
//! only be stale in the conservative direction (tombstones shrink the true
//! range), and every buffered write is always scanned.

use super::zone::{self, BlockBloom, BlockZone};
use qpe_sql::value::Value;
use std::sync::Arc;

/// Minimum base-segment length before the encoder considers dictionary/RLE
/// representations (tiny columns gain nothing and keep tests transparent).
pub const ENCODE_MIN_ROWS: usize = 64;
/// Maximum distinct strings a dictionary may hold.
pub const DICT_MAX_VALUES: usize = 255;
/// Rows per frame-of-reference block. Independent of the zone-map block size:
/// packed bits cannot be re-chunked by [`ColumnTable::set_block_rows`], and a
/// power of two keeps block addressing a shift/mask.
pub const FOR_BLOCK_ROWS: usize = 1024;

/// Frame-of-reference encoded i64 column: each [`FOR_BLOCK_ROWS`]-row block
/// stores its minimum as a reference plus bit-packed non-negative deltas at
/// one fixed width per block. Point access is O(1) (two word reads); scans
/// unpack a block at a time into a reusable scratch buffer; range predicates
/// can be answered per block against the packed domain (compare `lit - ref`
/// with the deltas) without materializing values.
#[derive(Debug, Clone)]
pub struct ForInt {
    n_rows: usize,
    /// Per-block reference value (the block minimum).
    pub refs: Vec<i64>,
    /// Per-block exact maximum (for packed-domain range answers).
    pub maxs: Vec<i64>,
    /// Per-block delta bit width (0 ⇒ constant block).
    pub widths: Vec<u8>,
    /// Per-block starting word offset into `packed` (blocks word-aligned).
    pub offsets: Vec<u32>,
    /// Bit-packed deltas, LSB-first within each u64 word, plus one trailing
    /// pad word so straddle reads never branch on bounds.
    pub packed: Vec<u64>,
}

impl ForInt {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of FOR blocks.
    pub fn n_blocks(&self) -> usize {
        self.refs.len()
    }

    /// Row range of FOR block `b`.
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let lo = b * FOR_BLOCK_ROWS;
        lo..(lo + FOR_BLOCK_ROWS).min(self.n_rows)
    }

    /// Value at row `i`: reference plus a two-word masked delta read.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        let b = i / FOR_BLOCK_ROWS;
        let w = self.widths[b] as usize;
        if w == 0 {
            return self.refs[b];
        }
        let bit = (i % FOR_BLOCK_ROWS) * w;
        let word = self.offsets[b] as usize + (bit >> 6);
        let shift = bit & 63;
        // `(x << 1) << (63 - shift)` is `x << (64 - shift)` without the
        // undefined full-width shift at `shift == 0` (where it yields 0).
        let d = (self.packed[word] >> shift) | ((self.packed[word + 1] << 1) << (63 - shift));
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        self.refs[b].wrapping_add((d & mask) as i64)
    }

    /// Unpacks block `b` into `out` (cleared first) — the branchless decode
    /// loop scan kernels drive with a reused scratch buffer.
    pub fn decode_block_into(&self, b: usize, out: &mut Vec<i64>) {
        out.clear();
        let n = self.block_range(b).len();
        let w = self.widths[b] as usize;
        let r = self.refs[b];
        if w == 0 {
            out.resize(n, r);
            return;
        }
        let words = &self.packed[self.offsets[b] as usize..];
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        out.reserve(n);
        let mut bit = 0usize;
        for _ in 0..n {
            let word = bit >> 6;
            let shift = bit & 63;
            let d = (words[word] >> shift) | ((words[word + 1] << 1) << (63 - shift));
            out.push(r.wrapping_add((d & mask) as i64));
            bit += w;
        }
    }

    /// Builds the FOR representation when the cost rule holds: packed deltas
    /// take at most half the plain bits (≤ 32 bits/row). Sorted and
    /// near-sequential data (PKs, dates-as-days) passes with room to spare;
    /// a block whose value range needs wide deltas votes against.
    pub fn build(v: &[i64]) -> Option<ForInt> {
        Self::build_impl(v, false)
    }

    /// Builds the FOR representation regardless of the cost rule (forced-
    /// encoding test matrix); only an empty column declines.
    pub(crate) fn build_forced(v: &[i64]) -> Option<ForInt> {
        Self::build_impl(v, true)
    }

    fn build_impl(v: &[i64], forced: bool) -> Option<ForInt> {
        if v.is_empty() {
            return None;
        }
        let n_blocks = v.len().div_ceil(FOR_BLOCK_ROWS);
        let mut refs = Vec::with_capacity(n_blocks);
        let mut maxs = Vec::with_capacity(n_blocks);
        let mut widths = Vec::with_capacity(n_blocks);
        let mut total_words = 0usize;
        for chunk in v.chunks(FOR_BLOCK_ROWS) {
            let mn = *chunk.iter().min().unwrap();
            let mx = *chunk.iter().max().unwrap();
            let range = mx.wrapping_sub(mn) as u64;
            let w = (64 - range.leading_zeros()) as u8;
            refs.push(mn);
            maxs.push(mx);
            widths.push(w);
            total_words += (chunk.len() * w as usize).div_ceil(64);
        }
        if !forced && total_words * 64 > v.len() * 32 {
            return None;
        }
        let mut offsets = Vec::with_capacity(n_blocks);
        let mut packed = vec![0u64; total_words + 1];
        let mut word = 0usize;
        for (b, chunk) in v.chunks(FOR_BLOCK_ROWS).enumerate() {
            offsets.push(word as u32);
            let w = widths[b] as usize;
            if w > 0 {
                let mut bit = 0usize;
                for &x in chunk {
                    let d = x.wrapping_sub(refs[b]) as u64;
                    let wd = word + (bit >> 6);
                    let sh = bit & 63;
                    packed[wd] |= d << sh;
                    if sh + w > 64 {
                        packed[wd + 1] |= d >> (64 - sh);
                    }
                    bit += w;
                }
                word += (chunk.len() * w).div_ceil(64);
            }
        }
        Some(ForInt { n_rows: v.len(), refs, maxs, widths, offsets, packed })
    }

    /// Reassembles a persisted FOR column, checking every structural
    /// invariant `get`/`decode_block_into` index by (block counts, widths,
    /// word offsets, packed length including the pad word) so corrupt bytes
    /// surface as an error instead of a panic in a scan.
    pub(crate) fn from_parts(
        n_rows: usize,
        refs: Vec<i64>,
        maxs: Vec<i64>,
        widths: Vec<u8>,
        offsets: Vec<u32>,
        packed: Vec<u64>,
    ) -> Result<ForInt, &'static str> {
        let n_blocks = n_rows.div_ceil(FOR_BLOCK_ROWS);
        if refs.len() != n_blocks
            || maxs.len() != n_blocks
            || widths.len() != n_blocks
            || offsets.len() != n_blocks
        {
            return Err("FOR block vector lengths disagree with row count");
        }
        let mut word = 0usize;
        for b in 0..n_blocks {
            let w = widths[b] as usize;
            if w > 64 {
                return Err("FOR delta width exceeds 64 bits");
            }
            if offsets[b] as usize != word {
                return Err("FOR block word offsets inconsistent");
            }
            let rows = (n_rows - b * FOR_BLOCK_ROWS).min(FOR_BLOCK_ROWS);
            word += (rows * w).div_ceil(64);
        }
        if packed.len() != word + 1 {
            return Err("FOR packed word count inconsistent");
        }
        Ok(ForInt { n_rows, refs, maxs, widths, offsets, packed })
    }
}

/// Dictionary-encoded low-cardinality string column: per-row codes into a
/// small table of distinct values (first-appearance order).
#[derive(Debug, Clone)]
pub struct DictColumn {
    /// One code per row.
    pub codes: Vec<u32>,
    /// Distinct strings, indexed by code. Shared, so gathers and morsel
    /// pieces of one column carry the same table instead of copies of it.
    pub values: Arc<[String]>,
}

impl DictColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Borrowed string at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.values[self.codes[i] as usize]
    }

    /// The code for `s`, if the dictionary contains it — the entry point for
    /// code-to-code equality kernels (a miss means no row can match).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.values.iter().position(|v| v == s).map(|p| p as u32)
    }

    /// Builds a dictionary when the cost rule holds: at most
    /// [`DICT_MAX_VALUES`] distinct strings and at least 4 rows per distinct
    /// value on average.
    fn build(strings: &[String]) -> Option<DictColumn> {
        Self::build_impl(strings, false)
    }

    /// Builds a dictionary unconditionally (forced-encoding test matrix).
    pub(crate) fn build_forced(strings: &[String]) -> Option<DictColumn> {
        Self::build_impl(strings, true)
    }

    fn build_impl(strings: &[String], forced: bool) -> Option<DictColumn> {
        let mut values: Vec<String> = Vec::new();
        let mut index: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut codes = Vec::with_capacity(strings.len());
        for s in strings {
            let next = values.len() as u32;
            let code = *index.entry(s.as_str()).or_insert_with(|| {
                values.push(s.clone());
                next
            });
            if !forced && values.len() > DICT_MAX_VALUES {
                return None;
            }
            codes.push(code);
        }
        if forced || values.len() * 4 <= strings.len() {
            Some(DictColumn { codes, values: values.into() })
        } else {
            None
        }
    }
}

/// Run-length encoded fixed-width column: run `k` covers rows
/// `ends[k-1]..ends[k]` with value `vals[k]`.
#[derive(Debug, Clone)]
pub struct RleRuns<T> {
    /// Exclusive end row of each run, ascending.
    pub ends: Vec<u32>,
    /// Value of each run.
    pub vals: Vec<T>,
}

impl<T: Copy + PartialEq> RleRuns<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0) as usize
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of runs.
    pub fn n_runs(&self) -> usize {
        self.vals.len()
    }

    /// Value at row `i` (`O(log runs)` binary search).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        let run = self.ends.partition_point(|&e| e as usize <= i);
        self.vals[run]
    }

    /// Encodes `v` when the cost rule holds: at least 4 rows per run on
    /// average (sorted/constant data; random data stays plain).
    fn build(v: &[T]) -> Option<RleRuns<T>> {
        Self::build_impl(v, false)
    }

    /// Encodes unconditionally — worst case one run per row (forced-encoding
    /// test matrix).
    pub(crate) fn build_forced(v: &[T]) -> Option<RleRuns<T>> {
        Self::build_impl(v, true)
    }

    fn build_impl(v: &[T], forced: bool) -> Option<RleRuns<T>> {
        let mut ends = Vec::new();
        let mut vals: Vec<T> = Vec::new();
        for (i, x) in v.iter().enumerate() {
            match vals.last() {
                Some(last) if last == x => *ends.last_mut().unwrap() = (i + 1) as u32,
                _ => {
                    vals.push(*x);
                    ends.push((i + 1) as u32);
                }
            }
        }
        if forced || vals.len() * 4 <= v.len() {
            Some(RleRuns { ends, vals })
        } else {
            None
        }
    }
}

/// Base-segment encoding policy. `Auto` (the default) applies the cost
/// rules in [`ColumnData::encoded`]; the forcing variants pin one encoding
/// on every type-compatible column regardless of cost, so the equivalence
/// test matrix can sweep every representation over the same data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingPolicy {
    /// Cost-rule choice (production behavior).
    #[default]
    Auto,
    /// Decode everything to plain typed vectors.
    Plain,
    /// Force dictionary encoding on every string column.
    Dict,
    /// Force run-length encoding on every integer/date column.
    Rle,
    /// Force frame-of-reference encoding on every integer column.
    For,
}

/// Typed column data. Plain typed vectors are the default; the encoded and
/// nullable representations are produced by [`ColumnData::from_values`] and
/// [`ColumnData::encoded`] and read back through the same cell interface.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// i64 column.
    Int(Vec<i64>),
    /// f64 column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<String>),
    /// Date column (days since epoch).
    Date(Vec<i32>),
    /// Dictionary-encoded low-cardinality string column (base segments).
    Dict(DictColumn),
    /// Run-length encoded i64 column (base segments).
    RleInt(RleRuns<i64>),
    /// Run-length encoded date column (base segments).
    RleDate(RleRuns<i32>),
    /// Frame-of-reference bit-packed i64 column (base segments).
    ForInt(ForInt),
    /// Typed column with a null mask: `nulls[i]` marks NULL and the value at
    /// that position in `values` is a meaningless sentinel. Keeps nullable
    /// columns on the typed fast path instead of demoting to `Mixed`.
    Nullable {
        /// Per-row NULL flags.
        nulls: Vec<bool>,
        /// Dense typed values (sentinel-filled at NULL positions); always a
        /// plain typed variant.
        values: Box<ColumnData>,
    },
    /// Heterogeneous column (fallback representation).
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Builds typed storage from generic values. The first *non-NULL* value
    /// picks the representation; NULLs grow a null mask over the typed
    /// vector ([`ColumnData::Nullable`]) instead of demoting the column, so
    /// only genuinely heterogeneous data falls back to `Mixed`.
    pub fn from_values(values: &[Value]) -> Self {
        let Some(first) = values.iter().find(|v| !v.is_null()) else {
            // Empty or all-NULL.
            return ColumnData::Mixed(values.to_vec());
        };
        macro_rules! ingest {
            ($variant:ident, $pat:pat => $val:expr, $sentinel:expr) => {{
                let mut out = Vec::with_capacity(values.len());
                let mut nulls: Option<Vec<bool>> = None;
                for (i, v) in values.iter().enumerate() {
                    match v {
                        $pat => {
                            out.push($val);
                            if let Some(n) = &mut nulls {
                                n.push(false);
                            }
                        }
                        Value::Null => {
                            nulls.get_or_insert_with(|| vec![false; i]).push(true);
                            out.push($sentinel);
                        }
                        _ => return Self::demote(values, i),
                    }
                }
                match nulls {
                    Some(nulls) => ColumnData::Nullable {
                        nulls,
                        values: Box::new(ColumnData::$variant(out)),
                    },
                    None => ColumnData::$variant(out),
                }
            }};
        }
        match first {
            Value::Int(_) => ingest!(Int, Value::Int(x) => *x, 0),
            Value::Float(_) => ingest!(Float, Value::Float(x) => *x, 0.0),
            Value::Str(_) => ingest!(Str, Value::Str(s) => s.clone(), String::new()),
            Value::Date(_) => ingest!(Date, Value::Date(d) => *d, 0),
            Value::Null => unreachable!("first is non-null"),
        }
    }

    /// Cold path of [`ColumnData::from_values`]: a genuine type mismatch was
    /// found at position `_at`; store the whole column as generic values.
    #[cold]
    fn demote(values: &[Value], _at: usize) -> Self {
        ColumnData::Mixed(values.to_vec())
    }

    /// Applies the base-segment encoding cost rule: re-types homogeneous
    /// `Mixed` columns first, then dictionary-encodes low-cardinality
    /// strings and run-length-encodes run-heavy integers/dates. Columns
    /// below [`ENCODE_MIN_ROWS`] and poor fits stay plain.
    pub fn encoded(self) -> ColumnData {
        let col = match self {
            ColumnData::Mixed(values) => ColumnData::from_values(&values),
            other => other,
        };
        if col.len() < ENCODE_MIN_ROWS {
            return col;
        }
        match col {
            ColumnData::Str(v) => match DictColumn::build(&v) {
                Some(d) => ColumnData::Dict(d),
                None => ColumnData::Str(v),
            },
            ColumnData::Int(v) => match RleRuns::build(&v) {
                Some(r) => ColumnData::RleInt(r),
                None => match ForInt::build(&v) {
                    Some(f) => ColumnData::ForInt(f),
                    None => ColumnData::Int(v),
                },
            },
            ColumnData::Date(v) => match RleRuns::build(&v) {
                Some(r) => ColumnData::RleDate(r),
                None => ColumnData::Date(v),
            },
            other => other,
        }
    }

    /// Decodes any encoded representation back to its plain typed variant
    /// (identity for columns that are already plain, nullable, or mixed).
    pub fn decoded(self) -> ColumnData {
        match self {
            ColumnData::Dict(d) => {
                ColumnData::Str((0..d.len()).map(|i| d.get(i).to_string()).collect())
            }
            ColumnData::RleInt(r) => ColumnData::Int((0..r.len()).map(|i| r.get(i)).collect()),
            ColumnData::RleDate(r) => ColumnData::Date((0..r.len()).map(|i| r.get(i)).collect()),
            ColumnData::ForInt(f) => {
                let mut out = Vec::with_capacity(f.len());
                let mut scratch = Vec::new();
                for b in 0..f.n_blocks() {
                    f.decode_block_into(b, &mut scratch);
                    out.extend_from_slice(&scratch);
                }
                ColumnData::Int(out)
            }
            other => other,
        }
    }

    /// Applies an [`EncodingPolicy`]: `Auto` runs the cost rules, the
    /// forcing variants pin one representation on every type-compatible
    /// column (bypassing [`ENCODE_MIN_ROWS`] and the per-encoding cost
    /// rules). Logical content never changes.
    pub fn encoded_with(self, policy: EncodingPolicy) -> ColumnData {
        match policy {
            EncodingPolicy::Auto => self.encoded(),
            EncodingPolicy::Plain => self.decoded(),
            EncodingPolicy::Dict => match self.decoded() {
                ColumnData::Str(v) => match DictColumn::build_forced(&v) {
                    Some(d) => ColumnData::Dict(d),
                    None => ColumnData::Str(v),
                },
                other => other,
            },
            EncodingPolicy::Rle => match self.decoded() {
                ColumnData::Int(v) => match RleRuns::build_forced(&v) {
                    Some(r) => ColumnData::RleInt(r),
                    None => ColumnData::Int(v),
                },
                ColumnData::Date(v) => match RleRuns::build_forced(&v) {
                    Some(r) => ColumnData::RleDate(r),
                    None => ColumnData::Date(v),
                },
                other => other,
            },
            EncodingPolicy::For => match self.decoded() {
                ColumnData::Int(v) => match ForInt::build_forced(&v) {
                    Some(f) => ColumnData::ForInt(f),
                    None => ColumnData::Int(v),
                },
                other => other,
            },
        }
    }

    /// An empty column of the shape a fresh delta builder should have for
    /// this base column: plain typed (append-friendly) — encoded bases get
    /// plain builders of the decoded type.
    pub fn empty_like(&self) -> ColumnData {
        match self {
            ColumnData::Int(_) | ColumnData::RleInt(_) | ColumnData::ForInt(_) => {
                ColumnData::Int(Vec::new())
            }
            ColumnData::Float(_) => ColumnData::Float(Vec::new()),
            ColumnData::Str(_) | ColumnData::Dict(_) => ColumnData::Str(Vec::new()),
            ColumnData::Date(_) | ColumnData::RleDate(_) => ColumnData::Date(Vec::new()),
            ColumnData::Nullable { values, .. } => values.empty_like(),
            ColumnData::Mixed(_) => ColumnData::Mixed(Vec::new()),
        }
    }

    /// True for the four plain typed vector representations.
    fn is_plain_typed(&self) -> bool {
        matches!(
            self,
            ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Str(_) | ColumnData::Date(_)
        )
    }

    /// True when a non-NULL `v` fits this plain typed representation.
    fn fits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnData::Int(_), Value::Int(_))
                | (ColumnData::Float(_), Value::Float(_))
                | (ColumnData::Str(_), Value::Str(_))
                | (ColumnData::Date(_), Value::Date(_))
        )
    }

    /// Pushes the NULL sentinel of this plain typed representation.
    fn push_sentinel(&mut self) {
        match self {
            ColumnData::Int(b) => b.push(0),
            ColumnData::Float(b) => b.push(0.0),
            ColumnData::Str(b) => b.push(String::new()),
            ColumnData::Date(b) => b.push(0),
            other => other.push(Value::Null),
        }
    }

    /// Wraps a plain typed column into [`ColumnData::Nullable`] with an
    /// all-false mask (the step a typed builder takes when its first NULL
    /// arrives, instead of demoting to `Mixed`).
    #[cold]
    fn promote_nullable(&mut self) {
        let inner = std::mem::replace(self, ColumnData::Mixed(Vec::new()));
        let n = inner.len();
        *self = ColumnData::Nullable { nulls: vec![false; n], values: Box::new(inner) };
    }

    /// Appends one value. NULLs arriving in plain typed storage grow a null
    /// mask; only genuine type mismatches demote the column to `Mixed`.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColumnData::Int(buf), Value::Int(x)) => buf.push(x),
            (ColumnData::Float(buf), Value::Float(x)) => buf.push(x),
            (ColumnData::Str(buf), Value::Str(s)) => buf.push(s),
            (ColumnData::Date(buf), Value::Date(d)) => buf.push(d),
            (ColumnData::Mixed(buf), v) => buf.push(v),
            (ColumnData::Nullable { nulls, values }, Value::Null) => {
                nulls.push(true);
                values.push_sentinel();
            }
            (ColumnData::Nullable { nulls, values }, v) if values.fits(&v) => {
                nulls.push(false);
                values.push(v);
            }
            (_, v) => {
                if v.is_null() && self.is_plain_typed() {
                    self.promote_nullable();
                } else {
                    self.demote_in_place();
                }
                self.push(v);
            }
        }
    }

    #[cold]
    fn demote_in_place(&mut self) {
        let values: Vec<Value> = (0..self.len()).map(|i| self.get(i)).collect();
        *self = ColumnData::Mixed(values);
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Dict(d) => d.len(),
            ColumnData::RleInt(r) => r.len(),
            ColumnData::RleDate(r) => r.len(),
            ColumnData::ForInt(f) => f.len(),
            ColumnData::Nullable { nulls, .. } => nulls.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// True when the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at position `i` as a generic [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Dict(d) => Value::Str(d.get(i).to_string()),
            ColumnData::RleInt(r) => Value::Int(r.get(i)),
            ColumnData::RleDate(r) => Value::Date(r.get(i)),
            ColumnData::ForInt(f) => Value::Int(f.get(i)),
            ColumnData::Nullable { nulls, values } => {
                if nulls[i] {
                    Value::Null
                } else {
                    values.get(i)
                }
            }
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Zero-copy typed view when the column stores `i64`.
    pub fn as_int_slice(&self) -> Option<&[i64]> {
        match self {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Zero-copy typed view when the column stores `f64`.
    pub fn as_float_slice(&self) -> Option<&[f64]> {
        match self {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Zero-copy typed view when the column stores dates.
    pub fn as_date_slice(&self) -> Option<&[i32]> {
        match self {
            ColumnData::Date(v) => Some(v),
            _ => None,
        }
    }

    /// Splices `other` onto the end of `self`, preserving typed storage when
    /// the representations agree and demoting to `Mixed` otherwise — the
    /// reassembly step of morsel-parallel kernels, whose per-morsel outputs
    /// concatenate back into one dense column.
    pub fn append(&mut self, other: ColumnData) {
        match (&mut *self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend(b),
            (ColumnData::Date(a), ColumnData::Date(b)) => a.extend(b),
            // Pieces of one dictionary column share its table, so the codes
            // concatenate; unrelated dictionaries number their values
            // differently and demote below.
            (ColumnData::Dict(a), ColumnData::Dict(b))
                if Arc::ptr_eq(&a.values, &b.values) || a.values == b.values =>
            {
                a.codes.extend(b.codes)
            }
            (
                ColumnData::Nullable { nulls, values },
                ColumnData::Nullable { nulls: n2, values: v2 },
            ) => {
                nulls.extend(n2);
                values.append(*v2);
            }
            (ColumnData::Nullable { nulls, values }, b) if b.is_plain_typed() => {
                nulls.extend(std::iter::repeat_n(false, b.len()));
                values.append(b);
            }
            (ColumnData::Mixed(a), b) => a.extend((0..b.len()).map(|i| b.get(i))),
            (_, b) if b.is_empty() => {}
            (a, b) if a.is_empty() => *a = b,
            (_, b) => {
                if self.is_plain_typed() && matches!(b, ColumnData::Nullable { .. }) {
                    self.promote_nullable();
                } else {
                    self.demote_in_place();
                }
                self.append(b);
            }
        }
    }

    /// Gathers the given physical positions into a new dense typed column,
    /// preserving the storage representation where it stays profitable
    /// (dictionary gathers copy `u32` codes, not strings; RLE decodes — a
    /// gathered subset rarely keeps its runs).
    pub fn gather_rows(&self, idxs: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int(v) => {
                ColumnData::Int(idxs.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Float(v) => {
                ColumnData::Float(idxs.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(idxs.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnData::Date(v) => {
                ColumnData::Date(idxs.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Dict(d) => ColumnData::Dict(DictColumn {
                codes: idxs.iter().map(|&i| d.codes[i as usize]).collect(),
                values: Arc::clone(&d.values),
            }),
            ColumnData::RleInt(r) => {
                ColumnData::Int(idxs.iter().map(|&i| r.get(i as usize)).collect())
            }
            ColumnData::RleDate(r) => {
                ColumnData::Date(idxs.iter().map(|&i| r.get(i as usize)).collect())
            }
            ColumnData::ForInt(f) => {
                ColumnData::Int(idxs.iter().map(|&i| f.get(i as usize)).collect())
            }
            ColumnData::Nullable { nulls, values } => ColumnData::Nullable {
                nulls: idxs.iter().map(|&i| nulls[i as usize]).collect(),
                values: Box::new(values.gather_rows(idxs)),
            },
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(idxs.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }
}

/// A borrowed view of one logical column that may span the immutable base
/// segment and the delta segment. Physical rids index the concatenation:
/// `rid < split` reads the base, `rid - split` reads the delta.
///
/// Clean tables hand out `Single` views (the zero-copy fast path the batch
/// executor borrows outright); dirty tables hand out `Chunked` views so
/// delta rows flow through the same selection-vector kernels without copying
/// the base.
#[derive(Debug, Clone, Copy)]
pub enum ColRef<'a> {
    /// One contiguous segment.
    Single(&'a ColumnData),
    /// Base + delta segments.
    Chunked {
        /// Immutable base segment.
        base: &'a ColumnData,
        /// Append-only delta segment.
        delta: &'a ColumnData,
    },
}

impl<'a> ColRef<'a> {
    /// Total physical length across segments.
    pub fn len(&self) -> usize {
        match self {
            ColRef::Single(c) => c.len(),
            ColRef::Chunked { base, delta } => base.len() + delta.len(),
        }
    }

    /// True when the view holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical position where the view crosses from base into delta, if
    /// it spans two segments — the chunk boundary morsel splits respect.
    pub fn split_point(&self) -> Option<usize> {
        match self {
            ColRef::Single(_) => None,
            ColRef::Chunked { base, .. } => Some(base.len()),
        }
    }

    /// The contiguous segment, when there is only one.
    pub fn as_single(&self) -> Option<&'a ColumnData> {
        match self {
            ColRef::Single(c) => Some(c),
            ColRef::Chunked { .. } => None,
        }
    }

    /// Value at physical position `rid` (cross-segment).
    pub fn get(&self, rid: usize) -> Value {
        match self {
            ColRef::Single(c) => c.get(rid),
            ColRef::Chunked { base, delta } => {
                let split = base.len();
                if rid < split {
                    base.get(rid)
                } else {
                    delta.get(rid - split)
                }
            }
        }
    }

    /// Gathers physical positions into a dense owned typed column,
    /// preserving typed storage when both segments agree on representation.
    pub fn gather_rows(&self, idxs: &[u32]) -> ColumnData {
        match self {
            ColRef::Single(c) => c.gather_rows(idxs),
            ColRef::Chunked { base, delta } => {
                let split = base.len();
                macro_rules! typed_gather {
                    ($variant:ident, $b:expr, $d:expr) => {
                        ColumnData::$variant(
                            idxs.iter()
                                .map(|&i| {
                                    let i = i as usize;
                                    if i < split {
                                        $b[i].clone()
                                    } else {
                                        $d[i - split].clone()
                                    }
                                })
                                .collect(),
                        )
                    };
                }
                match (base, delta) {
                    (ColumnData::Int(b), ColumnData::Int(d)) => typed_gather!(Int, b, d),
                    (ColumnData::Float(b), ColumnData::Float(d)) => typed_gather!(Float, b, d),
                    (ColumnData::Str(b), ColumnData::Str(d)) => typed_gather!(Str, b, d),
                    (ColumnData::Date(b), ColumnData::Date(d)) => typed_gather!(Date, b, d),
                    // Encoded base + plain delta: decode through `get` into
                    // the plain typed representation the delta already has.
                    (ColumnData::Dict(db), ColumnData::Str(d)) => ColumnData::Str(
                        idxs.iter()
                            .map(|&i| {
                                let i = i as usize;
                                if i < split {
                                    db.get(i).to_string()
                                } else {
                                    d[i - split].clone()
                                }
                            })
                            .collect(),
                    ),
                    (ColumnData::RleInt(rb), ColumnData::Int(d)) => ColumnData::Int(
                        idxs.iter()
                            .map(|&i| {
                                let i = i as usize;
                                if i < split {
                                    rb.get(i)
                                } else {
                                    d[i - split]
                                }
                            })
                            .collect(),
                    ),
                    (ColumnData::RleDate(rb), ColumnData::Date(d)) => ColumnData::Date(
                        idxs.iter()
                            .map(|&i| {
                                let i = i as usize;
                                if i < split {
                                    rb.get(i)
                                } else {
                                    d[i - split]
                                }
                            })
                            .collect(),
                    ),
                    (ColumnData::ForInt(fb), ColumnData::Int(d)) => ColumnData::Int(
                        idxs.iter()
                            .map(|&i| {
                                let i = i as usize;
                                if i < split {
                                    fb.get(i)
                                } else {
                                    d[i - split]
                                }
                            })
                            .collect(),
                    ),
                    _ => ColumnData::Mixed(idxs.iter().map(|&i| self.get(i as usize)).collect()),
                }
            }
        }
    }
}

/// A column-store table: immutable typed base columns (block-structured,
/// possibly encoded) plus the delta region.
#[derive(Debug)]
pub struct ColumnTable {
    name: String,
    /// Base segment — immutable between compactions. Behind an `Arc` so
    /// checkpoints and background compaction snapshot it in O(1) under the
    /// write lock and do their heavy work (serialization, re-encoding)
    /// without blocking writers.
    pub(super) base: Arc<Vec<ColumnData>>,
    /// Delta segment — append-only typed builders, one per column. Behind
    /// an `Arc` with copy-on-write ([`Arc::make_mut`]): pinned snapshot
    /// views share it for free, and a writer only pays for a copy while a
    /// snapshot is actually outstanding.
    pub(super) delta: Arc<Vec<ColumnData>>,
    base_rows: usize,
    delta_rows: usize,
    /// Per-row begin version over the combined `base + delta` rid space:
    /// the version stamp at which the row became visible. Within the delta
    /// region begin stamps are nondecreasing in rid order (inserts append).
    row_begin: Arc<Vec<u64>>,
    /// Per-row end version: `u64::MAX` while the row is live; a delete
    /// marks the rid with the deleting version instead of mutating a
    /// shared bitmap. A row is visible at epoch `e` iff
    /// `begin <= e && e < end`.
    row_end: Arc<Vec<u64>>,
    /// Rids *invisible* at this table's own `version` (for a live table:
    /// tombstones; for a pinned view: tombstones plus rows born later).
    n_deleted: usize,
    /// Monotonically increasing write stamp (bumps on every insert, delete,
    /// update and compaction). Doubles as the **visibility epoch**: every
    /// read predicate evaluates visibility at `self.version`, so a pinned
    /// [`ColumnTable::view_at`] is just this struct with `version` set to
    /// the pinned epoch — live scans and snapshot scans share one code
    /// path.
    version: u64,
    /// Oldest epoch still reconstructible: compaction drops dead rows, so
    /// views older than the last compact (or initial load) are refused.
    history_floor: u64,
    /// Rows per zone-map block (recomputed adaptively per base rebuild
    /// unless pinned by [`ColumnTable::set_block_rows`]).
    block_rows: usize,
    /// Explicit block-size override (tests / experiments).
    pub(super) block_rows_override: Option<usize>,
    /// Per-column block stats headers over the base segment, rebuilt at
    /// load and at compaction. `Arc`-shared so snapshot views pin them in
    /// O(1); always replaced wholesale, never edited in place.
    zones: Arc<Vec<Vec<BlockZone>>>,
    /// Per-column per-block bloom filters over the base segment (`None` for
    /// column types blooms don't cover), rebuilt beside the zones. Empty
    /// when disabled.
    blooms: Arc<Vec<Option<Vec<BlockBloom>>>>,
    /// Bloom filters enabled (default). Disabling drops them and stops
    /// rebuilding — the bloom-on/off tests toggle this.
    blooms_enabled: bool,
    /// Base-segment encoding policy; `Auto` outside the forced-encoding
    /// test matrix. Compactions keep applying it.
    encoding_policy: EncodingPolicy,
}

impl ColumnTable {
    /// Builds typed (and, where the cost rule fires, encoded) columns from
    /// generic column-major data and computes the block stats headers.
    pub fn from_columns(name: &str, columns: &[Vec<Value>]) -> Self {
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        let base: Vec<ColumnData> = columns
            .iter()
            .map(|c| ColumnData::from_values(c).encoded())
            .collect();
        let delta = base.iter().map(|c| c.empty_like()).collect();
        let mut t = ColumnTable {
            name: name.to_string(),
            base: Arc::new(base),
            delta: Arc::new(delta),
            base_rows: rows,
            delta_rows: 0,
            row_begin: Arc::new(vec![0; rows]),
            row_end: Arc::new(vec![u64::MAX; rows]),
            n_deleted: 0,
            version: 0,
            history_floor: 0,
            block_rows: zone::default_block_rows(rows),
            block_rows_override: None,
            zones: Arc::new(Vec::new()),
            blooms: Arc::new(Vec::new()),
            blooms_enabled: true,
            encoding_policy: EncodingPolicy::Auto,
        };
        t.rebuild_zones();
        t
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of *live* rows.
    pub fn row_count(&self) -> usize {
        self.base_rows + self.delta_rows - self.n_deleted
    }

    /// Number of physical rids (`base + delta`, tombstones included).
    pub fn physical_len(&self) -> usize {
        self.base_rows + self.delta_rows
    }

    /// Rows in the base segment (tombstones included).
    pub fn base_len(&self) -> usize {
        self.base_rows
    }

    /// Rows currently in the delta region (the freshness backlog),
    /// tombstoned ones included.
    pub fn delta_len(&self) -> usize {
        self.delta_rows
    }

    /// Delta rows still live (inserted since the last compaction and not
    /// deleted again).
    pub fn live_delta_len(&self) -> usize {
        (self.base_rows..self.base_rows + self.delta_rows)
            .filter(|&rid| self.visible_at(rid, self.version))
            .count()
    }

    /// Rids invisible at this table's epoch (tombstones, for a live table).
    pub fn deleted_len(&self) -> usize {
        self.n_deleted
    }

    /// Current version stamp — also the epoch every read on this handle
    /// evaluates visibility at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Oldest epoch [`ColumnTable::view_at`] can still serve (advances to
    /// the compacting version on every compaction, which drops dead rows).
    pub fn history_floor(&self) -> u64 {
        self.history_floor
    }

    /// True when scans can borrow base columns with no selection vector:
    /// empty delta and every row visible.
    pub fn is_clean(&self) -> bool {
        self.delta_rows == 0 && self.n_deleted == 0
    }

    /// MVCC visibility: row `rid` exists at epoch `epoch`.
    #[inline]
    pub fn visible_at(&self, rid: usize, epoch: u64) -> bool {
        self.row_begin[rid] <= epoch && epoch < self.row_end[rid]
    }

    /// True when physical rid `rid` is invisible at this handle's epoch
    /// (for a live table: tombstoned).
    #[inline]
    pub fn is_deleted(&self, rid: usize) -> bool {
        !self.visible_at(rid, self.version)
    }

    /// Per-row begin/end version stamps over the physical rid space
    /// (`end == u64::MAX` ⇒ live). Exposed for recovery tests that pin
    /// byte-identical replay of the visibility metadata.
    pub fn row_versions(&self) -> (&[u64], &[u64]) {
        (&self.row_begin, &self.row_end)
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.base.len()
    }

    /// Rows per zone-map block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of zone-map blocks over the base segment.
    pub fn n_blocks(&self) -> usize {
        self.base_rows.div_ceil(self.block_rows)
    }

    /// Physical rid range of base block `b`.
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let lo = b * self.block_rows;
        lo..((b + 1) * self.block_rows).min(self.base_rows)
    }

    /// Block stats headers of column `ci` (one per base block).
    pub fn zones(&self, ci: usize) -> &[BlockZone] {
        &self.zones[ci]
    }

    /// Re-chunks the zone maps at a different block size (blocks are
    /// metadata over the contiguous base, so this rebuilds headers only —
    /// tests and small-scale benchmarks use it to get real block counts out
    /// of tiny tables).
    pub fn set_block_rows(&mut self, rows: usize) {
        self.block_rows_override = Some(rows.max(1));
        self.block_rows = rows.max(1);
        self.rebuild_zones();
    }

    fn rebuild_zones(&mut self) {
        self.zones = Arc::new(
            self.base
                .iter()
                .map(|c| zone::column_zones(c, self.block_rows))
                .collect(),
        );
        self.blooms = Arc::new(if self.blooms_enabled {
            self.base
                .iter()
                .map(|c| zone::column_blooms(c, self.block_rows))
                .collect()
        } else {
            Vec::new()
        });
    }

    /// Per-block bloom filters of column `ci`, when built for its type and
    /// blooms are enabled.
    pub(crate) fn blooms(&self, ci: usize) -> Option<&[BlockBloom]> {
        self.blooms.get(ci).and_then(|b| b.as_deref())
    }

    /// Enables/disables per-block bloom filters (rebuilding or dropping
    /// them). Pruning stays correct either way — blooms only refute more
    /// blocks.
    pub fn set_bloom_filters(&mut self, enabled: bool) {
        if self.blooms_enabled == enabled {
            return;
        }
        self.blooms_enabled = enabled;
        self.rebuild_zones();
    }

    /// Pins a base-segment [`EncodingPolicy`], re-encoding the existing base
    /// under it and rebuilding zones/blooms over the new representation.
    /// Subsequent compactions keep applying the policy; logical content and
    /// the delta region are untouched. `Auto` restores cost-rule encoding.
    pub fn set_encoding_policy(&mut self, policy: EncodingPolicy) {
        self.encoding_policy = policy;
        let new_base: Vec<ColumnData> = self
            .base
            .iter()
            .map(|c| c.clone().encoded_with(policy))
            .collect();
        self.base = Arc::new(new_base);
        self.rebuild_zones();
    }

    /// The active base-segment encoding policy.
    pub fn encoding_policy(&self) -> EncodingPolicy {
        self.encoding_policy
    }

    /// The *base segment* of column `ci` (zero-copy; pair with
    /// [`ColumnTable::is_clean`], or use [`ColumnTable::column_ref`] for the
    /// full delta-aware view).
    pub fn column(&self, ci: usize) -> &ColumnData {
        &self.base[ci]
    }

    /// Delta-aware view of column `ci`: `Single` (zero-copy base) when the
    /// delta is empty, `Chunked` otherwise.
    pub fn column_ref(&self, ci: usize) -> ColRef<'_> {
        if self.delta_rows == 0 {
            ColRef::Single(&self.base[ci])
        } else {
            ColRef::Chunked { base: &self.base[ci], delta: &self.delta[ci] }
        }
    }

    /// Generic value at (column, physical rid) — rid may point into either
    /// segment.
    pub fn value(&self, ci: usize, rid: usize) -> Value {
        if rid < self.base_rows {
            self.base[ci].get(rid)
        } else {
            self.delta[ci].get(rid - self.base_rows)
        }
    }

    /// Physical rids of rows visible at this handle's epoch, ascending
    /// (base region first, then delta) — the selection vector a delta-aware
    /// scan starts from. On a live table this is exactly the non-tombstoned
    /// set; on a pinned view it is the committed prefix at the epoch.
    pub fn live_rids(&self) -> Vec<u32> {
        (0..self.physical_len() as u32)
            .filter(|&rid| self.visible_at(rid as usize, self.version))
            .collect()
    }

    /// Pins a read-only view of this table at `epoch`: `Arc`-shared base,
    /// delta and version vectors (O(width)), with `version` — the epoch all
    /// reads evaluate visibility at — set to the pin. Delta rows born after
    /// the epoch are sliced off logically (begin stamps are nondecreasing in
    /// rid order within the delta), so the view's physical shape, clean-scan
    /// fast path and work counters are identical to a table that simply
    /// stopped at the epoch. Returns `None` when `epoch` predates the last
    /// compaction (dead rows already reclaimed) or postdates the present.
    pub fn view_at(&self, epoch: u64) -> Option<ColumnTable> {
        if epoch < self.history_floor || epoch > self.version {
            return None;
        }
        let delta_begin = &self.row_begin[self.base_rows..self.base_rows + self.delta_rows];
        let delta_rows = delta_begin.partition_point(|&b| b <= epoch);
        let n_deleted = if epoch == self.version {
            self.n_deleted
        } else {
            (0..self.base_rows + delta_rows)
                .filter(|&rid| !self.visible_at(rid, epoch))
                .count()
        };
        Some(ColumnTable {
            name: self.name.clone(),
            base: Arc::clone(&self.base),
            delta: Arc::clone(&self.delta),
            base_rows: self.base_rows,
            delta_rows,
            row_begin: Arc::clone(&self.row_begin),
            row_end: Arc::clone(&self.row_end),
            n_deleted,
            version: epoch,
            history_floor: self.history_floor,
            block_rows: self.block_rows,
            block_rows_override: self.block_rows_override,
            zones: Arc::clone(&self.zones),
            blooms: Arc::clone(&self.blooms),
            blooms_enabled: self.blooms_enabled,
            encoding_policy: self.encoding_policy,
        })
    }

    /// Appends a row to the delta region. Returns the new physical rid.
    pub fn insert(&mut self, row: &[Value]) -> u32 {
        debug_assert_eq!(row.len(), self.base.len());
        self.version += 1;
        for (col, v) in Arc::make_mut(&mut self.delta).iter_mut().zip(row) {
            col.push(v.clone());
        }
        self.delta_rows += 1;
        Arc::make_mut(&mut self.row_begin).push(self.version);
        Arc::make_mut(&mut self.row_end).push(u64::MAX);
        (self.physical_len() - 1) as u32
    }

    /// Tombstones a physical rid (marks its end version). Returns false
    /// when already deleted.
    pub fn delete(&mut self, rid: u32) -> bool {
        let r = rid as usize;
        if self.row_end[r] != u64::MAX {
            return false;
        }
        self.version += 1;
        Arc::make_mut(&mut self.row_end)[r] = self.version;
        self.n_deleted += 1;
        true
    }

    /// Out-of-place update: tombstone + delta append. Returns the new rid.
    pub fn update(&mut self, rid: u32, row: &[Value]) -> u32 {
        self.delete(rid);
        self.insert(row)
    }

    /// The one delta → base merge: gathers the rows visible at this
    /// handle's epoch into fresh base columns, re-running the encoding cost
    /// rule and rebuilding every block stats header (so zone maps left
    /// loose by deletes tighten back to exact). Reads only `Arc`-shared
    /// state, so compaction runs it on a pinned head view — off the write
    /// lock in the background, or under it for a synchronous compact — and
    /// [`ColumnTable::install_compacted`] swaps the result in.
    pub(crate) fn compacted(&self) -> CompactedCols {
        let live = self.live_rids();
        let base: Vec<ColumnData> = (0..self.width())
            .map(|ci| {
                self.column_ref(ci)
                    .gather_rows(&live)
                    .encoded_with(self.encoding_policy)
            })
            .collect();
        let block_rows = self
            .block_rows_override
            .unwrap_or_else(|| zone::default_block_rows(live.len()));
        let zones = base.iter().map(|c| zone::column_zones(c, block_rows)).collect();
        let blooms = if self.blooms_enabled {
            base.iter().map(|c| zone::column_blooms(c, block_rows)).collect()
        } else {
            Vec::new()
        };
        CompactedCols {
            base,
            n_live: live.len(),
            block_rows,
            zones,
            blooms,
            new_version: self.version + 1,
        }
    }

    /// Materializes the selected physical rids restricted to `needed`
    /// columns; output row layout follows the order of `needed`.
    pub fn gather(&self, needed: &[usize], selection: &[u32]) -> Vec<Vec<Value>> {
        selection
            .iter()
            .map(|&rid| {
                needed
                    .iter()
                    .map(|&ci| self.value(ci, rid as usize))
                    .collect()
            })
            .collect()
    }

    /// Rebuilds a table from recovered (deserialized) physical state.
    /// Zones are recomputed, not persisted — they are deterministic over
    /// the base, and recomputing keeps segment files smaller and simpler.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        base: Vec<ColumnData>,
        delta: Vec<ColumnData>,
        row_begin: Vec<u64>,
        row_end: Vec<u64>,
        version: u64,
        history_floor: u64,
        block_rows_override: Option<usize>,
    ) -> ColumnTable {
        let base_rows = base.first().map(|c| c.len()).unwrap_or(0);
        let delta_rows = delta.first().map(|c| c.len()).unwrap_or(0);
        let n_deleted = row_begin
            .iter()
            .zip(&row_end)
            .filter(|&(&b, &e)| !(b <= version && version < e))
            .count();
        let block_rows = block_rows_override.unwrap_or_else(|| zone::default_block_rows(base_rows));
        let mut t = ColumnTable {
            name,
            base: Arc::new(base),
            delta: Arc::new(delta),
            base_rows,
            delta_rows,
            row_begin: Arc::new(row_begin),
            row_end: Arc::new(row_end),
            n_deleted,
            version,
            history_floor,
            block_rows,
            block_rows_override,
            zones: Arc::new(Vec::new()),
            blooms: Arc::new(Vec::new()),
            blooms_enabled: true,
            encoding_policy: EncodingPolicy::Auto,
        };
        t.rebuild_zones();
        t
    }

    /// Installs a base built by [`ColumnTable::compacted`] from a view
    /// pinned at `new_version - 1`: fresh empty delta, every row live from
    /// `new_version` on, and the history floor advanced to it — epochs
    /// older than the compaction can no longer be pinned (outstanding views
    /// keep their own `Arc`s). Physical rids re-pack to `0..row_count()`.
    pub(crate) fn install_compacted(&mut self, built: CompactedCols) {
        debug_assert_eq!(built.base.len(), self.base.len(), "width preserved");
        self.base_rows = built.n_live;
        self.delta = Arc::new(built.base.iter().map(|c| c.empty_like()).collect());
        self.base = Arc::new(built.base);
        self.delta_rows = 0;
        self.version = built.new_version;
        self.history_floor = built.new_version;
        self.row_begin = Arc::new(vec![built.new_version; built.n_live]);
        self.row_end = Arc::new(vec![u64::MAX; built.n_live]);
        self.n_deleted = 0;
        self.block_rows = built.block_rows;
        self.zones = Arc::new(built.zones);
        self.blooms = Arc::new(if self.blooms_enabled { built.blooms } else { Vec::new() });
    }
}

/// A compacted base built by [`ColumnTable::compacted`], ready for
/// [`ColumnTable::install_compacted`] under the write lock.
#[derive(Debug)]
pub(crate) struct CompactedCols {
    /// Re-gathered, re-encoded base columns (live rows only).
    pub base: Vec<ColumnData>,
    /// Live row count of the new base.
    pub n_live: usize,
    /// Zone block size for the new base.
    pub block_rows: usize,
    /// Precomputed zone headers for the new base.
    pub zones: Vec<Vec<BlockZone>>,
    /// Precomputed per-block bloom filters for the new base.
    pub blooms: Vec<Option<Vec<BlockBloom>>>,
    /// Version the table takes at install: snapshot version + 1, exactly
    /// the stamp a synchronous compact at snapshot time would have left,
    /// so WAL replay (which re-runs the compact at that point) converges
    /// on identical version numbers.
    pub new_version: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_storage_chosen_per_column() {
        let cols = vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Float(0.5), Value::Float(1.5)],
            vec![Value::Str("a".into()), Value::Str("b".into())],
            vec![Value::Date(100), Value::Date(200)],
            vec![Value::Int(1), Value::Null],
        ];
        let t = ColumnTable::from_columns("t", &cols);
        assert!(matches!(t.column(0), ColumnData::Int(_)));
        assert!(matches!(t.column(1), ColumnData::Float(_)));
        assert!(matches!(t.column(2), ColumnData::Str(_)));
        assert!(matches!(t.column(3), ColumnData::Date(_)));
        // A NULL no longer demotes the column to Mixed: typed + null mask.
        assert!(matches!(t.column(4), ColumnData::Nullable { .. }));
        assert_eq!(t.column(4).get(0), Value::Int(1));
        assert_eq!(t.column(4).get(1), Value::Null);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.width(), 5);
        assert_eq!(t.name(), "t");
        assert!(t.is_clean());
        assert_eq!(t.version(), 0);
    }

    #[test]
    fn leading_null_keeps_typed_storage() {
        let col = ColumnData::from_values(&[
            Value::Null,
            Value::Str("x".into()),
            Value::Null,
            Value::Str("y".into()),
        ]);
        let ColumnData::Nullable { nulls, values } = &col else {
            panic!("expected Nullable, got {col:?}");
        };
        assert_eq!(nulls, &vec![true, false, true, false]);
        assert!(matches!(**values, ColumnData::Str(_)));
        assert_eq!(col.get(0), Value::Null);
        assert_eq!(col.get(1), Value::Str("x".into()));
        // All-NULL and genuinely mixed columns still fall back.
        assert!(matches!(
            ColumnData::from_values(&[Value::Null, Value::Null]),
            ColumnData::Mixed(_)
        ));
        assert!(matches!(
            ColumnData::from_values(&[Value::Int(1), Value::Str("x".into())]),
            ColumnData::Mixed(_)
        ));
    }

    #[test]
    fn nullable_push_append_gather_round_trip() {
        let mut col = ColumnData::Int(vec![1, 2]);
        col.push(Value::Null); // promotes instead of demoting
        col.push(Value::Int(4));
        assert!(matches!(col, ColumnData::Nullable { .. }));
        assert_eq!(col.len(), 4);
        assert_eq!(col.get(2), Value::Null);
        assert_eq!(col.get(3), Value::Int(4));
        let gathered = col.gather_rows(&[3, 2, 0]);
        assert!(matches!(gathered, ColumnData::Nullable { .. }));
        assert_eq!(gathered.get(0), Value::Int(4));
        assert_eq!(gathered.get(1), Value::Null);
        assert_eq!(gathered.get(2), Value::Int(1));
        // Nullable + plain append keeps the mask aligned.
        let mut a = ColumnData::from_values(&[Value::Null, Value::Int(1)]);
        a.append(ColumnData::Int(vec![7, 8]));
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(0), Value::Null);
        assert_eq!(a.get(3), Value::Int(8));
        // A true type mismatch still demotes.
        col.push(Value::Str("oops".into()));
        assert!(matches!(col, ColumnData::Mixed(_)));
        assert_eq!(col.get(2), Value::Null);
    }

    #[test]
    fn dictionary_encoding_round_trips_low_cardinality_strings() {
        let strings: Vec<Value> = (0..200)
            .map(|i| Value::Str(["red", "green", "blue"][i % 3].to_string()))
            .collect();
        let col = ColumnData::from_values(&strings).encoded();
        let ColumnData::Dict(d) = &col else {
            panic!("expected Dict, got plain");
        };
        assert_eq!(d.values.len(), 3);
        assert_eq!(d.code_of("green"), Some(1));
        assert_eq!(d.code_of("mauve"), None);
        for (i, v) in strings.iter().enumerate() {
            assert_eq!(&col.get(i), v);
        }
        // Gather keeps the dictionary (codes copied, strings shared).
        let g = col.gather_rows(&[0, 3, 1]);
        assert!(matches!(g, ColumnData::Dict(_)));
        assert_eq!(g.get(2), Value::Str("green".into()));
        // High-cardinality strings stay plain.
        let unique: Vec<Value> = (0..200).map(|i| Value::Str(format!("s{i}"))).collect();
        assert!(matches!(
            ColumnData::from_values(&unique).encoded(),
            ColumnData::Str(_)
        ));
    }

    #[test]
    fn append_keeps_a_shared_dictionary_and_demotes_unrelated_ones() {
        let strs = |names: &[&str], n: usize| -> Vec<Value> {
            (0..n).map(|i| Value::Str(names[i % names.len()].to_string())).collect()
        };
        let col = ColumnData::from_values(&strs(&["red", "green", "blue"], 200)).encoded();
        // Two morsel gathers of one column share its table: codes concatenate.
        let mut spliced = col.gather_rows(&[0, 1, 2]);
        spliced.append(col.gather_rows(&[5, 4]));
        let ColumnData::Dict(d) = &spliced else {
            panic!("pieces of one dictionary column must stay Dict");
        };
        assert_eq!(d.codes, vec![0, 1, 2, 2, 1]);
        let ColumnData::Dict(orig) = &col else { panic!("expected Dict") };
        assert!(Arc::ptr_eq(&d.values, &orig.values), "the table is shared, not copied");
        // An equal table built separately (a reloaded segment) also splices.
        let twin = ColumnData::from_values(&strs(&["red", "green", "blue"], 200)).encoded();
        let mut spliced = col.gather_rows(&[0]);
        spliced.append(twin.gather_rows(&[1]));
        assert!(matches!(spliced, ColumnData::Dict(_)));
        // Different dictionaries number their values differently: demote,
        // and every cell still reads back unchanged.
        let other = ColumnData::from_values(&strs(&["blue", "red"], 200)).encoded();
        let mut mixed = col.gather_rows(&[0, 1]);
        mixed.append(other.gather_rows(&[0, 1]));
        assert!(matches!(mixed, ColumnData::Mixed(_)));
        let got: Vec<Value> = (0..4).map(|i| mixed.get(i)).collect();
        assert_eq!(got, strs(&["red", "green", "blue", "red"], 4));
    }

    #[test]
    fn rle_encoding_round_trips_run_heavy_ints_and_dates() {
        let ints: Vec<Value> = (0..256).map(|i| Value::Int((i / 64) as i64)).collect();
        let col = ColumnData::from_values(&ints).encoded();
        let ColumnData::RleInt(r) = &col else {
            panic!("expected RleInt");
        };
        assert_eq!(r.n_runs(), 4);
        assert_eq!(col.len(), 256);
        for (i, v) in ints.iter().enumerate() {
            assert_eq!(&col.get(i), v);
        }
        // Gather decodes.
        let g = col.gather_rows(&[0, 200]);
        assert!(matches!(g, ColumnData::Int(_)));
        assert_eq!(g.get(1), Value::Int(3));
        let dates: Vec<Value> = (0..128).map(|i| Value::Date(i / 32)).collect();
        assert!(matches!(
            ColumnData::from_values(&dates).encoded(),
            ColumnData::RleDate(_)
        ));
        // Narrow-domain shuffled ints FOR-encode; full-width noise stays plain.
        let random: Vec<Value> = (0..256).map(|i| Value::Int((i * 37 % 251) as i64)).collect();
        assert!(matches!(
            ColumnData::from_values(&random).encoded(),
            ColumnData::ForInt(_)
        ));
        let noise: Vec<Value> = (0..256u64)
            .map(|i| Value::Int(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64))
            .collect();
        assert!(matches!(
            ColumnData::from_values(&noise).encoded(),
            ColumnData::Int(_)
        ));
    }

    #[test]
    fn for_encoding_round_trips_and_packs_blocks() {
        // Near-sequential keys spanning several FOR blocks, with a straddling
        // width (9 bits ⇒ deltas cross word boundaries) and a constant block.
        let n = FOR_BLOCK_ROWS * 2 + 100;
        let ints: Vec<i64> = (0..n as i64)
            .map(|i| if i < (FOR_BLOCK_ROWS) as i64 { 500 } else { i * 2 + (i % 3) })
            .collect();
        let vals: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        let col = ColumnData::from_values(&vals).encoded();
        let ColumnData::ForInt(f) = &col else {
            panic!("expected ForInt, got {col:?}");
        };
        assert_eq!(f.n_blocks(), 3);
        assert_eq!(f.widths[0], 0, "constant block packs to zero bits");
        assert_eq!(col.len(), n);
        for (i, &x) in ints.iter().enumerate() {
            assert_eq!(col.get(i), Value::Int(x), "get at {i}");
        }
        let mut scratch = Vec::new();
        for b in 0..f.n_blocks() {
            f.decode_block_into(b, &mut scratch);
            let r = f.block_range(b);
            assert_eq!(&scratch[..], &ints[r.start..r.end], "block {b}");
        }
        // Gather decodes to plain (a gathered subset loses block structure).
        let g = col.gather_rows(&[0, (n - 1) as u32, (FOR_BLOCK_ROWS + 7) as u32]);
        assert!(matches!(g, ColumnData::Int(_)));
        assert_eq!(g.get(1), Value::Int(ints[n - 1]));
        // A single wide block (width > 32, word-straddling deltas) is legal
        // when narrow blocks subsidize the average.
        let mut mixed: Vec<i64> = vec![7; FOR_BLOCK_ROWS];
        mixed.extend((0..FOR_BLOCK_ROWS as i64).map(|i| i << 40));
        let f = ForInt::build(&mixed).expect("narrow block subsidizes the wide one");
        assert!(f.widths[1] > 32);
        for (i, &x) in mixed.iter().enumerate() {
            assert_eq!(f.get(i), x, "wide get at {i}");
        }
    }

    #[test]
    fn small_columns_are_never_encoded() {
        let small: Vec<Value> = (0..8).map(|_| Value::Str("x".into())).collect();
        assert!(matches!(
            ColumnData::from_values(&small).encoded(),
            ColumnData::Str(_)
        ));
    }

    #[test]
    fn get_round_trips_values() {
        let cols = vec![vec![Value::Int(7), Value::Int(9)]];
        let t = ColumnTable::from_columns("t", &cols);
        assert_eq!(t.value(0, 1), Value::Int(9));
        assert_eq!(t.column(0).len(), 2);
        assert!(!t.column(0).is_empty());
    }

    #[test]
    fn gather_respects_column_subset_and_order() {
        let cols = vec![
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            vec![
                Value::Str("a".into()),
                Value::Str("b".into()),
                Value::Str("c".into()),
            ],
        ];
        let t = ColumnTable::from_columns("t", &cols);
        let out = t.gather(&[1, 0], &[2, 0]);
        assert_eq!(
            out,
            vec![
                vec![Value::Str("c".into()), Value::Int(3)],
                vec![Value::Str("a".into()), Value::Int(1)],
            ]
        );
    }

    /// A synchronous compaction through the one merge (build, install);
    /// a clean table is left alone, as `StoredTable::compact`'s callers do.
    fn compact(t: &mut ColumnTable) {
        if !t.is_clean() {
            let built = t.compacted();
            t.install_compacted(built);
        }
    }

    fn two_col_table() -> ColumnTable {
        ColumnTable::from_columns(
            "t",
            &[
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Str("a".into()), Value::Str("b".into())],
            ],
        )
    }

    #[test]
    fn insert_lands_in_delta_and_bumps_version() {
        let mut t = two_col_table();
        let rid = t.insert(&[Value::Int(3), Value::Str("c".into())]);
        assert_eq!(rid, 2);
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.delta_len(), 1);
        assert!(!t.is_clean());
        assert_eq!(t.version(), 1);
        assert_eq!(t.value(0, 2), Value::Int(3));
        // delta builder stays typed
        assert!(matches!(t.column_ref(0), ColRef::Chunked { .. }));
        assert_eq!(t.column_ref(0).get(2), Value::Int(3));
    }

    #[test]
    fn delete_masks_rid_and_update_relocates() {
        let mut t = two_col_table();
        assert!(t.delete(0));
        assert!(!t.delete(0));
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.live_rids(), vec![1]);
        let new_rid = t.update(1, &[Value::Int(20), Value::Str("b2".into())]);
        assert_eq!(new_rid, 2);
        assert_eq!(t.live_rids(), vec![2]);
        assert_eq!(t.value(0, 2), Value::Int(20));
    }

    #[test]
    fn null_insert_keeps_delta_builder_typed() {
        let mut t = two_col_table();
        t.insert(&[Value::Null, Value::Str("c".into())]);
        assert!(matches!(t.column(0), ColumnData::Int(_))); // base untouched
        assert_eq!(t.column_ref(0).get(2), Value::Null);
        // The delta builder grew a null mask instead of demoting to Mixed.
        t.insert(&[Value::Int(9), Value::Str("d".into())]);
        assert_eq!(t.column_ref(0).get(3), Value::Int(9));
    }

    #[test]
    fn compact_merges_delta_and_restores_clean_path() {
        let mut t = two_col_table();
        t.insert(&[Value::Int(3), Value::Str("c".into())]);
        t.delete(0);
        let v = t.version();
        compact(&mut t);
        assert!(t.is_clean());
        assert_eq!(t.version(), v + 1);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.physical_len(), 2);
        // typed base preserved through compaction
        assert!(matches!(t.column(0), ColumnData::Int(_)));
        assert_eq!(t.value(0, 0), Value::Int(2));
        assert_eq!(t.value(0, 1), Value::Int(3));
        // compaction of a clean table is a no-op (no version bump)
        compact(&mut t);
        assert_eq!(t.version(), v + 1);
    }

    #[test]
    fn zones_built_at_load_and_rebuilt_by_compact() {
        let cols = vec![(0..20).map(Value::Int).collect::<Vec<_>>()];
        let mut t = ColumnTable::from_columns("t", &cols);
        t.set_block_rows(8);
        assert_eq!(t.n_blocks(), 3);
        assert_eq!(t.block_range(2), 16..20);
        assert_eq!(t.zones(0)[0].max, Some(Value::Int(7)));
        assert_eq!(t.zones(0)[2].min, Some(Value::Int(16)));
        // A delta insert does not touch base headers (delta is never pruned).
        t.insert(&[Value::Int(999)]);
        assert_eq!(t.zones(0)[2].max, Some(Value::Int(19)));
        // Compaction folds the delta in and rebuilds headers.
        compact(&mut t);
        assert_eq!(t.n_blocks(), 3);
        let last = t.zones(0).last().unwrap();
        assert_eq!(last.max, Some(Value::Int(999)));
        assert_eq!(last.rows, 5);
    }

    #[test]
    fn colref_gather_spans_segments() {
        let mut t = two_col_table();
        t.insert(&[Value::Int(3), Value::Str("c".into())]);
        let gathered = t.column_ref(0).gather_rows(&[2, 0]);
        assert!(matches!(gathered, ColumnData::Int(_)));
        assert_eq!(gathered.get(0), Value::Int(3));
        assert_eq!(gathered.get(1), Value::Int(1));
        let dense = t.column_ref(1).gather_rows(&[0, 1, 2]);
        assert_eq!(dense.len(), 3);
        assert_eq!(dense.get(2), Value::Str("c".into()));
    }

    #[test]
    fn chunked_gather_decodes_encoded_base_plus_plain_delta() {
        let strings: Vec<Value> = (0..100)
            .map(|i| Value::Str(["hot", "cold"][i % 2].to_string()))
            .collect();
        let mut t = ColumnTable::from_columns("t", &[strings]);
        assert!(matches!(t.column(0), ColumnData::Dict(_)));
        t.insert(&[Value::Str("warm".into())]);
        let g = t.column_ref(0).gather_rows(&[0, 100, 1]);
        assert!(matches!(g, ColumnData::Str(_)));
        assert_eq!(g.get(0), Value::Str("hot".into()));
        assert_eq!(g.get(1), Value::Str("warm".into()));
        assert_eq!(g.get(2), Value::Str("cold".into()));
        // Compaction re-runs the cost rule over the merged column.
        compact(&mut t);
        assert!(matches!(t.column(0), ColumnData::Dict(_)));
        assert_eq!(t.value(0, 100), Value::Str("warm".into()));
    }
}
