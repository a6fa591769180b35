//! Column-at-a-time access shared by the batch executor's aggregation and
//! top-N: how a key or argument expression reaches them ([`ExprCol`]), typed
//! reads of its cells ([`Num`], [`with_numeric!`]), the decode state that
//! lets a reader unpack each FOR block or find each RLE run once
//! ([`Cursor`], shared with the filter and join kernels) and the
//! guard-polled row loops every pass runs in ([`each_row`], [`each_block`]).

use super::guard::ExecGuard;
use super::parallel::{par_eval_batch, ExecConfig};
use super::GUARD_CHECK_ROWS;
use crate::eval::{EvalError, Schema};
use crate::storage::col_store::{ColRef, ColumnData, ForInt, FOR_BLOCK_ROWS};
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::cmp::Ordering;
use std::ops::Range;

/// The values of one key or argument expression over a batch.
pub(crate) enum ExprCol<'a> {
    /// A bare reference to a contiguous batch column: borrowed as stored
    /// (encoding intact, nothing copied) and read through the batch's
    /// selection.
    Stored(&'a ColumnData),
    /// Any other expression, evaluated into a dense column aligned with the
    /// selection.
    Dense(ColumnData),
}

impl ExprCol<'_> {
    pub(crate) fn data(&self) -> &ColumnData {
        match self {
            ExprCol::Stored(c) => c,
            ExprCol::Dense(c) => c,
        }
    }

    /// Index into [`ExprCol::data`] of dense position `j`.
    #[inline]
    pub(crate) fn index(&self, sel: Option<&[u32]>, j: usize) -> usize {
        match (self, sel) {
            (ExprCol::Stored(_), Some(s)) => s[j] as usize,
            _ => j,
        }
    }

    /// The selection [`ExprCol::data`] is read through: the batch's for a
    /// stored column, none (dense positions) for a computed one.
    pub(crate) fn sel<'s>(&self, sel: Option<&'s [u32]>) -> Option<&'s [u32]> {
        match self {
            ExprCol::Stored(_) => sel,
            ExprCol::Dense(_) => None,
        }
    }
}

/// Evaluates `expr` for a column-at-a-time consumer: a bare column held in
/// one segment passes through as stored; everything else (computed
/// expressions, a dirty table's base+delta view) evaluates morsel-parallel
/// into a dense column.
pub(crate) fn eval_col<'a>(
    cfg: &ExecConfig,
    expr: &BoundExpr,
    schema: &Schema,
    cols: &[Option<ColRef<'a>>],
    sel: Option<&[u32]>,
    rows: usize,
) -> Result<ExprCol<'a>, EvalError> {
    if let BoundExpr::Column(c) = expr {
        let pos = schema.position(c.table_slot, c.column_idx);
        if let Some(Some(ColRef::Single(col))) = pos.and_then(|p| cols.get(p)) {
            return Ok(ExprCol::Stored(col));
        }
    }
    par_eval_batch(cfg, expr, schema, cols, sel, rows).map(ExprCol::Dense)
}

/// Runs `f` over dense positions `0..n` in ascending order, polling the
/// guard every [`GUARD_CHECK_ROWS`] rows. Returns false when the guard
/// tripped and the pass was abandoned; the caller's next `check` surfaces
/// the cause and discards the partial result.
pub(crate) fn each_row(n: usize, guard: &ExecGuard, mut f: impl FnMut(usize)) -> bool {
    for lo in (0..n).step_by(GUARD_CHECK_ROWS) {
        if guard.poll() {
            return false;
        }
        for j in lo..(lo + GUARD_CHECK_ROWS).min(n) {
            f(j);
        }
    }
    true
}

/// [`each_row`] handing `f` one block of [`GUARD_CHECK_ROWS`] positions at
/// a time.
pub(crate) fn each_block(n: usize, guard: &ExecGuard, mut f: impl FnMut(Range<usize>)) -> bool {
    for lo in (0..n).step_by(GUARD_CHECK_ROWS) {
        if guard.poll() {
            return false;
        }
        f(lo..(lo + GUARD_CHECK_ROWS).min(n));
    }
    true
}

/// A fixed-width cell type the typed kernels read without going through
/// [`Value`]. Comparisons and widening are the ones [`Value::total_cmp`] and
/// [`Value::as_float`] apply within one type.
pub(crate) trait Num: Copy {
    /// True for `i64`: the only type whose SUM stays an integer.
    const IS_INT: bool;
    /// The value itself for integers and dates, the bit pattern for floats —
    /// equal exactly when `total_cmp` says equal.
    fn raw(self) -> i64;
    /// An integer whose order is `total_cmp`'s: the value itself for
    /// integers and dates; for floats the bit pattern with a negative
    /// number's magnitude bits flipped (what `f64::total_cmp` compares).
    fn order_key(self) -> i64 {
        self.raw()
    }
    fn as_f64(self) -> f64;
    fn total_cmp(self, other: Self) -> Ordering;
    fn value(self) -> Value;
}

impl Num for i64 {
    const IS_INT: bool = true;
    fn raw(self) -> i64 {
        self
    }
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn total_cmp(self, other: Self) -> Ordering {
        self.cmp(&other)
    }
    fn value(self) -> Value {
        Value::Int(self)
    }
}

impl Num for f64 {
    const IS_INT: bool = false;
    fn raw(self) -> i64 {
        self.to_bits() as i64
    }
    fn order_key(self) -> i64 {
        let bits = self.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }
    fn as_f64(self) -> f64 {
        self
    }
    fn total_cmp(self, other: Self) -> Ordering {
        f64::total_cmp(&self, &other)
    }
    fn value(self) -> Value {
        Value::Float(self)
    }
}

impl Num for i32 {
    const IS_INT: bool = false;
    fn raw(self) -> i64 {
        self as i64
    }
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn total_cmp(self, other: Self) -> Ordering {
        self.cmp(&other)
    }
    fn value(self) -> Value {
        Value::Date(self)
    }
}

/// Decode state of one encoded segment: the FOR block last unpacked and the
/// RLE run last found, reused while consecutive reads stay inside them — so
/// a pass in row order unpacks each block, and finds each run, once.
#[derive(Default)]
pub(crate) struct Cursor {
    block: usize,
    decoded: Vec<i64>,
    run: usize,
}

impl Cursor {
    /// The run of `ends` (an RLE column's run ends) holding row `i`.
    #[inline]
    pub(crate) fn run_of(&mut self, ends: &[u32], i: usize) -> usize {
        let start = self.run.checked_sub(1).map_or(0, |r| ends[r] as usize);
        if i < start || i >= ends[self.run] as usize {
            self.run = ends.partition_point(|&e| e as usize <= i);
        }
        self.run
    }

    /// Row `i` of `f`.
    #[inline]
    pub(crate) fn for_cell(&mut self, f: &ForInt, i: usize) -> i64 {
        let b = i / FOR_BLOCK_ROWS;
        if self.decoded.is_empty() || b != self.block {
            f.decode_block_into(b, &mut self.decoded);
            self.block = b;
        }
        self.decoded[i % FOR_BLOCK_ROWS]
    }
}

/// Evaluates `$body` with `$read` bound to a typed `FnMut(usize) -> Option<T>`
/// cell reader (`None` = NULL, `T:` [`Num`]) when `$col` holds integers,
/// floats or dates in any encoding; yields `Some($body)`, or `None` for
/// string and mixed columns, which have no typed reader. Encoded readers
/// carry a [`Cursor`], so `$body` moves `$read` into whatever loop calls it.
macro_rules! with_numeric {
    ($col:expr, |$read:ident| $body:expr) => {{
        use $crate::exec::typed::Cursor;
        use $crate::storage::col_store::ColumnData;
        match $col {
            ColumnData::Int(v) => {
                let $read = |i: usize| Some(v[i]);
                Some($body)
            }
            ColumnData::Float(v) => {
                let $read = |i: usize| Some(v[i]);
                Some($body)
            }
            ColumnData::Date(v) => {
                let $read = |i: usize| Some(v[i]);
                Some($body)
            }
            ColumnData::RleInt(r) => {
                let mut cur = Cursor::default();
                let $read = move |i: usize| Some(r.vals[cur.run_of(&r.ends, i)]);
                Some($body)
            }
            ColumnData::RleDate(r) => {
                let mut cur = Cursor::default();
                let $read = move |i: usize| Some(r.vals[cur.run_of(&r.ends, i)]);
                Some($body)
            }
            ColumnData::ForInt(f) => {
                let mut cur = Cursor::default();
                let $read = move |i: usize| Some(cur.for_cell(f, i));
                Some($body)
            }
            ColumnData::Nullable { nulls, values } => match &**values {
                ColumnData::Int(v) => {
                    let $read = |i: usize| (!nulls[i]).then(|| v[i]);
                    Some($body)
                }
                ColumnData::Float(v) => {
                    let $read = |i: usize| (!nulls[i]).then(|| v[i]);
                    Some($body)
                }
                ColumnData::Date(v) => {
                    let $read = |i: usize| (!nulls[i]).then(|| v[i]);
                    Some($body)
                }
                _ => None,
            },
            _ => None,
        }
    }};
}
pub(crate) use with_numeric;
