//! Column-at-a-time access shared by the batch executor's aggregation and
//! top-N: how a key or argument expression reaches them ([`ExprCol`]), typed
//! reads of its cells ([`Num`], [`with_numeric!`]) and the guard-polled row
//! loops every pass runs in ([`each_row`], [`each_block`]) — the hash join's
//! serial build and probe included.

use super::guard::ExecGuard;
use super::parallel::{par_eval_batch, ExecConfig};
use super::GUARD_CHECK_ROWS;
use crate::eval::{EvalError, Schema};
use crate::storage::col_store::{ColRef, ColumnData};
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

    /// Cell at dense position `j`.
    pub(crate) fn value(&self, sel: Option<&[u32]>, j: usize) -> Value {
        self.data().get(self.index(sel, j))
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

/// [`Value::total_cmp`] over typed nullable cells: NULL sorts first.
pub(crate) fn cmp_nullable<T: Num>(a: Option<T>, b: Option<T>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, _) => Ordering::Less,
        (_, None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(y),
    }
}

/// Evaluates `$body` with `$read` bound to a typed `Fn(usize) -> Option<T>`
/// cell reader (`None` = NULL, `T:` [`Num`]) when `$col` holds integers,
/// floats or dates in any encoding; yields `Some($body)`, or `None` for
/// string and mixed columns, which have no typed reader.
macro_rules! with_numeric {
    ($col:expr, |$read:ident| $body:expr) => {{
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
                let $read = |i: usize| Some(r.get(i));
                Some($body)
            }
            ColumnData::RleDate(r) => {
                let $read = |i: usize| Some(r.get(i));
                Some($body)
            }
            ColumnData::ForInt(f) => {
                let $read = |i: usize| Some(f.get(i));
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
