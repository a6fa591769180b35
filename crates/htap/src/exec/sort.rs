//! Sort and top-N execution: the one place the order of `ORDER BY` is
//! stated.
//!
//! Rows order by their key cells alone, compared by [`cmp_keys`]. Rows with
//! equal keys keep their input order everywhere: [`sort_positions`] is a
//! stable sort, and the bounded buffer [`top_n_by`] inserts a row after
//! every buffered row it ties with, so a top-N keeps exactly the rows the
//! stable full sort puts first. Both executors lay their keys out as one
//! vector of cells, row after row — the row interpreter reads them in
//! place through compiled expressions ([`sort`]), the vectorized executor
//! from key columns through its selection ([`sort_indices`]) — and return
//! positions; rows are materialized by the consumer. [`output_sort`] and
//! the engines' result check ([`result_order`]) sort materialized rows the
//! same way.

use super::guard::ExecGuard;
use super::typed::{each_block, each_row, with_numeric, ExprCol, Num};
use super::{ExecError, Row, Rows, WorkCounters, GUARD_CHECK_ROWS};
use crate::eval::{cell_total_cmp, Cell, RowExpr, Schema};
use qpe_sql::binder::BoundExpr;
use std::cmp::Ordering;

/// The order of `ORDER BY`: two rows' key cells compared key by key under
/// `Value::total_cmp`'s order, each reversed where `descs` says descending;
/// the first unequal key decides.
fn cmp_keys(a: &[Cell], b: &[Cell], descs: &[bool]) -> Ordering {
    for ((&x, &y), &desc) in a.iter().zip(b).zip(descs) {
        let o = cell_total_cmp(x, y);
        if o != Ordering::Equal {
            return if desc { o.reverse() } else { o };
        }
    }
    Ordering::Equal
}

/// The one sort: the positions `0..n` of rows whose key cells `cells` holds
/// row after row (`descs.len()` each), in [`cmp_keys`] order, ties in input
/// order.
fn sort_positions(n: usize, cells: &[Cell], descs: &[bool]) -> Vec<usize> {
    let w = descs.len();
    let key = |i: usize| &cells[i * w..(i + 1) * w];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp_keys(key(a), key(b), descs));
    order
}

/// The one bounded buffer: the positions of the best `limit + offset` of
/// `n` rows under `cmp`, best first, less the first `offset`. A row goes
/// in after every buffered row it ties with, and a full buffer takes only a
/// row that beats its worst key, held in a local; so the buffer always
/// holds the first rows of the stable sort of the rows seen. Each row
/// charges one push.
fn top_n_by<K: Clone>(
    counters: &mut WorkCounters,
    n: usize,
    (limit, offset): (u64, u64),
    guard: &ExecGuard,
    mut key_at: impl FnMut(usize) -> K,
    cmp: impl Fn(&K, &K) -> Ordering,
) -> Vec<usize> {
    let need = limit.saturating_add(offset) as usize;
    if need == 0 {
        return Vec::new();
    }
    // A LIMIT far past the input reserves only what the input can fill.
    let mut buf: Vec<(K, usize)> = Vec::with_capacity(need.min(n) + 1);
    // The worst buffered key, once the buffer is full.
    let mut worst: Option<K> = None;
    let done = each_block(n, guard, |rows| {
        counters.topn_pushes += rows.len() as u64;
        for j in rows {
            let k = key_at(j);
            if worst.as_ref().is_none_or(|w| cmp(&k, w) == Ordering::Less) {
                let pos = buf.partition_point(|(b, _)| cmp(b, &k) != Ordering::Greater);
                buf.insert(pos, (k, j));
                buf.truncate(need);
                if buf.len() == need {
                    worst = Some(buf[need - 1].0.clone());
                }
            }
        }
    });
    if !done {
        // Abandon on trip; the caller's next check discards this.
        return Vec::new();
    }
    buf.into_iter().skip(offset as usize).map(|(_, j)| j).collect()
}

/// `ORDER BY` over key cells laid out as [`sort_positions`] takes them: all
/// `n` positions in order, or with `top` = `(limit, offset)` only those a
/// top-N keeps.
fn order_cells(
    counters: &mut WorkCounters,
    n: usize,
    cells: &[Cell],
    descs: &[bool],
    top: Option<(u64, u64)>,
    guard: &ExecGuard,
) -> Vec<usize> {
    let Some(top) = top else {
        charge_sort_comparisons(counters, n as u64);
        return sort_positions(n, cells, descs);
    };
    let w = descs.len();
    let key = |i: usize| &cells[i * w..(i + 1) * w];
    top_n_by(counters, n, top, guard, key, |a, b| cmp_keys(a, b, descs))
}

/// The deterministic n·log2(n) comparison charge shared by both executors —
/// counted asymptotically rather than by instrumenting the comparator, so
/// work does not depend on sort-implementation internals.
fn charge_sort_comparisons(counters: &mut WorkCounters, n: u64) {
    counters.sort_comparisons += n * (64 - n.max(1).leading_zeros() as u64).max(1);
}

/// The row interpreter's `ORDER BY` on expression keys, read in place: the
/// positions of `rows` in key order — all of them (a full sort, TP's only
/// strategy without an index), or with `top` = `(limit, offset)` the best
/// `limit + offset` less the first `offset` (AP's top-N operator).
pub(super) fn sort(
    counters: &mut WorkCounters,
    rows: &Rows<'_>,
    schema: &Schema,
    keys: &[(BoundExpr, bool)],
    top: Option<(u64, u64)>,
    guard: &ExecGuard,
) -> Result<Vec<usize>, ExecError> {
    let layout = rows.layout(schema);
    let (exprs, descs): (Vec<RowExpr>, Vec<bool>) =
        keys.iter().map(|(k, desc)| (RowExpr::new(k, &layout), *desc)).unzip();
    let mut cells = Vec::with_capacity(rows.len() * exprs.len());
    rows.try_for_each(|i, row| {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        for e in &exprs {
            cells.push(e.eval(row)?);
        }
        Ok::<_, ExecError>(())
    })?;
    let order = order_cells(counters, rows.len(), &cells, &descs, top, guard);
    guard.check()?;
    Ok(order)
}

/// The vectorized executor's `ORDER BY` over key columns and the batch's
/// `n` rows (`sel`: its selection, `None`: dense): the physical rows in key
/// order, all of them or, with `top`, those a top-N keeps. A top-N on one
/// numeric key compares an order-preserving integer ([`top_n_ordered`]),
/// read as the buffer asks for it; every other sort lays out all `n` key
/// cells first. Sending those top-Ns through the cells too made the
/// `analytic` workload's `agg_p50_us` 2.4× slower (2-core host).
pub(crate) fn sort_indices(
    counters: &mut WorkCounters,
    key_cols: &[ExprCol<'_>],
    descs: &[bool],
    sel: Option<&[u32]>,
    n: usize,
    top: Option<(u64, u64)>,
    guard: &ExecGuard,
) -> Vec<u32> {
    let typed = match (key_cols, top) {
        ([k], Some(top)) => with_numeric!(k.data(), |read| {
            top_n_ordered(counters, n, top, guard, descs[0], k.sel(sel), read)
        }),
        _ => None,
    };
    let order = typed.unwrap_or_else(|| {
        let mut cells = Vec::with_capacity(n * key_cols.len());
        let done = each_row(n, guard, |j| {
            cells.extend(key_cols.iter().map(|c| Cell::from_col(c.data(), c.index(sel, j))));
        });
        // On a trip the caller's next check discards the result.
        if done { order_cells(counters, n, &cells, descs, top, guard) } else { Vec::new() }
    });
    order.into_iter().map(|j| sel.map_or(j as u32, |s| s[j])).collect()
}

/// [`top_n_by`] for one numeric key: each cell maps to an integer in
/// `Value::total_cmp`'s order ([`Num::order_key`], widened to `i128` so
/// NULL sits below every value; bitwise NOT reverses it for DESC), so
/// integer comparison answers exactly as [`cmp_keys`] would and the buffer
/// takes the same positions. `read` is called with the index `idx` maps
/// each dense position to.
fn top_n_ordered<T: Num>(
    counters: &mut WorkCounters,
    n: usize,
    top: (u64, u64),
    guard: &ExecGuard,
    desc: bool,
    idx: Option<&[u32]>,
    mut read: impl FnMut(usize) -> Option<T>,
) -> Vec<usize> {
    let key = |j: usize| {
        let i = idx.map_or(j, |s| s[j] as usize);
        let k = read(i).map_or(-(1i128 << 64), |x| i128::from(x.order_key()));
        if desc { !k } else { k }
    };
    top_n_by(counters, n, top, guard, key, Ord::cmp)
}

/// The cells at columns `cols` of every row, row after row.
fn value_keys<'r>(rows: &'r [Row], cols: &[usize]) -> Vec<Cell<'r>> {
    rows.iter().flat_map(|row| cols.iter().map(|&c| Cell::from_value(&row[c]))).collect()
}

/// Positional sort over already-projected output rows (ORDER BY on
/// aggregated projections).
pub fn output_sort(
    counters: &mut WorkCounters,
    mut input: Vec<Row>,
    keys: &[(usize, bool)],
    guard: &ExecGuard,
) -> Result<Vec<Row>, ExecError> {
    guard.check()?;
    charge_sort_comparisons(counters, input.len() as u64);
    let (cols, descs): (Vec<usize>, Vec<bool>) = keys.iter().copied().unzip();
    let order = sort_positions(input.len(), &value_keys(&input, &cols), &descs);
    Ok(order.into_iter().map(|i| std::mem::take(&mut input[i])).collect())
}

/// The positions of `rows`, each `width` cells wide, ordered by every
/// column ascending, ties in input order: how two results that need not
/// come in one order are lined up for comparison.
pub(crate) fn result_order(rows: &[Row], width: usize) -> Vec<usize> {
    let cols: Vec<usize> = (0..width).collect();
    sort_positions(rows.len(), &value_keys(rows, &cols), &vec![false; width])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::col_store::ColumnData;
    use proptest::prelude::*;
    use qpe_sql::value::Value;

    #[test]
    fn cmp_keys_respects_direction() {
        let a = [Cell::Int(1), Cell::Int(9)];
        let b = [Cell::Int(1), Cell::Int(3)];
        assert_eq!(cmp_keys(&a, &b, &[false, false]), Ordering::Greater);
        assert_eq!(cmp_keys(&a, &b, &[false, true]), Ordering::Less);
        assert_eq!(cmp_keys(&a, &a, &[false, false]), Ordering::Equal);
    }

    /// Edge values the two statements of the order could disagree on
    /// (NULL, NaN of both signs, both zeros, the infinities, integers past
    /// 2^53, empty and NUL-bearing strings), then a random value of each
    /// type, drawn from `bits`.
    const PICKS: usize = 22;
    fn value(pick: usize, bits: u64) -> Value {
        match pick {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-f64::NAN),
            3 => Value::Float(0.0),
            4 => Value::Float(-0.0),
            5 => Value::Float(f64::INFINITY),
            6 => Value::Float(f64::NEG_INFINITY),
            7 => Value::Float(9_007_199_254_740_993.0),
            8 => Value::Int(0),
            9 => Value::Int(-1),
            10 => Value::Int(9_007_199_254_740_993),
            11 => Value::Int(i64::MIN),
            12 => Value::Date(0),
            13 => Value::Date(-1),
            14 => Value::Str(String::new()),
            15 => Value::Str("\0".into()),
            16 => Value::Str("a".into()),
            17 => Value::Str("a\0".into()),
            18 => Value::Int(bits as i64),
            19 => Value::Float(f64::from_bits(bits)),
            20 => Value::Date(bits as i32),
            _ => Value::Str((bits % 7).to_string()),
        }
    }

    proptest! {
        /// The order is stated twice, once per representation: over cells
        /// (every sort) and over values (`KeyVal`, the index walk). They
        /// agree on every pair, every type against every other included.
        #[test]
        fn cell_order_is_the_value_order(
            a in (0usize..PICKS, any::<u64>()),
            b in (0usize..PICKS, any::<u64>()),
        ) {
            let (a, b) = (value(a.0, a.1), value(b.0, b.1));
            let cells = cell_total_cmp(Cell::from_value(&a), Cell::from_value(&b));
            prop_assert_eq!(cells, a.total_cmp(&b), "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn index_sort_matches_row_sort_on_ties() {
        // Duplicate keys: the stable index sort must reproduce the row
        // sort's tie order (input order).
        let keys = ExprCol::Dense(ColumnData::Int(vec![3, 1, 3, 1, 2]));
        let mut c = WorkCounters::default();
        let sel: Vec<u32> = (0..5).collect();
        let guard = ExecGuard::unlimited();
        let sorted = sort_indices(&mut c, &[keys], &[false], Some(&sel), 5, None, guard);
        assert_eq!(sorted, vec![1, 3, 4, 0, 2]);
        assert!(c.sort_comparisons > 0);
    }

    /// The top-N buffer loop polls the guard once per block: a cancel raised
    /// while row 5000's key is read ends the pass within that block, and no
    /// partial selection comes back.
    #[test]
    fn top_n_stops_within_a_block_of_a_cancel() {
        let guard = ExecGuard::new(&super::super::StatementLimits::unlimited());
        let handle = guard.cancel_handle();
        let mut c = WorkCounters::default();
        let key_at = |j: usize| {
            if j == 5_000 {
                handle.cancel();
            }
            j as i64
        };
        let top = top_n_by(&mut c, 600_000, (20, 0), &guard, key_at, |a, b| b.cmp(a));
        assert!(top.is_empty());
        assert!((5_001..=5_000 + GUARD_CHECK_ROWS as u64).contains(&c.topn_pushes));
    }

    #[test]
    fn sort_indices_keeps_the_top_and_applies_offset() {
        let keys = ExprCol::Dense(ColumnData::Int(vec![5, 2, 9, 1, 7, 3]));
        let mut c = WorkCounters::default();
        let top = sort_indices(&mut c, &[keys], &[false], None, 6, Some((2, 1)), ExecGuard::unlimited());
        // ascending: 1 (idx 3), 2 (idx 1), 3 (idx 5) → offset 1 drops idx 3
        assert_eq!(top, vec![1, 5]);
        assert_eq!(c.topn_pushes, 6);
    }
}
