//! Sort and top-N execution: the one place the order of `ORDER BY` is
//! stated.
//!
//! Rows order by their key cells alone, compared by [`cmp_keys`]. Rows with
//! equal keys keep their input order everywhere: [`sort_positions`] is a
//! stable sort, and a top-N ([`top_n_by`]) selects and sorts under (key,
//! position) — positions are unique and arrive in input order, so that
//! total order is the stable sort's and a top-N keeps exactly the rows the
//! stable full sort puts first. Its buffer stays unsorted and compacts with
//! `select_nth_unstable_by` when it fills, so a deep `OFFSET` over rows
//! that each beat the rest costs amortized O(n + k·log k) comparisons, not
//! an insertion per row into k sorted slots. Both executors lay their keys
//! out as one vector of cells, row after row — the row interpreter reads
//! them in place through compiled expressions ([`sort`]), the vectorized
//! executor from key columns through its selection ([`sort_indices`]) — and
//! return positions; rows are materialized by the consumer.
//! [`output_sort`] and the engines' result check ([`result_order`]) sort
//! materialized rows the same way.

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

/// The fewest rows [`top_n_by`] admits between two compactions: a small
/// top-N over rows that each win would otherwise select every few rows.
const MIN_ROOM: usize = 64;

/// The one bounded buffer: the positions of the best `limit + offset` of
/// `n` rows under `cmp`, best first, less the first `offset` — exactly the
/// first rows of the stable full sort. With `need = min(limit + offset, n)`
/// the buffer holds up to `need + max(need, MIN_ROOM)` unsorted `(key,
/// position)` pairs, and never more than `n`. A row goes in only if its key
/// is below the threshold; when the buffer fills,
/// `select_nth_unstable_by` keeps the best `need` under the order (key by
/// `cmp`, then position) and the threshold becomes the `need`-th key. At the
/// end one more selection and one sort of the `need` survivors. Positions
/// arrive ascending and unique, so (key, position) is the stable sort's
/// order, and a row whose key only ties the threshold would sort after the
/// `need` rows kept: it can never enter. Each row charges one push; the
/// cost is amortized O(n + need·log need) comparisons.
fn top_n_by<K: Clone>(
    counters: &mut WorkCounters,
    n: usize,
    (limit, offset): (u64, u64),
    guard: &ExecGuard,
    mut key_at: impl FnMut(usize) -> K,
    cmp: impl Fn(&K, &K) -> Ordering,
) -> Vec<usize> {
    // A LIMIT far past the input reserves only what the input can fill.
    let need = limit.saturating_add(offset).min(n as u64) as usize;
    if need == 0 {
        return Vec::new();
    }
    let order = |a: &(K, usize), b: &(K, usize)| cmp(&a.0, &b.0).then(a.1.cmp(&b.1));
    // Keeps the best `need` pairs of `buf`, unsorted.
    let compact = |buf: &mut Vec<(K, usize)>| {
        buf.select_nth_unstable_by(need - 1, order);
        buf.truncate(need);
    };
    // Room for `need` more rows, and at least `MIN_ROOM`, before the next
    // compaction; each row goes in at most once, so never more than `n`.
    let cap = (need + need.max(MIN_ROOM)).min(n);
    let mut buf: Vec<(K, usize)> = Vec::with_capacity(cap);
    // The `need`-th best key seen, once the buffer has first filled.
    let mut threshold: Option<K> = None;
    let done = each_block(n, guard, |rows| {
        counters.topn_pushes += rows.len() as u64;
        for j in rows {
            let k = key_at(j);
            if threshold.as_ref().is_none_or(|t| cmp(&k, t) == Ordering::Less) {
                buf.push((k, j));
                if buf.len() == cap {
                    compact(&mut buf);
                    threshold = Some(buf[need - 1].0.clone());
                }
            }
        }
    });
    if !done {
        // Abandon on trip; the caller's next check discards this.
        return Vec::new();
    }
    if buf.len() > need {
        compact(&mut buf);
    }
    buf.sort_unstable_by(order);
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
/// order, all of them or, with `top`, those a top-N keeps. Every top-N goes
/// through the one selection buffer [`top_n_by`]; on one numeric key it
/// compares an order-preserving integer ([`top_n_ordered`]), read as the
/// buffer asks for it, and every other sort lays out all `n` key cells
/// first. Laying out cells for the single-key top-Ns too made the
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

    /// The same when every row is a new winner (DESC over ascending keys),
    /// for a buffer that fills only at the end (`need` = n/2) and for one
    /// that compacts every thousand rows before the cancel.
    #[test]
    fn a_compacting_top_n_stops_within_a_block_of_a_cancel() {
        let n = 600_000;
        for need in [n as u64 / 2, 1_000] {
            let guard = ExecGuard::new(&super::super::StatementLimits::unlimited());
            let handle = guard.cancel_handle();
            let mut c = WorkCounters::default();
            let key_at = |j: usize| {
                if j == 5_000 {
                    handle.cancel();
                }
                j as i64
            };
            let top = top_n_by(&mut c, n, (need, 0), &guard, key_at, |a, b| b.cmp(a));
            assert!(top.is_empty(), "need {need}");
            assert!((5_001..=5_000 + GUARD_CHECK_ROWS as u64).contains(&c.topn_pushes));
        }
    }

    /// A top-N keeps exactly the first rows of the stable full sort (a
    /// reference kept here), through both arms of `sort_indices`' top-N —
    /// the lazily read `i128` key and the cells — on inputs where every row
    /// is a new winner, none is, every key ties, or runs repeat; `n` spans
    /// more than two guard blocks and `limit + offset` runs past it.
    #[test]
    fn top_n_equals_a_stable_sort_reference() {
        let key = |shape, j: usize, n: usize| match shape {
            "ascending" => j as i64,
            "descending" => (n - j) as i64,
            "all equal" => 7,
            _ => (j % 13) as i64, // sawtooth
        };
        let guard = ExecGuard::unlimited();
        for n in [0, 1, 7, 2 * GUARD_CHECK_ROWS + 37] {
            for shape in ["ascending", "descending", "all equal", "sawtooth"] {
                let keys: Vec<i64> = (0..n).map(|j| key(shape, j, n)).collect();
                let col = [ExprCol::Dense(ColumnData::Int(keys.clone()))];
                let cells: Vec<Cell> = keys.iter().map(|&k| Cell::Int(k)).collect();
                for desc in [false, true] {
                    let mut sorted: Vec<usize> = (0..n).collect();
                    sorted.sort_by_key(|&j| if desc { -keys[j] } else { keys[j] });
                    for need in [1, 2, n / 2, n.saturating_sub(1), n, n + 3] {
                        for offset in [0, 1, need / 2, need].into_iter().filter(|&o| o <= need) {
                            let top = ((need - offset) as u64, offset as u64);
                            let want: Vec<usize> =
                                sorted.iter().copied().skip(offset).take(need - offset).collect();
                            // A LIMIT 0 with no offset reads no row.
                            let pushes = if need == 0 { 0 } else { n as u64 };
                            let case = format!("n {n}, {shape} keys, desc {desc}, top {top:?}");
                            let mut c = WorkCounters::default();
                            let got =
                                sort_indices(&mut c, &col, &[desc], None, n, Some(top), guard)
                                    .into_iter()
                                    .map(|j| j as usize)
                                    .collect::<Vec<_>>();
                            assert_eq!(got, want, "i128 arm, {case}");
                            assert_eq!(c.topn_pushes, pushes, "i128 arm, {case}");
                            let mut c = WorkCounters::default();
                            let got = order_cells(&mut c, n, &cells, &[desc], Some(top), guard);
                            assert_eq!(got, want, "cell arm, {case}");
                            assert_eq!(c.topn_pushes, pushes, "cell arm, {case}");
                        }
                    }
                }
            }
        }
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
