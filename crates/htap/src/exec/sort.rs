//! Sort, top-N and output-sort execution.
//!
//! Two flavors share one comparator: the row interpreter orders the
//! positions of its input rows, whatever their form, by keys read in place
//! ([`full_sort`], [`top_n`]); the vectorized executor sorts *selection
//! vectors* over column batches ([`full_sort_indices`], [`top_n_indices`]).
//! Both defer row materialization to the consumer, and both use the same
//! key comparison and the same (stable sort / bounded-buffer) algorithms so
//! tie-breaking — and therefore output order — is identical across
//! executors.

use super::guard::ExecGuard;
use super::typed::{each_block, each_row, with_numeric, ExprCol, Num};
use super::{ExecError, Row, Rows, WorkCounters, GUARD_CHECK_ROWS};
use crate::eval::{cell_total_cmp, Cell, RowExpr, Schema};
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::cmp::Ordering;

/// A sort key cell: a [`Value`], or a `Cell` read in place. Both order by
/// `Value::total_cmp`.
trait KeyCell {
    fn key_cmp(&self, other: &Self) -> Ordering;
}

impl KeyCell for Value {
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl KeyCell for Cell<'_> {
    fn key_cmp(&self, other: &Self) -> Ordering {
        cell_total_cmp(*self, *other)
    }
}

/// Compares two rows on pre-computed key values.
fn cmp_keys<K: KeyCell>(a: &[K], b: &[K], descs: &[bool]) -> Ordering {
    for ((x, y), desc) in a.iter().zip(b.iter()).zip(descs.iter()) {
        let o = x.key_cmp(y);
        let o = if *desc { o.reverse() } else { o };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// The deterministic n·log2(n) comparison charge shared by both executors —
/// counted asymptotically rather than by instrumenting the comparator, so
/// work does not depend on sort-implementation internals.
pub(crate) fn charge_sort_comparisons(counters: &mut WorkCounters, n: u64) {
    counters.sort_comparisons += n * (64 - n.max(1).leading_zeros() as u64).max(1);
}

/// Compiles sort `keys` for `rows` laid out by `schema`, with their
/// directions.
fn row_keys<'e>(
    rows: &Rows<'_>,
    schema: &Schema,
    keys: &'e [(BoundExpr, bool)],
) -> (Vec<RowExpr<'e>>, Vec<bool>) {
    let layout = rows.layout(schema);
    keys.iter().map(|(k, desc)| (RowExpr::new(k, &layout), *desc)).unzip()
}

/// Full sort on expression keys (TP's only ORDER BY strategy without an
/// index; also AP's when no LIMIT bounds the sort): the positions of `rows`
/// in key order, ties in input order. Keys are read in place.
pub(super) fn full_sort(
    counters: &mut WorkCounters,
    rows: &Rows<'_>,
    schema: &Schema,
    keys: &[(BoundExpr, bool)],
    guard: &ExecGuard,
) -> Result<Vec<usize>, ExecError> {
    let (exprs, descs) = row_keys(rows, schema, keys);
    let width = exprs.len();
    // Every row's key cells, row after row.
    let mut cells: Vec<Cell> = Vec::with_capacity(rows.len() * width);
    rows.try_for_each(|i, row| {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        for e in &exprs {
            cells.push(e.eval(row)?);
        }
        Ok::<_, ExecError>(())
    })?;
    charge_sort_comparisons(counters, rows.len() as u64);
    let key = |i: usize| &cells[i * width..(i + 1) * width];
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| cmp_keys(key(a), key(b), &descs));
    Ok(order)
}

/// Vectorized full sort: stable-sorts the selection by its key columns.
/// Returns the permuted selection; rows are never materialized here.
pub(crate) fn full_sort_indices(
    counters: &mut WorkCounters,
    key_cols: &[ExprCol<'_>],
    descs: &[bool],
    sel: Vec<u32>,
    guard: &ExecGuard,
) -> Vec<u32> {
    let n = sel.len();
    charge_sort_comparisons(counters, n as u64);
    // Key tuples per dense position; the stable sort then reproduces the row
    // interpreter's permutation exactly (same comparator, same input order).
    let mut keyed: Vec<(Vec<Value>, u32)> = Vec::with_capacity(n);
    let done = each_row(n, guard, |j| {
        keyed.push((key_cols.iter().map(|c| c.value(Some(&sel), j)).collect(), sel[j]));
    });
    if !done {
        // Abandon on trip; the caller's next check discards this.
        return Vec::new();
    }
    keyed.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb, descs));
    keyed.into_iter().map(|(_, phys)| phys).collect()
}

/// Bounded top-N selection (AP's dedicated operator): the positions of the
/// best `limit + offset` rows of `rows`, best first, less the first
/// `offset`. Keys are read in place.
pub(super) fn top_n(
    counters: &mut WorkCounters,
    rows: &Rows<'_>,
    schema: &Schema,
    keys: &[(BoundExpr, bool)],
    limit: u64,
    offset: u64,
    guard: &ExecGuard,
) -> Result<Vec<usize>, ExecError> {
    let need = (limit + offset) as usize;
    if need == 0 {
        return Ok(Vec::new());
    }
    let (exprs, descs) = row_keys(rows, schema, keys);
    // Simple bounded selection: maintain a sorted buffer of at most `need`
    // rows. Each push charges one heap operation.
    let mut buf: Vec<(Vec<Cell>, usize)> = Vec::with_capacity(need + 1);
    rows.try_for_each(|i, row| {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.topn_pushes += 1;
        let kv: Vec<Cell> = exprs.iter().map(|e| e.eval(row)).collect::<Result<_, _>>()?;
        if buf.len() < need {
            let pos = buf
                .binary_search_by(|(k, _)| cmp_keys(k, &kv, &descs))
                .unwrap_or_else(|p| p);
            buf.insert(pos, (kv, i));
        } else if cmp_keys(&kv, &buf[need - 1].0, &descs) == Ordering::Less {
            let pos = buf
                .binary_search_by(|(k, _)| cmp_keys(k, &kv, &descs))
                .unwrap_or_else(|p| p);
            buf.insert(pos, (kv, i));
            buf.pop();
        }
        Ok::<_, ExecError>(())
    })?;
    Ok(buf
        .into_iter()
        .skip(offset as usize)
        .map(|(_, i)| i)
        .collect())
}

/// Vectorized top-N: identical bounded-buffer algorithm as [`top_n`], driven
/// by key columns over the batch's `n` rows (`sel`: its selection, `None`:
/// dense). A single numeric key is compared as an order-preserving integer
/// ([`top_n_ordered`]); other keys compare `Value` tuples. Either way the
/// buffer takes the same positions and ties break identically. Returns the
/// kept physical rows; the consumer materializes them later.
#[allow(clippy::too_many_arguments)]
pub(crate) fn top_n_indices(
    counters: &mut WorkCounters,
    key_cols: &[ExprCol<'_>],
    descs: &[bool],
    sel: Option<&[u32]>,
    n: usize,
    limit: u64,
    offset: u64,
    guard: &ExecGuard,
) -> Vec<u32> {
    let need = (limit + offset) as usize;
    if need == 0 {
        return Vec::new();
    }
    let phys = |j: usize| sel.map_or(j as u32, |s| s[j]);
    let typed = match key_cols {
        [k] => with_numeric!(k.data(), |read| {
            top_n_ordered(counters, n, need, guard, descs[0], k.sel(sel), read, phys)
        }),
        _ => None,
    };
    let top = typed.unwrap_or_else(|| {
        let key_at = |j| key_cols.iter().map(|c| c.value(sel, j)).collect::<Vec<_>>();
        top_n_by(counters, n, need, guard, key_at, phys, |a, b| cmp_keys(a, b, descs))
    });
    top.into_iter().skip(offset as usize).collect()
}

/// [`top_n_by`] for one numeric key: each cell maps to an integer in
/// `Value::total_cmp`'s order ([`Num::order_key`], widened to `i128` so
/// NULL sits below every value; bitwise NOT reverses it for DESC), so
/// integer comparison answers exactly as the tuple comparator would and the
/// buffer takes the same positions. `read` is called with the index `idx`
/// maps each dense position to.
#[allow(clippy::too_many_arguments)]
fn top_n_ordered<T: Num>(
    counters: &mut WorkCounters,
    n: usize,
    need: usize,
    guard: &ExecGuard,
    desc: bool,
    idx: Option<&[u32]>,
    mut read: impl FnMut(usize) -> Option<T>,
    phys: impl Fn(usize) -> u32,
) -> Vec<u32> {
    let key = |j: usize| {
        let i = idx.map_or(j, |s| s[j] as usize);
        let k = read(i).map_or(-(1i128 << 64), |x| i128::from(x.order_key()));
        if desc { !k } else { k }
    };
    top_n_by(counters, n, need, guard, key, phys, Ord::cmp)
}

/// The bounded sorted buffer of [`top_n_indices`]: keeps the best `need`
/// of `n` rows under `cmp`, best first, as the physical rows `phys` gives.
/// Each row's key is compared with the worst buffered key, held in a
/// local; only a row that beats it takes the binary-search insertion.
fn top_n_by<K: Clone>(
    counters: &mut WorkCounters,
    n: usize,
    need: usize,
    guard: &ExecGuard,
    mut key_at: impl FnMut(usize) -> K,
    phys: impl Fn(usize) -> u32,
    cmp: impl Fn(&K, &K) -> Ordering,
) -> Vec<u32> {
    let mut buf: Vec<(K, u32)> = Vec::with_capacity(need + 1);
    // The worst buffered key, once the buffer is full.
    let mut worst: Option<K> = None;
    let done = each_block(n, guard, |rows| {
        counters.topn_pushes += rows.len() as u64;
        for j in rows {
            let k = key_at(j);
            if worst.as_ref().is_none_or(|w| cmp(&k, w) == Ordering::Less) {
                let pos = buf.binary_search_by(|(b, _)| cmp(b, &k)).unwrap_or_else(|p| p);
                buf.insert(pos, (k, phys(j)));
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
    buf.into_iter().map(|(_, p)| p).collect()
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
    input.sort_by(|a, b| {
        for &(pos, desc) in keys {
            let o = a[pos].total_cmp(&b[pos]);
            let o = if desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    Ok(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::col_store::ColumnData;

    #[test]
    fn cmp_keys_respects_direction() {
        let a = vec![Value::Int(1), Value::Int(9)];
        let b = vec![Value::Int(1), Value::Int(3)];
        assert_eq!(cmp_keys(&a, &b, &[false, false]), Ordering::Greater);
        assert_eq!(cmp_keys(&a, &b, &[false, true]), Ordering::Less);
        assert_eq!(cmp_keys(&a, &a, &[false, false]), Ordering::Equal);
    }

    #[test]
    fn index_sort_matches_row_sort_on_ties() {
        // Duplicate keys: the stable index sort must reproduce the row
        // sort's tie order (input order).
        let keys = ExprCol::Dense(ColumnData::Int(vec![3, 1, 3, 1, 2]));
        let mut c = WorkCounters::default();
        let sel: Vec<u32> = (0..5).collect();
        let sorted = full_sort_indices(&mut c, &[keys], &[false], sel, ExecGuard::unlimited());
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
        let top = top_n_by(&mut c, 600_000, 20, &guard, key_at, |j| j as u32, |a, b| b.cmp(a));
        assert!(top.is_empty());
        assert!((5_001..=5_000 + GUARD_CHECK_ROWS as u64).contains(&c.topn_pushes));
    }

    #[test]
    fn top_n_indices_keeps_best_and_applies_offset() {
        let keys = ExprCol::Dense(ColumnData::Int(vec![5, 2, 9, 1, 7, 3]));
        let mut c = WorkCounters::default();
        let top =
            top_n_indices(&mut c, &[keys], &[false], None, 6, 2, 1, ExecGuard::unlimited());
        // ascending: 1 (idx 3), 2 (idx 1), 3 (idx 5) → offset 1 drops idx 3
        assert_eq!(top, vec![1, 5]);
        assert_eq!(c.topn_pushes, 6);
    }
}
