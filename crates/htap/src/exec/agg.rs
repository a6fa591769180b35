//! Aggregation execution (sort-based for TP, hash-based for AP).
//!
//! Output expressions may embed aggregate calls arbitrarily (e.g.
//! `SUM(x) / COUNT(*)`); we extract the distinct aggregate *leaves*, fold
//! them per group, then evaluate each output expression with the folded
//! values substituted in.

use super::guard::ExecGuard;
use super::typed::{each_row, with_numeric, ExprCol, Num};
use super::{ExecError, Row, WorkCounters, GUARD_CHECK_ROWS};
use crate::eval::{eval, truthy, EvalError, Schema};
use crate::plan::AggSpec;
use crate::storage::col_store::ColumnData;
use qpe_sql::ast::AggFunc;
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A distinct aggregate call appearing in the outputs / HAVING clause.
#[derive(Debug, Clone, PartialEq)]
pub struct AggLeaf {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// DISTINCT flag.
    pub distinct: bool,
}

/// Collects the distinct aggregate leaves of an expression tree.
pub fn collect_leaves(expr: &BoundExpr, out: &mut Vec<AggLeaf>) {
    match expr {
        BoundExpr::Aggregate { func, arg, distinct } => {
            let leaf = AggLeaf {
                func: *func,
                arg: arg.as_deref().cloned(),
                distinct: *distinct,
            };
            if !out.contains(&leaf) {
                out.push(leaf);
            }
        }
        BoundExpr::Column(_) | BoundExpr::Literal(_) | BoundExpr::Param { .. } => {}
        BoundExpr::Binary { left, right, .. } => {
            collect_leaves(left, out);
            collect_leaves(right, out);
        }
        BoundExpr::Not(e)
        | BoundExpr::InList { expr: e, .. }
        | BoundExpr::InListParam { expr: e, .. }
        | BoundExpr::Like { expr: e, .. }
        | BoundExpr::IsNull { expr: e, .. }
        | BoundExpr::Substring { expr: e, .. } => collect_leaves(e, out),
        BoundExpr::Between { expr, low, high } => {
            collect_leaves(expr, out);
            collect_leaves(low, out);
            collect_leaves(high, out);
        }
    }
}

/// Running state for one aggregate leaf within one group.
#[derive(Debug, Clone)]
struct AggState {
    count: u64,
    sum: f64,
    sum_is_int: bool,
    int_sum: i64,
    min: Option<Value>,
    max: Option<Value>,
    distinct: HashSet<Value>,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            sum_is_int: true,
            int_sum: 0,
            min: None,
            max: None,
            distinct: HashSet::new(),
        }
    }

    fn update(&mut self, leaf: &AggLeaf, v: Option<Value>) {
        match v {
            None => {
                // COUNT(*) counts every row.
                self.count += 1;
            }
            Some(Value::Null) => {
                // SQL aggregates skip NULL inputs.
            }
            Some(val) => {
                if leaf.distinct && !self.distinct.insert(val.clone()) {
                    return;
                }
                self.count += 1;
                if let Some(x) = val.as_float() {
                    self.sum += x;
                }
                if let Value::Int(i) = val {
                    self.int_sum = self.int_sum.wrapping_add(i);
                } else {
                    self.sum_is_int = false;
                }
                match &self.min {
                    None => self.min = Some(val.clone()),
                    Some(m) => {
                        if val.total_cmp(m) == std::cmp::Ordering::Less {
                            self.min = Some(val.clone());
                        }
                    }
                }
                match &self.max {
                    None => self.max = Some(val.clone()),
                    Some(m) => {
                        if val.total_cmp(m) == std::cmp::Ordering::Greater {
                            self.max = Some(val.clone());
                        }
                    }
                }
            }
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.int_sum)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Evaluates an output expression with aggregate leaves substituted by their
/// folded values.
fn eval_with_aggs(
    expr: &BoundExpr,
    leaves: &[AggLeaf],
    values: &[Value],
    group_key_exprs: &[BoundExpr],
    group_key_vals: &[Value],
) -> Result<Value, EvalError> {
    // Group-by key expressions may appear verbatim in the projection.
    for (ge, gv) in group_key_exprs.iter().zip(group_key_vals.iter()) {
        if expr == ge {
            return Ok(gv.clone());
        }
    }
    match expr {
        BoundExpr::Aggregate { func, arg, distinct } => {
            let leaf = AggLeaf {
                func: *func,
                arg: arg.as_deref().cloned(),
                distinct: *distinct,
            };
            let idx = leaves
                .iter()
                .position(|l| *l == leaf)
                .ok_or(EvalError::AggregateInScalarContext)?;
            Ok(values[idx].clone())
        }
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Binary { left, op, right } => {
            // Re-use the scalar evaluator by materializing both sides first.
            let l = eval_with_aggs(left, leaves, values, group_key_exprs, group_key_vals)?;
            let r = eval_with_aggs(right, leaves, values, group_key_exprs, group_key_vals)?;
            let schema = Schema::new(vec![]);
            let synthetic = BoundExpr::Binary {
                left: Box::new(BoundExpr::Literal(l)),
                op: *op,
                right: Box::new(BoundExpr::Literal(r)),
            };
            eval(&synthetic, &schema, &[])
        }
        BoundExpr::Column(_) => {
            // A bare column that is not a group key in an aggregate output —
            // binder rejects this, but guard anyway.
            Err(EvalError::AggregateInScalarContext)
        }
        other => {
            // Wrap remaining shapes (Not/IsNull/... over aggregates) by
            // evaluating sub-expressions first.
            let schema = Schema::new(vec![]);
            match other {
                BoundExpr::Not(e) => {
                    let v = eval_with_aggs(e, leaves, values, group_key_exprs, group_key_vals)?;
                    Ok(Value::Int(if truthy(&v) { 0 } else { 1 }))
                }
                BoundExpr::IsNull { expr, negated } => {
                    let v =
                        eval_with_aggs(expr, leaves, values, group_key_exprs, group_key_vals)?;
                    Ok(Value::Int(if v.is_null() != *negated { 1 } else { 0 }))
                }
                BoundExpr::InList { expr, list, negated } => {
                    let v =
                        eval_with_aggs(expr, leaves, values, group_key_exprs, group_key_vals)?;
                    let synthetic = BoundExpr::InList {
                        expr: Box::new(BoundExpr::Literal(v)),
                        list: list.clone(),
                        negated: *negated,
                    };
                    eval(&synthetic, &schema, &[])
                }
                BoundExpr::Substring { expr, start, len } => {
                    let v =
                        eval_with_aggs(expr, leaves, values, group_key_exprs, group_key_vals)?;
                    let synthetic = BoundExpr::Substring {
                        expr: Box::new(BoundExpr::Literal(v)),
                        start: *start,
                        len: *len,
                    };
                    eval(&synthetic, &schema, &[])
                }
                _ => Err(EvalError::AggregateInScalarContext),
            }
        }
    }
}

/// Executes grouping + aggregation, returning final projected rows.
///
/// `hash = true` uses hash grouping (AP), `false` sorts first (TP). Both
/// return rows ordered by group key so engine outputs are directly
/// comparable (hash-group output is canonicalized the same way real engines
/// do when asked for deterministic tests).
#[allow(clippy::too_many_arguments)]
pub fn aggregate(
    counters: &mut WorkCounters,
    input: &[Row],
    schema: &Schema,
    group_by: &[BoundExpr],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
    hash: bool,
    guard: &ExecGuard,
) -> Result<Vec<Row>, ExecError> {
    let leaves = collect_all_leaves(outputs, having);

    // Group rows. BTreeMap keys give deterministic (key-sorted) output for
    // both strategies; the sort-vs-hash distinction is carried by the work
    // counters, which is what the latency model consumes.
    let mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>> = BTreeMap::new();
    for (i, row) in input.iter().enumerate() {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.agg_rows += 1;
        if !hash {
            // sort-based grouping pays comparison costs
            counters.sort_comparisons += 1;
        }
        let key: Vec<KeyWrap> = group_by
            .iter()
            .map(|g| eval(g, schema, row).map(KeyWrap))
            .collect::<Result<_, _>>()?;
        let states = groups
            .entry(key)
            .or_insert_with(|| leaves.iter().map(|_| AggState::new()).collect());
        for (leaf, state) in leaves.iter().zip(states.iter_mut()) {
            let v = match &leaf.arg {
                Some(a) => Some(eval(a, schema, row)?),
                None => None,
            };
            state.update(leaf, v);
        }
    }

    finish_groups(groups, &leaves, group_by, outputs, having)
}

/// Vectorized aggregation, one path for every key and argument shape:
///
/// 1. each row gets a dense `u32` group id ([`assign_groups`]);
/// 2. each aggregate leaf folds **column-at-a-time** into per-group state
///    ([`fold_leaf`]), rows in ascending dense order — so float sums, ties
///    and DISTINCT sets are bit-identical to the row interpreter at any
///    thread count (the fold itself is serial; what feeds it evaluates
///    morsel-parallel upstream);
/// 3. groups finish in key order through [`finish_groups`], shared with
///    [`aggregate`].
///
/// `n` is the dense input length and `sel` the batch selection that
/// [`ExprCol::Stored`] columns are read through. Counters are charged from
/// `n` by the row path's formulas.
#[allow(clippy::too_many_arguments)]
pub(crate) fn aggregate_cols(
    counters: &mut WorkCounters,
    guard: &ExecGuard,
    n: usize,
    sel: Option<&[u32]>,
    key_cols: &[ExprCol<'_>],
    arg_cols: &[Option<ExprCol<'_>>],
    group_by: &[BoundExpr],
    leaves: &[AggLeaf],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
    hash: bool,
) -> Result<Vec<Row>, ExecError> {
    debug_assert_eq!(leaves.len(), arg_cols.len());
    // Discards key/argument columns a tripped guard left truncated before
    // anything indexes them.
    guard.check()?;
    counters.agg_rows += n as u64;
    if !hash {
        // sort-based grouping pays comparison costs
        counters.sort_comparisons += n as u64;
    }
    let (gids, keys) = assign_groups(key_cols, n, sel, guard);
    let rows = FoldRows { n, sel, gids, groups: keys.len() };
    let mut states: Vec<Vec<AggState>> = vec![Vec::new(); keys.len()];
    for (leaf, arg) in leaves.iter().zip(arg_cols) {
        let folded = fold_leaf(leaf, arg.as_ref(), &rows, guard);
        states.iter_mut().zip(folded).for_each(|(group, state)| group.push(state));
    }
    guard.check()?;
    // Dictionary codes no row carried have no key and drop out here.
    let groups = keys.into_iter().zip(states).filter_map(|(k, s)| Some((k?, s))).collect();
    finish_groups(groups, leaves, group_by, outputs, having)
}

/// Group id of each dense position.
enum Gids<'a> {
    /// No GROUP BY: every row is group 0.
    One,
    /// A dictionary key's codes, used as they are and addressed like the
    /// key column's cells.
    Codes(&'a [u32], &'a ExprCol<'a>),
    /// Ids assigned in first-appearance order, by dense position.
    Assigned(Vec<u32>),
}

/// The input of one aggregation as every leaf's fold sees it.
struct FoldRows<'a> {
    n: usize,
    sel: Option<&'a [u32]>,
    gids: Gids<'a>,
    /// Number of group ids (the length of every per-group array).
    groups: usize,
}

impl FoldRows<'_> {
    #[inline]
    fn gid(&self, j: usize) -> usize {
        match &self.gids {
            Gids::One => 0,
            Gids::Codes(codes, key) => codes[key.index(self.sel, j)] as usize,
            Gids::Assigned(ids) => ids[j] as usize,
        }
    }
}

/// Assigns every row a dense group id and returns the key values of each id
/// (`None` for a dictionary code no selected row carries). A single
/// dictionary key groups by its codes without touching a string per row; a
/// single numeric key hashes its raw `i64`; multi-column, string and mixed
/// keys go through the ordered [`KeyWrap`] map.
fn assign_groups<'a>(
    key_cols: &'a [ExprCol<'a>],
    n: usize,
    sel: Option<&[u32]>,
    guard: &ExecGuard,
) -> (Gids<'a>, Vec<Option<Vec<KeyWrap>>>) {
    if key_cols.is_empty() {
        return (Gids::One, vec![Some(Vec::new())]);
    }
    if let [k] = key_cols {
        if let ColumnData::Dict(d) = k.data() {
            let mut seen = vec![false; d.values.len()];
            each_row(n, guard, |j| seen[d.codes[k.index(sel, j)] as usize] = true);
            let key_of = |v: &String| vec![KeyWrap(Value::Str(v.clone()))];
            let keys = seen.iter().zip(d.values.iter()).map(|(s, v)| s.then(|| key_of(v)));
            return (Gids::Codes(&d.codes, k), keys.collect());
        }
    }
    let mut keys: Vec<Option<Vec<KeyWrap>>> = Vec::new();
    let mut ids: Vec<u32> = Vec::with_capacity(n);
    if let [k] = key_cols {
        let hashed = with_numeric!(k.data(), |read| {
            let mut map: HashMap<Option<i64>, u32> = HashMap::new();
            each_row(n, guard, |j| {
                let x = read(k.index(sel, j));
                ids.push(*map.entry(x.map(Num::raw)).or_insert_with(|| {
                    keys.push(Some(vec![KeyWrap(x.map_or(Value::Null, Num::value))]));
                    keys.len() as u32 - 1
                }));
            })
        });
        if hashed.is_some() {
            return (Gids::Assigned(ids), keys);
        }
    }
    let mut map: BTreeMap<Vec<KeyWrap>, u32> = BTreeMap::new();
    each_row(n, guard, |j| {
        let key: Vec<KeyWrap> = key_cols.iter().map(|c| KeyWrap(c.value(sel, j))).collect();
        let next = keys.len() as u32;
        ids.push(*map.entry(key).or_insert_with_key(|k| {
            keys.push(Some(k.clone()));
            next
        }));
    });
    (Gids::Assigned(ids), keys)
}

/// Folds one aggregate leaf over all rows into one state per group id.
/// `COUNT(*)` and non-DISTINCT aggregates over numeric columns take the
/// typed fold; DISTINCT and string/mixed arguments update [`AggState`]s row
/// by row in the same loop.
fn fold_leaf(
    leaf: &AggLeaf,
    arg: Option<&ExprCol<'_>>,
    rows: &FoldRows<'_>,
    guard: &ExecGuard,
) -> Vec<AggState> {
    let Some(col) = arg else {
        return fold_typed(AggFunc::Count, rows, guard, |_| Some(0i64));
    };
    let typed = if leaf.distinct {
        None
    } else {
        with_numeric!(col.data(), |read| {
            fold_typed(leaf.func, rows, guard, |j| read(col.index(rows.sel, j)))
        })
    };
    typed.unwrap_or_else(|| {
        let mut states = vec![AggState::new(); rows.groups];
        each_row(rows.n, guard, |j| {
            states[rows.gid(j)].update(leaf, Some(col.value(rows.sel, j)));
        });
        states
    })
}

/// The typed fold: accumulates only what `func` reads into per-group arrays
/// (`cell(j)` is the argument at dense position `j`, `None` = NULL), then
/// wraps them as the [`AggState`]s [`AggState::finish`] expects.
fn fold_typed<T: Num>(
    func: AggFunc,
    rows: &FoldRows<'_>,
    guard: &ExecGuard,
    cell: impl Fn(usize) -> Option<T>,
) -> Vec<AggState> {
    let g = rows.groups;
    let (mut count, mut sum, mut int_sum) = (vec![0u64; g], vec![0f64; g], vec![0i64; g]);
    let mut extreme: Vec<Option<T>> = vec![None; g];
    match func {
        AggFunc::Count => feed(rows, guard, &cell, |g, _| count[g] += 1),
        AggFunc::Sum if T::IS_INT => feed(rows, guard, &cell, |g, x| {
            count[g] += 1;
            int_sum[g] = int_sum[g].wrapping_add(x.raw());
        }),
        AggFunc::Sum | AggFunc::Avg => feed(rows, guard, &cell, |g, x| {
            count[g] += 1;
            sum[g] += x.as_f64();
        }),
        AggFunc::Min | AggFunc::Max => {
            let replaces = if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
            feed(rows, guard, &cell, |g, x| {
                if extreme[g].is_none_or(|m| x.total_cmp(m) == replaces) {
                    extreme[g] = Some(x);
                }
            })
        }
    }
    (0..g)
        .map(|i| AggState {
            count: count[i],
            sum: sum[i],
            sum_is_int: T::IS_INT,
            int_sum: int_sum[i],
            min: extreme[i].map(Num::value),
            max: extreme[i].map(Num::value),
            distinct: HashSet::new(),
        })
        .collect()
}

/// Feeds every non-NULL cell, with its group id, to `acc` in dense order.
fn feed<T: Num>(
    rows: &FoldRows<'_>,
    guard: &ExecGuard,
    cell: &impl Fn(usize) -> Option<T>,
    mut acc: impl FnMut(usize, T),
) {
    each_row(rows.n, guard, |j| {
        if let Some(x) = cell(j) {
            acc(rows.gid(j), x);
        }
    });
}

/// Collects the distinct aggregate leaves across outputs and HAVING.
pub fn collect_all_leaves(outputs: &[AggSpec], having: Option<&BoundExpr>) -> Vec<AggLeaf> {
    let mut leaves = Vec::new();
    for o in outputs {
        collect_leaves(&o.expr, &mut leaves);
    }
    if let Some(h) = having {
        collect_leaves(h, &mut leaves);
    }
    leaves
}

/// Folds grouped aggregate states into final projected rows (shared by the
/// row and columnar paths, so HAVING and output-expression semantics cannot
/// diverge between executors).
fn finish_groups(
    mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>>,
    leaves: &[AggLeaf],
    group_by: &[BoundExpr],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
) -> Result<Vec<Row>, ExecError> {
    // Scalar aggregation over empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), leaves.iter().map(|_| AggState::new()).collect());
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in &groups {
        let folded: Vec<Value> = leaves
            .iter()
            .zip(states.iter())
            .map(|(l, s)| s.finish(l.func))
            .collect();
        let key_vals: Vec<Value> = key.iter().map(|k| k.0.clone()).collect();
        if let Some(h) = having {
            let v = eval_with_aggs(h, leaves, &folded, group_by, &key_vals)?;
            if !truthy(&v) {
                continue;
            }
        }
        let mut row = Vec::with_capacity(outputs.len());
        for o in outputs {
            row.push(eval_with_aggs(&o.expr, leaves, &folded, group_by, &key_vals)?);
        }
        out.push(row);
    }
    Ok(out)
}

/// Ord wrapper over [`Value`] for BTreeMap grouping keys. Equality is the
/// ordering's (`-0.0` and `0.0` are two groups, `NaN` is one) — `Value`'s own
/// `==` is SQL equality, and a map built from an iterator dedups with `==`.
#[derive(Debug, Clone)]
struct KeyWrap(Value);

impl PartialEq for KeyWrap {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for KeyWrap {}

impl PartialOrd for KeyWrap {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyWrap {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_state_count_sum_avg() {
        let leaf = AggLeaf { func: AggFunc::Sum, arg: None, distinct: false };
        let mut s = AggState::new();
        s.update(&leaf, Some(Value::Int(3)));
        s.update(&leaf, Some(Value::Int(4)));
        s.update(&leaf, Some(Value::Null)); // skipped
        assert_eq!(s.finish(AggFunc::Count), Value::Int(2));
        assert_eq!(s.finish(AggFunc::Sum), Value::Int(7));
        assert_eq!(s.finish(AggFunc::Avg), Value::Float(3.5));
    }

    #[test]
    fn agg_state_min_max() {
        let leaf = AggLeaf { func: AggFunc::Min, arg: None, distinct: false };
        let mut s = AggState::new();
        for v in [5, 2, 9] {
            s.update(&leaf, Some(Value::Int(v)));
        }
        assert_eq!(s.finish(AggFunc::Min), Value::Int(2));
        assert_eq!(s.finish(AggFunc::Max), Value::Int(9));
    }

    #[test]
    fn distinct_dedups() {
        let leaf = AggLeaf { func: AggFunc::Count, arg: None, distinct: true };
        let mut s = AggState::new();
        for v in [1, 1, 2, 2, 3] {
            s.update(&leaf, Some(Value::Int(v)));
        }
        assert_eq!(s.finish(AggFunc::Count), Value::Int(3));
    }

    #[test]
    fn sum_over_empty_is_null() {
        let s = AggState::new();
        assert_eq!(s.finish(AggFunc::Sum), Value::Null);
        assert_eq!(s.finish(AggFunc::Avg), Value::Null);
        assert_eq!(s.finish(AggFunc::Min), Value::Null);
        assert_eq!(s.finish(AggFunc::Count), Value::Int(0));
    }

    #[test]
    fn float_sum_stays_float() {
        let leaf = AggLeaf { func: AggFunc::Sum, arg: None, distinct: false };
        let mut s = AggState::new();
        s.update(&leaf, Some(Value::Float(1.5)));
        s.update(&leaf, Some(Value::Float(2.0)));
        assert_eq!(s.finish(AggFunc::Sum), Value::Float(3.5));
    }

    /// The typed fold polls the guard once per block: a cancel raised while
    /// row 5000 is read ends the pass within that block.
    #[test]
    fn typed_fold_stops_within_a_block_of_a_cancel() {
        let guard = ExecGuard::new(&super::super::StatementLimits::unlimited());
        let handle = guard.cancel_handle();
        let rows = FoldRows { n: 600_000, sel: None, gids: Gids::One, groups: 1 };
        let states = fold_typed(AggFunc::Sum, &rows, &guard, |j| {
            if j == 5_000 {
                handle.cancel();
            }
            Some(1i64)
        });
        assert!((5_001..=5_000 + GUARD_CHECK_ROWS as u64).contains(&states[0].count));
        assert!(guard.check().is_err(), "the caller's next check reports the cancel");
    }

    #[test]
    fn collect_leaves_dedups() {
        // COUNT(*) appearing twice collects once.
        let count = BoundExpr::Aggregate { func: AggFunc::Count, arg: None, distinct: false };
        let expr = BoundExpr::Binary {
            left: Box::new(count.clone()),
            op: qpe_sql::ast::BinaryOp::Add,
            right: Box::new(count),
        };
        let mut leaves = Vec::new();
        collect_leaves(&expr, &mut leaves);
        assert_eq!(leaves.len(), 1);
    }
}
