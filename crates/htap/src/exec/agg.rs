//! Aggregation execution (sort-based for TP, hash-based for AP).
//!
//! Output expressions may embed aggregate calls arbitrarily (e.g.
//! `SUM(x) / COUNT(*)`); we extract the distinct aggregate *leaves*, fold
//! them per group, then evaluate each output expression with the folded
//! values substituted in.

use super::guard::ExecGuard;
use super::typed::{each_block, with_numeric, ExprCol, Num};
use super::{ExecError, Row, Rows, WorkCounters, GUARD_CHECK_ROWS};
use crate::eval::{cell_total_cmp, eval, truthy, Cell, EvalError, RowExpr, Schema};
use crate::plan::AggSpec;
use crate::storage::col_store::ColumnData;
use crate::storage::KeyVal;
use qpe_sql::ast::AggFunc;
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::marker::PhantomData;
use std::ops::Range;

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

    /// Folds one row's argument in (`None` for `COUNT(*)`). The cell is read
    /// in place; it is copied only when it becomes the new minimum or
    /// maximum, or a new DISTINCT value.
    fn update(&mut self, leaf: &AggLeaf, v: Option<Cell<'_>>) {
        match v {
            None => {
                // COUNT(*) counts every row.
                self.count += 1;
            }
            Some(Cell::Null) => {
                // SQL aggregates skip NULL inputs.
            }
            Some(val) => {
                if leaf.distinct && !self.distinct.insert(val.to_value()) {
                    return;
                }
                self.count += 1;
                if let Some(x) = val.as_float() {
                    self.sum += x;
                }
                if let Cell::Int(i) = val {
                    self.int_sum = self.int_sum.wrapping_add(i);
                } else {
                    self.sum_is_int = false;
                }
                let beats = |m: &Option<Value>, wins: Ordering| {
                    m.as_ref().is_none_or(|m| cell_total_cmp(val, Cell::from_value(m)) == wins)
                };
                if beats(&self.min, Ordering::Less) {
                    self.min = Some(val.to_value());
                }
                if beats(&self.max, Ordering::Greater) {
                    self.max = Some(val.to_value());
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

/// Executes grouping + aggregation over the interpreter's rows in whatever
/// form they came — a join's output included — returning final projected
/// rows. Group keys and arguments are read in place; a key is copied only
/// when it opens a group.
///
/// `hash = true` uses hash grouping (AP), `false` sorts first (TP). Both
/// return rows ordered by group key so engine outputs are directly
/// comparable (hash-group output is canonicalized the same way real engines
/// do when asked for deterministic tests).
#[allow(clippy::too_many_arguments)]
pub(super) fn aggregate(
    counters: &mut WorkCounters,
    input: &Rows<'_>,
    schema: &Schema,
    group_by: &[BoundExpr],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
    hash: bool,
    guard: &ExecGuard,
) -> Result<Vec<Row>, ExecError> {
    let leaves = collect_all_leaves(outputs, having);
    let layout = input.layout(schema);
    let keys: Vec<RowExpr> = group_by.iter().map(|g| RowExpr::new(g, &layout)).collect();
    let args: Vec<Option<RowExpr>> =
        leaves.iter().map(|l| l.arg.as_ref().map(|a| RowExpr::new(a, &layout))).collect();

    // Group rows. BTreeMap keys give deterministic (key-sorted) output for
    // both strategies; the sort-vs-hash distinction is carried by the work
    // counters, which is what the latency model consumes.
    let mut groups: BTreeMap<Vec<KeyVal>, Vec<AggState>> = BTreeMap::new();
    let mut key: Vec<Cell> = Vec::with_capacity(keys.len());
    input.try_for_each(|i, row| {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.agg_rows += 1;
        if !hash {
            // sort-based grouping pays comparison costs
            counters.sort_comparisons += 1;
        }
        key.clear();
        for k in &keys {
            key.push(k.eval(row)?);
        }
        let states = match groups.get_mut(&key as &dyn GroupKey) {
            Some(states) => states,
            None => groups
                .entry(key.iter().map(|c| KeyVal(c.to_value())).collect())
                .or_insert_with(|| leaves.iter().map(|_| AggState::new()).collect()),
        };
        for ((leaf, state), arg) in leaves.iter().zip(states).zip(&args) {
            state.update(leaf, arg.as_ref().map(|a| a.eval(row)).transpose()?);
        }
        Ok::<_, ExecError>(())
    })?;

    finish_groups(groups, &leaves, group_by, outputs, having)
}

/// Vectorized aggregation in one pass over the rows, a block at a time:
///
/// 1. each block's rows get dense `u32` group ids ([`GroupIds`]): none
///    without GROUP BY, a dictionary key's codes, or ids assigned in
///    first-appearance order;
/// 2. each aggregate leaf folds the block into per-group state through the
///    typed reader and update chosen for it before the loop ([`LeafFold`]),
///    rows in ascending dense order — so float sums, ties and DISTINCT sets
///    are bit-identical to the row interpreter at any thread count (the
///    fold itself is serial; what feeds it evaluates morsel-parallel
///    upstream);
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
    let mut ids = GroupIds::new(key_cols, sel);
    let mut folds: Vec<Box<dyn LeafFold + '_>> =
        leaves.iter().zip(arg_cols).map(|(leaf, arg)| leaf_fold(leaf, arg.as_ref(), sel)).collect();
    fold_blocks(n, guard, &mut ids, &mut folds);
    guard.check()?;
    let keys = ids.finish();
    let mut states: Vec<Vec<AggState>> = vec![Vec::with_capacity(folds.len()); keys.len()];
    for fold in folds {
        let folded = fold.finish(keys.len());
        states.iter_mut().zip(folded).for_each(|(group, state)| group.push(state));
    }
    // Dictionary codes no row carried have no key and drop out here.
    let groups = keys.into_iter().zip(states).filter_map(|(k, s)| Some((k?, s))).collect();
    finish_groups(groups, leaves, group_by, outputs, having)
}

/// The aggregation's one pass: per guard-polled block, the group ids once,
/// then every leaf's fold. False when the guard tripped.
fn fold_blocks(
    n: usize,
    guard: &ExecGuard,
    ids: &mut GroupIds<'_>,
    folds: &mut [Box<dyn LeafFold + '_>],
) -> bool {
    let mut buf = Vec::with_capacity(GUARD_CHECK_ROWS);
    each_block(n, guard, |rows| {
        let gids = ids.block(rows.clone(), &mut buf);
        let groups = ids.len();
        for fold in folds.iter_mut() {
            fold.block(rows.clone(), gids, groups);
        }
    })
}

/// Assigns a block of rows' group ids into a buffer, recording each new
/// id's key.
type Assign<'a> = Box<dyn FnMut(Range<usize>, &mut Vec<u32>, &mut Vec<Vec<KeyVal>>) + 'a>;

/// Where each row's group id comes from, chosen once per aggregation.
enum GroupIds<'a> {
    /// No GROUP BY: every row is group 0.
    One,
    /// A single dictionary key's codes, read through `sel`, used as they
    /// are; `seen` marks the codes some row carries.
    Codes { codes: &'a [u32], sel: Option<&'a [u32]>, values: &'a [String], seen: Vec<bool> },
    /// Ids handed out in first-appearance order: a single numeric key
    /// hashes its raw `i64`; multi-column, string and mixed keys go through
    /// the ordered [`KeyVal`] map.
    Assigned { assign: Assign<'a>, keys: Vec<Vec<KeyVal>> },
}

impl<'a> GroupIds<'a> {
    fn new(key_cols: &'a [ExprCol<'a>], sel: Option<&'a [u32]>) -> GroupIds<'a> {
        let assign = match key_cols {
            [] => return GroupIds::One,
            [k] => {
                if let ColumnData::Dict(d) = k.data() {
                    let seen = vec![false; d.values.len()];
                    return GroupIds::Codes { codes: &d.codes, sel: k.sel(sel), values: &d.values, seen };
                }
                with_numeric!(k.data(), |read| hashed_ids(read, k.sel(sel)))
            }
            _ => None,
        };
        let assign = assign.unwrap_or_else(|| ordered_ids(key_cols, sel));
        GroupIds::Assigned { assign, keys: Vec::new() }
    }

    /// Number of group ids handed out so far.
    fn len(&self) -> usize {
        match self {
            GroupIds::One => 1,
            GroupIds::Codes { values, .. } => values.len(),
            GroupIds::Assigned { keys, .. } => keys.len(),
        }
    }

    /// The group ids of dense positions `rows`, written into `buf`; `None`
    /// when every row is group 0.
    fn block<'b>(&mut self, rows: Range<usize>, buf: &'b mut Vec<u32>) -> Option<&'b [u32]> {
        buf.clear();
        match self {
            GroupIds::One => return None,
            GroupIds::Codes { codes, sel, seen, .. } => {
                let mut code_of = |i: usize| {
                    let c = codes[i];
                    seen[c as usize] = true;
                    c
                };
                match sel {
                    Some(s) => buf.extend(s[rows].iter().map(|&i| code_of(i as usize))),
                    None => buf.extend(rows.map(code_of)),
                }
            }
            GroupIds::Assigned { assign, keys } => assign(rows, buf, keys),
        }
        Some(buf)
    }

    /// The key of each group id (`None` for a dictionary code no row
    /// carried).
    fn finish(self) -> Vec<Option<Vec<KeyVal>>> {
        match self {
            GroupIds::One => vec![Some(Vec::new())],
            GroupIds::Codes { values, seen, .. } => seen
                .iter()
                .zip(values)
                .map(|(s, v)| s.then(|| vec![KeyVal(Value::Str(v.clone()))]))
                .collect(),
            GroupIds::Assigned { keys, .. } => keys.into_iter().map(Some).collect(),
        }
    }
}

/// Group ids of a single numeric key, read by `read` through `idx`.
fn hashed_ids<'a, T: Num + 'a>(
    mut read: impl FnMut(usize) -> Option<T> + 'a,
    idx: Option<&'a [u32]>,
) -> Assign<'a> {
    let mut map: HashMap<Option<i64>, u32> = HashMap::new();
    Box::new(move |rows, ids, keys| {
        let mut id_of = |i: usize| {
            let x = read(i);
            *map.entry(x.map(Num::raw)).or_insert_with(|| {
                keys.push(vec![KeyVal(x.map_or(Value::Null, Num::value))]);
                keys.len() as u32 - 1
            })
        };
        match idx {
            Some(s) => ids.extend(s[rows].iter().map(|&i| id_of(i as usize))),
            None => ids.extend(rows.map(id_of)),
        }
    })
}

/// Group ids of any key tuple, through an ordered map of [`KeyVal`]s.
fn ordered_ids<'a>(key_cols: &'a [ExprCol<'a>], sel: Option<&'a [u32]>) -> Assign<'a> {
    let mut map: BTreeMap<Vec<KeyVal>, u32> = BTreeMap::new();
    Box::new(move |rows, ids, keys| {
        for j in rows {
            let key: Vec<KeyVal> =
                key_cols.iter().map(|c| KeyVal(c.data().get(c.index(sel, j)))).collect();
            let next = keys.len() as u32;
            ids.push(*map.entry(key).or_insert_with_key(|k| {
                keys.push(k.clone());
                next
            }));
        }
    })
}

/// One aggregate leaf's fold, with its reader and update fixed.
trait LeafFold {
    /// Folds dense positions `rows`, whose group ids are `gids` (`None`:
    /// all group 0), into state for `groups` ids.
    fn block(&mut self, rows: Range<usize>, gids: Option<&[u32]>, groups: usize);
    /// One state per group id.
    fn finish(self: Box<Self>, groups: usize) -> Vec<AggState>;
}

/// The fold of one leaf: `COUNT(*)` counts rows, non-DISTINCT aggregates
/// over numeric columns take the typed fold, and DISTINCT and string/mixed
/// arguments update [`AggState`]s row by row.
fn leaf_fold<'a>(
    leaf: &'a AggLeaf,
    arg: Option<&'a ExprCol<'a>>,
    sel: Option<&'a [u32]>,
) -> Box<dyn LeafFold + 'a> {
    let Some(col) = arg else {
        return Box::new(CountRows(Vec::new()));
    };
    let idx = col.sel(sel);
    let typed = if leaf.distinct {
        None
    } else {
        with_numeric!(col.data(), |read| typed_fold(leaf.func, read, idx))
    };
    typed.unwrap_or_else(|| Box::new(StateFold { leaf, col, idx, states: Vec::new() }))
}

/// `COUNT(*)`: rows per group.
struct CountRows(Vec<u64>);

impl LeafFold for CountRows {
    fn block(&mut self, rows: Range<usize>, gids: Option<&[u32]>, groups: usize) {
        self.0.resize(groups, 0);
        match gids {
            None => self.0[0] += rows.len() as u64,
            Some(g) => {
                for &g in g {
                    self.0[g as usize] += 1;
                }
            }
        }
    }

    fn finish(mut self: Box<Self>, groups: usize) -> Vec<AggState> {
        self.0.resize(groups, 0);
        self.0.iter().map(|&count| AggState { count, ..AggState::new() }).collect()
    }
}

/// The generic fold: [`AggState::update`] per row.
struct StateFold<'a> {
    leaf: &'a AggLeaf,
    col: &'a ExprCol<'a>,
    idx: Option<&'a [u32]>,
    states: Vec<AggState>,
}

impl LeafFold for StateFold<'_> {
    fn block(&mut self, rows: Range<usize>, gids: Option<&[u32]>, groups: usize) {
        self.states.resize(groups, AggState::new());
        for (k, j) in rows.enumerate() {
            let g = gids.map_or(0, |g| g[k] as usize);
            let i = self.idx.map_or(j, |s| s[j] as usize);
            self.states[g].update(self.leaf, Some(Cell::from_col(self.col.data(), i)));
        }
    }

    fn finish(mut self: Box<Self>, groups: usize) -> Vec<AggState> {
        self.states.resize(groups, AggState::new());
        self.states
    }
}

/// What one group's typed fold accumulates; only the fields its function
/// reads move.
#[derive(Clone, Copy)]
struct Acc<T> {
    count: u64,
    sum: f64,
    int_sum: i64,
    extreme: Option<T>,
}

impl<T> Acc<T> {
    const EMPTY: Acc<T> = Acc { count: 0, sum: 0.0, int_sum: 0, extreme: None };
}

/// What an aggregate function does with one non-NULL cell.
trait Update<T> {
    fn update(acc: &mut Acc<T>, x: T);
}

struct CountCells;
struct IntSum;
struct FloatSum;
/// `MIN` (`MAX = false`) or `MAX`.
struct Extreme<const MAX: bool>;

impl<T> Update<T> for CountCells {
    #[inline]
    fn update(acc: &mut Acc<T>, _: T) {
        acc.count += 1;
    }
}

impl<T: Num> Update<T> for IntSum {
    #[inline]
    fn update(acc: &mut Acc<T>, x: T) {
        acc.count += 1;
        acc.int_sum = acc.int_sum.wrapping_add(x.raw());
    }
}

impl<T: Num> Update<T> for FloatSum {
    #[inline]
    fn update(acc: &mut Acc<T>, x: T) {
        acc.count += 1;
        acc.sum += x.as_f64();
    }
}

impl<T: Num, const MAX: bool> Update<T> for Extreme<MAX> {
    #[inline]
    fn update(acc: &mut Acc<T>, x: T) {
        let replaces = if MAX { Ordering::Greater } else { Ordering::Less };
        if acc.extreme.is_none_or(|m| x.total_cmp(m) == replaces) {
            acc.extreme = Some(x);
        }
    }
}

/// The typed fold of `func` over cells `read` returns (`None` = NULL) at
/// the indices `idx` maps dense positions to.
fn typed_fold<'a, T: Num + 'a>(
    func: AggFunc,
    read: impl FnMut(usize) -> Option<T> + 'a,
    idx: Option<&'a [u32]>,
) -> Box<dyn LeafFold + 'a> {
    fn boxed<'a, T: Num + 'a, U: Update<T> + 'a>(
        read: impl FnMut(usize) -> Option<T> + 'a,
        idx: Option<&'a [u32]>,
    ) -> Box<dyn LeafFold + 'a> {
        Box::new(TypedFold { read, idx, accs: Vec::new(), update: PhantomData::<U> })
    }
    match func {
        AggFunc::Count => boxed::<T, CountCells>(read, idx),
        AggFunc::Sum if T::IS_INT => boxed::<T, IntSum>(read, idx),
        AggFunc::Sum | AggFunc::Avg => boxed::<T, FloatSum>(read, idx),
        AggFunc::Min => boxed::<T, Extreme<false>>(read, idx),
        AggFunc::Max => boxed::<T, Extreme<true>>(read, idx),
    }
}

struct TypedFold<'a, T, R, U> {
    read: R,
    idx: Option<&'a [u32]>,
    accs: Vec<Acc<T>>,
    update: PhantomData<U>,
}

impl<T: Num, R: FnMut(usize) -> Option<T>, U: Update<T>> LeafFold for TypedFold<'_, T, R, U> {
    fn block(&mut self, rows: Range<usize>, gids: Option<&[u32]>, groups: usize) {
        self.accs.resize(groups, Acc::EMPTY);
        let (read, idx) = (&mut self.read, self.idx);
        match gids {
            None => {
                // No GROUP BY: the block folds into a local.
                let mut acc = self.accs[0];
                each_cell(idx, rows, read, |_, x| U::update(&mut acc, x));
                self.accs[0] = acc;
            }
            Some(g) => {
                let accs = &mut self.accs;
                each_cell(idx, rows, read, |k, x| U::update(&mut accs[g[k] as usize], x));
            }
        }
    }

    fn finish(mut self: Box<Self>, groups: usize) -> Vec<AggState> {
        self.accs.resize(groups, Acc::EMPTY);
        self.accs
            .iter()
            .map(|a| AggState {
                count: a.count,
                sum: a.sum,
                sum_is_int: T::IS_INT,
                int_sum: a.int_sum,
                min: a.extreme.map(Num::value),
                max: a.extreme.map(Num::value),
                distinct: HashSet::new(),
            })
            .collect()
    }
}

/// Calls `f(offset in the block, cell)` for every non-NULL cell of dense
/// positions `rows`, in order.
#[inline]
fn each_cell<T>(
    idx: Option<&[u32]>,
    rows: Range<usize>,
    read: &mut impl FnMut(usize) -> Option<T>,
    mut f: impl FnMut(usize, T),
) {
    match idx {
        Some(s) => {
            for (k, &i) in s[rows].iter().enumerate() {
                if let Some(x) = read(i as usize) {
                    f(k, x);
                }
            }
        }
        None => {
            for (k, i) in rows.enumerate() {
                if let Some(x) = read(i) {
                    f(k, x);
                }
            }
        }
    }
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
    mut groups: BTreeMap<Vec<KeyVal>, Vec<AggState>>,
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

/// A group key as the map is probed with it: the stored [`KeyVal`]s, or a
/// row's cells read in place. Both order as the stored keys do, so a row
/// finds its group without copying its key.
trait GroupKey {
    fn width(&self) -> usize;
    fn cell(&self, i: usize) -> Cell<'_>;
}

impl GroupKey for Vec<KeyVal> {
    fn width(&self) -> usize {
        self.len()
    }

    fn cell(&self, i: usize) -> Cell<'_> {
        Cell::from_value(&self[i].0)
    }
}

impl GroupKey for Vec<Cell<'_>> {
    fn width(&self) -> usize {
        self.len()
    }

    fn cell(&self, i: usize) -> Cell<'_> {
        self[i]
    }
}

impl<'a> Borrow<dyn GroupKey + 'a> for Vec<KeyVal> {
    fn borrow(&self) -> &(dyn GroupKey + 'a) {
        self
    }
}

/// `Vec<KeyVal>`'s order: cell by cell, then the shorter first.
impl Ord for dyn GroupKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        let common = self.width().min(other.width());
        (0..common)
            .map(|i| cell_total_cmp(self.cell(i), other.cell(i)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.width().cmp(&other.width()))
    }
}

impl PartialOrd for dyn GroupKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn GroupKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn GroupKey + '_ {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_state_count_sum_avg() {
        let leaf = AggLeaf { func: AggFunc::Sum, arg: None, distinct: false };
        let mut s = AggState::new();
        s.update(&leaf, Some(Cell::Int(3)));
        s.update(&leaf, Some(Cell::Int(4)));
        s.update(&leaf, Some(Cell::Null)); // skipped
        assert_eq!(s.finish(AggFunc::Count), Value::Int(2));
        assert_eq!(s.finish(AggFunc::Sum), Value::Int(7));
        assert_eq!(s.finish(AggFunc::Avg), Value::Float(3.5));
    }

    #[test]
    fn agg_state_min_max() {
        let leaf = AggLeaf { func: AggFunc::Min, arg: None, distinct: false };
        let mut s = AggState::new();
        for v in [5, 2, 9] {
            s.update(&leaf, Some(Cell::Int(v)));
        }
        assert_eq!(s.finish(AggFunc::Min), Value::Int(2));
        assert_eq!(s.finish(AggFunc::Max), Value::Int(9));
    }

    #[test]
    fn distinct_dedups() {
        let leaf = AggLeaf { func: AggFunc::Count, arg: None, distinct: true };
        let mut s = AggState::new();
        for v in [1, 1, 2, 2, 3] {
            s.update(&leaf, Some(Cell::Int(v)));
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
        s.update(&leaf, Some(Cell::Float(1.5)));
        s.update(&leaf, Some(Cell::Float(2.0)));
        assert_eq!(s.finish(AggFunc::Sum), Value::Float(3.5));
    }

    /// The fold polls the guard once per block: a cancel raised while row
    /// 5000 is read ends the pass within that block.
    #[test]
    fn typed_fold_stops_within_a_block_of_a_cancel() {
        let guard = ExecGuard::new(&super::super::StatementLimits::unlimited());
        let handle = guard.cancel_handle();
        let read = |i: usize| {
            if i == 5_000 {
                handle.cancel();
            }
            Some(1i64)
        };
        let mut folds = vec![typed_fold(AggFunc::Sum, read, None)];
        assert!(!fold_blocks(600_000, &guard, &mut GroupIds::One, &mut folds));
        let states = folds.pop().expect("one fold").finish(1);
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
