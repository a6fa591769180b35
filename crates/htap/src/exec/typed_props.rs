//! Property tests holding the batch executor's typed kernels to the row
//! interpreter: [`par_filter_sel`] must select the rows [`eval_predicate`]
//! accepts, [`aggregate_cols`] must return the rows **and** counters of
//! [`aggregate`], [`sort_indices`] the row order of [`sort`] (full and
//! top-N), and [`join_pairs`] the rows and counters of `hash_join_pairs`,
//! over every column shape the kernels dispatch on — each encoding policy,
//! nullable and mixed columns, clean (one segment) and dirty (base + delta)
//! views, dense and selected batches, one to four threads. The morsel splice behind `par_eval_batch`
//! and `par_gather` must also keep each column's storage variant, which
//! the typed kernels dispatch on.
//!
//! Rows compare bit for bit (`NaN` payloads and the sign of zero included),
//! so a fold that adds floats in a different order, or breaks a tie
//! differently, fails here.

use super::agg::{aggregate, aggregate_cols, collect_all_leaves};
use super::parallel::{par_eval_batch, par_filter_sel, par_gather};
use super::sort::{sort, sort_indices};
use super::typed::{eval_col, ExprCol};
use super::vector::{classify_join, join_pairs, JoinKeys, JoinSide};
use super::{hash_join_pairs, ExecConfig, ExecGuard, Row, Rows, WorkCounters};
use crate::eval::{eval_predicate, EvalError, Layout, Schema, Slot};
use crate::plan::AggSpec;
use crate::storage::col_store::{ColRef, ColumnData, EncodingPolicy};
use proptest::prelude::*;
use qpe_sql::ast::{AggFunc, BinaryOp};
use qpe_sql::binder::{BoundExpr, ColumnRef};
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column positions of the generated table.
const K_STR: usize = 0; // low-cardinality strings (dictionary under Auto/Dict)
const K_INT: usize = 1; // few distinct ints in runs (RLE/FOR under those policies)
const K_DATE: usize = 2;
const K_FLOAT: usize = 3; // ±0.0 and NaN among the keys
const K_NINT: usize = 4; // nullable
const K_MIXED: usize = 5; // ints and strings
const A_INT: usize = 6; // wraps i64 when summed
const A_FLOAT: usize = 7; // NaN, ±0.0, magnitudes whose sum order matters
const A_DATE: usize = 8;
const A_NINT: usize = 9; // NULL for every row of K_INT group 0
const A_NFLOAT: usize = 10;
const A_STR: usize = 11;
const A_MIXED: usize = 12;
const A_SMALL: usize = 13; // safe to do arithmetic on
const RID: usize = 14; // unique, makes tie order visible
const WIDTH: usize = 15;

/// Uniform pick from a small pool.
fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
    pool[rng.gen_range(0..pool.len())]
}

/// True once in `k` draws.
fn one_in(rng: &mut StdRng, k: u32) -> bool {
    rng.gen_range(0..k) == 0
}

/// Logical column values, column-major.
fn generate(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); WIDTH];
    let mut run_key = 0i64;
    for i in 0..n {
        if one_in(rng, 8) {
            run_key = rng.gen_range(0..4);
        }
        let null = one_in(rng, 3);
        let int = pick(rng, &[i64::MAX, i64::MAX - 1, i64::MIN, -1, 0, 1, 7, 1 << 40]);
        let float = pick(rng, &[f64::NAN, 0.0, -0.0, 1e16, 1.0, -1e16, 0.1, 0.2, 0.3, f64::INFINITY]);
        cols[K_STR].push(Value::Str(pick(rng, &["open", "filled", "void"]).into()));
        cols[K_INT].push(Value::Int(run_key));
        cols[K_DATE].push(Value::Date(pick(rng, &[-3, 0, 9_000, 9_001])));
        cols[K_FLOAT].push(Value::Float(pick(rng, &[0.0, -0.0, f64::NAN, 2.5])));
        cols[K_NINT].push(if null { Value::Null } else { Value::Int(rng.gen_range(0..3)) });
        cols[K_MIXED].push(if one_in(rng, 2) { Value::Int(1) } else { Value::Str("1".into()) });
        cols[A_INT].push(Value::Int(int));
        cols[A_FLOAT].push(Value::Float(float));
        cols[A_DATE].push(Value::Date(pick(rng, &[i32::MIN, -1, 0, 18_000, i32::MAX])));
        cols[A_NINT].push(if null || run_key == 0 { Value::Null } else { Value::Int(int) });
        cols[A_NFLOAT].push(if null { Value::Null } else { Value::Float(float) });
        cols[A_STR].push(Value::Str(pick(rng, &["a", "b", "B", ""]).into()));
        cols[A_MIXED].push(match rng.gen_range(0..3) {
            0 => Value::Null,
            1 => Value::Float(float),
            _ => Value::Str("m".into()),
        });
        cols[A_SMALL].push(Value::Int(rng.gen_range(-50..50)));
        cols[RID].push(Value::Int(i as i64));
    }
    cols
}

/// Physical storage of one column: a clean table's single segment, or a
/// dirty table's encoded base plus the plain delta its builder would hold.
struct Stored {
    base: ColumnData,
    delta: Option<ColumnData>,
}

impl Stored {
    fn new(values: &[Value], policy: EncodingPolicy, split: Option<usize>) -> Stored {
        let cut = split.unwrap_or(values.len());
        let base = ColumnData::from_values(&values[..cut]).encoded_with(policy);
        let delta = split.map(|_| {
            let mut d = base.empty_like();
            values[cut..].iter().for_each(|v| d.push(v.clone()));
            d
        });
        Stored { base, delta }
    }

    fn col_ref(&self) -> ColRef<'_> {
        match &self.delta {
            None => ColRef::Single(&self.base),
            Some(delta) => ColRef::Chunked { base: &self.base, delta },
        }
    }
}

fn col(idx: usize) -> BoundExpr {
    // The executors resolve columns by position; the declared type is unused.
    BoundExpr::Column(ColumnRef { table_slot: 0, column_idx: idx, data_type: DataType::Int })
}

fn agg(func: AggFunc, arg: Option<BoundExpr>, distinct: bool) -> BoundExpr {
    BoundExpr::Aggregate { func, arg: arg.map(Box::new), distinct }
}

fn binary(left: BoundExpr, op: BinaryOp, right: BoundExpr) -> BoundExpr {
    BoundExpr::Binary { left: Box::new(left), op, right: Box::new(right) }
}

/// The group keys in the output, then every aggregate shape the fold
/// dispatches on.
fn outputs(group_by: &[BoundExpr]) -> Vec<AggSpec> {
    use AggFunc::*;
    let mut exprs: Vec<BoundExpr> = group_by.to_vec();
    exprs.push(agg(Count, None, false));
    for a in [A_INT, A_FLOAT, A_DATE, A_NINT, A_NFLOAT] {
        for f in [Count, Sum, Avg, Min, Max] {
            exprs.push(agg(f, Some(col(a)), false));
        }
    }
    // The AggState fallback: DISTINCT, strings, mixed values.
    exprs.push(agg(Count, Some(col(A_INT)), true));
    exprs.push(agg(Sum, Some(col(A_FLOAT)), true));
    exprs.push(agg(Min, Some(col(A_STR)), false));
    exprs.push(agg(Count, Some(col(A_STR)), false));
    exprs.push(agg(Max, Some(col(A_MIXED)), false));
    exprs.push(agg(Sum, Some(col(A_MIXED)), false));
    // A computed argument, and an output that combines two leaves.
    let plus_one = binary(col(A_SMALL), BinaryOp::Add, BoundExpr::Literal(Value::Int(1)));
    exprs.push(agg(Sum, Some(plus_one), false));
    exprs.push(binary(agg(Max, Some(col(A_SMALL)), false), BinaryOp::Sub, agg(Count, None, false)));
    exprs.into_iter().map(|expr| AggSpec { expr, label: String::new() }).collect()
}

/// One group-by per way `assign_groups` hands out ids.
fn key_sets() -> Vec<Vec<BoundExpr>> {
    vec![
        vec![],
        vec![col(K_STR)],
        vec![col(K_INT)],
        vec![col(K_DATE)],
        vec![col(K_FLOAT)],
        vec![col(K_NINT)],
        vec![col(K_MIXED)],
        vec![col(K_INT), col(K_STR)],
        vec![binary(col(A_SMALL), BinaryOp::Add, col(K_INT))],
    ]
}

/// Rows rendered so that equality is bit equality.
fn exact(rows: &[Row]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(x) => format!("f{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// The generated table in both forms the two sides read: physical columns
/// (with an optional selection) and the materialized rows in dense order.
struct Fixture {
    stored: Vec<Stored>,
    sel: Option<Vec<u32>>,
    rows: Vec<Row>,
    schema: Schema,
    physical: usize,
}

impl Fixture {
    fn new(seed: u64, n: usize, policy: EncodingPolicy, dirty: bool, selected: bool) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = generate(&mut rng, n);
        Fixture::of(&values, &mut rng, policy, dirty, selected)
    }

    /// Stores column-major `values` under `policy`, split into base and
    /// delta when `dirty`, read through a random selection when `selected`.
    fn of(
        values: &[Vec<Value>],
        rng: &mut StdRng,
        policy: EncodingPolicy,
        dirty: bool,
        selected: bool,
    ) -> Fixture {
        let n = values[0].len();
        let split = dirty.then(|| rng.gen_range(n / 2..=n));
        let stored = values.iter().map(|v| Stored::new(v, policy, split)).collect();
        let sel = selected.then(|| {
            let mut s: Vec<u32> = (0..n as u32).filter(|_| !one_in(rng, 4)).collect();
            if one_in(rng, 2) {
                s.reverse();
            }
            s
        });
        let dense: Vec<usize> = match &sel {
            Some(s) => s.iter().map(|&i| i as usize).collect(),
            None => (0..n).collect(),
        };
        let rows = dense.iter().map(|&i| values.iter().map(|c| c[i].clone()).collect()).collect();
        let schema = Schema::new((0..values.len()).map(|c| (0, c)).collect());
        Fixture { stored, sel, rows, schema, physical: n }
    }

    fn eval<'a>(&'a self, cfg: &ExecConfig, exprs: &[&BoundExpr]) -> Vec<ExprCol<'a>> {
        let cols: Vec<Option<ColRef<'a>>> = self.stored.iter().map(|s| Some(s.col_ref())).collect();
        exprs
            .iter()
            .map(|e| {
                eval_col(cfg, e, &self.schema, &cols, self.sel.as_deref(), self.physical)
                    .expect("evaluates")
            })
            .collect()
    }

    /// The join input keyed on columns `keys`.
    fn join_side(&self, keys: &[usize]) -> JoinSide<'_> {
        let keys = keys.iter().map(|&k| self.stored[k].col_ref()).collect();
        JoinSide { keys, sel: self.sel.as_deref(), len: self.rows.len() }
    }

    /// The logical row at physical position `i`, read back from storage.
    fn phys_row(&self, i: u32) -> Row {
        self.stored.iter().map(|s| s.col_ref().get(i as usize)).collect()
    }

    /// The interpreter's slots of row positions `cols`.
    fn slots(&self, cols: &[usize]) -> Vec<Slot> {
        let layout = Layout::flat(&self.schema);
        let slot = |c: usize| {
            let (table_slot, column_idx) = self.schema.columns()[c];
            layout.slot(table_slot, column_idx).expect("a schema column")
        };
        cols.iter().map(|&c| slot(c)).collect()
    }
}

/// Join-table columns: one key in each shape the join dispatches on, the
/// same logical key in every one, and a row id that shows match order.
const J_INT: usize = 0; // in runs (RLE/FOR under those policies)
const J_DATE: usize = 1;
const J_STR: usize = 2; // dictionary under Dict (and Auto when it pays)
const J_NINT: usize = 3; // nullable
const J_NDATE: usize = 4;
const J_RID: usize = 5;

/// One side of a generated join. The probe (`side` 0) and build (`side` 1)
/// draw keys from overlapping ranges, so some keys exist on one side only;
/// runs give the build side duplicate keys; `-1` and both `i64` extremes
/// appear on both sides.
fn join_table(rng: &mut StdRng, n: usize, side: i64) -> Vec<Vec<Value>> {
    let range = (n as i64 / 4).max(4);
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); J_RID + 1];
    let mut key = 0i64;
    for i in 0..n {
        if one_in(rng, 3) {
            key = if one_in(rng, 16) {
                pick(rng, &[i64::MIN, -1, i64::MAX])
            } else {
                rng.gen_range(0..range) + side * range / 2
            };
        }
        let date = key.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
        let null = one_in(rng, 5);
        cols[J_INT].push(Value::Int(key));
        cols[J_DATE].push(Value::Date(date));
        cols[J_STR].push(Value::Str(format!("k{key}")));
        cols[J_NINT].push(if null { Value::Null } else { Value::Int(key) });
        cols[J_NDATE].push(if null { Value::Null } else { Value::Date(date) });
        cols[J_RID].push(Value::Int(i as i64));
    }
    cols
}

/// Columns the filter property tests, one of each shape the selection
/// kernels dispatch on.
const FILTER_COLS: [usize; 11] =
    [K_STR, K_INT, K_DATE, K_FLOAT, K_NINT, K_MIXED, A_INT, A_FLOAT, A_DATE, A_NFLOAT, A_STR];

/// A literal for a filter on column `c`: half the time one of the column's
/// own type, otherwise any type — NULL, ±0.0, NaN and the `i64` extremes
/// included.
fn filter_literal(rng: &mut StdRng, c: usize) -> Value {
    let ints = [0, 1, 2, 3, 7, -1, i64::MIN, i64::MAX, 1 << 40];
    let floats = [0.0, -0.0, f64::NAN, 1.0, 2.5, -1e16, 0.1, f64::INFINITY];
    let dates = [-3, 0, 9_000, 9_001, 18_000, i32::MIN, i32::MAX];
    let strs = ["open", "void", "b", "B", "1", ""];
    let kind = match c {
        _ if one_in(rng, 2) => rng.gen_range(0..5),
        K_INT | K_NINT | A_INT => 0,
        K_FLOAT | A_FLOAT | A_NFLOAT => 1,
        K_DATE | A_DATE => 2,
        _ => 3,
    };
    match kind {
        0 => Value::Int(pick(rng, &ints)),
        1 => Value::Float(pick(rng, &floats)),
        2 => Value::Date(pick(rng, &dates)),
        3 => Value::Str(pick(rng, &strs).into()),
        _ => Value::Null,
    }
}

/// One filter atom: a comparison either way round, BETWEEN, IN, IS [NOT]
/// NULL, or a comparison over a computed or second column.
fn filter_atom(rng: &mut StdRng) -> BoundExpr {
    const OPS: [BinaryOp; 6] =
        [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq];
    let c = pick(rng, &FILTER_COLS);
    let op = pick(rng, &OPS);
    let lit = |rng: &mut StdRng| filter_literal(rng, c);
    match rng.gen_range(0..8) {
        0..=2 => {
            let l = BoundExpr::Literal(lit(rng));
            if one_in(rng, 3) {
                binary(l, op, col(c))
            } else {
                binary(col(c), op, l)
            }
        }
        3 => BoundExpr::Between {
            expr: Box::new(col(c)),
            low: Box::new(BoundExpr::Literal(lit(rng))),
            high: Box::new(BoundExpr::Literal(lit(rng))),
        },
        4 => BoundExpr::InList {
            expr: Box::new(col(c)),
            list: (0..rng.gen_range(1..4)).map(|_| lit(rng)).collect(),
            negated: one_in(rng, 2),
        },
        5 => BoundExpr::IsNull { expr: Box::new(col(c)), negated: one_in(rng, 2) },
        6 => binary(col(c), op, col(pick(rng, &[K_INT, A_SMALL, K_FLOAT]))),
        // Arithmetic: can fail per row, and on strings and mixed cells does.
        _ => {
            let arg = pick(rng, &[A_SMALL, A_SMALL, A_SMALL, K_NINT, K_STR, A_MIXED]);
            let sum = binary(col(arg), BinaryOp::Add, BoundExpr::Literal(Value::Int(1)));
            binary(sum, op, BoundExpr::Literal(Value::Int(pick(rng, &[-10, 0, 5]))))
        }
    }
}

/// A random predicate: atoms under AND / OR / NOT, up to `depth` deep.
fn filter_predicate(rng: &mut StdRng, depth: u32) -> BoundExpr {
    if depth == 0 || one_in(rng, 3) {
        return filter_atom(rng);
    }
    let (l, r) = (filter_predicate(rng, depth - 1), filter_predicate(rng, depth - 1));
    match rng.gen_range(0..3) {
        0 => binary(l, BinaryOp::And, r),
        1 => binary(l, BinaryOp::Or, r),
        _ => BoundExpr::Not(Box::new(l)),
    }
}

const POLICIES: [EncodingPolicy; 5] = [
    EncodingPolicy::Auto,
    EncodingPolicy::Plain,
    EncodingPolicy::Dict,
    EncodingPolicy::Rle,
    EncodingPolicy::For,
];

/// Every (policy, dirty, selected) storage cell.
fn storage_grid() -> impl Iterator<Item = (usize, bool, bool)> {
    (0..POLICIES.len()).flat_map(|p| {
        [(false, false), (false, true), (true, false), (true, true)].map(|(d, s)| (p, d, s))
    })
}

fn cfg(threads: usize) -> ExecConfig {
    ExecConfig { threads, morsel_rows: 16, ..ExecConfig::serial() }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The selection kernels against the row interpreter: for random
    /// predicates over every encoding policy × clean/dirty × dense/selected
    /// storage, the filter at threads 1/2/4 over 64-row morsels keeps
    /// exactly the physical rows `eval_predicate` accepts, in order — or
    /// fails exactly when the interpreter does. Tables of up to 2.5 k rows
    /// let FOR blocks straddle morsels.
    #[test]
    fn typed_filter_equals_the_row_interpreter(
        seed in any::<u64>(),
        n in prop_oneof![Just(0usize), 1usize..40, 64usize..300, 1000usize..2500],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = generate(&mut rng, n);
        let predicates: Vec<BoundExpr> = (0..24).map(|_| filter_predicate(&mut rng, 2)).collect();
        for (policy, dirty, selected) in storage_grid() {
            let fx = Fixture::of(&values, &mut rng, POLICIES[policy], dirty, selected);
            let cols: Vec<Option<ColRef>> = fx.stored.iter().map(|s| Some(s.col_ref())).collect();
            let phys = |j: usize| fx.sel.as_ref().map_or(j as u32, |s| s[j]);
            // A dense dirty batch cuts its morsels at the base/delta split.
            let cuts: Vec<usize> = match (&fx.sel, cols.first().and_then(|c| c.as_ref())) {
                (None, Some(c)) => c.split_point().into_iter().collect(),
                _ => Vec::new(),
            };
            for pred in &predicates {
                let want: Result<Vec<u32>, EvalError> = fx.rows.iter().enumerate().try_fold(
                    Vec::new(),
                    |mut kept, (j, row)| {
                        if eval_predicate(pred, &fx.schema, row)? {
                            kept.push(phys(j));
                        }
                        Ok(kept)
                    },
                );
                for threads in [1, 2, 4] {
                    let cfg = ExecConfig { threads, morsel_rows: 64, ..ExecConfig::serial() };
                    let got = par_filter_sel(
                        &cfg, pred, &fx.schema, &cols, fx.sel.as_deref(), fx.physical, 64, &cuts,
                    );
                    let label = format!("{pred:?}, policy {policy}, dirty {dirty}, selected {selected}, {threads} threads");
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => prop_assert_eq!(g, w, "{}", label),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(false, "{}: got {:?}, want {:?}", label, got.is_ok(), want.is_ok()),
                    }
                }
            }
        }
    }

    #[test]
    fn typed_aggregation_equals_the_row_interpreter(
        seed in any::<u64>(),
        n in prop_oneof![Just(0usize), 1usize..40, 64usize..300],
        policy in 0usize..POLICIES.len(),
        dirty in any::<bool>(),
        selected in any::<bool>(),
        with_having in any::<bool>(),
        hash in any::<bool>(),
    ) {
        let fx = Fixture::new(seed, n, POLICIES[policy], dirty, selected);
        let guard = ExecGuard::unlimited();
        let having = with_having
            .then(|| binary(agg(AggFunc::Count, None, false), BinaryOp::Gt, BoundExpr::Literal(Value::Int(1))));
        for group_by in key_sets() {
            let outputs = outputs(&group_by);
            let mut want_c = WorkCounters::default();
            let want = aggregate(
                &mut want_c, &Rows::Owned(fx.rows.clone()), &fx.schema, &group_by, &outputs, having.as_ref(), hash, guard,
            ).expect("row interpreter aggregates");

            let leaves = collect_all_leaves(&outputs, having.as_ref());
            for threads in [1, 2, 4] {
                let cfg = cfg(threads);
                let key_cols = fx.eval(&cfg, &group_by.iter().collect::<Vec<_>>());
                let arg_cols: Vec<Option<ExprCol>> = leaves
                    .iter()
                    .map(|l| l.arg.as_ref().map(|a| fx.eval(&cfg, &[a]).remove(0)))
                    .collect();
                let mut got_c = WorkCounters::default();
                let got = aggregate_cols(
                    &mut got_c, guard, fx.rows.len(), fx.sel.as_deref(), &key_cols, &arg_cols,
                    &group_by, &leaves, &outputs, having.as_ref(), hash,
                ).expect("typed path aggregates");
                prop_assert_eq!(exact(&got), exact(&want), "rows, keys {:?}, {} threads", group_by, threads);
                prop_assert_eq!(got_c, want_c, "counters, keys {:?}", group_by);
            }
        }
    }

    /// Both executors' sorts and top-N equal a stable full sort of the
    /// rows, with `Value::total_cmp` per key, then `skip(offset)
    /// .take(limit)`: rows with equal keys keep their input order, so the
    /// answer does not depend on which rows a bounded buffer happened to
    /// keep. Keys tie heavily, NULLs among them; the row id column shows
    /// which tied rows each side kept. Single numeric keys take the batch
    /// executor's `i128` arm, the rest its tuple arm. `limit` is 0, 1, n/2,
    /// n or n+3, and the counters match the row interpreter's.
    #[test]
    fn top_n_equals_the_stable_full_sort(
        seed in any::<u64>(),
        n in prop_oneof![Just(0usize), 1usize..40, 64usize..300],
        policy in 0usize..POLICIES.len(),
        dirty in any::<bool>(),
        selected in any::<bool>(),
        desc in any::<bool>(),
        k in 0usize..5,
        offset in 0u64..8,
    ) {
        let fx = Fixture::new(seed, n, POLICIES[policy], dirty, selected);
        let rows = fx.rows.len();
        let limit = [0, 1, rows / 2, rows, rows + 3][k] as u64;
        let guard = ExecGuard::unlimited();
        let rids = |idxs: &[u32]| idxs.iter().map(|&i| Value::Int(i as i64)).collect::<Vec<_>>();
        let rid_col =
            |idxs: &[usize]| idxs.iter().map(|&i| fx.rows[i][RID].clone()).collect::<Vec<_>>();
        let key_sets = [
            // The `i128` arm.
            vec![K_INT], vec![K_NINT], vec![K_FLOAT], vec![K_DATE],
            // The tuple arm.
            vec![K_STR], vec![K_MIXED], vec![K_NINT, K_INT], vec![K_FLOAT, K_INT],
            vec![K_FLOAT, K_STR],
        ];
        for key_set in key_sets {
            let keys: Vec<(BoundExpr, bool)> =
                key_set.iter().enumerate().map(|(i, &k)| (col(k), desc ^ (i == 1))).collect();
            let descs: Vec<bool> = keys.iter().map(|(_, d)| *d).collect();
            let mut stable: Vec<usize> = (0..rows).collect();
            stable.sort_by(|&a, &b| {
                key_set
                    .iter()
                    .zip(&descs)
                    .map(|(&k, &d)| {
                        let o = fx.rows[a][k].total_cmp(&fx.rows[b][k]);
                        if d { o.reverse() } else { o }
                    })
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let want_sorted = rid_col(&stable);
            let want_top: Vec<Value> =
                want_sorted.iter().skip(offset as usize).take(limit as usize).cloned().collect();

            let mut want_c = WorkCounters::default();
            let rows_in = Rows::Owned(fx.rows.clone());
            let top = sort(&mut want_c, &rows_in, &fx.schema, &keys, Some((limit, offset)), guard)
                .expect("row top-N");
            let sorted = sort(&mut want_c, &rows_in, &fx.schema, &keys, None, guard)
                .expect("row sort");
            prop_assert_eq!(rid_col(&top), want_top.clone(), "row top-N, keys {:?}", key_set);
            prop_assert_eq!(rid_col(&sorted), want_sorted.clone(), "row sort, keys {:?}", key_set);
            for threads in [1, 2, 4] {
                let cfg = cfg(threads);
                let key_cols = fx.eval(&cfg, &keys.iter().map(|(k, _)| k).collect::<Vec<_>>());
                let mut c = WorkCounters::default();
                let sel = fx.sel.as_deref();
                let top = sort_indices(&mut c, &key_cols, &descs, sel, rows, Some((limit, offset)), guard);
                let sorted = sort_indices(&mut c, &key_cols, &descs, sel, rows, None, guard);
                prop_assert_eq!(rids(&top), want_top.clone(), "batch top-N, keys {:?}", key_set);
                prop_assert_eq!(rids(&sorted), want_sorted.clone(), "batch sort, keys {:?}", key_set);
                prop_assert_eq!(c, want_c, "counters, keys {:?}", key_set);
            }
        }
    }

    /// Every pair of key encodings (each side's policy, cleanliness and
    /// selection drawn independently), at threads 1/2/4 over 64-row morsels.
    /// Tables hold no single row, so a dirty one keeps a typed base.
    #[test]
    fn typed_join_equals_the_row_interpreter(
        seed in any::<u64>(),
        n_probe in prop_oneof![Just(0usize), 2usize..40, 64usize..300, 1000usize..2500],
        n_build in prop_oneof![Just(0usize), 2usize..40, 64usize..300, 1000usize..2500],
        // Half the cases dictionary-encode both sides: the code-remap path.
        policies in prop_oneof![
            Just((2usize, 2usize)),
            (0usize..POLICIES.len(), 0usize..POLICIES.len()),
        ],
        dirty in (any::<bool>(), any::<bool>()),
        selected in (any::<bool>(), any::<bool>()),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pv, bv) = (join_table(&mut rng, n_probe, 0), join_table(&mut rng, n_build, 1));
        let probe = Fixture::of(&pv, &mut rng, POLICIES[policies.0], dirty.0, selected.0);
        let build = Fixture::of(&bv, &mut rng, POLICIES[policies.1], dirty.1, selected.1);
        let guard = ExecGuard::unlimited();
        let key_pairs: [(&[usize], &[usize]); 9] = [
            (&[J_INT], &[J_INT]),
            (&[J_DATE], &[J_DATE]),
            (&[J_STR], &[J_STR]),
            (&[J_NINT], &[J_NINT]),
            (&[J_NDATE], &[J_NDATE]),
            (&[J_INT], &[J_NINT]),
            (&[J_INT, J_STR], &[J_INT, J_STR]),
            (&[J_INT], &[J_DATE]),
            (&[J_DATE], &[J_INT]),
        ];
        // Single never-NULL keys: their paths are pinned, and only Int
        // against Date may (and must) take the disjoint one.
        let never_null = |k: &[usize]| k.len() == 1 && [J_INT, J_DATE].contains(&k[0]);
        for (pk, bk) in key_pairs {
            let (pside, bside) = (probe.join_side(pk), build.join_side(bk));
            let int_vs_date = never_null(pk) && never_null(bk) && pk != bk;
            if never_null(pk) && never_null(bk) && n_probe > 0 && n_build > 0 {
                let want_path = if int_vs_date { "disjoint" } else { "int-keyed" };
                let path = match classify_join(&pside.keys, &bside.keys) {
                    JoinKeys::Integer(..) => "int-keyed",
                    JoinKeys::Disjoint => "disjoint",
                    JoinKeys::Generic => "generic",
                };
                prop_assert_eq!(path, want_path, "keys {:?}/{:?}", pk, bk);
            }
            let mut want_c = WorkCounters::default();
            let (brows, prows) = (Rows::Owned(build.rows.clone()), Rows::Owned(probe.rows.clone()));
            let (bslots, pslots) = (build.slots(bk), probe.slots(pk));
            let pairs = hash_join_pairs(&mut want_c, guard, &brows, &prows, &bslots, &pslots)
                .expect("row interpreter joins");
            let want: Vec<Row> = pairs
                .into_iter()
                .map(|(p, b)| [&probe.rows[p as usize][..], &build.rows[b as usize][..]].concat())
                .collect();
            for threads in [1, 2, 4] {
                let cfg = ExecConfig { threads, morsel_rows: 64, ..ExecConfig::serial() };
                let mut got_c = WorkCounters::default();
                let (pi, bi) = join_pairs(&cfg, &mut got_c, &pside, &bside);
                let got: Vec<Row> = pi
                    .iter()
                    .zip(&bi)
                    .map(|(&p, &b)| [probe.phys_row(p), build.phys_row(b)].concat())
                    .collect();
                prop_assert_eq!(got_c, want_c, "counters, keys {:?}/{:?}", pk, bk);
                if int_vs_date {
                    // Int against Date: the interpreter's map can call
                    // `Value`'s widening `==` on a hash collision, so only
                    // the intended answer is checked — no pair matches.
                    prop_assert!(got.is_empty(), "keys {:?}/{:?}", pk, bk);
                    continue;
                }
                let label = format!("keys {pk:?}/{bk:?}, {threads} threads");
                prop_assert_eq!(exact(&got), exact(&want), "{}", label);
            }
        }
    }

    /// The morsel splice keeps the serial representation: at threads 2
    /// over 64-row morsels, `par_eval_batch` (every column, and a computed
    /// expression) and `par_gather` (every column) return the same
    /// `ColumnData` variant as at threads 1, under every encoding policy ×
    /// clean/dirty × dense/selected storage. A variant the splice demotes
    /// keeps its values but silently costs every consumer its typed path.
    #[test]
    fn par_kernels_keep_the_serial_column_variant(
        seed in any::<u64>(),
        n in prop_oneof![65usize..300, 1000usize..2500],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = generate(&mut rng, n);
        let serial = ExecConfig { threads: 1, morsel_rows: 64, ..ExecConfig::serial() };
        let parallel = ExecConfig { threads: 2, morsel_rows: 64, ..ExecConfig::serial() };
        let variant = std::mem::discriminant::<ColumnData>;
        let exprs: Vec<BoundExpr> = (0..WIDTH)
            .map(col)
            .chain([binary(col(A_SMALL), BinaryOp::Add, col(K_INT))])
            .collect();
        for (policy, dirty, selected) in storage_grid() {
            let fx = Fixture::of(&values, &mut rng, POLICIES[policy], dirty, selected);
            let cols: Vec<Option<ColRef>> = fx.stored.iter().map(|s| Some(s.col_ref())).collect();
            let label = format!("policy {policy}, dirty {dirty}, selected {selected}");
            for expr in &exprs {
                let [one, two] = [&serial, &parallel].map(|cfg| {
                    par_eval_batch(cfg, expr, &fx.schema, &cols, fx.sel.as_deref(), fx.physical)
                        .expect("evaluates")
                });
                prop_assert_eq!(variant(&one), variant(&two), "par_eval_batch {:?}, {}", expr, label);
            }
            let idxs: Vec<u32> = fx.sel.clone().unwrap_or_else(|| (0..n as u32).collect());
            for (c, stored) in fx.stored.iter().enumerate() {
                let [one, two] = [&serial, &parallel].map(|cfg| par_gather(cfg, stored.col_ref(), &idxs));
                prop_assert_eq!(variant(&one), variant(&two), "par_gather column {}, {}", c, label);
            }
        }
    }
}
