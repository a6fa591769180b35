//! Plan execution.
//!
//! Three execution modes share one plan vocabulary and one set of counters:
//!
//! * the **row interpreter** ([`execute_scalar`]) runs both engines' plans
//!   row-at-a-time — TP plans always take this path. It reads row-store
//!   tuples in place, and joins do not materialize either: a join hands its
//!   parent both inputs as they came plus the matched (outer, inner)
//!   positions — a join's outer input may itself be a join — and filters,
//!   sorts, limits and aggregates read each joined row where its cells
//!   live. Only a projection and the root copy cells. Expressions are
//!   compiled once per operator with their columns resolved, and read
//!   cells by reference. Counters still charge whole tuples, by the same
//!   formulas as when every row was built;
//! * the **vectorized batch executor** ([`vector`]) runs AP plans
//!   column-at-a-time over typed batches with selection vectors and late
//!   materialization;
//! * the **morsel-driven parallel executor** ([`parallel`]) is the batch
//!   executor with its kernels fanned out over the calling thread plus one
//!   process-wide pool of parked workers (a call that finds the pool busy
//!   runs on its own thread): scans and filters split into fixed-size
//!   morsels (cut at base/delta chunk boundaries), hash-join probes share
//!   one serially built table, aggregation inputs and sort keys evaluate per
//!   morsel ahead of one serial fold or sort.
//!
//! [`execute`] dispatches: AP plans route to the batch executor (falling
//! back to the interpreter for out-of-vocabulary operators), TP plans to
//! the interpreter. The AP side's parallelism comes from an
//! [`parallel::ExecConfig`] (defaulting to the machine's cores;
//! `QPE_AP_THREADS` / `QPE_MORSEL_ROWS` override it) — [`execute_with`]
//! takes one explicitly, and `threads == 1` is the exact serial batch path.
//! The thread count moves wall-clock only: the latency model prices AP work
//! at one thread whatever the config.
//!
//! **Determinism contract:** every mode returns byte-identical rows *and*
//! identical [`WorkCounters`] for the same plan — parallel merges are
//! order-restoring (morsel order = serial order), aggregates fold every
//! group in dense row order so even float accumulation keeps the serial
//! association order, and counters are charged from input sizes by shared
//! formulas. `ORDER BY` is stated once, in `sort`: every mode sorts with
//! one stable sort and cuts a top-N with one bounded buffer that inserts
//! after equal keys, so rows with equal keys keep their input order whether
//! a LIMIT bounds the sort or not. The latency model, optimizer, router and
//! explainer consume counters, not wall-clock, so execution mode and thread
//! count are invisible to them (`tests/engine_equivalence.rs` and
//! `tests/parallel_determinism.rs` enforce this).

mod agg;
pub mod guard;
pub mod parallel;
mod sort;
pub(crate) mod typed;
#[cfg(test)]
mod typed_props;
pub mod vector;

pub use agg::AggLeaf;
pub use guard::{CancelHandle, ExecGuard, GovernError, StatementLimits};
pub use parallel::ExecConfig;
pub(crate) use sort::result_order;

use crate::engine::{Database, EngineKind};
use crate::eval::{EvalError, Layout, RowExpr, Schema, Slot};
use crate::plan::{IndexLookup, PlanNode, PlanOp, PlanTerm};
use crate::storage::{BTreeIndex, ScanPruner, StoredTable};
use qpe_sql::binder::{BoundDml, BoundExpr, BoundQuery, ColumnRef};
use qpe_sql::catalog::Catalog;
use qpe_sql::value::Value;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// A materialized row.
pub type Row = Vec<Value>;

/// Work performed during one plan execution; the latency model's input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkCounters {
    /// Full rows fetched from the row store.
    pub rows_scanned: u64,
    /// Individual cells touched in the column store.
    pub cells_scanned: u64,
    /// B-tree traversals.
    pub index_probes: u64,
    /// Rows fetched through an index.
    pub index_fetches: u64,
    /// Predicate evaluations.
    pub filter_evals: u64,
    /// Nested-loop (outer, inner) pairs examined.
    pub nlj_pairs: u64,
    /// Rows inserted into join hash tables.
    pub hash_build_rows: u64,
    /// Rows probed against join hash tables.
    pub hash_probe_rows: u64,
    /// Comparisons performed by full sorts.
    pub sort_comparisons: u64,
    /// Rows pushed through top-N heaps.
    pub topn_pushes: u64,
    /// Rows aggregated.
    pub agg_rows: u64,
    /// Rows in the final result.
    pub output_rows: u64,
    /// Rows appended by `INSERT` (and the append half of an update).
    pub rows_inserted: u64,
    /// Rows rewritten by `UPDATE`.
    pub rows_updated: u64,
    /// Rows tombstoned by `DELETE`.
    pub rows_deleted: u64,
    /// B-tree index entry modifications performed by the write path.
    pub index_updates: u64,
    /// Zone-map block stats headers consulted by pruned AP scans.
    pub blocks_checked: u64,
    /// Base blocks skipped outright by zone-map pruning — the storage-side
    /// savings signal the latency model and router features consume.
    pub blocks_pruned: u64,
}

impl WorkCounters {
    /// Sum of all counters — a crude "total work" scalar used in tests.
    pub fn total(&self) -> u64 {
        self.rows_scanned
            + self.cells_scanned
            + self.index_probes
            + self.index_fetches
            + self.filter_evals
            + self.nlj_pairs
            + self.hash_build_rows
            + self.hash_probe_rows
            + self.sort_comparisons
            + self.topn_pushes
            + self.agg_rows
            + self.output_rows
            + self.rows_inserted
            + self.rows_updated
            + self.rows_deleted
            + self.index_updates
            + self.blocks_checked
            + self.blocks_pruned
    }
}

/// Execution error.
#[derive(Debug)]
pub enum ExecError {
    /// Expression evaluation failed.
    Eval(EvalError),
    /// Plan shape invalid (e.g. IndexProbe executed standalone).
    BadPlan(String),
    /// A table referenced by the plan is missing from the database.
    MissingTable(String),
    /// A write violated a constraint (duplicate primary key, type mismatch).
    Write(String),
    /// The statement's [`ExecGuard`] tripped (cancelled / timed out /
    /// exceeded its memory budget) — mapped to the corresponding structured
    /// `HtapError` at the engine boundary.
    Governed(GovernError),
}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        ExecError::Eval(e)
    }
}

impl From<GovernError> for ExecError {
    fn from(e: GovernError) -> Self {
        ExecError::Governed(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Eval(e) => write!(f, "evaluation error: {e}"),
            ExecError::BadPlan(m) => write!(f, "bad plan: {m}"),
            ExecError::MissingTable(t) => write!(f, "missing table: {t}"),
            ExecError::Write(m) => write!(f, "write error: {m}"),
            ExecError::Governed(g) => write!(f, "statement stopped: {g}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes `plan` for `query` against `db`, returning the final output rows
/// and the work counters accumulated along the way.
///
/// AP plans run on the vectorized batch executor when every operator is in
/// its vocabulary (the AP optimizer only emits such plans); everything else
/// runs on the row interpreter. Both executors produce identical rows and
/// identical counters, so dispatch is purely a performance decision.
pub fn execute(
    plan: &PlanNode,
    query: &BoundQuery,
    db: &Database,
    engine: EngineKind,
) -> Result<(Vec<Row>, WorkCounters), ExecError> {
    execute_with(plan, query, db, engine, ExecConfig::global())
}

/// [`execute`] with an explicit parallelism knob for the AP batch executor.
/// `cfg.threads == 1` is the exact serial batch path; TP plans ignore the
/// config entirely (index probes are inherently row-at-a-time).
pub fn execute_with(
    plan: &PlanNode,
    query: &BoundQuery,
    db: &Database,
    engine: EngineKind,
    cfg: &ExecConfig,
) -> Result<(Vec<Row>, WorkCounters), ExecError> {
    let out = if engine == EngineKind::Ap && vector::supported(plan) {
        vector::execute_with(plan, query, db, cfg)
    } else {
        execute_scalar_guarded(plan, query, db, engine, cfg.guard())
    };
    // A tripped guard outranks whatever the abort produced (truncated rows
    // from abandoned morsels, or a secondary error): the caller always sees
    // the structured governed cause, never the debris.
    cfg.guard().check()?;
    out
}

/// Executes `plan` on the row-at-a-time interpreter regardless of engine —
/// the reference semantics the batch executor is tested against.
pub fn execute_scalar(
    plan: &PlanNode,
    query: &BoundQuery,
    db: &Database,
    engine: EngineKind,
) -> Result<(Vec<Row>, WorkCounters), ExecError> {
    execute_scalar_guarded(plan, query, db, engine, ExecGuard::unlimited())
}

/// [`execute_scalar`] under a statement guard, checked at operator entry
/// and every ~1k rows of the interpreter's hot loops.
pub(crate) fn execute_scalar_guarded(
    plan: &PlanNode,
    query: &BoundQuery,
    db: &Database,
    engine: EngineKind,
    guard: &ExecGuard,
) -> Result<(Vec<Row>, WorkCounters), ExecError> {
    let mut ex = Executor { query, db, engine, counters: WorkCounters::default(), guard };
    let rows = ex.run(plan)?.into_owned();
    ex.counters.output_rows = rows.len() as u64;
    Ok((rows, ex.counters))
}

/// Rows between cooperative guard checks in scalar per-row loops: frequent
/// enough that cancellation lands within one block, rare enough that the
/// check (one relaxed load) is amortized to noise.
pub(crate) const GUARD_CHECK_ROWS: usize = 1024;

/// Executes `plan` on the batch executor with the given config
/// (`ExecConfig::serial()` is the serial path), erroring on operators
/// outside the batch vocabulary. Exposed for the differential tests and the
/// benchmark harness.
pub fn execute_parallel(
    plan: &PlanNode,
    query: &BoundQuery,
    db: &Database,
    cfg: &ExecConfig,
) -> Result<(Vec<Row>, WorkCounters), ExecError> {
    vector::execute_with(plan, query, db, cfg)
}

/// Resolves one index-lookup term to its literal value. Prepared plans are
/// parameter-substituted before execution, so a surviving `Param` term is a
/// session-layer bug, not a user error.
fn term_value(t: &PlanTerm) -> Result<&Value, ExecError> {
    t.as_lit().ok_or_else(|| {
        ExecError::BadPlan("unresolved parameter in index lookup (plan not substituted)".into())
    })
}

/// Resolves a whole key list ([`IndexLookup::Keys`]) to borrowed values —
/// no per-execution key clones on the index-scan hot path.
fn term_values(terms: &[PlanTerm]) -> Result<Vec<&Value>, ExecError> {
    terms.iter().map(term_value).collect()
}

/// A join key cell as every join matches it — both executors' hash joins,
/// the nested loop and the index nested loop: keys of two types never match
/// (what the batch join's `Disjoint` class answers for `Int`↔`Date`), `-0.0`
/// matches `0.0`, and NULL and NaN are no key at all — they match nothing.
/// `Hash` and `Eq` agree, so no answer depends on which keys happen to
/// collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey<'a> {
    Int(i64),
    Date(i32),
    /// The bit pattern, `-0.0` normalized to `0.0`.
    Float(u64),
    Str(Cow<'a, str>),
}

impl<'a> JoinKey<'a> {
    /// The key of a cell; `None` for NULL and NaN.
    pub(crate) fn of(v: &'a Value) -> Option<JoinKey<'a>> {
        match v {
            Value::Str(s) => Some(JoinKey::Str(Cow::Borrowed(s))),
            other => JoinKey::owned(other.clone()),
        }
    }

    /// [`JoinKey::of`] an owned cell.
    pub(crate) fn owned(v: Value) -> Option<JoinKey<'static>> {
        Some(match v {
            Value::Null => return None,
            Value::Int(x) => JoinKey::Int(x),
            Value::Date(d) => JoinKey::Date(d),
            Value::Float(x) if x.is_nan() => return None,
            Value::Float(x) => JoinKey::Float(if x == 0.0 { 0 } else { x.to_bits() }),
            Value::Str(s) => JoinKey::Str(Cow::Owned(s)),
        })
    }
}

/// The row interpreter's hash join: a table over `build`'s keys at `bkeys`,
/// probed with `probe`'s keys at `pkeys`; each probe row pairs with its
/// matches in build order. Returns the matched (probe, build) positions.
/// Keys match as [`JoinKey`]s, so NULL keys never match.
fn hash_join_pairs<'r>(
    counters: &mut WorkCounters,
    guard: &ExecGuard,
    build: &'r Rows<'_>,
    probe: &'r Rows<'_>,
    bkeys: &[Slot],
    pkeys: &[Slot],
) -> Result<Vec<(u32, u32)>, ExecError> {
    // Keys borrow from the rows; single-key joins (the common case) skip
    // the key vector entirely.
    if let (&[b], &[p]) = (bkeys, pkeys) {
        return hash_join_on(
            counters,
            guard,
            build,
            probe,
            |row| JoinKey::of(b.read(row)),
            |row| JoinKey::of(p.read(row)),
        );
    }
    let key = |slots: &[Slot], row: &[&'r [Value]]| {
        slots.iter().map(|s| JoinKey::of(s.read(row))).collect::<Option<Vec<_>>>()
    };
    hash_join_on(counters, guard, build, probe, |row| key(bkeys, row), |row| key(pkeys, row))
}

/// [`hash_join_pairs`] under any key: `bkey` and `pkey` read a row's key,
/// `None` for a row that matches nothing.
fn hash_join_on<'r, K: std::hash::Hash + Eq>(
    counters: &mut WorkCounters,
    guard: &ExecGuard,
    build: &'r Rows<'_>,
    probe: &'r Rows<'_>,
    bkey: impl Fn(&[&'r [Value]]) -> Option<K>,
    pkey: impl Fn(&[&'r [Value]]) -> Option<K>,
) -> Result<Vec<(u32, u32)>, ExecError> {
    let mut table: HashMap<K, Vec<u32>> = HashMap::with_capacity(build.len());
    build.try_for_each(|i, row| {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.hash_build_rows += 1;
        if let Some(key) = bkey(row) {
            table.entry(key).or_default().push(i as u32);
        }
        Ok::<_, ExecError>(())
    })?;
    let mut pairs = Vec::new();
    probe.try_for_each(|i, row| {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.hash_probe_rows += 1;
        if let Some(matches) = pkey(row).and_then(|key| table.get(&key)) {
            pairs.extend(matches.iter().map(|&m| (i as u32, m)));
        }
        Ok::<_, ExecError>(())
    })?;
    Ok(pairs)
}

/// Rows one interpreter operator hands its parent: rows it built, stored
/// tuples it reads in place from the row store, or a join's output left
/// unbuilt (late materialization, as in Abadi et al., ICDE 2007). A row is
/// read as a list of slices where its cells live — one per joined input —
/// through a `Layout` resolved once per operator. Filters, sorts and limits
/// keep the form they are given; only a projection and the root copy
/// cells. Counters charge whole tuples whatever the form.
enum Rows<'a> {
    Owned(Vec<Row>),
    Borrowed(Vec<&'a [Value]>),
    Joined(Box<Joined<'a>>),
}

/// A join's output, unbuilt: both inputs as they came and the matched
/// (outer, inner) positions in output order. A joined row is the outer
/// row's slices followed by the inner row's. Either input may itself be a
/// join.
struct Joined<'a> {
    outer: Rows<'a>,
    inner: Rows<'a>,
    /// The outer input's columns; the inner input's follow them.
    outer_width: usize,
    pairs: Vec<(u32, u32)>,
}

impl<'a> Joined<'a> {
    /// Appends the slices of the joined row of `pair` to `out`.
    fn segs<'s>(&'s self, (o, i): (u32, u32), out: &mut Vec<&'s [Value]>) {
        self.outer.segs(o as usize, out);
        self.inner.segs(i as usize, out);
    }

    /// Appends the widths of its rows' slices, for rows `width` columns
    /// wide.
    fn widths(&self, width: usize, out: &mut Vec<usize>) {
        self.outer.widths(self.outer_width, out);
        self.inner.widths(width - self.outer_width, out);
    }

    /// `schema`, the join's output schema, resolved for its rows.
    fn layout<'s>(&self, schema: &'s Schema) -> Layout<'s> {
        let mut widths = Vec::new();
        self.widths(schema.len(), &mut widths);
        Layout::new(schema, widths)
    }
}

impl<'a> Rows<'a> {
    fn len(&self) -> usize {
        match self {
            Rows::Owned(v) => v.len(),
            Rows::Borrowed(v) => v.len(),
            Rows::Joined(j) => j.pairs.len(),
        }
    }

    /// Appends the slices of row `i` to `out`.
    fn segs<'s>(&'s self, i: usize, out: &mut Vec<&'s [Value]>) {
        match self {
            Rows::Owned(v) => out.push(&v[i]),
            Rows::Borrowed(v) => out.push(v[i]),
            Rows::Joined(j) => j.segs(j.pairs[i], out),
        }
    }

    /// Appends the widths of its rows' slices, for rows `width` columns
    /// wide.
    fn widths(&self, width: usize, out: &mut Vec<usize>) {
        match self {
            Rows::Joined(j) => j.widths(width, out),
            _ => out.push(width),
        }
    }

    /// `schema`, the producing operator's output schema, resolved for these
    /// rows.
    fn layout<'s>(&self, schema: &'s Schema) -> Layout<'s> {
        match self {
            Rows::Joined(j) => j.layout(schema),
            _ => Layout::flat(schema),
        }
    }

    /// Calls `f(i, row i's slices)` for every row, in order, until it fails.
    fn try_for_each<'s, E>(
        &'s self,
        mut f: impl FnMut(usize, &[&'s [Value]]) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Rows::Owned(v) => v.iter().enumerate().try_for_each(|(i, r)| f(i, &[r])),
            Rows::Borrowed(v) => v.iter().enumerate().try_for_each(|(i, r)| f(i, &[r])),
            Rows::Joined(j) => {
                let mut row = Vec::new();
                j.pairs.iter().enumerate().try_for_each(|(i, &pair)| {
                    row.clear();
                    j.segs(pair, &mut row);
                    f(i, &row)
                })
            }
        }
    }

    /// [`Rows::try_for_each`] of an `f` that cannot fail.
    fn for_each<'s>(&'s self, mut f: impl FnMut(usize, &[&'s [Value]])) {
        let Ok(()) = self.try_for_each(|i, row| {
            f(i, row);
            Ok::<_, std::convert::Infallible>(())
        });
    }

    /// The rows at positions `keep`, in that order and in this form. No
    /// position repeats.
    fn select(self, keep: impl IntoIterator<Item = usize>) -> Rows<'a> {
        match self {
            Rows::Owned(mut v) => {
                Rows::Owned(keep.into_iter().map(|i| std::mem::take(&mut v[i])).collect())
            }
            Rows::Borrowed(v) => Rows::Borrowed(keep.into_iter().map(|i| v[i]).collect()),
            Rows::Joined(mut j) => {
                j.pairs = keep.into_iter().map(|i| j.pairs[i]).collect();
                Rows::Joined(j)
            }
        }
    }

    /// Rows `from..to`, cut in place.
    fn slice(mut self, from: usize, to: usize) -> Rows<'a> {
        fn cut<T>(v: &mut Vec<T>, from: usize, to: usize) {
            v.truncate(to);
            v.drain(..from.min(v.len()));
        }
        match &mut self {
            Rows::Owned(v) => cut(v, from, to),
            Rows::Borrowed(v) => cut(v, from, to),
            Rows::Joined(j) => cut(&mut j.pairs, from, to),
        }
        self
    }

    /// The rows as owned vectors; borrowed tuples and joined rows are
    /// copied here.
    fn into_owned(self) -> Vec<Row> {
        match self {
            Rows::Owned(v) => v,
            Rows::Borrowed(v) => v.into_iter().map(<[Value]>::to_vec).collect(),
            Rows::Joined(_) => {
                let mut out = Vec::with_capacity(self.len());
                self.for_each(|_, row| out.push(row.concat()));
                out
            }
        }
    }

    /// Stored tuples as a scan's `columns` read them: borrowed when the
    /// columns are the whole tuple in order (every TP plan reads whole
    /// tuples), else copies of those columns.
    fn stored(tuples: impl Iterator<Item = &'a [Value]>, columns: &[usize], width: usize) -> Self {
        if columns.iter().copied().eq(0..width) {
            Rows::Borrowed(tuples.collect())
        } else {
            Rows::Owned(tuples.map(|t| columns.iter().map(|&c| t[c].clone()).collect()).collect())
        }
    }
}

/// The schema of a whole stored tuple of the table in `slot`: predicates
/// over any of the scan's columns evaluate on the tuple in place.
fn tuple_schema(slot: usize, width: usize) -> Schema {
    Schema::new((0..width).map(|c| (slot, c)).collect())
}

/// The row interpreter's nested-loop matching: every (outer, inner) pair of
/// rows that have a key, in outer-major order, compared as pre-extracted
/// keys; `emit` gets each matching pair's row positions. Polls the guard
/// every [`GUARD_CHECK_ROWS`] pairs; the caller charges the pairs.
fn nested_loop_matches<K: PartialEq>(
    guard: &ExecGuard,
    outer: &[(u32, K)],
    inner: &[(u32, K)],
    emit: &mut impl FnMut(u32, u32) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let mut pairs_since_check = 0usize;
    for (o, ok) in outer {
        pairs_since_check += inner.len();
        if pairs_since_check >= GUARD_CHECK_ROWS {
            pairs_since_check = 0;
            guard.check()?;
        }
        for (i, ik) in inner {
            if ik == ok {
                emit(*o, *i)?;
            }
        }
    }
    Ok(())
}

/// One side's keys for [`nested_loop_matches`], pulled out once: each row
/// with a key, keyed by `key`. Rows without one (a NULL or NaN cell) match
/// nothing and drop out.
fn side_keys<'r, K>(rows: &'r Rows, key: impl Fn(&[&'r [Value]]) -> Option<K>) -> Vec<(u32, K)> {
    let mut keys = Vec::with_capacity(rows.len());
    rows.for_each(|i, row| keys.extend(key(row).map(|k| (i as u32, k))));
    keys
}

/// [`nested_loop_matches`] of a join on `keys` (outer, inner slots), under
/// [`JoinKey`] equality. A single integer key on both sides — every TPC-H
/// join — compares plain `i64`s.
fn nested_loop_pairs(
    guard: &ExecGuard,
    outer: &Rows,
    inner: &Rows,
    keys: &[(Slot, Slot)],
    emit: &mut impl FnMut(u32, u32) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let &[(l, r)] = keys else {
        let outer_keys = side_keys(outer, |row| {
            keys.iter().map(|k| JoinKey::of(k.0.read(row))).collect::<Option<Vec<_>>>()
        });
        let inner_keys = side_keys(inner, |row| {
            keys.iter().map(|k| JoinKey::of(k.1.read(row))).collect::<Option<Vec<_>>>()
        });
        return nested_loop_matches(guard, &outer_keys, &inner_keys, emit);
    };
    let outer_keys = side_keys(outer, |row| JoinKey::of(l.read(row)));
    let inner_keys = side_keys(inner, |row| JoinKey::of(r.read(row)));
    let ints = |keys: &[(u32, JoinKey)]| -> Option<Vec<(u32, i64)>> {
        keys.iter()
            .map(|(i, k)| match k {
                JoinKey::Int(x) => Some((*i, *x)),
                _ => None,
            })
            .collect()
    };
    match (ints(&outer_keys), ints(&inner_keys)) {
        (Some(o), Some(i)) => nested_loop_matches(guard, &o, &i, emit),
        _ => nested_loop_matches(guard, &outer_keys, &inner_keys, emit),
    }
}

/// The slot of join key `col` in rows laid out by `layout`.
fn key_slot(layout: &Layout, col: &ColumnRef, what: &str) -> Result<Slot, ExecError> {
    layout
        .slot(col.table_slot, col.column_idx)
        .ok_or_else(|| ExecError::BadPlan(format!("{what} key missing")))
}

pub(crate) struct Executor<'a> {
    query: &'a BoundQuery,
    db: &'a Database,
    engine: EngineKind,
    counters: WorkCounters,
    guard: &'a ExecGuard,
}

impl<'a> Executor<'a> {
    fn run(&mut self, node: &PlanNode) -> Result<Rows<'a>, ExecError> {
        self.guard.check()?;
        Ok(match &node.op {
            PlanOp::TableScan { table_slot, columns, pushed } => {
                self.table_scan(*table_slot, columns, pushed.as_ref())?
            }
            PlanOp::IndexScan { table_slot, column_idx, lookup, columns } => {
                self.index_scan(*table_slot, *column_idx, lookup, columns)?
            }
            PlanOp::IndexProbe { .. } => {
                return Err(ExecError::BadPlan("IndexProbe executed outside IndexNLJoin".into()))
            }
            // Tests each row where its cells live and keeps the survivors
            // in their input's form.
            PlanOp::Filter { predicate } => {
                let child = &node.children[0];
                let schema = child.output_schema();
                let input = self.run(child)?;
                let predicate = RowExpr::new(predicate, &input.layout(&schema));
                let (counters, guard) = (&mut self.counters, self.guard);
                let mut keep = Vec::new();
                input.try_for_each(|i, row| {
                    if i % GUARD_CHECK_ROWS == 0 {
                        guard.check()?;
                    }
                    counters.filter_evals += 1;
                    if predicate.test(row)? {
                        keep.push(i);
                    }
                    Ok::<_, ExecError>(())
                })?;
                input.select(keep)
            }
            // Compares pre-extracted keys over every pair — TP has no hash
            // join — charging |outer|·|inner| pairs, tests the residual on
            // each matched pair in place, and builds nothing.
            PlanOp::NestedLoopJoin { conds, residual } => {
                let outer_node = &node.children[0];
                let inner_node = &node.children[1];
                let outer_schema = outer_node.output_schema();
                let inner_schema = inner_node.output_schema();
                let outer = self.run(outer_node)?;
                let inner = self.run(inner_node)?;
                let (ol, il) = (outer.layout(&outer_schema), inner.layout(&inner_schema));
                let keys: Vec<(Slot, Slot)> = conds
                    .iter()
                    .map(|c| {
                        let l = key_slot(&ol, &c.left, "NLJ outer")?;
                        Ok((l, key_slot(&il, &c.right, "NLJ inner")?))
                    })
                    .collect::<Result<_, ExecError>>()?;
                self.counters.nlj_pairs += (outer.len() * inner.len()) as u64;
                let outer_width = outer_schema.len();
                let mut joined = Joined { outer, inner, outer_width, pairs: Vec::new() };
                let out_schema = outer_schema.concat(&inner_schema);
                let layout = joined.layout(&out_schema);
                let residual = residual.as_ref().map(|r| RowExpr::new(r, &layout));
                let (counters, guard) = (&mut self.counters, self.guard);
                let (mut pairs, mut row) = (Vec::new(), Vec::new());
                nested_loop_pairs(guard, &joined.outer, &joined.inner, &keys, &mut |o, i| {
                    if let Some(resid) = &residual {
                        counters.filter_evals += 1;
                        row.clear();
                        joined.segs((o, i), &mut row);
                        if !resid.test(&row)? {
                            return Ok(());
                        }
                    }
                    pairs.push((o, i));
                    Ok(())
                })?;
                joined.pairs = pairs;
                Rows::Joined(Box::new(joined))
            }
            // Probes the inner index per outer row and tests the residual on
            // the stored tuple in place; the inner side is the borrowed
            // tuples that pass.
            PlanOp::IndexNLJoin { outer_key } => {
                let outer_node = &node.children[0];
                let probe_node = &node.children[1];
                let PlanOp::IndexProbe { table_slot, column_idx, residual, columns } =
                    &probe_node.op
                else {
                    return Err(ExecError::BadPlan(
                        "IndexNLJoin inner child must be IndexProbe".into(),
                    ));
                };
                let outer_schema = outer_node.output_schema();
                let outer = self.run(outer_node)?;
                let key = key_slot(&outer.layout(&outer_schema), outer_key, "IndexNLJ outer")?;
                let table_name: &str = &self.query.tables[*table_slot].name;
                let db: &'a Database = self.db;
                let table = db
                    .row_table(table_name)
                    .ok_or_else(|| ExecError::MissingTable(table_name.to_string()))?;
                let index = table.index_on(*column_idx).ok_or_else(|| {
                    ExecError::BadPlan(format!("no index on {table_name}.{column_idx}"))
                })?;
                let tuple = tuple_schema(*table_slot, table.width());
                let residual = residual.as_ref().map(|r| RowExpr::new(r, &Layout::flat(&tuple)));
                let (counters, guard) = (&mut self.counters, self.guard);
                let (mut pairs, mut matched) = (Vec::new(), Vec::new());
                outer.try_for_each(|oi, o| {
                    if oi % GUARD_CHECK_ROWS == 0 {
                        guard.check()?;
                    }
                    counters.index_probes += 1;
                    let rids = index.join_lookup(key.read(o));
                    counters.index_fetches += rids.len() as u64;
                    for &rid in rids {
                        counters.rows_scanned += 1;
                        let full = table.row(rid as usize);
                        if let Some(resid) = &residual {
                            counters.filter_evals += 1;
                            if !resid.test(&[full])? {
                                continue;
                            }
                        }
                        pairs.push((oi as u32, matched.len() as u32));
                        matched.push(full);
                    }
                    Ok::<_, ExecError>(())
                })?;
                let inner = Rows::stored(matched.into_iter(), columns, table.width());
                let outer_width = outer_schema.len();
                Rows::Joined(Box::new(Joined { outer, inner, outer_width, pairs }))
            }
            // The probe side is the outer input, the build side the inner.
            PlanOp::HashJoin { probe_keys, build_keys } => {
                let probe_node = &node.children[0];
                let hash_node = &node.children[1];
                let probe_schema = probe_node.output_schema();
                let build_schema = hash_node.output_schema();
                // Hash node is a pass-through marker; execute its child.
                let build = self.run(&hash_node.children[0])?;
                let probe = self.run(probe_node)?;
                let (bl, pl) = (build.layout(&build_schema), probe.layout(&probe_schema));
                let slots = |keys: &[ColumnRef], layout: &Layout, what: &str| {
                    keys.iter().map(|k| key_slot(layout, k, what)).collect::<Result<Vec<_>, _>>()
                };
                let bkeys = slots(build_keys, &bl, "hash build")?;
                let pkeys = slots(probe_keys, &pl, "hash probe")?;
                self.guard
                    .charge_cells(build.len() as u64 * build_schema.len().max(1) as u64)?;
                let (counters, guard) = (&mut self.counters, self.guard);
                let pairs = hash_join_pairs(counters, guard, &build, &probe, &bkeys, &pkeys)?;
                Rows::Joined(Box::new(Joined {
                    outer: probe,
                    inner: build,
                    outer_width: probe_schema.len(),
                    pairs,
                }))
            }
            PlanOp::Hash => self.run(&node.children[0])?,
            PlanOp::Aggregate { group_by, outputs, having, hash } => {
                let child = &node.children[0];
                let schema = child.output_schema();
                let input = self.run(child)?;
                Rows::Owned(agg::aggregate(
                    &mut self.counters,
                    &input,
                    &schema,
                    group_by,
                    outputs,
                    having.as_ref(),
                    *hash,
                    self.guard,
                )?)
            }
            PlanOp::Sort { keys } => self.sort(node, keys, None)?,
            PlanOp::TopNSort { keys, limit, offset } => {
                self.sort(node, keys, Some((*limit, *offset)))?
            }
            PlanOp::Limit { limit, offset } => self.limit(node, *limit, *offset)?,
            PlanOp::Projection { exprs, .. } => {
                let child = &node.children[0];
                // Aggregates / output sorts already produce final rows.
                if produces_final_rows(child) {
                    return self.run(child);
                }
                let schema = child.output_schema();
                let input = self.run(child)?;
                self.guard.charge_cells(input.len() as u64 * exprs.len().max(1) as u64)?;
                let layout = input.layout(&schema);
                let exprs: Vec<RowExpr> = exprs.iter().map(|e| RowExpr::new(e, &layout)).collect();
                let guard = self.guard;
                let mut out = Vec::with_capacity(input.len());
                input.try_for_each(|i, row| {
                    if i % GUARD_CHECK_ROWS == 0 {
                        guard.check()?;
                    }
                    let mut projected = Vec::with_capacity(exprs.len());
                    for e in &exprs {
                        projected.push(e.eval(row)?.to_value());
                    }
                    out.push(projected);
                    Ok::<_, ExecError>(())
                })?;
                Rows::Owned(out)
            }
            PlanOp::OutputSort { keys } => {
                let input = self.run(&node.children[0])?.into_owned();
                Rows::Owned(sort::output_sort(&mut self.counters, input, keys, self.guard)?)
            }
            PlanOp::Insert { .. } | PlanOp::Update { .. } | PlanOp::Delete { .. } => {
                return Err(ExecError::BadPlan(
                    "DML node reached the read executor; use execute_dml".into(),
                ))
            }
        })
    }

    fn table_scan(
        &mut self,
        slot: usize,
        columns: &[usize],
        pushed: Option<&BoundExpr>,
    ) -> Result<Rows<'a>, ExecError> {
        let name: &str = &self.query.tables[slot].name;
        let db: &'a Database = self.db;
        let stored = db
            .stored_table(name)
            .ok_or_else(|| ExecError::MissingTable(name.to_string()))?;
        // Charge the guard's memory budget for the touched cells up front,
        // whether the scan copies them or not. Count rows on the side this
        // engine scans: AP-only snapshot views keep their row store empty,
        // so the combined `row_count()` invariant doesn't hold here.
        let scan_rows = match self.engine {
            EngineKind::Tp => stored.rows.row_count(),
            EngineKind::Ap => stored.cols.row_count(),
        } as u64;
        self.guard.charge_cells(scan_rows * columns.len().max(1) as u64)?;
        Ok(match self.engine {
            EngineKind::Tp => {
                // Row-store scan: full tuples are touched (and charged) even
                // if the plan only reads a subset; they are read in place.
                // Tombstoned slots are skipped.
                self.counters.rows_scanned += stored.row_count() as u64;
                let live = stored.rows.iter_live().map(|(_, r)| r.as_slice());
                Rows::stored(live, columns, stored.rows.width())
            }
            EngineKind::Ap => {
                // Column-store scan: touch only the referenced columns of
                // live rows, reading base and delta regions alike — a write
                // is visible here before any compaction runs. A pushed
                // predicate lets zone maps drop whole base blocks first
                // (same selection and charges as the batch executor).
                let (sel, _) =
                    ap_scan_access(stored, slot, pushed, columns.len(), &mut self.counters);
                let rids = sel
                    .unwrap_or_else(|| (0..stored.cols.physical_len() as u32).collect());
                Rows::Owned(stored.cols.gather(columns, &rids))
            }
        })
    }

    fn index_scan(
        &mut self,
        slot: usize,
        column_idx: usize,
        lookup: &IndexLookup,
        columns: &[usize],
    ) -> Result<Rows<'a>, ExecError> {
        let name: &str = &self.query.tables[slot].name;
        let db: &'a Database = self.db;
        let table = db
            .row_table(name)
            .ok_or_else(|| ExecError::MissingTable(name.to_string()))?;
        let index = table
            .index_on(column_idx)
            .ok_or_else(|| ExecError::BadPlan(format!("no index on {name}.{column_idx}")))?;
        let rids = index_access(&mut self.counters, index, lookup)?;
        let tuples = rids.iter().map(|&rid| table.row(rid as usize));
        Ok(Rows::stored(tuples, columns, table.width()))
    }

    /// The child's rows in key order: all of them, or with `top` =
    /// `(limit, offset)` those a top-N keeps.
    fn sort(
        &mut self,
        node: &PlanNode,
        keys: &[(BoundExpr, bool)],
        top: Option<(u64, u64)>,
    ) -> Result<Rows<'a>, ExecError> {
        let child = &node.children[0];
        let input = self.run(child)?;
        let schema = child.output_schema();
        let order = sort::sort(&mut self.counters, &input, &schema, keys, top, self.guard)?;
        Ok(input.select(order))
    }

    /// Limit with a streaming fast path for index-ordered top-N: when the
    /// input is `Filter(IndexScan(Ordered))` or `IndexScan(Ordered)`, rows
    /// are fetched in index order and the scan stops as soon as
    /// `limit + offset` rows qualify.
    fn limit(&mut self, node: &PlanNode, limit: u64, offset: u64) -> Result<Rows<'a>, ExecError> {
        let child = &node.children[0];
        // `OFFSET` without `LIMIT` plans `limit = u64::MAX`.
        let need = limit.saturating_add(offset) as usize;
        let rows = match self.try_streaming_topn(child, need)? {
            Some(rows) => rows,
            None => self.run(child)?,
        };
        let from = offset as usize;
        Ok(rows.slice(from, from.saturating_add(limit as usize)))
    }

    fn try_streaming_topn(
        &mut self,
        child: &PlanNode,
        need: usize,
    ) -> Result<Option<Rows<'a>>, ExecError> {
        // Unwrap an optional Filter above the ordered index scan.
        let (filter, scan) = match &child.op {
            PlanOp::Filter { predicate } => (Some(predicate), &child.children[0]),
            _ => (None, child),
        };
        let PlanOp::IndexScan {
            table_slot,
            column_idx,
            lookup: IndexLookup::Ordered { descending },
            columns,
        } = &scan.op
        else {
            return Ok(None);
        };
        let name: &str = &self.query.tables[*table_slot].name;
        let db: &'a Database = self.db;
        let table = db
            .row_table(name)
            .ok_or_else(|| ExecError::MissingTable(name.to_string()))?;
        let index = table
            .index_on(*column_idx)
            .ok_or_else(|| ExecError::BadPlan(format!("no index on {name}.{column_idx}")))?;
        let tuple = tuple_schema(*table_slot, table.width());
        let filter = filter.map(|f| RowExpr::new(f, &Layout::flat(&tuple)));
        self.counters.index_probes += 1;
        let mut kept = Vec::with_capacity(need);
        for (i, rid) in index.iter_ordered(*descending).enumerate() {
            if kept.len() >= need {
                break;
            }
            if i % GUARD_CHECK_ROWS == 0 {
                self.guard.check()?;
            }
            self.counters.index_fetches += 1;
            self.counters.rows_scanned += 1;
            let full = table.row(rid as usize);
            if let Some(pred) = &filter {
                self.counters.filter_evals += 1;
                if !pred.test(&[full])? {
                    continue;
                }
            }
            kept.push(full);
        }
        Ok(Some(Rows::stored(kept.into_iter(), columns, table.width())))
    }
}

/// Resolves one TP index access to its row ids, in the order the scan
/// reads them, charging one probe per key (one per range or ordered walk)
/// and one fetch and one scanned row per rid — the read path's and the DML
/// access path's one formula.
fn index_access(
    counters: &mut WorkCounters,
    index: &BTreeIndex,
    lookup: &IndexLookup,
) -> Result<Vec<u32>, ExecError> {
    let rids: Vec<u32> = match lookup {
        IndexLookup::Keys(keys) => {
            counters.index_probes += keys.len() as u64;
            index.lookup_many_refs(term_values(keys)?.into_iter())
        }
        IndexLookup::Range { low, high } => {
            counters.index_probes += 1;
            let lo = low.as_ref().map(term_value).transpose()?;
            let hi = high.as_ref().map(term_value).transpose()?;
            index.range(lo, hi)
        }
        IndexLookup::Ordered { descending } => {
            counters.index_probes += 1;
            index.iter_ordered(*descending).collect()
        }
    };
    counters.index_fetches += rids.len() as u64;
    counters.rows_scanned += rids.len() as u64;
    Ok(rids)
}

/// Plans one AP columnar scan's physical access: applies zone-map pruning
/// when the plan pushed a predicate down, and charges the scan counters.
///
/// This is the single entry every executor (row interpreter, serial batch,
/// morsel-parallel) uses, which is what keeps rows *and* counters
/// bit-identical across execution modes — the scan's selection and its
/// charges are a function of (plan, table state), never of the executor.
///
/// Returns the surviving physical rids (ascending: kept base blocks minus
/// tombstones, then all live delta rids — the delta is never pruned) or
/// `None` for the dense zero-copy scan of a clean table, plus the dense
/// positions where the selection jumps a storage discontinuity (pruned gap
/// or base→delta boundary) for morsel cutting.
pub(crate) fn ap_scan_access(
    stored: &StoredTable,
    slot: usize,
    pushed: Option<&BoundExpr>,
    n_columns: usize,
    counters: &mut WorkCounters,
) -> (Option<Vec<u32>>, Vec<usize>) {
    let cols = &stored.cols;
    if let Some(pruner) = pushed
        .map(|e| ScanPruner::for_scan(e, slot))
        .filter(|p| !p.is_empty())
    {
        let out = pruner.prune(cols);
        counters.blocks_checked += out.blocks_checked;
        counters.blocks_pruned += out.blocks_pruned;
        counters.cells_scanned += (out.survivors * n_columns) as u64;
        (out.sel, out.sel_cuts)
    } else {
        // No refutable conjunct: the pre-zone-map scan, charge and all.
        counters.cells_scanned += (cols.row_count() * n_columns) as u64;
        if cols.is_clean() {
            (None, Vec::new())
        } else {
            let sel = cols.live_rids();
            let base_live = sel.partition_point(|&rid| (rid as usize) < cols.base_len());
            let cuts = if base_live > 0 && base_live < sel.len() {
                vec![base_live]
            } else {
                Vec::new()
            };
            (Some(sel), cuts)
        }
    }
}

/// Operators whose output rows are already in final (projected) form.
fn produces_final_rows(node: &PlanNode) -> bool {
    match node.op {
        PlanOp::Aggregate { .. } | PlanOp::OutputSort { .. } => true,
        PlanOp::Limit { .. } => produces_final_rows(&node.children[0]),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// DML execution (TP engine only)
// ---------------------------------------------------------------------------

/// Which write shape ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmlKind {
    /// `INSERT`.
    Insert,
    /// `UPDATE`.
    Update,
    /// `DELETE`.
    Delete,
}

impl std::fmt::Display for DmlKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DmlKind::Insert => "INSERT",
            DmlKind::Update => "UPDATE",
            DmlKind::Delete => "DELETE",
        })
    }
}

/// Outcome of one write statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmlResult {
    /// Which statement shape ran.
    pub kind: DmlKind,
    /// The written table.
    pub table: String,
    /// Rows inserted / updated / deleted.
    pub rows_affected: u64,
    /// The table's version stamp after the write (freshness signal).
    pub version: u64,
}

/// Executes a DML plan on the TP engine: locates target rows through the
/// plan's access path (index or scan, same counters as the read path), then
/// applies the write to *both* storage formats through the database, which
/// keeps statistics and catalog row counts current.
///
/// Target rids are fully collected before any mutation (snapshot semantics —
/// an `UPDATE` whose assignments re-satisfy its own predicate cannot chase
/// its relocated rows, the classic Halloween problem).
pub fn execute_dml(
    plan: &PlanNode,
    dml: &BoundDml,
    db: &mut Database,
) -> Result<(DmlResult, WorkCounters), ExecError> {
    execute_dml_guarded(plan, dml, db, ExecGuard::unlimited())
}

/// [`execute_dml`] under a statement guard: the target-collection and
/// row-rewrite loops check it cooperatively, so a runaway write is stopped
/// *before* any mutation is applied (targets are fully collected first).
pub(crate) fn execute_dml_guarded(
    plan: &PlanNode,
    dml: &BoundDml,
    db: &mut Database,
    guard: &ExecGuard,
) -> Result<(DmlResult, WorkCounters), ExecError> {
    guard.check()?;
    let mut counters = WorkCounters::default();
    let table = dml.table_name().to_string();
    let stored = db
        .stored_table(&table)
        .ok_or_else(|| ExecError::MissingTable(table.clone()))?;
    let n_indexes = stored.rows.index_count() as u64;
    let (kind, rows_affected) = match dml {
        BoundDml::Insert(ins) => {
            check_primary_key(&mut counters, db, &table, &ins.rows, guard)?;
            counters.rows_inserted += ins.rows.len() as u64;
            counters.index_updates += ins.rows.len() as u64 * n_indexes;
            (DmlKind::Insert, db.apply_insert(&table, &ins.rows))
        }
        BoundDml::Update(up) => {
            let child = plan
                .children
                .first()
                .ok_or_else(|| ExecError::BadPlan("Update node without access path".into()))?;
            let rids = collect_target_rids(&mut counters, child, &up.scan, db, guard)?;
            let def = db
                .catalog()
                .table(&table)
                .ok_or_else(|| ExecError::MissingTable(table.clone()))?;
            let types: Vec<_> = def.columns.iter().map(|c| (c.data_type, c.name.clone())).collect();
            let stored = db.stored_table(&table).expect("checked above");
            let tuple = tuple_schema(0, stored.rows.width());
            let layout = Layout::flat(&tuple);
            let assignments: Vec<(usize, RowExpr)> =
                up.assignments.iter().map(|(ci, e)| (*ci, RowExpr::new(e, &layout))).collect();
            guard.charge_cells(rids.len() as u64 * stored.rows.width().max(1) as u64)?;
            let mut changes = Vec::with_capacity(rids.len());
            for (i, &rid) in rids.iter().enumerate() {
                if i % GUARD_CHECK_ROWS == 0 {
                    guard.check()?;
                }
                let old = stored.rows.row(rid as usize);
                let mut new_row = old.to_vec();
                for (ci, expr) in &assignments {
                    let v = expr.eval(&[old])?.to_value();
                    let (ty, name) = &types[*ci];
                    new_row[*ci] = qpe_sql::binder::coerce_literal(v, *ty, name)
                        .map_err(|e| ExecError::Write(e.to_string()))?;
                }
                changes.push((rid, new_row));
            }
            // An assignment targeting the PK column must uphold the same
            // NULL/uniqueness invariant INSERT enforces — against surviving
            // rows (the updated rids' old keys are leaving) and within the
            // batch of new keys.
            let pk_ci = def.column_index(&def.primary_key);
            if let Some(pk_ci) = pk_ci.filter(|ci| up.assignments.iter().any(|(c, _)| c == ci)) {
                let updated: HashSet<u32> = rids.iter().copied().collect();
                let pk_index = stored.rows.index_on(pk_ci);
                let mut batch_keys: HashSet<&Value> = HashSet::with_capacity(changes.len());
                for (_, new_row) in &changes {
                    let pk = &new_row[pk_ci];
                    if pk.is_null() {
                        return Err(ExecError::Write(format!(
                            "primary key '{}' cannot be NULL",
                            def.primary_key
                        )));
                    }
                    counters.index_probes += 1;
                    let clashes_surviving_row = pk_index
                        .map(|idx| idx.lookup(pk).iter().any(|rid| !updated.contains(rid)))
                        .unwrap_or(false);
                    if clashes_surviving_row || !batch_keys.insert(pk) {
                        return Err(ExecError::Write(format!(
                            "duplicate primary key {pk} for '{}.{}'",
                            table, def.primary_key
                        )));
                    }
                }
            }
            counters.rows_updated += changes.len() as u64;
            // relocation touches every index twice: remove old rid, add new
            counters.index_updates += 2 * changes.len() as u64 * n_indexes;
            (DmlKind::Update, db.apply_update(&table, changes))
        }
        BoundDml::Delete(del) => {
            let child = plan
                .children
                .first()
                .ok_or_else(|| ExecError::BadPlan("Delete node without access path".into()))?;
            let rids = collect_target_rids(&mut counters, child, &del.scan, db, guard)?;
            counters.rows_deleted += rids.len() as u64;
            counters.index_updates += rids.len() as u64 * n_indexes;
            (DmlKind::Delete, db.apply_delete(&table, &rids))
        }
    };
    counters.output_rows = 0;
    let version = db.freshness(&table).map(|f| f.version).unwrap_or(0);
    Ok((
        DmlResult { kind, table, rows_affected, version },
        counters,
    ))
}

/// Rejects NULL and duplicate primary keys (against the table and within
/// the inserted batch) through the PK index — one probe per row, charged
/// like any other index probe.
fn check_primary_key(
    counters: &mut WorkCounters,
    db: &Database,
    table: &str,
    rows: &[Row],
    guard: &ExecGuard,
) -> Result<(), ExecError> {
    let def = db
        .catalog()
        .table(table)
        .ok_or_else(|| ExecError::MissingTable(table.to_string()))?;
    let Some(pk_ci) = def.column_index(&def.primary_key) else {
        return Ok(());
    };
    let stored = db.stored_table(table).expect("caller checked");
    let Some(pk_index) = stored.rows.index_on(pk_ci) else {
        return Ok(());
    };
    let mut batch_keys: std::collections::HashSet<&Value> = HashSet::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        let pk = &row[pk_ci];
        if pk.is_null() {
            return Err(ExecError::Write(format!(
                "primary key '{}' cannot be NULL",
                def.primary_key
            )));
        }
        counters.index_probes += 1;
        if !pk_index.lookup(pk).is_empty() || !batch_keys.insert(pk) {
            return Err(ExecError::Write(format!(
                "duplicate primary key {pk} for '{}.{}'",
                table, def.primary_key
            )));
        }
    }
    Ok(())
}

/// Runs a DML access path (`[Filter →] TableScan | IndexScan` over the
/// target table's row store) and returns the matching rids, charging the
/// same counters the read executor would for the equivalent scan.
fn collect_target_rids(
    counters: &mut WorkCounters,
    node: &PlanNode,
    scan_query: &BoundQuery,
    db: &Database,
    guard: &ExecGuard,
) -> Result<Vec<u32>, ExecError> {
    let (filter, scan) = match &node.op {
        PlanOp::Filter { predicate } => (Some(predicate), &node.children[0]),
        _ => (None, node),
    };
    let table: &str = &scan_query.tables[0].name;
    let row_table = db
        .row_table(table)
        .ok_or_else(|| ExecError::MissingTable(table.to_string()))?;
    let candidates: Vec<u32> = match &scan.op {
        PlanOp::TableScan { .. } => {
            counters.rows_scanned += row_table.row_count() as u64;
            row_table.iter_live().map(|(rid, _)| rid as u32).collect()
        }
        PlanOp::IndexScan { column_idx, lookup, .. } => {
            let index = row_table.index_on(*column_idx).ok_or_else(|| {
                ExecError::BadPlan(format!("no index on {table}.{column_idx}"))
            })?;
            index_access(counters, index, lookup)?
        }
        other => {
            return Err(ExecError::BadPlan(format!(
                "unsupported DML access path {other:?}"
            )))
        }
    };
    let Some(pred) = filter else {
        return Ok(candidates);
    };
    let pred = RowExpr::new(pred, &Layout::flat(&scan.output_schema()));
    let mut out = Vec::new();
    for (i, rid) in candidates.into_iter().enumerate() {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.filter_evals += 1;
        if pred.test(&[row_table.row(rid as usize)])? {
            out.push(rid);
        }
    }
    Ok(out)
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::opt::{ap, tp, PlannerCtx};
    use crate::tpch::TpchConfig;
    use qpe_sql::binder::Binder;

    fn db() -> Database {
        Database::generate(&TpchConfig::with_scale(0.002))
    }

    fn run_both(db: &Database, sql: &str) -> (Vec<Row>, Vec<Row>, WorkCounters, WorkCounters) {
        let q = Binder::new(db.catalog()).bind_sql(sql).unwrap();
        let ctx = PlannerCtx::new(&q, db.stats(), db.catalog());
        let tp_plan = tp::plan(&ctx).unwrap();
        let ap_plan = ap::plan(&ctx).unwrap();
        let (tp_rows, tp_c) = execute(&tp_plan, &q, db, EngineKind::Tp).unwrap();
        let (ap_rows, ap_c) = execute(&ap_plan, &q, db, EngineKind::Ap).unwrap();
        (tp_rows, ap_rows, tp_c, ap_c)
    }

    fn normalized(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    #[test]
    fn engines_agree_on_scalar_count() {
        let db = db();
        let (tp, ap, _, _) = run_both(&db, "SELECT COUNT(*) FROM customer");
        assert_eq!(tp, ap);
        assert_eq!(tp[0][0], Value::Int(300)); // 150000 * 0.002
    }

    #[test]
    fn engines_agree_on_filtered_count() {
        let db = db();
        let (tp, ap, _, _) = run_both(
            &db,
            "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'",
        );
        assert_eq!(tp, ap);
        let n = tp[0][0].as_int().unwrap();
        assert!(n > 0 && n < 300);
    }

    #[test]
    fn engines_agree_on_two_way_join() {
        let db = db();
        let (tp, ap, tp_c, ap_c) = run_both(
            &db,
            "SELECT COUNT(*) FROM customer, orders \
             WHERE o_custkey = c_custkey AND o_orderkey < 50",
        );
        assert_eq!(tp, ap);
        assert!(tp_c.total() > 0 && ap_c.total() > 0);
        // TP probes customer's PK index from the filtered orders side; AP
        // hashes regardless.
        assert!(tp_c.index_probes > 0);
        assert!(ap_c.hash_build_rows > 0);
    }

    #[test]
    fn engines_agree_on_paper_example_1() {
        let db = db();
        let sql = "SELECT COUNT(*) FROM customer, nation, orders \
                   WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '40', '22', '30', '39', '42', '21') \
                   AND c_mktsegment = 'machinery' \
                   AND n_name = 'egypt' AND o_orderstatus = 'p' \
                   AND o_custkey = c_custkey AND n_nationkey = c_nationkey";
        let (tp, ap, _, _) = run_both(&db, sql);
        assert_eq!(tp, ap);
    }

    #[test]
    fn engines_agree_on_projected_rows() {
        let db = db();
        let (tp, ap, _, _) = run_both(
            &db,
            "SELECT c_name, c_acctbal FROM customer WHERE c_custkey < 20",
        );
        assert_eq!(normalized(tp), normalized(ap));
    }

    #[test]
    fn engines_agree_on_top_n() {
        let db = db();
        let (tp, ap, _, _) = run_both(
            &db,
            "SELECT o_orderkey, o_totalprice FROM orders \
             ORDER BY o_totalprice DESC LIMIT 5",
        );
        assert_eq!(tp.len(), 5);
        // Same top prices; ties may permute keys, so compare price column.
        let tp_prices: Vec<&Value> = tp.iter().map(|r| &r[1]).collect();
        let ap_prices: Vec<&Value> = ap.iter().map(|r| &r[1]).collect();
        assert_eq!(tp_prices, ap_prices);
    }

    #[test]
    fn index_ordered_topn_scans_few_rows() {
        let db = db();
        let q = Binder::new(db.catalog())
            .bind_sql("SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 7")
            .unwrap();
        let ctx = PlannerCtx::new(&q, db.stats(), db.catalog());
        let plan = tp::plan(&ctx).unwrap();
        let (rows, c) = execute(&plan, &q, &db, EngineKind::Tp).unwrap();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0][0], Value::Int(1));
        assert!(
            c.rows_scanned <= 7,
            "ordered index scan should stop early, scanned {}",
            c.rows_scanned
        );
    }

    #[test]
    fn engines_agree_on_group_by() {
        let db = db();
        let (tp, ap, _, _) = run_both(
            &db,
            "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment \
             ORDER BY c_mktsegment",
        );
        assert_eq!(tp, ap);
        assert_eq!(tp.len(), 5);
    }

    #[test]
    fn engines_agree_on_offset() {
        let db = db();
        let (tp, ap, _, _) = run_both(
            &db,
            "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5 OFFSET 10",
        );
        assert_eq!(tp, ap);
        assert_eq!(tp[0][0], Value::Int(11));
    }

    /// `OFFSET` without `LIMIT` (planned as `limit = u64::MAX`) skips the
    /// offset and keeps every row after it.
    #[test]
    fn engines_agree_on_offset_without_limit() {
        let db = db();
        let sql = "SELECT o_orderkey FROM orders ORDER BY o_orderkey OFFSET 2995";
        let (tp, ap, _, _) = run_both(&db, sql);
        assert_eq!(tp, ap);
        assert_eq!(tp, (2996..=3000).map(|k| vec![Value::Int(k)]).collect::<Vec<_>>());
    }

    #[test]
    fn ap_scan_touches_fewer_cells_than_tp_rows_imply() {
        let db = db();
        let (_, _, tp_c, ap_c) = run_both(
            &db,
            "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'",
        );
        // TP reads 3000 full rows (6 columns each → 18000 cell-equivalents);
        // AP touches only the o_orderstatus column, and zone maps drop the
        // blocks whose min/max excludes 'p' before any cell is read.
        assert_eq!(tp_c.rows_scanned, 3000);
        assert!(
            ap_c.cells_scanned <= 3000,
            "one column at most: {}",
            ap_c.cells_scanned
        );
        assert!(ap_c.blocks_checked > 0 && ap_c.blocks_pruned > 0);
        assert!(
            ap_c.cells_scanned < 3000,
            "pruned blocks must save their cells: {}",
            ap_c.cells_scanned
        );
        // With pushdown disabled the scan reads the full column again.
        let q = Binder::new(db.catalog())
            .bind_sql("SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'")
            .unwrap();
        let ctx = PlannerCtx::new(&q, db.stats(), db.catalog()).without_pushdown();
        let plan = ap::plan(&ctx).unwrap();
        let (_, c) = execute(&plan, &q, &db, EngineKind::Ap).unwrap();
        assert_eq!(c.cells_scanned, 3000);
        assert_eq!(c.blocks_checked, 0);
    }

    #[test]
    fn nlj_pairs_counted_for_unindexed_join() {
        let db = db();
        // Join on non-indexed columns forces naive NLJ on TP.
        let (tp, ap, tp_c, _) = run_both(
            &db,
            "SELECT COUNT(*) FROM nation, customer WHERE c_nationkey = n_nationkey \
             AND n_name = 'egypt'",
        );
        assert_eq!(tp, ap);
        assert!(tp_c.nlj_pairs > 0, "expected nested-loop pairs");
    }

    #[test]
    fn residual_predicates_execute() {
        let db = db();
        let (tp, ap, _, _) = run_both(
            &db,
            "SELECT COUNT(*) FROM nation, region WHERE n_regionkey < r_regionkey",
        );
        assert_eq!(tp, ap);
    }

    /// An `AND` whose right side fails only on rows its left side rejects
    /// raises the same error on the TP interpreter, the AP interpreter and
    /// the batch executor; one whose right side cannot fail raises nothing.
    #[test]
    fn and_right_side_errors_agree_across_executors() {
        let db = db();
        let run_all = |sql: &str| {
            let q = Binder::new(db.catalog()).bind_sql(sql).unwrap();
            let ctx = PlannerCtx::new(&q, db.stats(), db.catalog());
            let (tp_plan, ap_plan) = (tp::plan(&ctx).unwrap(), ap::plan(&ctx).unwrap());
            [
                execute(&tp_plan, &q, &db, EngineKind::Tp),
                execute_scalar(&ap_plan, &q, &db, EngineKind::Ap),
                execute(&ap_plan, &q, &db, EngineKind::Ap),
            ]
            .map(|r| r.map(|(rows, _)| rows).map_err(|e| e.to_string()))
        };
        let failing =
            run_all("SELECT COUNT(*) FROM customer WHERE c_custkey * 2 < 0 AND c_name + 1 > 0");
        let err = failing[0].clone().expect_err("string arithmetic fails");
        assert!(err.contains("arithmetic on non-numeric values"), "{err}");
        assert!(failing.iter().all(|r| r.as_ref().err() == Some(&err)), "{failing:?}");
        let safe = run_all("SELECT COUNT(*) FROM customer WHERE c_custkey * 2 < 0 AND c_name = 'x'");
        let zero = vec![vec![Value::Int(0)]];
        assert!(safe.iter().all(|r| r.as_ref().ok() == Some(&zero)), "{safe:?}");
    }

    #[test]
    fn having_filters_groups() {
        let db = db();
        let (tp, ap, _, _) = run_both(
            &db,
            "SELECT c_nationkey, COUNT(*) FROM customer GROUP BY c_nationkey \
             HAVING COUNT(*) > 10 ORDER BY c_nationkey",
        );
        assert_eq!(tp, ap);
        for row in &tp {
            assert!(row[1].as_int().unwrap() > 10);
        }
    }
}
