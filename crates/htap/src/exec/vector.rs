//! Vectorized batch executor for the AP engine.
//!
//! Where the row interpreter materializes every intermediate as
//! `Vec<Vec<Value>>`, this executor moves *batches*: typed column arrays
//! (borrowed zero-copy from the column store wherever possible) plus a
//! selection vector of surviving row indices. The pipeline
//! `TableScan → Filter → HashJoin → Aggregate/TopN` then works
//! column-at-a-time:
//!
//! * scans borrow column storage outright — no per-cell clone;
//! * filters write the physical rows that pass straight into a new
//!   selection vector ([`crate::eval::eval_predicate_sel`]), deciding
//!   whole FOR blocks, RLE runs and dictionary codes where they can — no
//!   row construction, no per-row mask;
//! * joins decode integer-domain keys (any encoding) to `i64` once, match
//!   them through one flat table shared by every probe morsel, and gather
//!   only the columns that are *live* above the join (late materialization);
//! * sorts and top-N permute the selection instead of moving rows; a
//!   single numeric top-N key compares as an order-preserving integer;
//! * rows are materialized once, at the aggregation/projection boundary.
//!
//! **Invariant:** results and [`WorkCounters`] are identical to the row
//! interpreter on every plan this executor accepts — the latency model, the
//! optimizer and the explainer cannot tell which executor ran. Plans with
//! operators outside the AP vocabulary fall back to the row interpreter.
//!
//! With an [`ExecConfig`] of more than one thread, the hot kernels (filter
//! selections, join pair-finding, gathers, expression evaluation, sort keys)
//! fan out morsel-wise over the calling thread plus the process-wide pool of
//! parked workers ([`super::parallel`]), using strategies chosen to keep rows
//! *and* counters bit-identical to the serial path — `threads == 1` (the
//! default on a single-core host) is the exact serial executor.

use super::parallel::{self, ExecConfig, JoinPairs};
use super::typed::{self, Cursor, ExprCol};
use super::{agg, produces_final_rows, sort, ExecError, ExecGuard, JoinKey, Row, WorkCounters};
use crate::engine::Database;
use crate::eval::Schema;
use crate::plan::{PlanNode, PlanOp};
use crate::storage::col_store::{ColRef, ColumnData, DictColumn, ForInt, RleRuns, FOR_BLOCK_ROWS};
use qpe_sql::binder::{BoundExpr, BoundQuery, ColumnRef};
use qpe_sql::value::Value;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// One column of a batch.
enum BatchCol<'a> {
    /// Zero-copy view into the column store (or a prior batch's storage);
    /// a [`ColRef::Chunked`] view spans a dirty table's base + delta
    /// segments without copying either.
    Borrowed(ColRef<'a>),
    /// Gathered/computed column owned by this batch.
    Owned(ColumnData),
    /// Dropped by late materialization: no consumer above reads it.
    Dead,
}

impl BatchCol<'_> {
    fn as_ref(&self) -> Option<ColRef<'_>> {
        match self {
            BatchCol::Borrowed(c) => Some(*c),
            BatchCol::Owned(c) => Some(ColRef::Single(c)),
            BatchCol::Dead => None,
        }
    }
}

/// A batch: columns aligned with the operator's output schema plus an
/// optional selection vector of physical row indices (in output order).
struct Batch<'a> {
    cols: Vec<BatchCol<'a>>,
    sel: Option<Vec<u32>>,
    rows: usize,
    /// Dense positions where the selection jumps a storage discontinuity
    /// (zone-map-pruned gap, base→delta boundary) — set by scans, consumed
    /// as morsel cut points so no morsel straddles a block boundary.
    cuts: Vec<usize>,
}

impl<'a> Batch<'a> {
    /// A batch with no storage cut points (every post-scan operator).
    fn plain(cols: Vec<BatchCol<'a>>, sel: Option<Vec<u32>>, rows: usize) -> Batch<'a> {
        Batch { cols, sel, rows, cuts: Vec::new() }
    }

    fn selected_len(&self) -> usize {
        self.sel.as_ref().map(|s| s.len()).unwrap_or(self.rows)
    }

    /// Takes ownership of the selection (materializing the identity
    /// selection if none is set) — the caller is about to replace it, so no
    /// clone is needed.
    fn take_selection(&mut self) -> Vec<u32> {
        match self.sel.take() {
            Some(s) => s,
            None => (0..self.rows as u32).collect(),
        }
    }

    /// Dense positions where morsel splits should cut so no morsel straddles
    /// a storage-segment or pruned-block boundary: the scan-provided cut
    /// list for selection batches, or the base/delta split point of a dense
    /// chunked view.
    fn morsel_cuts(&self) -> Vec<usize> {
        if self.sel.is_some() {
            return self.cuts.clone();
        }
        self.cols
            .iter()
            .find_map(|c| c.as_ref().and_then(|r| r.split_point()))
            .into_iter()
            .collect()
    }

    /// Effective morsel size for kernels over this batch
    /// ([`parallel::zone_aware_step`]): the configured step shrunk so a
    /// zone-pruned selection's *survivors* still fan out across every
    /// worker, and — for a dense scan over a frame-of-reference column —
    /// aligned down to whole FOR blocks so no morsel straddles a packed
    /// block's reference frame.
    fn morsel_step(&self, cfg: &ExecConfig) -> usize {
        let align = (self.sel.is_none()
            && self.cols.iter().any(|c| {
                matches!(c.as_ref(), Some(ColRef::Single(ColumnData::ForInt(_))))
            }))
        .then_some(FOR_BLOCK_ROWS);
        parallel::zone_aware_step(cfg.morsel_rows, self.selected_len(), cfg.threads, align)
    }
}

/// Operator output: batches flow until aggregation/projection produces
/// final rows.
enum VOut<'a> {
    Batch(Batch<'a>),
    Rows(Vec<Row>),
}

/// Which output columns an operator must actually materialize.
#[derive(Clone)]
enum Needs {
    /// Everything (root default).
    All,
    /// Only these `(table_slot, column_idx)` pairs.
    Cols(Rc<HashSet<(usize, usize)>>),
}

impl Needs {
    fn contains(&self, slot: usize, cidx: usize) -> bool {
        match self {
            Needs::All => true,
            Needs::Cols(set) => set.contains(&(slot, cidx)),
        }
    }

    /// This need-set plus every column referenced by `exprs`.
    fn with_exprs<'e>(&self, exprs: impl IntoIterator<Item = &'e BoundExpr>) -> Needs {
        match self {
            Needs::All => Needs::All,
            Needs::Cols(set) => {
                let mut set = (**set).clone();
                for e in exprs {
                    add_refs(e, &mut set);
                }
                Needs::Cols(Rc::new(set))
            }
        }
    }

    fn with_keys(&self, keys: &[ColumnRef]) -> Needs {
        match self {
            Needs::All => Needs::All,
            Needs::Cols(set) => {
                let mut set = (**set).clone();
                for k in keys {
                    set.insert((k.table_slot, k.column_idx));
                }
                Needs::Cols(Rc::new(set))
            }
        }
    }

    fn of_exprs<'e>(exprs: impl IntoIterator<Item = &'e BoundExpr>) -> Needs {
        let mut set = HashSet::new();
        for e in exprs {
            add_refs(e, &mut set);
        }
        Needs::Cols(Rc::new(set))
    }
}

fn add_refs(expr: &BoundExpr, set: &mut HashSet<(usize, usize)>) {
    expr.walk_columns(&mut |c| {
        set.insert((c.table_slot, c.column_idx));
    });
}

/// True when every operator in `plan` is in the batch executor's vocabulary
/// (the AP optimizer only emits these; anything else falls back to the row
/// interpreter).
pub fn supported(plan: &PlanNode) -> bool {
    let mut ok = true;
    plan.walk(&mut |n| {
        ok &= matches!(
            n.op,
            PlanOp::TableScan { .. }
                | PlanOp::Filter { .. }
                | PlanOp::HashJoin { .. }
                | PlanOp::Hash
                | PlanOp::Aggregate { .. }
                | PlanOp::Sort { .. }
                | PlanOp::TopNSort { .. }
                | PlanOp::Limit { .. }
                | PlanOp::Projection { .. }
                | PlanOp::OutputSort { .. }
        );
    });
    ok
}

/// Executes `plan` with the vectorized batch executor. Callers must ensure
/// [`supported`] holds; unsupported operators surface as `BadPlan`.
/// `cfg.threads == 1` is the exact serial path; more threads fan the batch
/// kernels out morsel-wise with bit-identical rows and counters.
pub fn execute_with(
    plan: &PlanNode,
    query: &BoundQuery,
    db: &Database,
    cfg: &ExecConfig,
) -> Result<(Vec<Row>, WorkCounters), ExecError> {
    let mut ex = VecExecutor { query, db, cfg, counters: WorkCounters::default() };
    let rows = match ex.run(plan, &Needs::All)? {
        VOut::Rows(rows) => rows,
        VOut::Batch(batch) => materialize(&batch),
    };
    ex.counters.output_rows = rows.len() as u64;
    Ok((rows, ex.counters))
}

/// Materializes every live column of a batch into rows (root fallback for
/// plans whose top operator is not a projection/aggregate).
fn materialize(batch: &Batch<'_>) -> Vec<Row> {
    let n = batch.selected_len();
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let phys = match &batch.sel {
            Some(s) => s[j] as usize,
            None => j,
        };
        out.push(
            batch
                .cols
                .iter()
                .map(|c| c.as_ref().map(|d| d.get(phys)).unwrap_or(Value::Null))
                .collect(),
        );
    }
    out
}

struct VecExecutor<'a> {
    query: &'a BoundQuery,
    db: &'a Database,
    cfg: &'a ExecConfig,
    counters: WorkCounters,
}

impl<'a> VecExecutor<'a> {
    fn run(&mut self, node: &PlanNode, needs: &Needs) -> Result<VOut<'a>, ExecError> {
        // Cooperative governance checkpoint at every operator boundary. This
        // also discards any truncated child output: parallel kernels that
        // observe a tripped guard return shape-valid placeholders, and the
        // latched violation surfaces here (or at the later per-kernel
        // checks) before anything length-sensitive consumes them.
        self.cfg.guard().check()?;
        match &node.op {
            PlanOp::TableScan { table_slot, columns, pushed } => {
                self.table_scan(*table_slot, columns, pushed.as_ref())
            }
            PlanOp::Filter { predicate } => self.filter(node, predicate, needs),
            PlanOp::HashJoin { probe_keys, build_keys } => {
                self.hash_join(node, probe_keys, build_keys, needs)
            }
            PlanOp::Hash => self.run(&node.children[0], needs),
            PlanOp::Aggregate { group_by, outputs, having, hash } => {
                self.aggregate(node, group_by, outputs, having.as_ref(), *hash)
            }
            PlanOp::Sort { keys } => self.sort(node, keys, None, needs),
            PlanOp::TopNSort { keys, limit, offset } => {
                self.sort(node, keys, Some((*limit, *offset)), needs)
            }
            PlanOp::Limit { limit, offset } => {
                let out = self.run(&node.children[0], needs)?;
                Ok(match out {
                    VOut::Rows(rows) => VOut::Rows(
                        rows.into_iter()
                            .skip(*offset as usize)
                            .take(*limit as usize)
                            .collect(),
                    ),
                    VOut::Batch(mut batch) => {
                        let sel: Vec<u32> = batch
                            .take_selection()
                            .into_iter()
                            .skip(*offset as usize)
                            .take(*limit as usize)
                            .collect();
                        VOut::Batch(Batch::plain(batch.cols, Some(sel), batch.rows))
                    }
                })
            }
            PlanOp::Projection { exprs, .. } => self.projection(node, exprs),
            PlanOp::OutputSort { keys } => {
                let child = self.run(&node.children[0], needs)?;
                let VOut::Rows(rows) = child else {
                    return Err(ExecError::BadPlan("OutputSort over a batch".into()));
                };
                Ok(VOut::Rows(sort::output_sort(
                    &mut self.counters,
                    rows,
                    keys,
                    self.cfg.guard(),
                )?))
            }
            _ => Err(ExecError::BadPlan(format!(
                "operator {:?} not supported by the batch executor",
                node.node_type
            ))),
        }
    }

    /// Delta-aware, zone-map-pruned columnar scan. Clean tables with nothing
    /// pruned borrow base columns outright (zero-copy, no selection).
    /// Everything else borrows chunked base+delta views and starts from the
    /// pruner's selection vector: kept-block live rids plus every live delta
    /// rid — buffered writes stay visible, tombstones stay masked, and
    /// refuted blocks are never touched. Selection and counter charges come
    /// from [`super::ap_scan_access`], shared with the row interpreter, so
    /// every executor reads (and charges) exactly the same cells.
    fn table_scan(
        &mut self,
        slot: usize,
        columns: &[usize],
        pushed: Option<&BoundExpr>,
    ) -> Result<VOut<'a>, ExecError> {
        let name = &self.query.tables[slot].name;
        let stored = self
            .db
            .stored_table(name)
            .ok_or_else(|| ExecError::MissingTable(name.clone()))?;
        let (sel, cuts) =
            super::ap_scan_access(stored, slot, pushed, columns.len(), &mut self.counters);
        let cols = columns
            .iter()
            .map(|&c| BatchCol::Borrowed(stored.cols.column_ref(c)))
            .collect();
        Ok(VOut::Batch(match sel {
            None => Batch::plain(cols, None, stored.cols.row_count()),
            Some(sel) => Batch {
                cols,
                sel: Some(sel),
                rows: stored.cols.physical_len(),
                cuts,
            },
        }))
    }

    fn run_batch(&mut self, node: &PlanNode, needs: &Needs) -> Result<Batch<'a>, ExecError> {
        match self.run(node, needs)? {
            VOut::Batch(b) => Ok(b),
            VOut::Rows(_) => Err(ExecError::BadPlan(
                "batch operator over final-row child".into(),
            )),
        }
    }

    fn filter(
        &mut self,
        node: &PlanNode,
        predicate: &BoundExpr,
        needs: &Needs,
    ) -> Result<VOut<'a>, ExecError> {
        let child = &node.children[0];
        let child_needs = needs.with_exprs([predicate]);
        let batch = self.run_batch(child, &child_needs)?;
        let schema = child.output_schema();

        let n = batch.selected_len();
        self.counters.filter_evals += n as u64;

        let cols: Vec<Option<ColRef>> = batch.cols.iter().map(BatchCol::as_ref).collect();
        let out_sel = parallel::par_filter_sel(
            self.cfg,
            predicate,
            &schema,
            &cols,
            batch.sel.as_deref(),
            batch.rows,
            batch.morsel_step(self.cfg),
            &batch.morsel_cuts(),
        )?;
        drop(cols);
        Ok(VOut::Batch(Batch::plain(batch.cols, Some(out_sel), batch.rows)))
    }

    fn hash_join(
        &mut self,
        node: &PlanNode,
        probe_keys: &[ColumnRef],
        build_keys: &[ColumnRef],
        needs: &Needs,
    ) -> Result<VOut<'a>, ExecError> {
        let probe_node = &node.children[0];
        let hash_node = &node.children[1];
        let probe_schema = probe_node.output_schema();
        let build_schema = hash_node.output_schema();

        let child_needs = needs.with_keys(probe_keys).with_keys(build_keys);
        // Build side first — the same execution order as the row interpreter.
        let build = self.run_batch(&hash_node.children[0], &child_needs)?;
        let probe = self.run_batch(probe_node, &child_needs)?;

        let (probe_idx, build_idx) = join_pairs(
            self.cfg,
            &mut self.counters,
            &JoinSide::of(&probe, &probe_schema, probe_keys)?,
            &JoinSide::of(&build, &build_schema, build_keys)?,
        );

        // A tripped guard may have truncated the pair lists; surface it
        // before gathering from them.
        self.cfg.guard().check()?;

        // Late materialization: gather only the columns some ancestor reads.
        let out_schema = probe_schema.concat(&build_schema);
        self.cfg
            .guard()
            .charge_cells(probe_idx.len() as u64 * out_schema.len().max(1) as u64)?;
        let probe_w = probe_schema.len();
        let mut cols = Vec::with_capacity(out_schema.len());
        for (p, &(slot, cidx)) in out_schema.columns().iter().enumerate() {
            let (src, idxs) = if p < probe_w {
                (&probe.cols[p], &probe_idx)
            } else {
                (&build.cols[p - probe_w], &build_idx)
            };
            let col = match (needs.contains(slot, cidx), src.as_ref()) {
                (true, Some(data)) => BatchCol::Owned(parallel::par_gather(self.cfg, data, idxs)),
                _ => BatchCol::Dead,
            };
            cols.push(col);
        }
        Ok(VOut::Batch(Batch::plain(cols, None, probe_idx.len())))
    }

    fn aggregate(
        &mut self,
        node: &PlanNode,
        group_by: &[BoundExpr],
        outputs: &[crate::plan::AggSpec],
        having: Option<&BoundExpr>,
        hash: bool,
    ) -> Result<VOut<'a>, ExecError> {
        let child = &node.children[0];
        let leaves = agg::collect_all_leaves(outputs, having);
        let needed_exprs = group_by
            .iter()
            .chain(leaves.iter().filter_map(|l| l.arg.as_ref()));
        let child_needs = Needs::of_exprs(needed_exprs.clone());
        let batch = self.run_batch(child, &child_needs)?;
        let schema = child.output_schema();

        let cols: Vec<Option<ColRef>> = batch.cols.iter().map(BatchCol::as_ref).collect();
        let sel = batch.sel.as_deref();
        // Computed key/argument columns materialize one cell per selected
        // row each (bare columns pass through as stored; charged alike).
        self.cfg.guard().charge_cells(
            batch.selected_len() as u64 * (group_by.len() + leaves.len()).max(1) as u64,
        )?;
        let key_cols: Vec<ExprCol> = group_by
            .iter()
            .map(|g| typed::eval_col(self.cfg, g, &schema, &cols, sel, batch.rows))
            .collect::<Result<_, _>>()?;
        let arg_cols: Vec<Option<ExprCol>> = leaves
            .iter()
            .map(|l| {
                l.arg
                    .as_ref()
                    .map(|a| typed::eval_col(self.cfg, a, &schema, &cols, sel, batch.rows))
                    .transpose()
            })
            .collect::<Result<_, _>>()?;
        let rows = agg::aggregate_cols(
            &mut self.counters,
            self.cfg.guard(),
            batch.selected_len(),
            sel,
            &key_cols,
            &arg_cols,
            group_by,
            &leaves,
            outputs,
            having,
            hash,
        )?;
        Ok(VOut::Rows(rows))
    }

    /// The child's batch under a selection in key order: all its rows, or
    /// with `top` = `(limit, offset)` those a top-N keeps. Rows are never
    /// materialized here.
    fn sort(
        &mut self,
        node: &PlanNode,
        keys: &[(BoundExpr, bool)],
        top: Option<(u64, u64)>,
        needs: &Needs,
    ) -> Result<VOut<'a>, ExecError> {
        let child = &node.children[0];
        let child_needs = needs.with_exprs(keys.iter().map(|(k, _)| k));
        let batch = self.run_batch(child, &child_needs)?;
        let (schema, sel, n) = (child.output_schema(), batch.sel.as_deref(), batch.selected_len());
        let guard = self.cfg.guard();
        guard.charge_cells(n as u64 * keys.len().max(1) as u64)?;
        let cols: Vec<Option<ColRef>> = batch.cols.iter().map(BatchCol::as_ref).collect();
        let key_cols: Vec<ExprCol> = keys
            .iter()
            .map(|(k, _)| typed::eval_col(self.cfg, k, &schema, &cols, sel, batch.rows))
            .collect::<Result<_, _>>()?;
        // Discard truncated key columns before the sort indexes them against
        // the full selection.
        guard.check()?;
        let descs: Vec<bool> = keys.iter().map(|(_, d)| *d).collect();
        let kept = sort::sort_indices(&mut self.counters, &key_cols, &descs, sel, n, top, guard);
        drop((key_cols, cols));
        Ok(VOut::Batch(Batch::plain(batch.cols, Some(kept), batch.rows)))
    }

    fn projection(&mut self, node: &PlanNode, exprs: &[BoundExpr]) -> Result<VOut<'a>, ExecError> {
        let child = &node.children[0];
        // Aggregates / output sorts already produce final rows.
        if produces_final_rows(child) {
            return self.run(child, &Needs::All);
        }
        let child_needs = Needs::of_exprs(exprs);
        let batch = self.run_batch(child, &child_needs)?;
        let schema = child.output_schema();
        let cols: Vec<Option<ColRef>> = batch.cols.iter().map(BatchCol::as_ref).collect();
        let sel = batch.sel.as_deref();
        // Projection materializes one cell per output row per expression,
        // twice (column form, then row form).
        self.cfg.guard().charge_cells(
            2 * batch.selected_len() as u64 * exprs.len().max(1) as u64,
        )?;
        let out_cols: Vec<ColumnData> = exprs
            .iter()
            .map(|e| parallel::par_eval_batch(self.cfg, e, &schema, &cols, sel, batch.rows))
            .collect::<Result<_, _>>()?;
        // Discard truncated output columns before row building indexes them.
        self.cfg.guard().check()?;
        let n = sel.map(|s| s.len()).unwrap_or(batch.rows);
        Ok(VOut::Rows(parallel::par_build_rows(self.cfg, &out_cols, n)))
    }
}

/// One input of a hash join as [`join_pairs`] reads it: the key columns and
/// the selection of the batch they belong to.
pub(crate) struct JoinSide<'a> {
    pub(crate) keys: Vec<ColRef<'a>>,
    /// Physical rows in dense order (`None`: rows `0..len`).
    pub(crate) sel: Option<&'a [u32]>,
    pub(crate) len: usize,
}

impl<'a> JoinSide<'a> {
    fn of(batch: &'a Batch<'_>, schema: &Schema, keys: &[ColumnRef]) -> Result<Self, ExecError> {
        let mut cols = Vec::with_capacity(keys.len());
        for k in keys {
            let pos = schema.position(k.table_slot, k.column_idx);
            let col = pos.and_then(|p| batch.cols[p].as_ref());
            cols.push(col.ok_or_else(|| ExecError::BadPlan("join key column missing".into()))?);
        }
        Ok(JoinSide { keys: cols, sel: batch.sel.as_deref(), len: batch.selected_len() })
    }

    #[inline]
    fn phys(&self, j: usize) -> usize {
        self.sel.map_or(j, |s| s[j] as usize)
    }
}

/// How [`join_pairs`] matches a join's keys.
pub(crate) enum JoinKeys<'a> {
    /// One key per side, both in one integer domain: (probe, build).
    Integer(IntKey<'a>, IntKey<'a>),
    /// One key per side, in two domains: no pair matches — [`JoinKey`]s of
    /// two types are never equal.
    Disjoint,
    /// Several keys, or strings, floats, mixed cells.
    Generic,
}

/// Classifies a join's (probe, build) key columns for [`join_pairs`].
pub(crate) fn classify_join<'a>(probe: &[ColRef<'a>], build: &[ColRef<'a>]) -> JoinKeys<'a> {
    let ([p], [b]) = (probe, build) else {
        return JoinKeys::Generic;
    };
    match (IntKey::new(*p), IntKey::new(*b)) {
        (Some((dp, p)), Some((db, b))) if dp == db => JoinKeys::Integer(p, b),
        (Some(_), Some(_)) => JoinKeys::Disjoint,
        _ => JoinKeys::Generic,
    }
}

/// Computes matching (probe physical row, build physical row) pairs in the
/// row interpreter's order — probe rows in order, each one's matches in
/// build order — and charges the join's hash counters. The build table
/// fills serially; [`parallel::par_probe`] shares it with the probe. NULL
/// keys never match. An [`IntKey`] pair is decoded to `i64` once per row
/// and matched through an [`IntTable`]; any other key as a `Vec` of
/// [`JoinKey`]s, hashed and compared like the row interpreter's.
pub(crate) fn join_pairs(
    cfg: &ExecConfig,
    counters: &mut WorkCounters,
    probe: &JoinSide<'_>,
    build: &JoinSide<'_>,
) -> JoinPairs {
    counters.hash_build_rows += build.len as u64;
    counters.hash_probe_rows += probe.len as u64;
    let guard = cfg.guard();
    match classify_join(&probe.keys, &build.keys) {
        JoinKeys::Integer(pkey, bkey) => {
            // Dictionary keys compare as build codes: each probe value maps
            // to its build code, or to `None` if the build side lacks it.
            let remap: Option<Vec<Option<i64>>> = match (pkey.base.cells, bkey.base.cells) {
                (KeyCells::Dict(p), KeyCells::Dict(b)) => {
                    Some(p.values.iter().map(|v| b.code_of(v).map(i64::from)).collect())
                }
                _ => None,
            };
            let table = IntTable::build(bkey, build, guard);
            parallel::par_probe(cfg, probe.len, |range, (pi, bi)| {
                let mut cursors = Default::default();
                for j in range {
                    let phys = probe.phys(j);
                    if let Some(key) = pkey.read(phys, &mut cursors, remap.as_deref()) {
                        table.each_match(key, |b| {
                            pi.push(phys as u32);
                            bi.push(b);
                        });
                    }
                }
            })
        }
        JoinKeys::Disjoint => JoinPairs::default(),
        JoinKeys::Generic => {
            let mut table: HashMap<Vec<JoinKey>, Vec<u32>> = HashMap::with_capacity(build.len);
            typed::each_row(build.len, guard, |j| {
                let phys = build.phys(j);
                let key: Option<Vec<JoinKey>> =
                    build.keys.iter().map(|c| JoinKey::owned(c.get(phys))).collect();
                if let Some(key) = key {
                    table.entry(key).or_default().push(phys as u32);
                }
            });
            parallel::par_probe(cfg, probe.len, |range, (pi, bi)| {
                let mut key: Vec<JoinKey> = Vec::with_capacity(probe.keys.len());
                'rows: for j in range {
                    let phys = probe.phys(j);
                    key.clear();
                    for c in &probe.keys {
                        match JoinKey::owned(c.get(phys)) {
                            Some(k) => key.push(k),
                            None => continue 'rows,
                        }
                    }
                    for &b in table.get(&key[..]).into_iter().flatten() {
                        pi.push(phys as u32);
                        bi.push(b);
                    }
                }
            })
        }
    }
}

/// The build side of an integer-keyed join: open addressing over the
/// distinct keys (power-of-two slots, multiplicative hash, linear probing),
/// each slot heading a chain of the build rows that hold its key.
struct IntTable {
    shift: u32,
    /// Per slot: its key, then 1 + its chain's first and last entries (0:
    /// empty, so no key value is reserved as a marker).
    slots: Vec<(i64, u32, u32)>,
    /// Per entry: its physical build row and 1 + the next entry of its
    /// chain (0: end).
    entries: Vec<(u32, u32)>,
}

impl IntTable {
    fn build(key: IntKey<'_>, side: &JoinSide<'_>, guard: &ExecGuard) -> IntTable {
        let bits = (2 * side.len).max(2).next_power_of_two().trailing_zeros();
        let slots = vec![(0, 0, 0); 1 << bits];
        let mut table = IntTable { shift: 64 - bits, slots, entries: Vec::with_capacity(side.len) };
        let mut cursors = Default::default();
        typed::each_row(side.len, guard, |j| {
            let phys = side.phys(j);
            if let Some(k) = key.read(phys, &mut cursors, None) {
                let e = table.entries.len() as u32 + 1;
                table.entries.push((phys as u32, 0));
                let s = table.slot_of(k);
                let (slot_key, head, tail) = &mut table.slots[s];
                if *head == 0 {
                    (*slot_key, *head) = (k, e);
                } else {
                    table.entries[*tail as usize - 1].1 = e;
                }
                *tail = e;
            }
        });
        table
    }

    /// The slot holding `key`, or the empty slot where it would go (at most
    /// half the slots are full).
    #[inline]
    fn slot_of(&self, key: i64) -> usize {
        let mut s = ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.slots[s].1 != 0 && self.slots[s].0 != key {
            s = (s + 1) & (self.slots.len() - 1);
        }
        s
    }

    /// Calls `f` with each build row holding `key`, in build order.
    #[inline]
    fn each_match(&self, key: i64, mut f: impl FnMut(u32)) {
        let mut e = self.slots[self.slot_of(key)].1;
        while e != 0 {
            let (phys, next) = self.entries[e as usize - 1];
            f(phys);
            e = next;
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Domain {
    Int,
    Date,
    Dict,
}

/// A join key column read as `i64`: its base segment, and a dirty table's
/// delta segment after the split row.
#[derive(Clone, Copy)]
pub(crate) struct IntKey<'a> {
    base: KeySeg<'a>,
    delta: Option<(usize, KeySeg<'a>)>,
}

#[derive(Clone, Copy)]
struct KeySeg<'a> {
    cells: KeyCells<'a>,
    nulls: Option<&'a [bool]>,
}

#[derive(Clone, Copy)]
enum KeyCells<'a> {
    Int(&'a [i64]),
    Date(&'a [i32]),
    RleInt(&'a RleRuns<i64>),
    RleDate(&'a RleRuns<i32>),
    For(&'a ForInt),
    Dict(&'a DictColumn),
}

impl<'a> IntKey<'a> {
    /// The column's integer domain and key view; `None` when its cells have
    /// none (strings, floats, mixed) or its two segments disagree.
    fn new(col: ColRef<'a>) -> Option<(Domain, IntKey<'a>)> {
        let (base, delta) = match col {
            ColRef::Single(c) => (c, None),
            ColRef::Chunked { base, delta } => (base, (!delta.is_empty()).then_some(delta)),
        };
        let (domain, seg) = KeySeg::new(base)?;
        let delta = match delta {
            Some(d) => Some((base.len(), KeySeg::new(d).filter(|(dd, _)| *dd == domain)?.1)),
            None => None,
        };
        Some((domain, IntKey { base: seg, delta }))
    }

    /// The key at physical row `row` (`None`: NULL, or a dictionary code
    /// `map` finds absent from the build side). `cur` carries the base and
    /// delta segments' decode state from one call to the next.
    #[inline]
    fn read(&self, row: usize, cur: &mut [Cursor; 2], map: Option<&[Option<i64>]>) -> Option<i64> {
        let (seg, i, cur) = match self.delta {
            Some((split, seg)) if row >= split => (seg, row - split, &mut cur[1]),
            _ => (self.base, row, &mut cur[0]),
        };
        if seg.nulls.is_some_and(|n| n[i]) {
            return None;
        }
        match seg.cells {
            KeyCells::Int(v) => Some(v[i]),
            KeyCells::Date(v) => Some(i64::from(v[i])),
            KeyCells::RleInt(r) => Some(r.vals[cur.run_of(&r.ends, i)]),
            KeyCells::RleDate(r) => Some(i64::from(r.vals[cur.run_of(&r.ends, i)])),
            KeyCells::For(f) => Some(cur.for_cell(f, i)),
            KeyCells::Dict(d) => {
                let code = d.codes[i];
                map.map_or(Some(i64::from(code)), |m| m[code as usize])
            }
        }
    }
}

impl<'a> KeySeg<'a> {
    fn new(c: &'a ColumnData) -> Option<(Domain, KeySeg<'a>)> {
        let (nulls, c) = match c {
            ColumnData::Nullable { nulls, values } => (Some(&nulls[..]), &**values),
            c => (None, c),
        };
        let (domain, cells) = match c {
            ColumnData::Int(v) => (Domain::Int, KeyCells::Int(v)),
            ColumnData::RleInt(r) => (Domain::Int, KeyCells::RleInt(r)),
            ColumnData::ForInt(f) => (Domain::Int, KeyCells::For(f)),
            ColumnData::Date(v) => (Domain::Date, KeyCells::Date(v)),
            ColumnData::RleDate(r) => (Domain::Date, KeyCells::RleDate(r)),
            ColumnData::Dict(d) => (Domain::Dict, KeyCells::Dict(d)),
            _ => return None,
        };
        Some((domain, KeySeg { cells, nulls }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::TpchConfig;
    use qpe_sql::catalog::Catalog;

    fn key<'d>(db: &'d Database, table: &str, column: &str) -> ColRef<'d> {
        let def = db.catalog().table(table).expect("generated table");
        let idx = def.column_index(column).expect("key column");
        db.stored_table(table).expect("stored").cols.column_ref(idx)
    }

    /// Every join the workload generator issues, at the default encoding
    /// policy, keys on frame-of-reference or plain integer columns and must
    /// take the integer-keyed path — over a dirty table's chunked view too.
    #[test]
    fn generator_join_keys_classify_as_int_keyed() {
        let mut db = Database::generate(&TpchConfig::with_scale(0.01));
        let pairs = [
            (("lineitem", "l_orderkey"), ("orders", "o_orderkey")),
            (("orders", "o_custkey"), ("customer", "c_custkey")),
            (("customer", "c_nationkey"), ("nation", "n_nationkey")),
            (("supplier", "s_nationkey"), ("nation", "n_nationkey")),
        ];
        let int_keyed = |db: &Database, (pt, pc), (bt, bc)| {
            let (p, b) = (key(db, pt, pc), key(db, bt, bc));
            matches!(classify_join(&[p], &[b]), JoinKeys::Integer(..))
        };
        for (probe, build) in pairs {
            assert!(int_keyed(&db, probe, build), "{probe:?} ⋈ {build:?}");
        }
        for (table, column) in [("lineitem", "l_orderkey"), ("orders", "o_custkey")] {
            let col = key(&db, table, column).as_single().expect("clean table");
            assert!(matches!(col, ColumnData::ForInt(_)), "{column} is no longer FOR-encoded");
        }

        let row = [
            Value::Int(900_001),
            Value::Str("c#900001".into()),
            Value::Int(1),
            Value::Str("20-000-000-0000".into()),
            Value::Float(1.25),
            Value::Str("machinery".into()),
        ];
        assert_eq!(db.apply_insert("customer", &[row.to_vec()]), 1);
        assert!(key(&db, "customer", "c_custkey").as_single().is_none(), "dirty view");
        assert!(int_keyed(&db, ("orders", "o_custkey"), ("customer", "c_custkey")));
    }

    /// Join keys match only within one type, `-0.0` matches `0.0` and NaN
    /// matches nothing — in both executors' hash joins, whichever keys
    /// happen to share a hash.
    #[test]
    fn join_keys_match_within_one_type_and_across_zero_signs() {
        use crate::eval::{Layout, Schema};
        use crate::exec::{hash_join_pairs, Rows};
        let (f, i, d) = (Value::Float, Value::Int, Value::Date);
        // (probe keys, build keys, the matching (probe, build) key pairs)
        type Case = (Vec<Value>, Vec<Value>, Vec<(Value, Value)>);
        let cases: [Case; 4] = [
            (vec![i(1), i(2), i(0)], vec![f(1.0), f(2.0), f(0.0)], vec![]),
            (vec![i(1), i(2)], vec![d(1), d(2), d(1)], vec![]),
            (
                vec![f(0.0), f(-0.0), f(f64::NAN), f(1.5), Value::Null],
                vec![f(-0.0), f(f64::NAN), f(1.5), Value::Null],
                vec![(f(0.0), f(-0.0)), (f(-0.0), f(-0.0)), (f(1.5), f(1.5))],
            ),
            (
                vec![i(1), f(1.0), d(1), Value::Str("1".into())],
                vec![f(1.0), i(1), Value::Str("1".into())],
                vec![(i(1), i(1)), (f(1.0), f(1.0)), (Value::Str("1".into()), Value::Str("1".into()))],
            ),
        ];
        let exact = |pairs: Vec<(Value, Value)>| format!("{pairs:?}");
        for (probe, build, want) in cases {
            let (p, b) = (ColumnData::from_values(&probe), ColumnData::from_values(&build));
            let side = |c, len| JoinSide { keys: vec![ColRef::Single(c)], sel: None, len };
            let (pi, bi) = join_pairs(
                &ExecConfig::serial(),
                &mut WorkCounters::default(),
                &side(&p, probe.len()),
                &side(&b, build.len()),
            );
            let batch: Vec<(Value, Value)> =
                pi.iter().zip(&bi).map(|(&x, &y)| (p.get(x as usize), b.get(y as usize))).collect();
            let rows = |vals: &[Value]| Rows::Owned(vals.iter().map(|v| vec![v.clone()]).collect());
            let key = Layout::flat(&Schema::new(vec![(0, 0)])).slot(0, 0).expect("one column");
            let pairs = hash_join_pairs(
                &mut WorkCounters::default(),
                ExecGuard::unlimited(),
                &rows(&build),
                &rows(&probe),
                &[key],
                &[key],
            )
            .expect("joins");
            let interpreted: Vec<(Value, Value)> = pairs
                .into_iter()
                .map(|(p, b)| (probe[p as usize].clone(), build[b as usize].clone()))
                .collect();
            assert_eq!(exact(batch), exact(want.clone()), "batch join of {probe:?} ⋈ {build:?}");
            assert_eq!(exact(interpreted), exact(want), "row join of {probe:?} ⋈ {build:?}");
        }
    }
}
