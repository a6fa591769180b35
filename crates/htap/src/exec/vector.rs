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
//! * filters evaluate predicates over typed slices into a new selection
//!   vector ([`crate::eval::eval_predicate_mask`]) — no row construction;
//! * joins match on typed key columns and gather only the columns that are
//!   *live* above the join (late materialization);
//! * sorts and top-N permute the selection instead of moving rows;
//! * rows are materialized once, at the aggregation/projection boundary.
//!
//! **Invariant:** results and [`WorkCounters`] are identical to the row
//! interpreter on every plan this executor accepts — the latency model, the
//! optimizer and the explainer cannot tell which executor ran. Plans with
//! operators outside the AP vocabulary fall back to the row interpreter.
//!
//! With an [`ExecConfig`] of more than one thread, the hot kernels (filter
//! masks, join pair-finding, gathers, expression evaluation, sorts) fan out
//! morsel-wise over a scoped worker pool ([`super::parallel`])
//! using strategies chosen to keep rows *and* counters bit-identical to the
//! serial path — `threads == 1` (the default on a single-core host) is the
//! exact serial executor.

use super::parallel::{self, ExecConfig};
use super::typed::{self, ExprCol};
use super::{agg, produces_final_rows, sort, ExecError, Row, WorkCounters};
use crate::engine::Database;
use crate::eval::{eval_predicate_mask, BatchView, Schema};
use crate::plan::{PlanNode, PlanOp};
use crate::storage::col_store::{ColRef, ColumnData, FOR_BLOCK_ROWS};
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
    let mut ex = VecExecutor {
        query,
        db,
        cfg,
        counters: WorkCounters::default(),
        mask: Vec::new(),
        sel_pool: Vec::new(),
    };
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
    /// Scratch predicate mask, reused across every filter in the plan.
    mask: Vec<bool>,
    /// Scratch selection buffers, recycled as operators consume selections.
    sel_pool: Vec<Vec<u32>>,
}

impl<'a> VecExecutor<'a> {
    fn take_sel(&mut self) -> Vec<u32> {
        self.sel_pool.pop().unwrap_or_default()
    }

    fn recycle_sel(&mut self, mut sel: Vec<u32>) {
        sel.clear();
        self.sel_pool.push(sel);
    }

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
            PlanOp::Sort { keys } => self.sort(node, keys, needs),
            PlanOp::TopNSort { keys, limit, offset } => {
                self.top_n(node, keys, *limit, *offset, needs)
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
        let out_sel = if self.cfg.parallel_for(n) {
            parallel::par_filter_sel(
                self.cfg,
                predicate,
                &schema,
                &cols,
                batch.sel.as_deref(),
                batch.rows,
                batch.morsel_step(self.cfg),
                &batch.morsel_cuts(),
            )?
        } else {
            let view = BatchView { cols: &cols, sel: batch.sel.as_deref(), rows: batch.rows };
            let mut mask = std::mem::take(&mut self.mask);
            eval_predicate_mask(predicate, &schema, &view, &mut mask)?;
            let mut out_sel = self.take_sel();
            out_sel.reserve(n);
            for (j, keep) in mask.iter().enumerate() {
                if *keep {
                    out_sel.push(view.phys(j) as u32);
                }
            }
            self.mask = mask;
            out_sel
        };
        drop(cols);
        if let Some(old) = batch.sel {
            self.recycle_sel(old);
        }
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

        let bpos: Vec<usize> = build_keys
            .iter()
            .map(|k| {
                build_schema
                    .position(k.table_slot, k.column_idx)
                    .ok_or_else(|| ExecError::BadPlan("hash build key missing".into()))
            })
            .collect::<Result<_, _>>()?;
        let ppos: Vec<usize> = probe_keys
            .iter()
            .map(|k| {
                probe_schema
                    .position(k.table_slot, k.column_idx)
                    .ok_or_else(|| ExecError::BadPlan("hash probe key missing".into()))
            })
            .collect::<Result<_, _>>()?;

        self.counters.hash_build_rows += build.selected_len() as u64;
        self.counters.hash_probe_rows += probe.selected_len() as u64;

        let (probe_idx, build_idx) =
            join_pairs(self.cfg, &probe, &ppos, &build, &bpos)?;

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
        let rows = probe_idx.len();
        if let Some(s) = probe.sel {
            self.recycle_sel(s);
        }
        if let Some(s) = build.sel {
            self.recycle_sel(s);
        }
        Ok(VOut::Batch(Batch::plain(cols, None, rows)))
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

    fn sort(
        &mut self,
        node: &PlanNode,
        keys: &[(BoundExpr, bool)],
        needs: &Needs,
    ) -> Result<VOut<'a>, ExecError> {
        let child = &node.children[0];
        let child_needs = needs.with_exprs(keys.iter().map(|(k, _)| k));
        let mut batch = self.run_batch(child, &child_needs)?;
        let sel = batch.take_selection();
        let (key_cols, descs) = self.sort_keys(keys, &child.output_schema(), &batch, &sel)?;
        let sorted =
            sort::full_sort_indices_par(&mut self.counters, self.cfg, &key_cols, &descs, sel);
        drop(key_cols);
        Ok(VOut::Batch(Batch::plain(batch.cols, Some(sorted), batch.rows)))
    }

    fn top_n(
        &mut self,
        node: &PlanNode,
        keys: &[(BoundExpr, bool)],
        limit: u64,
        offset: u64,
        needs: &Needs,
    ) -> Result<VOut<'a>, ExecError> {
        let child = &node.children[0];
        let child_needs = needs.with_exprs(keys.iter().map(|(k, _)| k));
        let mut batch = self.run_batch(child, &child_needs)?;
        let sel = batch.take_selection();
        let (key_cols, descs) = self.sort_keys(keys, &child.output_schema(), &batch, &sel)?;
        let top = sort::top_n_indices(
            &mut self.counters,
            &key_cols,
            &descs,
            sel,
            limit,
            offset,
            self.cfg.guard(),
        );
        drop(key_cols);
        Ok(VOut::Batch(Batch::plain(batch.cols, Some(top), batch.rows)))
    }

    /// The sort-key columns of `batch` under its (already taken) selection
    /// `sel`, plus each key's direction.
    fn sort_keys<'b>(
        &mut self,
        keys: &[(BoundExpr, bool)],
        schema: &Schema,
        batch: &'b Batch<'_>,
        sel: &[u32],
    ) -> Result<(Vec<ExprCol<'b>>, Vec<bool>), ExecError> {
        let cols: Vec<Option<ColRef<'b>>> = batch.cols.iter().map(BatchCol::as_ref).collect();
        self.cfg
            .guard()
            .charge_cells(sel.len() as u64 * keys.len().max(1) as u64)?;
        let key_cols: Vec<ExprCol<'b>> = keys
            .iter()
            .map(|(k, _)| typed::eval_col(self.cfg, k, schema, &cols, Some(sel), batch.rows))
            .collect::<Result<_, _>>()?;
        // Discard truncated key columns before the sort kernels index them
        // against the full selection.
        self.cfg.guard().check()?;
        let descs: Vec<bool> = keys.iter().map(|(_, d)| *d).collect();
        Ok((key_cols, descs))
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

/// Computes matching (probe physical index, build physical index) pairs in
/// the row interpreter's output order: probe rows in order, matches in build
/// insertion order. Uses a typed `i64` table when both key columns are
/// integer-typed; otherwise falls back to generic `Value` keys (identical
/// hashing/equality semantics to the row path).
///
/// With a parallel [`ExecConfig`], the build side is partitioned by key
/// hash (each partition's per-key match lists still fill in build order)
/// and probe morsels emit pairs concatenated in probe order — the output is
/// bit-identical to the serial pass either way.
fn join_pairs(
    cfg: &ExecConfig,
    probe: &Batch<'_>,
    ppos: &[usize],
    build: &Batch<'_>,
    bpos: &[usize],
) -> Result<(Vec<u32>, Vec<u32>), ExecError> {
    let build_len = build.selected_len();
    let probe_len = probe.selected_len();
    let parallel_join = cfg.parallel_for(probe_len.max(build_len));
    let mut probe_idx = Vec::new();
    let mut build_idx = Vec::new();

    // Typed fast path: a single key of the same integer-backed variant on
    // both sides, each in one contiguous segment (chunked keys from a dirty
    // table's delta-aware scan take the generic path below). Restricted to
    // same-variant pairs because the row interpreter's `Value` keys hash
    // with a type tag — an `Int` never matches a `Date` there, so it must
    // not match here either. Dictionary keys on both sides join on `u32`
    // codes: the probe side's codes are remapped into the build dictionary's
    // code space once (string compares only across the two small value
    // tables), then every row hashes and compares integers.
    if ppos.len() == 1 && bpos.len() == 1 {
        let pcol = probe.cols[ppos[0]]
            .as_ref()
            .ok_or_else(|| ExecError::BadPlan("join key column not materialized".into()))?;
        let bcol = build.cols[bpos[0]]
            .as_ref()
            .ok_or_else(|| ExecError::BadPlan("join key column not materialized".into()))?;
        if let (Some(ColumnData::Dict(p)), Some(ColumnData::Dict(b))) =
            (pcol.as_single(), bcol.as_single())
        {
            // Code equality in the build space ≡ string equality: each probe
            // value maps to its build code, or to -1 (absent — below every
            // valid code, so the probe can never find it in the table).
            let to_build: Vec<i64> = p
                .values
                .iter()
                .map(|v| b.code_of(v).map_or(-1, |c| c as i64))
                .collect();
            let pk = IntKeyed::Remap { codes: &p.codes, to_build: &to_build };
            let bk = IntKeyed::Code(&b.codes);
            return int_keyed_join(cfg, parallel_join, probe, build, pk, bk);
        }
        let keyed = match (pcol.as_single(), bcol.as_single()) {
            (Some(ColumnData::Int(p)), Some(ColumnData::Int(b))) => {
                Some((IntKeyed::I64(p), IntKeyed::I64(b)))
            }
            (Some(ColumnData::Date(p)), Some(ColumnData::Date(b))) => {
                Some((IntKeyed::I32(p), IntKeyed::I32(b)))
            }
            _ => None,
        };
        if let Some((pk, bk)) = keyed {
            return int_keyed_join(cfg, parallel_join, probe, build, pk, bk);
        }
    }

    // Generic path: Value keys, same structural equality as the row
    // interpreter's `HashMap<Vec<Value>, _>`.
    let bcols: Vec<ColRef<'_>> = bpos
        .iter()
        .map(|&p| {
            build.cols[p]
                .as_ref()
                .ok_or_else(|| ExecError::BadPlan("join key column not materialized".into()))
        })
        .collect::<Result<_, _>>()?;
    let pcols: Vec<ColRef<'_>> = ppos
        .iter()
        .map(|&p| {
            probe.cols[p]
                .as_ref()
                .ok_or_else(|| ExecError::BadPlan("join key column not materialized".into()))
        })
        .collect::<Result<_, _>>()?;
    if parallel_join {
        let tables = parallel::par_hash_build(cfg, build_len, |j| {
            let phys = batch_phys(build, j);
            let key: Vec<Value> = bcols.iter().map(|c| c.get(phys)).collect();
            (key, phys as u32)
        });
        return Ok(parallel::par_hash_probe(cfg, probe_len, &tables, |j| {
            let phys = batch_phys(probe, j);
            let key: Vec<Value> = pcols.iter().map(|c| c.get(phys)).collect();
            // NULL join keys never match (sql_eq semantics).
            if key.iter().any(|v| v.is_null()) {
                None
            } else {
                Some((key, phys as u32))
            }
        }));
    }
    let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(build_len);
    for j in 0..build_len {
        let phys = batch_phys(build, j);
        let key: Vec<Value> = bcols.iter().map(|c| c.get(phys)).collect();
        table.entry(key).or_default().push(phys as u32);
    }
    let mut scratch: Vec<Value> = Vec::with_capacity(pcols.len());
    for j in 0..probe_len {
        let phys = batch_phys(probe, j);
        scratch.clear();
        scratch.extend(pcols.iter().map(|c| c.get(phys)));
        // NULL join keys never match (sql_eq semantics).
        if scratch.iter().any(|v| v.is_null()) {
            continue;
        }
        if let Some(matches) = table.get(&scratch) {
            for &b in matches {
                probe_idx.push(phys as u32);
                build_idx.push(b);
            }
        }
    }
    Ok((probe_idx, build_idx))
}

#[inline]
fn batch_phys(batch: &Batch<'_>, j: usize) -> usize {
    match &batch.sel {
        Some(s) => s[j] as usize,
        None => j,
    }
}

/// Integer view over `Int`, `Date`, and dictionary-code key columns.
#[derive(Clone, Copy)]
enum IntKeyed<'a> {
    I64(&'a [i64]),
    I32(&'a [i32]),
    /// Build-side dictionary codes, keyed directly.
    Code(&'a [u32]),
    /// Probe-side dictionary codes translated into the build dictionary's
    /// code space (`-1` ⇒ value absent from the build side, never matches).
    Remap {
        codes: &'a [u32],
        to_build: &'a [i64],
    },
}

impl IntKeyed<'_> {
    #[inline]
    fn get(self, idx: usize) -> i64 {
        match self {
            IntKeyed::I64(v) => v[idx],
            IntKeyed::I32(v) => v[idx] as i64,
            IntKeyed::Code(v) => v[idx] as i64,
            IntKeyed::Remap { codes, to_build } => to_build[codes[idx] as usize],
        }
    }
}

/// Shared body of the single-key integer-domain join: serial build/probe in
/// insertion order, or the hash-partitioned parallel variant — bit-identical
/// output either way.
fn int_keyed_join(
    cfg: &ExecConfig,
    parallel_join: bool,
    probe: &Batch<'_>,
    build: &Batch<'_>,
    pk: IntKeyed<'_>,
    bk: IntKeyed<'_>,
) -> Result<(Vec<u32>, Vec<u32>), ExecError> {
    let build_len = build.selected_len();
    let probe_len = probe.selected_len();
    if parallel_join {
        let tables = parallel::par_hash_build(cfg, build_len, |j| {
            let phys = batch_phys(build, j);
            (bk.get(phys), phys as u32)
        });
        return Ok(parallel::par_hash_probe(cfg, probe_len, &tables, |j| {
            let phys = batch_phys(probe, j);
            Some((pk.get(phys), phys as u32))
        }));
    }
    let mut probe_idx = Vec::new();
    let mut build_idx = Vec::new();
    let mut table: HashMap<i64, Vec<u32>> = HashMap::with_capacity(build_len);
    for j in 0..build_len {
        let phys = batch_phys(build, j);
        table.entry(bk.get(phys)).or_default().push(phys as u32);
    }
    for j in 0..probe_len {
        let phys = batch_phys(probe, j);
        if let Some(matches) = table.get(&pk.get(phys)) {
            for &b in matches {
                probe_idx.push(phys as u32);
                build_idx.push(b);
            }
        }
    }
    Ok((probe_idx, build_idx))
}
