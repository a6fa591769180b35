//! Morsel-driven parallel execution for the AP batch executor.
//!
//! The vectorized executor's kernels (filter selections, hash-join pair finding,
//! gathers, expression evaluation) all iterate a dense range of
//! selected rows. This module splits that range into fixed-size
//! **morsels** and runs them on a [`std::thread::scope`]d worker pool, with
//! every parallel strategy chosen so the output is **bit-identical** to the
//! serial batch executor (and therefore to the row interpreter):
//!
//! * **order-preserving kernels** (filter, gather, expression eval,
//!   projection): each morsel computes its slice independently; slices are
//!   reassembled in morsel order, which *is* the serial iteration order.
//!   A morsel of a dense batch is a physical row range, never an identity
//!   selection, so the filter's block kernels (FOR envelopes, RLE runs)
//!   see the same shape at every thread count, and the filter writes its
//!   surviving rows straight into the morsel's selection;
//! * **hash joins**: the build table fills serially, in build order, so
//!   every key's match list is the serial one; probe morsels then share it
//!   read-only, emit pairs in probe order and concatenate in morsel order;
//! * **aggregation**: the key and argument expressions evaluate
//!   morsel-parallel; the fold over them (`exec::agg`) stays serial,
//!   column-at-a-time, so every group accumulates in the *global* dense
//!   order and even float sums keep the serial association order;
//! * **sorts and top-N**: the stable full sort and the bounded top-N
//!   buffer run serially (the buffer's order among tied keys depends on
//!   insertion dynamics, which no parallel decomposition can reproduce
//!   exactly), but the sort-key columns feeding them evaluate
//!   morsel-parallel — matching the latency model, which prices
//!   `topn_pushes` as serial work.
//!
//! [`WorkCounters`](super::WorkCounters) are charged from input sizes by
//! the same formulas as the serial executor, so counters — and therefore
//! simulated latencies, router labels and explanations — are identical by
//! construction. `threads == 1`, or any input of at most one morsel, takes
//! the exact serial code path — for the filter and the join probe, the
//! one-morsel case of the same kernel.
//!
//! Morsel boundaries additionally respect storage boundaries: a dense scan
//! over a chunked (base + delta) column view cuts at the segment split, a
//! zone-map-pruned scan's selection cuts at every position where it jumps
//! a pruned block gap or crosses into the delta, and a dense scan over a
//! frame-of-reference column aligns its morsel step down to the FOR block
//! size — so no morsel straddles two storage regions or a packed block.
//! Morsel *sizing* is zone-map-aware too (`zone_aware_step`): a selective
//! pruned scan sizes its morsels from the surviving row count, not the raw
//! table length, so thread fan-out sees post-pruning work.

use super::guard::ExecGuard;
use super::typed::each_block;
use super::GUARD_CHECK_ROWS;
use crate::eval::{eval_batch, eval_predicate_sel, BatchView, EvalError, Rows, Schema};
use crate::storage::col_store::{ColRef, ColumnData};
use qpe_sql::binder::BoundExpr;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Rows per morsel when nothing overrides it.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Smallest morsel [`zone_aware_step`] will shrink to: below this, per-task
/// dispatch overhead outweighs the extra fan-out.
pub(crate) const MIN_MORSEL_ROWS: usize = 512;

/// Morsels per worker [`zone_aware_step`] aims for — enough slack that the
/// work-stealing counter can rebalance when morsel costs are skewed.
const MORSELS_PER_WORKER: usize = 4;

/// Zone-map-aware morsel sizing. The configured step is sized for raw
/// full-table scans; a selective zone-pruned scan can leave so few
/// surviving rows that fixed-size chunks collapse into one or two morsels
/// and idle most workers. Shrink the step until the *surviving* row count
/// `n` spreads to [`MORSELS_PER_WORKER`] morsels per worker (floored at
/// [`MIN_MORSEL_ROWS`] to amortize dispatch overhead), then align it down
/// to `align` (a frame-of-reference block size) so no morsel straddles a
/// packed block. Sizing only changes the parallel decomposition — results
/// and counters are invariant under any morsel split.
pub(crate) fn zone_aware_step(
    configured: usize,
    n: usize,
    threads: usize,
    align: Option<usize>,
) -> usize {
    let mut step = configured.max(1);
    if threads > 1 {
        let spread = n.div_ceil(threads * MORSELS_PER_WORKER);
        step = step.min(spread.max(MIN_MORSEL_ROWS));
    }
    if let Some(a) = align.filter(|&a| a > 0) {
        step = (step / a).max(1) * a;
    }
    step
}

/// Parallelism knob for the AP batch executor.
///
/// `threads == 1` is the exact serial executor. With more threads, any
/// kernel whose input exceeds one morsel fans out over a scoped worker
/// pool; results are deterministic either way (see the module docs).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads for AP batch kernels (1 ⇒ serial).
    pub threads: usize,
    /// Rows per morsel; also the minimum input size before any kernel
    /// bothers to go parallel.
    pub morsel_rows: usize,
    /// Statement governor consulted at every morsel boundary (`None` ⇒
    /// ungoverned). Carried here so the guard reaches every kernel the
    /// config already reaches; excluded from equality — two configs that
    /// decompose work identically are equal regardless of governance.
    pub guard: Option<ExecGuard>,
}

/// Equality ignores the guard: it governs *when a statement stops*, never
/// how work is decomposed, so configs compare on decomposition alone.
impl PartialEq for ExecConfig {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.morsel_rows == other.morsel_rows
    }
}

impl Eq for ExecConfig {}

impl ExecConfig {
    /// The exact serial executor.
    pub fn serial() -> Self {
        ExecConfig { threads: 1, morsel_rows: DEFAULT_MORSEL_ROWS, guard: None }
    }

    /// `threads` workers with the default morsel size.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig { threads: threads.max(1), morsel_rows: DEFAULT_MORSEL_ROWS, guard: None }
    }

    /// This config with a statement guard attached.
    pub fn with_guard(&self, guard: ExecGuard) -> Self {
        ExecConfig { guard: Some(guard), ..self.clone() }
    }

    /// The effective guard: the attached one, or the shared no-limit guard.
    #[inline]
    pub(crate) fn guard(&self) -> &ExecGuard {
        self.guard.as_ref().unwrap_or_else(|| ExecGuard::unlimited())
    }

    /// The thread count explicitly requested via `QPE_AP_THREADS`, if any.
    /// Callers that must stay host-independent (the latency simulation)
    /// distinguish an explicit request from the available-cores default.
    pub fn env_requested_threads() -> Option<usize> {
        std::env::var("QPE_AP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|t| t.max(1))
    }

    /// Reads `QPE_AP_THREADS` / `QPE_MORSEL_ROWS` from the environment,
    /// defaulting to the machine's available cores and
    /// [`DEFAULT_MORSEL_ROWS`].
    pub fn from_env() -> Self {
        let threads = Self::env_requested_threads()
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
            .max(1);
        let morsel_rows = std::env::var("QPE_MORSEL_ROWS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&m| m > 0)
            .unwrap_or(DEFAULT_MORSEL_ROWS);
        ExecConfig { threads, morsel_rows, guard: None }
    }

    /// The process-wide default ([`ExecConfig::from_env`], read once).
    pub fn global() -> &'static ExecConfig {
        static GLOBAL: OnceLock<ExecConfig> = OnceLock::new();
        GLOBAL.get_or_init(ExecConfig::from_env)
    }

    /// True when a kernel over `n` rows should fan out: more than one
    /// worker configured and more than one morsel of input.
    pub(crate) fn parallel_for(&self, n: usize) -> bool {
        self.threads > 1 && n > self.morsel_rows
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

// ---------------------------------------------------------------------------
// Morsel splitting and the scoped worker pool
// ---------------------------------------------------------------------------

/// Splits the dense range `0..n` into morsels of at most `morsel_rows`,
/// additionally cutting at every position in `cuts` (ascending dense
/// positions of storage discontinuities: the base→delta segment split and
/// the gaps a zone-map-pruned scan's selection jumps across) so no morsel
/// straddles a segment or block boundary.
pub(crate) fn morsel_ranges(
    n: usize,
    morsel_rows: usize,
    cuts: &[usize],
) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    let mut out = Vec::with_capacity(n / step + 2 + cuts.len());
    let mut chunk = |mut lo: usize, hi: usize| {
        while lo < hi {
            let end = (lo + step).min(hi);
            out.push(lo..end);
            lo = end;
        }
    };
    let mut lo = 0usize;
    for &c in cuts {
        if c > lo && c < n {
            chunk(lo, c);
            lo = c;
        }
    }
    chunk(lo, n);
    out
}

/// Runs `n_tasks` closures on up to `threads` scoped workers (work is pulled
/// from a shared atomic counter, so long tasks don't serialize behind a
/// static assignment) and returns the results **in task order** regardless
/// of completion order.
pub(crate) fn run_tasks<T, F>(threads: usize, n_tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_tasks == 0 {
        return Vec::new();
    }
    let workers = threads.min(n_tasks);
    if workers <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|o| o.expect("every task slot filled"))
            .collect()
    })
}

/// Splices per-morsel columns in morsel order.
fn splice(pieces: Vec<ColumnData>) -> ColumnData {
    let mut iter = pieces.into_iter();
    let mut acc = iter.next().expect("at least one morsel");
    iter.for_each(|piece| acc.append(piece));
    acc
}

/// A morsel's view of `(cols, sel, rows)`: the parent selection sliced to
/// the dense range, or — for a dense batch — that range of physical rows.
fn sub_view<'v>(
    cols: &'v [Option<ColRef<'v>>],
    sel: Option<&'v [u32]>,
    rows: usize,
    range: Range<usize>,
) -> BatchView<'v> {
    BatchView { cols, rows: Rows::of(sel, rows).slice(range) }
}

// ---------------------------------------------------------------------------
// Order-preserving kernels: filter, eval, gather, projection
// ---------------------------------------------------------------------------

/// The filter, serial and parallel: each morsel walks its dense range in
/// guard-polled blocks of [`GUARD_CHECK_ROWS`] and appends the surviving
/// physical rows of each ([`eval_predicate_sel`]); morsels concatenate in
/// order, which is the serial order. The serial filter is the one-morsel
/// case. A dense batch's morsels stay row ranges, so FOR envelopes and RLE
/// runs are decided whole at every thread count. `step` is the batch's
/// effective morsel size (already zone-map-aware and FOR-block-aligned by
/// the caller); `cuts` its storage discontinuities.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_filter_sel(
    cfg: &ExecConfig,
    predicate: &BoundExpr,
    schema: &Schema,
    cols: &[Option<ColRef<'_>>],
    sel: Option<&[u32]>,
    rows: usize,
    step: usize,
    cuts: &[usize],
) -> Result<Vec<u32>, EvalError> {
    let n = sel.map_or(rows, <[u32]>::len);
    let (step, cuts) = if cfg.parallel_for(n) { (step, cuts) } else { (n.max(1), &[][..]) };
    let ranges = morsel_ranges(n, step, cuts);
    let guard = cfg.guard();
    let pieces = run_tasks(cfg.threads, ranges.len(), |i| {
        let range = ranges[i].clone();
        let mut out = Vec::with_capacity(range.len());
        for lo in range.clone().step_by(GUARD_CHECK_ROWS) {
            if guard.poll() {
                // Tripped: abandon the morsel. The executor's next guard
                // check discards the truncated result and surfaces the cause.
                break;
            }
            let block = lo..(lo + GUARD_CHECK_ROWS).min(range.end);
            eval_predicate_sel(predicate, schema, &sub_view(cols, sel, rows, block), &mut out)?;
        }
        Ok(out)
    });
    // Morsel order is serial order: the earliest failing morsel's error wins.
    let mut pieces = pieces.into_iter().collect::<Result<Vec<_>, _>>()?;
    if pieces.len() == 1 {
        return Ok(pieces.pop().expect("one morsel"));
    }
    let mut out = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
    for p in pieces {
        out.extend_from_slice(&p);
    }
    Ok(out)
}

/// Parallel [`eval_batch`]: evaluates the expression per morsel and splices
/// the dense result columns back together in morsel order. Values are
/// identical to the serial evaluation. The storage representation is kept
/// where [`ColumnData::append`] can keep it — consumers dispatch on it
/// (dictionary and typed kernels in `eval.rs`, [`par_gather`], the
/// aggregation's group-id assignment), so a splice that demotes a column
/// costs them their fast path, never their result.
pub(crate) fn par_eval_batch(
    cfg: &ExecConfig,
    expr: &BoundExpr,
    schema: &Schema,
    cols: &[Option<ColRef<'_>>],
    sel: Option<&[u32]>,
    rows: usize,
) -> Result<ColumnData, EvalError> {
    let n = sel.map(|s| s.len()).unwrap_or(rows);
    if !cfg.parallel_for(n) {
        let view = BatchView { cols, rows: Rows::of(sel, rows) };
        return eval_batch(expr, schema, &view);
    }
    let ranges = morsel_ranges(n, cfg.morsel_rows, &[]);
    let guard = cfg.guard();
    let pieces = run_tasks(cfg.threads, ranges.len(), |i| {
        if guard.poll() {
            // Tripped: evaluate over zero rows — a cheap, type-correct
            // placeholder the caller discards at its next guard check.
            let view = BatchView { cols, rows: Rows::Sel(&[]) };
            return eval_batch(expr, schema, &view);
        }
        eval_batch(expr, schema, &sub_view(cols, sel, rows, ranges[i].clone()))
    });
    Ok(splice(pieces.into_iter().collect::<Result<_, _>>()?))
}

/// Parallel [`ColRef::gather_rows`]: gathers index morsels independently
/// and splices the typed pieces in order.
pub(crate) fn par_gather(cfg: &ExecConfig, col: ColRef<'_>, idxs: &[u32]) -> ColumnData {
    if !cfg.parallel_for(idxs.len()) {
        return col.gather_rows(idxs);
    }
    let ranges = morsel_ranges(idxs.len(), cfg.morsel_rows, &[]);
    let guard = cfg.guard();
    let pieces = run_tasks(cfg.threads, ranges.len(), |i| {
        if guard.poll() {
            return col.gather_rows(&[]);
        }
        col.gather_rows(&idxs[ranges[i].clone()])
    });
    splice(pieces)
}

/// Parallel row materialization from dense output columns (projection /
/// root fallback): each morsel builds its row slice, reassembled in order.
pub(crate) fn par_build_rows(
    cfg: &ExecConfig,
    out_cols: &[ColumnData],
    n: usize,
) -> Vec<super::Row> {
    let build = |range: Range<usize>| {
        let mut rows = Vec::with_capacity(range.len());
        for j in range {
            rows.push(out_cols.iter().map(|c| c.get(j)).collect());
        }
        rows
    };
    if !cfg.parallel_for(n) {
        return build(0..n);
    }
    let ranges = morsel_ranges(n, cfg.morsel_rows, &[]);
    let guard = cfg.guard();
    let pieces = run_tasks(cfg.threads, ranges.len(), |i| {
        if guard.poll() {
            return Vec::new();
        }
        build(ranges[i].clone())
    });
    let mut out = Vec::with_capacity(n);
    for p in pieces {
        out.extend(p);
    }
    out
}

// ---------------------------------------------------------------------------
// Hash-join probe
// ---------------------------------------------------------------------------

/// `(probe physical row, build physical row)` pairs, in join output order.
pub(crate) type JoinPairs = (Vec<u32>, Vec<u32>);

/// Runs a hash join's probe over dense positions `0..n`: `probe` appends
/// one range's pairs in position order, reading a build table all ranges
/// share. Ranges are [`each_block`]'s guard-polled blocks serially, else
/// guard-polled morsels on the pool, concatenated in order — same pairs.
pub(crate) fn par_probe<F>(cfg: &ExecConfig, n: usize, probe: F) -> JoinPairs
where
    F: Fn(Range<usize>, &mut JoinPairs) + Sync,
{
    let guard = cfg.guard();
    if !cfg.parallel_for(n) {
        let mut out = JoinPairs::default();
        each_block(n, guard, |range| probe(range, &mut out));
        return out;
    }
    let ranges = morsel_ranges(n, cfg.morsel_rows, &[]);
    let pieces = run_tasks(cfg.threads, ranges.len(), |i| {
        let n = ranges[i].len();
        let mut piece = (Vec::with_capacity(n), Vec::with_capacity(n));
        if !guard.poll() {
            probe(ranges[i].clone(), &mut piece);
        }
        piece
    });
    let total = pieces.iter().map(|(p, _)| p.len()).sum();
    let mut out = (Vec::with_capacity(total), Vec::with_capacity(total));
    for (p, b) in pieces {
        out.0.extend_from_slice(&p);
        out.1.extend_from_slice(&b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_range_and_respect_split() {
        let r = morsel_ranges(10, 4, &[]);
        assert_eq!(r, vec![0..4, 4..8, 8..10]);
        // A chunk boundary at 6 cuts the second morsel.
        let r = morsel_ranges(10, 4, &[6]);
        assert_eq!(r, vec![0..4, 4..6, 6..10]);
        // Multiple cuts (pruned-block gaps) all land on morsel boundaries.
        let r = morsel_ranges(10, 4, &[2, 6]);
        assert_eq!(r, vec![0..2, 2..6, 6..10]);
        // Degenerate cuts are ignored.
        assert_eq!(morsel_ranges(10, 4, &[0]), morsel_ranges(10, 4, &[]));
        assert_eq!(morsel_ranges(10, 4, &[10]), morsel_ranges(10, 4, &[]));
        assert!(morsel_ranges(0, 4, &[]).is_empty());
    }

    #[test]
    fn zone_aware_step_spreads_and_aligns() {
        // Plenty of rows: the configured step stands.
        assert_eq!(zone_aware_step(4096, 1_000_000, 8, None), 4096);
        // Few survivors: shrink so 4 workers each see ~4 morsels …
        assert_eq!(zone_aware_step(4096, 16_000, 4, None), 1000);
        // … but never below the overhead floor.
        assert_eq!(zone_aware_step(4096, 5_000, 8, None), MIN_MORSEL_ROWS);
        // FOR alignment rounds down to whole blocks, never to zero.
        assert_eq!(zone_aware_step(4096, 1_000_000, 8, Some(1024)), 4096);
        assert_eq!(zone_aware_step(3000, 1_000_000, 8, Some(1024)), 2048);
        assert_eq!(zone_aware_step(4096, 5_000, 8, Some(1024)), 1024);
        // Serial config: sizing is moot, step passes through (aligned).
        assert_eq!(zone_aware_step(4096, 100, 1, None), 4096);
    }

    #[test]
    fn run_tasks_returns_results_in_task_order() {
        for threads in [1, 2, 4] {
            let out = run_tasks(threads, 13, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// The morsel splice keeps a dictionary column's encoding (its consumers
    /// dispatch on it), and a dirty table's dict-base + plain-delta view
    /// still reads back every value.
    #[test]
    fn par_eval_batch_keeps_dictionary_encoding_across_morsels() {
        use crate::storage::col_store::ColumnTable;
        use qpe_sql::binder::ColumnRef;
        use qpe_sql::value::Value;
        let strings: Vec<Value> = (0..1000)
            .map(|i| Value::Str(["hot", "cold", "mild"][i % 3].to_string()))
            .collect();
        let mut table = ColumnTable::from_columns("t", std::slice::from_ref(&strings));
        let cfg = ExecConfig { threads: 2, morsel_rows: 64, ..ExecConfig::serial() };
        let schema = Schema::new(vec![(0, 0)]);
        let expr = BoundExpr::Column(ColumnRef {
            table_slot: 0,
            column_idx: 0,
            data_type: qpe_sql::catalog::DataType::Str,
        });
        let sel: Vec<u32> = (0..1000).rev().step_by(3).collect();
        for sel in [None, Some(sel.as_slice())] {
            let cols = [Some(table.column_ref(0))];
            let out = par_eval_batch(&cfg, &expr, &schema, &cols, sel, 1000).expect("evaluates");
            assert!(matches!(out, ColumnData::Dict(_)), "splice demoted the dictionary");
            let n = sel.map_or(1000, <[u32]>::len);
            for j in 0..n {
                assert_eq!(out.get(j), strings[sel.map_or(j, |s| s[j] as usize)]);
            }
        }
        table.insert(&[Value::Str("warm".into())]);
        let cols = [Some(table.column_ref(0))];
        assert!(cols[0].expect("live").as_single().is_none(), "dirty tables hand out chunked views");
        let out = par_eval_batch(&cfg, &expr, &schema, &cols, None, 1001).expect("evaluates");
        assert_eq!(out.len(), 1001);
        for (j, want) in strings.iter().enumerate() {
            assert_eq!(&out.get(j), want);
        }
        assert_eq!(out.get(1000), Value::Str("warm".into()));
    }

    #[test]
    fn config_parallel_gate() {
        let cfg = ExecConfig { threads: 4, morsel_rows: 100, ..ExecConfig::serial() };
        assert!(cfg.parallel_for(101));
        assert!(!cfg.parallel_for(100));
        assert!(!ExecConfig::serial().parallel_for(1_000_000));
    }
}
