//! Morsel-driven parallel execution for the AP batch executor.
//!
//! The vectorized executor's kernels (filter selections, hash-join pair finding,
//! gathers, expression evaluation) all iterate a dense range of
//! selected rows. This module splits that range into fixed-size
//! **morsels** and runs them on one process-wide pool of parked worker
//! threads, with every parallel strategy chosen so the output is
//! **bit-identical** to the serial batch executor (and therefore to the row
//! interpreter):
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
//!   morsel-parallel.
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
//!
//! Scheduling follows Leis et al., "Morsel-Driven Parallelism" (SIGMOD
//! 2014). Every kernel hands its morsels to `run_tasks`: the calling thread
//! takes tasks from a shared counter itself, and a call at `threads = t`
//! wakes `t − 1` parked workers to take them too, so a call costs a
//! condvar wake-up, not a thread start. The workers start lazily and live
//! as long as the process. One call owns the pool at a time; a call that
//! finds it busy (another connection's statement, or a task that fans out
//! again) runs its tasks on its own thread, with the same results.

use super::guard::ExecGuard;
use super::typed::each_block;
use super::GUARD_CHECK_ROWS;
use crate::eval::{eval_batch, eval_predicate_sel, BatchView, EvalError, Rows, Schema};
use crate::storage::col_store::{ColRef, ColumnData};
use qpe_sql::binder::BoundExpr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Rows per morsel when nothing overrides it.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Smallest morsel [`zone_aware_step`] will shrink to: below this, the
/// fixed cost of a morsel — its own output buffer, its splice into the
/// result, a block kernel's setup — outweighs the extra fan-out. (Claiming
/// a task is one atomic increment; no thread starts per morsel or call.)
pub(crate) const MIN_MORSEL_ROWS: usize = 512;

/// Morsels per worker [`zone_aware_step`] aims for — enough slack that the
/// work-stealing counter can rebalance when morsel costs are skewed.
const MORSELS_PER_WORKER: usize = 4;

/// Zone-map-aware morsel sizing. The configured step is sized for raw
/// full-table scans; a selective zone-pruned scan can leave so few
/// surviving rows that fixed-size chunks collapse into one or two morsels
/// and idle most workers. Shrink the step until the *surviving* row count
/// `n` spreads to [`MORSELS_PER_WORKER`] morsels per worker (floored at
/// [`MIN_MORSEL_ROWS`] to amortize per-morsel costs), then align it down
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
/// kernel whose input exceeds one morsel fans out: the calling thread and
/// up to `threads − 1` parked workers of the process-wide pool take its
/// morsels (a call that finds the pool busy runs them on its own thread).
/// Results are deterministic either way (see the module docs).
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

    /// Reads `QPE_AP_THREADS` / `QPE_MORSEL_ROWS` from the environment,
    /// defaulting to the machine's available cores and
    /// [`DEFAULT_MORSEL_ROWS`].
    pub fn from_env() -> Self {
        let threads = std::env::var("QPE_AP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
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
// Morsel splitting and the persistent worker pool
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

/// Runs `n_tasks` closures on the calling thread plus up to `threads − 1`
/// workers of the process-wide [`Pool`], and returns the results **in task
/// order** regardless of completion order. Every participant pulls task
/// indices from one shared atomic counter, so long tasks don't serialize
/// behind a static assignment. When the pool is already serving another
/// call — another connection's statement, or a task of this very call that
/// fans out again — this call runs its tasks on its own thread: same
/// results, no waiting. A task's panic reaches the caller with its own
/// payload, after every worker has left the call.
pub(crate) fn run_tasks<T, F>(threads: usize, n_tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let helpers = threads.min(n_tasks).saturating_sub(1);
    if helpers == 0 {
        return (0..n_tasks).map(f).collect();
    }
    POOL.run(helpers, n_tasks, &f)
        .unwrap_or_else(|| (0..n_tasks).map(f).collect())
}

/// The process-wide pool behind [`run_tasks`].
static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    state: Mutex::new(PoolState { job: None, wanted: 0, active: 0, started: 0 }),
    wake: Condvar::new(),
    left: Condvar::new(),
};

/// A job as parked workers see it: a call's share-taking loop, which
/// contains its own panics. The `'static` is a lie [`Pool::broadcast`]
/// keeps true (see the `SAFETY` note there).
type Job = &'static (dyn Fn() + Sync);

/// Parked worker threads on the morsel-driven model (Leis et al.,
/// "Morsel-Driven Parallelism", SIGMOD 2014): one call at a time publishes
/// its job, the caller takes tasks itself, and woken workers join it
/// until the task counter runs dry. Workers start lazily — as many as the
/// largest `threads − 1` any call asked for — sleep on a condvar between
/// calls, never spin, and live as long as the process.
struct Pool {
    /// Set while one call owns the pool; a second caller runs serially.
    busy: AtomicBool,
    state: Mutex<PoolState>,
    /// Workers park here for a job.
    wake: Condvar,
    /// The owning caller waits here for workers to leave its job.
    left: Condvar,
}

struct PoolState {
    /// The published job; `None` once its caller has withdrawn it.
    job: Option<Job>,
    /// How many more workers may join the published job.
    wanted: usize,
    /// Workers inside the published job right now.
    active: usize,
    /// Workers started so far.
    started: usize,
}

impl Pool {
    /// Runs tasks `0..n_tasks` of `f` on the calling thread and up to
    /// `helpers` workers; `None` (nothing run) when another call owns the
    /// pool. Results come back in task order; a task's panic is resumed
    /// here with its own payload once no worker is left in the job.
    fn run<T, F>(&'static self, helpers: usize, n_tasks: usize, f: &F) -> Option<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(n_tasks));
        let panic = Mutex::new(None);
        let share = || {
            let mut mine = Vec::new();
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                mine.push((i, f(i)));
            }));
            match ran {
                Ok(()) => lock(&done).append(&mut mine),
                Err(payload) => {
                    // Stop handing out tasks; the first payload wins.
                    next.store(n_tasks, Ordering::Relaxed);
                    lock(&panic).get_or_insert(payload);
                }
            }
        };
        if !self.broadcast(helpers, &share) {
            return None;
        }
        if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            std::panic::resume_unwind(payload);
        }
        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        debug_assert_eq!(done.len(), n_tasks, "every task ran once");
        done.sort_unstable_by_key(|&(i, _)| i);
        Some(done.into_iter().map(|(_, t)| t).collect())
    }

    /// Claims the pool and runs `job` on the calling thread while up to
    /// `helpers` workers run it too; returns only once the job is
    /// withdrawn and every worker that took it has left it — the join
    /// barrier of [`std::thread::scope`], without a thread start per call.
    /// `false` (and `job` not run) when another call owns the pool.
    fn broadcast(&'static self, helpers: usize, job: &(dyn Fn() + Sync)) -> bool {
        if self.busy.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return false;
        }
        // SAFETY: the erased borrow is stored only in `state.job`, and a
        // worker copies it out only under the lock while counting itself
        // into `active`. `Withdraw`'s drop — reached on return and on any
        // unwind alike — clears `state.job` and then blocks until `active`
        // is zero, so no worker holds the reference once this function
        // has left, and `job`'s borrow outlives every use of it.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        let _withdraw = Withdraw(self);
        let wanted = {
            let mut st = lock(&self.state);
            while st.started < helpers {
                let spawned = std::thread::Builder::new()
                    .name("qpe-morsel".into())
                    .spawn(move || self.work());
                if spawned.is_err() {
                    // Run with the workers there are; none is fine too.
                    break;
                }
                st.started += 1;
            }
            st.job = Some(erased);
            st.wanted = helpers.min(st.started);
            st.wanted
        };
        for _ in 0..wanted {
            self.wake.notify_one();
        }
        job();
        true
    }

    /// A worker's life: park until a job wants a hand, run it, repeat.
    fn work(&self) {
        let mut st = lock(&self.state);
        loop {
            match st.job {
                Some(job) if st.wanted > 0 => {
                    st.wanted -= 1;
                    st.active += 1;
                    drop(st);
                    job();
                    st = lock(&self.state);
                    st.active -= 1;
                    if st.active == 0 {
                        self.left.notify_one();
                    }
                }
                _ => st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// Ends a call's ownership of the pool on drop: withdraws its job, waits
/// for the job's workers to leave, then frees the pool for the next call.
struct Withdraw(&'static Pool);

impl Drop for Withdraw {
    fn drop(&mut self) {
        let pool = self.0;
        let mut st = lock(&pool.state);
        st.job = None;
        st.wanted = 0;
        while st.active > 0 {
            st = pool.left.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        pool.busy.store(false, Ordering::Release);
    }
}

/// Locks `m`, recovering it if poisoned: no code panics while holding
/// the pool's locks (tasks run outside them), and every update under
/// them is a single assignment, so the data is whole either way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Retries `attempt` until it owns the pool (`Some`): other tests in
    /// this process share the pool, and a call that finds it busy runs
    /// serially instead.
    fn owning_the_pool<T>(attempt: impl Fn() -> Option<T>) -> T {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if let Some(out) = attempt() {
                return out;
            }
            assert!(std::time::Instant::now() < deadline, "the pool stayed busy for a minute");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Two tasks that each wait (up to 5 s) until both have started, then
    /// report whether they met: only two threads at once can meet.
    fn meet_then<T>(last: impl Fn(usize, bool) -> T + Sync) -> impl Fn(usize) -> T + Sync {
        let arrived = AtomicUsize::new(0);
        move |i| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while arrived.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            last(i, arrived.load(Ordering::SeqCst) >= 2)
        }
    }

    #[test]
    fn pool_hands_a_task_panic_to_the_caller() {
        for threads in [2, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_tasks(threads, 8, |i| if i == 5 { panic!("task {i} failed") } else { i })
            });
            let payload = caught.expect_err("the task's panic propagates");
            assert_eq!(crate::session::panic_message(&*payload), "task 5 failed");
            for threads in [1, 2, 4] {
                assert_eq!(run_tasks(threads, 13, |i| i * i), (0..13).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    /// A worker that panicked inside a job is back in the pool, and the
    /// pool's locks still fan a later call out to it.
    #[test]
    fn pool_still_fans_out_after_a_panic() {
        let payload = owning_the_pool(|| {
            let both_panic = meet_then(|i, _| -> usize { panic!("task {i} failed") });
            match std::panic::catch_unwind(|| POOL.run(1, 2, &both_panic)) {
                Ok(None) => None,
                Ok(Some(_)) => panic!("every task panics"),
                Err(payload) => Some(payload),
            }
        });
        let message = crate::session::panic_message(&*payload);
        assert!(["task 0 failed", "task 1 failed"].contains(&message.as_str()), "{message}");
        let met = owning_the_pool(|| POOL.run(1, 2, &meet_then(|_, met| met)));
        assert_eq!(met, [true, true], "a parked worker took the second task");
    }

    /// Four callers contend for the pool, and one task of each call fans
    /// out again: every call returns its results in task order, whether it
    /// owned the pool or ran serially, and none waits on another.
    #[test]
    fn pool_serves_concurrent_and_nested_callers_in_task_order() {
        let nested = |threads: usize, i: usize| -> usize {
            if i == 3 {
                run_tasks(threads, 5, |j| 10 * i + j).into_iter().sum()
            } else {
                i * i
            }
        };
        let want: Vec<usize> = (0..9).map(|i| nested(1, i)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        for threads in [2, 4] {
                            assert_eq!(run_tasks(threads, 9, |i| nested(threads, i)), want);
                        }
                    }
                });
            }
        });
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
