//! Client-facing session layer: prepare once, execute many.
//!
//! A [`Session`] is one client's handle onto a shared [`HtapSystem`]
//! (`Arc`-shared — open as many sessions as you have clients/threads).
//! [`Session::prepare`] pays the SQL front end **once**: lex → parse → bind
//! (parameter placeholders `?`/`$n` become typed parameter nodes) → the
//! system's one planning function, which plans a read for both engines (a
//! write for TP) and records the design epoch of every table it touched.
//! The resulting [`CachedStatement`] lands in the system-wide LRU
//! [`PlanCache`], keyed by SQL fingerprint, so a second session preparing
//! the same statement gets a cache hit and shares the same `Arc`'d plans.
//!
//! A [`PreparedStatement`] executes through the system's one statement
//! site — the same one [`HtapSystem::run_sql`] and
//! [`HtapSystem::execute_statement`] reach with an unparameterized,
//! freshly planned statement. Per call it does only the per-call work:
//! validate and coerce the parameter values (the same widening rules
//! INSERT literals go through — mismatches surface as structured
//! [`HtapError::ParamTypeMismatch`] / [`HtapError::ParamCountMismatch`]
//! errors), inject them into a clone of the cached plans
//! ([`crate::plan::PlanNode::substitute_params`]) and execute on the route
//! the call names: the session's engine pin ([`Session::pin_engine`]) for
//! [`PreparedStatement::execute`], one engine for
//! [`PreparedStatement::execute_on`], both for
//! [`PreparedStatement::execute_dual_with`]. Because injection happens
//! *below* the planner but *above* the executors, the executed plan's
//! predicates, pushed scan conjunctions and index keys are exactly what
//! planning the literal-inlined SQL would have produced — zone map pruning
//! re-specializes per execution against the concrete values
//! ([`crate::storage::ScanPruner`] extracts conjuncts from the substituted
//! pushed predicate), so pruning quality, result rows and
//! [`crate::exec::WorkCounters`] are identical to the unprepared run
//! (`tests/prepared_props.rs` sweeps this).
//!
//! Reads execute through `&self` (a shared read lock), so concurrent
//! sessions run prepared SELECTs fully in parallel; prepared DML takes the
//! write lock internally, exactly like [`HtapSystem::execute_statement`].
//!
//! # Statement lifecycle governance
//!
//! Every statement a session executes runs under an
//! [`crate::exec::ExecGuard`] built from the system-default
//! [`StatementLimits`] — or per-call overrides via
//! [`Session::execute_sql_with`] / [`PreparedStatement::execute_with`] —
//! plus the session's shared **cancel flag**. [`Session::cancel_handle`]
//! returns a handle any thread can use to stop the session's in-flight
//! statement at its next block/morsel boundary; the statement returns
//! [`HtapError::Cancelled`]. The flag is cleared when the next statement
//! starts, so a cancel aimed at one statement never leaks into the next.
//!
//! The session boundary is also the **containment** boundary: statement
//! execution runs under `catch_unwind`, so an executor panic surfaces as a
//! structured [`HtapError::Internal`] instead of unwinding into the caller,
//! and the next statement on the session proceeds normally (a panic that
//! poisoned the database write lock additionally trips read-only degraded
//! mode — see [`HtapSystem::health`]).

use crate::engine::{EngineKind, HtapError, HtapSystem, StatementOutcome};
use crate::exec::{CancelHandle, ExecGuard, StatementLimits};
use crate::plan::PlanNode;
use crate::storage::durable_io::lock_unpoisoned;
use qpe_sql::binder::{coerce_param, BoundDml, BoundQuery};
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Snapshot of the shared plan cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Prepared lookups answered from the cache.
    pub hits: u64,
    /// Prepared lookups that had to run the full front end.
    pub misses: u64,
    /// Statements currently resident.
    pub entries: usize,
    /// Maximum resident statements before LRU eviction.
    pub capacity: usize,
    /// First-seen statements the doorkeeper kept out of a full cache
    /// (admitted only if prepared again while on probation).
    pub doorkeeper_deferrals: u64,
}

impl PlanCacheStats {
    /// Hits / (hits + misses); 0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default number of cached statements.
pub const PLAN_CACHE_CAPACITY: usize = 256;

struct CacheSlot {
    stmt: Arc<CachedStatement>,
    last_used: u64,
}

#[derive(Default)]
struct PlanCacheInner {
    map: HashMap<String, CacheSlot>,
    stamp: u64,
    /// Doorkeeper probation queue (FIFO, bounded to 2× capacity): the
    /// fingerprints of statements that missed while the cache was full.
    /// Only a *second* front-end run while on probation earns admission —
    /// a stream of ad-hoc one-shot statements therefore churns this queue
    /// instead of evicting the resident hot set.
    probation: VecDeque<String>,
}

/// System-wide LRU cache of prepared statements, shared by every session.
/// Lookups bump an access stamp; inserts beyond capacity evict the
/// least-recently-used entry — but only for statements that have earned
/// admission: once the cache is full, a first-seen statement goes on
/// doorkeeper probation rather than evicting a resident entry (see
/// `PlanCacheInner::probation`). Hit/miss counters are lock-free.
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    doorkeeper_deferrals: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache bounded to `capacity` statements (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            doorkeeper_deferrals: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        // Poison recovery is safe here: every cache mutation is a single
        // HashMap/VecDeque operation that cannot leave the structure torn
        // if a holder panics between operations.
        lock_unpoisoned(&self.inner)
    }

    /// Plain lookup with no validation (tests exercise the LRU/doorkeeper
    /// mechanics without design-epoch checks).
    #[cfg(test)]
    fn get(&self, fingerprint: &str) -> Option<Arc<CachedStatement>> {
        self.get_validated(fingerprint, |_| true)
    }

    /// Lookup with validate-on-hit: the resident entry is served only if
    /// `valid` approves it (the caller checks its recorded per-table design
    /// epochs against the live catalog). A stale entry is evicted and the
    /// lookup counted as a miss, so the hit-rate reflects plans actually
    /// served — never a plan built against a since-changed physical design.
    fn get_validated(
        &self,
        fingerprint: &str,
        valid: impl FnOnce(&CachedStatement) -> bool,
    ) -> Option<Arc<CachedStatement>> {
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        match inner.map.get_mut(fingerprint) {
            Some(slot) if valid(&slot.stmt) => {
                slot.last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.stmt))
            }
            Some(_) => {
                inner.map.remove(fingerprint);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, fingerprint: String, stmt: Arc<CachedStatement>) {
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&fingerprint) {
            // Doorkeeper admission: evicting a resident (proven-reused)
            // entry for a first-seen statement is only worth it if that
            // statement shows up again. First sighting goes on probation;
            // the second sighting pays the eviction.
            match inner.probation.iter().position(|p| p == &fingerprint) {
                None => {
                    if inner.probation.len() >= 2 * self.capacity {
                        inner.probation.pop_front();
                    }
                    inner.probation.push_back(fingerprint);
                    self.doorkeeper_deferrals.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some(i) => {
                    inner.probation.remove(i);
                }
            }
            // O(n) LRU eviction — n is the (small) cache capacity, and this
            // only runs on insert-at-capacity, never on the hit path.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(fingerprint, CacheSlot { stmt, last_used: stamp });
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().map.len(),
            capacity: self.capacity,
            doorkeeper_deferrals: self.doorkeeper_deferrals.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Cached statements
// ---------------------------------------------------------------------------

/// One fully-front-ended statement: the parameterized bound form plus its
/// physical plan(s). Shared via `Arc` between the plan cache and every
/// prepared handle; ad-hoc statements build one per call through the same
/// `HtapSystem::plan_statement`.
pub struct CachedStatement {
    /// The SQL the statement was bound from (for prepared statements, the
    /// fingerprint: trimmed, trailing `;` stripped).
    pub(crate) sql: String,
    /// Each referenced table's design epoch at plan time
    /// ([`crate::engine::Database::design_epoch`]). A cache hit is only
    /// served while every entry still matches, so a physical-design change
    /// (index build, zone/bloom/encoding reconfiguration) invalidates
    /// exactly the statements that touch the changed table.
    pub(crate) design_epochs: Vec<(String, u64)>,
    pub(crate) kind: CachedKind,
}

pub(crate) enum CachedKind {
    /// A read: both engines' parameterized plans. The bound query is
    /// `Arc`-shared into every execution's `QueryOutcome` — no per-call
    /// clone.
    Query {
        bound: Arc<BoundQuery>,
        tp: PlanNode,
        ap: PlanNode,
    },
    /// A write: the TP write plan.
    Dml { dml: BoundDml, plan: PlanNode },
}

impl CachedStatement {
    /// The prepared SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Per-parameter context-inferred types.
    pub fn param_types(&self) -> &[Option<DataType>] {
        match &self.kind {
            CachedKind::Query { bound, .. } => &bound.params,
            CachedKind::Dml { dml, .. } => dml.param_types(),
        }
    }

    /// True for `SELECT` statements.
    pub fn is_query(&self) -> bool {
        matches!(self.kind, CachedKind::Query { .. })
    }

    /// Validates count and coerces every value to its context-inferred type
    /// (the INSERT literal rules: NULL passes, Int widens to Float,
    /// everything else must match exactly).
    pub(crate) fn coerce(&self, params: &[Value]) -> Result<Vec<Value>, HtapError> {
        let tys = self.param_types();
        if params.len() != tys.len() {
            return Err(HtapError::ParamCountMismatch {
                expected: tys.len(),
                got: params.len(),
            });
        }
        params
            .iter()
            .zip(tys)
            .enumerate()
            .map(|(idx, (v, ty))| {
                coerce_param(v.clone(), *ty)
                    .map_err(|(expected, got)| HtapError::ParamTypeMismatch { idx, expected, got })
            })
            .collect()
    }
}

impl HtapSystem {
    /// Runs the full front end for `sql` — or returns the cached result.
    /// This is the "parse once" half of the prepared-statement contract;
    /// [`PreparedStatement::execute`] is the "execute many" half.
    pub(crate) fn prepare_cached(&self, sql: &str) -> Result<Arc<CachedStatement>, HtapError> {
        let fingerprint = sql.trim().trim_end_matches(';');
        {
            // Validate-on-hit: a resident plan is only served while every
            // table it was planned against still has the design epoch it
            // was planned at. The brief read guard is taken before the
            // cache lock; nothing acquires them in the other order.
            let db = self.database();
            let hit = self.plan_cache().get_validated(fingerprint, |stmt| {
                stmt.design_epochs
                    .iter()
                    .all(|(table, epoch)| db.design_epoch(table) == Some(*epoch))
            });
            if let Some(hit) = hit {
                return Ok(hit);
            }
        }
        let stmt = Arc::new(self.plan_statement(fingerprint)?);
        self.plan_cache()
            .insert(fingerprint.to_string(), Arc::clone(&stmt));
        Ok(stmt)
    }
}

// ---------------------------------------------------------------------------
// Sessions and prepared statements
// ---------------------------------------------------------------------------

/// One client's handle onto a shared [`HtapSystem`]. Sessions are cheap
/// (an `Arc` clone) and independent — every thread gets its own.
pub struct Session {
    system: Arc<HtapSystem>,
    /// Shared cancel flag: raised by [`CancelHandle`]s from any thread,
    /// cleared when the next statement starts. Prepared statements from
    /// this session share it.
    cancel: Arc<AtomicBool>,
    /// Session-level engine pin (see [`Session::pin_engine`]): `None` runs
    /// reads on both engines, `Some` on one. Shared with prepared
    /// statements like the cancel flag, so re-pinning a session re-routes
    /// statements it already prepared.
    pin: Arc<Mutex<Option<EngineKind>>>,
}

impl Session {
    /// Opens a session over a shared system.
    pub fn new(system: Arc<HtapSystem>) -> Self {
        Session {
            system,
            cancel: Arc::new(AtomicBool::new(false)),
            pin: Arc::new(Mutex::new(None)),
        }
    }

    /// Pins this session's reads to one engine (`None` restores dual-run).
    /// While pinned, every `SELECT` the session (or its prepared statements)
    /// executes runs on that engine **only** — the other engine's plan is
    /// never executed, so a pure-OLTP client stops paying the analytical
    /// run. Writes are unaffected (DML is TP-only on every path). Pinned
    /// results are byte-identical to the same engine's side of a dual run.
    pub fn pin_engine(&self, engine: Option<EngineKind>) {
        *lock_unpoisoned(&self.pin) = engine;
    }

    /// The current engine pin (`None` = dual-run).
    pub fn engine_pin(&self) -> Option<EngineKind> {
        *lock_unpoisoned(&self.pin)
    }

    /// The underlying system.
    pub fn system(&self) -> &Arc<HtapSystem> {
        &self.system
    }

    /// A handle that cancels this session's in-flight statement from any
    /// other thread. The statement observes the flag at its next
    /// block/morsel boundary and returns [`HtapError::Cancelled`]; starting
    /// the next statement clears the flag.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle::from_flag(Arc::clone(&self.cancel))
    }

    /// Prepares a statement: full front end on cache miss, `Arc` clone on
    /// hit. Placeholders (`?` positional, `$n` numbered) may appear anywhere
    /// a literal may in comparisons, `BETWEEN` bounds, `SET` assignments and
    /// `VALUES` rows.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, HtapError> {
        let stmt = self.system.prepare_cached(sql)?;
        Ok(PreparedStatement {
            system: Arc::clone(&self.system),
            cancel: Arc::clone(&self.cancel),
            pin: Arc::clone(&self.pin),
            stmt,
        })
    }

    /// One-shot convenience: prepare (through the shared cache) and execute
    /// with no parameters under the system-default limits. Repeated calls
    /// with identical SQL skip the front end after the first.
    pub fn execute_sql(&self, sql: &str) -> Result<StatementOutcome, HtapError> {
        self.execute_sql_with(sql, self.system.statement_limits())
    }

    /// [`Session::execute_sql`] with explicit per-statement limits (timeout,
    /// memory budget) overriding the system defaults for this call only.
    pub fn execute_sql_with(
        &self,
        sql: &str,
        limits: &StatementLimits,
    ) -> Result<StatementOutcome, HtapError> {
        self.prepare(sql)?.execute_with(&[], limits, self.engine_pin())
    }
}

/// Runs `f`, containing any panic as a structured [`HtapError::Internal`].
/// This is the session-boundary firewall: an executor bug (or an injected
/// panic) stops the statement, not the process, and the session stays
/// usable. `AssertUnwindSafe` is sound here because the engine repairs its
/// own shared state on the next access — poisoned locks are recovered (and
/// a writer panic trips read-only degraded mode), and all read state is
/// committed copy-on-write.
fn contain<T>(f: impl FnOnce() -> Result<T, HtapError>) -> Result<T, HtapError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        // `&*payload`, not `&payload`: the latter would unsize the `Box`
        // itself into the `dyn Any` and every downcast would miss.
        Err(payload) => Err(HtapError::Internal(panic_message(&*payload))),
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// A prepared statement bound to the session's system: execute it any number
/// of times with varying parameter values. Cloning is cheap (two `Arc`s) and
/// handles stay valid across cache eviction.
#[derive(Clone)]
pub struct PreparedStatement {
    system: Arc<HtapSystem>,
    /// The owning session's cancel flag (shared — cancelling the session
    /// cancels whichever of its statements is in flight).
    cancel: Arc<AtomicBool>,
    /// The owning session's engine pin (shared — re-pinning the session
    /// re-routes statements prepared earlier).
    pin: Arc<Mutex<Option<EngineKind>>>,
    stmt: Arc<CachedStatement>,
}

impl PreparedStatement {
    /// The prepared SQL text.
    pub fn sql(&self) -> &str {
        self.stmt.sql()
    }

    /// True for `SELECT` statements.
    pub fn is_query(&self) -> bool {
        self.stmt.is_query()
    }

    /// A handle that cancels an in-flight execution of this statement (or
    /// any other statement of the owning session) from another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle::from_flag(Arc::clone(&self.cancel))
    }

    /// Number of parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.stmt.param_types().len()
    }

    /// Per-parameter context-inferred types (`None` = unconstrained).
    pub fn param_types(&self) -> &[Option<DataType>] {
        self.stmt.param_types()
    }

    /// Executes with the given parameter values: validate + coerce, inject
    /// into the cached plans, run. No re-lex, re-parse, re-bind or re-plan.
    /// Governed by the system-default [`StatementLimits`] and routed by the
    /// owning session's engine pin ([`Session::pin_engine`]).
    pub fn execute(&self, params: &[Value]) -> Result<StatementOutcome, HtapError> {
        let route = *lock_unpoisoned(&self.pin);
        self.execute_with(params, self.system.statement_limits(), route)
    }

    /// Executes this statement's read on **one** engine only (no dual-run,
    /// no agreement check), regardless of the session pin. DML executes
    /// normally (writes are TP-only on every path). Governed by the
    /// system-default [`StatementLimits`].
    pub fn execute_on(
        &self,
        engine: EngineKind,
        params: &[Value],
    ) -> Result<StatementOutcome, HtapError> {
        self.execute_with(params, self.system.statement_limits(), Some(engine))
    }

    /// Executes with an explicit dual-run (both engines + agreement check),
    /// overriding any session engine pin for this call only.
    pub fn execute_dual_with(
        &self,
        params: &[Value],
        limits: &StatementLimits,
    ) -> Result<StatementOutcome, HtapError> {
        self.execute_with(params, limits, None)
    }

    /// Executes with explicit per-call limits on `route`: one engine, or
    /// both (`None`, agreement-checked). The whole execution runs under one
    /// [`ExecGuard`] (cancel flag, deadline and memory budget) and inside
    /// the session's panic-containment boundary.
    pub fn execute_with(
        &self,
        params: &[Value],
        limits: &StatementLimits,
        route: Option<EngineKind>,
    ) -> Result<StatementOutcome, HtapError> {
        // Starting a statement lowers any stale cancel from a previous one.
        self.cancel.store(false, Ordering::SeqCst);
        let guard = ExecGuard::with_cancel(limits, Arc::clone(&self.cancel));
        contain(|| self.system.run(&self.stmt, params, route, &guard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::tpch::TpchConfig;

    fn shared_system() -> Arc<HtapSystem> {
        Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002)))
    }

    #[test]
    fn prepare_once_execute_many_matches_inlined() {
        let sys = shared_system();
        let session = Session::new(Arc::clone(&sys));
        let stmt = session
            .prepare("SELECT c_name FROM customer WHERE c_custkey = ?")
            .unwrap();
        assert_eq!(stmt.param_count(), 1);
        for key in [1i64, 42, 137, 299] {
            let prepared = stmt.execute(&[Value::Int(key)]).unwrap();
            let prepared = prepared.as_query().unwrap();
            let inlined = sys
                .run_sql(&format!("SELECT c_name FROM customer WHERE c_custkey = {key}"))
                .unwrap();
            assert_eq!(prepared.tp.rows, inlined.tp.rows);
            assert_eq!(prepared.ap.rows, inlined.ap.rows);
            assert_eq!(prepared.tp.counters, inlined.tp.counters);
            assert_eq!(prepared.ap.counters, inlined.ap.counters);
            assert_eq!(prepared.tp.latency_ns, inlined.tp.latency_ns);
            assert_eq!(prepared.ap.latency_ns, inlined.ap.latency_ns);
        }
    }

    #[test]
    fn prepared_point_lookup_uses_the_index() {
        let sys = shared_system();
        let session = Session::new(Arc::clone(&sys));
        let stmt = session
            .prepare("SELECT c_name FROM customer WHERE c_custkey = ?")
            .unwrap();
        let out = stmt.execute(&[Value::Int(7)]).unwrap();
        let q = out.as_query().unwrap();
        assert_eq!(q.tp.plan.count_type(crate::plan::NodeType::IndexScan), 1);
        assert_eq!(q.run(EngineKind::Tp).rows.len(), 1);
    }

    #[test]
    fn plan_cache_hits_across_sessions() {
        let sys = shared_system();
        let s1 = Session::new(Arc::clone(&sys));
        let s2 = Session::new(Arc::clone(&sys));
        let sql = "SELECT COUNT(*) FROM customer WHERE c_mktsegment = ?";
        let before = sys.plan_cache_stats();
        s1.prepare(sql).unwrap();
        s2.prepare(sql).unwrap();
        let after = sys.plan_cache_stats();
        assert_eq!(after.misses, before.misses + 1, "one front-end run");
        assert_eq!(after.hits, before.hits + 1, "second session hits");
        assert!(after.entries >= 1);
        assert!(after.hit_rate() > 0.0);
    }

    fn mk_stmt(sql: &str) -> Arc<CachedStatement> {
        Arc::new(CachedStatement {
            sql: sql.to_string(),
            design_epochs: vec![],
            kind: CachedKind::Dml {
                dml: BoundDml::Insert(qpe_sql::binder::BoundInsert {
                    table: "t".into(),
                    rows: vec![],
                    param_slots: vec![],
                    params: vec![],
                }),
                plan: PlanNode::new(
                    crate::plan::NodeType::Insert,
                    crate::plan::PlanOp::Insert { table: "t".into(), rows: 0 },
                ),
            },
        })
    }

    #[test]
    fn plan_cache_evicts_lru_among_admitted_entries() {
        let cache = PlanCache::with_capacity(2);
        cache.insert("a".into(), mk_stmt("a"));
        cache.insert("b".into(), mk_stmt("b"));
        assert!(cache.get("a").is_some()); // a is now fresher than b
        // First sighting of c at capacity: doorkeeper defers it.
        cache.insert("c".into(), mk_stmt("c"));
        assert!(cache.get("c").is_none());
        assert!(cache.get("b").is_some(), "resident entry survives a one-shot");
        assert_eq!(cache.stats().doorkeeper_deferrals, 1);
        // Second sighting: admitted, evicting the LRU entry (a).
        cache.insert("c".into(), mk_stmt("c"));
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().capacity, 2);
    }

    #[test]
    fn doorkeeper_preserves_hot_set_hit_rate_under_one_shot_flood() {
        // Hot set exactly fills the cache; a long stream of distinct
        // ad-hoc statements then floods it, interleaved with hot
        // lookups. Without the doorkeeper every flood statement would
        // evict a hot entry (each interleaved hot lookup would miss);
        // with it the hot set stays resident and keeps hitting.
        let cache = PlanCache::with_capacity(4);
        let hot: Vec<String> = (0..4).map(|i| format!("hot{i}")).collect();
        for h in &hot {
            cache.insert(h.clone(), mk_stmt(h));
        }
        for round in 0..50 {
            let ad_hoc = format!("adhoc{round}");
            assert!(cache.get(&ad_hoc).is_none());
            cache.insert(ad_hoc.clone(), mk_stmt(&ad_hoc));
            for h in &hot {
                assert!(cache.get(h).is_some(), "hot statement evicted by one-shot flood");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.doorkeeper_deferrals, 50);
        // 4 hot lookups per round all hit; only the ad-hoc probes miss.
        assert_eq!(stats.hits, 200);
        assert_eq!(stats.misses, 50);
        assert!(stats.hit_rate() > 0.79, "hit rate {}", stats.hit_rate());
        // Probation is bounded: a flood can't grow it past 2x capacity.
        assert!(cache.lock().probation.len() <= 8);
    }

    #[test]
    fn design_change_invalidates_only_affected_cached_plans() {
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
        let cust = "SELECT COUNT(*) FROM customer WHERE c_acctbal < 0.0";
        let nation = "SELECT COUNT(*) FROM nation";
        sys.prepare_cached(cust).unwrap(); // miss: front end runs
        sys.prepare_cached(nation).unwrap(); // miss
        // Physical-design change on customer only. This no longer clears
        // the cache — invalidation is per-table via design epochs.
        assert!(sys.database_mut().set_bloom_filters("customer", true));
        let before = sys.plan_cache_stats();

        // The untouched table's plan is still served from cache.
        sys.prepare_cached(nation).unwrap();
        let mid = sys.plan_cache_stats();
        assert_eq!(mid.hits, before.hits + 1, "nation plan must survive");
        assert_eq!(mid.misses, before.misses);

        // The changed table's plan is stale: evicted, re-front-ended.
        sys.prepare_cached(cust).unwrap();
        let after = sys.plan_cache_stats();
        assert_eq!(after.hits, mid.hits, "stale plan must not be served");
        assert_eq!(after.misses, mid.misses + 1);

        // The re-planned entry hits again at the new epoch.
        sys.prepare_cached(cust).unwrap();
        let last = sys.plan_cache_stats();
        assert_eq!(last.hits, after.hits + 1);
        assert_eq!(last.misses, after.misses);
        // 2 hits / 5 lookups: only the initial misses and the one
        // genuinely-stale entry paid the front end.
        assert!(last.hit_rate() >= 0.4, "hit rate {}", last.hit_rate());
    }

    #[test]
    fn param_count_mismatch_is_structured() {
        let session = Session::new(shared_system());
        let stmt = session
            .prepare("SELECT * FROM customer WHERE c_custkey = ?")
            .unwrap();
        match stmt.execute(&[]) {
            Err(HtapError::ParamCountMismatch { expected: 1, got: 0 }) => {}
            other => panic!("expected ParamCountMismatch, got {other:?}"),
        }
        match stmt.execute(&[Value::Int(1), Value::Int(2)]) {
            Err(HtapError::ParamCountMismatch { expected: 1, got: 2 }) => {}
            other => panic!("expected ParamCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn param_type_mismatch_is_structured() {
        let session = Session::new(shared_system());
        let stmt = session
            .prepare("SELECT * FROM customer WHERE c_custkey = ?")
            .unwrap();
        match stmt.execute(&[Value::Str("not a key".into())]) {
            Err(HtapError::ParamTypeMismatch { idx: 0, expected: DataType::Int, got }) => {
                assert_eq!(got, Value::Str("not a key".into()));
            }
            other => panic!("expected ParamTypeMismatch, got {other:?}"),
        }
        // Int widens into Float parameters, as for INSERT literals.
        let stmt = session
            .prepare("SELECT COUNT(*) FROM customer WHERE c_acctbal < ?")
            .unwrap();
        assert!(stmt.execute(&[Value::Int(500)]).is_ok());
    }

    #[test]
    fn prepared_dml_round_trip() {
        let sys = shared_system();
        let session = Session::new(Arc::clone(&sys));
        let insert = session
            .prepare(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES (?, ?, ?, ?, ?, ?)",
            )
            .unwrap();
        for i in 0..3i64 {
            let out = insert
                .execute(&[
                    Value::Int(910_000 + i),
                    Value::Str(format!("prepared#{i}")),
                    Value::Int(i % 25),
                    Value::Str("20-000-000-0000".into()),
                    Value::Int(100 + i), // Int → Float widening
                    Value::Str("machinery".into()),
                ])
                .unwrap();
            assert_eq!(out.as_dml().unwrap().result.rows_affected, 1);
        }
        let lookup = session
            .prepare("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = ?")
            .unwrap();
        let q = lookup.execute(&[Value::Int(910_001)]).unwrap();
        let rows = &q.as_query().unwrap().tp.rows;
        assert_eq!(rows[0][0], Value::Str("prepared#1".into()));
        assert_eq!(rows[0][1], Value::Float(101.0));

        let update = session
            .prepare("UPDATE customer SET c_acctbal = ? WHERE c_custkey = ?")
            .unwrap();
        update
            .execute(&[Value::Float(7.5), Value::Int(910_002)])
            .unwrap();
        let q = lookup.execute(&[Value::Int(910_002)]).unwrap();
        assert_eq!(q.as_query().unwrap().tp.rows[0][1], Value::Float(7.5));

        let delete = session
            .prepare("DELETE FROM customer WHERE c_custkey = ?")
            .unwrap();
        for i in 0..3i64 {
            let out = delete.execute(&[Value::Int(910_000 + i)]).unwrap();
            assert_eq!(out.as_dml().unwrap().result.rows_affected, 1);
        }
        let q = lookup.execute(&[Value::Int(910_000)]).unwrap();
        assert!(q.as_query().unwrap().tp.rows.is_empty());
    }

    #[test]
    fn duplicate_pk_through_prepared_insert_errors() {
        let session = Session::new(shared_system());
        let insert = session
            .prepare("INSERT INTO customer (c_custkey, c_name) VALUES (?, ?)")
            .unwrap();
        assert!(matches!(
            insert.execute(&[Value::Int(1), Value::Str("dup".into())]),
            Err(HtapError::Exec(_))
        ));
        // NULL primary key through a parameter is also rejected.
        assert!(matches!(
            insert.execute(&[Value::Null, Value::Str("nokey".into())]),
            Err(HtapError::Exec(_))
        ));
    }

    #[test]
    fn session_execute_sql_is_cached_convenience() {
        let sys = shared_system();
        let session = Session::new(Arc::clone(&sys));
        let sql = "SELECT COUNT(*) FROM nation";
        let a = session.execute_sql(sql).unwrap();
        let b = session.execute_sql(sql).unwrap();
        assert_eq!(
            a.as_query().unwrap().tp.rows,
            b.as_query().unwrap().tp.rows
        );
        let stats = sys.plan_cache_stats();
        assert!(stats.hits >= 1, "second call must hit: {stats:?}");
    }
}
