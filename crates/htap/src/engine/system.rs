//! [`HtapSystem`] and its statement path: one planning function, one
//! execution site, one read and one write.

use super::database::plan_on;
use super::durability::{CompactorHandle, DurabilityCtx, RecoveryReport};
use super::health::HealthState;
use super::{
    check_results_match, Database, DmlOutcome, EngineKind, EngineRun, HtapError,
    PinnedQueryOutcome, QueryOutcome, Snapshot, StatementOutcome,
};
use crate::exec::{self, ExecConfig, ExecGuard, StatementLimits};
use crate::latency::LatencyModel;
use crate::opt::tp;
use crate::plan::PlanNode;
use crate::session::{CachedKind, CachedStatement, PlanCache, PlanCacheStats};
use crate::storage::TableFreshness;
use crate::tpch::TpchConfig;
use qpe_sql::binder::{substitute_params, Binder, BoundDml, BoundExpr, BoundQuery, BoundStatement};
use qpe_sql::value::Value;
use qpe_sql::SqlError;
use std::sync::{Arc, RwLock};

/// The HTAP system: database + latency model + per-engine pipelines.
///
/// The **query path is `&self`**: binding, planning and execution of reads
/// only ever take a shared (read) lock on the database, so any number of
/// sessions/threads can execute SELECTs concurrently over one
/// `Arc<HtapSystem>`. Writes (`INSERT`/`UPDATE`/`DELETE`, `compact`) take
/// the write lock internally — interior mutability confined to the one
/// place the data actually changes. The shared [`PlanCache`] serves
/// prepared statements ([`crate::session::Session::prepare`]) across all
/// sessions.
///
/// # Durability
///
/// [`HtapSystem::new`] builds an in-memory system (nothing survives drop).
/// [`HtapSystem::open`] / [`HtapSystem::open_with`] attach a data
/// directory: every committed DML statement is WAL-logged before its
/// outcome is returned, [`HtapSystem::checkpoint`] publishes sealed column
/// segments plus a manifest and truncates the log, and reopening the
/// directory recovers byte-identical state (segments + WAL replay). See
/// the [`crate::storage`] module docs for the full lifecycle.
pub struct HtapSystem {
    pub(super) db: Arc<RwLock<Database>>,
    /// Present iff the system was opened against a data directory.
    pub(super) durability: Option<Arc<DurabilityCtx>>,
    /// Background compactor thread, when enabled in [`DurabilityOptions`].
    pub(super) compactor: Option<CompactorHandle>,
    /// Startup report from [`HtapSystem::open_with`].
    pub(super) recovery: Option<RecoveryReport>,
    latency: LatencyModel,
    /// Parallelism knob for the AP batch executor (threads + morsel size).
    /// Defaults to the machine's available cores (`QPE_AP_THREADS` /
    /// `QPE_MORSEL_ROWS` override); `threads == 1` is the exact serial
    /// executor. Rows and counters are bit-identical at any setting, and the
    /// latency model prices AP work serially, so only wall-clock depends on
    /// it: simulated latencies, winner labels, router training data and
    /// explanations never vary with the thread count.
    exec_cfg: ExecConfig,
    /// Shared prepared-statement cache: parameterized bound statements and
    /// their physical plans, keyed by SQL fingerprint, LRU-evicted, with
    /// hit/miss stats.
    plan_cache: PlanCache,
    /// Degraded-mode latch + fault counters, shared with the compactor.
    pub(super) health: Arc<HealthState>,
    /// Default [`StatementLimits`] applied to every statement that does not
    /// carry explicit per-call limits. Unlimited by default.
    limits: StatementLimits,
}

impl HtapSystem {
    /// Generates data and builds the system.
    pub fn new(config: &TpchConfig) -> Self {
        Self::with_database(Database::generate(config))
    }

    /// Builds from an existing database.
    pub fn with_database(db: Database) -> Self {
        HtapSystem {
            db: Arc::new(RwLock::new(db)),
            durability: None,
            compactor: None,
            recovery: None,
            latency: LatencyModel::default(),
            exec_cfg: ExecConfig::global().clone(),
            plan_cache: PlanCache::default(),
            health: Arc::new(HealthState::new()),
            limits: StatementLimits::default(),
        }
    }

    /// Default limits applied to statements without per-call limits.
    pub fn statement_limits(&self) -> &StatementLimits {
        &self.limits
    }

    /// Sets the system-wide default [`StatementLimits`] (timeout and memory
    /// budget). Sessions and prepared statements can still override them
    /// per call.
    pub fn set_statement_limits(&mut self, limits: StatementLimits) {
        self.limits = limits;
    }

    /// A fresh guard enforcing the system-default limits.
    fn statement_guard(&self) -> ExecGuard {
        ExecGuard::new(&self.limits)
    }

    /// Shared plan-cache counters (hits, misses, residency).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Replaces the AP executor's parallelism config (execution only).
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        self.exec_cfg = cfg;
    }

    /// Sets the AP worker-thread count (execution only), keeping the morsel
    /// size.
    pub fn set_ap_threads(&mut self, threads: usize) {
        self.exec_cfg.threads = threads.max(1);
    }

    /// Binds a SQL string against the system catalog.
    pub fn bind(&self, sql: &str) -> Result<BoundQuery, HtapError> {
        Ok(Binder::new(self.database().catalog()).bind_sql(sql)?)
    }

    /// Optimizes a bound query for one engine (EXPLAIN without execution).
    pub fn explain(&self, bound: &BoundQuery, engine: EngineKind) -> Result<PlanNode, HtapError> {
        plan_on(&self.database(), bound, engine)
    }

    /// Executes an already-built physical plan on one engine (no re-bind,
    /// no re-plan) and prices its counters. An AP run executes on a pinned
    /// MVCC snapshot with the read lock released.
    pub fn run_engine_with_plan(
        &self,
        plan: PlanNode,
        bound: &BoundQuery,
        engine: EngineKind,
    ) -> Result<EngineRun, HtapError> {
        let engines = Engines::Pinned(engine, plan);
        self.read(bound, engines, &self.statement_guard())
            .map(Runs::into_pinned)
    }

    /// Full pipeline: bind, run on both engines, check result agreement.
    /// Governed by the system-default [`StatementLimits`].
    pub fn run_sql(&self, sql: &str) -> Result<QueryOutcome, HtapError> {
        let stmt = self.plan_statement(sql)?;
        if !stmt.is_query() {
            let e = "run_sql runs reads only; execute_statement runs writes";
            return Err(SqlError::Unsupported(e.into()).into());
        }
        match self.run(&stmt, &[], None, &self.statement_guard())? {
            StatementOutcome::Query(q) => Ok(*q),
            _ => unreachable!("a dual read returns both runs"),
        }
    }

    /// Executes any statement through a **shared** reference. Reads take the
    /// dual-engine pipeline ([`HtapSystem::run_sql`]); writes route to the TP
    /// engine *only* — planned by the TP optimizer, executed against the row
    /// store under the write lock, with the column store absorbing the same
    /// change through its delta region, so the next AP read is fresh without
    /// blocking readers of other tables.
    pub fn execute_statement(&self, sql: &str) -> Result<StatementOutcome, HtapError> {
        let stmt = self.plan_statement(sql)?;
        self.run(&stmt, &[], None, &self.statement_guard())
    }

    /// The statement path's one planning function: binds `sql`, optimizes
    /// it — a read for both engines, a write for TP — and records the
    /// design epoch of every table it was planned against, all under one
    /// read guard.
    pub(crate) fn plan_statement(&self, sql: &str) -> Result<CachedStatement, HtapError> {
        let db = self.database();
        let (kind, design_epochs) = match Binder::new(db.catalog()).bind_statement(sql)? {
            BoundStatement::Query(bound) => {
                let tp = plan_on(&db, &bound, EngineKind::Tp)?;
                let ap = plan_on(&db, &bound, EngineKind::Ap)?;
                let epochs = design_epochs(&db, bound.tables.iter().map(|t| t.name.as_str()));
                (CachedKind::Query { bound: Arc::new(bound), tp, ap }, epochs)
            }
            BoundStatement::Dml(dml) => {
                let plan = tp::plan_dml(&dml, db.stats(), db.catalog())?;
                let epochs = design_epochs(&db, std::iter::once(dml.table_name()));
                (CachedKind::Dml { dml, plan }, epochs)
            }
        };
        Ok(CachedStatement { sql: sql.to_string(), design_epochs, kind })
    }

    /// The statement path's one execution site. Coerces and substitutes
    /// `params` into `stmt`'s plans, then runs a read on `route` — one
    /// engine, or both (`None`, agreement-checked) — or a write on TP.
    pub(crate) fn run(
        &self,
        stmt: &CachedStatement,
        params: &[Value],
        route: Option<EngineKind>,
        guard: &ExecGuard,
    ) -> Result<StatementOutcome, HtapError> {
        let params = stmt.coerce(params)?;
        let plan = |cached: &PlanNode| substituted(cached, &params, PlanNode::substitute_params);
        match &stmt.kind {
            CachedKind::Query { bound, tp, ap } => {
                let engines = match route {
                    None => Engines::Dual(plan(tp), plan(ap)),
                    Some(EngineKind::Tp) => Engines::Pinned(EngineKind::Tp, plan(tp)),
                    Some(EngineKind::Ap) => Engines::Pinned(EngineKind::Ap, plan(ap)),
                };
                let runs = self.read(bound, engines, guard)?;
                Ok(runs.into_outcome(stmt.sql.clone(), Arc::clone(bound)))
            }
            CachedKind::Dml { dml, plan: cached } => {
                let dml = substituted(dml, &params, substitute_dml_params);
                let outcome = self.write(&stmt.sql, &dml, plan(cached), guard)?;
                Ok(StatementOutcome::Dml(Box::new(outcome)))
            }
        }
    }

    /// The statement path's one read. Takes the read lock, runs TP under
    /// it, then pins an MVCC snapshot and releases the lock before AP runs
    /// — a writer waits for the TP run plus an O(tables × width) pin, never
    /// for an analytical scan. One guard governs both sides of a dual read,
    /// which is then agreement-checked.
    fn read(
        &self,
        bound: &BoundQuery,
        engines: Engines,
        guard: &ExecGuard,
    ) -> Result<Runs, HtapError> {
        let db = self.database();
        let (tp, ap) = match engines {
            Engines::Dual(tp, ap) => (Some(tp), Some(ap)),
            Engines::Pinned(EngineKind::Tp, plan) => (Some(plan), None),
            Engines::Pinned(EngineKind::Ap, plan) => (None, Some(plan)),
        };
        let tp = tp
            .map(|plan| self.run_plan_on(&db, plan, bound, EngineKind::Tp, guard))
            .transpose()?;
        let ap = match ap {
            Some(plan) => {
                let snap = db.pin_snapshot();
                drop(db);
                Some(self.run_plan_on(&snap, plan, bound, EngineKind::Ap, guard)?)
            }
            None => None,
        };
        match (tp, ap) {
            (Some(tp), Some(ap)) => {
                check_results_match(bound, &tp, &ap)?;
                Ok(Runs::Dual(tp, ap))
            }
            (Some(run), None) | (None, Some(run)) => Ok(Runs::Pinned(run)),
            (None, None) => unreachable!("every read runs at least one engine"),
        }
    }

    fn run_plan_on(
        &self,
        db: &Database,
        plan: PlanNode,
        bound: &BoundQuery,
        engine: EngineKind,
        guard: &ExecGuard,
    ) -> Result<EngineRun, HtapError> {
        let cfg = self.exec_cfg.with_guard(guard.clone());
        let (rows, counters) = exec::execute_with(&plan, bound, db, engine, &cfg)?;
        // Counters are executor-invariant, so the price is the same at any
        // thread count.
        let latency_ns = match engine {
            EngineKind::Tp => self.latency.tp_latency_ns(&counters),
            EngineKind::Ap => self.latency.ap_latency_ns(&counters),
        };
        Ok(EngineRun {
            engine,
            plan,
            rows,
            counters,
            latency_ns,
        })
    }

    /// The statement path's one write: executes a planned, substituted
    /// write statement on the TP engine under the write lock, WAL-logging
    /// it on a durable system.
    fn write(
        &self,
        sql: &str,
        dml: &BoundDml,
        plan: PlanNode,
        guard: &ExecGuard,
    ) -> Result<DmlOutcome, HtapError> {
        self.check_writable()?;
        let mut db = self.db_write();
        if self.durability.is_some() {
            db.begin_op_capture();
        }
        let exec_result = exec::execute_dml_guarded(&plan, dml, &mut db, guard);
        let (result, counters) = match exec_result {
            Ok(rc) => rc,
            Err(e) => {
                // Validation failures reject the whole statement before any
                // row is touched, so discarding the (empty) capture is safe.
                db.take_op_capture();
                return Err(e.into());
            }
        };
        let latency_ns = self.latency.tp_latency_ns(&counters);
        let freshness = db
            .freshness(&result.table)
            .expect("written table exists");
        // Durable path: append under the write lock (log order = apply
        // order), then release it and group-commit — concurrent writers
        // proceed while this statement waits for its fsync batch.
        let commit_lsn = match &self.durability {
            Some(d) => {
                // Fault-injection hook: a panic here models an executor
                // dying after the rows applied but before the WAL append —
                // the worst spot, proving poison recovery + degraded mode
                // keep the system serving.
                d.fp.panic_if_armed("dml:after_apply");
                let ops = db.take_op_capture();
                let records = db.wal_records_for(&ops);
                if records.is_empty() {
                    None
                } else {
                    let lsn = d
                        .wal
                        .append(&records)
                        .map_err(|e| self.degrade_on("wal append", e))?;
                    Some((Arc::clone(d), lsn))
                }
            }
            None => None,
        };
        drop(db);
        if let Some((d, lsn)) = commit_lsn {
            d.wal
                .commit(lsn)
                .map_err(|e| self.degrade_on("wal commit", e))?;
        }
        Ok(DmlOutcome {
            sql: sql.to_string(),
            result,
            plan,
            counters,
            latency_ns,
            freshness,
        })
    }

    /// Freshness snapshot of one table.
    pub fn freshness(&self, table: &str) -> Option<TableFreshness> {
        self.database().freshness(table)
    }

    /// Pins an MVCC [`Snapshot`] of the current committed state. The pin
    /// itself briefly holds the read lock (O(tables × width) `Arc` bumps);
    /// the returned snapshot holds **no lock** — concurrent writers append
    /// new versions through copy-on-write and never disturb it, and the
    /// versions it pinned stay reachable (hence unreclaimable) until the
    /// snapshot drops.
    pub fn pin_snapshot(&self) -> Snapshot {
        Snapshot {
            db: self.database().pin_snapshot(),
            exec_cfg: self.exec_cfg.clone(),
        }
    }
}

/// The engine side(s) one [`HtapSystem::read`] runs, each with its plan.
///
/// This and [`Runs`] only travel between `read` and its caller, so their
/// variants stay unboxed: boxing would cost a heap allocation per read.
#[allow(clippy::large_enum_variant)]
enum Engines {
    /// Both engines (TP plan, AP plan), agreement-checked.
    Dual(PlanNode, PlanNode),
    /// One engine only.
    Pinned(EngineKind, PlanNode),
}

/// What one [`HtapSystem::read`] ran, shaped like its [`Engines`].
#[allow(clippy::large_enum_variant)]
enum Runs {
    /// The TP and AP runs of a dual read.
    Dual(EngineRun, EngineRun),
    /// The single run of a pinned read.
    Pinned(EngineRun),
}

impl Runs {
    /// The statement outcome reporting these runs.
    fn into_outcome(self, sql: String, bound: Arc<BoundQuery>) -> StatementOutcome {
        match self {
            Runs::Dual(tp, ap) => {
                StatementOutcome::Query(Box::new(QueryOutcome { sql, bound, tp, ap }))
            }
            Runs::Pinned(run) => {
                StatementOutcome::PinnedQuery(Box::new(PinnedQueryOutcome { sql, bound, run }))
            }
        }
    }

    fn into_pinned(self) -> EngineRun {
        match self {
            Runs::Pinned(run) => run,
            Runs::Dual(..) => unreachable!("a pinned read returns one run"),
        }
    }
}

/// The deduplicated `(table, design_epoch)` pairs a statement was planned
/// against, captured under the same guard the planner used.
fn design_epochs<'a>(db: &Database, tables: impl Iterator<Item = &'a str>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for name in tables {
        if out.iter().any(|(n, _)| n == name) {
            continue;
        }
        if let Some(epoch) = db.design_epoch(name) {
            out.push((name.to_string(), epoch));
        }
    }
    out
}

/// `cached` with `params` injected by `subst` — or a plain clone when the
/// statement takes no parameters, which skips the substitution walk.
fn substituted<T: Clone>(cached: &T, params: &[Value], subst: impl Fn(&T, &[Value]) -> T) -> T {
    if params.is_empty() {
        cached.clone()
    } else {
        subst(cached, params)
    }
}

/// Clones a bound write statement with parameters injected: `VALUES`
/// placeholders patch their (already column-typed) values into the row
/// buffer, assignment and predicate expressions substitute like any other.
fn substitute_dml_params(dml: &BoundDml, params: &[Value]) -> BoundDml {
    match dml {
        BoundDml::Insert(ins) => {
            let mut ins = ins.clone();
            for slot in &ins.param_slots {
                if let Some(v) = params.get(slot.idx) {
                    ins.rows[slot.row][slot.col] = v.clone();
                }
            }
            BoundDml::Insert(ins)
        }
        BoundDml::Update(up) => {
            let mut up = up.clone();
            for (_, expr) in &mut up.assignments {
                *expr = substitute_params(expr, params);
            }
            substitute_query_params(&mut up.scan, params);
            BoundDml::Update(up)
        }
        BoundDml::Delete(del) => {
            let mut del = del.clone();
            substitute_query_params(&mut del.scan, params);
            BoundDml::Delete(del)
        }
    }
}

/// In-place parameter substitution over a bound query's expression trees
/// (the DML scan query — the executors read its filters through the plan,
/// but `collect_target_rids` re-evaluates plan predicates, so both must
/// agree).
fn substitute_query_params(q: &mut BoundQuery, params: &[Value]) {
    let subst = |e: &mut BoundExpr| *e = substitute_params(e, params);
    for f in &mut q.filters {
        subst(&mut f.expr);
    }
    for r in &mut q.residual_predicates {
        subst(r);
    }
    for p in &mut q.projections {
        subst(&mut p.expr);
    }
    for g in &mut q.group_by {
        subst(g);
    }
    if let Some(h) = &mut q.having {
        subst(h);
    }
    for (o, _) in &mut q.order_by {
        subst(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::value::Value;

    fn system() -> HtapSystem {
        HtapSystem::new(&TpchConfig::with_scale(0.002))
    }

    #[test]
    fn run_sql_produces_consistent_outcome() {
        let sys = system();
        let out = sys
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap();
        assert_eq!(out.tp.rows, out.ap.rows);
        assert!(out.tp.latency_ns > 0 && out.ap.latency_ns > 0);
        assert!(out.speedup() >= 1.0);
    }

    #[test]
    fn point_lookup_favors_tp() {
        let sys = system();
        let out = sys
            .run_sql("SELECT c_name FROM customer WHERE c_custkey = 42")
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Tp);
    }

    #[test]
    fn big_join_favors_ap() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        let out = sys
            .run_sql(
                "SELECT COUNT(*) FROM customer, orders, lineitem \
                 WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey",
            )
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Ap, "speedup={}", out.speedup());
    }

    #[test]
    fn index_served_topn_favors_tp() {
        let sys = system();
        let out = sys
            .run_sql("SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10")
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Tp);
    }

    #[test]
    fn unindexed_topn_on_big_table_favors_ap() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        let out = sys
            .run_sql(
                "SELECT l_orderkey, l_extendedprice FROM lineitem \
                 ORDER BY l_extendedprice DESC LIMIT 10",
            )
            .unwrap();
        assert_eq!(out.winner(), EngineKind::Ap);
    }

    #[test]
    fn create_index_changes_plans() {
        let mut sys = system();
        let before = sys
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap();
        assert_eq!(before.tp.plan.count_type(crate::plan::NodeType::IndexScan), 0);
        assert!(sys.database_mut().create_index("customer", "c_mktsegment"));
        let after = sys
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap();
        assert_eq!(after.tp.plan.count_type(crate::plan::NodeType::IndexScan), 1);
        // Results identical either way.
        assert_eq!(before.tp.rows, after.tp.rows);
    }

    #[test]
    fn create_index_rejects_unknown() {
        let mut sys = system();
        assert!(!sys.database_mut().create_index("nope", "c_phone"));
        assert!(!sys.database_mut().create_index("customer", "nope"));
    }

    #[test]
    fn engine_kind_helpers() {
        assert_eq!(EngineKind::Tp.other(), EngineKind::Ap);
        assert_eq!(EngineKind::Ap.as_str(), "AP");
        assert_eq!(EngineKind::Tp.to_string(), "TP");
    }

    #[test]
    fn outcome_run_accessor() {
        let sys = system();
        let out = sys.run_sql("SELECT COUNT(*) FROM nation").unwrap();
        assert_eq!(out.run(EngineKind::Tp).engine, EngineKind::Tp);
        assert_eq!(out.run(EngineKind::Ap).engine, EngineKind::Ap);
        assert_eq!(out.tp.rows[0][0], Value::Int(25));
    }

    #[test]
    fn explain_does_not_execute() {
        let sys = system();
        let bound = sys.bind("SELECT COUNT(*) FROM customer").unwrap();
        let plan = sys.explain(&bound, EngineKind::Ap).unwrap();
        assert!(plan.total_cost > 0.0);
    }

    #[test]
    fn bind_error_propagates() {
        let sys = system();
        assert!(matches!(
            sys.run_sql("SELECT * FROM missing_table"),
            Err(HtapError::Sql(_))
        ));
    }

    fn count_machinery(sys: &HtapSystem) -> i64 {
        sys.run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .unwrap()
            .tp
            .rows[0][0]
            .as_int()
            .unwrap()
    }

    #[test]
    fn insert_is_visible_to_both_engines_before_compaction() {
        let sys = system();
        let before = count_machinery(&sys);
        let out = sys
            .execute_statement(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES (900001, 'customer#900001', 4, '20-555-000-1111', \
                 1234.5, 'machinery')",
            )
            .unwrap();
        let dml = out.as_dml().expect("insert is DML");
        assert_eq!(dml.result.kind, crate::exec::DmlKind::Insert);
        assert_eq!(dml.result.rows_affected, 1);
        assert_eq!(dml.plan.node_type, crate::plan::NodeType::Insert);
        assert!(dml.counters.rows_inserted == 1 && dml.counters.index_updates > 0);
        assert!(dml.latency_ns > 0);
        assert_eq!(dml.freshness.delta_rows, 1);
        // run_sql internally asserts TP/AP agreement — the delta row is
        // already visible to the AP engine.
        assert_eq!(count_machinery(&sys), before + 1);
        // ... and still after compaction.
        assert!(sys.compact("customer"));
        assert_eq!(count_machinery(&sys), before + 1);
        assert_eq!(sys.freshness("customer").unwrap().delta_rows, 0);
    }

    #[test]
    fn update_and_delete_round_trip() {
        let sys = system();
        let before = count_machinery(&sys);
        let up = sys
            .execute_statement("UPDATE customer SET c_mktsegment = 'machinery' WHERE c_custkey = 7")
            .unwrap();
        let up = up.as_dml().unwrap();
        assert_eq!(up.result.kind, crate::exec::DmlKind::Update);
        assert_eq!(up.result.rows_affected, 1);
        // PK equality predicate drives an index access path, not a scan
        assert_eq!(up.plan.children[0].node_type, crate::plan::NodeType::IndexScan);
        let after_update = count_machinery(&sys);
        assert!(after_update == before || after_update == before + 1);
        let del = sys
            .execute_statement("DELETE FROM customer WHERE c_custkey = 7")
            .unwrap();
        assert_eq!(del.as_dml().unwrap().result.rows_affected, 1);
        // engines still agree after a delete, pre- and post-compaction
        assert_eq!(count_machinery(&sys), after_update - 1);
        sys.compact("customer");
        assert_eq!(count_machinery(&sys), after_update - 1);
    }

    #[test]
    fn update_assignment_reads_old_row() {
        let sys = system();
        let before = sys
            .run_sql("SELECT c_acctbal FROM customer WHERE c_custkey = 3")
            .unwrap()
            .tp
            .rows[0][0]
            .as_float()
            .unwrap();
        sys.execute_statement("UPDATE customer SET c_acctbal = c_acctbal + 100 WHERE c_custkey = 3")
            .unwrap();
        let after = sys
            .run_sql("SELECT c_acctbal FROM customer WHERE c_custkey = 3")
            .unwrap()
            .tp
            .rows[0][0]
            .as_float()
            .unwrap();
        assert!((after - (before + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn duplicate_or_null_primary_key_rejected() {
        let sys = system();
        // key 1 exists in generated data
        assert!(matches!(
            sys.execute_statement(
                "INSERT INTO customer (c_custkey, c_name) VALUES (1, 'dup')"
            ),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        assert!(matches!(
            sys.execute_statement("INSERT INTO customer (c_name) VALUES ('nokey')"),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // duplicate within one VALUES batch
        assert!(matches!(
            sys.execute_statement(
                "INSERT INTO customer (c_custkey, c_name) VALUES (900009, 'a'), (900009, 'b')"
            ),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // failed statements leave no trace
        assert_eq!(sys.freshness("customer").unwrap().delta_rows, 0);
    }

    #[test]
    fn update_enforces_primary_key_constraints() {
        let sys = system();
        // moving a PK onto a surviving row's key is rejected
        assert!(matches!(
            sys.execute_statement("UPDATE customer SET c_custkey = 1 WHERE c_custkey = 2"),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // two updated rows collapsing onto one new key is rejected
        assert!(matches!(
            sys.execute_statement("UPDATE customer SET c_custkey = 900100 WHERE c_custkey < 3"),
            Err(HtapError::Exec(exec::ExecError::Write(_)))
        ));
        // rejections leave storage untouched
        assert_eq!(sys.freshness("customer").unwrap().delta_rows, 0);
        // an updated row may keep its own key (self-match is not a clash) …
        let out = sys
            .execute_statement("UPDATE customer SET c_custkey = 2, c_name = 'renamed' \
                          WHERE c_custkey = 2")
            .unwrap();
        assert_eq!(out.as_dml().unwrap().result.rows_affected, 1);
        // … and may move to a genuinely free key
        sys.execute_statement("UPDATE customer SET c_custkey = 900200 WHERE c_custkey = 3")
            .unwrap();
        let rows = sys
            .run_sql("SELECT c_custkey FROM customer WHERE c_custkey = 900200")
            .unwrap()
            .tp
            .rows;
        assert_eq!(rows.len(), 1);
        // non-PK assignments never pay PK probes
        let out = sys
            .execute_statement("UPDATE customer SET c_acctbal = 1.0 WHERE c_custkey = 4")
            .unwrap();
        assert_eq!(out.as_dml().unwrap().result.rows_affected, 1);
    }

    #[test]
    fn delta_fraction_ignores_tombstoned_delta_rows() {
        let sys = system();
        sys.execute_statement(
            "INSERT INTO region (r_regionkey, r_name) VALUES (90, 'x'), (91, 'y')",
        )
        .unwrap();
        let f = sys.freshness("region").unwrap();
        assert_eq!(f.live_delta_rows, 2);
        assert!(f.delta_fraction() > 0.0);
        sys.execute_statement("DELETE FROM region WHERE r_regionkey >= 90").unwrap();
        let f = sys.freshness("region").unwrap();
        assert_eq!(f.delta_rows, 2, "physical backlog remains");
        assert_eq!(f.live_delta_rows, 0);
        assert_eq!(f.delta_fraction(), 0.0, "no live row resides in the delta");
    }

    /// Satellite: planner cardinality estimates must track post-DML table
    /// sizes — both the catalog row count the binder snapshots and the
    /// statistics row count the optimizers estimate from.
    #[test]
    fn stats_and_plans_track_post_dml_sizes() {
        let sys = system();
        let n0 = sys.database().stats().table("nation").unwrap().row_count;
        assert_eq!(n0, 25);
        for i in 0..5 {
            sys.execute_statement(&format!(
                "INSERT INTO nation (n_nationkey, n_name, n_regionkey) VALUES ({}, 'x{}', 0)",
                100 + i,
                i
            ))
            .unwrap();
        }
        // incremental row_count maintenance, no refresh needed
        assert_eq!(sys.database().stats().table("nation").unwrap().row_count, 30);
        let bound = sys.bind("SELECT COUNT(*) FROM nation").unwrap();
        assert_eq!(bound.tables[0].row_count, 30);
        // a full-scan plan's cardinality estimate reflects the new size
        let plan = sys.explain(&bound, EngineKind::Ap).unwrap();
        let mut scan_rows = 0.0;
        plan.walk(&mut |n| {
            if n.node_type == crate::plan::NodeType::TableScan {
                scan_rows = n.plan_rows;
            }
        });
        assert_eq!(scan_rows, 30.0);
        sys.execute_statement("DELETE FROM nation WHERE n_nationkey >= 100")
            .unwrap();
        assert_eq!(sys.database().stats().table("nation").unwrap().row_count, 25);
        // min/max widened incrementally by the inserts (lazy ndv refresh
        // corrects them later; widening alone must be immediate)
        assert!(sys.database().stats().table("nation").unwrap().columns[0]
            .max
            .unwrap()
            >= 104.0);
        // compaction triggers the full stats refresh: bounds shrink back
        sys.compact("nation");
        let db = sys.database();
        let ts = db.stats().table("nation").unwrap();
        assert_eq!(ts.columns[0].max, Some(24.0));
        assert_eq!(ts.pending_ndv_writes, 0);
    }

    #[test]
    fn lazy_ndv_refresh_after_write_backlog() {
        let sys = system();
        let ndv0 = sys.database().stats().table("nation").unwrap().columns[1].ndv;
        assert_eq!(ndv0, 25);
        // 64+ inserts with distinct names crosses the staleness threshold
        for i in 0..70 {
            sys.execute_statement(&format!(
                "INSERT INTO nation (n_nationkey, n_name, n_regionkey) VALUES ({}, 'n{}', 0)",
                1000 + i,
                i
            ))
            .unwrap();
        }
        let db = sys.database();
        let ts = db.stats().table("nation").unwrap();
        assert_eq!(ts.row_count, 95);
        // The refresh fired when the backlog hit the threshold (64 writes →
        // 89 rows at that moment), not on every write: lazily, not eagerly.
        assert_eq!(ts.columns[1].ndv, 89, "ndv refreshed once at the threshold");
        assert_eq!(ts.pending_ndv_writes, 6, "post-refresh backlog keeps accumulating");
    }

    /// Read-only statements go through `&self`: two threads can execute
    /// SELECTs concurrently against one shared system.
    #[test]
    fn concurrent_reads_share_the_system() {
        let sys = std::sync::Arc::new(system());
        let mut handles = Vec::new();
        for t in 0..2 {
            let sys = std::sync::Arc::clone(&sys);
            handles.push(std::thread::spawn(move || {
                for i in 0..5 {
                    let key = 1 + (t * 5 + i) % 20;
                    let out = sys
                        .execute_statement(&format!(
                            "SELECT c_custkey FROM customer WHERE c_custkey = {key}"
                        ))
                        .unwrap();
                    let q = out.as_query().unwrap();
                    assert_eq!(q.tp.rows, vec![vec![Value::Int(key)]]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn dml_routes_to_tp_only_and_select_still_dual_runs(){
        let sys = system();
        let q = sys.execute_statement("SELECT COUNT(*) FROM region").unwrap();
        assert!(q.as_query().is_some() && q.as_dml().is_none());
        let w = sys
            .execute_statement("DELETE FROM region WHERE r_regionkey = 4")
            .unwrap();
        let dml = w.as_dml().unwrap();
        assert!(w.as_query().is_none());
        // write counters priced by the TP latency model
        assert_eq!(dml.counters.rows_deleted, 1);
        assert_eq!(
            dml.latency_ns,
            sys.latency_model().tp_latency_ns(&dml.counters)
        );
    }
}
