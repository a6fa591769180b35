//! `analytic` — one in-process session pinned to AP runs rounds of prepared
//! statements at scale 0.1 (150 k orders, 600 k lineitem): FOR-range and
//! bloom-path equality scans, a group-by, top-N, and two joins. The AP
//! executor and the encoded-column kernels do all the work; `server`, the
//! WAL and the retrieval crates do none.

use super::{timed_setup, trace_overhead_pct, RunCfg};
use crate::metrics::Outcome;
use crate::stats;
use crate::tape::{self, Digest, SqlClass};
use crate::trace::{self, Tracer};
use qpe_htap::tpch::{MKT_SEGMENTS, ORDER_STATUS};
use qpe_htap::{EngineKind, HtapSystem, PreparedStatement, Session, TpchConfig};
use qpe_sql::value::Value;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

const SCALE: f64 = 0.1;
const LANE_PARAMS: u64 = 1;

/// A statement class of the round.
struct Class {
    /// Span name in the trace; the per-layer metric is this plus `_us`.
    span: &'static str,
    metric: &'static str,
    sql: &'static str,
    /// Which end-to-end class median the statement feeds.
    class: SqlClass,
    /// Executions per round.
    per_round: usize,
}

const CLASSES: [Class; 6] = [
    Class {
        span: "htap.ap_range",
        metric: "htap.ap_range_us",
        sql: "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderkey BETWEEN ? AND ?",
        class: SqlClass::Scan,
        per_round: 20,
    },
    Class {
        span: "htap.ap_eq",
        metric: "htap.ap_eq_us",
        sql: "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_custkey = ?",
        class: SqlClass::Scan,
        per_round: 20,
    },
    Class {
        span: "htap.ap_groupby",
        metric: "htap.ap_groupby_us",
        sql: "SELECT l_linestatus, COUNT(*), SUM(l_extendedprice) FROM lineitem \
              GROUP BY l_linestatus ORDER BY l_linestatus",
        class: SqlClass::Agg,
        per_round: 1,
    },
    Class {
        span: "htap.ap_topn",
        metric: "htap.ap_topn_us",
        sql: "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity >= ? \
              ORDER BY l_extendedprice DESC LIMIT 20",
        class: SqlClass::Agg,
        per_round: 2,
    },
    Class {
        span: "htap.ap_join_co",
        metric: "htap.ap_join_co_us",
        sql: "SELECT COUNT(*), SUM(o_totalprice) FROM customer, orders \
              WHERE o_custkey = c_custkey AND c_mktsegment = ?",
        class: SqlClass::Join,
        per_round: 4,
    },
    Class {
        span: "htap.ap_join_ol",
        metric: "htap.ap_join_ol_us",
        sql: "SELECT COUNT(*), SUM(l_extendedprice) FROM orders, lineitem \
              WHERE l_orderkey = o_orderkey AND o_orderstatus = ?",
        class: SqlClass::Join,
        per_round: 1,
    },
];

struct Setup {
    sys: Arc<HtapSystem>,
    stmts: Vec<PreparedStatement>,
    n_orders: i64,
    n_customers: i64,
}

/// Seeded parameters of one execution of class `c`.
fn params(c: usize, rng: &mut StdRng, s: &Setup) -> Vec<Value> {
    match c {
        0 => {
            let width = s.n_orders / 100;
            let lo = rng.gen_range(1..=s.n_orders - width);
            vec![Value::Int(lo), Value::Int(lo + width)]
        }
        1 => vec![Value::Int(rng.gen_range(1..=s.n_customers))],
        2 => Vec::new(),
        3 => vec![Value::Int(rng.gen_range(1..40))],
        4 => vec![Value::Str(
            MKT_SEGMENTS[rng.gen_range(0..MKT_SEGMENTS.len())].into(),
        )],
        _ => vec![Value::Str(
            ORDER_STATUS[rng.gen_range(0..ORDER_STATUS.len())].into(),
        )],
    }
}

fn rows_on(
    stmt: &PreparedStatement,
    engine: EngineKind,
    params: &[Value],
) -> Option<Vec<Vec<Value>>> {
    let outcome = stmt.execute_on(engine, params).ok()?;
    Some(outcome.as_pinned()?.run.rows.clone())
}

/// True when two engines' rows are one result: the same multiset of rows
/// (ties of an ordered query may permute), floats equal within 1e-9 relative
/// (the engines add in different orders).
fn same_result(mut a: Vec<Vec<Value>>, mut b: Vec<Vec<Value>>) -> bool {
    let order = |x: &Vec<Value>, y: &Vec<Value>| {
        x.iter()
            .zip(y)
            .map(|(u, v)| u.total_cmp(v))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    a.sort_by(order);
    b.sort_by(order);
    let close = |u: &Value, v: &Value| match (u, v) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => u == v,
    };
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(ra, rb)| ra.len() == rb.len() && ra.iter().zip(rb).all(|(u, v)| close(u, v)))
}

fn setup() -> Setup {
    let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(SCALE)));
    let session = Session::new(Arc::clone(&sys));
    session.pin_engine(Some(EngineKind::Ap));
    let stmts: Vec<PreparedStatement> = CLASSES
        .iter()
        .map(|c| {
            session
                .prepare(c.sql)
                .expect("the workload's statements prepare")
        })
        .collect();
    let rows = |table: &str| {
        sys.database()
            .stored_table(table)
            .expect("TPC-H table")
            .row_count() as i64
    };
    let s = Setup {
        n_orders: rows("orders"),
        n_customers: rows("customer"),
        sys,
        stmts,
    };
    // Every statement once, so the first timed round is not the first run.
    let mut rng = tape::rng(0, LANE_PARAMS);
    for c in 0..CLASSES.len() {
        rows_on(&s.stmts[c], EngineKind::Ap, &params(c, &mut rng, &s))
            .expect("the workload's statements run");
    }
    s
}

/// AP ≡ TP before timing: each class once on both engines, with the tape's
/// first parameters. Returns the number of classes that disagreed.
fn gate(s: &Setup, seed: u64) -> u64 {
    let mut rng = tape::rng(seed, LANE_PARAMS);
    let mut disagreed = 0;
    for c in 0..CLASSES.len() {
        let p = params(c, &mut rng, s);
        let same = match (
            rows_on(&s.stmts[c], EngineKind::Ap, &p),
            rows_on(&s.stmts[c], EngineKind::Tp, &p),
        ) {
            (Some(ap), Some(tp)) => same_result(ap, tp),
            _ => false,
        };
        disagreed += u64::from(!same);
    }
    disagreed
}

/// One pass of whole rounds; the window ends with the round the deadline
/// falls in, so every pass holds the same statement mix.
struct Pass {
    /// One sample per round: the mean latency of the round's statements,
    /// then of its scans, its aggregates and its joins. A median over
    /// statements would follow the commonest statement alone — top-N among
    /// the aggregates, customer⋈orders among the joins — and never move with
    /// the rarer, heavier one.
    round_means: [Vec<u64>; 4],
    /// Every statement's latency.
    statements: Vec<u64>,
    cells_scanned: u64,
    blocks_checked: u64,
    blocks_pruned: u64,
    attempted: u64,
    failed: u64,
    digest: Digest,
    round_secs: Vec<f64>,
}

fn run_pass(s: &Setup, seed: u64, window: f64, mut tracer: Option<&mut Tracer>) -> Pass {
    let mut p = Pass {
        round_means: Default::default(),
        statements: Vec::new(),
        cells_scanned: 0,
        blocks_checked: 0,
        blocks_pruned: 0,
        attempted: 0,
        failed: 0,
        digest: Digest::default(),
        round_secs: Vec::new(),
    };
    let mut rng = tape::rng(seed, LANE_PARAMS);
    let start = Instant::now();
    let mut op = 0u32;
    let mut round = 0u32;
    while start.elapsed().as_secs_f64() < window && !tracer.as_ref().is_some_and(|t| t.is_full()) {
        let round_start = Instant::now();
        // (summed latency, statements) of the round: all, scans, aggregates, joins.
        let mut sums = [(0u64, 0u64); 4];
        for (c, class) in CLASSES.iter().enumerate() {
            for _ in 0..class.per_round {
                let params = params(c, &mut rng, s);
                p.attempted += 1;
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.begin_op(class.span, op);
                }
                let t = Instant::now();
                let outcome = s.stmts[c].execute(&params);
                let ns = t.elapsed().as_nanos() as u64;
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.exit();
                }
                op += 1;
                match outcome.as_ref().ok().and_then(|o| o.as_pinned()) {
                    Some(q) if q.run.engine == EngineKind::Ap && !q.run.rows.is_empty() => {
                        for k in [0, 1 + class.class as usize] {
                            sums[k] = (sums[k].0 + ns, sums[k].1 + 1);
                        }
                        p.statements.push(ns);
                        p.cells_scanned += q.run.counters.cells_scanned;
                        p.blocks_checked += q.run.counters.blocks_checked;
                        p.blocks_pruned += q.run.counters.blocks_pruned;
                        // The first round's rows are the output digest.
                        if round == 0 {
                            p.digest.update(format!("{:?}", q.run.rows).as_bytes());
                        }
                    }
                    _ => p.failed += 1,
                }
            }
        }
        for (means, (ns, n)) in p.round_means.iter_mut().zip(sums) {
            means.push(ns / n.max(1));
        }
        p.round_secs.push(round_start.elapsed().as_secs_f64());
        round += 1;
    }
    p
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (s, setup_s) = timed_setup(cfg.setup_repeats(), setup);
    let gate_failures = gate(&s, cfg.seed);
    let mut tape_digest = Digest::default();
    let mut rng = tape::rng(cfg.seed, LANE_PARAMS);
    for c in (0..CLASSES.len()).cycle().take(256) {
        tape_digest.update(format!("{:?}", params(c, &mut rng, &s)).as_bytes());
    }
    let mut out = Outcome {
        tape_digest: tape_digest.hex(),
        attempted: CLASSES.len() as u64,
        failed: gate_failures,
        ..Outcome::default()
    };

    let mut pass = run_pass(&s, cfg.seed, cfg.untraced_window().as_secs_f64(), None);
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.output_digest = pass.digest.hex();

    if cfg.trace {
        let mut tr = Tracer::new();
        let traced = run_pass(
            &s,
            cfg.seed,
            cfg.traced_window().as_secs_f64(),
            Some(&mut tr),
        );
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        if traced.digest.hex() != out.output_digest {
            out.failed += 1;
        }
        let layers = trace::layer_stats(tr.spans());
        for class in &CLASSES {
            if let Some(l) = layers.get(class.span) {
                out.set(class.metric, l.median_us, l.count);
            }
        }
        let ops = traced.statements.len() as u64;
        out.set(
            "htap.cells_scanned_per_op",
            traced.cells_scanned as f64 / ops.max(1) as f64,
            ops,
        );
        out.set(
            "htap.blocks_pruned_share",
            traced.blocks_pruned as f64 / traced.blocks_checked.max(1) as f64,
            traced.blocks_checked,
        );
        out.set(
            "htap.plan_cache_hit_rate",
            s.sys.plan_cache_stats().hit_rate(),
            1,
        );
        out.set(
            "bench.trace_overhead_pct",
            trace_overhead_pct(&pass.statements, &traced.statements),
            pass.statements.len().min(traced.statements.len()) as u64,
        );
        out.spans = tr.into_spans();
        return out;
    }

    // Every round holds the same statements, so the median round is the
    // run's rate with the host's stalls left out.
    let per_round: usize = CLASSES.iter().map(|c| c.per_round).sum();
    let ops_per_s = per_round as f64 / stats::median_f64(&pass.round_secs);
    let rounds = pass.round_secs.len() as u64;
    let checked = CLASSES.len() as u64;
    out.set("setup_s", setup_s, cfg.setup_repeats() as u64);
    out.set("ops_per_s", ops_per_s, rounds);
    // Share of the AP ≡ TP checks that held.
    out.set(
        "accuracy",
        (checked - gate_failures) as f64 / checked as f64,
        checked,
    );
    // Read-only workload: the cell repeats ops_per_s (see README).
    out.set("write_ops_per_s", ops_per_s, rounds);
    for (name, means) in ["p50_us", "scan_p50_us", "agg_p50_us", "join_p50_us"]
        .into_iter()
        .zip(&mut pass.round_means)
    {
        out.set(name, stats::p50_us(means), means.len() as u64);
    }
    out
}
