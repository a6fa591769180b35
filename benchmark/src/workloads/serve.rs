//! `serve_point` and `serve_mixed` — the wire server under a SQL client.
//!
//! `serve_point`: two connections of TP-pinned prepared point lookups over
//! `customer` at scale 0.05 (7 500 rows) on an in-memory system. Framing,
//! the thread hand-off and the session/prepared path are nearly all of a
//! round trip; the executor is about a microsecond of it, WAL and MVCC idle.
//!
//! `serve_mixed`: connection 1 sends the same point reads, and every 50th
//! statement is AP-pinned (range scan, group-by, join in turn); connection 2
//! streams durable single-row INSERT/DELETE cycles over a steady 2 000-row
//! window until the reader is done. The system is durable (default group
//! commit, default background compaction) in a directory of the checkout.
//! Afterwards it is dropped without `close`, reopened, and every
//! acknowledged and not deleted insert must be there. Against `serve_point`
//! it isolates what a writer costs a reader.

use super::{timed_setup, trace_overhead_pct, RunCfg};
use crate::metrics::Outcome;
use crate::stats;
use crate::tape::{self, Digest, KeyStream};
use crate::trace::{self, Tracer};
use qpe_htap::engine::{BackgroundCompaction, DurabilityOptions};
use qpe_htap::{EngineKind, HtapSystem, PreparedStatement, Session, TpchConfig, WalStats};
use qpe_server::client::{Client, ConnectOptions, ExecOutcome, QueryResult};
use qpe_server::protocol::{
    read_frame, write_frame, ClientFrame, EnginePref, ServerFrame, StatsSnapshot,
};
use qpe_server::server::{Server, ServerConfig};
use qpe_sql::value::Value;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Point,
    Mixed,
}

const SCALE: f64 = 0.05;

/// `loadgen`'s prepared OLTP point lookup.
const POINT_SQL: &str = "SELECT c_name, c_acctbal FROM customer \
    WHERE c_custkey = ? AND c_mktsegment = ? AND c_acctbal BETWEEN ? AND ? \
    AND c_nationkey <> ? AND c_phone <> ? AND c_name IS NOT NULL";
/// The analytical statements of `serve_mixed`, in the order they take turns.
/// The range scan and the join read only rows the writer never touches, so
/// their rows compare against the in-process oracle while it writes.
const AP_SQL: [&str; 3] = [
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_custkey BETWEEN ? AND ?",
    "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer \
     GROUP BY c_nationkey ORDER BY c_nationkey",
    "SELECT COUNT(*), SUM(o_totalprice) FROM customer, orders \
     WHERE o_custkey = c_custkey AND c_nationkey = ?",
];
const GROUP_BY: usize = 1;
const INSERT_SQL: &str = "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, \
    c_acctbal, c_mktsegment) VALUES (?, ?, ?, '20-000-000-0000', 1.5, 'machinery')";
const DELETE_SQL: &str = "DELETE FROM customer WHERE c_custkey = ?";
const LIVE_SQL: &str = "SELECT c_custkey FROM customer WHERE c_custkey >= ?";
const BASE_COUNT_SQL: &str = "SELECT COUNT(*) FROM customer WHERE c_custkey < ?";

/// One statement in this many is analytical on `serve_mixed`'s reader.
const AP_EVERY: u64 = 50;
/// One reply in this many is compared with the in-process oracle's rows. A
/// prime near 1 024, so the check lands on every statement class.
const CHECK_EVERY: u64 = 1021;
/// The writer's keys start here, far above the generated ones.
const WRITER_BASE: i64 = 1_000_000;
/// Keys of the traced pass's in-process DML probe.
const PROBE_BASE: i64 = 2_000_000;
/// Rows the writer keeps alive.
const WRITER_WINDOW: usize = 2000;
const WARMUP_READS: usize = 2000;
const LANE_KEYS: u64 = 1;
const LANE_AP: u64 = 16;

fn point_params(key: i64) -> Vec<Value> {
    vec![
        Value::Int(key),
        Value::Str("machinery".into()),
        Value::Float(-100000.0),
        Value::Float(100000.0),
        Value::Int(26),
        Value::Str("none".into()),
    ]
}

/// Removes the durable workload's data directory when set-up is dropped.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The in-process statements a connection's replies are checked against.
struct Oracle {
    session: Session,
    point: PreparedStatement,
    ap: Vec<PreparedStatement>,
}

impl Oracle {
    fn new(sys: &Arc<HtapSystem>, mode: Mode) -> Self {
        let session = Session::new(Arc::clone(sys));
        let prepare = |sql| {
            session
                .prepare(sql)
                .expect("the workload's statements prepare")
        };
        let point = prepare(POINT_SQL);
        let ap = if mode == Mode::Mixed {
            AP_SQL.iter().map(|s| prepare(s)).collect()
        } else {
            Vec::new()
        };
        Oracle { session, point, ap }
    }

    fn rows(
        stmt: &PreparedStatement,
        engine: EngineKind,
        params: &[Value],
    ) -> Option<Vec<Vec<Value>>> {
        let outcome = stmt.execute_on(engine, params).ok()?;
        outcome.rows().map(<[_]>::to_vec)
    }
}

/// A reading connection: TP-pinned, its statements prepared.
struct Reader {
    client: Client,
    point: u32,
    ap: Vec<u32>,
    keys: KeyStream,
    ap_rng: StdRng,
    n_keys: i64,
    oracle: Oracle,
}

/// What a statement of the reader's tape is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stmt {
    Point,
    Ap(usize),
}

impl Reader {
    fn connect(
        server: &Server,
        sys: &Arc<HtapSystem>,
        mode: Mode,
        seed: u64,
        lane: u64,
        n_keys: i64,
    ) -> Self {
        let opts = ConnectOptions {
            engine: EnginePref::Tp,
            ..ConnectOptions::default()
        };
        let mut client =
            Client::connect_with(server.addr(), &opts).expect("connect to the server just started");
        let point = client
            .prepare(POINT_SQL)
            .expect("prepare over the wire")
            .stmt_id;
        let ap = if mode == Mode::Mixed {
            AP_SQL
                .iter()
                .map(|s| client.prepare(s).expect("prepare over the wire").stmt_id)
                .collect()
        } else {
            Vec::new()
        };
        Reader {
            client,
            point,
            ap,
            keys: KeyStream::new(seed, LANE_KEYS + lane, n_keys),
            ap_rng: tape::rng(seed, LANE_AP + lane),
            n_keys,
            oracle: Oracle::new(sys, mode),
        }
    }

    /// The `i`th statement of this connection's tape.
    fn next_stmt(&mut self, i: u64) -> (Stmt, Vec<Value>) {
        if !self.ap.is_empty() && i % AP_EVERY == AP_EVERY - 1 {
            let which = ((i / AP_EVERY) % AP_SQL.len() as u64) as usize;
            let params = match which {
                0 => {
                    let width = self.n_keys / 10;
                    let lo = self.ap_rng.gen_range(1..=self.n_keys - width);
                    vec![Value::Int(lo), Value::Int(lo + width)]
                }
                GROUP_BY => Vec::new(),
                _ => vec![Value::Int(self.ap_rng.gen_range(0..25))],
            };
            (Stmt::Ap(which), params)
        } else {
            (Stmt::Point, point_params(self.keys.next_key()))
        }
    }

    fn execute(&mut self, stmt: Stmt, params: &[Value]) -> Option<QueryResult> {
        let reply = match stmt {
            Stmt::Point => self.client.execute(self.point, params),
            Stmt::Ap(which) => self
                .client
                .execute_pref(self.ap[which], EnginePref::Ap, params),
        };
        match reply {
            Ok(ExecOutcome::Rows(q)) => Some(q),
            _ => None,
        }
    }

    /// True when the reply's rows are the in-process oracle's. The group-by
    /// counts the writer's rows, so beside a writer only its groups compare.
    fn reply_is_right(
        &self,
        stmt: Stmt,
        params: &[Value],
        reply: &QueryResult,
        beside_writer: bool,
    ) -> bool {
        let want = match stmt {
            Stmt::Point => Oracle::rows(&self.oracle.point, EngineKind::Tp, params),
            Stmt::Ap(which) => Oracle::rows(&self.oracle.ap[which], EngineKind::Ap, params),
        };
        let Some(want) = want else { return false };
        if stmt == Stmt::Ap(GROUP_BY) && beside_writer {
            let groups =
                |rows: &[Vec<Value>]| rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>();
            return groups(&want) == groups(&reply.rows);
        }
        want == reply.rows
    }
}

/// The writing connection of `serve_mixed`.
struct Writer {
    client: Client,
    insert: u32,
    delete: u32,
    next_key: i64,
    /// Acknowledged inserts not yet deleted, oldest first.
    live: VecDeque<i64>,
}

impl Writer {
    fn connect(server: &Server) -> Self {
        let mut client =
            Client::connect(server.addr()).expect("connect to the server just started");
        let insert = client
            .prepare(INSERT_SQL)
            .expect("prepare over the wire")
            .stmt_id;
        let delete = client
            .prepare(DELETE_SQL)
            .expect("prepare over the wire")
            .stmt_id;
        Writer {
            client,
            insert,
            delete,
            next_key: WRITER_BASE,
            live: VecDeque::new(),
        }
    }

    fn acked(reply: Result<ExecOutcome, qpe_server::ClientError>) -> bool {
        matches!(reply, Ok(ExecOutcome::Dml(d)) if d.rows_affected == 1)
    }

    /// One durable insert; true when acknowledged.
    fn insert_next(&mut self) -> bool {
        let key = self.next_key;
        self.next_key += 1;
        let params = [
            Value::Int(key),
            Value::Str(format!("bench#{key}")),
            Value::Int(key % 25),
        ];
        let ok = Self::acked(self.client.execute(self.insert, &params));
        if ok {
            self.live.push_back(key);
        }
        ok
    }

    /// Deletes the oldest live row; true when acknowledged.
    fn delete_oldest(&mut self) -> bool {
        let Some(key) = self.live.pop_front() else {
            return true;
        };
        Self::acked(self.client.execute(self.delete, &[Value::Int(key)]))
    }
}

struct Setup {
    // Dropped in this order: connections, then the server (its drop shuts
    // it down), then the system, then the data directory.
    readers: Vec<Reader>,
    writer: Option<Writer>,
    server: Server,
    sys: Arc<HtapSystem>,
    dir: Option<DataDir>,
    n_keys: i64,
}

fn durability() -> DurabilityOptions {
    DurabilityOptions {
        background: Some(BackgroundCompaction::default()),
        ..DurabilityOptions::default()
    }
}

fn setup(cfg: &RunCfg, mode: Mode) -> Setup {
    let tpch = TpchConfig::with_scale(SCALE);
    let (sys, dir) = match mode {
        Mode::Point => (HtapSystem::new(&tpch), None),
        Mode::Mixed => {
            // One name per process: a repeated set-up starts after the
            // previous one (and its directory) is gone.
            let dir = cfg.out_dir.join(format!("data-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir)
                .expect("create the data directory under the out directory");
            let sys = HtapSystem::open_with(&dir, &tpch, durability())
                .expect("create the durable system");
            (sys, Some(DataDir(dir)))
        }
    };
    let sys = Arc::new(sys);
    let n_keys = sys
        .database()
        .stored_table("customer")
        .expect("customer exists")
        .row_count() as i64;
    let server = Server::start(Arc::clone(&sys), "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");

    let n_readers = if mode == Mode::Point { 2 } else { 1 };
    let mut readers: Vec<Reader> = (0..n_readers)
        .map(|c| Reader::connect(&server, &sys, mode, cfg.seed, c, n_keys))
        .collect();
    for r in &mut readers {
        for key in 1..=WARMUP_READS as i64 {
            r.client
                .execute(r.point, &point_params(1 + key % n_keys))
                .expect("warm-up read");
        }
        for which in 0..r.ap.len() {
            let (_, params) = r.next_stmt((which as u64 + 1) * AP_EVERY - 1);
            r.execute(Stmt::Ap(which), &params).expect("warm-up scan");
        }
    }
    let writer = (mode == Mode::Mixed).then(|| {
        let mut w = Writer::connect(&server);
        for _ in 0..WRITER_WINDOW {
            assert!(w.insert_next(), "filling the writer's window");
        }
        w
    });
    Setup {
        readers,
        writer,
        server,
        sys,
        dir,
        n_keys,
    }
}

/// Wire ≡ in-process before any load: rows and work counters of the point
/// lookup dual-run, TP-pinned and AP-pinned, and rows of each analytical
/// statement. Returns (checks, mismatches) and feeds the replies' rows to
/// the output digest.
fn equivalence_gate(r: &mut Reader, n_keys: i64, digest: &mut Digest) -> (u64, u64) {
    let (mut checks, mut bad) = (0u64, 0u64);
    for key in [1, 42, n_keys / 2, n_keys] {
        let params = point_params(key);
        let want = r
            .oracle
            .point
            .execute_dual_with(&params, &Default::default());
        let want = want.as_ref().ok().and_then(|o| o.as_query());
        for pref in [EnginePref::Dual, EnginePref::Tp, EnginePref::Ap] {
            checks += 1;
            let got = r.client.execute_pref(r.point, pref, &params);
            let same = match (want, got.as_ref().ok().and_then(ExecOutcome::rows)) {
                (Some(want), Some(got)) => {
                    digest.update(format!("{:?}", got.rows).as_bytes());
                    let side = if pref == EnginePref::Ap {
                        &want.ap
                    } else {
                        &want.tp
                    };
                    got.rows == side.rows && got.counters == side.counters
                }
                _ => false,
            };
            bad += u64::from(!same);
        }
    }
    for which in 0..r.ap.len() {
        checks += 1;
        let (stmt, params) = r.next_stmt((which as u64 + 1) * AP_EVERY - 1);
        let same = r.execute(stmt, &params).is_some_and(|reply| {
            digest.update(format!("{:?}", reply.rows).as_bytes());
            r.reply_is_right(stmt, &params, &reply, false)
        });
        bad += u64::from(!same);
    }
    (checks, bad)
}

/// A connection's rate: its ops are counted off in blocks of one size, and
/// the rate is the block size over the median block time, which leaves the
/// host's stalls out. The block a pass ends in does not count.
struct BlockRate {
    block_ops: u64,
    in_block: u64,
    block_start: Instant,
    block_secs: Vec<f64>,
}

impl BlockRate {
    fn new(block_ops: u64) -> Self {
        BlockRate {
            block_ops,
            in_block: 0,
            block_start: Instant::now(),
            block_secs: Vec::new(),
        }
    }

    /// Counts one completed op.
    fn tick(&mut self) {
        self.in_block += 1;
        if self.in_block == self.block_ops {
            let now = Instant::now();
            self.block_secs.push((now - self.block_start).as_secs_f64());
            self.block_start = now;
            self.in_block = 0;
        }
    }

    fn per_second(&self) -> f64 {
        match stats::median_f64(&self.block_secs) {
            secs if secs > 0.0 => self.block_ops as f64 / secs,
            _ => 0.0,
        }
    }
}

/// A reader's block on `serve_point`; `serve_mixed`'s is six turns of the
/// analytical statements (two of each), the writer's a few hundred commits.
const POINT_BLOCK: u64 = 4096;
const MIXED_BLOCK: u64 = 6 * AP_EVERY;
const WRITE_BLOCK: u64 = 256;

/// Latencies one connection recorded, by statement.
#[derive(Default)]
struct ConnStats {
    /// Statements per second read and written, by [`BlockRate`]; merged
    /// connections add up.
    reads_per_s: f64,
    writes_per_s: f64,
    point: Vec<u64>,
    ap: [Vec<u64>; 3],
    writes: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Replies compared with the in-process oracle, and those that differed.
    checked: u64,
    mismatched: u64,
}

impl ConnStats {
    fn merge(&mut self, other: ConnStats) {
        self.point.extend(other.point);
        for (a, b) in self.ap.iter_mut().zip(other.ap) {
            a.extend(b);
        }
        self.writes.extend(other.writes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.mismatched += other.mismatched;
        self.reads_per_s += other.reads_per_s;
        self.writes_per_s += other.writes_per_s;
    }
}

/// A reader's closed loop: runs its tape from statement `from` until the
/// window is over or `stop` is up; the leader raises `stop` when it is done.
fn read_loop(
    r: &mut Reader,
    from: u64,
    window: Duration,
    stop: &AtomicBool,
    leader: bool,
    beside_writer: bool,
) -> (ConnStats, u64) {
    let mut st = ConnStats::default();
    let mut rate = BlockRate::new(if r.ap.is_empty() {
        POINT_BLOCK
    } else {
        MIXED_BLOCK
    });
    let start = Instant::now();
    let mut i = from;
    while start.elapsed() < window && !stop.load(Ordering::Relaxed) {
        let (stmt, params) = r.next_stmt(i);
        st.attempted += 1;
        let t = Instant::now();
        let reply = r.execute(stmt, &params);
        let ns = t.elapsed().as_nanos() as u64;
        rate.tick();
        match reply {
            Some(reply) => {
                match stmt {
                    Stmt::Point => st.point.push(ns),
                    Stmt::Ap(which) => st.ap[which].push(ns),
                }
                if i.is_multiple_of(CHECK_EVERY) {
                    st.checked += 1;
                    if !r.reply_is_right(stmt, &params, &reply, beside_writer) {
                        st.mismatched += 1;
                        st.failed += 1;
                    }
                }
            }
            None => st.failed += 1,
        }
        i += 1;
    }
    st.reads_per_s = rate.per_second();
    if leader {
        stop.store(true, Ordering::Relaxed);
    }
    (st, i)
}

/// The writer's closed loop: insert the next key, delete the oldest, until
/// the reader is done.
fn write_loop(w: &mut Writer, stop: &AtomicBool) -> ConnStats {
    let mut st = ConnStats::default();
    let mut rate = BlockRate::new(WRITE_BLOCK);
    while !stop.load(Ordering::Relaxed) {
        for insert in [true, false] {
            st.attempted += 1;
            let t = Instant::now();
            let ok = if insert {
                w.insert_next()
            } else {
                w.delete_oldest()
            };
            if ok {
                st.writes.push(t.elapsed().as_nanos() as u64);
            } else {
                st.failed += 1;
            }
            rate.tick();
        }
    }
    st.writes_per_s = rate.per_second();
    st
}

/// Encode, frame, unframe and decode the request and the reply of one
/// statement over a `Vec`, as client and server do over the socket.
fn frame_codec(stmt_id: u32, params: &[Value], reply: &QueryResult) -> bool {
    fn through_wire(payload: &[u8]) -> Option<Vec<u8>> {
        let mut wire = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut wire, payload).ok()?;
        read_frame(&mut wire.as_slice()).ok()
    }
    let request = ClientFrame::Execute {
        stmt_id,
        engine: EnginePref::Default,
        max_rows: 0,
        params: params.to_vec(),
    };
    let rows = ServerFrame::Rows {
        engine: reply.engine,
        dual: reply.dual,
        tp_latency_ns: reply.tp_latency_ns,
        ap_latency_ns: reply.ap_latency_ns,
        counters: reply.counters,
        total_rows: reply.rows.len() as u64,
        rows: reply.rows.clone(),
        more: false,
    };
    let request_back = through_wire(&request.encode()).and_then(|p| ClientFrame::decode(&p).ok());
    let rows_back = through_wire(&rows.encode()).and_then(|p| ServerFrame::decode(&p).ok());
    request_back.as_ref() == Some(&request) && rows_back.as_ref() == Some(&rows)
}

/// The traced reader: every statement is a root span holding the wire round
/// trip and, beside it, the same statement through the in-process session
/// and the frame codec alone, so the round trip splits into layers.
fn traced_read_loop(
    r: &mut Reader,
    sys: &HtapSystem,
    from: u64,
    window: Duration,
    stop: &AtomicBool,
    beside_writer: bool,
    tr: &mut Tracer,
) -> ConnStats {
    let dml = beside_writer.then(|| {
        let prepare = |sql| {
            r.oracle
                .session
                .prepare(sql)
                .expect("the workload's statements prepare")
        };
        (prepare(INSERT_SQL), prepare(DELETE_SQL))
    });
    let mut st = ConnStats::default();
    let start = Instant::now();
    let mut i = from;
    while start.elapsed() < window && !tr.is_full() {
        let (stmt, params) = r.next_stmt(i);
        st.attempted += 1;
        tr.begin_op("op", i as u32);
        let round_trip = if stmt == Stmt::Point {
            "server.roundtrip"
        } else {
            "server.roundtrip_ap"
        };
        tr.enter(round_trip);
        let reply = r.execute(stmt, &params);
        let ns = tr.exit();
        match reply {
            Some(reply) => {
                if stmt == Stmt::Point {
                    st.point.push(ns);
                    let want = tr.span("htap.session_execute", || {
                        Oracle::rows(&r.oracle.point, EngineKind::Tp, &params)
                    });
                    let framed = tr.span("server.frame_codec", || {
                        frame_codec(r.point, &params, &reply)
                    });
                    if want.as_ref() != Some(&reply.rows) || !framed {
                        st.failed += 1;
                    }
                }
            }
            None => st.failed += 1,
        }
        if beside_writer && i.is_multiple_of(64) {
            drop(tr.span("htap.snapshot_pin", || sys.pin_snapshot()));
        }
        if let Some((insert, delete)) = dml.as_ref().filter(|_| i.is_multiple_of(256)) {
            let key = Value::Int(PROBE_BASE + i as i64);
            let row = [key.clone(), Value::Str("probe".into()), Value::Int(0)];
            let ok = tr.span("htap.session_dml", || insert.execute(&row)).is_ok()
                && tr
                    .span("htap.session_dml", || delete.execute(&[key]))
                    .is_ok();
            st.attempted += 2;
            st.failed += u64::from(!ok);
        }
        tr.exit();
        i += 1;
    }
    stop.store(true, Ordering::Relaxed);
    st
}

/// Runs both connections of one pass side by side and merges what they saw.
/// `traced` makes connection 1 the traced reader.
fn run_pass(
    s: &mut Setup,
    from: u64,
    window: Duration,
    traced: Option<&mut Tracer>,
) -> (ConnStats, ConnStats, u64) {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let beside_writer = s.writer.is_some();
    let sys = Arc::clone(&s.sys);
    let (first, rest) = s.readers.split_first_mut().expect("one reader at least");
    let second_reader = rest.first_mut();
    let writer = s.writer.as_mut();
    let (stop, barrier) = (&stop, &barrier);
    std::thread::scope(|scope| {
        let other = scope.spawn(move || {
            barrier.wait();
            match (second_reader, writer) {
                (Some(r), _) => read_loop(r, from, window, stop, false, false).0,
                (None, Some(w)) => write_loop(w, stop),
                (None, None) => ConnStats::default(),
            }
        });
        barrier.wait();
        let (lead, next) = match traced {
            Some(tr) => (
                traced_read_loop(first, &sys, from, window, stop, beside_writer, tr),
                from,
            ),
            None => read_loop(first, from, window, stop, true, beside_writer),
        };
        let other = other.join().expect("the second connection's thread");
        (lead, other, next)
    })
}

pub fn run(cfg: &RunCfg, mode: Mode) -> Outcome {
    let (mut s, setup_s) = timed_setup(cfg.setup_repeats(), || setup(cfg, mode));
    let mut digest = Digest::default();
    let (gate_checks, gate_failures) = equivalence_gate(&mut s.readers[0], s.n_keys, &mut digest);
    let mut out = Outcome {
        tape_digest: KeyStream::digest(cfg.seed, LANE_KEYS, s.n_keys, 4096),
        output_digest: digest.hex(),
        attempted: gate_checks,
        failed: gate_failures,
        ..Outcome::default()
    };

    let (lead, other, next) = run_pass(&mut s, 0, cfg.untraced_window(), None);
    let mut all = lead;
    all.merge(other);
    out.attempted += all.attempted;
    out.failed += all.failed;

    let mut tracer = Tracer::new();
    if cfg.trace {
        let (lead, other, _) = run_pass(&mut s, next, cfg.traced_window(), Some(&mut tracer));
        out.attempted += lead.attempted + other.attempted;
        out.failed += lead.failed + other.failed;
    }

    // Server-side counters, read over the wire like everything else.
    let stats = Client::connect(s.server.addr()).and_then(|mut probe| {
        let stats = probe.stats();
        probe.goodbye()?;
        stats
    });
    let Ok(stats) = stats else {
        out.failed += 1;
        return out;
    };
    out.failed += stats.protocol_errors + stats.statements_rejected + u64::from(stats.degraded);

    let wal = s.sys.wal_stats();
    let delta_rows = s.sys.freshness("customer").map_or(0, |f| f.delta_rows);
    let plan_cache_hit_rate = s.sys.plan_cache_stats().hit_rate();

    // Crash-style stop: the server goes away, the system is dropped without
    // `close`, and what a reopen finds must be what was acknowledged.
    let Setup {
        readers,
        writer,
        server,
        sys,
        dir,
        n_keys,
    } = s;
    let live: Vec<i64> = writer
        .as_ref()
        .map_or_else(Vec::new, |w| w.live.iter().copied().collect());
    for r in readers {
        let _ = r.client.goodbye();
    }
    if let Some(w) = writer {
        let _ = w.client.goodbye();
    }
    drop(server);
    let mut reopen_ms = 0.0;
    if let Some(dir) = &dir {
        match Arc::try_unwrap(sys) {
            Ok(sys) => drop(sys),
            Err(_) => out.failed += 1,
        }
        let (lost, ms) = reopen_and_verify(&dir.0, &live, n_keys);
        out.attempted += live.len() as u64 + 1;
        out.failed += lost;
        reopen_ms = ms;
    }
    drop(dir);

    if cfg.trace {
        let layers = LayerInputs {
            stats,
            wal,
            delta_rows,
            plan_cache_hit_rate,
            reopen_ms,
        };
        report_layers(&mut out, mode, &mut all, tracer, layers);
        return out;
    }

    let reads = all.point.len() + all.ap.iter().map(Vec::len).sum::<usize>();
    let checked = gate_checks + all.checked;
    let right = checked - gate_failures - all.mismatched;
    out.set("setup_s", setup_s, cfg.setup_repeats() as u64);
    out.set("ops_per_s", all.reads_per_s, reads as u64);
    out.set(
        "p50_us",
        stats::p50_us(&mut all.point),
        all.point.len() as u64,
    );
    // Share of oracle-checked replies that were right.
    out.set("accuracy", right as f64 / checked as f64, checked);
    match mode {
        Mode::Mixed => {
            out.set("write_ops_per_s", all.writes_per_s, all.writes.len() as u64);
            let [range, group_by, join] = &mut all.ap;
            out.set("scan_p50_us", stats::p50_us(range), range.len() as u64);
            out.set("agg_p50_us", stats::p50_us(group_by), group_by.len() as u64);
            out.set("join_p50_us", stats::p50_us(join), join.len() as u64);
        }
        Mode::Point => {
            // The workload has no write, aggregate or join statement: these
            // cells repeat the workload's own figures (see README).
            let p50 = out.values["p50_us"];
            out.set("write_ops_per_s", all.reads_per_s, reads as u64);
            for name in ["scan_p50_us", "agg_p50_us", "join_p50_us"] {
                out.set(name, p50.value, p50.samples);
            }
        }
    }
    out
}

/// What the per-layer report reads beside the trace and the latencies.
struct LayerInputs {
    stats: StatsSnapshot,
    wal: Option<WalStats>,
    delta_rows: usize,
    plan_cache_hit_rate: f64,
    reopen_ms: f64,
}

/// Per-layer metrics of a traced run: span medians from the traced pass,
/// tails from the untraced pass before it (`untraced`), counters from the
/// server and the system.
fn report_layers(
    out: &mut Outcome,
    mode: Mode,
    untraced: &mut ConnStats,
    tracer: Tracer,
    x: LayerInputs,
) {
    let spans = tracer.spans();
    let layers = trace::layer_stats(spans);
    let median = |name: &str| {
        layers
            .get(name)
            .map_or((0.0, 0), |l| (l.median_us, l.count))
    };

    let traced_point: Vec<u64> = spans
        .iter()
        .filter(|sp| sp.name == "server.roundtrip")
        .map(trace::Span::duration_ns)
        .collect();
    // The two passes read different keys of one uniform stream, so the
    // medians compare whole, not op by op: the last untraced reads against
    // as many traced ones.
    let n = untraced.point.len().min(traced_point.len());
    out.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(
            &untraced.point[untraced.point.len() - n..],
            &traced_point[..n],
        ),
        n as u64,
    );

    let (round_trip, n) = median("server.roundtrip");
    let (in_process, _) = median("htap.session_execute");
    out.set("server.roundtrip_us", round_trip, n);
    out.set("htap.session_execute_us", in_process, n);
    out.set("server.wire_overhead_us", round_trip - in_process, n);
    let (codec, n) = median("server.frame_codec");
    out.set("server.frame_codec_us", codec, n);
    let statements = x.stats.statements_executed;
    out.set(
        "server.bytes_per_stmt",
        (x.stats.bytes_read + x.stats.bytes_written) as f64 / statements.max(1) as f64,
        statements,
    );
    out.set(
        "server.read_p99_us",
        stats::pct_us(&mut untraced.point, 99.0),
        untraced.point.len() as u64,
    );
    out.set("server.protocol_errors", x.stats.protocol_errors as f64, 1);
    out.set(
        "server.statements_rejected",
        x.stats.statements_rejected as f64,
        1,
    );
    out.set("htap.plan_cache_hit_rate", x.plan_cache_hit_rate, 1);
    if mode == Mode::Mixed {
        let mut scans: Vec<u64> = untraced.ap.iter().flatten().copied().collect();
        out.set(
            "server.scan_p95_us",
            stats::pct_us(&mut scans, 95.0),
            scans.len() as u64,
        );
        out.set(
            "server.write_p99_us",
            stats::pct_us(&mut untraced.writes, 99.0),
            untraced.writes.len() as u64,
        );
        let (dml, n) = median("htap.session_dml");
        out.set("htap.session_dml_us", dml, n);
        let (pin, n) = median("htap.snapshot_pin");
        out.set("htap.snapshot_pin_us", pin, n);
        if let Some(wal) = x.wal {
            out.set("htap.wal_fsyncs", wal.fsyncs as f64, 1);
            out.set(
                "htap.wal_records_per_fsync",
                wal.records as f64 / wal.fsyncs.max(1) as f64,
                wal.fsyncs,
            );
        }
        out.set("htap.delta_rows_end", x.delta_rows as f64, 1);
        out.set("htap.reopen_ms", x.reopen_ms, 1);
    }
    out.spans = tracer.into_spans();
}

/// Reopens the data directory and counts what differs from the acknowledged
/// state: a live key missing, a deleted key present, a generated row gone.
fn reopen_and_verify(dir: &Path, live: &[i64], n_keys: i64) -> (u64, f64) {
    let t = Instant::now();
    let Ok(sys) = HtapSystem::open_with(
        dir,
        &TpchConfig::with_scale(SCALE),
        DurabilityOptions::default(),
    ) else {
        return (live.len() as u64 + 1, 0.0);
    };
    let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
    let session = Session::new(Arc::new(sys));
    let mut wrong = 0u64;
    for engine in [EngineKind::Tp, EngineKind::Ap] {
        let found = session
            .prepare(LIVE_SQL)
            .ok()
            .and_then(|stmt| Oracle::rows(&stmt, engine, &[Value::Int(WRITER_BASE)]));
        let Some(found) = found else {
            return (live.len() as u64 + 1, reopen_ms);
        };
        let mut found: Vec<i64> = found
            .iter()
            .filter_map(|r| match r[0] {
                Value::Int(k) => Some(k),
                _ => None,
            })
            .collect();
        found.sort_unstable();
        // `live` is ascending by construction.
        let missing = live
            .iter()
            .filter(|k| found.binary_search(k).is_err())
            .count();
        let extra = found
            .iter()
            .filter(|k| live.binary_search(k).is_err())
            .count();
        wrong += (missing + extra) as u64;
    }
    let base = session
        .prepare(BASE_COUNT_SQL)
        .ok()
        .and_then(|stmt| Oracle::rows(&stmt, EngineKind::Tp, &[Value::Int(WRITER_BASE)]));
    if base != Some(vec![vec![Value::Int(n_keys)]]) {
        wrong += 1;
    }
    (wrong, reopen_ms)
}
