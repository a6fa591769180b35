//! The TCP server: thread-per-connection over a bounded accept pool.
//!
//! [`Server::start`] binds a listener and spawns one accept thread; every
//! accepted connection gets its own handler thread and its own
//! [`qpe_htap::Session`] over the shared [`qpe_htap::HtapSystem`], so the
//! engine's own concurrency story (shared read lock, MVCC snapshots,
//! single writer) carries over unchanged. The server adds the network
//! concerns on top:
//!
//! - **Handshake**: the first frame must be `Hello` (or an out-of-band
//!   `Cancel`). `Hello` negotiates the session's [`StatementLimits`] —
//!   the client's requested timeout/memory budget, clamped to the server's
//!   configured caps — and a default engine preference, and returns the
//!   `(conn_id, secret)` credentials another connection can use to cancel
//!   this one.
//! - **Admission control**: at most [`ServerConfig::max_connections`]
//!   concurrent connections, [`ServerConfig::max_inflight_statements`]
//!   concurrently-executing statements, and
//!   [`ServerConfig::max_prepared_statements`] open prepared handles per
//!   connection; beyond any cap the client gets a structured
//!   [`WireError::Busy`] frame (and, for connections, a disconnect),
//!   never a hang or a silent drop.
//! - **Out-of-band cancel**: a `Cancel { conn_id, secret }` frame — on a
//!   fresh connection or an established one — raises the target session's
//!   cancel flag through the same [`qpe_htap::exec::CancelHandle`] the
//!   in-process API uses; the target's in-flight statement returns a typed
//!   `Cancelled` error frame at its next block/morsel boundary.
//! - **Graceful shutdown**: [`Server::shutdown`] stops accepting, cancels
//!   every in-flight statement, lets each connection thread finish its
//!   current reply (the drain), then joins all threads. Handlers that are
//!   still blocked on a socket after a grace window — a peer that sent a
//!   partial frame and went silent, or one that stopped reading its reply
//!   — get their sockets forced shut so the join is always bounded.
//!
//! Connection handlers read with a short socket timeout and poll the stop
//! flag between (and during) frames, so shutdown is observed within
//! ~100 ms even by idle connections. Partial reads across a timeout are
//! preserved — a frame straddling poll ticks decodes intact. Once the
//! stop flag is up, a mid-frame read is abandoned after a bounded drain
//! window (`STOP_DRAIN_POLLS` ticks): the stream desync that would
//! normally forbid abandoning a partial read is irrelevant when the
//! connection is being torn down.

use crate::protocol::{
    encoded_row_len, write_frame, BusyWhat, ClientFrame, EnginePref, FrameError, ServerFrame,
    StatsSnapshot, WireError, DEFAULT_FETCH_ROWS, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::stats::{ServerStats, SessionStats};
use qpe_htap::exec::{CancelHandle, StatementLimits, WorkCounters};
use qpe_htap::{EngineKind, HtapSystem, PreparedStatement, Session, StatementOutcome};
use qpe_sql::value::Value;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Extra poll ticks a mid-frame read is granted after the stop flag is
/// observed, so a frame already in flight can finish arriving. Past the
/// window the read is abandoned — the connection is being torn down, so
/// losing stream sync no longer matters.
const STOP_DRAIN_POLLS: u32 = 5;

/// How long [`Server::shutdown`] waits for handlers to drain gracefully
/// before forcing their sockets shut. Must exceed the read drain window
/// (`POLL_INTERVAL * STOP_DRAIN_POLLS`) so the forced path only fires for
/// handlers blocked somewhere polling cannot reach (e.g. a write to a
/// peer that stopped reading).
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Backoff after a failed `accept()`: a persistent error such as fd
/// exhaustion (precisely when the server is overloaded) must not turn the
/// accept thread into a 100% CPU busy-loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection cap; excess connects get `Busy` + disconnect.
    pub max_connections: u32,
    /// Concurrently-executing statement cap across all connections; excess
    /// `Execute`s get a `Busy` error (the connection stays usable).
    pub max_inflight_statements: u32,
    /// Per-connection cap on open prepared-statement handles; excess
    /// `Prepare`s get a `Busy` error until the client `CloseStmt`s some.
    /// Bounds server memory against a client preparing in a loop.
    pub max_prepared_statements: u32,
    /// Upper bound on the per-session statement timeout a `Hello` may
    /// request (`None` = no cap). Also applied when the client requests no
    /// timeout at all.
    pub max_statement_timeout: Option<Duration>,
    /// Upper bound on the per-session memory budget a `Hello` may request
    /// (`None` = no cap). Also applied when the client requests no budget.
    pub max_memory_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_inflight_statements: 32,
            max_prepared_statements: 256,
            max_statement_timeout: None,
            max_memory_budget: None,
        }
    }
}

/// One live connection's cancellation entry in the server registry.
struct ConnEntry {
    secret: u64,
    cancel: CancelHandle,
}

/// State shared between the accept loop, connection threads, and the
/// embedding application.
struct Shared {
    system: Arc<HtapSystem>,
    config: ServerConfig,
    stats: ServerStats,
    stop: AtomicBool,
    /// Statements currently executing, across all connections.
    inflight: AtomicU32,
    next_conn_id: AtomicU64,
    /// conn_id → cancel credentials, for out-of-band `Cancel`.
    registry: Mutex<HashMap<u64, ConnEntry>>,
    /// Live connection-handler threads (reaped opportunistically, joined
    /// at shutdown).
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Socket clones of live connections, keyed by an accept-time token
    /// (present from accept, before any `Hello`), so shutdown can force
    /// sockets shut under handlers still blocked on I/O after the grace
    /// window.
    sockets: Mutex<HashMap<u64, TcpStream>>,
    next_sock_token: AtomicU64,
}

/// A running network front end. Dropping without [`Server::shutdown`]
/// leaks the accept thread; call `shutdown` (the tests and binaries do).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port; [`Server::addr`]
    /// reports the resolved one) and starts accepting.
    pub fn start(
        system: Arc<HtapSystem>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            system,
            config,
            stats: ServerStats::default(),
            stop: AtomicBool::new(false),
            inflight: AtomicU32::new(0),
            next_conn_id: AtomicU64::new(1),
            registry: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            sockets: Mutex::new(HashMap::new()),
            next_sock_token: AtomicU64::new(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("qpe-server-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolved ephemeral port included).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-wide counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The shared system this server fronts.
    pub fn system(&self) -> &Arc<HtapSystem> {
        &self.shared.system
    }

    /// Graceful shutdown: stop accepting, cancel every in-flight
    /// statement, drain connection threads (each finishes its current
    /// reply), join everything. Handlers still blocked on a socket after
    /// `SHUTDOWN_GRACE` — a peer that sent a partial frame and went
    /// silent, or stopped reading its reply — get their sockets forced
    /// shut, so this never hangs on a misbehaving client. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Cancel in-flight statements so the drain is bounded by one
        // block/morsel boundary, not one statement.
        {
            let registry = self.shared.registry.lock().expect("registry lock");
            for entry in registry.values() {
                entry.cancel.cancel();
            }
        }
        // Wake the accept loop out of `accept()` with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Phase 1 (graceful): handlers observe the stop flag within one
        // poll tick (idle or between frames) or one drain window
        // (mid-frame) and exit after finishing their current reply.
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        loop {
            let all_done = {
                let h = self.shared.handlers.lock().expect("handlers lock");
                h.iter().all(|t| t.is_finished())
            };
            if all_done || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Phase 2 (forced): whoever is still alive is blocked on a socket
        // polling cannot reach; shut the sockets down to unblock them.
        {
            let sockets = self.shared.sockets.lock().expect("sockets lock");
            for s in sockets.values() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let handlers = {
            let mut h = self.shared.handlers.lock().expect("handlers lock");
            std::mem::take(&mut *h)
        };
        for t in handlers {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Connection admission: compare-and-bump under the registry lock's
        // shadow is overkill; a relaxed check is fine because the cap is a
        // soft protective bound, not an invariant.
        let active = ServerStats::get(&shared.stats.connections_active);
        if active >= shared.config.max_connections as u64 {
            ServerStats::bump(&shared.stats.connections_rejected);
            reject_busy(stream, &shared);
            continue;
        }
        ServerStats::bump(&shared.stats.connections_accepted);
        ServerStats::bump(&shared.stats.connections_active);
        // Register a socket clone so shutdown can force the stream shut
        // under a handler blocked on I/O (`Shutdown` acts on the shared
        // underlying socket, not the clone).
        let sock_token = shared.next_sock_token.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            let mut sockets = shared.sockets.lock().expect("sockets lock");
            sockets.insert(sock_token, clone);
        }
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("qpe-server-conn".into())
            .spawn(move || {
                Connection::run(stream, Arc::clone(&conn_shared));
                conn_shared
                    .sockets
                    .lock()
                    .expect("sockets lock")
                    .remove(&sock_token);
                conn_shared
                    .stats
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            });
        match handle {
            Ok(h) => {
                let mut handlers = shared.handlers.lock().expect("handlers lock");
                handlers.retain(|t| !t.is_finished());
                handlers.push(h);
            }
            Err(_) => {
                shared
                    .sockets
                    .lock()
                    .expect("sockets lock")
                    .remove(&sock_token);
                shared
                    .stats
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Tells an over-cap client why it is being turned away, then disconnects.
/// The brief read-drain matters: closing with the client's `Hello` still
/// unread would RST the connection and discard the `Busy` frame from the
/// client's receive buffer — draining until EOF (or a short timeout) lets
/// the rejection arrive intact.
fn reject_busy(mut stream: TcpStream, shared: &Shared) {
    let frame = ServerFrame::Error(WireError::Busy {
        what: BusyWhat::Connections,
        limit: shared.config.max_connections,
    });
    ServerStats::bump(&shared.stats.errors_sent);
    if write_frame(&mut stream, &frame.encode()).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 256];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Reads into `buf[*filled..]` until full, polling `stop` across read
/// timeouts. Partial progress survives a timeout — `filled` advances
/// monotonically, so a frame straddling poll ticks is reassembled intact.
/// Returns `Ok(true)` when full, `Ok(false)` when `stop` was observed and
/// the read abandoned — immediately when no bytes of `buf` had arrived,
/// after the [`STOP_DRAIN_POLLS`] drain window mid-buffer (a peer that
/// goes silent mid-frame must not pin this thread past shutdown) — and
/// `Err` on I/O failure (EOF included).
fn read_full_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    filled: &mut usize,
    stop: &AtomicBool,
) -> io::Result<bool> {
    let mut stop_polls = 0u32;
    while *filled < buf.len() {
        match stream.read(&mut buf[*filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => *filled += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    if *filled == 0 {
                        return Ok(false);
                    }
                    stop_polls += 1;
                    if stop_polls >= STOP_DRAIN_POLLS {
                        return Ok(false);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// What one poll-read of a frame produced.
enum PolledFrame {
    /// A complete, CRC-verified payload.
    Payload(Vec<u8>),
    /// The stop flag was raised at a frame boundary.
    Stopped,
    /// The peer closed or the stream failed; handler should exit quietly.
    Disconnected,
    /// Envelope-integrity failure (oversize/CRC); handler sends the error
    /// and disconnects.
    Broken(FrameError),
}

/// Reads one frame with stop-flag polling and the pre-allocation length
/// cap. Counts received bytes into both stat scopes.
fn read_frame_polling(
    stream: &mut TcpStream,
    shared: &Shared,
    session_stats: &SessionStats,
) -> PolledFrame {
    let mut header = [0u8; 8];
    let mut filled = 0;
    match read_full_polling(stream, &mut header, &mut filled, &shared.stop) {
        Ok(true) => {}
        Ok(false) => return PolledFrame::Stopped,
        Err(_) => return PolledFrame::Disconnected,
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return PolledFrame::Broken(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    // Mid-frame, stop abandons the read after a bounded drain window —
    // the connection is being torn down, so stream desync is moot.
    match read_full_polling(stream, &mut payload, &mut filled, &shared.stop) {
        Ok(true) => {}
        Ok(false) => return PolledFrame::Stopped,
        Err(_) => return PolledFrame::Disconnected,
    }
    let wire_bytes = 8 + len as u64;
    ServerStats::add(&shared.stats.bytes_read, wire_bytes);
    ServerStats::add(&session_stats.bytes_read, wire_bytes);
    if qpe_htap::storage::crc32(&payload) != crc {
        return PolledFrame::Broken(FrameError::BadCrc);
    }
    PolledFrame::Payload(payload)
}

/// RAII slot in the global in-flight statement budget.
struct InflightSlot<'a>(&'a Shared);

impl<'a> InflightSlot<'a> {
    /// Claims a slot, or reports the cap that refused it.
    fn claim(shared: &'a Shared) -> Result<InflightSlot<'a>, WireError> {
        let cap = shared.config.max_inflight_statements;
        let prev = shared.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= cap {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            ServerStats::bump(&shared.stats.statements_rejected);
            return Err(WireError::Busy {
                what: BusyWhat::Statements,
                limit: cap,
            });
        }
        Ok(InflightSlot(shared))
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Byte budget for one `Rows`/`RowsChunk` frame's row data, leaving
/// headroom under [`MAX_FRAME_LEN`] for the frame's fixed header fields
/// (opcode, engine, latencies, counters, totals — well under 4 KiB).
const CHUNK_BYTE_BUDGET: usize = MAX_FRAME_LEN as usize - 4096;

/// An open result cursor: the full materialized result, a read position,
/// and the chunk protocol's `more` flag derives from what's left.
struct Cursor {
    rows: Vec<Vec<Value>>,
    pos: usize,
}

impl Cursor {
    /// The next chunk, bounded by `max_rows` **and** by encoded byte size
    /// (wide string rows must not assemble a frame past the protocol's
    /// length cap). `Err(bytes)` means the single next row alone exceeds
    /// the budget and no frame can carry it.
    fn next_chunk(&mut self, max_rows: u32) -> Result<(Vec<Vec<Value>>, bool), usize> {
        let max = if max_rows == 0 {
            DEFAULT_FETCH_ROWS
        } else {
            max_rows
        } as usize;
        let mut bytes = 0usize;
        let mut end = self.pos;
        while end < self.rows.len() && end - self.pos < max {
            let row_bytes = encoded_row_len(&self.rows[end]);
            if bytes + row_bytes > CHUNK_BYTE_BUDGET {
                if end == self.pos {
                    return Err(row_bytes);
                }
                break;
            }
            bytes += row_bytes;
            end += 1;
        }
        let chunk = self.rows[self.pos..end].to_vec();
        self.pos = end;
        Ok((chunk, self.pos < self.rows.len()))
    }
}

/// The typed error for a result row no frame can carry.
fn oversized_row_error(bytes: usize) -> WireError {
    WireError::Exec(format!(
        "result row of {bytes} encoded bytes exceeds the {MAX_FRAME_LEN}-byte frame cap"
    ))
}

/// One connection's server-side state.
struct Connection {
    stream: TcpStream,
    shared: Arc<Shared>,
    session_stats: SessionStats,
    session: Option<Session>,
    limits: StatementLimits,
    conn_id: u64,
    statements: HashMap<u32, PreparedStatement>,
    next_stmt_id: u32,
    cursor: Option<Cursor>,
}

impl Connection {
    fn run(stream: TcpStream, shared: Arc<Shared>) {
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = stream.set_nodelay(true);
        let mut conn = Connection {
            stream,
            shared,
            session_stats: SessionStats::default(),
            session: None,
            limits: StatementLimits::unlimited(),
            conn_id: 0,
            statements: HashMap::new(),
            next_stmt_id: 1,
            cursor: None,
        };
        conn.serve();
        // Deregister (no-op when the handshake never completed).
        if conn.conn_id != 0 {
            let mut registry = conn.shared.registry.lock().expect("registry lock");
            registry.remove(&conn.conn_id);
        }
    }

    fn serve(&mut self) {
        loop {
            let shared = Arc::clone(&self.shared);
            let payload = match read_frame_polling(&mut self.stream, &shared, &self.session_stats) {
                PolledFrame::Payload(p) => p,
                PolledFrame::Stopped | PolledFrame::Disconnected => return,
                PolledFrame::Broken(e) => {
                    ServerStats::bump(&shared.stats.protocol_errors);
                    let _ = self.send(ServerFrame::Error(WireError::Protocol(e.to_string())));
                    return;
                }
            };
            let frame = match ClientFrame::decode(&payload) {
                Ok(f) => f,
                Err(e) => {
                    ServerStats::bump(&shared.stats.protocol_errors);
                    // The envelope was sound, so the stream is still in
                    // sync; report and keep serving.
                    let _ = self.send(ServerFrame::Error(WireError::Protocol(e.to_string())));
                    continue;
                }
            };
            if !self.dispatch(frame) {
                return;
            }
        }
    }

    /// Handles one decoded frame; `false` ends the connection.
    fn dispatch(&mut self, frame: ClientFrame) -> bool {
        match frame {
            ClientFrame::Hello { version, timeout_ns, memory_budget, engine } => {
                self.on_hello(version, timeout_ns, memory_budget, engine)
            }
            ClientFrame::Cancel { conn_id, secret } => {
                // Valid with or without a session of its own.
                let matched = self.shared.cancel_conn(conn_id, secret);
                let _ = self.send(ServerFrame::CancelOk { matched });
                // A pure cancel connection (no Hello) is one-shot.
                self.session.is_some()
            }
            _ if self.session.is_none() => {
                ServerStats::bump(&self.shared.stats.protocol_errors);
                let _ = self.send(ServerFrame::Error(WireError::Protocol(
                    "first frame must be Hello (or Cancel)".into(),
                )));
                false
            }
            ClientFrame::Prepare { sql } => self.on_prepare(&sql),
            ClientFrame::Execute { stmt_id, engine, max_rows, params } => {
                self.on_execute(stmt_id, engine, max_rows, &params)
            }
            ClientFrame::Fetch { max_rows } => self.on_fetch(max_rows),
            ClientFrame::CloseStmt { stmt_id } => {
                let reply = if self.statements.remove(&stmt_id).is_some() {
                    ServerFrame::Closed { stmt_id }
                } else {
                    ServerFrame::Error(WireError::UnknownStatement { stmt_id })
                };
                self.send(reply).is_ok()
            }
            ClientFrame::Stats => {
                let snapshot = self.stats_snapshot();
                self.send(ServerFrame::StatsReply(Box::new(snapshot))).is_ok()
            }
            ClientFrame::Goodbye => {
                let _ = self.send(ServerFrame::GoodbyeOk);
                false
            }
        }
    }

    fn on_hello(
        &mut self,
        version: u16,
        timeout_ns: u64,
        memory_budget: u64,
        engine: EnginePref,
    ) -> bool {
        if self.session.is_some() {
            let _ = self.send(ServerFrame::Error(WireError::Protocol(
                "duplicate Hello".into(),
            )));
            return true;
        }
        if version > PROTOCOL_VERSION {
            ServerStats::bump(&self.shared.stats.protocol_errors);
            let _ = self.send(ServerFrame::Error(WireError::Protocol(format!(
                "client protocol version {version} is newer than server {PROTOCOL_VERSION}"
            ))));
            return false;
        }
        // Negotiate limits: the client's request, clamped to server caps;
        // no request (0) adopts the cap itself, if any.
        let requested_timeout = (timeout_ns > 0).then(|| Duration::from_nanos(timeout_ns));
        let timeout = match (requested_timeout, self.shared.config.max_statement_timeout) {
            (Some(r), Some(cap)) => Some(r.min(cap)),
            (Some(r), None) => Some(r),
            (None, cap) => cap,
        };
        let requested_budget = (memory_budget > 0).then_some(memory_budget);
        let budget = match (requested_budget, self.shared.config.max_memory_budget) {
            (Some(r), Some(cap)) => Some(r.min(cap)),
            (Some(r), None) => Some(r),
            (None, cap) => cap,
        };
        self.limits = StatementLimits {
            timeout,
            memory_budget: budget,
        };

        let session = Session::new(Arc::clone(&self.shared.system));
        session.pin_engine(engine.engine());
        let conn_id = self.shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        let secret = fresh_secret(conn_id);
        {
            let mut registry = self.shared.registry.lock().expect("registry lock");
            registry.insert(
                conn_id,
                ConnEntry {
                    secret,
                    cancel: session.cancel_handle(),
                },
            );
        }
        self.session = Some(session);
        self.conn_id = conn_id;
        self.send(ServerFrame::HelloOk {
            conn_id,
            secret,
            version: PROTOCOL_VERSION,
        })
        .is_ok()
    }

    fn on_prepare(&mut self, sql: &str) -> bool {
        // Handle cap: ids are never reused, so without it a client
        // preparing in a loop would grow this map without bound.
        let cap = self.shared.config.max_prepared_statements;
        if self.statements.len() as u64 >= cap as u64 {
            ServerStats::bump(&self.shared.stats.statements_rejected);
            return self
                .send(ServerFrame::Error(WireError::Busy {
                    what: BusyWhat::PreparedStatements,
                    limit: cap,
                }))
                .is_ok();
        }
        let session = self.session.as_ref().expect("session after Hello");
        match session.prepare(sql) {
            Ok(stmt) => {
                let stmt_id = self.next_stmt_id;
                self.next_stmt_id += 1;
                let param_types = stmt.param_types().to_vec();
                self.statements.insert(stmt_id, stmt);
                self.send(ServerFrame::Prepared { stmt_id, param_types }).is_ok()
            }
            Err(e) => self.send(ServerFrame::Error(WireError::from(&e))).is_ok(),
        }
    }

    fn on_execute(
        &mut self,
        stmt_id: u32,
        engine: EnginePref,
        max_rows: u32,
        params: &[Value],
    ) -> bool {
        let Some(stmt) = self.statements.get(&stmt_id) else {
            return self
                .send(ServerFrame::Error(WireError::UnknownStatement { stmt_id }))
                .is_ok();
        };
        let shared = Arc::clone(&self.shared);
        let slot = match InflightSlot::claim(&shared) {
            Ok(s) => s,
            Err(busy) => return self.send(ServerFrame::Error(busy)).is_ok(),
        };
        // `Default` follows the session pin set at Hello; `Dual` names no
        // engine, so it runs both.
        let route = if engine == EnginePref::Default {
            self.session.as_ref().expect("session after Hello").engine_pin()
        } else {
            engine.engine()
        };
        let outcome = stmt.execute_with(params, &self.limits, route);
        drop(slot);
        ServerStats::bump(&self.shared.stats.statements_executed);
        ServerStats::bump(&self.session_stats.statements);
        match outcome {
            Ok(StatementOutcome::Query(q)) => {
                // Dual run: rows were verified identical across engines;
                // report the winner as the serving engine and the TP run's
                // counters (the deterministic choice — identical to what an
                // in-process caller reads off `QueryOutcome::tp`).
                let winner = q.winner();
                self.send_rows(
                    winner,
                    true,
                    q.tp.latency_ns,
                    q.ap.latency_ns,
                    q.tp.counters,
                    q.tp.rows,
                    max_rows,
                )
            }
            Ok(StatementOutcome::PinnedQuery(p)) => {
                let (tp_ns, ap_ns) = match p.run.engine {
                    EngineKind::Tp => (p.run.latency_ns, 0),
                    EngineKind::Ap => (0, p.run.latency_ns),
                };
                self.send_rows(
                    p.run.engine,
                    false,
                    tp_ns,
                    ap_ns,
                    p.run.counters,
                    p.run.rows,
                    max_rows,
                )
            }
            Ok(StatementOutcome::Dml(d)) => {
                self.cursor = None;
                ServerStats::add(&self.session_stats.rows, d.result.rows_affected);
                self.send(ServerFrame::DmlOk {
                    rows_affected: d.result.rows_affected,
                    latency_ns: d.latency_ns,
                    counters: d.counters,
                })
                .is_ok()
            }
            Err(e) => {
                self.cursor = None;
                self.send(ServerFrame::Error(WireError::from(&e))).is_ok()
            }
        }
    }

    /// Registers `all_rows` as the open cursor and sends the result
    /// header plus its first chunk. A row too wide for any frame becomes
    /// a typed error instead of an unsendable frame (the connection
    /// stays usable; the cursor is dropped).
    #[allow(clippy::too_many_arguments)]
    fn send_rows(
        &mut self,
        engine: EngineKind,
        dual: bool,
        tp_latency_ns: u64,
        ap_latency_ns: u64,
        counters: WorkCounters,
        all_rows: Vec<Vec<Value>>,
        max_rows: u32,
    ) -> bool {
        let total = all_rows.len() as u64;
        ServerStats::add(&self.session_stats.rows, total);
        let mut cursor = Cursor { rows: all_rows, pos: 0 };
        match cursor.next_chunk(max_rows) {
            Ok((rows, more)) => {
                self.cursor = more.then_some(cursor);
                self.send(ServerFrame::Rows {
                    engine,
                    dual,
                    tp_latency_ns,
                    ap_latency_ns,
                    counters,
                    total_rows: total,
                    rows,
                    more,
                })
                .is_ok()
            }
            Err(bytes) => {
                self.cursor = None;
                self.send(ServerFrame::Error(oversized_row_error(bytes))).is_ok()
            }
        }
    }

    fn on_fetch(&mut self, max_rows: u32) -> bool {
        let Some(cursor) = self.cursor.as_mut() else {
            return self.send(ServerFrame::Error(WireError::NoCursor)).is_ok();
        };
        match cursor.next_chunk(max_rows) {
            Ok((rows, more)) => {
                if !more {
                    self.cursor = None;
                }
                self.send(ServerFrame::RowsChunk { rows, more }).is_ok()
            }
            Err(bytes) => {
                self.cursor = None;
                self.send(ServerFrame::Error(oversized_row_error(bytes))).is_ok()
            }
        }
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        let health = self.shared.system.health();
        StatsSnapshot {
            connections_accepted: ServerStats::get(&s.connections_accepted),
            connections_rejected: ServerStats::get(&s.connections_rejected),
            connections_active: ServerStats::get(&s.connections_active),
            statements_executed: ServerStats::get(&s.statements_executed),
            statements_rejected: ServerStats::get(&s.statements_rejected),
            cancels_matched: ServerStats::get(&s.cancels_matched),
            protocol_errors: ServerStats::get(&s.protocol_errors),
            errors_sent: ServerStats::get(&s.errors_sent),
            bytes_read: ServerStats::get(&s.bytes_read),
            bytes_written: ServerStats::get(&s.bytes_written),
            session_statements: ServerStats::get(&self.session_stats.statements),
            session_rows: ServerStats::get(&self.session_stats.rows),
            session_bytes_read: ServerStats::get(&self.session_stats.bytes_read),
            session_bytes_written: ServerStats::get(&self.session_stats.bytes_written),
            degraded: health.degraded,
            degraded_cause: health.degraded_cause.unwrap_or_default(),
            writer_panics: health.writer_panics,
            wal_flush_retries: health.wal_flush_retries,
        }
    }

    /// Encodes and writes one reply, counting bytes and error frames.
    fn send(&mut self, frame: ServerFrame) -> io::Result<()> {
        if matches!(frame, ServerFrame::Error(_)) {
            ServerStats::bump(&self.shared.stats.errors_sent);
        }
        let n = write_frame(&mut self.stream, &frame.encode())?;
        ServerStats::add(&self.shared.stats.bytes_written, n);
        ServerStats::add(&self.session_stats.bytes_written, n);
        Ok(())
    }
}

impl Shared {
    /// Raises the cancel flag of the connection matching the credentials.
    fn cancel_conn(&self, conn_id: u64, secret: u64) -> bool {
        let registry = self.registry.lock().expect("registry lock");
        match registry.get(&conn_id) {
            Some(entry) if entry.secret == secret => {
                entry.cancel.cancel();
                ServerStats::bump(&self.stats.cancels_matched);
                true
            }
            _ => false,
        }
    }
}

/// An unguessable-enough cancel secret without a PRNG dependency: the
/// std hash map's per-instance random seed, keyed by the connection id.
fn fresh_secret(conn_id: u64) -> u64 {
    let mut h = RandomState::new().build_hasher();
    h.write_u64(conn_id);
    h.finish()
}
