//! Blocking client library for the wire protocol.
//!
//! [`Client`] wraps one TCP connection: `connect` performs the `Hello`
//! handshake, `prepare`/`execute` drive the statement lifecycle, and
//! result chunks are drained transparently (or stepped manually with
//! [`Client::execute_chunked`] / [`Client::fetch`]). Errors split three
//! ways: transport ([`ClientError::Io`]/[`ClientError::Frame`]), protocol
//! surprises ([`ClientError::Unexpected`]), and the server's own typed
//! [`WireError`]s ([`ClientError::Server`]) — so `Cancelled`, `Timeout`,
//! `MemoryBudget`, `ReadOnly` and `Busy` stay matchable at the client.

use crate::protocol::{
    read_frame, write_frame, ClientFrame, EnginePref, FrameError, ServerFrame, StatsSnapshot,
    WireError, MAX_PARAMS, PROTOCOL_VERSION,
};
use qpe_htap::exec::WorkCounters;
use qpe_htap::EngineKind;
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not frame/decode.
    Frame(FrameError),
    /// The server replied with a typed error frame.
    Server(WireError),
    /// The server replied with a well-formed frame of the wrong kind.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Unexpected(m) => write!(f, "unexpected reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

type ClientResult<T> = Result<T, ClientError>;

/// Session options negotiated at `Hello`.
#[derive(Debug, Clone, Default)]
pub struct ConnectOptions {
    /// Requested per-statement timeout (server may clamp).
    pub timeout: Option<Duration>,
    /// Requested per-statement memory budget (server may clamp).
    pub memory_budget: Option<u64>,
    /// Session-default engine routing.
    pub engine: EnginePref,
}

/// A prepared statement's client-side handle.
#[derive(Debug, Clone)]
pub struct RemoteStatement {
    /// Connection-local id to pass to `execute`.
    pub stmt_id: u32,
    /// Per-parameter inferred types (`None` = unconstrained).
    pub param_types: Vec<Option<DataType>>,
}

/// A query's full result, chunks drained.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Engine that served the rows (dual runs report the faster one).
    pub engine: EngineKind,
    /// True when both engines ran (and agreed).
    pub dual: bool,
    /// Simulated TP latency in ns (0 when TP did not run).
    pub tp_latency_ns: u64,
    /// Simulated AP latency in ns (0 when AP did not run).
    pub ap_latency_ns: u64,
    /// Work performed. Dual runs always report the TP run's counters
    /// (the deterministic side, matching what an in-process caller reads
    /// off `QueryOutcome::tp`) even when `engine` names AP as the latency
    /// winner; pinned runs report the pinned engine's counters.
    pub counters: WorkCounters,
    /// All result rows.
    pub rows: Vec<Vec<Value>>,
}

/// A DML statement's outcome.
#[derive(Debug, Clone)]
pub struct DmlSummary {
    /// Rows affected.
    pub rows_affected: u64,
    /// Simulated TP latency in ns.
    pub latency_ns: u64,
    /// Work performed.
    pub counters: WorkCounters,
}

/// What one `execute` produced.
#[derive(Debug, Clone)]
pub enum ExecOutcome {
    /// A read's rows.
    Rows(QueryResult),
    /// A write's summary.
    Dml(DmlSummary),
}

impl ExecOutcome {
    /// The query result, if this was a read.
    pub fn rows(&self) -> Option<&QueryResult> {
        match self {
            ExecOutcome::Rows(q) => Some(q),
            ExecOutcome::Dml(_) => None,
        }
    }

    /// The DML summary, if this was a write.
    pub fn dml(&self) -> Option<&DmlSummary> {
        match self {
            ExecOutcome::Dml(d) => Some(d),
            ExecOutcome::Rows(_) => None,
        }
    }
}

/// One client connection (post-handshake).
pub struct Client {
    stream: TcpStream,
    conn_id: u64,
    secret: u64,
}

impl Client {
    /// Connects and handshakes with default options (no limits, dual-run).
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        Client::connect_with(addr, &ConnectOptions::default())
    }

    /// Connects and handshakes with explicit session options.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: &ConnectOptions) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            conn_id: 0,
            secret: 0,
        };
        let timeout_ns = opts
            .timeout
            .map(|t| t.as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let reply = client.round_trip(ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            timeout_ns,
            memory_budget: opts.memory_budget.unwrap_or(0),
            engine: opts.engine,
        })?;
        match reply {
            ServerFrame::HelloOk { conn_id, secret, .. } => {
                client.conn_id = conn_id;
                client.secret = secret;
                Ok(client)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// The credentials another connection needs to cancel this one's
    /// in-flight statement ([`Client::cancel_other`]).
    pub fn cancel_credentials(&self) -> (u64, u64) {
        (self.conn_id, self.secret)
    }

    /// Out-of-band cancel: opens a fresh connection to `addr` and sends a
    /// bare `Cancel` frame (no handshake needed). Returns whether the
    /// credentials matched a live connection.
    pub fn cancel_other(
        addr: impl ToSocketAddrs,
        conn_id: u64,
        secret: u64,
    ) -> ClientResult<bool> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &ClientFrame::Cancel { conn_id, secret }.encode())?;
        let payload = read_frame(&mut stream)?;
        match ServerFrame::decode(&payload)? {
            ServerFrame::CancelOk { matched } => Ok(matched),
            ServerFrame::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("CancelOk", &other)),
        }
    }

    /// Prepares a statement server-side.
    pub fn prepare(&mut self, sql: &str) -> ClientResult<RemoteStatement> {
        match self.round_trip(ClientFrame::Prepare { sql: sql.into() })? {
            ServerFrame::Prepared { stmt_id, param_types } => {
                Ok(RemoteStatement { stmt_id, param_types })
            }
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// Executes a prepared statement under the session's default engine
    /// routing, draining every result chunk.
    pub fn execute(&mut self, stmt_id: u32, params: &[Value]) -> ClientResult<ExecOutcome> {
        self.execute_pref(stmt_id, EnginePref::Default, params)
    }

    /// Executes pinned to one engine (or [`EnginePref::Dual`] to force a
    /// dual-run over a pinned session), draining every result chunk.
    pub fn execute_pref(
        &mut self,
        stmt_id: u32,
        engine: EnginePref,
        params: &[Value],
    ) -> ClientResult<ExecOutcome> {
        let (mut outcome, mut more) = self.execute_chunked(stmt_id, engine, 0, params)?;
        while more {
            let (chunk, m) = self.fetch(0)?;
            if let ExecOutcome::Rows(q) = &mut outcome {
                q.rows.extend(chunk);
            }
            more = m;
        }
        Ok(outcome)
    }

    /// Executes without draining: returns the first chunk (of at most
    /// `max_rows` rows; 0 = server default) and whether more remain. More
    /// than [`MAX_PARAMS`] parameters fail with an `InvalidInput`
    /// [`ClientError::Io`] before anything is sent.
    pub fn execute_chunked(
        &mut self,
        stmt_id: u32,
        engine: EnginePref,
        max_rows: u32,
        params: &[Value],
    ) -> ClientResult<(ExecOutcome, bool)> {
        if params.len() > MAX_PARAMS {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} parameters; the wire carries at most {MAX_PARAMS}", params.len()),
            )));
        }
        let reply = self.round_trip(ClientFrame::Execute {
            stmt_id,
            engine,
            max_rows,
            params: params.to_vec(),
        })?;
        match reply {
            ServerFrame::Rows {
                engine,
                dual,
                tp_latency_ns,
                ap_latency_ns,
                counters,
                rows,
                more,
                ..
            } => Ok((
                ExecOutcome::Rows(QueryResult {
                    engine,
                    dual,
                    tp_latency_ns,
                    ap_latency_ns,
                    counters,
                    rows,
                }),
                more,
            )),
            ServerFrame::DmlOk { rows_affected, latency_ns, counters } => Ok((
                ExecOutcome::Dml(DmlSummary {
                    rows_affected,
                    latency_ns,
                    counters,
                }),
                false,
            )),
            other => Err(unexpected("Rows or DmlOk", &other)),
        }
    }

    /// Pulls the next chunk of the open cursor.
    pub fn fetch(&mut self, max_rows: u32) -> ClientResult<(Vec<Vec<Value>>, bool)> {
        match self.round_trip(ClientFrame::Fetch { max_rows })? {
            ServerFrame::RowsChunk { rows, more } => Ok((rows, more)),
            other => Err(unexpected("RowsChunk", &other)),
        }
    }

    /// Closes a prepared statement's server-side handle.
    pub fn close_stmt(&mut self, stmt_id: u32) -> ClientResult<()> {
        match self.round_trip(ClientFrame::CloseStmt { stmt_id })? {
            ServerFrame::Closed { .. } => Ok(()),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Server + session counters and system health.
    pub fn stats(&mut self) -> ClientResult<StatsSnapshot> {
        match self.round_trip(ClientFrame::Stats)? {
            ServerFrame::StatsReply(s) => Ok(*s),
            other => Err(unexpected("StatsReply", &other)),
        }
    }

    /// Clean disconnect: `Goodbye`, await the ack, drop the socket.
    pub fn goodbye(mut self) -> ClientResult<()> {
        match self.round_trip(ClientFrame::Goodbye)? {
            ServerFrame::GoodbyeOk => Ok(()),
            other => Err(unexpected("GoodbyeOk", &other)),
        }
    }

    /// Sends one frame and reads one reply, turning server `Error` frames
    /// into [`ClientError::Server`].
    fn round_trip(&mut self, frame: ClientFrame) -> ClientResult<ServerFrame> {
        write_frame(&mut self.stream, &frame.encode())?;
        let payload = read_frame(&mut self.stream)?;
        match ServerFrame::decode(&payload)? {
            ServerFrame::Error(e) => Err(ClientError::Server(e)),
            f => Ok(f),
        }
    }

    /// The peer address (the server).
    pub fn server_addr(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }
}

fn unexpected(wanted: &str, got: &ServerFrame) -> ClientError {
    ClientError::Unexpected(format!("wanted {wanted}, got {got:?}"))
}
