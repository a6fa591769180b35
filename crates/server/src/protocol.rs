//! The binary wire protocol: length-prefixed, CRC-checked frames.
//!
//! # Frame envelope
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! [len: u32 le][crc: u32 le][payload: len bytes]
//! payload = [opcode: u8][body...]
//! ```
//!
//! `len` is the payload length and is validated against
//! [`MAX_FRAME_LEN`] **before** any allocation happens — a hostile or
//! corrupt length prefix can never trigger an unbounded allocation. `crc`
//! is IEEE CRC-32 over the payload (the same polynomial the WAL uses); a
//! mismatch means the stream integrity is unknown, so the peer receives a
//! structured [`WireError::Protocol`] frame and the connection closes.
//!
//! # Body encoding
//!
//! The frames ([`ClientFrame`], [`ServerFrame`]) and the error frame's body
//! ([`WireError`]) are declared here with `wire_enum!`: every variant with
//! its opcode or error code and its fields in wire order. [`StatsSnapshot`]
//! is declared with `wire_struct!`, and the codes of [`EnginePref`],
//! [`SqlStage`] and [`BusyWhat`] with `code_tables!`. How each field type
//! travels, and what decoding refuses, is stated once in
//! [`qpe_htap::storage::codec`].
//!
//! Errors travel as first-class frames: every [`qpe_htap::HtapError`]
//! variant has a wire form ([`WireError`]) that preserves its structure —
//! `Cancelled`, `Timeout { limit }`, `MemoryBudget { budget, attempted }`
//! and `ReadOnly { cause }` arrive as typed errors a client can match on,
//! never as opaque strings.

use qpe_htap::exec::WorkCounters;
use qpe_htap::storage::codec::{self, DecodeError, Reader, Wire};
use qpe_htap::{code_tables, wire_enum, wire_struct, EngineKind, HtapError};
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use qpe_sql::SqlError;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Protocol version spoken by this crate. `Hello` carries the client's
/// version; the server rejects anything newer than its own.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on one frame's payload length, enforced before allocating.
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Default number of rows per `Rows`/`RowsChunk` frame when the client
/// does not ask for a specific chunk size.
pub const DEFAULT_FETCH_ROWS: u32 = 1024;

/// Most parameters a statement may have over the wire: `Prepared` and
/// `Execute` count them in a `u16`. The server refuses to prepare a wider
/// statement, and the client refuses to send a wider `Execute`.
pub const MAX_PARAMS: usize = u16::MAX as usize;

// ---------------------------------------------------------------------------
// Frame envelope I/O
// ---------------------------------------------------------------------------

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error (includes clean EOF as `UnexpectedEof`).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`]; nothing was allocated.
    Oversized {
        /// The advertised payload length.
        len: u32,
    },
    /// The payload did not checksum; stream integrity is unknown.
    BadCrc,
    /// The envelope was sound but the payload does not decode (unknown
    /// opcode, truncated body, trailing bytes, invalid tag...).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::BadCrc => write!(f, "frame payload failed its CRC check"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (envelope + payload) and flushes. Returns the total
/// bytes put on the wire. Payloads over [`MAX_FRAME_LEN`] are refused
/// (in every build profile) before anything reaches the stream — the
/// receiver would reject the length prefix, and a half-delivered
/// oversized frame would poison the connection for every later reply.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                payload.len()
            ),
        ));
    }
    // Envelope and payload go out in ONE write: sockets here run with
    // TCP_NODELAY, so three small writes would emit three segments and
    // wake the peer's read loop three times per frame.
    let mut wire = Vec::with_capacity(8 + payload.len());
    codec::put_framed(&mut wire, payload);
    w.write_all(&wire)?;
    w.flush()?;
    Ok(wire.len() as u64)
}

/// Reads one frame's payload, enforcing [`MAX_FRAME_LEN`] before the
/// payload allocation and verifying the CRC after the read.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let (len, crc) = frame_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if qpe_htap::storage::crc32(&payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok(payload)
}

/// A frame header's payload length and CRC. The length is refused past
/// [`MAX_FRAME_LEN`] here, before anything is allocated for the payload.
pub(crate) fn frame_header(header: &[u8; 8]) -> Result<(u32, u32), FrameError> {
    let mut h = Reader::new(header);
    let (len, crc) = (u32::get(&mut h)?, u32::get(&mut h)?);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    Ok((len, crc))
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Malformed(e.0)
    }
}

code_tables! {
    EnginePref("engine preference") { Default = 0, Tp = 1, Ap = 2, Dual = 3 }
    SqlStage("sql stage") { Lex = 0, Parse = 1, Bind = 2, Unsupported = 3, ParamNotSupported = 4 }
    BusyWhat("busy kind") { Connections = 0, Statements = 1, PreparedStatements = 2 }
}

// ---------------------------------------------------------------------------
// Engine preference
// ---------------------------------------------------------------------------

/// Which engine(s) an `Execute` should run on — or, in `Hello`, the
/// session's default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EnginePref {
    /// Use the session default negotiated at `Hello` (in `Hello` itself:
    /// dual-run).
    #[default]
    Default,
    /// Pin to the row (OLTP) engine.
    Tp,
    /// Pin to the column (OLAP) engine.
    Ap,
    /// Explicit dual-run (both engines + agreement check), overriding a
    /// pinned session default.
    Dual,
}

impl EnginePref {
    /// The pinned engine, if this preference names one.
    pub fn engine(self) -> Option<EngineKind> {
        match self {
            EnginePref::Tp => Some(EngineKind::Tp),
            EnginePref::Ap => Some(EngineKind::Ap),
            EnginePref::Default | EnginePref::Dual => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Structured errors
// ---------------------------------------------------------------------------

/// Which SQL front-end stage rejected the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlStage {
    /// Lexer error.
    Lex,
    /// Parser error.
    Parse,
    /// Binder error.
    Bind,
    /// Valid SQL outside the supported subset.
    Unsupported,
    /// A placeholder in a position that cannot be prepared parametrically.
    ParamNotSupported,
}

/// What resource-admission limit rejected the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyWhat {
    /// The server is at its connection cap.
    Connections,
    /// The server is at its in-flight statement cap.
    Statements,
    /// This connection is at its prepared-statement cap; close handles
    /// with `CloseStmt` to free slots.
    PreparedStatements,
}

wire_enum! {
    /// The wire form of every error the server can send. [`HtapError`]
    /// variants map 1:1 (via [`WireError::from`]) so governance and
    /// degraded-mode errors — `Cancelled`, `Timeout`, `MemoryBudget`,
    /// `ReadOnly` — stay typed across the wire; the protocol adds its own
    /// variants for admission (`Busy`), framing (`Protocol`) and statement
    /// bookkeeping (`UnknownStatement`, `NoCursor`).
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireError("error code") {
        /// SQL front-end failure.
        1 => Sql {
            /// The stage that rejected the statement.
            stage: SqlStage,
            /// Byte offset for lex/parse errors (0 otherwise).
            pos: u64,
            /// Human-readable description (the clause, for `ParamNotSupported`).
            message: String,
        },
        /// Planner failure.
        2 => Opt(String),
        /// Executor failure.
        3 => Exec(String),
        /// Dual-run engines disagreed (an engine bug surfacing loudly).
        4 => EngineMismatch {
            /// The query.
            sql: String,
            /// TP row count.
            tp_rows: u64,
            /// AP row count.
            ap_rows: u64,
        },
        /// Wrong number of parameter values.
        5 => ParamCountMismatch {
            /// Declared parameter count.
            expected: u32,
            /// Supplied value count.
            got: u32,
        },
        /// A parameter value does not fit its inferred type.
        6 => ParamTypeMismatch {
            /// 0-based parameter index.
            idx: u32,
            /// The inferred type.
            expected: DataType,
            /// The offending value.
            got: Value,
        },
        /// Durable storage failure.
        7 => Durability(String),
        /// The statement was cancelled (session cancel or out-of-band
        /// `Cancel` frame).
        8 => Cancelled,
        /// The statement exceeded its wall-clock budget.
        9 => Timeout {
            /// The configured limit.
            limit: Duration,
        },
        /// The statement exceeded its memory budget.
        10 => MemoryBudget {
            /// The configured budget in approximate bytes.
            budget_bytes: u64,
            /// What the statement had charged when it tripped.
            attempted_bytes: u64,
        },
        /// The system is in read-only degraded mode; writes are rejected.
        11 => ReadOnly {
            /// Root cause of the degradation.
            cause: String,
        },
        /// A contained executor panic.
        12 => Internal(String),
        /// Admission control rejected the request; retry later.
        13 => Busy {
            /// Which limit was hit.
            what: BusyWhat,
            /// The configured cap.
            limit: u32,
        },
        /// Protocol violation (bad frame, bad opcode, handshake out of order).
        14 => Protocol(String),
        /// `Execute`/`CloseStmt` named a statement id this connection never
        /// prepared (or already closed).
        15 => UnknownStatement {
            /// The offending id.
            stmt_id: u32,
        },
        /// `Fetch` with no open cursor.
        16 => NoCursor,
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Sql { stage, pos, message } => {
                write!(f, "sql ({stage:?} at byte {pos}): {message}")
            }
            WireError::Opt(m) => write!(f, "optimizer: {m}"),
            WireError::Exec(m) => write!(f, "executor: {m}"),
            WireError::EngineMismatch { sql, tp_rows, ap_rows } => write!(
                f,
                "engines disagree on {sql:?}: TP returned {tp_rows} rows, AP {ap_rows}"
            ),
            WireError::ParamCountMismatch { expected, got } => {
                write!(f, "statement expects {expected} parameter(s), {got} supplied")
            }
            WireError::ParamTypeMismatch { idx, expected, got } => {
                write!(f, "parameter ${} expects a {expected:?} value, got {got}", idx + 1)
            }
            WireError::Durability(m) => write!(f, "durability: {m}"),
            WireError::Cancelled => write!(f, "statement cancelled"),
            WireError::Timeout { limit } => write!(f, "statement timed out (limit {limit:?})"),
            WireError::MemoryBudget { budget_bytes, attempted_bytes } => write!(
                f,
                "statement exceeded its memory budget ({attempted_bytes} of {budget_bytes} \
                 approx bytes)"
            ),
            WireError::ReadOnly { cause } => {
                write!(f, "system is read-only (degraded mode): {cause}")
            }
            WireError::Internal(m) => write!(f, "internal executor panic (contained): {m}"),
            WireError::Busy { what, limit } => write!(
                f,
                "server busy: {} cap ({limit}) reached, retry later",
                match what {
                    BusyWhat::Connections => "connection",
                    BusyWhat::Statements => "in-flight statement",
                    BusyWhat::PreparedStatements => "prepared statement",
                }
            ),
            WireError::Protocol(m) => write!(f, "protocol: {m}"),
            WireError::UnknownStatement { stmt_id } => {
                write!(f, "unknown prepared statement id {stmt_id}")
            }
            WireError::NoCursor => write!(f, "no open cursor to fetch from"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<&HtapError> for WireError {
    fn from(e: &HtapError) -> Self {
        match e {
            HtapError::Sql(s) => match s {
                SqlError::Lex { pos, message } => WireError::Sql {
                    stage: SqlStage::Lex,
                    pos: *pos as u64,
                    message: message.clone(),
                },
                SqlError::Parse { pos, message } => WireError::Sql {
                    stage: SqlStage::Parse,
                    pos: *pos as u64,
                    message: message.clone(),
                },
                SqlError::Bind(m) => WireError::Sql {
                    stage: SqlStage::Bind,
                    pos: 0,
                    message: m.clone(),
                },
                SqlError::Unsupported(m) => WireError::Sql {
                    stage: SqlStage::Unsupported,
                    pos: 0,
                    message: m.clone(),
                },
                SqlError::ParamNotSupported { clause } => WireError::Sql {
                    stage: SqlStage::ParamNotSupported,
                    pos: 0,
                    message: (*clause).to_string(),
                },
            },
            HtapError::Opt(o) => WireError::Opt(o.to_string()),
            HtapError::Exec(x) => WireError::Exec(x.to_string()),
            HtapError::EngineMismatch { sql, tp_rows, ap_rows } => WireError::EngineMismatch {
                sql: sql.clone(),
                tp_rows: *tp_rows as u64,
                ap_rows: *ap_rows as u64,
            },
            HtapError::ParamCountMismatch { expected, got } => WireError::ParamCountMismatch {
                expected: *expected as u32,
                got: *got as u32,
            },
            HtapError::ParamTypeMismatch { idx, expected, got } => WireError::ParamTypeMismatch {
                idx: *idx as u32,
                expected: *expected,
                got: got.clone(),
            },
            HtapError::Durability(d) => WireError::Durability(d.to_string()),
            HtapError::Cancelled => WireError::Cancelled,
            HtapError::Timeout { limit } => WireError::Timeout { limit: *limit },
            HtapError::MemoryBudget { budget_bytes, attempted_bytes } => WireError::MemoryBudget {
                budget_bytes: *budget_bytes,
                attempted_bytes: *attempted_bytes,
            },
            HtapError::ReadOnly { cause } => WireError::ReadOnly { cause: cause.clone() },
            HtapError::Internal(m) => WireError::Internal(m.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

wire_enum! {
    /// A client → server message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ClientFrame("client opcode") {
        /// Handshake: must be the first frame on a connection (except
        /// [`ClientFrame::Cancel`], which needs no session). Negotiates the
        /// session's [`qpe_htap::StatementLimits`] (0 = unlimited; the server
        /// additionally applies its own caps) and default engine preference.
        1 => Hello {
            /// Client protocol version.
            version: u16,
            /// Requested statement timeout in nanoseconds (0 = none).
            timeout_ns: u64,
            /// Requested memory budget in approximate bytes (0 = none).
            memory_budget: u64,
            /// Session-default engine routing (`Default` = dual-run).
            engine: EnginePref,
        },
        /// Runs the SQL front end once; the statement is cached server-side
        /// (and in the system-wide plan cache).
        2 => Prepare {
            /// The SQL text, `?`/`$n` placeholders included.
            sql: String,
        },
        /// Executes a prepared statement with typed parameter values.
        3 => Execute {
            /// Id from [`ServerFrame::Prepared`].
            stmt_id: u32,
            /// Engine routing for this execution (`Default` = session default).
            engine: EnginePref,
            /// Max rows in the inline first chunk (0 = server default).
            max_rows: u32,
            /// Parameter values, in declaration order (at most [`MAX_PARAMS`]).
            params: Vec<Value> [u16],
        },
        /// Pulls the next chunk of the open result cursor.
        4 => Fetch {
            /// Max rows in the reply (0 = server default).
            max_rows: u32,
        },
        /// Drops a prepared statement's connection-local handle.
        5 => CloseStmt {
            /// Id from [`ServerFrame::Prepared`].
            stmt_id: u32,
        },
        /// Out-of-band cancellation of *another* connection's in-flight
        /// statement, addressed by the target's `Hello` credentials. Valid as
        /// the first frame of a fresh connection (the canceling side cannot
        /// wait for its own in-flight request to finish).
        6 => Cancel {
            /// Target connection id.
            conn_id: u64,
            /// Target's secret (anti-spoofing).
            secret: u64,
        },
        /// Requests server-wide + session counters and health.
        7 => Stats,
        /// Clean disconnect.
        8 => Goodbye,
    }
}

wire_enum! {
    /// A server → client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServerFrame("server opcode") {
        /// Handshake accepted; `conn_id`/`secret` are the cancellation
        /// credentials another connection may use against this one.
        128 => HelloOk {
            /// This connection's id.
            conn_id: u64,
            /// This connection's cancel secret.
            secret: u64,
            /// Server protocol version.
            version: u16,
        },
        /// Statement prepared.
        129 => Prepared {
            /// Connection-local statement id.
            stmt_id: u32,
            /// Per-parameter inferred types (`None` = unconstrained; at most
            /// [`MAX_PARAMS`]).
            param_types: Vec<Option<DataType>> [u16],
        },
        /// A query's result header plus its first row chunk.
        130 => Rows {
            /// Engine whose run produced these rows (dual runs report the
            /// winner; both engines' rows are verified identical first).
            engine: EngineKind,
            /// True when this was a dual run (both latencies populated).
            dual: bool,
            /// Simulated TP latency in ns (0 when not run).
            tp_latency_ns: u64,
            /// Simulated AP latency in ns (0 when not run).
            ap_latency_ns: u64,
            /// Work performed. Dual runs always carry the TP run's counters
            /// (the deterministic side, matching what an in-process caller
            /// reads off `QueryOutcome::tp`) even when `engine` names AP as
            /// the latency winner; pinned runs carry the pinned engine's.
            counters: WorkCounters,
            /// Total rows in the result (across all chunks).
            total_rows: u64,
            /// This chunk's rows.
            rows: Vec<Vec<Value>> [u32],
            /// True when more chunks remain (use [`ClientFrame::Fetch`]).
            more: bool,
        },
        /// A write statement's outcome.
        131 => DmlOk {
            /// Rows affected.
            rows_affected: u64,
            /// Simulated TP latency in ns.
            latency_ns: u64,
            /// Work performed (scan + write counters).
            counters: WorkCounters,
        },
        /// A follow-up chunk of the open cursor.
        132 => RowsChunk {
            /// This chunk's rows.
            rows: Vec<Vec<Value>> [u32],
            /// True when more chunks remain.
            more: bool,
        },
        /// Statement closed.
        133 => Closed {
            /// The closed statement id.
            stmt_id: u32,
        },
        /// Cancellation processed.
        134 => CancelOk {
            /// Whether a live connection matched the credentials.
            matched: bool,
        },
        /// Counters + health snapshot.
        135 => StatsReply(Box<StatsSnapshot>),
        /// Clean disconnect acknowledged; the server closes after sending.
        136 => GoodbyeOk,
        /// The request failed; the connection stays usable unless the error is
        /// a framing-integrity one (CRC/oversize), after which the server
        /// disconnects.
        137 => Error(WireError),
    }
}

wire_struct! {
    /// Server-wide and per-session counters plus system health, as carried by
    /// [`ServerFrame::StatsReply`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StatsSnapshot {
        /// Connections accepted since start.
        pub connections_accepted: u64,
        /// Connections rejected by admission control.
        pub connections_rejected: u64,
        /// Currently open connections.
        pub connections_active: u64,
        /// Statements executed to completion (success or statement error).
        pub statements_executed: u64,
        /// Statements rejected by admission control (in-flight or
        /// prepared-statement caps).
        pub statements_rejected: u64,
        /// Out-of-band cancel requests that matched a live connection.
        pub cancels_matched: u64,
        /// Frames that failed to decode (malformed, bad CRC, oversized).
        pub protocol_errors: u64,
        /// Error frames sent (statement errors included).
        pub errors_sent: u64,
        /// Total bytes read from clients.
        pub bytes_read: u64,
        /// Total bytes written to clients.
        pub bytes_written: u64,
        /// Statements this session executed (success or error).
        pub session_statements: u64,
        /// Result + DML rows this session received.
        pub session_rows: u64,
        /// Bytes read from this session's connection.
        pub session_bytes_read: u64,
        /// Bytes written to this session's connection.
        pub session_bytes_written: u64,
        /// True while the system is in read-only degraded mode.
        pub degraded: bool,
        /// Root cause when degraded (empty otherwise).
        pub degraded_cause: String,
        /// Writer panics absorbed by the engine.
        pub writer_panics: u64,
        /// WAL flush retries absorbed by the engine.
        pub wal_flush_retries: u64,
    }
}

impl ClientFrame {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a frame payload; rejects unknown opcodes, truncated bodies
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<ClientFrame, FrameError> {
        Ok(codec::decode(payload)?)
    }
}

impl ServerFrame {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a frame payload; rejects unknown opcodes, truncated bodies
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<ServerFrame, FrameError> {
        Ok(codec::decode(payload)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn htap_errors_map_typed() {
        // The governance/degraded variants the server must round-trip as
        // typed errors, not strings.
        assert_eq!(WireError::from(&HtapError::Cancelled), WireError::Cancelled);
        assert_eq!(
            WireError::from(&HtapError::Timeout { limit: Duration::from_secs(1) }),
            WireError::Timeout { limit: Duration::from_secs(1) }
        );
        assert_eq!(
            WireError::from(&HtapError::MemoryBudget { budget_bytes: 10, attempted_bytes: 20 }),
            WireError::MemoryBudget { budget_bytes: 10, attempted_bytes: 20 }
        );
        assert_eq!(
            WireError::from(&HtapError::ReadOnly { cause: "wal".into() }),
            WireError::ReadOnly { cause: "wal".into() }
        );
        assert_eq!(
            WireError::from(&HtapError::ParamCountMismatch { expected: 3, got: 1 }),
            WireError::ParamCountMismatch { expected: 3, got: 1 }
        );
    }

    #[test]
    fn envelope_round_trips_and_validates() {
        let payload = ClientFrame::Stats.encode();
        let mut wire = Vec::new();
        let written = write_frame(&mut wire, &payload).unwrap();
        assert_eq!(written as usize, wire.len());
        let back = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back, payload);

        // Flip one payload bit: CRC must catch it.
        let mut corrupt = wire.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut corrupt.as_slice()),
            Err(FrameError::BadCrc)
        ));

        // Oversized length prefix: rejected before allocation.
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        oversized.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice()),
            Err(FrameError::Oversized { .. })
        ));

        // Truncated stream: clean I/O error, not a hang or panic.
        let truncated = &wire[..wire.len() - 2];
        assert!(matches!(
            read_frame(&mut &truncated[..]),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn write_frame_refuses_oversized_payloads_in_release_builds() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(wire.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = ClientFrame::Goodbye.encode();
        payload.push(0);
        assert!(matches!(
            ClientFrame::decode(&payload),
            Err(FrameError::Malformed(_))
        ));
    }
}
