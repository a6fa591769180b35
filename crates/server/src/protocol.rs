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
//! All integers are little-endian. Strings and byte blobs are
//! `u32`-length-prefixed; since they are sliced out of an
//! already-length-capped payload, decoding allocates at most one frame's
//! worth of memory. [`Value`]s are tagged (`0`=NULL, `1`=Int, `2`=Float as
//! IEEE bits, `3`=Str, `4`=Date), so every parameter and result cell —
//! NULL included — round-trips typed.
//!
//! Errors travel as first-class frames: every [`qpe_htap::HtapError`]
//! variant has a wire form ([`WireError`]) that preserves its structure —
//! `Cancelled`, `Timeout { limit }`, `MemoryBudget { budget, attempted }`
//! and `ReadOnly { cause }` arrive as typed errors a client can match on,
//! never as opaque strings.

use qpe_htap::exec::WorkCounters;
use qpe_htap::{EngineKind, HtapError};
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
    let len = payload.len() as u32;
    let crc = qpe_htap::storage::crc32(payload);
    // Envelope and payload go out in ONE write: sockets here run with
    // TCP_NODELAY, so three small writes would emit three segments and
    // wake the peer's read loop three times per frame.
    let mut wire = Vec::with_capacity(8 + payload.len());
    wire.extend_from_slice(&len.to_le_bytes());
    wire.extend_from_slice(&crc.to_le_bytes());
    wire.extend_from_slice(payload);
    w.write_all(&wire)?;
    w.flush()?;
    Ok(wire.len() as u64)
}

/// Reads one frame's payload, enforcing [`MAX_FRAME_LEN`] before the
/// payload allocation and verifying the CRC after the read.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if qpe_htap::storage::crc32(&payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Body primitives
// ---------------------------------------------------------------------------

/// Append-only payload builder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A builder starting with `opcode`.
    pub fn with_opcode(opcode: u8) -> Writer {
        Writer { buf: vec![opcode] }
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(2);
                self.put_f64(*f);
            }
            Value::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
            Value::Date(d) => {
                self.put_u8(4);
                self.put_i32(*d);
            }
        }
    }

    fn put_row(&mut self, row: &[Value]) {
        self.put_u32(row.len() as u32);
        for v in row {
            self.put_value(v);
        }
    }

    fn put_counters(&mut self, c: &WorkCounters) {
        let fields = counters_to_array(c);
        self.put_u8(fields.len() as u8);
        for f in fields {
            self.put_u64(f);
        }
    }
}

/// Cursor over a payload; every read is bounds-checked against the frame.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, FrameError>;

fn malformed(msg: impl Into<String>) -> FrameError {
    FrameError::Malformed(msg.into())
}

impl<'a> Reader<'a> {
    /// A reader over one frame payload.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(malformed(format!(
                "body truncated: wanted {n} bytes at offset {}, frame has {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn i32(&mut self) -> DecodeResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> DecodeResult<bool> {
        Ok(self.u8()? != 0)
    }

    fn string(&mut self) -> DecodeResult<String> {
        let n = self.u32()? as usize;
        // `take` bounds n against the remaining frame, so the allocation
        // below is capped by the (already capped) frame length.
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }

    fn value(&mut self) -> DecodeResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Str(self.string()?),
            4 => Value::Date(self.i32()?),
            t => return Err(malformed(format!("unknown value tag {t}"))),
        })
    }

    fn row(&mut self) -> DecodeResult<Vec<Value>> {
        let n = self.u32()? as usize;
        // Each value is ≥1 byte, so a row longer than the remaining frame
        // cannot decode; cap the pre-allocation the same way.
        let mut row = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    fn counters(&mut self) -> DecodeResult<WorkCounters> {
        let n = self.u8()? as usize;
        let mut fields = [0u64; COUNTER_FIELDS];
        // A longer list than we know (a newer peer) decodes its known
        // prefix; the surplus is consumed and dropped.
        for i in 0..n {
            let v = self.u64()?;
            if let Some(slot) = fields.get_mut(i) {
                *slot = v;
            }
        }
        Ok(counters_from_array(&fields))
    }

    /// Fails unless the whole payload was consumed — trailing garbage after
    /// a valid body means the peer and we disagree on the format.
    pub fn expect_end(&self) -> DecodeResult<()> {
        if self.pos != self.buf.len() {
            return Err(malformed(format!(
                "{} trailing byte(s) after a complete body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Number of [`WorkCounters`] fields carried on the wire.
const COUNTER_FIELDS: usize = 18;

/// The wire order of [`WorkCounters`] fields (append-only: new counters go
/// at the end so old readers keep decoding the prefix they know).
fn counters_to_array(c: &WorkCounters) -> [u64; COUNTER_FIELDS] {
    [
        c.rows_scanned,
        c.cells_scanned,
        c.index_probes,
        c.index_fetches,
        c.filter_evals,
        c.nlj_pairs,
        c.hash_build_rows,
        c.hash_probe_rows,
        c.sort_comparisons,
        c.topn_pushes,
        c.agg_rows,
        c.output_rows,
        c.rows_inserted,
        c.rows_updated,
        c.rows_deleted,
        c.index_updates,
        c.blocks_checked,
        c.blocks_pruned,
    ]
}

fn counters_from_array(f: &[u64; COUNTER_FIELDS]) -> WorkCounters {
    WorkCounters {
        rows_scanned: f[0],
        cells_scanned: f[1],
        index_probes: f[2],
        index_fetches: f[3],
        filter_evals: f[4],
        nlj_pairs: f[5],
        hash_build_rows: f[6],
        hash_probe_rows: f[7],
        sort_comparisons: f[8],
        topn_pushes: f[9],
        agg_rows: f[10],
        output_rows: f[11],
        rows_inserted: f[12],
        rows_updated: f[13],
        rows_deleted: f[14],
        index_updates: f[15],
        blocks_checked: f[16],
        blocks_pruned: f[17],
    }
}

/// Exact encoded size of one value cell, matching `Writer::put_value`.
pub(crate) fn encoded_value_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Date(_) => 4,
    }
}

/// Exact encoded size of one row, matching `Writer::put_row`.
pub(crate) fn encoded_row_len(row: &[Value]) -> usize {
    4 + row.iter().map(encoded_value_len).sum::<usize>()
}

fn put_data_type(w: &mut Writer, ty: Option<DataType>) {
    w.put_u8(match ty {
        None => 255,
        Some(DataType::Int) => 0,
        Some(DataType::Float) => 1,
        Some(DataType::Str) => 2,
        Some(DataType::Date) => 3,
    });
}

fn data_type(r: &mut Reader) -> DecodeResult<Option<DataType>> {
    Ok(match r.u8()? {
        255 => None,
        0 => Some(DataType::Int),
        1 => Some(DataType::Float),
        2 => Some(DataType::Str),
        3 => Some(DataType::Date),
        t => return Err(malformed(format!("unknown data type tag {t}"))),
    })
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
    fn code(self) -> u8 {
        match self {
            EnginePref::Default => 0,
            EnginePref::Tp => 1,
            EnginePref::Ap => 2,
            EnginePref::Dual => 3,
        }
    }

    fn from_code(c: u8) -> DecodeResult<EnginePref> {
        Ok(match c {
            0 => EnginePref::Default,
            1 => EnginePref::Tp,
            2 => EnginePref::Ap,
            3 => EnginePref::Dual,
            t => return Err(malformed(format!("unknown engine preference {t}"))),
        })
    }

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

/// The wire form of every error the server can send. [`HtapError`]
/// variants map 1:1 (via [`WireError::from`]) so governance and
/// degraded-mode errors — `Cancelled`, `Timeout`, `MemoryBudget`,
/// `ReadOnly` — stay typed across the wire; the protocol adds its own
/// variants for admission (`Busy`), framing (`Protocol`) and statement
/// bookkeeping (`UnknownStatement`, `NoCursor`).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// SQL front-end failure.
    Sql {
        /// The stage that rejected the statement.
        stage: SqlStage,
        /// Byte offset for lex/parse errors (0 otherwise).
        pos: u64,
        /// Human-readable description (the clause, for `ParamNotSupported`).
        message: String,
    },
    /// Planner failure.
    Opt(String),
    /// Executor failure.
    Exec(String),
    /// Dual-run engines disagreed (an engine bug surfacing loudly).
    EngineMismatch {
        /// The query.
        sql: String,
        /// TP row count.
        tp_rows: u64,
        /// AP row count.
        ap_rows: u64,
    },
    /// Wrong number of parameter values.
    ParamCountMismatch {
        /// Declared parameter count.
        expected: u32,
        /// Supplied value count.
        got: u32,
    },
    /// A parameter value does not fit its inferred type.
    ParamTypeMismatch {
        /// 0-based parameter index.
        idx: u32,
        /// The inferred type.
        expected: DataType,
        /// The offending value.
        got: Value,
    },
    /// Durable storage failure.
    Durability(String),
    /// The statement was cancelled (session cancel or out-of-band
    /// `Cancel` frame).
    Cancelled,
    /// The statement exceeded its wall-clock budget.
    Timeout {
        /// The configured limit.
        limit: Duration,
    },
    /// The statement exceeded its memory budget.
    MemoryBudget {
        /// The configured budget in approximate bytes.
        budget_bytes: u64,
        /// What the statement had charged when it tripped.
        attempted_bytes: u64,
    },
    /// The system is in read-only degraded mode; writes are rejected.
    ReadOnly {
        /// Root cause of the degradation.
        cause: String,
    },
    /// A contained executor panic.
    Internal(String),
    /// Admission control rejected the request; retry later.
    Busy {
        /// Which limit was hit.
        what: BusyWhat,
        /// The configured cap.
        limit: u32,
    },
    /// Protocol violation (bad frame, bad opcode, handshake out of order).
    Protocol(String),
    /// `Execute`/`CloseStmt` named a statement id this connection never
    /// prepared (or already closed).
    UnknownStatement {
        /// The offending id.
        stmt_id: u32,
    },
    /// `Fetch` with no open cursor.
    NoCursor,
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

const ERR_SQL: u8 = 1;
const ERR_OPT: u8 = 2;
const ERR_EXEC: u8 = 3;
const ERR_ENGINE_MISMATCH: u8 = 4;
const ERR_PARAM_COUNT: u8 = 5;
const ERR_PARAM_TYPE: u8 = 6;
const ERR_DURABILITY: u8 = 7;
const ERR_CANCELLED: u8 = 8;
const ERR_TIMEOUT: u8 = 9;
const ERR_MEMORY: u8 = 10;
const ERR_READ_ONLY: u8 = 11;
const ERR_INTERNAL: u8 = 12;
const ERR_BUSY: u8 = 13;
const ERR_PROTOCOL: u8 = 14;
const ERR_UNKNOWN_STMT: u8 = 15;
const ERR_NO_CURSOR: u8 = 16;

fn put_wire_error(w: &mut Writer, e: &WireError) {
    match e {
        WireError::Sql { stage, pos, message } => {
            w.put_u8(ERR_SQL);
            w.put_u8(match stage {
                SqlStage::Lex => 0,
                SqlStage::Parse => 1,
                SqlStage::Bind => 2,
                SqlStage::Unsupported => 3,
                SqlStage::ParamNotSupported => 4,
            });
            w.put_u64(*pos);
            w.put_str(message);
        }
        WireError::Opt(m) => {
            w.put_u8(ERR_OPT);
            w.put_str(m);
        }
        WireError::Exec(m) => {
            w.put_u8(ERR_EXEC);
            w.put_str(m);
        }
        WireError::EngineMismatch { sql, tp_rows, ap_rows } => {
            w.put_u8(ERR_ENGINE_MISMATCH);
            w.put_str(sql);
            w.put_u64(*tp_rows);
            w.put_u64(*ap_rows);
        }
        WireError::ParamCountMismatch { expected, got } => {
            w.put_u8(ERR_PARAM_COUNT);
            w.put_u32(*expected);
            w.put_u32(*got);
        }
        WireError::ParamTypeMismatch { idx, expected, got } => {
            w.put_u8(ERR_PARAM_TYPE);
            w.put_u32(*idx);
            put_data_type(w, Some(*expected));
            w.put_value(got);
        }
        WireError::Durability(m) => {
            w.put_u8(ERR_DURABILITY);
            w.put_str(m);
        }
        WireError::Cancelled => w.put_u8(ERR_CANCELLED),
        WireError::Timeout { limit } => {
            w.put_u8(ERR_TIMEOUT);
            w.put_u64(limit.as_nanos().min(u64::MAX as u128) as u64);
        }
        WireError::MemoryBudget { budget_bytes, attempted_bytes } => {
            w.put_u8(ERR_MEMORY);
            w.put_u64(*budget_bytes);
            w.put_u64(*attempted_bytes);
        }
        WireError::ReadOnly { cause } => {
            w.put_u8(ERR_READ_ONLY);
            w.put_str(cause);
        }
        WireError::Internal(m) => {
            w.put_u8(ERR_INTERNAL);
            w.put_str(m);
        }
        WireError::Busy { what, limit } => {
            w.put_u8(ERR_BUSY);
            w.put_u8(match what {
                BusyWhat::Connections => 0,
                BusyWhat::Statements => 1,
                BusyWhat::PreparedStatements => 2,
            });
            w.put_u32(*limit);
        }
        WireError::Protocol(m) => {
            w.put_u8(ERR_PROTOCOL);
            w.put_str(m);
        }
        WireError::UnknownStatement { stmt_id } => {
            w.put_u8(ERR_UNKNOWN_STMT);
            w.put_u32(*stmt_id);
        }
        WireError::NoCursor => w.put_u8(ERR_NO_CURSOR),
    }
}

fn wire_error(r: &mut Reader) -> DecodeResult<WireError> {
    Ok(match r.u8()? {
        ERR_SQL => WireError::Sql {
            stage: match r.u8()? {
                0 => SqlStage::Lex,
                1 => SqlStage::Parse,
                2 => SqlStage::Bind,
                3 => SqlStage::Unsupported,
                4 => SqlStage::ParamNotSupported,
                t => return Err(malformed(format!("unknown sql stage {t}"))),
            },
            pos: r.u64()?,
            message: r.string()?,
        },
        ERR_OPT => WireError::Opt(r.string()?),
        ERR_EXEC => WireError::Exec(r.string()?),
        ERR_ENGINE_MISMATCH => WireError::EngineMismatch {
            sql: r.string()?,
            tp_rows: r.u64()?,
            ap_rows: r.u64()?,
        },
        ERR_PARAM_COUNT => WireError::ParamCountMismatch {
            expected: r.u32()?,
            got: r.u32()?,
        },
        ERR_PARAM_TYPE => WireError::ParamTypeMismatch {
            idx: r.u32()?,
            expected: data_type(r)?.ok_or_else(|| malformed("param type cannot be None"))?,
            got: r.value()?,
        },
        ERR_DURABILITY => WireError::Durability(r.string()?),
        ERR_CANCELLED => WireError::Cancelled,
        ERR_TIMEOUT => WireError::Timeout {
            limit: Duration::from_nanos(r.u64()?),
        },
        ERR_MEMORY => WireError::MemoryBudget {
            budget_bytes: r.u64()?,
            attempted_bytes: r.u64()?,
        },
        ERR_READ_ONLY => WireError::ReadOnly { cause: r.string()? },
        ERR_INTERNAL => WireError::Internal(r.string()?),
        ERR_BUSY => WireError::Busy {
            what: match r.u8()? {
                0 => BusyWhat::Connections,
                1 => BusyWhat::Statements,
                2 => BusyWhat::PreparedStatements,
                t => return Err(malformed(format!("unknown busy kind {t}"))),
            },
            limit: r.u32()?,
        },
        ERR_PROTOCOL => WireError::Protocol(r.string()?),
        ERR_UNKNOWN_STMT => WireError::UnknownStatement { stmt_id: r.u32()? },
        ERR_NO_CURSOR => WireError::NoCursor,
        t => return Err(malformed(format!("unknown error code {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

const OP_HELLO: u8 = 1;
const OP_PREPARE: u8 = 2;
const OP_EXECUTE: u8 = 3;
const OP_FETCH: u8 = 4;
const OP_CLOSE_STMT: u8 = 5;
const OP_CANCEL: u8 = 6;
const OP_STATS: u8 = 7;
const OP_GOODBYE: u8 = 8;

const OP_HELLO_OK: u8 = 128;
const OP_PREPARED: u8 = 129;
const OP_ROWS: u8 = 130;
const OP_DML_OK: u8 = 131;
const OP_ROWS_CHUNK: u8 = 132;
const OP_CLOSED: u8 = 133;
const OP_CANCEL_OK: u8 = 134;
const OP_STATS_REPLY: u8 = 135;
const OP_GOODBYE_OK: u8 = 136;
const OP_ERROR: u8 = 137;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Handshake: must be the first frame on a connection (except
    /// [`ClientFrame::Cancel`], which needs no session). Negotiates the
    /// session's [`qpe_htap::StatementLimits`] (0 = unlimited; the server
    /// additionally applies its own caps) and default engine preference.
    Hello {
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
    Prepare {
        /// The SQL text, `?`/`$n` placeholders included.
        sql: String,
    },
    /// Executes a prepared statement with typed parameter values.
    Execute {
        /// Id from [`ServerFrame::Prepared`].
        stmt_id: u32,
        /// Engine routing for this execution (`Default` = session default).
        engine: EnginePref,
        /// Max rows in the inline first chunk (0 = server default).
        max_rows: u32,
        /// Parameter values, in declaration order.
        params: Vec<Value>,
    },
    /// Pulls the next chunk of the open result cursor.
    Fetch {
        /// Max rows in the reply (0 = server default).
        max_rows: u32,
    },
    /// Drops a prepared statement's connection-local handle.
    CloseStmt {
        /// Id from [`ServerFrame::Prepared`].
        stmt_id: u32,
    },
    /// Out-of-band cancellation of *another* connection's in-flight
    /// statement, addressed by the target's `Hello` credentials. Valid as
    /// the first frame of a fresh connection (the canceling side cannot
    /// wait for its own in-flight request to finish).
    Cancel {
        /// Target connection id.
        conn_id: u64,
        /// Target's secret (anti-spoofing).
        secret: u64,
    },
    /// Requests server-wide + session counters and health.
    Stats,
    /// Clean disconnect.
    Goodbye,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Handshake accepted; `conn_id`/`secret` are the cancellation
    /// credentials another connection may use against this one.
    HelloOk {
        /// This connection's id.
        conn_id: u64,
        /// This connection's cancel secret.
        secret: u64,
        /// Server protocol version.
        version: u16,
    },
    /// Statement prepared.
    Prepared {
        /// Connection-local statement id.
        stmt_id: u32,
        /// Per-parameter inferred types (`None` = unconstrained).
        param_types: Vec<Option<DataType>>,
    },
    /// A query's result header plus its first row chunk.
    Rows {
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
        rows: Vec<Vec<Value>>,
        /// True when more chunks remain (use [`ClientFrame::Fetch`]).
        more: bool,
    },
    /// A write statement's outcome.
    DmlOk {
        /// Rows affected.
        rows_affected: u64,
        /// Simulated TP latency in ns.
        latency_ns: u64,
        /// Work performed (scan + write counters).
        counters: WorkCounters,
    },
    /// A follow-up chunk of the open cursor.
    RowsChunk {
        /// This chunk's rows.
        rows: Vec<Vec<Value>>,
        /// True when more chunks remain.
        more: bool,
    },
    /// Statement closed.
    Closed {
        /// The closed statement id.
        stmt_id: u32,
    },
    /// Cancellation processed.
    CancelOk {
        /// Whether a live connection matched the credentials.
        matched: bool,
    },
    /// Counters + health snapshot.
    StatsReply(Box<StatsSnapshot>),
    /// Clean disconnect acknowledged; the server closes after sending.
    GoodbyeOk,
    /// The request failed; the connection stays usable unless the error is
    /// a framing-integrity one (CRC/oversize), after which the server
    /// disconnects.
    Error(WireError),
}

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

impl ClientFrame {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ClientFrame::Hello { version, timeout_ns, memory_budget, engine } => {
                let mut w = Writer::with_opcode(OP_HELLO);
                w.put_u16(*version);
                w.put_u64(*timeout_ns);
                w.put_u64(*memory_budget);
                w.put_u8(engine.code());
                w.finish()
            }
            ClientFrame::Prepare { sql } => {
                let mut w = Writer::with_opcode(OP_PREPARE);
                w.put_str(sql);
                w.finish()
            }
            ClientFrame::Execute { stmt_id, engine, max_rows, params } => {
                let mut w = Writer::with_opcode(OP_EXECUTE);
                w.put_u32(*stmt_id);
                w.put_u8(engine.code());
                w.put_u32(*max_rows);
                w.put_u16(params.len() as u16);
                for p in params {
                    w.put_value(p);
                }
                w.finish()
            }
            ClientFrame::Fetch { max_rows } => {
                let mut w = Writer::with_opcode(OP_FETCH);
                w.put_u32(*max_rows);
                w.finish()
            }
            ClientFrame::CloseStmt { stmt_id } => {
                let mut w = Writer::with_opcode(OP_CLOSE_STMT);
                w.put_u32(*stmt_id);
                w.finish()
            }
            ClientFrame::Cancel { conn_id, secret } => {
                let mut w = Writer::with_opcode(OP_CANCEL);
                w.put_u64(*conn_id);
                w.put_u64(*secret);
                w.finish()
            }
            ClientFrame::Stats => Writer::with_opcode(OP_STATS).finish(),
            ClientFrame::Goodbye => Writer::with_opcode(OP_GOODBYE).finish(),
        }
    }

    /// Decodes a frame payload; rejects unknown opcodes, truncated bodies
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> DecodeResult<ClientFrame> {
        let mut r = Reader::new(payload);
        let frame = match r.u8()? {
            OP_HELLO => ClientFrame::Hello {
                version: r.u16()?,
                timeout_ns: r.u64()?,
                memory_budget: r.u64()?,
                engine: EnginePref::from_code(r.u8()?)?,
            },
            OP_PREPARE => ClientFrame::Prepare { sql: r.string()? },
            OP_EXECUTE => {
                let stmt_id = r.u32()?;
                let engine = EnginePref::from_code(r.u8()?)?;
                let max_rows = r.u32()?;
                let n = r.u16()? as usize;
                let mut params = Vec::with_capacity(n.min(payload.len()));
                for _ in 0..n {
                    params.push(r.value()?);
                }
                ClientFrame::Execute { stmt_id, engine, max_rows, params }
            }
            OP_FETCH => ClientFrame::Fetch { max_rows: r.u32()? },
            OP_CLOSE_STMT => ClientFrame::CloseStmt { stmt_id: r.u32()? },
            OP_CANCEL => ClientFrame::Cancel {
                conn_id: r.u64()?,
                secret: r.u64()?,
            },
            OP_STATS => ClientFrame::Stats,
            OP_GOODBYE => ClientFrame::Goodbye,
            op => return Err(malformed(format!("unknown client opcode {op}"))),
        };
        r.expect_end()?;
        Ok(frame)
    }
}

fn put_engine_kind(w: &mut Writer, e: EngineKind) {
    w.put_u8(match e {
        EngineKind::Tp => 1,
        EngineKind::Ap => 2,
    });
}

fn engine_kind(r: &mut Reader) -> DecodeResult<EngineKind> {
    Ok(match r.u8()? {
        1 => EngineKind::Tp,
        2 => EngineKind::Ap,
        t => return Err(malformed(format!("unknown engine kind {t}"))),
    })
}

impl ServerFrame {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServerFrame::HelloOk { conn_id, secret, version } => {
                let mut w = Writer::with_opcode(OP_HELLO_OK);
                w.put_u64(*conn_id);
                w.put_u64(*secret);
                w.put_u16(*version);
                w.finish()
            }
            ServerFrame::Prepared { stmt_id, param_types } => {
                let mut w = Writer::with_opcode(OP_PREPARED);
                w.put_u32(*stmt_id);
                w.put_u16(param_types.len() as u16);
                for t in param_types {
                    put_data_type(&mut w, *t);
                }
                w.finish()
            }
            ServerFrame::Rows {
                engine,
                dual,
                tp_latency_ns,
                ap_latency_ns,
                counters,
                total_rows,
                rows,
                more,
            } => {
                let mut w = Writer::with_opcode(OP_ROWS);
                put_engine_kind(&mut w, *engine);
                w.put_bool(*dual);
                w.put_u64(*tp_latency_ns);
                w.put_u64(*ap_latency_ns);
                w.put_counters(counters);
                w.put_u64(*total_rows);
                w.put_u32(rows.len() as u32);
                for row in rows {
                    w.put_row(row);
                }
                w.put_bool(*more);
                w.finish()
            }
            ServerFrame::DmlOk { rows_affected, latency_ns, counters } => {
                let mut w = Writer::with_opcode(OP_DML_OK);
                w.put_u64(*rows_affected);
                w.put_u64(*latency_ns);
                w.put_counters(counters);
                w.finish()
            }
            ServerFrame::RowsChunk { rows, more } => {
                let mut w = Writer::with_opcode(OP_ROWS_CHUNK);
                w.put_u32(rows.len() as u32);
                for row in rows {
                    w.put_row(row);
                }
                w.put_bool(*more);
                w.finish()
            }
            ServerFrame::Closed { stmt_id } => {
                let mut w = Writer::with_opcode(OP_CLOSED);
                w.put_u32(*stmt_id);
                w.finish()
            }
            ServerFrame::CancelOk { matched } => {
                let mut w = Writer::with_opcode(OP_CANCEL_OK);
                w.put_bool(*matched);
                w.finish()
            }
            ServerFrame::StatsReply(s) => {
                let mut w = Writer::with_opcode(OP_STATS_REPLY);
                w.put_u64(s.connections_accepted);
                w.put_u64(s.connections_rejected);
                w.put_u64(s.connections_active);
                w.put_u64(s.statements_executed);
                w.put_u64(s.statements_rejected);
                w.put_u64(s.cancels_matched);
                w.put_u64(s.protocol_errors);
                w.put_u64(s.errors_sent);
                w.put_u64(s.bytes_read);
                w.put_u64(s.bytes_written);
                w.put_u64(s.session_statements);
                w.put_u64(s.session_rows);
                w.put_u64(s.session_bytes_read);
                w.put_u64(s.session_bytes_written);
                w.put_bool(s.degraded);
                w.put_str(&s.degraded_cause);
                w.put_u64(s.writer_panics);
                w.put_u64(s.wal_flush_retries);
                w.finish()
            }
            ServerFrame::GoodbyeOk => Writer::with_opcode(OP_GOODBYE_OK).finish(),
            ServerFrame::Error(e) => {
                let mut w = Writer::with_opcode(OP_ERROR);
                put_wire_error(&mut w, e);
                w.finish()
            }
        }
    }

    /// Decodes a frame payload; rejects unknown opcodes, truncated bodies
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> DecodeResult<ServerFrame> {
        let mut r = Reader::new(payload);
        let frame = match r.u8()? {
            OP_HELLO_OK => ServerFrame::HelloOk {
                conn_id: r.u64()?,
                secret: r.u64()?,
                version: r.u16()?,
            },
            OP_PREPARED => {
                let stmt_id = r.u32()?;
                let n = r.u16()? as usize;
                let mut param_types = Vec::with_capacity(n.min(payload.len()));
                for _ in 0..n {
                    param_types.push(data_type(&mut r)?);
                }
                ServerFrame::Prepared { stmt_id, param_types }
            }
            OP_ROWS => {
                let engine = engine_kind(&mut r)?;
                let dual = r.bool()?;
                let tp_latency_ns = r.u64()?;
                let ap_latency_ns = r.u64()?;
                let counters = r.counters()?;
                let total_rows = r.u64()?;
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(payload.len()));
                for _ in 0..n {
                    rows.push(r.row()?);
                }
                let more = r.bool()?;
                ServerFrame::Rows {
                    engine,
                    dual,
                    tp_latency_ns,
                    ap_latency_ns,
                    counters,
                    total_rows,
                    rows,
                    more,
                }
            }
            OP_DML_OK => ServerFrame::DmlOk {
                rows_affected: r.u64()?,
                latency_ns: r.u64()?,
                counters: r.counters()?,
            },
            OP_ROWS_CHUNK => {
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(payload.len()));
                for _ in 0..n {
                    rows.push(r.row()?);
                }
                let more = r.bool()?;
                ServerFrame::RowsChunk { rows, more }
            }
            OP_CLOSED => ServerFrame::Closed { stmt_id: r.u32()? },
            OP_CANCEL_OK => ServerFrame::CancelOk { matched: r.bool()? },
            OP_STATS_REPLY => ServerFrame::StatsReply(Box::new(StatsSnapshot {
                connections_accepted: r.u64()?,
                connections_rejected: r.u64()?,
                connections_active: r.u64()?,
                statements_executed: r.u64()?,
                statements_rejected: r.u64()?,
                cancels_matched: r.u64()?,
                protocol_errors: r.u64()?,
                errors_sent: r.u64()?,
                bytes_read: r.u64()?,
                bytes_written: r.u64()?,
                session_statements: r.u64()?,
                session_rows: r.u64()?,
                session_bytes_read: r.u64()?,
                session_bytes_written: r.u64()?,
                degraded: r.bool()?,
                degraded_cause: r.string()?,
                writer_panics: r.u64()?,
                wal_flush_retries: r.u64()?,
            })),
            OP_GOODBYE_OK => ServerFrame::GoodbyeOk,
            OP_ERROR => ServerFrame::Error(wire_error(&mut r)?),
            op => return Err(malformed(format!("unknown server opcode {op}"))),
        };
        r.expect_end()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_client(f: ClientFrame) {
        let payload = f.encode();
        assert_eq!(ClientFrame::decode(&payload).unwrap(), f);
    }

    fn round_trip_server(f: ServerFrame) {
        let payload = f.encode();
        assert_eq!(ServerFrame::decode(&payload).unwrap(), f);
    }

    #[test]
    fn client_frames_round_trip() {
        round_trip_client(ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            timeout_ns: 5_000_000,
            memory_budget: 1 << 20,
            engine: EnginePref::Tp,
        });
        round_trip_client(ClientFrame::Prepare {
            sql: "SELECT * FROM customer WHERE c_custkey = ?".into(),
        });
        round_trip_client(ClientFrame::Execute {
            stmt_id: 7,
            engine: EnginePref::Dual,
            max_rows: 100,
            params: vec![
                Value::Null,
                Value::Int(-42),
                Value::Float(2.5),
                Value::Str("naïve ünïcode".into()),
                Value::Date(9501),
            ],
        });
        round_trip_client(ClientFrame::Fetch { max_rows: 0 });
        round_trip_client(ClientFrame::CloseStmt { stmt_id: 3 });
        round_trip_client(ClientFrame::Cancel { conn_id: 11, secret: u64::MAX });
        round_trip_client(ClientFrame::Stats);
        round_trip_client(ClientFrame::Goodbye);
    }

    #[test]
    fn server_frames_round_trip() {
        round_trip_server(ServerFrame::HelloOk {
            conn_id: 3,
            secret: 0xDEAD_BEEF,
            version: PROTOCOL_VERSION,
        });
        round_trip_server(ServerFrame::Prepared {
            stmt_id: 1,
            param_types: vec![Some(DataType::Int), None, Some(DataType::Str)],
        });
        round_trip_server(ServerFrame::Rows {
            engine: EngineKind::Ap,
            dual: true,
            tp_latency_ns: 123,
            ap_latency_ns: 456,
            counters: WorkCounters {
                rows_scanned: 10,
                blocks_pruned: 3,
                ..WorkCounters::default()
            },
            total_rows: 2,
            rows: vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Str("x".into())],
            ],
            more: false,
        });
        round_trip_server(ServerFrame::DmlOk {
            rows_affected: 5,
            latency_ns: 999,
            counters: WorkCounters { rows_inserted: 5, ..WorkCounters::default() },
        });
        round_trip_server(ServerFrame::RowsChunk {
            rows: vec![vec![Value::Float(0.5)]],
            more: true,
        });
        round_trip_server(ServerFrame::Closed { stmt_id: 9 });
        round_trip_server(ServerFrame::CancelOk { matched: true });
        round_trip_server(ServerFrame::StatsReply(Box::new(StatsSnapshot {
            connections_accepted: 4,
            degraded: true,
            degraded_cause: "wal".into(),
            ..StatsSnapshot::default()
        })));
        round_trip_server(ServerFrame::GoodbyeOk);
    }

    #[test]
    fn every_wire_error_round_trips() {
        for e in [
            WireError::Sql {
                stage: SqlStage::Parse,
                pos: 17,
                message: "expected FROM".into(),
            },
            WireError::Sql {
                stage: SqlStage::ParamNotSupported,
                pos: 0,
                message: "LIMIT".into(),
            },
            WireError::Opt("no plan".into()),
            WireError::Exec("bad plan".into()),
            WireError::EngineMismatch { sql: "SELECT 1".into(), tp_rows: 1, ap_rows: 2 },
            WireError::ParamCountMismatch { expected: 2, got: 0 },
            WireError::ParamTypeMismatch {
                idx: 1,
                expected: DataType::Int,
                got: Value::Str("x".into()),
            },
            WireError::Durability("fsync failed".into()),
            WireError::Cancelled,
            WireError::Timeout { limit: Duration::from_millis(250) },
            WireError::MemoryBudget { budget_bytes: 64, attempted_bytes: 128 },
            WireError::ReadOnly { cause: "wal append failed".into() },
            WireError::Internal("panicked at ...".into()),
            WireError::Busy { what: BusyWhat::Connections, limit: 64 },
            WireError::Busy { what: BusyWhat::Statements, limit: 32 },
            WireError::Busy { what: BusyWhat::PreparedStatements, limit: 256 },
            WireError::Protocol("unknown opcode 99".into()),
            WireError::UnknownStatement { stmt_id: 12 },
            WireError::NoCursor,
        ] {
            round_trip_server(ServerFrame::Error(e));
        }
    }

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
    fn encoded_row_len_matches_the_writer() {
        let row = vec![
            Value::Null,
            Value::Int(7),
            Value::Float(1.5),
            Value::Str("naïve".into()),
            Value::Date(9501),
        ];
        let mut w = Writer::default();
        w.put_row(&row);
        assert_eq!(encoded_row_len(&row), w.finish().len());
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

    #[test]
    fn counters_survive_the_wire() {
        let c = WorkCounters {
            rows_scanned: 1,
            cells_scanned: 2,
            index_probes: 3,
            index_fetches: 4,
            filter_evals: 5,
            nlj_pairs: 6,
            hash_build_rows: 7,
            hash_probe_rows: 8,
            sort_comparisons: 9,
            topn_pushes: 10,
            agg_rows: 11,
            output_rows: 12,
            rows_inserted: 13,
            rows_updated: 14,
            rows_deleted: 15,
            index_updates: 16,
            blocks_checked: 17,
            blocks_pruned: 18,
        };
        let mut w = Writer::default();
        w.put_counters(&c);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.counters().unwrap(), c);
        r.expect_end().unwrap();
    }
}
