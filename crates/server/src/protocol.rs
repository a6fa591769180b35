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
//! Each layout is stated once, and both directions of the codec derive
//! from it. The frames ([`ClientFrame`], [`ServerFrame`]) and the error
//! frame's body ([`WireError`]) are declared by `wire_enum!`: every variant
//! with its opcode or error code and its fields in wire order, a list field
//! with the width of its count. [`StatsSnapshot`] is declared by
//! `wire_struct!`, and the one-byte codes of [`EnginePref`], `EngineKind`,
//! `DataType`, [`SqlStage`] and [`BusyWhat`] by `code_tables!`. Fields
//! travel by their type's `Wire` impl:
//!
//! - integers are little-endian, fixed width; `bool` is one byte;
//! - strings are `u32`-length-prefixed UTF-8; since they are sliced out of
//!   an already-length-capped payload, decoding allocates at most one
//!   frame's worth of memory;
//! - [`Value`]s are tagged (`0`=NULL, `1`=Int, `2`=Float as IEEE bits,
//!   `3`=Str, `4`=Date), so every parameter and result cell — NULL
//!   included — round-trips typed; a row is a `u32` cell count, then cells;
//! - [`WorkCounters`] are a `u8` field count, then the fields in a fixed,
//!   append-only order;
//! - a `Duration` is `u64` nanoseconds.
//!
//! Decoding rejects unknown tags, truncated bodies and trailing bytes.
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
// Body codec
// ---------------------------------------------------------------------------

/// Cursor over a payload; every read is bounds-checked against the frame.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, FrameError>;

fn malformed(msg: impl Into<String>) -> FrameError {
    FrameError::Malformed(msg.into())
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
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

    /// Fails unless the whole payload was consumed — trailing garbage after
    /// a valid body means the peer and we disagree on the format.
    fn expect_end(&self) -> DecodeResult<()> {
        if self.pos != self.buf.len() {
            return Err(malformed(format!(
                "{} trailing byte(s) after a complete body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A type with one wire layout: `put` writes it, `get` reads it back.
trait Wire: Sized {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut Reader) -> DecodeResult<Self>;
}

/// A whole payload: the value, and nothing after it.
fn decode<T: Wire>(payload: &[u8]) -> DecodeResult<T> {
    let mut r = Reader::new(payload);
    let value = T::get(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

fn encode(value: &impl Wire) -> Vec<u8> {
    let mut w = Vec::new();
    value.put(&mut w);
    w
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader) -> DecodeResult<Self> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

// `f64` travels as its IEEE bits.
wire_le!(u8, u16, u32, u64, i32, i64, f64);

impl Wire for bool {
    fn put(&self, w: &mut Vec<u8>) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        // Only the two bytes `put` writes decode, so decode inverts encode.
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("bool byte {b} is neither 0 nor 1"))),
        }
    }
}

impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        // A string too long for its prefix is too long for any frame, and
        // `write_frame` refuses the payload.
        (self.len() as u32).put(w);
        w.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        let n = u32::get(r)? as usize;
        // `take` bounds n against the remaining frame, so the allocation
        // below is capped by the (already capped) frame length.
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }
}

/// Nanoseconds, saturating at `u64::MAX`.
impl Wire for Duration {
    fn put(&self, w: &mut Vec<u8>) {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).put(w);
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Duration::from_nanos(u64::get(r)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Vec<u8>) {
        (**self).put(w);
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        T::get(r).map(Box::new)
    }
}

impl Wire for Value {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            Value::Null => 0u8.put(w),
            Value::Int(i) => {
                1u8.put(w);
                i.put(w);
            }
            Value::Float(f) => {
                2u8.put(w);
                f.put(w);
            }
            Value::Str(s) => {
                3u8.put(w);
                s.put(w);
            }
            Value::Date(d) => {
                4u8.put(w);
                d.put(w);
            }
        }
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match u8::get(r)? {
            0 => Value::Null,
            1 => Value::Int(i64::get(r)?),
            2 => Value::Float(f64::get(r)?),
            3 => Value::Str(String::get(r)?),
            4 => Value::Date(i32::get(r)?),
            t => return Err(malformed(format!("unknown value tag {t}"))),
        })
    }
}

/// A list: its count as an `N`, then the items. Senders keep a list within
/// its count (see [`MAX_PARAMS`]): a longer one is a bug, not a frame.
fn put_list<N: Wire + TryFrom<usize>, T: Wire>(w: &mut Vec<u8>, items: &[T]) {
    let n = N::try_from(items.len())
        .unwrap_or_else(|_| panic!("{} items overflow their list count", items.len()));
    n.put(w);
    for item in items {
        item.put(w);
    }
}

fn get_list<N: Wire + Into<u64>, T: Wire>(r: &mut Reader) -> DecodeResult<Vec<T>> {
    let n = N::get(r)?.into() as usize;
    // Each item is ≥1 byte, so a list longer than the rest of the frame
    // cannot decode; cap the pre-allocation the same way.
    let mut items = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items)
}

/// A row: a `u32` cell count, then the cells.
impl Wire for Vec<Value> {
    fn put(&self, w: &mut Vec<u8>) {
        put_list::<u32, _>(w, self);
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        get_list::<u32, _>(r)
    }
}

/// Exact encoded size of one row, matching its `Wire` impl (checked by
/// `encoded_row_len_matches_the_writer`).
pub(crate) fn encoded_row_len(row: &[Value]) -> usize {
    let cell = |v: &Value| match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Date(_) => 4,
    };
    4 + row.iter().map(|v| 1 + cell(v)).sum::<usize>()
}

/// The wire order of [`WorkCounters`] fields (append-only: new counters go
/// at the end so old readers keep decoding the prefix they know).
fn counter_fields(c: &mut WorkCounters) -> [&mut u64; 18] {
    [
        &mut c.rows_scanned,
        &mut c.cells_scanned,
        &mut c.index_probes,
        &mut c.index_fetches,
        &mut c.filter_evals,
        &mut c.nlj_pairs,
        &mut c.hash_build_rows,
        &mut c.hash_probe_rows,
        &mut c.sort_comparisons,
        &mut c.topn_pushes,
        &mut c.agg_rows,
        &mut c.output_rows,
        &mut c.rows_inserted,
        &mut c.rows_updated,
        &mut c.rows_deleted,
        &mut c.index_updates,
        &mut c.blocks_checked,
        &mut c.blocks_pruned,
    ]
}

/// A `u8` field count, then the fields in [`counter_fields`] order.
impl Wire for WorkCounters {
    fn put(&self, w: &mut Vec<u8>) {
        let mut c = *self;
        let fields = counter_fields(&mut c);
        (fields.len() as u8).put(w);
        for f in fields {
            f.put(w);
        }
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        let mut c = WorkCounters::default();
        let mut fields = counter_fields(&mut c);
        // A longer list than we know (a newer peer) decodes its known
        // prefix; the surplus is consumed and dropped.
        for i in 0..u8::get(r)? as usize {
            let v = u64::get(r)?;
            if let Some(slot) = fields.get_mut(i) {
                **slot = v;
            }
        }
        Ok(c)
    }
}

/// One-byte code tables, one line per type: `Type("what") { Variant = code }`.
macro_rules! code_tables {
    ($($ty:ident($what:literal) { $($v:ident = $code:literal),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                u8::put(&match self { $($ty::$v => $code),* }, w);
            }
            fn get(r: &mut Reader) -> DecodeResult<Self> {
                Ok(match u8::get(r)? {
                    $($code => $ty::$v,)*
                    t => return Err(malformed(format!(concat!("unknown ", $what, " {}"), t))),
                })
            }
        }
    )*};
}

code_tables! {
    EnginePref("engine preference") { Default = 0, Tp = 1, Ap = 2, Dual = 3 }
    EngineKind("engine kind") { Tp = 1, Ap = 2 }
    DataType("data type tag") { Int = 0, Float = 1, Str = 2, Date = 3 }
    SqlStage("sql stage") { Lex = 0, Parse = 1, Bind = 2, Unsupported = 3, ParamNotSupported = 4 }
    BusyWhat("busy kind") { Connections = 0, Statements = 1, PreparedStatements = 2 }
}

/// The tag of an unconstrained parameter type, beside `DataType`'s codes.
const NO_DATA_TYPE: u8 = 255;

impl Wire for Option<DataType> {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            Some(t) => t.put(w),
            None => NO_DATA_TYPE.put(w),
        }
    }
    fn get(r: &mut Reader) -> DecodeResult<Self> {
        if r.buf.get(r.pos) == Some(&NO_DATA_TYPE) {
            r.pos += 1;
            return Ok(None);
        }
        DataType::get(r).map(Some)
    }
}

/// Declares an enum in which each variant is one wire layout: its tag
/// byte, then its fields in declaration order, each by its `Wire` impl — a
/// list field's count in the width written after it
/// (`params: Vec<Value> [u16]`). Variants are unit, one-field tuple, or
/// struct variants; `what` names the tag in the unknown-tag error.
macro_rules! wire_enum {
    // The pattern binding a variant's fields (`$x`: a tuple variant's one).
    (@pat $x:ident $e:ident::$v:ident) => { $e::$v };
    (@pat $x:ident $e:ident::$v:ident ($t:ty)) => { $e::$v($x) };
    (@pat $x:ident $e:ident::$v:ident { $($f:ident $([$n:ty])?),* }) => { $e::$v { $($f),* } };
    // Writes the bound fields.
    (@put $w:ident $x:ident) => {};
    (@put $w:ident $x:ident ($t:ty)) => { $x.put($w) };
    (@put $w:ident $x:ident { $($f:ident $([$n:ty])?),* }) => {
        $(wire_enum!(@put_field $w $f $([$n])?);)*
    };
    (@put_field $w:ident $f:ident) => { $f.put($w) };
    (@put_field $w:ident $f:ident [$n:ty]) => { put_list::<$n, _>($w, $f) };
    // Reads the fields, in order, into the variant.
    (@get $r:ident $e:ident::$v:ident) => { $e::$v };
    (@get $r:ident $e:ident::$v:ident ($t:ty)) => { $e::$v(Wire::get($r)?) };
    (@get $r:ident $e:ident::$v:ident { $($f:ident $([$n:ty])?),* }) => {
        $e::$v { $($f: wire_enum!(@get_field $r $([$n])?)),* }
    };
    (@get_field $r:ident) => { Wire::get($r)? };
    (@get_field $r:ident [$n:ty]) => { get_list::<$n, _>($r)? };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $v:ident
                $(($t:ty))?
                $({ $($(#[$fmeta:meta])* $f:ident: $ft:ty $([$n:ty])?),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $v $(($t))? $({ $($(#[$fmeta])* $f: $ft),* })?,)*
        }

        impl Wire for $name {
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $(wire_enum!(@pat x $name::$v $(($t))? $({ $($f $([$n])?),* })?) => {
                        u8::put(&$tag, w);
                        wire_enum!(@put w x $(($t))? $({ $($f $([$n])?),* })?);
                    })*
                }
            }
            fn get(r: &mut Reader) -> DecodeResult<Self> {
                Ok(match u8::get(r)? {
                    $($tag => wire_enum!(@get r $name::$v $(($t))? $({ $($f $([$n])?),* })?),)*
                    t => return Err(malformed(format!(concat!("unknown ", $what, " {}"), t))),
                })
            }
        }
    };
}

/// Declares a struct whose layout is its fields in declaration order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident: $ft:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $f: $ft),*
        }

        impl Wire for $name {
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$f.put(w);)*
            }
            fn get(r: &mut Reader) -> DecodeResult<Self> {
                Ok($name { $($f: Wire::get(r)?),* })
            }
        }
    };
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
        encode(self)
    }

    /// Decodes a frame payload; rejects unknown opcodes, truncated bodies
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> DecodeResult<ClientFrame> {
        decode(payload)
    }
}

impl ServerFrame {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decodes a frame payload; rejects unknown opcodes, truncated bodies
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> DecodeResult<ServerFrame> {
        decode(payload)
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
        assert_eq!(encoded_row_len(&row), encode(&row).len());
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
        assert_eq!(decode::<WorkCounters>(&encode(&c)).unwrap(), c);
    }
}
