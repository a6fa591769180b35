//! The workspace's one binary codec. Every binary byte the system writes to
//! disk (the manifest alone is JSON) or puts on a socket is laid out by a
//! [`Wire`] impl: `put` appends a value to a `Vec<u8>`, `get` reads it back
//! through a bounds-checked [`Reader`].
//!
//! # The three formats
//!
//! - **WAL records**, declared in [`super::wal`] (`WalRecord`): each
//!   record is framed `[len: u32][crc: u32][payload]`, and replay stops at
//!   the first frame that does not check.
//! - **Segment files**, declared in [`super::persist`] (`Segment`): one
//!   table per file, framed `magic "QPESEG2\0" + payload + crc: u32`.
//! - **Wire frames**, declared in `qpe_server::protocol` (`ClientFrame`,
//!   `ServerFrame`): each message is framed `[len: u32][crc: u32][payload]`,
//!   with `len` capped before the payload is allocated.
//!
//! `len` is the payload's length and `crc` is IEEE CRC-32
//! ([`super::crc32`]) over the payload; [`put_framed`] writes that
//! envelope for both the WAL and the wire, and [`get_framed`] reads it back
//! from a buffer. The server reads a frame off the socket instead: it
//! decodes the 8-byte header with this codec and caps `len` before it
//! allocates the payload. The payload inside each envelope is one value of
//! the type named above.
//!
//! # Layouts
//!
//! Each layout is stated once, and both `put` and `get` derive from it:
//!
//! - integers are little-endian, fixed width; a `usize` travels as a `u64`;
//!   an `f64` as its IEEE bits; a `bool` as one byte, 0 or 1;
//! - a `String` is a `u32` byte length, then UTF-8;
//! - a [`Value`] is a tag (`0`=NULL, `1`=Int `i64`, `2`=Float `f64`,
//!   `3`=Str, `4`=Date `i32`), then its payload; a row is a `Vec<Value>`;
//! - a `Vec<T>` or `Arc<[T]>` is a `u32` count, then the items; a `Box<T>`
//!   or `Arc<T>` is its `T`; a pair is its two halves in order;
//! - a [`WorkCounters`] is a `u8` field count, then the fields in a fixed,
//!   append-only order; a `Duration` is `u64` nanoseconds; an
//!   `Option<DataType>` is the type's code, or 255 for none.
//!
//! Composite layouts are declared with macros. [`crate::wire_enum!`]
//! declares an enum whose variants each start with a tag byte;
//! [`crate::wire_struct!`] a struct laid out as its fields in order;
//! [`crate::wire_impl!`] gives a layout to a type declared elsewhere, one
//! shape per tag; [`crate::code_tables!`] maps
//! fieldless enums to one-byte codes. A list field may write its count in
//! another width (`params: Vec<Value> [u16]`), or share the count of an
//! earlier list and write none (`vals: Vec<i64> [= ends]`).
//!
//! # Decoding untrusted bytes
//!
//! Recovery feeds the decoder torn files and the server feeds it whatever a
//! peer sends, so `get` is total: malformed input is a [`DecodeError`],
//! never a panic. Reads are bounds-checked; a count larger than the bytes
//! that remain is refused before anything is allocated, and no list
//! reserves more memory than the bytes that remain; boxes nest at most
//! [`MAX_DEPTH`] deep; [`decode`] refuses trailing bytes; unknown tags and
//! non-canonical `bool`s are errors. Invariants a layout cannot state
//! (dictionary codes in range, ascending run ends) are checked by the
//! format's owner in one validation step after the decode.

use super::durable_io::DurabilityError;
use crate::engine::EngineKind;
use crate::exec::WorkCounters;
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use std::sync::Arc;
use std::time::Duration;

/// Why bytes did not decode: truncated input, an unknown tag, a bad count,
/// invalid UTF-8, trailing bytes, or a broken structural invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    /// An error with this message.
    #[cold]
    pub fn new(msg: impl Into<String>) -> DecodeError {
        DecodeError(msg.into())
    }

    /// A tag byte that names no variant of `what`.
    #[cold]
    pub fn unknown(what: &str, tag: u8) -> DecodeError {
        DecodeError(format!("unknown {what} {tag}"))
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for DurabilityError {
    fn from(e: DecodeError) -> Self {
        DurabilityError::Corrupt(e.0)
    }
}

/// How deep boxes may nest, so that crafted input cannot recurse the
/// decoder off its stack. No layout nests more than twice.
pub const MAX_DEPTH: u8 = 8;

/// Bounds-checked read cursor over untrusted bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: u8,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, depth: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, or an error when fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.truncated(n));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    #[cold]
    fn truncated(&self, n: usize) -> DecodeError {
        DecodeError(format!(
            "truncated: need {n} bytes at offset {}, {} remain",
            self.pos,
            self.remaining()
        ))
    }

    /// Decodes a value one box deeper.
    fn nested<T: Wire>(&mut self) -> Result<T, DecodeError> {
        if self.depth == MAX_DEPTH {
            return Err(DecodeError::new(format!("boxes nest deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = T::get(self);
        self.depth -= 1;
        value
    }
}

/// A type with one binary layout: `put` writes it, `get` reads it back.
pub trait Wire: Sized {
    /// Appends the value's bytes.
    fn put(&self, w: &mut Vec<u8>);
    /// Reads one value, or says why the bytes are not one.
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// The bytes of one value.
pub fn encode(value: &impl Wire) -> Vec<u8> {
    let mut w = Vec::new();
    value.put(&mut w);
    w
}

/// Decodes a whole buffer: one value, and nothing after it.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::get(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::new(format!(
            "{} trailing byte(s) after a complete value",
            r.remaining()
        )));
    }
    Ok(value)
}

/// Appends `payload` in the `[len: u32][crc: u32][payload]` envelope that
/// WAL records and wire frames share. Callers keep `payload` within `u32`.
pub fn put_framed(w: &mut Vec<u8>, payload: &[u8]) {
    (payload.len() as u32).put(w);
    super::crc32(payload).put(w);
    w.extend_from_slice(payload);
}

/// Reads one envelope written by [`put_framed`]: its payload, if the
/// length is at most `max` and the CRC checks.
pub fn get_framed<'a>(r: &mut Reader<'a>, max: u32) -> Result<&'a [u8], DecodeError> {
    let (len, crc) = (u32::get(r)?, u32::get(r)?);
    if len > max {
        return Err(DecodeError::new(format!("frame length {len} exceeds the {max}-byte cap")));
    }
    let payload = r.take(len as usize)?;
    if super::crc32(payload) != crc {
        return Err(DecodeError::new("frame payload failed its CRC check"));
    }
    Ok(payload)
}

macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

// `f64` travels as its IEEE bits.
little_endian!(u8, u16, u32, u64, i32, i64, f64);

impl Wire for usize {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u64).put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        usize::try_from(u64::get(r)?).map_err(|_| DecodeError::new("length overflows usize"))
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        w.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Only the two bytes `put` writes decode, so decode inverts encode.
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::new(format!("bool byte {b} is neither 0 nor 1"))),
        }
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        // A string too long for its prefix is too long for any frame or
        // record, and the envelope refuses the payload.
        (self.len() as u32).put(w);
        w.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u32::get(r)? as usize;
        // `take` bounds n by the bytes that remain before anything is
        // allocated.
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("string is not UTF-8"))
    }
}

/// Nanoseconds, saturating at `u64::MAX`.
impl Wire for Duration {
    fn put(&self, w: &mut Vec<u8>) {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Duration::from_nanos(u64::get(r)?))
    }
}

// A box is its value, one nesting level down.
macro_rules! boxed {
    ($($b:ident),*) => {$(
        impl<T: Wire> Wire for $b<T> {
            fn put(&self, w: &mut Vec<u8>) {
                (**self).put(w);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                r.nested().map($b::new)
            }
        }
    )*};
}

boxed!(Box, Arc);

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

// A list is a `u32` count, then the items.
macro_rules! list {
    ($($l:ty),*) => {$(
        impl<T: Wire> Wire for $l {
            fn put(&self, w: &mut Vec<u8>) {
                put_list::<u32, T>(w, self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                get_list::<u32, T>(r).map(Into::into)
            }
        }
    )*};
}

list!(Vec<T>, Arc<[T]>);

/// A list: its count as an `N`, then the items. Panics when the list does
/// not fit its count: senders keep lists within their counts (the WAL
/// refuses an over-long batch before encoding it).
pub fn put_list<N: Wire + TryFrom<usize>, T: Wire>(w: &mut Vec<u8>, items: &[T]) {
    let n = N::try_from(items.len())
        .unwrap_or_else(|_| panic!("{} items overflow their list count", items.len()));
    n.put(w);
    put_items(w, items);
}

/// Reads a list written by [`put_list`] with the same `N`.
pub fn get_list<N: Wire + Into<u64>, T: Wire>(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
    let n = N::get(r)?.into();
    get_items(r, usize::try_from(n).unwrap_or(usize::MAX))
}

/// The items of a list whose count is written elsewhere.
pub fn put_items<T: Wire>(w: &mut Vec<u8>, items: &[T]) {
    for item in items {
        item.put(w);
    }
}

/// Reads `n` items written by [`put_items`]. Every item takes at least one
/// byte, so a count past the bytes that remain is refused up front, and the
/// reservation is capped by what those bytes could hold.
pub fn get_items<T: Wire, C: From<Vec<T>>>(r: &mut Reader<'_>, n: usize) -> Result<C, DecodeError> {
    if n > r.remaining() {
        return Err(DecodeError::new(format!(
            "count {n} exceeds the {} bytes that remain",
            r.remaining()
        )));
    }
    let mut items = Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<T>().max(1)));
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items.into())
}

/// Gives a layout to a type declared elsewhere. Each arm is a tag byte, a
/// shape in parentheses and the shape's fields in wire order; the shape is
/// matched to encode and built to decode, so it must bind every field by
/// name:
///
/// ```ignore
/// wire_impl! {
///     Option<usize>: "flag" {
///         0 => (None) {},
///         1 => (Some(n)) { n: usize },
///     }
/// }
/// ```
///
/// A list field may name its count's width after its type (`[u16]`), or
/// share the count of an earlier list field (`[= other]`) and write none.
/// `what` names the tag in the unknown-tag error.
#[macro_export]
macro_rules! wire_impl {
    (@put $w:ident $($f:ident: $ft:ty $([$($n:tt)+])?),*) => {
        $($crate::wire_impl!(@put_field $w $f $([$($n)+])?);)*
    };
    (@put_field $w:ident $f:ident) => {
        $crate::storage::codec::Wire::put($f, $w)
    };
    (@put_field $w:ident $f:ident [= $g:ident]) => {{
        assert_eq!($f.len(), $g.len(), "lists sharing a count differ in length");
        $crate::storage::codec::put_items($w, &$f[..])
    }};
    (@put_field $w:ident $f:ident [$n:ty]) => {
        $crate::storage::codec::put_list::<$n, _>($w, &$f[..])
    };
    (@get $r:ident $($f:ident: $ft:ty $([$($n:tt)+])?),*) => {
        $(let $f: $ft = $crate::wire_impl!(@get_field $r $([$($n)+])?);)*
    };
    (@get_field $r:ident) => {
        $crate::storage::codec::Wire::get($r)?
    };
    (@get_field $r:ident [= $g:ident]) => {
        $crate::storage::codec::get_items($r, $g.len())?
    };
    (@get_field $r:ident [$n:ty]) => {
        $crate::storage::codec::get_list::<$n, _>($r)?
    };
    // One shape and no tag: a struct.
    (@struct $ty:ty = ($($shape:tt)*) { $($fields:tt)* }) => {
        impl $crate::storage::codec::Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                let $($shape)* = self;
                $crate::wire_impl!(@put w $($fields)*);
            }
            fn get(
                r: &mut $crate::storage::codec::Reader<'_>,
            ) -> Result<Self, $crate::storage::codec::DecodeError> {
                $crate::wire_impl!(@get r $($fields)*);
                Ok($($shape)*)
            }
        }
    };
    ($ty:ty: $what:literal {
        $($tag:literal => ($($shape:tt)*) { $($fields:tt)* }),* $(,)?
    }) => {
        impl $crate::storage::codec::Wire for $ty {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $($($shape)* => {
                        w.push($tag);
                        $crate::wire_impl!(@put w $($fields)*);
                    })*
                }
            }
            #[inline]
            fn get(
                r: &mut $crate::storage::codec::Reader<'_>,
            ) -> Result<Self, $crate::storage::codec::DecodeError> {
                Ok(match <u8 as $crate::storage::codec::Wire>::get(r)? {
                    $($tag => {
                        $crate::wire_impl!(@get r $($fields)*);
                        $($shape)*
                    })*
                    t => return Err($crate::storage::codec::DecodeError::unknown($what, t)),
                })
            }
        }
    };
}

/// Declares an enum in which each variant is one layout: its tag byte, then
/// its fields in declaration order — a list field's count in the width
/// written after it (`params: Vec<Value> [u16]`). Variants are unit,
/// one-field tuple, or struct variants; `what` names the tag in the
/// unknown-tag error.
#[macro_export]
macro_rules! wire_enum {
    // Names a tuple variant's one field.
    (@field $x:ident $t:ty) => { $x };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $v:ident
                $(($t:ty))?
                $({ $($(#[$fmeta:meta])* $f:ident: $ft:ty $([$($n:tt)+])?),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $v $(($t))? $({ $($(#[$fmeta])* $f: $ft),* })?,)*
        }

        $crate::wire_impl! {
            $name: $what {
                $($tag => ($name::$v $(($crate::wire_enum!(@field x $t)))? $({ $($f),* })?) {
                    $(x: $t)? $($($f: $ft $([$($n)+])?),*)?
                }),*
            }
        }
    };
}

/// Declares a struct whose layout is its fields in declaration order; a
/// list field may share the count of an earlier one (`[= other]`).
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident: $ft:ty $([$($n:tt)+])?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $f: $ft),*
        }

        $crate::wire_impl! {
            @struct $name = ($name { $($f),* }) { $($f: $ft $([$($n)+])?),* }
        }
    };
}

/// One-byte code tables, one line per fieldless enum:
/// `Type("what") { Variant = code }`.
#[macro_export]
macro_rules! code_tables {
    ($($ty:ident($what:literal) { $($v:ident = $code:literal),* })*) => {$(
        $crate::wire_impl! { $ty: $what { $($code => ($ty::$v) {}),* } }
    )*};
}

wire_impl! {
    Value: "value tag" {
        0 => (Value::Null) {},
        1 => (Value::Int(x)) { x: i64 },
        2 => (Value::Float(x)) { x: f64 },
        3 => (Value::Str(s)) { s: String },
        4 => (Value::Date(d)) { d: i32 },
    }
}

/// Exact encoded size of one row (a `Vec<Value>`), matching its layout.
#[inline]
pub fn encoded_row_len(row: &[Value]) -> usize {
    let cell = |v: &Value| match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Date(_) => 4,
    };
    4 + row.iter().map(|v| 1 + cell(v)).sum::<usize>()
}

/// The order of [`WorkCounters`] fields (append-only: new counters go at the
/// end so old readers keep decoding the prefix they know).
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

/// A `u8` field count, then the fields in `counter_fields` order.
impl Wire for WorkCounters {
    fn put(&self, w: &mut Vec<u8>) {
        let mut c = *self;
        let fields = counter_fields(&mut c);
        (fields.len() as u8).put(w);
        for f in fields {
            f.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
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

code_tables! {
    EngineKind("engine kind") { Tp = 1, Ap = 2 }
    DataType("data type tag") { Int = 0, Float = 1, Str = 2, Date = 3 }
}

/// The tag of an unconstrained parameter type, beside `DataType`'s codes.
const NO_DATA_TYPE: u8 = 255;

impl Wire for Option<DataType> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            Some(t) => t.put(w),
            None => NO_DATA_TYPE.put(w),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        if r.buf.get(r.pos) == Some(&NO_DATA_TYPE) {
            r.pos += 1;
            return Ok(None);
        }
        DataType::get(r).map(Some)
    }
}
