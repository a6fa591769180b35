//! Expression evaluation over intermediate rows and over column batches.
//!
//! Both engines share these semantics — the paper's two engines differ in
//! *how* they execute plans, not in what a predicate means — so result
//! equivalence between TP and AP is testable as an invariant. The scalar
//! entry points ([`eval`], [`eval_predicate`]) serve the row interpreter;
//! the batch entry points ([`eval_batch`], [`eval_predicate_sel`]) serve
//! the AP engine's vectorized executor and evaluate column-at-a-time over
//! typed slices with per-element `Cell` views (no `Value` boxing on the
//! hot comparison kernels). Predicates write the surviving physical rows
//! straight into a selection, deciding dictionary codes, RLE runs and FOR
//! blocks whole where the encoding allows. The batch kernels are
//! element-wise ports of the scalar semantics, so both executors produce
//! identical results.

use crate::exec::typed::Cursor;
use crate::storage::col_store::{ColRef, ColumnData, ForInt, FOR_BLOCK_ROWS};
use qpe_sql::ast::BinaryOp;
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::ops::Range;

/// The schema of an intermediate row: which `(table_slot, column_idx)` pair
/// each position holds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    cols: Vec<(usize, usize)>,
}

impl Schema {
    /// Creates a schema from `(table_slot, column_idx)` pairs.
    pub fn new(cols: Vec<(usize, usize)>) -> Self {
        Schema { cols }
    }

    /// Position of a bound column in the row, if present.
    pub fn position(&self, table_slot: usize, column_idx: usize) -> Option<usize> {
        self.cols
            .iter()
            .position(|&(s, c)| s == table_slot && c == column_idx)
    }

    /// Concatenates two schemas (join output layout).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.clone();
        cols.extend_from_slice(&other.cols);
        Schema { cols }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The underlying pairs.
    pub fn columns(&self) -> &[(usize, usize)] {
        &self.cols
    }
}

/// Errors during evaluation — should not occur for bound queries over
/// generated data, but the executor surfaces them rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A column was not found in the row schema (planner bug).
    MissingColumn {
        /// Table slot requested.
        table_slot: usize,
        /// Column index requested.
        column_idx: usize,
    },
    /// A type error, e.g. arithmetic on strings.
    Type(String),
    /// An aggregate reached the scalar evaluator.
    AggregateInScalarContext,
    /// A prepared-statement parameter reached execution without being
    /// substituted (session-layer bug — `PlanNode::substitute_params` runs
    /// before any executor sees the plan).
    UnboundParam(usize),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::MissingColumn { table_slot, column_idx } => {
                write!(f, "column (slot {table_slot}, idx {column_idx}) missing from row schema")
            }
            EvalError::Type(m) => write!(f, "type error: {m}"),
            EvalError::AggregateInScalarContext => {
                write!(f, "aggregate evaluated in scalar context")
            }
            EvalError::UnboundParam(idx) => {
                write!(f, "parameter ${} reached execution unbound", idx + 1)
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `expr` against `row` laid out by `schema`.
pub fn eval(expr: &BoundExpr, schema: &Schema, row: &[Value]) -> Result<Value, EvalError> {
    match expr {
        BoundExpr::Column(c) => {
            let pos = schema
                .position(c.table_slot, c.column_idx)
                .ok_or(EvalError::MissingColumn {
                    table_slot: c.table_slot,
                    column_idx: c.column_idx,
                })?;
            Ok(row[pos].clone())
        }
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Binary { left, op, right } => {
            let l = eval(left, schema, row)?;
            let r = eval(right, schema, row)?;
            eval_binary(&l, *op, &r)
        }
        BoundExpr::Not(inner) => {
            let v = eval(inner, schema, row)?;
            Ok(Value::Int(if truthy(&v) { 0 } else { 1 }))
        }
        BoundExpr::InList { expr, list, negated } => {
            let v = eval(expr, schema, row)?;
            let found = list.iter().any(|item| v.sql_eq(item));
            Ok(bool_val(found != *negated && !(v.is_null())))
        }
        // Parameterized IN lists are lowered to `InList` by parameter
        // substitution before execution; reaching one here means a
        // placeholder was never bound.
        BoundExpr::InListParam { items, .. } => {
            Err(EvalError::UnboundParam(first_param_idx(items)))
        }
        BoundExpr::Between { expr, low, high } => {
            let v = eval(expr, schema, row)?;
            let lo = eval(low, schema, row)?;
            let hi = eval(high, schema, row)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(bool_val(false));
            }
            let ge = v.total_cmp(&lo) != std::cmp::Ordering::Less;
            let le = v.total_cmp(&hi) != std::cmp::Ordering::Greater;
            Ok(bool_val(ge && le))
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let v = eval(expr, schema, row)?;
            match v.as_str() {
                Some(s) => Ok(bool_val(like_match(s, pattern) != *negated)),
                None => Ok(bool_val(false)),
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, schema, row)?;
            Ok(bool_val(v.is_null() != *negated))
        }
        BoundExpr::Substring { expr, start, len } => {
            let v = eval(expr, schema, row)?;
            match v {
                Value::Str(s) => {
                    let chars: Vec<char> = s.chars().collect();
                    let from = (*start as usize).saturating_sub(1).min(chars.len());
                    let to = (from + *len as usize).min(chars.len());
                    Ok(Value::Str(chars[from..to].iter().collect()))
                }
                Value::Null => Ok(Value::Null),
                other => Err(EvalError::Type(format!(
                    "SUBSTRING expects a string, got {other}"
                ))),
            }
        }
        BoundExpr::Aggregate { .. } => Err(EvalError::AggregateInScalarContext),
        BoundExpr::Param { idx, .. } => Err(EvalError::UnboundParam(*idx)),
    }
}

/// Evaluates a predicate to a boolean.
pub fn eval_predicate(expr: &BoundExpr, schema: &Schema, row: &[Value]) -> Result<bool, EvalError> {
    Ok(truthy(&eval(expr, schema, row)?))
}

fn bool_val(b: bool) -> Value {
    Value::Int(if b { 1 } else { 0 })
}

/// SQL truthiness of an evaluated value.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(x) => *x != 0,
        Value::Float(x) => *x != 0.0,
        Value::Str(s) => !s.is_empty(),
        Value::Date(_) => true,
    }
}

fn eval_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value, EvalError> {
    use BinaryOp::*;
    match op {
        And => Ok(bool_val(truthy(l) && truthy(r))),
        Or => Ok(bool_val(truthy(l) || truthy(r))),
        Eq => Ok(bool_val(l.sql_eq(r))),
        NotEq => Ok(bool_val(!l.sql_eq(r) && !l.is_null() && !r.is_null())),
        Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(bool_val(false));
            }
            let ord = l.total_cmp(r);
            let b = match op {
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(bool_val(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => Ok(match op {
                    Add => Value::Int(a.wrapping_add(*b)),
                    Sub => Value::Int(a.wrapping_sub(*b)),
                    Mul => Value::Int(a.wrapping_mul(*b)),
                    Div => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a / b)
                        }
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let (a, b) = match (l.as_float(), r.as_float()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(EvalError::Type(format!(
                                "arithmetic on non-numeric values {l} {op} {r}"
                            )))
                        }
                    };
                    Ok(match op {
                        Add => Value::Float(a + b),
                        Sub => Value::Float(a - b),
                        Mul => Value::Float(a * b),
                        Div => {
                            if b == 0.0 {
                                Value::Null
                            } else {
                                Value::Float(a / b)
                            }
                        }
                        _ => unreachable!(),
                    })
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch (vectorized) evaluation
// ---------------------------------------------------------------------------

/// Column-major view of an operator's input: one typed column view per
/// schema position (a `None` marks a column dropped by late materialization
/// — legal only when no evaluated expression references it) plus the
/// physical rows read, in output order. Columns are [`ColRef`]s, so a
/// delta-aware scan's base+delta segments flow through the same kernels as a
/// contiguous column — per-element access costs one extra segment branch.
pub struct BatchView<'a> {
    /// Columns aligned with the operator's [`Schema`] positions.
    pub cols: &'a [Option<ColRef<'a>>],
    /// The physical rows read, in output order.
    pub rows: Rows<'a>,
}

impl<'a> BatchView<'a> {
    /// Number of rows read (the dense output length).
    pub fn selected_len(&self) -> usize {
        self.rows.len()
    }

    /// Physical index of dense position `j`.
    #[inline]
    pub fn phys(&self, j: usize) -> usize {
        self.rows.phys(j)
    }

    fn col(&self, pos: usize) -> Result<ColRef<'a>, EvalError> {
        self.cols
            .get(pos)
            .and_then(|c| *c)
            .ok_or(EvalError::MissingColumn { table_slot: usize::MAX, column_idx: pos })
    }
}

/// The physical rows a [`BatchView`] reads, in output order.
#[derive(Debug, Clone)]
pub enum Rows<'a> {
    /// Rows `lo..hi`, ascending: a dense batch, or one morsel of it. Block
    /// kernels (FOR envelopes, RLE runs) decide whole stretches of it.
    Range(Range<usize>),
    /// Selected physical rows.
    Sel(&'a [u32]),
}

impl<'a> Rows<'a> {
    /// A batch's rows: its selection, or all `rows` physical rows.
    pub fn of(sel: Option<&'a [u32]>, rows: usize) -> Rows<'a> {
        sel.map_or(Rows::Range(0..rows), Rows::Sel)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Rows::Range(r) => r.len(),
            Rows::Sel(s) => s.len(),
        }
    }

    /// True when no row is read.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical row at dense position `j`.
    #[inline]
    pub fn phys(&self, j: usize) -> usize {
        match self {
            Rows::Range(r) => r.start + j,
            Rows::Sel(s) => s[j] as usize,
        }
    }

    /// The rows at dense positions `range`.
    pub fn slice(&self, range: Range<usize>) -> Rows<'a> {
        match self {
            Rows::Range(r) => Rows::Range(r.start + range.start..r.start + range.end),
            Rows::Sel(s) => Rows::Sel(&s[range]),
        }
    }
}

/// Borrowed scalar view of one cell — the zero-allocation counterpart of
/// [`Value`] used by the batch kernels.
#[derive(Clone, Copy, Debug)]
enum Cell<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
    Date(i32),
}

impl<'a> Cell<'a> {
    #[inline]
    fn from_col(col: &'a ColumnData, idx: usize) -> Cell<'a> {
        match col {
            ColumnData::Int(v) => Cell::Int(v[idx]),
            ColumnData::Float(v) => Cell::Float(v[idx]),
            ColumnData::Str(v) => Cell::Str(&v[idx]),
            ColumnData::Date(v) => Cell::Date(v[idx]),
            // Encoded columns stay zero-copy: a dictionary cell borrows the
            // dictionary's string, RLE cells decode a fixed-width value.
            ColumnData::Dict(d) => Cell::Str(d.get(idx)),
            ColumnData::RleInt(r) => Cell::Int(r.get(idx)),
            ColumnData::RleDate(r) => Cell::Date(r.get(idx)),
            ColumnData::ForInt(f) => Cell::Int(f.get(idx)),
            ColumnData::Nullable { nulls, values } => {
                if nulls[idx] {
                    Cell::Null
                } else {
                    Cell::from_col(values, idx)
                }
            }
            ColumnData::Mixed(v) => Cell::from_value(&v[idx]),
        }
    }

    /// Cross-segment cell read: one branch to pick the segment, then the
    /// same zero-allocation access as [`Cell::from_col`].
    #[inline]
    fn from_ref(col: ColRef<'a>, idx: usize) -> Cell<'a> {
        match col {
            ColRef::Single(c) => Cell::from_col(c, idx),
            ColRef::Chunked { base, delta } => {
                let split = base.len();
                if idx < split {
                    Cell::from_col(base, idx)
                } else {
                    Cell::from_col(delta, idx - split)
                }
            }
        }
    }

    #[inline]
    fn from_value(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(x) => Cell::Int(*x),
            Value::Float(x) => Cell::Float(*x),
            Value::Str(s) => Cell::Str(s),
            Value::Date(d) => Cell::Date(*d),
        }
    }

    fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(x) => Value::Int(x),
            Cell::Float(x) => Value::Float(x),
            Cell::Str(s) => Value::Str(s.to_string()),
            Cell::Date(d) => Value::Date(d),
        }
    }

    #[inline]
    fn is_null(self) -> bool {
        matches!(self, Cell::Null)
    }

    #[inline]
    fn as_float(self) -> Option<f64> {
        match self {
            Cell::Float(v) => Some(v),
            Cell::Int(v) => Some(v as f64),
            Cell::Date(v) => Some(v as f64),
            _ => None,
        }
    }

    fn type_rank(self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Int(_) => 1,
            Cell::Float(_) => 2,
            Cell::Date(_) => 3,
            Cell::Str(_) => 4,
        }
    }
}

/// Element-wise port of [`Value::total_cmp`].
#[inline]
fn cell_total_cmp(a: Cell<'_>, b: Cell<'_>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Cell::Null, Cell::Null) => Ordering::Equal,
        (Cell::Null, _) => Ordering::Less,
        (_, Cell::Null) => Ordering::Greater,
        (Cell::Int(x), Cell::Int(y)) => x.cmp(&y),
        (Cell::Date(x), Cell::Date(y)) => x.cmp(&y),
        (Cell::Str(x), Cell::Str(y)) => x.cmp(y),
        (x, y) => match (x.as_float(), y.as_float()) {
            (Some(u), Some(v)) => u.total_cmp(&v),
            _ => x.type_rank().cmp(&y.type_rank()),
        },
    }
}

/// Element-wise port of [`Value::sql_eq`].
#[inline]
fn cell_sql_eq(a: Cell<'_>, b: Cell<'_>) -> bool {
    match (a, b) {
        (Cell::Null, _) | (_, Cell::Null) => false,
        (Cell::Int(x), Cell::Int(y)) => x == y,
        (Cell::Date(x), Cell::Date(y)) => x == y,
        (Cell::Str(x), Cell::Str(y)) => x == y,
        (x, y) => match (x.as_float(), y.as_float()) {
            (Some(u), Some(v)) => u == v,
            _ => false,
        },
    }
}

/// Element-wise port of [`truthy`].
#[inline]
fn cell_truthy(c: Cell<'_>) -> bool {
    match c {
        Cell::Null => false,
        Cell::Int(x) => x != 0,
        Cell::Float(x) => x != 0.0,
        Cell::Str(s) => !s.is_empty(),
        Cell::Date(_) => true,
    }
}

/// Element-wise port of the scalar SUBSTRING semantics (1-based char start,
/// char-count length, clipped at both ends) — without allocating.
#[inline]
fn substring_slice(s: &str, start: i64, len: i64) -> &str {
    let n_chars = s.chars().count();
    let from = (start as usize).saturating_sub(1).min(n_chars);
    let to = (from + len as usize).min(n_chars);
    let mut idx = s.char_indices().skip(from);
    let Some((byte_from, _)) = idx.next() else {
        return "";
    };
    match s.char_indices().nth(to.saturating_sub(1)) {
        Some((byte_to, c)) if to > from => &s[byte_from..byte_to + c.len_utf8()],
        _ => "",
    }
}

/// One operand of a batch kernel: a physical column (read through the
/// selection), a dense computed column (aligned with the selection), or a
/// broadcast literal.
enum Operand<'a> {
    /// Contiguous physical column — the clean-table fast path (no
    /// per-element segment branch).
    Col(&'a ColumnData),
    /// Two-segment physical column from a dirty table's delta-aware scan.
    Chunked(ColRef<'a>),
    Dense(ColumnData),
    Lit(&'a Value),
}

impl Operand<'_> {
    /// Cell at dense position `j` (with `phys` its physical counterpart).
    #[inline]
    fn cell(&self, j: usize, phys: usize) -> Cell<'_> {
        match self {
            Operand::Col(c) => Cell::from_col(c, phys),
            Operand::Chunked(c) => Cell::from_ref(*c, phys),
            Operand::Dense(c) => Cell::from_col(c, j),
            Operand::Lit(v) => Cell::from_value(v),
        }
    }
}

fn operand_of<'a>(
    expr: &'a BoundExpr,
    schema: &Schema,
    view: &BatchView<'a>,
) -> Result<Operand<'a>, EvalError> {
    match expr {
        BoundExpr::Column(c) => {
            let pos = schema
                .position(c.table_slot, c.column_idx)
                .ok_or(EvalError::MissingColumn {
                    table_slot: c.table_slot,
                    column_idx: c.column_idx,
                })?;
            // The segment dispatch hoists out of the per-element loop here:
            // single-segment columns evaluate exactly as before the delta
            // store existed.
            Ok(match view.col(pos)? {
                ColRef::Single(col) => Operand::Col(col),
                chunked => Operand::Chunked(chunked),
            })
        }
        BoundExpr::Literal(v) => Ok(Operand::Lit(v)),
        other => Ok(Operand::Dense(eval_batch(other, schema, view)?)),
    }
}

/// Growable dense column for computed outputs. Stays typed as long as the
/// values agree: NULLs grow a lazily-allocated null mask over the typed
/// buffer (finishing as [`ColumnData::Nullable`], the same typed+mask shape
/// storage uses) instead of demoting the whole column to `Mixed` — only a
/// genuine type conflict falls back to generic values. This keeps
/// NULL-bearing computed columns (e.g. arithmetic over a nullable input) on
/// the vectorized fast path downstream.
enum ColBuilder {
    /// No non-NULL value seen yet; carries the capacity to pre-reserve on
    /// the first typed push and the count of leading NULLs to backfill.
    Empty {
        /// Capacity hint for the first typed allocation.
        cap: usize,
        /// NULLs pushed before any typed value arrived.
        nulls: usize,
    },
    /// Typed values with an optional null mask (allocated on first NULL;
    /// masked positions hold the type's sentinel, like storage's
    /// `Nullable`).
    Typed {
        /// Per-row NULL flags, present once any NULL has been pushed.
        nulls: Option<Vec<bool>>,
        /// The dense typed buffer.
        buf: TypedBuf,
    },
    /// Genuinely heterogeneous (or all-NULL) column.
    Mixed(Vec<Value>),
}

/// The four plain typed buffers a [`ColBuilder`] can hold.
enum TypedBuf {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Date(Vec<i32>),
}

impl TypedBuf {
    fn seeded(cap: usize, nulls: usize, first: Value) -> Option<TypedBuf> {
        fn seed<T: Clone>(cap: usize, nulls: usize, sentinel: T, first: T) -> Vec<T> {
            let mut buf = Vec::with_capacity(cap.max(nulls + 1));
            buf.extend(std::iter::repeat_n(sentinel, nulls));
            buf.push(first);
            buf
        }
        Some(match first {
            Value::Int(x) => TypedBuf::Int(seed(cap, nulls, 0, x)),
            Value::Float(x) => TypedBuf::Float(seed(cap, nulls, 0.0, x)),
            Value::Str(s) => TypedBuf::Str(seed(cap, nulls, String::new(), s)),
            Value::Date(d) => TypedBuf::Date(seed(cap, nulls, 0, d)),
            Value::Null => return None,
        })
    }

    fn len(&self) -> usize {
        match self {
            TypedBuf::Int(b) => b.len(),
            TypedBuf::Float(b) => b.len(),
            TypedBuf::Str(b) => b.len(),
            TypedBuf::Date(b) => b.len(),
        }
    }

    /// Pushes a matching value; false on a type mismatch (caller demotes).
    fn try_push(&mut self, v: &mut Option<Value>) -> bool {
        match (self, v.take().expect("value present")) {
            (TypedBuf::Int(b), Value::Int(x)) => b.push(x),
            (TypedBuf::Float(b), Value::Float(x)) => b.push(x),
            (TypedBuf::Str(b), Value::Str(s)) => b.push(s),
            (TypedBuf::Date(b), Value::Date(d)) => b.push(d),
            (_, other) => {
                *v = Some(other);
                return false;
            }
        }
        true
    }

    /// Pushes the type's NULL sentinel (masked by the null vector).
    fn push_sentinel(&mut self) {
        match self {
            TypedBuf::Int(b) => b.push(0),
            TypedBuf::Float(b) => b.push(0.0),
            TypedBuf::Str(b) => b.push(String::new()),
            TypedBuf::Date(b) => b.push(0),
        }
    }

    fn into_column(self) -> ColumnData {
        match self {
            TypedBuf::Int(b) => ColumnData::Int(b),
            TypedBuf::Float(b) => ColumnData::Float(b),
            TypedBuf::Str(b) => ColumnData::Str(b),
            TypedBuf::Date(b) => ColumnData::Date(b),
        }
    }
}

impl ColBuilder {
    fn with_capacity(n: usize) -> Self {
        ColBuilder::Empty { cap: n, nulls: 0 }
    }

    fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColBuilder::Empty { nulls, .. }, Value::Null) => *nulls += 1,
            (ColBuilder::Empty { cap, nulls }, v) => {
                let (cap, leading) = (*cap, *nulls);
                let buf = TypedBuf::seeded(cap, leading, v).expect("non-null first value");
                let nulls = (leading > 0).then(|| {
                    let mut mask = Vec::with_capacity(cap.max(leading + 1));
                    mask.extend(std::iter::repeat_n(true, leading));
                    mask.push(false);
                    mask
                });
                *self = ColBuilder::Typed { nulls, buf };
            }
            (ColBuilder::Typed { nulls, buf }, Value::Null) => {
                nulls
                    .get_or_insert_with(|| vec![false; buf.len()])
                    .push(true);
                buf.push_sentinel();
            }
            (ColBuilder::Typed { nulls, buf }, v) => {
                let mut slot = Some(v);
                if buf.try_push(&mut slot) {
                    if let Some(mask) = nulls {
                        mask.push(false);
                    }
                } else {
                    self.demote();
                    self.push(slot.expect("mismatched value returned"));
                }
            }
            (ColBuilder::Mixed(buf), v) => buf.push(v),
        }
    }

    /// Genuine type conflict: fall back to generic values (NULLs included).
    #[cold]
    fn demote(&mut self) {
        let col = std::mem::replace(self, ColBuilder::Mixed(Vec::new())).finish();
        let values: Vec<Value> = (0..col.len()).map(|i| col.get(i)).collect();
        *self = ColBuilder::Mixed(values);
    }

    fn finish(self) -> ColumnData {
        match self {
            // All-NULL (or empty) columns have no type to anchor a mask to —
            // same generic representation storage's `from_values` picks.
            ColBuilder::Empty { nulls, .. } => ColumnData::Mixed(vec![Value::Null; nulls]),
            ColBuilder::Typed { nulls: None, buf } => buf.into_column(),
            ColBuilder::Typed { nulls: Some(mask), buf } => ColumnData::Nullable {
                nulls: mask,
                values: Box::new(buf.into_column()),
            },
            ColBuilder::Mixed(buf) => ColumnData::Mixed(buf),
        }
    }
}

/// Batch predicate entry point: appends to `out` the physical row of every
/// row of `view` that satisfies `expr`, in the view's order — the selection
/// a filter emits. Row-for-row equivalent to calling [`eval_predicate`] on
/// materialized rows.
pub fn eval_predicate_sel(
    expr: &BoundExpr,
    schema: &Schema,
    view: &BatchView<'_>,
    out: &mut Vec<u32>,
) -> Result<(), EvalError> {
    let rows = &view.rows;
    match expr {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            let start = out.len();
            eval_predicate_sel(left, schema, view, out)?;
            let passed = out.split_off(start);
            if can_fail_per_row(right) {
                // The row interpreter evaluates the right side on every row,
                // so an error on a row the left side rejects must surface too.
                let mut right_rows = Vec::new();
                eval_predicate_sel(right, schema, view, &mut right_rows)?;
                merge(rows, &passed, &right_rows, out, |l, r| l && r);
            } else {
                let survivors = BatchView { cols: view.cols, rows: Rows::Sel(&passed) };
                eval_predicate_sel(right, schema, &survivors, out)?;
            }
        }
        BoundExpr::Binary { left, op: BinaryOp::Or, right } => {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            eval_predicate_sel(left, schema, view, &mut l)?;
            eval_predicate_sel(right, schema, view, &mut r)?;
            merge(rows, &l, &r, out, |l, r| l || r);
        }
        BoundExpr::Not(inner) => {
            let mut passed = Vec::new();
            eval_predicate_sel(inner, schema, view, &mut passed)?;
            merge(rows, &passed, &[], out, |p, _| !p);
        }
        BoundExpr::Binary { left, op, right }
            if matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::NotEq
                    | BinaryOp::Lt
                    | BinaryOp::LtEq
                    | BinaryOp::Gt
                    | BinaryOp::GtEq
            ) =>
        {
            let l = operand_of(left, schema, view)?;
            let r = operand_of(right, schema, view)?;
            let typed = match (&l, &r) {
                (Operand::Col(c), Operand::Lit(v)) => cmp_lit_sel(c, *op, v, rows, out),
                (Operand::Lit(v), Operand::Col(c)) => cmp_lit_sel(c, flip_cmp(*op), v, rows, out),
                _ => false,
            };
            if !typed {
                select(rows, out, |j, p| cmp_cells(l.cell(j, p), *op, r.cell(j, p)));
            }
        }
        BoundExpr::InList { expr: inner, list, negated } => {
            let v = operand_of(inner, schema, view)?;
            let typed = match &v {
                Operand::Col(c) => in_list_sel(c, list, *negated, rows, out),
                _ => false,
            };
            if !typed {
                select(rows, out, |j, p| in_list_cell(v.cell(j, p), list, *negated));
            }
        }
        BoundExpr::Between { expr: inner, low, high } => {
            let v = operand_of(inner, schema, view)?;
            let lo = operand_of(low, schema, view)?;
            let hi = operand_of(high, schema, view)?;
            let typed = match (&v, &lo, &hi) {
                (Operand::Col(c), Operand::Lit(a), Operand::Lit(b)) => {
                    between_lit_sel(c, a, b, rows, out)
                }
                _ => false,
            };
            if !typed {
                select(rows, out, |j, p| {
                    between_cells(v.cell(j, p), lo.cell(j, p), hi.cell(j, p))
                });
            }
        }
        BoundExpr::Like { expr: inner, pattern, negated } => {
            let v = operand_of(inner, schema, view)?;
            select(rows, out, |j, p| match v.cell(j, p) {
                Cell::Str(s) => like_match(s, pattern) != *negated,
                _ => false,
            });
        }
        BoundExpr::IsNull { expr: inner, negated } => {
            let v = operand_of(inner, schema, view)?;
            select(rows, out, |j, p| v.cell(j, p).is_null() != *negated);
        }
        other => {
            // Generic truthiness of a computed column.
            let col = eval_batch(other, schema, view)?;
            select(rows, out, |j, _| cell_truthy(Cell::from_col(&col, j)));
        }
    }
    Ok(())
}

/// True when evaluating `expr` can fail on some rows and not on others:
/// arithmetic on a non-number, SUBSTRING of a non-string. Every other
/// evaluation error arises before the first row is read.
fn can_fail_per_row(expr: &BoundExpr) -> bool {
    match expr {
        BoundExpr::Binary { left, op, right } => {
            matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div)
                || can_fail_per_row(left)
                || can_fail_per_row(right)
        }
        BoundExpr::Substring { .. } => true,
        BoundExpr::Not(e)
        | BoundExpr::InList { expr: e, .. }
        | BoundExpr::Like { expr: e, .. }
        | BoundExpr::IsNull { expr: e, .. } => can_fail_per_row(e),
        BoundExpr::Between { expr, low, high } => {
            can_fail_per_row(expr) || can_fail_per_row(low) || can_fail_per_row(high)
        }
        BoundExpr::Column(_)
        | BoundExpr::Literal(_)
        | BoundExpr::Aggregate { .. }
        | BoundExpr::Param { .. }
        | BoundExpr::InListParam { .. } => false,
    }
}

/// Appends the physical row of every row of `rows` that `keep(dense
/// position, physical row)` accepts, in order. Every row is written and the
/// end advances past survivors only, so the loop never branches on `keep`.
#[inline]
fn select(rows: &Rows<'_>, out: &mut Vec<u32>, mut keep: impl FnMut(usize, usize) -> bool) {
    let base = out.len();
    out.resize(base + rows.len(), 0);
    let buf = &mut out[base..];
    let mut k = 0;
    match rows {
        Rows::Range(r) => {
            for (j, p) in r.clone().enumerate() {
                buf[k] = p as u32;
                k += usize::from(keep(j, p));
            }
        }
        Rows::Sel(s) => {
            for (j, &p) in s.iter().enumerate() {
                buf[k] = p;
                k += usize::from(keep(j, p as usize));
            }
        }
    }
    out.truncate(base + k);
}

/// Appends the rows of `rows` that `keep(in a, in b)` accepts, where `a` and
/// `b` are two selections taken from `rows` in its order.
fn merge(rows: &Rows<'_>, a: &[u32], b: &[u32], out: &mut Vec<u32>, keep: impl Fn(bool, bool) -> bool) {
    let (mut i, mut k) = (0, 0);
    for j in 0..rows.len() {
        let p = rows.phys(j) as u32;
        let (in_a, in_b) = (a.get(i) == Some(&p), b.get(k) == Some(&p));
        i += usize::from(in_a);
        k += usize::from(in_b);
        if keep(in_a, in_b) {
            out.push(p);
        }
    }
}

/// Binds `$test` to the comparison `x $op lit` over one `$ty` cell, with
/// `$ord` the order the ordering operators use — the operator is dispatched
/// once, not per row.
macro_rules! with_cmp {
    ($op:expr, $lit:expr, $ty:ty, $ord:expr, |$test:ident| $body:expr) => {{
        let lit: $ty = $lit;
        let ord = $ord;
        match $op {
            BinaryOp::Eq => {
                let $test = move |x: $ty| x == lit;
                $body
            }
            BinaryOp::NotEq => {
                let $test = move |x: $ty| x != lit;
                $body
            }
            BinaryOp::Lt => {
                let $test = move |x: $ty| ord(&x, &lit).is_lt();
                $body
            }
            BinaryOp::LtEq => {
                let $test = move |x: $ty| ord(&x, &lit).is_le();
                $body
            }
            BinaryOp::Gt => {
                let $test = move |x: $ty| ord(&x, &lit).is_gt();
                $body
            }
            BinaryOp::GtEq => {
                let $test = move |x: $ty| ord(&x, &lit).is_ge();
                $body
            }
            _ => unreachable!("not a comparison operator"),
        }
    }};
}

/// Selection kernel for `col op lit`. Within one type, [`cmp_cells`] is
/// `==` for `=`/`<>` and the type's total order otherwise, so a plain,
/// nullable or frame-of-reference column compares raw cells; dictionary
/// and RLE columns decide each code or run once through [`cmp_cells`]
/// itself, so any literal type takes them. Returns false, having written
/// nothing, for the shapes the generic loop handles.
fn cmp_lit_sel(col: &ColumnData, op: BinaryOp, lit: &Value, rows: &Rows<'_>, out: &mut Vec<u32>) -> bool {
    if lit.is_null() {
        return true; // no comparison with NULL holds
    }
    let lit_cell = Cell::from_value(lit);
    if lut_sel(col, rows, out, |c| cmp_cells(c, op, lit_cell)) {
        return true;
    }
    match *lit {
        Value::Int(x) => with_cmp!(op, x, i64, i64::cmp, |test| {
            int_sel(col, rows, out, test, |lo, hi| cmp_envelope(op, x, lo, hi))
        }),
        Value::Date(x) => with_cmp!(op, x, i32, i32::cmp, |test| {
            plain_sel(col, ColumnData::as_date_slice, rows, out, test)
        }),
        Value::Float(x) => with_cmp!(op, x, f64, f64::total_cmp, |test| {
            plain_sel(col, ColumnData::as_float_slice, rows, out, test)
        }),
        _ => false,
    }
}

/// Element-wise port of the scalar `BETWEEN`.
#[inline]
fn between_cells(c: Cell<'_>, lo: Cell<'_>, hi: Cell<'_>) -> bool {
    if c.is_null() || lo.is_null() || hi.is_null() {
        return false;
    }
    cell_total_cmp(c, lo) != std::cmp::Ordering::Less
        && cell_total_cmp(c, hi) != std::cmp::Ordering::Greater
}

/// Selection kernel for `col BETWEEN a AND b` with literal bounds: raw-cell
/// tests for bounds of the column's own type (FOR blocks decided against
/// their envelope first), one decision per dictionary code or RLE run for
/// any bounds.
fn between_lit_sel(col: &ColumnData, a: &Value, b: &Value, rows: &Rows<'_>, out: &mut Vec<u32>) -> bool {
    if a.is_null() || b.is_null() {
        return true;
    }
    let (ac, bc) = (Cell::from_value(a), Cell::from_value(b));
    if lut_sel(col, rows, out, |c| between_cells(c, ac, bc)) {
        return true;
    }
    match (a, b) {
        (&Value::Int(a), &Value::Int(b)) => int_sel(
            col,
            rows,
            out,
            move |x| a <= x && x <= b,
            move |lo, hi| decide_range(a <= lo && hi <= b, hi < a || lo > b),
        ),
        (&Value::Date(a), &Value::Date(b)) => {
            plain_sel(col, ColumnData::as_date_slice, rows, out, move |x| a <= x && x <= b)
        }
        (&Value::Float(a), &Value::Float(b)) => {
            plain_sel(col, ColumnData::as_float_slice, rows, out, move |x: f64| {
                x.total_cmp(&a).is_ge() && x.total_cmp(&b).is_le()
            })
        }
        _ => false,
    }
}

/// Element-wise port of the scalar `IN` list.
#[inline]
fn in_list_cell(c: Cell<'_>, list: &[Value], negated: bool) -> bool {
    let found = list.iter().any(|item| cell_sql_eq(c, Cell::from_value(item)));
    found != negated && !c.is_null()
}

/// Selection kernel for `col [NOT] IN (list)`: one decision per dictionary
/// code or RLE run, or a raw-cell membership test when every item is an
/// integer (or NULL, which matches nothing).
fn in_list_sel(col: &ColumnData, list: &[Value], negated: bool, rows: &Rows<'_>, out: &mut Vec<u32>) -> bool {
    if lut_sel(col, rows, out, |c| in_list_cell(c, list, negated)) {
        return true;
    }
    let ints: Option<Vec<i64>> = list
        .iter()
        .filter(|item| !item.is_null())
        .map(|item| match item {
            Value::Int(x) => Some(*x),
            _ => None,
        })
        .collect();
    match ints {
        Some(ints) => int_sel(col, rows, out, |x| ints.contains(&x) != negated, |_, _| None),
        None => false,
    }
}

/// Dictionary and RLE columns: `decide` runs once per code or run a row
/// touches, and its answer covers every row holding it. Returns false for
/// other encodings.
fn lut_sel(col: &ColumnData, rows: &Rows<'_>, out: &mut Vec<u32>, decide: impl Fn(Cell<'_>) -> bool) -> bool {
    match col {
        ColumnData::Dict(d) => {
            // Per code: 0 undecided, 1 rejected, 2 accepted.
            let mut memo = vec![0u8; d.values.len()];
            select(rows, out, |_, p| {
                let c = d.codes[p] as usize;
                if memo[c] == 0 {
                    memo[c] = 1 + u8::from(decide(Cell::Str(&d.values[c])));
                }
                memo[c] == 2
            });
        }
        ColumnData::RleInt(r) => run_sel(&r.ends, |k| decide(Cell::Int(r.vals[k])), rows, out),
        ColumnData::RleDate(r) => run_sel(&r.ends, |k| decide(Cell::Date(r.vals[k])), rows, out),
        _ => return false,
    }
    true
}

/// Selects rows of an RLE column by run: a range appends each accepted
/// run's overlap whole; a selection finds each row's run through a
/// [`Cursor`], deciding each run once per visit.
fn run_sel(ends: &[u32], decide: impl Fn(usize) -> bool, rows: &Rows<'_>, out: &mut Vec<u32>) {
    match rows {
        Rows::Range(r) => {
            let mut k = ends.partition_point(|&e| e as usize <= r.start);
            let mut lo = r.start;
            while lo < r.end {
                let hi = (ends[k] as usize).min(r.end);
                if decide(k) {
                    out.extend(lo as u32..hi as u32);
                }
                lo = hi;
                k += 1;
            }
        }
        Rows::Sel(_) => {
            let mut cur = Cursor::default();
            let mut last = (usize::MAX, false);
            select(rows, out, |_, p| {
                let k = cur.run_of(ends, p);
                if k != last.0 {
                    last = (k, decide(k));
                }
                last.1
            });
        }
    }
}

/// Plain or nullable `T` cells (`slice` picks the plain vector): `test`
/// per non-NULL cell. Returns false for other shapes.
fn plain_sel<T: Copy>(
    col: &ColumnData,
    slice: impl Fn(&ColumnData) -> Option<&[T]>,
    rows: &Rows<'_>,
    out: &mut Vec<u32>,
    test: impl Fn(T) -> bool,
) -> bool {
    let (nulls, values) = match col {
        ColumnData::Nullable { nulls, values } => (Some(&nulls[..]), &**values),
        c => (None, c),
    };
    let Some(v) = slice(values) else {
        return false;
    };
    match nulls {
        None => select(rows, out, |_, p| test(v[p])),
        Some(n) => select(rows, out, |_, p| !n[p] && test(v[p])),
    }
    true
}

/// `i64` cells: plain and nullable through [`plain_sel`], frame-of-reference
/// through [`for_sel`] (`envelope` decides whole blocks).
fn int_sel(
    col: &ColumnData,
    rows: &Rows<'_>,
    out: &mut Vec<u32>,
    test: impl Fn(i64) -> bool,
    envelope: impl Fn(i64, i64) -> Option<bool>,
) -> bool {
    match col {
        ColumnData::ForInt(f) => {
            for_sel(f, rows, out, test, envelope);
            true
        }
        _ => plain_sel(col, ColumnData::as_int_slice, rows, out, test),
    }
}

/// Frame-of-reference selection. Over a row range, each FOR block is first
/// decided against its `[ref, max]` envelope (`envelope(ref, max)`: whole
/// block in or out without touching the packed words); a straddling block
/// unpacks each delta in a register and tests `ref + delta` — no block is
/// decoded into memory. Over a selection, each block a row lands in is
/// decoded once through a [`Cursor`].
fn for_sel(
    f: &ForInt,
    rows: &Rows<'_>,
    out: &mut Vec<u32>,
    test: impl Fn(i64) -> bool,
    envelope: impl Fn(i64, i64) -> Option<bool>,
) {
    let Rows::Range(r) = rows else {
        let mut cur = Cursor::default();
        select(rows, out, |_, p| test(cur.for_cell(f, p)));
        return;
    };
    let mut lo = r.start;
    while lo < r.end {
        let b = lo / FOR_BLOCK_ROWS;
        let first = b * FOR_BLOCK_ROWS;
        let hi = (first + FOR_BLOCK_ROWS).min(r.end);
        let base = f.refs[b];
        let w = f.widths[b] as usize;
        match envelope(base, f.maxs[b]) {
            Some(true) => out.extend(lo as u32..hi as u32),
            Some(false) => {}
            None if w == 0 => {
                if test(base) {
                    out.extend(lo as u32..hi as u32);
                }
            }
            None => {
                let words = &f.packed[f.offsets[b] as usize..];
                let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                let mut bit = (lo - first) * w;
                select(&Rows::Range(lo..hi), out, |_, _| {
                    let (word, shift) = (bit >> 6, bit & 63);
                    let d = ((words[word] >> shift) | ((words[word + 1] << 1) << (63 - shift))) & mask;
                    bit += w;
                    test(base.wrapping_add(d as i64))
                });
            }
        }
        lo = hi;
    }
}

/// Whether every value in a FOR block's `[lo, hi]` envelope answers
/// `x op lit` the same way: `Some(answer)`, or `None` when it straddles.
fn cmp_envelope(op: BinaryOp, lit: i64, lo: i64, hi: i64) -> Option<bool> {
    match op {
        BinaryOp::Eq => (lit < lo || lit > hi).then_some(false),
        BinaryOp::NotEq => (lit < lo || lit > hi).then_some(true),
        BinaryOp::Lt => decide_range(hi < lit, lo >= lit),
        BinaryOp::LtEq => decide_range(hi <= lit, lo > lit),
        BinaryOp::Gt => decide_range(lo > lit, hi <= lit),
        BinaryOp::GtEq => decide_range(lo >= lit, hi < lit),
        _ => unreachable!("not a comparison operator"),
    }
}

/// Mirror image of a comparison operator, so `lit op col` can be evaluated
/// as `col flip(op) lit` with the column normalized to the left.
fn flip_cmp(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

/// `Some(true)` when the whole envelope satisfies the predicate,
/// `Some(false)` when none of it can, `None` when the block straddles.
#[inline]
fn decide_range(all_true: bool, all_false: bool) -> Option<bool> {
    if all_true {
        Some(true)
    } else if all_false {
        Some(false)
    } else {
        None
    }
}

#[inline]
fn cmp_cells(a: Cell<'_>, op: BinaryOp, b: Cell<'_>) -> bool {
    use std::cmp::Ordering;
    match op {
        BinaryOp::Eq => cell_sql_eq(a, b),
        BinaryOp::NotEq => !cell_sql_eq(a, b) && !a.is_null() && !b.is_null(),
        _ => {
            if a.is_null() || b.is_null() {
                return false;
            }
            let ord = cell_total_cmp(a, b);
            match op {
                BinaryOp::Lt => ord == Ordering::Less,
                BinaryOp::LtEq => ord != Ordering::Greater,
                BinaryOp::Gt => ord == Ordering::Greater,
                BinaryOp::GtEq => ord != Ordering::Less,
                _ => unreachable!("cmp_cells called with non-comparison op"),
            }
        }
    }
}

/// Batch value entry point: evaluates `expr` for every selected row of
/// `view` into a dense typed column. Element-for-element equivalent to
/// calling [`eval`] on materialized rows.
pub fn eval_batch(
    expr: &BoundExpr,
    schema: &Schema,
    view: &BatchView<'_>,
) -> Result<ColumnData, EvalError> {
    let n = view.selected_len();
    match expr {
        BoundExpr::Column(c) => {
            let pos = schema
                .position(c.table_slot, c.column_idx)
                .ok_or(EvalError::MissingColumn {
                    table_slot: c.table_slot,
                    column_idx: c.column_idx,
                })?;
            let col = view.col(pos)?;
            // Every row set gathers, the whole column included: a morsel's
            // gather decodes RLE/FOR, so cloning the encoded storage here
            // would hand threads 1 a different variant than threads 2.
            Ok(match &view.rows {
                Rows::Sel(sel) => col.gather_rows(sel),
                Rows::Range(r) => col.gather_rows(&(r.start as u32..r.end as u32).collect::<Vec<_>>()),
            })
        }
        BoundExpr::Literal(v) => {
            let mut b = ColBuilder::with_capacity(n);
            for _ in 0..n {
                b.push(v.clone());
            }
            Ok(b.finish())
        }
        BoundExpr::Binary { left, op, right }
            if matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div) =>
        {
            let l = operand_of(left, schema, view)?;
            let r = operand_of(right, schema, view)?;
            let mut b = ColBuilder::with_capacity(n);
            for j in 0..n {
                let phys = view.phys(j);
                b.push(arith_cells(l.cell(j, phys), *op, r.cell(j, phys))?);
            }
            Ok(b.finish())
        }
        BoundExpr::Substring { expr: inner, start, len } => {
            let v = operand_of(inner, schema, view)?;
            let mut b = ColBuilder::with_capacity(n);
            for j in 0..n {
                match v.cell(j, view.phys(j)) {
                    Cell::Str(s) => {
                        b.push(Value::Str(substring_slice(s, *start, *len).to_string()))
                    }
                    Cell::Null => b.push(Value::Null),
                    other => {
                        return Err(EvalError::Type(format!(
                            "SUBSTRING expects a string, got {}",
                            other.to_value()
                        )))
                    }
                }
            }
            Ok(b.finish())
        }
        // Predicate-shaped expressions evaluated for their value produce the
        // same 0/1 integers as the scalar path.
        BoundExpr::Binary { .. }
        | BoundExpr::Not(_)
        | BoundExpr::InList { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::Like { .. }
        | BoundExpr::IsNull { .. } => {
            // The scalar evaluator represents these as Int(0/1): mark each
            // row the selection kernel kept (a subsequence of the view's).
            let mut passed = Vec::with_capacity(n);
            eval_predicate_sel(expr, schema, view, &mut passed)?;
            let mut k = 0;
            let mask = (0..n).map(|j| {
                let hit = passed.get(k) == Some(&(view.phys(j) as u32));
                k += usize::from(hit);
                i64::from(hit)
            });
            Ok(ColumnData::Int(mask.collect()))
        }
        BoundExpr::Aggregate { .. } => Err(EvalError::AggregateInScalarContext),
        BoundExpr::Param { idx, .. } => Err(EvalError::UnboundParam(*idx)),
        BoundExpr::InListParam { items, .. } => {
            Err(EvalError::UnboundParam(first_param_idx(items)))
        }
    }
}

/// The first placeholder index in a parameterized IN list (for the
/// unbound-parameter error when one survives to execution).
fn first_param_idx(items: &[BoundExpr]) -> usize {
    items
        .iter()
        .find_map(|it| match it {
            BoundExpr::Param { idx, .. } => Some(*idx),
            _ => None,
        })
        .unwrap_or(0)
}

#[inline]
fn arith_cells(l: Cell<'_>, op: BinaryOp, r: Cell<'_>) -> Result<Value, EvalError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Cell::Int(a), Cell::Int(b)) => Ok(match op {
            BinaryOp::Add => Value::Int(a.wrapping_add(b)),
            BinaryOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinaryOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinaryOp::Div => {
                if b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            _ => unreachable!("arith_cells called with non-arithmetic op"),
        }),
        _ => {
            let (a, b) = match (l.as_float(), r.as_float()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EvalError::Type(format!(
                        "arithmetic on non-numeric values {} {op} {}",
                        l.to_value(),
                        r.to_value()
                    )))
                }
            };
            Ok(match op {
                BinaryOp::Add => Value::Float(a + b),
                BinaryOp::Sub => Value::Float(a - b),
                BinaryOp::Mul => Value::Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => unreachable!("arith_cells called with non-arithmetic op"),
            })
        }
    }
}

/// SQL `LIKE` with `%` (any run) and `_` (single char), case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // try consuming 0..=len chars
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::binder::{Binder, BoundQuery};
    use qpe_sql::catalog::{ColumnDef, DataType, MemoryCatalog, TableDef};

    fn bind(sql: &str) -> BoundQuery {
        let mut cat = MemoryCatalog::new();
        cat.add_table(TableDef {
            name: "t".into(),
            columns: vec![
                ColumnDef { name: "a".into(), data_type: DataType::Int, ndv: 10 },
                ColumnDef { name: "s".into(), data_type: DataType::Str, ndv: 10 },
                ColumnDef { name: "f".into(), data_type: DataType::Float, ndv: 10 },
            ],
            row_count: 10,
            indexed_columns: vec![],
            primary_key: "a".into(),
        });
        Binder::new(&cat).bind_sql(sql).unwrap()
    }

    fn schema() -> Schema {
        Schema::new(vec![(0, 0), (0, 1), (0, 2)])
    }

    fn row(a: i64, s: &str, f: f64) -> Vec<Value> {
        vec![Value::Int(a), Value::Str(s.into()), Value::Float(f)]
    }

    fn check(sql_where: &str, r: &[Value]) -> bool {
        let q = bind(&format!("SELECT * FROM t WHERE {sql_where}"));
        let pred = &q.filters[0].expr;
        eval_predicate(pred, &schema(), r).unwrap()
    }

    #[test]
    fn comparison_predicates() {
        assert!(check("a = 5", &row(5, "x", 0.0)));
        assert!(!check("a = 5", &row(6, "x", 0.0)));
        assert!(check("a < 5", &row(4, "x", 0.0)));
        assert!(check("a >= 5", &row(5, "x", 0.0)));
        assert!(check("a <> 5", &row(4, "x", 0.0)));
    }

    #[test]
    fn numeric_widening_in_comparisons() {
        assert!(check("f > 1", &row(0, "x", 1.5)));
        assert!(check("a < 1.5", &row(1, "x", 0.0)));
    }

    #[test]
    fn in_list_and_negation() {
        assert!(check("a IN (1, 5, 9)", &row(5, "x", 0.0)));
        assert!(!check("a IN (1, 5, 9)", &row(4, "x", 0.0)));
        assert!(check("a NOT IN (1, 5, 9)", &row(4, "x", 0.0)));
    }

    #[test]
    fn substring_semantics_one_based() {
        assert!(check("SUBSTRING(s, 1, 2) = 'he'", &row(0, "hello", 0.0)));
        assert!(check("SUBSTRING(s, 2, 3) = 'ell'", &row(0, "hello", 0.0)));
        // start past end yields empty string
        assert!(check("SUBSTRING(s, 9, 2) = ''", &row(0, "hello", 0.0)));
        // len clipped at end
        assert!(check("SUBSTRING(s, 4, 100) = 'lo'", &row(0, "hello", 0.0)));
    }

    #[test]
    fn paper_example1_phone_prefix_predicate() {
        assert!(check(
            "SUBSTRING(s, 1, 2) IN ('20', '40', '22')",
            &row(0, "20-123-456-7890", 0.0)
        ));
        assert!(!check(
            "SUBSTRING(s, 1, 2) IN ('20', '40', '22')",
            &row(0, "33-123-456-7890", 0.0)
        ));
    }

    #[test]
    fn between_inclusive() {
        assert!(check("a BETWEEN 3 AND 5", &row(3, "x", 0.0)));
        assert!(check("a BETWEEN 3 AND 5", &row(5, "x", 0.0)));
        assert!(!check("a BETWEEN 3 AND 5", &row(6, "x", 0.0)));
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello world", "%world"));
        assert!(like_match("hello world", "%lo wo%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert!(check("s LIKE '%ell%'", &row(0, "hello", 0.0)));
        assert!(check("s NOT LIKE '%zzz%'", &row(0, "hello", 0.0)));
    }

    #[test]
    fn and_or_not() {
        assert!(check("a = 1 OR a = 2", &row(2, "x", 0.0)));
        assert!(!check("NOT (a = 2)", &row(2, "x", 0.0)));
    }

    #[test]
    fn null_comparisons_are_false() {
        let q = bind("SELECT * FROM t WHERE a = 5");
        let pred = &q.filters[0].expr;
        let r = vec![Value::Null, Value::Null, Value::Null];
        assert!(!eval_predicate(pred, &schema(), &r).unwrap());
    }

    #[test]
    fn is_null_tests() {
        let r = vec![Value::Null, Value::Str("x".into()), Value::Float(0.0)];
        assert!(check("a IS NULL", &r));
        assert!(check("s IS NOT NULL", &r));
    }

    #[test]
    fn arithmetic() {
        assert!(check("a + 1 = 6", &row(5, "x", 0.0)));
        assert!(check("a * 2 = 10", &row(5, "x", 0.0)));
        assert!(check("f / 2 = 0.75", &row(0, "x", 1.5)));
        // integer division
        assert!(check("a / 2 = 2", &row(5, "x", 0.0)));
    }

    #[test]
    fn division_by_zero_yields_null_predicate_false() {
        assert!(!check("a / 0 = 1", &row(5, "x", 0.0)));
    }

    #[test]
    fn missing_column_is_error() {
        let q = bind("SELECT * FROM t WHERE a = 1");
        let pred = &q.filters[0].expr;
        let bad_schema = Schema::new(vec![(0, 1)]);
        let r = vec![Value::Str("x".into())];
        assert!(matches!(
            eval_predicate(pred, &bad_schema, &r),
            Err(EvalError::MissingColumn { .. })
        ));
    }

    /// Satellite: NULL-bearing computed columns keep the typed+mask
    /// (`Nullable`) representation instead of demoting to `Mixed` — the same
    /// fast path storage columns take.
    #[test]
    fn computed_nullable_columns_stay_typed() {
        let q = bind("SELECT a + 1 FROM t");
        let expr = &q.projections[0].expr;
        let one_col_schema = Schema::new(vec![(0, 0)]);

        // NULL in the middle: mask allocated on demand, typed buffer kept.
        let col = ColumnData::from_values(&[Value::Int(1), Value::Null, Value::Int(3)]);
        let cols = vec![Some(ColRef::Single(&col))];
        let view = BatchView { cols: &cols, rows: Rows::Range(0..3) };
        let out = eval_batch(expr, &one_col_schema, &view).unwrap();
        match &out {
            ColumnData::Nullable { nulls, values } => {
                assert_eq!(nulls, &vec![false, true, false]);
                assert!(matches!(**values, ColumnData::Int(_)));
            }
            other => panic!("expected Nullable, got {other:?}"),
        }
        assert_eq!(out.get(0), Value::Int(2));
        assert_eq!(out.get(1), Value::Null);
        assert_eq!(out.get(2), Value::Int(4));

        // Leading NULLs backfill sentinels once the type is known.
        let col = ColumnData::from_values(&[Value::Null, Value::Null, Value::Int(7)]);
        let cols = vec![Some(ColRef::Single(&col))];
        let view = BatchView { cols: &cols, rows: Rows::Range(0..3) };
        let out = eval_batch(expr, &one_col_schema, &view).unwrap();
        assert!(matches!(out, ColumnData::Nullable { .. }));
        assert_eq!(out.get(0), Value::Null);
        assert_eq!(out.get(2), Value::Int(8));

        // No NULLs: plain typed column, no mask allocated.
        let col = ColumnData::Int(vec![1, 2]);
        let cols = vec![Some(ColRef::Single(&col))];
        let view = BatchView { cols: &cols, rows: Rows::Range(0..2) };
        let out = eval_batch(expr, &one_col_schema, &view).unwrap();
        assert!(matches!(out, ColumnData::Int(_)));

        // All-NULL stays generic (no type to anchor a mask to).
        let col = ColumnData::from_values(&[Value::Null, Value::Null]);
        let cols = vec![Some(ColRef::Single(&col))];
        let view = BatchView { cols: &cols, rows: Rows::Range(0..2) };
        let out = eval_batch(expr, &one_col_schema, &view).unwrap();
        assert!(matches!(&out, ColumnData::Mixed(v) if v == &vec![Value::Null, Value::Null]));
    }

    #[test]
    fn schema_concat_and_position() {
        let a = Schema::new(vec![(0, 0), (0, 1)]);
        let b = Schema::new(vec![(1, 0)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.position(1, 0), Some(2));
        assert_eq!(c.position(2, 0), None);
        assert!(!c.is_empty());
    }
}
