//! Name resolution and predicate classification.
//!
//! The binder turns a parsed [`SelectStatement`] into a [`BoundQuery`]: every
//! column reference is resolved to a `(table slot, column index)` pair, the
//! `WHERE` conjunction is split into single-table filters and equi-join
//! predicates, and the projection is classified as plain / scalar-aggregate /
//! grouped-aggregate. Both HTAP optimizers start from this structure.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::ast::{
    AggFunc, BinaryOp, DeleteStatement, Expr, InListItem, InsertStatement, SelectItem,
    SelectStatement, Statement, UpdateStatement,
};
use crate::catalog::{Catalog, DataType, TableDef};
use crate::error::SqlError;
use crate::value::Value;

/// A resolved column reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Index into [`BoundQuery::tables`].
    pub table_slot: usize,
    /// Index into the table's column list.
    pub column_idx: usize,
    /// Resolved type.
    pub data_type: DataType,
}

/// A table occurrence in the query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundTable {
    /// Catalog table name.
    pub name: String,
    /// Alias used in the query, if any.
    pub alias: Option<String>,
    /// Row count snapshot at bind time (optimizers read this).
    pub row_count: u64,
}

/// Bound scalar expression; mirrors [`Expr`] with resolved columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BoundExpr {
    /// Resolved column.
    Column(ColumnRef),
    /// Literal.
    Literal(Value),
    /// Prepared-statement parameter placeholder. `ty` is the type inferred
    /// from the comparison/assignment context at bind time (`None` when no
    /// context constrains it); the concrete value is injected at execution
    /// time via [`substitute_params`], after coercion through the same rules
    /// INSERT literals use.
    Param {
        /// 0-based parameter index.
        idx: usize,
        /// Context-inferred type, if any.
        ty: Option<DataType>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Logical negation.
    Not(Box<BoundExpr>),
    /// `IN` list over literals.
    InList {
        /// Probed expression.
        expr: Box<BoundExpr>,
        /// Literal list.
        list: Vec<Value>,
        /// `NOT IN` flag.
        negated: bool,
    },
    /// `IN` list with one or more parameter placeholders among the
    /// elements. `items` holds only [`BoundExpr::Literal`] and
    /// [`BoundExpr::Param`] nodes; [`substitute_params`] lowers the whole
    /// node to a plain [`BoundExpr::InList`] once every placeholder has a
    /// value, so executors and pruners only ever see the literal form.
    InListParam {
        /// Probed expression.
        expr: Box<BoundExpr>,
        /// Literal / placeholder elements.
        items: Vec<BoundExpr>,
        /// `NOT IN` flag.
        negated: bool,
    },
    /// Range test.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
    },
    /// Pattern match.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Pattern with `%`/`_`.
        pattern: String,
        /// `NOT LIKE` flag.
        negated: bool,
    },
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// `IS NOT NULL` flag.
        negated: bool,
    },
    /// `SUBSTRING(expr, start, len)`.
    Substring {
        /// Source expression.
        expr: Box<BoundExpr>,
        /// 1-based start.
        start: i64,
        /// Length.
        len: i64,
    },
    /// Aggregate call (only valid in projections / HAVING / ORDER BY).
    Aggregate {
        /// Function.
        func: AggFunc,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<BoundExpr>>,
        /// DISTINCT flag.
        distinct: bool,
    },
}

impl BoundExpr {
    /// Set of table slots this expression touches.
    pub fn table_slots(&self) -> Vec<usize> {
        let mut slots = Vec::new();
        self.walk_columns(&mut |c| {
            if !slots.contains(&c.table_slot) {
                slots.push(c.table_slot);
            }
        });
        slots
    }

    /// Visits every column reference.
    pub fn walk_columns(&self, f: &mut impl FnMut(&ColumnRef)) {
        match self {
            BoundExpr::Column(c) => f(c),
            BoundExpr::Literal(_) | BoundExpr::Param { .. } => {}
            BoundExpr::Binary { left, right, .. } => {
                left.walk_columns(f);
                right.walk_columns(f);
            }
            BoundExpr::Not(e) => e.walk_columns(f),
            BoundExpr::InList { expr, .. } | BoundExpr::InListParam { expr, .. } => {
                expr.walk_columns(f)
            }
            BoundExpr::Between { expr, low, high } => {
                expr.walk_columns(f);
                low.walk_columns(f);
                high.walk_columns(f);
            }
            BoundExpr::Like { expr, .. } => expr.walk_columns(f),
            BoundExpr::IsNull { expr, .. } => expr.walk_columns(f),
            BoundExpr::Substring { expr, .. } => expr.walk_columns(f),
            BoundExpr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.walk_columns(f);
                }
            }
        }
    }

    /// True if the expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            BoundExpr::Aggregate { .. } => true,
            BoundExpr::Column(_) | BoundExpr::Literal(_) | BoundExpr::Param { .. } => false,
            BoundExpr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            BoundExpr::Not(e)
            | BoundExpr::InList { expr: e, .. }
            | BoundExpr::InListParam { expr: e, .. }
            | BoundExpr::Like { expr: e, .. }
            | BoundExpr::IsNull { expr: e, .. }
            | BoundExpr::Substring { expr: e, .. } => e.contains_aggregate(),
            BoundExpr::Between { expr, low, high } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
        }
    }

    /// If the expression is a bare column (possibly wrapped in nothing),
    /// returns the reference. Used for index-eligibility analysis: an index
    /// only serves predicates on the *raw* column — `SUBSTRING(c_phone,..)`
    /// disqualifies the `c_phone` index, which is the exact trap the paper's
    /// DBG-PT baseline falls into.
    pub fn as_bare_column(&self) -> Option<&ColumnRef> {
        match self {
            BoundExpr::Column(c) => Some(c),
            _ => None,
        }
    }
}

/// A single-table filter conjunct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableFilter {
    /// Which table slot the filter restricts.
    pub table_slot: usize,
    /// The predicate.
    pub expr: BoundExpr,
}

/// An equi-join conjunct `left = right` between two different tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EquiJoin {
    /// Left column.
    pub left: ColumnRef,
    /// Right column.
    pub right: ColumnRef,
}

impl EquiJoin {
    /// The pair of table slots this join connects, smaller first.
    pub fn slots(&self) -> (usize, usize) {
        let (a, b) = (self.left.table_slot, self.right.table_slot);
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// How the projection aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateKind {
    /// No aggregates at all.
    None,
    /// Aggregates with no GROUP BY → one output row.
    Scalar,
    /// GROUP BY aggregation.
    Grouped,
}

/// A projected output column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundProjection {
    /// The output expression.
    pub expr: BoundExpr,
    /// Output column label.
    pub label: String,
}

/// A fully-bound query, ready for either optimizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundQuery {
    /// Tables in FROM order; slot index is the canonical table id inside the
    /// query.
    pub tables: Vec<BoundTable>,
    /// Single-table filter conjuncts.
    pub filters: Vec<TableFilter>,
    /// Equi-join conjuncts.
    pub joins: Vec<EquiJoin>,
    /// Remaining multi-table or non-equi conjuncts, applied after joins.
    pub residual_predicates: Vec<BoundExpr>,
    /// Output projections.
    pub projections: Vec<BoundProjection>,
    /// Aggregation classification.
    pub aggregate_kind: AggregateKind,
    /// GROUP BY keys.
    pub group_by: Vec<BoundExpr>,
    /// HAVING predicate.
    pub having: Option<BoundExpr>,
    /// ORDER BY keys with descending flags.
    pub order_by: Vec<(BoundExpr, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
    /// OFFSET.
    pub offset: Option<u64>,
    /// The original SQL text (used in prompts and the knowledge base).
    pub sql: String,
    /// Per-parameter context-inferred types, indexed by parameter index
    /// (empty for statements without placeholders). `None` marks a parameter
    /// no comparison/assignment context constrained — any value is accepted.
    pub params: Vec<Option<DataType>>,
}

impl BoundQuery {
    /// Join conjuncts that connect `a` and `b` (in either order).
    pub fn joins_between(&self, a: usize, b: usize) -> Vec<&EquiJoin> {
        self.joins
            .iter()
            .filter(|j| j.slots() == if a <= b { (a, b) } else { (b, a) })
            .collect()
    }

    /// Filters on table slot `slot`.
    pub fn filters_on(&self, slot: usize) -> Vec<&TableFilter> {
        self.filters.iter().filter(|f| f.table_slot == slot).collect()
    }

    /// True when the query is a top-N pattern (ORDER BY + LIMIT), one of the
    /// two workload families in the paper's knowledge base.
    pub fn is_top_n(&self) -> bool {
        !self.order_by.is_empty() && self.limit.is_some()
    }
}

/// A fully-bound statement: one read shape or one write shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BoundStatement {
    /// A read query (dual-engine execution).
    Query(BoundQuery),
    /// A write statement (TP-engine execution only).
    Dml(BoundDml),
}

/// A bound write statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BoundDml {
    /// Bound `INSERT`.
    Insert(BoundInsert),
    /// Bound `UPDATE`.
    Update(BoundUpdate),
    /// Bound `DELETE`.
    Delete(BoundDelete),
}

impl BoundDml {
    /// The written table's name.
    pub fn table_name(&self) -> &str {
        match self {
            BoundDml::Insert(i) => &i.table,
            BoundDml::Update(u) => &u.table,
            BoundDml::Delete(d) => &d.table,
        }
    }

    /// The synthetic single-table read used to locate target rows
    /// (`None` for `INSERT`, which touches no existing rows).
    pub fn scan(&self) -> Option<&BoundQuery> {
        match self {
            BoundDml::Insert(_) => None,
            BoundDml::Update(u) => Some(&u.scan),
            BoundDml::Delete(d) => Some(&d.scan),
        }
    }

    /// Context-inferred parameter types, indexed by parameter index.
    pub fn param_types(&self) -> &[Option<DataType>] {
        match self {
            BoundDml::Insert(i) => &i.params,
            BoundDml::Update(u) => &u.params,
            BoundDml::Delete(d) => &d.params,
        }
    }
}

impl BoundStatement {
    /// Context-inferred parameter types, indexed by parameter index (empty
    /// for statements without placeholders).
    pub fn param_types(&self) -> &[Option<DataType>] {
        match self {
            BoundStatement::Query(q) => &q.params,
            BoundStatement::Dml(d) => d.param_types(),
        }
    }

    /// Number of parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.param_types().len()
    }
}

/// A bound `INSERT`: rows normalized to full table width (explicit column
/// lists reordered, missing columns NULL-filled) with literals coerced to the
/// catalog column types. Parameter placeholders leave a NULL in `rows` and a
/// patch entry in `param_slots`; execution coerces the bound value to the
/// column type (the same rules literals went through) and patches it in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundInsert {
    /// Target table.
    pub table: String,
    /// Full-width rows in table column order.
    pub rows: Vec<Vec<Value>>,
    /// Placeholder positions: which `rows` cell each parameter fills.
    pub param_slots: Vec<InsertParamSlot>,
    /// Per-parameter types (always the target column's catalog type).
    pub params: Vec<Option<DataType>>,
}

/// One parameter placeholder inside a bound `INSERT`'s `VALUES` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InsertParamSlot {
    /// Row index into [`BoundInsert::rows`].
    pub row: usize,
    /// Column index within the full-width row.
    pub col: usize,
    /// 0-based parameter index.
    pub idx: usize,
}

/// A bound `UPDATE`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundUpdate {
    /// Target table.
    pub table: String,
    /// `(column index, value expression)` assignments; expressions may read
    /// the old row (e.g. `SET c_acctbal = c_acctbal + 10`).
    pub assignments: Vec<(usize, BoundExpr)>,
    /// Synthetic single-table read (`SELECT * FROM t WHERE pred`) the TP
    /// planner turns into the row-locating access path; the bound `WHERE`
    /// conjuncts live in its `filters` (empty = every row targeted).
    pub scan: BoundQuery,
    /// Statement-level parameter types (assignments and WHERE share one
    /// numbering).
    pub params: Vec<Option<DataType>>,
}

/// A bound `DELETE`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundDelete {
    /// Target table.
    pub table: String,
    /// Synthetic single-table read used to locate target rows; the bound
    /// `WHERE` conjuncts live in its `filters`.
    pub scan: BoundQuery,
    /// Statement-level parameter types.
    pub params: Vec<Option<DataType>>,
}

/// Accumulates parameter indices and context-inferred types across every
/// expression of one statement (the statement-global numbering the parser
/// assigned).
#[derive(Default)]
struct ParamTable {
    types: Vec<Option<DataType>>,
    seen: Vec<bool>,
}

impl ParamTable {
    fn grow(&mut self, idx: usize) {
        if idx >= self.types.len() {
            self.types.resize(idx + 1, None);
            self.seen.resize(idx + 1, false);
        }
    }

    /// Marks a parameter as referenced (no type context).
    fn note(&mut self, idx: usize) {
        self.grow(idx);
        self.seen[idx] = true;
    }

    /// Constrains a parameter's type from context. A parameter reused under
    /// conflicting concrete types is a bind error, not a silent coin flip.
    fn constrain(&mut self, idx: usize, ty: DataType) -> Result<DataType, SqlError> {
        self.grow(idx);
        self.seen[idx] = true;
        match self.types[idx] {
            None => {
                self.types[idx] = Some(ty);
                Ok(ty)
            }
            Some(prev) if prev == ty => Ok(prev),
            Some(prev) => Err(SqlError::bind(format!(
                "parameter ${} used with conflicting types {prev:?} and {ty:?}",
                idx + 1
            ))),
        }
    }

    /// Final per-parameter type table; errors on numbering gaps ($3 written
    /// but $2 never referenced).
    fn finish(self) -> Result<Vec<Option<DataType>>, SqlError> {
        if let Some(gap) = self.seen.iter().position(|s| !s) {
            return Err(SqlError::bind(format!(
                "parameter ${} is never referenced (parameter numbers must be contiguous)",
                gap + 1
            )));
        }
        Ok(self.types)
    }
}

/// The data type a literal value would need a column to have, if any.
fn literal_type(v: &Value) -> Option<DataType> {
    match v {
        Value::Int(_) => Some(DataType::Int),
        Value::Float(_) => Some(DataType::Float),
        Value::Str(_) => Some(DataType::Str),
        Value::Date(_) => Some(DataType::Date),
        Value::Null => None,
    }
}

/// If `e` is a parameter, constrain it to `ty` and record the result on the
/// node itself.
fn constrain_param(e: &mut BoundExpr, ty: DataType, t: &mut ParamTable) -> Result<(), SqlError> {
    if let BoundExpr::Param { idx, ty: slot } = e {
        *slot = Some(t.constrain(*idx, ty)?);
    }
    Ok(())
}

/// The context type the other side of a comparison/arithmetic pins a
/// parameter to: a bare column's catalog type, or a literal's own type.
fn context_type(e: &BoundExpr) -> Option<DataType> {
    match e {
        BoundExpr::Column(c) => Some(c.data_type),
        BoundExpr::Literal(v) => literal_type(v),
        _ => None,
    }
}

/// Walks one bound expression, recording every parameter and inferring types
/// from comparison/assignment context (`col = ?` pins the parameter to the
/// column's type; `? LIKE`/`SUBSTRING(?)` pin strings; IN lists pin the item
/// type).
fn infer_expr_params(e: &mut BoundExpr, t: &mut ParamTable) -> Result<(), SqlError> {
    match e {
        BoundExpr::Param { idx, .. } => t.note(*idx),
        BoundExpr::Column(_) | BoundExpr::Literal(_) => {}
        BoundExpr::Binary { left, op, right } => {
            infer_expr_params(left, t)?;
            infer_expr_params(right, t)?;
            let contextual = op.is_comparison()
                || matches!(
                    op,
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div
                );
            if contextual {
                if let Some(ty) = context_type(left) {
                    constrain_param(right, ty, t)?;
                }
                if let Some(ty) = context_type(right) {
                    constrain_param(left, ty, t)?;
                }
            }
        }
        BoundExpr::Not(inner) => infer_expr_params(inner, t)?,
        BoundExpr::InList { expr, list, .. } => {
            infer_expr_params(expr, t)?;
            if let Some(ty) = list.iter().find_map(literal_type) {
                constrain_param(expr, ty, t)?;
            }
        }
        BoundExpr::InListParam { expr, items, .. } => {
            infer_expr_params(expr, t)?;
            for item in items.iter_mut() {
                infer_expr_params(item, t)?;
            }
            // The probed column's type pins every placeholder element; a
            // literal element's type pins a placeholder probed expression.
            if let Some(ty) = context_type(expr) {
                for item in items.iter_mut() {
                    constrain_param(item, ty, t)?;
                }
            }
            if let Some(ty) = items.iter().find_map(context_type) {
                constrain_param(expr, ty, t)?;
            }
        }
        BoundExpr::Between { expr, low, high } => {
            infer_expr_params(expr, t)?;
            infer_expr_params(low, t)?;
            infer_expr_params(high, t)?;
            if let Some(ty) = context_type(expr) {
                constrain_param(low, ty, t)?;
                constrain_param(high, ty, t)?;
            }
            if let Some(ty) = context_type(low).or_else(|| context_type(high)) {
                constrain_param(expr, ty, t)?;
            }
        }
        BoundExpr::Like { expr, .. } => {
            infer_expr_params(expr, t)?;
            constrain_param(expr, DataType::Str, t)?;
        }
        BoundExpr::IsNull { expr, .. } => infer_expr_params(expr, t)?,
        BoundExpr::Substring { expr, .. } => {
            infer_expr_params(expr, t)?;
            constrain_param(expr, DataType::Str, t)?;
        }
        BoundExpr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                infer_expr_params(a, t)?;
            }
        }
    }
    Ok(())
}

/// Runs parameter inference over every expression tree of a bound query,
/// returning the statement's parameter type table.
fn infer_query_params(q: &mut BoundQuery) -> Result<ParamTable, SqlError> {
    let mut t = ParamTable::default();
    infer_query_params_into(q, &mut t)?;
    Ok(t)
}

fn infer_query_params_into(q: &mut BoundQuery, t: &mut ParamTable) -> Result<(), SqlError> {
    for f in &mut q.filters {
        infer_expr_params(&mut f.expr, t)?;
    }
    for r in &mut q.residual_predicates {
        infer_expr_params(r, t)?;
    }
    for p in &mut q.projections {
        infer_expr_params(&mut p.expr, t)?;
    }
    for g in &mut q.group_by {
        infer_expr_params(g, t)?;
    }
    if let Some(h) = &mut q.having {
        infer_expr_params(h, t)?;
    }
    for (o, _) in &mut q.order_by {
        infer_expr_params(o, t)?;
    }
    Ok(())
}

/// True when the expression contains a parameter placeholder anywhere.
pub fn expr_has_params(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Param { .. } => true,
        BoundExpr::Column(_) | BoundExpr::Literal(_) => false,
        BoundExpr::Binary { left, right, .. } => expr_has_params(left) || expr_has_params(right),
        BoundExpr::Not(x)
        | BoundExpr::InList { expr: x, .. }
        | BoundExpr::Like { expr: x, .. }
        | BoundExpr::IsNull { expr: x, .. }
        | BoundExpr::Substring { expr: x, .. } => expr_has_params(x),
        BoundExpr::Between { expr, low, high } => {
            expr_has_params(expr) || expr_has_params(low) || expr_has_params(high)
        }
        BoundExpr::InListParam { expr, items, .. } => {
            expr_has_params(expr) || items.iter().any(expr_has_params)
        }
        BoundExpr::Aggregate { arg, .. } => arg.as_deref().is_some_and(expr_has_params),
    }
}

/// Clones `e` with every parameter replaced by its bound value — the
/// execution-time injection step. Callers validate the parameter vector
/// (count and types) first; an out-of-range index is left as a `Param` node
/// and surfaces as an execution error downstream.
pub fn substitute_params(e: &BoundExpr, params: &[Value]) -> BoundExpr {
    // One containment walk up front; the recursive substitution below never
    // re-checks (a per-level check would walk subtrees quadratically).
    if !expr_has_params(e) {
        return e.clone();
    }
    subst_rec(e, params)
}

fn subst_rec(e: &BoundExpr, params: &[Value]) -> BoundExpr {
    match e {
        BoundExpr::Param { idx, ty } => match params.get(*idx) {
            Some(v) => BoundExpr::Literal(v.clone()),
            None => BoundExpr::Param { idx: *idx, ty: *ty },
        },
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(subst_rec(left, params)),
            op: *op,
            right: Box::new(subst_rec(right, params)),
        },
        BoundExpr::Not(x) => BoundExpr::Not(Box::new(subst_rec(x, params))),
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(subst_rec(expr, params)),
            list: list.clone(),
            negated: *negated,
        },
        BoundExpr::InListParam { expr, items, negated } => {
            let items: Vec<BoundExpr> = items.iter().map(|it| subst_rec(it, params)).collect();
            // Fully injected: lower to the literal form every downstream
            // consumer (pruners, executors, dictionary fast paths) knows.
            // An out-of-range index leaves a `Param` element behind and
            // keeps this form, surfacing as an execution error like any
            // other unbound parameter.
            if items.iter().all(|it| matches!(it, BoundExpr::Literal(_))) {
                let list = items
                    .into_iter()
                    .map(|it| match it {
                        BoundExpr::Literal(v) => v,
                        _ => unreachable!(),
                    })
                    .collect();
                BoundExpr::InList {
                    expr: Box::new(subst_rec(expr, params)),
                    list,
                    negated: *negated,
                }
            } else {
                BoundExpr::InListParam {
                    expr: Box::new(subst_rec(expr, params)),
                    items,
                    negated: *negated,
                }
            }
        }
        BoundExpr::Between { expr, low, high } => BoundExpr::Between {
            expr: Box::new(subst_rec(expr, params)),
            low: Box::new(subst_rec(low, params)),
            high: Box::new(subst_rec(high, params)),
        },
        BoundExpr::Like { expr, pattern, negated } => BoundExpr::Like {
            expr: Box::new(subst_rec(expr, params)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(subst_rec(expr, params)),
            negated: *negated,
        },
        BoundExpr::Substring { expr, start, len } => BoundExpr::Substring {
            expr: Box::new(subst_rec(expr, params)),
            start: *start,
            len: *len,
        },
        BoundExpr::Aggregate { func, arg, distinct } => BoundExpr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(subst_rec(a, params))),
            distinct: *distinct,
        },
        BoundExpr::Column(_) | BoundExpr::Literal(_) => e.clone(),
    }
}

/// Coerces one bound parameter value to its context-inferred type with the
/// same rules INSERT literals use (NULL passes, `Int` widens to `Float`,
/// everything else must match exactly). `Err` carries the expected type and
/// the offending value for structured error reporting.
pub fn coerce_param(v: Value, ty: Option<DataType>) -> Result<Value, (DataType, Value)> {
    let Some(ty) = ty else {
        return Ok(v);
    };
    match (&v, ty) {
        (Value::Null, _) => Ok(v),
        (Value::Int(_), DataType::Int) => Ok(v),
        (Value::Int(x), DataType::Float) => Ok(Value::Float(*x as f64)),
        (Value::Float(_), DataType::Float) => Ok(v),
        (Value::Str(_), DataType::Str) => Ok(v),
        (Value::Date(_), DataType::Date) => Ok(v),
        _ => Err((ty, v)),
    }
}

/// Binds statements against a catalog.
pub struct Binder<'a> {
    catalog: &'a dyn Catalog,
}

impl<'a> Binder<'a> {
    /// Creates a binder over `catalog`.
    pub fn new(catalog: &'a dyn Catalog) -> Self {
        Binder { catalog }
    }

    /// Parses and binds `sql` in one step.
    pub fn bind_sql(&self, sql: &str) -> Result<BoundQuery, SqlError> {
        let trimmed = sql.trim().trim_end_matches(';');
        let stmt = crate::parser::parse_select(trimmed)?;
        self.bind(&stmt, trimmed)
    }

    /// Parses and binds any statement (read or write) in one step.
    pub fn bind_statement(&self, sql: &str) -> Result<BoundStatement, SqlError> {
        let trimmed = sql.trim().trim_end_matches(';');
        Ok(match crate::parser::parse_statement(trimmed)? {
            Statement::Select(stmt) => BoundStatement::Query(self.bind(&stmt, trimmed)?),
            Statement::Insert(stmt) => {
                BoundStatement::Dml(BoundDml::Insert(self.bind_insert(&stmt)?))
            }
            Statement::Update(stmt) => {
                BoundStatement::Dml(BoundDml::Update(self.bind_update(&stmt, trimmed)?))
            }
            Statement::Delete(stmt) => {
                BoundStatement::Dml(BoundDml::Delete(self.bind_delete(&stmt, trimmed)?))
            }
        })
    }

    fn target_table(&self, name: &str) -> Result<&TableDef, SqlError> {
        self.catalog
            .table(name)
            .ok_or_else(|| SqlError::bind(format!("unknown table '{name}'")))
    }

    fn bind_insert(&self, stmt: &InsertStatement) -> Result<BoundInsert, SqlError> {
        let def = self.target_table(&stmt.table)?;
        let width = def.columns.len();
        // Map each written position to a table column index.
        let positions: Vec<usize> = match &stmt.columns {
            None => (0..width).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| {
                    def.column_index(c).ok_or_else(|| {
                        SqlError::bind(format!("unknown column '{c}' in table '{}'", stmt.table))
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        {
            let mut seen = positions.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != positions.len() {
                return Err(SqlError::bind("duplicate column in INSERT column list"));
            }
        }
        let mut table = ParamTable::default();
        let mut param_slots = Vec::new();
        let mut rows = Vec::with_capacity(stmt.rows.len());
        for (ri, row) in stmt.rows.iter().enumerate() {
            if row.len() != positions.len() {
                return Err(SqlError::bind(format!(
                    "INSERT row has {} values but {} columns are targeted",
                    row.len(),
                    positions.len()
                )));
            }
            let mut full = vec![Value::Null; width];
            for (cell, &ci) in row.iter().zip(&positions) {
                match cell {
                    Expr::Literal(v) => {
                        full[ci] = coerce_literal(
                            v.clone(),
                            def.columns[ci].data_type,
                            &def.columns[ci].name,
                        )?;
                    }
                    Expr::Param(idx) => {
                        // The target column's catalog type IS the parameter's
                        // type; the value patches in (and coerces) at
                        // execution. The placeholder NULL never reaches
                        // storage un-patched.
                        table.constrain(*idx as usize, def.columns[ci].data_type)?;
                        param_slots.push(InsertParamSlot { row: ri, col: ci, idx: *idx as usize });
                    }
                    other => {
                        return Err(SqlError::bind(format!(
                            "only literals and parameters are allowed in VALUES, found {other}"
                        )))
                    }
                }
            }
            rows.push(full);
        }
        Ok(BoundInsert {
            table: def.name.clone(),
            rows,
            param_slots,
            params: table.finish()?,
        })
    }

    /// Binds a predicate + target table into the synthetic single-table scan
    /// query shared by `UPDATE` and `DELETE`: the filters are classified just
    /// like a `SELECT * FROM t WHERE pred`, so the TP access-path planner
    /// (index choice included) applies unchanged.
    fn bind_dml_scan(
        &self,
        def: &TableDef,
        selection: &Option<Expr>,
        sql: &str,
    ) -> Result<BoundQuery, SqlError> {
        let tables = vec![BoundTable {
            name: def.name.clone(),
            alias: None,
            row_count: def.row_count,
        }];
        let resolver = Resolver { catalog: self.catalog, tables: &tables };
        let mut filters = Vec::new();
        if let Some(sel) = selection {
            if sel.contains_aggregate() {
                return Err(SqlError::bind("aggregate in DML WHERE clause"));
            }
            for c in sel.split_conjuncts() {
                filters.push(TableFilter {
                    table_slot: 0,
                    expr: resolver.bind_expr(c)?,
                });
            }
        }
        let projections = def
            .columns
            .iter()
            .enumerate()
            .map(|(ci, col)| BoundProjection {
                expr: BoundExpr::Column(ColumnRef {
                    table_slot: 0,
                    column_idx: ci,
                    data_type: col.data_type,
                }),
                label: col.name.clone(),
            })
            .collect();
        Ok(BoundQuery {
            tables,
            filters,
            joins: Vec::new(),
            residual_predicates: Vec::new(),
            projections,
            aggregate_kind: AggregateKind::None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
            sql: sql.to_string(),
            params: Vec::new(),
        })
    }

    fn bind_update(&self, stmt: &UpdateStatement, sql: &str) -> Result<BoundUpdate, SqlError> {
        let def = self.target_table(&stmt.table)?;
        let mut scan = self.bind_dml_scan(def, &stmt.selection, sql)?;
        let resolver = Resolver { catalog: self.catalog, tables: &scan.tables };
        // Assignments and the WHERE clause share one statement-level
        // parameter numbering.
        let mut table = ParamTable::default();
        let mut assignments = Vec::with_capacity(stmt.assignments.len());
        for (col, expr) in &stmt.assignments {
            let ci = def.column_index(col).ok_or_else(|| {
                SqlError::bind(format!("unknown column '{col}' in table '{}'", stmt.table))
            })?;
            if expr.contains_aggregate() {
                return Err(SqlError::bind("aggregate in UPDATE assignment"));
            }
            let mut bound = resolver.bind_expr(expr)?;
            // Literal assignments are coerced to the column type at bind time
            // so storage only ever sees catalog-typed values.
            if let BoundExpr::Literal(v) = &bound {
                bound = BoundExpr::Literal(coerce_literal(
                    v.clone(),
                    def.columns[ci].data_type,
                    &def.columns[ci].name,
                )?);
            }
            infer_expr_params(&mut bound, &mut table)?;
            // `SET col = ?` — the assignment context types the parameter.
            constrain_param(&mut bound, def.columns[ci].data_type, &mut table)?;
            assignments.push((ci, bound));
        }
        if assignments.is_empty() {
            return Err(SqlError::bind("UPDATE without assignments"));
        }
        infer_query_params_into(&mut scan, &mut table)?;
        let params = table.finish()?;
        scan.params = params.clone();
        Ok(BoundUpdate { table: def.name.clone(), assignments, scan, params })
    }

    fn bind_delete(&self, stmt: &DeleteStatement, sql: &str) -> Result<BoundDelete, SqlError> {
        let def = self.target_table(&stmt.table)?;
        let mut scan = self.bind_dml_scan(def, &stmt.selection, sql)?;
        let params = infer_query_params(&mut scan)?.finish()?;
        scan.params = params.clone();
        Ok(BoundDelete { table: def.name.clone(), scan, params })
    }

    /// Binds a parsed statement. `sql` is kept verbatim for prompts/KB.
    pub fn bind(&self, stmt: &SelectStatement, sql: &str) -> Result<BoundQuery, SqlError> {
        // 1. Resolve tables.
        let mut tables = Vec::new();
        for tref in &stmt.from {
            let def = self.catalog.table(&tref.name).ok_or_else(|| {
                SqlError::bind(format!("unknown table '{}'", tref.name))
            })?;
            tables.push(BoundTable {
                name: def.name.clone(),
                alias: tref.alias.clone(),
                row_count: def.row_count,
            });
        }
        if tables.is_empty() {
            return Err(SqlError::bind("FROM clause is empty"));
        }

        let resolver = Resolver {
            catalog: self.catalog,
            tables: &tables,
        };

        // 2. Gather the full WHERE conjunction (explicit JOIN ... ON merges in).
        let mut conjuncts: Vec<Expr> = Vec::new();
        for tref in &stmt.from {
            if let Some(on) = &tref.join_on {
                conjuncts.extend(on.split_conjuncts().into_iter().cloned());
            }
        }
        if let Some(sel) = &stmt.selection {
            conjuncts.extend(sel.split_conjuncts().into_iter().cloned());
        }

        // 3. Bind and classify each conjunct.
        let mut filters = Vec::new();
        let mut joins = Vec::new();
        let mut residual = Vec::new();
        for c in &conjuncts {
            if c.contains_aggregate() {
                return Err(SqlError::bind("aggregate in WHERE clause"));
            }
            let bound = resolver.bind_expr(c)?;
            match classify(&bound) {
                Classified::Filter(slot) => filters.push(TableFilter {
                    table_slot: slot,
                    expr: bound,
                }),
                Classified::Join(j) => joins.push(j),
                Classified::Residual => residual.push(bound),
            }
        }

        // 4. Bind projections.
        let mut projections = Vec::new();
        for item in &stmt.projections {
            match item {
                SelectItem::Wildcard => {
                    for (slot, t) in tables.iter().enumerate() {
                        // Resolved during FROM binding, but a structured
                        // error beats trusting that invariant with a panic.
                        let Some(def) = self.catalog.table(&t.name) else {
                            return Err(SqlError::bind(format!("unknown table {:?}", t.name)));
                        };
                        for (ci, col) in def.columns.iter().enumerate() {
                            projections.push(BoundProjection {
                                expr: BoundExpr::Column(ColumnRef {
                                    table_slot: slot,
                                    column_idx: ci,
                                    data_type: col.data_type,
                                }),
                                label: col.name.clone(),
                            });
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = resolver.bind_expr(expr)?;
                    let label = alias.clone().unwrap_or_else(|| expr.to_string());
                    projections.push(BoundProjection { expr: bound, label });
                }
            }
        }

        // 5. Aggregation classification and validation.
        let has_agg = projections.iter().any(|p| p.expr.contains_aggregate());
        let aggregate_kind = if !stmt.group_by.is_empty() {
            if !has_agg {
                return Err(SqlError::bind("GROUP BY without aggregate projection"));
            }
            AggregateKind::Grouped
        } else if has_agg {
            // every projection must be an aggregate in scalar mode
            if projections.iter().any(|p| !p.expr.contains_aggregate()) {
                return Err(SqlError::bind(
                    "mixing aggregate and non-aggregate projections without GROUP BY",
                ));
            }
            AggregateKind::Scalar
        } else {
            AggregateKind::None
        };

        let group_by = stmt
            .group_by
            .iter()
            .map(|e| resolver.bind_expr(e))
            .collect::<Result<Vec<_>, _>>()?;
        let having = stmt
            .having
            .as_ref()
            .map(|e| resolver.bind_expr(e))
            .transpose()?;
        if having.is_some() && aggregate_kind == AggregateKind::None {
            return Err(SqlError::bind("HAVING without aggregation"));
        }
        let order_by = stmt
            .order_by
            .iter()
            .map(|o| resolver.bind_expr(&o.expr).map(|e| (e, o.desc)))
            .collect::<Result<Vec<_>, _>>()?;

        let mut q = BoundQuery {
            tables,
            filters,
            joins,
            residual_predicates: residual,
            projections,
            aggregate_kind,
            group_by,
            having,
            order_by,
            limit: stmt.limit,
            offset: stmt.offset,
            sql: sql.to_string(),
            params: Vec::new(),
        };
        q.params = infer_query_params(&mut q)?.finish()?;
        Ok(q)
    }
}

/// Coerces a literal to a column's catalog type. Integers widen to floats;
/// NULL passes through; everything else must match exactly — lossy coercions
/// (float→int, int→date) are bind errors, not silent truncations.
pub fn coerce_literal(v: Value, ty: DataType, column: &str) -> Result<Value, SqlError> {
    let coerced = match (&v, ty) {
        (Value::Null, _) => v,
        (Value::Int(_), DataType::Int) => v,
        (Value::Int(x), DataType::Float) => Value::Float(*x as f64),
        (Value::Float(_), DataType::Float) => v,
        (Value::Str(_), DataType::Str) => v,
        (Value::Date(_), DataType::Date) => v,
        _ => {
            return Err(SqlError::bind(format!(
                "value {v} is not assignable to {ty:?} column '{column}'"
            )))
        }
    };
    Ok(coerced)
}

enum Classified {
    Filter(usize),
    Join(EquiJoin),
    Residual,
}

fn classify(e: &BoundExpr) -> Classified {
    // equi-join: bare_column = bare_column across different slots
    if let BoundExpr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = e
    {
        if let (Some(l), Some(r)) = (left.as_bare_column(), right.as_bare_column()) {
            if l.table_slot != r.table_slot {
                return Classified::Join(EquiJoin {
                    left: *l,
                    right: *r,
                });
            }
        }
    }
    let slots = e.table_slots();
    match slots.len() {
        0 | 1 => Classified::Filter(slots.first().copied().unwrap_or(0)),
        _ => Classified::Residual,
    }
}

struct Resolver<'a> {
    catalog: &'a dyn Catalog,
    tables: &'a [BoundTable],
}

impl Resolver<'_> {
    fn resolve_column(&self, table: &Option<String>, name: &str) -> Result<ColumnRef, SqlError> {
        let mut matches = Vec::new();
        for (slot, t) in self.tables.iter().enumerate() {
            if let Some(q) = table {
                // SQL scoping: an alias shadows the base table name.
                let matches_qualifier = match t.alias.as_deref() {
                    Some(alias) => alias == q.as_str(),
                    None => t.name == *q,
                };
                if !matches_qualifier {
                    continue;
                }
            }
            let def = self
                .catalog
                .table(&t.name)
                .ok_or_else(|| SqlError::bind(format!("table '{}' vanished", t.name)))?;
            if let Some(ci) = def.column_index(name) {
                matches.push(ColumnRef {
                    table_slot: slot,
                    column_idx: ci,
                    data_type: def.columns[ci].data_type,
                });
            }
        }
        match matches.len() {
            0 => Err(SqlError::bind(format!(
                "unknown column '{}{}{name}'",
                table.as_deref().unwrap_or(""),
                if table.is_some() { "." } else { "" },
            ))),
            1 => Ok(matches[0]),
            _ => Err(SqlError::bind(format!("ambiguous column '{name}'"))),
        }
    }

    fn bind_expr(&self, e: &Expr) -> Result<BoundExpr, SqlError> {
        Ok(match e {
            Expr::Column { table, name } => {
                BoundExpr::Column(self.resolve_column(table, name)?)
            }
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Param(idx) => BoundExpr::Param { idx: *idx as usize, ty: None },
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(self.bind_expr(left)?),
                op: *op,
                right: Box::new(self.bind_expr(right)?),
            },
            Expr::Not(inner) => BoundExpr::Not(Box::new(self.bind_expr(inner)?)),
            Expr::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(self.bind_expr(expr)?),
                list: list.clone(),
                negated: *negated,
            },
            Expr::InListParam { expr, items, negated } => BoundExpr::InListParam {
                expr: Box::new(self.bind_expr(expr)?),
                items: items
                    .iter()
                    .map(|it| match it {
                        InListItem::Lit(v) => BoundExpr::Literal(v.clone()),
                        InListItem::Param(idx) => {
                            BoundExpr::Param { idx: *idx as usize, ty: None }
                        }
                    })
                    .collect(),
                negated: *negated,
            },
            Expr::Between { expr, low, high } => BoundExpr::Between {
                expr: Box::new(self.bind_expr(expr)?),
                low: Box::new(self.bind_expr(low)?),
                high: Box::new(self.bind_expr(high)?),
            },
            Expr::Like { expr, pattern, negated } => BoundExpr::Like {
                expr: Box::new(self.bind_expr(expr)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr)?),
                negated: *negated,
            },
            Expr::Substring { expr, start, len } => {
                if *start < 1 || *len < 0 {
                    return Err(SqlError::bind(format!(
                        "SUBSTRING start must be >= 1 and len >= 0, got ({start}, {len})"
                    )));
                }
                BoundExpr::Substring {
                    expr: Box::new(self.bind_expr(expr)?),
                    start: *start,
                    len: *len,
                }
            }
            Expr::Aggregate { func, arg, distinct } => BoundExpr::Aggregate {
                func: *func,
                arg: arg
                    .as_ref()
                    .map(|a| self.bind_expr(a).map(Box::new))
                    .transpose()?,
                distinct: *distinct,
            },
        })
    }
}

impl fmt::Display for BoundQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BoundQuery[{} tables, {} filters, {} joins, agg={:?}]",
            self.tables.len(),
            self.filters.len(),
            self.joins.len(),
            self.aggregate_kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, MemoryCatalog, TableDef};

    fn tpch_mini() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.add_table(TableDef {
            name: "customer".into(),
            columns: vec![
                ColumnDef { name: "c_custkey".into(), data_type: DataType::Int, ndv: 1000 },
                ColumnDef { name: "c_nationkey".into(), data_type: DataType::Int, ndv: 25 },
                ColumnDef { name: "c_phone".into(), data_type: DataType::Str, ndv: 1000 },
                ColumnDef { name: "c_mktsegment".into(), data_type: DataType::Str, ndv: 5 },
            ],
            row_count: 1000,
            indexed_columns: vec![],
            primary_key: "c_custkey".into(),
        });
        cat.add_table(TableDef {
            name: "nation".into(),
            columns: vec![
                ColumnDef { name: "n_nationkey".into(), data_type: DataType::Int, ndv: 25 },
                ColumnDef { name: "n_name".into(), data_type: DataType::Str, ndv: 25 },
            ],
            row_count: 25,
            indexed_columns: vec![],
            primary_key: "n_nationkey".into(),
        });
        cat.add_table(TableDef {
            name: "orders".into(),
            columns: vec![
                ColumnDef { name: "o_orderkey".into(), data_type: DataType::Int, ndv: 10000 },
                ColumnDef { name: "o_custkey".into(), data_type: DataType::Int, ndv: 1000 },
                ColumnDef { name: "o_orderstatus".into(), data_type: DataType::Str, ndv: 3 },
                ColumnDef { name: "o_totalprice".into(), data_type: DataType::Float, ndv: 9000 },
            ],
            row_count: 10000,
            indexed_columns: vec![],
            primary_key: "o_orderkey".into(),
        });
        cat
    }

    #[test]
    fn binds_paper_example_1_classification() {
        let cat = tpch_mini();
        let binder = Binder::new(&cat);
        let q = binder
            .bind_sql(
                "SELECT COUNT(*) FROM customer, nation, orders \
                 WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '40') \
                 AND c_mktsegment = 'machinery' \
                 AND n_name = 'egypt' AND o_orderstatus = 'p' \
                 AND o_custkey = c_custkey \
                 AND n_nationkey = c_nationkey;",
            )
            .unwrap();
        assert_eq!(q.tables.len(), 3);
        assert_eq!(q.filters.len(), 4);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.aggregate_kind, AggregateKind::Scalar);
        assert!(q.residual_predicates.is_empty());
    }

    #[test]
    fn join_slots_are_normalized() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer, orders WHERE o_custkey = c_custkey")
            .unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].slots(), (0, 1));
        assert_eq!(q.joins_between(1, 0).len(), 1);
    }

    #[test]
    fn same_table_equality_is_filter_not_join() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer WHERE c_custkey = c_nationkey")
            .unwrap();
        assert!(q.joins.is_empty());
        assert_eq!(q.filters.len(), 1);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let cat = tpch_mini();
        let b = Binder::new(&cat);
        assert!(matches!(
            b.bind_sql("SELECT * FROM lineitem"),
            Err(SqlError::Bind(_))
        ));
        assert!(matches!(
            b.bind_sql("SELECT c_missing FROM customer"),
            Err(SqlError::Bind(_))
        ));
    }

    #[test]
    fn ambiguous_column_errors() {
        let mut cat = tpch_mini();
        // Add a second table that also has c_custkey.
        cat.add_table(TableDef {
            name: "customer2".into(),
            columns: vec![ColumnDef {
                name: "c_custkey".into(),
                data_type: DataType::Int,
                ndv: 10,
            }],
            row_count: 10,
            indexed_columns: vec![],
            primary_key: "c_custkey".into(),
        });
        let b = Binder::new(&cat);
        let err = b
            .bind_sql("SELECT c_custkey FROM customer, customer2")
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn alias_resolution() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql("SELECT c.c_phone FROM customer c WHERE c.c_mktsegment = 'x'")
            .unwrap();
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.filters[0].table_slot, 0);
    }

    #[test]
    fn explicit_join_on_merges_into_joins() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer INNER JOIN orders ON o_custkey = c_custkey")
            .unwrap();
        assert_eq!(q.joins.len(), 1);
    }

    #[test]
    fn wildcard_expands_all_tables() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer, nation")
            .unwrap();
        assert_eq!(q.projections.len(), 4 + 2);
    }

    #[test]
    fn mixed_agg_without_group_by_errors() {
        let cat = tpch_mini();
        assert!(Binder::new(&cat)
            .bind_sql("SELECT c_phone, COUNT(*) FROM customer")
            .is_err());
    }

    #[test]
    fn group_by_without_agg_errors() {
        let cat = tpch_mini();
        assert!(Binder::new(&cat)
            .bind_sql("SELECT c_phone FROM customer GROUP BY c_phone")
            .is_err());
    }

    #[test]
    fn having_without_agg_errors() {
        let cat = tpch_mini();
        assert!(Binder::new(&cat)
            .bind_sql("SELECT c_phone FROM customer HAVING c_custkey > 1")
            .is_err());
    }

    #[test]
    fn aggregate_in_where_errors() {
        let cat = tpch_mini();
        assert!(Binder::new(&cat)
            .bind_sql("SELECT COUNT(*) FROM customer WHERE COUNT(*) > 1")
            .is_err());
    }

    #[test]
    fn top_n_detection() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql("SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 10")
            .unwrap();
        assert!(q.is_top_n());
        let q2 = Binder::new(&cat)
            .bind_sql("SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC")
            .unwrap();
        assert!(!q2.is_top_n());
    }

    #[test]
    fn substring_validation() {
        let cat = tpch_mini();
        assert!(Binder::new(&cat)
            .bind_sql("SELECT * FROM customer WHERE SUBSTRING(c_phone, 0, 2) = 'xx'")
            .is_err());
    }

    #[test]
    fn bind_insert_normalizes_and_coerces() {
        let cat = tpch_mini();
        let b = Binder::new(&cat);
        // o_totalprice is Float; the Int literal 100 must widen.
        let BoundStatement::Dml(BoundDml::Insert(ins)) = b
            .bind_statement(
                "INSERT INTO orders (o_orderkey, o_custkey, o_totalprice) VALUES (1, 2, 100)",
            )
            .unwrap()
        else {
            panic!("expected insert");
        };
        assert_eq!(ins.rows.len(), 1);
        assert_eq!(
            ins.rows[0],
            vec![Value::Int(1), Value::Int(2), Value::Null, Value::Float(100.0)]
        );
    }

    #[test]
    fn bind_insert_rejects_bad_shapes() {
        let cat = tpch_mini();
        let b = Binder::new(&cat);
        assert!(b.bind_statement("INSERT INTO missing VALUES (1)").is_err());
        assert!(b
            .bind_statement("INSERT INTO orders (o_orderkey, nope) VALUES (1, 2)")
            .is_err());
        assert!(b
            .bind_statement("INSERT INTO orders (o_orderkey, o_custkey) VALUES (1)")
            .is_err());
        assert!(b
            .bind_statement("INSERT INTO orders (o_orderkey, o_orderkey) VALUES (1, 1)")
            .is_err());
        // Float literal into Int column is a lossy coercion -> bind error.
        assert!(b
            .bind_statement("INSERT INTO orders (o_orderkey) VALUES (1.5)")
            .is_err());
    }

    #[test]
    fn bind_update_builds_scan_with_classified_filters() {
        let cat = tpch_mini();
        let b = Binder::new(&cat);
        let BoundStatement::Dml(BoundDml::Update(up)) = b
            .bind_statement(
                "UPDATE customer SET c_mktsegment = 'machinery', c_custkey = c_custkey + 1 \
                 WHERE c_custkey = 7 AND c_mktsegment = 'building'",
            )
            .unwrap()
        else {
            panic!("expected update");
        };
        assert_eq!(up.table, "customer");
        assert_eq!(up.assignments.len(), 2);
        assert_eq!(up.assignments[0].0, 3); // c_mktsegment
        assert_eq!(up.scan.filters.len(), 2);
        assert_eq!(up.scan.projections.len(), 4);
        assert!(BoundDml::Update(up.clone()).scan().is_some());
    }

    #[test]
    fn bind_delete_without_where_targets_all_rows() {
        let cat = tpch_mini();
        let BoundStatement::Dml(BoundDml::Delete(del)) = Binder::new(&cat)
            .bind_statement("DELETE FROM nation")
            .unwrap()
        else {
            panic!("expected delete");
        };
        assert!(del.scan.filters.is_empty());
        assert_eq!(del.scan.tables[0].name, "nation");
    }

    #[test]
    fn bind_dml_rejects_cross_table_and_aggregate_predicates() {
        let cat = tpch_mini();
        let b = Binder::new(&cat);
        // Column of another table is simply unknown in DML scope.
        assert!(b
            .bind_statement("DELETE FROM customer WHERE o_orderkey = 1")
            .is_err());
        assert!(b
            .bind_statement("DELETE FROM customer WHERE COUNT(*) > 1")
            .is_err());
        assert!(b
            .bind_statement("UPDATE customer SET c_custkey = COUNT(*)")
            .is_err());
        assert!(b.bind_statement("UPDATE customer SET nope = 1").is_err());
    }

    #[test]
    fn bind_statement_routes_select() {
        let cat = tpch_mini();
        assert!(matches!(
            Binder::new(&cat)
                .bind_statement("SELECT COUNT(*) FROM customer")
                .unwrap(),
            BoundStatement::Query(_)
        ));
    }

    #[test]
    fn param_types_infer_from_comparison_context() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql(
                "SELECT c_phone FROM customer \
                 WHERE c_custkey = ? AND c_mktsegment = ? AND c_nationkey BETWEEN ? AND ?",
            )
            .unwrap();
        assert_eq!(
            q.params,
            vec![
                Some(DataType::Int),
                Some(DataType::Str),
                Some(DataType::Int),
                Some(DataType::Int)
            ]
        );
        // The Param nodes themselves carry the inferred type.
        let BoundExpr::Binary { right, .. } = &q.filters[0].expr else {
            panic!("expected comparison");
        };
        assert_eq!(**right, BoundExpr::Param { idx: 0, ty: Some(DataType::Int) });
    }

    #[test]
    fn param_conflicting_types_is_bind_error() {
        let cat = tpch_mini();
        let err = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer WHERE c_custkey = $1 AND c_phone = $1")
            .unwrap_err();
        assert!(err.to_string().contains("conflicting types"), "{err}");
    }

    #[test]
    fn param_numbering_gaps_are_bind_errors() {
        let cat = tpch_mini();
        let err = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer WHERE c_custkey = $2")
            .unwrap_err();
        assert!(err.to_string().contains("never referenced"), "{err}");
    }

    #[test]
    fn insert_params_take_column_types() {
        let cat = tpch_mini();
        let BoundStatement::Dml(BoundDml::Insert(ins)) = Binder::new(&cat)
            .bind_statement("INSERT INTO orders (o_orderkey, o_totalprice) VALUES (?, ?)")
            .unwrap()
        else {
            panic!("expected insert");
        };
        assert_eq!(ins.params, vec![Some(DataType::Int), Some(DataType::Float)]);
        assert_eq!(ins.param_slots.len(), 2);
        assert_eq!((ins.param_slots[0].row, ins.param_slots[0].col), (0, 0));
        assert_eq!(ins.param_slots[1].col, 3); // o_totalprice
        // Placeholder cells hold NULL until execution patches them.
        assert_eq!(ins.rows[0][0], Value::Null);
    }

    #[test]
    fn update_assignment_and_where_share_numbering() {
        let cat = tpch_mini();
        let BoundStatement::Dml(BoundDml::Update(up)) = Binder::new(&cat)
            .bind_statement("UPDATE customer SET c_mktsegment = ? WHERE c_custkey = ?")
            .unwrap()
        else {
            panic!("expected update");
        };
        assert_eq!(up.params, vec![Some(DataType::Str), Some(DataType::Int)]);
        assert_eq!(up.scan.params, up.params);
    }

    #[test]
    fn substitute_params_replaces_placeholders() {
        let cat = tpch_mini();
        let q = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer WHERE c_custkey = ? AND c_nationkey < 5")
            .unwrap();
        let inlined = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer WHERE c_custkey = 42 AND c_nationkey < 5")
            .unwrap();
        let substituted = substitute_params(&q.filters[0].expr, &[Value::Int(42)]);
        assert_eq!(substituted, inlined.filters[0].expr);
        // Non-parameterized conjuncts survive unchanged.
        assert_eq!(
            substitute_params(&q.filters[1].expr, &[Value::Int(42)]),
            inlined.filters[1].expr
        );
    }

    #[test]
    fn coerce_param_follows_insert_literal_rules() {
        assert_eq!(
            coerce_param(Value::Int(3), Some(DataType::Float)),
            Ok(Value::Float(3.0))
        );
        assert_eq!(coerce_param(Value::Null, Some(DataType::Int)), Ok(Value::Null));
        assert_eq!(coerce_param(Value::Int(3), None), Ok(Value::Int(3)));
        assert_eq!(
            coerce_param(Value::Float(1.5), Some(DataType::Int)),
            Err((DataType::Int, Value::Float(1.5)))
        );
        assert_eq!(
            coerce_param(Value::Str("x".into()), Some(DataType::Date)),
            Err((DataType::Date, Value::Str("x".into())))
        );
    }

    #[test]
    fn residual_predicate_classification() {
        let cat = tpch_mini();
        // non-equi cross-table predicate
        let q = Binder::new(&cat)
            .bind_sql("SELECT * FROM customer, orders WHERE c_custkey < o_custkey")
            .unwrap();
        assert_eq!(q.residual_predicates.len(), 1);
        assert!(q.joins.is_empty());
    }
}
