//! Physical plan trees and EXPLAIN output.
//!
//! [`PlanNode`] is the single plan representation every downstream component
//! consumes: the executors interpret it, the cost models annotate it, the
//! tree-CNN featurizes it, and [`PlanNode::explain_json`] renders the exact
//! `{'Node Type', 'Total Cost', 'Plan Rows', 'Relation Name', 'Plans'}` shape
//! the paper's Table II shows.

use crate::eval::Schema;
use qpe_sql::binder::{BoundExpr, ColumnRef};
use qpe_sql::value::Value;
use serde::{Deserialize, Serialize};
use serde_json::json;

/// Physical operator kinds across both engines.
///
/// Display strings match the paper's EXPLAIN output verbatim (Table II):
/// `Nested loop inner join`, `Inner hash join`, `Group aggregate`, ...
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeType {
    /// Full relation scan.
    TableScan,
    /// B-tree index scan (TP only).
    IndexScan,
    /// Predicate filter.
    Filter,
    /// Naive nested-loop join (TP).
    NestedLoopJoin,
    /// Index nested-loop join (TP, inner side probed via index).
    IndexNLJoin,
    /// Hash join (AP).
    HashJoin,
    /// Hash-build marker node (AP, mirrors the paper's `Hash` nodes).
    Hash,
    /// Sort-based grouped aggregation (TP).
    GroupAggregate,
    /// Hash / vectorized aggregation (AP).
    HashAggregate,
    /// Full sort.
    Sort,
    /// Top-N (bounded heap) sort.
    TopNSort,
    /// Row-count limit (+ offset).
    Limit,
    /// Scalar projection.
    Projection,
    /// Row insertion (TP write path).
    Insert,
    /// Row update (TP write path; child locates target rows).
    Update,
    /// Row deletion (TP write path; child locates target rows).
    Delete,
}

impl NodeType {
    /// The display string used in EXPLAIN JSON (paper wording).
    pub fn as_str(&self) -> &'static str {
        match self {
            NodeType::TableScan => "Table Scan",
            NodeType::IndexScan => "Index Scan",
            NodeType::Filter => "Filter",
            NodeType::NestedLoopJoin => "Nested loop inner join",
            NodeType::IndexNLJoin => "Index nested loop join",
            NodeType::HashJoin => "Inner hash join",
            NodeType::Hash => "Hash",
            NodeType::GroupAggregate => "Group aggregate",
            NodeType::HashAggregate => "Aggregate",
            NodeType::Sort => "Sort",
            NodeType::TopNSort => "Top-N sort",
            NodeType::Limit => "Limit",
            NodeType::Projection => "Projection",
            NodeType::Insert => "Insert",
            NodeType::Update => "Update",
            NodeType::Delete => "Delete",
        }
    }

    /// All node types, in a fixed order (the tree-CNN one-hot layout).
    pub const ALL: [NodeType; 16] = [
        NodeType::TableScan,
        NodeType::IndexScan,
        NodeType::Filter,
        NodeType::NestedLoopJoin,
        NodeType::IndexNLJoin,
        NodeType::HashJoin,
        NodeType::Hash,
        NodeType::GroupAggregate,
        NodeType::HashAggregate,
        NodeType::Sort,
        NodeType::TopNSort,
        NodeType::Limit,
        NodeType::Projection,
        NodeType::Insert,
        NodeType::Update,
        NodeType::Delete,
    ];

    /// Index of this node type within [`NodeType::ALL`].
    pub fn ordinal(&self) -> usize {
        NodeType::ALL.iter().position(|t| t == self).expect("in ALL")
    }

    /// True for join operators.
    pub fn is_join(&self) -> bool {
        matches!(
            self,
            NodeType::NestedLoopJoin | NodeType::IndexNLJoin | NodeType::HashJoin
        )
    }
}

impl std::fmt::Display for NodeType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One key position inside an [`IndexLookup`]: a concrete literal, or a
/// prepared-statement parameter resolved at execution time. Prepared plans
/// carry `Param` terms; [`PlanNode::substitute_params`] lowers them to `Lit`
/// before execution, so the executors only ever see literals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanTerm {
    /// A concrete value known at plan time.
    Lit(Value),
    /// A parameter placeholder (0-based index).
    Param(usize),
}

impl PlanTerm {
    /// The literal value, if already concrete.
    pub fn as_lit(&self) -> Option<&Value> {
        match self {
            PlanTerm::Lit(v) => Some(v),
            PlanTerm::Param(_) => None,
        }
    }

    /// Resolves a parameter term against a bound parameter vector.
    fn substitute(&self, params: &[Value]) -> PlanTerm {
        match self {
            PlanTerm::Param(idx) => match params.get(*idx) {
                Some(v) => PlanTerm::Lit(v.clone()),
                None => self.clone(),
            },
            lit => lit.clone(),
        }
    }
}

impl From<Value> for PlanTerm {
    fn from(v: Value) -> Self {
        PlanTerm::Lit(v)
    }
}

/// How an index scan selects rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IndexLookup {
    /// Equality on one or more keys (`=` or `IN`).
    Keys(Vec<PlanTerm>),
    /// Inclusive range.
    Range {
        /// Lower bound, if any.
        low: Option<PlanTerm>,
        /// Upper bound, if any.
        high: Option<PlanTerm>,
    },
    /// Whole index in key order (for index-ordered top-N).
    Ordered {
        /// Descending order flag.
        descending: bool,
    },
}

impl IndexLookup {
    /// Clones the lookup with parameter terms resolved to literals.
    fn substitute(&self, params: &[Value]) -> IndexLookup {
        match self {
            IndexLookup::Keys(keys) => {
                IndexLookup::Keys(keys.iter().map(|k| k.substitute(params)).collect())
            }
            IndexLookup::Range { low, high } => IndexLookup::Range {
                low: low.as_ref().map(|t| t.substitute(params)),
                high: high.as_ref().map(|t| t.substitute(params)),
            },
            ordered => ordered.clone(),
        }
    }
}

/// One equi-join condition at execution level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinCond {
    /// Column from the left/outer input.
    pub left: ColumnRef,
    /// Column from the right/inner input.
    pub right: ColumnRef,
}

/// An aggregate to compute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggSpec {
    /// The full output expression, which may embed aggregates
    /// (e.g. `SUM(x) / COUNT(*)` is one projection).
    pub expr: BoundExpr,
    /// Output label.
    pub label: String,
}

/// Execution payload of a plan node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanOp {
    /// Sequential scan materializing `columns` of the table at `table_slot`.
    /// The TP engine always materializes the full row (row store); the AP
    /// engine materializes only referenced columns.
    TableScan {
        /// Query table slot.
        table_slot: usize,
        /// Column indexes to materialize (output layout order).
        columns: Vec<usize>,
        /// Filter conjunction pushed down for zone-map block pruning (AP
        /// plans only; TP scans ignore it). The predicate still evaluates
        /// row-wise in the Filter above — the scan uses it solely to skip
        /// base blocks whose stats headers refute it, so results are
        /// identical with or without the pushdown.
        pushed: Option<BoundExpr>,
    },
    /// B-tree index scan on `column_idx`.
    IndexScan {
        /// Query table slot.
        table_slot: usize,
        /// Indexed column.
        column_idx: usize,
        /// Lookup specification.
        lookup: IndexLookup,
        /// Columns to materialize.
        columns: Vec<usize>,
    },
    /// Index probe descriptor — only valid as the inner child of
    /// [`PlanOp::IndexNLJoin`]; never executed standalone.
    IndexProbe {
        /// Inner table slot.
        table_slot: usize,
        /// Join column probed through the index.
        column_idx: usize,
        /// Residual filter applied to fetched inner rows.
        residual: Option<BoundExpr>,
        /// Columns to materialize.
        columns: Vec<usize>,
    },
    /// Filter by predicate.
    Filter {
        /// The predicate.
        predicate: BoundExpr,
    },
    /// Nested-loop join; children are `[outer, inner]`.
    NestedLoopJoin {
        /// Equi-join conditions (may be empty → cross product + residual).
        conds: Vec<JoinCond>,
        /// Non-equi residual condition.
        residual: Option<BoundExpr>,
    },
    /// Index nested-loop join; children are `[outer, IndexProbe]`.
    IndexNLJoin {
        /// The outer-side key column driving the probe.
        outer_key: ColumnRef,
    },
    /// Hash join; children are `[probe, Hash(build)]` — the paper's AP plans
    /// put the probe side first and wrap the build side in a `Hash` node.
    HashJoin {
        /// Keys on the probe side.
        probe_keys: Vec<ColumnRef>,
        /// Keys on the build side.
        build_keys: Vec<ColumnRef>,
    },
    /// Hash-build marker; single child.
    Hash,
    /// Aggregation producing *final projected rows*.
    Aggregate {
        /// Group-by keys (empty for scalar aggregation).
        group_by: Vec<BoundExpr>,
        /// Output expressions (each may embed aggregate calls).
        outputs: Vec<AggSpec>,
        /// HAVING predicate over the aggregate state.
        having: Option<BoundExpr>,
        /// True for hash aggregation (AP), false for sort-based (TP).
        hash: bool,
    },
    /// Full sort on base columns.
    Sort {
        /// Sort keys with descending flags.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Bounded top-N sort on base columns.
    TopNSort {
        /// Sort keys with descending flags.
        keys: Vec<(BoundExpr, bool)>,
        /// Rows to emit.
        limit: u64,
        /// Rows to skip first.
        offset: u64,
    },
    /// Limit/offset passthrough.
    Limit {
        /// Rows to emit.
        limit: u64,
        /// Rows to skip first.
        offset: u64,
    },
    /// Final scalar projection for non-aggregate queries.
    Projection {
        /// Output expressions.
        exprs: Vec<BoundExpr>,
        /// Output labels.
        labels: Vec<String>,
    },
    /// Positional sort on already-projected output (ORDER BY after
    /// aggregation). Displayed as `Sort`.
    OutputSort {
        /// (output position, descending) keys.
        keys: Vec<(usize, bool)>,
    },
    /// Row insertion. Leaf node; the bound statement carries the rows.
    Insert {
        /// Target table.
        table: String,
        /// Number of rows being inserted (estimate material for EXPLAIN).
        rows: usize,
    },
    /// Row update; the single child is the row-locating access path over the
    /// target table. The bound statement carries the assignments.
    Update {
        /// Target table.
        table: String,
        /// Number of `SET` assignments.
        assignments: usize,
    },
    /// Row deletion; the single child is the row-locating access path.
    Delete {
        /// Target table.
        table: String,
    },
}

/// A node in a physical plan tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanNode {
    /// Operator kind.
    pub node_type: NodeType,
    /// Relation name for scans.
    pub relation: Option<String>,
    /// Index (column) name for index scans/probes.
    pub index: Option<String>,
    /// Optimizer cost estimate — engine-specific units, **not comparable
    /// across engines** (the paper's central prompt warning).
    pub total_cost: f64,
    /// Optimizer cardinality estimate.
    pub plan_rows: f64,
    /// Human-readable predicate / key description.
    pub detail: Option<String>,
    /// Execution payload.
    pub op: PlanOp,
    /// Child plans.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Builder used by the optimizers.
    pub fn new(node_type: NodeType, op: PlanOp) -> Self {
        PlanNode {
            node_type,
            relation: None,
            index: None,
            total_cost: 0.0,
            plan_rows: 0.0,
            detail: None,
            op,
            children: Vec::new(),
        }
    }

    /// Sets the relation name.
    pub fn with_relation(mut self, rel: impl Into<String>) -> Self {
        self.relation = Some(rel.into());
        self
    }

    /// Sets the index name.
    pub fn with_index(mut self, idx: impl Into<String>) -> Self {
        self.index = Some(idx.into());
        self
    }

    /// Sets the detail string.
    pub fn with_detail(mut self, d: impl Into<String>) -> Self {
        self.detail = Some(d.into());
        self
    }

    /// Sets cost and cardinality estimates.
    pub fn with_estimates(mut self, cost: f64, rows: f64) -> Self {
        self.total_cost = cost;
        self.plan_rows = rows;
        self
    }

    /// Appends a child.
    pub fn with_child(mut self, child: PlanNode) -> Self {
        self.children.push(child);
        self
    }

    /// The output row schema of this operator.
    ///
    /// Aggregates, projections and output sorts produce synthetic output
    /// columns; those return an empty schema (their consumers work
    /// positionally).
    pub fn output_schema(&self) -> Schema {
        match &self.op {
            PlanOp::TableScan { table_slot, columns, .. }
            | PlanOp::IndexScan { table_slot, columns, .. }
            | PlanOp::IndexProbe { table_slot, columns, .. } => Schema::new(
                columns.iter().map(|&c| (*table_slot, c)).collect(),
            ),
            PlanOp::Filter { .. }
            | PlanOp::Hash
            | PlanOp::Sort { .. }
            | PlanOp::TopNSort { .. }
            | PlanOp::Limit { .. } => self.children[0].output_schema(),
            PlanOp::NestedLoopJoin { .. } | PlanOp::IndexNLJoin { .. } | PlanOp::HashJoin { .. } => {
                self.children[0]
                    .output_schema()
                    .concat(&self.children[1].output_schema())
            }
            PlanOp::Aggregate { .. } | PlanOp::Projection { .. } | PlanOp::OutputSort { .. } => {
                Schema::new(Vec::new())
            }
            // DML nodes emit no rows (their result is a row count).
            PlanOp::Insert { .. } | PlanOp::Update { .. } | PlanOp::Delete { .. } => {
                Schema::new(Vec::new())
            }
        }
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Tree height (single node = 1).
    pub fn height(&self) -> usize {
        1 + self.children.iter().map(|c| c.height()).max().unwrap_or(0)
    }

    /// Pre-order iteration over all nodes.
    pub fn walk(&self, f: &mut impl FnMut(&PlanNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// Counts nodes of a given type.
    pub fn count_type(&self, t: NodeType) -> usize {
        let mut n = 0;
        self.walk(&mut |node| {
            if node.node_type == t {
                n += 1;
            }
        });
        n
    }

    /// Renders the EXPLAIN JSON exactly shaped like the paper's Table II.
    pub fn explain_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert("Node Type".into(), json!(self.node_type.as_str()));
        if let Some(rel) = &self.relation {
            obj.insert("Relation Name".into(), json!(rel));
        }
        if let Some(idx) = &self.index {
            obj.insert("Index Name".into(), json!(idx));
        }
        obj.insert("Total Cost".into(), json!(round3(self.total_cost)));
        obj.insert("Plan Rows".into(), json!(self.plan_rows.round() as i64));
        if let Some(d) = &self.detail {
            obj.insert("Detail".into(), json!(d));
        }
        if !self.children.is_empty() {
            obj.insert(
                "Plans".into(),
                serde_json::Value::Array(self.children.iter().map(|c| c.explain_json()).collect()),
            );
        }
        serde_json::Value::Object(obj)
    }

    /// Pretty indented single-plan text, used in prompts and examples.
    pub fn explain_text(&self) -> String {
        let mut out = String::new();
        self.explain_text_rec(0, &mut out);
        out
    }

    fn explain_text_rec(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str("-> ");
        out.push_str(self.node_type.as_str());
        if let Some(rel) = &self.relation {
            out.push_str(&format!(" on {rel}"));
        }
        if let Some(idx) = &self.index {
            out.push_str(&format!(" using index({idx})"));
        }
        out.push_str(&format!(
            "  (cost={:.2} rows={})",
            self.total_cost,
            self.plan_rows.round() as i64
        ));
        if let Some(d) = &self.detail {
            out.push_str(&format!("  [{d}]"));
        }
        out.push('\n');
        for c in &self.children {
            c.explain_text_rec(depth + 1, out);
        }
    }

    /// Clones the plan with every parameter placeholder replaced by its bound
    /// value — the execution-time injection step of a prepared statement.
    /// The substituted tree is exactly what planning the same SQL with the
    /// literals inlined would produce for the execution payload (predicates,
    /// pushed conjunctions, index keys), so pruning and all work counters
    /// match the inlined run. Plans without parameters are cloned as-is.
    pub fn substitute_params(&self, params: &[Value]) -> PlanNode {
        use qpe_sql::binder::substitute_params as subst;
        let op = match &self.op {
            PlanOp::TableScan { table_slot, columns, pushed } => PlanOp::TableScan {
                table_slot: *table_slot,
                columns: columns.clone(),
                pushed: pushed.as_ref().map(|p| subst(p, params)),
            },
            PlanOp::IndexScan { table_slot, column_idx, lookup, columns } => PlanOp::IndexScan {
                table_slot: *table_slot,
                column_idx: *column_idx,
                lookup: lookup.substitute(params),
                columns: columns.clone(),
            },
            PlanOp::IndexProbe { table_slot, column_idx, residual, columns } => {
                PlanOp::IndexProbe {
                    table_slot: *table_slot,
                    column_idx: *column_idx,
                    residual: residual.as_ref().map(|r| subst(r, params)),
                    columns: columns.clone(),
                }
            }
            PlanOp::Filter { predicate } => PlanOp::Filter { predicate: subst(predicate, params) },
            PlanOp::NestedLoopJoin { conds, residual } => PlanOp::NestedLoopJoin {
                conds: conds.clone(),
                residual: residual.as_ref().map(|r| subst(r, params)),
            },
            PlanOp::Aggregate { group_by, outputs, having, hash } => PlanOp::Aggregate {
                group_by: group_by.iter().map(|g| subst(g, params)).collect(),
                outputs: outputs
                    .iter()
                    .map(|o| AggSpec { expr: subst(&o.expr, params), label: o.label.clone() })
                    .collect(),
                having: having.as_ref().map(|h| subst(h, params)),
                hash: *hash,
            },
            PlanOp::Sort { keys } => PlanOp::Sort {
                keys: keys.iter().map(|(k, d)| (subst(k, params), *d)).collect(),
            },
            PlanOp::TopNSort { keys, limit, offset } => PlanOp::TopNSort {
                keys: keys.iter().map(|(k, d)| (subst(k, params), *d)).collect(),
                limit: *limit,
                offset: *offset,
            },
            PlanOp::Projection { exprs, labels } => PlanOp::Projection {
                exprs: exprs.iter().map(|e| subst(e, params)).collect(),
                labels: labels.clone(),
            },
            other => other.clone(),
        };
        PlanNode {
            node_type: self.node_type,
            relation: self.relation.clone(),
            index: self.index.clone(),
            total_cost: self.total_cost,
            plan_rows: self.plan_rows,
            detail: self.detail.clone(),
            op,
            children: self
                .children
                .iter()
                .map(|c| c.substitute_params(params))
                .collect(),
        }
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(slot: usize, cols: Vec<usize>) -> PlanNode {
        PlanNode::new(
            NodeType::TableScan,
            PlanOp::TableScan { table_slot: slot, columns: cols, pushed: None },
        )
        .with_relation(format!("t{slot}"))
        .with_estimates(10.0, 100.0)
    }

    #[test]
    fn schema_propagation_through_joins_and_filters() {
        let left = scan(0, vec![0, 1]);
        let right = scan(1, vec![0]);
        let join = PlanNode::new(
            NodeType::NestedLoopJoin,
            PlanOp::NestedLoopJoin { conds: vec![], residual: None },
        )
        .with_child(left)
        .with_child(right);
        let schema = join.output_schema();
        assert_eq!(schema.columns(), &[(0, 0), (0, 1), (1, 0)]);

        let filter = PlanNode::new(
            NodeType::Filter,
            PlanOp::Filter { predicate: BoundExpr::Literal(Value::Int(1)) },
        )
        .with_child(join);
        assert_eq!(filter.output_schema().len(), 3);
    }

    #[test]
    fn node_count_and_height() {
        let tree = PlanNode::new(
            NodeType::Filter,
            PlanOp::Filter { predicate: BoundExpr::Literal(Value::Int(1)) },
        )
        .with_child(scan(0, vec![0]));
        assert_eq!(tree.node_count(), 2);
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.count_type(NodeType::TableScan), 1);
        assert_eq!(tree.count_type(NodeType::HashJoin), 0);
    }

    #[test]
    fn explain_json_matches_paper_shape() {
        let node = scan(0, vec![0]).with_estimates(2.75, 25.0);
        let j = node.explain_json();
        assert_eq!(j["Node Type"], "Table Scan");
        assert_eq!(j["Relation Name"], "t0");
        assert_eq!(j["Total Cost"], 2.75);
        assert_eq!(j["Plan Rows"], 25);
        assert!(j.get("Plans").is_none());
    }

    #[test]
    fn explain_json_nests_children() {
        let tree = PlanNode::new(
            NodeType::Filter,
            PlanOp::Filter { predicate: BoundExpr::Literal(Value::Int(1)) },
        )
        .with_estimates(5.0, 10.0)
        .with_child(scan(0, vec![0]));
        let j = tree.explain_json();
        assert_eq!(j["Plans"][0]["Node Type"], "Table Scan");
    }

    #[test]
    fn node_type_strings_match_paper() {
        assert_eq!(NodeType::NestedLoopJoin.as_str(), "Nested loop inner join");
        assert_eq!(NodeType::HashJoin.as_str(), "Inner hash join");
        assert_eq!(NodeType::GroupAggregate.as_str(), "Group aggregate");
        assert_eq!(NodeType::HashAggregate.as_str(), "Aggregate");
        assert_eq!(NodeType::Hash.as_str(), "Hash");
    }

    #[test]
    fn ordinals_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in NodeType::ALL {
            assert!(seen.insert(t.ordinal()));
            assert_eq!(NodeType::ALL[t.ordinal()], t);
        }
    }

    #[test]
    fn explain_text_renders_tree() {
        let tree = PlanNode::new(
            NodeType::Filter,
            PlanOp::Filter { predicate: BoundExpr::Literal(Value::Int(1)) },
        )
        .with_detail("x = 1")
        .with_child(scan(0, vec![0]));
        let text = tree.explain_text();
        assert!(text.contains("-> Filter"));
        assert!(text.contains("[x = 1]"));
        assert!(text.contains("  -> Table Scan on t0"));
    }

    #[test]
    fn join_classifier() {
        assert!(NodeType::HashJoin.is_join());
        assert!(NodeType::IndexNLJoin.is_join());
        assert!(!NodeType::Hash.is_join());
    }
}
