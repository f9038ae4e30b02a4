//! Physical query plans.
//!
//! A [`PlanNode`] is a tree of physical operators annotated with the
//! optimizer's estimated cardinality, cost and output width.  The
//! zero-shot featurization consumes exactly these physical operators (not
//! the logical query), mirroring the paper's "each node in this graph
//! represents a physical operator" design.

use serde::{Deserialize, Serialize};
use zsdb_catalog::{CatalogError, ColumnRef, SchemaCatalog, TableId};
use zsdb_query::{Aggregate, Predicate};

/// Kind of a physical operator, used for one-hot featurization and
/// reporting.  Must stay in sync with [`PhysOperator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhysOperatorKind {
    /// Full sequential scan of a base table.
    SeqScan,
    /// Range/point scan over a B-tree index plus heap lookups.
    IndexScan,
    /// Hash join (children: `[build, probe]`).
    HashJoin,
    /// Nested-loop join (children: `[outer, inner]`).
    NestedLoopJoin,
    /// Scalar aggregation over its single child.
    Aggregate,
}

impl PhysOperatorKind {
    /// All operator kinds in the canonical one-hot order.
    pub const ALL: [PhysOperatorKind; 5] = [
        PhysOperatorKind::SeqScan,
        PhysOperatorKind::IndexScan,
        PhysOperatorKind::HashJoin,
        PhysOperatorKind::NestedLoopJoin,
        PhysOperatorKind::Aggregate,
    ];

    /// Stable index for one-hot encodings.
    pub fn index(self) -> usize {
        match self {
            PhysOperatorKind::SeqScan => 0,
            PhysOperatorKind::IndexScan => 1,
            PhysOperatorKind::HashJoin => 2,
            PhysOperatorKind::NestedLoopJoin => 3,
            PhysOperatorKind::Aggregate => 4,
        }
    }

    /// Short display name (PostgreSQL-style).
    pub fn name(self) -> &'static str {
        match self {
            PhysOperatorKind::SeqScan => "Seq Scan",
            PhysOperatorKind::IndexScan => "Index Scan",
            PhysOperatorKind::HashJoin => "Hash Join",
            PhysOperatorKind::NestedLoopJoin => "Nested Loop",
            PhysOperatorKind::Aggregate => "Aggregate",
        }
    }
}

/// A physical operator with its parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PhysOperator {
    /// Sequential scan with pushed-down predicates.
    SeqScan {
        /// Scanned table.
        table: TableId,
        /// Predicates evaluated during the scan.
        predicates: Vec<Predicate>,
    },
    /// Index scan on `index_column` with an optional key range, followed by
    /// residual predicate evaluation on fetched heap tuples.
    IndexScan {
        /// Scanned table.
        table: TableId,
        /// Indexed column driving the scan.
        index_column: ColumnRef,
        /// Lower key bound (inclusive).
        lo: Option<f64>,
        /// Upper key bound (inclusive).
        hi: Option<f64>,
        /// Predicates evaluated on fetched tuples (includes non-sargable
        /// ones and re-checks).
        residual: Vec<Predicate>,
    },
    /// Hash join; children are `[build, probe]`.
    HashJoin {
        /// Join key on the build (first child) side.
        build_key: ColumnRef,
        /// Join key on the probe (second child) side.
        probe_key: ColumnRef,
    },
    /// Nested-loop join; children are `[outer, inner]`.
    NestedLoopJoin {
        /// Join key on the outer (first child) side.
        outer_key: ColumnRef,
        /// Join key on the inner (second child) side.
        inner_key: ColumnRef,
    },
    /// Scalar aggregation (no grouping) over the single child.
    Aggregate {
        /// Aggregates to compute.
        aggregates: Vec<Aggregate>,
    },
}

impl PhysOperator {
    /// The operator kind (for featurization and display).
    pub fn kind(&self) -> PhysOperatorKind {
        match self {
            PhysOperator::SeqScan { .. } => PhysOperatorKind::SeqScan,
            PhysOperator::IndexScan { .. } => PhysOperatorKind::IndexScan,
            PhysOperator::HashJoin { .. } => PhysOperatorKind::HashJoin,
            PhysOperator::NestedLoopJoin { .. } => PhysOperatorKind::NestedLoopJoin,
            PhysOperator::Aggregate { .. } => PhysOperatorKind::Aggregate,
        }
    }

    /// The base table scanned by this operator, if it is a scan.
    pub fn scanned_table(&self) -> Option<TableId> {
        match self {
            PhysOperator::SeqScan { table, .. } | PhysOperator::IndexScan { table, .. } => {
                Some(*table)
            }
            _ => None,
        }
    }

    /// Predicates evaluated by this operator (scans only).
    pub fn predicates(&self) -> &[Predicate] {
        match self {
            PhysOperator::SeqScan { predicates, .. } => predicates,
            PhysOperator::IndexScan { residual, .. } => residual,
            _ => &[],
        }
    }
}

/// A node of a physical plan tree with optimizer annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanNode {
    /// The physical operator.
    pub op: PhysOperator,
    /// Child plans (see the operator variants for ordering conventions).
    pub children: Vec<PlanNode>,
    /// Optimizer-estimated output cardinality.
    pub est_cardinality: f64,
    /// Optimizer-estimated total cost of the subtree (planner units).
    pub est_cost: f64,
    /// Output tuple width in bytes.
    pub output_width: f64,
}

/// Why [`PlanNode::validate`] refused a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan names a table or column outside the catalog.
    Catalog(CatalogError),
    /// A node's estimated cardinality or output width is NaN or infinite.
    /// The featurizer reads both, and would turn a NaN into a confident
    /// answer and an infinity into a non-finite one.
    NonFiniteEstimate {
        /// Operator of the offending node.
        operator: &'static str,
        /// `"est_cardinality"` or `"output_width"`.
        field: &'static str,
        /// The value found.
        value: f64,
    },
}

impl From<CatalogError> for PlanError {
    fn from(e: CatalogError) -> Self {
        PlanError::Catalog(e)
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Catalog(e) => e.fmt(f),
            PlanError::NonFiniteEstimate {
                operator,
                field,
                value,
            } => write!(f, "non-finite {field} {value} on a {operator} node"),
        }
    }
}

impl std::error::Error for PlanError {}

impl PlanNode {
    /// Create a leaf node.
    pub fn leaf(op: PhysOperator, est_cardinality: f64, est_cost: f64, output_width: f64) -> Self {
        PlanNode {
            op,
            children: Vec::new(),
            est_cardinality,
            est_cost,
            output_width,
        }
    }

    /// Number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// Depth of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(PlanNode::depth).max().unwrap_or(0)
    }

    /// Pre-order iterator over all nodes of the subtree.
    pub fn iter(&self) -> PlanIter<'_> {
        PlanIter { stack: vec![self] }
    }

    /// Check the plan against a catalog: every scanned table and every
    /// column it names (index columns, join keys, predicate and aggregate
    /// columns) must exist — the bounds checks of `Query::validate` — and
    /// every node's `est_cardinality` and `output_width` must be finite.
    /// Featurizing a plan that fails this would index out of bounds or
    /// answer from a garbage feature, so a plan from untrusted input is
    /// validated before it is served.  Walks the tree by recursion, in
    /// pre-order, so a valid plan costs no heap allocation.
    pub fn validate(&self, catalog: &SchemaCatalog) -> Result<(), PlanError> {
        for (field, value) in [
            ("est_cardinality", self.est_cardinality),
            ("output_width", self.output_width),
        ] {
            if !value.is_finite() {
                return Err(PlanError::NonFiniteEstimate {
                    operator: self.op.kind().name(),
                    field,
                    value,
                });
            }
        }
        if let Some(table) = self.op.scanned_table() {
            catalog.try_table(table)?;
        }
        for predicate in self.op.predicates() {
            catalog.try_column(predicate.column)?;
        }
        match &self.op {
            PhysOperator::IndexScan { index_column, .. } => {
                catalog.try_column(*index_column)?;
            }
            PhysOperator::HashJoin {
                build_key: a,
                probe_key: b,
            }
            | PhysOperator::NestedLoopJoin {
                outer_key: a,
                inner_key: b,
            } => {
                catalog.try_column(*a)?;
                catalog.try_column(*b)?;
            }
            PhysOperator::Aggregate { aggregates } => {
                for column in aggregates.iter().filter_map(|a| a.column) {
                    catalog.try_column(column)?;
                }
            }
            PhysOperator::SeqScan { .. } => {}
        }
        self.children
            .iter()
            .try_for_each(|child| child.validate(catalog))
    }

    /// All base tables scanned anywhere in the subtree.
    pub fn scanned_tables(&self) -> Vec<TableId> {
        let mut tables: Vec<TableId> = self.iter().filter_map(|n| n.op.scanned_table()).collect();
        tables.sort();
        tables.dedup();
        tables
    }

    /// Render the plan as an indented EXPLAIN-style string.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{:indent$}{} (rows={:.0} cost={:.1} width={:.0})",
            "",
            self.op.kind().name(),
            self.est_cardinality,
            self.est_cost,
            self.output_width,
            indent = indent * 2
        );
        for child in &self.children {
            child.explain_into(out, indent + 1);
        }
    }
}

/// Pre-order iterator over plan nodes.
pub struct PlanIter<'a> {
    stack: Vec<&'a PlanNode>,
}

impl<'a> Iterator for PlanIter<'a> {
    type Item = &'a PlanNode;

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        for child in node.children.iter().rev() {
            self.stack.push(child);
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsdb_catalog::{ColumnId, TableId};

    fn sample_plan() -> PlanNode {
        let t0 = TableId(0);
        let t1 = TableId(1);
        let scan0 = PlanNode::leaf(
            PhysOperator::SeqScan {
                table: t0,
                predicates: vec![],
            },
            100.0,
            10.0,
            40.0,
        );
        let scan1 = PlanNode::leaf(
            PhysOperator::SeqScan {
                table: t1,
                predicates: vec![],
            },
            1000.0,
            100.0,
            32.0,
        );
        let join = PlanNode {
            op: PhysOperator::HashJoin {
                build_key: ColumnRef::new(t0, ColumnId(0)),
                probe_key: ColumnRef::new(t1, ColumnId(1)),
            },
            children: vec![scan0, scan1],
            est_cardinality: 1000.0,
            est_cost: 250.0,
            output_width: 72.0,
        };
        PlanNode {
            op: PhysOperator::Aggregate {
                aggregates: vec![zsdb_query::Aggregate::count_star()],
            },
            children: vec![join],
            est_cardinality: 1.0,
            est_cost: 260.0,
            output_width: 8.0,
        }
    }

    #[test]
    fn kind_indices_are_stable() {
        for (i, kind) in PhysOperatorKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn tree_metrics() {
        let plan = sample_plan();
        assert_eq!(plan.size(), 4);
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.iter().count(), 4);
        assert_eq!(plan.scanned_tables(), vec![TableId(0), TableId(1)]);
    }

    #[test]
    fn explain_renders_every_node() {
        let plan = sample_plan();
        let text = plan.explain();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Hash Join"));
        assert_eq!(text.matches("Seq Scan").count(), 2);
    }

    #[test]
    fn validate_checks_every_table_and_column_the_plan_names() {
        use zsdb_query::{AggFunc, CmpOp};
        let catalog = zsdb_catalog::presets::imdb_like(0.02);
        assert!(sample_plan().validate(&catalog).is_ok());
        let (t0, ok) = (TableId(0), ColumnRef::new(TableId(0), ColumnId(0)));
        let table = TableId(catalog.num_tables() as u32);
        let column = ColumnRef::new(t0, ColumnId(catalog.table(t0).num_columns() as u32));
        let leaf = |op| PlanNode::leaf(op, 1.0, 1.0, 8.0);
        let seq = |table, predicates| leaf(PhysOperator::SeqScan { table, predicates });
        let over = |op, child| PlanNode {
            children: vec![child],
            ..leaf(op)
        };
        let predicate = Predicate::new(column, CmpOp::Eq, zsdb_catalog::Value::Int(1));
        let aggregate = |a| PhysOperator::Aggregate {
            aggregates: vec![a],
        };
        for plan in [
            seq(table, vec![]),
            seq(t0, vec![predicate]),
            leaf(PhysOperator::IndexScan {
                table: t0,
                index_column: column,
                lo: None,
                hi: None,
                residual: vec![],
            }),
            over(
                PhysOperator::HashJoin {
                    build_key: ok,
                    probe_key: column,
                },
                seq(t0, vec![]),
            ),
            over(
                PhysOperator::NestedLoopJoin {
                    outer_key: column,
                    inner_key: ok,
                },
                seq(t0, vec![]),
            ),
            over(
                aggregate(Aggregate::over(AggFunc::Sum, column)),
                seq(t0, vec![]),
            ),
            over(aggregate(Aggregate::count_star()), seq(table, vec![])),
            PlanNode {
                est_cardinality: f64::NAN,
                ..seq(t0, vec![])
            },
            over(
                aggregate(Aggregate::count_star()),
                PlanNode {
                    output_width: f64::INFINITY,
                    ..seq(t0, vec![])
                },
            ),
        ] {
            assert!(plan.validate(&catalog).is_err(), "{plan:?} passed");
        }
    }

    #[test]
    fn operator_helpers() {
        let plan = sample_plan();
        assert_eq!(plan.op.kind(), PhysOperatorKind::Aggregate);
        assert!(plan.op.scanned_table().is_none());
        let scan = &plan.children[0].children[0];
        assert_eq!(scan.op.scanned_table(), Some(TableId(0)));
        assert!(scan.op.predicates().is_empty());
    }
}
