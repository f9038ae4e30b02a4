//! Transferable graph encoding of executed query plans (paper Figure 2).
//!
//! A physical plan is turned into a DAG of typed nodes:
//!
//! * **plan-operator** nodes — one per physical operator, featurized by the
//!   operator kind (one-hot), its cardinality (exact or estimated) and its
//!   output tuple width;
//! * **table** nodes — tuple count, page count, row width;
//! * **column** nodes — data type (one-hot), value width, distinct count,
//!   null fraction;
//! * **predicate** nodes — comparison operator (one-hot) and the *data
//!   type* of the literal (never its value — selectivity information
//!   reaches the model only through cardinalities, the paper's
//!   "separation of concerns");
//! * **aggregation** nodes — aggregate function (one-hot).
//!
//! All features are database-independent, so a model trained on one set of
//! databases can be applied to a completely different one.  For the
//! ablation study, [`FeatureMode::HashedOneHot`] replaces the table and
//! column features by hashed identity one-hots — the *non-transferable*
//! encoding the paper criticises in workload-driven models.

use crate::arena::GraphArena;
use serde::{Deserialize, Serialize};
use zsdb_catalog::{ColumnId, ColumnRef, SchemaCatalog, TableId, Value};
use zsdb_engine::fingerprint::Fnv64;
use zsdb_engine::{ExecutedNode, PhysOperator, PhysOperatorKind, PlanNode, QueryExecution};
use zsdb_query::{AggFunc, Aggregate, CmpOp, Predicate};

/// Which cardinalities annotate the plan-operator nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CardinalityMode {
    /// True cardinalities observed by the executor (upper-bound variant,
    /// "Zero-Shot (Exact Cardinalities)").
    Exact,
    /// The optimizer's estimates ("Zero-Shot (Est. Cardinalities)").
    Estimated,
}

/// Which featurization is used for tables and columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureMode {
    /// Database-independent statistics (the paper's proposal).
    Transferable,
    /// Hashed identity one-hots of table/column names — non-transferable;
    /// used only by the featurization ablation.
    HashedOneHot,
}

/// Number of slots used by the hashed one-hot ablation encoding.
const HASH_SLOTS: usize = 16;

/// Node types of the plan graph, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Physical plan operator.
    PlanOperator,
    /// Base table.
    Table,
    /// Column.
    Column,
    /// Filter predicate.
    Predicate,
    /// Aggregation expression.
    Aggregation,
}

impl NodeKind {
    /// All node kinds.
    pub const ALL: [NodeKind; 5] = [
        NodeKind::PlanOperator,
        NodeKind::Table,
        NodeKind::Column,
        NodeKind::Predicate,
        NodeKind::Aggregation,
    ];

    /// Stable index of the node kind.
    pub fn index(self) -> usize {
        match self {
            NodeKind::PlanOperator => 0,
            NodeKind::Table => 1,
            NodeKind::Column => 2,
            NodeKind::Predicate => 3,
            NodeKind::Aggregation => 4,
        }
    }

    /// Dimension of the feature vector of this node kind.
    pub fn feature_dim(self) -> usize {
        match self {
            NodeKind::PlanOperator => PhysOperatorKind::ALL.len() + 3,
            NodeKind::Table => 3 + HASH_SLOTS,
            NodeKind::Column => 5 + 3 + HASH_SLOTS,
            NodeKind::Predicate => 6 + 5,
            NodeKind::Aggregation => 5,
        }
    }
}

/// One node of the plan graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphNode {
    /// Node type.
    pub kind: NodeKind,
    /// Feature vector of length `kind.feature_dim()`.
    pub features: Vec<f64>,
    /// Indices of child nodes (always smaller than the node's own index, so
    /// index order is a topological order).
    pub children: Vec<usize>,
}

/// A featurized query plan: a DAG with a single root (the topmost plan
/// operator) whose nodes appear in topological (children-first) order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanGraph {
    /// Nodes in topological order.
    pub nodes: Vec<GraphNode>,
    /// Index of the root plan-operator node (always the last node).
    pub root: usize,
    /// The runtime label in seconds, if known (training data).
    pub runtime_secs: Option<f64>,
}

impl PlanGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes of the given kind.
    pub fn count_kind(&self, kind: NodeKind) -> usize {
        self.nodes.iter().filter(|n| n.kind == kind).count()
    }
}

/// Configuration of the featurizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeaturizerConfig {
    /// Exact or estimated cardinalities on plan operators.
    pub cardinality_mode: CardinalityMode,
    /// Transferable or hashed-one-hot table/column features.
    pub feature_mode: FeatureMode,
}

impl Default for FeaturizerConfig {
    fn default() -> Self {
        FeaturizerConfig {
            cardinality_mode: CardinalityMode::Exact,
            feature_mode: FeatureMode::Transferable,
        }
    }
}

impl FeaturizerConfig {
    /// Exact-cardinality transferable featurization.
    pub fn exact() -> Self {
        FeaturizerConfig::default()
    }

    /// Estimated-cardinality transferable featurization.
    pub fn estimated() -> Self {
        FeaturizerConfig {
            cardinality_mode: CardinalityMode::Estimated,
            ..FeaturizerConfig::default()
        }
    }
}

/// Build the plan graph of an executed query (training / evaluation data).
///
/// Convenience wrapper over [`featurize_execution_into`] with a
/// throwaway arena; hot paths should hold a [`GraphArena`] and a
/// reusable graph and call the `_into` variant directly.
pub fn featurize_execution(
    catalog: &SchemaCatalog,
    execution: &QueryExecution,
    config: FeaturizerConfig,
) -> PlanGraph {
    let mut arena = GraphArena::new();
    let mut graph = PlanGraph {
        nodes: Vec::new(),
        root: 0,
        runtime_secs: None,
    };
    featurize_execution_into(catalog, execution, config, &mut arena, &mut graph);
    graph
}

/// Rebuild `graph` in place as the plan graph of an executed query,
/// recycling its previous nodes through `arena`.
///
/// Produces a graph equal to [`featurize_execution`]'s (bit-identical
/// features); once the arena's pools have grown to the workload's
/// high-water mark the call performs **zero heap allocations**.
pub fn featurize_execution_into(
    catalog: &SchemaCatalog,
    execution: &QueryExecution,
    config: FeaturizerConfig,
    arena: &mut GraphArena,
    graph: &mut PlanGraph,
) {
    arena.reclaim_nodes(graph);
    let mut builder = GraphBuilder {
        catalog,
        config,
        arena,
        nodes: &mut graph.nodes,
    };
    graph.root = builder.add_plan_node(&execution.plan, Some(&execution.executed));
    graph.runtime_secs = Some(execution.runtime_secs);
}

/// Build the plan graph of a *planned but not executed* query (inference,
/// e.g. what-if scenarios).  Only estimated cardinalities are available, so
/// `config.cardinality_mode` is forced to [`CardinalityMode::Estimated`].
///
/// Convenience wrapper over [`featurize_plan_into`] with a throwaway
/// arena (see there for the allocation-free variant).
pub fn featurize_plan(
    catalog: &SchemaCatalog,
    plan: &PlanNode,
    config: FeaturizerConfig,
) -> PlanGraph {
    let mut arena = GraphArena::new();
    let mut graph = PlanGraph {
        nodes: Vec::new(),
        root: 0,
        runtime_secs: None,
    };
    featurize_plan_into(catalog, plan, config, &mut arena, &mut graph);
    graph
}

/// Rebuild `graph` in place as the plan graph of a planned query — the
/// serving hot path.  `config.cardinality_mode` is forced to
/// [`CardinalityMode::Estimated`] exactly as in [`featurize_plan`].
///
/// The previous contents of `graph` are recycled through `arena` (nodes
/// cleared into the spare pool, buffer capacity retained), so repeated
/// featurization over a warm arena performs **zero heap allocations** —
/// the property the allocation-regression test asserts.
pub fn featurize_plan_into(
    catalog: &SchemaCatalog,
    plan: &PlanNode,
    config: FeaturizerConfig,
    arena: &mut GraphArena,
    graph: &mut PlanGraph,
) {
    let config = FeaturizerConfig {
        cardinality_mode: CardinalityMode::Estimated,
        ..config
    };
    arena.reclaim_nodes(graph);
    let mut builder = GraphBuilder {
        catalog,
        config,
        arena,
        nodes: &mut graph.nodes,
    };
    graph.root = builder.add_plan_node(plan, None);
    graph.runtime_secs = None;
}

/// Every node without a plan operator below it that the featurizer can
/// emit for `catalog` under `config`, children before parents (children
/// index into the returned list, as in a [`PlanGraph`]).  Per table: its
/// node, then per column the column's node, a Predicate node for every
/// [`CmpOp`] × one literal of each [`Value`] variant, and an Aggregation
/// node for every [`AggFunc`]; last, every `AggFunc` without a column.
///
/// They come from the same builders as every plan graph's nodes, and a
/// predicate's features hold its operator and its literal's type, never
/// the literal: so any Table, Column, Predicate or Aggregation node of a
/// graph featurized against `catalog` in `config`'s feature mode equals
/// one of them, feature bit for feature bit and child for child.  (The
/// cardinality mode touches operators only.)  Equal nodes can repeat.
pub fn catalog_nodes(catalog: &SchemaCatalog, config: FeaturizerConfig) -> Vec<GraphNode> {
    const LITERALS: [Value; 5] = [
        Value::Null,
        Value::Int(0),
        Value::Float(0.0),
        Value::Cat(0),
        Value::Bool(false),
    ];
    let mut arena = GraphArena::new();
    let mut nodes = Vec::new();
    let mut builder = GraphBuilder {
        catalog,
        config,
        arena: &mut arena,
        nodes: &mut nodes,
    };
    for (table, meta) in catalog.iter_tables() {
        builder.table_node(table);
        for column in 0..meta.columns.len() {
            let column = ColumnRef::new(table, ColumnId(column as u32));
            builder.column_node(column);
            for op in CmpOp::ALL {
                for value in LITERALS {
                    builder.predicate_node(&Predicate::new(column, op, value));
                }
            }
            for func in AggFunc::ALL {
                builder.aggregation_node(&Aggregate::over(func, column));
            }
        }
    }
    for func in AggFunc::ALL {
        builder.aggregation_node(&Aggregate { func, column: None });
    }
    nodes
}

struct GraphBuilder<'a> {
    catalog: &'a SchemaCatalog,
    config: FeaturizerConfig,
    arena: &'a mut GraphArena,
    nodes: &'a mut Vec<GraphNode>,
}

impl<'a> GraphBuilder<'a> {
    fn push(&mut self, node: GraphNode) -> usize {
        debug_assert_eq!(node.features.len(), node.kind.feature_dim());
        let idx = self.nodes.len();
        debug_assert!(node.children.iter().all(|c| *c < idx));
        self.nodes.push(node);
        idx
    }

    /// Recursively add a plan operator with its child operators and its
    /// attached table / column / predicate / aggregation nodes.
    ///
    /// The node is taken from the arena *before* recursing so its pooled
    /// `children` buffer collects the child indices directly; features are
    /// written in place into the pooled `features` buffer.
    fn add_plan_node(&mut self, plan: &PlanNode, executed: Option<&ExecutedNode>) -> usize {
        let mut node = self.arena.take_node(NodeKind::PlanOperator);
        // Children first so that indices are a topological order.
        for (i, child) in plan.children.iter().enumerate() {
            let idx = self.add_plan_node(child, executed.map(|e| &e.children[i]));
            node.children.push(idx);
        }

        match &plan.op {
            PhysOperator::SeqScan { table, predicates } => {
                let t = self.table_node(*table);
                node.children.push(t);
                for p in predicates {
                    let pn = self.predicate_node(p);
                    node.children.push(pn);
                }
            }
            PhysOperator::IndexScan {
                table,
                index_column,
                residual,
                ..
            } => {
                let t = self.table_node(*table);
                node.children.push(t);
                let c = self.column_node(*index_column);
                node.children.push(c);
                for p in residual {
                    let pn = self.predicate_node(p);
                    node.children.push(pn);
                }
            }
            PhysOperator::HashJoin {
                build_key,
                probe_key,
            } => {
                let b = self.column_node(*build_key);
                node.children.push(b);
                let p = self.column_node(*probe_key);
                node.children.push(p);
            }
            PhysOperator::NestedLoopJoin {
                outer_key,
                inner_key,
            } => {
                let o = self.column_node(*outer_key);
                node.children.push(o);
                let i = self.column_node(*inner_key);
                node.children.push(i);
            }
            PhysOperator::Aggregate { aggregates } => {
                for agg in aggregates {
                    let a = self.aggregation_node(agg);
                    node.children.push(a);
                }
            }
        }

        let cardinality = match (self.config.cardinality_mode, executed) {
            (CardinalityMode::Exact, Some(e)) => e.actual_cardinality as f64,
            _ => plan.est_cardinality,
        };
        push_one_hot(
            &mut node.features,
            plan.op.kind().index(),
            PhysOperatorKind::ALL.len(),
        );
        node.features.push(log1p(cardinality));
        node.features.push(log1p(plan.output_width));
        node.features
            .push(log1p(plan.est_cardinality * plan.output_width));
        self.push(node)
    }

    fn table_node(&mut self, table: TableId) -> usize {
        if let Some(&idx) = self.arena.table_nodes.get(&table) {
            return idx;
        }
        let mut node = self.arena.take_node(NodeKind::Table);
        let meta = self.catalog.table(table);
        match self.config.feature_mode {
            FeatureMode::Transferable => {
                node.features.push(log1p(meta.num_tuples as f64));
                node.features.push(log1p(meta.num_pages() as f64));
                node.features.push(log1p(meta.row_width_bytes() as f64));
                push_zeros(&mut node.features, HASH_SLOTS);
            }
            FeatureMode::HashedOneHot => {
                // Non-transferable ablation: identity of the table instead of
                // its statistics.
                push_zeros(&mut node.features, 3);
                push_hashed_one_hot(&mut node.features, &meta.name);
            }
        }
        let idx = self.push(node);
        self.arena.table_nodes.insert(table, idx);
        idx
    }

    fn column_node(&mut self, column: ColumnRef) -> usize {
        if let Some(&idx) = self.arena.column_nodes.get(&column) {
            return idx;
        }
        let mut node = self.arena.take_node(NodeKind::Column);
        let meta = self.catalog.column(column);
        push_one_hot(&mut node.features, meta.data_type.index(), 5);
        match self.config.feature_mode {
            FeatureMode::Transferable => {
                node.features.push(meta.width_bytes() as f64 / 8.0);
                node.features.push(log1p(meta.stats.distinct_count as f64));
                node.features.push(meta.stats.null_fraction);
                push_zeros(&mut node.features, HASH_SLOTS);
            }
            FeatureMode::HashedOneHot => {
                push_zeros(&mut node.features, 3);
                let table_name = &self.catalog.table(column.table).name;
                push_hashed_one_hot(&mut node.features, &format!("{table_name}.{}", meta.name));
            }
        }
        let idx = self.push(node);
        self.arena.column_nodes.insert(column, idx);
        idx
    }

    fn predicate_node(&mut self, predicate: &Predicate) -> usize {
        let column = self.column_node(predicate.column);
        let mut node = self.arena.take_node(NodeKind::Predicate);
        node.children.push(column);
        push_one_hot(&mut node.features, predicate.op.index(), CmpOp::ALL.len());
        let literal_type = predicate.value.data_type().map(|t| t.index()).unwrap_or(0);
        push_one_hot(&mut node.features, literal_type, 5);
        self.push(node)
    }

    fn aggregation_node(&mut self, aggregate: &Aggregate) -> usize {
        let column = aggregate.column.map(|c| self.column_node(c));
        let mut node = self.arena.take_node(NodeKind::Aggregation);
        if let Some(c) = column {
            node.children.push(c);
        }
        push_one_hot(&mut node.features, aggregate.func.index(), 5);
        self.push(node)
    }
}

/// Append a one-hot encoding of `index` (length `len`) in place.
fn push_one_hot(out: &mut Vec<f64>, index: usize, len: usize) {
    let base = out.len();
    push_zeros(out, len);
    if index < len {
        out[base + index] = 1.0;
    }
}

/// Append `n` zeros in place.
fn push_zeros(out: &mut Vec<f64>, n: usize) {
    out.resize(out.len() + n, 0.0);
}

/// Append the hashed-identity one-hot of `name` in place (ablation mode).
/// The slot is the FNV-1a of the name's bytes, so the ablation's graphs
/// do not depend on the toolchain (`std`'s `DefaultHasher` does not
/// promise its algorithm across releases).
fn push_hashed_one_hot(out: &mut Vec<f64>, name: &str) {
    let mut hash = Fnv64::new();
    name.bytes().for_each(|b| hash.write_u8(b));
    let slot = (hash.finish() % HASH_SLOTS as u64) as usize;
    push_one_hot(out, slot, HASH_SLOTS);
}

fn log1p(x: f64) -> f64 {
    (x.max(0.0) + 1.0).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsdb_catalog::presets;
    use zsdb_engine::QueryRunner;
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn sample_executions() -> (Database, Vec<QueryExecution>) {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 10, 1);
        let executions = runner.run_workload(&queries, 0);
        (db, executions)
    }

    #[test]
    fn graph_is_topologically_ordered_with_plan_root() {
        let (db, executions) = sample_executions();
        for e in &executions {
            let g = featurize_execution(db.catalog(), e, FeaturizerConfig::exact());
            assert_eq!(g.root, g.len() - 1);
            assert_eq!(g.nodes[g.root].kind, NodeKind::PlanOperator);
            for (i, node) in g.nodes.iter().enumerate() {
                assert_eq!(node.features.len(), node.kind.feature_dim());
                for &c in &node.children {
                    assert!(c < i, "child {c} not before parent {i}");
                }
            }
            assert_eq!(g.runtime_secs, Some(e.runtime_secs));
        }
    }

    #[test]
    fn graph_contains_all_node_types() {
        let (db, executions) = sample_executions();
        let with_predicates = executions
            .iter()
            .find(|e| !e.query.predicates.is_empty())
            .expect("some query has predicates");
        let g = featurize_execution(db.catalog(), with_predicates, FeaturizerConfig::exact());
        assert!(g.count_kind(NodeKind::PlanOperator) >= 2);
        assert!(g.count_kind(NodeKind::Table) == with_predicates.query.num_tables());
        assert!(g.count_kind(NodeKind::Predicate) == with_predicates.query.predicates.len());
        assert!(g.count_kind(NodeKind::Aggregation) == with_predicates.query.aggregates.len());
        assert!(g.count_kind(NodeKind::Column) >= 1);
    }

    #[test]
    fn exact_and_estimated_cardinalities_differ() {
        let (db, executions) = sample_executions();
        // Find a query where the estimate is off (almost always true for
        // multi-predicate queries).
        let mut found_difference = false;
        for e in &executions {
            let exact = featurize_execution(db.catalog(), e, FeaturizerConfig::exact());
            let est = featurize_execution(db.catalog(), e, FeaturizerConfig::estimated());
            assert_eq!(exact.len(), est.len());
            if exact
                .nodes
                .iter()
                .zip(&est.nodes)
                .any(|(a, b)| a.features != b.features)
            {
                found_difference = true;
            }
        }
        assert!(found_difference);
    }

    #[test]
    fn shared_columns_are_deduplicated() {
        let (db, executions) = sample_executions();
        for e in &executions {
            let g = featurize_execution(db.catalog(), e, FeaturizerConfig::exact());
            // Each distinct referenced column appears at most once.
            let num_column_nodes = g.count_kind(NodeKind::Column);
            let mut referenced = e.query.referenced_columns();
            referenced.sort();
            referenced.dedup();
            assert!(num_column_nodes <= referenced.len() + e.query.num_tables());
        }
    }

    #[test]
    fn transferable_features_are_identical_across_databases_for_same_structure() {
        // Featurize the same logical structure on two different databases:
        // the *shape* of features must be identical (same dims), and table
        // features must differ only through statistics, not identity.
        let (db, executions) = sample_executions();
        let g = featurize_execution(db.catalog(), &executions[0], FeaturizerConfig::exact());
        let other_db = Database::generate(presets::ssb_like(0.02), 1);
        let runner = QueryRunner::with_defaults(&other_db);
        let queries = WorkloadGenerator::with_defaults().generate(other_db.catalog(), 1, 1);
        let other = featurize_execution(
            other_db.catalog(),
            &runner.run(&queries[0], 0),
            FeaturizerConfig::exact(),
        );
        for node in g.nodes.iter().chain(other.nodes.iter()) {
            assert_eq!(node.features.len(), node.kind.feature_dim());
        }
    }

    #[test]
    fn hashed_one_hot_mode_hides_statistics() {
        let (db, executions) = sample_executions();
        let config = FeaturizerConfig {
            feature_mode: FeatureMode::HashedOneHot,
            ..FeaturizerConfig::exact()
        };
        let g = featurize_execution(db.catalog(), &executions[0], config);
        for node in g.nodes.iter().filter(|n| n.kind == NodeKind::Table) {
            // Statistics slots are zeroed in the ablation mode.
            assert_eq!(&node.features[0..3], &[0.0, 0.0, 0.0]);
            assert_eq!(node.features[3..].iter().sum::<f64>(), 1.0);
        }
    }

    #[test]
    fn hashed_one_hot_slots_are_pinned() {
        for (name, slot) in [
            ("title", 9),
            ("movie_companies", 15),
            ("title.production_year", 10),
            ("title.id", 0),
        ] {
            let mut features = Vec::new();
            push_hashed_one_hot(&mut features, name);
            let mut expected = vec![0.0; HASH_SLOTS];
            expected[slot] = 1.0;
            assert_eq!(features, expected, "{name}");
        }
    }

    #[test]
    fn arena_featurization_is_identical_to_allocating_featurization() {
        // One arena + one reusable graph across many plans and both
        // feature modes: every rebuild must equal the allocating path
        // (same nodes, same feature bits, same topology).
        let (db, executions) = sample_executions();
        let mut arena = GraphArena::new();
        let mut graph = arena.take_graph();
        for config in [
            FeaturizerConfig::exact(),
            FeaturizerConfig::estimated(),
            FeaturizerConfig {
                feature_mode: FeatureMode::HashedOneHot,
                ..FeaturizerConfig::exact()
            },
        ] {
            for e in &executions {
                featurize_execution_into(db.catalog(), e, config, &mut arena, &mut graph);
                assert_eq!(graph, featurize_execution(db.catalog(), e, config));
                featurize_plan_into(db.catalog(), &e.plan, config, &mut arena, &mut graph);
                assert_eq!(graph, featurize_plan(db.catalog(), &e.plan, config));
            }
        }
        arena.recycle(graph);
        assert!(arena.pooled_nodes() > 0);
    }

    #[test]
    fn featurize_plan_without_execution_uses_estimates() {
        let (db, executions) = sample_executions();
        let g = featurize_plan(db.catalog(), &executions[0].plan, FeaturizerConfig::exact());
        assert!(g.runtime_secs.is_none());
        let est = featurize_execution(db.catalog(), &executions[0], FeaturizerConfig::estimated());
        // Plan-only featurization equals the estimated-cardinality variant.
        assert_eq!(g.nodes, est.nodes);
    }
}
