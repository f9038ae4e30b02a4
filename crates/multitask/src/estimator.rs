//! Closing the loop: the learned cardinality head as a
//! [`CardinalityEstimator`] driving the System-R optimizer.
//!
//! The optimizer asks an estimator for the cardinality of every connected
//! table subset it enumerates.  [`LearnedCardEstimator`] answers those
//! questions with the multi-task model's **root-cardinality head**: the
//! sub-query is rendered as a *canonical physical plan* (sorted left-deep
//! hash-join chain over predicate-pushed sequential scans, count(*)
//! aggregate on top — the shape the training plans have), annotated with
//! the classical fallback estimator's cardinalities (exactly what
//! [`featurize_plan`] reads at planning time, when no true cardinalities
//! exist), featurized, and pushed through the model.  The learned head
//! therefore acts as a zero-shot *correction* of the classical estimates
//! it sees in its input features.
//!
//! Every estimate is sanitised — non-finite model outputs fall back to the
//! classical estimator, finite ones are clamped to a valid row-count range
//! — so the optimizer can never observe NaN or negative cardinalities no
//! matter what the model does.

use crate::train::TrainedMultiTaskModel;
use zsdb_cardest::CardinalityEstimator;
use zsdb_catalog::{SchemaCatalog, TableId};
use zsdb_core::features::featurize_plan;
use zsdb_engine::{PhysOperator, PlanNode};
use zsdb_query::{Aggregate, JoinCondition, Predicate, Query};

/// Upper clamp of learned cardinality estimates (far above any simulated
/// table, far below overflow territory).
const MAX_ROWS: f64 = 1e15;

/// A cardinality estimator backed by the multi-task model's learned
/// root-cardinality head, with a classical estimator supplying the
/// plan-feature annotations and the fallback path.
pub struct LearnedCardEstimator<'a, F: CardinalityEstimator> {
    model: &'a TrainedMultiTaskModel,
    fallback: F,
}

impl<'a, F: CardinalityEstimator> LearnedCardEstimator<'a, F> {
    /// Create an estimator over the database described by `fallback`'s
    /// catalog.
    pub fn new(model: &'a TrainedMultiTaskModel, fallback: F) -> Self {
        LearnedCardEstimator { model, fallback }
    }

    /// The classical estimator used for feature annotations and fallback.
    pub fn fallback(&self) -> &F {
        &self.fallback
    }

    /// Canonical scan leaf: sequential scan with the table's predicates
    /// pushed down, annotated with the fallback estimate.
    fn scan_plan(&self, table: TableId, predicates: &[Predicate]) -> PlanNode {
        let on_table: Vec<Predicate> = predicates
            .iter()
            .filter(|p| p.column.table == table)
            .copied()
            .collect();
        let meta = self.fallback.catalog().table(table);
        let est = self.fallback.table_cardinality(table, &on_table).max(1.0);
        let cost = est.max(meta.num_pages() as f64);
        PlanNode::leaf(
            PhysOperator::SeqScan {
                table,
                predicates: on_table,
            },
            est,
            cost,
            meta.row_width_bytes() as f64,
        )
    }

    /// Count(*) aggregate root over `child` — the plan shape the
    /// root-cardinality head was trained on (its target is the rows
    /// *entering* the root aggregate).
    fn aggregate_root(child: PlanNode) -> PlanNode {
        PlanNode {
            est_cardinality: 1.0,
            est_cost: child.est_cost + child.est_cardinality,
            output_width: 8.0,
            op: PhysOperator::Aggregate {
                aggregates: vec![Aggregate::count_star()],
            },
            children: vec![child],
        }
    }

    /// Canonical physical plan of the connected sub-query of `query`
    /// restricted to `tables`: sorted left-deep hash-join chain (build on
    /// the smaller estimated side, mirroring the optimizer's convention)
    /// under a count(*) aggregate.  `None` when `tables` is empty or not
    /// connected by `query`'s join edges (the optimizer never asks for
    /// disconnected subsets; the fallback handles them regardless).
    fn canonical_plan(&self, query: &Query, tables: &[TableId]) -> Option<PlanNode> {
        let mut sorted: Vec<TableId> = tables.to_vec();
        sorted.sort();
        sorted.dedup();
        let (&first, rest) = sorted.split_first()?;

        let mut joined = vec![first];
        let mut current = self.scan_plan(first, &query.predicates);
        let mut remaining: Vec<TableId> = rest.to_vec();
        while !remaining.is_empty() {
            let connects = |t: TableId, joined: &[TableId], j: &JoinCondition| {
                (j.left.table == t && joined.contains(&j.right.table))
                    || (j.right.table == t && joined.contains(&j.left.table))
            };
            let pos = remaining
                .iter()
                .position(|&t| query.joins.iter().any(|j| connects(t, &joined, j)))?;
            let table = remaining.remove(pos);
            let edge = *query
                .joins
                .iter()
                .find(|j| connects(table, &joined, j))
                .expect("position() found a connecting edge");
            let (current_key, new_key) = if edge.left.table == table {
                (edge.right, edge.left)
            } else {
                (edge.left, edge.right)
            };
            joined.push(table);
            let scan = self.scan_plan(table, &query.predicates);
            let out_card = self
                .fallback
                .subquery_cardinality(query, &joined)
                .clamp(1.0, MAX_ROWS);
            let out_width = current.output_width + scan.output_width;
            let cost = current.est_cost + scan.est_cost + out_card;
            // Build on the smaller estimated side, like the optimizer.
            let (build, probe, build_key, probe_key) =
                if current.est_cardinality <= scan.est_cardinality {
                    (current, scan, current_key, new_key)
                } else {
                    (scan, current, new_key, current_key)
                };
            current = PlanNode {
                est_cardinality: out_card,
                est_cost: cost,
                output_width: out_width,
                op: PhysOperator::HashJoin {
                    build_key,
                    probe_key,
                },
                children: vec![build, probe],
            };
        }
        Some(Self::aggregate_root(current))
    }

    /// Learned row estimate for a canonical plan, or `None` when the model
    /// output is unusable (non-finite).
    fn learned_rows(&self, plan: &PlanNode, upper: f64) -> Option<f64> {
        let graph = featurize_plan(self.fallback.catalog(), plan, self.model.featurizer);
        let rows = self.model.model.predict(&graph).root_rows;
        rows.is_finite().then(|| rows.clamp(1.0, upper.max(1.0)))
    }
}

impl<F: CardinalityEstimator> CardinalityEstimator for LearnedCardEstimator<'_, F> {
    fn catalog(&self) -> &SchemaCatalog {
        self.fallback.catalog()
    }

    /// Per-predicate selectivities (used e.g. to size index-scan ranges)
    /// come from the classical fallback, sanitised into `[0, 1]`.
    fn predicate_selectivity(&self, predicate: &Predicate) -> f64 {
        let s = self.fallback.predicate_selectivity(predicate);
        if s.is_finite() {
            s.clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Learned single-table estimate: a canonical scan-plus-aggregate plan
    /// through the root-cardinality head, clamped to `[1, |table|]`;
    /// classical fallback when the model output is unusable.
    fn table_cardinality(&self, table: TableId, predicates: &[Predicate]) -> f64 {
        let plan = Self::aggregate_root(self.scan_plan(table, predicates));
        let upper = self.fallback.catalog().table(table).num_tuples as f64;
        self.learned_rows(&plan, upper)
            .unwrap_or_else(|| self.fallback.table_cardinality(table, predicates))
    }

    /// Learned sub-query estimate through the canonical join chain;
    /// classical fallback for disconnected subsets or unusable model
    /// output.
    fn subquery_cardinality(&self, query: &Query, tables: &[TableId]) -> f64 {
        match self
            .canonical_plan(query, tables)
            .and_then(|plan| self.learned_rows(&plan, MAX_ROWS))
        {
            Some(rows) => rows,
            None => self
                .fallback
                .subquery_cardinality(query, tables)
                .clamp(1e-6, MAX_ROWS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MultiTaskConfig;
    use crate::sample::sample_from_execution;
    use crate::train::MultiTaskTrainer;
    use zsdb_cardest::PostgresLikeEstimator;
    use zsdb_catalog::presets;
    use zsdb_core::features::FeaturizerConfig;
    use zsdb_core::TrainingConfig;
    use zsdb_engine::{EngineConfig, Optimizer, PhysOperatorKind, QueryRunner};
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn quickly_trained() -> TrainedMultiTaskModel {
        let db = Database::generate(presets::imdb_like(0.02), 5);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 40, 2);
        let samples: Vec<_> = runner
            .run_workload(&queries, 0)
            .iter()
            .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated()))
            .collect();
        MultiTaskTrainer::new(
            MultiTaskConfig::tiny(),
            TrainingConfig {
                epochs: 8,
                validation_fraction: 0.0,
                early_stopping_patience: 0,
                ..TrainingConfig::default()
            },
            FeaturizerConfig::estimated(),
        )
        .train(&samples)
    }

    #[test]
    fn estimates_are_finite_and_at_least_one() {
        let trained = quickly_trained();
        // A database the model has never seen.
        let db = Database::generate(presets::imdb_like(0.03), 42);
        let est =
            LearnedCardEstimator::new(&trained, PostgresLikeEstimator::new(db.catalog().clone()));
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 20, 9);
        for q in &queries {
            let card = est.query_cardinality(q);
            assert!(card.is_finite() && card >= 1.0, "query cardinality {card}");
            for &t in &q.tables {
                let tc = est.table_cardinality(t, &q.predicates);
                assert!(tc.is_finite() && tc >= 1.0, "table cardinality {tc}");
                assert!(tc <= db.catalog().table(t).num_tuples as f64 + 0.5);
            }
            for p in &q.predicates {
                let s = est.predicate_selectivity(p);
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn optimizer_plans_with_learned_cardinalities() {
        let trained = quickly_trained();
        let db = Database::generate(presets::imdb_like(0.02), 42);
        let est =
            LearnedCardEstimator::new(&trained, PostgresLikeEstimator::new(db.catalog().clone()));
        let optimizer = Optimizer::new(&db, EngineConfig::default(), &est);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 25, 4);
        for q in &queries {
            let plan = optimizer.plan(q);
            assert_eq!(plan.op.kind(), PhysOperatorKind::Aggregate);
            assert_eq!(plan.scanned_tables().len(), q.num_tables());
            assert!(plan.est_cost.is_finite() && plan.est_cost > 0.0);
        }
    }

    #[test]
    fn disconnected_subsets_fall_back_to_the_classical_estimator() {
        let trained = quickly_trained();
        let db = Database::generate(presets::imdb_like(0.02), 42);
        let fallback = PostgresLikeEstimator::new(db.catalog().clone());
        let est = LearnedCardEstimator::new(&trained, fallback);
        let catalog = db.catalog();
        let (mc, _) = catalog.table_by_name("movie_companies").unwrap();
        let (ci, _) = catalog.table_by_name("cast_info").unwrap();
        // Two tables, no join edge: the canonical plan cannot be built.
        let q = Query {
            tables: vec![mc, ci],
            joins: vec![],
            predicates: vec![],
            aggregates: vec![Aggregate::count_star()],
        };
        let learned = est.subquery_cardinality(&q, &q.tables);
        let classical = est
            .fallback()
            .subquery_cardinality(&q, &q.tables)
            .clamp(1e-6, MAX_ROWS);
        assert_eq!(learned, classical);
    }
}
