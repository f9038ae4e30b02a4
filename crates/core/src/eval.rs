//! Evaluation of cost models on benchmark workloads.

use crate::features::{featurize_execution, PlanGraph};
use crate::train::{Trainable, TrainedModel};
use serde::{Deserialize, Serialize};
use zsdb_engine::QueryExecution;
use zsdb_nn::QErrorSummary;
use zsdb_storage::Database;

/// Q-error report of one model on one workload, in the format of the
/// paper's Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Name of the evaluated workload (e.g. `"scale"`, `"job-light"`).
    pub workload: String,
    /// Q-error summary (median / 95th / max).
    pub qerrors: QErrorSummary,
}

impl std::fmt::Display for EvaluationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<12} {}", self.workload, self.qerrors)
    }
}

/// Predict the runtime of a single executed query with a trained model,
/// using the model's own featurizer configuration against the target
/// database's catalog.
pub fn predict_runtime(model: &TrainedModel, db: &Database, execution: &QueryExecution) -> f64 {
    let graph = featurize_execution(db.catalog(), execution, model.featurizer);
    model.predict(&graph)
}

/// Evaluate a trained model on a workload's executions over an (unseen)
/// database and summarise the Q-errors.
///
/// Predictions run through the batched forward pass (bit-identical to
/// [`predict_runtime`] per execution, one batched MLP call per
/// level/kind group instead of per node).
pub fn evaluate(
    model: &TrainedModel,
    db: &Database,
    workload_name: &str,
    executions: &[QueryExecution],
) -> EvaluationReport {
    /// Executions featurized (and predicted) at a time, so peak memory
    /// stays flat for arbitrarily large evaluation workloads.
    const EVAL_CHUNK: usize = 256;
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(executions.len());
    for chunk in executions.chunks(EVAL_CHUNK) {
        let graphs: Vec<PlanGraph> = chunk
            .iter()
            .map(|e| featurize_execution(db.catalog(), e, model.featurizer))
            .collect();
        let refs: Vec<&PlanGraph> = graphs.iter().collect();
        pairs.extend(
            model
                .predict_batch(&refs)
                .into_iter()
                .zip(chunk)
                .map(|(p, e)| (p, e.runtime_secs)),
        );
    }
    EvaluationReport {
        workload: workload_name.to_string(),
        qerrors: QErrorSummary::from_predictions(&pairs),
    }
}

/// Evaluate predictions that were produced by any means (used by the
/// baselines and the what-if pipeline, which do not go through
/// [`predict_runtime`]).
pub fn evaluate_predictions(workload_name: &str, pairs: &[(f64, f64)]) -> EvaluationReport {
    EvaluationReport {
        workload: workload_name.to_string(),
        qerrors: QErrorSummary::from_predictions(pairs),
    }
}

/// Evaluate a model on already-featurized graphs (graphs must carry
/// labels).
pub fn evaluate_graphs(
    model: &TrainedModel,
    workload_name: &str,
    graphs: &[PlanGraph],
) -> EvaluationReport {
    let labelled: Vec<&PlanGraph> = graphs.iter().filter(|g| g.runtime_secs.is_some()).collect();
    let pairs: Vec<(f64, f64)> = model
        .model
        .predict_chunked(&labelled, &mut Default::default())
        .into_iter()
        .zip(&labelled)
        .map(|(p, g)| (p, g.runtime_secs.expect("labelled")))
        .collect();
    EvaluationReport {
        workload: workload_name.to_string(),
        qerrors: QErrorSummary::from_predictions(&pairs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::collect_for_database;
    use crate::features::FeaturizerConfig;
    use crate::model::ModelConfig;
    use crate::train::{Trainer, TrainingConfig};
    use zsdb_catalog::presets;
    use zsdb_query::WorkloadSpec;

    #[test]
    fn evaluation_report_formats() {
        let report = evaluate_predictions("scale", &[(1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(report.workload, "scale");
        assert_eq!(report.qerrors.count, 2);
        assert!(report.to_string().starts_with("scale"));
    }

    #[test]
    fn evaluate_untrained_model_still_produces_finite_summary() {
        let db = Database::generate(presets::imdb_like(0.02), 9);
        let executions = collect_for_database(&db, &WorkloadSpec::paper_training(), 10, 1);
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 1,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::estimated(),
        );
        // "Train" on the evaluation db itself just to obtain a TrainedModel
        // quickly; this test only checks the evaluation plumbing.
        let graphs: Vec<PlanGraph> = executions
            .iter()
            .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::estimated()))
            .collect();
        let trained = trainer.train(&graphs);
        let report = evaluate(&trained, &db, "synthetic", &executions);
        assert!(report.qerrors.median.is_finite());
        assert!(report.qerrors.max >= report.qerrors.p95);
        assert!(report.qerrors.p95 >= report.qerrors.median);
        let graph_report = evaluate_graphs(&trained, "synthetic", &graphs);
        assert_eq!(graph_report.qerrors.count, report.qerrors.count);
    }
}
