//! The multi-task instantiation of the workspace's one training loop.
//!
//! There is no training loop here.  [`MultiTaskTrainer`] is
//! [`zsdb_core::ModelTrainer`] over [`MultiTaskModel`]; this module only
//! says what that loop needs to know about the model
//! (`impl Trainable for MultiTaskModel`: the parameter order, the joint
//! forward + backward, how predictions become per-task q-errors, and that
//! early stopping monitors the cost head); the artifact is
//! [`zsdb_core::Trained`] over the model.  Epochs, batch and micro-batch
//! sizes, threads, validation split and early stopping therefore mean
//! exactly what they mean for the single-task trainer, and 1-thread and
//! N-thread training produce **bit-identical** weights for every head.

use crate::model::{MultiTaskConfig, MultiTaskModel, MultiTaskPrediction};
use crate::sample::MultiTaskSample;
use serde::{Deserialize, Serialize};
use zsdb_core::features::PlanGraph;
use zsdb_core::{ModelTrainer, Trainable, Trained};
use zsdb_nn::{median, q_error, ParamBuf};

/// Median q-error of every task head over one evaluation set.
///
/// Cardinality q-errors are computed on `1 + rows` (the same `ln(1+·)`
/// smoothing the training targets use), so empty intermediate results do
/// not blow the ratio up to the `1e-9` floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskQErrors {
    /// Median q-error of the runtime-cost head.
    pub cost: f64,
    /// Median q-error of the root-result cardinality head.
    pub root_card: f64,
    /// Median q-error of the per-operator cardinality head (over all
    /// operators of all plans).
    pub op_card: f64,
}

/// Median q-error of every head over `samples`, evaluated through the
/// batched forward pass in bounded-size chunks.
pub fn task_qerrors(model: &MultiTaskModel, samples: &[MultiTaskSample]) -> TaskQErrors {
    model.evaluate(samples)
}

/// A trained multi-task model: per-task q-errors in the statistics, and
/// every head predicted by `.model`.
pub type TrainedMultiTaskModel = Trained<MultiTaskModel>;

/// Trainer for multi-task zero-shot models: all task heads are trained
/// jointly, and early stopping monitors the validation cost q-error
/// (training cost q-error without a split), matching the single-task
/// trainer's convention.
pub type MultiTaskTrainer = ModelTrainer<MultiTaskModel>;

impl Trainable for MultiTaskModel {
    type Config = MultiTaskConfig;
    type Sample = MultiTaskSample;
    type Prediction = MultiTaskPrediction;
    type QErrors = TaskQErrors;
    type Scratch = ();

    fn new(config: MultiTaskConfig) -> Self {
        MultiTaskModel::new(config)
    }

    fn config(&self) -> &MultiTaskConfig {
        MultiTaskModel::config(self)
    }

    /// Encoder (kind encoders, then combine), then the heads in
    /// [`crate::TaskHead::ALL`] order.
    fn params(&self) -> impl Iterator<Item = &ParamBuf> {
        let heads = [&self.cost_head, &self.root_card_head, &self.op_card_head];
        self.encoder
            .params()
            .chain(heads.into_iter().flat_map(|head| head.params()))
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut ParamBuf> {
        let heads = [
            &mut self.cost_head,
            &mut self.root_card_head,
            &mut self.op_card_head,
        ];
        self.encoder
            .params_mut()
            .chain(heads.into_iter().flat_map(|head| head.params_mut()))
    }

    fn accumulate_batch(
        &mut self,
        samples: &[&MultiTaskSample],
        _scratch: &mut (),
        predictions: &mut Vec<MultiTaskPrediction>,
    ) {
        predictions.extend(self.accumulate_gradients_batch(samples).predictions);
    }

    fn predict_samples(
        &self,
        samples: &[&MultiTaskSample],
        _scratch: &mut (),
        predictions: &mut Vec<MultiTaskPrediction>,
    ) {
        let graphs: Vec<&PlanGraph> = samples.iter().map(|s| &s.graph).collect();
        predictions.extend(self.predict_batch(&graphs));
    }

    fn q_errors(samples: &[&MultiTaskSample], predictions: &[MultiTaskPrediction]) -> TaskQErrors {
        let (mut cost, mut root, mut op) = (Vec::new(), Vec::new(), Vec::new());
        for (p, s) in predictions.iter().zip(samples) {
            cost.push(q_error(p.runtime_secs, s.targets.runtime_secs));
            root.push(q_error(p.root_rows + 1.0, s.targets.root_rows + 1.0));
            for (pr, ar) in p.operator_rows.iter().zip(&s.targets.operator_rows) {
                op.push(q_error(pr + 1.0, ar + 1.0));
            }
        }
        TaskQErrors {
            cost: median(&cost),
            root_card: median(&root),
            op_card: median(&op),
        }
    }

    fn monitored(qerrors: &TaskQErrors) -> f64 {
        qerrors.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_from_execution;
    use zsdb_catalog::presets;
    use zsdb_core::{FeaturizerConfig, FinetuneConfig, TrainingConfig};
    use zsdb_engine::QueryRunner;
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn tiny_samples() -> Vec<MultiTaskSample> {
        let mut samples = Vec::new();
        for seed in [3u64, 4] {
            let db = Database::generate(presets::imdb_like(0.02), seed);
            let runner = QueryRunner::with_defaults(&db);
            let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 30, seed);
            samples.extend(
                runner
                    .run_workload(&queries, 0)
                    .iter()
                    .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated())),
            );
        }
        samples
    }

    fn tiny_training_config() -> TrainingConfig {
        TrainingConfig {
            epochs: 20,
            batch_size: 8,
            microbatch_size: 4,
            validation_fraction: 0.0,
            early_stopping_patience: 0,
            ..TrainingConfig::default()
        }
    }

    #[test]
    fn joint_training_improves_every_task() {
        let samples = tiny_samples();
        let trainer = MultiTaskTrainer::new(
            MultiTaskConfig::tiny(),
            tiny_training_config(),
            FeaturizerConfig::estimated(),
        );
        let trained = trainer.train(&samples);
        let first = trained.training_curve.first().unwrap();
        let last = trained.final_train_qerror;
        assert!(
            last.cost < first.cost,
            "cost q-error should improve: {} -> {}",
            first.cost,
            last.cost
        );
        assert!(
            last.op_card < first.op_card,
            "op-card q-error should improve: {} -> {}",
            first.op_card,
            last.op_card
        );
        // The root-cardinality median starts degenerate on a tiny corpus
        // (many queries return zero rows and the fresh head predicts zero,
        // so the initial median q-error is already ~1); assert the trained
        // head stays accurate rather than strictly improving.
        assert!(
            last.root_card < 4.0,
            "trained root-card q-error too high: {}",
            last.root_card
        );
        assert!(
            last.cost < 2.5,
            "trained cost q-error too high: {}",
            last.cost
        );
    }

    #[test]
    fn thread_count_never_changes_any_heads_bits_in_training_or_fine_tuning() {
        let samples = tiny_samples();
        let run = |threads: usize| {
            let training = TrainingConfig {
                epochs: 3,
                microbatch_size: 3,
                validation_fraction: 0.1,
                threads,
                ..tiny_training_config()
            };
            let finetuning = FinetuneConfig {
                epochs: 3,
                batch_size: 8,
                microbatch_size: 3,
                threads,
                ..FinetuneConfig::default()
            };
            let trainer = MultiTaskTrainer::new(
                MultiTaskConfig::tiny(),
                training,
                FeaturizerConfig::estimated(),
            );
            let base = trainer.train(&samples);
            let tuned = MultiTaskTrainer::finetune_from(&base, &samples[..12], finetuning);
            (base, tuned)
        };
        // The whole artifact: every head's weights, the per-task training
        // curve and the validation curve.
        let (base, tuned) = run(1);
        for threads in [2, 4] {
            let (other_base, other_tuned) = run(threads);
            assert_eq!(base.to_json(), other_base.to_json(), "{threads} threads");
            assert_eq!(tuned.to_json(), other_tuned.to_json(), "{threads} threads");
        }
        assert_ne!(tuned.model.to_json(), base.model.to_json());
    }

    #[test]
    fn trained_model_serialization_roundtrip() {
        let samples = tiny_samples();
        let trainer = MultiTaskTrainer::new(
            MultiTaskConfig::tiny(),
            TrainingConfig {
                epochs: 2,
                ..tiny_training_config()
            },
            FeaturizerConfig::estimated(),
        );
        let trained = trainer.train(&samples);
        let restored = TrainedMultiTaskModel::from_json(&trained.to_json()).unwrap();
        let a = trained.model.predict(&samples[0].graph);
        let b = restored.model.predict(&samples[0].graph);
        assert_eq!(a.runtime_secs.to_bits(), b.runtime_secs.to_bits());
        assert_eq!(a.root_rows.to_bits(), b.root_rows.to_bits());
        assert_eq!(restored.featurizer, trained.featurizer);
        assert_eq!(restored.training_curve.len(), trained.training_curve.len());
    }
}
