//! ISSUE 3 acceptance: the batched training & inference engine is
//! bit-consistent with the per-example path and deterministic across
//! thread counts.
//!
//! * batched `predict_batch` output equals per-example `predict` output
//!   **exactly** (fixed summation order), end to end through a trained
//!   model on an unseen database;
//! * training with 1 thread and with 2 threads produces identical
//!   weights for the same seed (fixed micro-batch shard reduction
//!   order);
//! * the validation-split and early-stopping knobs of `TrainingConfig`
//!   are live;
//! * the one training loop keeps its contract for **every** model it is
//!   instantiated with (`loop_contract`, run for the cost model and for
//!   the multi-task model).

use serde::{Deserialize, Serialize};
use zero_shot_db::catalog::presets;
use zero_shot_db::multitask::{samples_from_executions, MultiTaskConfig, MultiTaskModel};
use zero_shot_db::query::WorkloadGenerator;
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::features::featurize_execution;
use zero_shot_db::zeroshot::{
    FeaturizerConfig, ModelConfig, ModelTrainer, PlanGraph, Trainable, Trainer, TrainingConfig,
    ZeroShotCostModel,
};
use zsdb_engine::QueryRunner;

fn corpus(db: &Database, queries: usize, seed: u64) -> Vec<PlanGraph> {
    let runner = QueryRunner::with_defaults(db);
    let workload = WorkloadGenerator::with_defaults().generate(db.catalog(), queries, seed);
    runner
        .run_workload(&workload, 0)
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
        .collect()
}

#[test]
fn batched_inference_is_bit_identical_to_per_example_inference() {
    let train_db = Database::generate(presets::ssb_like(0.02), 5);
    let graphs = corpus(&train_db, 25, 3);
    let trained = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 2,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::exact(),
    )
    .train(&graphs);

    // Unseen database: the serving scenario.
    let unseen = Database::generate(presets::imdb_like(0.02), 77);
    let eval_graphs = corpus(&unseen, 30, 11);

    for batch_len in [1usize, 2, 7, 30] {
        let refs: Vec<&PlanGraph> = eval_graphs.iter().take(batch_len).collect();
        let batched = trained.predict_batch(&refs);
        assert_eq!(batched.len(), refs.len());
        for (g, p) in refs.iter().zip(&batched) {
            assert_eq!(
                p.to_bits(),
                trained.predict(g).to_bits(),
                "batched prediction must equal per-example prediction exactly"
            );
        }
    }
}

#[test]
fn thread_count_does_not_change_trained_weights() {
    let db = Database::generate(presets::imdb_like(0.02), 13);
    let graphs = corpus(&db, 40, 7);
    let config = TrainingConfig {
        epochs: 2,
        batch_size: 16,
        microbatch_size: 4,
        validation_fraction: 0.2,
        early_stopping_patience: 0,
        ..TrainingConfig::tiny()
    };
    let train_with = |threads: usize| {
        Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig { threads, ..config },
            FeaturizerConfig::exact(),
        )
        .train(&graphs)
    };
    let single = train_with(1);
    let dual = train_with(2);
    assert_eq!(
        single.model.to_json(),
        dual.model.to_json(),
        "1-thread and 2-thread training must produce identical weights"
    );
    for g in graphs.iter().take(8) {
        assert_eq!(single.predict(g).to_bits(), dual.predict(g).to_bits());
    }
    assert_eq!(single.training_curve, dual.training_curve);
}

#[test]
fn validation_and_early_stopping_are_live_through_the_facade() {
    let db = Database::generate(presets::imdb_like(0.02), 17);
    let graphs = corpus(&db, 40, 19);
    let trained = Trainer::new(
        ModelConfig::tiny(),
        TrainingConfig {
            epochs: 30,
            validation_fraction: 0.25,
            early_stopping_patience: 2,
            ..TrainingConfig::tiny()
        },
        FeaturizerConfig::exact(),
    )
    .train(&graphs);
    assert!(trained.final_validation_qerror.is_some());
    assert_eq!(trained.validation_curve.len(), trained.training_curve.len());
    assert!(trained.training_curve.len() <= 30);
}

/// The contract of the training loop, whatever model it trains.
fn loop_contract<M>(config: M::Config, samples: &[M::Sample])
where
    M: Trainable + Serialize + Deserialize,
{
    let train_on = |samples: &[M::Sample], training: TrainingConfig| {
        ModelTrainer::<M>::new(config.clone(), training, FeaturizerConfig::exact()).train(samples)
    };
    let patient = TrainingConfig {
        epochs: 30,
        batch_size: 8,
        microbatch_size: 3,
        validation_fraction: 0.25,
        early_stopping_patience: 2,
        ..TrainingConfig::default()
    };

    // The thread count never moves a bit of the artifact.
    let one = train_on(samples, patient);
    let two_threads = TrainingConfig {
        threads: 2,
        ..patient
    };
    assert_eq!(one.to_json(), train_on(samples, two_threads).to_json());

    // A validation split is evaluated every epoch, and under early
    // stopping the returned weights are the best monitored epoch.
    assert_eq!(one.validation_curve.len(), one.training_curve.len());
    assert!(one.stopped_early || one.training_curve.len() == 30);
    let best_seen = one
        .validation_curve
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let val_len = (samples.len() as f64 * patient.validation_fraction) as usize;
    let val_q = M::monitored(&one.model.evaluate(&samples[samples.len() - val_len..]));
    let final_validation = one.final_validation_qerror.as_ref().map(M::monitored);
    assert_eq!(
        (val_q.to_bits(), final_validation.map(f64::to_bits)),
        (best_seen.to_bits(), Some(best_seen.to_bits())),
        "returned weights must be the best epoch's ({best_seen})"
    );

    // Patience 0 runs every epoch.
    let all_epochs = TrainingConfig {
        epochs: 5,
        early_stopping_patience: 0,
        ..patient
    };
    let all = train_on(samples, all_epochs);
    assert_eq!(all.training_curve.len(), 5);
    assert!(!all.stopped_early);

    // `validation_fraction` is public and deserializable: more than
    // everything is everything, not a panic (on 10 samples the old split
    // arithmetic underflowed).
    let everything = TrainingConfig {
        epochs: 2,
        validation_fraction: 1.5,
        ..patient
    };
    let starved = train_on(&samples[..10], everything);
    assert!(starved
        .training_curve
        .iter()
        .all(|q| M::monitored(q).is_nan()));
    assert_eq!(starved.validation_curve.len(), 2);
    assert!(starved.final_validation_qerror.is_some());
}

#[test]
fn the_loop_keeps_its_contract_for_the_cost_model() {
    let db = Database::generate(presets::imdb_like(0.02), 23);
    loop_contract::<ZeroShotCostModel>(ModelConfig::tiny(), &corpus(&db, 40, 29));
}

#[test]
fn the_loop_keeps_its_contract_for_the_multitask_model() {
    let db = Database::generate(presets::imdb_like(0.02), 23);
    let workload = WorkloadGenerator::with_defaults().generate(db.catalog(), 40, 29);
    let executions = QueryRunner::with_defaults(&db).run_workload(&workload, 0);
    let samples = samples_from_executions(&executions, |_| db.catalog(), FeaturizerConfig::exact());
    loop_contract::<MultiTaskModel>(MultiTaskConfig::tiny(), &samples);
}
