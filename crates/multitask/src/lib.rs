//! # zsdb-multitask — one shared encoder, many task heads
//!
//! The paper's title promise — *one model to rule them all* — is that a
//! single zero-shot model can serve **many** database tasks (cost
//! estimation, cardinality estimation, design tuning) across unseen
//! databases.  The rest of the workspace realises the single-head cost
//! model; this crate realises the *one model*:
//!
//! * [`MultiTaskModel`] ([`model`]) — the shared plan-graph encoder from
//!   `zsdb_core` ([`zsdb_core::PlanEncoder`], batched (level, kind)
//!   message passing) with one MLP head per task: **runtime cost** (the
//!   existing objective), **root-result cardinality** (rows entering the
//!   root aggregate) and **per-operator intermediate cardinality** (rows
//!   produced by every plan operator).
//! * [`MultiTaskSample`] ([`sample`]) — a featurized plan graph paired
//!   with the per-task labels extracted from a
//!   [`QueryExecution`](zsdb_engine::QueryExecution).
//! * [`MultiTaskTrainer`] ([`train`]) — joint training with per-task loss
//!   weights.  It is [`zsdb_core::ModelTrainer`] instantiated for
//!   [`MultiTaskModel`], i.e. the very loop the single-head trainer runs:
//!   1-thread and N-thread training produce bit-identical weights.
//! * [`LearnedCardEstimator`] ([`estimator`]) — closes the loop: the
//!   learned cardinality head implements
//!   [`zsdb_cardest::CardinalityEstimator`], so the System-R optimizer in
//!   `zsdb_engine` (and the what-if planner on top of it) plans with
//!   *learned* cardinalities instead of classical
//!   uniformity/independence estimates.
//!
//! Train with [`FeaturizerConfig::estimated`](zsdb_core::FeaturizerConfig)
//! when the model is meant to drive the optimizer: the plan features then
//! carry the classical estimates and the cardinality heads learn to
//! *correct* them — at planning time no true cardinalities exist yet.
//!
//! ```no_run
//! use zsdb_multitask::{LearnedCardEstimator, MultiTaskConfig, MultiTaskTrainer};
//! use zsdb_cardest::PostgresLikeEstimator;
//! use zsdb_core::{FeaturizerConfig, TrainingConfig};
//! use zsdb_engine::{EngineConfig, Optimizer};
//! # fn demo(samples: Vec<zsdb_multitask::MultiTaskSample>,
//! #         db: &zsdb_storage::Database,
//! #         query: &zsdb_query::Query) {
//! let trainer = MultiTaskTrainer::new(
//!     MultiTaskConfig::default(),
//!     TrainingConfig::default(),
//!     FeaturizerConfig::estimated(),
//! );
//! let trained = trainer.train(&samples);
//! let fallback = PostgresLikeEstimator::new(db.catalog().clone());
//! let learned = LearnedCardEstimator::new(&trained, fallback);
//! let plan = Optimizer::new(db, EngineConfig::default(), &learned).plan(query);
//! println!("{}", plan.explain());
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod model;
pub mod sample;
pub mod train;

pub use estimator::LearnedCardEstimator;
pub use model::{
    MultiTaskBackprop, MultiTaskConfig, MultiTaskModel, MultiTaskPrediction, TaskHead,
};
pub use sample::{
    operator_node_indices, sample_from_execution, samples_from_executions, MultiTaskSample,
    TaskTargets,
};
pub use train::{task_qerrors, MultiTaskTrainer, TaskQErrors, TrainedMultiTaskModel};
