//! # zsdb-core — Zero-Shot Cost Estimation for Databases
//!
//! Implementation of the central idea of *"One Model to Rule them All:
//! Towards Zero-Shot Learning for Databases"* (Hilprecht & Binnig, CIDR
//! 2022): a cost model trained on query executions collected from **many
//! different databases** that predicts query runtimes on an **unseen**
//! database out of the box.
//!
//! The three ingredients, mirroring the paper:
//!
//! 1. **Transferable query representation** ([`features`]) — an executed
//!    physical plan is encoded as a DAG whose nodes are plan operators,
//!    tables, columns, predicates and aggregations, each annotated with
//!    database-independent features (data types, tuple/page counts,
//!    cardinalities, operator kinds) instead of one-hot table/column ids.
//! 2. **DAG message-passing model** ([`model`]) — per-node-type encoder
//!    MLPs produce hidden states which are combined bottom-up (children
//!    summed DeepSets-style, combined with the parent through an MLP); the
//!    root hidden state is decoded into a runtime prediction.
//! 3. **Multi-database training** ([`dataset`], [`train`]) — training data
//!    is collected by running generated workloads on a corpus of generated
//!    databases; the trained model is then evaluated ([`eval`]) on
//!    databases it has never seen, optionally fine-tuned with a handful of
//!    queries ([`train::few_shot_finetune`]) or asked *what-if* questions
//!    about hypothetical indexes ([`whatif`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod batch;
pub mod dataset;
pub mod eval;
pub mod features;
pub mod fingerprint;
pub mod model;
pub mod train;
pub mod whatif;

pub use arena::GraphArena;
pub use batch::{
    BatchBackprop, BatchSchedule, EncodeScratch, EncoderTrace, NodeStates, TrainScratch,
};
pub use dataset::{collect_for_database, collect_training_corpus, TrainingDataConfig};
pub use eval::{
    evaluate, evaluate_graphs, evaluate_predictions, predict_runtime, EvaluationReport,
};
pub use features::{
    featurize_execution_into, featurize_plan_into, CardinalityMode, FeatureMode, FeaturizerConfig,
    NodeKind, PlanGraph,
};
pub use fingerprint::{graph_fingerprint, plan_fingerprint};
pub use model::{CatalogStates, InferenceScratch, ModelConfig, PlanEncoder, ZeroShotCostModel};
pub use train::{
    few_shot_finetune, few_shot_finetune_with, FinetuneConfig, ModelTrainer, Trainable, Trained,
    TrainedModel, Trainer, TrainingConfig,
};
pub use whatif::WhatIfCostEstimator;
