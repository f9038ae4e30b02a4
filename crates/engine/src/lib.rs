//! # zsdb-engine
//!
//! A single-node analytical query engine over the `zsdb-storage` column
//! store: physical plans, a classical cost-based optimizer, an executor
//! that records *work counters* and true per-operator cardinalities, and a
//! runtime simulator that converts work into wall-clock-like runtimes.
//!
//! ## Why a simulator?
//!
//! The paper collects training data by running workloads on PostgreSQL and
//! measuring real runtimes.  This workspace has no Postgres testbed, so the
//! executor counts the work every operator performs (tuples scanned, pages
//! read sequentially/randomly, hash builds and probes, comparisons, bytes
//! materialised) and [`runtime::HardwareProfile`] maps that work to seconds
//! using hidden per-operation constants, memory-hierarchy effects (hash
//! tables spilling past the cache budget) and multiplicative noise.  The
//! learned models never see the profile — they must infer the mapping from
//! (plan structure, cardinalities, widths) to runtime, which is exactly the
//! learning problem of the paper.
//!
//! The main entry point is [`runner::QueryRunner`], which optimizes,
//! executes and times a logical query and returns a [`QueryExecution`] —
//! the unit of training data for all learned cost models in the workspace.
//!
//! ## Two execution strategies, one label contract
//!
//! Plans execute **batch-at-a-time** over the column store
//! ([`executor::Executor`], the production path driving corpus
//! generation) or **row-at-a-time** ([`exec_row::RowExecutor`], the
//! reference oracle).  Both produce bit-identical aggregates, true
//! cardinalities and work metrics, so training labels are independent of
//! the execution strategy that recorded them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod exec_row;
pub mod executor;
pub mod fingerprint;
pub mod observation;
pub mod observed;
pub mod optimizer;
pub mod physical;
pub mod runner;
pub mod runtime;
pub mod whatif;

pub use config::EngineConfig;
pub use cost::CostModel;
pub use exec_row::RowExecutor;
pub use executor::{ColumnBatch, ExecutedNode, Executor, QueryResult, WorkMetrics, BATCH_ROWS};
pub use fingerprint::plan_fingerprint;
pub use observation::{Observation, ObservationLog};
pub use observed::QueryExecution;
pub use optimizer::Optimizer;
pub use physical::{PhysOperator, PhysOperatorKind, PlanError, PlanNode};
pub use runner::QueryRunner;
pub use runtime::HardwareProfile;
pub use whatif::WhatIfPlanner;
