//! # zsdb-nn
//!
//! A deliberately small neural-network library: dense layers over `f64`
//! vectors, multi-layer perceptrons with manual backpropagation, the Adam
//! optimizer and regression metrics (Q-error).
//!
//! All learned cost models in the workspace — the zero-shot model in
//! `zsdb-core` as well as the MSCN / E2E baselines — are built from these
//! pieces.  There is no autograd: models call
//! [`Mlp::forward_batch_cached_into`] / [`Mlp::backward_batch_into`]
//! explicitly, which keeps the DAG message-passing architecture of the
//! zero-shot model easy to reason about and fast enough on a CPU.
//!
//! Training runs in **batched** mode only ([`batch::Batch`]): one call
//! per layer for a whole mini-batch, through the same output-tiled kernel
//! ([`kernel::affine_layer`]) as the per-example inference forward
//! ([`Mlp::forward_into`]) and bit-identical to it per example, with a
//! fixed gradient reduction order over examples so training stays
//! deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod kernel;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod param;

pub use batch::Batch;
pub use kernel::{active_kernel, KernelKind};
pub use metrics::{median, percentile, percentile_of_sorted, q_error, QErrorSummary};
pub use mlp::{
    Activation, BatchBackwardScratch, BatchForwardScratch, ForwardScratch, Mlp, MlpBatchCache,
};
pub use optim::Adam;
pub use param::ParamBuf;
