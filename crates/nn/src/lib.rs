//! # zsdb-nn
//!
//! A deliberately small neural-network library: dense layers over `f64`
//! vectors, multi-layer perceptrons with manual backpropagation, the Adam
//! optimizer and regression metrics (Q-error).
//!
//! All learned cost models in the workspace — the zero-shot model in
//! `zsdb-core` as well as the MSCN / E2E baselines — are built from these
//! pieces.  There is no autograd: models call `forward_cached` /
//! `backward` explicitly, which keeps the DAG message-passing architecture
//! of the zero-shot model easy to reason about and fast enough on a CPU.
//!
//! Every MLP also runs in **batched** mode ([`batch::Batch`],
//! [`Mlp::forward_batch`], [`Mlp::backward_batch`]): one call per layer
//! for a whole mini-batch, through the same output-tiled kernel
//! ([`kernel::affine_layer`]) as the per-example forward and bit-identical
//! to it per example, with a fixed gradient reduction order over examples
//! so training stays deterministic.

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
pub use metrics::{median, percentile, q_error, QErrorSummary};
pub use mlp::{
    Activation, BatchBackwardScratch, BatchForwardScratch, ForwardScratch, Mlp, MlpBatchCache,
    MlpCache,
};
pub use optim::Adam;
pub use param::ParamBuf;
