//! Dense layers and multi-layer perceptrons with manual backpropagation.
//!
//! Every MLP offers two execution modes:
//!
//! * **per-example** (`forward`, `forward_cached`, `backward`) — one
//!   vector at a time, the original training/inference path;
//! * **batched** (`forward_batch`, `forward_batch_cached`,
//!   `backward_batch`) — a whole [`Batch`] of examples per layer call.
//!   Each column goes through the very kernel call the per-example path
//!   makes, so batched *forward* outputs are bit-identical to per-example
//!   outputs; what batching buys is one schedule, one cache and one
//!   backward per group of examples instead of one per example.
//!
//! Every dot product in both modes reduces in the canonical 4-lane order
//! of [`crate::kernel`], executed by either the SIMD-shaped or the scalar
//! micro-kernels — the two are bit-identical, and the process-wide choice
//! comes from the `ZSDB_KERNEL` environment variable (see
//! [`crate::kernel::active_kernel`]).
//!
//! # Weight layout
//!
//! A layer's weights live **input-major** in memory: `w[i * out_dim + o]`,
//! for the values, the gradient and both Adam moments.  That is the
//! layout [`kernel::affine_layer`] wants — it holds a tile of outputs in
//! registers and reads each input's weights as one contiguous run — and
//! every other kernel in this file indexes the same buffer.  It is the
//! only layout in memory; nothing keeps a second copy.  Outside this file
//! it does not show: seeded construction draws in output-major order and
//! transposes, and the serde impls of the layer transpose on the way out
//! and in, so a seed yields the same model and a model the same JSON as
//! when weights were output-major.
//!
//! # One dense kernel
//!
//! [`kernel::affine_layer`] runs every dense product of a layer but one:
//!
//! * the **per-example forward** — `out[o] = b[o] + dot(w[·][o], x)`;
//! * the **batched forward** — the same call per column `e`, reading
//!   `x[·][e]` in place from the feature-major batch;
//! * the **weight gradient** of the batched backward,
//!   `w.grad[i][o] += dot(dy[o][·], x[i][·])`, with the roles rotated:
//!   `dy` transposed to example-major (`n × out_dim`, one small transpose
//!   per layer call) is the "weight" matrix, feature row `x[i][·]` the
//!   "input", gradient row `i`'s current value the "bias", and the
//!   reduction runs over examples in `dot`'s lane order — cell for cell
//!   the multiplies and adds of `grad += kernel::dot(dy row, x row)`,
//!   `out_dim` cells to a sweep instead of one.
//!
//! Under the scalar kernel the weight gradient goes through
//! `affine_layer` exactly so, seeded from a copy of the row; it is the
//! oracle.  The SIMD kernel runs the same tiles in place
//! (`kernel::accumulate_layer`: the row is its own bias, no seed copy),
//! and a batch of `n ≤ 8` examples — half of all layer calls in
//! training, where most (level, kind) groups are small — takes a
//! variant compiled for that `n`: lanes and tail hold only the products
//! that exist, and the only folds are the IEEE-exact ones (`(0 + 0) + (0
//! + 0)` is `+0`).  The `0.0 +` that starts each lane and the tail is
//! never dropped and a lane is never seeded with the old gradient: with
//! `old = -0.0` and products of `-0.0`, `old + (0.0 + -0.0)` is `+0.0`
//! where `old + -0.0` would be `-0.0`.
//!
//! The exception is the **input gradient**, `dx[i][e] = Σ_o w[i][o] ·
//! dy[o][e]`, whose sum over output units is sequential in ascending `o`
//! (that order is what the trained bits are).  Under SIMD it runs in
//! register tiles of 8 examples × 4 inputs; the `n % 8` examples left
//! over take one tile compiled for exactly their width, so no lane sums
//! what nobody reads and no padded copy of `dy` is made (one sweep over
//! the weights instead of the three a 4 + 2 + 1 split would take).  The
//! unblocked loop remains as the scalar kernel's path and the oracle.  A
//! caller that discards the input gradient — the encoder MLPs of the plan
//! encoder, whose input is the node features — asks for the parameter
//! gradients only ([`Mlp::backward_batch_params_into`]), and the first
//! layer's input gradient is not computed.
//!
//! # Training without allocation
//!
//! The batched training path keeps its buffers: [`MlpBatchCache`] holds
//! every layer's input and the output of the last forward and is filled
//! in place by [`Mlp::forward_batch_cached_into`];
//! [`BatchBackwardScratch`] holds the backward's ping-pong gradient
//! batches and the transposed `dy`.  Both can be sized up front
//! ([`Mlp::reserve_cache`], [`Mlp::reserve_backward`]), so a warm
//! training step through them allocates nothing.  A hidden layer's
//! activation derivative is read off the cached post-activation (the
//! next layer's input) instead of a second cached copy of the
//! pre-activation: every activation here keeps the sign, so `post > 0`
//! exactly when `pre > 0` and the derivative is the same number.

use crate::batch::Batch;
use crate::kernel::{self, active_kernel, KernelKind};
use crate::param::ParamBuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

/// Activation function applied after every hidden layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// x if x > 0 else 0.01 x
    LeakyRelu,
    /// identity (linear layer)
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Identity => x,
        }
    }

    fn derivative(self, pre: f64) -> f64 {
        match self {
            Activation::Relu => {
                if pre > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if pre > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// One dense layer `y = W x + b` with `W` held **input-major** in memory
/// (`w[i * out_dim + o]` — data, gradient and Adam moments alike), the
/// layout [`kernel::affine_layer`] reads as contiguous output runs.
///
/// Construction draws and the serialized form stay output-major
/// (`out_dim × in_dim`, the layout of every artifact written so far):
/// [`Linear::new`] and the serde impls transpose at the boundary.
#[derive(Debug, Clone, PartialEq)]
struct Linear {
    in_dim: usize,
    out_dim: usize,
    w: ParamBuf,
    b: ParamBuf,
}

/// Transpose a row-major `rows × cols` matrix.
fn transpose(m: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut t = Vec::with_capacity(m.len());
    transpose_into(m, rows, cols, &mut t);
    t
}

/// [`transpose`] into a reused buffer (cleared first).
fn transpose_into(m: &[f64], rows: usize, cols: usize, out: &mut Vec<f64>) {
    debug_assert_eq!(m.len(), rows * cols);
    out.clear();
    for c in 0..cols {
        out.extend((0..rows).map(|r| m[r * cols + c]));
    }
}

/// Transpose all four vectors of a `rows × cols` weight buffer.
fn transpose_param(p: &ParamBuf, rows: usize, cols: usize) -> ParamBuf {
    ParamBuf {
        data: transpose(&p.data, rows, cols),
        grad: transpose(&p.grad, rows, cols),
        m: transpose(&p.m, rows, cols),
        v: transpose(&p.v, rows, cols),
    }
}

/// The serialized form of a [`Linear`]: the same fields with `w`
/// output-major (`out_dim × in_dim`).
#[derive(Serialize, Deserialize)]
struct LinearRepr {
    in_dim: usize,
    out_dim: usize,
    w: ParamBuf,
    b: ParamBuf,
}

impl Serialize for Linear {
    fn to_value(&self) -> Value {
        LinearRepr {
            in_dim: self.in_dim,
            out_dim: self.out_dim,
            w: transpose_param(&self.w, self.in_dim, self.out_dim),
            b: self.b.clone(),
        }
        .to_value()
    }
}

impl Deserialize for Linear {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let LinearRepr {
            in_dim,
            out_dim,
            w,
            b,
        } = LinearRepr::from_value(value)?;
        // The kernels index by `in_dim`/`out_dim` without re-checking, so
        // a file whose vectors disagree with its dims is refused here.
        let has_len =
            |p: &ParamBuf, n: usize| [&p.data, &p.grad, &p.m, &p.v].iter().all(|v| v.len() == n);
        if in_dim.checked_mul(out_dim).is_none_or(|n| !has_len(&w, n)) || !has_len(&b, out_dim) {
            return Err(serde::Error::custom(format!(
                "layer parameters do not match dims {in_dim}x{out_dim}"
            )));
        }
        Ok(Linear {
            in_dim,
            out_dim,
            w: transpose_param(&w, out_dim, in_dim),
            b,
        })
    }
}

impl Linear {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // He-style initialisation keeps ReLU activations well-scaled.
        let scale = (2.0 / in_dim.max(1) as f64).sqrt();
        // Drawn output-major (the order every seeded model has been
        // drawn in), then transposed into the in-memory layout.
        let drawn: Vec<f64> = (0..in_dim * out_dim)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Linear {
            in_dim,
            out_dim,
            w: ParamBuf::new(transpose(&drawn, out_dim, in_dim)),
            b: ParamBuf::zeros(out_dim),
        }
    }

    /// Per-example forward: `out[o] = b[o] + dot(w[·][o], x)` in the
    /// canonical 4-lane reduction order of [`crate::kernel`] — the same
    /// order every batched kernel uses, which is what keeps batched and
    /// per-example outputs bit-identical.
    fn forward(&self, kind: KernelKind, x: &[f64], out: &mut Vec<f64>) {
        // One hard length check here instead of one per element inside
        // the kernel's input sweep.
        let x = &x[..self.in_dim];
        out.clear();
        out.resize(self.out_dim, 0.0);
        kernel::affine_layer(
            kind,
            &self.w.data,
            &self.b.data,
            self.in_dim,
            |i| x[i],
            |o, run| out[o..o + run.len()].copy_from_slice(run),
        );
    }

    /// Accumulate parameter gradients for this layer given the input `x`
    /// and the gradient w.r.t. the (pre-activation) output `dy`; returns
    /// the gradient w.r.t. the input.
    fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        // Hard assert: a short `dy` would otherwise silently skip gradient
        // accumulation for the tail output units in release builds.
        assert_eq!(dy.len(), self.out_dim);
        for (bg, &g) in self.b.grad.iter_mut().zip(dy) {
            *bg += g;
        }
        // `dx[i]` sums over output units sequentially in ascending `o`.
        let mut dx = vec![0.0; self.in_dim];
        for (i, dxi) in dx.iter_mut().enumerate() {
            let run = i * self.out_dim..(i + 1) * self.out_dim;
            let wgrad = &mut self.w.grad[run.clone()];
            for ((wg, &w_io), &g) in wgrad.iter_mut().zip(&self.w.data[run]).zip(dy) {
                *wg += g * x[i];
                *dxi += g * w_io;
            }
        }
        dx
    }

    /// Batched forward: `out[o][e] = b[o] + dot(w[·][o], x[·][e])`, every
    /// column through the same [`kernel::affine_layer`] call as the
    /// per-example [`Linear::forward`] (the column is read in place, no
    /// gather), so column `e` of `out` is that example's per-example
    /// forward by construction, under either kernel.
    fn forward_batch(&self, kind: KernelKind, x: &Batch, out: &mut Batch) {
        assert_eq!(
            (x.dim(), out.dim(), out.n()),
            (self.in_dim, self.out_dim, x.n()),
            "forward_batch: x / out shapes against the layer's dims and each other"
        );
        for e in 0..x.n() {
            kernel::affine_layer(
                kind,
                &self.w.data,
                &self.b.data,
                self.in_dim,
                |i| x.get(i, e),
                |o, run| {
                    for (j, &v) in run.iter().enumerate() {
                        out.set(o + j, e, v);
                    }
                },
            );
        }
    }

    /// Batched backward: accumulate parameter gradients over the whole
    /// batch (each cell reduced over examples in the canonical 4-lane
    /// order of [`kernel::sum`] / [`kernel::dot`] — deterministic for any
    /// batch) and, when `dx` is given, write the input gradients to it.
    /// `dy_t` is the buffer for `dy` transposed, `seed` the scalar path's
    /// copy of one gradient row.
    fn backward_batch(
        &mut self,
        kind: KernelKind,
        x: &Batch,
        dy: &Batch,
        dx: Option<&mut Batch>,
        (dy_t, seed): (&mut Vec<f64>, &mut Vec<f64>),
    ) {
        // Hard assert, as in `Linear::backward`: in release a `dy` wider
        // than `x` would otherwise be truncated into a wrong gradient.
        let dx_shape = dx
            .as_ref()
            .map_or((self.in_dim, x.n()), |dx| (dx.dim(), dx.n()));
        assert_eq!(
            (x.dim(), dy.dim(), dx_shape.0, dy.n(), dx_shape.1),
            (self.in_dim, self.out_dim, self.in_dim, x.n(), x.n()),
            "backward_batch: x / dy / dx shapes against the layer's dims and each other"
        );
        let (n, out_dim) = (x.n(), self.out_dim);
        for (o, bg) in self.b.grad.iter_mut().enumerate() {
            *bg += kernel::sum(kind, dy.feature_row(o));
        }

        // Weight gradient, `w.grad[i][o] += dot(dy[o][·], x[i][·])`: the
        // layer kernel with the roles rotated.  `dy` transposed to
        // example-major is an input-major "weight" matrix over `n`
        // "inputs", feature row `x[i][·]` is the "example", and the
        // gradient row's current value is the "bias" — so row `i` comes
        // out as `grad + dot` per cell, the reduction over examples in
        // `dot`'s own lane order, `out_dim` cells to a sweep.
        //
        // Input gradients (`dx[i][e] = Σ_o w[i][o] · dy[o][e]`, summed
        // sequentially in ascending `o` under either kernel — the sum
        // runs over *output units*, not lanes, so it keeps the
        // pre-existing sequential order).
        transpose_into(dy.data(), out_dim, n, dy_t);
        match kind {
            KernelKind::Simd => {
                match n {
                    1 => self.weight_grad_rows::<1>(x, dy_t),
                    2 => self.weight_grad_rows::<2>(x, dy_t),
                    3 => self.weight_grad_rows::<3>(x, dy_t),
                    4 => self.weight_grad_rows::<4>(x, dy_t),
                    5 => self.weight_grad_rows::<5>(x, dy_t),
                    6 => self.weight_grad_rows::<6>(x, dy_t),
                    7 => self.weight_grad_rows::<7>(x, dy_t),
                    8 => self.weight_grad_rows::<8>(x, dy_t),
                    _ => self.weight_grad_rows::<0>(x, dy_t),
                }
                if let Some(dx) = dx {
                    self.input_grad_simd(dy, dx);
                }
            }
            KernelKind::Scalar => {
                seed.resize(out_dim, 0.0);
                for i in 0..self.in_dim {
                    let grad_row = &mut self.w.grad[i * out_dim..(i + 1) * out_dim];
                    seed.copy_from_slice(grad_row);
                    let x_row = x.feature_row(i);
                    kernel::affine_layer(
                        kind,
                        dy_t,
                        seed,
                        n,
                        |e| x_row[e],
                        |o, run| grad_row[o..o + run.len()].copy_from_slice(run),
                    );
                }
                if let Some(dx) = dx {
                    self.input_grad_unblocked(dy, dx);
                }
            }
        }
    }

    /// The SIMD weight gradient, every row in place through
    /// [`kernel::accumulate_layer`]; `N` is the batch width when it is
    /// `1..=8` and `0` otherwise (see the module docs).
    fn weight_grad_rows<const N: usize>(&mut self, x: &Batch, dy_t: &[f64]) {
        let out_dim = self.out_dim;
        for i in 0..self.in_dim {
            let grad_row = &mut self.w.grad[i * out_dim..(i + 1) * out_dim];
            kernel::accumulate_layer::<N>(dy_t, x.feature_row(i), grad_row);
        }
    }

    /// SIMD-shaped input gradients: tiles of [`TILE_E`] examples, then
    /// the `n % TILE_E` examples left over in one tile of exactly their
    /// width — no lane computes a sum nobody reads, and no padded copy of
    /// `dy` is made.
    fn input_grad_simd(&self, dy: &Batch, dx: &mut Batch) {
        let n = dx.n();
        let whole = n - n % TILE_E;
        for e in (0..whole).step_by(TILE_E) {
            self.input_grad_tile::<TILE_E>(dy, dx, e);
        }
        match n - whole {
            0 => {}
            1 => self.input_grad_tile::<1>(dy, dx, whole),
            2 => self.input_grad_tile::<2>(dy, dx, whole),
            3 => self.input_grad_tile::<3>(dy, dx, whole),
            4 => self.input_grad_tile::<4>(dy, dx, whole),
            5 => self.input_grad_tile::<5>(dy, dx, whole),
            6 => self.input_grad_tile::<6>(dy, dx, whole),
            _ => self.input_grad_tile::<7>(dy, dx, whole),
        }
    }

    /// Examples `e..e + W` of the input gradient: register tiles of
    /// [`TILE_I`] input features × `W` examples, streaming each `dy` row
    /// segment once per register tile, then the `in_dim % TILE_I` inputs
    /// left over one at a time.
    fn input_grad_tile<const W: usize>(&self, dy: &Batch, dx: &mut Batch, e: usize) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let dy_tile =
            |o: usize| -> &[f64; W] { dy.feature_row(o)[e..e + W].try_into().expect("tile") };
        let mut i = 0;
        while i + TILE_I <= in_dim {
            let mut acc = [[0.0f64; W]; TILE_I];
            for o in 0..out_dim {
                let gv = dy_tile(o);
                for (ib, row) in acc.iter_mut().enumerate() {
                    let w_io = self.w.data[(i + ib) * out_dim + o];
                    for (a, &ge) in row.iter_mut().zip(gv) {
                        *a += w_io * ge;
                    }
                }
            }
            for (ib, row) in acc.iter().enumerate() {
                dx.feature_row_mut(i + ib)[e..e + W].copy_from_slice(row);
            }
            i += TILE_I;
        }
        while i < in_dim {
            let mut acc = [0.0f64; W];
            for o in 0..out_dim {
                let w_io = self.w.data[i * out_dim + o];
                for (a, &ge) in acc.iter_mut().zip(dy_tile(o)) {
                    *a += w_io * ge;
                }
            }
            dx.feature_row_mut(i)[e..e + W].copy_from_slice(&acc);
            i += 1;
        }
    }

    /// Unblocked input gradients — the scalar kernel's path and the
    /// oracle the tiles are tested against (same sequential-over-`o`
    /// order).
    fn input_grad_unblocked(&self, dy: &Batch, dx: &mut Batch) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        for e in 0..dx.n() {
            for i in 0..in_dim {
                let mut acc = 0.0;
                for o in 0..out_dim {
                    acc += self.w.data[i * out_dim + o] * dy.feature_row(o)[e];
                }
                dx.feature_row_mut(i)[e] = acc;
            }
        }
    }
}

/// Examples per register tile of the input-gradient kernel (one AVX-512
/// f64 vector, two AVX2 vectors).
const TILE_E: usize = 8;

/// Input features per register tile of the input-gradient kernel:
/// `TILE_I × TILE_E` accumulators stay in registers, so every streamed
/// `dy` row is loaded once per `TILE_I` features instead of once per
/// feature.
const TILE_I: usize = 4;

/// Reusable ping-pong buffers for allocation-free inference through an
/// [`Mlp`] (see [`Mlp::forward_into`]).
///
/// A scratch instance may be reused across calls and across different
/// `Mlp`s; buffers grow to the widest layer encountered and are never
/// shrunk, so a long-lived scratch makes repeated inference allocation-free
/// — the optimisation that matters on the serving hot path, where the same
/// worker thread pushes thousands of plans through the same model.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    a: Vec<f64>,
    b: Vec<f64>,
}

/// Reusable ping-pong [`Batch`] buffers for allocation-free *batched*
/// inference (see [`Mlp::forward_batch_into`]).  Like [`ForwardScratch`],
/// a long-lived instance grows to the high-water mark of
/// `widest layer × largest batch` and is never shrunk, so warm calls
/// perform zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct BatchForwardScratch {
    a: Batch,
    b: Batch,
}

/// Forward-pass cache needed for backpropagation through an [`Mlp`].
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// Input and all post-activation vectors, layer by layer
    /// (`activations[0]` is the input).
    activations: Vec<Vec<f64>>,
    /// Pre-activation vectors per layer.
    pre_activations: Vec<Vec<f64>>,
}

/// Batched forward-pass cache needed by [`Mlp::backward_batch`]: every
/// layer's input and the last layer's output.  Reusable: a long-lived
/// cache filled by [`Mlp::forward_batch_cached_into`] keeps its buffers.
#[derive(Debug, Clone, Default)]
pub struct MlpBatchCache {
    /// Input of every layer: `inputs[0]` is the MLP's input, `inputs[l]`
    /// the post-activation output of layer `l - 1`.
    inputs: Vec<Batch>,
    /// Output of the last layer.
    output: Batch,
}

impl MlpBatchCache {
    /// The input batch of the next [`Mlp::forward_batch_cached_into`],
    /// for the caller to fill (resize, then write).
    pub fn input_mut(&mut self) -> &mut Batch {
        if self.inputs.is_empty() {
            self.inputs.push(Batch::default());
        }
        &mut self.inputs[0]
    }
}

/// Reusable buffers of the batched backward ([`Mlp::backward_batch_into`],
/// [`Mlp::backward_batch_params_into`]): the layers' input gradients,
/// ping-ponged, `dy` transposed for the weight gradient, and the scalar
/// kernel's copy of one weight-gradient row.
#[derive(Debug, Clone, Default)]
pub struct BatchBackwardScratch {
    a: Batch,
    b: Batch,
    dy_t: Vec<f64>,
    seed: Vec<f64>,
}

/// A multi-layer perceptron: `dims[0] → dims[1] → … → dims[last]`, with the
/// configured activation after every layer except the last (which is
/// linear).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Create an MLP with the given layer sizes; weights are initialised
    /// deterministically from `seed`.
    pub fn new(dims: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.in_dim).unwrap_or(0)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_dim).unwrap_or(0)
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Forward pass without keeping a cache (inference).
    ///
    /// Convenience wrapper around [`Mlp::forward_into`] that allocates a
    /// fresh scratch per call; hot paths should hold a [`ForwardScratch`]
    /// and call `forward_into` directly.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut scratch = ForwardScratch::default();
        self.forward_into(active_kernel(), x, &mut scratch).to_vec()
    }

    /// Allocation-free forward pass under kernel `kind` (callers pass
    /// [`active_kernel`]): ping-pongs between the two scratch buffers
    /// instead of allocating per layer, and returns a slice into the
    /// scratch holding the output activations.
    ///
    /// Produces bit-identical results to [`Mlp::forward`] and to the
    /// output of [`Mlp::forward_cached`] (same operations in the same
    /// order), under either kernel (the `simd ≡ scalar` contract).
    pub fn forward_into<'s>(
        &self,
        kind: KernelKind,
        x: &[f64],
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        let num_layers = self.layers.len();
        if num_layers == 0 {
            scratch.a.clear();
            scratch.a.extend_from_slice(x);
            return &scratch.a;
        }
        // Layer 0 reads the caller's input; subsequent layers alternate
        // between the two scratch buffers.
        self.layers[0].forward(kind, x, &mut scratch.a);
        if num_layers > 1 {
            for v in scratch.a.iter_mut() {
                *v = self.activation.apply(*v);
            }
        }
        let mut in_a = true;
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            let (src, dst) = if in_a {
                (&scratch.a, &mut scratch.b)
            } else {
                (&scratch.b, &mut scratch.a)
            };
            layer.forward(kind, src, dst);
            if i + 1 < num_layers {
                for v in dst.iter_mut() {
                    *v = self.activation.apply(*v);
                }
            }
            in_a = !in_a;
        }
        if in_a {
            &scratch.a
        } else {
            &scratch.b
        }
    }

    /// Forward pass that records the cache needed by [`Mlp::backward`].
    pub fn forward_cached(&self, x: &[f64]) -> (Vec<f64>, MlpCache) {
        let mut cache = MlpCache {
            activations: vec![x.to_vec()],
            pre_activations: Vec::with_capacity(self.layers.len()),
        };
        let mut current = x.to_vec();
        let mut buffer = Vec::new();
        let kind = active_kernel();
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(kind, &current, &mut buffer);
            cache.pre_activations.push(buffer.clone());
            let is_last = i + 1 == self.layers.len();
            current = if is_last {
                buffer.clone()
            } else {
                buffer.iter().map(|&v| self.activation.apply(v)).collect()
            };
            cache.activations.push(current.clone());
        }
        (current, cache)
    }

    /// Backpropagate `d_out` (gradient w.r.t. the MLP output) through the
    /// network, accumulating parameter gradients, and return the gradient
    /// w.r.t. the input.
    pub fn backward(&mut self, cache: &MlpCache, d_out: &[f64]) -> Vec<f64> {
        let mut grad = d_out.to_vec();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let is_last = i + 1 == cache.pre_activations.len();
            if !is_last {
                let pre = &cache.pre_activations[i];
                for (g, p) in grad.iter_mut().zip(pre) {
                    *g *= self.activation.derivative(*p);
                }
            }
            let input = &cache.activations[i];
            grad = layer.backward(input, &grad);
        }
        grad
    }

    /// Batched inference: push a whole [`Batch`] through the network.
    ///
    /// Column `e` of the result is **bit-identical** to
    /// `self.forward(x.example(e))` — the batched layer loops perform the
    /// same floating-point operations in the same order per example (see
    /// [`Batch`] for the layout argument).
    ///
    /// Convenience wrapper around [`Mlp::forward_batch_into`] with a fresh
    /// scratch, like [`Mlp::forward`].
    pub fn forward_batch(&self, x: &Batch) -> Batch {
        let mut scratch = BatchForwardScratch::default();
        self.forward_batch_into(active_kernel(), x, &mut scratch)
            .clone()
    }

    /// Allocation-free batched inference: like [`Mlp::forward_batch`] but
    /// ping-pongs between two reusable scratch batches, under kernel
    /// `kind`.
    /// Returns a reference into the scratch holding the output batch.
    /// Bit-identical to [`Mlp::forward_batch`] (identical layer kernels;
    /// buffer identity never affects the arithmetic).
    pub fn forward_batch_into<'s>(
        &self,
        kind: KernelKind,
        x: &Batch,
        scratch: &'s mut BatchForwardScratch,
    ) -> &'s Batch {
        let n = x.n();
        let num_layers = self.layers.len();
        if num_layers == 0 {
            scratch.a.resize(x.dim(), n);
            scratch.a.data_mut().copy_from_slice(x.data());
            return &scratch.a;
        }
        scratch.a.resize(self.layers[0].out_dim, n);
        self.layers[0].forward_batch(kind, x, &mut scratch.a);
        if num_layers > 1 {
            for v in scratch.a.data_mut() {
                *v = self.activation.apply(*v);
            }
        }
        let mut in_a = true;
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            let (src, dst) = if in_a {
                (&scratch.a, &mut scratch.b)
            } else {
                (&scratch.b, &mut scratch.a)
            };
            dst.resize(layer.out_dim, n);
            layer.forward_batch(kind, src, dst);
            if i + 1 < num_layers {
                for v in dst.data_mut() {
                    *v = self.activation.apply(*v);
                }
            }
            in_a = !in_a;
        }
        if in_a {
            &scratch.a
        } else {
            &scratch.b
        }
    }

    /// Batched forward pass recording the cache needed by
    /// [`Mlp::backward_batch`].  Takes the input by value (callers build
    /// mini-batch inputs fresh per call) — it becomes part of the cache
    /// without a copy.  Outputs are bit-identical to
    /// [`Mlp::forward_batch`] (and therefore to per-example forwards).
    pub fn forward_batch_cached(&self, x: Batch) -> (Batch, MlpBatchCache) {
        let mut cache = MlpBatchCache {
            inputs: vec![x],
            output: Batch::default(),
        };
        self.forward_batch_cached_into(active_kernel(), &mut cache);
        (std::mem::take(&mut cache.output), cache)
    }

    /// Batched forward pass through a reusable cache: reads the input the
    /// caller wrote into [`MlpBatchCache::input_mut`], records every
    /// layer's input in place and returns the output (kept in the cache).
    /// Bit-identical to [`Mlp::forward_batch_cached`]; with a cache sized
    /// by [`Mlp::reserve_cache`] it performs no heap allocation.
    pub fn forward_batch_cached_into<'c>(
        &self,
        kind: KernelKind,
        cache: &'c mut MlpBatchCache,
    ) -> &'c Batch {
        let n = cache.input_mut().n();
        let num_layers = self.layers.len();
        if num_layers == 0 {
            cache.output.clone_from(&cache.inputs[0]);
            return &cache.output;
        }
        cache.inputs.resize_with(num_layers, Batch::default);
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = cache.inputs.split_at_mut(l + 1);
            let hidden = l + 1 < num_layers;
            let out = if hidden {
                &mut rest[0]
            } else {
                &mut cache.output
            };
            out.resize(layer.out_dim, n);
            layer.forward_batch(kind, &done[l], out);
            if hidden {
                for v in out.data_mut() {
                    *v = self.activation.apply(*v);
                }
            }
        }
        &cache.output
    }

    /// Size `cache` for batches of up to `n` examples through this MLP,
    /// so no later [`Mlp::forward_batch_cached_into`] of at most `n`
    /// examples grows a buffer.
    pub fn reserve_cache(&self, cache: &mut MlpBatchCache, n: usize) {
        cache
            .inputs
            .resize_with(self.layers.len().max(1), Batch::default);
        for (input, layer) in cache.inputs.iter_mut().zip(&self.layers) {
            input.reserve(layer.in_dim, n);
        }
        cache.output.reserve(self.output_dim(), n);
    }

    /// Size `scratch` for backward passes of up to `n` examples through
    /// this MLP (only ever grows, so one scratch can be sized for several
    /// MLPs in turn).
    pub fn reserve_backward(&self, scratch: &mut BatchBackwardScratch, n: usize) {
        let widest = self.layers.iter().map(|l| l.in_dim).max().unwrap_or(0);
        let widest_out = self.layers.iter().map(|l| l.out_dim).max().unwrap_or(0);
        scratch.a.reserve(widest, n);
        scratch.b.reserve(widest, n);
        let dy_t = widest_out * n;
        scratch
            .dy_t
            .reserve(dy_t.saturating_sub(scratch.dy_t.len()));
        scratch
            .seed
            .reserve(widest_out.saturating_sub(scratch.seed.len()));
    }

    /// Batched backpropagation: push `d_out` (gradient w.r.t. the batched
    /// output) back through the network, accumulating parameter gradients
    /// with a fixed lane-split reduction order, and return the gradient
    /// w.r.t. the input batch.
    pub fn backward_batch(&mut self, cache: &MlpBatchCache, d_out: &Batch) -> Batch {
        let mut scratch = BatchBackwardScratch::default();
        let in_a = self.backward_layers(active_kernel(), cache, d_out, &mut scratch, true);
        std::mem::take(if in_a { &mut scratch.a } else { &mut scratch.b })
    }

    /// [`Mlp::backward_batch`] through reusable buffers: the input
    /// gradient is returned from `scratch`.  Bit-identical to
    /// [`Mlp::backward_batch`]; with a scratch sized by
    /// [`Mlp::reserve_backward`] it performs no heap allocation.
    pub fn backward_batch_into<'s>(
        &mut self,
        kind: KernelKind,
        cache: &MlpBatchCache,
        d_out: &Batch,
        scratch: &'s mut BatchBackwardScratch,
    ) -> &'s Batch {
        if self.backward_layers(kind, cache, d_out, scratch, true) {
            &scratch.a
        } else {
            &scratch.b
        }
    }

    /// [`Mlp::backward_batch_into`] for a caller that discards the input
    /// gradient: the parameter gradients, bit for bit, without computing
    /// the first layer's input gradient.
    pub fn backward_batch_params_into(
        &mut self,
        kind: KernelKind,
        cache: &MlpBatchCache,
        d_out: &Batch,
        scratch: &mut BatchBackwardScratch,
    ) {
        self.backward_layers(kind, cache, d_out, scratch, false);
    }

    /// The batched backward over every layer, last to first: layer `l`'s
    /// input gradient lands in `scratch.a` or `scratch.b` (alternating,
    /// starting with `a` for the last layer) and, scaled by the
    /// activation derivative, is the next layer's `dy`.  Returns whether
    /// the final input gradient is in `a`.
    fn backward_layers(
        &mut self,
        kind: KernelKind,
        cache: &MlpBatchCache,
        d_out: &Batch,
        scratch: &mut BatchBackwardScratch,
        input_grad: bool,
    ) -> bool {
        let BatchBackwardScratch { a, b, dy_t, seed } = scratch;
        if self.layers.is_empty() {
            a.resize(d_out.dim(), d_out.n());
            a.data_mut().copy_from_slice(d_out.data());
            return true;
        }
        assert_eq!(
            cache.inputs.len(),
            self.layers.len(),
            "backward_batch: the cache was not recorded by this MLP"
        );
        let activation = self.activation;
        // `None`: the current `dy` is `d_out`; `Some(in_a)`: it is the
        // input gradient the layer above left in `a` or `b`.
        let mut dy_in_a = None;
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let (dy, dx) = match dy_in_a {
                None => (d_out, &mut *a),
                Some(true) => (&*a, &mut *b),
                Some(false) => (&*b, &mut *a),
            };
            let x = &cache.inputs[l];
            if l == 0 && !input_grad {
                layer.backward_batch(kind, x, dy, None, (dy_t, seed));
                break;
            }
            dx.resize(layer.in_dim, x.n());
            layer.backward_batch(kind, x, dy, Some(&mut *dx), (dy_t, seed));
            if l > 0 {
                // `x` is layer `l - 1`'s post-activation output: same sign
                // as its pre-activation, so the same derivative.
                for (g, &y) in dx.data_mut().iter_mut().zip(x.data()) {
                    *g *= activation.derivative(y);
                }
            }
            dy_in_a = Some(!dy_in_a.unwrap_or(false));
        }
        dy_in_a.unwrap_or(true)
    }

    /// Read-only access to every parameter buffer, in the same order as
    /// [`Mlp::params_mut`] (weights then bias, layer by layer) — the fixed
    /// order used for flat gradient export/reduction.  A weight buffer is
    /// in its in-memory order, input-major (`w[i * out_dim + o]`).
    pub fn params(&self) -> impl Iterator<Item = &ParamBuf> + '_ {
        self.layers.iter().flat_map(|l| [&l.w, &l.b])
    }

    /// Mutable access to every parameter buffer (for the optimizer).
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut ParamBuf> + '_ {
        self.layers.iter_mut().flat_map(|l| [&mut l.w, &mut l.b])
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parameter buffer `k` in [`Mlp::params_mut`] order.
    fn param(mlp: &mut Mlp, k: usize) -> &mut ParamBuf {
        mlp.params_mut().nth(k).expect("parameter buffer")
    }

    /// Numerical gradient check: compare analytic input/parameter gradients
    /// against central finite differences on a scalar loss.
    #[test]
    fn gradient_check_against_finite_differences() {
        let mut mlp = Mlp::new(&[4, 8, 1], Activation::LeakyRelu, 3);
        let x = vec![0.3, -0.7, 1.2, 0.05];
        let target = 0.8;

        // Analytic gradients.
        mlp.zero_grad();
        let (out, cache) = mlp.forward_cached(&x);
        let d_out = vec![2.0 * (out[0] - target)];
        mlp.backward(&cache, &d_out);
        let analytic: Vec<f64> = mlp.params().flat_map(|p| p.grad.clone()).collect();

        // Finite differences.
        let eps = 1e-6;
        let mut numeric = Vec::with_capacity(analytic.len());
        let num_params: Vec<usize> = mlp.params().map(|p| p.len()).collect();
        for (pi, &len) in num_params.iter().enumerate() {
            for j in 0..len {
                let orig = param(&mut mlp, pi).data[j];
                param(&mut mlp, pi).data[j] = orig + eps;
                let up = (mlp.forward(&x)[0] - target).powi(2);
                param(&mut mlp, pi).data[j] = orig - eps;
                let down = (mlp.forward(&x)[0] - target).powi(2);
                param(&mut mlp, pi).data[j] = orig;
                numeric.push((up - down) / (2.0 * eps));
            }
        }
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!(
                (a - n).abs() < 1e-5 * (1.0 + a.abs().max(n.abs())),
                "analytic {a} vs numeric {n}"
            );
        }
    }

    /// The input gradient returned by [`Mlp::backward`] must also match
    /// central finite differences (it is what upstream graph models chain
    /// through).
    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut mlp = Mlp::new(&[3, 6, 6, 1], Activation::LeakyRelu, 11);
        let x = vec![0.9, -0.4, 0.2];
        let target = -0.3;

        mlp.zero_grad();
        let (out, cache) = mlp.forward_cached(&x);
        let d_out = vec![2.0 * (out[0] - target)];
        let analytic = mlp.backward(&cache, &d_out);
        assert_eq!(analytic.len(), x.len());

        let eps = 1e-6;
        for i in 0..x.len() {
            let mut up_x = x.clone();
            up_x[i] += eps;
            let mut down_x = x.clone();
            down_x[i] -= eps;
            let up = (mlp.forward(&up_x)[0] - target).powi(2);
            let down = (mlp.forward(&down_x)[0] - target).powi(2);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "input grad {i}: analytic {} vs numeric {numeric}",
                analytic[i]
            );
        }
    }

    /// Gradient check per activation: every supported activation must
    /// backpropagate consistently with its forward definition.
    #[test]
    fn gradient_check_covers_all_activations() {
        for activation in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Identity,
        ] {
            let mut mlp = Mlp::new(&[2, 4, 1], activation, 23);
            // Offset inputs away from ReLU kinks so finite differences are
            // well-defined.
            let x = vec![0.37, -0.61];
            mlp.zero_grad();
            let (out, cache) = mlp.forward_cached(&x);
            mlp.backward(&cache, &[1.0]);
            let analytic: Vec<f64> = mlp.params().flat_map(|p| p.grad.clone()).collect();

            let eps = 1e-6;
            let num_params: Vec<usize> = mlp.params().map(|p| p.len()).collect();
            let mut k = 0;
            for (pi, &len) in num_params.iter().enumerate() {
                for j in 0..len {
                    let orig = param(&mut mlp, pi).data[j];
                    param(&mut mlp, pi).data[j] = orig + eps;
                    let up = mlp.forward(&x)[0];
                    param(&mut mlp, pi).data[j] = orig - eps;
                    let down = mlp.forward(&x)[0];
                    param(&mut mlp, pi).data[j] = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    assert!(
                        (analytic[k] - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                        "{activation:?} param {k}: analytic {} vs numeric {numeric}",
                        analytic[k]
                    );
                    k += 1;
                }
            }
            let _ = out;
        }
    }

    #[test]
    fn forward_into_matches_forward_bit_for_bit() {
        let mlp = Mlp::new(&[5, 9, 7, 2], Activation::LeakyRelu, 17);
        let mut scratch = ForwardScratch::default();
        for trial in 0..10 {
            let x: Vec<f64> = (0..5).map(|i| (i as f64 - trial as f64) * 0.37).collect();
            let allocating = mlp.forward(&x);
            let (cached_out, _) = mlp.forward_cached(&x);
            let scratch_out = mlp.forward_into(active_kernel(), &x, &mut scratch);
            assert_eq!(scratch_out.len(), allocating.len());
            for ((a, b), c) in allocating.iter().zip(scratch_out).zip(&cached_out) {
                assert_eq!(a.to_bits(), b.to_bits());
                assert_eq!(a.to_bits(), c.to_bits());
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_models_of_different_shapes() {
        let narrow = Mlp::new(&[2, 3, 1], Activation::Relu, 1);
        let wide = Mlp::new(&[4, 32, 32, 2], Activation::Relu, 2);
        let mut scratch = ForwardScratch::default();
        let narrow_expected = narrow.forward(&[0.5, -0.5]);
        let wide_expected = wide.forward(&[1.0, 2.0, 3.0, 4.0]);
        for _ in 0..3 {
            assert_eq!(
                narrow.forward_into(active_kernel(), &[0.5, -0.5], &mut scratch),
                &narrow_expected[..]
            );
            assert_eq!(
                wide.forward_into(active_kernel(), &[1.0, 2.0, 3.0, 4.0], &mut scratch),
                &wide_expected[..]
            );
        }
    }

    #[test]
    fn single_layer_mlp_forward_into() {
        // One linear layer: no activation is applied (the last layer is
        // linear by convention), and only one scratch buffer is used.
        let mlp = Mlp::new(&[3, 2], Activation::LeakyRelu, 4);
        let mut scratch = ForwardScratch::default();
        let x = [0.1, -0.2, 0.3];
        assert_eq!(
            mlp.forward_into(active_kernel(), &x, &mut scratch),
            &mlp.forward(&x)[..]
        );
    }

    #[test]
    fn forward_is_deterministic_per_seed() {
        let a = Mlp::new(&[3, 5, 2], Activation::Relu, 7);
        let b = Mlp::new(&[3, 5, 2], Activation::Relu, 7);
        let c = Mlp::new(&[3, 5, 2], Activation::Relu, 8);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.forward(&x), b.forward(&x));
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn shapes_and_parameter_counts() {
        let mlp = Mlp::new(&[6, 16, 16, 1], Activation::Relu, 1);
        assert_eq!(mlp.input_dim(), 6);
        assert_eq!(mlp.output_dim(), 1);
        assert_eq!(mlp.num_parameters(), 6 * 16 + 16 + 16 * 16 + 16 + 16 + 1);
        assert_eq!(mlp.forward(&[0.0; 6]).len(), 1);
    }

    #[test]
    fn mlp_learns_a_simple_function() {
        // Fit y = 2*x0 - x1 with Adam; should get close within a few
        // hundred steps.
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::LeakyRelu, 5);
        let mut adam = crate::optim::Adam::new(0.01);
        let data: Vec<([f64; 2], f64)> = (0..64)
            .map(|i| {
                let x0 = (i % 8) as f64 / 8.0;
                let x1 = (i / 8) as f64 / 8.0;
                ([x0, x1], 2.0 * x0 - x1)
            })
            .collect();
        for _ in 0..400 {
            mlp.zero_grad();
            for (x, y) in &data {
                let (out, cache) = mlp.forward_cached(x);
                let d = vec![2.0 * (out[0] - y) / data.len() as f64];
                mlp.backward(&cache, &d);
            }
            adam.step(mlp.params_mut());
        }
        let mse: f64 = data
            .iter()
            .map(|(x, y)| (mlp.forward(x)[0] - y).powi(2))
            .sum::<f64>()
            / data.len() as f64;
        assert!(mse < 0.01, "mse = {mse}");
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_dim_mlp_rejected() {
        Mlp::new(&[4], Activation::Relu, 0);
    }

    fn trial_examples(dim: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|e| {
                (0..dim)
                    .map(|f| ((e * dim + f) as f64 * 0.731).sin() * 1.7)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_forward_is_bit_identical_to_per_example_forward() {
        for activation in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Identity,
        ] {
            let mlp = Mlp::new(&[7, 13, 9, 2], activation, 21);
            for n in [1, 2, 5, 32] {
                let examples = trial_examples(7, n);
                let batch = Batch::from_examples(7, examples.iter().map(|v| v.as_slice()));
                let out = mlp.forward_batch(&batch);
                let (cached_out, _) = mlp.forward_batch_cached(batch.clone());
                for (e, x) in examples.iter().enumerate() {
                    let reference = mlp.forward(x);
                    for (f, r) in reference.iter().enumerate() {
                        assert_eq!(out.get(f, e).to_bits(), r.to_bits());
                        assert_eq!(cached_out.get(f, e).to_bits(), r.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn batched_backward_gradients_match_summed_per_example_gradients() {
        // The batched backward must compute the same *mathematical*
        // gradient as accumulating per-example backwards (the summation
        // order differs, so compare with a tolerance, not bits).
        let n = 6;
        let examples = trial_examples(4, n);
        let targets: Vec<f64> = (0..n).map(|e| (e as f64 * 0.37).cos()).collect();

        let mut per_example = Mlp::new(&[4, 8, 1], Activation::LeakyRelu, 3);
        per_example.zero_grad();
        for (x, t) in examples.iter().zip(&targets) {
            let (out, cache) = per_example.forward_cached(x);
            per_example.backward(&cache, &[2.0 * (out[0] - t)]);
        }
        let reference: Vec<f64> = per_example.params().flat_map(|p| p.grad.clone()).collect();

        let mut batched = Mlp::new(&[4, 8, 1], Activation::LeakyRelu, 3);
        batched.zero_grad();
        let batch = Batch::from_examples(4, examples.iter().map(|v| v.as_slice()));
        let (out, cache) = batched.forward_batch_cached(batch.clone());
        let mut d_out = Batch::zeros(1, n);
        for (e, t) in targets.iter().enumerate() {
            d_out.set(0, e, 2.0 * (out.get(0, e) - t));
        }
        let d_in = batched.backward_batch(&cache, &d_out);
        assert_eq!(d_in.dim(), 4);
        assert_eq!(d_in.n(), n);
        let got: Vec<f64> = batched.params().flat_map(|p| p.grad.clone()).collect();

        assert_eq!(reference.len(), got.len());
        for (r, g) in reference.iter().zip(&got) {
            assert!(
                (r - g).abs() < 1e-10 * (1.0 + r.abs()),
                "per-example {r} vs batched {g}"
            );
        }
    }

    #[test]
    fn batched_input_gradient_matches_per_example_input_gradient() {
        let mlp_ref = Mlp::new(&[3, 6, 2], Activation::LeakyRelu, 11);
        let mut mlp = mlp_ref.clone();
        let examples = trial_examples(3, 4);
        let batch = Batch::from_examples(3, examples.iter().map(|v| v.as_slice()));
        let (_, cache) = mlp.forward_batch_cached(batch.clone());
        let mut d_out = Batch::zeros(2, 4);
        for e in 0..4 {
            d_out.set(0, e, 1.0);
            d_out.set(1, e, -0.5);
        }
        let d_in = mlp.backward_batch(&cache, &d_out);

        for (e, x) in examples.iter().enumerate() {
            let mut single = mlp_ref.clone();
            let (_, cache) = single.forward_cached(x);
            let d = single.backward(&cache, &[1.0, -0.5]);
            for (f, dv) in d.iter().enumerate() {
                assert!(
                    (d_in.get(f, e) - dv).abs() < 1e-12 * (1.0 + dv.abs()),
                    "input grad ({f},{e})"
                );
            }
        }
    }

    #[test]
    fn batched_training_learns_the_same_simple_function() {
        // The batched fit counterpart of `mlp_learns_a_simple_function`.
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::LeakyRelu, 5);
        let mut adam = crate::optim::Adam::new(0.01);
        let data: Vec<([f64; 2], f64)> = (0..64)
            .map(|i| {
                let x0 = (i % 8) as f64 / 8.0;
                let x1 = (i / 8) as f64 / 8.0;
                ([x0, x1], 2.0 * x0 - x1)
            })
            .collect();
        let batch = Batch::from_examples(2, data.iter().map(|(x, _)| x.as_slice()));
        for _ in 0..400 {
            mlp.zero_grad();
            let (out, cache) = mlp.forward_batch_cached(batch.clone());
            let mut d_out = Batch::zeros(1, data.len());
            for (e, (_, y)) in data.iter().enumerate() {
                d_out.set(0, e, 2.0 * (out.get(0, e) - y) / data.len() as f64);
            }
            mlp.backward_batch(&cache, &d_out);
            adam.step(mlp.params_mut());
        }
        let mse: f64 = data
            .iter()
            .map(|(x, y)| (mlp.forward(x)[0] - y).powi(2))
            .sum::<f64>()
            / data.len() as f64;
        assert!(mse < 0.01, "mse = {mse}");
    }

    #[test]
    fn params_and_params_mut_agree_on_order() {
        let mut mlp = Mlp::new(&[3, 4, 1], Activation::Relu, 9);
        let ro: Vec<usize> = mlp.params().map(|p| p.len()).collect();
        let rw: Vec<usize> = mlp.params_mut().map(|p| p.len()).collect();
        assert_eq!(ro, rw);
        assert_eq!(ro, vec![12, 4, 4, 1]);
    }

    /// `simd ≡ scalar` over a spread of held-out models: every forward
    /// entry point must produce bit-identical outputs under both kernels.
    #[test]
    fn simd_and_scalar_forward_are_bit_identical() {
        for (seed, dims, activation) in [
            (21u64, vec![7, 13, 9, 2], Activation::LeakyRelu),
            (97, vec![96, 48, 48], Activation::LeakyRelu),
            (3, vec![5, 17, 1], Activation::Relu),
            (54, vec![11, 4], Activation::Identity),
        ] {
            let mlp = Mlp::new(&dims, activation, seed);
            for n in [1, 3, 8, 19] {
                let examples = trial_examples(dims[0], n);
                let batch = Batch::from_examples(dims[0], examples.iter().map(|v| v.as_slice()));
                let mut bs = BatchForwardScratch::default();
                let simd = mlp
                    .forward_batch_into(KernelKind::Simd, &batch, &mut bs)
                    .clone();
                let scalar = mlp
                    .forward_batch_into(KernelKind::Scalar, &batch, &mut bs)
                    .clone();
                let allocating = mlp.forward_batch(&batch);
                assert_eq!(allocating, simd, "forward_batch {dims:?} n={n}");
                assert_eq!(simd.data().len(), scalar.data().len());
                for (a, b) in simd.data().iter().zip(scalar.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "batched {dims:?} n={n}");
                }
                let mut s1 = ForwardScratch::default();
                let mut s2 = ForwardScratch::default();
                for x in &examples {
                    let a = mlp.forward_into(KernelKind::Simd, x, &mut s1).to_vec();
                    let b = mlp.forward_into(KernelKind::Scalar, x, &mut s2);
                    for (va, vb) in a.iter().zip(b) {
                        assert_eq!(va.to_bits(), vb.to_bits(), "per-example {dims:?}");
                    }
                }
            }
        }
    }

    /// [`Mlp::forward_batch_cached`] under kernel `kind`: the cached
    /// forward of `x` and a cache for [`backward_with`].
    fn forward_cached_with(mlp: &Mlp, kind: KernelKind, x: Batch) -> (Batch, MlpBatchCache) {
        let mut cache = MlpBatchCache::default();
        *cache.input_mut() = x;
        let out = mlp.forward_batch_cached_into(kind, &mut cache).clone();
        (out, cache)
    }

    /// [`Mlp::backward_batch`] under kernel `kind`.
    fn backward_with(
        mlp: &mut Mlp,
        kind: KernelKind,
        cache: &MlpBatchCache,
        d_out: &Batch,
    ) -> Batch {
        let mut scratch = BatchBackwardScratch::default();
        mlp.backward_batch_into(kind, cache, d_out, &mut scratch)
            .clone()
    }

    /// The batched backward must also be bit-identical across kernels:
    /// parameter gradients, input gradients, and the forward cache all
    /// reduce in the same canonical order.
    #[test]
    fn simd_and_scalar_backward_batch_are_bit_identical() {
        let n = 11; // exercises both the tiled body and the remainder
        let examples = trial_examples(7, n);
        let batch = Batch::from_examples(7, examples.iter().map(|v| v.as_slice()));
        let mut results = Vec::new();
        for kind in [KernelKind::Simd, KernelKind::Scalar] {
            let mut mlp = Mlp::new(&[7, 12, 5, 1], Activation::LeakyRelu, 33);
            mlp.zero_grad();
            let (out, cache) = forward_cached_with(&mlp, kind, batch.clone());
            let mut d_out = Batch::zeros(1, n);
            for e in 0..n {
                d_out.set(0, e, 2.0 * (out.get(0, e) - (e as f64 * 0.21).sin()));
            }
            let dx = backward_with(&mut mlp, kind, &cache, &d_out);
            let grads: Vec<u64> = mlp
                .params()
                .flat_map(|p| p.grad.iter().map(|g| g.to_bits()))
                .collect();
            let dx_bits: Vec<u64> = dx.data().iter().map(|v| v.to_bits()).collect();
            results.push((grads, dx_bits));
        }
        assert_eq!(results[0].0, results[1].0, "parameter gradient bits");
        assert_eq!(results[0].1, results[1].1, "input gradient bits");
    }

    /// One reused cache and backward scratch, across batches of different
    /// widths, give the bits of fresh allocating calls; without the input
    /// gradient the parameter gradients are the same bits.
    #[test]
    fn reused_cache_and_backward_scratch_match_fresh_calls() {
        let template = Mlp::new(&[7, 12, 5, 3], Activation::LeakyRelu, 33);
        let grads = |mlp: &Mlp| -> Vec<u64> { mlp.params().flat_map(|p| bits(&p.grad)).collect() };
        let mut cache = MlpBatchCache::default();
        let mut scratch = BatchBackwardScratch::default();
        template.reserve_cache(&mut cache, 19);
        template.reserve_backward(&mut scratch, 19);
        for n in [11, 1, 19, 4] {
            let batch = spread_batch(7, n, n as u64);
            let d_out = spread_batch(3, n, n as u64 + 1);
            let mut fresh = template.clone();
            let (out, fresh_cache) = fresh.forward_batch_cached(batch.clone());
            let dx = fresh.backward_batch(&fresh_cache, &d_out);

            let kind = active_kernel();
            let mut reused = template.clone();
            cache.input_mut().clone_from(&batch);
            let reused_out = reused.forward_batch_cached_into(kind, &mut cache);
            assert_eq!(bits(reused_out.data()), bits(out.data()), "n={n}");
            let reused_dx = reused.backward_batch_into(kind, &cache, &d_out, &mut scratch);
            assert_eq!(bits(reused_dx.data()), bits(dx.data()), "n={n}");
            assert_eq!(grads(&reused), grads(&fresh), "n={n}");

            let mut params_only = template.clone();
            params_only.backward_batch_params_into(kind, &cache, &d_out, &mut scratch);
            assert_eq!(grads(&params_only), grads(&fresh), "n={n}");
        }
    }

    /// `len` values with magnitudes spread over six decades, so a changed
    /// summation order changes the rounded result.
    fn spread(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                ((i as f64 + seed as f64 * 0.71).sin() * 1.9)
                    * 10f64.powi((i * 7 + seed as usize) as i32 % 6 - 3)
            })
            .collect()
    }

    fn spread_batch(dim: usize, n: usize, seed: u64) -> Batch {
        let mut batch = Batch::zeros(dim, n);
        batch.data_mut().copy_from_slice(&spread(dim * n, seed));
        batch
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One layer's batched kernels against their definitions, bit for bit
    /// under both kernels: from a non-zero starting gradient, every
    /// `w.grad` cell is `old + dot(dy row, x row)`, every `b.grad` cell
    /// `old + sum(dy row)`, every `dx` cell the sequential-over-`o` sum,
    /// and column `e` of `forward_batch` the per-example forward of
    /// example `e`.  A backward without `dx` leaves the same parameter
    /// gradients.
    fn assert_batched_layer_matches_definitions(
        in_dim: usize,
        out_dim: usize,
        n: usize,
        seed: u64,
    ) {
        let mut fresh = Linear::new(in_dim, out_dim, &mut StdRng::seed_from_u64(seed));
        fresh.b.data = spread(out_dim, seed + 1);
        fresh.w.grad = spread(in_dim * out_dim, seed + 2);
        fresh.b.grad = spread(out_dim, seed + 3);
        let x = spread_batch(in_dim, n, seed + 4);
        let dy = spread_batch(out_dim, n, seed + 5);
        assert_batched_backward_matches_definitions(&fresh, &x, &dy);
        for kind in [KernelKind::Simd, KernelKind::Scalar] {
            let shape = format!("{kind:?} {in_dim}x{out_dim} n={n}");
            let mut out = Batch::zeros(out_dim, n);
            out.data_mut().fill(f64::NAN);
            fresh.forward_batch(kind, &x, &mut out);
            let mut column = Vec::new();
            for e in 0..n {
                fresh.forward(KernelKind::Scalar, &x.example(e), &mut column);
                for (o, expected) in column.iter().enumerate() {
                    assert_eq!(
                        out.get(o, e).to_bits(),
                        expected.to_bits(),
                        "{shape} out ({o},{e})"
                    );
                }
            }
        }
    }

    /// The backward half of [`assert_batched_layer_matches_definitions`],
    /// for any starting layer and batches.
    fn assert_batched_backward_matches_definitions(fresh: &Linear, x: &Batch, dy: &Batch) {
        let (in_dim, out_dim, n) = (fresh.in_dim, fresh.out_dim, x.n());
        for kind in [KernelKind::Simd, KernelKind::Scalar] {
            let shape = format!("{kind:?} {in_dim}x{out_dim} n={n}");
            let mut layer = fresh.clone();
            let mut dx = Batch::zeros(in_dim, n);
            dx.data_mut().fill(f64::NAN);
            layer.backward_batch(
                kind,
                x,
                dy,
                Some(&mut dx),
                (&mut Vec::new(), &mut Vec::new()),
            );
            let mut params_only = fresh.clone();
            params_only.backward_batch(kind, x, dy, None, (&mut Vec::new(), &mut Vec::new()));
            assert_eq!(bits(&params_only.w.grad), bits(&layer.w.grad), "{shape}");
            assert_eq!(bits(&params_only.b.grad), bits(&layer.b.grad), "{shape}");
            for o in 0..out_dim {
                let dy_row = dy.feature_row(o);
                let expected = fresh.b.grad[o] + kernel::sum(KernelKind::Scalar, dy_row);
                assert_eq!(
                    layer.b.grad[o].to_bits(),
                    expected.to_bits(),
                    "{shape} b.grad {o}"
                );
                for i in 0..in_dim {
                    let cell = i * out_dim + o;
                    let expected = fresh.w.grad[cell]
                        + kernel::dot(KernelKind::Scalar, dy_row, x.feature_row(i));
                    assert_eq!(
                        layer.w.grad[cell].to_bits(),
                        expected.to_bits(),
                        "{shape} w.grad ({i},{o})"
                    );
                }
            }
            for i in 0..in_dim {
                for e in 0..n {
                    let expected = (0..out_dim).fold(0.0, |acc, o| {
                        acc + fresh.w.data[i * out_dim + o] * dy.get(o, e)
                    });
                    assert_eq!(
                        dx.get(i, e).to_bits(),
                        expected.to_bits(),
                        "{shape} dx ({i},{e})"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The ranges cover empty batches and inputs, `n` below, at and
        /// past one example tile with every remainder, `in_dim % 4 != 0`,
        /// and every output-tile combination up to two wide tiles plus
        /// remainders.
        #[test]
        fn batched_layer_kernels_equal_their_definitions(
            in_dim in 0usize..101,
            out_dim in 1usize..71,
            n in 0usize..41,
            seed in 0u64..1_000,
        ) {
            assert_batched_layer_matches_definitions(in_dim, out_dim, n, seed);
        }
    }

    /// The zero-shot model's own layer shapes (node encoders, combine,
    /// output head) at every batch width up to 17 — each width the weight
    /// gradient is compiled for, each `n % 4` and `n % 8` remainder — and
    /// at 32.
    #[test]
    fn batched_layer_kernels_equal_their_definitions_on_the_model_shapes() {
        for (in_dim, out_dim) in [
            (5, 48),
            (11, 48),
            (22, 48),
            (35, 48),
            (40, 48),
            (48, 48),
            (96, 48),
            (48, 32),
            (32, 1),
        ] {
            for n in (1..=17).chain([32]) {
                assert_batched_layer_matches_definitions(in_dim, out_dim, n, 9);
            }
        }
    }

    /// A gradient cell holding `-0.0` whose products are all `-0.0`:
    /// `old + dot` is `-0.0 + (0.0 + -0.0) = +0.0`, where a lane or tail
    /// seeded with the old value (or a dropped `0.0 +`) would leave `-0.0`.
    #[test]
    fn a_negative_zero_gradient_plus_negative_zero_products_is_positive_zero() {
        let (in_dim, out_dim) = (5, 48);
        let mut fresh = Linear::new(in_dim, out_dim, &mut StdRng::seed_from_u64(3));
        fresh.w.grad.fill(-0.0);
        fresh.b.grad.fill(-0.0);
        for n in 1..=17 {
            let x = Batch::zeros(in_dim, n);
            let mut dy = spread_batch(out_dim, n, 5);
            for v in dy.data_mut() {
                *v = -v.abs() - 1.0;
            }
            assert_batched_backward_matches_definitions(&fresh, &x, &dy);
            let mut layer = fresh.clone();
            layer.backward_batch(
                KernelKind::Simd,
                &x,
                &dy,
                None,
                (&mut Vec::new(), &mut Vec::new()),
            );
            assert!(
                layer.w.grad.iter().all(|g| g.to_bits() == 0),
                "n={n}: -0.0 + (0.0 + -0.0) must be +0.0"
            );
        }
    }

    #[test]
    #[should_panic(expected = "forward_batch: x / out shapes")]
    fn forward_batch_refuses_an_output_of_another_width() {
        let layer = Linear::new(3, 4, &mut StdRng::seed_from_u64(1));
        layer.forward_batch(
            KernelKind::Simd,
            &Batch::zeros(3, 5),
            &mut Batch::zeros(4, 6),
        );
    }

    /// In release this used to be a silently truncated (wrong) gradient.
    #[test]
    #[should_panic(expected = "backward_batch: x / dy / dx shapes")]
    fn backward_batch_refuses_a_dy_wider_than_x() {
        let mut layer = Linear::new(3, 4, &mut StdRng::seed_from_u64(1));
        layer.backward_batch(
            KernelKind::Simd,
            &Batch::zeros(3, 5),
            &Batch::zeros(4, 6),
            Some(&mut Batch::zeros(3, 5)),
            (&mut Vec::new(), &mut Vec::new()),
        );
    }

    /// Pin the canonical order itself: with a catastrophic-cancellation
    /// weight row, sequential accumulation and the lane order give
    /// different floats — the kernels must produce the lane-order result.
    #[test]
    fn forward_uses_the_canonical_lane_order() {
        let mut mlp = Mlp::new(&[6, 1], Activation::Identity, 0);
        let w = [1e16, 1.0, -1e16, 1.0, 0.5, 0.25];
        param(&mut mlp, 0).data.copy_from_slice(&w);
        param(&mut mlp, 1).data[0] = 0.125;
        let x = vec![1.0; 6];
        let expected: f64 = 0.125 + (((1e16 + 1.0) + (-1e16 + 1.0)) + (0.5 + 0.25));
        let mut scratch = ForwardScratch::default();
        for kind in [KernelKind::Simd, KernelKind::Scalar] {
            let got = mlp.forward_into(kind, &x, &mut scratch)[0];
            assert_eq!(got.to_bits(), expected.to_bits(), "{kind:?}");
        }
        let batch = Batch::from_examples(6, std::iter::once(x.as_slice()));
        let mut batch_scratch = BatchForwardScratch::default();
        for kind in [KernelKind::Simd, KernelKind::Scalar] {
            let got = mlp
                .forward_batch_into(kind, &batch, &mut batch_scratch)
                .get(0, 0);
            assert_eq!(got.to_bits(), expected.to_bits(), "batched {kind:?}");
        }
    }

    /// JSON of `Mlp::new(&[3, 4, 2], LeakyRelu, 7)`, captured on the
    /// commit before weights went input-major in memory.
    const SEEDED_MLP_JSON: &str = concat!(
        r#"{"layers":[{"in_dim":3,"out_dim":4,"w":{"data":[-0.17990726751694827,-0.7890814107640318,0.6544394509715775,0.13542460142552037,-0.07766206023707582,-0.40917661068881034,-0.05233252496205821,-0.2807495093278539,-0.5972536970511834,-0.14183950406508666,-0.6473838950712111,0.750971222358449],"#,
        r#""grad":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"m":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"v":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]},"#,
        r#""b":{"data":[0.0,0.0,0.0,0.0],"grad":[0.0,0.0,0.0,0.0],"m":[0.0,0.0,0.0,0.0],"v":[0.0,0.0,0.0,0.0]}},"#,
        r#"{"in_dim":4,"out_dim":2,"w":{"data":[0.5911689666512352,0.5251424109575606,0.514784572823333,0.06828871944762324,0.5368548396478581,-0.24556220229550907,0.16846196973075875,0.3639082372158392],"#,
        r#""grad":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"m":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"v":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]},"#,
        r#""b":{"data":[0.0,0.0],"grad":[0.0,0.0],"m":[0.0,0.0],"v":[0.0,0.0]}}],"activation":"LeakyRelu"}"#,
    );

    /// FNV-1a of the JSON of that model after one batched backward, one
    /// Adam step and a second backward (so data, grad, m and v are all
    /// non-trivial) — captured on the same commit, identical under both
    /// kernels.
    const TRAINED_MLP_JSON_FNV1A: u64 = 0x6503_40f7_c16f_b6c5;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The in-memory weight layout is invisible outside `Linear`: RNG
    /// draw order, serialized layout of all four parameter vectors, and
    /// the batched forward/backward bits are those of the output-major
    /// implementation.
    #[test]
    fn serialized_form_is_byte_identical_to_the_output_major_implementation() {
        let fresh = Mlp::new(&[3, 4, 2], Activation::LeakyRelu, 7);
        assert_eq!(serde_json::to_string(&fresh).unwrap(), SEEDED_MLP_JSON);
        assert_eq!(serde_json::from_str::<Mlp>(SEEDED_MLP_JSON).unwrap(), fresh);

        let examples = trial_examples(3, 11);
        let batch = Batch::from_examples(3, examples.iter().map(|v| v.as_slice()));
        for kind in [KernelKind::Simd, KernelKind::Scalar] {
            let mut mlp = fresh.clone();
            let mut adam = crate::optim::Adam::new(0.01);
            for round in 0..2 {
                let (out, cache) = forward_cached_with(&mlp, kind, batch.clone());
                let mut d_out = Batch::zeros(2, 11);
                for e in 0..11 {
                    d_out.set(0, e, 2.0 * (out.get(0, e) - (e as f64 * 0.21).sin()));
                    d_out.set(1, e, out.get(1, e) + 0.5);
                }
                backward_with(&mut mlp, kind, &cache, &d_out);
                if round == 0 {
                    adam.step(mlp.params_mut());
                }
            }
            let json = serde_json::to_string(&mlp).unwrap();
            assert_eq!(fnv1a(json.as_bytes()), TRAINED_MLP_JSON_FNV1A, "{kind:?}");
            assert_eq!(serde_json::from_str::<Mlp>(&json).unwrap(), mlp, "{kind:?}");
        }
    }

    #[test]
    fn parameters_that_disagree_with_the_dims_are_refused() {
        let short = SEEDED_MLP_JSON.replacen("\"in_dim\":3", "\"in_dim\":4", 1);
        let err = serde_json::from_str::<Mlp>(&short).unwrap_err();
        assert!(err.to_string().contains("do not match dims 4x4"), "{err}");
    }

    #[test]
    fn serialization_roundtrip() {
        let mlp = Mlp::new(&[3, 4, 1], Activation::Relu, 9);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        // JSON may lose the last bit of a float, so compare behaviour, not
        // bit-exact structure.
        let x = [0.5, -1.0, 2.0];
        let (a, b) = (mlp.forward(&x)[0], back.forward(&x)[0]);
        assert!((a - b).abs() < 1e-9);
        assert_eq!(back.num_parameters(), mlp.num_parameters());
    }
}
