//! Explicit 4-lane micro-kernels for the MLP hot loops — reductions and
//! the output-tiled dense layer — with a scalar fallback behind the same
//! dispatch.
//!
//! # The canonical reduction order
//!
//! Every dot product and sum in the workspace's numeric stack reduces in
//! one **canonical 4-lane order**: element `i` is accumulated into lane
//! `i mod 4` (each lane sweeps its elements in ascending index order),
//! the lanes are combined pairwise as `(l0 + l1) + (l2 + l3)`, and any
//! tail (`len % 4` trailing elements) is summed sequentially and added
//! last:
//!
//! ```text
//! dot(w, x) = ((l0 + l1) + (l2 + l3)) + tail
//!   lane l:   l += w[4k + l] * x[4k + l]   for k = 0, 1, …
//!   tail:     sequential over the last len % 4 elements
//! ```
//!
//! An affine output unit is `bias + dot(w, x)` — the bias joins *after*
//! the reduction, never as the lane seed.
//!
//! # The output-tiled layer kernel
//!
//! A dense layer is `out_dim` such units over one `x`.  [`affine_layer`]
//! does not run them as `out_dim` dot products — one dependent vector-add
//! chain and one horizontal reduction each — but **tiles the outputs**.
//! Layer weights are held input-major (`w[i * out_dim + o]`), so for a
//! tile of `T` outputs the weights of input `i` are one contiguous run.
//! The kernel keeps the four lane accumulators *of every output in the
//! tile* in registers and sweeps the inputs once:
//!
//! ```text
//!              outputs o .. o+T   (T = 24: three 8-wide vectors per row)
//!            ┌──────────────────────────┐
//!   lane 0   │ += w[4k  ][o..o+T] · x[4k  ]   (x broadcast)
//!   lane 1   │ += w[4k+1][o..o+T] · x[4k+1]
//!   lane 2   │ += w[4k+2][o..o+T] · x[4k+2]        for k = 0, 1, …
//!   lane 3   │ += w[4k+3][o..o+T] · x[4k+3]
//!   tail     │ += w[i   ][o..o+T] · x[i]           for the last in_dim % 4
//!            └──────────────────────────┘
//!   out[o..o+T] = bias[o..o+T] + (((lane0 + lane1) + (lane2 + lane3)) + tail)
//! ```
//!
//! Column `j` of that block is exactly `dot`'s four lanes and tail for
//! output `o + j` — the same multiplies and adds in the same order — so
//! tiling changes how many outputs share a sweep, never a bit of any of
//! them.  What it buys is `4 × T/8` independent vector chains in flight
//! instead of one, no horizontal reduction, and one load of `x[i]` per
//! tile instead of per output.  `out_dim % 24` is finished with an 8-wide
//! tile and then single outputs (the model's layers are 48 = 2 × 24,
//! 32 = 24 + 8 and 1 wide).
//!
//! # One kernel, three callers
//!
//! The example is read through a closure and finished outputs leave
//! through another, so nothing in the kernel says what the "weights", the
//! "input" and the "bias" are.  `zsdb_nn::mlp` calls it three ways:
//!
//! ```text
//!                      w (in_dim × out_dim)  x(i)           bias        reduces over
//! per-example forward  layer weights         the vector     layer bias  inputs
//! batched forward      layer weights         column e of x  layer bias  inputs
//! weight gradient      dyᵀ (n × out_dim)     row i of x     grad row i  examples
//! ```
//!
//! The third row is `w.grad[i][o] += dot(dy[o][·], x[i][·])` with the
//! roles rotated: the batch's output gradient, transposed to
//! example-major, is an input-major matrix over `n` "inputs"; one feature
//! row of the batch is the "example"; and because the bias joins after
//! the reduction, seeding it with the gradient row's current value yields
//! `grad + dot` — the additions of `grad += dot(..)`, `out_dim` cells to
//! a sweep.  No caller needs a second copy of the weights.
//!
//! Fixing the order buys two properties at once:
//!
//! * **Speed.**  Four independent accumulator chains map directly onto
//!   SIMD lanes (one AVX2 `f64x4` register) and break the sequential
//!   floating-point dependency chain, so the [`Simd`](KernelKind::Simd)
//!   kernel's array-blocked loops auto-vectorise into packed operations.
//! * **Bit-determinism.**  The reduction order is a function of the input
//!   length only — never of batch shape, tiling, or thread count — so the
//!   batched kernels, the per-example path, and both kernel
//!   implementations all produce **bit-identical** results (IEEE 754
//!   operations are individually deterministic; only reassociation could
//!   diverge, and the order is pinned).  `rustc` never contracts
//!   `a * b + c` into an FMA without explicit opt-in, so optimisation
//!   level does not break this.
//!
//! # Kernel selection
//!
//! [`active_kernel`] reads the `ZSDB_KERNEL` environment variable once
//! per process (`scalar` selects the fallback; anything else — including
//! unset — selects SIMD).  The scalar fallback performs the *same*
//! operations in the *same* order through plain scalar code (one output
//! at a time, striding down its weight column), so switching
//! kernels never changes a single output bit — the property the
//! `simd ≡ scalar` tests pin.  The fallback exists for pathological
//! targets where the blocked loops pessimise, and as the reference
//! implementation: CI reruns the integration goldens under
//! `ZSDB_KERNEL=scalar`.  The allocation-free `Mlp::*_into` entry points
//! take the kernel as an argument, so one process can run both.

use std::sync::OnceLock;

/// Number of independent accumulator lanes in the canonical reduction
/// (one AVX2 `f64x4` vector, half an AVX-512 vector).
pub const LANES: usize = 4;

/// Which micro-kernel implementation the MLP hot loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Array-blocked loops shaped for SIMD auto-vectorisation (default).
    Simd,
    /// Plain scalar loops in the identical canonical order.
    Scalar,
}

static ACTIVE: OnceLock<KernelKind> = OnceLock::new();

/// The process-wide kernel, chosen once from the `ZSDB_KERNEL`
/// environment variable (`scalar` → [`KernelKind::Scalar`]; unset or
/// anything else → [`KernelKind::Simd`]).
pub fn active_kernel() -> KernelKind {
    *ACTIVE.get_or_init(|| match std::env::var("ZSDB_KERNEL").as_deref() {
        Ok("scalar") => KernelKind::Scalar,
        _ => KernelKind::Simd,
    })
}

/// Canonical-order sum of a slice.
#[inline]
pub fn sum(kind: KernelKind, v: &[f64]) -> f64 {
    match kind {
        KernelKind::Simd => sum_simd(v),
        KernelKind::Scalar => sum_scalar(v),
    }
}

/// Canonical-order dot product of two equal-length slices.
#[inline]
pub fn dot(kind: KernelKind, a: &[f64], b: &[f64]) -> f64 {
    match kind {
        KernelKind::Simd => dot_simd(a, b),
        KernelKind::Scalar => dot_scalar(a, b),
    }
}

/// Every output unit of one dense layer over **input-major** weights
/// (`w[i * out_dim + o]`, `out_dim = bias.len()`), for one example:
/// `out[o] = bias[o] + dot(w[·][o], x)`, each output reduced in the
/// canonical order.  The example is read through `x(i)`, and finished
/// outputs are handed over in ascending runs as `emit(o, &out[o..])`, so
/// the same kernel serves a contiguous vector and one column of a
/// feature-major batch.  See the module docs for the tile shape.
#[inline]
pub fn affine_layer(
    kind: KernelKind,
    w: &[f64],
    bias: &[f64],
    in_dim: usize,
    x: impl Fn(usize) -> f64 + Copy,
    mut emit: impl FnMut(usize, &[f64]),
) {
    debug_assert_eq!(w.len(), in_dim * bias.len());
    match kind {
        KernelKind::Simd => affine_layer_tiled(w, bias, in_dim, x, &mut emit),
        KernelKind::Scalar => affine_layer_scalar(w, bias, in_dim, x, &mut emit),
    }
}

/// Output units per register tile of [`affine_layer`]'s SIMD kernel:
/// `LANES × TILE_O` lane accumulators plus `TILE_O` tail accumulators,
/// fifteen AVX-512 vectors.
const TILE_O: usize = 24;

/// Narrow tile for the `out_dim % TILE_O` remainder (one AVX-512 vector
/// per lane); what is left after it runs one output at a time.
const TILE_O_NARROW: usize = 8;

/// Output-tiled GEMV: outputs in tiles of [`TILE_O`], then
/// [`TILE_O_NARROW`], then singly.  The tile width never changes what an
/// output computes — only how many outputs share one sweep over `x`.
#[inline]
fn affine_layer_tiled(
    w: &[f64],
    bias: &[f64],
    in_dim: usize,
    x: impl Fn(usize) -> f64 + Copy,
    emit: &mut impl FnMut(usize, &[f64]),
) {
    let out_dim = bias.len();
    let mut o = 0;
    while o + TILE_O <= out_dim {
        affine_tile::<TILE_O>(w, bias, in_dim, x, o, emit);
        o += TILE_O;
    }
    while o + TILE_O_NARROW <= out_dim {
        affine_tile::<TILE_O_NARROW>(w, bias, in_dim, x, o, emit);
        o += TILE_O_NARROW;
    }
    while o < out_dim {
        affine_tile::<1>(w, bias, in_dim, x, o, emit);
        o += 1;
    }
}

/// Outputs `o..o + T` of [`affine_layer`].  Lane `l` of output `o + j`
/// accumulates `w[4k + l][o + j] · x[4k + l]` over ascending `k` —
/// exactly [`dot`]'s lane `l` for that output's weight column — so one
/// broadcast of `x[i]` feeds `T` independent chains reading the
/// contiguous run `w[i][o..o + T]`.
///
/// The four lanes are separately named arrays on purpose: indexing one
/// `[[f64; T]; LANES]` block by a loop variable made the compiler keep
/// it on the stack, slower than the dot-per-output kernel it replaces.
#[inline(always)]
fn affine_tile<const T: usize>(
    w: &[f64],
    bias: &[f64],
    in_dim: usize,
    x: impl Fn(usize) -> f64,
    o: usize,
    emit: &mut impl FnMut(usize, &[f64]),
) {
    let out_dim = bias.len();
    let run = |i: usize| -> &[f64; T] {
        w[i * out_dim + o..][..T]
            .try_into()
            .expect("slice of tile length")
    };
    let (mut l0, mut l1, mut l2, mut l3) = ([0.0f64; T], [0.0f64; T], [0.0f64; T], [0.0f64; T]);
    let chunks = in_dim / LANES;
    for k in 0..chunks {
        let i = LANES * k;
        let (w0, w1, w2, w3) = (run(i), run(i + 1), run(i + 2), run(i + 3));
        let (x0, x1, x2, x3) = (x(i), x(i + 1), x(i + 2), x(i + 3));
        for j in 0..T {
            l0[j] += w0[j] * x0;
        }
        for j in 0..T {
            l1[j] += w1[j] * x1;
        }
        for j in 0..T {
            l2[j] += w2[j] * x2;
        }
        for j in 0..T {
            l3[j] += w3[j] * x3;
        }
    }
    let mut tail = [0.0f64; T];
    for i in LANES * chunks..in_dim {
        let (wi, xi) = (run(i), x(i));
        for j in 0..T {
            tail[j] += wi[j] * xi;
        }
    }
    let bias: &[f64; T] = bias[o..][..T].try_into().expect("slice of tile length");
    let mut tile = [0.0f64; T];
    for j in 0..T {
        tile[j] = bias[j] + (((l0[j] + l1[j]) + (l2[j] + l3[j])) + tail[j]);
    }
    emit(o, &tile);
}

/// `acc[o] += dot(w[·][o], x)` for every output `o` of an input-major
/// `w` (`x.len() × acc.len()`), in place: [`affine_layer`]'s SIMD tiles
/// with the output row as its own bias, so each cell is `acc[o] + (((l0
/// + l1) + (l2 + l3)) + tail)` exactly as `affine_layer` computes `bias
/// + dot` — without a copy of the row to seed from or a closure to emit
/// through.  The batched weight gradient's SIMD path (`zsdb_nn::mlp`).
///
/// `N` in `1..=8` promises `x.len() == N`: the reduction length becomes
/// a constant, lanes and tail hold only the products that exist, and the
/// compiler folds the rest only where IEEE arithmetic allows (`(0 + 0) +
/// (0 + 0)` is `+0`; the `0.0 +` that starts every lane and the tail
/// stays, since `0.0 + -0.0` is `+0`).  `N = 0` reads the length at run
/// time.
#[inline(always)]
pub(crate) fn accumulate_layer<const N: usize>(w: &[f64], x: &[f64], acc: &mut [f64]) {
    let x = if N == 0 { x } else { &x[..N] };
    let out_dim = acc.len();
    debug_assert_eq!(w.len(), x.len() * out_dim);
    let mut o = 0;
    while o + TILE_O <= out_dim {
        accumulate_tile::<TILE_O>(w, x, acc, o);
        o += TILE_O;
    }
    while o + TILE_O_NARROW <= out_dim {
        accumulate_tile::<TILE_O_NARROW>(w, x, acc, o);
        o += TILE_O_NARROW;
    }
    while o < out_dim {
        accumulate_tile::<1>(w, x, acc, o);
        o += 1;
    }
}

/// Outputs `o..o + T` of [`accumulate_layer`]: [`affine_tile`]'s lanes
/// and tail, added onto `acc[o..o + T]`.
#[inline(always)]
fn accumulate_tile<const T: usize>(w: &[f64], x: &[f64], acc: &mut [f64], o: usize) {
    let out_dim = acc.len();
    let run = |i: usize| -> &[f64; T] {
        w[i * out_dim + o..][..T]
            .try_into()
            .expect("slice of tile length")
    };
    let (mut l0, mut l1, mut l2, mut l3) = ([0.0f64; T], [0.0f64; T], [0.0f64; T], [0.0f64; T]);
    let chunks = x.len() / LANES;
    for k in 0..chunks {
        let i = LANES * k;
        let (w0, w1, w2, w3) = (run(i), run(i + 1), run(i + 2), run(i + 3));
        let (x0, x1, x2, x3) = (x[i], x[i + 1], x[i + 2], x[i + 3]);
        for j in 0..T {
            l0[j] += w0[j] * x0;
        }
        for j in 0..T {
            l1[j] += w1[j] * x1;
        }
        for j in 0..T {
            l2[j] += w2[j] * x2;
        }
        for j in 0..T {
            l3[j] += w3[j] * x3;
        }
    }
    let mut tail = [0.0f64; T];
    for (i, &xi) in x.iter().enumerate().skip(LANES * chunks) {
        let wi = run(i);
        for j in 0..T {
            tail[j] += wi[j] * xi;
        }
    }
    let acc: &mut [f64; T] = (&mut acc[o..o + T])
        .try_into()
        .expect("slice of tile length");
    for j in 0..T {
        acc[j] += ((l0[j] + l1[j]) + (l2[j] + l3[j])) + tail[j];
    }
}

/// Scalar [`affine_layer`]: one output at a time, four named scalar
/// accumulators striding down the output's weight column — operation for
/// operation `bias[o] + dot_scalar(column o, x)`.
fn affine_layer_scalar(
    w: &[f64],
    bias: &[f64],
    in_dim: usize,
    x: impl Fn(usize) -> f64,
    emit: &mut impl FnMut(usize, &[f64]),
) {
    let out_dim = bias.len();
    let chunks = in_dim / LANES;
    for (o, &b) in bias.iter().enumerate() {
        let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for k in 0..chunks {
            let i = LANES * k;
            l0 += w[i * out_dim + o] * x(i);
            l1 += w[(i + 1) * out_dim + o] * x(i + 1);
            l2 += w[(i + 2) * out_dim + o] * x(i + 2);
            l3 += w[(i + 3) * out_dim + o] * x(i + 3);
        }
        let mut tail = 0.0;
        for i in LANES * chunks..in_dim {
            tail += w[i * out_dim + o] * x(i);
        }
        emit(o, &[b + (((l0 + l1) + (l2 + l3)) + tail)]);
    }
}

/// SIMD-shaped canonical sum: a `[f64; LANES]` accumulator block the
/// compiler keeps in one vector register.
#[inline]
fn sum_simd(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = v.len() / LANES;
    for k in 0..chunks {
        let c = &v[LANES * k..LANES * (k + 1)];
        for (a, x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    let mut tail = 0.0;
    for x in &v[LANES * chunks..] {
        tail += x;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Scalar canonical sum: four named scalar accumulators, same order as
/// [`sum_simd`] operation for operation.
#[inline]
fn sum_scalar(v: &[f64]) -> f64 {
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let chunks = v.len() / LANES;
    for k in 0..chunks {
        let base = LANES * k;
        l0 += v[base];
        l1 += v[base + 1];
        l2 += v[base + 2];
        l3 += v[base + 3];
    }
    let mut tail = 0.0;
    for x in &v[LANES * chunks..] {
        tail += x;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}

/// SIMD-shaped canonical dot product.
#[inline]
fn dot_simd(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let chunks = a.len() / LANES;
    for k in 0..chunks {
        let ca = &a[LANES * k..LANES * (k + 1)];
        let cb = &b[LANES * k..LANES * (k + 1)];
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[LANES * chunks..].iter().zip(&b[LANES * chunks..]) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Scalar canonical dot product, operation-for-operation identical to
/// [`dot_simd`].
#[inline]
fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let chunks = a.len() / LANES;
    for k in 0..chunks {
        let base = LANES * k;
        l0 += a[base] * b[base];
        l1 += a[base + 1] * b[base + 1];
        l2 += a[base + 2] * b[base + 2];
        l3 += a[base + 3] * b[base + 3];
    }
    let mut tail = 0.0;
    for (x, y) in a[LANES * chunks..].iter().zip(&b[LANES * chunks..]) {
        tail += x * y;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64 + seed as f64 * 0.71).sin() * 1.9) + (i % 7) as f64 * 0.013)
            .collect()
    }

    #[test]
    fn simd_and_scalar_sums_are_bit_identical() {
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 97] {
            let v = noisy(len, 3);
            assert_eq!(
                sum_simd(&v).to_bits(),
                sum_scalar(&v).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn simd_and_scalar_dots_are_bit_identical() {
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 97] {
            let a = noisy(len, 5);
            let b = noisy(len, 11);
            assert_eq!(
                dot_simd(&a, &b).to_bits(),
                dot_scalar(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn reduction_order_is_the_documented_lane_order() {
        // 6 elements: lanes get v[0..4], tail is v[4] + v[5].
        let v = [1e16, 1.0, -1e16, 1.0, 0.5, 0.25];
        let expected: f64 = ((1e16 + 1.0) + (-1e16 + 1.0)) + (0.5 + 0.25);
        assert_eq!(sum(KernelKind::Simd, &v).to_bits(), expected.to_bits());
        assert_eq!(sum(KernelKind::Scalar, &v).to_bits(), expected.to_bits());
    }

    /// `affine_layer` against its definition: output `o` is
    /// `bias[o] + dot(column o of w, x)`, bit for bit, under both kernels.
    fn assert_affine_layer_matches_dot(in_dim: usize, out_dim: usize, seed: u64) {
        // Magnitudes spread over six decades so a changed summation
        // order changes the rounded result.
        let spread = |v: Vec<f64>| -> Vec<f64> {
            v.iter()
                .enumerate()
                .map(|(i, a)| a * 10f64.powi((i * 7 + seed as usize) as i32 % 6 - 3))
                .collect()
        };
        let w = spread(noisy(in_dim * out_dim, seed));
        let bias = noisy(out_dim, seed + 1);
        let x = spread(noisy(in_dim, seed + 2));
        let mut tiled = vec![f64::NAN; out_dim];
        let mut scalar = vec![f64::NAN; out_dim];
        for (kind, out) in [
            (KernelKind::Simd, &mut tiled),
            (KernelKind::Scalar, &mut scalar),
        ] {
            affine_layer(
                kind,
                &w,
                &bias,
                in_dim,
                |i| x[i],
                |o, run| out[o..o + run.len()].copy_from_slice(run),
            );
        }
        for o in 0..out_dim {
            let column: Vec<f64> = (0..in_dim).map(|i| w[i * out_dim + o]).collect();
            let expected = bias[o] + dot(KernelKind::Scalar, &column, &x);
            assert_eq!(
                tiled[o].to_bits(),
                expected.to_bits(),
                "tiled {in_dim}x{out_dim} output {o}"
            );
            assert_eq!(
                scalar[o].to_bits(),
                expected.to_bits(),
                "scalar {in_dim}x{out_dim} output {o}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The ranges cover `in_dim % 4 != 0`, `out_dim` below one tile,
        /// `out_dim % 8 != 0` and every tile-count combination up to two
        /// wide tiles plus remainders.
        #[test]
        fn affine_layer_equals_bias_plus_dot_per_output(
            in_dim in 0usize..101,
            out_dim in 1usize..71,
            seed in 0u64..1_000,
        ) {
            assert_affine_layer_matches_dot(in_dim, out_dim, seed);
        }
    }

    /// The zero-shot model's own layer shapes (node encoders, combine,
    /// output head).
    #[test]
    fn affine_layer_equals_bias_plus_dot_on_the_model_shapes() {
        for (in_dim, out_dim) in [
            (5, 48),
            (11, 48),
            (22, 48),
            (35, 48),
            (40, 48),
            (96, 48),
            (48, 32),
            (32, 1),
        ] {
            assert_affine_layer_matches_dot(in_dim, out_dim, 9);
        }
    }
}
