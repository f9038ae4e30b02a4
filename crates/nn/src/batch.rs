//! Mini-batch matrices for batched MLP execution.
//!
//! A [`Batch`] holds `n` example vectors of dimension `dim` in a single
//! flat allocation, stored **feature-major** (`data[f * n + e]` is feature
//! `f` of example `e`).  The layout is chosen for the batched backward of
//! [`Mlp::backward_batch_into`](crate::Mlp::backward_batch_into), whose reductions
//! and register tiles run over *examples*: a feature row is one
//! contiguous slice, so the weight gradient reads `x[i][·]` and the bias
//! gradient `dy[o][·]` as they lie, and the input-gradient tiles load
//! eight neighbouring examples of a `dy` row as one vector.  The batched
//! forward reads a column in place, one strided load per input, and hands
//! it to the very kernel call of the per-example
//! [`Mlp::forward_into`](crate::Mlp::forward_into) — which is what makes batched
//! inference bit-identical to per-example inference.

/// A batch of `n` example vectors of dimension `dim`, feature-major.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    dim: usize,
    n: usize,
    data: Vec<f64>,
}

impl Batch {
    /// A zero-filled batch of `n` examples of dimension `dim`.
    pub fn zeros(dim: usize, n: usize) -> Self {
        Batch {
            dim,
            n,
            data: vec![0.0; dim * n],
        }
    }

    /// Build a batch from example slices (all of length `dim`).
    pub fn from_examples<'a, I>(dim: usize, examples: I) -> Self
    where
        I: ExactSizeIterator<Item = &'a [f64]>,
    {
        let n = examples.len();
        let mut batch = Batch::zeros(dim, n);
        for (e, x) in examples.enumerate() {
            batch.set_example(e, x);
        }
        batch
    }

    /// Number of examples in the batch.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dimension of each example vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when the batch holds no examples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The values of feature `f` across all examples.
    pub fn feature_row(&self, f: usize) -> &[f64] {
        &self.data[f * self.n..(f + 1) * self.n]
    }

    /// Mutable values of feature `f` across all examples.
    pub fn feature_row_mut(&mut self, f: usize) -> &mut [f64] {
        &mut self.data[f * self.n..(f + 1) * self.n]
    }

    /// Read feature `f` of example `e`.
    pub fn get(&self, f: usize, e: usize) -> f64 {
        self.data[f * self.n + e]
    }

    /// Write feature `f` of example `e`.
    pub fn set(&mut self, f: usize, e: usize, v: f64) {
        self.data[f * self.n + e] = v;
    }

    /// Add `v` to feature `f` of example `e`.
    pub fn add(&mut self, f: usize, e: usize, v: f64) {
        self.data[f * self.n + e] += v;
    }

    /// Overwrite example `e` with the vector `x` (length `dim`).
    pub fn set_example(&mut self, e: usize, x: &[f64]) {
        debug_assert_eq!(x.len(), self.dim);
        for (f, &v) in x.iter().enumerate() {
            self.data[f * self.n + e] = v;
        }
    }

    /// Copy example `e` into `out` (cleared first).
    pub fn example_into(&self, e: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.dim);
        for f in 0..self.dim {
            out.push(self.data[f * self.n + e]);
        }
    }

    /// Example `e` as a freshly allocated vector.
    pub fn example(&self, e: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.example_into(e, &mut out);
        out
    }

    /// Reshape this batch to `dim × n`, zero-filled, **reusing** the
    /// existing allocation (grown once to the high-water mark, never
    /// shrunk).  The workhorse of the allocation-free batched paths: a
    /// long-lived scratch batch is `resize`d per group/layer instead of
    /// constructing a fresh [`Batch::zeros`].
    pub fn resize(&mut self, dim: usize, n: usize) {
        self.dim = dim;
        self.n = n;
        self.data.clear();
        self.data.resize(dim * n, 0.0);
    }

    /// Make room for `dim × n` values up front, so a later
    /// [`Batch::resize`] up to that size does not reallocate (never
    /// shrinks).
    pub fn reserve(&mut self, dim: usize, n: usize) {
        let len = dim * n;
        self.data.reserve(len.saturating_sub(self.data.len()));
    }

    /// The raw feature-major buffer (`data[f * n + e]`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw feature-major buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy the first `rows` feature rows of `src` into the feature rows
    /// starting at `dst_offset` of `self`, for the same batch width.
    pub fn copy_rows_from(&mut self, dst_offset: usize, src: &Batch, rows: usize) {
        debug_assert_eq!(self.n, src.n);
        debug_assert!(rows <= src.dim && dst_offset + rows <= self.dim);
        self.data[dst_offset * self.n..(dst_offset + rows) * self.n]
            .copy_from_slice(&src.data[..rows * self.n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_major_layout_round_trips_examples() {
        let examples: Vec<Vec<f64>> = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let batch = Batch::from_examples(3, examples.iter().map(|v| v.as_slice()));
        assert_eq!(batch.n(), 2);
        assert_eq!(batch.dim(), 3);
        // Feature rows are contiguous across examples.
        assert_eq!(batch.feature_row(0), &[1.0, 4.0]);
        assert_eq!(batch.feature_row(2), &[3.0, 6.0]);
        // Examples reassemble exactly.
        assert_eq!(batch.example(0), examples[0]);
        assert_eq!(batch.example(1), examples[1]);
    }

    #[test]
    fn set_add_get_address_the_same_cell() {
        let mut b = Batch::zeros(2, 3);
        b.set(1, 2, 5.0);
        b.add(1, 2, 2.5);
        assert_eq!(b.get(1, 2), 7.5);
        assert_eq!(b.get(0, 2), 0.0);
    }

    #[test]
    fn copy_rows_from_moves_whole_feature_blocks() {
        let src = Batch::from_examples(
            2,
            [[1.0, 2.0].as_slice(), [3.0, 4.0].as_slice()].into_iter(),
        );
        let mut dst = Batch::zeros(4, 2);
        dst.copy_rows_from(1, &src, 2);
        assert_eq!(dst.feature_row(0), &[0.0, 0.0]);
        assert_eq!(dst.feature_row(1), &[1.0, 3.0]);
        assert_eq!(dst.feature_row(2), &[2.0, 4.0]);
        assert_eq!(dst.feature_row(3), &[0.0, 0.0]);
    }

    #[test]
    fn reserved_batch_resizes_in_place() {
        let mut b = Batch::default();
        b.reserve(4, 8);
        let buffer = b.data().as_ptr();
        b.resize(3, 5);
        b.resize(4, 8);
        assert_eq!(b.data().as_ptr(), buffer);
        assert_eq!(b.data(), &[0.0; 32]);
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let b = Batch::zeros(4, 0);
        assert!(b.is_empty());
        assert_eq!(b.feature_row(3), &[] as &[f64]);
    }
}
