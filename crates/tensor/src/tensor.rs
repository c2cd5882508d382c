//! The dense `Tensor` value type and its pure (non-differentiable) kernels.
//!
//! All operations here are plain functions of their inputs; the autograd
//! layer in [`crate::graph`] composes them and supplies the matching
//! backward passes. Data is stored row-major in an `Arc<Vec<f32>>` so that
//! cloning a tensor is cheap: [`crate::optim::Bound::bind`] puts every
//! parameter on each training shard's tape, and [`Tensor::reshape`] shares
//! its input's storage.

use std::fmt;
use std::sync::Arc;

use crate::kernels::{gemm_acc, pack_transposed_panels, vec_matmul_rows};
use crate::pool::parallel_rows_mut;
use crate::shape::{assert_same_shape, batch_dims, numel};

/// Minimum rows per parallel chunk so a chunk amortizes dispatch
/// overhead: roughly 128k multiply-adds of work per chunk (the
/// register-tiled kernel retires madds ~4x faster than the old scalar loop
/// did, so the work floor scales up with it), and never fewer rows than
/// one register tile, so every sweep of the right-hand side is shared by
/// [`crate::kernels::ROW_TILE`] rows.
fn matmul_min_rows(_m: usize, n: usize, k: usize) -> usize {
    (131_072 / (n * k).max(1)).max(crate::kernels::ROW_TILE)
}

/// Minimum elements per chunk for cheap elementwise kernels.
const ELEMWISE_MIN_CHUNK: usize = 16_384;

/// Minimum rows per chunk for softmax-style row kernels (a few passes of
/// exp/log per element).
fn softmax_min_rows(d: usize) -> usize {
    (2_048 / d.max(1)).max(1)
}

/// A dense, row-major, `f32` tensor.
///
/// Cloning is O(1): the buffer is shared until a mutation forces a copy
/// (copy-on-write via [`Tensor::data_mut`]).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().copied().take(8).collect();
        let ellipsis = if self.data.len() > 8 { ", ..." } else { "" };
        write!(f, "Tensor{:?} {:?}{}", self.shape, preview, ellipsis)
    }
}

impl Tensor {
    /// Builds a tensor from a shape and matching data buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the element count of `shape`.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            numel(&shape),
            data.len(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::new(shape.to_vec(), vec![0.0; numel(shape)])
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor::new(shape.to_vec(), vec![value; numel(shape)])
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::new(vec![], vec![value])
    }

    /// A rank-1 tensor from a slice.
    pub fn from_vec(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor::new(vec![n], data)
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Read-only view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the buffer, copying if it is shared.
    pub fn data_mut(&mut self) -> &mut [f32] {
        let v: &mut Vec<f32> = Arc::make_mut(&mut self.data);
        v.as_mut_slice()
    }

    /// The single value of a scalar (rank-0 or one-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape of equal size.
    pub fn reshape(&self, new_shape: &[usize]) -> Tensor {
        assert_eq!(
            numel(&self.shape),
            numel(new_shape),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            new_shape
        );
        Tensor {
            shape: new_shape.to_vec(),
            data: Arc::clone(&self.data),
        }
    }

    /// Element-wise map into a new tensor. Large tensors map in parallel;
    /// each element is a pure function of one input, so chunking cannot
    /// change the result.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        self.map_blocks(|_, block| {
            for x in block.iter_mut() {
                *x = f(*x);
            }
        })
    }

    /// [`Tensor::map`] for a kernel that takes a slice: a copy of the
    /// buffer is handed to `f` in parallel chunks, each with the index of
    /// its first element.
    pub(crate) fn map_blocks(&self, f: impl Fn(usize, &mut [f32]) + Sync) -> Tensor {
        let mut out = self.data.to_vec();
        let len = out.len();
        crate::pool::parallel_rows_mut(&mut out, len, ELEMWISE_MIN_CHUNK, f);
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(out),
        }
    }

    /// Element-wise combination of two same-shaped tensors (parallel for
    /// large tensors, like [`Tensor::map`]).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_same_shape("zip", &self.shape, &other.shape);
        let (a, b) = (&self.data, &other.data);
        let mut out = vec![0.0f32; a.len()];
        crate::pool::parallel_rows_mut(&mut out, a.len(), ELEMWISE_MIN_CHUNK, |first, block| {
            for (i, o) in block.iter_mut().enumerate() {
                *o = f(a[first + i], b[first + i]);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(out),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other * s` (axpy). Avoids allocation in gradient
    /// accumulation, the hottest loop of the backward pass.
    pub fn add_scaled_assign(&mut self, other: &Tensor, s: f32) {
        assert_same_shape("add_scaled_assign", &self.shape, &other.shape);
        let other = Arc::clone(&other.data);
        let dst = self.data_mut();
        for (d, &o) in dst.iter_mut().zip(other.iter()) {
            *d += o * s;
        }
    }

    /// Adds `row` (shape `[d]`) to every trailing row of `self`
    /// (shape `[..., d]`). Used for bias addition.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rank(), 1, "add_row_broadcast expects a rank-1 bias");
        let d = row.shape[0];
        assert_eq!(
            self.shape.last().copied(),
            Some(d),
            "bias of width {d} does not match shape {:?}",
            self.shape
        );
        let mut out = self.as_ref().to_vec();
        let rows = out.len() / d.max(1);
        let bias = &row.data;
        crate::pool::parallel_rows_mut(
            &mut out,
            rows,
            (ELEMWISE_MIN_CHUNK / d.max(1)).max(1),
            |_, block| {
                for chunk in block.chunks_mut(d) {
                    for (o, &b) in chunk.iter_mut().zip(bias.iter()) {
                        *o += b;
                    }
                }
            },
        );
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(out),
        }
    }

    /// Sum of all elements, as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        Tensor::scalar(self.data.iter().sum())
    }

    /// Mean of all elements, as a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.data.len().max(1) as f32;
        Tensor::scalar(self.data.iter().sum::<f32>() / n)
    }

    /// Sums over all leading dimensions, collapsing `[..., d]` to `[d]`.
    /// This is the backward op of [`Tensor::add_row_broadcast`].
    pub fn sum_to_row(&self, d: usize) -> Tensor {
        assert_eq!(
            self.shape.last().copied(),
            Some(d),
            "sum_to_row({d}) on shape {:?}",
            self.shape
        );
        let mut out = vec![0.0f32; d];
        let data = &self.data;
        let rows = data.len() / d.max(1);
        // Parallel over output columns; every column still accumulates its
        // rows in ascending order, exactly like the serial loop.
        let min_cols = (ELEMWISE_MIN_CHUNK / rows.max(1)).max(1);
        crate::pool::parallel_rows_mut(&mut out, d, min_cols, |first, block| {
            for chunk in data.chunks(d) {
                for (o, &x) in block.iter_mut().zip(chunk[first..].iter()) {
                    *o += x;
                }
            }
        });
        Tensor::new(vec![d], out)
    }

    /// Swaps two axes, materializing the permuted layout.
    ///
    /// With `a < b` the shape is `[outer, n_a, mid, n_b, inner]` and the
    /// output `[outer, n_b, mid, n_a, inner]` is written in order, one
    /// contiguous `inner`-long source run at a time.
    pub fn transpose(&self, a: usize, b: usize) -> Tensor {
        assert!(
            a < self.rank() && b < self.rank(),
            "transpose axes ({a},{b}) out of range for shape {:?}",
            self.shape
        );
        if a == b {
            return self.clone();
        }
        let (a, b) = (a.min(b), a.max(b));
        let dims = &self.shape;
        let outer: usize = dims[..a].iter().product();
        let n_a = dims[a];
        let mid: usize = dims[a + 1..b].iter().product();
        let n_b = dims[b];
        let inner: usize = dims[b + 1..].iter().product();
        let src = &self.data[..];
        let mut out = Vec::with_capacity(src.len());
        for o in 0..outer {
            for j in 0..n_b {
                for m in 0..mid {
                    for i in 0..n_a {
                        let start = (((o * n_a + i) * mid + m) * n_b + j) * inner;
                        out.extend_from_slice(&src[start..start + inner]);
                    }
                }
            }
        }
        let mut new_shape = dims.clone();
        new_shape.swap(a, b);
        Tensor::new(new_shape, out)
    }

    /// Batched matrix multiply of activations: `[.., m, k] x [.., k, n]`,
    /// both sides with the same leading (batch) dimensions. A weight is
    /// multiplied by [`Tensor::matmul_panels`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/matmul");
        let (ab, m, k) = batch_dims(&self.shape);
        let (bb, k2, n) = batch_dims(&other.shape);
        assert_eq!(
            k, k2,
            "matmul inner dims differ: {:?} x {:?}",
            self.shape, other.shape
        );
        assert_eq!(
            ab, bb,
            "matmul batch dims differ: {:?} x {:?}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; ab * m * n];
        let a = &self.data;
        let b = &other.data;
        // Parallel over output rows (batch x m). Each row is produced by
        // exactly one chunk with a fixed serial accumulation order (every
        // output element sums k ascending with one accumulator), so the
        // result is bit-identical at any thread count — and bit-identical
        // to a naive triple loop, since the register-tiled kernel only
        // changes which *elements* are in flight, never the order within
        // an element's chain. See `crate::kernels` for the register tile
        // and its operand strides.
        crate::pool::parallel_rows_mut(
            &mut out,
            ab * m,
            matmul_min_rows(m, n, k),
            |first, block| {
                crate::kernels::gemm_nn_block(first, block, a, b, m, k, n);
            },
        );
        self.with_last(n, out)
    }

    /// Batched `A x B^T` without materializing the transpose: accepts
    /// `[.., m, k] x [.., n, k]` and yields `[.., m, n]`. Row-major `B`
    /// makes every inner product a contiguous dot product, which is why the
    /// backward pass prefers this over `transpose` + [`Tensor::matmul`].
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/matmul_bt");
        let (ab, m, k) = batch_dims(&self.shape);
        let (bb, n, k2) = batch_dims(&other.shape);
        assert_eq!(
            k, k2,
            "matmul_bt inner dims differ: {:?} x {:?}",
            self.shape, other.shape
        );
        assert_eq!(
            ab, bb,
            "matmul_bt batch dims differ: {:?} x {:?}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; ab * m * n];
        let a = &self.data;
        let b = &other.data;
        // Packing transposes B panels up front, turning what used to be a
        // latency-bound scalar dot per output element into the same
        // register tile as `matmul` — with the identical per-element
        // k-ascending accumulation order.
        crate::pool::parallel_rows_mut(
            &mut out,
            ab * m,
            matmul_min_rows(m, n, k),
            |first, block| {
                crate::kernels::gemm_bt_block(first, block, a, b, m, k, n);
            },
        );
        self.with_last(n, out)
    }

    /// Batched `A^T x B` without materializing the transpose: accepts
    /// `[.., m, k] x [.., m, n]` and yields `[.., k, n]` per batch. Used by
    /// the matmul backward pass for the right-hand side's gradient.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/matmul_tn");
        let (ab, m, k) = batch_dims(&self.shape);
        let (bb, m2, n) = batch_dims(&other.shape);
        assert_eq!(
            (ab, m),
            (bb, m2),
            "matmul_tn leading dims differ: {:?} x {:?}",
            self.shape,
            other.shape
        );
        let mut out = vec![0.0f32; ab * k * n];
        let a = &self.data;
        let b = &other.data;
        // out[batch, p, :] = sum_i a[batch, i, p] * b[batch, i, :], i
        // ascending — identical to the serial ikj order on a materialized
        // transpose. The register tile reads A's columns through its
        // strided left operand, so nothing is packed.
        crate::pool::parallel_rows_mut(
            &mut out,
            ab * k,
            matmul_min_rows(k, n, m),
            |first, block| {
                crate::kernels::gemm_tn_block(first, block, a, b, m, k, n);
            },
        );
        let mut shape = self.shape[..self.rank() - 2].to_vec();
        shape.push(k);
        shape.push(n);
        Tensor::new(shape, out)
    }

    /// `x · W` for `x` of shape `[.., d_in]` and a `[d_in, d_out]` weight
    /// in decode panel order ([`crate::kernels::pack_panels`]): decode's
    /// [`crate::kernels::vec_matmul_rows`] over zeroed rows, so each element
    /// is the chain [`Tensor::matmul`] folds over the row-major weight.
    pub fn matmul_panels(&self, w: &Tensor) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/matmul_panels");
        let (d_in, d_out) = (w.shape[0], w.shape[1]);
        let (rows, mut out) = self.rows_into(d_in, d_out);
        let min = matmul_min_rows(rows, d_out, d_in);
        parallel_rows_mut(&mut out, rows, min, |r, y| {
            let x = &self.data[r * d_in..(r + y.len() / d_out) * d_in];
            vec_matmul_rows(x, d_in, &w.data, d_out, y);
        });
        self.with_last(d_out, out)
    }

    /// `dY · W^T` for `dY` of shape `[.., d_out]` and a panel-order
    /// `[d_in, d_out]` weight: [`Tensor::matmul_bt`] of the row-major
    /// weight, bit for bit, its `W^T` panels packed once per product.
    pub fn matmul_panels_bt(&self, w: &Tensor) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/matmul_panels_dx");
        let (d_in, d_out) = (w.shape[0], w.shape[1]);
        let mut wt = vec![0.0f32; d_out * d_in.div_ceil(8) * 8];
        pack_transposed_panels(&w.data, d_out, d_in, &mut wt);
        let (rows, mut out) = self.rows_into(d_out, d_in);
        let min = matmul_min_rows(rows, d_in, d_out);
        parallel_rows_mut(&mut out, rows, min, |r, dx| {
            let (dy, n) = (&self.data[r * d_out..], dx.len() / d_in);
            gemm_acc(dy, d_out, 1, n, d_out, &wt, 8, 8 * d_out, d_in, dx, d_in, 8);
        });
        self.with_last(d_in, out)
    }

    /// `X^T · dY` summed over rows (`self` `[.., d_in]`, `dy` `[.., d_out]`),
    /// written in panel order: [`Tensor::matmul_tn`]'s chains over the rows
    /// flattened into one batch, one [`gemm_acc`] call (`ldc = 8`,
    /// `vc = 8·d_in`) per chunk of 8-column blocks and one for the
    /// `d_out % 8` tail.
    pub fn matmul_tn_panels(&self, dy: &Tensor) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/matmul_panels_dw");
        let (d_in, d_out) = (self.shape[self.rank() - 1], dy.shape[dy.rank() - 1]);
        let (red, full) = (self.len() / d_in.max(1), d_out / 8 * 8);
        assert_eq!(dy.len(), red * d_out, "matmul_tn_panels row counts differ");
        let (x, dy) = (&self.data, &dy.data);
        let mut out = vec![0.0f32; d_in * d_out];
        let (blocks, tail) = out.split_at_mut(full * d_in);
        let min = matmul_min_rows(full / 8, 8 * d_in, red);
        parallel_rows_mut(blocks, full / 8, min, |v, dw| {
            let (dy, n) = (&dy[8 * v..], dw.len() / d_in);
            gemm_acc(x, 1, d_in, d_in, red, dy, d_out, 8, n, dw, 8, 8 * d_in);
        });
        let t = d_out - full;
        gemm_acc(x, 1, d_in, d_in, red, &dy[full..], d_out, 8, t, tail, t, 8);
        Tensor::new(vec![d_in, d_out], out)
    }

    /// The row count of this `[.., d]` tensor, and that many zeroed rows `n` wide.
    fn rows_into(&self, d: usize, n: usize) -> (usize, Vec<f32>) {
        assert_eq!(self.shape.last(), Some(&d), "not [.., {d}]");
        let rows = self.len() / d.max(1);
        (rows, vec![0.0; rows * n])
    }

    /// `data` shaped like this tensor with last dimension `n`.
    fn with_last(&self, n: usize, data: Vec<f32>) -> Tensor {
        let mut shape = self.shape.clone();
        shape[self.rank() - 1] = n;
        Tensor::new(shape, data)
    }

    /// Softmax over the last dimension, numerically stabilized.
    pub fn softmax_last(&self) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/softmax");
        let d = *self.shape.last().expect("softmax_last requires rank >= 1");
        let mut out = self.as_ref().to_vec();
        let rows = out.len() / d.max(1);
        // Rows are independent, so row-parallelism is exact. The per-row
        // kernel is shared with the cached-attention path and the decoding
        // strategies (`crate::kernels::softmax_in_place`).
        crate::pool::parallel_rows_mut(&mut out, rows, softmax_min_rows(d), |_, block| {
            for row in block.chunks_mut(d) {
                crate::kernels::softmax_in_place(row);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(out),
        }
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax_last(&self) -> Tensor {
        let _timer = lm4db_obs::leaf("kernel/log_softmax");
        let d = *self
            .shape
            .last()
            .expect("log_softmax_last requires rank >= 1");
        let mut out = self.as_ref().to_vec();
        let rows = out.len() / d.max(1);
        crate::pool::parallel_rows_mut(&mut out, rows, softmax_min_rows(d), |_, block| {
            for row in block.chunks_mut(d) {
                crate::kernels::log_softmax_in_place(row);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(out),
        }
    }

    /// Index of the maximum element within each trailing row, collapsing
    /// `[..., d]` to one index per row.
    pub fn argmax_last(&self) -> Vec<usize> {
        let d = *self.shape.last().expect("argmax_last requires rank >= 1");
        self.data
            .chunks(d)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl AsRef<[f32]> for Tensor {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

// The one-lane form of the activation kernel; slices go through
// `kernels::gelu_in_place` / `kernels::gelu_grad_scale`, which run the same
// body lane-wise.
pub use crate::kernels::{gelu, gelu_grad};

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::new(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn new_rejects_bad_lengths() {
        let result = std::panic::catch_unwind(|| Tensor::new(vec![2, 2], vec![1.0; 3]));
        assert!(result.is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(a.mul(&b).data(), &[10.0, 40.0, 90.0, 160.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn add_scaled_assign_accumulates() {
        let mut a = t(&[3], &[1.0, 1.0, 1.0]);
        let b = t(&[3], &[1.0, 2.0, 3.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn clone_is_shared_until_mutation() {
        let a = t(&[2], &[1.0, 2.0]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[9.0, 2.0]);
    }

    #[test]
    fn matmul_2d() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched() {
        let a = t(&[2, 1, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2, 1], &[1.0, 1.0, 2.0, 2.0]);
        let d = a.matmul(&b);
        assert_eq!(d.shape(), &[2, 1, 1]);
        assert_eq!(d.data(), &[3.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_mismatch() {
        let a = t(&[2, 3], &[0.0; 6]);
        let b = t(&[2, 3], &[0.0; 6]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_swaps_axes() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = a.transpose(0, 1);
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // Transposing twice restores the original.
        assert_eq!(at.transpose(0, 1), a);
    }

    #[test]
    fn transpose_inner_axes_of_rank4() {
        // [1, 2, 2, 1] swap axes 1,2
        let a = t(&[1, 2, 2, 1], &[1.0, 2.0, 3.0, 4.0]);
        let b = a.transpose(1, 2);
        assert_eq!(b.shape(), &[1, 2, 2, 1]);
        assert_eq!(b.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    /// The oracle: every output position split into a multi-index by
    /// row-major strides, the two axes swapped, and the source element
    /// gathered one at a time.
    fn transpose_by_index(x: &Tensor, a: usize, b: usize) -> Tensor {
        let strides = |shape: &[usize]| {
            let mut out = vec![1usize; shape.len()];
            for i in (0..shape.len().saturating_sub(1)).rev() {
                out[i] = out[i + 1] * shape[i + 1];
            }
            out
        };
        let mut new_shape = x.shape().to_vec();
        new_shape.swap(a, b);
        let in_strides = strides(x.shape());
        let out_strides = strides(&new_shape);
        let mut out = vec![0.0f32; x.len()];
        let mut idx = vec![0usize; x.rank()];
        for (pos, slot) in out.iter_mut().enumerate() {
            let mut rem = pos;
            for (i, s) in out_strides.iter().enumerate() {
                idx[i] = rem / s;
                rem %= s;
            }
            idx.swap(a, b);
            let src: usize = idx.iter().zip(in_strides.iter()).map(|(i, s)| i * s).sum();
            *slot = x.data()[src];
        }
        Tensor::new(new_shape, out)
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Run-copying equals the index oracle in shape and bits for
            /// ranks 1-5, every dim in 0..=5 and every axis pair.
            #[test]
            fn transpose_matches_the_index_oracle(
                shape in prop::collection::vec(0usize..6, 1..6),
                a in 0usize..5,
                b in 0usize..5,
                salt in -4.0f32..4.0,
            ) {
                let (a, b) = (a % shape.len(), b % shape.len());
                let data: Vec<f32> = (0..numel(&shape)).map(|i| i as f32 + salt).collect();
                let x = Tensor::new(shape, data);
                let got = x.transpose(a, b);
                let want = transpose_by_index(&x, a, b);
                prop_assert_eq!(got.shape(), want.shape());
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_last();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row sums to {sum}");
        }
        // Large inputs must not overflow to NaN.
        assert!(s.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let a = t(&[1, 4], &[0.5, -1.0, 2.0, 0.0]);
        let ls = a.log_softmax_last();
        let s = a.softmax_last();
        for (l, p) in ls.data().iter().zip(s.data().iter()) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_broadcast_and_sum_back() {
        let x = t(&[2, 3], &[0.0; 6]);
        let b = t(&[3], &[1.0, 2.0, 3.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let back = y.sum_to_row(3);
        assert_eq!(back.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn argmax_last_per_row() {
        let a = t(&[2, 3], &[0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(a.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh-approximation formula.
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.841_192).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.158_808).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-2,
                "x={x}: analytic {} vs fd {}",
                gelu_grad(x),
                fd
            );
        }
    }
}
