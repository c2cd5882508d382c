//! Reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape: an arena of nodes appended in topological order.
//! Each node holds its forward value and the `Op` that made it, one enum
//! variant per differentiable op. A variant holds its input [`Var`]s plus
//! only what backward cannot read back from the tape: a scale factor,
//! transpose axes, layer norm's normalized rows, gather indices, the dropout
//! keep-mask and cross-entropy targets. [`Graph::backward`] is one reverse
//! sweep with one `match`, reading operand values, the node's own output and
//! every shape from the tape.
//!
//! The intended usage pattern for training is:
//! 1. keep parameters in a [`crate::optim::ParamStore`],
//! 2. per step, create a fresh `Graph`, register parameters with
//!    [`Graph::param`], run the forward pass, and call [`Graph::backward`],
//! 3. read gradients back with [`Graph::grad`] and hand them to an optimizer.

use crate::shape::{is_trailing_of, numel};
use crate::tensor::Tensor;

/// Target index that is skipped by [`Graph::cross_entropy`].
pub const IGNORE_INDEX: usize = usize::MAX;

/// Minimum elements a row-parallel backward chunk should cover; below this
/// the dispatch overhead outweighs the work.
const ROW_MIN_ELEMS: usize = 2_048;

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// How a node was made: its inputs, and what backward cannot read back from
/// the tape.
enum Op {
    /// [`Graph::input`] or [`Graph::param`].
    Leaf,
    Add(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddBcast(Var, Var),
    Matmul(Var, Var),
    /// `x · W`, `W` a `[d_in, d_out]` weight in decode panel order.
    MatmulPanels(Var, Var),
    Transpose(Var, usize, usize),
    Reshape(Var),
    SoftmaxLast(Var),
    Gelu(Var),
    Tanh(Var),
    LayerNorm {
        x: Var,
        gain: Var,
        bias: Var,
        xhat: Tensor,
        inv_std: Vec<f32>,
    },
    Embedding(Var, Vec<usize>),
    SelectPositions(Var, Vec<usize>),
    MeanAll(Var),
    SumAll(Var),
    /// The input and its keep-mask (`0` or `1 / (1 - p)` per element).
    Dropout(Var, Tensor),
    CrossEntropy(Var, Vec<usize>),
}

struct Node {
    value: Tensor,
    requires_grad: bool,
    op: Op,
}

/// An autograd tape over [`Tensor`] values.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Appends a node; it requires grad if any of `inputs` does.
    fn push(&mut self, value: Tensor, inputs: &[Var], op: Op) -> Var {
        let requires_grad = inputs.iter().any(|v| self.nodes[v.0].requires_grad);
        self.nodes.push(Node {
            value,
            requires_grad,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Registers a constant input (no gradient tracked).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, &[], Op::Leaf)
    }

    /// Registers a trainable parameter (gradient tracked).
    pub fn param(&mut self, value: Tensor) -> Var {
        let v = self.push(value, &[], Op::Leaf);
        self.nodes[v.0].requires_grad = true;
        v
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of the last [`Graph::backward`] loss with respect to `v`,
    /// or `None` if `v` does not require grad or was unreachable.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Element-wise sum of two same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, &[a, b], Op::Add(a, b))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        self.push(value, &[a, b], Op::Mul(a, b))
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.push(value, &[a], Op::Scale(a, s))
    }

    /// Adds tensor `b` whose shape is a trailing suffix of `a`'s shape,
    /// broadcasting `b` over the leading dimensions of `a`. Covers bias
    /// addition (`[d]` onto `[.., d]`) and attention masks (`[t, t]` onto
    /// `[b, h, t, t]`).
    pub fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        let va = self.value(a);
        let vb = self.value(b);
        assert!(
            is_trailing_of(vb.shape(), va.shape()),
            "add_bcast: {:?} is not a trailing suffix of {:?}",
            vb.shape(),
            va.shape()
        );
        let chunk = numel(vb.shape());
        let rows = va.len() / chunk.max(1);
        let value = va
            .reshape(&[rows, chunk])
            .add_row_broadcast(&vb.reshape(&[chunk]))
            .reshape(va.shape());
        self.push(value, &[a, b], Op::AddBcast(a, b))
    }

    /// Batched product of two activations with the same batch dimensions
    /// ([`Tensor::matmul`]); a weight goes through [`Graph::matmul_panels`].
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, &[a, b], Op::Matmul(a, b))
    }

    /// `x · W` for a `[d_in, d_out]` weight `w` in decode panel order
    /// ([`Tensor::matmul_panels`]); its gradient comes back in that order.
    pub fn matmul_panels(&mut self, x: Var, w: Var) -> Var {
        let value = self.value(x).matmul_panels(self.value(w));
        self.push(value, &[x, w], Op::MatmulPanels(x, w))
    }

    /// Swaps two axes.
    pub fn transpose(&mut self, a: Var, d0: usize, d1: usize) -> Var {
        let value = self.value(a).transpose(d0, d1);
        self.push(value, &[a], Op::Transpose(a, d0, d1))
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let value = self.value(a).reshape(shape);
        self.push(value, &[a], Op::Reshape(a))
    }

    /// Softmax over the last dimension.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_last();
        self.push(value, &[a], Op::SoftmaxLast(a))
    }

    /// GELU activation: the lane-wise kernel, forward and backward.
    pub fn gelu(&mut self, a: Var) -> Var {
        let value = self
            .value(a)
            .map_blocks(|_, block| crate::kernels::gelu_in_place(block));
        self.push(value, &[a], Op::Gelu(a))
    }

    /// Hyperbolic tangent activation.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, &[a], Op::Tanh(a))
    }

    /// Layer normalization over the last dimension with learnable `gain` and
    /// `bias` (both shape `[d]`).
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let vx = self.value(x);
        let vgain = self.value(gain);
        let vbias = self.value(bias);
        let d = *vx.shape().last().expect("layer_norm requires rank >= 1");
        assert_eq!(vgain.shape(), [d], "layer_norm gain must be [{d}]");
        assert_eq!(vbias.shape(), [d], "layer_norm bias must be [{d}]");

        let rows = vx.len() / d;
        let min_rows = (ROW_MIN_ELEMS / d.max(1)).max(1);
        let mut xhat = vec![0.0f32; vx.len()];
        let mut inv_std = vec![0.0f32; rows];
        crate::pool::parallel_rows_mut2(
            &mut xhat,
            &mut inv_std,
            rows.max(1),
            min_rows,
            |first, xh_block, istd_block| {
                for (r, (xh, istd)) in xh_block
                    .chunks_mut(d)
                    .zip(istd_block.iter_mut())
                    .enumerate()
                {
                    let row = &vx.data()[(first + r) * d..(first + r + 1) * d];
                    let mean = row.iter().sum::<f32>() / d as f32;
                    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                    *istd = 1.0 / (var + eps).sqrt();
                    for (o, &v) in xh.iter_mut().zip(row.iter()) {
                        *o = (v - mean) * *istd;
                    }
                }
            },
        );
        let mut out = vec![0.0f32; vx.len()];
        {
            let xhat = &xhat;
            crate::pool::parallel_rows_mut(&mut out, rows.max(1), min_rows, |first, block| {
                for (r, orow) in block.chunks_mut(d).enumerate() {
                    let xrow = &xhat[(first + r) * d..(first + r + 1) * d];
                    for j in 0..d {
                        orow[j] = xrow[j] * vgain.data()[j] + vbias.data()[j];
                    }
                }
            });
        }
        let value = Tensor::new(vx.shape().to_vec(), out);
        let xhat = Tensor::new(vx.shape().to_vec(), xhat);
        let op = Op::LayerNorm {
            x,
            gain,
            bias,
            xhat,
            inv_std,
        };
        self.push(value, &[x, gain, bias], op)
    }

    /// Gathers rows of `table` (shape `[v, d]`) at `ids`, producing
    /// `[ids.len(), d]`. The backward pass scatter-adds into the table.
    pub fn embedding(&mut self, table: Var, ids: &[usize]) -> Var {
        let vt = self.value(table);
        assert_eq!(vt.rank(), 2, "embedding table must be rank 2");
        let (v, d) = (vt.shape()[0], vt.shape()[1]);
        let mut out = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(id < v, "embedding id {id} out of range (vocab {v})");
            out.extend_from_slice(&vt.data()[id * d..(id + 1) * d]);
        }
        let value = Tensor::new(vec![ids.len(), d], out);
        self.push(value, &[table], Op::Embedding(table, ids.to_vec()))
    }

    /// Selects one row per batch from `x` of shape `[b, t, d]`, producing
    /// `[b, d]`. Used to pick the `[CLS]` position or the last token for
    /// classification heads.
    pub fn select_positions(&mut self, x: Var, positions: &[usize]) -> Var {
        let vx = self.value(x);
        assert_eq!(vx.rank(), 3, "select_positions expects [b, t, d]");
        let (b, t, d) = (vx.shape()[0], vx.shape()[1], vx.shape()[2]);
        assert_eq!(positions.len(), b, "one position per batch row required");
        let mut out = Vec::with_capacity(b * d);
        for (i, &p) in positions.iter().enumerate() {
            assert!(p < t, "position {p} out of range (seq len {t})");
            let off = i * t * d + p * d;
            out.extend_from_slice(&vx.data()[off..off + d]);
        }
        let value = Tensor::new(vec![b, d], out);
        self.push(value, &[x], Op::SelectPositions(x, positions.to_vec()))
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = self.value(a).mean_all();
        self.push(value, &[a], Op::MeanAll(a))
    }

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = self.value(a).sum_all();
        self.push(value, &[a], Op::SumAll(a))
    }

    /// Inverted dropout with keep-probability `1 - p`. `mask` must contain
    /// one pre-drawn uniform sample in `[0, 1)` per element; passing the
    /// randomness in keeps the graph deterministic and testable.
    pub fn dropout(&mut self, a: Var, p: f32, mask: &[f32]) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let vx = self.value(a);
        assert_eq!(mask.len(), vx.len(), "dropout mask length mismatch");
        if p == 0.0 {
            return a;
        }
        let scale = 1.0 / (1.0 - p);
        let keep: Vec<f32> = mask
            .iter()
            .map(|&u| if u < p { 0.0 } else { scale })
            .collect();
        let keep = Tensor::new(vx.shape().to_vec(), keep);
        let value = vx.mul(&keep);
        self.push(value, &[a], Op::Dropout(a, keep))
    }

    /// Mean cross-entropy between `logits` (shape `[n, v]`) and integer
    /// `targets` (length `n`). Positions whose target equals
    /// [`IGNORE_INDEX`] contribute neither loss nor gradient.
    ///
    /// Returns a scalar. When every target is ignored, the loss is 0.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let vl = self.value(logits);
        assert_eq!(vl.rank(), 2, "cross_entropy expects [n, v] logits");
        let (n, v) = (vl.shape()[0], vl.shape()[1]);
        assert_eq!(targets.len(), n, "one target per logit row required");
        let log_probs = vl.log_softmax_last();
        let mut count = 0usize;
        let mut loss = 0.0f32;
        for (row, &t) in log_probs.data().chunks(v).zip(targets.iter()) {
            if t == IGNORE_INDEX {
                continue;
            }
            assert!(t < v, "target {t} out of range (vocab {v})");
            loss -= row[t];
            count += 1;
        }
        let value = Tensor::scalar(if count == 0 { 0.0 } else { loss / count as f32 });
        let op = Op::CrossEntropy(logits, targets.to_vec());
        self.push(value, &[logits], op)
    }

    /// Runs the reverse sweep from `loss` (which must be scalar), populating
    /// gradients for every reachable node that requires one.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).len(),
            1,
            "backward requires a scalar loss, got shape {:?}",
            self.value(loss).shape()
        );
        self.grads = vec![None; self.nodes.len()];
        self.grads[loss.0] = Some(Tensor::scalar(1.0));
        let nodes = &self.nodes;
        let val = |v: &Var| &nodes[v.0].value;
        for (i, node) in nodes.iter().enumerate().rev() {
            // Inputs precede their node on the tape, so every slot this
            // node writes lies below its own.
            let (slots, this) = self.grads.split_at_mut(i);
            let Some(g) = &this[0] else { continue };
            let mut to = Parents { nodes, slots };
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    to.add(a, || g.clone());
                    to.add(b, || g.clone());
                }
                Op::Mul(a, b) => {
                    to.add(a, || g.mul(val(b)));
                    to.add(b, || g.mul(val(a)));
                }
                Op::Scale(a, s) => to.add(a, || g.scale(*s)),
                Op::AddBcast(a, b) => {
                    to.add(a, || g.clone());
                    to.add(b, || {
                        let chunk = numel(val(b).shape());
                        let rows = g.len() / chunk.max(1);
                        let row = g.reshape(&[rows, chunk]).sum_to_row(chunk);
                        row.reshape(val(b).shape())
                    });
                }
                Op::Matmul(a, b) => {
                    // dA = dC @ B^T and dB = A^T @ dC, without materializing
                    // either transpose.
                    to.add(a, || g.matmul_bt(val(b)));
                    to.add(b, || val(a).matmul_tn(g));
                }
                Op::MatmulPanels(x, w) => {
                    to.add(x, || g.matmul_panels_bt(val(w)));
                    to.add(w, || val(x).matmul_tn_panels(g));
                }
                Op::Transpose(a, d0, d1) => to.add(a, || g.transpose(*d0, *d1)),
                Op::Reshape(a) => to.add(a, || g.reshape(val(a).shape())),
                Op::SoftmaxLast(a) => to.add(a, || softmax_backward(g, &node.value)),
                Op::Gelu(a) => to.add(a, || {
                    let x = val(a).data();
                    g.map_blocks(|first, dy| {
                        crate::kernels::gelu_grad_scale(dy, &x[first..first + dy.len()]);
                    })
                }),
                Op::Tanh(a) => to.add(a, || g.zip(&node.value, |gi, yi| gi * (1.0 - yi * yi))),
                Op::LayerNorm {
                    x,
                    gain,
                    bias,
                    xhat,
                    inv_std,
                } => {
                    to.add(x, || layer_norm_dx(g, xhat, inv_std, val(gain)));
                    let d = val(gain).len();
                    to.add(gain, || g.mul(xhat).sum_to_row(d));
                    to.add(bias, || g.sum_to_row(d));
                }
                Op::Embedding(table, ids) => to.add(table, || {
                    let (v, d) = (val(table).shape()[0], val(table).shape()[1]);
                    let mut dt = vec![0.0f32; v * d];
                    for (row, &id) in g.data().chunks(d).zip(ids.iter()) {
                        for (o, &x) in dt[id * d..(id + 1) * d].iter_mut().zip(row.iter()) {
                            *o += x;
                        }
                    }
                    Tensor::new(vec![v, d], dt)
                }),
                Op::SelectPositions(x, positions) => to.add(x, || {
                    let shape = val(x).shape();
                    let (t, d) = (shape[1], shape[2]);
                    let mut dx = vec![0.0f32; numel(shape)];
                    for (i, &p) in positions.iter().enumerate() {
                        let off = i * t * d + p * d;
                        dx[off..off + d].copy_from_slice(&g.data()[i * d..(i + 1) * d]);
                    }
                    Tensor::new(shape.to_vec(), dx)
                }),
                Op::MeanAll(a) => to.add(a, || {
                    let shape = val(a).shape();
                    Tensor::full(shape, g.item() / numel(shape).max(1) as f32)
                }),
                Op::SumAll(a) => to.add(a, || Tensor::full(val(a).shape(), g.item())),
                Op::Dropout(a, keep) => to.add(a, || g.mul(keep)),
                Op::CrossEntropy(logits, targets) => {
                    to.add(logits, || cross_entropy_backward(g, val(logits), targets));
                }
            }
        }
    }
}

/// The gradient slots below the node being swept, where its inputs live.
struct Parents<'a> {
    nodes: &'a [Node],
    slots: &'a mut [Option<Tensor>],
}

impl Parents<'_> {
    /// Accumulates the gradient `grad` computes into `p`, computing it only
    /// if `p` requires one.
    fn add(&mut self, p: &Var, grad: impl FnOnce() -> Tensor) {
        if !self.nodes[p.0].requires_grad {
            return;
        }
        let pg = grad();
        match &mut self.slots[p.0] {
            Some(acc) => acc.add_scaled_assign(&pg, 1.0),
            slot @ None => *slot = Some(pg),
        }
    }
}

/// Softmax's input gradient from its output `y`: `(g - <g, y>) * y` per row.
fn softmax_backward(g: &Tensor, y: &Tensor) -> Tensor {
    let d = *y.shape().last().unwrap();
    let rows = g.len() / d.max(1);
    let mut out = vec![0.0f32; g.len()];
    crate::pool::parallel_rows_mut(
        &mut out,
        rows.max(1),
        (ROW_MIN_ELEMS / d.max(1)).max(1),
        |first, block| {
            for (r, orow) in block.chunks_mut(d).enumerate() {
                let off = (first + r) * d;
                let grow = &g.data()[off..off + d];
                let yrow = &y.data()[off..off + d];
                let dot: f32 = grow.iter().zip(yrow.iter()).map(|(&a, &b)| a * b).sum();
                for ((o, &gi), &yi) in orow.iter_mut().zip(grow.iter()).zip(yrow.iter()) {
                    *o = (gi - dot) * yi;
                }
            }
        },
    );
    Tensor::new(y.shape().to_vec(), out)
}

/// Layer norm's input gradient from the normalized rows `xhat` and each
/// row's `1 / std`.
fn layer_norm_dx(g: &Tensor, xhat: &Tensor, inv_std: &[f32], gain: &Tensor) -> Tensor {
    let d = gain.len();
    let rows = g.len() / d;
    let mut dx = vec![0.0f32; g.len()];
    crate::pool::parallel_rows_mut(
        &mut dx,
        rows.max(1),
        (ROW_MIN_ELEMS / d.max(1)).max(1),
        |first, block| {
            for (r, dxrow) in block.chunks_mut(d).enumerate() {
                let off = (first + r) * d;
                let grow = &g.data()[off..off + d];
                let xrow = &xhat.data()[off..off + d];
                let istd = inv_std[first + r];
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                for j in 0..d {
                    let dxhat = grow[j] * gain.data()[j];
                    sum_dxhat += dxhat;
                    sum_dxhat_xhat += dxhat * xrow[j];
                }
                let inv_d = 1.0 / d as f32;
                for j in 0..d {
                    let dxhat = grow[j] * gain.data()[j];
                    dxrow[j] =
                        istd * (dxhat - inv_d * sum_dxhat - inv_d * xrow[j] * sum_dxhat_xhat);
                }
            }
        },
    );
    Tensor::new(xhat.shape().to_vec(), dx)
}

/// Cross-entropy's logit gradient: `softmax(logits) - onehot(target)` per
/// counted row, times the loss gradient over the counted rows.
fn cross_entropy_backward(g: &Tensor, logits: &Tensor, targets: &[usize]) -> Tensor {
    let v = logits.shape()[1];
    let mut dl = vec![0.0f32; logits.len()];
    let count = targets.iter().filter(|&&t| t != IGNORE_INDEX).count();
    if count > 0 {
        let probs = logits.softmax_last();
        let scale = g.item() / count as f32;
        for (i, &t) in targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            let row = &probs.data()[i * v..(i + 1) * v];
            let drow = &mut dl[i * v..(i + 1) * v];
            for (o, &p) in drow.iter_mut().zip(row.iter()) {
                *o = p * scale;
            }
            drow[t] -= scale;
        }
    }
    Tensor::new(logits.shape().to_vec(), dl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;
    use std::collections::BTreeSet;

    fn sample(shape: &[usize]) -> Tensor {
        // Deterministic, irregular values avoiding symmetry.
        let n = numel(shape);
        let data = (0..n)
            .map(|i| ((i as f32 * 0.7).sin() * 0.9) + 0.05 * i as f32 % 0.3)
            .collect();
        Tensor::new(shape.to_vec(), data)
    }

    /// The variant's name as written in `enum Op`. No `_` arm, so a new
    /// variant must be named here, and then
    /// `every_op_matches_central_differences` fails until it has a case.
    fn name(op: &Op) -> &'static str {
        match op {
            Op::Leaf => "Leaf",
            Op::Add(..) => "Add",
            Op::Mul(..) => "Mul",
            Op::Scale(..) => "Scale",
            Op::AddBcast(..) => "AddBcast",
            Op::Matmul(..) => "Matmul",
            Op::MatmulPanels(..) => "MatmulPanels",
            Op::Transpose(..) => "Transpose",
            Op::Reshape(..) => "Reshape",
            Op::SoftmaxLast(..) => "SoftmaxLast",
            Op::Gelu(..) => "Gelu",
            Op::Tanh(..) => "Tanh",
            Op::LayerNorm { .. } => "LayerNorm",
            Op::Embedding(..) => "Embedding",
            Op::SelectPositions(..) => "SelectPositions",
            Op::MeanAll(..) => "MeanAll",
            Op::SumAll(..) => "SumAll",
            Op::Dropout(..) => "Dropout",
            Op::CrossEntropy(..) => "CrossEntropy",
        }
    }

    /// Every variant declared in `enum Op`, read from this file's source.
    fn declared_ops() -> BTreeSet<&'static str> {
        let src = include_str!("graph.rs");
        let body = src.split("\nenum Op {").nth(1).expect("enum Op");
        body[..body.find("\n}").expect("end of enum Op")]
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
            .map(|l| {
                l.split(|c: char| !c.is_ascii_alphanumeric())
                    .next()
                    .unwrap()
            })
            .collect()
    }

    /// Perturbation and tolerance of the central-difference oracle.
    const EPS: f32 = 1e-3;
    const TOL: f64 = 2e-3;

    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    fn uniform(rng: &mut TestRng, shape: &[usize], lo: f64, hi: f64) -> Tensor {
        let data = (0..numel(shape))
            .map(|_| (lo + (hi - lo) * rng.unit_f64()) as f32)
            .collect();
        Tensor::new(shape.to_vec(), data)
    }

    /// A shape of rank `lo..=hi` with every dimension in `1..=3`.
    fn dims(rng: &mut TestRng, lo: usize, hi: usize) -> Vec<usize> {
        let rank = lo + below(rng, hi - lo + 1);
        (0..rank).map(|_| 1 + below(rng, 3)).collect()
    }

    /// Builds `op` over leaves holding `inputs` (each a param, or at random
    /// a constant), backpropagates `sum_all(op(..) * r)` for a fixed random
    /// `r`, and checks every param's gradient against a central difference
    /// and every constant for no gradient. Returns the name of the op.
    fn check(
        rng: &mut TestRng,
        inputs: &[Tensor],
        op: impl Fn(&mut Graph, &[Var]) -> Var,
    ) -> &'static str {
        let wants: Vec<bool> = inputs.iter().map(|_| below(rng, 4) != 0).collect();
        let forward = |inputs: &[Tensor]| {
            let mut g = Graph::new();
            let vars: Vec<Var> = inputs
                .iter()
                .zip(&wants)
                .map(|(t, &w)| {
                    if w {
                        g.param(t.clone())
                    } else {
                        g.input(t.clone())
                    }
                })
                .collect();
            let out = op(&mut g, &vars);
            (g, vars, out)
        };
        let (mut g, vars, out) = forward(inputs);
        let op_name = name(&g.nodes[out.0].op);
        let r = uniform(rng, g.value(out).shape(), -1.0, 1.0);
        let rv = g.input(r.clone());
        let weighted = g.mul(out, rv);
        let loss = g.sum_all(weighted);
        g.backward(loss);
        for (i, (&var, &w)) in vars.iter().zip(&wants).enumerate() {
            let Some(grad) = g.grad(var) else {
                assert!(!w, "{op_name}: param {i} got no gradient");
                continue;
            };
            assert!(w, "{op_name}: constant {i} got a gradient");
            for j in 0..inputs[i].len() {
                // The loss difference is taken per output element in f64,
                // so summing the loss adds no cancellation error.
                let at = |x: f32| {
                    let mut moved = inputs.to_vec();
                    moved[i].data_mut()[j] = x;
                    let (g, _, out) = forward(&moved);
                    g.value(out).clone()
                };
                let x = inputs[i].data()[j];
                let (hi, lo) = (x + EPS, x - EPS);
                let (plus, minus) = (at(hi), at(lo));
                let dloss: f64 = (plus.data().iter().zip(minus.data()))
                    .zip(r.data())
                    .map(|((&p, &m), &r)| (f64::from(p) - f64::from(m)) * f64::from(r))
                    .sum();
                let fd = dloss / f64::from(hi - lo);
                let a = grad.data()[j];
                assert!(
                    (f64::from(a) - fd).abs() < TOL,
                    "{op_name}: d loss / d input{i}[{j}] of {:?}: analytic {a}, central difference {fd}",
                    inputs[i].shape()
                );
            }
        }
        op_name
    }

    fn draw(rng: &mut TestRng, shape: &[usize]) -> Tensor {
        uniform(rng, shape, -1.5, 1.5)
    }

    /// [`draw`] at a shape from [`dims`].
    fn draw_dims(rng: &mut TestRng, lo: usize, hi: usize) -> Tensor {
        let shape = dims(rng, lo, hi);
        draw(rng, &shape)
    }

    /// Case `kind` of the oracle: one op on random shapes and values.
    fn case(kind: usize, rng: &mut TestRng) -> &'static str {
        match kind {
            0 | 1 => {
                // Add or Mul; one input half the time, read twice.
                let shape = dims(rng, 0, 4);
                let inputs: Vec<Tensor> =
                    (0..1 + below(rng, 2)).map(|_| draw(rng, &shape)).collect();
                let mul = kind == 1;
                check(rng, &inputs, |g, v| {
                    let (a, b) = (v[0], v[v.len() - 1]);
                    if mul {
                        g.mul(a, b)
                    } else {
                        g.add(a, b)
                    }
                })
            }
            2 => {
                let x = draw_dims(rng, 0, 4);
                let s = uniform(rng, &[], -2.0, 2.0).item();
                check(rng, &[x], |g, v| g.scale(v[0], s))
            }
            3 => {
                let shape = dims(rng, 1, 4);
                let suffix = below(rng, shape.len() + 1);
                let x = draw(rng, &shape);
                let b = draw(rng, &shape[shape.len() - suffix..]);
                check(rng, &[x, b], |g, v| g.add_bcast(v[0], v[1]))
            }
            4 => {
                let sa = dims(rng, 2, 4);
                let n = 1 + below(rng, 3);
                let k = sa[sa.len() - 1];
                let mut sb = sa.clone();
                *sb.last_mut().unwrap() = n;
                sb[sa.len() - 2] = k;
                let (a, b) = (draw(rng, &sa), draw(rng, &sb));
                check(rng, &[a, b], |g, v| g.matmul(v[0], v[1]))
            }
            5 => {
                let shape = dims(rng, 1, 4);
                let (d0, d1) = (below(rng, shape.len()), below(rng, shape.len()));
                let x = draw(rng, &shape);
                check(rng, &[x], |g, v| g.transpose(v[0], d0, d1))
            }
            6 => {
                let shape = dims(rng, 0, 4);
                let mut to = shape.clone();
                to.reverse();
                if below(rng, 2) == 0 {
                    to = vec![numel(&shape)];
                }
                let x = draw(rng, &shape);
                check(rng, &[x], |g, v| g.reshape(v[0], &to))
            }
            7 => {
                let x = draw_dims(rng, 1, 4);
                check(rng, &[x], |g, v| g.softmax_last(v[0]))
            }
            8 => {
                let shape = dims(rng, 0, 4);
                let x = uniform(rng, &shape, -3.0, 3.0);
                check(rng, &[x], |g, v| g.gelu(v[0]))
            }
            9 => {
                let x = draw_dims(rng, 0, 4);
                check(rng, &[x], |g, v| g.tanh(v[0]))
            }
            10 => {
                let mut shape = dims(rng, 0, 2);
                let d = 2 + below(rng, 4);
                shape.push(d);
                // A ramp along each row keeps its spread from vanishing.
                let mut x = uniform(rng, &shape, -0.2, 0.2);
                for (j, xi) in x.data_mut().iter_mut().enumerate() {
                    *xi += 0.6 * (j % d) as f32;
                }
                let gain = uniform(rng, &[d], 0.5, 1.5);
                let bias = draw(rng, &[d]);
                check(rng, &[x, gain, bias], |g, v| {
                    g.layer_norm(v[0], v[1], v[2], 1e-5)
                })
            }
            11 => {
                let (vocab, d) = (1 + below(rng, 5), 1 + below(rng, 3));
                let ids: Vec<usize> = (0..1 + below(rng, 6)).map(|_| below(rng, vocab)).collect();
                let table = draw(rng, &[vocab, d]);
                check(rng, &[table], |g, v| g.embedding(v[0], &ids))
            }
            12 => {
                let shape = [1 + below(rng, 3), 1 + below(rng, 4), 1 + below(rng, 3)];
                let positions: Vec<usize> = (0..shape[0]).map(|_| below(rng, shape[1])).collect();
                let x = draw(rng, &shape);
                check(rng, &[x], |g, v| g.select_positions(v[0], &positions))
            }
            13 => {
                let x = draw_dims(rng, 0, 4);
                check(rng, &[x], |g, v| g.mean_all(v[0]))
            }
            14 => {
                let x = draw_dims(rng, 0, 4);
                check(rng, &[x], |g, v| g.sum_all(v[0]))
            }
            15 => {
                let shape = dims(rng, 0, 4);
                let p = uniform(rng, &[], 0.1, 0.8).item();
                let mask = uniform(rng, &shape, 0.0, 1.0);
                let x = draw(rng, &shape);
                check(rng, &[x], |g, v| g.dropout(v[0], p, mask.data()))
            }
            16 => {
                let (n, vocab) = (1 + below(rng, 4), 1 + below(rng, 5));
                let targets: Vec<usize> = (0..n)
                    .map(|_| match below(rng, 4) {
                        0 => IGNORE_INDEX,
                        _ => below(rng, vocab),
                    })
                    .collect();
                let logits = draw(rng, &[n, vocab]);
                check(rng, &[logits], |g, v| g.cross_entropy(v[0], &targets))
            }
            17 => {
                // Up to two column blocks and every tail width, with
                // the weight's values drawn straight into panel order.
                let mut sx = dims(rng, 0, 3);
                let (d_in, d_out) = (1 + below(rng, 3), 1 + below(rng, 20));
                sx.push(d_in);
                let (x, w) = (draw(rng, &sx), draw(rng, &[d_in, d_out]));
                check(rng, &[x, w], |g, v| g.matmul_panels(v[0], v[1]))
            }
            _ => unreachable!("no case {kind}"),
        }
    }

    /// ROADMAP 3b: every op on the tape against central differences, on
    /// random shapes in every rank it accepts. Cases cycle through the ops,
    /// so every `PROPTEST_CASES` run reaches each of them.
    #[test]
    fn every_op_matches_central_differences() {
        const KINDS: usize = 18;
        let mut rng = TestRng::for_test("graph::every_op_matches_central_differences");
        let mut drawn = BTreeSet::new();
        for case_no in 0..proptest::cases().max(KINDS as u32) {
            drawn.insert(case(case_no as usize % KINDS, &mut rng));
        }
        let mut declared = declared_ops();
        declared.remove("Leaf");
        assert_eq!(drawn, declared, "every op needs a case");
    }

    /// Central finite-difference check of a whole chain of ops: perturb each
    /// element of `x0` and compare the numeric derivative of `f` with the
    /// autograd gradient. (Single ops are `every_op_matches_central_differences`'s.)
    fn check_grad(x0: Tensor, f: impl Fn(&mut Graph, Var) -> Var, tol: f32) {
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let loss = f(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("gradient must exist").clone();

        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;
            let eval = |t: Tensor| {
                let mut g = Graph::new();
                let x = g.param(t);
                let loss = f(&mut g, x);
                g.value(loss).item()
            };
            let fd = (eval(plus) - eval(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!((a - fd).abs() < tol, "grad[{i}]: analytic {a} vs fd {fd}");
        }
    }

    #[test]
    fn grad_matmul_both_sides() {
        // loss = sum((x @ w) * (x @ w)) exercises dA and dB.
        check_grad(
            sample(&[2, 3]),
            |g, x| {
                let w = g.param(sample(&[3, 4]));
                let y = g.matmul(x, w);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_reshape_transpose_roundtrip() {
        check_grad(
            sample(&[2, 3]),
            |g, x| {
                let y = g.transpose(x, 0, 1);
                let z = g.reshape(y, &[6]);
                let z2 = g.mul(z, z);
                g.sum_all(z2)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_of_sum_is_ones() {
        let mut g = Graph::new();
        let x = g.param(sample(&[2, 3]));
        let s = g.sum_all(x);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0; 6]);
    }

    /// `MatmulPanels` over a panel-order weight is 2-D `Matmul` over the
    /// row-major one on `x` reshaped to rows, bit for bit: value, input
    /// gradient and weight gradient (unpacked), with no column block, one
    /// and a tail, and two.
    #[test]
    fn matmul_panels_is_matmul_on_the_row_major_weight() {
        use crate::kernels::{pack_panels, unpack_panels};
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for d_out in [5, 11, 16] {
            let (x0, w0) = (sample(&[2, 3, 7]), sample(&[7, d_out]));
            let r = sample(&[2, 3, d_out]).scale(-0.3);
            let run = |panels: bool| {
                let mut g = Graph::new();
                let x = g.param(x0.clone());
                let w = if panels {
                    let mut p = vec![0.0; w0.len()];
                    pack_panels(w0.data(), 7, d_out, &mut p);
                    g.param(Tensor::new(vec![7, d_out], p))
                } else {
                    g.param(w0.clone())
                };
                let y = if panels {
                    g.matmul_panels(x, w)
                } else {
                    let rows = g.reshape(x, &[6, 7]);
                    let y = g.matmul(rows, w);
                    g.reshape(y, &[2, 3, d_out])
                };
                let rv = g.input(r.clone());
                let weighted = g.mul(y, rv);
                let loss = g.sum_all(weighted);
                g.backward(loss);
                let mut dw = g.grad(w).unwrap().data().to_vec();
                if panels {
                    unpack_panels(g.grad(w).unwrap().data(), 7, d_out, &mut dw);
                }
                let dw = Tensor::new(vec![7, d_out], dw);
                [g.value(y), g.grad(x).unwrap(), &dw].map(bits)
            };
            assert_eq!(run(true), run(false), "d_out {d_out}");
        }
    }

    #[test]
    fn grad_embedding_scatters() {
        let mut g = Graph::new();
        let table = g.param(sample(&[5, 3]));
        let out = g.embedding(table, &[1, 1, 4]);
        let s = g.sum_all(out);
        g.backward(s);
        let gt = g.grad(table).unwrap();
        // Row 1 used twice, row 4 once, others unused.
        assert_eq!(&gt.data()[0..3], &[0.0; 3]);
        assert_eq!(&gt.data()[3..6], &[2.0; 3]);
        assert_eq!(&gt.data()[12..15], &[1.0; 3]);
    }

    #[test]
    fn cross_entropy_ignores_all_is_zero() {
        let mut g = Graph::new();
        let x = g.param(sample(&[2, 4]));
        let loss = g.cross_entropy(x, &[IGNORE_INDEX, IGNORE_INDEX]);
        assert_eq!(g.value(loss).item(), 0.0);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0; 8]);
    }

    #[test]
    fn grad_select_positions() {
        let mut g = Graph::new();
        let x = g.param(sample(&[2, 3, 2]));
        let sel = g.select_positions(x, &[0, 2]);
        assert_eq!(g.value(sel).shape(), &[2, 2]);
        let s = g.sum_all(sel);
        g.backward(s);
        let gx = g.grad(x).unwrap();
        // Only (batch 0, pos 0) and (batch 1, pos 2) receive gradient.
        assert_eq!(gx.data()[0..2], [1.0, 1.0]);
        assert_eq!(gx.data()[2..10], [0.0; 8]);
        assert_eq!(gx.data()[10..12], [1.0, 1.0]);
    }

    #[test]
    fn grad_add_bcast_bias() {
        let mut g = Graph::new();
        let x = g.param(sample(&[2, 3]));
        let b = g.param(Tensor::from_vec(vec![0.1, 0.2, 0.3]));
        let y = g.add_bcast(x, b);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0, 2.0]);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn grad_mean_all() {
        let mut g = Graph::new();
        let x = g.param(sample(&[4]));
        let m = g.mean_all(x);
        g.backward(m);
        assert_eq!(g.grad(x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut g = Graph::new();
        let x = g.param(sample(&[4]));
        let y = g.dropout(x, 0.0, &[0.5; 4]);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_scales_kept_elements() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0]));
        // mask values below p are dropped.
        let y = g.dropout(x, 0.5, &[0.1, 0.9, 0.2, 0.8]);
        assert_eq!(g.value(y).data(), &[0.0, 2.0, 0.0, 2.0]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 2.0, 0.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_across_uses() {
        // x used twice: loss = sum(x) + sum(x) -> grad 2.
        let mut g = Graph::new();
        let x = g.param(sample(&[3]));
        let a = g.sum_all(x);
        let b = g.sum_all(x);
        let loss = g.add(a, b);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[2.0; 3]);
    }

    #[test]
    fn no_grad_for_inputs() {
        let mut g = Graph::new();
        let x = g.input(sample(&[3]));
        let s = g.sum_all(x);
        g.backward(s);
        assert!(g.grad(x).is_none());
    }
}
