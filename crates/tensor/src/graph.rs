//! Reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape: every operation appends a node holding the forward
//! value and a closure that maps the node's output gradient to gradients for
//! its parents. Because nodes are appended in topological order, the backward
//! pass is a single reverse sweep.
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

/// Minimum elements per chunk for broadcast add / reduce passes.
const BCAST_MIN_ELEMS: usize = 16_384;

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    requires_grad: bool,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
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

    /// Number of recorded nodes (useful for memory diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn push(&mut self, node: Node) -> Var {
        self.nodes.push(node);
        Var(self.nodes.len() - 1)
    }

    fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push(Node {
            value,
            requires_grad,
            parents: vec![],
            backward: None,
        })
    }

    /// Registers a constant input (no gradient tracked).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    /// Registers a trainable parameter (gradient tracked).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.leaf(value, true)
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

    fn unary(
        &mut self,
        parent: Var,
        value: Tensor,
        back: impl Fn(&Tensor) -> Tensor + 'static,
    ) -> Var {
        let requires_grad = self.nodes[parent.0].requires_grad;
        self.push(Node {
            value,
            requires_grad,
            parents: vec![parent.0],
            backward: requires_grad.then(|| -> BackwardFn { Box::new(move |g| vec![back(g)]) }),
        })
    }

    fn binary(
        &mut self,
        a: Var,
        b: Var,
        value: Tensor,
        back: impl Fn(&Tensor) -> (Tensor, Tensor) + 'static,
    ) -> Var {
        let requires_grad = self.nodes[a.0].requires_grad || self.nodes[b.0].requires_grad;
        self.push(Node {
            value,
            requires_grad,
            parents: vec![a.0, b.0],
            backward: requires_grad.then(|| -> BackwardFn {
                Box::new(move |g| {
                    let (ga, gb) = back(g);
                    vec![ga, gb]
                })
            }),
        })
    }

    /// Element-wise sum of two same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.binary(a, b, value, |g| (g.clone(), g.clone()))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.binary(a, b, value, |g| (g.clone(), g.scale(-1.0)))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let va = self.value(a).clone();
        let vb = self.value(b).clone();
        let value = va.mul(&vb);
        self.binary(a, b, value, move |g| (g.mul(&vb), g.mul(&va)))
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.unary(a, value, move |g| g.scale(s))
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
        let b_shape = vb.shape().to_vec();
        let mut out = va.data().to_vec();
        let reps = out.len() / chunk.max(1);
        {
            let vb_data = vb.data();
            crate::pool::parallel_rows_mut(
                &mut out,
                reps.max(1),
                (BCAST_MIN_ELEMS / chunk.max(1)).max(1),
                |_, block| {
                    for c in block.chunks_mut(chunk) {
                        for (o, &x) in c.iter_mut().zip(vb_data.iter()) {
                            *o += x;
                        }
                    }
                },
            );
        }
        let value = Tensor::new(va.shape().to_vec(), out);
        self.binary(a, b, value, move |g| {
            let mut gb = vec![0.0f32; chunk];
            // Column-parallel reduction: each column sums its repeats in
            // ascending order, matching the serial accumulation exactly.
            crate::pool::parallel_rows_mut(
                &mut gb,
                chunk,
                (BCAST_MIN_ELEMS / reps.max(1)).max(1),
                |first, block| {
                    for c in g.data().chunks(chunk) {
                        for (o, &x) in block.iter_mut().zip(c[first..].iter()) {
                            *o += x;
                        }
                    }
                },
            );
            (g.clone(), Tensor::new(b_shape.clone(), gb))
        })
    }

    /// Batched matrix product (see [`Tensor::matmul`] for accepted shapes).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let va = self.value(a).clone();
        let vb = self.value(b).clone();
        let value = va.matmul(&vb);
        let rhs_broadcast = vb.rank() == 2 && va.rank() > 2;
        self.binary(a, b, value, move |g| {
            // dA = dC @ B^T, without materializing the transpose.
            let ga = g.matmul_bt(&vb);
            // dB = A^T @ dC (summed over batch when B was broadcast)
            let gb = if rhs_broadcast {
                let k = *va.shape().last().unwrap();
                let n = *g.shape().last().unwrap();
                let rows = numel(va.shape()) / k;
                let a2 = va.reshape(&[rows, k]);
                let g2 = g.reshape(&[rows, n]);
                a2.matmul_tn_acc(&g2)
            } else {
                va.matmul_tn(g)
            };
            (ga, gb)
        })
    }

    /// Swaps two axes.
    pub fn transpose(&mut self, a: Var, d0: usize, d1: usize) -> Var {
        let value = self.value(a).transpose(d0, d1);
        self.unary(a, value, move |g| g.transpose(d0, d1))
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let old = self.value(a).shape().to_vec();
        let value = self.value(a).reshape(shape);
        self.unary(a, value, move |g| g.reshape(&old))
    }

    /// Softmax over the last dimension.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_last();
        let y = value.clone();
        self.unary(a, value, move |g| {
            let d = *y.shape().last().unwrap();
            let rows = g.data().len() / d.max(1);
            let mut out = vec![0.0f32; g.data().len()];
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
        })
    }

    /// GELU activation: the lane-wise kernel, forward and backward.
    pub fn gelu(&mut self, a: Var) -> Var {
        let x = self.value(a).clone();
        let value = x.map_blocks(|_, block| crate::kernels::gelu_in_place(block));
        self.unary(a, value, move |g| {
            g.map_blocks(|first, dy| {
                crate::kernels::gelu_grad_scale(dy, &x.data()[first..first + dy.len()]);
            })
        })
    }

    /// Hyperbolic tangent activation.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        let y = value.clone();
        self.unary(a, value, move |g| g.zip(&y, |gi, yi| gi * (1.0 - yi * yi)))
    }

    /// Layer normalization over the last dimension with learnable `gain` and
    /// `bias` (both shape `[d]`).
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let vx = self.value(x).clone();
        let vgain = self.value(gain).clone();
        let vbias = self.value(bias).clone();
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
        let shape = vx.shape().to_vec();

        let requires_grad = self.nodes[x.0].requires_grad
            || self.nodes[gain.0].requires_grad
            || self.nodes[bias.0].requires_grad;
        self.push(Node {
            value,
            requires_grad,
            parents: vec![x.0, gain.0, bias.0],
            backward: requires_grad.then(|| -> BackwardFn {
                Box::new(move |g| {
                    let rows = g.data().len() / d;
                    let min_rows = (ROW_MIN_ELEMS / d.max(1)).max(1);
                    let mut dx = vec![0.0f32; g.data().len()];
                    crate::pool::parallel_rows_mut(
                        &mut dx,
                        rows.max(1),
                        min_rows,
                        |first, block| {
                            for (r, dxrow) in block.chunks_mut(d).enumerate() {
                                let off = (first + r) * d;
                                let grow = &g.data()[off..off + d];
                                let xrow = &xhat.data()[off..off + d];
                                let istd = inv_std[first + r];
                                let mut sum_dxhat = 0.0f32;
                                let mut sum_dxhat_xhat = 0.0f32;
                                for j in 0..d {
                                    let dxhat = grow[j] * vgain.data()[j];
                                    sum_dxhat += dxhat;
                                    sum_dxhat_xhat += dxhat * xrow[j];
                                }
                                let inv_d = 1.0 / d as f32;
                                for j in 0..d {
                                    let dxhat = grow[j] * vgain.data()[j];
                                    dxrow[j] = istd
                                        * (dxhat
                                            - inv_d * sum_dxhat
                                            - inv_d * xrow[j] * sum_dxhat_xhat);
                                }
                            }
                        },
                    );
                    // Column-parallel: each column accumulates its rows in
                    // ascending order — the same order as a serial sweep.
                    let mut dgain = vec![0.0f32; d];
                    let mut dbias = vec![0.0f32; d];
                    crate::pool::parallel_rows_mut2(
                        &mut dgain,
                        &mut dbias,
                        d,
                        (ROW_MIN_ELEMS / rows.max(1)).max(1),
                        |first, gblock, bblock| {
                            for (grow, xrow) in g.data().chunks(d).zip(xhat.data().chunks(d)) {
                                for (j, (dg, db)) in
                                    gblock.iter_mut().zip(bblock.iter_mut()).enumerate()
                                {
                                    *dg += grow[first + j] * xrow[first + j];
                                    *db += grow[first + j];
                                }
                            }
                        },
                    );
                    vec![
                        Tensor::new(shape.clone(), dx),
                        Tensor::new(vec![d], dgain),
                        Tensor::new(vec![d], dbias),
                    ]
                })
            }),
        })
    }

    /// Gathers rows of `table` (shape `[v, d]`) at `ids`, producing
    /// `[ids.len(), d]`. The backward pass scatter-adds into the table.
    pub fn embedding(&mut self, table: Var, ids: &[usize]) -> Var {
        let vt = self.value(table).clone();
        assert_eq!(vt.rank(), 2, "embedding table must be rank 2");
        let (v, d) = (vt.shape()[0], vt.shape()[1]);
        let mut out = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(id < v, "embedding id {id} out of range (vocab {v})");
            out.extend_from_slice(&vt.data()[id * d..(id + 1) * d]);
        }
        let value = Tensor::new(vec![ids.len(), d], out);
        let ids = ids.to_vec();
        self.unary(table, value, move |g| {
            let mut dt = vec![0.0f32; v * d];
            for (row, &id) in g.data().chunks(d).zip(ids.iter()) {
                for (o, &x) in dt[id * d..(id + 1) * d].iter_mut().zip(row.iter()) {
                    *o += x;
                }
            }
            Tensor::new(vec![v, d], dt)
        })
    }

    /// Selects one row per batch from `x` of shape `[b, t, d]`, producing
    /// `[b, d]`. Used to pick the `[CLS]` position or the last token for
    /// classification heads.
    pub fn select_positions(&mut self, x: Var, positions: &[usize]) -> Var {
        let vx = self.value(x).clone();
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
        let positions = positions.to_vec();
        self.unary(x, value, move |g| {
            let mut dx = vec![0.0f32; b * t * d];
            for (i, &p) in positions.iter().enumerate() {
                let off = i * t * d + p * d;
                dx[off..off + d].copy_from_slice(&g.data()[i * d..(i + 1) * d]);
            }
            Tensor::new(vec![b, t, d], dx)
        })
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape().to_vec();
        let n = numel(&shape).max(1) as f32;
        let value = self.value(a).mean_all();
        self.unary(a, value, move |g| Tensor::full(&shape, g.item() / n))
    }

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape().to_vec();
        let value = self.value(a).sum_all();
        self.unary(a, value, move |g| Tensor::full(&shape, g.item()))
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
        self.unary(a, value, move |g| g.mul(&keep))
    }

    /// Mean cross-entropy between `logits` (shape `[n, v]`) and integer
    /// `targets` (length `n`). Positions whose target equals
    /// [`IGNORE_INDEX`] contribute neither loss nor gradient.
    ///
    /// Returns a scalar. When every target is ignored, the loss is 0.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let vl = self.value(logits).clone();
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
        let probs = vl.softmax_last();
        let targets = targets.to_vec();
        self.unary(logits, value, move |g| {
            let mut dl = vec![0.0f32; n * v];
            if count > 0 {
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
            Tensor::new(vec![n, v], dl)
        })
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
        for i in (0..self.nodes.len()).rev() {
            let Some(gout) = self.grads[i].clone() else {
                continue;
            };
            let Some(back) = self.nodes[i].backward.as_ref() else {
                continue;
            };
            let parent_grads = back(&gout);
            let parents = self.nodes[i].parents.clone();
            debug_assert_eq!(parent_grads.len(), parents.len());
            for (p, pg) in parents.into_iter().zip(parent_grads) {
                if !self.nodes[p].requires_grad {
                    continue;
                }
                match &mut self.grads[p] {
                    Some(acc) => acc.add_scaled_assign(&pg, 1.0),
                    slot @ None => *slot = Some(pg),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check: perturb each input element of `x0`
    /// and compare the numeric directional derivative of `f` with the
    /// autograd gradient.
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

    fn sample(shape: &[usize]) -> Tensor {
        // Deterministic, irregular values avoiding symmetry.
        let n = numel(shape);
        let data = (0..n)
            .map(|i| ((i as f32 * 0.7).sin() * 0.9) + 0.05 * i as f32 % 0.3)
            .collect();
        Tensor::new(shape.to_vec(), data)
    }

    #[test]
    fn grad_of_sum_is_ones() {
        let mut g = Graph::new();
        let x = g.param(sample(&[2, 3]));
        let s = g.sum_all(x);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn grad_add_mul() {
        check_grad(
            sample(&[2, 3]),
            |g, x| {
                let y = g.mul(x, x); // x^2
                let z = g.add(y, x); // x^2 + x
                g.sum_all(z)
            },
            1e-2,
        );
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
    fn grad_matmul_broadcast_weight() {
        let mut g = Graph::new();
        let x = g.input(sample(&[2, 3, 4]));
        let w = g.param(sample(&[4, 2]));
        let y = g.matmul(x, w);
        let s = g.sum_all(y);
        g.backward(s);
        let gw = g.grad(w).unwrap();
        assert_eq!(gw.shape(), &[4, 2]);
        // dW[p, j] = sum over all (batch, row) of x[.., p]; check one entry.
        let vx = g.value(x);
        let expected: f32 = (0..2)
            .flat_map(|b| (0..3).map(move |r| (b, r)))
            .map(|(b, r)| vx.data()[b * 12 + r * 4])
            .sum();
        assert!((gw.data()[0] - expected).abs() < 1e-4);
    }

    #[test]
    fn grad_softmax() {
        check_grad(
            sample(&[2, 4]),
            |g, x| {
                let y = g.softmax_last(x);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_gelu_relu_tanh() {
        check_grad(
            sample(&[6]),
            |g, x| {
                let y = g.gelu(x);
                g.sum_all(y)
            },
            1e-2,
        );
        check_grad(
            sample(&[6]),
            |g, x| {
                let y = g.tanh(x);
                g.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_layer_norm_all_inputs() {
        // Check x gradient.
        check_grad(
            sample(&[2, 4]),
            |g, x| {
                let gain = g.param(Tensor::full(&[4], 1.2));
                let bias = g.param(Tensor::full(&[4], -0.1));
                let y = g.layer_norm(x, gain, bias, 1e-5);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            3e-2,
        );
        // Check gain/bias gradients via finite differences on a fixed x.
        let x0 = sample(&[2, 4]);
        let run = |gain_val: Tensor, bias_val: Tensor| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let gain = g.param(gain_val);
            let bias = g.param(bias_val);
            let y = g.layer_norm(x, gain, bias, 1e-5);
            let y2 = g.mul(y, y);
            let loss = g.sum_all(y2);
            g.backward(loss);
            (
                g.value(loss).item(),
                g.grad(gain).unwrap().clone(),
                g.grad(bias).unwrap().clone(),
            )
        };
        let gain0 = Tensor::full(&[4], 1.1);
        let bias0 = Tensor::full(&[4], 0.2);
        let (_, dgain, dbias) = run(gain0.clone(), bias0.clone());
        let eps = 1e-3;
        for i in 0..4 {
            let mut gp = gain0.clone();
            gp.data_mut()[i] += eps;
            let mut gm = gain0.clone();
            gm.data_mut()[i] -= eps;
            let fd = (run(gp, bias0.clone()).0 - run(gm, bias0.clone()).0) / (2.0 * eps);
            assert!((dgain.data()[i] - fd).abs() < 3e-2);

            let mut bp = bias0.clone();
            bp.data_mut()[i] += eps;
            let mut bm = bias0.clone();
            bm.data_mut()[i] -= eps;
            let fd = (run(gain0.clone(), bp).0 - run(gain0.clone(), bm).0) / (2.0 * eps);
            assert!((dbias.data()[i] - fd).abs() < 3e-2);
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
    fn grad_cross_entropy() {
        check_grad(
            sample(&[3, 5]),
            |g, x| g.cross_entropy(x, &[0, 3, IGNORE_INDEX]),
            1e-2,
        );
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
