//! Parameter storage and optimizers.
//!
//! Parameters live in a [`ParamStore`] that persists across training steps;
//! each step re-registers them on a fresh [`crate::Graph`], runs backward,
//! and applies an optimizer to the collected gradients.

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(usize);

/// Reconstructs the [`ParamId`] for a registration index. Ids are assigned
/// densely in registration order, so this is safe for stores rebuilt with
/// an identical registration sequence (checkpoint restore).
pub fn param_id_for_index(i: usize) -> ParamId {
    ParamId(i)
}

/// A named collection of trainable tensors, each row-major or (registered
/// by [`ParamStore::add_panels`]) in the decode panel order
/// [`Graph::matmul_panels`] reads. Tape and optimizer keep each order; the
/// store is the one place that knows it, and translates.
#[derive(Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    panels: Vec<bool>,
}

/// A row-major `[d_in, d_out]` weight in decode panel order.
fn packed(w: &Tensor) -> Tensor {
    let mut out = vec![0.0; w.len()];
    crate::kernels::pack_panels(w.data(), w.shape()[0], w.shape()[1], &mut out);
    Tensor::new(w.shape().to_vec(), out)
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Adds a parameter, held row-major, and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        self.panels.push(false);
        ParamId(self.values.len() - 1)
    }

    /// Adds a row-major `[d_in, d_out]` weight, held in decode panel order.
    pub fn add_panels(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        assert_eq!(value.rank(), 2, "add_panels expects a [d_in, d_out] weight");
        let id = self.add(name, packed(&value));
        self.panels[id.0] = true;
        id
    }

    /// True when parameter `id` is held in decode panel order.
    pub fn is_panels(&self, id: ParamId) -> bool {
        self.panels[id.0]
    }

    /// Number of parameters (tensors, not scalar elements).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar element count across all parameters.
    pub fn num_elements(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Current value of a parameter, in the order the store holds it.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Overwrites a parameter with a row-major `value` of its shape (e.g.
    /// when loading a checkpoint), packed if the store holds it in panels.
    pub fn set(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.values[id.0].shape(),
            value.shape(),
            "set() must preserve the shape of {}",
            self.names[id.0]
        );
        let panels = self.panels[id.0];
        self.values[id.0] = if panels { packed(&value) } else { value };
    }

    /// A copy holding every parameter row-major (for checkpoints,
    /// quantization and inspection): panel-order weights unpacked into new
    /// buffers, the rest shared.
    pub fn to_row_major(&self) -> ParamStore {
        let mut copy = self.clone();
        for (t, panels) in copy.values.iter_mut().zip(&mut copy.panels) {
            if std::mem::take(panels) {
                let mut w = vec![0.0; t.len()];
                crate::kernels::unpack_panels(t.data(), t.shape()[0], t.shape()[1], &mut w);
                *t = Tensor::new(t.shape().to_vec(), w);
            }
        }
        copy
    }

    /// Name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(name, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter())
    }
}

/// Per-step binding of a [`ParamStore`] onto a [`Graph`], remembering which
/// graph node corresponds to which parameter so gradients can be gathered.
pub struct Bound {
    vars: Vec<Var>,
}

impl Bound {
    /// Registers all parameters of `store` on `graph`.
    pub fn bind(store: &ParamStore, graph: &mut Graph) -> Bound {
        let vars = store
            .values
            .iter()
            .map(|t| graph.param(t.clone()))
            .collect();
        Bound { vars }
    }

    /// The graph node for a parameter.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }

    /// Collects gradients for every parameter after `graph.backward()`.
    /// Parameters unreachable from the loss get zero gradients.
    pub fn grads(&self, store: &ParamStore, graph: &Graph) -> Vec<Tensor> {
        self.vars
            .iter()
            .zip(store.values.iter())
            .map(|(&v, t)| {
                graph
                    .grad(v)
                    .cloned()
                    .unwrap_or_else(|| Tensor::zeros(t.shape()))
            })
            .collect()
    }
}

/// Rescales gradients (aligned with `store`) in place so their global L2
/// norm does not exceed `max_norm`. Returns the pre-clip norm, each
/// parameter's squares folded in row-major index order whatever order
/// `store` holds it in, so no bit depends on storage order.
pub fn clip_grad_norm(store: &ParamStore, grads: &mut [Tensor], max_norm: f32) -> f32 {
    assert_eq!(grads.len(), store.len(), "gradient count mismatch");
    let total: f32 = grads
        .iter()
        .zip(&store.panels)
        .map(|(g, &panels)| {
            let d_out = if panels { g.shape()[1] } else { g.len() };
            let runs = crate::kernels::storage_runs(g.len() / d_out.max(1), d_out, panels);
            runs.flat_map(|(_, at, len)| &g.data()[at..at + len])
                .map(|&x| x * x)
                .sum::<f32>()
        })
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for g in grads.iter_mut() {
            for x in g.data_mut() {
                *x *= scale;
            }
        }
    }
    total
}

/// Adam optimizer with decoupled weight decay (AdamW).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimizer for every parameter in `store` with standard
    /// betas (0.9, 0.999).
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step: 0,
            m: store
                .values
                .iter()
                .map(|t| Tensor::zeros(t.shape()))
                .collect(),
            v: store
                .values
                .iter()
                .map(|t| Tensor::zeros(t.shape()))
                .collect(),
        }
    }

    /// Sets decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update step given gradients aligned with the store.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Tensor]) {
        assert_eq!(grads.len(), store.values.len(), "gradient count mismatch");
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for (i, grad) in grads.iter().enumerate() {
            let g = grad.data();
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let p = store.values[i].data_mut();
            for j in 0..g.len() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g[j];
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g[j] * g[j];
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                p[j] -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * p[j]);
            }
        }
    }
}

/// Linear warmup followed by cosine decay to `min_lr`.
pub struct LrSchedule {
    peak_lr: f32,
    min_lr: f32,
    warmup_steps: u64,
    total_steps: u64,
}

impl LrSchedule {
    /// Builds a warmup+cosine schedule.
    pub fn warmup_cosine(peak_lr: f32, min_lr: f32, warmup_steps: u64, total_steps: u64) -> Self {
        assert!(total_steps >= warmup_steps, "total < warmup");
        LrSchedule {
            peak_lr,
            min_lr,
            warmup_steps,
            total_steps,
        }
    }

    /// Learning rate at step `t` (0-based).
    pub fn at(&self, t: u64) -> f32 {
        if self.warmup_steps > 0 && t < self.warmup_steps {
            return self.peak_lr * (t + 1) as f32 / self.warmup_steps as f32;
        }
        if t >= self.total_steps {
            return self.min_lr;
        }
        let progress =
            (t - self.warmup_steps) as f32 / (self.total_steps - self.warmup_steps).max(1) as f32;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.min_lr + (self.peak_lr - self.min_lr) * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimizes (x - 3)^2 with `apply` as the optimizer step; returns x.
    fn converges(mut apply: impl FnMut(&mut ParamStore, &[Tensor])) -> f32 {
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::scalar(0.0));
        for _ in 0..500 {
            let mut g = Graph::new();
            let bound = Bound::bind(&store, &mut g);
            let xv = bound.var(x);
            let c = g.input(Tensor::scalar(-3.0));
            let d = g.add(xv, c);
            let loss = g.mul(d, d);
            g.backward(loss);
            let grads = bound.grads(&store, &g);
            apply(&mut store, &grads);
        }
        store.get(x).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store_probe = ParamStore::new();
        store_probe.add("x", Tensor::scalar(0.0));
        let mut opt = Adam::new(&store_probe, 0.1);
        let x = converges(|s, g| opt.step(s, g));
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let mut grads = vec![Tensor::from_vec(vec![3.0, 4.0])]; // norm 5
        let mut store = ParamStore::new();
        store.add("g", Tensor::zeros(&[2]));
        let pre = clip_grad_norm(&store, &mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post: f32 = grads[0].data().iter().map(|&x| x * x).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let mut grads = vec![Tensor::from_vec(vec![0.3, 0.4])]; // norm 0.5
        let mut store = ParamStore::new();
        store.add("g", Tensor::zeros(&[2]));
        clip_grad_norm(&store, &mut grads, 1.0);
        assert_eq!(grads[0].data(), &[0.3, 0.4]);
    }

    #[test]
    fn panel_order_is_invisible_outside_the_store() {
        // A [3, 11] weight: one 8-column block and a 3-column tail. Its one
        // large value, (0, 8), is ninth in row-major order but 25th in
        // panel order, so the two sums of squares round differently.
        let mut w: Vec<f32> = (0..33).map(|i| 0.05 + (i * 7 % 10) as f32 * 0.3).collect();
        w[8] = 1000.0;
        let w = Tensor::new(vec![3, 11], w);
        let mut store = ParamStore::new();
        let id = store.add_panels("w", w.clone());
        assert!(store.is_panels(id));
        assert_eq!(store.to_row_major().get(id).data(), w.data());
        store.set(id, w.scale(2.0));
        assert_eq!(store.to_row_major().get(id).data(), w.scale(2.0).data());

        let norm = |v: &[f32]| v.iter().map(|&x| x * x).sum::<f32>().sqrt();
        let mut grads = vec![store.get(id).scale(0.5)];
        assert_ne!(norm(grads[0].data()).to_bits(), norm(w.data()).to_bits());
        let got = clip_grad_norm(&store, &mut grads, f32::MAX);
        assert_eq!(got.to_bits(), norm(w.data()).to_bits());
    }

    #[test]
    fn schedule_warms_up_then_decays() {
        let s = LrSchedule::warmup_cosine(1.0, 0.1, 10, 110);
        assert!(s.at(0) < s.at(5));
        assert!((s.at(9) - 1.0).abs() < 1e-6);
        assert!(s.at(50) < 1.0);
        assert!((s.at(109) - 0.1).abs() < 0.01);
        assert_eq!(s.at(500), 0.1);
    }

    #[test]
    fn param_store_counts_elements() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::zeros(&[3, 4]));
        store.add("b", Tensor::zeros(&[5]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_elements(), 17);
    }

    #[test]
    fn unreachable_params_get_zero_grads() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(1.0));
        let _b = store.add("b", Tensor::zeros(&[2]));
        let mut g = Graph::new();
        let bound = Bound::bind(&store, &mut g);
        let loss = g.mul(bound.var(a), bound.var(a));
        g.backward(loss);
        let grads = bound.grads(&store, &g);
        assert_eq!(grads[1].data(), &[0.0, 0.0]);
    }
}
