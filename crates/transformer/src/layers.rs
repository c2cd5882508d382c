//! Reusable transformer building blocks: linear layers, multi-head
//! attention, feed-forward networks, and full pre-norm blocks.
//!
//! Each struct owns [`ParamId`]s into a shared [`ParamStore`]; the `forward`
//! methods take the per-step [`Graph`] and [`Bound`] binding and build the
//! computation; `apply_rows_into` is the tape-free form the KV-cache stacked
//! forward runs. A [`Linear`] weight is held in decode panel order for life,
//! read there by [`Graph::matmul_panels`] and decode alike.

use lm4db_tensor::{init, Bound, Graph, ParamId, ParamStore, Rand, Tensor, Var};
use lm4db_tokenize::PAD;

use crate::config::ModelConfig;

/// A dense layer `y = x W + b`, its weight held in decode panel order
/// from registration on, so training and decode read one copy of it
/// through one projection call.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    pub(crate) w: ParamId,
    pub(crate) b: ParamId,
}

impl Linear {
    /// Registers a `[d_in, d_out]` weight (Xavier, in panel order) and zero
    /// bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut Rand,
    ) -> Self {
        Linear {
            w: store.add_panels(format!("{name}.w"), init::xavier(&[d_in, d_out], rng)),
            b: store.add(format!("{name}.b"), Tensor::zeros(&[d_out])),
        }
    }

    /// Applies the layer to `x` of shape `[.., d_in]`.
    pub fn forward(&self, g: &mut Graph, bound: &Bound, x: Var) -> Var {
        let y = g.matmul_panels(x, bound.var(self.w));
        g.add_bcast(y, bound.var(self.b))
    }

    /// Inference-only application to `rows` consecutive vectors (row-major
    /// in `xs`), writing the outputs row-major over whatever `ys` held — no
    /// tape, no gradients, and no allocation once `ys` has the capacity:
    /// the projection of the KV-cache stacked forward. Each output element
    /// is one bias-initialized, input-ascending accumulation chain, the
    /// same at any row count, so a row's result does not depend on what it
    /// is stacked with; the multi-row kernel streams each weight tile once
    /// per row group instead of once per row (the decode matvec is
    /// memory-bound on weights), which is where stacking earns its speedup.
    /// Runs in the calling thread: decode-time parallelism comes from the
    /// engine fanning row groups of a step's stack across the pool.
    pub fn apply_rows_into(&self, store: &ParamStore, xs: &[f32], rows: usize, ys: &mut Vec<f32>) {
        assert!(store.is_panels(self.w), "apply_rows over a row-major copy");
        let w = store.get(self.w);
        let (d_in, d_out) = (w.shape()[0], w.shape()[1]);
        let b = store.get(self.b).data();
        assert_eq!(xs.len(), rows * d_in, "apply_rows input shape mismatch");
        ys.clear();
        ys.reserve(rows * d_out);
        for _ in 0..rows {
            ys.extend_from_slice(b);
        }
        lm4db_tensor::kernels::vec_matmul_rows(xs, d_in, w.data(), d_out, ys);
    }
}

/// Layer-norm parameters (gain initialized to 1, bias to 0).
#[derive(Debug, Clone, Copy)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
}

impl LayerNorm {
    /// Registers `[d]` gain and bias.
    pub fn new(store: &mut ParamStore, name: &str, d: usize) -> Self {
        LayerNorm {
            gain: store.add(format!("{name}.gain"), Tensor::full(&[d], 1.0)),
            bias: store.add(format!("{name}.bias"), Tensor::zeros(&[d])),
        }
    }

    /// Normalizes `x` over its last dimension.
    pub fn forward(&self, g: &mut Graph, bound: &Bound, x: Var) -> Var {
        g.layer_norm(x, bound.var(self.gain), bound.var(self.bias), 1e-5)
    }

    /// Inference-only normalization of `rows` consecutive `d`-wide vectors,
    /// each over its own elements alone, written over whatever `out` held.
    pub fn apply_rows_into(&self, store: &ParamStore, xs: &[f32], rows: usize, out: &mut Vec<f32>) {
        assert_eq!(xs.len() % rows.max(1), 0, "apply_rows ragged input");
        let d = xs.len() / rows.max(1);
        let gain = store.get(self.gain).data();
        let bias = store.get(self.bias).data();
        out.clear();
        out.reserve(xs.len());
        for x in xs.chunks_exact(d) {
            let mean = x.iter().sum::<f32>() / d as f32;
            let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + 1e-5).sqrt();
            out.extend(
                x.iter()
                    .zip(gain.iter().zip(bias.iter()))
                    .map(|(&v, (&g, &b))| (v - mean) * istd * g + b),
            );
        }
    }
}

/// Multi-head self-attention with separate Q/K/V/O projections.
#[derive(Debug, Clone, Copy)]
pub struct MultiHeadAttention {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) n_heads: usize,
    pub(crate) head_dim: usize,
}

impl MultiHeadAttention {
    /// Registers the four projections.
    pub fn new(store: &mut ParamStore, name: &str, cfg: &ModelConfig, rng: &mut Rand) -> Self {
        let d = cfg.d_model;
        MultiHeadAttention {
            wq: Linear::new(store, &format!("{name}.wq"), d, d, rng),
            wk: Linear::new(store, &format!("{name}.wk"), d, d, rng),
            wv: Linear::new(store, &format!("{name}.wv"), d, d, rng),
            wo: Linear::new(store, &format!("{name}.wo"), d, d, rng),
            n_heads: cfg.n_heads,
            head_dim: cfg.head_dim(),
        }
    }

    /// Self-attention over `x` of shape `[b, t, d]`.
    ///
    /// `mask` is an optional additive attention mask of shape `[b, h, t, t]`
    /// (0 where attention is allowed, a large negative number where it is
    /// forbidden); build one with [`causal_mask`] or [`padding_mask`].
    pub fn forward(&self, g: &mut Graph, bound: &Bound, x: Var, mask: Option<Var>) -> Var {
        let shape = g.value(x).shape().to_vec();
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        let (h, hd) = (self.n_heads, self.head_dim);

        let split = |g: &mut Graph, v: Var| {
            let v = g.reshape(v, &[b, t, h, hd]);
            g.transpose(v, 1, 2) // [b, h, t, hd]
        };
        let q = self.wq.forward(g, bound, x);
        let q = split(g, q);
        let k = self.wk.forward(g, bound, x);
        let k = split(g, k);
        let v = self.wv.forward(g, bound, x);
        let v = split(g, v);

        let kt = g.transpose(k, 2, 3); // [b, h, hd, t]
        let scores = g.matmul(q, kt); // [b, h, t, t]
        let scores = g.scale(scores, 1.0 / (hd as f32).sqrt());
        let scores = match mask {
            Some(m) => g.add(scores, m),
            None => scores,
        };
        let attn = g.softmax_last(scores);
        let ctx = g.matmul(attn, v); // [b, h, t, hd]
        let ctx = g.transpose(ctx, 1, 2); // [b, t, h, hd]
        let ctx = g.reshape(ctx, &[b, t, d]);
        self.wo.forward(g, bound, ctx)
    }
}

/// Per-layer key/value cache for incremental decoding: keys and values of
/// all past positions, stored as consecutive `[n_heads * head_dim]` slices.
#[derive(Debug, Default)]
pub struct AttnCache {
    pub(crate) k: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pub(crate) t: usize,
}

/// Copies `buf` together with its reservation: `Vec::clone` would give
/// the copy `capacity == len`, and a decode state forked that way
/// reallocates every buffer on its first push.
pub(crate) fn fork<T: Copy>(buf: &Vec<T>) -> Vec<T> {
    let mut copy = Vec::with_capacity(buf.capacity());
    copy.extend_from_slice(buf);
    copy
}

impl Clone for AttnCache {
    /// A fork carries its parent's reservation, not just its rows.
    fn clone(&self) -> Self {
        AttnCache {
            k: fork(&self.k),
            v: fork(&self.v),
            t: self.t,
        }
    }
}

impl AttnCache {
    /// An empty cache.
    pub fn new() -> Self {
        AttnCache::default()
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.t
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.t == 0
    }

    /// Clears the cache (restart decoding). Keeps the allocations.
    pub fn clear(&mut self) {
        self.k.clear();
        self.v.clear();
        self.t = 0;
    }

    /// Preallocates room for `positions` rows of width `d` in both the key
    /// and the value store, so steady-state decoding never reallocates.
    pub fn reserve(&mut self, positions: usize, d: usize) {
        self.k.reserve(positions.saturating_mul(d));
        self.v.reserve(positions.saturating_mul(d));
    }

    /// Key and value rows of cached position `t`, each `d` wide.
    pub fn position(&self, t: usize, d: usize) -> (&[f32], &[f32]) {
        assert!(t < self.t, "position {t} beyond cache length {}", self.t);
        (&self.k[t * d..(t + 1) * d], &self.v[t * d..(t + 1) * d])
    }

    /// Appends one precomputed key/value row pair. This is how a prefix
    /// cache restores shared positions without recomputing the projections;
    /// rows are pure functions of the token prefix, so a restored cache is
    /// bitwise identical to a recomputed one.
    pub fn push_position(&mut self, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), v.len(), "key/value rows must have equal width");
        self.k.extend_from_slice(k);
        self.v.extend_from_slice(v);
        self.t += 1;
    }
}

/// Attends one projected query over the first `t_lim` cached positions,
/// accumulating the mixed context vector (pre-output-projection) into the
/// zeroed `ctx`. A stacked forward appends a sequence's whole chunk of
/// key/value rows before attending, so each chunk position passes the cache
/// length the one-token decoder would have seen — causality inside the
/// chunk, and a per-head kernel call identical to the one-position path.
///
/// `scratch` is any buffer the caller is not reading: the score row lives
/// there (grown to `t_lim` if need be) instead of being allocated per call.
/// Heads run one after another on the calling thread; the engine already
/// runs each row group's forward on its own pool worker.
pub(crate) fn attend_prefix(
    q: &[f32],
    cache: &AttnCache,
    t_lim: usize,
    h: usize,
    hd: usize,
    ctx: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let d = h * hd;
    let scale = 1.0 / (hd as f32).sqrt();
    let (ck, cv) = (&cache.k[..t_lim * d], &cache.v[..t_lim * d]);
    if scratch.len() < t_lim {
        scratch.resize(t_lim, 0.0);
    }
    let scores = &mut scratch[..t_lim];
    for (hh, ctx_h) in ctx.chunks_mut(hd).enumerate() {
        let off = hh * hd;
        lm4db_tensor::kernels::attn_head(&q[off..off + hd], ck, cv, d, off, scale, scores, ctx_h);
    }
}

/// Two-layer feed-forward network with GELU.
#[derive(Debug, Clone, Copy)]
pub struct FeedForward {
    pub(crate) up: Linear,
    pub(crate) down: Linear,
}

impl FeedForward {
    /// Registers the up/down projections.
    pub fn new(store: &mut ParamStore, name: &str, cfg: &ModelConfig, rng: &mut Rand) -> Self {
        FeedForward {
            up: Linear::new(store, &format!("{name}.up"), cfg.d_model, cfg.d_ff, rng),
            down: Linear::new(store, &format!("{name}.down"), cfg.d_ff, cfg.d_model, rng),
        }
    }

    /// Applies `down(gelu(up(x)))`.
    pub fn forward(&self, g: &mut Graph, bound: &Bound, x: Var) -> Var {
        let h = self.up.forward(g, bound, x);
        let h = g.gelu(h);
        self.down.forward(g, bound, h)
    }
}

/// A pre-norm transformer block: `x + attn(ln1(x))`, then `x + ffn(ln2(x))`.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub(crate) ln1: LayerNorm,
    pub(crate) attn: MultiHeadAttention,
    pub(crate) ln2: LayerNorm,
    pub(crate) ffn: FeedForward,
}

impl Block {
    /// The six projections, in the order decode runs them:
    /// `[wq, wk, wv, wo, up, down]`.
    pub(crate) fn projections(&self) -> [Linear; 6] {
        let (a, f) = (&self.attn, &self.ffn);
        [a.wq, a.wk, a.wv, a.wo, f.up, f.down]
    }

    /// Registers all block parameters.
    pub fn new(store: &mut ParamStore, name: &str, cfg: &ModelConfig, rng: &mut Rand) -> Self {
        Block {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), cfg.d_model),
            attn: MultiHeadAttention::new(store, &format!("{name}.attn"), cfg, rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), cfg.d_model),
            ffn: FeedForward::new(store, &format!("{name}.ffn"), cfg, rng),
        }
    }

    /// Applies the block to `x` `[b, t, d]` with an optional attention mask.
    pub fn forward(
        &self,
        g: &mut Graph,
        bound: &Bound,
        x: Var,
        mask: Option<Var>,
        dropout: f32,
        rng: Option<&mut Rand>,
    ) -> Var {
        let normed = self.ln1.forward(g, bound, x);
        let attn_out = self.attn.forward(g, bound, normed, mask);
        let x = g.add(x, attn_out);
        let normed = self.ln2.forward(g, bound, x);
        let mut ffn_out = self.ffn.forward(g, bound, normed);
        if dropout > 0.0 {
            if let Some(rng) = rng {
                let n = g.value(ffn_out).len();
                let mask = rng.uniform_vec(n);
                ffn_out = g.dropout(ffn_out, dropout, &mask);
            }
        }
        g.add(x, ffn_out)
    }
}

/// Pads a batch to a common length with `[PAD]`, returning
/// `(flat_ids, b, t, lengths)`.
pub(crate) fn pad_batch(batch: &[Vec<usize>]) -> (Vec<usize>, usize, usize, Vec<usize>) {
    assert!(!batch.is_empty(), "empty batch");
    let b = batch.len();
    let t = batch.iter().map(Vec::len).max().unwrap();
    let lengths: Vec<usize> = batch.iter().map(Vec::len).collect();
    let mut flat = Vec::with_capacity(b * t);
    for seq in batch {
        flat.extend_from_slice(seq);
        flat.extend(std::iter::repeat_n(PAD, t - seq.len()));
    }
    (flat, b, t, lengths)
}

/// Additive causal mask of shape `[1, h, t, t]` for one sequence: position
/// `i` may attend to positions `<= i`.
pub fn causal_mask(h: usize, t: usize) -> Tensor {
    let mut data = vec![0.0f32; h * t * t];
    for chunk in data.chunks_mut(t * t) {
        for i in 0..t {
            for j in (i + 1)..t {
                chunk[i * t + j] = f32::NEG_INFINITY;
            }
        }
    }
    Tensor::new(vec![1, h, t, t], data)
}

/// Additive padding mask of shape `[b, h, t, t]` built from per-sequence
/// lengths: keys at positions `>= len` are masked for every query.
pub fn padding_mask(lengths: &[usize], h: usize, t: usize) -> Tensor {
    let b = lengths.len();
    let mut data = vec![0.0f32; b * h * t * t];
    for (bi, &len) in lengths.iter().enumerate() {
        assert!(len <= t, "length {len} exceeds seq len {t}");
        for hi in 0..h {
            let base = (bi * h + hi) * t * t;
            for i in 0..t {
                for j in len..t {
                    data[base + i * t + j] = f32::NEG_INFINITY;
                }
            }
        }
    }
    Tensor::new(vec![b, h, t, t], data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm4db_tensor::Bound;

    fn setup() -> (ModelConfig, ParamStore, Rand) {
        (ModelConfig::test(), ParamStore::new(), Rand::seeded(42))
    }

    #[test]
    fn linear_shapes_and_bias() {
        let (_, mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let mut g = Graph::new();
        let bound = Bound::bind(&store, &mut g);
        let x = g.input(Tensor::zeros(&[2, 5, 4]));
        let y = lin.forward(&mut g, &bound, x);
        assert_eq!(g.value(y).shape(), &[2, 5, 3]);
        // Zero input -> output equals (zero) bias everywhere.
        assert!(g.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn attention_output_shape() {
        let (cfg, mut store, mut rng) = setup();
        let mha = MultiHeadAttention::new(&mut store, "attn", &cfg, &mut rng);
        let mut g = Graph::new();
        let bound = Bound::bind(&store, &mut g);
        let x = g.input(init::normal(&[2, 5, cfg.d_model], 1.0, &mut rng));
        let y = mha.forward(&mut g, &bound, x, None);
        assert_eq!(g.value(y).shape(), &[2, 5, cfg.d_model]);
        assert!(g.value(y).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(1, 3);
        let d = m.data();
        // Row 0 can see only position 0.
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], f32::NEG_INFINITY);
        assert_eq!(d[2], f32::NEG_INFINITY);
        // Row 2 sees everything.
        assert_eq!(&d[6..9], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn causal_attention_ignores_future_tokens() {
        // Changing a future token must not change earlier positions' output.
        let (cfg, mut store, mut rng) = setup();
        let mha = MultiHeadAttention::new(&mut store, "attn", &cfg, &mut rng);
        let x1 = init::normal(&[1, 4, cfg.d_model], 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Perturb the last position.
        let d = cfg.d_model;
        for j in 0..d {
            x2.data_mut()[3 * d + j] += 5.0;
        }
        let run = |x: Tensor| {
            let mut g = Graph::new();
            let bound = Bound::bind(&store, &mut g);
            let xv = g.input(x);
            let m = g.input(causal_mask(cfg.n_heads, 4));
            let y = mha.forward(&mut g, &bound, xv, Some(m));
            g.value(y).clone()
        };
        let y1 = run(x1);
        let y2 = run(x2);
        // Positions 0..3 identical; position 3 differs.
        let upto = 3 * d;
        for i in 0..upto {
            assert!((y1.data()[i] - y2.data()[i]).abs() < 1e-5, "pos {i} leaked");
        }
        let last_diff: f32 = (upto..4 * d)
            .map(|i| (y1.data()[i] - y2.data()[i]).abs())
            .sum();
        assert!(last_diff > 1e-3, "perturbation had no effect at all");
    }

    #[test]
    fn padding_mask_blocks_padded_keys() {
        let m = padding_mask(&[2, 3], 1, 3);
        // Batch 0 (len 2): key 2 masked for every query.
        assert_eq!(m.data()[2], f32::NEG_INFINITY);
        assert_eq!(m.data()[5], f32::NEG_INFINITY);
        assert_eq!(m.data()[8], f32::NEG_INFINITY);
        assert_eq!(m.data()[0], 0.0);
        // Batch 1 (len 3): nothing masked.
        assert!(m.data()[9..18].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn block_is_differentiable_end_to_end() {
        let (cfg, mut store, mut rng) = setup();
        let block = Block::new(&mut store, "b0", &cfg, &mut rng);
        let mut g = Graph::new();
        let bound = Bound::bind(&store, &mut g);
        let x = g.input(init::normal(&[1, 3, cfg.d_model], 1.0, &mut rng));
        let y = block.forward(&mut g, &bound, x, None, 0.0, None);
        let loss = g.mean_all(y);
        g.backward(loss);
        let grads = bound.grads(&store, &g);
        let nonzero = grads
            .iter()
            .filter(|t| t.data().iter().any(|&v| v != 0.0))
            .count();
        assert!(
            nonzero > grads.len() / 2,
            "most parameters should receive gradient, got {nonzero}/{}",
            grads.len()
        );
    }
}
