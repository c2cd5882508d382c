//! Int8 quantized inference for [`GptModel`].
//!
//! A [`QuantizedGpt`] is a frozen int8 snapshot of the heavy weight
//! matrices of a trained model: all Q/K/V/O attention projections and
//! both feed-forward projections, each quantized with per-output-row
//! scales (see `lm4db_tensor::quant`). Everything that is small or
//! precision-sensitive — embeddings, layer norms, residual adds, GELU,
//! softmax, and the vocabulary head (whose logits feed directly into
//! argmax/beam decisions) — stays f32 and is read from the original
//! model, so the quantized decode path needs both the [`GptModel`] (for
//! the f32 pieces) and the [`QuantizedGpt`] (for the int8 matmuls).
//!
//! The quantized path is deterministic: activation quantization is a pure
//! function of the activation, and the int8 matvec accumulates in exact
//! i32 arithmetic, so quantized decode is bit-identical at any thread
//! count — it gets its own golden set next to the f32 one.
//!
//! Nothing serves from it: the engine, the parser and the classifiers
//! decode f32 only. It is kept for the benchmark's `transformer.decode_int8_tok_s`
//! probe, which decodes through [`crate::KvCache::feed_quant`], and goes
//! with it.

use lm4db_tensor::{quantize_activation, ParamStore, QuantizedMatrix};

use crate::gpt::GptModel;
use crate::layers::{Block, Linear};

/// An int8 linear layer: quantized weight plus the original f32 bias.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    w: QuantizedMatrix,
    b: Vec<f32>,
}

impl QuantLinear {
    /// Quantizes one f32 [`Linear`] out of `store`.
    pub(crate) fn from_linear(store: &ParamStore, lin: &Linear) -> Self {
        let w = store.get(lin.w);
        let (d_in, d_out) = (w.shape()[0], w.shape()[1]);
        QuantLinear {
            w: QuantizedMatrix::from_weight(w.data(), d_in, d_out),
            b: store.get(lin.b).data().to_vec(),
        }
    }

    /// Applies the layer to `rows` consecutive activation vectors, each
    /// on its own, writing the outputs over whatever `ys` held: dynamic
    /// int8 quantization of the row, exact i32 matvec, dequant-on-store.
    /// The activation grid is per row, so a row's result does not depend
    /// on what it is stacked with.
    pub fn apply_rows_into(&self, xs: &[f32], rows: usize, ys: &mut Vec<f32>) {
        assert_eq!(
            xs.len(),
            rows * self.w.cols(),
            "apply_rows input shape mismatch"
        );
        ys.clear();
        ys.reserve(rows * self.w.rows());
        for x in xs.chunks_exact(self.w.cols()) {
            let (qx, sx, zx) = quantize_activation(x);
            ys.extend_from_slice(&self.w.matvec(&qx, sx, zx, &self.b));
        }
    }

    /// Heap bytes of the quantized weight (int8 payload + scales + bias).
    pub fn memory_bytes(&self) -> usize {
        self.w.memory_bytes() + self.b.len() * std::mem::size_of::<f32>()
    }
}

/// The int8 projections of one transformer block, in the order decode
/// runs them: `wq, wk, wv, wo, up, down`.
#[derive(Debug, Clone)]
pub struct QuantBlock([QuantLinear; 6]);

impl QuantBlock {
    fn from_block(store: &ParamStore, block: &Block) -> Self {
        QuantBlock(
            block
                .projections()
                .map(|lin| QuantLinear::from_linear(store, &lin)),
        )
    }

    fn memory_bytes(&self) -> usize {
        self.0.iter().map(QuantLinear::memory_bytes).sum()
    }
}

/// One heavy projection in the weight format a forward runs in, so the
/// stacked forward has one body for both formats.
pub(crate) enum Proj<'a> {
    /// The model's own f32 weights: the layer and the store holding them.
    F32(Linear, &'a ParamStore),
    /// The int8 snapshot.
    Q8(&'a QuantLinear),
}

impl Proj<'_> {
    /// Applies the projection to `rows` stacked vectors into `ys`, row by
    /// row identical to a one-row application in either format.
    pub(crate) fn apply_rows_into(&self, xs: &[f32], rows: usize, ys: &mut Vec<f32>) {
        match self {
            Proj::F32(lin, store) => lin.apply_rows_into(store, xs, rows, ys),
            Proj::Q8(q) => q.apply_rows_into(xs, rows, ys),
        }
    }
}

/// The six heavy projections of `model`'s block `l` —
/// `[wq, wk, wv, wo, up, down]` — int8 from `quant` when given, else the
/// model's f32 weights. Layer norms, residuals, GELU and the fused
/// softmax·V attention stay f32 either way.
pub(crate) fn projections<'a>(
    model: &'a GptModel,
    l: usize,
    quant: Option<&'a QuantBlock>,
) -> [Proj<'a>; 6] {
    match quant {
        Some(q) => q.0.each_ref().map(Proj::Q8),
        None => model.blocks[l]
            .projections()
            .map(|lin| Proj::F32(lin, &model.store)),
    }
}

/// A frozen int8 snapshot of a [`GptModel`]'s heavy weights, for use with
/// [`crate::KvCache::feed_quant`] / [`crate::KvCache::feed_all_with`].
#[derive(Debug, Clone)]
pub struct QuantizedGpt {
    blocks: Vec<QuantBlock>,
}

impl QuantizedGpt {
    /// Quantizes every attention/FFN projection of `model`. The vocabulary
    /// head is deliberately left f32 — standard int8 practice, because head
    /// logits are compared directly by greedy/beam decoding. The model is
    /// not modified; training can continue on the f32 weights while serving
    /// decodes against this snapshot.
    pub fn from_model(model: &GptModel) -> Self {
        let _timer = lm4db_obs::leaf("quant/from_model");
        let store = model.params();
        QuantizedGpt {
            blocks: model
                .blocks
                .iter()
                .map(|b| QuantBlock::from_block(&store, b))
                .collect(),
        }
    }

    /// Number of quantized transformer blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Per-block quantized weights.
    pub(crate) fn block(&self, i: usize) -> &QuantBlock {
        &self.blocks[i]
    }

    /// Total heap bytes of the quantized weights — roughly a quarter of the
    /// f32 bytes they replace.
    pub fn weight_bytes(&self) -> usize {
        self.blocks.iter().map(QuantBlock::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::incremental::KvCache;
    use lm4db_tokenize::BOS;

    fn trained_model() -> GptModel {
        let mut m = GptModel::new(ModelConfig::test(), 7);
        let mut opt = m.optimizer(3e-3);
        let batch: Vec<Vec<usize>> = vec![
            vec![BOS, 10, 11, 12, 10, 11, 12],
            vec![BOS, 20, 21, 22, 20, 21, 22],
        ];
        for _ in 0..30 {
            m.train_step(&batch, &mut opt);
        }
        m
    }

    #[test]
    fn quantized_weight_bytes_are_about_a_quarter() {
        let m = GptModel::new(ModelConfig::test(), 7);
        let q = QuantizedGpt::from_model(&m);
        let cfg = m.config();
        // f32 bytes of exactly the quantized matrices (per block: 4 att
        // projections + up/down; the head stays f32 and is excluded). At the
        // tiny test config the per-row scales and f32 biases are a visible
        // fraction of the total, so assert a 2x shrink here; the int8 payload
        // itself is exactly 4x smaller (asserted in lm4db-tensor's quant
        // tests).
        let per_block = 4 * cfg.d_model * cfg.d_model + 2 * cfg.d_model * cfg.d_ff;
        let f32_bytes = cfg.n_layers * per_block * 4;
        assert!(
            q.weight_bytes() * 2 < f32_bytes,
            "quantized {} vs f32 {}",
            q.weight_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn quantized_decode_tracks_f32_decode() {
        let m = trained_model();
        let q = QuantizedGpt::from_model(&m);
        let prefix = [BOS, 10, 11, 12];
        let mut f32_cache = KvCache::new(&m);
        let f32_logits = f32_cache.feed_all(&m, &prefix).to_vec();
        let mut q_cache = KvCache::new(&m);
        let q_logits = q_cache.feed_all_with(&m, Some(&q), &prefix).to_vec();
        assert_eq!(f32_logits.len(), q_logits.len());
        // Quantization error is bounded; the two paths must agree on the
        // argmax for a well-trained pattern and stay close in logit space.
        let scale = f32_logits
            .iter()
            .fold(0.0f32, |a, &v| a.max(v.abs()))
            .max(1.0);
        let max_rel = f32_logits
            .iter()
            .zip(q_logits.iter())
            .map(|(a, b)| (a - b).abs() / scale)
            .fold(0.0f32, f32::max);
        assert!(max_rel < 0.1, "quantized logits drifted: max rel {max_rel}");
        let argmax = |v: &[f32]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap()
        };
        assert_eq!(argmax(&f32_logits), argmax(&q_logits));
    }

    #[test]
    fn quantized_decode_is_deterministic_across_thread_counts() {
        let m = trained_model();
        let q = QuantizedGpt::from_model(&m);
        let prefix = [BOS, 20, 21, 22];
        let before = lm4db_tensor::threads();
        let run = |threads: usize| {
            lm4db_tensor::set_threads(threads);
            let mut cache = KvCache::new(&m);
            cache.feed_all_with(&m, Some(&q), &prefix).to_vec()
        };
        let one = run(1);
        let four = run(4);
        lm4db_tensor::set_threads(before);
        assert_eq!(one, four, "quantized decode depends on thread count");
    }
}
