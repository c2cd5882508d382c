//! A recurrent (Elman) language model baseline.
//!
//! Section 2.1 of the tutorial motivates the Transformer by contrast with
//! recurrent networks \[43\]: recurrence struggles to carry information over
//! long distances. This model provides that pre-Transformer baseline for
//! the attention-vs-recurrence experiment (Exp I).

use lm4db_tensor::{
    clip_grad_norm, init, Adam, Bound, Graph, ParamId, ParamStore, Rand, Tensor, Var,
};

use crate::generate::NextToken;
use crate::layers::Linear;

/// Hyper-parameters of the RNN baseline.
#[derive(Debug, Clone)]
pub struct RnnConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Embedding width.
    pub d_embed: usize,
    /// Recurrent hidden width.
    pub d_hidden: usize,
}

impl RnnConfig {
    /// A tiny configuration for tests.
    pub fn test() -> Self {
        RnnConfig {
            vocab_size: 64,
            d_embed: 16,
            d_hidden: 16,
        }
    }
}

/// An Elman RNN language model: `h_t = tanh(x_t Wx + h_{t-1} Wh + b)`.
pub struct RnnLm {
    cfg: RnnConfig,
    store: ParamStore,
    emb: ParamId,
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    head: Linear,
}

impl RnnLm {
    /// Builds a freshly initialized model.
    pub fn new(cfg: RnnConfig, seed: u64) -> Self {
        let mut rng = Rand::seeded(seed);
        let mut store = ParamStore::new();
        let emb = store.add(
            "emb",
            init::normal(&[cfg.vocab_size, cfg.d_embed], 0.02, &mut rng),
        );
        let wx = store.add_panels("wx", init::xavier(&[cfg.d_embed, cfg.d_hidden], &mut rng));
        let wh = store.add_panels("wh", init::xavier(&[cfg.d_hidden, cfg.d_hidden], &mut rng));
        let b = store.add("b", Tensor::zeros(&[cfg.d_hidden]));
        let head = Linear::new(&mut store, "head", cfg.d_hidden, cfg.vocab_size, &mut rng);
        RnnLm {
            cfg,
            store,
            emb,
            wx,
            wh,
            b,
            head,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RnnConfig {
        &self.cfg
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.store.num_elements()
    }

    /// Creates a matching Adam optimizer.
    pub fn optimizer(&self, lr: f32) -> Adam {
        Adam::new(&self.store, lr)
    }

    /// Unrolls the recurrence over a batch (all sequences must share one
    /// length) and returns per-step `[b, vocab]` logit nodes.
    fn unroll(&self, g: &mut Graph, bound: &Bound, batch: &[Vec<usize>]) -> Vec<Var> {
        let b = batch.len();
        let t = batch[0].len();
        assert!(
            batch.iter().all(|s| s.len() == t),
            "RnnLm requires equal-length sequences in a batch"
        );
        let flat: Vec<usize> = batch.iter().flatten().copied().collect();
        let x = g.embedding(bound.var(self.emb), &flat);
        let x = g.reshape(x, &[b, t, self.cfg.d_embed]);

        let mut h = g.input(Tensor::zeros(&[b, self.cfg.d_hidden]));
        let mut logits = Vec::with_capacity(t);
        for step in 0..t {
            let xt = g.select_positions(x, &vec![step; b]);
            let xw = g.matmul_panels(xt, bound.var(self.wx));
            let hw = g.matmul_panels(h, bound.var(self.wh));
            let pre = g.add(xw, hw);
            let pre = g.add_bcast(pre, bound.var(self.b));
            h = g.tanh(pre);
            logits.push(self.head.forward(g, bound, h));
        }
        logits
    }

    fn loss_graph(&self, batch: &[Vec<usize>]) -> (Graph, Bound, Var) {
        let b = batch.len();
        let t = batch[0].len();
        let mut g = Graph::new();
        let bound = Bound::bind(&self.store, &mut g);
        let logits = self.unroll(&mut g, &bound, batch);
        // Next-token targets per step; the last step has no target.
        let mut total: Option<Var> = None;
        for (step, &l) in logits.iter().enumerate().take(t - 1) {
            let targets: Vec<usize> = (0..b).map(|bi| batch[bi][step + 1]).collect();
            let step_loss = g.cross_entropy(l, &targets);
            total = Some(match total {
                Some(acc) => g.add(acc, step_loss),
                None => step_loss,
            });
        }
        let total = total.expect("sequence too short for a causal target");
        let loss = g.scale(total, 1.0 / (t - 1) as f32);
        (g, bound, loss)
    }

    /// One optimizer step; returns the loss.
    pub fn train_step(&mut self, batch: &[Vec<usize>], opt: &mut Adam) -> f32 {
        let (mut g, bound, loss) = self.loss_graph(batch);
        let loss_val = g.value(loss).item();
        g.backward(loss);
        let mut grads = bound.grads(&self.store, &g);
        clip_grad_norm(&self.store, &mut grads, 1.0);
        opt.step(&mut self.store, &grads);
        loss_val
    }

    /// Mean causal loss without updating parameters.
    pub fn eval_loss(&self, batch: &[Vec<usize>]) -> f32 {
        let (g, _bound, loss) = self.loss_graph(batch);
        g.value(loss).item()
    }
}

impl NextToken for RnnLm {
    fn vocab_size(&self) -> usize {
        self.cfg.vocab_size
    }

    fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32> {
        assert!(
            !prefix.is_empty(),
            "next_logits requires a non-empty prefix"
        );
        let mut g = Graph::new();
        let bound = Bound::bind(&self.store, &mut g);
        let logits = self.unroll(&mut g, &bound, &[prefix.to_vec()]);
        g.value(*logits.last().unwrap()).data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::greedy;
    use lm4db_tokenize::BOS;

    #[test]
    fn training_reduces_loss() {
        let mut m = RnnLm::new(RnnConfig::test(), 3);
        let mut opt = m.optimizer(5e-3);
        let batch = vec![
            vec![BOS, 10, 11, 12, 10, 11, 12],
            vec![BOS, 20, 21, 22, 20, 21, 22],
        ];
        let before = m.eval_loss(&batch);
        for _ in 0..80 {
            m.train_step(&batch, &mut opt);
        }
        let after = m.eval_loss(&batch);
        assert!(after < before * 0.7, "loss: {before} -> {after}");
    }

    #[test]
    fn next_logits_shape() {
        let mut m = RnnLm::new(RnnConfig::test(), 3);
        let l = m.next_logits(&[BOS, 5]);
        assert_eq!(l.len(), 64);
    }

    #[test]
    fn generates_memorized_pattern() {
        let mut m = RnnLm::new(RnnConfig::test(), 3);
        let mut opt = m.optimizer(5e-3);
        let seq = vec![BOS, 10, 11, 12, 13];
        for _ in 0..150 {
            m.train_step(std::slice::from_ref(&seq), &mut opt);
        }
        let out = greedy(&mut m, &[BOS, 10], 3, 999, None);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn rejects_ragged_batches() {
        let m = RnnLm::new(RnnConfig::test(), 3);
        m.eval_loss(&[vec![BOS, 1, 2], vec![BOS, 1]]);
    }
}
