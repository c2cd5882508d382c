//! GPT-style decoder-only causal language model.
//!
//! This is the stand-in for the GPT-3 / Codex models the tutorial
//! demonstrates: the architecture and training objective are identical in
//! kind (causal next-token prediction over BPE tokens); only the scale is
//! laptop-sized.
//!
//! A model holds one copy of its projection weights (every block's
//! `wq, wk, wv, wo, up, down` and the vocabulary head), in the decode panel
//! order every [`Linear`] registers its weight in
//! ([`lm4db_tensor::kernels::pack_panels`]), for its whole life: the
//! stacked forward's weight sweep reads it there, and so do the tape
//! ([`lm4db_tensor::Graph::matmul_panels`]) and the optimizer. Each
//! projection output is the same chain in either order, so no bit depends
//! on it; checkpoints and [`GptModel::params`] are row-major.

use lm4db_tensor::{
    clip_grad_norm, init, Adam, Bound, Graph, ParamId, ParamStore, Rand, Tensor, Var, IGNORE_INDEX,
};

use crate::config::ModelConfig;
use crate::layers::{causal_mask, Block, LayerNorm, Linear};

/// A decoder-only transformer language model.
pub struct GptModel {
    pub(crate) cfg: ModelConfig,
    /// Every parameter; the projection weights in decode panel order.
    pub(crate) store: ParamStore,
    pub(crate) tok_emb: ParamId,
    pub(crate) pos_emb: ParamId,
    pub(crate) blocks: Vec<Block>,
    pub(crate) ln_f: LayerNorm,
    pub(crate) head: Linear,
    rng: Rand,
}

impl GptModel {
    /// Builds a freshly initialized model (GPT-2 style normal init with
    /// `std = 0.02` for embeddings, Xavier for projections).
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = Rand::seeded(seed);
        let mut store = ParamStore::new();
        let tok_emb = store.add(
            "tok_emb",
            init::normal(&[cfg.vocab_size, cfg.d_model], 0.02, &mut rng),
        );
        let pos_emb = store.add(
            "pos_emb",
            init::normal(&[cfg.max_seq_len, cfg.d_model], 0.02, &mut rng),
        );
        let blocks = (0..cfg.n_layers)
            .map(|i| Block::new(&mut store, &format!("block{i}"), &cfg, &mut rng))
            .collect();
        let ln_f = LayerNorm::new(&mut store, "ln_f", cfg.d_model);
        let head = Linear::new(&mut store, "head", cfg.d_model, cfg.vocab_size, &mut rng);
        GptModel {
            cfg,
            store,
            tok_emb,
            pos_emb,
            blocks,
            ln_f,
            head,
            rng,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.store.num_elements()
    }

    /// A row-major copy of every parameter (for checkpoints, quantization
    /// and inspection).
    pub fn params(&self) -> ParamStore {
        self.store.to_row_major()
    }

    /// The tape's forward over one sequence, returning the logits node
    /// `[1, t, vocab]`. Training passes the dropout stream as `rng`;
    /// inference passes `None` and draws nothing.
    fn forward(
        &self,
        g: &mut Graph,
        bound: &Bound,
        ids: &[usize],
        mut rng: Option<&mut Rand>,
    ) -> Var {
        let (t, d) = (ids.len(), self.cfg.d_model);
        assert!(
            t <= self.cfg.max_seq_len,
            "sequence length {t} exceeds max_seq_len {}",
            self.cfg.max_seq_len
        );
        let tok = g.embedding(bound.var(self.tok_emb), ids);
        let tok = g.reshape(tok, &[1, t, d]);
        let positions: Vec<usize> = (0..t).collect();
        let pos = g.embedding(bound.var(self.pos_emb), &positions);
        let pos = g.reshape(pos, &[1, t, d]);
        let mut x = g.add(tok, pos);
        let mask = g.input(causal_mask(self.cfg.n_heads, t));
        let dropout = if rng.is_some() { self.cfg.dropout } else { 0.0 };
        for block in &self.blocks {
            x = block.forward(g, bound, x, Some(mask), dropout, rng.as_deref_mut());
        }
        let x = self.ln_f.forward(g, bound, x);
        self.head.forward(g, bound, x)
    }

    /// Shifted next-token targets: `target[i] = ids[i+1]`, the final
    /// position ignored.
    fn causal_targets(ids: &[usize]) -> Vec<usize> {
        (1..=ids.len())
            .map(|i| ids.get(i).copied().unwrap_or(IGNORE_INDEX))
            .collect()
    }

    /// Builds the scalar causal-LM loss of one sequence, with dropout from
    /// `rng` when training.
    fn loss_graph(&self, ids: &[usize], rng: Option<&mut Rand>) -> (Graph, Bound, Var) {
        let targets = Self::causal_targets(ids);
        let mut g = Graph::new();
        let bound = Bound::bind(&self.store, &mut g);
        let logits = self.forward(&mut g, &bound, ids, rng);
        let logits2 = g.reshape(logits, &[ids.len(), self.cfg.vocab_size]);
        let loss = g.cross_entropy(logits2, &targets);
        (g, bound, loss)
    }

    /// One optimizer step on a batch; returns the loss value.
    ///
    /// Data-parallel: each example becomes one shard with its own graph;
    /// shards run across the worker pool and their gradients are reduced in
    /// fixed shard order, weighted by scored-position count — so the update
    /// equals the full-batch gradient and is bit-identical at any thread
    /// count. Per-shard dropout seeds are drawn sequentially from the model
    /// RNG *before* the parallel region, keeping the random stream
    /// independent of execution order. Shards are handed to the pool
    /// longest-first (a stable sort, so ties keep batch order), so a long
    /// example never starts last and runs alone; the schedule decides only
    /// when a shard runs, never what it computes or the order it is summed.
    pub fn train_step(&mut self, batch: &[Vec<usize>], opt: &mut Adam) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        let _step_timer = lm4db_obs::span("train_step");
        let seeds: Vec<u64> = batch.iter().map(|_| self.rng.next_u64()).collect();
        let n = batch.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(batch[i].len()));
        type Shard = Option<(f32, Vec<Tensor>, f32)>;
        let mut ran: Vec<Shard> = vec![None; n];
        let this = &*self;
        lm4db_tensor::parallel_rows_mut(&mut ran, n, 1, |first, block| {
            for (i, slot) in block.iter_mut().enumerate() {
                let idx = order[first + i];
                let mut rng = Rand::seeded(seeds[idx]);
                // Flat per-phase timers: shards run on arbitrary pool
                // threads, so the fwd/bwd split must aggregate under one
                // name regardless of which thread executed the shard.
                let fwd = lm4db_obs::leaf("train/fwd");
                let (mut g, bound, loss) = this.loss_graph(&batch[idx], Some(&mut rng));
                let loss_val = g.value(loss).item();
                drop(fwd);
                let bwd = lm4db_obs::leaf("train/bwd");
                g.backward(loss);
                let grads = bound.grads(&this.store, &g);
                drop(bwd);
                *slot = Some((loss_val, grads, scored_positions(&batch[idx])));
            }
        });
        // Back to batch order: the reduction below folds shards by index.
        let mut shards: Vec<Shard> = vec![None; n];
        for (&idx, s) in order.iter().zip(ran) {
            shards[idx] = s;
        }
        let shards: Vec<(f32, Vec<Tensor>, f32)> =
            shards.into_iter().map(|s| s.expect("shard ran")).collect();
        let total_w: f32 = shards.iter().map(|s| s.2).sum();
        let total_w = if total_w > 0.0 { total_w } else { 1.0 };
        let loss_val: f32 = shards.iter().map(|s| s.0 * s.2).sum::<f32>() / total_w;
        // Weighted-average gradients, parameter-parallel but shard-serial:
        // element j of parameter p is folded over shards in ascending shard
        // order no matter how threads are assigned.
        let reduce = lm4db_obs::leaf("train/reduce");
        let mut grads: Vec<Tensor> = shards[0]
            .1
            .iter()
            .map(|t| Tensor::zeros(t.shape()))
            .collect();
        lm4db_tensor::parallel_rows_mut(&mut grads, shards[0].1.len(), 1, |first, block| {
            for (p, out) in block.iter_mut().enumerate() {
                for (_, g, w) in shards.iter() {
                    let scale = w / total_w;
                    for (o, &x) in out.data_mut().iter_mut().zip(g[first + p].data().iter()) {
                        *o += scale * x;
                    }
                }
            }
        });
        drop(reduce);
        let _optim = lm4db_obs::leaf("train/optim");
        clip_grad_norm(&self.store, &mut grads, 1.0);
        opt.step(&mut self.store, &grads);
        loss_val
    }

    /// Mean causal-LM loss over a batch without updating parameters: each
    /// sequence's own tape loss, weighted by its scored positions (tokens
    /// with a next-token target), so the batch value is the mean over every
    /// scored position. A one-sequence batch returns its graph's loss bit
    /// for bit.
    pub fn eval_loss(&self, batch: &[Vec<usize>]) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        let total: f32 = batch.iter().map(|ids| scored_positions(ids)).sum();
        let total = if total > 0.0 { total } else { 1.0 };
        batch.iter().fold(0.0, |acc, ids| {
            let (g, _bound, loss) = self.loss_graph(ids, None);
            acc + g.value(loss).item() * (scored_positions(ids) / total)
        })
    }

    /// Creates a fresh Adam optimizer matching this model's parameters.
    pub fn optimizer(&self, lr: f32) -> Adam {
        Adam::new(&self.store, lr).with_weight_decay(0.01)
    }

    /// Logits for every position of one sequence, `[t, vocab]`, from the
    /// tape's forward: the reference every inference path is tested
    /// against. Serving and decoding read logits from a
    /// [`crate::KvCache`] instead, which computes each position once.
    pub fn sequence_logits(&self, ids: &[usize]) -> Tensor {
        assert!(!ids.is_empty(), "sequence_logits on empty sequence");
        let mut g = Graph::new();
        let bound = Bound::bind(&self.store, &mut g);
        let logits = self.forward(&mut g, &bound, ids, None);
        g.value(logits).reshape(&[ids.len(), self.cfg.vocab_size])
    }
}

/// The positions of `ids` that have a next-token target: a sequence's
/// weight in a batch's mean loss and gradient.
fn scored_positions(ids: &[usize]) -> f32 {
    ids.len().saturating_sub(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm4db_tokenize::BOS;

    fn tiny() -> GptModel {
        GptModel::new(ModelConfig::test(), 7)
    }

    #[test]
    fn param_count_matches_formula() {
        let m = tiny();
        assert_eq!(m.num_params(), m.config().param_count_decoder());
    }

    #[test]
    fn initial_loss_is_near_uniform() {
        let m = tiny();
        let batch = vec![vec![BOS, 10, 11, 12, 13]];
        let loss = m.eval_loss(&batch);
        let uniform = (m.config().vocab_size as f32).ln();
        assert!(
            (loss - uniform).abs() < 1.0,
            "initial loss {loss} far from ln(V) = {uniform}"
        );
    }

    #[test]
    fn training_reduces_loss_on_fixed_pattern() {
        let mut m = tiny();
        let mut opt = m.optimizer(3e-3);
        // A deterministic repeating pattern the model should memorize.
        let batch: Vec<Vec<usize>> = vec![
            vec![BOS, 10, 11, 12, 10, 11, 12, 10, 11, 12],
            vec![BOS, 20, 21, 22, 20, 21, 22, 20, 21, 22],
        ];
        let before = m.eval_loss(&batch);
        for _ in 0..60 {
            m.train_step(&batch, &mut opt);
        }
        let after = m.eval_loss(&batch);
        assert!(
            after < before * 0.5,
            "loss did not drop: {before} -> {after}"
        );
    }

    #[test]
    fn batch_loss_is_the_weighted_fold_of_sequence_losses() {
        // Each sequence runs through its own graph; the batch value folds
        // them in batch order, weighted by scored positions (3 and 7).
        let m = tiny();
        let short = vec![BOS, 10, 11, 12];
        let long = vec![BOS, 20, 21, 22, 23, 24, 25, 26];
        let solo = m.eval_loss(std::slice::from_ref(&short));
        let long_solo = m.eval_loss(std::slice::from_ref(&long));
        let both = m.eval_loss(&[short, long]);
        let expected = 0.0 + solo * (3.0 / 10.0) + long_solo * (7.0 / 10.0);
        assert_eq!(both.to_bits(), expected.to_bits());
    }

    #[test]
    fn train_step_reduces_in_batch_order_whatever_the_schedule() {
        // Ties and a longest-first order that differs from index order, with
        // dropout on so every shard's seed matters.
        let cfg = ModelConfig {
            dropout: 0.1,
            ..ModelConfig::test()
        };
        let batch: Vec<Vec<usize>> = [3, 9, 5, 9, 1, 7]
            .iter()
            .enumerate()
            .map(|(b, &len)| (0..len).map(|i| 8 + (b * 7 + i * 3) % 50).collect())
            .collect();
        let mut m = GptModel::new(cfg.clone(), 13);
        let mut opt = m.optimizer(3e-3);
        let loss = m.train_step(&batch, &mut opt);

        // Reference: a twin model (same seed, so its RNG starts where `m`'s
        // did) runs every shard serially in index order.
        let mut r = GptModel::new(cfg, 13);
        let mut r_opt = r.optimizer(3e-3);
        let seeds: Vec<u64> = batch.iter().map(|_| r.rng.next_u64()).collect();
        let mut shards = Vec::new();
        for (seq, &seed) in batch.iter().zip(&seeds) {
            let mut rng = Rand::seeded(seed);
            let (mut g, bound, l) = r.loss_graph(seq, Some(&mut rng));
            let l_val = g.value(l).item();
            g.backward(l);
            let w = seq.len().saturating_sub(1) as f32;
            shards.push((l_val, bound.grads(&r.store, &g), w));
        }
        let total_w: f32 = shards.iter().map(|s| s.2).sum();
        let r_loss: f32 = shards.iter().map(|s| s.0 * s.2).sum::<f32>() / total_w;
        let mut grads: Vec<Tensor> = shards[0]
            .1
            .iter()
            .map(|t| Tensor::zeros(t.shape()))
            .collect();
        for (p, out) in grads.iter_mut().enumerate() {
            for (_, g, w) in &shards {
                let scale = w / total_w;
                for (o, &x) in out.data_mut().iter_mut().zip(g[p].data()) {
                    *o += scale * x;
                }
            }
        }
        clip_grad_norm(&r.store, &mut grads, 1.0);
        r_opt.step(&mut r.store, &grads);

        assert_eq!(loss.to_bits(), r_loss.to_bits());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ((name, got), (_, want)) in m.params().iter().zip(r.params().iter()) {
            assert_eq!(bits(got), bits(want), "parameter {name} moved");
        }
    }

    /// Train steps that clip, pinned: every step's pre-clip gradient norm
    /// (each above `train_step`'s `max_norm` of 1, so every step rescales)
    /// and the checkpoint bytes after the last step are constants, so
    /// neither the threshold nor the order `clip_grad_norm` folds in can
    /// move unnoticed.
    #[test]
    fn clipped_train_steps_are_pinned() {
        let seq = vec![BOS, 10, 11, 12, 13, 14, 15, 16, 17];
        let batch = std::slice::from_ref(&seq);
        let mut m = GptModel::new(ModelConfig::test(), 1);
        let mut opt = m.optimizer(1e-2);
        let mut norms = Vec::new();
        for _ in 0..6 {
            // One sequence: `train_step`'s reduction scales its gradient by
            // exactly 1, so this is the norm the step clips by.
            let (mut g, bound, loss) = m.loss_graph(&seq, None);
            g.backward(loss);
            let mut grads = bound.grads(&m.store, &g);
            let norm = clip_grad_norm(&m.store, &mut grads, f32::INFINITY);
            assert!(norm > 1.0, "step does not clip: norm {norm}");
            norms.push(norm.to_bits());
            m.train_step(batch, &mut opt);
        }
        let fnv1a = m.to_json().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!(
            (norms, fnv1a),
            (
                vec![
                    0x41c0_7f8b,
                    0x411a_f474,
                    0x408b_9640,
                    0x40de_6483,
                    0x404e_b4fb,
                    0x4018_b4f3,
                ],
                0x1178_0b80_7929_de37
            )
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = GptModel::new(ModelConfig::test(), 3);
        let b = GptModel::new(ModelConfig::test(), 3);
        let batch = vec![vec![BOS, 9, 8, 7]];
        assert_eq!(a.eval_loss(&batch), b.eval_loss(&batch));
    }
}
