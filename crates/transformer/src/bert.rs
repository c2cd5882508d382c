//! BERT-style bidirectional encoder with masked-language-model pre-training
//! and a fine-tunable classification head.
//!
//! Mirrors Devlin et al. (NAACL 2019) at laptop scale: WordPiece tokens,
//! `[CLS]`/`[SEP]` framing, segment embeddings, the 80/10/10 masking recipe,
//! and fine-tuning by appending a task head and training end-to-end.

use lm4db_tensor::{
    clip_grad_norm, init, Adam, Bound, Graph, ParamId, ParamStore, Rand, Var, IGNORE_INDEX,
};
use lm4db_tokenize::{vocab::SPECIAL_TOKENS, MASK};

use crate::config::ModelConfig;
use crate::layers::{pad_batch, padding_mask, Block, LayerNorm, Linear};

/// A bidirectional transformer encoder with an MLM head.
pub struct BertModel {
    cfg: ModelConfig,
    store: ParamStore,
    tok_emb: ParamId,
    pos_emb: ParamId,
    seg_emb: ParamId,
    blocks: Vec<Block>,
    ln_f: LayerNorm,
    mlm_dense: Linear,
    mlm_ln: LayerNorm,
    head: Linear,
    rng: Rand,
}

impl BertModel {
    /// Builds a freshly initialized encoder.
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
        let seg_emb = store.add("seg_emb", init::normal(&[2, cfg.d_model], 0.02, &mut rng));
        let blocks = (0..cfg.n_layers)
            .map(|i| Block::new(&mut store, &format!("block{i}"), &cfg, &mut rng))
            .collect();
        let ln_f = LayerNorm::new(&mut store, "ln_f", cfg.d_model);
        let mlm_dense = Linear::new(&mut store, "mlm_dense", cfg.d_model, cfg.d_model, &mut rng);
        let mlm_ln = LayerNorm::new(&mut store, "mlm_ln", cfg.d_model);
        let head = Linear::new(&mut store, "head", cfg.d_model, cfg.vocab_size, &mut rng);
        BertModel {
            cfg,
            store,
            tok_emb,
            pos_emb,
            seg_emb,
            blocks,
            ln_f,
            mlm_dense,
            mlm_ln,
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

    /// Mutable access to the store (used by [`BertClassifier`] to register
    /// its task head alongside the encoder parameters).
    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Read access to the parameter store, projection weights in decode
    /// panel order ([`ParamStore::to_row_major`] copies them out).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Encoder forward pass: returns contextual hidden states `[b, t, d]`.
    ///
    /// `segments` assigns each position to segment 0 or 1 (BERT's sentence
    /// A/B); pass all zeros for single-segment input. Training passes the
    /// dropout stream as `rng`; inference passes `None` and draws nothing.
    #[allow(clippy::too_many_arguments)]
    fn encode(
        &self,
        g: &mut Graph,
        bound: &Bound,
        ids: &[usize],
        segments: &[usize],
        b: usize,
        t: usize,
        lengths: &[usize],
        mut rng: Option<&mut Rand>,
    ) -> Var {
        assert!(
            t <= self.cfg.max_seq_len,
            "sequence length {t} exceeds max_seq_len {}",
            self.cfg.max_seq_len
        );
        assert_eq!(ids.len(), segments.len(), "ids/segments length mismatch");
        let tok = g.embedding(bound.var(self.tok_emb), ids);
        let tok = g.reshape(tok, &[b, t, self.cfg.d_model]);
        let positions: Vec<usize> = (0..b).flat_map(|_| 0..t).collect();
        let pos = g.embedding(bound.var(self.pos_emb), &positions);
        let pos = g.reshape(pos, &[b, t, self.cfg.d_model]);
        let seg = g.embedding(bound.var(self.seg_emb), segments);
        let seg = g.reshape(seg, &[b, t, self.cfg.d_model]);
        let x = g.add(tok, pos);
        let mut x = g.add(x, seg);

        let mask = if lengths.iter().any(|&l| l < t) {
            Some(g.input(padding_mask(lengths, self.cfg.n_heads, t)))
        } else {
            None
        };
        let dropout = if rng.is_some() { self.cfg.dropout } else { 0.0 };
        for block in &self.blocks {
            x = block.forward(g, bound, x, mask, dropout, rng.as_deref_mut());
        }
        self.ln_f.forward(g, bound, x)
    }

    /// Applies the BERT masking recipe to `ids`: each non-special position
    /// is selected with probability `mask_prob`; a selected position becomes
    /// `[MASK]` 80% of the time, a random token 10%, and stays itself 10%.
    /// Returns `(corrupted_ids, targets)` where unselected targets are
    /// [`IGNORE_INDEX`].
    pub fn mask_tokens(
        ids: &[usize],
        vocab_size: usize,
        mask_prob: f32,
        rng: &mut Rand,
    ) -> (Vec<usize>, Vec<usize>) {
        let n_special = SPECIAL_TOKENS.len();
        let mut corrupted = ids.to_vec();
        let mut targets = vec![IGNORE_INDEX; ids.len()];
        for (i, &id) in ids.iter().enumerate() {
            if id < n_special {
                continue;
            }
            if rng.uniform() >= mask_prob {
                continue;
            }
            targets[i] = id;
            let roll = rng.uniform();
            if roll < 0.8 {
                corrupted[i] = MASK;
            } else if roll < 0.9 {
                corrupted[i] = n_special + rng.below(vocab_size - n_special);
            } // else: keep the original token
        }
        (corrupted, targets)
    }

    /// Builds the training-mode MLM loss over a batch of already-corrupted
    /// inputs and their targets, drawing dropout from `rng`.
    fn mlm_loss_graph(
        &self,
        corrupted: &[Vec<usize>],
        targets: &[Vec<usize>],
        rng: &mut Rand,
    ) -> (Graph, Bound, Var) {
        let (flat, b, t, lengths) = pad_batch(corrupted);
        let mut flat_targets = Vec::with_capacity(b * t);
        for row in targets {
            flat_targets.extend_from_slice(row);
            flat_targets.extend(std::iter::repeat_n(IGNORE_INDEX, t - row.len()));
        }
        let segments = vec![0usize; flat.len()];
        let mut g = Graph::new();
        let bound = Bound::bind(&self.store, &mut g);
        let h = self.encode(&mut g, &bound, &flat, &segments, b, t, &lengths, Some(rng));
        let h = self.mlm_dense.forward(&mut g, &bound, h);
        let h = g.gelu(h);
        let h = self.mlm_ln.forward(&mut g, &bound, h);
        let logits = self.head.forward(&mut g, &bound, h);
        let logits2 = g.reshape(logits, &[b * t, self.cfg.vocab_size]);
        let loss = g.cross_entropy(logits2, &flat_targets);
        (g, bound, loss)
    }

    /// One masked-LM pre-training step: corrupts the batch with the 80/10/10
    /// recipe at 15% and takes an optimizer step. Returns the loss.
    pub fn mlm_train_step(&mut self, batch: &[Vec<usize>], opt: &mut Adam) -> f32 {
        let vocab = self.cfg.vocab_size;
        let mut rng = self.lend_rng();
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = batch
            .iter()
            .map(|seq| Self::mask_tokens(seq, vocab, 0.15, &mut rng))
            .collect();
        let corrupted: Vec<Vec<usize>> = pairs.iter().map(|(c, _)| c.clone()).collect();
        let targets: Vec<Vec<usize>> = pairs.into_iter().map(|(_, t)| t).collect();
        let (mut g, bound, loss) = self.mlm_loss_graph(&corrupted, &targets, &mut rng);
        self.rng = rng;
        let loss_val = g.value(loss).item();
        g.backward(loss);
        let mut grads = bound.grads(&self.store, &g);
        clip_grad_norm(&self.store, &mut grads, 1.0);
        opt.step(&mut self.store, &grads);
        loss_val
    }

    /// Predicts the most likely token at every `[MASK]` position of `ids`.
    /// Returns `(position, predicted_id)` pairs.
    pub fn predict_masked(&self, ids: &[usize]) -> Vec<(usize, usize)> {
        let t = ids.len();
        let segments = vec![0usize; t];
        let mut g = Graph::new();
        let bound = Bound::bind(&self.store, &mut g);
        let h = self.encode(&mut g, &bound, ids, &segments, 1, t, &[t], None);
        let h = self.mlm_dense.forward(&mut g, &bound, h);
        let h = g.gelu(h);
        let h = self.mlm_ln.forward(&mut g, &bound, h);
        let logits = self.head.forward(&mut g, &bound, h);
        let preds = g.value(logits).argmax_last();
        ids.iter()
            .enumerate()
            .filter(|&(_, &id)| id == MASK)
            .map(|(i, _)| (i, preds[i]))
            .collect()
    }

    /// Takes the dropout stream out of the model for one training step, so
    /// the step's forward can read the model through `&self`; the caller
    /// puts it back.
    fn lend_rng(&mut self) -> Rand {
        std::mem::replace(&mut self.rng, Rand::seeded(0))
    }

    /// Creates an Adam optimizer matching this model's parameters. Note:
    /// must be re-created after wrapping in a [`BertClassifier`].
    pub fn optimizer(&self, lr: f32) -> Adam {
        Adam::new(&self.store, lr).with_weight_decay(0.01)
    }
}

/// A BERT encoder plus a linear classification head over the `[CLS]`
/// position — the standard fine-tuning setup.
pub struct BertClassifier {
    model: BertModel,
    cls_head: Linear,
    n_classes: usize,
}

impl BertClassifier {
    /// Wraps `model`, registering an `n_classes`-way head in its store.
    pub fn new(mut model: BertModel, n_classes: usize, seed: u64) -> Self {
        let mut rng = Rand::seeded(seed);
        let d = model.cfg.d_model;
        let cls_head = Linear::new(model.store_mut(), "cls_head", d, n_classes, &mut rng);
        BertClassifier {
            model,
            cls_head,
            n_classes,
        }
    }

    /// Number of target classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The wrapped encoder.
    pub fn encoder(&self) -> &BertModel {
        &self.model
    }

    /// Creates an optimizer covering encoder and head.
    pub fn optimizer(&self, lr: f32) -> Adam {
        Adam::new(&self.model.store, lr).with_weight_decay(0.01)
    }

    /// Class logits `[b, n_classes]` from the `[CLS]` position, with
    /// dropout from `rng` when training.
    fn logits_graph(&self, batch: &[Vec<usize>], rng: Option<&mut Rand>) -> (Graph, Bound, Var) {
        let (flat, b, t, lengths) = pad_batch(batch);
        let segments = vec![0usize; flat.len()];
        let mut g = Graph::new();
        let bound = Bound::bind(&self.model.store, &mut g);
        let h = self
            .model
            .encode(&mut g, &bound, &flat, &segments, b, t, &lengths, rng);
        let pooled = g.select_positions(h, &vec![0; b]);
        let logits = self.cls_head.forward(&mut g, &bound, pooled);
        (g, bound, logits)
    }

    /// One fine-tuning step on `(sequence, label)` pairs; returns the loss.
    pub fn train_step(&mut self, batch: &[Vec<usize>], labels: &[usize], opt: &mut Adam) -> f32 {
        assert_eq!(batch.len(), labels.len(), "one label per sequence");
        let mut rng = self.model.lend_rng();
        let (mut g, bound, logits) = self.logits_graph(batch, Some(&mut rng));
        self.model.rng = rng;
        let loss = g.cross_entropy(logits, labels);
        let loss_val = g.value(loss).item();
        g.backward(loss);
        let mut grads = bound.grads(&self.model.store, &g);
        clip_grad_norm(&self.model.store, &mut grads, 1.0);
        opt.step(&mut self.model.store, &grads);
        loss_val
    }

    /// Predicted class per sequence.
    pub fn predict(&self, batch: &[Vec<usize>]) -> Vec<usize> {
        let (g, _bound, logits) = self.logits_graph(batch, None);
        g.value(logits).argmax_last()
    }

    /// Class probabilities per sequence (`[b][n_classes]`).
    pub fn predict_proba(&self, batch: &[Vec<usize>]) -> Vec<Vec<f32>> {
        let (g, _bound, logits) = self.logits_graph(batch, None);
        let probs = g.value(logits).softmax_last();
        probs
            .data()
            .chunks(self.n_classes)
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Accuracy on a labeled set.
    pub fn accuracy(&self, batch: &[Vec<usize>], labels: &[usize]) -> f32 {
        let preds = self.predict(batch);
        let correct = preds
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count();
        correct as f32 / labels.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm4db_tokenize::{CLS, SEP};

    fn tiny() -> BertModel {
        BertModel::new(ModelConfig::test(), 11)
    }

    #[test]
    fn param_count_matches_formula() {
        let m = tiny();
        assert_eq!(m.num_params(), m.config().param_count_encoder());
    }

    #[test]
    fn mask_tokens_recipe_statistics() {
        let mut rng = Rand::seeded(1);
        let ids: Vec<usize> = (0..2000).map(|i| 10 + (i % 40)).collect();
        let (corrupted, targets) = BertModel::mask_tokens(&ids, 64, 0.15, &mut rng);
        let selected = targets.iter().filter(|&&t| t != IGNORE_INDEX).count();
        let frac = selected as f32 / ids.len() as f32;
        assert!((0.10..0.20).contains(&frac), "selected fraction {frac}");
        let masked = corrupted.iter().filter(|&&c| c == MASK).count();
        // ~80% of selected become [MASK].
        let mask_frac = masked as f32 / selected as f32;
        assert!(
            (0.65..0.95).contains(&mask_frac),
            "mask fraction {mask_frac}"
        );
    }

    #[test]
    fn mask_tokens_never_touches_specials() {
        let mut rng = Rand::seeded(2);
        let ids = vec![CLS, 10, 11, SEP];
        for _ in 0..50 {
            let (corrupted, targets) = BertModel::mask_tokens(&ids, 64, 0.9, &mut rng);
            assert_eq!(corrupted[0], CLS);
            assert_eq!(corrupted[3], SEP);
            assert_eq!(targets[0], IGNORE_INDEX);
            assert_eq!(targets[3], IGNORE_INDEX);
        }
    }

    #[test]
    fn mlm_training_reduces_loss() {
        let mut m = tiny();
        let mut opt = m.optimizer(3e-3);
        let batch: Vec<Vec<usize>> = (0..4)
            .map(|i| {
                let mut s = vec![CLS];
                s.extend((0..8).map(|j| 10 + (i * 8 + j) % 20));
                s.push(SEP);
                s
            })
            .collect();
        let losses: Vec<f32> = (0..40)
            .map(|_| m.mlm_train_step(&batch, &mut opt))
            .collect();
        let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "MLM loss did not drop: {early} -> {late}");
    }

    #[test]
    fn predict_masked_reports_mask_positions() {
        let m = tiny();
        let ids = vec![CLS, 10, MASK, 12, SEP];
        let preds = m.predict_masked(&ids);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].0, 2);
        assert!(preds[0].1 < m.config().vocab_size);
    }

    #[test]
    fn classifier_learns_toy_task() {
        // Class = whether the sequence contains token 10 or token 20.
        let model = tiny();
        let mut clf = BertClassifier::new(model, 2, 5);
        let mut opt = clf.optimizer(3e-3);
        let data: Vec<(Vec<usize>, usize)> = (0..8)
            .map(|i| {
                let marker = if i % 2 == 0 { 10 } else { 20 };
                let filler = 30 + i;
                (vec![CLS, filler, marker, filler, SEP], i % 2)
            })
            .collect();
        let batch: Vec<Vec<usize>> = data.iter().map(|(s, _)| s.clone()).collect();
        let labels: Vec<usize> = data.iter().map(|(_, l)| *l).collect();
        for _ in 0..80 {
            clf.train_step(&batch, &labels, &mut opt);
        }
        let acc = clf.accuracy(&batch, &labels);
        assert!(acc >= 0.9, "classifier failed to fit toy task: acc {acc}");
    }

    #[test]
    fn classifier_proba_sums_to_one() {
        let model = tiny();
        let clf = BertClassifier::new(model, 3, 5);
        let probs = clf.predict_proba(&[vec![CLS, 10, SEP], vec![CLS, 20, SEP]]);
        assert_eq!(probs.len(), 2);
        for row in probs {
            assert_eq!(row.len(), 3);
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    /// Masked-LM and classifier steps that clip, pinned: each step's
    /// gradient norm is above the `max_norm` of 1 both steps clip to, so
    /// every update is rescaled, and the checkpoint bytes after the last
    /// step are a constant — neither the threshold nor the order
    /// `clip_grad_norm` folds in can move unnoticed.
    #[test]
    fn clipped_train_steps_are_pinned() {
        let batch: Vec<Vec<usize>> = (0..4)
            .map(|i| {
                let mut s = vec![CLS];
                s.extend((0..10).map(|j| 10 + (i * 11 + j * 5) % 50));
                s.push(SEP);
                s
            })
            .collect();
        let mut m = BertModel::new(ModelConfig::test(), 4);
        let mut opt = m.optimizer(1e-2);
        for _ in 0..4 {
            m.mlm_train_step(&batch, &mut opt);
        }
        let mut clf = BertClassifier::new(m, 3, 8);
        let mut opt = clf.optimizer(1e-2);
        for _ in 0..4 {
            clf.train_step(&batch, &[2, 0, 1, 2], &mut opt);
        }
        let fnv1a = clf
            .encoder()
            .to_json()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
            });
        assert_eq!(fnv1a, 0x8508_2172_a69e_4326);
    }

    #[test]
    fn variable_length_batches_work() {
        let mut m = tiny();
        let mut opt = m.optimizer(1e-3);
        let batch = vec![vec![CLS, 10, SEP], vec![CLS, 10, 11, 12, 13, SEP]];
        let loss = m.mlm_train_step(&batch, &mut opt);
        assert!(loss.is_finite());
    }
}
