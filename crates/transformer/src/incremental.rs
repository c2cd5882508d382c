//! KV-cache incremental decoding: an inference-only fast path that reuses
//! attention keys/values across generation steps, turning the O(t²)
//! recompute-everything decode loop into O(t) per new token.
//!
//! The per-request decode state lives in an explicit, snapshottable
//! [`KvCache`]: per-layer attention caches plus the consumed tokens and the
//! latest logits. A cache is a pure function of the token prefix, so it can
//! be cloned to fork a beam, or its per-position rows can be extracted and
//! re-materialized by a prefix cache (see `lm4db-serve`) — both bitwise
//! identical to recomputing from scratch.
//!
//! [`IncrementalSession`] wraps a cache together with a model reference and
//! implements [`NextToken`], so every decoding strategy can use it
//! transparently: when a requested prefix extends the tokens already
//! consumed, only the new suffix is processed; otherwise the cache resets.

use lm4db_tokenize::PAD;

use crate::generate::NextToken;
use crate::gpt::GptModel;
use crate::layers::AttnCache;
use crate::quant::QuantizedGpt;

/// The complete per-request decode state: per-layer attention key/value
/// caches, the token prefix they encode, and the logits after the last fed
/// token. Snapshot with `clone()`; share prefixes via [`KvCache::position_kv`]
/// / [`KvCache::push_position`].
///
/// All buffers are preallocated to `max_seq_len` capacity at construction,
/// so feeding a token performs a bounded number of allocations regardless
/// of how much history the cache holds (verified by a regression test).
#[derive(Debug, Clone)]
pub struct KvCache {
    layers: Vec<AttnCache>,
    tokens: Vec<usize>,
    last_logits: Vec<f32>,
}

impl KvCache {
    /// An empty cache sized for `model`: every per-layer key/value store is
    /// reserved up front for `max_seq_len` positions.
    pub fn new(model: &GptModel) -> Self {
        let cfg = model.config();
        let layers = (0..cfg.n_layers)
            .map(|_| {
                let mut c = AttnCache::new();
                c.reserve(cfg.max_seq_len, cfg.d_model);
                c
            })
            .collect();
        KvCache {
            layers,
            tokens: Vec::with_capacity(cfg.max_seq_len),
            last_logits: Vec::with_capacity(cfg.vocab_size),
        }
    }

    /// Number of tokens fed so far.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no token has been fed.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The tokens this cache encodes, in feed order.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Logits after the most recently fed token (empty before any feed).
    pub fn last_logits(&self) -> &[f32] {
        &self.last_logits
    }

    /// Resets to the empty prefix, keeping all allocations.
    pub fn clear(&mut self) {
        for c in &mut self.layers {
            c.clear();
        }
        self.tokens.clear();
        self.last_logits.clear();
    }

    /// Feeds one token through `model`, returning the next-token logits.
    ///
    /// # Panics
    /// Panics when the context would exceed the model's `max_seq_len`, or
    /// when `token` is out of vocabulary.
    pub fn feed(&mut self, model: &GptModel, token: usize) -> &[f32] {
        // Flat timer, not a span: feeds happen per token per sequence and
        // should aggregate under one name wherever they run.
        let _timer = lm4db_obs::leaf("infer/feed_token");
        self.feed_token(model, None, token)
    }

    /// Feeds one token through the int8 quantized path: embeddings, layer
    /// norms, residuals, and attention mixing stay f32 (from `model`); all
    /// heavy projections run int8 (from `quant`). Returns the next-token
    /// logits.
    ///
    /// A cache fed through this path holds quantized-path keys/values — do
    /// not mix f32 and quantized feeds on the same cache.
    ///
    /// # Panics
    /// Panics when the context would exceed the model's `max_seq_len`, when
    /// `token` is out of vocabulary, or when `quant` was built from a model
    /// with a different layer count.
    pub fn feed_quant(&mut self, model: &GptModel, quant: &QuantizedGpt, token: usize) -> &[f32] {
        // Distinct leaf from the f32 path so traces show which decode path
        // served a request.
        let _timer = lm4db_obs::leaf("infer/feed_token_q8");
        self.feed_token(model, Some(quant), token)
    }

    /// The one body behind [`KvCache::feed`] and [`KvCache::feed_quant`]:
    /// bounds checks, embedding lookup, final norm and head are shared;
    /// the weight format only selects the per-layer block step.
    fn feed_token(&mut self, m: &GptModel, quant: Option<&QuantizedGpt>, token: usize) -> &[f32] {
        let pos = self.tokens.len();
        assert!(
            pos < m.cfg.max_seq_len,
            "kv cache exceeded max_seq_len {}",
            m.cfg.max_seq_len
        );
        assert!(token < m.cfg.vocab_size, "token {token} out of vocabulary");
        if let Some(q) = quant {
            assert_eq!(
                q.n_blocks(),
                m.blocks.len(),
                "quantized snapshot does not match model depth"
            );
        }
        let d = m.cfg.d_model;
        let tok_emb = m.store.get(m.tok_emb);
        let pos_emb = m.store.get(m.pos_emb);
        // The position row is indexed directly by the cache length — no
        // full-sequence recomputation per step.
        let mut x: Vec<f32> = tok_emb.data()[token * d..(token + 1) * d]
            .iter()
            .zip(pos_emb.data()[pos * d..(pos + 1) * d].iter())
            .map(|(a, b)| a + b)
            .collect();
        for (i, (block, cache)) in m.blocks.iter().zip(self.layers.iter_mut()).enumerate() {
            x = match quant {
                Some(q) => q.block(i).step(block, &m.store, &x, cache),
                None => block.step(&m.store, &x, cache),
            };
        }
        let x = m.ln_f.apply_slice(&m.store, &x);
        // The vocabulary head stays f32 on both paths: its logits feed
        // directly into argmax/beam comparisons, where int8 noise flips
        // decisions.
        self.last_logits = m.head.apply_slice(&m.store, &x);
        self.tokens.push(token);
        &self.last_logits
    }

    /// Feeds several tokens; returns the logits after the last one.
    pub fn feed_all(&mut self, model: &GptModel, tokens: &[usize]) -> &[f32] {
        self.feed_all_with(model, None, tokens)
    }

    /// [`KvCache::feed_all`] over either weight format: `Some(quant)`
    /// decodes through the int8 projections (see [`KvCache::feed_quant`]),
    /// `None` through the f32 model.
    pub fn feed_all_with(
        &mut self,
        model: &GptModel,
        quant: Option<&QuantizedGpt>,
        tokens: &[usize],
    ) -> &[f32] {
        assert!(!tokens.is_empty(), "feed_all of empty token slice");
        // Flat timer (not a span): feed_all runs both inline and on pool
        // workers, and a flat name aggregates identically either way. Under
        // a serve request scope its flight-recorder events carry the
        // request id, so per-request feed time falls out of the trace.
        let _timer = lm4db_obs::leaf(match quant {
            Some(_) => "kv/feed_all_q8",
            None => "kv/feed_all",
        });
        for &t in tokens {
            match quant {
                Some(q) => self.feed_quant(model, q, t),
                None => self.feed(model, t),
            };
        }
        &self.last_logits
    }

    /// Feeds `tokens` as ONE batched chunk, returning the next-token
    /// logits after EACH token (one row per token, last row == what
    /// [`KvCache::last_logits`] then holds). Bitwise identical to feeding
    /// the same tokens one at a time — the batched kernels keep the exact
    /// per-element accumulation order, and each chunk position attends
    /// over only its own prefix — but every weight panel is streamed once
    /// per chunk instead of once per token. This is the speculative-decode
    /// verification forward: the engine feeds `[corrected, draft₁..draftₖ]`
    /// here and uses the per-position logits to accept the longest
    /// agreeing draft prefix.
    ///
    /// # Panics
    /// Panics when the chunk would exceed the model's `max_seq_len` or any
    /// token is out of vocabulary.
    pub fn feed_many(&mut self, model: &GptModel, tokens: &[usize]) -> Vec<Vec<f32>> {
        self.feed_many_with(model, None, tokens)
    }

    /// [`KvCache::feed_many`] over either weight format. The int8 matvec
    /// keeps its own per-token layout, so with `Some(quant)` the chunk
    /// runs token by token — chunk semantics (per-position logits, cache
    /// state) are identical to the f32 batched path, it just doesn't
    /// amortize weight traffic yet.
    pub fn feed_many_with(
        &mut self,
        model: &GptModel,
        quant: Option<&QuantizedGpt>,
        tokens: &[usize],
    ) -> Vec<Vec<f32>> {
        assert!(!tokens.is_empty(), "feed_many of empty token slice");
        if let Some(q) = quant {
            let _timer = lm4db_obs::leaf("kv/feed_many_q8");
            return tokens
                .iter()
                .map(|&t| self.feed_quant(model, q, t).to_vec())
                .collect();
        }
        // Distinct flat timer from the per-token path, so the pinned
        // `infer/feed_token` count keeps meaning "tokens fed one at a
        // time" for the non-speculative engine.
        let _timer = lm4db_obs::leaf("kv/feed_many");
        let m = model;
        let n = tokens.len();
        let pos = self.tokens.len();
        assert!(
            pos + n <= m.cfg.max_seq_len,
            "kv cache exceeded max_seq_len {}",
            m.cfg.max_seq_len
        );
        let d = m.cfg.d_model;
        let tok_emb = m.store.get(m.tok_emb);
        let pos_emb = m.store.get(m.pos_emb);
        let mut xs = Vec::with_capacity(n * d);
        for (i, &token) in tokens.iter().enumerate() {
            assert!(token < m.cfg.vocab_size, "token {token} out of vocabulary");
            let p = pos + i;
            xs.extend(
                tok_emb.data()[token * d..(token + 1) * d]
                    .iter()
                    .zip(pos_emb.data()[p * d..(p + 1) * d].iter())
                    .map(|(a, b)| a + b),
            );
        }
        for (block, cache) in m.blocks.iter().zip(self.layers.iter_mut()) {
            xs = block.step_many(&m.store, &xs, n, cache);
        }
        let normed = m.ln_f.apply_rows(&m.store, &xs, n);
        let logits = m.head.apply_rows(&m.store, &normed, n);
        self.tokens.extend_from_slice(tokens);
        let rows: Vec<Vec<f32>> = logits
            .chunks_exact(m.cfg.vocab_size)
            .map(|r| r.to_vec())
            .collect();
        self.last_logits = rows.last().expect("non-empty chunk").clone();
        rows
    }

    /// Rolls the cache back to its first `len` tokens, dropping a rejected
    /// speculative tail: per-layer key/value rows past `len` are truncated
    /// and `last_logits` is restored to the caller-provided logits after
    /// token `len - 1` (the batched [`KvCache::feed_many`] returned them
    /// per position, so the verifier has them at hand). Key/value rows are
    /// pure functions of the token prefix, so a rolled-back cache is
    /// bitwise identical to one that never saw the dropped tokens.
    ///
    /// # Panics
    /// Panics when `len` is zero (use [`KvCache::clear`]), exceeds the
    /// cached length, or `last_logits` has the wrong width.
    pub fn rollback(&mut self, model: &GptModel, len: usize, last_logits: Vec<f32>) {
        assert!(len > 0, "rollback to empty prefix: use clear()");
        assert!(
            len <= self.tokens.len(),
            "rollback {len} beyond cache length {}",
            self.tokens.len()
        );
        assert_eq!(
            last_logits.len(),
            model.cfg.vocab_size,
            "rollback logits width mismatch"
        );
        let d = model.cfg.d_model;
        for layer in &mut self.layers {
            layer.truncate(len, d);
        }
        self.tokens.truncate(len);
        self.last_logits = last_logits;
    }

    /// Extracts the per-layer key/value rows of cached position `t` as one
    /// flat vector laid out `[k₀, v₀, k₁, v₁, …]` (layer-major, `d_model`
    /// per row). Together with [`KvCache::push_position`] this lets a
    /// prefix cache store shared positions once and re-materialize them
    /// into fresh caches bitwise-identically.
    pub fn position_kv(&self, model: &GptModel, t: usize) -> Vec<f32> {
        let d = model.cfg.d_model;
        let mut out = Vec::with_capacity(self.layers.len() * 2 * d);
        for layer in &self.layers {
            let (k, v) = layer.position(t, d);
            out.extend_from_slice(k);
            out.extend_from_slice(v);
        }
        out
    }

    /// Appends one position previously extracted with
    /// [`KvCache::position_kv`]. The cache must not have produced logits
    /// yet (restoration happens before any live feed), so `last_logits`
    /// stays empty until the first real [`KvCache::feed`].
    pub fn push_position(&mut self, model: &GptModel, token: usize, kv: &[f32]) {
        let d = model.cfg.d_model;
        assert!(
            self.tokens.len() < model.cfg.max_seq_len,
            "kv cache exceeded max_seq_len {}",
            model.cfg.max_seq_len
        );
        assert_eq!(
            kv.len(),
            self.layers.len() * 2 * d,
            "position_kv row width mismatch"
        );
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let base = i * 2 * d;
            layer.push_position(&kv[base..base + d], &kv[base + d..base + 2 * d]);
        }
        self.tokens.push(token);
    }
}

/// An incremental decoding session over a frozen [`GptModel`]: a
/// [`KvCache`] bound to its model.
pub struct IncrementalSession<'a> {
    model: &'a GptModel,
    cache: KvCache,
}

impl<'a> IncrementalSession<'a> {
    /// Starts an empty session.
    pub fn new(model: &'a GptModel) -> Self {
        IncrementalSession {
            model,
            cache: KvCache::new(model),
        }
    }

    /// Wraps an existing cache (e.g. restored from a prefix cache).
    pub fn from_cache(model: &'a GptModel, cache: KvCache) -> Self {
        IncrementalSession { model, cache }
    }

    /// Tokens consumed so far.
    pub fn consumed(&self) -> &[usize] {
        self.cache.tokens()
    }

    /// The underlying decode state.
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Consumes the session, returning the decode state.
    pub fn into_cache(self) -> KvCache {
        self.cache
    }

    /// Resets the session to the empty prefix.
    pub fn reset(&mut self) {
        self.cache.clear();
    }

    /// Number of cache resets a fresh prefix would cost; exposed so beam
    /// search-style callers can reason about reuse.
    pub fn position(&self) -> usize {
        self.cache.len()
    }

    /// Feeds one token, returning the next-token logits.
    ///
    /// # Panics
    /// Panics when the context would exceed the model's `max_seq_len`.
    pub fn feed(&mut self, token: usize) -> &[f32] {
        self.cache.feed(self.model, token)
    }

    /// Feeds several tokens; returns the logits after the last one.
    pub fn feed_all(&mut self, tokens: &[usize]) -> &[f32] {
        self.cache.feed_all(self.model, tokens)
    }
}

impl NextToken for IncrementalSession<'_> {
    fn vocab_size(&self) -> usize {
        self.model.cfg.vocab_size
    }

    fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32> {
        assert!(
            !prefix.is_empty(),
            "next_logits requires a non-empty prefix"
        );
        // Clamp long prefixes the same way GptModel does.
        let start = prefix.len().saturating_sub(self.model.cfg.max_seq_len);
        let window = &prefix[start..];
        let consumed = self.cache.len();
        let reusable =
            window.len() > consumed && window[..consumed] == self.cache.tokens()[..] && start == 0;
        if reusable {
            let new = window[consumed..].to_vec();
            return self.feed_all(&new).to_vec();
        }
        self.reset();
        self.feed_all(window).to_vec()
    }
}

/// Greedy generation through a KV-cache session — same contract as
/// [`crate::generate::greedy`] but O(t) per token.
pub fn greedy_cached(
    model: &GptModel,
    prefix: &[usize],
    max_new: usize,
    stop: usize,
) -> Vec<usize> {
    let mut session = IncrementalSession::new(model);
    let mut logits = session.feed_all(prefix).to_vec();
    let mut out = Vec::new();
    for _ in 0..max_new {
        let tok = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(PAD);
        if tok == stop || session.position() >= model.config().max_seq_len {
            break;
        }
        out.push(tok);
        logits = session.feed(tok).to_vec();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::generate::{greedy, Unconstrained};
    use lm4db_tokenize::{BOS, EOS};

    fn model() -> GptModel {
        GptModel::new(ModelConfig::test(), 7)
    }

    #[test]
    fn incremental_logits_match_full_forward() {
        let mut m = model();
        let prefix = vec![BOS, 10, 23, 41, 9, 30];
        let full = m.next_logits(&prefix);
        let mut session = IncrementalSession::new(&m);
        let inc = session.feed_all(&prefix).to_vec();
        assert_eq!(full.len(), inc.len());
        for (i, (a, b)) in full.iter().zip(inc.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-3,
                "logit {i} differs: full {a} vs incremental {b}"
            );
        }
    }

    #[test]
    fn parity_at_every_intermediate_position() {
        let mut m = model();
        let prefix = [BOS, 5, 6, 7, 8];
        // Compute all full-forward logits first (mutable borrow), then
        // replay the same positions through one session (shared borrow).
        let fulls: Vec<Vec<f32>> = (1..=prefix.len())
            .map(|t| m.next_logits(&prefix[..t]))
            .collect();
        let mut session = IncrementalSession::new(&m);
        for t in 1..=prefix.len() {
            let full = &fulls[t - 1];
            let inc = session.feed(prefix[t - 1]).to_vec();
            let max_diff = full
                .iter()
                .zip(inc.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 1e-3, "t={t}: max diff {max_diff}");
        }
    }

    #[test]
    fn next_token_impl_reuses_and_resets() {
        let m = model();
        let mut session = IncrementalSession::new(&m);
        let a = session.next_logits(&[BOS, 10, 11]);
        assert_eq!(session.position(), 3);
        // Extension: only one new token should be consumed.
        let _ = session.next_logits(&[BOS, 10, 11, 12]);
        assert_eq!(session.position(), 4);
        // Divergent prefix: the session resets.
        let b = session.next_logits(&[BOS, 10, 13]);
        assert_eq!(session.position(), 3);
        assert_ne!(a, b);
    }

    #[test]
    fn greedy_cached_matches_uncached_greedy() {
        let mut m = model();
        let prefix = vec![BOS, 10, 11];
        let uncached = greedy(&mut m, &prefix, 6, EOS, &Unconstrained);
        let cached = greedy_cached(&m, &prefix, 6, EOS);
        assert_eq!(uncached, cached);
    }

    #[test]
    fn trained_model_parity_holds() {
        // Parity must survive training (non-symmetric weights).
        let mut m = model();
        let mut opt = m.optimizer(3e-3);
        let batch = vec![vec![BOS, 10, 11, 12, 13, 14]];
        for _ in 0..20 {
            m.train_step(&batch, &mut opt);
        }
        let prefix = vec![BOS, 10, 11, 12];
        let full = m.next_logits(&prefix);
        let mut session = IncrementalSession::new(&m);
        let inc = session.feed_all(&prefix).to_vec();
        let max_diff = full
            .iter()
            .zip(inc.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-2, "max diff after training: {max_diff}");
    }

    #[test]
    #[should_panic(expected = "max_seq_len")]
    fn overlong_context_panics() {
        let m = model();
        let mut session = IncrementalSession::new(&m);
        for t in 0..=m.config().max_seq_len {
            session.feed(10 + (t % 20));
        }
    }

    #[test]
    fn cloned_cache_continues_bitwise_identically() {
        let m = model();
        let mut a = KvCache::new(&m);
        a.feed_all(&m, &[BOS, 10, 11, 12]);
        let mut b = a.clone();
        let la = a.feed(&m, 13).to_vec();
        let lb = b.feed(&m, 13).to_vec();
        // Exact equality: a fork must be indistinguishable from the
        // original, bit for bit.
        assert_eq!(la, lb);
    }

    /// A model with non-symmetric weights, so bitwise comparisons are
    /// meaningful.
    fn trained_model() -> GptModel {
        let mut m = model();
        let mut opt = m.optimizer(3e-3);
        let batch = vec![
            vec![BOS, 10, 11, 12, 13, 14, EOS],
            vec![BOS, 20, 21, 22, 23, 24, EOS],
        ];
        for _ in 0..20 {
            m.train_step(&batch, &mut opt);
        }
        m
    }

    #[test]
    fn feed_many_bitwise_matches_sequential_feeds() {
        let m = trained_model();
        let tokens = [BOS, 10, 11, 20, 12, 21, 13, 22, 14];
        // Reference: one token at a time, recording logits after each.
        let mut seq = KvCache::new(&m);
        let want: Vec<Vec<f32>> = tokens.iter().map(|&t| seq.feed(&m, t).to_vec()).collect();
        // Chunked: every chunk size, including prefill-then-chunk splits.
        for chunk in 1..=4usize {
            let mut batched = KvCache::new(&m);
            let mut got: Vec<Vec<f32>> = Vec::new();
            for c in tokens.chunks(chunk) {
                got.extend(batched.feed_many(&m, c));
            }
            // Exact equality — the speculative verify forward must be
            // indistinguishable from sequential decode, bit for bit.
            assert_eq!(got, want, "chunk size {chunk}");
            assert_eq!(batched.last_logits(), seq.last_logits());
            assert_eq!(batched.tokens(), seq.tokens());
            for t in 0..tokens.len() {
                assert_eq!(
                    batched.position_kv(&m, t),
                    seq.position_kv(&m, t),
                    "kv rows diverged at position {t} (chunk size {chunk})"
                );
            }
        }
    }

    #[test]
    fn feed_many_quant_matches_sequential_quant_feeds() {
        let m = trained_model();
        let q = QuantizedGpt::from_model(&m);
        let tokens = [BOS, 10, 11, 12, 13];
        let mut seq = KvCache::new(&m);
        let want: Vec<Vec<f32>> = tokens
            .iter()
            .map(|&t| seq.feed_quant(&m, &q, t).to_vec())
            .collect();
        let mut batched = KvCache::new(&m);
        let got = batched.feed_many_with(&m, Some(&q), &tokens);
        assert_eq!(got, want);
    }

    #[test]
    fn rollback_restores_bitwise_identical_state() {
        let m = trained_model();
        let mut base = KvCache::new(&m);
        base.feed_all(&m, &[BOS, 10, 11, 12]);
        // Speculate 3 tokens past the verified prefix, then reject them all.
        let mut spec = base.clone();
        let keep_logits = base.last_logits().to_vec();
        spec.feed_many(&m, &[13, 20, 21]);
        spec.rollback(&m, 4, keep_logits);
        assert_eq!(spec.tokens(), base.tokens());
        assert_eq!(spec.last_logits(), base.last_logits());
        for t in 0..4 {
            assert_eq!(spec.position_kv(&m, t), base.position_kv(&m, t));
        }
        // The rolled-back cache must continue exactly like the original.
        let a = spec.feed(&m, 23).to_vec();
        let b = base.feed(&m, 23).to_vec();
        assert_eq!(a, b, "post-rollback decode diverged");
    }

    #[test]
    fn rollback_to_partial_chunk_keeps_accepted_prefix() {
        let m = trained_model();
        let mut seq = KvCache::new(&m);
        seq.feed_all(&m, &[BOS, 10, 11]);
        let mut spec = seq.clone();
        // Chunk of 4; accept 2, reject 2 — last_logits must become the
        // per-position logits after the last accepted token.
        let rows = spec.feed_many(&m, &[12, 13, 20, 21]);
        spec.rollback(&m, 5, rows[1].clone());
        seq.feed_all(&m, &[12, 13]);
        assert_eq!(spec.tokens(), seq.tokens());
        assert_eq!(spec.last_logits(), seq.last_logits());
        let a = spec.feed(&m, 14).to_vec();
        let b = seq.feed(&m, 14).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn restored_positions_match_recomputed_cache_bitwise() {
        let m = model();
        let tokens = [BOS, 9, 10, 11, 12, 13];
        let mut full = KvCache::new(&m);
        full.feed_all(&m, &tokens);
        for split in 1..tokens.len() {
            // Restore the first `split` positions from extracted rows, feed
            // the rest live, and compare against the straight-through cache.
            let mut restored = KvCache::new(&m);
            for (t, &tok) in tokens.iter().enumerate().take(split) {
                let kv = full.position_kv(&m, t);
                restored.push_position(&m, tok, &kv);
            }
            let logits = restored.feed_all(&m, &tokens[split..]).to_vec();
            assert_eq!(
                logits,
                full.last_logits(),
                "split at {split} diverged from uncached prefill"
            );
        }
    }
}
