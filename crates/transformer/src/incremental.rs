//! KV-cache incremental decoding: the one GPT inference path. It reuses
//! attention keys/values across generation steps, so a new token costs
//! O(t) instead of a forward over the whole window. The tape's forward
//! ([`GptModel::sequence_logits`]) is kept for training and as the
//! reference these logits are tested against.
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

use crate::generate::{argmax, NextToken};
use crate::gpt::GptModel;
use crate::layers::{attend_prefix, fork, AttnCache};
use crate::quant::{projections, QuantizedGpt};

/// The complete per-request decode state: per-layer attention key/value
/// caches, the token prefix they encode, and the logits after the last fed
/// token. Snapshot with `clone()`; share prefixes via [`KvCache::position_kv`]
/// / [`KvCache::push_position`].
///
/// All buffers are preallocated at construction — to `max_seq_len`
/// positions by [`KvCache::new`], to the caller's own horizon by
/// [`KvCache::with_capacity`] — and a clone keeps its parent's reservation,
/// so feeding a token performs a bounded number of allocations regardless
/// of how much history the cache holds (verified by a regression test).
#[derive(Debug)]
pub struct KvCache {
    layers: Vec<AttnCache>,
    tokens: Vec<usize>,
    last_logits: Vec<f32>,
}

impl Clone for KvCache {
    /// A fork keeps the reservation of every buffer (see
    /// [`AttnCache`]'s `Clone`), so it decodes on without reallocating.
    fn clone(&self) -> Self {
        KvCache {
            layers: self.layers.clone(),
            tokens: fork(&self.tokens),
            last_logits: self.last_logits.clone(),
        }
    }
}

/// One sequence's share of a stacked forward ([`feed_stack`]).
pub struct StackEntry<'a> {
    /// The sequence's decode state; grows by `tokens.len()` positions.
    pub cache: &'a mut KvCache,
    /// The pending tokens, fed as one chunk (non-empty).
    pub tokens: &'a [usize],
    /// Keep the logits after every position of the chunk instead of only
    /// the last ([`KvCache::feed_many`] returns them all).
    pub keep_all: bool,
}

/// Feeds every entry's pending tokens through `model` in **one stacked
/// forward**: all rows of all entries form one `[R × d]` activation, and
/// each projection of each layer runs once over the whole stack, so the
/// weights are streamed once per stack instead of once per token per
/// sequence. `Some(quant)` runs the heavy projections int8 (embeddings,
/// layer norms, residuals, attention mixing and the vocabulary head stay
/// f32 from `model`); a cache must be fed in one format throughout.
///
/// Rows share a weight sweep, never an accumulator: every output element of
/// every projection is its own accumulation chain in the order the one-row
/// product uses, layer norms and the int8 activation grid are per row, and
/// attention stays per sequence — each chunk position attends over exactly
/// its own cache prefix. Every cache therefore ends up bitwise identical to
/// being fed alone, one token at a time, whatever it was stacked with.
///
/// Only the rows whose logits someone reads go through the final norm and
/// the head: the last row of each entry (stored as its cache's
/// [`KvCache::last_logits`]), or every row of a `keep_all` entry. Returns,
/// per entry, the per-position logits of a `keep_all` chunk (empty
/// otherwise).
///
/// Every check runs before any cache is touched; a panic later in the
/// forward leaves the caches half-written, to be discarded.
///
/// # Panics
/// Panics when an entry has no tokens, would exceed the model's
/// `max_seq_len`, or holds an out-of-vocabulary token, or when `quant` was
/// built from a model with a different layer count.
pub fn feed_stack(
    model: &GptModel,
    quant: Option<&QuantizedGpt>,
    entries: &mut [StackEntry<'_>],
) -> Vec<Vec<Vec<f32>>> {
    if entries.is_empty() {
        return Vec::new();
    }
    // Flat timer, not a span: stacks run inline and on pool workers, and a
    // flat name aggregates identically either way. The name tells which
    // weight format served the rows.
    let _timer = lm4db_obs::leaf(match quant {
        Some(_) => "kv/feed_stack_q8",
        None => "kv/feed_stack",
    });
    let m = model;
    let (d, vocab) = (m.cfg.d_model, m.cfg.vocab_size);
    if let Some(q) = quant {
        assert_eq!(
            q.n_blocks(),
            m.blocks.len(),
            "quantized snapshot does not match model depth"
        );
    }
    let mut rows = 0;
    for e in entries.iter() {
        assert!(!e.tokens.is_empty(), "stack entry without tokens");
        assert!(
            e.cache.len() + e.tokens.len() <= m.cfg.max_seq_len,
            "kv cache exceeded max_seq_len {}",
            m.cfg.max_seq_len
        );
        for &token in e.tokens {
            assert!(token < vocab, "token {token} out of vocabulary");
        }
        rows += e.tokens.len();
    }
    lm4db_obs::counter_add("kv/stack_rows", rows as u64);

    let tok_emb = m.store.get(m.tok_emb).data();
    let pos_emb = m.store.get(m.pos_emb).data();
    let mut xs = Vec::with_capacity(rows * d);
    for e in entries.iter() {
        // The position row is indexed directly by the cache length — no
        // full-sequence recomputation per step.
        for (p, &token) in (e.cache.len()..).zip(e.tokens) {
            xs.extend(
                tok_emb[token * d..(token + 1) * d]
                    .iter()
                    .zip(&pos_emb[p * d..(p + 1) * d])
                    .map(|(a, b)| a + b),
            );
        }
    }
    // One set of activation buffers for the whole call: every stage below
    // overwrites its output buffer, so no layer allocates.
    let (mut normed, mut q, mut k, mut v) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ctx, mut hidden, mut proj) = (Vec::new(), Vec::new(), Vec::new());
    for (l, block) in m.blocks.iter().enumerate() {
        let [wq, wk, wv, wo, up, down] = projections(m, l, quant.map(|q| q.block(l)));
        let (h, hd) = (block.attn.n_heads, block.attn.head_dim);
        block.ln1.apply_rows_into(&m.store, &xs, rows, &mut normed);
        wq.apply_rows_into(&normed, rows, &mut q);
        wk.apply_rows_into(&normed, rows, &mut k);
        wv.apply_rows_into(&normed, rows, &mut v);
        // Attention is the one per-sequence stage: each entry appends its
        // chunk's key/value rows to its own cache, then each position
        // attends over the prefix the one-token decoder would have had.
        // `normed` has been read by the three projections and is not
        // written again until `ln2`: it lends its storage to the scores.
        ctx.clear();
        ctx.resize(rows * d, 0.0);
        let mut r0 = 0;
        for e in entries.iter_mut() {
            let n = e.tokens.len();
            let cache = &mut e.cache.layers[l];
            let base = cache.t;
            cache.k.extend_from_slice(&k[r0 * d..(r0 + n) * d]);
            cache.v.extend_from_slice(&v[r0 * d..(r0 + n) * d]);
            cache.t += n;
            for (p, r) in (r0..r0 + n).enumerate() {
                let span = r * d..(r + 1) * d;
                let ctx = &mut ctx[span.clone()];
                attend_prefix(&q[span], cache, base + p + 1, h, hd, ctx, &mut normed);
            }
            r0 += n;
        }
        wo.apply_rows_into(&ctx, rows, &mut proj);
        for (x, a) in xs.iter_mut().zip(&proj) {
            *x += a;
        }
        block.ln2.apply_rows_into(&m.store, &xs, rows, &mut normed);
        // GELU in place on the up-projection's output, while it is still
        // in L1.
        up.apply_rows_into(&normed, rows, &mut hidden);
        lm4db_tensor::kernels::gelu_in_place(&mut hidden);
        down.apply_rows_into(&hidden, rows, &mut proj);
        for (x, f) in xs.iter_mut().zip(&proj) {
            *x += f;
        }
    }

    let kept_of = |e: &StackEntry<'_>| if e.keep_all { e.tokens.len() } else { 1 };
    let mut read = Vec::with_capacity(entries.len() * d);
    let mut r0 = 0;
    for e in entries.iter() {
        let n = e.tokens.len();
        read.extend_from_slice(&xs[(r0 + n - kept_of(e)) * d..(r0 + n) * d]);
        r0 += n;
    }
    let kept = read.len() / d;
    m.ln_f.apply_rows_into(&m.store, &read, kept, &mut normed);
    // The vocabulary head stays f32 in both formats: its logits feed
    // directly into argmax/beam comparisons, where int8 noise flips
    // decisions.
    let mut logits = Vec::new();
    m.head.apply_rows_into(&m.store, &normed, kept, &mut logits);
    let mut out = Vec::with_capacity(entries.len());
    let mut next = 0;
    for e in entries.iter_mut() {
        let n = kept_of(e);
        let mine = &logits[next * vocab..(next + n) * vocab];
        next += n;
        e.cache.tokens.extend_from_slice(e.tokens);
        e.cache.last_logits.clear();
        e.cache
            .last_logits
            .extend_from_slice(&mine[(n - 1) * vocab..]);
        out.push(if e.keep_all {
            mine.chunks_exact(vocab).map(<[f32]>::to_vec).collect()
        } else {
            Vec::new()
        });
    }
    out
}

impl KvCache {
    /// An empty cache sized for `model`: every per-layer key/value store is
    /// reserved up front for `max_seq_len` positions.
    pub fn new(model: &GptModel) -> Self {
        KvCache::with_capacity(model, model.cfg.max_seq_len)
    }

    /// An empty cache reserved for `positions` positions (capped at the
    /// model's `max_seq_len`) — for a caller that knows its horizon, such
    /// as a request that can reach at most `prompt + max_new` tokens.
    /// Feeding past the reservation still works; it reallocates.
    pub fn with_capacity(model: &GptModel, positions: usize) -> Self {
        let cfg = model.config();
        let positions = positions.min(cfg.max_seq_len);
        let layers = (0..cfg.n_layers)
            .map(|_| {
                let mut c = AttnCache::new();
                c.reserve(positions, cfg.d_model);
                c
            })
            .collect();
        KvCache {
            layers,
            tokens: Vec::with_capacity(positions),
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
        self.feed_all_with(model, None, &[token])
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
        self.feed_all_with(model, Some(quant), &[token])
    }

    /// Feeds several tokens; returns the logits after the last one.
    pub fn feed_all(&mut self, model: &GptModel, tokens: &[usize]) -> &[f32] {
        self.feed_all_with(model, None, tokens)
    }

    /// [`KvCache::feed_all`] over either weight format: `Some(quant)`
    /// decodes through the int8 projections (see [`KvCache::feed_quant`]),
    /// `None` through the f32 model. The tokens run as one chunk — a
    /// one-entry [`feed_stack`] — so a prompt streams every weight panel
    /// once, not once per token; bitwise identical to feeding them one at a
    /// time.
    pub fn feed_all_with(
        &mut self,
        model: &GptModel,
        quant: Option<&QuantizedGpt>,
        tokens: &[usize],
    ) -> &[f32] {
        self.feed_alone(model, quant, tokens, false);
        &self.last_logits
    }

    /// Feeds `tokens` as one chunk like [`KvCache::feed_all`], returning
    /// the next-token logits after EACH token (one row per token, last row
    /// == what [`KvCache::last_logits`] then holds): every position's
    /// distribution from one stacked forward, bitwise identical to feeding
    /// the tokens one at a time.
    ///
    /// # Panics
    /// Panics when the chunk would exceed the model's `max_seq_len` or any
    /// token is out of vocabulary.
    pub fn feed_many(&mut self, model: &GptModel, tokens: &[usize]) -> Vec<Vec<f32>> {
        self.feed_alone(model, None, tokens, true)
    }

    /// This cache as a one-entry [`feed_stack`].
    fn feed_alone(
        &mut self,
        model: &GptModel,
        quant: Option<&QuantizedGpt>,
        tokens: &[usize],
        keep_all: bool,
    ) -> Vec<Vec<f32>> {
        let entry = StackEntry {
            cache: self,
            tokens,
            keep_all,
        };
        feed_stack(model, quant, &mut [entry])
            .pop()
            .expect("one entry in, one out")
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

    /// The underlying decode state.
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Resets the session to the empty prefix.
    pub fn reset(&mut self) {
        self.cache.clear();
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

    /// Never cuts `prefix`: past `max_seq_len` the cache's assertion
    /// panics, so a decoder caps its budget with [`crate::ModelConfig::room`].
    fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32> {
        assert!(
            !prefix.is_empty(),
            "next_logits requires a non-empty prefix"
        );
        let consumed = self.cache.len();
        if prefix.len() <= consumed || prefix[..consumed] != self.cache.tokens()[..] {
            self.reset();
        }
        let fed = self.cache.len();
        self.feed_all(&prefix[fed..]).to_vec()
    }
}

/// Unmasked [`crate::generate::greedy`] over an [`IncrementalSession`],
/// its budget capped by [`crate::ModelConfig::room`]; a prompt the window
/// cannot hold yields no tokens.
pub fn greedy_cached(
    model: &GptModel,
    prefix: &[usize],
    max_new: usize,
    stop: usize,
) -> Vec<usize> {
    let Ok(room) = model.config().room(prefix.len()) else {
        return Vec::new();
    };
    let budget = max_new.min(room);
    let mut session = IncrementalSession::new(model);
    session.feed_all(prefix);
    let mut out = Vec::new();
    while out.len() < budget {
        let tok = argmax(session.cache().last_logits());
        if tok == stop {
            break;
        }
        out.push(tok);
        // The last token is never fed.
        if out.len() < budget {
            session.feed(tok);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use lm4db_tokenize::{BOS, EOS};

    fn model() -> GptModel {
        GptModel::new(ModelConfig::test(), 7)
    }

    /// The tape's next-token logits after every prefix of `ids`.
    fn tape_rows(m: &GptModel, ids: &[usize]) -> Vec<Vec<f32>> {
        let v = m.config().vocab_size;
        let logits = m.sequence_logits(ids);
        logits.data().chunks(v).map(<[f32]>::to_vec).collect()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn incremental_logits_match_full_forward() {
        let m = model();
        let prefix = vec![BOS, 10, 23, 41, 9, 30];
        let full = tape_rows(&m, &prefix).pop().unwrap();
        let mut session = IncrementalSession::new(&m);
        let inc = session.feed_all(&prefix);
        let diff = max_diff(&full, inc);
        assert!(diff < 1e-5, "tape vs incremental: max diff {diff}");
    }

    #[test]
    fn parity_at_every_intermediate_position() {
        let m = model();
        let prefix = [BOS, 5, 6, 7, 8];
        let fulls = tape_rows(&m, &prefix);
        let mut session = IncrementalSession::new(&m);
        for (t, full) in fulls.iter().enumerate() {
            let diff = max_diff(full, session.feed(prefix[t]));
            assert!(diff < 1e-5, "t={t}: max diff {diff}");
        }
    }

    #[test]
    fn next_token_impl_reuses_and_resets() {
        let m = model();
        let mut session = IncrementalSession::new(&m);
        let a = session.next_logits(&[BOS, 10, 11]);
        assert_eq!(session.cache().len(), 3);
        // Extension: only one new token should be consumed.
        let _ = session.next_logits(&[BOS, 10, 11, 12]);
        assert_eq!(session.cache().len(), 4);
        // Divergent prefix: the session resets.
        let b = session.next_logits(&[BOS, 10, 13]);
        assert_eq!(session.cache().len(), 3);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "max_seq_len")]
    fn session_next_logits_panics_past_the_window() {
        // A prefix longer than the window trips the cache's assertion:
        // the session never cuts it.
        let m = model();
        let long: Vec<usize> = (0..=m.config().max_seq_len).map(|i| 8 + (i % 20)).collect();
        IncrementalSession::new(&m).next_logits(&long);
    }

    #[test]
    fn greedy_cached_matches_uncached_greedy() {
        // One tape forward over prompt + output: at every generated
        // position its argmax is the token the cached decoder chose next,
        // or the EOS that ended the output early.
        let m = trained_model();
        for prefix in [vec![BOS, 10, 11], vec![BOS, 20], vec![BOS, 30, 31]] {
            let out = greedy_cached(&m, &prefix, 6, EOS);
            let want: Vec<usize> = out.iter().copied().chain([EOS]).take(6).collect();
            let rows = tape_rows(&m, &[prefix.as_slice(), &out].concat());
            let got: Vec<usize> = rows[prefix.len() - 1..]
                .iter()
                .take(want.len())
                .map(|r| argmax(r))
                .collect();
            assert_eq!(got, want, "prefix {prefix:?}");
        }
    }

    #[test]
    fn trained_model_parity_holds() {
        // Parity must survive training (non-symmetric weights).
        let m = trained_model();
        let prefix = vec![BOS, 10, 11, 12];
        let full = tape_rows(&m, &prefix).pop().unwrap();
        let mut session = IncrementalSession::new(&m);
        let diff = max_diff(&full, session.feed_all(&prefix));
        assert!(diff < 1e-5, "max diff after training: {diff}");
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
            // Exact equality — a chunked forward must be indistinguishable
            // from sequential decode, bit for bit.
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
