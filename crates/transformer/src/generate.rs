//! Decoding strategies: greedy, temperature/top-k/top-p sampling, beam
//! search — all with optional **constrained decoding** in the style of
//! PICARD (Scholak et al., EMNLP 2021): at every step a [`TokenMask`] may
//! veto tokens, and only permitted tokens can be emitted. These are the
//! single-request reference decoders; the serving engine (`lm4db-serve`)
//! takes the same mask and applies it with the same [`mask_logits`], so
//! both decode byte-identically under one grammar.

use lm4db_tensor::Rand;

/// Anything that can score the next token given a prefix. Implemented by
/// a GPT's [`crate::IncrementalSession`], [`crate::RnnLm`], and the n-gram
/// model in `lm4db-lm`.
pub trait NextToken {
    /// Size of the logit vector.
    fn vocab_size(&self) -> usize;

    /// Unnormalized next-token logits for `prefix` (must be non-empty).
    fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32>;
}

/// A per-step grammar mask: given the decoded prefix, mark every allowed
/// next token in one pass.
///
/// An implementation derives its grammar state once per step and fills
/// the whole vocabulary, rather than re-deriving it once per candidate
/// token. Every decoder here and in the serving engine takes its
/// constraint in this form.
pub trait TokenMask {
    /// Sets `mask[token] = true` for every token allowed after `prefix`.
    /// The buffer arrives zeroed (`false`) and is `vocab_size` long.
    fn fill(&self, prefix: &[usize], mask: &mut [bool]);
}

/// Masks every token not allowed by `mask` to `-inf` in place; returns how
/// many tokens remain allowed. Vetoed entries get a `NEG_INFINITY` store
/// in ascending token order and allowed ones are left untouched, so every
/// caller that vetoes the same set yields bit-identical logits.
pub fn apply_token_mask(logits: &mut [f32], mask: &[bool]) -> usize {
    assert_eq!(logits.len(), mask.len(), "mask width mismatch");
    let mut allowed = 0;
    for (l, &ok) in logits.iter_mut().zip(mask.iter()) {
        if ok {
            allowed += 1;
        } else {
            *l = f32::NEG_INFINITY;
        }
    }
    allowed
}

/// Vetoes, in place, what an optional `mask` forbids after `prefix`, and
/// returns how many tokens remain allowed (all of them without a mask).
/// `allow` holds the vocabulary-wide allow table: it is zeroed and filled
/// here, so a decode loop passes one buffer for all its steps.
pub fn mask_logits(
    logits: &mut [f32],
    prefix: &[usize],
    mask: Option<&dyn TokenMask>,
    allow: &mut Vec<bool>,
) -> usize {
    let Some(mask) = mask else {
        return logits.len();
    };
    allow.clear();
    allow.resize(logits.len(), false);
    mask.fill(prefix, allow);
    apply_token_mask(logits, allow)
}

/// Options controlling [`sample`].
#[derive(Debug, Clone)]
pub struct SampleOptions {
    /// Softmax temperature; lower is greedier. Must be positive.
    pub temperature: f32,
    /// Keep only the `k` most likely tokens (0 disables).
    pub top_k: usize,
    /// Keep the smallest set of tokens with cumulative probability `p`
    /// (1.0 disables).
    pub top_p: f32,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
        }
    }
}

/// Greedy decoding: always pick the most likely permitted token. Stops at
/// `stop` or after `max_new` tokens. Returns only the newly generated ids.
pub fn greedy(
    model: &mut dyn NextToken,
    prefix: &[usize],
    max_new: usize,
    stop: usize,
    mask: Option<&dyn TokenMask>,
) -> Vec<usize> {
    let mut allow = Vec::new();
    let mut seq = prefix.to_vec();
    let mut out = Vec::new();
    for _ in 0..max_new {
        let mut logits = model.next_logits(&seq);
        if mask_logits(&mut logits, &seq, mask, &mut allow) == 0 {
            break; // dead end: no permitted continuation
        }
        let tok = argmax(&logits);
        if tok == stop {
            break;
        }
        seq.push(tok);
        out.push(tok);
    }
    out
}

/// Stochastic decoding with temperature, top-k, and nucleus (top-p)
/// filtering. Returns only the newly generated ids.
pub fn sample(
    model: &mut dyn NextToken,
    prefix: &[usize],
    max_new: usize,
    stop: usize,
    opts: &SampleOptions,
    mask: Option<&dyn TokenMask>,
    rng: &mut Rand,
) -> Vec<usize> {
    assert!(opts.temperature > 0.0, "temperature must be positive");
    let mut allow = Vec::new();
    let mut seq = prefix.to_vec();
    let mut out = Vec::new();
    for _ in 0..max_new {
        let mut logits = model.next_logits(&seq);
        if mask_logits(&mut logits, &seq, mask, &mut allow) == 0 {
            break;
        }
        for l in logits.iter_mut() {
            *l /= opts.temperature;
        }
        let mut probs = softmax(&logits);
        if opts.top_k > 0 {
            keep_top_k(&mut probs, opts.top_k);
        }
        if opts.top_p < 1.0 {
            keep_top_p(&mut probs, opts.top_p);
        }
        let tok = rng.weighted(&probs);
        if tok == stop {
            break;
        }
        seq.push(tok);
        out.push(tok);
    }
    out
}

/// One finished or in-flight beam-search hypothesis.
#[derive(Debug, Clone)]
pub struct Hypothesis {
    /// Full token sequence including the prefix.
    pub ids: Vec<usize>,
    /// Sum of token log-probabilities of the generated part.
    pub log_prob: f32,
    /// Whether the hypothesis ended with the stop token.
    pub finished: bool,
}

/// Beam search with `width` beams. Returns hypotheses sorted by descending
/// length-normalized log-probability. Mask-vetoed tokens are never
/// expanded, making this a complete PICARD-style constrained decoder.
pub fn beam(
    model: &mut dyn NextToken,
    prefix: &[usize],
    width: usize,
    max_new: usize,
    stop: usize,
    mask: Option<&dyn TokenMask>,
) -> Vec<Hypothesis> {
    assert!(width > 0, "beam width must be positive");
    let mut allow = Vec::new();
    let mut live = vec![Hypothesis {
        ids: prefix.to_vec(),
        log_prob: 0.0,
        finished: false,
    }];
    let mut done: Vec<Hypothesis> = Vec::new();

    for _ in 0..max_new {
        let mut candidates: Vec<Hypothesis> = Vec::new();
        for hyp in &live {
            let mut logits = model.next_logits(&hyp.ids);
            if mask_logits(&mut logits, &hyp.ids, mask, &mut allow) == 0 {
                continue; // dead end — drop this beam
            }
            let log_probs = log_softmax(&logits);
            // Expand the `width` best continuations of this hypothesis.
            for tok in top_tokens(&log_probs, width) {
                let mut ids = hyp.ids.clone();
                let lp = hyp.log_prob + log_probs[tok];
                if tok == stop {
                    done.push(Hypothesis {
                        ids,
                        log_prob: lp,
                        finished: true,
                    });
                } else {
                    ids.push(tok);
                    candidates.push(Hypothesis {
                        ids,
                        log_prob: lp,
                        finished: false,
                    });
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        candidates.truncate(width);
        live = candidates;
        if done.len() >= width {
            break;
        }
    }
    done.extend(live);
    let norm = |h: &Hypothesis| {
        let gen_len = (h.ids.len() - prefix.len() + usize::from(h.finished)).max(1);
        h.log_prob / gen_len as f32
    };
    // Finished hypotheses outrank unfinished ones: truncation must never
    // drop a complete sequence in favor of a higher-scoring prefix.
    done.sort_by(|a, b| {
        b.finished
            .cmp(&a.finished)
            .then_with(|| norm(b).total_cmp(&norm(a)))
    });
    done.truncate(width);
    done
}

/// The `width` most likely tokens with a finite log-probability, best
/// first; ties go to the lower token id — the order a stable sort by
/// descending log-probability gives, without sorting the whole vocabulary.
/// Beam search expands a hypothesis with exactly these, here and in the
/// serving engine.
pub fn top_tokens(log_probs: &[f32], width: usize) -> Vec<usize> {
    let better = |a: &usize, b: &usize| log_probs[*b].total_cmp(&log_probs[*a]).then(a.cmp(b));
    let mut order: Vec<usize> = (0..log_probs.len())
        .filter(|&t| log_probs[t].is_finite())
        .collect();
    if order.len() > width {
        order.select_nth_unstable_by(width, better);
        order.truncate(width);
    }
    order.sort_unstable_by(better);
    order
}

/// Index of the maximum element (ties broken toward the lower index, the
/// same way every decoder in this crate breaks them).
pub fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("argmax of empty slice")
}

fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    lm4db_tensor::kernels::softmax_in_place(&mut out);
    out
}

/// Numerically stable log-softmax, shared with the batched engine so both
/// paths normalize scores with identical float operations (it routes
/// through the same tensor kernel as `Tensor::log_softmax_last`).
pub fn log_softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    lm4db_tensor::kernels::log_softmax_in_place(&mut out);
    out
}

/// `log p(idx)` under a softmax over `logits`, without normalizing the
/// other entries: the term both continuation scorers sum — the serving
/// engine's score requests and `lm4db_lm::score_continuation` — so two
/// scorers that read the same logits return the same bits.
pub fn log_softmax_at(logits: &[f32], idx: usize) -> f32 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let logsum = logits.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
    logits[idx] - logsum
}

fn keep_top_k(probs: &mut [f32], k: usize) {
    if k >= probs.len() {
        return;
    }
    let mut sorted: Vec<f32> = probs.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let threshold = sorted[k - 1];
    for p in probs.iter_mut() {
        if *p < threshold {
            *p = 0.0;
        }
    }
}

fn keep_top_p(probs: &mut [f32], p: f32) {
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
    let mut cum = 0.0;
    let mut cutoff = probs.len();
    for (rank, &i) in order.iter().enumerate() {
        cum += probs[i];
        if cum >= p {
            cutoff = rank + 1;
            break;
        }
    }
    for &i in &order[cutoff..] {
        probs[i] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake LM: token `t` gets logit `-(t as f32)` so lower
    /// ids are always preferred, except the last prefix token `p` boosts
    /// token `p + 1`.
    struct FakeLm {
        vocab: usize,
    }

    impl NextToken for FakeLm {
        fn vocab_size(&self) -> usize {
            self.vocab
        }
        fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32> {
            let mut l: Vec<f32> = (0..self.vocab).map(|t| -(t as f32)).collect();
            let boost = prefix.last().unwrap() + 1;
            if boost < self.vocab {
                l[boost] = 10.0;
            }
            l
        }
    }

    /// A prefix-independent mask allowing exactly the tokens `.0` accepts.
    struct Allow<F>(F);

    impl<F: Fn(usize) -> bool> TokenMask for Allow<F> {
        fn fill(&self, _prefix: &[usize], mask: &mut [bool]) {
            for (tok, m) in mask.iter_mut().enumerate() {
                *m = (self.0)(tok);
            }
        }
    }

    const EVEN: Allow<fn(usize) -> bool> = Allow(|t| t.is_multiple_of(2));

    #[test]
    fn greedy_follows_boosted_chain() {
        let mut m = FakeLm { vocab: 10 };
        let out = greedy(&mut m, &[3], 4, 99, None);
        assert_eq!(out, vec![4, 5, 6, 7]);
    }

    #[test]
    fn greedy_stops_at_stop_token() {
        let mut m = FakeLm { vocab: 10 };
        let out = greedy(&mut m, &[6], 10, 8, None);
        assert_eq!(out, vec![7]); // 8 would be next but is the stop token
    }

    #[test]
    fn constraint_vetoes_tokens() {
        let mut m = FakeLm { vocab: 10 };
        // Forbid the boosted chain entirely: only even tokens allowed.
        let out = greedy(&mut m, &[3], 3, 99, Some(&EVEN));
        // Boosted token 4 is even (allowed); then 5 is vetoed so the best
        // even token is chosen: 0 has the highest base logit.
        assert_eq!(out[0], 4);
        assert!(out.iter().all(|t| t % 2 == 0));
    }

    #[test]
    fn dead_end_terminates_generation() {
        let mut m = FakeLm { vocab: 10 };
        let out = greedy(&mut m, &[3], 5, 99, Some(&Allow(|_: usize| false)));
        assert!(out.is_empty());
    }

    #[test]
    fn sampling_with_tiny_temperature_is_greedy() {
        let mut m = FakeLm { vocab: 10 };
        let mut rng = Rand::seeded(1);
        let opts = SampleOptions {
            temperature: 0.05,
            ..Default::default()
        };
        let out = sample(&mut m, &[3], 4, 99, &opts, None, &mut rng);
        assert_eq!(out, vec![4, 5, 6, 7]);
    }

    #[test]
    fn sampling_respects_constraint() {
        let mut m = FakeLm { vocab: 10 };
        let mut rng = Rand::seeded(2);
        for _ in 0..5 {
            let out = sample(
                &mut m,
                &[1],
                6,
                99,
                &SampleOptions::default(),
                Some(&EVEN),
                &mut rng,
            );
            assert!(out.iter().all(|t| t % 2 == 0), "sampled odd token: {out:?}");
        }
    }

    #[test]
    fn top_k_filters_probabilities() {
        let mut probs = vec![0.4, 0.3, 0.2, 0.1];
        keep_top_k(&mut probs, 2);
        assert_eq!(probs, vec![0.4, 0.3, 0.0, 0.0]);
    }

    #[test]
    fn top_p_keeps_nucleus() {
        let mut probs = vec![0.5, 0.3, 0.15, 0.05];
        keep_top_p(&mut probs, 0.8);
        assert_eq!(probs, vec![0.5, 0.3, 0.0, 0.0]);
    }

    #[test]
    fn beam_finds_boosted_chain() {
        let mut m = FakeLm { vocab: 10 };
        let hyps = beam(&mut m, &[3], 3, 4, 99, None);
        assert!(!hyps.is_empty());
        assert_eq!(hyps[0].ids, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn beam_respects_stop_token() {
        let mut m = FakeLm { vocab: 10 };
        let hyps = beam(&mut m, &[6], 2, 10, 8, None);
        // Best hypothesis: 6 -> 7 -> stop(8), finished.
        assert!(hyps[0].finished);
        assert_eq!(hyps[0].ids, vec![6, 7]);
    }

    #[test]
    fn beam_constrained_avoids_vetoed_tokens() {
        let mut m = FakeLm { vocab: 10 };
        let hyps = beam(&mut m, &[2], 2, 3, 99, Some(&EVEN));
        for h in &hyps {
            assert!(h.ids[1..].iter().all(|t| t % 2 == 0), "{:?}", h.ids);
        }
    }

    #[test]
    fn beam_log_probs_are_negative_and_ordered() {
        let mut m = FakeLm { vocab: 10 };
        let hyps = beam(&mut m, &[3], 4, 3, 99, None);
        for h in &hyps {
            assert!(h.log_prob <= 0.0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic fake LM with a fixed logit profile per position.
    struct ProfileLm {
        vocab: usize,
    }

    impl NextToken for ProfileLm {
        fn vocab_size(&self) -> usize {
            self.vocab
        }
        fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32> {
            (0..self.vocab)
                .map(|t| ((t * 31 + prefix.len() * 7) % 13) as f32 * 0.3)
                .collect()
        }
    }

    /// A prefix-independent mask: the same allow table at every step.
    struct Fixed(Vec<bool>);

    impl TokenMask for Fixed {
        fn fill(&self, _prefix: &[usize], mask: &mut [bool]) {
            mask.copy_from_slice(&self.0);
        }
    }

    proptest! {
        #[test]
        fn sampled_tokens_respect_arbitrary_constraints(
            allowed_mask in prop::collection::vec(any::<bool>(), 12),
            seed in 0u64..1000,
        ) {
            // Ensure something stays allowed (besides stop token 0).
            let mut mask = allowed_mask;
            mask[3] = true;
            let constraint = Fixed(mask.clone());
            let mut lm = ProfileLm { vocab: 12 };
            let mut rng = lm4db_tensor::Rand::seeded(seed);
            let out = sample(
                &mut lm,
                &[3],
                6,
                usize::MAX,
                &SampleOptions::default(),
                Some(&constraint),
                &mut rng,
            );
            for t in out {
                prop_assert!(mask[t], "sampled a vetoed token {t}");
            }
        }

        #[test]
        fn beam_hypotheses_are_sorted_by_normalized_score(width in 1usize..5) {
            let mut lm = ProfileLm { vocab: 12 };
            let hyps = beam(&mut lm, &[1], width, 4, 0, None);
            prop_assert!(!hyps.is_empty());
            prop_assert!(hyps.len() <= width);
            for h in &hyps {
                prop_assert!(h.log_prob <= 0.0);
            }
        }

        #[test]
        fn top_tokens_is_the_head_of_a_stable_sort(
            log_probs in prop::collection::vec(
                prop::sample::select(vec![-2.0f32, -0.5, 0.0, -0.0, f32::NEG_INFINITY]),
                0..24,
            ),
            width in 0usize..8,
        ) {
            let mut want: Vec<usize> = (0..log_probs.len())
                .filter(|&t| log_probs[t].is_finite())
                .collect();
            want.sort_by(|&a, &b| log_probs[b].total_cmp(&log_probs[a]));
            want.truncate(width);
            prop_assert_eq!(top_tokens(&log_probs, width), want);
        }

        #[test]
        fn greedy_is_deterministic(prefix in prop::collection::vec(1usize..12, 1..5)) {
            let mut lm = ProfileLm { vocab: 12 };
            let a = greedy(&mut lm, &prefix, 5, 0, None);
            let b = greedy(&mut lm, &prefix, 5, 0, None);
            prop_assert_eq!(a, b);
        }
    }
}
