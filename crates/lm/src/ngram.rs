//! Interpolated n-gram language model — the pre-neural baseline, and the
//! "small model" end of the scale axis in the capability experiments.

use std::collections::HashMap;

use lm4db_transformer::NextToken;

/// An order-`n` n-gram model with linear interpolation across orders and
/// add-one smoothing at the unigram level.
pub struct NGramLm {
    order: usize,
    vocab_size: usize,
    /// `counts[k]` maps a context of length `k` to successor counts.
    counts: Vec<HashMap<Vec<usize>, HashMap<usize, u32>>>,
    /// Interpolation weights per order (unigram first), summing to 1.
    weights: Vec<f32>,
}

impl NGramLm {
    /// Creates an untrained model of the given order (`order >= 1`).
    pub fn new(order: usize, vocab_size: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        // Higher orders get geometrically more weight.
        let raw: Vec<f32> = (0..order).map(|k| 2.0f32.powi(k as i32)).collect();
        let total: f32 = raw.iter().sum();
        NGramLm {
            order,
            vocab_size,
            counts: vec![HashMap::new(); order],
            weights: raw.into_iter().map(|w| w / total).collect(),
        }
    }

    /// The model order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Accumulates counts from a token stream (can be called repeatedly).
    pub fn train(&mut self, stream: &[usize]) {
        for i in 0..stream.len() {
            for k in 0..self.order {
                if i < k {
                    continue;
                }
                let ctx = stream[i - k..i].to_vec();
                *self.counts[k]
                    .entry(ctx)
                    .or_default()
                    .entry(stream[i])
                    .or_insert(0) += 1;
            }
        }
    }

    /// Interpolated probability of `token` after `context`.
    ///
    /// Orders whose context was never observed contribute nothing and their
    /// interpolation weight is redistributed to the orders that were — a
    /// backoff scheme that keeps the distribution proper for any context.
    pub fn prob(&self, context: &[usize], token: usize) -> f32 {
        let mut num = 0.0;
        let mut weight_sum = 0.0;
        for k in 0..self.order {
            if k > context.len() {
                continue;
            }
            let ctx: Vec<usize> = context[context.len() - k..].to_vec();
            let pk = match self.counts[k].get(&ctx) {
                Some(succ) => {
                    let total: u32 = succ.values().sum();
                    let c = succ.get(&token).copied().unwrap_or(0);
                    if k == 0 {
                        // Add-one smoothing at the unigram level keeps every
                        // token possible.
                        (c as f32 + 1.0) / (total as f32 + self.vocab_size as f32)
                    } else {
                        c as f32 / total as f32
                    }
                }
                None => {
                    if k == 0 {
                        1.0 / self.vocab_size as f32
                    } else {
                        continue; // unseen context: back off
                    }
                }
            };
            num += self.weights[k] * pk;
            weight_sum += self.weights[k];
        }
        if weight_sum == 0.0 {
            1.0 / self.vocab_size as f32
        } else {
            num / weight_sum
        }
    }

    /// Full next-token distribution after `context`, in one pass per order.
    ///
    /// Bit-identical to calling [`NGramLm::prob`] for every vocabulary
    /// entry (the per-token accumulation runs over orders in the same
    /// sequence, with the same float expressions), but each order's
    /// context is hashed once and its successor total summed once instead
    /// of once per token — `O(order · successors + vocab)` rather than
    /// `O(vocab · order · successors)`. [`NextToken::next_logits`] reads
    /// it, so every decode step costs one pass, not one per token.
    pub fn dist(&self, context: &[usize]) -> Vec<f32> {
        let mut num = vec![0.0f32; self.vocab_size];
        let mut weight_sum = 0.0;
        for k in 0..self.order {
            if k > context.len() {
                continue;
            }
            let ctx = &context[context.len() - k..];
            if k == 0 {
                let w = self.weights[0];
                match self.counts[0].get(ctx) {
                    Some(succ) => {
                        let total: u32 = succ.values().sum();
                        let denom = total as f32 + self.vocab_size as f32;
                        // Every token starts at the add-one floor
                        // ((0 + 1.0) / denom == 1.0 / denom exactly);
                        // observed successors overwrite with their count.
                        for slot in num.iter_mut() {
                            *slot = w * (1.0 / denom);
                        }
                        for (&t, &c) in succ {
                            num[t] = w * ((c as f32 + 1.0) / denom);
                        }
                    }
                    None => {
                        let p = 1.0 / self.vocab_size as f32;
                        for slot in num.iter_mut() {
                            *slot = w * p;
                        }
                    }
                }
                weight_sum += w;
            } else if let Some(succ) = self.counts[k].get(ctx) {
                let total: u32 = succ.values().sum();
                let w = self.weights[k];
                // Tokens outside the successor map would add `w * 0.0`,
                // which never changes a non-negative accumulator.
                for (&t, &c) in succ {
                    num[t] += w * (c as f32 / total as f32);
                }
                weight_sum += w;
            }
        }
        if weight_sum == 0.0 {
            return vec![1.0 / self.vocab_size as f32; self.vocab_size];
        }
        for slot in num.iter_mut() {
            *slot /= weight_sum;
        }
        num
    }

    /// Per-token perplexity of `stream` (starting from the second token).
    pub fn perplexity(&self, stream: &[usize]) -> f32 {
        assert!(stream.len() >= 2, "perplexity needs at least 2 tokens");
        let mut nll = 0.0;
        for i in 1..stream.len() {
            let p = self.prob(&stream[..i], stream[i]).max(1e-12);
            nll -= p.ln();
        }
        (nll / (stream.len() - 1) as f32).exp()
    }

    /// Number of stored n-gram contexts across all orders.
    pub fn context_count(&self) -> usize {
        self.counts.iter().map(HashMap::len).sum()
    }
}

impl NextToken for NGramLm {
    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32> {
        self.dist(prefix)
            .into_iter()
            .map(|p| p.max(1e-12).ln())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm4db_transformer::greedy;

    fn repeating_stream() -> Vec<usize> {
        // 1 2 3 1 2 3 ... deterministic trigram structure.
        (0..300).map(|i| 1 + (i % 3)).collect()
    }

    #[test]
    fn learns_deterministic_pattern() {
        let mut lm = NGramLm::new(3, 10);
        lm.train(&repeating_stream());
        // After context [1, 2], token 3 should dominate.
        let p3 = lm.prob(&[1, 2], 3);
        let p1 = lm.prob(&[1, 2], 1);
        assert!(p3 > 0.5, "p(3 | 1 2) = {p3}");
        assert!(p3 > p1 * 5.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut lm = NGramLm::new(2, 8);
        lm.train(&[1, 2, 3, 4, 2, 3, 1]);
        for ctx in [vec![], vec![2], vec![3, 4]] {
            let total: f32 = (0..8).map(|t| lm.prob(&ctx, t)).sum();
            assert!((total - 1.0).abs() < 1e-4, "ctx {ctx:?} sums to {total}");
        }
    }

    #[test]
    fn unseen_context_backs_off_to_unigram() {
        let mut lm = NGramLm::new(3, 10);
        lm.train(&repeating_stream());
        // Context [7, 8] was never seen; distribution is still proper.
        let total: f32 = (0..10).map(|t| lm.prob(&[7, 8], t)).sum();
        assert!((total - 1.0).abs() < 1e-4);
        // And frequent unigrams still rank higher.
        assert!(lm.prob(&[7, 8], 1) > lm.prob(&[7, 8], 9));
    }

    #[test]
    fn higher_order_fits_pattern_better() {
        let stream = repeating_stream();
        let mut uni = NGramLm::new(1, 10);
        uni.train(&stream);
        let mut tri = NGramLm::new(3, 10);
        tri.train(&stream);
        assert!(tri.perplexity(&stream) < uni.perplexity(&stream));
    }

    #[test]
    fn generation_follows_pattern() {
        let mut lm = NGramLm::new(3, 10);
        lm.train(&repeating_stream());
        let out = greedy(&mut lm, &[1, 2], 4, 999, None);
        assert_eq!(out, vec![3, 1, 2, 3]);
    }

    #[test]
    fn dist_is_bitwise_identical_to_per_token_prob() {
        // The dense distribution is what `next_logits` decodes from; it
        // must be indistinguishable from the reference scalar probability —
        // exact equality, so n-gram decoding picks the same tokens whichever
        // path scores them.
        let mut lm = NGramLm::new(4, 32);
        lm.train(&repeating_stream());
        lm.train(&[5, 9, 5, 9, 5, 2, 7]);
        let untrained = NGramLm::new(3, 16);
        for ctx in [
            vec![],
            vec![1],
            vec![1, 2],
            vec![2, 3, 1],
            vec![9, 5, 9],
            vec![30, 31],
            vec![1, 2, 3, 1, 2],
        ] {
            let dense = lm.dist(&ctx);
            for (t, &p) in dense.iter().enumerate() {
                assert_eq!(
                    p.to_bits(),
                    lm.prob(&ctx, t).to_bits(),
                    "ctx {ctx:?} token {t}"
                );
            }
            if ctx.iter().all(|&t| t < 16) {
                let dense = untrained.dist(&ctx);
                for (t, &p) in dense.iter().enumerate() {
                    assert_eq!(p.to_bits(), untrained.prob(&ctx, t).to_bits());
                }
            }
        }
    }

    #[test]
    fn train_is_incremental() {
        let mut a = NGramLm::new(2, 5);
        a.train(&[1, 2, 1, 2]);
        a.train(&[3, 4]);
        let mut b = NGramLm::new(2, 5);
        b.train(&[1, 2, 1, 2]);
        // `a` knows about 3->4, `b` does not.
        assert!(a.prob(&[3], 4) > b.prob(&[3], 4));
    }
}
