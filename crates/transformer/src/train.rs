//! Pre-training driver: corpus packing, window sampling, and a causal-LM
//! training loop with warmup+cosine learning-rate scheduling.

use lm4db_tensor::{Adam, LrSchedule, Rand};
use lm4db_tokenize::{Tokenizer, EOS};

use crate::gpt::GptModel;

/// Encodes `lines` into one contiguous token stream, separating documents
/// with `[EOS]` — the standard GPT pre-training data layout, which avoids
/// padding entirely.
pub fn pack_corpus<'a>(
    lines: impl IntoIterator<Item = &'a str>,
    tokenizer: &dyn Tokenizer,
) -> Vec<usize> {
    let mut stream = Vec::new();
    for line in lines {
        stream.extend(tokenizer.encode(line));
        stream.push(EOS);
    }
    stream
}

/// Samples `batch` random windows of `seq_len + 1` tokens from `stream`
/// (the extra token supplies the final target).
pub fn sample_windows(
    stream: &[usize],
    seq_len: usize,
    batch: usize,
    rng: &mut Rand,
) -> Vec<Vec<usize>> {
    assert!(
        stream.len() > seq_len + 1,
        "stream of {} tokens too short for windows of {}",
        stream.len(),
        seq_len
    );
    (0..batch)
        .map(|_| {
            let start = rng.below(stream.len() - seq_len - 1);
            stream[start..start + seq_len + 1].to_vec()
        })
        .collect()
}

/// Hyper-parameters of a pre-training run.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Number of optimizer steps.
    pub steps: u64,
    /// Windows per step.
    pub batch_size: usize,
    /// Window length (tokens per example, excluding the target shift).
    pub seq_len: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Warmup steps before cosine decay.
    pub warmup: u64,
    /// RNG seed for window sampling.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            steps: 200,
            batch_size: 8,
            seq_len: 32,
            lr: 3e-3,
            warmup: 20,
            seed: 0,
        }
    }
}

/// Outcome of a training run: the per-step loss curve.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Loss after each optimizer step.
    pub losses: Vec<f32>,
}

impl TrainReport {
    /// Mean loss over the final `n` steps (or all, if fewer).
    pub fn final_loss(&self, n: usize) -> f32 {
        let tail = &self.losses[self.losses.len().saturating_sub(n)..];
        tail.iter().sum::<f32>() / tail.len().max(1) as f32
    }
}

/// Pre-trains `model` on `stream` with causal next-token prediction.
pub fn pretrain_gpt(model: &mut GptModel, stream: &[usize], opts: &TrainOptions) -> TrainReport {
    let seq_len = opts.seq_len.min(model.config().max_seq_len - 1);
    let mut opt: Adam = model.optimizer(opts.lr);
    let schedule = LrSchedule::warmup_cosine(opts.lr, opts.lr * 0.1, opts.warmup, opts.steps);
    let mut rng = Rand::seeded(opts.seed);
    let mut losses = Vec::with_capacity(opts.steps as usize);
    for step in 0..opts.steps {
        opt.set_lr(schedule.at(step));
        let batch = sample_windows(stream, seq_len, opts.batch_size, &mut rng);
        losses.push(model.train_step(&batch, &mut opt));
    }
    TrainReport { losses }
}

/// Evaluates perplexity on held-out windows of `stream`.
pub fn evaluate_perplexity(
    model: &GptModel,
    stream: &[usize],
    seq_len: usize,
    n_windows: usize,
    seed: u64,
) -> f32 {
    let seq_len = seq_len.min(model.config().max_seq_len - 1);
    let mut rng = Rand::seeded(seed);
    let windows = sample_windows(stream, seq_len, n_windows, &mut rng);
    let mut total = 0.0;
    for w in &windows {
        total += model.eval_loss(std::slice::from_ref(w));
    }
    (total / n_windows as f32).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use lm4db_tokenize::Bpe;

    const CORPUS: [&str; 3] = [
        "the query optimizer picks the best plan",
        "the database stores the relational data",
        "the optimizer reads the query plan",
    ];

    #[test]
    fn pack_corpus_separates_documents() {
        let bpe = Bpe::train(CORPUS, 150);
        let stream = pack_corpus(CORPUS, &bpe);
        assert_eq!(stream.iter().filter(|&&t| t == EOS).count(), 3);
        assert_eq!(*stream.last().unwrap(), EOS);
    }

    #[test]
    fn sample_windows_have_right_length() {
        let stream: Vec<usize> = (0..100).collect();
        let mut rng = Rand::seeded(1);
        let ws = sample_windows(&stream, 10, 4, &mut rng);
        assert_eq!(ws.len(), 4);
        assert!(ws.iter().all(|w| w.len() == 11));
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn sample_windows_rejects_short_streams() {
        let stream: Vec<usize> = (0..5).collect();
        let mut rng = Rand::seeded(1);
        sample_windows(&stream, 10, 1, &mut rng);
    }

    #[test]
    fn pretraining_loss_decreases() {
        let bpe = Bpe::train(CORPUS, 150);
        let stream = pack_corpus(CORPUS.iter().cycle().take(20).copied(), &bpe);
        let mut model = GptModel::new(
            ModelConfig {
                vocab_size: bpe.vocab().len(),
                ..ModelConfig::test()
            },
            5,
        );
        let report = pretrain_gpt(
            &mut model,
            &stream,
            &TrainOptions {
                steps: 60,
                batch_size: 4,
                seq_len: 12,
                ..Default::default()
            },
        );
        let early: f32 = report.losses[..10].iter().sum::<f32>() / 10.0;
        let late = report.final_loss(10);
        assert!(late < early * 0.8, "loss {early} -> {late}");
    }

    #[test]
    fn perplexity_is_finite_and_bounded_below_by_one() {
        let bpe = Bpe::train(CORPUS, 150);
        let stream = pack_corpus(CORPUS.iter().cycle().take(10).copied(), &bpe);
        let model = GptModel::new(
            ModelConfig {
                vocab_size: bpe.vocab().len(),
                ..ModelConfig::test()
            },
            5,
        );
        let ppl = evaluate_perplexity(&model, &stream, 12, 3, 9);
        assert!(ppl.is_finite() && ppl >= 1.0, "perplexity {ppl}");
    }
}
