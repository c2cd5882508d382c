//! Text classification through language models, both ways the tutorial
//! teaches (§2.3):
//!
//! * **Prompting** ([`PromptClassifier`]): render the input into a prompt
//!   and score each label verbalization as a continuation — no parameter
//!   updates, works zero- or few-shot.
//! * **Fine-tuning** ([`FineTunedClassifier`]): wrap a BERT encoder with a
//!   classification head and train on labeled examples.

use lm4db_serve::{Engine, Outcome, Request};
use lm4db_tokenize::Tokenizer;
use lm4db_transformer::generate::log_softmax_at;
use lm4db_transformer::{BertClassifier, BertModel, GptModel, ModelConfig, NextToken};

use crate::prompt::Prompt;

/// Common interface over both classification regimes.
pub trait TextClassifier {
    /// The label names, index-aligned with predictions.
    fn labels(&self) -> &[String];

    /// Predicts a label index for `text`.
    fn classify(&mut self, text: &str) -> usize;

    /// Accuracy over a labeled evaluation set.
    fn accuracy(&mut self, examples: &[(String, usize)]) -> f32 {
        if examples.is_empty() {
            return 0.0;
        }
        let correct = examples
            .iter()
            .filter(|(t, l)| self.classify(t) == *l)
            .count();
        correct as f32 / examples.len() as f32
    }
}

/// Total log-probability of `continuation` following `prefix` under `model`.
pub fn score_continuation(
    model: &mut dyn NextToken,
    prefix: &[usize],
    continuation: &[usize],
) -> f32 {
    assert!(!prefix.is_empty(), "prefix must be non-empty");
    let mut seq = prefix.to_vec();
    let mut total = 0.0;
    for &tok in continuation {
        let logits = model.next_logits(&seq);
        total += log_softmax_at(&logits, tok);
        seq.push(tok);
    }
    total
}

/// Zero-/few-shot classification by scoring label verbalizations as prompt
/// completions. A GPT scores every pair through the serving engine
/// ([`PromptClassifier::scores_batch`]); any other [`NextToken`] model
/// scores them one after another ([`PromptClassifier::scores`]).
pub struct PromptClassifier<M, T: Tokenizer> {
    model: M,
    tokenizer: T,
    prompt: Prompt,
    labels: Vec<String>,
    /// Pre-encoded label verbalizations.
    label_ids: Vec<Vec<usize>>,
}

impl<M, T: Tokenizer> PromptClassifier<M, T> {
    /// Builds a classifier. `labels` are both the class names and the
    /// verbalizations scored as completions.
    pub fn new(model: M, tokenizer: T, prompt: Prompt, labels: Vec<String>) -> Self {
        let label_ids = labels.iter().map(|l| tokenizer.encode(l)).collect();
        PromptClassifier {
            model,
            tokenizer,
            prompt,
            labels,
            label_ids,
        }
    }

    /// `[BOS]` and the rendered prompt for `text`.
    fn prefix(&self, text: &str) -> Vec<usize> {
        let rendered = self.prompt.render(text);
        let mut prefix = vec![lm4db_tokenize::BOS];
        prefix.extend(self.tokenizer.encode(&rendered));
        prefix
    }

    /// Consumes the classifier, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

impl<M: NextToken, T: Tokenizer> PromptClassifier<M, T> {
    /// Log-probability scores per label for `text`.
    pub fn scores(&mut self, text: &str) -> Vec<f32> {
        let prefix = self.prefix(text);
        self.label_ids
            .iter()
            .map(|cont| {
                // Length-normalize so multi-token labels are not penalized.
                score_continuation(&mut self.model, &prefix, cont) / cont.len().max(1) as f32
            })
            .collect()
    }
}

impl<T: Tokenizer> PromptClassifier<GptModel, T> {
    /// Scores every text × label pair in one pass through the batched
    /// inference engine: all continuations decode concurrently, and the
    /// rendered prompt (instruction + demonstrations + input) prefills
    /// once per text via the engine's prefix cache instead of once per
    /// label. Each score is [`score_continuation`] over the model's
    /// KV cache, length-normalized, bit for bit. A pair the engine did not
    /// finish — its prompt and label do not fit the window — scores
    /// `-inf`, so it can never win.
    pub fn scores_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        let mut engine = Engine::new(&self.model);
        let mut reqs = Vec::new();
        for text in texts {
            let prefix = self.prefix(text);
            for cont in &self.label_ids {
                reqs.push(Request::score(&prefix, cont));
            }
        }
        let responses = engine.generate_batch(reqs);
        responses
            .chunks(self.label_ids.len())
            .map(|per_text| {
                per_text
                    .iter()
                    .zip(&self.label_ids)
                    // Length-normalize exactly like the sequential path.
                    .map(|(r, cont)| match r.outcome {
                        Outcome::Finished => r.score / cont.len().max(1) as f32,
                        _ => f32::NEG_INFINITY,
                    })
                    .collect()
            })
            .collect()
    }

    /// Predicted label index per text, from [`PromptClassifier::scores_batch`].
    pub fn classify_batch(&self, texts: &[&str]) -> Vec<usize> {
        self.scores_batch(texts)
            .into_iter()
            .map(|scores| {
                scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Accuracy of [`PromptClassifier::classify_batch`] over a labeled
    /// evaluation set.
    pub fn accuracy_batch(&self, examples: &[(String, usize)]) -> f32 {
        if examples.is_empty() {
            return 0.0;
        }
        let texts: Vec<&str> = examples.iter().map(|(t, _)| t.as_str()).collect();
        let correct = self
            .classify_batch(&texts)
            .iter()
            .zip(examples)
            .filter(|(got, (_, want))| *got == want)
            .count();
        correct as f32 / examples.len() as f32
    }
}

impl<M: NextToken, T: Tokenizer> TextClassifier for PromptClassifier<M, T> {
    fn labels(&self) -> &[String] {
        &self.labels
    }

    fn classify(&mut self, text: &str) -> usize {
        let scores = self.scores(text);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Fine-tuned BERT classifier over raw text.
pub struct FineTunedClassifier<T: Tokenizer> {
    clf: BertClassifier,
    tokenizer: T,
    labels: Vec<String>,
}

impl<T: Tokenizer> FineTunedClassifier<T> {
    /// Wraps a fresh BERT encoder sized to the tokenizer's vocabulary.
    pub fn new(mut cfg: ModelConfig, tokenizer: T, labels: Vec<String>, seed: u64) -> Self {
        cfg.vocab_size = tokenizer.vocab().len();
        let model = BertModel::new(cfg, seed);
        let clf = BertClassifier::new(model, labels.len(), seed ^ 0xc1a55);
        FineTunedClassifier {
            clf,
            tokenizer,
            labels,
        }
    }

    /// Wraps an already pre-trained encoder (transfer learning).
    pub fn from_pretrained(model: BertModel, tokenizer: T, labels: Vec<String>, seed: u64) -> Self {
        let clf = BertClassifier::new(model, labels.len(), seed ^ 0xc1a55);
        FineTunedClassifier {
            clf,
            tokenizer,
            labels,
        }
    }

    fn encode_clamped(&self, text: &str) -> Vec<usize> {
        let max = self.clf.encoder().config().max_seq_len;
        let mut ids = self.tokenizer.encode_pair(text, None);
        ids.truncate(max);
        ids
    }

    /// Fine-tunes on labeled text for `epochs` passes with batches of
    /// `batch_size`. Returns the mean loss of the final epoch.
    pub fn fit(
        &mut self,
        examples: &[(String, usize)],
        epochs: usize,
        batch_size: usize,
        lr: f32,
    ) -> f32 {
        assert!(!examples.is_empty(), "fit() needs at least one example");
        let mut opt = self.clf.optimizer(lr);
        let encoded: Vec<(Vec<usize>, usize)> = examples
            .iter()
            .map(|(t, l)| (self.encode_clamped(t), *l))
            .collect();
        let mut last_epoch_loss = 0.0;
        for _ in 0..epochs {
            let mut losses = Vec::new();
            for chunk in encoded.chunks(batch_size.max(1)) {
                let batch: Vec<Vec<usize>> = chunk.iter().map(|(s, _)| s.clone()).collect();
                let labels: Vec<usize> = chunk.iter().map(|(_, l)| *l).collect();
                losses.push(self.clf.train_step(&batch, &labels, &mut opt));
            }
            last_epoch_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
        }
        last_epoch_loss
    }

    /// Class probabilities for `text`.
    pub fn proba(&self, text: &str) -> Vec<f32> {
        let ids = self.encode_clamped(text);
        self.clf.predict_proba(&[ids]).remove(0)
    }
}

impl<T: Tokenizer> TextClassifier for FineTunedClassifier<T> {
    fn labels(&self) -> &[String] {
        &self.labels
    }

    fn classify(&mut self, text: &str) -> usize {
        let ids = self.encode_clamped(text);
        self.clf.predict(&[ids])[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ngram::NGramLm;
    use lm4db_tokenize::Bpe;
    use lm4db_transformer::pack_corpus;

    // NOTE: the output marker is the single word "label" and there is no
    // input marker, so the n-gram's short context window — its last tokens
    // before the label are ("nice", "label") vs ("poor", "label") — actually
    // sees the input. This mirrors how small models need the discriminative
    // signal adjacent to the completion point, which is exactly the
    // limitation the prompting-vs-scale experiment (Exp B) measures.
    fn sentiment_corpus() -> Vec<String> {
        let mut lines = Vec::new();
        for _ in 0..30 {
            lines.push("great good nice label positive .".to_string());
            lines.push("bad awful poor label negative .".to_string());
        }
        lines
    }

    fn sentiment_prompt() -> Prompt {
        Prompt::new().with_markers("", "label")
    }

    #[test]
    fn score_continuation_prefers_trained_continuations() {
        let corpus = sentiment_corpus();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let bpe = Bpe::train(refs.iter().copied(), 300);
        let stream = pack_corpus(refs.iter().copied(), &bpe);
        let mut lm = NGramLm::new(3, bpe.vocab().len());
        lm.train(&stream);

        let prefix = {
            let mut p = vec![lm4db_tokenize::BOS];
            p.extend(bpe.encode("great good nice label"));
            p
        };
        let pos = bpe.encode("positive");
        let neg = bpe.encode("negative");
        let s_pos = score_continuation(&mut lm, &prefix, &pos);
        let s_neg = score_continuation(&mut lm, &prefix, &neg);
        assert!(
            s_pos > s_neg,
            "positive should score higher: {s_pos} vs {s_neg}"
        );
    }

    #[test]
    fn prompt_classifier_with_ngram_backend() {
        let corpus = sentiment_corpus();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let bpe = Bpe::train(refs.iter().copied(), 300);
        let stream = pack_corpus(refs.iter().copied(), &bpe);
        let mut lm = NGramLm::new(3, bpe.vocab().len());
        lm.train(&stream);

        let mut clf = PromptClassifier::new(
            lm,
            bpe,
            sentiment_prompt(),
            vec!["positive".into(), "negative".into()],
        );
        assert_eq!(clf.classify("great good nice"), 0);
        assert_eq!(clf.classify("bad awful poor"), 1);
        let acc = clf.accuracy(&[("great good nice".into(), 0), ("bad awful poor".into(), 1)]);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn a_label_past_the_window_scores_neg_infinity() {
        use lm4db_transformer::GptModel;
        let corpus = sentiment_corpus();
        let bpe = Bpe::train(corpus.iter().map(String::as_str), 300);
        let cfg = ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::test()
        };
        let window = cfg.max_seq_len;
        let long = "positive negative ".repeat(window);
        let labels = vec!["positive".to_string(), long.trim().to_string()];
        let clf = PromptClassifier::new(GptModel::new(cfg, 3), bpe, sentiment_prompt(), labels);
        let prefix = clf.prefix("great good nice");
        assert!(prefix.len() + clf.label_ids[0].len() <= window + 1);
        assert!(prefix.len() + clf.label_ids[1].len() > window + 1);
        // The engine fails the long pair at admission; its score must not
        // read as log-probability 0, the best there is.
        let scores = clf.scores_batch(&["great good nice"]).remove(0);
        assert!(scores[0].is_finite(), "{scores:?}");
        assert_eq!(scores[1], f32::NEG_INFINITY);
        assert_eq!(clf.classify_batch(&["great good nice"]), vec![0]);
    }

    #[test]
    fn batched_prompt_scoring_agrees_with_sequential() {
        use lm4db_transformer::{pretrain_gpt, GptModel, IncrementalSession, TrainOptions};
        let corpus = sentiment_corpus();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let bpe = Bpe::train(refs.iter().copied(), 300);
        let stream = pack_corpus(refs.iter().copied(), &bpe);
        let cfg = ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::tiny(0)
        };
        let mut gpt = GptModel::new(cfg, 9);
        pretrain_gpt(
            &mut gpt,
            &stream,
            &TrainOptions {
                steps: 40,
                batch_size: 4,
                seq_len: 12,
                ..Default::default()
            },
        );
        let clf = PromptClassifier::new(
            gpt,
            bpe,
            sentiment_prompt(),
            vec!["positive".into(), "negative".into()],
        );
        let texts = ["great good nice", "bad awful poor"];
        // Sequential reference: each label scored alone over a KV-cached
        // session, the float path the engine runs.
        let sequential: Vec<Vec<u32>> = texts
            .iter()
            .map(|text| {
                let prefix = clf.prefix(text);
                clf.label_ids
                    .iter()
                    .map(|cont| {
                        let mut session = IncrementalSession::new(&clf.model);
                        let s = score_continuation(&mut session, &prefix, cont);
                        (s / cont.len().max(1) as f32).to_bits()
                    })
                    .collect()
            })
            .collect();
        let batched: Vec<Vec<u32>> = clf
            .scores_batch(&texts)
            .iter()
            .map(|row| row.iter().map(|s| s.to_bits()).collect())
            .collect();
        assert_eq!(batched, sequential);
        assert_eq!(clf.classify_batch(&texts), vec![0, 1]);
    }

    #[test]
    fn fine_tuned_classifier_learns_separable_task() {
        let bpe = Bpe::train(["great good nice bad awful poor neutral text"], 200);
        let mut clf = FineTunedClassifier::new(
            ModelConfig::test(),
            bpe,
            vec!["positive".into(), "negative".into()],
            3,
        );
        let train: Vec<(String, usize)> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    ("great good nice".to_string(), 0)
                } else {
                    ("bad awful poor".to_string(), 1)
                }
            })
            .collect();
        clf.fit(&train, 25, 4, 3e-3);
        assert_eq!(clf.classify("great good nice"), 0);
        assert_eq!(clf.classify("bad awful poor"), 1);
    }

    #[test]
    fn proba_is_distribution() {
        let bpe = Bpe::train(["alpha beta gamma"], 100);
        let clf = FineTunedClassifier::new(
            ModelConfig::test(),
            bpe,
            vec!["a".into(), "b".into(), "c".into()],
            1,
        );
        let p = clf.proba("alpha beta");
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}
