//! **Exp I** (§2.1, rise of the Transformer): why attention displaced
//! recurrence — accuracy on a key-value recall task as the distance
//! between cue and answer grows, transformer vs. Elman RNN at matched
//! parameter budgets.
//!
//! Task: sequences `k1 v1 k2 v2 ... [query] ki` must be continued with
//! `vi`. The RNN has to carry every binding through its fixed-size state;
//! attention can look back directly.

use lm4db::tensor::Rand;
use lm4db::transformer::{greedy, greedy_cached, GptModel, ModelConfig, RnnConfig, RnnLm};
use lm4db_bench::{pct, print_table};

const QUERY: usize = 8; // token id marking "now answer for this key"
const KEYS: std::ops::Range<usize> = 10..30;
const VALS: std::ops::Range<usize> = 30..50;

/// One episode: `n_pairs` bindings followed by a query for one of them.
fn episode(n_pairs: usize, rng: &mut Rand) -> (Vec<usize>, usize) {
    let mut keys: Vec<usize> = KEYS.collect();
    rng.shuffle(&mut keys);
    let mut seq = vec![lm4db::tokenize::BOS];
    let mut bindings = Vec::new();
    for &k in keys.iter().take(n_pairs) {
        let v = VALS.start + rng.below(VALS.len());
        seq.push(k);
        seq.push(v);
        bindings.push((k, v));
    }
    // Query the FIRST binding — maximal distance from the answer position.
    let (qk, qv) = bindings[0];
    seq.push(QUERY);
    seq.push(qk);
    (seq, qv)
}

fn train_and_eval(model: &mut dyn NextTokenTrain, n_pairs: usize, steps: usize) -> f32 {
    let mut rng = Rand::seeded(42);
    for _ in 0..steps {
        let batch: Vec<Vec<usize>> = (0..8)
            .map(|_| {
                let (mut seq, v) = episode(n_pairs, &mut rng);
                seq.push(v);
                seq
            })
            .collect();
        model.step(&batch);
    }
    // Evaluation on fresh episodes.
    let mut rng = Rand::seeded(4242);
    let mut correct = 0;
    let total = 40;
    for _ in 0..total {
        let (seq, v) = episode(n_pairs, &mut rng);
        if model.answer(&seq) == Some(v) {
            correct += 1;
        }
    }
    correct as f32 / total as f32
}

/// Minimal trait so the harness treats both models identically.
trait NextTokenTrain {
    fn step(&mut self, batch: &[Vec<usize>]);
    /// The greedy next token after `seq`.
    fn answer(&mut self, seq: &[usize]) -> Option<usize>;
}

struct Gpt {
    model: GptModel,
    opt: lm4db::tensor::Adam,
}

impl NextTokenTrain for Gpt {
    fn step(&mut self, batch: &[Vec<usize>]) {
        self.model.train_step(batch, &mut self.opt);
    }
    fn answer(&mut self, seq: &[usize]) -> Option<usize> {
        greedy_cached(&self.model, seq, 1, usize::MAX)
            .first()
            .copied()
    }
}

struct Rnn {
    model: RnnLm,
    opt: lm4db::tensor::Adam,
}

impl NextTokenTrain for Rnn {
    fn step(&mut self, batch: &[Vec<usize>]) {
        self.model.train_step(batch, &mut self.opt);
    }
    fn answer(&mut self, seq: &[usize]) -> Option<usize> {
        greedy(&mut self.model, seq, 1, usize::MAX, None)
            .first()
            .copied()
    }
}

fn main() {
    let vocab = 50;
    let mut rows = Vec::new();
    for n_pairs in [2usize, 4, 8] {
        let cfg = ModelConfig {
            vocab_size: vocab,
            max_seq_len: 2 * n_pairs + 8,
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
            dropout: 0.0,
        };
        let model = GptModel::new(cfg, 5);
        let opt = model.optimizer(3e-3);
        let mut gpt = Gpt { model, opt };
        let gpt_params;
        {
            gpt_params = gpt.model.num_params();
        }
        let acc_gpt = train_and_eval(&mut gpt, n_pairs, 250);

        // RNN sized to a comparable parameter count.
        let rcfg = RnnConfig {
            vocab_size: vocab,
            d_embed: 48,
            d_hidden: 96,
        };
        let model = RnnLm::new(rcfg, 5);
        let opt = model.optimizer(3e-3);
        let mut rnn = Rnn { model, opt };
        let rnn_params = rnn.model.num_params();
        let acc_rnn = train_and_eval(&mut rnn, n_pairs, 250);

        rows.push(vec![
            format!("{n_pairs} pairs (distance {})", 2 * n_pairs),
            format!("{} ({} params)", pct(acc_gpt as f64), gpt_params),
            format!("{} ({} params)", pct(acc_rnn as f64), rnn_params),
        ]);
    }
    print_table(
        "Exp I — key-value recall accuracy vs. cue-answer distance",
        &[
            "episode size",
            "transformer (attention)",
            "RNN (recurrence)",
        ],
        &rows,
    );
    println!("chance level: {}", pct(1.0 / VALS.len() as f64));
}
