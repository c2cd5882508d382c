//! Quickstart: the whole LM4DB stack in one tour.
//!
//! 1. Train a BPE tokenizer and a tiny GPT-style LM on a synthetic corpus.
//! 2. Watch pre-training reduce perplexity and complete a prompt.
//! 3. Run SQL over a generated database.
//! 4. Glance at the Figure 1 model-growth data.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lm4db::corpus;
use lm4db::sql::run_sql;
use lm4db::tokenize::{Bpe, Tokenizer};
use lm4db::transformer::{
    evaluate_perplexity, greedy_cached, pack_corpus, pretrain_gpt, GptModel, ModelConfig,
    TrainOptions,
};
use lm4db::zoo;

fn main() {
    println!("== 1. Tokenizer ==");
    let lines = corpus::corpus(400, 7);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 400);
    println!(
        "trained BPE: {} tokens, {} merges",
        bpe.vocab().len(),
        bpe.merges().len()
    );
    let sample = &lines[0];
    println!("  '{sample}' -> {:?}", bpe.encode(sample));

    println!("\n== 2. Pre-training a GPT-style LM ==");
    let stream = pack_corpus(refs.iter().copied(), &bpe);
    let mut model = GptModel::new(ModelConfig::tiny(bpe.vocab().len()), 42);
    println!("model parameters: {}", model.num_params());
    let before = evaluate_perplexity(&model, &stream, 24, 8, 1);
    let report = pretrain_gpt(
        &mut model,
        &stream,
        &TrainOptions {
            steps: 150,
            batch_size: 8,
            seq_len: 24,
            ..Default::default()
        },
    );
    let after = evaluate_perplexity(&model, &stream, 24, 8, 1);
    println!(
        "perplexity: {before:.1} -> {after:.1} (final loss {:.3})",
        report.final_loss(10)
    );
    let prompt = bpe.encode("the optimizer");
    let mut prefix = vec![lm4db::tokenize::BOS];
    prefix.extend(prompt);
    let completion = greedy_cached(&model, &prefix, 8, lm4db::tokenize::EOS);
    println!("completion: the optimizer {}", bpe.decode(&completion));

    println!("\n== 3. The SQL substrate ==");
    let domain = corpus::make_domain(corpus::DomainKind::Employees, 12, 3);
    let cat = domain.catalog();
    let rs = run_sql(
        "SELECT dept, COUNT(*), AVG(salary) FROM employees GROUP BY dept ORDER BY dept",
        &cat,
    )
    .unwrap();
    println!("{}", rs.to_ascii());

    println!("== 4. Figure 1: the model-size explosion ==");
    for m in zoo::figure1_models().iter().step_by(3) {
        println!(
            "  {:>4}  {:<18} {:>14} params",
            m.year, m.name, m.published_params
        );
    }
    println!("\nDone. See the other examples for each application.");
}
