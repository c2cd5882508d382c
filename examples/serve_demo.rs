//! Serving demo: one engine, many concurrent requests.
//!
//! Trains a tiny GPT on synthetic text, then pushes a mixed workload —
//! greedy decodes with a shared prompt header, a beam search, a scoring
//! request, and a cancelled request — through the batched inference engine,
//! and prints the serving counters.
//!
//! Run with `cargo run --release --example serve_demo`. It is also the
//! traffic source for the observability workflows in the README:
//! `LM4DB_TRACE=1` appends the trace snapshot, and `LM4DB_METRICS_ADDR`
//! serves `/metrics` and `/dashboard` until Enter is pressed.

use lm4db::serve::{Deadline, Engine, EngineOptions, Request};
use lm4db::tokenize::{Bpe, Tokenizer, BOS, EOS};
use lm4db::transformer::{pack_corpus, pretrain_gpt, GptModel, ModelConfig, TrainOptions};

fn main() {
    let metrics = lm4db::obs::serve_metrics_from_env();

    // A small corpus and model, as everywhere in this repo.
    let lines = lm4db::corpus::corpus(150, 11);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 300);
    let stream = pack_corpus(refs.iter().copied(), &bpe);
    let mut model = GptModel::new(
        ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::tiny(0)
        },
        5,
    );
    pretrain_gpt(
        &mut model,
        &stream,
        &TrainOptions {
            steps: 60,
            batch_size: 8,
            seq_len: 24,
            ..Default::default()
        },
    );

    let encode = |text: &str| {
        let mut ids = vec![BOS];
        ids.extend(bpe.encode(text));
        ids
    };

    // All eight greedy prompts share the header "the", so after the first
    // prefill the engine's prefix cache serves the common positions.
    let mut engine = Engine::with_options(
        &model,
        EngineOptions {
            max_batch: 4,
            ..Default::default()
        },
    );
    let mut ids = Vec::new();
    for text in [
        "the optimizer",
        "the query plan",
        "the index",
        "the database",
        "the table",
        "the model",
        "the join order",
        "the workload",
    ] {
        ids.push(engine.submit(Request::greedy(encode(text), 8, EOS)));
    }
    let beam_id = engine.submit(Request::beam(encode("the optimizer"), 3, 8, EOS));
    let score_id = engine.submit(Request::score(&encode("the query"), &bpe.encode("plan")));
    let doomed = engine
        .submit(Request::greedy(encode("the table"), 8, EOS).with_deadline(Deadline::Steps(2)));
    let unwanted = engine.submit(Request::greedy(encode("the index"), 8, EOS));
    engine.cancel(unwanted);

    let responses = engine.run();
    for r in &responses {
        let kind = if r.id == beam_id {
            "beam  "
        } else if r.id == score_id {
            "score "
        } else {
            "greedy"
        };
        let text = bpe.decode(&r.tokens);
        if r.id == score_id {
            println!(
                "#{:<2} {kind} [{:?}] log p = {:.3}",
                r.id, r.outcome, r.score
            );
        } else {
            println!("#{:<2} {kind} [{:?}] \"{text}\"", r.id, r.outcome);
        }
    }
    assert!(responses.iter().any(|r| r.id == doomed));

    let stats = engine.stats();
    println!();
    println!("steps                {}", stats.steps);
    println!(
        "completed/cancelled  {}/{}",
        stats.completed, stats.cancelled
    );
    println!("expired by deadline  {}", stats.expired);
    println!("prefill tokens       {}", stats.prefill_tokens);
    println!("prefix-cache tokens  {}", stats.cached_prefix_tokens);
    println!("decoded tokens       {}", stats.decoded_tokens);
    println!(
        "prefix hit rate      {:.1}%",
        100.0 * stats.prefix_hit_rate()
    );
    println!("mean batch occupancy {:.2}", stats.mean_batch_occupancy());
    println!("peak batch           {}", stats.peak_batch);

    if lm4db::obs::enabled() {
        println!("\n{}", lm4db::obs::snapshot().to_text());
    }
    if let Some(server) = &metrics {
        println!("scrape http://{}/metrics — Enter to exit", server.addr());
        let _ = std::io::stdin().read_line(&mut String::new());
    }
}
