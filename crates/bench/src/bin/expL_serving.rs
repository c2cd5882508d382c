//! **Exp L** (serving): throughput of the batched inference engine on the
//! workload shape the tutorial's applications all share — many concurrent
//! requests whose prompts open with the same instruction/schema header.
//!
//! Four ways to serve the same 8 requests:
//!
//! 1. sequential full-forward `greedy` (re-runs the whole prefix every
//!    token, O(t²) per sequence),
//! 2. sequential KV-cached `greedy_cached` (O(t) per token, one at a time),
//! 3. the engine with a cold prefix cache (continuous batching stacks the
//!    sequences' rows into one forward per step, row groups fanned across
//!    the worker pool),
//! 4. the engine warm (a prior request already prefilled the shared
//!    header, so admission restores it from the prefix trie).
//!
//! Every path must produce identical tokens; the engine rows are expected
//! to clear 2x the sequential full-forward baseline.
//!
//! A fifth measurement answers ROADMAP item 2 directly: strategies 2 and 3
//! with the pool pinned to **one thread**, on two-token prompts so that
//! decode steps are all but 16 of the 272 fed tokens, reported as engine
//! batch-8 ÷ sequential KV decode. On one thread the engine has no
//! parallelism to win with — whatever it gains over decoding the requests
//! one after another is the stacked forward sharing each weight sweep
//! between the batch's rows.
//!
//! `LM4DB_SMOKE=1` (the CI convention of expP/expR) skips the throughput
//! asserts, which mean nothing on a shared runner, and keeps every
//! byte-equality assert.
//!
//! Each strategy is timed through [`lm4db::obs::timed`], so the wall-clock
//! numbers in the table below are the same measurements that land in the
//! trace registry — run with `LM4DB_TRACE=1` to get the full snapshot
//! (scheduler phases, kernel timers) appended after the table.

use lm4db::obs;
use lm4db::serve::{Engine, EngineOptions, Request};
use lm4db::tokenize::BOS;
use lm4db::transformer::{greedy, greedy_cached, GptModel, ModelConfig, Unconstrained};
use lm4db_bench::{json_obj, print_table, write_results_json};
use serde_json::Value;

const STOP: usize = usize::MAX; // never emitted: measure full budgets
const NEW_TOKENS: usize = 32;
const HEADER_LEN: usize = 24;

fn cfg() -> ModelConfig {
    ModelConfig {
        vocab_size: 512,
        max_seq_len: 96,
        d_model: 128,
        n_heads: 4,
        n_layers: 4,
        d_ff: 512,
        dropout: 0.0,
    }
}

/// Eight prompts sharing a long instruction-style header, each with a
/// short unique tail — the text-to-SQL / wrangling prompt shape.
fn prompts() -> Vec<Vec<usize>> {
    let mut header = vec![BOS];
    header.extend((0..HEADER_LEN - 1).map(|i| 10 + (i * 7) % 500));
    (0..8)
        .map(|r| {
            let mut p = header.clone();
            p.extend([10 + (r * 31) % 500, 10 + (r * 17) % 500]);
            p
        })
        .collect()
}

/// Eight two-token prompts: nothing to share, next to nothing to prefill.
fn decode_prompts() -> Vec<Vec<usize>> {
    (0..8).map(|r| vec![BOS, 10 + (r * 31) % 500]).collect()
}

/// Strategy 2: every prompt through `greedy_cached`, one after another.
fn serve_sequential_kv(model: &GptModel, ps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    ps.iter()
        .map(|p| greedy_cached(model, p, NEW_TOKENS, STOP))
        .collect()
}

/// Strategies 3 and 4: every prompt through `engine` as one batch.
fn serve_batch(engine: &mut Engine<'_>, ps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let reqs = ps
        .iter()
        .map(|p| Request::greedy(p.clone(), NEW_TOKENS, STOP))
        .collect();
    let responses = engine.generate_batch(reqs);
    responses.into_iter().map(|r| r.tokens).collect()
}

fn batch8_engine(model: &GptModel) -> Engine<'_> {
    Engine::with_options(
        model,
        EngineOptions {
            max_batch: 8,
            ..Default::default()
        },
    )
}

/// Best-of-three wall clock of `serve`, and what it returned.
fn best_secs(mut serve: impl FnMut() -> Vec<Vec<usize>>) -> (f64, Vec<Vec<usize>>) {
    let mut best = (f64::INFINITY, Vec::new());
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let out = serve();
        best = (best.0.min(start.elapsed().as_secs_f64()), out);
    }
    best
}

fn main() {
    let smoke = std::env::var("LM4DB_SMOKE").is_ok_and(|v| v == "1");
    let model = GptModel::new(cfg(), 11);
    let ps = prompts();
    let total_new: usize = 8 * NEW_TOKENS;

    // 1. Sequential, full forward pass per token.
    let mut full_model = GptModel::new(cfg(), 11);
    let (out_full, took_full) = obs::timed("bench/expL_full_forward", || {
        ps.iter()
            .map(|p| greedy(&mut full_model, p, NEW_TOKENS, STOP, &Unconstrained))
            .collect::<Vec<Vec<usize>>>()
    });
    let secs_full = took_full.as_secs_f64();

    // 2. Sequential with the KV cache.
    let (out_kv, took_kv) = obs::timed("bench/expL_kv_cache", || serve_sequential_kv(&model, &ps));
    let secs_kv = took_kv.as_secs_f64();

    // 3. Engine, cold prefix cache.
    let mut engine = batch8_engine(&model);
    let (out_cold, took_cold) =
        obs::timed("bench/expL_engine_cold", || serve_batch(&mut engine, &ps));
    let secs_cold = took_cold.as_secs_f64();
    let cold_stats = engine.stats();

    // 4. Engine again: the shared header now sits in the prefix trie.
    let (out_warm, took_warm) =
        obs::timed("bench/expL_engine_warm", || serve_batch(&mut engine, &ps));
    let secs_warm = took_warm.as_secs_f64();
    let warm_stats = engine.stats();

    assert_eq!(out_full, out_kv, "KV-cached output diverged");
    assert_eq!(out_kv, out_cold, "engine (cold) output diverged");
    assert_eq!(out_kv, out_warm, "engine (warm) output diverged");

    // 5. ROADMAP item 2's gate: decode through strategies 2 and 3 on one
    // thread (the pool can be lowered after first use).
    let dps = decode_prompts();
    let ambient_threads = lm4db::tensor::threads();
    lm4db::tensor::set_threads(1);
    let (secs_kv_1t, out_kv_1t) = best_secs(|| serve_sequential_kv(&model, &dps));
    let (secs_engine_1t, out_engine_1t) =
        best_secs(|| serve_batch(&mut batch8_engine(&model), &dps));
    lm4db::tensor::set_threads(ambient_threads);
    assert_eq!(out_kv_1t, out_engine_1t, "engine (one thread) diverged");
    let batch8_vs_kv = secs_kv_1t / secs_engine_1t;

    let tps = |secs: f64| total_new as f64 / secs;
    let rows = vec![
        vec![
            "sequential, full forward".into(),
            format!("{:.0}", tps(secs_full)),
            "1.00x".into(),
        ],
        vec![
            "sequential, KV cache".into(),
            format!("{:.0}", tps(secs_kv)),
            format!("{:.2}x", secs_full / secs_kv),
        ],
        vec![
            "engine, batch 8, cold".into(),
            format!("{:.0}", tps(secs_cold)),
            format!("{:.2}x", secs_full / secs_cold),
        ],
        vec![
            "engine, batch 8, warm prefix".into(),
            format!("{:.0}", tps(secs_warm)),
            format!("{:.2}x", secs_full / secs_warm),
        ],
    ];
    print_table(
        &format!("Exp L — serving 8 shared-prefix requests, {NEW_TOKENS} new tokens each"),
        &["strategy", "tokens/sec", "speedup"],
        &rows,
    );
    println!(
        "prefix cache: {} tokens restored on warm run (hit rate {:.1}% cumulative); \
         mean batch occupancy {:.2}",
        warm_stats.cached_prefix_tokens - cold_stats.cached_prefix_tokens,
        100.0 * warm_stats.prefix_hit_rate(),
        warm_stats.mean_batch_occupancy(),
    );
    println!(
        "decode on one thread: sequential KV {:.0} tok/s, engine batch 8 {:.0} tok/s — \
         batch 8 / sequential = {batch8_vs_kv:.2}x",
        tps(secs_kv_1t),
        tps(secs_engine_1t),
    );
    println!("output check: every strategy produced identical tokens");

    let speedup = secs_full / secs_cold.min(secs_warm);
    if smoke {
        println!("LM4DB_SMOKE=1: throughput asserts skipped");
    } else {
        assert!(
            speedup >= 2.0,
            "acceptance: engine must clear 2x sequential full-forward, got {speedup:.2}x"
        );
        assert!(
            batch8_vs_kv >= 1.5,
            "acceptance: on one thread a batch-8 step must beat 8 sequential decodes \
             by its shared weight sweeps, got {batch8_vs_kv:.2}x"
        );
    }

    let path = write_results_json(
        "expL_serving.json",
        &json_obj(vec![
            ("experiment", Value::Str("expL_serving".into())),
            ("threads", Value::Int(lm4db::tensor::threads() as i64)),
            ("requests", Value::Int(8)),
            ("new_tokens_per_request", Value::Int(NEW_TOKENS as i64)),
            ("wall_clock_secs_full_forward", Value::Float(secs_full)),
            ("wall_clock_secs_kv_cache", Value::Float(secs_kv)),
            ("wall_clock_secs_engine_cold", Value::Float(secs_cold)),
            ("wall_clock_secs_engine_warm", Value::Float(secs_warm)),
            ("tokens_per_sec_engine_warm", Value::Float(tps(secs_warm))),
            ("speedup_engine_vs_full_forward", Value::Float(speedup)),
            (
                "tokens_per_sec_kv_cache_1thread",
                Value::Float(tps(secs_kv_1t)),
            ),
            (
                "tokens_per_sec_engine_batch8_1thread",
                Value::Float(tps(secs_engine_1t)),
            ),
            (
                "engine_batch8_vs_sequential_kv_1thread",
                Value::Float(batch8_vs_kv),
            ),
            (
                "prefix_hit_rate",
                Value::Float(warm_stats.prefix_hit_rate() as f64),
            ),
            (
                "latency_p99_ns",
                Value::Float(warm_stats.latency.quantile(0.99) as f64),
            ),
            ("outputs_bit_identical", Value::Bool(true)),
        ]),
    );
    println!("wrote {}", path.display());

    // With LM4DB_TRACE=1 the timed() sections above were also recorded into
    // the registry; print the merged snapshot so the table and the trace
    // come from the same measurements.
    if obs::enabled() {
        println!("\n### Trace snapshot (LM4DB_TRACE=1)\n");
        println!("```\n{}```", obs::snapshot().to_text());
    }
}
