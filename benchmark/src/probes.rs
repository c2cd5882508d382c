//! Layer probes: direct calls into the public API of the layers below the
//! workloads, on the shapes the workloads use. Every traced run makes all
//! of them, so every run reports every layer, and a change to a kernel or
//! to the KV cache shows here before it shows (or fails to show) end to
//! end. Each probe repeats its measurement and reports the median.

use std::hint::black_box;
use std::time::Instant;

use lm4db::loadgen::Rng;
use lm4db::sql;
use lm4db::tensor::{kernels, parallel_for, quantize_activation, QuantizedMatrix, Rand, Tensor};
use lm4db::tokenize::{Bpe, Tokenizer};
use lm4db::transformer::{GptModel, KvCache, ModelConfig, QuantizedGpt};

use crate::alloc;
use crate::report::{metric, Metric};
use crate::stats::{median, percentile};
use crate::workloads::app_query::parser_config;
use crate::workloads::serve::{self, serving_config, serving_model};
use crate::workloads::sql_mix::{self, Class};

const REPS: usize = 7;

/// Median over `REPS` of the seconds one call of `f` takes.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Multiply-accumulates of one decoded token at context `ctx`, and the
/// weights they read — computed from the configuration, not measured.
fn decode_cost(cfg: &ModelConfig, ctx: usize) -> (f64, f64) {
    let (d, ff) = (cfg.d_model, cfg.d_ff);
    let weights = cfg.n_layers * (4 * d * d + 2 * d * ff) + d * cfg.vocab_size;
    let attention = cfg.n_layers * 2 * ctx * d;
    (2.0 * (weights + attention) as f64, 4.0 * weights as f64)
}

fn transformer(seed: u64, out: &mut Vec<Metric>) {
    const CONTEXT: usize = 8;
    const DECODED: usize = 48;
    let model = serving_model();
    let mut rng = Rng::derive(seed, &[6]);
    let span = (serving_config().vocab_size - 4) as u64;
    let tokens: Vec<usize> = (0..60).map(|_| 4 + rng.below(span) as usize).collect();
    let (prompt, rest) = tokens.split_at(CONTEXT);
    let rest = &rest[..DECODED];

    // One token at a time through the KV cache, context 8 → 56.
    let mut warm = KvCache::new(&model);
    warm.feed_all(&model, prompt);
    let decode_s = median_secs(|| {
        let mut cache = warm.clone();
        for &t in rest {
            black_box(cache.feed(&model, t));
        }
    });
    let decode_tok_s = DECODED as f64 / decode_s;

    let prefill_s = median_secs(|| {
        black_box(KvCache::new(&model).feed_all(&model, &tokens));
    });

    // Four tokens per call: the shape of a speculative verify.
    let many_s = median_secs(|| {
        let mut cache = warm.clone();
        for chunk in rest.chunks(4) {
            black_box(cache.feed_many(&model, chunk));
        }
    });

    let quant = QuantizedGpt::from_model(&model);
    let int8_s = median_secs(|| {
        let mut cache = warm.clone();
        for &t in rest {
            black_box(cache.feed_quant(&model, &quant, t));
        }
    });

    let (flops, bytes) = decode_cost(&serving_config(), CONTEXT + DECODED / 2);
    out.extend([
        metric("transformer.decode_tok_s", decode_tok_s, "tok/s"),
        metric(
            "transformer.prefill_tok_s",
            tokens.len() as f64 / prefill_s,
            "tok/s",
        ),
        metric(
            "transformer.feed_many_tok_s",
            DECODED as f64 / many_s,
            "tok/s",
        ),
        metric(
            "transformer.decode_int8_tok_s",
            DECODED as f64 / int8_s,
            "tok/s",
        ),
        metric(
            "transformer.decode_gflops",
            flops * decode_tok_s / 1e9,
            "GF/s",
        ),
        metric("transformer.weight_mb_per_token", bytes / 1e6, "MB"),
    ]);

    // One optimizer step of the `app_query` parser's shape: what its
    // set-up time is made of.
    let cfg = ModelConfig {
        vocab_size: 512,
        ..parser_config()
    };
    let mut student = GptModel::new(cfg, 5);
    let mut opt = student.optimizer(3e-3);
    let batch: Vec<Vec<usize>> = (0..8)
        .map(|_| (0..40).map(|_| 4 + rng.below(span) as usize).collect())
        .collect();
    student.train_step(&batch, &mut opt);
    let step_s = median_secs(|| {
        black_box(student.train_step(&batch, &mut opt));
    });
    out.push(metric("transformer.train_step_ms", step_s * 1e3, "ms"));
}

fn tensor(out: &mut Vec<Metric>) {
    // The qkv / ffn-up shape of the serving model prefilling 64 tokens,
    // and the same weight met by one decoded token.
    const M: usize = 64;
    const K: usize = 128;
    const N: usize = 512;
    const CALLS: usize = 40;
    let mut rng = Rand::seeded(42);
    let a = Tensor::new(vec![M, K], rng.uniform_vec(M * K));
    let b = Tensor::new(vec![K, N], rng.uniform_vec(K * N));
    let bt = b.transpose(0, 1);
    let gflops = |flops: usize, calls: usize, secs: f64| (flops * calls) as f64 / secs / 1e9;

    let nn = median_secs(|| {
        for _ in 0..CALLS {
            black_box(a.matmul(&b));
        }
    });
    let nt = median_secs(|| {
        for _ in 0..CALLS {
            black_box(a.matmul_bt(&bt));
        }
    });
    let x = &a.data()[..K];
    let mut y = vec![0.0f32; N];
    let vec_calls = CALLS * 16;
    let mv = median_secs(|| {
        for _ in 0..vec_calls {
            kernels::vec_matmul_block(black_box(x), b.data(), N, 0, &mut y);
        }
        black_box(&y);
    });
    let q = QuantizedMatrix::from_weight(b.data(), K, N);
    let (qx, sx, zx) = quantize_activation(x);
    let bias = vec![0.0f32; N];
    let qmv = median_secs(|| {
        for _ in 0..vec_calls {
            black_box(q.matvec(black_box(&qx), sx, zx, &bias));
        }
    });
    let dispatch = median_secs(|| {
        for _ in 0..vec_calls {
            parallel_for(64, 1, |r| {
                black_box(r);
            });
        }
    });
    out.extend([
        metric(
            "tensor.matmul_gflops",
            gflops(2 * M * K * N, CALLS, nn),
            "GF/s",
        ),
        metric(
            "tensor.matmul_bt_gflops",
            gflops(2 * M * K * N, CALLS, nt),
            "GF/s",
        ),
        metric(
            "tensor.matvec_gflops",
            gflops(2 * K * N, vec_calls, mv),
            "GF/s",
        ),
        metric(
            "tensor.qmatvec_gops",
            gflops(2 * K * N, vec_calls, qmv),
            "Gop/s",
        ),
        metric(
            "tensor.pool_dispatch_us",
            dispatch / vec_calls as f64 * 1e6,
            "us",
        ),
    ]);
}

fn sql_and_tokenize(seed: u64, out: &mut Vec<Metric>) {
    let mix = sql_mix::build(seed, false);
    let mut parse_us = Vec::new();
    let mut exec_ms: Vec<(Class, f64)> = Vec::new();
    let mut point_allocs = (0usize, 0usize);
    for q in &mix.queries[..2 * sql_mix::ROUND_OPS] {
        let t = Instant::now();
        let parsed = sql::parse(&q.text).expect("generated SQL parses");
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let before = alloc::allocs();
        let t = Instant::now();
        black_box(sql::execute(&parsed, &mix.catalog).expect("generated SQL runs"));
        exec_ms.push((q.class, t.elapsed().as_secs_f64() * 1e3));
        if q.class == Class::Point {
            point_allocs = (
                point_allocs.0 + alloc::allocs() - before,
                point_allocs.1 + 1,
            );
        }
    }
    let p50 = |class: Class| {
        let of_class: Vec<f64> = exec_ms
            .iter()
            .filter(|e| e.0 == class)
            .map(|e| e.1)
            .collect();
        percentile(&of_class, 0.50)
    };
    let join_ms = p50(Class::Join);
    out.extend([
        metric("sql.parse_us", percentile(&parse_us, 0.50), "us"),
        metric("sql.exec_ms_point", p50(Class::Point), "ms"),
        metric("sql.exec_ms_scan", p50(Class::Scan), "ms"),
        metric("sql.exec_ms_agg", p50(Class::Agg), "ms"),
        metric("sql.exec_ms_sort", p50(Class::Sort), "ms"),
        metric("sql.exec_ms_join", join_ms, "ms"),
        metric(
            "sql.join_pairs_per_s",
            mix.join_pairs as f64 / (join_ms / 1e3),
            "1/s",
        ),
        metric(
            "sql.allocs_per_point_query",
            point_allocs.0 as f64 / point_allocs.1 as f64,
            "count",
        ),
    ]);

    // The tokenizer on the text the applications feed it: SQL.
    let texts: Vec<String> = mix.queries.iter().map(|q| q.text.to_lowercase()).collect();
    let bpe = Bpe::train(texts.iter().map(String::as_str), 400);
    let secs = median_secs(|| {
        for t in &texts {
            black_box(bpe.encode(t));
        }
    });
    out.push(metric(
        "tokenize.encode_us",
        secs / texts.len() as f64 * 1e6,
        "us",
    ));
}

fn loadgen(seed: u64, out: &mut Vec<Metric>) {
    let gen = serve::mix_generator(seed, 200);
    let mut arrivals = 0usize;
    let secs = median_secs(|| {
        arrivals = 0;
        for tick in 0..200 {
            for a in gen.arrivals_at(tick) {
                black_box(a.to_request());
                arrivals += 1;
            }
        }
    });
    out.push(metric(
        "loadgen.gen_us",
        secs / arrivals.max(1) as f64 * 1e6,
        "us",
    ));
}

/// All probes, in layer order from the top.
pub fn run(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    loadgen(seed, &mut out);
    transformer(seed, &mut out);
    tensor(&mut out);
    sql_and_tokenize(seed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn probes_report_declared_metrics_with_declared_units() {
        lm4db::fault::disarm();
        let spec = spec::load();
        let measured = run(3);
        for m in &measured {
            let d = spec.per_layer.iter().find(|d| d.name == m.name);
            let d = d.unwrap_or_else(|| panic!("{} is not in BENCHMARK.json", m.name));
            assert_eq!(d.unit, m.unit, "unit of {}", m.name);
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
}
