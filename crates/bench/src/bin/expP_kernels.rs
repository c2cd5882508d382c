//! Exp P — kernel throughput: tiled register-blocked matmul vs the
//! pre-rewrite kernels, plus the int8 quantized decode path.
//!
//! The reference implementations below are the repo's *previous* hot
//! kernels, copied verbatim from `lm4db-tensor` before the DESIGN.md §5g
//! rewrite: a K-blocked ikj axpy loop for `matmul` and a scalar dot
//! product per output element for `matmul_bt`. Exp P asserts two things
//! about the rewrite, single-threaded:
//!
//! 1. **bit-exactness** — the tiled kernels reproduce the old kernels'
//!    output to the bit on every shape (same per-element accumulation
//!    order, so not a single ULP of drift), and
//! 2. **throughput** — geometric-mean speedup at transformer shapes is
//!    at least 2x (skipped under `LM4DB_SMOKE=1`, which runs tiny shapes
//!    as a correctness smoke for CI).
//!
//! A second section measures the int8 quantized decode path against f32
//! decode on the same serving-size model and checks that quantized
//! logits are bit-identical across thread counts (i32 accumulation is
//! exact, so quantization must not cost any determinism).
//!
//! Usage: `cargo run --release -p lm4db-bench --bin expP_kernels`
//! (optionally `LM4DB_SMOKE=1` for the CI smoke run).

use std::time::Instant;

use lm4db::tensor::{set_threads, Rand, Tensor};
use lm4db::transformer::{GptModel, KvCache, ModelConfig, QuantizedGpt};
use lm4db_bench::{json_obj, print_table, write_results_json};
use serde_json::Value;

/// The pre-rewrite `matmul` inner loop (K-blocked ikj axpy), verbatim.
fn ikj_matmul(a: &[f32], b: &[f32], _m: usize, k: usize, n: usize, out: &mut [f32]) {
    const K_BLOCK: usize = 64;
    for (i, o_row) in out.chunks_mut(n).enumerate() {
        let a_row = &a[i * k..][..k];
        for p0 in (0..k).step_by(K_BLOCK) {
            let p1 = (p0 + K_BLOCK).min(k);
            for (p, &a_ip) in a_row[p0..p1].iter().enumerate() {
                let b_row = &b[(p0 + p) * n..][..n];
                for (o, &b_pj) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ip * b_pj;
                }
            }
        }
    }
}

/// The pre-rewrite `matmul_bt` inner loop (scalar dot per element),
/// verbatim. `bt` is `[n][k]` row-major.
fn dot_matmul_bt(a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..][..k];
        for j in 0..n {
            let b_row = &bt[j * k..][..k];
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Best-of-`reps` seconds per call for `f` (each rep runs `iters` calls).
fn best_secs(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct ShapeResult {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
    tiled_gflops: f64,
    ikj_gflops: f64,
    bt_tiled_gflops: f64,
    bt_dot_gflops: f64,
}

fn bench_shape(
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
    rng: &mut Rand,
    perf: bool,
) -> ShapeResult {
    let a = Tensor::new(vec![m, k], rng.uniform_vec(m * k));
    let b = Tensor::new(vec![k, n], rng.uniform_vec(k * n));
    let bt = b.transpose(0, 1);

    // Bit-exactness against the old kernels, always (smoke included).
    let got_nn = a.matmul(&b);
    let mut want_nn = vec![0.0f32; m * n];
    ikj_matmul(a.data(), b.data(), m, k, n, &mut want_nn);
    assert_eq!(
        got_nn.data(),
        &want_nn[..],
        "{label}: tiled matmul != old ikj kernel"
    );
    let got_bt = a.matmul_bt(&bt);
    let mut want_bt = vec![0.0f32; m * n];
    dot_matmul_bt(a.data(), bt.data(), m, k, n, &mut want_bt);
    assert_eq!(
        got_bt.data(),
        &want_bt[..],
        "{label}: tiled matmul_bt != old dot kernel"
    );

    if !perf {
        return ShapeResult {
            label,
            m,
            k,
            n,
            tiled_gflops: 0.0,
            ikj_gflops: 0.0,
            bt_tiled_gflops: 0.0,
            bt_dot_gflops: 0.0,
        };
    }

    let flops = 2.0 * (m * k * n) as f64;
    let iters = ((400_000_000.0 / flops) as usize).clamp(3, 20_000);
    let reps = 5;
    let tiled = best_secs(reps, iters, || {
        std::hint::black_box(std::hint::black_box(&a).matmul(&b));
    });
    let ikj = best_secs(reps, iters, || {
        let mut out = vec![0.0f32; m * n];
        ikj_matmul(std::hint::black_box(a.data()), b.data(), m, k, n, &mut out);
        std::hint::black_box(out);
    });
    let bt_tiled = best_secs(reps, iters, || {
        std::hint::black_box(std::hint::black_box(&a).matmul_bt(&bt));
    });
    let bt_dot = best_secs(reps, iters, || {
        let mut out = vec![0.0f32; m * n];
        dot_matmul_bt(std::hint::black_box(a.data()), bt.data(), m, k, n, &mut out);
        std::hint::black_box(out);
    });
    ShapeResult {
        label,
        m,
        k,
        n,
        tiled_gflops: flops / tiled / 1e9,
        ikj_gflops: flops / ikj / 1e9,
        bt_tiled_gflops: flops / bt_tiled / 1e9,
        bt_dot_gflops: flops / bt_dot / 1e9,
    }
}

/// Serving-size config shared with Exp K/L (d=128, 4 heads, 4 layers).
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

/// Greedy-decodes `new_tokens` after feeding `prompt`; returns tokens/sec
/// and the final logits (for bitwise comparisons).
fn decode_tps(
    m: &GptModel,
    quant: Option<&QuantizedGpt>,
    prompt: &[usize],
    new_tokens: usize,
) -> (f64, Vec<f32>) {
    let t0 = Instant::now();
    let mut cache = KvCache::new(m);
    let mut logits = cache.feed_all_with(m, quant, prompt).to_vec();
    for _ in 0..new_tokens {
        let tok = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        logits = match quant {
            Some(q) => cache.feed_quant(m, q, tok).to_vec(),
            None => cache.feed(m, tok).to_vec(),
        };
    }
    let secs = t0.elapsed().as_secs_f64();
    ((prompt.len() + new_tokens) as f64 / secs, logits)
}

fn main() {
    let smoke = std::env::var("LM4DB_SMOKE").is_ok();
    set_threads(1);
    let mut rng = Rand::seeded(42);

    let shapes: &[(&'static str, usize, usize, usize)] = if smoke {
        &[
            ("smoke 5x7x9", 5, 7, 9),
            ("smoke 4x33x16", 4, 33, 16),
            ("smoke 13x8x5", 13, 8, 5),
        ]
    } else {
        // The three matmul shapes of one serving-size transformer block
        // (d=128, d_ff=512) prefilling a 64-token window, plus the square
        // shape as a classic GEMM reference point.
        &[
            ("qkv / ffn-up prefill", 64, 128, 512),
            ("ffn-down prefill", 64, 512, 128),
            ("square 128", 128, 128, 128),
        ]
    };

    let results: Vec<ShapeResult> = shapes
        .iter()
        .map(|&(label, m, k, n)| bench_shape(label, m, k, n, &mut rng, !smoke))
        .collect();

    let mut rows = Vec::new();
    let mut geomean_log = 0.0f64;
    for r in &results {
        let speedup = if smoke {
            1.0
        } else {
            r.tiled_gflops / r.ikj_gflops
        };
        let bt_speedup = if smoke {
            1.0
        } else {
            r.bt_tiled_gflops / r.bt_dot_gflops
        };
        geomean_log += speedup.ln();
        rows.push(vec![
            format!("{} ({}x{}x{})", r.label, r.m, r.k, r.n),
            format!("{:.1}", r.tiled_gflops),
            format!("{:.1}", r.ikj_gflops),
            format!("{speedup:.2}x"),
            format!("{:.1}", r.bt_tiled_gflops),
            format!("{:.1}", r.bt_dot_gflops),
            format!("{bt_speedup:.2}x"),
        ]);
    }
    let geomean = (geomean_log / results.len() as f64).exp();
    print_table(
        "Exp P — single-thread matmul kernels, tiled vs pre-rewrite",
        &[
            "shape",
            "tiled GF/s",
            "ikj GF/s",
            "speedup",
            "bt tiled GF/s",
            "bt dot GF/s",
            "bt speedup",
        ],
        &rows,
    );
    println!("bit-exactness: tiled kernels match the old kernels on every shape");
    if smoke {
        println!("smoke mode: perf assertions skipped");
    } else {
        println!("geometric-mean matmul speedup: {geomean:.2}x");
        assert!(
            geomean >= 2.0,
            "tiled matmul geomean speedup {geomean:.2}x is below the 2x bar"
        );
    }

    // --- int8 quantized decode vs f32 decode -----------------------------
    let model = GptModel::new(cfg(), 11);
    let quant = QuantizedGpt::from_model(&model);
    let prompt: Vec<usize> = (0..32).map(|i| 1 + (i * 7) % 500).collect();
    let new_tokens = if smoke { 4 } else { 64 };

    let (_, _) = decode_tps(&model, None, &prompt, 1); // warm both paths
    let (_, _) = decode_tps(&model, Some(&quant), &prompt, 1);
    let (f32_tps, _) = decode_tps(&model, None, &prompt, new_tokens);
    let (q8_tps, q8_logits) = decode_tps(&model, Some(&quant), &prompt, new_tokens);

    // Thread-count determinism: i32 accumulation is exact, so the
    // quantized logits must be bit-identical at any thread count.
    set_threads(4);
    let (_, q8_logits_mt) = decode_tps(&model, Some(&quant), &prompt, new_tokens);
    set_threads(1);
    assert_eq!(
        q8_logits, q8_logits_mt,
        "quantized logits depend on thread count"
    );

    let f32_bytes = 4 * model.num_params();
    let q8_bytes = quant.weight_bytes();
    print_table(
        "Exp P — int8 quantized decode (single thread)",
        &["path", "tok/s", "projection weight bytes"],
        &[
            vec![
                "f32".into(),
                format!("{f32_tps:.0}"),
                format!("{f32_bytes}"),
            ],
            vec!["int8".into(), format!("{q8_tps:.0}"), format!("{q8_bytes}")],
        ],
    );
    println!(
        "quantized decode: {:.2}x tok/s, logits bit-identical across thread counts",
        q8_tps / f32_tps
    );

    let shape_values: Vec<Value> = results
        .iter()
        .map(|r| {
            json_obj(vec![
                ("label", Value::Str(r.label.into())),
                ("m", Value::Int(r.m as i64)),
                ("k", Value::Int(r.k as i64)),
                ("n", Value::Int(r.n as i64)),
                ("tiled_gflops", Value::Float(r.tiled_gflops)),
                ("ikj_gflops", Value::Float(r.ikj_gflops)),
                ("bt_tiled_gflops", Value::Float(r.bt_tiled_gflops)),
                ("bt_dot_gflops", Value::Float(r.bt_dot_gflops)),
            ])
        })
        .collect();
    let path = write_results_json(
        "expP_kernels.json",
        &json_obj(vec![
            ("experiment", Value::Str("expP_kernels".into())),
            ("smoke", Value::Bool(smoke)),
            ("shapes", Value::Array(shape_values)),
            ("matmul_geomean_speedup", Value::Float(geomean)),
            ("bit_exact_vs_old_kernels", Value::Bool(true)),
            ("decode_f32_tokens_per_sec", Value::Float(f32_tps)),
            ("decode_int8_tokens_per_sec", Value::Float(q8_tps)),
            ("decode_int8_speedup", Value::Float(q8_tps / f32_tps)),
            ("f32_weight_bytes", Value::Int(f32_bytes as i64)),
            ("int8_weight_bytes", Value::Int(q8_bytes as i64)),
            ("int8_logits_thread_invariant", Value::Bool(true)),
        ]),
    );
    println!("wrote {}", path.display());
}
