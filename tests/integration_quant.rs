//! Golden determinism suite for the int8 quantized decode path.
//!
//! The quantized path intentionally produces different logits than f32 —
//! it gets its own golden set (`tests/golden/quant_greedy.txt`) next to
//! the f32 one, pinned with the same bless workflow:
//! `LM4DB_BLESS=1 cargo test -p lm4db --test integration_quant`.
//!
//! Covered invariants:
//! * quantized greedy decode matches its golden byte for byte,
//! * a subprocess matrix asserts the quantized fingerprint is identical
//!   across `LM4DB_THREADS` ∈ {1, 4} — i32 accumulation is exact, so
//!   quantization must not cost any determinism.
//!
//! The serving engine decodes f32 only; this path is reached through
//! [`KvCache::feed_quant`].

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use lm4db::fault::fnv64;
use lm4db::tokenize::{BOS, EOS};
use lm4db::transformer::{GptModel, KvCache, ModelConfig, QuantizedGpt};

/// Same fixed-seed trained model as the f32 golden suite.
fn golden_model() -> GptModel {
    let mut m = GptModel::new(ModelConfig::test(), 7);
    let mut opt = m.optimizer(3e-3);
    let batch = vec![
        vec![BOS, 10, 11, 12, 13, 14, EOS],
        vec![BOS, 20, 21, 22, 23, 24, EOS],
    ];
    for _ in 0..30 {
        m.train_step(&batch, &mut opt);
    }
    m
}

fn prompts() -> Vec<Vec<usize>> {
    vec![
        vec![BOS, 10],
        vec![BOS, 10, 11],
        vec![BOS, 10, 11, 12],
        vec![BOS, 10, 11, 12, 13],
        vec![BOS, 20],
        vec![BOS, 20, 21],
        vec![BOS, 20, 21, 22],
        vec![BOS, 20, 21, 22, 23],
    ]
}

const MAX_NEW: usize = 6;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_or_bless(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("LM4DB_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} (bless with LM4DB_BLESS=1): {e}"));
    assert_eq!(
        got, want,
        "output diverged from golden {name}; bless with LM4DB_BLESS=1 if intentional"
    );
}

fn render_greedy(outputs: &[Vec<usize>]) -> String {
    let mut s = String::new();
    for (i, out) in outputs.iter().enumerate() {
        write!(s, "p{i}:").unwrap();
        for t in out {
            write!(s, " {t}").unwrap();
        }
        s.push('\n');
    }
    s
}

/// Greedy decode through the quantized KV path directly (no engine).
fn quant_greedy_direct(m: &GptModel, q: &QuantizedGpt, prefix: &[usize]) -> Vec<usize> {
    let mut cache = KvCache::new(m);
    let mut logits = cache.feed_all_with(m, Some(q), prefix).to_vec();
    let mut out = Vec::new();
    for _ in 0..MAX_NEW {
        let tok = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        if tok == EOS || cache.len() >= m.config().max_seq_len {
            break;
        }
        out.push(tok);
        logits = cache.feed_quant(m, q, tok).to_vec();
    }
    out
}

#[test]
fn quant_greedy_golden_direct_path() {
    let m = golden_model();
    let q = QuantizedGpt::from_model(&m);
    let outs: Vec<Vec<usize>> = prompts()
        .iter()
        .map(|p| quant_greedy_direct(&m, &q, p))
        .collect();
    check_or_bless("quant_greedy.txt", &render_greedy(&outs));
}

#[test]
fn quant_decode_stays_close_to_f32_decode() {
    // The accuracy contract at golden scale: on a sharply trained pattern
    // the quantized greedy output must match f32 greedy on most prompts
    // (Exp C pins the task-level exact-match delta at ≤ 2 points).
    let m = golden_model();
    let q = QuantizedGpt::from_model(&m);
    let ps = prompts();
    let agree = ps
        .iter()
        .filter(|p| {
            let f32_out = lm4db::transformer::greedy_cached(&m, p, MAX_NEW, EOS);
            quant_greedy_direct(&m, &q, p) == f32_out
        })
        .count();
    assert!(
        agree * 4 >= ps.len() * 3,
        "quantized greedy agrees with f32 on only {agree}/{} prompts",
        ps.len()
    );
}

/// Child of the thread matrix below: checks direct quantized decode
/// against the golden under whatever `LM4DB_THREADS` the parent set and
/// prints a fingerprint of the rendered output.
#[test]
fn quant_golden_child_fingerprint() {
    let m = golden_model();
    let q = QuantizedGpt::from_model(&m);
    let outs: Vec<Vec<usize>> = prompts()
        .iter()
        .map(|p| quant_greedy_direct(&m, &q, p))
        .collect();
    let g = render_greedy(&outs);
    check_or_bless("quant_greedy.txt", &g);
    println!("QUANT_GOLDEN_FP={:016x}", fnv64(&g));
}

#[test]
fn quant_golden_stable_across_thread_counts() {
    if std::env::var("LM4DB_BLESS").is_ok() {
        return; // goldens are being rewritten; nothing stable to compare
    }
    let exe = std::env::current_exe().expect("current test binary");
    let mut fps = Vec::new();
    for threads in ["1", "4"] {
        let out = Command::new(&exe)
            .args(["quant_golden_child_fingerprint", "--exact", "--nocapture"])
            .env("LM4DB_THREADS", threads)
            .env_remove("LM4DB_FAULTS")
            .output()
            .expect("spawn child test");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "child failed with {threads} threads:\n{stdout}"
        );
        let fp = stdout
            .split("QUANT_GOLDEN_FP=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"))
            .to_string();
        fps.push((threads, fp));
    }
    assert_eq!(
        fps[0].1, fps[1].1,
        "quantized decode depends on thread count: {fps:?}"
    );
}
