//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary regenerates one exhibit (Figure 1, Table 1, or one of the
//! experiments indexed in `DESIGN.md` §4) and prints a markdown table whose
//! rows are recorded in `EXPERIMENTS.md`. None of them reads the wall
//! clock: speed is measured by `benchmark/` (see `BENCHMARK.json`).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lm4db::tokenize::BOS;
use lm4db::transformer::ModelConfig;
use serde_json::Value;

/// The serving-size model Exp N and Exp O decode with (d=128, 4 heads,
/// 4 layers — the shape `benchmark/`'s serving workloads use too).
pub fn serving_config() -> ModelConfig {
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

/// Eight prompts sharing a 24-token instruction-style header with short
/// unique tails — the prompt shape the tutorial's applications have in
/// common.
pub fn shared_header_prompts() -> Vec<Vec<usize>> {
    let mut header = vec![BOS];
    header.extend((0..23).map(|i| 10 + (i * 7) % 500));
    (0..8)
        .map(|r| {
            let mut p = header.clone();
            p.extend([10 + (r * 31) % 500, 10 + (r * 17) % 500]);
            p
        })
        .collect()
}

/// Absolute path of `results/<name>` at the repository root, resolved from
/// this crate's manifest so the experiment binaries land their artifacts in
/// the same place no matter the working directory they run from.
pub fn results_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

/// Writes a machine-readable JSON result next to the experiment's text
/// table (`results/<name>`, pretty-printed, trailing newline) and returns
/// the path relative to the repository root — what a binary prints, so its
/// stdout is the same from any checkout.
pub fn write_results_json(name: &str, value: &Value) -> PathBuf {
    let path = results_path(name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    let mut json = serde_json::to_string_pretty(value).expect("serialize results");
    json.push('\n');
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    Path::new("results").join(name)
}

/// Builds a JSON object from key/value pairs (keys sort for deterministic
/// output — the `serde_json` shim keeps objects in `BTreeMap`s).
pub fn json_obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

/// Prints a markdown table with a header row.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        println!("| {} |", r.join(" | "));
    }
    println!();
}

/// Formats a float with 3 significant decimals.
pub fn f(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Human-readable large numbers (110M, 175B, ...).
pub fn human(n: u64) -> String {
    fn scaled(v: f64, suffix: &str) -> String {
        if v < 10.0 && v.fract() > 0.04 {
            format!("{v:.1}{suffix}")
        } else {
            format!("{v:.0}{suffix}")
        }
    }
    if n >= 1_000_000_000_000 {
        scaled(n as f64 / 1e12, "T")
    } else if n >= 1_000_000_000 {
        scaled(n as f64 / 1e9, "B")
    } else if n >= 1_000_000 {
        scaled(n as f64 / 1e6, "M")
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_readable_magnitudes() {
        assert_eq!(human(110_000_000), "110M");
        assert_eq!(human(175_000_000_000), "175B");
        assert_eq!(human(1_600_000_000_000), "1.6T");
        assert_eq!(human(512), "512");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.875), "87.5%");
    }
}
