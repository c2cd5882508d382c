//! `bench compare A.json B.json`: applies the bounds of `BENCHMARK.json`
//! to two sets of untraced runs, A the parent and B the change.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

use crate::spec::{self, Better};
use crate::stats::{quartiles, spread};
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound, and the sides
    /// overlap: the data cannot say.
    Unresolved,
}

/// Judges one metric on one workload. `bound` is the share of A's median
/// by which B's median may be worse.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    let scale = a2.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b2 - a2) / scale,
        Better::Higher => (a2 - b2) / scale,
    };
    let spread = (a3 - a1).max(b3 - b1) / scale;
    if spread > bound {
        // Too noisy for the bound, unless the sides do not even touch.
        let all_better = match better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread {
        // Better by more than the runs of either side differ among themselves.
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `workload → metric → one value per run` of a result file.
fn values(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(doc.get("trace"), Some(Value::Bool(false))) {
        return Err(format!("{path}: not a set of untraced runs"));
    }
    let Some(Value::Array(runs)) = doc.get("runs") else {
        return Err(format!("{path}: no `runs`"));
    };
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let Some(Value::Object(by_workload)) = run.get("workloads") else {
            return Err(format!("{path}: a run without `workloads`"));
        };
        for (workload, result) in by_workload {
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                return Err(format!("{path}: {workload} without `metrics`"));
            };
            for (metric, entry) in metrics {
                if let Some(Value::Float(v)) = entry.get("value") {
                    out.entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(*v);
                }
            }
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (files, options): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| !a.starts_with("--"));
    let fail_on_unresolved = options.iter().any(|o| *o == "--fail-on-unresolved");
    let [a_path, b_path] = files[..] else {
        return Err("usage: bench compare <a.json> <b.json> [--fail-on-unresolved]".into());
    };
    let (a, b) = (values(a_path)?, values(b_path)?);
    let spec = spec::load();

    println!(
        "{:<15} {:<19} {:>11} {:>11} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "A iqr", "B iqr", "bound"
    );
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for workload in workloads::NAMES {
        for m in &spec.end_to_end {
            let key = (workload.to_string(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{workload}/{} is missing from a set", m.name));
            };
            if xa.len() < 2 || xb.len() < 2 {
                return Err("each set needs at least two runs".into());
            }
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let v = verdict(xa, xb, m.better, bound);
            let ([_, a2, _], [_, b2, _]) = (quartiles(xa), quartiles(xb));
            let word = match v {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            };
            *counts.entry(word).or_default() += 1;
            println!(
                "{workload:<15} {:<19} {a2:>11.4} {b2:>11.4} {:>7.1}% {:>7.1}% {:>6.0}%  {word}",
                m.name,
                100.0 * spread(xa),
                100.0 * spread(xb),
                100.0 * bound,
            );
        }
    }
    println!("{counts:?}");
    let worse = counts.get("WORSE").copied().unwrap_or(0);
    let unresolved = counts.get("unresolved").copied().unwrap_or(0);
    Ok(if worse > 0 || (fail_on_unresolved && unresolved > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn a_median_worse_than_the_bound_is_worse_in_either_direction() {
        let slow = TIGHT_A.map(|x| x * 1.2);
        assert_eq!(verdict(&TIGHT_A, &slow, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&TIGHT_A, &slow, Better::Higher, 0.1),
            Verdict::Better
        );
        let fast = TIGHT_A.map(|x| x * 0.8);
        assert_eq!(
            verdict(&TIGHT_A, &fast, Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&TIGHT_A, &fast, Better::Lower, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn a_change_inside_the_bound_and_the_noise_is_same() {
        let b = TIGHT_A.map(|x| x * 1.004);
        assert_eq!(verdict(&TIGHT_A, &b, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(
            verdict(&TIGHT_A, &TIGHT_A, Better::Higher, 0.1),
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_apart() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &TIGHT_A, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&TIGHT_A, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: noise cannot explain that.
        let far = noisy.map(|x| x / 2.0);
        assert_eq!(verdict(&noisy, &far, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&noisy, &far, Better::Higher, 0.1),
            Verdict::Unresolved
        );
    }
}
