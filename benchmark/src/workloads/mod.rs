//! The five workloads. Names are part of the benchmark's contract.

pub mod app_query;
pub mod serve;
pub mod sql_mix;

use lm4db::sql::{ResultSet, Value};

use crate::report::{RunArgs, RunResult};
use crate::trace::Tracer;

pub const NAMES: [&str; 5] = [
    "serve_decode",
    "serve_prefix",
    "serve_mix_open",
    "app_query",
    "sql_mix",
];

/// Runs the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs, tracer: &mut Tracer) -> Option<RunResult> {
    Some(match name {
        "serve_decode" => serve::serve_decode(args, tracer).0,
        "serve_prefix" => serve::serve_prefix(args, tracer).0,
        "serve_mix_open" => serve::serve_mix_open(args, tracer),
        "app_query" => app_query::app_query(args, tracer),
        "sql_mix" => sql_mix::sql_mix(args, tracer),
        _ => return None,
    })
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A checksum of a result's row count and values. Rows add up, so row
/// order only counts when `ordered`; values within a row are positional.
pub fn fingerprint(rs: &ResultSet, ordered: bool) -> u64 {
    let mut sum = rs.rows.len() as u64;
    for (i, row) in rs.rows.iter().enumerate() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        if ordered {
            h = fnv(h, &(i as u64).to_le_bytes());
        }
        for v in row {
            h = match v {
                Value::Null => fnv(h, &[0]),
                Value::Int(x) => fnv(fnv(h, &[1]), &x.to_le_bytes()),
                Value::Float(x) => fnv(fnv(h, &[2]), &x.to_bits().to_le_bytes()),
                Value::Str(s) => fnv(fnv(h, &[3]), s.as_bytes()),
                Value::Bool(b) => fnv(h, &[4, u8::from(*b)]),
            };
        }
        sum = sum.wrapping_add(h);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    /// Every workload runs at smoke scale with correct outputs, reports
    /// every declared end-to-end metric untraced, and every per-layer
    /// metric it reports traced carries the unit `BENCHMARK.json` declares.
    #[test]
    fn every_workload_is_correct_at_smoke_scale_and_reports_the_declared_metrics() {
        lm4db::fault::disarm();
        let spec = spec::load();
        let mut layered = std::collections::BTreeSet::new();
        for name in NAMES {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 7,
                    seconds: 0.3,
                    trace,
                    smoke: true,
                };
                let result = run(name, &args, &mut Tracer::new()).expect("a known workload");
                assert!(result.correct && result.failed == 0, "{name} trace={trace}");
                assert!(result.attempted >= 1);
                let declared = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                for m in &result.metrics {
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                    if let Some(d) = declared.iter().find(|d| d.name == m.name) {
                        assert_eq!(d.unit, m.unit, "unit of {}", m.name);
                        layered.insert(m.name);
                    }
                }
                if !trace {
                    for d in declared {
                        let m = result.metrics.iter().find(|m| m.name == d.name);
                        assert!(m.is_some_and(|m| m.value > 0.0), "{name} lacks {}", d.name);
                    }
                }
            }
        }
        // What no workload reports must come from a probe or be derived.
        for d in &spec.per_layer {
            let from_probe = [
                "loadgen.gen_us",
                "transformer.",
                "tensor.",
                "tokenize.",
                "sql.",
            ];
            assert!(
                layered.contains(d.name.as_str())
                    || from_probe.iter().any(|p| d.name.starts_with(p))
                    || d.name == "serve.engine_vs_kv_ratio",
                "nothing measures {}",
                d.name
            );
        }
        assert!(run(
            "no_such_workload",
            &RunArgs {
                seed: 0,
                seconds: 0.0,
                trace: false,
                smoke: true
            },
            &mut Tracer::new()
        )
        .is_none());
    }
}
