//! The lm4db benchmark: five workloads over the whole stack, measured from
//! outside the program. See `benchmark/README.md`.
//!
//! ```text
//! bench one --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! bench run [--seed n] [--seconds s] [--trace] [--smoke] [--repeat k] [--out file]
//! bench compare <a.json> <b.json> [--fail-on-unresolved]
//! ```

mod alloc;
mod compare;
mod open;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod window;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use report::{metric, metrics_json, object, Metric, RunArgs};
use spec::Declared;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where traces and results go: beside the sources, in a directory git
/// ignores. The binary is built in the checkout it runs in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--key value` pairs; a key without a value reads as `1`.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{arg}`"))?;
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
            _ => "1".to_string(),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match (flags.get(key), default) {
        (Some(v), _) => v
            .parse()
            .map_err(|_| format!("--{key} {v}: not a valid value")),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("--{key} is required")),
    }
}

/// Facts about the host that a number depends on.
fn host_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx = is_x86_feature_detected!("avx");
    #[cfg(not(target_arch = "x86_64"))]
    let avx = false;
    object(vec![
        ("nproc", Value::Int(nproc as i64)),
        ("pool_threads", Value::Int(lm4db::tensor::threads() as i64)),
        ("avx", Value::Bool(avx)),
    ])
}

/// Takes the run out of the ambient `LM4DB_*` environment and pins the
/// pool. One driver thread plus `pool_threads − 1` workers never exceed
/// the cores.
fn neutralise_environment() {
    lm4db::fault::disarm();
    lm4db::obs::set_level(0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    lm4db::tensor::set_threads(nproc.min(4));
}

/// `metrics` of the contract's line: exactly the declared metrics. A layer
/// metric the workload has no use for reads 0.
fn declared_json(declared: &[Declared], measured: &[Metric]) -> Value {
    Value::Object(
        declared
            .iter()
            .map(|d| {
                let value = measured.iter().find(|m| m.name == d.name).map_or(0.0, |m| {
                    assert_eq!(
                        m.unit, d.unit,
                        "unit of {} differs from BENCHMARK.json",
                        d.name
                    );
                    m.value
                });
                let entry = object(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(d.unit.clone())),
                ]);
                (d.name.clone(), entry)
            })
            .collect(),
    )
}

/// One run of one workload: the contract of `BENCHMARK.json`.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let name: String = parsed(&flags, "workload", None)?;
    let run = RunArgs {
        seed: parsed(&flags, "seed", None)?,
        seconds: parsed(&flags, "seconds", None)?,
        trace: parsed::<u8>(&flags, "trace", Some(0))? != 0,
        smoke: parsed::<u8>(&flags, "smoke", Some(0))? != 0,
    };
    if !(run.seconds >= 0.0 && run.seconds <= 600.0) {
        return Err(format!("--seconds {}: out of range", run.seconds));
    }
    neutralise_environment();
    let spec = spec::load();
    let mut tracer = trace::Tracer::new();
    let mut result = workloads::run(&name, &run, &mut tracer)
        .ok_or_else(|| format!("unknown workload `{name}`; one of {:?}", workloads::NAMES))?;

    if run.trace {
        result.metrics.extend(probes::run(run.seed));
        derived(&mut result.metrics);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let spans = dir.join(format!("trace_{name}.json"));
        tracer
            .write_json(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        // The program's own timers, as an artifact: their names are not
        // benchmark metrics and later changes may move them.
        let obs = dir.join(format!("obs_{name}.txt"));
        std::fs::write(&obs, lm4db::obs::snapshot().to_text())
            .map_err(|e| format!("{}: {e}", obs.display()))?;
        for (span, t) in tracer.totals() {
            eprintln!(
                "span {span:<40} calls {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for m in &result.metrics {
        eprintln!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(hwm) = alloc::vm_hwm_mb() {
        eprintln!(
            "{:<36} {:>16.4} MB (beside peak_mem_mb, not gated)",
            "VmHWM", hwm
        );
    }

    let declared = if run.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let line = |metrics: Value| {
        serde_json::to_string(&object(vec![
            ("correct", Value::Bool(result.correct)),
            ("attempted", Value::Int(result.attempted as i64)),
            ("failed", Value::Int(result.failed as i64)),
            ("metrics", metrics),
        ]))
        .expect("a value tree serialises")
    };
    // Everything measured, for `bench run`; then the contract's line, with
    // exactly the declared metrics, last.
    println!("{}", line(metrics_json(&result.metrics)));
    println!("{}", line(declared_json(declared, &result.metrics)));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Metrics that combine a workload's numbers with a probe's.
fn derived(metrics: &mut Vec<Metric>) {
    let get = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    let mut extra = Vec::new();
    if let (Some(decode), Some(gemm)) = (
        get("transformer.decode_gflops"),
        get("tensor.matmul_gflops"),
    ) {
        extra.push(metric("tensor.decode_vs_gemm_peak", decode / gemm, "ratio"));
    }
    if let (Some(engine), Some(kv)) = (get("serve.model_tok_s"), get("transformer.decode_tok_s")) {
        let threads = lm4db::tensor::threads() as f64;
        extra.push(metric(
            "serve.engine_vs_kv_ratio",
            engine / (threads * kv),
            "ratio",
        ));
    }
    metrics.extend(extra);
}

/// Runs every workload, each in a process of its own, `--repeat` times,
/// prints every metric and writes one result file.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let spec = spec::load();
    let seed: u64 = parsed(&flags, "seed", Some(1))?;
    let seconds: f64 = parsed(&flags, "seconds", Some(spec.run_seconds))?;
    let trace = parsed::<u8>(&flags, "trace", Some(0))? != 0;
    let smoke = parsed::<u8>(&flags, "smoke", Some(0))? != 0;
    let repeat: u64 = parsed(&flags, "repeat", Some(1))?;
    let out: PathBuf = parsed(&flags, "out", Some(out_dir().join("result.json")))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut all_correct = true;
    let mut runs = Vec::new();
    for rep in 0..repeat {
        let seed = seed + rep;
        let mut by_workload = BTreeMap::new();
        for name in workloads::NAMES {
            let child = Command::new(&exe)
                .arg("one")
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--smoke", if smoke { "1" } else { "0" }])
                .stdin(Stdio::null())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            // Second to last line: everything the run measured.
            let full = stdout
                .lines()
                .rev()
                .nth(1)
                .and_then(|l| serde_json::parse_value(l).ok());
            let Some(full) = full else {
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                return Err(format!(
                    "{name} (seed {seed}) printed no result: {}",
                    child.status
                ));
            };
            let correct = matches!(full.get("correct"), Some(Value::Bool(true)));
            if !correct {
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                all_correct = false;
            }
            println!(
                "## {name}  seed {seed}  {}",
                if correct {
                    "outputs correct"
                } else {
                    "OUTPUTS WRONG"
                }
            );
            if let Some(Value::Object(metrics)) = full.get("metrics") {
                for (metric, entry) in metrics {
                    if let (Some(Value::Float(v)), Some(Value::Str(u))) =
                        (entry.get("value"), entry.get("unit"))
                    {
                        println!("  {metric:<36} {v:>16.4} {u}");
                    }
                }
            }
            by_workload.insert(name.to_string(), full);
        }
        runs.push(object(vec![
            ("seed", Value::Int(seed as i64)),
            ("workloads", Value::Object(by_workload)),
        ]));
    }
    let text = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    neutralise_environment();
    let doc = object(vec![
        ("host", host_facts()),
        ("rustc", Value::Str(text("rustc", &["--version"]))),
        ("commit", Value::Str(text("git", &["rev-parse", "HEAD"]))),
        ("seconds", Value::Float(seconds)),
        ("trace", Value::Bool(trace)),
        ("smoke", Value::Bool(smoke)),
        ("runs", Value::Array(runs)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let pretty = serde_json::to_string_pretty(&doc).expect("a value tree serialises");
    std::fs::write(&out, pretty + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("one") => one(&args[1..]),
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => Err("usage: bench one|run|compare ... (see benchmark/README.md)".to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("bench: {message}");
        ExitCode::from(2)
    })
}
