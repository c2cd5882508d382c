//! **Exp N** (request tracing): what the flight recorder answers about one
//! request, on eight greedy requests that share a 24-token prompt header.
//!
//! One run is served at `LM4DB_TRACE=2` and exported as Chrome trace-event
//! JSON (`results/expN_trace.json`, loadable in Perfetto). The export is
//! validated in-process with the `serde_json` shim — well-formed,
//! non-empty, matched begin/end pairs per thread lane — and summarized as
//! a per-request table (queue wait, feed time, feed steps, end-to-end
//! latency) next to the p50/p95/p99 of the engine's `Stats` histograms.
//!
//! What tracing costs is a benchmark metric (`obs.trace_overhead_share`,
//! see `benchmark/README.md`); that it never changes the token stream is
//! pinned by `obs_mirror::tracing_does_not_change_engine_output` and the
//! golden serving suite at `LM4DB_TRACE` {0, 1, 2}.

use lm4db::obs;
use lm4db::serve::{Engine, EngineOptions, Request, Stats};
use lm4db::transformer::GptModel;
use lm4db_bench::{print_table, serving_config, shared_header_prompts, write_results_json};
use serde_json::Value;

const STOP: usize = usize::MAX; // never emitted: measure full budgets
const NEW_TOKENS: usize = 32;

/// Serves the workload on a fresh engine and returns its stats.
fn serve_run(model: &GptModel) -> Stats {
    let mut engine = Engine::with_options(
        model,
        EngineOptions {
            max_batch: 8,
            ..Default::default()
        },
    );
    let reqs = shared_header_prompts()
        .into_iter()
        .map(|p| Request::greedy(p, NEW_TOKENS, STOP))
        .collect();
    engine.generate_batch(reqs);
    engine.stats()
}

/// Validates the Chrome trace with the `serde_json` shim: parses, checks a
/// non-empty `traceEvents` array, and per-tid begin/end balance. Returns
/// (parsed root, event count).
fn validate_chrome(json: &str) -> (Value, usize) {
    let root = serde_json::parse_value(json).expect("trace must be valid JSON");
    let events = match root.get("traceEvents") {
        Some(Value::Array(a)) => a.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must be non-empty");
    let mut depth: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    for e in &events {
        let ph = match e.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("event missing ph: {other:?}"),
        };
        let tid = match e.get("tid") {
            Some(Value::Int(i)) => *i,
            other => panic!("event missing tid: {other:?}"),
        };
        match ph.as_str() {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "end without begin on tid {tid}");
            }
            _ => {}
        }
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "unbalanced begin/end on tid {tid}");
    }
    let n = events.len();
    (root, n)
}

fn main() {
    // Size the per-thread ring generously so the capture run below keeps
    // every event (kernel leaves fire many times per token); must be set
    // before the first event is recorded.
    if std::env::var_os("LM4DB_TRACE_BUF").is_none() {
        std::env::set_var("LM4DB_TRACE_BUF", "1048576");
    }
    let model = GptModel::new(serving_config(), 11);

    obs::set_level(2);
    obs::reset();
    obs::flight_reset();
    let stats = serve_run(&model);
    let trace = obs::flight_snapshot();
    obs::set_level(0);
    assert_eq!(trace.dropped(), 0, "ring wrapped; raise LM4DB_TRACE_BUF");
    let chrome = trace.to_chrome_json();
    let (root, event_count) = validate_chrome(&chrome);
    let trace_path = write_results_json("expN_trace.json", &root);

    // Per-request rows: queue wait and latency from the lifecycle instants,
    // feed time and feed-step count from the kv/feed_all intervals the
    // engine books per member request of each stacked forward (co-stacked
    // requests share the interval, so feed times overlap across rows).
    let breakdown = trace.breakdown();
    let mut rows = Vec::new();
    for id in trace.requests() {
        let evs = trace.request_events(id);
        let ts = |name: &str| evs.iter().find(|e| e.name == name).map(|e| e.ts_ns);
        let (Some(submit), Some(admit), Some(retire)) =
            (ts("serve/submit"), ts("serve/admit"), ts("serve/retire"))
        else {
            continue;
        };
        let phases = &breakdown[&Some(id)];
        let feed = phases.get("kv/feed_all").copied().unwrap_or_default();
        let (feed_ns, fed) = (feed.total_ns, feed.count);
        rows.push(vec![
            format!("{id}"),
            format!("{:.3}", (admit - submit) as f64 / 1e6),
            format!("{:.3}", feed_ns as f64 / 1e6),
            format!("{fed}"),
            format!("{:.3}", (retire - submit) as f64 / 1e6),
        ]);
    }
    assert_eq!(rows.len(), 8, "every request must have a full timeline");
    print_table(
        "Exp N — per-request breakdown from one traced run (LM4DB_TRACE=2)",
        &[
            "request",
            "queue wait (ms)",
            "feed (ms)",
            "feed steps",
            "latency (ms)",
        ],
        &rows,
    );
    let q = |h: &obs::Histogram, p: f64| format!("{:.3}ms", h.quantile(p) as f64 / 1e6);
    print_table(
        "Exp N — engine Stats latency quantiles",
        &["histogram", "p50", "p95", "p99"],
        &[
            vec![
                "queue_wait".into(),
                q(&stats.queue_wait, 0.50),
                q(&stats.queue_wait, 0.95),
                q(&stats.queue_wait, 0.99),
            ],
            vec![
                "latency".into(),
                q(&stats.latency, 0.50),
                q(&stats.latency, 0.95),
                q(&stats.latency, 0.99),
            ],
        ],
    );

    println!(
        "Chrome trace: {event_count} events, begin/end balanced, wrote {}",
        trace_path.display()
    );
}
