//! Integration coverage for the level-2 flight recorder (DESIGN.md §5e).
//!
//! Two angles:
//!
//! * an in-process serving run at `LM4DB_TRACE=2` must yield a timeline and
//!   Chrome trace in which every request's lifecycle (`serve/submit` →
//!   `serve/admit` → `serve/retire`) is visible, and
//! * a **panic post-mortem**: a subprocess with requests in flight is
//!   crashed on purpose; the panic hook must leave a parseable crash dump
//!   (`LM4DB_TRACE_DUMP`) containing the metrics registry and the in-flight
//!   request's events — while a subprocess whose injected faults are all
//!   caught at their sites leaves none.

use std::process::Command;

use lm4db::obs;
use lm4db::serve::{Engine, EngineOptions, Outcome, Request};
use lm4db::tokenize::BOS;
use lm4db::transformer::{GptModel, ModelConfig};
use serde_json::Value;

/// Child half of the post-mortem test. Inert unless the parent sets
/// `LM4DB_CRASH_CHILD=1`: it puts two requests in flight on a serving
/// engine and then panics mid-workload, so the dump must capture events
/// that carry those requests' ids.
#[test]
fn crash_dump_child() {
    if std::env::var("LM4DB_CRASH_CHILD").as_deref() != Ok("1") {
        return;
    }
    let model = GptModel::new(ModelConfig::test(), 7);
    let mut engine = Engine::new(&model);
    engine.submit(Request::greedy(vec![BOS, 10, 11], 8, usize::MAX));
    engine.submit(Request::greedy(vec![BOS, 20, 21], 8, usize::MAX));
    engine.step();
    panic!("induced crash with requests in flight");
}

#[test]
fn panic_produces_parseable_crash_dump() {
    let dump = std::env::temp_dir().join(format!("lm4db-crash-test-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let exe = std::env::current_exe().expect("current test binary");
    let out = Command::new(&exe)
        .args(["crash_dump_child", "--exact", "--nocapture"])
        .env("LM4DB_CRASH_CHILD", "1")
        .env("LM4DB_TRACE", "2")
        .env("LM4DB_TRACE_DUMP", &dump)
        .output()
        .expect("spawn child test");
    assert!(
        !out.status.success(),
        "child was supposed to panic:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let raw = std::fs::read_to_string(&dump).unwrap_or_else(|e| {
        panic!(
            "panic hook left no dump at {}: {e}\nchild stderr:\n{}",
            dump.display(),
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let _ = std::fs::remove_file(&dump);
    let root = serde_json::parse_value(&raw).expect("crash dump must be valid JSON");

    // The dump explains itself: the panic message, the metrics registry,
    // and the flight recorder's Chrome trace.
    match root.get("reason") {
        Some(Value::Str(r)) => assert!(r.contains("induced crash"), "reason was {r:?}"),
        other => panic!("dump missing reason: {other:?}"),
    }
    assert!(root.get("registry").is_some(), "dump missing registry");
    let events = match root.get("trace").and_then(|t| t.get("traceEvents")) {
        Some(Value::Array(a)) => a.clone(),
        other => panic!("dump missing trace events: {other:?}"),
    };
    assert!(!events.is_empty(), "crash trace must be non-empty");

    // Request ids in a fresh process start at 0; both in-flight requests
    // must have reached the trace, attributed by id.
    let req_of = |e: &Value| match e.get("args").and_then(|a| a.get("req")) {
        Some(Value::Int(i)) => Some(*i),
        Some(Value::UInt(u)) => Some(*u as i64),
        _ => None,
    };
    for want in [0i64, 1] {
        assert!(
            events.iter().any(|e| req_of(e) == Some(want)),
            "no event in the crash dump is attributed to request {want}"
        );
    }
    // And the lifecycle instants for the admitted requests are present.
    let names: Vec<String> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    for want in ["serve/submit", "serve/admit", "serve_step"] {
        assert!(
            names.iter().any(|n| n == want),
            "crash trace has no {want} event; names seen: {names:?}"
        );
    }
}

/// Child half of the no-dump test. Inert unless the parent sets
/// `LM4DB_FAULT_CHILD=1`: with faults armed from the environment and no
/// retries, the `serve/feed` gate and the pool catch injected panics and
/// fail their requests, each with the injector's own message as its reason.
#[test]
fn caught_fault_child() {
    if std::env::var("LM4DB_FAULT_CHILD").as_deref() != Ok("1") {
        return;
    }
    let model = GptModel::new(ModelConfig::test(), 7);
    let options = EngineOptions {
        max_retries: 0,
        ..Default::default()
    };
    let mut engine = Engine::with_options(&model, options);
    for i in 0..12 {
        engine.submit(Request::greedy(vec![BOS, 10 + i], 6, usize::MAX));
    }
    let mut failed = 0;
    for r in engine.run() {
        if let Outcome::Failed { reason } = r.outcome {
            let site = ["serve/feed", "pool/task"]
                .iter()
                .any(|site| reason.starts_with(&format!("injected fault at {site} (salt ")));
            assert!(site, "reason was {reason:?}");
            failed += 1;
        }
    }
    assert!(failed > 0, "no injected fault fired");
    println!("FAULT_CHILD_OK failed={failed}");
}

/// Faults that their sites catch are not crashes: a traced child
/// (`LM4DB_TRACE=2`, panic hook installed) with faults armed fails requests
/// on injected panics, exits cleanly, and writes no crash dump.
#[test]
fn caught_injected_faults_write_no_crash_dump() {
    let dump = std::env::temp_dir().join(format!("lm4db-no-crash-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let exe = std::env::current_exe().expect("current test binary");
    let out = Command::new(&exe)
        .args(["caught_fault_child", "--exact", "--nocapture"])
        .env("LM4DB_FAULT_CHILD", "1")
        .env("LM4DB_FAULTS", "3:0.3")
        .env("LM4DB_TRACE", "2")
        .env("LM4DB_TRACE_DUMP", &dump)
        .output()
        .expect("spawn child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("FAULT_CHILD_OK"),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let wrote = dump.exists();
    let _ = std::fs::remove_file(&dump);
    assert!(!wrote, "a caught injected fault wrote {}", dump.display());
}

/// An in-process serving run at level 2: the timeline and breakdown must
/// attribute work to every request the engine served.
#[test]
fn serve_run_yields_request_timeline() {
    let model = GptModel::new(ModelConfig::test(), 7);
    obs::set_level(2);
    obs::flight_reset();
    let mut engine = Engine::new(&model);
    let first = engine.submit(Request::greedy(vec![BOS, 10, 11], 4, usize::MAX));
    let second = engine.submit(Request::greedy(vec![BOS, 20, 21], 4, usize::MAX));
    while engine.step() {}
    let trace = obs::flight_snapshot();
    obs::set_level(0);

    assert_eq!(trace.requests(), vec![first, second]);
    let timeline = trace.to_timeline();
    for id in [first, second] {
        assert!(
            timeline.contains(&format!("i serve/submit req={id}")),
            "timeline missing submit for {id}:\n{timeline}"
        );
        assert!(
            timeline.contains(&format!("i serve/retire req={id}")),
            "timeline missing retire for {id}:\n{timeline}"
        );
        // The per-request breakdown attributes the KV feed work.
        let phases = &trace.breakdown()[&Some(id)];
        assert!(
            phases.contains_key("kv/feed_all"),
            "no feed phase for {id}: {phases:?}"
        );
    }
}
