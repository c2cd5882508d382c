//! Exported Chrome traces must round-trip through the workspace
//! `serde_json` shim: valid JSON, a non-empty `traceEvents` array, and
//! matched begin/end pairs per thread lane — exactly what Perfetto needs
//! to render the trace.

use std::collections::HashMap;
use std::sync::Mutex;

use serde_json::Value;

/// Trace state is process-global; tests in this binary share one lock.
static LOCK: Mutex<()> = Mutex::new(());

fn record_workload() {
    lm4db_obs::reset();
    lm4db_obs::flight_reset();
    // Main-thread nested spans under a request, plus a worker thread, plus
    // instants and a complete event: every event kind and both lanes.
    {
        let _req = lm4db_obs::request_scope(11);
        let _outer = lm4db_obs::span("serve_step");
        lm4db_obs::instant_arg("admit", 2);
        {
            let _inner = lm4db_obs::leaf("kernel");
        }
        lm4db_obs::complete_for("validate", 11, 1_000);
    }
    std::thread::spawn(|| {
        let _req = lm4db_obs::request_scope(12);
        let _s = lm4db_obs::span("worker_feed");
    })
    .join()
    .unwrap();
}

#[test]
fn chrome_trace_parses_with_matched_pairs() {
    let _lock = LOCK.lock().unwrap();
    lm4db_obs::set_level(2);
    record_workload();
    let trace = lm4db_obs::flight_snapshot();
    lm4db_obs::set_level(0);

    let json = trace.to_chrome_json();
    let root = serde_json::parse_value(&json).expect("exported trace must be valid JSON");
    let events = match root.get("traceEvents") {
        Some(Value::Array(a)) => a,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must be non-empty");

    // Per-tid begin/end balance: walking each lane in order, depth never
    // goes negative and ends back at zero.
    let mut depth: HashMap<i64, i64> = HashMap::new();
    let mut seen_req = false;
    for e in events {
        let ph = match e.get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            other => panic!("event missing ph: {other:?}"),
        };
        let tid = match e.get("tid") {
            Some(Value::Int(i)) => *i,
            other => panic!("event missing tid: {other:?}"),
        };
        assert!(e.get("name").is_some(), "event missing name");
        assert!(e.get("ts").is_some(), "event missing ts");
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "end without begin on tid {tid}");
            }
            "X" => assert!(e.get("dur").is_some(), "complete event missing dur"),
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
        if let Some(args) = e.get("args") {
            if args.get("req").is_some() {
                seen_req = true;
            }
        }
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "unbalanced begin/end on tid {tid}");
    }
    assert!(seen_req, "request attribution must appear in args.req");
    assert!(root.get("droppedEvents").is_some());
}

#[test]
fn timeline_and_breakdown_cover_the_workload() {
    let _lock = LOCK.lock().unwrap();
    lm4db_obs::set_level(2);
    record_workload();
    let trace = lm4db_obs::flight_snapshot();
    lm4db_obs::set_level(0);

    assert_eq!(trace.requests(), vec![11, 12]);
    let text = trace.to_timeline();
    assert!(text.contains("B serve_step req=11"));
    assert!(text.contains("i admit req=11 arg=2"));
    assert!(text.contains("per-request phase totals"));
    let breakdown = trace.breakdown();
    assert!(breakdown[&Some(11)].contains_key("serve_step"));
    assert!(breakdown[&Some(11)].contains_key("kernel"));
    assert!(breakdown[&Some(11)].contains_key("validate"));
    assert!(breakdown[&Some(12)].contains_key("worker_feed"));
}
