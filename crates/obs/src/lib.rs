//! # lm4db-obs
//!
//! Std-only observability for the LM4DB stack: a global metrics registry
//! (counters, gauges, log-bucketed latency timers), hierarchical timed
//! spans with per-thread shards merged at snapshot time, text/JSON
//! exporters, and — at the highest trace level — an event-granular
//! **flight recorder** with per-request timelines, Chrome/Perfetto trace
//! export, and panic post-mortems. CodexDB-style pipelines live or die by
//! per-stage cost accounting — prompt construction, decoding, validation
//! retries — and this crate is the one place every layer (kernels,
//! training, serving, the text-to-SQL and synthesis applications) reports
//! into.
//!
//! **Trace levels.** `LM4DB_TRACE` (parsed tolerantly: whitespace is
//! trimmed, `on`/`off`/`true`/`false` are accepted case-insensitively)
//! selects one of three levels:
//!
//! | level | value | what records |
//! |---|---|---|
//! | 0 | unset / `0` / `off` / `false` | nothing |
//! | 1 | `1` / `on` / `true` | metrics: counters, gauges, timers |
//! | 2 | `2` | metrics **plus** flight-recorder events |
//!
//! **Overhead contract.** Every instrumentation point is gated on
//! [`enabled`] (or [`events_enabled`]), a single relaxed atomic load plus
//! a predictable branch, so instrumented hot loops run at full speed at
//! level 0 — the level every `benchmark/` workload is timed at. What
//! level 1 costs is the benchmark's `obs.trace_overhead_share` (traced
//! against untraced segments of one run, see `benchmark/README.md`).
//! Tracing is purely observational: it never changes
//! results — the serving golden suite passes byte-exact at every
//! `LM4DB_TRACE` level.
//!
//! **Thread model.** Each thread records metrics into its own shard (an
//! uncontended mutex, registered globally on first use) and events into
//! its own bounded [ring](flight::Ring); [`snapshot`] / [`flight_snapshot`]
//! merge all shards, so spans recorded inside `lm4db-tensor` worker-pool
//! threads aggregate with the dispatcher's. Span paths nest per thread
//! (`train_step/reduce`); [`leaf`] timers skip the stack so hot kernels
//! aggregate under one flat name no matter which thread ran them. At
//! level 2 the same `span()`/`leaf()` guards additionally emit begin/end
//! [events](Event) — instrumented code needs no changes to show up in
//! timelines — and a [`request_scope`] guard attributes them to the
//! serving request that caused them.
//!
//! **Telemetry over time.** Point-in-time snapshots compose with a
//! step-clock telemetry layer: [`timeseries`] keeps bounded per-series
//! ring buffers (sampled on the serve engine's scheduler cadence,
//! `LM4DB_SAMPLE_STEPS`) with windowed `rate()`/`delta()` views; [`slo`]
//! runs multi-window burn-rate rules over those samples through a
//! deterministic pending→firing→resolved alert state machine; and the
//! [`prom`]/[`endpoint`] exporters publish everything as Prometheus text
//! exposition from a background scrape thread (`LM4DB_METRICS_ADDR`) that
//! only ever reads snapshots. Because samples and alerts live on the virtual step clock,
//! they replay byte-identically under the golden/soak matrices.
//!
//! # Examples
//!
//! ```
//! // Tracing is explicit here so the example is environment-independent.
//! lm4db_obs::set_enabled(true);
//! lm4db_obs::reset();
//!
//! lm4db_obs::counter_add("requests", 3);
//! lm4db_obs::gauge_set("queue_depth", 2.0);
//! let answer = lm4db_obs::time("compute", || 6 * 7);
//! assert_eq!(answer, 42);
//!
//! let snap = lm4db_obs::snapshot();
//! assert_eq!(snap.counters["requests"], 3);
//! assert_eq!(snap.timers["compute"].count(), 1);
//! assert!(snap.to_text().contains("requests"));
//! assert!(snap.to_json().starts_with('{'));
//! lm4db_obs::set_enabled(false);
//! ```
//!
//! At level 2 the same guards feed the flight recorder:
//!
//! ```
//! lm4db_obs::set_level(2);
//! lm4db_obs::flight_reset();
//! {
//!     let _req = lm4db_obs::request_scope(7);
//!     let _s = lm4db_obs::span("serve_phase");
//! } // drop records timing AND begin/end events attributed to request 7
//! let trace = lm4db_obs::flight_snapshot();
//! assert_eq!(trace.requests(), vec![7]);
//! assert!(trace.to_chrome_json().contains("\"traceEvents\""));
//! lm4db_obs::set_level(0);
//! ```

#![warn(missing_docs)]

pub mod endpoint;
pub mod event;
pub mod export;
pub mod flight;
pub mod hist;
pub mod prom;
pub mod registry;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use endpoint::{serve_metrics, serve_metrics_from_env, MetricsServer};
pub use event::{
    complete_for, current_request, instant, instant_arg, instant_for, instant_for_arg,
    request_scope, Event, EventKind, RequestScope,
};
pub use export::Snapshot;
pub use flight::{
    crash_dump_path, flight_reset, flight_snapshot, install_panic_hook, write_crash_dump,
    FlightTrace, PhaseTotal, Ring, ShardTrace,
};
pub use hist::Histogram;
pub use prom::{global_prometheus, to_prometheus, validate_exposition};
pub use registry::{counter_add, gauge_set, record_duration_ns, reset, snapshot};
pub use slo::{AlertConfig, AlertState, AlertTransition, SloMonitor};
pub use span::{leaf, span, time, Span};
pub use timeseries::{
    env_sample_steps, series_record, series_reset, series_snapshot, Point, Series,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Trace-level state: 0 = unresolved, otherwise `level + 1`
/// (1 = off, 2 = metrics, 3 = metrics + flight-recorder events).
static STATE: AtomicU8 = AtomicU8::new(0);

/// The current trace level (0, 1, or 2). After the first call this is one
/// relaxed atomic load — the entire cost of a disabled instrumentation
/// point is this load plus a branch.
#[inline]
pub fn level() -> u8 {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s - 1,
    }
}

/// Whether metrics tracing is on (level ≥ 1).
#[inline]
pub fn enabled() -> bool {
    level() >= 1
}

/// Whether flight-recorder events are on (level 2).
#[inline]
pub fn events_enabled() -> bool {
    level() >= 2
}

/// Turns metrics tracing on (level 1) or everything off (level 0),
/// overriding `LM4DB_TRACE`.
pub fn set_enabled(on: bool) {
    set_level(if on { 1 } else { 0 });
}

/// Sets the trace level (clamped to 0–2), overriding `LM4DB_TRACE`.
/// Arming level 2 this way does **not** install the panic hook — call
/// [`install_panic_hook`] if a crash should leave a post-mortem dump.
pub fn set_level(level: u8) {
    STATE.store(level.min(2) + 1, Ordering::Relaxed);
}

/// Tolerant `LM4DB_TRACE` parsing: trims whitespace, accepts numbers and
/// `on`/`off`/`true`/`false`/`yes`/`no` case-insensitively. Unrecognized
/// values and numbers above 2 clamp into range; garbage means off.
fn parse_trace_level(raw: &str) -> u8 {
    let v = raw.trim();
    if v.is_empty()
        || v.eq_ignore_ascii_case("off")
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("no")
    {
        return 0;
    }
    if v.eq_ignore_ascii_case("on")
        || v.eq_ignore_ascii_case("true")
        || v.eq_ignore_ascii_case("yes")
    {
        return 1;
    }
    match v.parse::<u64>() {
        Ok(n) => n.min(2) as u8,
        Err(_) => 0,
    }
}

/// Resolves the initial level from `LM4DB_TRACE` exactly once. When the
/// environment arms the flight recorder (level 2), the panic post-mortem
/// hook is installed as well, so a crashed `LM4DB_TRACE=2` run always
/// leaves evidence.
#[cold]
fn init_from_env() -> u8 {
    let lvl = std::env::var("LM4DB_TRACE")
        .map(|v| parse_trace_level(&v))
        .unwrap_or(0);
    // A racing set_enabled()/set_level() wins: only replace the
    // unresolved state.
    let _ = STATE.compare_exchange(0, lvl + 1, Ordering::Relaxed, Ordering::Relaxed);
    let resolved = STATE.load(Ordering::Relaxed) - 1;
    if lvl >= 2 {
        flight::install_panic_hook();
    }
    resolved
}

/// Tracing state and the registry are process-global; every test that
/// toggles them holds this lock so parallel test threads don't race.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK as GLOBAL;

    #[test]
    fn disabled_paths_record_nothing() {
        let _lock = GLOBAL.lock().unwrap();
        set_enabled(false);
        reset();
        counter_add("c", 1);
        gauge_set("g", 1.0);
        let s = span("s");
        let l = leaf("l");
        drop(s);
        drop(l);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("c"));
        assert!(!snap.gauges.contains_key("g"));
        assert!(!snap.timers.contains_key("s"));
        assert!(!snap.timers.contains_key("l"));
    }

    #[test]
    fn enabled_paths_record() {
        let _lock = GLOBAL.lock().unwrap();
        set_enabled(true);
        reset();
        counter_add("hits", 2);
        counter_add("hits", 3);
        gauge_set("depth", 4.5);
        time("work", || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters["hits"], 5);
        assert_eq!(snap.gauges["depth"], 4.5);
        let t = &snap.timers["work"];
        assert_eq!(t.count(), 1);
        assert!(
            t.total() >= 50_000,
            "slept 50µs but recorded {}ns",
            t.total()
        );
    }

    #[test]
    fn worker_thread_spans_merge_into_snapshot() {
        let _lock = GLOBAL.lock().unwrap();
        set_enabled(true);
        reset();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _g = span("worker_job");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = span("main_job");
        drop(g);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.timers["worker_job"].count(), 3);
        assert_eq!(snap.timers["main_job"].count(), 1);
        assert!(snap.threads >= 2, "expected shards from multiple threads");
    }

    #[test]
    fn trace_level_parsing_is_tolerant() {
        // Whitespace that used to silently disable tracing.
        assert_eq!(parse_trace_level("1 "), 1);
        assert_eq!(parse_trace_level(" 2\t"), 2);
        // Case-insensitive words.
        assert_eq!(parse_trace_level("ON"), 1);
        assert_eq!(parse_trace_level("On"), 1);
        assert_eq!(parse_trace_level("TRUE"), 1);
        assert_eq!(parse_trace_level("yes"), 1);
        assert_eq!(parse_trace_level("OFF"), 0);
        assert_eq!(parse_trace_level("False"), 0);
        assert_eq!(parse_trace_level("no"), 0);
        // Numbers, clamped into range.
        assert_eq!(parse_trace_level("0"), 0);
        assert_eq!(parse_trace_level("2"), 2);
        assert_eq!(parse_trace_level("7"), 2);
        // Garbage and emptiness mean off, never a panic.
        assert_eq!(parse_trace_level(""), 0);
        assert_eq!(parse_trace_level("  "), 0);
        assert_eq!(parse_trace_level("banana"), 0);
        assert_eq!(parse_trace_level("-1"), 0);
    }

    #[test]
    fn levels_gate_metrics_and_events_independently() {
        let _lock = GLOBAL.lock().unwrap();
        set_level(1);
        assert!(enabled());
        assert!(!events_enabled());
        set_level(2);
        assert!(enabled());
        assert!(events_enabled());
        set_level(0);
        assert!(!enabled());
        assert!(!events_enabled());
        // set_enabled keeps its historical meaning: level 1.
        set_enabled(true);
        assert_eq!(level(), 1);
        set_enabled(false);
        assert_eq!(level(), 0);
    }

    #[test]
    fn spans_feed_events_at_level_2() {
        let _lock = GLOBAL.lock().unwrap();
        set_level(2);
        reset();
        flight_reset();
        {
            let _req = request_scope(5);
            let _outer = span("outer");
            let _inner = leaf("inner");
            instant("ping");
        }
        let trace = flight_snapshot();
        set_level(0);
        assert_eq!(trace.requests(), vec![5]);
        let events = trace.request_events(5);
        // outer B, inner B, ping i, inner E, outer E.
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events.last().unwrap().kind, EventKind::End);
        assert_eq!(events.last().unwrap().name, "outer");
        // Level 1 records metrics but no events.
        set_level(1);
        flight_reset();
        {
            let _s = span("quiet");
        }
        let trace = flight_snapshot();
        set_level(0);
        assert!(trace.is_empty(), "level 1 must not record events");
    }
}
