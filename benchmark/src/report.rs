//! What a run produces, and how it is printed.

use std::time::Instant;

use serde_json::Value;

use crate::alloc;
use crate::stats::median;
use crate::window::{Headline, Window};

/// One measured number. The unit travels with it so a report never has to
/// guess; a test checks it against `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The arguments of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the op counts and a short fine-tune: for tests and CI.
    pub smoke: bool,
}

/// The result of one run of one workload: end-to-end metrics from an
/// untraced run, per-layer metrics from a traced one.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// What building the workload's state cost: the median time of the
/// repetitions, the highest live heap while they ran, and when the last
/// one was done — warm-up starts there.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    pub build_s: f64,
    pub peak_mb: f64,
    pub built_at: Instant,
}

/// Builds the workload's state `reps` times, timing each, and keeps the
/// last. The state is what a later change could move work into.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, SetUp) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        // Drop the previous state first, or the peak would hold two.
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    let set_up = SetUp {
        build_s: median(&times),
        peak_mb: alloc::take_peak_mb(),
        built_at: Instant::now(),
    };
    (state.expect("set-up runs at least once"), set_up)
}

/// The end-to-end metrics every workload reports from its window. The
/// headline is passed in because the loop types take it differently.
pub fn end_to_end(window: &Window, set_up: SetUp, headline: Headline) -> Vec<Metric> {
    // Set-up is everything before the first timed op: one build, and the
    // untimed warm-up in which caches fill and lazy initialisation runs.
    let warm_up_s = window
        .opened_at()
        .duration_since(set_up.built_at)
        .as_secs_f64();
    vec![
        metric("setup_s", set_up.build_s + warm_up_s, "s"),
        metric("ops_per_s", headline.ops_per_s, "1/s"),
        metric("latency_p50_ms", headline.p50_ms, "ms"),
        metric("latency_p95_ms", headline.p95_ms, "ms"),
        metric("within_limit_share", window.within_limit_share(), "share"),
        // The larger of set-up's peak and the steady footprint of the loop.
        metric("peak_mem_mb", set_up.peak_mb.max(window.peak_mb()), "MB"),
    ]
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Value {
    Value::Object(
        metrics
            .into_iter()
            .map(|m| {
                let entry = object(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}
