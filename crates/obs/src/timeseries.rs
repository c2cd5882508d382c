//! Step-clock time series: bounded per-series ring buffers with windowed
//! rate/delta views.
//!
//! Snapshots ([`crate::snapshot`]) answer "what is the counter *now*";
//! this module answers "how did it move over the last N samples". A
//! [`Series`] is a fixed-capacity ring of [`Point`]s — `(step, value)`
//! pairs on the **virtual step clock** — that overwrites its oldest entry
//! when full and never allocates after construction, so sampling on a hot
//! scheduler cadence costs two word writes per point.
//!
//! **Determinism.** A point's `step` is a scheduler tick and its `value`
//! is whatever the sampler read at that tick. The serve engine samples
//! only step-based quantities (queue depths, outcome counters, step-
//! latency quantiles), so its series are pure functions of the request
//! schedule: byte-identical across thread counts, trace levels, and
//! replays. A wall-clock quantity recorded into a series would not be
//! part of any fingerprint.
//!
//! The global [`series_record`] store is keyed by name, sorted, and
//! snapshotted with [`series_snapshot`]; the Prometheus exporter renders
//! from that snapshot, never from live state.
//!
//! # Examples
//!
//! ```
//! use lm4db_obs::timeseries::Series;
//!
//! let mut s = Series::with_capacity(4);
//! for step in 0..10u64 {
//!     s.push(step, step * 3); // a counter growing 3/step
//! }
//! assert_eq!(s.len(), 4);          // only the newest 4 samples retained
//! assert_eq!(s.dropped(), 6);
//! assert_eq!(s.latest().unwrap().value, 27);
//! assert_eq!(s.delta(3), 9);       // across the last 3 intervals
//! let (dv, ds) = s.rate(3);
//! assert_eq!((dv, ds), (9, 3));    // 3 value units per step
//! ```

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// One sample: a value observed at a virtual-clock step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Scheduler step (virtual clock) at which the sample was taken.
    pub step: u64,
    /// Sampled value (cumulative counter, gauge reading, or quantile).
    pub value: u64,
}

/// A fixed-capacity ring of [`Point`]s: overwrite-oldest, allocation-free
/// after construction.
#[derive(Debug, Clone)]
pub struct Series {
    buf: Vec<Point>,
    cap: usize,
    /// Index of the oldest retained point (meaningful once full).
    head: usize,
    /// Points ever pushed (retained = `min(total, cap)`).
    total: u64,
}

impl Series {
    /// An empty series retaining at most `cap` points (`cap` is clamped
    /// to ≥ 1). The buffer is preallocated: pushes never allocate.
    pub fn with_capacity(cap: usize) -> Series {
        let cap = cap.max(1);
        Series {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Appends a sample, overwriting the oldest when full. Steps are
    /// expected to be non-decreasing (the sampler's cadence guarantees
    /// it); nothing breaks otherwise, but windowed views assume order.
    #[inline]
    pub fn push(&mut self, step: u64, value: u64) {
        let p = Point { step, value };
        if self.buf.len() < self.cap {
            self.buf.push(p);
        } else {
            self.buf[self.head] = p;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no point was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Points ever pushed, including overwritten ones.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Points lost to overwrite-oldest.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// The `i`-th retained point in chronological order (0 = oldest).
    pub fn get(&self, i: usize) -> Option<Point> {
        if i >= self.buf.len() {
            return None;
        }
        let idx = if self.buf.len() < self.cap {
            i
        } else {
            (self.head + i) % self.cap
        };
        Some(self.buf[idx])
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> Vec<Point> {
        (0..self.buf.len()).filter_map(|i| self.get(i)).collect()
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<Point> {
        self.get(self.buf.len().checked_sub(1)?)
    }

    /// The oldest retained sample.
    pub fn oldest(&self) -> Option<Point> {
        self.get(0)
    }

    /// Value change across the last `window` sampling intervals
    /// (saturating at 0 for decreasing values, so counter series — which
    /// never decrease — read exactly). With fewer points than `window`,
    /// spans everything retained.
    pub fn delta(&self, window: usize) -> u64 {
        let n = self.buf.len();
        if n < 2 {
            return 0;
        }
        let newest = self.get(n - 1).expect("non-empty");
        let base = self
            .get(n.saturating_sub(window + 1).min(n - 2))
            .expect("in range");
        newest.value.saturating_sub(base.value)
    }

    /// `(value delta, step delta)` across the last `window` sampling
    /// intervals — the windowed rate as an exact integer ratio (callers
    /// divide, or compare cross-multiplied). `(0, 0)` with < 2 points.
    pub fn rate(&self, window: usize) -> (u64, u64) {
        let n = self.buf.len();
        if n < 2 {
            return (0, 0);
        }
        let newest = self.get(n - 1).expect("non-empty");
        let base = self
            .get(n.saturating_sub(window + 1).min(n - 2))
            .expect("in range");
        (
            newest.value.saturating_sub(base.value),
            newest.step.saturating_sub(base.step),
        )
    }
}

/// Default per-series ring capacity of the global store: enough for the
/// longest soak schedule at its sampling cadence, small enough that a few
/// hundred series stay in cache.
pub const DEFAULT_SERIES_CAP: usize = 512;

/// The global named-series store behind [`series_record`].
static STORE: OnceLock<Mutex<BTreeMap<String, Series>>> = OnceLock::new();

fn store() -> &'static Mutex<BTreeMap<String, Series>> {
    STORE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Appends a sample to the named global series, creating it (with
/// [`DEFAULT_SERIES_CAP`] points of ring) on first use. Unlike counters
/// this is **not** gated on the trace level: the sampler that calls it is
/// armed by its own cadence (`LM4DB_SAMPLE_STEPS` / `EngineOptions`), and
/// runs far off the per-token hot path.
pub fn series_record(name: &str, step: u64, value: u64) {
    let mut s = store().lock().unwrap();
    if let Some(series) = s.get_mut(name) {
        series.push(step, value);
        return;
    }
    let mut series = Series::with_capacity(DEFAULT_SERIES_CAP);
    series.push(step, value);
    s.insert(name.to_string(), series);
}

/// A point-in-time copy of every global series, sorted by name — the
/// deterministic iteration order the exporters rely on.
pub fn series_snapshot() -> Vec<(String, Series)> {
    store()
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Drops every global series.
pub fn series_reset() {
    store().lock().unwrap().clear();
}

/// Tolerant `LM4DB_SAMPLE_STEPS` parsing: the sampling cadence in
/// scheduler steps, 0 (or unset/garbage) meaning disabled.
pub fn env_sample_steps() -> u64 {
    std::env::var("LM4DB_SAMPLE_STEPS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut s = Series::with_capacity(3);
        assert!(s.is_empty());
        for i in 0..5u64 {
            s.push(i * 10, i);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.total_pushed(), 5);
        assert_eq!(s.dropped(), 2);
        let pts = s.points();
        assert_eq!(
            pts,
            vec![
                Point { step: 20, value: 2 },
                Point { step: 30, value: 3 },
                Point { step: 40, value: 4 },
            ]
        );
        assert_eq!(s.oldest().unwrap().step, 20);
        assert_eq!(s.latest().unwrap().step, 40);
        assert_eq!(s.get(3), None);
    }

    #[test]
    fn delta_and_rate_window_correctly() {
        let mut s = Series::with_capacity(8);
        for step in 0..6u64 {
            s.push(step * 2, step * 5); // +5 per sample, +2 steps per sample
        }
        assert_eq!(s.delta(1), 5);
        assert_eq!(s.delta(3), 15);
        assert_eq!(s.delta(100), 25); // clamps to everything retained
        assert_eq!(s.rate(1), (5, 2));
        assert_eq!(s.rate(5), (25, 10));
    }

    #[test]
    fn degenerate_series_views_are_zero() {
        let mut s = Series::with_capacity(4);
        assert_eq!(s.delta(3), 0);
        assert_eq!(s.rate(3), (0, 0));
        assert_eq!(s.latest(), None);
        s.push(1, 7);
        assert_eq!(s.delta(3), 0, "one point spans no interval");
    }

    #[test]
    fn delta_saturates_on_decreasing_gauges() {
        let mut s = Series::with_capacity(4);
        s.push(0, 10);
        s.push(1, 4);
        assert_eq!(s.delta(1), 0, "gauge fell; counter delta saturates at 0");
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut s = Series::with_capacity(0);
        s.push(0, 1);
        s.push(1, 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.latest().unwrap().value, 2);
    }

    #[test]
    fn global_store_roundtrip_sorted() {
        // Global state: distinct prefix so parallel tests don't collide.
        series_record("tstest/b", 0, 1);
        series_record("tstest/a", 0, 2);
        series_record("tstest/b", 4, 3);
        let snap = series_snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| k.starts_with("tstest/"))
            .collect();
        assert_eq!(names, vec!["tstest/a", "tstest/b"]);
        let b = &snap.iter().find(|(k, _)| k == "tstest/b").unwrap().1;
        assert_eq!(b.len(), 2);
        assert_eq!(b.latest().unwrap().value, 3);
    }

    #[test]
    fn env_sample_steps_parses_tolerantly() {
        // Not set in the test environment (CI keeps it unset for the
        // default matrix): the parse falls back to disabled.
        assert_eq!(
            std::env::var("LM4DB_SAMPLE_STEPS")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0),
            env_sample_steps()
        );
    }
}
