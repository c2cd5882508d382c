//! The global metrics registry: per-thread shards merged at snapshot time.
//!
//! Counters and timers are recorded into a shard owned by the recording
//! thread (an uncontended mutex, registered globally on first use), so
//! instrumentation inside the `lm4db-tensor` worker pool never contends
//! with the dispatcher. Gauges are last-write-wins and low-frequency, so
//! they live in one global map. [`snapshot`] folds every shard together.
//!
//! Timers accumulate into [`Histogram`]s — the same log₂-bucket type other
//! crates use for their own latency distributions — so snapshot quantiles
//! and, say, the serve engine's per-request `Stats` histograms agree on
//! semantics.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::export::Snapshot;
use crate::hist::Histogram;

pub use crate::hist::BUCKETS;

/// One thread's private slice of the registry.
#[derive(Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    timers: BTreeMap<String, Histogram>,
}

impl Shard {
    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty()
    }
}

/// All shards ever registered. Shards are never removed: a thread's
/// thread-local keeps its `Arc` alive, and `reset` clears contents in
/// place so the handles stay valid.
static SHARDS: OnceLock<Mutex<Vec<Arc<Mutex<Shard>>>>> = OnceLock::new();

/// Gauges are last-write-wins and set rarely; one global map suffices.
static GAUGES: OnceLock<Mutex<BTreeMap<String, f64>>> = OnceLock::new();

fn shards() -> &'static Mutex<Vec<Arc<Mutex<Shard>>>> {
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

fn gauges() -> &'static Mutex<BTreeMap<String, f64>> {
    GAUGES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    /// This thread's shard, registered globally on first use.
    static LOCAL: Arc<Mutex<Shard>> = {
        let shard = Arc::new(Mutex::new(Shard::default()));
        shards().lock().unwrap().push(Arc::clone(&shard));
        shard
    };
}

fn with_shard(f: impl FnOnce(&mut Shard)) {
    LOCAL.with(|s| f(&mut s.lock().unwrap()));
}

/// Adds `delta` to the named counter. No-op while tracing is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_shard(|s| {
        if let Some(v) = s.counters.get_mut(name) {
            *v += delta;
        } else {
            s.counters.insert(name.to_string(), delta);
        }
    });
}

/// Sets the named gauge to `value` (last write wins). No-op while tracing
/// is disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let mut g = gauges().lock().unwrap();
    g.insert(name.to_string(), value);
}

/// Records one observation of `ns` nanoseconds under the named timer.
/// No-op while tracing is disabled. Span guards call this on drop; call it
/// directly to fold in durations measured some other way.
pub fn record_duration_ns(name: &str, ns: u64) {
    if !crate::enabled() {
        return;
    }
    with_shard(|s| {
        if let Some(t) = s.timers.get_mut(name) {
            t.record(ns);
        } else {
            let mut t = Histogram::new();
            t.record(ns);
            s.timers.insert(name.to_string(), t);
        }
    });
}

/// Clears every counter, gauge, and timer (shards stay registered).
/// Works whether or not tracing is enabled.
pub fn reset() {
    for shard in shards().lock().unwrap().iter() {
        let mut s = shard.lock().unwrap();
        s.counters.clear();
        s.timers.clear();
    }
    gauges().lock().unwrap().clear();
}

/// Merges every thread's shard into one point-in-time [`Snapshot`].
/// Works whether or not tracing is enabled.
///
/// **Ordering contract.** The snapshot's `counters`, `gauges`, and
/// `timers` maps are `BTreeMap`s, so iteration is always sorted by
/// metric name — independent of shard registration order, thread count,
/// or recording interleaving. Exporters rely on this: two snapshots with
/// equal contents render byte-identical text, JSON, and Prometheus
/// exposition no matter how many threads contributed. Pinned by
/// `snapshot_iteration_is_sorted_across_shards` below.
pub fn snapshot() -> Snapshot {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut timers: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut threads = 0usize;
    for shard in shards().lock().unwrap().iter() {
        let s = shard.lock().unwrap();
        if s.is_empty() {
            continue;
        }
        threads += 1;
        for (k, v) in &s.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, t) in &s.timers {
            timers.entry(k.clone()).or_default().merge(t);
        }
    }
    Snapshot {
        counters,
        gauges: gauges().lock().unwrap().clone(),
        timers,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_iteration_is_sorted_across_shards() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        reset();
        // Record deliberately out of order, from several threads, so the
        // per-shard insertion orders disagree with each other.
        counter_add("z/last", 1);
        counter_add("a/first", 1);
        gauge_set("m/gauge", 2.0);
        gauge_set("b/gauge", 1.0);
        record_duration_ns("t/two", 10);
        record_duration_ns("s/one", 10);
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    counter_add("k/worker", i);
                    counter_add("c/worker", 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        crate::set_enabled(false);
        let names: Vec<&String> = snap.counters.keys().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "counter iteration must be sorted by name");
        let gnames: Vec<&String> = snap.gauges.keys().collect();
        let mut gsorted = gnames.clone();
        gsorted.sort();
        assert_eq!(gnames, gsorted, "gauge iteration must be sorted by name");
        let tnames: Vec<&String> = snap.timers.keys().collect();
        let mut tsorted = tnames.clone();
        tsorted.sort();
        assert_eq!(tnames, tsorted, "timer iteration must be sorted by name");
        // And therefore renderings are byte-stable snapshot-to-snapshot.
        assert_eq!(snap.to_json(), snapshot().to_json());
        assert_eq!(
            crate::prom::to_prometheus(&snap, &[]),
            crate::prom::to_prometheus(&snapshot(), &[]),
        );
    }

    #[test]
    fn timer_buckets_are_log2() {
        let mut t = Histogram::new();
        t.record(1); // bucket 0: [1, 2)
        t.record(3); // bucket 1: [2, 4)
        t.record(1024); // bucket 10
        t.record(u64::MAX); // saturates into the last bucket
        assert_eq!(t.buckets()[0], 1);
        assert_eq!(t.buckets()[1], 1);
        assert_eq!(t.buckets()[10], 1);
        assert_eq!(t.buckets()[BUCKETS - 1], 1);
        assert_eq!(t.count(), 4);
        assert_eq!(t.min(), 1);
        assert_eq!(t.max(), u64::MAX);
    }
}
