//! Point-in-time snapshots and their text/JSON renderings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;

/// A merged, point-in-time view of the whole registry, produced by
/// [`crate::snapshot`]. Maps are sorted by name so renderings are stable.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Timers (from spans, leaves, and direct duration records), merged
    /// across thread shards; observations are nanoseconds.
    pub timers: BTreeMap<String, Histogram>,
    /// Number of thread shards that contributed data.
    pub threads: usize,
}

/// Renders nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl Snapshot {
    /// Renders the snapshot as an aligned, human-readable text table.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# lm4db-obs snapshot ({} thread shards)", self.threads);
        if !self.counters.is_empty() {
            let w = self.counters.keys().map(String::len).max().unwrap_or(0);
            let _ = writeln!(s, "## counters");
            for (k, v) in &self.counters {
                let _ = writeln!(s, "{k:<w$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            let w = self.gauges.keys().map(String::len).max().unwrap_or(0);
            let _ = writeln!(s, "## gauges");
            for (k, v) in &self.gauges {
                let _ = writeln!(s, "{k:<w$}  {v}");
            }
        }
        if !self.timers.is_empty() {
            let w = self
                .timers
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(5);
            let _ = writeln!(s, "## timers");
            let _ = writeln!(
                s,
                "{:<w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                "timer", "count", "total", "mean", "p50", "p95", "p99", "max"
            );
            for (k, t) in &self.timers {
                let _ = writeln!(
                    s,
                    "{:<w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                    k,
                    t.count(),
                    fmt_ns(t.total()),
                    fmt_ns(t.mean()),
                    fmt_ns(t.quantile(0.50)),
                    fmt_ns(t.quantile(0.95)),
                    fmt_ns(t.quantile(0.99)),
                    fmt_ns(t.max()),
                );
            }
        }
        s
    }

    /// Renders the snapshot as a JSON object with `counters`, `gauges`,
    /// `timers` (count/total/mean/min/max/buckets, all in ns), and
    /// `threads`. Keys are escaped; output is deterministic (sorted maps).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str("\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(k), v);
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(k), json_f64(*v));
        }
        s.push_str("},\"timers\":{");
        for (i, (k, t)) in self.timers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"buckets\":[",
                json_str(k),
                t.count(),
                t.total(),
                t.mean(),
                t.min(),
                t.max(),
            );
            for (j, b) in t.buckets().iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{b}");
            }
            s.push_str("]}");
        }
        let _ = write!(s, "}},\"threads\":{}}}", self.threads);
        s
    }
}

/// JSON string literal with escaping for quotes, backslashes, and control
/// characters (metric names are ASCII in practice, but stay correct).
/// Crate-visible: the crash-dump writer reuses it for the panic reason.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number rendering for gauges; non-finite values become null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(observations: &[u64]) -> Histogram {
        // Exercise the production record + merge paths: each observation
        // lands in its own single-shot histogram that is folded into `t`.
        let mut t = Histogram::new();
        for &ns in observations {
            let mut one = Histogram::new();
            one.record(ns);
            t.merge(&one);
        }
        t
    }

    #[test]
    fn quantiles_track_buckets() {
        let s = stat(&[100, 100, 100, 100_000]);
        // p50 falls in the [64, 128) bucket → upper bound 128.
        assert_eq!(s.quantile(0.5), 128);
        // p100 lands in the slow observation's bucket, clamped to max.
        assert_eq!(s.quantile(1.0), 100_000);
        assert_eq!(s.mean(), (100 * 3 + 100_000) / 4);
    }

    #[test]
    fn empty_stat_is_all_zero() {
        let s = stat(&[]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.min(), 0);
    }

    #[test]
    fn text_and_json_render_all_sections() {
        let mut snap = Snapshot::default();
        snap.counters.insert("reqs".into(), 7);
        snap.gauges.insert("depth".into(), 1.5);
        snap.timers.insert("work".into(), stat(&[1000, 2000]));
        snap.threads = 2;
        let text = snap.to_text();
        assert!(text.contains("reqs"));
        assert!(text.contains("depth"));
        assert!(text.contains("work"));
        let json = snap.to_json();
        assert!(json.contains("\"reqs\":7"));
        assert!(json.contains("\"depth\":1.5"));
        assert!(json.contains("\"count\":2"));
        assert!(json.ends_with("\"threads\":2}"));
    }

    #[test]
    fn json_escapes_special_keys() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a\"b\\c".into(), 1);
        let json = snap.to_json();
        assert!(json.contains("\"a\\\"b\\\\c\":1"));
    }
}
