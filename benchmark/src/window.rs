//! The timed window of a run, cut into segments of a fixed number of ops.
//!
//! A run is time-boxed (`--seconds`), so the number of ops it completes
//! depends on the machine; a segment's op count does not. Every statistic
//! is taken per segment and reported as the median over segments, which a
//! noisy second on a shared host moves by one segment out of many. The
//! first `min_segments` segments always run, so the counters read at that
//! boundary repeat exactly for a given seed. A traced run records spans in
//! every other segment and reads the tracing overhead off the pairs.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Fixed sizes of one workload's window.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Completed ops that close a segment.
    pub segment_ops: usize,
    /// Segments that run whatever the clock says.
    pub min_segments: usize,
    /// Wall-clock length of the window; checked when a segment closes.
    pub seconds: f64,
    /// An op slower than this, or failed, misses the latency limit.
    pub limit_ms: f64,
    /// A traced run: segments alternate untraced / traced until time is up.
    pub trace: bool,
}

/// What one closed segment measured.
#[derive(Debug, Clone)]
pub struct Segment {
    pub traced: bool,
    pub ops_per_s: f64,
    /// Ops per second of the time the driver was not idle. The same as
    /// `ops_per_s` in a closed loop, which never idles.
    pub ops_per_busy_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Highest live heap while the segment ran.
    pub peak_mb: f64,
}

/// Throughput and the two latency percentiles, taken one of two ways.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
}

pub struct Window {
    plan: Plan,
    start: Instant,
    segment_start: Instant,
    idle_at_segment_start: Duration,
    closed_wall_s: f64,
    latencies_ms: Vec<f64>,
    /// Latencies of the untraced closed segments.
    closed_ms: Vec<f64>,
    pub segments: Vec<Segment>,
    pub attempted: u64,
    pub failed: u64,
    pub within_limit: u64,
}

impl Window {
    /// Opens the window now. `idle` is how long the driver has idled so
    /// far (zero in a closed loop).
    pub fn new(plan: Plan, idle: Duration) -> Self {
        alloc::take_peak_mb();
        let now = Instant::now();
        Window {
            plan,
            start: now,
            segment_start: now,
            idle_at_segment_start: idle,
            closed_wall_s: 0.0,
            latencies_ms: Vec::with_capacity(plan.segment_ops),
            closed_ms: Vec::new(),
            segments: Vec::new(),
            attempted: 0,
            failed: 0,
            within_limit: 0,
        }
    }

    /// Books one finished op. `ok` is false when its output was wrong or it
    /// did not finish; such an op also misses the latency limit. `idle` is
    /// how long the driver has idled since the window opened (zero in a
    /// closed loop). Returns true when the op closed a segment.
    pub fn record(
        &mut self,
        latency_ms: f64,
        ok: bool,
        idle: Duration,
        tracer: &mut Tracer,
    ) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        } else if latency_ms <= self.plan.limit_ms {
            self.within_limit += 1;
        }
        self.latencies_ms.push(latency_ms);
        if self.latencies_ms.len() < self.plan.segment_ops {
            return false;
        }
        let now = Instant::now();
        let ops = self.latencies_ms.len() as f64;
        let wall = now.duration_since(self.segment_start);
        let busy = wall.saturating_sub(idle.saturating_sub(self.idle_at_segment_start));
        self.closed_wall_s += wall.as_secs_f64();
        self.segments.push(Segment {
            traced: tracer.is_on(),
            ops_per_s: ops / wall.as_secs_f64(),
            ops_per_busy_s: ops / busy.as_secs_f64(),
            p50_ms: percentile(&self.latencies_ms, 0.50),
            p95_ms: percentile(&self.latencies_ms, 0.95),
            peak_mb: alloc::take_peak_mb(),
        });
        if tracer.is_on() {
            self.latencies_ms.clear();
        } else {
            self.closed_ms.append(&mut self.latencies_ms);
        }
        self.segment_start = now;
        self.idle_at_segment_start = idle;
        if self.plan.trace {
            // Odd segments are traced; what runs after the window is not.
            tracer.set_on(self.segments.len() % 2 == 1 && !self.time_is_up());
        }
        true
    }

    /// When the window opened, which is when warm-up ended.
    pub fn opened_at(&self) -> Instant {
        self.start
    }

    /// True once the minimum has run and the clock has passed `seconds`.
    /// Only meaningful right after a segment closed.
    pub fn time_is_up(&self) -> bool {
        self.segments.len() >= self.plan.min_segments
            && self.start.elapsed().as_secs_f64() >= self.plan.seconds
    }

    pub fn min_segments_done(&self) -> bool {
        self.segments.len() == self.plan.min_segments
    }

    fn over(&self, traced: bool, f: impl Fn(&Segment) -> f64) -> Option<f64> {
        let xs: Vec<f64> = self
            .segments
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect();
        (!xs.is_empty()).then(|| median(&xs))
    }

    /// Each statistic per untraced segment, then the median over segments:
    /// what a closed loop reports.
    pub fn per_segment(&self) -> Headline {
        let stat = |f: fn(&Segment) -> f64| self.over(false, f).expect("no segment closed");
        Headline {
            ops_per_s: stat(|s| s.ops_per_s),
            p50_ms: stat(|s| s.p50_ms),
            p95_ms: stat(|s| s.p95_ms),
        }
    }

    /// All closed segments as one sample: what an open loop reports, where
    /// a segment's rate is arrival noise and its ops are few.
    pub fn pooled(&self) -> Headline {
        let ops = self.segments.len() * self.plan.segment_ops;
        Headline {
            ops_per_s: ops as f64 / self.closed_wall_s,
            p50_ms: self.pooled_percentile_ms(0.50),
            p95_ms: self.pooled_percentile_ms(0.95),
        }
    }

    /// A percentile over the latencies of every untraced closed segment.
    pub fn pooled_percentile_ms(&self, q: f64) -> f64 {
        percentile(&self.closed_ms, q)
    }

    /// Median over untraced segments of the highest live heap in a segment:
    /// the footprint of steady running, which one burst of long requests
    /// does not set.
    pub fn peak_mb(&self) -> f64 {
        self.over(false, |s| s.peak_mb).expect("no segment closed")
    }

    /// Share of attempted ops that were right and inside the limit.
    pub fn within_limit_share(&self) -> f64 {
        self.within_limit as f64 / self.attempted.max(1) as f64
    }

    /// `1 − traced ÷ untraced` ops per busy second, from the alternating
    /// segments of a traced run.
    pub fn trace_overhead_share(&self) -> f64 {
        match (
            self.over(true, |s| s.ops_per_busy_s),
            self.over(false, |s| s.ops_per_busy_s),
        ) {
            (Some(traced), Some(untraced)) => 1.0 - traced / untraced,
            _ => 0.0,
        }
    }
}
