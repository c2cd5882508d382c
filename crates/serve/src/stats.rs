//! Engine observability: a cheap, copyable counters snapshot — and the
//! only place that writes it.
//!
//! `Stats` is the per-engine view and the source of truth: it works with
//! tracing off. When tracing is on (`LM4DB_TRACE=1` or
//! `lm4db_obs::set_enabled(true)`), every counter increment is mirrored
//! into the global `lm4db-obs` registry under `serve/*`
//! (`serve/submitted`, `serve/decoded_tokens`, …, per tenant under
//! `serve/tenant/<id>/*`) and queue depth, batch occupancy, and
//! prefix-cache size are published as gauges — so one
//! `lm4db_obs::snapshot()` shows serving counters next to kernel and
//! training timings, merged across every engine in the process.
//!
//! The engine never touches a counter or a `serve/*` name directly: it
//! calls the crate-internal booking functions at the bottom of this file
//! (`Stats::add`, `book_submit`, `book_retire`, …), each of which bumps a
//! field and its mirror together, so the two views cannot drift.
//! `Stats::book_retire` is the single writer of the five outcome counters.
//!
//! Per-request latency distributions ([`Stats::queue_wait`] and
//! [`Stats::latency`]) are always recorded — they are one histogram
//! `record` per request, far off the per-token hot path — so
//! `stats().latency.quantile(0.99)` answers the tail-latency question
//! without any tracing armed.

use std::collections::BTreeMap;

use lm4db_obs::Histogram;

use crate::engine::Outcome;
use crate::sched::TenantId;

/// A point-in-time snapshot of the engine's counters, taken with
/// [`crate::Engine::stats`]. All token counts are cumulative since engine
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Requests ever submitted.
    pub submitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled before completion (including while queued).
    pub cancelled: u64,
    /// Requests retired by a deadline with partial results.
    pub expired: u64,
    /// Requests retired with [`crate::Outcome::Failed`] after exhausting
    /// their retry budget (a worker panic poisoned every attempt).
    pub failed: u64,
    /// Requests shed at admission with [`crate::Outcome::Rejected`]
    /// because the queue was at its configured bound.
    pub rejected: u64,
    /// Retry attempts scheduled after a poisoned feed pass (each failed
    /// request contributes up to `EngineOptions::max_retries`).
    pub retries: u64,
    /// Requests currently waiting for a batch slot.
    pub queued: usize,
    /// Requests currently decoding.
    pub active: usize,
    /// Requests quarantined after a fault, waiting out their backoff
    /// before re-admission.
    pub retrying: usize,
    /// Prompt tokens fed through the model (cache misses during prefill).
    pub prefill_tokens: u64,
    /// Prompt tokens restored from the prefix cache instead of recomputed.
    pub cached_prefix_tokens: u64,
    /// Generated tokens fed back through the model.
    pub decoded_tokens: u64,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Telemetry sampler ticks taken ([`crate::EngineOptions::sample_steps`]);
    /// mirrored as the `serve/sampler_ticks` counter. Step-based, hence
    /// deterministic for a given request schedule.
    pub sampler_ticks: u64,
    /// Burn-rate alert transitions into `Pending`
    /// ([`crate::EngineOptions::slo_alerts`]); mirrored as `slo/pending`.
    pub slo_pending: u64,
    /// Burn-rate alert transitions into `Firing`; mirrored as `slo/firing`.
    pub slo_firing: u64,
    /// Burn-rate alert transitions into `Resolved`; mirrored as
    /// `slo/resolved`.
    pub slo_resolved: u64,
    /// Largest number of concurrently active requests observed.
    pub peak_batch: usize,
    /// Sum over steps of the number of live sequences (beam hypotheses
    /// count individually); divide by `steps` for the mean occupancy.
    pub batch_occupancy_sum: u64,
    /// Nodes (= cached token positions) currently held by the prefix trie.
    pub prefix_cache_nodes: usize,
    /// Wall-clock nanoseconds each request spent queued before admission
    /// (one observation per admitted request). Query tails with
    /// [`Histogram::quantile`] — p50/p95/p99.
    pub queue_wait: Histogram,
    /// End-to-end wall-clock nanoseconds from submit to retire (one
    /// observation per retired request, including cancelled and expired).
    pub latency: Histogram,
    /// Per-tenant accounting, keyed by [`crate::Request::tenant`]. Always
    /// populated (an unconfigured engine books everything under tenant 0);
    /// the per-tenant latency distributions count scheduler *steps*, not
    /// wall time, so they are deterministic and fingerprint-safe.
    pub tenants: BTreeMap<TenantId, TenantStats>,
}

/// One tenant's slice of the engine counters (see [`Stats::tenants`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Requests this tenant ever submitted.
    pub submitted: u64,
    /// Requests admitted into the batch at least once.
    pub admitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled before completion.
    pub cancelled: u64,
    /// Requests retired by a deadline with partial results.
    pub expired: u64,
    /// Requests retired with [`crate::Outcome::Failed`].
    pub failed: u64,
    /// Requests shed at admission ([`crate::Outcome::Rejected`]): queue
    /// bound plus SLO sheds.
    pub rejected: u64,
    /// The subset of `rejected` shed by SLO-aware admission control
    /// ([`crate::EngineOptions::slo_admission`]) rather than the hard
    /// queue bound.
    pub slo_shed: u64,
    /// Retry attempts scheduled after a poisoned feed pass.
    pub retries: u64,
    /// Completed requests whose submit→retire step count met the tenant's
    /// `slo_steps` target (only booked when a target is configured).
    pub slo_met: u64,
    /// Completed requests that overran the tenant's `slo_steps` target.
    pub slo_missed: u64,
    /// The tenant's wall-clock SLO target in milliseconds, copied from
    /// [`crate::TenantClass::slo_wall_ms`] at engine construction; 0 when
    /// none is configured. **Recorded, not enforced**: admission and
    /// alerting run on the step-based target, and nothing yet compares
    /// wall-clock latencies against this value — it rides along so the
    /// step and wall SLO schemas stay unified until wall-clock
    /// enforcement lands.
    pub slo_wall_ms: u64,
    /// Requests currently waiting in this tenant's queue.
    pub queued: usize,
    /// Scheduler steps each admitted request waited before first
    /// admission (one observation per admitted request). Step-based and
    /// therefore deterministic, unlike the wall-clock [`Stats::queue_wait`].
    pub queue_wait_steps: Histogram,
    /// Submit→retire scheduler steps for every admitted-then-retired
    /// request (sheds are excluded: they never consumed a step).
    pub latency_steps: Histogram,
}

impl TenantStats {
    /// Terminal outcomes booked for this tenant; equals `submitted` once
    /// the engine is idle (the conservation law, per tenant).
    pub fn terminal_total(&self) -> u64 {
        self.completed + self.cancelled + self.expired + self.failed + self.rejected
    }
}

impl Stats {
    /// Mean number of live sequences per scheduler step.
    pub fn mean_batch_occupancy(&self) -> f32 {
        if self.steps == 0 {
            0.0
        } else {
            self.batch_occupancy_sum as f32 / self.steps as f32
        }
    }

    /// Requests that have reached a terminal outcome. When the engine is
    /// idle this equals [`Stats::submitted`] — every submitted request
    /// retires exactly once, whatever faults were injected along the way
    /// (the chaos suite's conservation law):
    /// `completed + cancelled + expired + failed + rejected == submitted`.
    pub fn terminal_total(&self) -> u64 {
        self.completed + self.cancelled + self.expired + self.failed + self.rejected
    }

    /// Fraction of prompt tokens served from the prefix cache.
    pub fn prefix_hit_rate(&self) -> f32 {
        let total = self.prefill_tokens + self.cached_prefix_tokens;
        if total == 0 {
            0.0
        } else {
            self.cached_prefix_tokens as f32 / total as f32
        }
    }
}

/// Selects the `u64` field a booking bumps.
type Slot<T> = fn(&mut T) -> &mut u64;

/// A cumulative [`Stats`] counter with no per-tenant slice: the field and
/// its registry mirror, side by side (bumped together by [`Stats::add`]).
pub(crate) struct Counter(Slot<Stats>, &'static str);

impl Counter {
    pub const STEPS: Counter = Counter(|s| &mut s.steps, "serve/steps");
    pub const BATCH_OCCUPANCY_SUM: Counter =
        Counter(|s| &mut s.batch_occupancy_sum, "serve/batch_occupancy_sum");
    pub const PREFILL_TOKENS: Counter = Counter(|s| &mut s.prefill_tokens, "serve/prefill_tokens");
    pub const DECODED_TOKENS: Counter = Counter(|s| &mut s.decoded_tokens, "serve/decoded_tokens");
    pub const CACHED_PREFIX_TOKENS: Counter = Counter(
        |s| &mut s.cached_prefix_tokens,
        "serve/cached_prefix_tokens",
    );
    pub const SAMPLER_TICKS: Counter = Counter(|s| &mut s.sampler_ticks, "serve/sampler_ticks");
    pub const SLO_PENDING: Counter = Counter(|s| &mut s.slo_pending, "slo/pending");
    pub const SLO_FIRING: Counter = Counter(|s| &mut s.slo_firing, "slo/firing");
    pub const SLO_RESOLVED: Counter = Counter(|s| &mut s.slo_resolved, "slo/resolved");
}

/// One retirement as the ledger sees it — the differences between the
/// terminal routes, as data (see [`Stats::book_retire`]).
pub(crate) struct Retirement<'a> {
    pub tenant: TenantId,
    pub outcome: &'a Outcome,
    /// Wall-clock submit→retire nanoseconds.
    pub latency_ns: u64,
    /// Submit→retire scheduler steps, for a request that held a batch slot
    /// at least once. `None` for one that never did (validation failures,
    /// sheds, cancels while queued): it consumed no step and stays out of
    /// [`TenantStats::latency_steps`].
    pub latency_steps: Option<u64>,
    /// A [`Outcome::Rejected`] decided by SLO admission rather than the
    /// hard queue bound.
    pub slo_shed: bool,
    /// The tenant's step target (0 = none): a finished request books
    /// `slo_met` or `slo_missed` against it.
    pub slo_steps: u64,
}

impl Stats {
    /// Adds `delta` to a global counter and its registry mirror.
    pub(crate) fn add(&mut self, Counter(slot, mirror): Counter, delta: u64) {
        *slot(self) += delta;
        lm4db_obs::counter_add(mirror, delta);
    }

    /// Bumps one tenant's counter and its `serve/tenant/<id>/<name>`
    /// mirror — plus, when the counter has a global twin, that field and
    /// `serve/<name>`. Names are formatted only with tracing on: with it
    /// off this is two increments and a branch, no allocation.
    fn bump(
        &mut self,
        tenant: TenantId,
        name: &str,
        global: Option<Slot<Stats>>,
        slot: Slot<TenantStats>,
    ) {
        if let Some(global) = global {
            *global(self) += 1;
        }
        *slot(self.tenants.entry(tenant).or_default()) += 1;
        if lm4db_obs::enabled() {
            if global.is_some() {
                lm4db_obs::counter_add(&format!("serve/{name}"), 1);
            }
            lm4db_obs::counter_add(&format!("serve/tenant/{tenant}/{name}"), 1);
        }
    }

    /// Books an accepted [`crate::Engine::submit`].
    pub(crate) fn book_submit(&mut self, tenant: TenantId) {
        self.bump(tenant, "submitted", Some(|s| &mut s.submitted), |t| {
            &mut t.submitted
        });
    }

    /// Books a request's *first* admission and its queue wait on both
    /// clocks. Re-admissions after quarantine book nothing: the request
    /// already counts as admitted and its wait was the backoff.
    pub(crate) fn book_admit(&mut self, tenant: TenantId, wait_ns: u64, wait_steps: u64) {
        self.queue_wait.record(wait_ns);
        lm4db_obs::record_duration_ns("serve/queue_wait", wait_ns);
        self.bump(tenant, "admitted", None, |t| &mut t.admitted);
        let t = self.tenants.entry(tenant).or_default();
        t.queue_wait_steps.record(wait_steps);
    }

    /// Books one retry scheduled after a poisoned feed pass.
    pub(crate) fn book_retry(&mut self, tenant: TenantId) {
        self.bump(tenant, "retries", Some(|s| &mut s.retries), |t| {
            &mut t.retries
        });
    }

    /// Books a terminal outcome — the only writer of `completed`,
    /// `cancelled`, `expired`, `failed` and `rejected`, globally and per
    /// tenant, so the conservation law
    /// (`terminal_total() == submitted` once idle) has one place to hold.
    pub(crate) fn book_retire(&mut self, r: Retirement<'_>) {
        let (name, global, slot): (_, Slot<Stats>, Slot<TenantStats>) = match r.outcome {
            Outcome::Finished => ("completed", |s| &mut s.completed, |t| &mut t.completed),
            Outcome::Cancelled => ("cancelled", |s| &mut s.cancelled, |t| &mut t.cancelled),
            Outcome::DeadlineExpired => ("expired", |s| &mut s.expired, |t| &mut t.expired),
            Outcome::Failed { .. } => ("failed", |s| &mut s.failed, |t| &mut t.failed),
            Outcome::Rejected => ("rejected", |s| &mut s.rejected, |t| &mut t.rejected),
        };
        self.bump(r.tenant, name, Some(global), slot);
        if r.slo_shed {
            self.bump(r.tenant, "slo_shed", None, |t| &mut t.slo_shed);
        }
        if let Some(steps) = r.latency_steps {
            if *r.outcome == Outcome::Finished && r.slo_steps > 0 {
                if steps <= r.slo_steps {
                    self.bump(r.tenant, "slo_met", None, |t| &mut t.slo_met);
                } else {
                    self.bump(r.tenant, "slo_missed", None, |t| &mut t.slo_missed);
                }
            }
            let t = self.tenants.entry(r.tenant).or_default();
            t.latency_steps.record(steps);
        }
        self.latency.record(r.latency_ns);
        lm4db_obs::record_duration_ns("serve/latency", r.latency_ns);
    }

    /// Publishes the point-in-time gauges after a busy step.
    pub(crate) fn publish_gauges(&self, queued: usize, active: usize, prefix_nodes: usize) {
        if lm4db_obs::enabled() {
            lm4db_obs::gauge_set("serve/queued", queued as f64);
            lm4db_obs::gauge_set("serve/active", active as f64);
            lm4db_obs::gauge_set("serve/peak_batch", self.peak_batch as f64);
            lm4db_obs::gauge_set("serve/prefix_cache_nodes", prefix_nodes as f64);
        }
    }

    /// One sampler tick's worth of time-series points: the depths passed
    /// in, the cumulative counters, and — for each of the first `tenants`
    /// tenant ids — outcome counters and step-latency quantiles. Every
    /// value is derived from the virtual step clock, never wall time, so
    /// the sample stream is a pure function of the request schedule.
    pub(crate) fn sample_series(
        &self,
        step: u64,
        (queued, active, retrying): (usize, usize, usize),
        tenants: usize,
    ) {
        let record = lm4db_obs::series_record;
        record("serve/queued", step, queued as u64);
        record("serve/active", step, active as u64);
        record("serve/retrying", step, retrying as u64);
        record("serve/submitted", step, self.submitted);
        record("serve/completed", step, self.completed);
        record("serve/rejected", step, self.rejected);
        record("serve/expired", step, self.expired);
        record("serve/failed", step, self.failed);
        record("serve/decoded_tokens", step, self.decoded_tokens);
        let idle = TenantStats::default();
        for tenant in 0..tenants as TenantId {
            let t = self.tenants.get(&tenant).unwrap_or(&idle);
            for (name, value) in [
                ("completed", t.completed),
                ("slo_missed", t.slo_missed),
                ("slo_shed", t.slo_shed),
                ("latency_steps_p50", t.latency_steps.quantile(0.50)),
                ("latency_steps_p99", t.latency_steps.quantile(0.99)),
            ] {
                record(&format!("serve/tenant/{tenant}/{name}"), step, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_handle_zero_denominators() {
        let s = Stats::default();
        assert_eq!(s.mean_batch_occupancy(), 0.0);
        assert_eq!(s.prefix_hit_rate(), 0.0);
    }

    #[test]
    fn derived_rates_compute() {
        let s = Stats {
            steps: 4,
            batch_occupancy_sum: 10,
            prefill_tokens: 30,
            cached_prefix_tokens: 10,
            ..Stats::default()
        };
        assert_eq!(s.mean_batch_occupancy(), 2.5);
        assert_eq!(s.prefix_hit_rate(), 0.25);
    }

    #[test]
    fn tenant_terminal_total_sums_every_terminal_outcome() {
        let t = TenantStats {
            submitted: 10,
            admitted: 6,
            completed: 4,
            cancelled: 1,
            expired: 1,
            failed: 1,
            rejected: 3,
            slo_shed: 2, // a subset of rejected: not summed separately
            ..TenantStats::default()
        };
        assert_eq!(t.terminal_total(), 10);
        assert_eq!(t.terminal_total(), t.submitted);
    }

    #[test]
    fn terminal_total_sums_every_terminal_outcome() {
        let s = Stats {
            submitted: 15,
            completed: 8,
            cancelled: 2,
            expired: 1,
            failed: 3,
            rejected: 1,
            retries: 5, // not terminal: retries never count
            ..Stats::default()
        };
        assert_eq!(s.terminal_total(), 15);
        assert_eq!(s.terminal_total(), s.submitted);
    }
}
