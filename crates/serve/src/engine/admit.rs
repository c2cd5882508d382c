//! Stage 1 — admission: validating and queueing submissions, moving
//! queued and quarantined jobs into free batch slots, and sweeping
//! cancelled and deadline-expired jobs out.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lm4db_transformer::KvCache;

use super::request::{Job, Seq};
use super::retire::finish;
use super::{Deadline, Decode, Engine, Outcome, Request, RequestId};
use crate::sched::TenantId;
use crate::stats::Counter;

/// Request ids are process-unique, not per-engine: flight-recorder events
/// are attributed by id alone, and applications like the codegen retry
/// loop run several engines in one process whose ids must not collide.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// The body of [`Engine::submit`]: validate, then shed or queue.
pub(super) fn submit<'a>(eng: &mut Engine<'a>, req: Request<'a>) -> RequestId {
    assert!(!req.prompt.is_empty(), "prompt must be non-empty");
    match req.decode {
        Decode::Beam { width, .. } => assert!(width > 0, "beam width must be positive"),
        Decode::Score { prefix_len } => assert!(
            prefix_len >= 1 && prefix_len < req.prompt.len(),
            "scoring needs a non-empty prefix and continuation"
        ),
        Decode::Greedy { .. } => {}
    }
    if !eng.opts.tenants.is_empty() {
        assert!(
            (req.tenant as usize) < eng.opts.tenants.len(),
            "tenant id {} out of range: {} classes configured",
            req.tenant,
            eng.opts.tenants.len()
        );
    }
    let tenant = req.tenant;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    eng.stats.book_submit(tenant);
    lm4db_obs::instant_for("serve/submit", id);
    lm4db_obs::instant_for_arg("serve/tenant", id, u64::from(tenant));
    let mut job = Job::new(id, req, eng.ticks);
    // The one window check: budgets are capped here, so no later stage
    // compares a length with the window. A score feeds all but its last.
    let fed = job.prompt_len - usize::from(matches!(job.req.decode, Decode::Score { .. }));
    let room = match eng.model.config().room(fed) {
        Ok(room) => room,
        Err(e) => {
            let reason = e.to_string();
            finish(eng, job, Outcome::Failed { reason }, false);
            return id;
        }
    };
    if let Decode::Greedy { max_new, .. } | Decode::Beam { max_new, .. } = &mut job.req.decode {
        *max_new = (*max_new).min(room);
    }
    let over_queue = eng.opts.max_queue > 0 && eng.queue.len() >= eng.opts.max_queue;
    let slo_shed = !over_queue && eng.opts.slo_admission && predicts_slo_miss(eng, tenant);
    if over_queue || slo_shed {
        finish(eng, job, Outcome::Rejected, slo_shed);
        return id;
    }
    job.serial = eng.next_serial;
    eng.next_serial += 1;
    let class = eng.queue.class_index(tenant);
    eng.queue.push(class, job);
    id
}

/// SLO admission predicate: would a request submitted now for `tenant`
/// likely retire after the tenant's step target? The backlog the
/// request waits behind is everything running or quarantined plus
/// every queued request in its own or a higher tier; each `max_batch`
/// of backlog costs roughly one service generation of the current
/// estimate. Deterministic — pure integer arithmetic over queue depths.
fn predicts_slo_miss(eng: &Engine<'_>, tenant: TenantId) -> bool {
    let class = eng.class(tenant);
    if class.slo_steps == 0 {
        return false;
    }
    // Alert-coupled tightening: while this tenant's burn-rate alert
    // is firing, act as if the step budget were half its size, so
    // admission sheds earlier and the burn drains. Deterministic —
    // the alert state is itself a pure function of the schedule.
    let slo = match &eng.monitor {
        Some(m) if m.is_firing(&class.name) => (class.slo_steps / 2).max(1),
        _ => class.slo_steps,
    };
    let ahead = eng.active.len() + eng.retrying.len() + eng.queue.queued_at_or_above(class.tier);
    let generations = (ahead / eng.opts.max_batch.max(1)) as u64 + 1;
    generations.saturating_mul(eng.est_service_steps) > slo
}

/// Moves waiting jobs into free batch slots. Quarantined jobs whose
/// backoff has elapsed re-admit first (oldest wake, then id), so a retry
/// never starves behind an unbounded stream of fresh arrivals; fresh
/// requests then fill remaining slots in queue order — FIFO with a single
/// class, tier-then-weighted-fair across tenant classes.
pub(super) fn admit(eng: &mut Engine<'_>) {
    while eng.active.len() < eng.opts.max_batch {
        let retry_idx = eng
            .retrying
            .iter()
            .enumerate()
            .filter(|(_, j)| j.wake <= eng.ticks)
            .min_by_key(|(_, j)| (j.wake, j.id))
            .map(|(i, _)| i);
        let mut job = match retry_idx {
            Some(i) => eng.retrying.remove(i),
            None => match eng.queue.pop_next() {
                Some((_, job)) => job,
                None => break,
            },
        };
        if eng.cancelled.remove(&job.id) {
            finish(eng, job, Outcome::Cancelled, false);
            continue;
        }
        if job.attempt == 0 {
            let wait_ns = job.submitted.elapsed().as_nanos() as u64;
            let wait_steps = eng.ticks.saturating_sub(job.submit_tick);
            eng.stats.book_admit(job.req.tenant, wait_ns, wait_steps);
        }
        lm4db_obs::instant_for("serve/admit", job.id);
        let target = job.prefill_target();
        // Sized to the request, not the model: a beam fork inherits the
        // reservation, so nothing reallocates up to the horizon.
        let mut cache = KvCache::with_capacity(eng.model, job.horizon());
        // Always leave at least the last prefill token to feed live, so
        // the sequence has logits to select from.
        let limit = target.saturating_sub(1);
        let restored = eng
            .prefix
            .restore_into(eng.model, &job.req.prompt[..limit], &mut cache);
        eng.stats
            .add(Counter::CACHED_PREFIX_TOKENS, restored as u64);
        job.admit_tick = eng.ticks;
        job.run.score_pos = target;
        job.run.live.push(Seq {
            cache,
            ids: std::mem::take(&mut job.req.prompt),
            sched: target,
            log_prob: 0.0,
        });
        eng.active.push(job);
    }
}

/// Why `job` must leave now, if it must. A pending cancel wins over an
/// expired deadline. Step budgets only run out in the batch: a
/// quarantined job is not consuming scheduler capacity, so only
/// cancellation and wall deadlines reach it there.
fn verdict(cancelled: &mut HashSet<RequestId>, job: &Job<'_>, in_batch: bool) -> Option<Outcome> {
    if cancelled.remove(&job.id) {
        return Some(Outcome::Cancelled);
    }
    let expired = match job.req.deadline {
        Deadline::None => false,
        Deadline::Steps(left) => in_batch && left == 0,
        Deadline::Wall(t) => Instant::now() >= t,
    };
    expired.then_some(Outcome::DeadlineExpired)
}

/// Retires cancelled and deadline-expired jobs — quarantined and active —
/// with whatever partial results they have, and ticks the step deadlines
/// of the jobs that stay in the batch.
pub(super) fn sweep(eng: &mut Engine<'_>) {
    let mut i = 0;
    while i < eng.retrying.len() {
        match verdict(&mut eng.cancelled, &eng.retrying[i], false) {
            Some(outcome) => {
                let job = eng.retrying.remove(i);
                finish(eng, job, outcome, false);
            }
            None => i += 1,
        }
    }
    let mut i = 0;
    while i < eng.active.len() {
        match verdict(&mut eng.cancelled, &eng.active[i], true) {
            Some(outcome) => {
                let job = eng.active.remove(i);
                finish(eng, job, outcome, false);
            }
            None => {
                if let Deadline::Steps(left) = &mut eng.active[i].req.deadline {
                    *left -= 1;
                }
                i += 1;
            }
        }
    }
}
