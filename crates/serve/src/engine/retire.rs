//! Stage 4 — retire: the single exit. Every terminal route through the
//! engine ends in [`finish`], which builds the response from whatever the
//! job has produced and books the outcome exactly once.

use lm4db_transformer::Hypothesis;

use super::request::Job;
use super::{Decode, Engine, Outcome, Response};
use crate::stats::Retirement;

/// Retires `job` with `outcome`. The routes differ only in data: a job
/// that held a batch slot at least once (`admit_tick > 0`) counts in its
/// tenant's step-latency distribution, one that never did (failed
/// validation, shed, cancelled while queued) does not; `slo_shed` marks a
/// rejection decided by SLO admission rather than the queue bound; and a
/// finished job feeds the SLO service-time estimator.
pub(super) fn finish(eng: &mut Engine<'_>, mut job: Job<'_>, outcome: Outcome, slo_shed: bool) {
    match outcome {
        // Feed the SLO estimator: a deterministic integer EWMA of
        // admit→retire service steps (weight 1/4 on the newest
        // observation, floor 1 so the estimate never collapses).
        Outcome::Finished => {
            let service = eng.ticks.saturating_sub(job.admit_tick).max(1);
            eng.est_service_steps = ((3 * eng.est_service_steps + service) / 4).max(1);
        }
        Outcome::Failed { .. } => lm4db_obs::instant_for("serve/request_failed", job.id),
        Outcome::Rejected => lm4db_obs::instant_for("serve/shed", job.id),
        Outcome::Cancelled | Outcome::DeadlineExpired => {}
    }
    let tenant = job.req.tenant;
    let retirement = Retirement {
        tenant,
        outcome: &outcome,
        latency_ns: job.submitted.elapsed().as_nanos() as u64,
        latency_steps: (job.admit_tick > 0).then(|| eng.ticks.saturating_sub(job.submit_tick)),
        slo_shed,
        slo_steps: eng.class(tenant).slo_steps,
    };
    eng.stats.book_retire(retirement);
    lm4db_obs::instant_for("serve/retire", job.id);
    let resp = respond(&mut job, outcome);
    eng.finished.push(resp);
}

/// Builds the final response for `job` with whatever it has produced
/// (nothing, for a job that never reached the batch or was reset by
/// quarantine).
fn respond(job: &mut Job<'_>, outcome: Outcome) -> Response {
    let mut resp = Response {
        id: job.id,
        outcome,
        tokens: Vec::new(),
        hyps: Vec::new(),
        score: 0.0,
    };
    match job.req.decode {
        Decode::Greedy { .. } => resp.tokens = std::mem::take(&mut job.run.out),
        Decode::Beam { width, .. } => {
            resp.hyps = finish_hyps(job, width);
            if let Some(h) = resp.hyps.first() {
                resp.tokens = h.ids[job.prompt_len.min(h.ids.len())..].to_vec();
            }
        }
        Decode::Score { .. } => resp.score = job.run.score,
    }
    resp
}

/// Merges live and finished hypotheses with the exact ranking of
/// [`lm4db_transformer::beam`]: finished first, then by length-normalized
/// log-probability, truncated to the beam width.
fn finish_hyps(job: &mut Job<'_>, width: usize) -> Vec<Hypothesis> {
    let mut done = std::mem::take(&mut job.run.done);
    done.extend(job.run.live.drain(..).map(|s| Hypothesis {
        ids: s.ids,
        log_prob: s.log_prob,
        finished: false,
    }));
    let prompt_len = job.prompt_len;
    let norm = |h: &Hypothesis| {
        let gen_len = (h.ids.len() - prompt_len + usize::from(h.finished)).max(1);
        h.log_prob / gen_len as f32
    };
    done.sort_by(|a, b| {
        b.finished
            .cmp(&a.finished)
            .then_with(|| norm(b).total_cmp(&norm(a)))
    });
    done.truncate(width);
    done
}
