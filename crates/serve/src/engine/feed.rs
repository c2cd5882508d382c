//! Stage 2 — feed: one forward pass over every live sequence's pending
//! tokens, fault quarantine for the sequences that poisoned, and prefix
//! sharing for the ones that finished prefill.

use super::request::Seq;
use super::retire::finish;
use super::{Engine, Outcome, RequestId};
use crate::stats::Counter;

/// Bounded exponential backoff in scheduler steps for retry `attempt`.
pub(super) fn backoff_steps(base: u64, attempt: u32) -> u64 {
    (base.max(1) << attempt.min(10)).min(1024)
}

/// Feeds every live sequence's pending tokens through the model, with
/// sequences fanned out across the worker pool. Each sequence mutates
/// only its own cache, and the per-sequence arithmetic is itself
/// bit-identical at any thread count, so the result does not depend on
/// batch composition or parallelism.
///
/// Runs through [`lm4db_tensor::try_parallel_tasks_mut`], so a panic
/// inside one sequence's forward pass poisons only that sequence;
/// `(request id, panic message)` pairs for the poisoned requests are
/// returned for [`quarantine`]. Token accounting happens *after* the pass
/// from each cache's actual growth, so a partially fed, poisoned sequence
/// is counted exactly.
pub(super) fn run(eng: &mut Engine<'_>) -> Vec<(RequestId, String)> {
    /// One sequence's pending feed, with the chaos-injection salt
    /// precomputed so a retry (different `attempt`) and a later feed
    /// step (different `fed`) re-roll the fault decision.
    struct Work<'s> {
        id: RequestId,
        salt: u64,
        fed: usize,
        prompt_len: usize,
        seq: &'s mut Seq,
        toks: Vec<usize>,
    }
    let model = eng.model;
    let quant = eng.quant.as_ref();
    let mut works: Vec<Work<'_>> = Vec::new();
    for job in eng.active.iter_mut() {
        let base = job.serial ^ ((job.attempt as u64) << 40);
        for seq in job.run.live.iter_mut() {
            let fed = seq.cache.len();
            if seq.sched > fed {
                works.push(Work {
                    id: job.id,
                    salt: base ^ ((fed as u64) << 20),
                    fed,
                    prompt_len: job.prompt_len,
                    toks: seq.ids[fed..seq.sched].to_vec(),
                    seq,
                });
            }
        }
    }
    let mut poisoned = Vec::new();
    if !works.is_empty() {
        let failures = lm4db_tensor::try_parallel_tasks_mut(&mut works, |_, w| {
            // Attribute everything the feed records — down to the
            // kernel leaves on this pool thread — to the request.
            let _req = lm4db_obs::request_scope(w.id);
            lm4db_fault::point("serve/feed", w.salt);
            if w.seq.spec > 0 {
                // Speculative chunk: one batched forward over the
                // fresh token plus its drafts, keeping every
                // position's logits for the verify walk.
                w.seq.step_logits = w.seq.cache.feed_many_with(model, quant, &w.toks);
            } else {
                w.seq.cache.feed_all_with(model, quant, &w.toks);
            }
        });
        for f in failures {
            poisoned.push((works[f.index].id, f.message));
        }
    }
    let mut prefill = 0u64;
    let mut decoded = 0u64;
    for w in &works {
        let grown = w.seq.cache.len().saturating_sub(w.fed);
        let pf = w.prompt_len.saturating_sub(w.fed).min(grown);
        prefill += pf as u64;
        decoded += (grown - pf) as u64;
    }
    eng.stats.add(Counter::PREFILL_TOKENS, prefill);
    eng.stats.add(Counter::DECODED_TOKENS, decoded);
    poisoned
}

/// Pulls every poisoned request out of the batch. A request with retry
/// budget left is quarantined: its half-written decode state is
/// discarded and the same job — prompt moved back into place — waits out
/// a [`backoff_steps`] delay for a from-scratch attempt. A request out of
/// budget retires with [`Outcome::Failed`] carrying the panic message.
pub(super) fn quarantine(eng: &mut Engine<'_>, failures: Vec<(RequestId, String)>) {
    for (id, reason) in failures {
        // A beam request can poison several sequences in one pass;
        // the first failure already removed it.
        let Some(i) = eng.active.iter().position(|j| j.id == id) else {
            continue;
        };
        let mut job = eng.active.remove(i);
        if job.attempt >= eng.opts.max_retries {
            finish(eng, job, Outcome::Failed { reason }, false);
            continue;
        }
        eng.stats.book_retry(job.req.tenant);
        lm4db_obs::instant_for("serve/retry", id);
        // Every live sequence starts with the prompt; reclaim it from the
        // first instead of copying.
        let mut run = std::mem::take(&mut job.run);
        job.req.prompt = run.live.swap_remove(0).ids;
        job.req.prompt.truncate(job.prompt_len);
        job.wake = eng.ticks + backoff_steps(eng.opts.retry_backoff_steps, job.attempt);
        job.attempt += 1;
        eng.retrying.push(job);
    }
}

/// After a request's prefill completes, shares its prompt positions
/// through the prefix trie so later requests with the same header skip
/// recomputing them.
pub(super) fn share_prefixes(eng: &mut Engine<'_>) {
    if !eng.prefix.enabled() {
        return;
    }
    for job in eng.active.iter_mut() {
        if job.run.inserted {
            continue;
        }
        let target = job.prefill_target();
        let Some(seq) = job.run.live.first() else {
            continue;
        };
        if seq.cache.len() >= target {
            eng.prefix.insert(eng.model, &seq.cache, target);
            job.run.inserted = true;
        }
    }
}
