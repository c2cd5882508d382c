//! Stage 2 — feed: one stacked forward over every live sequence's pending
//! tokens — decode rows, whole prefill chunks and beam siblings alike — cut
//! into row groups that fan out across the pool, fault quarantine for the
//! sequences that poisoned, and prefix sharing for the ones that finished
//! prefill.

use std::time::Instant;

use lm4db_tensor::kernels::ROW_TILE;
use lm4db_transformer::{feed_stack, GptModel, StackEntry};

use super::request::Seq;
use super::retire::finish;
use super::{Engine, Outcome, RequestId};
use crate::stats::Counter;

/// Bounded exponential backoff in scheduler steps for retry `attempt`.
pub(super) fn backoff_steps(base: u64, attempt: u32) -> u64 {
    (base.max(1) << attempt.min(10)).min(1024)
}

/// One sequence's pending feed: `seq.ids[fed..seq.sched]`.
struct Work<'s> {
    id: RequestId,
    fed: usize,
    prompt_len: usize,
    seq: &'s mut Seq,
}

/// Cuts a step's stack — `rows[i]` pending rows for sequence `i`, in batch
/// order — into contiguous groups, returning each group's length in
/// sequences. A group closes as soon as it holds a full kernel row tile:
/// that is where one weight sweep starts paying for several rows, and more
/// groups are more work to spread over the pool. A pure function of the
/// batch — never of the thread count — so which sequences share a group,
/// and with it every fault outcome, is the same on any pool.
pub(super) fn group_lens(rows: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut lens = Vec::new();
    let (mut len, mut stacked) = (0, 0);
    for r in rows {
        len += 1;
        stacked += r;
        if stacked >= ROW_TILE {
            lens.push(len);
            (len, stacked) = (0, 0);
        }
    }
    if len > 0 {
        lens.push(len);
    }
    lens
}

/// Rolls one sequence's `serve/feed` chaos point, returning the panic
/// message when it fires. Runs before any cache is touched, so an injected
/// fault poisons this sequence alone and its would-be group-mates advance.
fn gate(id: RequestId, salt: u64) -> Result<(), String> {
    std::panic::catch_unwind(|| {
        // The injector's own events (`fault_injected`) belong to the
        // request.
        let _req = lm4db_obs::request_scope(id);
        lm4db_fault::point("serve/feed", salt);
    })
    .map_err(|payload| lm4db_tensor::panic_message(payload.as_ref()))
}

/// One group's stacked forward. Selection reads only each sequence's last
/// logits, which the stack leaves in its cache.
fn forward(model: &GptModel, group: &mut [Work<'_>]) {
    let started = lm4db_obs::events_enabled().then(Instant::now);
    let mut entries: Vec<StackEntry<'_>> = group
        .iter_mut()
        .map(|w| StackEntry {
            cache: &mut w.seq.cache,
            tokens: &w.seq.ids[w.fed..w.seq.sched],
            keep_all: false,
        })
        .collect();
    feed_stack(model, None, &mut entries);
    // Each member request books the group's interval as its feed phase of
    // this step: co-stacked requests share the forward, so they share its
    // wall time too (a beam's siblings book it once).
    if let Some(started) = started {
        let ns = started.elapsed().as_nanos() as u64;
        let mut last = None;
        for w in group.iter() {
            if last.replace(w.id) != Some(w.id) {
                lm4db_obs::complete_for("kv/feed_all", w.id, ns);
            }
        }
    }
}

/// Feeds every live sequence's pending tokens through the model as one
/// stack per step: the rows of all sequences share each weight sweep (see
/// [`feed_stack`]), in [`group_lens`] groups fanned out across the worker
/// pool — one dispatch per step. Each sequence's rows are bit-identical to
/// feeding it alone, so the result does not depend on batch composition or
/// parallelism.
///
/// Fault isolation has two granularities. The per-sequence `serve/feed`
/// chaos point fires in a [`gate`] ahead of the stack and poisons only its
/// own sequence. A panic inside a group's forward — the fan-out runs
/// through [`lm4db_tensor::try_parallel_tasks_mut`] — leaves every cache of
/// that group half-written, so it poisons exactly that group's sequences.
/// `(request id, panic message)` pairs for the poisoned requests are
/// returned for [`quarantine`]. Token accounting happens *after* the pass
/// from each cache's actual growth, so a poisoned sequence counts nothing.
pub(super) fn run(eng: &mut Engine<'_>) -> Vec<(RequestId, String)> {
    let model = eng.model;
    let mut poisoned = Vec::new();
    let mut works: Vec<Work<'_>> = Vec::new();
    for job in eng.active.iter_mut() {
        let base = job.serial ^ ((job.attempt as u64) << 40);
        for seq in job.run.live.iter_mut() {
            let fed = seq.cache.len();
            if seq.sched <= fed {
                continue;
            }
            // The salt folds in the attempt and the feed position, so a
            // retry and a later step re-roll the fault decision.
            match gate(job.id, base ^ ((fed as u64) << 20)) {
                Ok(()) => works.push(Work {
                    id: job.id,
                    fed,
                    prompt_len: job.prompt_len,
                    seq,
                }),
                Err(message) => poisoned.push((job.id, message)),
            }
        }
    }
    let mut groups: Vec<&mut [Work<'_>]> = Vec::new();
    let mut rest = &mut works[..];
    for len in group_lens(rest.iter().map(|w| w.seq.sched - w.fed)) {
        let (group, tail) = rest.split_at_mut(len);
        groups.push(group);
        rest = tail;
    }
    let failures = lm4db_tensor::try_parallel_tasks_mut(&mut groups, |_, g| forward(model, g));
    for f in failures {
        poisoned.extend(groups[f.index].iter().map(|w| (w.id, f.message.clone())));
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
