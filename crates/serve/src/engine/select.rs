//! Stage 3 — select: serial, deterministic token selection over the
//! logits the feed stage just produced, one request at a time in batch
//! order.

use lm4db_transformer::generate::{argmax, log_softmax, mask_logits, top_tokens};
use lm4db_transformer::{DraftModel, GptModel, Hypothesis};

use super::request::{Job, Seq};
use super::retire::finish;
use super::{Decode, Engine, Outcome};
use crate::stats::{Counter, Stats};

/// Runs one selection round for every request in the batch, retiring the
/// ones that reach their natural end.
pub(super) fn run(eng: &mut Engine<'_>) {
    // One allow table for every masked selection of the round.
    let mut allow = Vec::new();
    let mut i = 0;
    while i < eng.active.len() {
        let _req = lm4db_obs::request_scope(eng.active[i].id);
        let done = select(
            &mut eng.active[i],
            eng.model,
            eng.draft,
            eng.opts.draft_k,
            &mut eng.stats,
            &mut allow,
        );
        if done {
            let job = eng.active.remove(i);
            finish(eng, job, Outcome::Finished, false);
        } else {
            i += 1;
        }
    }
}

/// `log p(idx)` under a softmax over `logits` — the same float operations
/// as `lm4db_lm::classify::log_softmax_at`.
pub(super) fn log_softmax_at(logits: &[f32], idx: usize) -> f32 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let logsum = logits.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
    logits[idx] - logsum
}

/// One selection round for one request: consume the freshly computed
/// logits, choose continuations, and either schedule more work (`false`)
/// or report the request finished (`true`). Runs serially — masks need
/// not be thread-safe, and the choice never depends on other requests.
///
/// For greedy requests this is the speculative **verify walk** (DESIGN.md
/// §5i). A non-speculative request (`draft_k == 0`, the default) walks a
/// single position and selects exactly like `generate::greedy`. A
/// speculative request arrives here with `seq.spec` unverified draft
/// tokens at the tail of `seq.ids`, whose per-position logits the feed
/// phase computed in one batched forward; the walk accepts the longest
/// prefix of drafts matching the transformer's own (masked) argmax at
/// each position, then discards the rest, rolls the KV cache back to the
/// verified prefix, emits the transformer's selection for the first
/// disagreeing position, and drafts a fresh lookahead. Every emitted
/// token is the transformer's argmax over its own logits at a verified
/// prefix, so output is byte-identical to non-speculative decoding.
fn select(
    job: &mut Job<'_>,
    model: &GptModel,
    draft: Option<&dyn DraftModel>,
    draft_k: usize,
    stats: &mut Stats,
    allow: &mut Vec<bool>,
) -> bool {
    let max_seq_len = model.config().max_seq_len;
    // Masks veto through the single-request decoders' own `mask_logits`,
    // so a masked request decodes byte-identically to them.
    let mask = job.req.mask;
    let run = &mut job.run;
    match job.req.decode {
        Decode::Greedy { max_new, stop } => {
            if run.out.len() >= max_new {
                return true;
            }
            let seq = &mut run.live[0];
            let spec = std::mem::take(&mut seq.spec);
            let mut chunk_logits = std::mem::take(&mut seq.step_logits);
            // `ids[..vlen]` is the verified prefix; `ids[vstart..]` are
            // the unverified drafts. `chunk_logits[vlen - vstart]` is the
            // model's output after `ids[vlen - 1]` — simultaneously the
            // selection logits at the cursor and the `last_logits` to
            // restore if the cache rolls back to `vlen`.
            let vstart = seq.ids.len() - spec;
            let mut vlen = vstart;
            loop {
                let li = vlen - vstart;
                // Borrowed where it lies; copied only for a mask to write.
                let raw: &[f32] = match chunk_logits.get(li) {
                    Some(row) => row,
                    None => seq.cache.last_logits(),
                };
                let mut masked = Vec::new();
                let logits = if mask.is_some() {
                    masked.extend_from_slice(raw);
                    if mask_logits(&mut masked, &seq.ids[..vlen], mask, allow) == 0 {
                        // Dead end: `generate::greedy` stops and returns
                        // the output so far.
                        return true;
                    }
                    &masked
                } else {
                    raw
                };
                let tok = argmax(logits);
                if tok == stop || vlen >= max_seq_len {
                    return true;
                }
                if li < spec && seq.ids[vlen] == tok {
                    // The draft agrees with the transformer's own choice:
                    // accept it and keep walking the chunk.
                    vlen += 1;
                    run.out.push(tok);
                    stats.add(Counter::DRAFT_ACCEPTED_TOKENS, 1);
                    if run.out.len() >= max_new {
                        return true;
                    }
                    continue;
                }
                // First disagreement (or the chunk is exhausted): discard
                // the unverified tail, restore the KV cache to the
                // verified prefix, and emit the transformer's selection —
                // exactly what non-speculative greedy chooses here.
                seq.ids.truncate(vlen);
                if seq.cache.len() > vlen {
                    // A cache ahead of the cursor was fed the drafts as a
                    // `keep_all` chunk, so this position's row exists; the
                    // walk ends here, so the row can move.
                    let row = std::mem::take(&mut chunk_logits[li]);
                    seq.cache.rollback(model, vlen, row);
                }
                seq.ids.push(tok);
                run.out.push(tok);
                if run.out.len() >= max_new {
                    return true;
                }
                // Draft the next lookahead with the cheap model; the next
                // scheduler step verifies the fresh token plus all drafts
                // in one batched forward. Drafts honor the grammar mask
                // too — a masked-out or stop proposal ends the lookahead
                // (stop is never scheduled for feeding).
                let mut drafted = 0;
                if let (Some(dm), true) = (draft, draft_k > 0) {
                    let budget = draft_k
                        .min(max_new - run.out.len())
                        .min(max_seq_len.saturating_sub(seq.ids.len()));
                    while drafted < budget {
                        let mut dl = dm.draft_logits(&seq.ids);
                        if mask_logits(&mut dl, &seq.ids, mask, allow) == 0 {
                            break;
                        }
                        let dt = argmax(&dl);
                        if dt == stop {
                            break;
                        }
                        seq.ids.push(dt);
                        drafted += 1;
                    }
                }
                seq.spec = drafted;
                seq.sched = seq.ids.len();
                if drafted > 0 {
                    stats.add(Counter::DRAFTED_TOKENS, drafted as u64);
                }
                return false;
            }
        }
        Decode::Beam {
            width,
            max_new,
            stop,
        } => {
            if run.rounds >= max_new {
                return true;
            }
            // Expansion candidates (parent, token, log-prob), built in the
            // same order `generate::beam` builds its candidate list so the
            // stable sort below ties identically.
            let mut specs: Vec<(usize, usize, f32)> = Vec::new();
            for (si, seq) in run.live.iter().enumerate() {
                let mut logits = seq.cache.last_logits().to_vec();
                if mask_logits(&mut logits, &seq.ids, mask, allow) == 0 {
                    continue; // dead end — drop this beam
                }
                let log_probs = log_softmax(&logits);
                for tok in top_tokens(&log_probs, width) {
                    let lp = seq.log_prob + log_probs[tok];
                    if tok == stop {
                        run.done.push(Hypothesis {
                            ids: seq.ids.clone(),
                            log_prob: lp,
                            finished: true,
                        });
                    } else {
                        specs.push((si, tok, lp));
                    }
                }
            }
            if specs.is_empty() {
                return true;
            }
            specs.sort_by(|a, b| b.2.total_cmp(&a.2));
            specs.truncate(width);
            // A parent's last child takes its KV cache; the others fork it.
            let mut children_left = vec![0usize; run.live.len()];
            for &(si, ..) in &specs {
                children_left[si] += 1;
            }
            let mut parents: Vec<Option<Seq>> = run.live.drain(..).map(Some).collect();
            let mut new_live = Vec::with_capacity(specs.len());
            for (si, tok, lp) in specs {
                children_left[si] -= 1;
                let parent = parents[si]
                    .as_ref()
                    .expect("a parent outlives its children");
                let mut ids = parent.ids.clone();
                ids.push(tok);
                if parent.ids.len() >= max_seq_len {
                    // The engine never slides the context window; a beam at
                    // the length limit parks as an unfinished hypothesis.
                    run.done.push(Hypothesis {
                        ids,
                        log_prob: lp,
                        finished: false,
                    });
                    continue;
                }
                let cache = if children_left[si] > 0 {
                    parent.cache.clone()
                } else {
                    let parent = parents[si].take();
                    parent.expect("taken by the last child only").cache
                };
                let sched = ids.len();
                new_live.push(Seq {
                    cache,
                    ids,
                    sched,
                    log_prob: lp,
                    spec: 0,
                    step_logits: Vec::new(),
                });
            }
            run.live = new_live;
            run.rounds += 1;
            run.done.len() >= width || run.rounds >= max_new || run.live.is_empty()
        }
        Decode::Score { .. } => {
            let seq = &mut run.live[0];
            let tok = seq.ids[run.score_pos];
            run.score += log_softmax_at(seq.cache.last_logits(), tok);
            run.score_pos += 1;
            if run.score_pos >= seq.ids.len() {
                return true;
            }
            seq.sched = run.score_pos;
            false
        }
    }
}
