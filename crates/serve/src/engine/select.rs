//! Stage 3 — select: serial, deterministic token selection over the
//! logits the feed stage just produced, one request at a time in batch
//! order.

use lm4db_transformer::generate::{argmax, log_softmax, log_softmax_at, mask_logits, top_tokens};
use lm4db_transformer::Hypothesis;

use super::request::{Job, Seq};
use super::retire::finish;
use super::{Decode, Engine, Outcome};

/// Runs one selection round for every request in the batch, retiring the
/// ones that reach their natural end.
pub(super) fn run(eng: &mut Engine<'_>) {
    // One allow table for every masked selection of the round.
    let mut allow = Vec::new();
    let mut i = 0;
    while i < eng.active.len() {
        let _req = lm4db_obs::request_scope(eng.active[i].id);
        let done = select(&mut eng.active[i], &mut allow);
        if done {
            let job = eng.active.remove(i);
            finish(eng, job, Outcome::Finished, false);
        } else {
            i += 1;
        }
    }
}

/// One selection round for one request: consume the freshly computed
/// logits, choose continuations, and either schedule more work (`false`)
/// or report the request finished (`true`). Runs serially — masks need
/// not be thread-safe, and the choice never depends on other requests.
///
/// Greedy selects one token per step exactly like `generate::greedy`:
/// mask, argmax over the logits the feed stage left in the cache, then the
/// stop check. No stage here compares a length with the window: admission
/// capped `max_new` with `ModelConfig::room`, so a budget that runs out
/// never leaves a token to feed past `max_seq_len`.
fn select(job: &mut Job<'_>, allow: &mut Vec<bool>) -> bool {
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
            // Borrowed where it lies; copied only for a mask to write.
            let raw = seq.cache.last_logits();
            let mut masked = Vec::new();
            let logits = if mask.is_some() {
                masked.extend_from_slice(raw);
                if mask_logits(&mut masked, &seq.ids, mask, allow) == 0 {
                    // Dead end: `generate::greedy` stops and returns the
                    // output so far.
                    return true;
                }
                &masked
            } else {
                raw
            };
            let tok = argmax(logits);
            if tok == stop {
                return true;
            }
            seq.ids.push(tok);
            run.out.push(tok);
            if run.out.len() >= max_new {
                return true;
            }
            seq.sched = seq.ids.len();
            false
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
