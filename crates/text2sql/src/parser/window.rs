//! The context-window rule on every GPT decode path. Over prompt lengths
//! {1, W−1, W, W+1, 2W} × budgets {0, 1, W} × {greedy, beam, score}, the
//! engine, `greedy_cached`, the reference `greedy` / `beam` /
//! `score_continuation` over an `IncrementalSession` capped by
//! `ModelConfig::room`, and `TrieLm` (its engine beams, and its sampler
//! at top-k 1, which is greedy) never panic, return the same tokens,
//! hypotheses and score bits, and refuse the same prompts with the same
//! error.

use std::sync::OnceLock;

use lm4db_lm::score_continuation;
use lm4db_serve::{Engine, Outcome, Request, Response};
use lm4db_tensor::Rand;
use lm4db_tokenize::{vocab::SPECIAL_TOKENS, BOS, EOS};
use lm4db_transformer::{
    beam, greedy, greedy_cached, ContextError, Hypothesis, IncrementalSession, ModelConfig,
    SampleOptions, TokenMask,
};
use proptest::prelude::*;

use super::{TrieConstraint, TrieLm};
use crate::trie::SqlTrie;

/// The window of the model under test.
const W: usize = 16;
const LENS: [usize; 5] = [1, W - 1, W, W + 1, 2 * W];
const BUDGETS: [usize; 3] = [0, 1, W];

/// A `TrieLm` with a 16-token window, fine-tuned a little so that EOS is
/// the argmax now and then.
fn lm() -> &'static TrieLm {
    static LM: OnceLock<TrieLm> = OnceLock::new();
    LM.get_or_init(|| {
        let pairs = [
            ("names", "select name from emp"),
            ("count", "select count ( * ) from emp"),
            ("sales", "select name from emp where dept = sales"),
        ];
        let mut trie = SqlTrie::default();
        pairs.iter().for_each(|(_, sql)| trie.insert(sql));
        let lines: Vec<String> = pairs
            .iter()
            .map(|(q, sql)| TrieLm::line(("q", "a"), q, sql))
            .collect();
        let cfg = ModelConfig {
            max_seq_len: W,
            ..ModelConfig::test()
        };
        let mut lm = TrieLm::new(cfg, ("q", "a"), &lines, trie, 80, 11);
        lm.fit(&lines, 4, 3, 1e-2);
        lm
    })
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Greedy,
    Beam { width: usize, constrained: bool },
    Score,
}

/// `len` random non-special ids: the rule is about lengths, so the
/// content is arbitrary.
fn tokens(len: usize, rng: &mut Rand) -> Vec<usize> {
    let vocab = lm().gpt.config().vocab_size;
    (0..len)
        .map(|_| SPECIAL_TOKENS.len() + rng.below(vocab - SPECIAL_TOKENS.len()))
        .collect()
}

/// One request through its own engine: the response, or the reason the
/// engine failed it.
fn serve(req: Request<'_>) -> Result<Response, String> {
    let r = Engine::new(&lm().gpt).generate_batch(vec![req]).remove(0);
    match r.outcome {
        Outcome::Finished => Ok(r),
        Outcome::Failed { reason } => Err(reason),
        other => panic!("unexpected outcome {other:?}"),
    }
}

fn bits(hyps: &[Hypothesis]) -> Vec<(Vec<usize>, bool, u32)> {
    hyps.iter()
        .map(|h| (h.ids.clone(), h.finished, h.log_prob.to_bits()))
        .collect()
}

/// Runs one grid cell through every path and asserts they agree.
fn check(len: usize, budget: usize, kind: Kind, rng: &mut Rand) {
    let lm = lm();
    let m = &lm.gpt;
    let ctx = format!("prompt {len}, budget {budget}, {kind:?}");
    let mut prompt = vec![BOS];
    prompt.extend(tokens(len - 1, rng));
    match kind {
        Kind::Greedy => {
            let want: Result<Vec<usize>, ContextError> = m.config().room(len).map(|room| {
                let mut session = IncrementalSession::new(m);
                greedy(&mut session, &prompt, budget.min(room), EOS, None)
            });
            if let Ok(out) = &want {
                assert!(out.len() <= budget && len + out.len() <= W + 1, "{ctx}");
            }
            let engine = serve(Request::greedy(prompt.clone(), budget, EOS)).map(|r| r.tokens);
            assert_eq!(engine, want.clone().map_err(|e| e.to_string()), "{ctx}");
            let cached = greedy_cached(m, &prompt, budget, EOS);
            assert_eq!(cached, want.clone().unwrap_or_default(), "{ctx}");
            let top1 = SampleOptions {
                top_k: 1,
                ..SampleOptions::default()
            };
            let sampled = lm.sample(&prompt, budget, &top1, &mut Rand::seeded(5));
            assert_eq!(sampled, want, "{ctx}");
        }
        Kind::Beam { width, constrained } => {
            let mask = TrieConstraint::new(&lm.bpe, &lm.trie, &lm.spellings, len);
            let mask = constrained.then_some(&mask as &dyn TokenMask);
            let want = m.config().room(len).map(|room| {
                let mut session = IncrementalSession::new(m);
                bits(&beam(
                    &mut session,
                    &prompt,
                    width,
                    budget.min(room),
                    EOS,
                    mask,
                ))
            });
            if let Ok(hyps) = &want {
                assert!(hyps.iter().all(|(ids, ..)| ids.len() <= W + 1), "{ctx}");
            }
            let req = Request {
                mask,
                ..Request::beam(prompt.clone(), width, budget, EOS)
            };
            let engine = serve(req).map(|r| bits(&r.hyps));
            assert_eq!(engine, want.clone().map_err(|e| e.to_string()), "{ctx}");
            let (mut via_lm, _) = lm.beams(&[prompt], width, budget, constrained);
            let via_lm = via_lm.remove(0).map(|h| bits(&h));
            assert_eq!(via_lm, want, "{ctx}");
        }
        Kind::Score => {
            // An empty continuation is API misuse (the engine asserts).
            if budget == 0 {
                return;
            }
            let cont = tokens(budget, rng);
            // The last continuation token is predicted, never fed.
            let want = m.config().room(len + budget - 1).map(|_| {
                let mut session = IncrementalSession::new(m);
                score_continuation(&mut session, &prompt, &cont).to_bits()
            });
            let engine = serve(Request::score(&prompt, &cont)).map(|r| r.score.to_bits());
            assert_eq!(engine, want.map_err(|e| e.to_string()), "{ctx}");
        }
    }
}

fn kind(index: usize, width: usize, constrained: bool) -> Kind {
    match index {
        0 => Kind::Greedy,
        1 => Kind::Beam { width, constrained },
        _ => Kind::Score,
    }
}

#[test]
fn every_cell_of_the_grid_agrees_on_every_path() {
    let mut rng = Rand::seeded(43);
    for len in LENS {
        for budget in BUDGETS {
            check(len, budget, Kind::Greedy, &mut rng);
            check(len, budget, Kind::Score, &mut rng);
            for (width, constrained) in [(1, false), (3, false), (3, true)] {
                check(len, budget, Kind::Beam { width, constrained }, &mut rng);
            }
        }
    }
}

proptest! {
    /// The grid again, on random prompts, beam widths and masks.
    #[test]
    fn window_rule_holds_on_random_prompts(
        cell in (0usize..5, 0usize..3, 0usize..3),
        width in 1usize..5,
        constrained in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (len, budget, k) = cell;
        let mut rng = Rand::seeded(seed);
        check(LENS[len], BUDGETS[budget], kind(k, width, constrained), &mut rng);
    }
}

#[test]
fn twelve_tokens_into_a_window_of_sixteen_leave_room_for_five() {
    // A 12-token prompt leaves room for 16 + 1 − 12 = 5 tokens, and
    // this prompt's decode meets no EOS first: only the window ends it.
    let lm = lm();
    let m = &lm.gpt;
    let mut prompt = vec![BOS];
    prompt.extend(tokens(11, &mut Rand::seeded(0)));
    let want = greedy_cached(m, &prompt, 10, EOS);
    assert_eq!(want.len(), 5);
    assert_eq!(Engine::new(m).greedy(&prompt, 10, EOS), want);
    let room = m.config().room(prompt.len()).unwrap();
    let mut session = IncrementalSession::new(m);
    assert_eq!(greedy(&mut session, &prompt, 10.min(room), EOS, None), want);
    let mut session = IncrementalSession::new(m);
    let hyps = beam(&mut session, &prompt, 1, 10.min(room), EOS, None);
    assert_eq!(hyps[0].ids[prompt.len()..], want[..]);
    assert_eq!(
        Engine::new(m).beam(&prompt, 1, 10, EOS, None)[0].ids,
        hyps[0].ids
    );
    let top1 = SampleOptions {
        top_k: 1,
        ..SampleOptions::default()
    };
    assert_eq!(
        lm.sample(&prompt, 10, &top1, &mut Rand::seeded(5)),
        Ok(want)
    );
}
