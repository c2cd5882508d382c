//! The seven application workloads and their prompt shapes.
//!
//! The tutorial's thesis is one model behind many data-management tasks,
//! so a credible traffic mix samples across all of them. Each workload
//! synthesizes prompts with the shape its real counterpart produces: a
//! *shared instruction/schema header* (deterministic per workload, so the
//! serve engine's prefix cache sees the same locality a production
//! deployment would) followed by a short per-request tail, and a decode
//! strategy matching how the application actually drives the engine
//! (constrained beam for text-to-SQL, greedy synthesis for codegen,
//! teacher-forced scoring for LM probability queries).

use lm4db_serve::Request;
use lm4db_tokenize::BOS;

use crate::rng::Rng;

/// One of the seven LM4DB application workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// NL→SQL translation (beam search, PICARD-style constraints).
    Text2Sql,
    /// Data wrangling: matching / imputation / error detection.
    Wrangle,
    /// AggChecker-style claim verification.
    FactCheck,
    /// CodexDB-style program synthesis.
    CodeGen,
    /// Facts-as-sentences neural database reads.
    NeuralDb,
    /// Goal-driven NL data summarization.
    Summarize,
    /// Raw LM service: continuation log-probability scoring.
    Lm,
}

impl Workload {
    /// All seven workloads, in the canonical mix-vector order.
    pub const ALL: [Workload; 7] = [
        Workload::Text2Sql,
        Workload::Wrangle,
        Workload::FactCheck,
        Workload::CodeGen,
        Workload::NeuralDb,
        Workload::Summarize,
        Workload::Lm,
    ];

    /// Stable short name (used in stats tables and fingerprints).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Text2Sql => "text2sql",
            Workload::Wrangle => "wrangle",
            Workload::FactCheck => "factcheck",
            Workload::CodeGen => "codegen",
            Workload::NeuralDb => "neuraldb",
            Workload::Summarize => "summarize",
            Workload::Lm => "lm",
        }
    }

    /// Index into [`Workload::ALL`].
    pub fn index(self) -> usize {
        Workload::ALL.iter().position(|&w| w == self).unwrap()
    }

    /// Fraction of `max_prompt` taken by the shared header: instruction-
    /// heavy workloads (text2sql schema dumps, codegen task descriptions)
    /// carry longer common prefixes than point lookups.
    fn header_share(self) -> f64 {
        match self {
            Workload::Text2Sql | Workload::CodeGen => 0.6,
            Workload::Wrangle | Workload::Summarize => 0.45,
            Workload::FactCheck | Workload::NeuralDb => 0.3,
            Workload::Lm => 0.2,
        }
    }
}

/// Bounds the generator must respect for the model being driven.
#[derive(Debug, Clone, Copy)]
pub struct PromptShape {
    /// Vocabulary size; sampled tokens stay in `[4, vocab)` so the
    /// specials (PAD/UNK/BOS/EOS) never appear mid-prompt.
    pub vocab: usize,
    /// Longest prompt the generator emits (≤ the model's `max_seq_len`;
    /// leave headroom for generated tokens).
    pub max_prompt: usize,
    /// Decode budget ceiling per request.
    pub max_new: usize,
}

/// Deterministic shared header for `(workload, shape)`: the same tokens
/// for every request of the workload, mimicking a fixed instruction/schema
/// preamble. Seeded by the workload index only, so two tenants running the
/// same workload share prefix-cache locality.
fn header(w: Workload, shape: &PromptShape) -> Vec<usize> {
    let span = shape.vocab.saturating_sub(4).max(1);
    let len = ((shape.max_prompt as f64 * w.header_share()) as usize).max(1);
    let mut rng = Rng::derive(0xB007, &[w.index() as u64]);
    let mut h = Vec::with_capacity(len + 1);
    h.push(BOS);
    for _ in 0..len.saturating_sub(1) {
        h.push(4 + rng.below(span as u64) as usize);
    }
    h
}

/// Samples one prompt for `w`: the shared header plus a random tail of at
/// least one token, capped at `shape.max_prompt` total.
pub(crate) fn sample_prompt(w: Workload, shape: &PromptShape, rng: &mut Rng) -> Vec<usize> {
    let mut p = header(w, shape);
    let span = shape.vocab.saturating_sub(4).max(1) as u64;
    let room = shape.max_prompt.saturating_sub(p.len()).max(1);
    let tail = 1 + rng.below(room as u64) as usize;
    for _ in 0..tail {
        p.push(4 + rng.below(span) as usize);
    }
    p.truncate(shape.max_prompt.max(2));
    p
}

/// Builds the serve-engine request a workload issues for `prompt`.
///
/// The stop token is `usize::MAX` (never emitted) so service time is a
/// function of the decode budget alone — open-loop experiments need the
/// per-request cost distribution to be workload-shaped, not
/// model-weight-shaped.
pub(crate) fn build_request(
    w: Workload,
    prompt: Vec<usize>,
    max_new: usize,
    rng: &mut Rng,
) -> Request<'static> {
    const STOP: usize = usize::MAX;
    let budget = 1 + rng.below(max_new.max(1) as u64) as usize;
    match w {
        Workload::Text2Sql => Request::beam(prompt, 2, budget, STOP),
        Workload::Lm => {
            // Scoring needs a non-empty prefix and continuation; split the
            // prompt one token before the end.
            let split = prompt.len() - 1;
            Request::score(&prompt[..split], &prompt[split..])
        }
        _ => Request::greedy(prompt, budget, STOP),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PromptShape {
        PromptShape {
            vocab: 64,
            max_prompt: 12,
            max_new: 4,
        }
    }

    #[test]
    fn headers_are_deterministic_and_workload_specific() {
        let s = shape();
        for w in Workload::ALL {
            assert_eq!(header(w, &s), header(w, &s));
            assert_eq!(header(w, &s)[0], BOS);
        }
        assert_ne!(header(Workload::Text2Sql, &s), header(Workload::Lm, &s));
    }

    #[test]
    fn prompts_respect_shape_bounds() {
        let s = shape();
        let mut rng = Rng::new(1);
        for w in Workload::ALL {
            for _ in 0..64 {
                let p = sample_prompt(w, &s, &mut rng);
                assert!(p.len() >= 2, "{w:?} prompt too short: {p:?}");
                assert!(p.len() <= s.max_prompt, "{w:?} prompt too long");
                assert!(p[1..].iter().all(|&t| (4..s.vocab).contains(&t)));
            }
        }
    }

    #[test]
    fn workload_index_roundtrips() {
        for (i, w) in Workload::ALL.iter().enumerate() {
            assert_eq!(w.index(), i);
            assert!(!w.name().is_empty());
        }
    }
}
