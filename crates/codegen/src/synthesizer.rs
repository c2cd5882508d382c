//! The CodexDB loop: a causal LM maps instructions to pipeline programs;
//! candidates are validated by *executing* them, and failed attempts are
//! retried with stochastic re-sampling — or avoided entirely with
//! grammar-constrained decoding.
//!
//! **Fault isolation** (DESIGN.md §5f). Validation runs under
//! `catch_unwind`, so a panicking interpreter (or an `LM4DB_FAULTS`
//! injection at the `codegen/validate` site) counts as one validation
//! failure instead of crashing the synthesis loop. On top of that,
//! [`Synthesizer::synthesize_resilient`] wraps the retry loop in a
//! circuit breaker: after [`BreakerOptions::threshold`] consecutive
//! validation failures the breaker *opens* and calls divert to the
//! grammar-constrained path (which always yields a runnable program);
//! after [`BreakerOptions::cooldown`] diverted calls a half-open probe
//! retries the normal loop, closing the breaker on success.

use lm4db_fault::Breaker;
use lm4db_sql::Catalog;
use lm4db_tensor::Rand;
use lm4db_text2sql::{SqlTrie, TrieLm};
use lm4db_transformer::{ContextError, ModelConfig, SampleOptions};

use crate::dsl::{parse_pipeline, Pipeline};
use crate::instructions::Task;
use crate::interp::run_pipeline;

/// Outcome of one synthesis attempt sequence.
#[derive(Debug, Clone, Default)]
pub struct Synthesis {
    /// The accepted program, if any attempt executed successfully.
    pub pipeline: Option<Pipeline>,
    /// Raw text of the final attempt.
    pub raw: String,
    /// Number of attempts consumed (1 = first try).
    pub attempts: usize,
    /// Whether the circuit breaker diverted this call to the constrained
    /// fallback path instead of the normal synthesize/validate loop.
    pub fallback: bool,
    /// Why no attempt ran: the instruction's prompt does not fit the
    /// model's window (`attempts` is 0).
    pub refused: Option<ContextError>,
}

impl Synthesis {
    /// The answer to an instruction whose prompt the window cannot hold.
    fn refusal(e: ContextError) -> Self {
        let refused = Some(e);
        Synthesis {
            refused,
            ..Synthesis::default()
        }
    }
}

/// Circuit-breaker tuning for [`Synthesizer::synthesize_resilient`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerOptions {
    /// Consecutive validation failures (counted per attempt, across
    /// calls) that open the breaker.
    pub threshold: u32,
    /// Diverted calls to serve from the constrained fallback before a
    /// half-open probe re-tries the normal loop.
    pub cooldown: u32,
}

impl Default for BreakerOptions {
    fn default() -> Self {
        BreakerOptions {
            threshold: 6,
            cooldown: 4,
        }
    }
}

impl BreakerOptions {
    /// The breaker these options describe on the call-serial tick: opened
    /// by call `n`, it diverts calls `n+1 ..= n+cooldown`, then probes.
    fn breaker(self) -> Breaker {
        Breaker::new(self.threshold, u64::from(self.cooldown) + 1)
    }
}

/// GPT-based program synthesizer for one domain: a [`TrieLm`] with the
/// `i` / `p` tags, plus CodexDB's retry loop, validation and breaker.
pub struct Synthesizer {
    lm: TrieLm,
    /// Constrained decoding's budget: 2 plus the longest program's length,
    /// so a beam can finish any program even spelled a character per token.
    constrained_max_new: usize,
    rng: Rand,
    breaker: Breaker,
    /// The breaker's tick: `synthesize_resilient` calls so far.
    breaker_tick: u64,
    /// Monotonic attempt counter salting the `codegen/validate` fault
    /// site, so a chaos run's injections are deterministic per attempt.
    attempt_serial: u64,
}

impl Synthesizer {
    const TAGS: (&'static str, &'static str) = ("i", "p");

    /// Builds the synthesizer: BPE over instruction/program texts plus the
    /// enumerated program space, and a trie for constrained decoding.
    pub fn new(cfg: ModelConfig, tasks: &[Task], programs: &[String], seed: u64) -> Self {
        let mut texts: Vec<String> = tasks.iter().map(Self::serialize).collect();
        texts.extend(programs.iter().cloned());
        let mut trie = SqlTrie::default();
        for p in programs {
            trie.insert(p);
        }
        let constrained_max_new = trie.all_queries().iter().map(|q| q.len() + 2).max();
        Synthesizer {
            lm: TrieLm::new(cfg, Self::TAGS, &texts, trie, 700, seed),
            constrained_max_new: constrained_max_new.unwrap_or(48),
            rng: Rand::seeded(seed ^ 0x5eed),
            breaker: BreakerOptions::default().breaker(),
            breaker_tick: 0,
            attempt_serial: 0,
        }
    }

    /// Overrides the circuit-breaker tuning (builder-style).
    pub fn with_breaker(mut self, opts: BreakerOptions) -> Self {
        self.breaker = opts.breaker();
        self
    }

    /// Whether the circuit breaker is currently open (calls to
    /// [`Synthesizer::synthesize_resilient`] divert to the constrained
    /// fallback).
    pub fn breaker_open(&self) -> bool {
        !self.breaker.routable()
    }

    /// Serializes a task into the fine-tuning text format.
    pub fn serialize(task: &Task) -> String {
        TrieLm::line(Self::TAGS, &task.instruction, &task.program)
    }

    /// Fine-tunes on tasks; returns the final-epoch mean loss.
    pub fn fit(&mut self, tasks: &[Task], epochs: usize, batch_size: usize, lr: f32) -> f32 {
        let lines: Vec<String> = tasks.iter().map(Self::serialize).collect();
        self.lm.fit(&lines, epochs, batch_size, lr)
    }

    /// Constrained synthesis: one beam-search pass over the program trie.
    /// The result always parses and executes (or is `None` when the beam
    /// dies, which cannot happen on a consistent trie, or when the prompt
    /// does not fit the window: see [`Synthesis::refused`]).
    pub fn synthesize_constrained(&mut self, instruction: &str, catalog: &Catalog) -> Synthesis {
        let _span = lm4db_obs::span("codegen_constrained");
        let prompt = [self.lm.prompt_ids(instruction)];
        let (mut beams, _) = self.lm.beams(&prompt, 3, self.constrained_max_new, true);
        let hyps = match beams.pop().expect("one prompt, one answer") {
            Ok(hyps) => hyps,
            Err(e) => return Synthesis::refusal(e),
        };
        lm4db_obs::counter_add("codegen/attempts", 1);
        let Some((raw, program)) = self.lm.best(&hyps, prompt[0].len()) else {
            return Synthesis {
                attempts: 1,
                ..Synthesis::default()
            };
        };
        // Validation (parse + execute) timed separately from decoding: in
        // the CodexDB loop that split is the whole story.
        let pipeline = lm4db_obs::time("codegen_validate", || {
            program
                .and_then(|p| parse_pipeline(p).ok())
                .filter(|p| run_pipeline(p, catalog).is_ok())
        });
        if pipeline.is_some() {
            lm4db_obs::counter_add("codegen/accepted", 1);
        } else {
            lm4db_obs::counter_add("codegen/validation_failures", 1);
        }
        Synthesis {
            pipeline,
            raw,
            attempts: 1,
            ..Synthesis::default()
        }
    }

    /// Parse-and-execute validation under `catch_unwind`: a panic inside
    /// the parser or interpreter — including an injected `LM4DB_FAULTS`
    /// panic at the `codegen/validate` site — counts as one validation
    /// failure instead of unwinding through the synthesis loop.
    fn guarded_validate(&mut self, raw: &str, catalog: &Catalog) -> Option<Pipeline> {
        let serial = self.attempt_serial;
        self.attempt_serial += 1;
        lm4db_obs::time("codegen_validate", || {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lm4db_fault::point("codegen/validate", serial);
                parse_pipeline(&normalize_program(raw))
                    .ok()
                    .filter(|p| run_pipeline(p, catalog).is_ok())
            }));
            match attempt {
                Ok(p) => p,
                Err(_) => {
                    lm4db_obs::counter_add("codegen/validation_panics", 1);
                    None
                }
            }
        })
    }

    /// Unconstrained synthesis with CodexDB's retry loop: greedy beam first,
    /// then up to `max_retries - 1` stochastic re-samples; the first
    /// candidate that parses AND executes is accepted. An instruction whose
    /// prompt the window cannot hold returns at once, with the reason and
    /// no attempt.
    pub fn synthesize_with_retries(
        &mut self,
        instruction: &str,
        catalog: &Catalog,
        max_retries: usize,
    ) -> Synthesis {
        let _span = lm4db_obs::span("codegen_retries");
        let prompt = self.lm.prompt_ids(instruction);
        let mut last_raw = String::new();
        for attempt in 1..=max_retries.max(1) {
            // Each generate→validate round is its own span, and the instant
            // carries the attempt number — at LM4DB_TRACE=2 a retry storm
            // reads as repeated codegen_attempt intervals on the timeline.
            let _attempt_span = lm4db_obs::span("codegen_attempt");
            lm4db_obs::instant_arg("codegen/attempt", attempt as u64);
            let raw = match self.candidate(&prompt, attempt) {
                Ok(raw) => raw,
                Err(e) => return Synthesis::refusal(e),
            };
            lm4db_obs::counter_add("codegen/attempts", 1);
            // No beam: the engine failed the request (an injected fault).
            let Some(raw) = raw else { continue };
            last_raw = raw.clone();
            let validated = self.guarded_validate(&raw, catalog);
            if let Some(pipeline) = validated {
                lm4db_obs::counter_add("codegen/accepted", 1);
                return Synthesis {
                    pipeline: Some(pipeline),
                    raw,
                    attempts: attempt,
                    ..Synthesis::default()
                };
            }
            // Candidate parsed-but-failed or failed to parse: both are
            // validation failures that trigger CodexDB's re-sample.
            lm4db_obs::counter_add("codegen/validation_failures", 1);
        }
        Synthesis {
            raw: last_raw,
            attempts: max_retries.max(1),
            ..Synthesis::default()
        }
    }

    /// Attempt `attempt`'s raw candidate: the best unconstrained beam
    /// first, a temperature sample after that.
    fn candidate(
        &mut self,
        prompt: &[usize],
        attempt: usize,
    ) -> Result<Option<String>, ContextError> {
        if attempt == 1 {
            let (mut beams, _) = self.lm.beams(&[prompt.to_vec()], 3, 48, false);
            let hyps = beams.pop().expect("one prompt, one answer")?;
            return Ok(self.lm.best(&hyps, prompt.len()).map(|(raw, _)| raw));
        }
        let opts = SampleOptions {
            temperature: 0.8,
            top_k: 8,
            top_p: 1.0,
        };
        let ids = self.lm.sample(prompt, 48, &opts, &mut self.rng)?;
        Ok(Some(self.lm.read(&ids, 0).0))
    }

    /// [`Synthesizer::synthesize_with_retries`] behind a circuit breaker.
    ///
    /// Closed: runs the normal retry loop; a success resets the failure
    /// streak, a fully failed call adds its attempts to it. When the
    /// streak reaches [`BreakerOptions::threshold`] the breaker opens
    /// (counter `codegen/breaker_open`) and this call — plus the next
    /// [`BreakerOptions::cooldown`] calls — divert to
    /// [`Synthesizer::synthesize_constrained`], which always yields a
    /// runnable program (`Synthesis::fallback` is set on diverted
    /// results, counter `codegen/fallbacks`). After the cooldown a
    /// half-open probe runs the normal loop once: success closes the
    /// breaker, failure re-opens it for another cooldown.
    pub fn synthesize_resilient(
        &mut self,
        instruction: &str,
        catalog: &Catalog,
        max_retries: usize,
    ) -> Synthesis {
        self.breaker_tick += 1;
        let probing = self.breaker.probe_due(self.breaker_tick);
        if probing {
            lm4db_obs::counter_add("codegen/breaker_probes", 1);
        } else if self.breaker_open() {
            return self.divert(instruction, catalog);
        }
        let s = self.synthesize_with_retries(instruction, catalog, max_retries);
        if s.pipeline.is_some() {
            if !self.breaker.heartbeat(self.breaker_tick, true).is_empty() {
                lm4db_obs::counter_add("codegen/breaker_close", 1);
                lm4db_obs::instant("codegen/breaker_close");
            }
            return s;
        }
        // One miss per failed attempt, so the streak counts attempts across
        // calls; once open, the rest of this tick's misses are ignored.
        for _ in 0..s.attempts {
            self.breaker.heartbeat(self.breaker_tick, false);
        }
        if !self.breaker_open() {
            return s;
        }
        if !probing {
            lm4db_obs::counter_add("codegen/breaker_open", 1);
            lm4db_obs::instant("codegen/breaker_open");
        }
        self.divert(instruction, catalog)
    }

    /// Serves one call from the constrained path while the breaker is open.
    fn divert(&mut self, instruction: &str, catalog: &Catalog) -> Synthesis {
        let mut s = self.synthesize_constrained(instruction, catalog);
        s.fallback = true;
        lm4db_obs::counter_add("codegen/fallbacks", 1);
        s
    }
}

/// The word-unit rendering separates `|` with spaces already; this fixes
/// the few detokenization quirks (tight commas) so near-miss outputs get a
/// fair parse attempt.
fn normalize_program(raw: &str) -> String {
    raw.replace(" ,", " , ")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Execution-accuracy evaluation: fraction of tasks whose synthesized
/// program produces the same result set as the gold program.
pub fn execution_accuracy(
    mut synthesize: impl FnMut(&Task) -> Option<Pipeline>,
    tasks: &[Task],
    catalog: &Catalog,
) -> f32 {
    if tasks.is_empty() {
        return 0.0;
    }
    let ok = tasks
        .iter()
        .filter(|t| {
            let Some(p) = synthesize(t) else {
                return false;
            };
            let (Ok(pred), Ok(gold)) = (
                run_pipeline(&p, catalog),
                run_pipeline(&t.pipeline, catalog),
            ) else {
                return false;
            };
            pred.same_bag(&gold)
        })
        .count();
    ok as f32 / tasks.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instructions::{enumerate_programs, generate_tasks};
    use lm4db_corpus::{make_domain, DomainKind};

    fn setup() -> (lm4db_corpus::Domain, Synthesizer, Vec<Task>) {
        let d = make_domain(DomainKind::Employees, 20, 7);
        let programs = enumerate_programs(&d);
        let tasks = generate_tasks(&d, 18, 1);
        let cfg = ModelConfig {
            max_seq_len: 96,
            ..ModelConfig::tiny(0)
        };
        let synth = Synthesizer::new(cfg, &tasks, &programs, 5);
        (d, synth, tasks)
    }

    #[test]
    fn constrained_synthesis_always_yields_runnable_programs() {
        let (d, mut synth, tasks) = setup();
        let cat = d.catalog();
        for t in tasks.iter().take(3) {
            let s = synth.synthesize_constrained(&t.instruction, &cat);
            assert!(
                s.pipeline.is_some(),
                "constrained synthesis failed on: {} (raw: {})",
                t.instruction,
                s.raw
            );
        }
    }

    #[test]
    fn an_instruction_past_the_window_is_refused_without_an_attempt() {
        let (d, mut synth, _) = setup();
        let cat = d.catalog();
        let long = "show the name ".repeat(60);
        let too_long = |s: &Synthesis| {
            matches!(
                s.refused,
                Some(ContextError::TooLong {
                    max_seq_len: 96,
                    ..
                })
            ) && s.pipeline.is_none()
                && s.attempts == 0
        };
        assert!(too_long(&synth.synthesize_with_retries(&long, &cat, 3)));
        assert!(too_long(&synth.synthesize_constrained(&long, &cat)));
        // A refusal is not a validation failure: the breaker stays closed.
        for _ in 0..10 {
            assert!(too_long(&synth.synthesize_resilient(&long, &cat, 3)));
        }
        assert!(!synth.breaker_open());
    }

    #[test]
    fn untrained_unconstrained_synthesis_mostly_fails() {
        let (d, mut synth, tasks) = setup();
        let cat = d.catalog();
        let s = synth.synthesize_with_retries(&tasks[0].instruction, &cat, 2);
        // An untrained model babbles; the retry loop reports its attempts.
        assert!(s.attempts >= 1 && s.attempts <= 2);
    }

    #[test]
    fn training_teaches_a_repeated_task() {
        let (d, mut synth, _) = setup();
        let cat = d.catalog();
        let t = Task {
            instruction: "load the employees table and return the name column".into(),
            program: "load employees | select name".into(),
            pipeline: parse_pipeline("load employees | select name").unwrap(),
        };
        let train: Vec<Task> = std::iter::repeat_n(t.clone(), 8).collect();
        synth.fit(&train, 25, 4, 3e-3);
        let s = synth.synthesize_constrained(&t.instruction, &cat);
        assert_eq!(
            s.pipeline.map(|p| p.to_string()),
            Some(t.program.clone()),
            "raw: {}",
            s.raw
        );
    }

    #[test]
    fn breaker_opens_after_threshold_and_serves_from_fallback() {
        let (d, synth, tasks) = setup();
        let mut synth = synth.with_breaker(BreakerOptions {
            threshold: 2,
            cooldown: 2,
        });
        let cat = d.catalog();
        // An untrained model fails unconstrained validation, so one
        // 2-attempt call reaches the threshold and opens the breaker; the
        // very same call already serves from the constrained fallback.
        let s = synth.synthesize_resilient(&tasks[0].instruction, &cat, 2);
        assert!(synth.breaker_open());
        assert!(s.fallback);
        assert!(
            s.pipeline.is_some(),
            "fallback path always yields a runnable program"
        );
        // While open (within the cooldown), calls keep diverting.
        let s = synth.synthesize_resilient(&tasks[1].instruction, &cat, 2);
        assert!(s.fallback && s.pipeline.is_some());
        assert!(synth.breaker_open());
    }

    #[test]
    fn breaker_probe_reopens_on_failure_and_closes_on_success() {
        let (d, synth, tasks) = setup();
        let mut synth = synth.with_breaker(BreakerOptions {
            threshold: 1,
            cooldown: 1,
        });
        let cat = d.catalog();
        // Open the breaker (threshold 1: first failed attempt trips it).
        synth.synthesize_resilient(&tasks[0].instruction, &cat, 1);
        assert!(synth.breaker_open());
        // Call 1 while open: within cooldown, diverted.
        let s = synth.synthesize_resilient(&tasks[0].instruction, &cat, 1);
        assert!(s.fallback);
        // Call 2: past cooldown — a half-open probe runs the normal loop.
        // The untrained model still fails, so the breaker stays open and
        // the call is served from the fallback.
        let s = synth.synthesize_resilient(&tasks[0].instruction, &cat, 1);
        assert!(s.fallback && synth.breaker_open());
        // Teach the model one task, ride out the cooldown, and the next
        // probe closes the breaker with a normal (non-fallback) success.
        let t = Task {
            instruction: "load the employees table and return the name column".into(),
            program: "load employees | select name".into(),
            pipeline: parse_pipeline("load employees | select name").unwrap(),
        };
        let train: Vec<Task> = std::iter::repeat_n(t.clone(), 8).collect();
        synth.fit(&train, 25, 4, 3e-3);
        let s = synth.synthesize_resilient(&t.instruction, &cat, 1);
        assert!(s.fallback, "first post-fit call is still within cooldown");
        let s = synth.synthesize_resilient(&t.instruction, &cat, 1);
        assert!(!synth.breaker_open(), "successful probe closes the breaker");
        assert!(!s.fallback);
        assert_eq!(s.pipeline.map(|p| p.to_string()), Some(t.program.clone()));
    }

    #[test]
    fn execution_accuracy_of_gold_is_one() {
        let (d, _, tasks) = setup();
        let cat = d.catalog();
        let acc = execution_accuracy(|t| Some(t.pipeline.clone()), &tasks, &cat);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn execution_accuracy_of_nothing_is_zero() {
        let (d, _, tasks) = setup();
        let cat = d.catalog();
        let acc = execution_accuracy(|_| None, &tasks, &cat);
        assert_eq!(acc, 0.0);
    }
}
