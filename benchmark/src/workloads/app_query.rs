//! `app_query` — the interactive-assistant path, closed loop, one client:
//! a question goes through the fine-tuned text-to-SQL parser (tokenize,
//! trie mask, beam search through the engine) and the predicted SQL runs
//! on the executor; an instruction goes through the CodexDB-style
//! synthesizer and the program runs on the interpreter. Three questions
//! to every two instructions. Set-up *is* fine-tuning, so changes to
//! autograd or the training kernels show in `setup_s`.

use std::time::{Duration, Instant};

use lm4db::codegen::{enumerate_programs, generate_tasks, run_pipeline, Synthesizer};
use lm4db::corpus::{make_domain, DomainKind};
use lm4db::loadgen::Rng;
use lm4db::sql::{self, Catalog};
use lm4db::text2sql::{generate, DecodeMode, SemanticParser, SqlTrie};
use lm4db::transformer::ModelConfig;

use crate::report::{end_to_end, metric, timed_setup, RunArgs, RunResult};
use crate::trace::Tracer;
use crate::window::{Plan, Window};
use crate::workloads::fingerprint;

/// Sizes of one set-up. The fine-tunes are about a third of expC's and
/// expG's, so that a run fits the benchmark's time cap; quality is
/// reported, not gated. One set-up is seconds of training — long enough to
/// repeat within a few percent — so a full run sets up once.
struct Sizes {
    rows: usize,
    pairs: usize,
    parser_epochs: usize,
    tasks: usize,
    synth_epochs: usize,
    /// Distinct questions and instructions the loop cycles through.
    pool: usize,
}

const FULL: Sizes = Sizes {
    rows: 2000,
    pairs: 128,
    parser_epochs: 6,
    tasks: 96,
    synth_epochs: 5,
    pool: 240,
};

const SMOKE: Sizes = Sizes {
    rows: 200,
    pairs: 16,
    parser_epochs: 1,
    tasks: 12,
    synth_epochs: 1,
    pool: 24,
};

pub fn parser_config() -> ModelConfig {
    ModelConfig {
        vocab_size: 0, // set from the tokenizer
        max_seq_len: 96,
        d_model: 64,
        n_heads: 4,
        n_layers: 3,
        d_ff: 256,
        dropout: 0.0,
    }
}

fn synth_config() -> ModelConfig {
    ModelConfig {
        d_model: 48,
        d_ff: 192,
        ..parser_config()
    }
}

/// A question or an instruction, with the fingerprint of its gold result.
struct Input {
    text: String,
    gold: u64,
}

struct Ready {
    catalog: Catalog,
    parser: SemanticParser,
    synth: Synthesizer,
    questions: Vec<Input>,
    instructions: Vec<Input>,
}

/// Data, fine-tuning pairs and model-init seeds are fixed, like the
/// serving model's: together they define the models under test. `seed`
/// draws the questions and instructions the loop asks.
fn set_up(sizes: &Sizes, seed: u64) -> Ready {
    let mut seeds = Rng::derive(seed, &[4]);
    let domain = make_domain(DomainKind::Employees, sizes.rows, 7);
    let catalog = domain.catalog();

    let pairs = generate(&domain, sizes.pairs, 1);
    let mut parser = SemanticParser::new(
        parser_config(),
        &pairs,
        SqlTrie::for_domain(&domain),
        5,
        700,
    );
    parser.fit(&pairs, sizes.parser_epochs, 8, 3e-3);

    let tasks = generate_tasks(&domain, sizes.tasks, 1);
    let mut synth = Synthesizer::new(synth_config(), &tasks, &enumerate_programs(&domain), 5);
    synth.fit(&tasks, sizes.synth_epochs, 8, 3e-3);

    // Gold results, once: the loop compares fingerprints.
    let questions = generate(&domain, sizes.pool, seeds.next_u64())
        .into_iter()
        .map(|q| Input {
            gold: fingerprint(
                &sql::run_sql(&q.sql, &catalog).expect("gold SQL runs"),
                false,
            ),
            text: q.question,
        })
        .collect();
    let instructions = generate_tasks(&domain, sizes.pool, seeds.next_u64())
        .into_iter()
        .map(|t| Input {
            gold: fingerprint(
                &run_pipeline(&t.pipeline, &catalog).expect("gold program runs"),
                false,
            ),
            text: t.instruction,
        })
        .collect();
    Ready {
        catalog,
        parser,
        synth,
        questions,
        instructions,
    }
}

/// What one kind of prediction was worth.
#[derive(Default)]
struct Tally {
    asked: u64,
    /// Predictions that parsed and executed.
    ran: u64,
    /// Results equal to the gold result.
    matched: u64,
}

impl Tally {
    fn share(&self, part: u64) -> f64 {
        part as f64 / self.asked.max(1) as f64
    }
}

pub fn app_query(args: &RunArgs, tracer: &mut Tracer) -> RunResult {
    let sizes = if args.smoke { &SMOKE } else { &FULL };
    let (ready, set_up) = timed_setup(1, || set_up(sizes, args.seed));
    let Ready {
        catalog,
        parser,
        mut synth,
        questions,
        instructions,
    } = ready;

    let plan = Plan {
        segment_ops: if args.smoke { 20 } else { 200 },
        min_segments: 2,
        seconds: args.seconds,
        limit_ms: 100.0,
        trace: args.trace,
    };
    let warmup = plan.segment_ops as u64 / 2;
    let mut window = None;
    let (mut sql_tally, mut program_tally) = (Tally::default(), Tally::default());
    for i in 0u64.. {
        // Three questions to two instructions: of every five ops, 0, 2 and
        // 4 take the next question and 1 and 3 the next instruction.
        let (round, slot) = ((i / 5) as usize, (i % 5) as usize);
        let is_question = slot % 2 == 0;
        let input = if is_question {
            &questions[(3 * round + slot / 2) % questions.len()]
        } else {
            &instructions[(2 * round + slot / 2) % instructions.len()]
        };
        if i == warmup {
            window = Some(Window::new(plan, Duration::ZERO));
        }
        let started = Instant::now();
        let result = if is_question {
            tracer.span("app_query.question", i, |tracer| {
                let pred = tracer.span("SemanticParser::predict", i, |_| {
                    parser.predict(&input.text, DecodeMode::Constrained)
                });
                let sql = pred.sql?;
                let query = tracer.span("sql::parse", i, |_| sql::parse(&sql)).ok()?;
                tracer
                    .span("sql::execute", i, |_| sql::execute(&query, &catalog))
                    .ok()
            })
        } else {
            tracer.span("app_query.instruction", i, |tracer| {
                let synthesis = tracer.span("Synthesizer::synthesize_constrained", i, |_| {
                    synth.synthesize_constrained(&input.text, &catalog)
                });
                let program = synthesis.pipeline?;
                tracer
                    .span("codegen::run_pipeline", i, |_| {
                        run_pipeline(&program, &catalog)
                    })
                    .ok()
            })
        };
        // The clock stops before the harness compares results.
        let took = started.elapsed();
        let ok = result.is_some();
        if i < warmup {
            assert!(ok, "a constrained prediction failed during warm-up");
            continue;
        }
        let tally = if is_question {
            &mut sql_tally
        } else {
            &mut program_tally
        };
        tally.asked += 1;
        tally.ran += u64::from(ok);
        tally.matched += u64::from(result.is_some_and(|r| fingerprint(&r, false) == input.gold));
        let w = window.as_mut().expect("the window opens when warm-up ends");
        if w.record(took.as_secs_f64() * 1e3, ok, Duration::ZERO, tracer) && w.time_is_up() {
            break;
        }
    }
    let window = window.expect("the loop records before it breaks");

    let metrics = if args.trace {
        let p50 = |name: &str| tracer.percentile_ms(name, 0.50);
        vec![
            metric(
                "text2sql.valid_share",
                sql_tally.share(sql_tally.ran),
                "share",
            ),
            metric(
                "text2sql.exec_match_share",
                sql_tally.share(sql_tally.matched),
                "share",
            ),
            metric(
                "codegen.runnable_share",
                program_tally.share(program_tally.ran),
                "share",
            ),
            metric(
                "codegen.exec_match_share",
                program_tally.share(program_tally.matched),
                "share",
            ),
            metric(
                "obs.trace_overhead_share",
                window.trace_overhead_share(),
                "share",
            ),
            metric(
                "text2sql.predict_ms_p50",
                p50("SemanticParser::predict"),
                "ms",
            ),
            metric(
                "codegen.synth_ms_p50",
                p50("Synthesizer::synthesize_constrained"),
                "ms",
            ),
            metric(
                "codegen.run_pipeline_us",
                p50("codegen::run_pipeline") * 1e3,
                "us",
            ),
            metric("app_query.sql_execute_ms_p50", p50("sql::execute"), "ms"),
        ]
    } else {
        end_to_end(&window, set_up, window.per_segment())
    };
    RunResult {
        correct: window.failed == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
    }
}
