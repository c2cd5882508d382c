//! **Exp O** (fault tolerance): completeness of the recovery paths on
//! eight greedy requests that share a 24-token prompt header.
//!
//! **A seeded 5%-fault workload retires 100% of its requests with terminal
//! outcomes.** Injected panics quarantine and retry their requests;
//! exhausted budgets retire `Failed`; nothing is lost, nothing aborts, and
//! the `Stats` ledger balances exactly
//! (`completed + cancelled + expired + failed + rejected == submitted`).
//! Fault decisions are a pure function of `(seed, site, salt)`, so the
//! outcome mix below is the same on every run and at any thread count.
//!
//! What the injector costs is not measured here: every `benchmark/`
//! workload runs with it disarmed, so a fault point that stopped being one
//! relaxed load and a branch shows in `ops_per_s` there.

use lm4db::fault;
use lm4db::serve::{Engine, EngineOptions, Outcome, Request, Response, Stats};
use lm4db::transformer::GptModel;
use lm4db_bench::{
    json_obj, print_table, serving_config, shared_header_prompts, write_results_json,
};
use serde_json::Value;

const STOP: usize = usize::MAX; // never emitted: every request runs its full budget
const NEW_TOKENS: usize = 24;
const FAULT_SEED: u64 = 42;
const FAULT_RATE: f64 = 0.05;

/// Serves the workload on a fresh engine; returns (responses, stats).
fn serve_run(model: &GptModel) -> (Vec<Response>, Stats) {
    let mut engine = Engine::with_options(
        model,
        EngineOptions {
            max_batch: 8,
            max_retries: 2,
            retry_backoff_steps: 1,
            ..Default::default()
        },
    );
    let reqs = shared_header_prompts()
        .into_iter()
        .map(|p| Request::greedy(p, NEW_TOKENS, STOP))
        .collect();
    let responses = engine.generate_batch(reqs);
    (responses, engine.stats())
}

fn outcome_label(o: &Outcome) -> &'static str {
    match o {
        Outcome::Finished => "finished",
        Outcome::Cancelled => "cancelled",
        Outcome::DeadlineExpired => "expired",
        Outcome::Failed { .. } => "failed",
        Outcome::Rejected => "rejected",
    }
}

fn main() {
    let model = GptModel::new(serving_config(), 11);

    fault::configure(FAULT_SEED, FAULT_RATE);
    let (responses, stats) = serve_run(&model);
    fault::disarm();
    assert_eq!(
        responses.len() as u64,
        stats.submitted,
        "a submitted request vanished under faults"
    );
    assert_eq!(
        stats.terminal_total(),
        stats.submitted,
        "stats ledger out of balance under faults: {stats:?}"
    );
    let mut mix = std::collections::BTreeMap::new();
    for r in &responses {
        *mix.entry(outcome_label(&r.outcome)).or_insert(0u64) += 1;
    }

    print_table(
        &format!("Exp O — outcome mix at seed {FAULT_SEED}, rate {FAULT_RATE}"),
        &["outcome", "requests"],
        &mix.iter()
            .map(|(k, v)| vec![(*k).to_string(), v.to_string()])
            .collect::<Vec<_>>(),
    );
    println!(
        "seeded {FAULT_RATE} fault workload: {}/{} requests retired terminally \
         (retries={}, failed={}): PASS",
        stats.terminal_total(),
        stats.submitted,
        stats.retries,
        stats.failed,
    );

    let path = write_results_json(
        "expO_fault_tolerance.json",
        &json_obj(vec![
            ("experiment", Value::Str("expO_fault_tolerance".into())),
            ("requests", Value::Int(8)),
            ("new_tokens_per_request", Value::Int(NEW_TOKENS as i64)),
            ("fault_seed", Value::Int(FAULT_SEED as i64)),
            ("fault_rate", Value::Float(FAULT_RATE)),
            ("submitted", Value::Int(stats.submitted as i64)),
            ("completed", Value::Int(stats.completed as i64)),
            ("failed", Value::Int(stats.failed as i64)),
            ("retries", Value::Int(stats.retries as i64)),
            ("rejected", Value::Int(stats.rejected as i64)),
            ("expired", Value::Int(stats.expired as i64)),
            ("cancelled", Value::Int(stats.cancelled as i64)),
            (
                "all_requests_terminal",
                Value::Bool(stats.terminal_total() == stats.submitted),
            ),
        ]),
    );
    println!("wrote {}", path.display());
}
