//! **Exp S** (telemetry): determinism of the time-series sampler, the
//! burn-rate SLO monitor, and the scrape endpoint, all on the step clock.
//!
//! Four claims are hard-asserted:
//!
//! 1. **Sampling is purely observational.** The same open-loop schedule
//!    is served with the sampler off and at cadence 1; the rendered
//!    outcome streams must be byte-identical.
//! 2. **Burn-rate alerts are replay-deterministic.** An overload phase
//!    with alerting enabled is replayed; the full transition log —
//!    (rule, step, from, to) for every pending/firing/resolved edge —
//!    must match byte for byte, i.e. alerts fire and resolve at the same
//!    scheduler step on every run.
//! 3. **`GET /metrics` is valid mid-soak.** A scrape landing in the
//!    middle of the sampled run (and another after it) must return valid
//!    Prometheus exposition text carrying the sampled series.
//! 4. **A firing alert tightens SLO admission.** While the interactive
//!    tenant's alert fires, admission halves its step target. The alert
//!    run must never leave fewer interactive completions inside the target
//!    than the alert-free run, and strictly more when the alert fires
//!    before the last arrival (here at step 63 of 240).
//!
//! The disabled sampler (`sample_steps == 0`, one u64 compare per step) is
//! the configuration every `benchmark/` workload runs in; its cost is part
//! of `ops_per_s` there and is not measured here.
//!
//! Everything is on the step clock; CI diffs the committed
//! `results/expS_telemetry.json`.

use std::fmt::Write as _;

use lm4db::fault::fnv64;
use lm4db::loadgen::{LoadGen, Phase, PromptShape, TenantSpec, Workload};
use lm4db::obs;
use lm4db::serve::{Engine, EngineOptions, TenantStats};
use lm4db::transformer::{GptModel, ModelConfig};
use lm4db_bench::{json_obj, write_results_json};
use serde_json::Value;

const SEED: u64 = 3031;
const SLO_STEPS: u64 = 16;

fn cfg() -> ModelConfig {
    ModelConfig {
        vocab_size: 256,
        max_seq_len: 48,
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 128,
        dropout: 0.0,
    }
}

fn shape() -> PromptShape {
    PromptShape {
        vocab: 256,
        max_prompt: 16,
        max_new: 4,
    }
}

/// Two tenants: an interactive tier with a step SLO (the one the burn-rate
/// rule watches) and a best-effort batch tier. Offered load at multiplier
/// 1.0 is ~1.2 requests/tick — past the tiny model's service rate, so the
/// SLO admission controller sheds and the error budget actually burns.
fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive",
            rate: 0.9,
            tier: 0,
            weight: 4,
            slo_steps: SLO_STEPS,
            slo_wall_ms: 250,
            mix: Workload::mix(&[(Workload::Text2Sql, 2.0), (Workload::FactCheck, 1.0)]),
        },
        TenantSpec {
            name: "batch",
            rate: 0.3,
            tier: 2,
            weight: 1,
            slo_steps: 0,
            slo_wall_ms: 0,
            mix: Workload::mix(&[(Workload::CodeGen, 1.0), (Workload::Lm, 1.0)]),
        },
    ]
}

/// What one open-loop run produces: the rendered outcome stream (the
/// reproducibility claim), the rendered alert-transition log, and the
/// sampler/alert counters.
struct RunResult {
    outcomes: String,
    transitions: String,
    steps: u64,
    sampler_ticks: u64,
    slo_firing: u64,
    slo_resolved: u64,
    first_firing_step: Option<u64>,
    first_resolved_step: Option<u64>,
    mid_scrape_ok: bool,
    /// Generator tick of the last arrival.
    last_arrival: u64,
    /// The interactive and batch tenants' rows.
    interactive: TenantStats,
    batch: TenantStats,
}

/// Serves the fixed overload schedule open-loop (one engine step per
/// generator tick, then drain, then `cooldown` idle steps so a firing
/// alert can observe the burn stopping). Optionally scrapes `/metrics`
/// halfway through and validates the exposition text.
fn drive(
    model: &GptModel,
    ticks: u64,
    rate_mul: f64,
    cooldown: u64,
    opts: EngineOptions,
    scrape: Option<std::net::SocketAddr>,
) -> RunResult {
    let gen = LoadGen::new(
        SEED,
        shape(),
        tenant_specs(),
        vec![Phase::poisson(ticks, rate_mul)],
    );
    let mut engine = Engine::with_options(model, opts);
    let mut outcomes = String::new();
    let mut base = None;
    let mut steps = 0u64;
    let mut mid_scrape_ok = false;
    let mut last_arrival = 0;
    let mut tick = 0u64;
    let mut more = true;
    while tick < gen.total_ticks() || more {
        if tick < gen.total_ticks() {
            for a in gen.arrivals_at(tick) {
                let id = engine.submit(a.to_request());
                base.get_or_insert(id);
                last_arrival = tick;
            }
        }
        more = engine.step();
        steps += 1;
        tick += 1;
        for r in engine.take_responses() {
            writeln!(
                outcomes,
                "t{tick} r{}: {:?} n={} score={:08x}",
                r.id - base.unwrap(),
                r.outcome,
                r.tokens.len(),
                r.score.to_bits()
            )
            .unwrap();
        }
        if tick == gen.total_ticks() / 2 {
            if let Some(addr) = scrape {
                let (status, body) =
                    obs::endpoint::http_get(addr, "/metrics").expect("mid-soak GET /metrics");
                assert!(status.contains("200 OK"), "mid-soak scrape: {status}");
                obs::validate_exposition(&body)
                    .unwrap_or_else(|e| panic!("invalid exposition mid-soak: {e}"));
                mid_scrape_ok = true;
            }
        }
        assert!(tick < gen.total_ticks() + 100_000, "engine failed to drain");
    }
    for _ in 0..cooldown {
        engine.step();
        steps += 1;
    }

    let mut transitions = String::new();
    let mut first_firing_step = None;
    let mut first_resolved_step = None;
    for t in engine.alert_transitions() {
        writeln!(
            transitions,
            "{}@{}: {} -> {}",
            t.rule,
            t.step,
            t.from.name(),
            t.to.name()
        )
        .unwrap();
        match t.to {
            obs::AlertState::Firing if first_firing_step.is_none() => {
                first_firing_step = Some(t.step);
            }
            obs::AlertState::Resolved if first_resolved_step.is_none() => {
                first_resolved_step = Some(t.step);
            }
            _ => {}
        }
    }
    let st = engine.stats();
    assert_eq!(st.terminal_total(), st.submitted, "conservation ledger");
    RunResult {
        outcomes,
        transitions,
        steps,
        sampler_ticks: st.sampler_ticks,
        slo_firing: st.slo_firing,
        slo_resolved: st.slo_resolved,
        first_firing_step,
        first_resolved_step,
        mid_scrape_ok,
        last_arrival,
        interactive: st.tenants[&0].clone(),
        batch: st.tenants[&1].clone(),
    }
}

/// One JSON row of a tenant's SLO outcomes.
fn slo_row(t: &TenantStats) -> Value {
    json_obj(vec![
        ("submitted", Value::Int(t.submitted as i64)),
        ("completed", Value::Int(t.completed as i64)),
        ("slo_met", Value::Int(t.slo_met as i64)),
        ("slo_missed", Value::Int(t.slo_missed as i64)),
        ("slo_shed", Value::Int(t.slo_shed as i64)),
        ("rejected", Value::Int(t.rejected as i64)),
    ])
}

fn main() {
    let (ticks, cooldown) = (240, 60);
    let rate_mul = 4.0; // sustained overload: the admission controller sheds
    let model = GptModel::new(cfg(), 11);
    // A deep queue keeps the hard bound out of the way so the SLO
    // admission predictor (not queue-full rejection) does the shedding —
    // sheds are what the burn-rate rule counts as budget spend.
    let base_opts = || EngineOptions {
        max_batch: 4,
        max_queue: 256,
        tenants: tenant_specs().iter().map(TenantSpec::class).collect(),
        sample_steps: 0,
        slo_alerts: None,
        ..Default::default()
    };

    // --- 1. Sampling is purely observational ------------------------------
    let off = drive(&model, ticks, rate_mul, cooldown, base_opts(), None);
    obs::series_reset();
    let sampled = drive(
        &model,
        ticks,
        rate_mul,
        cooldown,
        EngineOptions {
            sample_steps: 1,
            ..base_opts()
        },
        None,
    );
    assert_eq!(
        sampled.sampler_ticks, sampled.steps,
        "cadence-1 sampler ticks"
    );
    assert_eq!(
        fnv64(&off.outcomes),
        fnv64(&sampled.outcomes),
        "sampling changed the outcome stream"
    );
    println!(
        "sampler at cadence 1: {} ticks over {} steps, outcome stream \
         byte-identical to sampler off: PASS",
        sampled.sampler_ticks, sampled.steps
    );

    // --- 2. Burn-rate alerts fire and resolve at the same step ------------
    let alert_cfg = obs::AlertConfig {
        fast_samples: 2,
        slow_samples: 8,
        burn_num: 1,
        burn_den: 4,
        resolve_samples: 3,
    };
    let alert_opts = || EngineOptions {
        sample_steps: 1,
        slo_alerts: Some(alert_cfg),
        ..base_opts()
    };
    obs::series_reset();
    let run1 = drive(&model, ticks, rate_mul, cooldown, alert_opts(), None);
    obs::series_reset();
    let run2 = drive(&model, ticks, rate_mul, cooldown, alert_opts(), None);
    assert!(
        run1.slo_firing >= 1,
        "overload never drove the burn-rate rule to Firing"
    );
    assert!(
        run1.slo_resolved >= 1,
        "alert never resolved after the load drained"
    );
    assert_eq!(
        run1.transitions, run2.transitions,
        "alert transition log changed across replays"
    );
    assert_eq!(
        (run1.first_firing_step, run1.first_resolved_step),
        (run2.first_firing_step, run2.first_resolved_step),
        "fire/resolve steps moved across replays"
    );
    println!(
        "burn-rate rule: fired at step {:?}, resolved at step {:?}, \
         {} transitions — identical on replay: PASS",
        run1.first_firing_step,
        run1.first_resolved_step,
        run1.transitions.lines().count()
    );
    print!("{}", run1.transitions);

    // --- 3. GET /metrics mid-soak ------------------------------------------
    obs::set_enabled(true);
    obs::reset();
    obs::series_reset();
    let server = obs::serve_metrics("127.0.0.1:0").expect("bind ephemeral metrics port");
    let scraped = drive(
        &model,
        ticks,
        rate_mul,
        cooldown,
        EngineOptions {
            sample_steps: 2,
            ..base_opts()
        },
        Some(server.addr()),
    );
    assert!(scraped.mid_scrape_ok, "no scrape landed mid-soak");
    let (status, body) =
        obs::endpoint::http_get(server.addr(), "/metrics").expect("final GET /metrics");
    assert!(status.contains("200 OK"));
    obs::validate_exposition(&body).expect("final scrape valid");
    assert!(
        body.contains("lm4db_ts_serve_"),
        "scrape must carry the sampled serve series"
    );
    drop(server);
    obs::set_enabled(false);
    println!("GET /metrics valid mid-soak and after: PASS");

    // --- 4. A firing alert tightens SLO admission ---------------------------
    // `off` and `run1` serve the same schedule; only the alert differs.
    let (without, with) = (&off.interactive, &run1.interactive);
    assert!(
        with.slo_met >= without.slo_met,
        "alerts on left fewer completions inside the target: {} < {}",
        with.slo_met,
        without.slo_met
    );
    let fired_in_time = run1
        .first_firing_step
        .is_some_and(|s| s <= off.last_arrival);
    if fired_in_time {
        assert!(
            with.slo_met > without.slo_met,
            "an alert firing at step {:?}, before the last arrival at tick {}, \
             must leave more completions inside the target: {} vs {}",
            run1.first_firing_step,
            off.last_arrival,
            with.slo_met,
            without.slo_met
        );
    }
    println!(
        "alert-coupled admission, interactive tenant (target {SLO_STEPS} steps, \
         {} submitted):",
        without.submitted
    );
    println!("| alerts | completed | met target | missed | slo shed | rejected (incl. shed) |");
    println!("|---|---|---|---|---|---|");
    for (name, t) in [("off", without), ("on", with)] {
        println!(
            "| {name} | {} | {} | {} | {} | {} |",
            t.completed, t.slo_met, t.slo_missed, t.slo_shed, t.rejected
        );
    }
    println!(
        "batch tenant completed {} with alerts off, {} with alerts on; \
         met target with alerts on >= off{}: PASS",
        off.batch.completed,
        run1.batch.completed,
        if fired_in_time { ", strictly" } else { "" }
    );

    let path = write_results_json(
        "expS_telemetry.json",
        &json_obj(vec![
            ("experiment", Value::Str("expS_telemetry".into())),
            ("seed", Value::Int(SEED as i64)),
            // Every run is the full one; the field stays so the committed
            // JSON keeps its shape.
            ("smoke", Value::Bool(false)),
            ("ticks", Value::Int(ticks as i64)),
            ("rate_mul", Value::Float(rate_mul)),
            ("outputs_bit_identical", Value::Bool(true)),
            ("sampler_ticks", Value::Int(sampled.sampler_ticks as i64)),
            ("alert_firing", Value::Int(run1.slo_firing as i64)),
            ("alert_resolved", Value::Int(run1.slo_resolved as i64)),
            (
                "first_firing_step",
                run1.first_firing_step
                    .map_or(Value::Null, |s| Value::Int(s as i64)),
            ),
            (
                "first_resolved_step",
                run1.first_resolved_step
                    .map_or(Value::Null, |s| Value::Int(s as i64)),
            ),
            ("transitions_replay_identical", Value::Bool(true)),
            ("mid_soak_scrape_valid", Value::Bool(true)),
            (
                "alert_coupling",
                json_obj(vec![
                    ("last_arrival_tick", Value::Int(off.last_arrival as i64)),
                    ("interactive_alerts_off", slo_row(without)),
                    ("interactive_alerts_on", slo_row(with)),
                    ("batch_alerts_off", slo_row(&off.batch)),
                    ("batch_alerts_on", slo_row(&run1.batch)),
                    ("slo_met_strictly_more", Value::Bool(fired_in_time)),
                ]),
            ),
        ]),
    );
    println!("wrote {}", path.display());
}
