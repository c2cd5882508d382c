//! **Exp Q** (load testing): open-loop multi-tenant traffic against the
//! serve engine, swept from light load past saturation.
//!
//! The `lm4db-loadgen` generator offers a three-tenant mix (interactive /
//! analytics / batch, sampling across the tutorial's application
//! workloads) at a rising rate multiplier; each offered load level is
//! served twice by the same model:
//!
//! 1. **fifo** — one global FIFO queue with only the hard `max_queue`
//!    bound, the engine as every earlier experiment ran it;
//! 2. **slo** — tenant classes registered ([`TenantClass`]): strict
//!    priority tiers + weighted-fair sharing, and SLO-aware admission
//!    control shedding interactive arrivals predicted to miss their
//!    step-deadline target.
//!
//! Because the generator is open-loop (arrivals are a function of the
//! virtual clock, not of server progress), overload actually happens, and
//! the two admission policies separate: FIFO keeps admitting into a deep
//! queue, so admitted interactive requests wait behind hundreds of others
//! and p99 latency blows through the SLO; the SLO controller sheds early,
//! trading completed volume for a tail that stays inside the target. The
//! acceptance assertion at the bottom pins exactly that: at every offered
//! load ≥ 2× measured capacity, SLO-aware admission keeps admitted
//! interactive p99 (in scheduler steps) within the target while FIFO
//! misses it.
//!
//! Latencies here are *scheduler steps on the virtual clock* — the bench
//! drives one engine step per tick — so every number in the table is
//! deterministic: reruns produce byte-identical curves on any host.
//!
//! `LM4DB_SMOKE=1` shrinks the sweep for CI.

use std::collections::HashMap;

use lm4db::loadgen::{LoadGen, Phase, PromptShape, TenantSpec, Workload};
use lm4db::obs;
use lm4db::serve::{Engine, EngineOptions, Outcome, RequestId, TenantClass};
use lm4db::transformer::{GptModel, ModelConfig};
use lm4db_bench::{json_obj, write_results_json};
use serde_json::Value;

const SEED: u64 = 2024;
const MAX_BATCH: usize = 8;
const MAX_QUEUE: usize = 256;
const SLO_STEPS: u64 = 32;
const TENANT_NAMES: [&str; 3] = ["interactive", "analytics", "batch"];

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
        max_prompt: 24,
        max_new: 6,
    }
}

/// The three-tenant mix: an interactive tier with a step SLO, a mid-tier
/// analytics tenant, and a best-effort batch tier. Rates are per tick at
/// multiplier 1.0 and sum to ~1.6 requests/tick.
fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive",
            rate: 0.8,
            tier: 0,
            weight: 4,
            slo_steps: SLO_STEPS,
            slo_wall_ms: 250,
            mix: Workload::mix(&[
                (Workload::Text2Sql, 3.0),
                (Workload::Wrangle, 2.0),
                (Workload::FactCheck, 2.0),
                (Workload::NeuralDb, 1.0),
            ]),
        },
        TenantSpec {
            name: "analytics",
            rate: 0.5,
            tier: 1,
            weight: 2,
            slo_steps: 0,
            slo_wall_ms: 0,
            mix: Workload::mix(&[
                (Workload::Summarize, 2.0),
                (Workload::FactCheck, 1.0),
                (Workload::Lm, 1.0),
            ]),
        },
        TenantSpec {
            name: "batch",
            rate: 0.3,
            tier: 2,
            weight: 1,
            slo_steps: 0,
            slo_wall_ms: 0,
            mix: Workload::mix(&[(Workload::CodeGen, 2.0), (Workload::Lm, 1.0)]),
        },
    ]
}

/// The serve-side classes mirroring [`tenant_specs`].
fn tenant_classes() -> Vec<TenantClass> {
    tenant_specs()
        .iter()
        .map(|s| {
            TenantClass::new(s.name)
                .tier(s.tier)
                .weight(s.weight)
                .slo_steps(s.slo_steps)
                .slo_wall_ms(s.slo_wall_ms)
        })
        .collect()
}

/// Everything measured for one (policy, load multiplier) cell.
struct RunMetrics {
    offered: u64,
    completed: u64,
    ticks: u64,
    /// Completed per tenant.
    done: [u64; 3],
    /// Shed (rejected) per tenant.
    shed: [u64; 3],
    /// Exact admitted-request completion latencies per tenant, in steps.
    lat: [Vec<u64>; 3],
}

impl RunMetrics {
    fn throughput(&self) -> f64 {
        self.completed as f64 / self.ticks as f64
    }

    /// Interactive-tenant goodput: completions inside the SLO per tick.
    fn goodput(&self) -> f64 {
        self.lat[0].iter().filter(|&&l| l <= SLO_STEPS).count() as f64 / self.ticks as f64
    }

    fn p(&self, tenant: usize, q: f64) -> u64 {
        let mut v = self.lat[tenant].clone();
        if v.is_empty() {
            return 0;
        }
        v.sort_unstable();
        let idx = ((q * (v.len() - 1) as f64).ceil() as usize).min(v.len() - 1);
        v[idx]
    }
}

/// Drives one open-loop run: one engine step per generator tick, then a
/// drain phase until the engine idles. Every retired request is booked
/// against the tick it retired on, so latencies are exact step counts.
fn drive(model: &GptModel, opts: EngineOptions, ticks: u64, rate_mul: f64) -> RunMetrics {
    let gen = LoadGen::new(
        SEED,
        shape(),
        tenant_specs(),
        vec![Phase::poisson(ticks, rate_mul)],
    );
    let mut engine = Engine::with_options(model, opts);
    let mut submitted_at: HashMap<RequestId, (u32, u64)> = HashMap::new();
    let mut m = RunMetrics {
        offered: 0,
        completed: 0,
        ticks: 0,
        done: [0; 3],
        shed: [0; 3],
        lat: [Vec::new(), Vec::new(), Vec::new()],
    };
    let mut tick = 0u64;
    let mut more = true;
    while tick < ticks || more {
        if tick < ticks {
            for a in gen.arrivals_at(tick) {
                m.offered += 1;
                let tenant = a.tenant;
                let id = engine.submit(a.to_request());
                submitted_at.insert(id, (tenant, tick));
            }
        }
        more = engine.step();
        tick += 1;
        for r in engine.take_responses() {
            let (tenant, t0) = submitted_at.remove(&r.id).expect("unknown response id");
            let ti = tenant as usize;
            match r.outcome {
                Outcome::Rejected => m.shed[ti] += 1,
                Outcome::Finished => {
                    m.completed += 1;
                    m.done[ti] += 1;
                    m.lat[ti].push(tick - t0);
                }
                other => panic!("unexpected outcome {other:?} in a clean run"),
            }
        }
        assert!(tick < ticks + 100_000, "engine failed to drain");
    }
    m.ticks = tick;
    // Conservation, externally and per tenant against the engine's books.
    let stats = engine.stats();
    assert_eq!(stats.terminal_total(), stats.submitted);
    assert!(
        submitted_at.is_empty(),
        "requests vanished without retiring"
    );
    for ti in 0..3 {
        let t = &stats.tenants[&(ti as u32)];
        assert_eq!(t.completed, m.done[ti], "tenant {ti} completion mismatch");
        assert_eq!(t.rejected, m.shed[ti], "tenant {ti} shed mismatch");
        assert_eq!(t.terminal_total(), t.submitted);
    }
    m
}

fn main() {
    let smoke = std::env::var("LM4DB_SMOKE").is_ok_and(|v| v == "1");
    let (ticks, mults): (u64, Vec<f64>) = if smoke {
        (80, vec![0.5, 2.0, 8.0])
    } else {
        (400, vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    };
    let model = GptModel::new(cfg(), 11);
    let fifo_opts = || EngineOptions {
        max_batch: MAX_BATCH,
        max_queue: MAX_QUEUE,
        ..Default::default()
    };
    let slo_opts = || EngineOptions {
        max_batch: MAX_BATCH,
        max_queue: MAX_QUEUE,
        tenants: tenant_classes(),
        slo_admission: true,
        ..Default::default()
    };

    let mut out = String::new();
    let mut emit = |line: &str| {
        println!("{line}");
        out.push_str(line);
        out.push('\n');
    };

    emit(&format!(
        "### Exp Q — open-loop load sweep, 3 tenants, {ticks} ticks/level, \
         batch {MAX_BATCH}, queue {MAX_QUEUE}, interactive SLO {SLO_STEPS} steps"
    ));
    emit("");
    emit(
        "| offered/tick | policy | throughput/tick | goodput/tick | shed | \
         int p50 | int p99 | int SLO | analytics p99 | batch p99 |",
    );
    emit("|---|---|---|---|---|---|---|---|---|---|");

    obs::series_reset();
    let mut curves: Vec<Value> = Vec::new();
    let mut cells: Vec<(f64, RunMetrics, RunMetrics)> = Vec::new();
    for (level, &mul) in mults.iter().enumerate() {
        let fifo = drive(&model, fifo_opts(), ticks, mul);
        let slo = drive(&model, slo_opts(), ticks, mul);
        let offered_rate = fifo.offered as f64 / ticks as f64;
        for (name, r) in [("fifo", &fifo), ("slo", &slo)] {
            // Per-phase telemetry series: one point per offered-load level
            // (step = level index), so the sweep's shape is available to
            // the exporters/dashboard like any other sampled series.
            obs::series_record(&format!("expQ/{name}/completed"), level as u64, r.completed);
            obs::series_record(
                &format!("expQ/{name}/shed"),
                level as u64,
                r.shed.iter().sum::<u64>(),
            );
            obs::series_record(
                &format!("expQ/{name}/interactive_p99_steps"),
                level as u64,
                r.p(0, 0.99),
            );
            let in_slo = r.lat[0].iter().filter(|&&l| l <= SLO_STEPS).count();
            let slo_pct = if r.lat[0].is_empty() {
                100.0
            } else {
                100.0 * in_slo as f64 / r.lat[0].len() as f64
            };
            emit(&format!(
                "| {:.2} | {} | {:.3} | {:.3} | {} | {} | {} | {:.1}% | {} | {} |",
                offered_rate,
                name,
                r.throughput(),
                r.goodput(),
                r.shed.iter().sum::<u64>(),
                r.p(0, 0.50),
                r.p(0, 0.99),
                slo_pct,
                r.p(1, 0.99),
                r.p(2, 0.99),
            ));
            curves.push(json_obj(vec![
                ("policy", Value::Str(name.into())),
                ("rate_mul", Value::Float(mul)),
                ("offered_per_tick", Value::Float(offered_rate)),
                ("offered_total", Value::Int(r.offered as i64)),
                ("completed_total", Value::Int(r.completed as i64)),
                ("throughput_per_tick", Value::Float(r.throughput())),
                ("goodput_per_tick", Value::Float(r.goodput())),
                ("shed_total", Value::Int(r.shed.iter().sum::<u64>() as i64)),
                (
                    "per_tenant",
                    Value::Array(
                        (0..3)
                            .map(|ti| {
                                json_obj(vec![
                                    ("tenant", Value::Str(TENANT_NAMES[ti].into())),
                                    ("completed", Value::Int(r.done[ti] as i64)),
                                    ("shed", Value::Int(r.shed[ti] as i64)),
                                    ("p50_steps", Value::Int(r.p(ti, 0.50) as i64)),
                                    ("p99_steps", Value::Int(r.p(ti, 0.99) as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]));
        }
        cells.push((offered_rate, fifo, slo));
    }
    emit("");

    // Measured capacity: the best sustained completion rate either policy
    // reached anywhere in the sweep (the saturation plateau).
    let capacity = cells
        .iter()
        .flat_map(|(_, f, s)| [f.throughput(), s.throughput()])
        .fold(0.0f64, f64::max);
    emit(&format!(
        "measured capacity: {capacity:.3} completions/tick"
    ));

    // Acceptance: at every offered load ≥ 2× capacity, SLO-aware admission
    // holds the admitted interactive p99 inside the target while FIFO
    // misses it — the curves must actually separate.
    let mut overload_points = 0;
    for (offered_rate, fifo, slo) in &cells {
        if *offered_rate < 2.0 * capacity {
            continue;
        }
        overload_points += 1;
        let fifo_p99 = fifo.p(0, 0.99);
        let slo_p99 = slo.p(0, 0.99);
        emit(&format!(
            "overload {:.1}x: interactive p99 fifo={} slo={} (target {})",
            offered_rate / capacity,
            fifo_p99,
            slo_p99,
            SLO_STEPS
        ));
        assert!(
            slo_p99 <= SLO_STEPS,
            "acceptance: SLO admission must hold p99 ≤ {SLO_STEPS} at \
             {offered_rate:.2}/tick, got {slo_p99}"
        );
        assert!(
            fifo_p99 > SLO_STEPS,
            "acceptance: FIFO must miss the target at {offered_rate:.2}/tick, \
             got {fifo_p99}"
        );
        assert!(
            fifo_p99 > 2 * slo_p99,
            "acceptance: the policies must separate clearly: fifo {fifo_p99} \
             vs slo {slo_p99}"
        );
    }
    assert!(
        overload_points > 0,
        "sweep never reached 2x overload (capacity {capacity:.3})"
    );
    emit(&format!(
        "acceptance: SLO admission held p99 ≤ {SLO_STEPS} steps at all \
         {overload_points} overload points; FIFO missed at all of them"
    ));

    // The per-phase series recorded above, rendered as (step:value) pairs
    // and carried into the results JSON.
    emit("");
    emit("per-phase series (step = load-level index):");
    let mut series_json: Vec<Value> = Vec::new();
    for (name, s) in obs::series_snapshot() {
        if !name.starts_with("expQ/") {
            continue;
        }
        let pts: Vec<String> = s
            .points()
            .iter()
            .map(|p| format!("{}:{}", p.step, p.value))
            .collect();
        emit(&format!("  {name} = [{}]", pts.join(", ")));
        series_json.push(json_obj(vec![
            ("name", Value::Str(name.clone())),
            (
                "points",
                Value::Array(
                    s.points()
                        .iter()
                        .map(|p| {
                            Value::Array(vec![
                                Value::Int(p.step as i64),
                                Value::Int(p.value as i64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }

    let txt_path = lm4db_bench::results_path("expQ_loadtest.txt");
    std::fs::create_dir_all(txt_path.parent().unwrap()).expect("results dir");
    std::fs::write(&txt_path, &out).expect("write txt results");
    let path = write_results_json(
        "expQ_loadtest.json",
        &json_obj(vec![
            ("experiment", Value::Str("expQ_loadtest".into())),
            ("seed", Value::Int(SEED as i64)),
            ("smoke", Value::Bool(smoke)),
            ("ticks_per_level", Value::Int(ticks as i64)),
            ("max_batch", Value::Int(MAX_BATCH as i64)),
            ("max_queue", Value::Int(MAX_QUEUE as i64)),
            ("interactive_slo_steps", Value::Int(SLO_STEPS as i64)),
            ("measured_capacity_per_tick", Value::Float(capacity)),
            ("overload_points_checked", Value::Int(overload_points)),
            ("curves", Value::Array(curves)),
            ("series", Value::Array(series_json)),
        ]),
    );
    println!("wrote {} and {}", txt_path.display(), path.display());
}
