//! Soak suite: the multi-tenant serving stack under ~10k open-loop
//! requests, reproduced byte-for-byte across a subprocess matrix.
//!
//! The parent test spawns this file's child test in subprocesses across
//! `LM4DB_THREADS` ∈ {1, 4} and `LM4DB_TRACE` ∈ {0, 2} for two loadgen
//! seeds, and asserts that
//!
//! * every child survives the full schedule with a balanced conservation
//!   ledger, globally and tenant by tenant
//!   (`completed + cancelled + expired + failed + rejected == submitted`),
//! * a fixed loadgen seed reproduces the complete outcome stream — every
//!   response's outcome, tokens, and score bits, plus the step-based
//!   per-tenant accounting — byte-identically at every thread count and
//!   trace level (one fingerprint per seed, eight ways),
//! * enabling the step-clock telemetry sampler (`LM4DB_SAMPLE_STEPS`)
//!   leaves the fingerprint untouched across the same matrix — sampling
//!   is purely observational, and
//! * different seeds drive visibly different schedules.
//!
//! Everything fingerprinted is on the virtual clock (scheduler steps);
//! wall-clock histograms are deliberately excluded. The traffic leans on
//! every loadgen feature at once: three tenants across three priority
//! tiers, a Poisson warmup, a flash-crowd bursty phase, and a sustained
//! overload phase, with SLO-aware admission shedding on top of the hard
//! queue bound.

use std::fmt::Write as _;
use std::process::Command;

use lm4db::fault::fnv64;
use lm4db::loadgen::{Burst, LoadGen, Phase, PromptShape, TenantSpec, Workload};
use lm4db::serve::{Engine, EngineOptions, TenantClass};
use lm4db::transformer::{GptModel, ModelConfig};

/// Three tenants spanning the tier range, base rates summing to 2.0
/// arrivals/tick — past the tiny model's service rate once the phase
/// multipliers kick in, so admission control runs hot.
fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive",
            rate: 1.0,
            tier: 0,
            weight: 4,
            slo_steps: 24,
            slo_wall_ms: 250,
            mix: Workload::mix(&[
                (Workload::Text2Sql, 2.0),
                (Workload::Wrangle, 2.0),
                (Workload::FactCheck, 1.0),
                (Workload::NeuralDb, 1.0),
            ]),
        },
        TenantSpec {
            name: "analytics",
            rate: 0.6,
            tier: 1,
            weight: 2,
            slo_steps: 0,
            slo_wall_ms: 0,
            mix: Workload::mix(&[(Workload::Summarize, 2.0), (Workload::Lm, 1.0)]),
        },
        TenantSpec {
            name: "batch",
            rate: 0.4,
            tier: 2,
            weight: 1,
            slo_steps: 0,
            slo_wall_ms: 0,
            mix: Workload::mix(&[(Workload::CodeGen, 2.0), (Workload::Lm, 1.0)]),
        },
    ]
}

/// Warmup at the base rate, a flash-crowd middle (every 100 ticks a
/// 20-tick burst at 4x), then sustained 4x overload: ~11k arrivals.
fn phases() -> Vec<Phase> {
    vec![
        Phase::poisson(500, 1.0),
        Phase::bursty(
            1000,
            2.0,
            Burst {
                period: 100,
                width: 20,
                mul: 4.0,
            },
        ),
        Phase::poisson(500, 4.0),
    ]
}

/// Drives the whole schedule open-loop and renders the outcome stream
/// plus the step-based accounting. Asserts conservation along the way;
/// the returned string is what the matrix fingerprints.
fn soak_workload(seed: u64) -> String {
    let shape = PromptShape {
        vocab: 64,
        max_prompt: 8,
        max_new: 3,
    };
    let gen = LoadGen::new(seed, shape, tenant_specs(), phases());
    let classes: Vec<TenantClass> = gen
        .tenants()
        .iter()
        .map(|s| {
            TenantClass::new(s.name)
                .tier(s.tier)
                .weight(s.weight)
                .slo_steps(s.slo_steps)
                .slo_wall_ms(s.slo_wall_ms)
        })
        .collect();
    let model = GptModel::new(ModelConfig::test(), 7);
    let mut engine = Engine::with_options(
        &model,
        EngineOptions {
            max_batch: 4,
            max_queue: 12,
            tenants: classes,
            slo_admission: true,
            ..Default::default()
        },
    );

    let mut s = String::new();
    let mut base = None;
    let mut submitted = 0u64;
    let mut retired = 0u64;
    let mut tick = 0u64;
    let mut more = true;
    while tick < gen.total_ticks() || more {
        if tick < gen.total_ticks() {
            for a in gen.arrivals_at(tick) {
                let id = engine.submit(a.to_request());
                base.get_or_insert(id);
                submitted += 1;
            }
        }
        more = engine.step();
        tick += 1;
        // Render responses as they retire: position in the stream is part
        // of the reproducibility claim, not just the multiset of outcomes.
        for r in engine.take_responses() {
            retired += 1;
            write!(
                s,
                "t{tick} r{}: {:?} tokens=",
                r.id - base.unwrap(),
                r.outcome
            )
            .unwrap();
            for t in &r.tokens {
                write!(s, " {t}").unwrap();
            }
            writeln!(s, " score={:08x}", r.score.to_bits()).unwrap();
        }
        assert!(
            tick < gen.total_ticks() + 100_000,
            "engine failed to drain after the schedule ended"
        );
    }

    // Conservation: one terminal outcome per arrival, ledger balanced
    // globally and per tenant, nothing left in flight.
    assert_eq!(retired, submitted, "requests lost or double-retired");
    let st = engine.stats();
    assert_eq!(st.submitted, submitted);
    assert_eq!(st.terminal_total(), st.submitted, "ledger: {st:?}");
    assert_eq!((st.queued, st.active, st.retrying), (0, 0, 0));
    assert_eq!(st.tenants.len(), 3, "all three tenants saw traffic");
    writeln!(s, "ticks={tick} submitted={submitted}").unwrap();
    for (tenant, t) in &st.tenants {
        assert_eq!(t.terminal_total(), t.submitted, "tenant {tenant} ledger");
        assert_eq!(t.queued, 0);
        assert_eq!(
            t.latency_steps.count(),
            t.admitted,
            "tenant {tenant}: one step-latency record per admission"
        );
        // Step-based stats only — wall-clock histograms would break the
        // byte-identical claim across machines, so they stay out.
        writeln!(
            s,
            "tenant{tenant}: sub={} adm={} done={} rej={} slo_shed={} fail={} \
             cancel={} expire={} retries={} wait=({},{},{}) lat=({},{},{})",
            t.submitted,
            t.admitted,
            t.completed,
            t.rejected,
            t.slo_shed,
            t.failed,
            t.cancelled,
            t.expired,
            t.retries,
            t.queue_wait_steps.count(),
            t.queue_wait_steps.total(),
            t.queue_wait_steps.max(),
            t.latency_steps.count(),
            t.latency_steps.total(),
            t.latency_steps.max(),
        )
        .unwrap();
    }
    s
}

/// Child of the soak matrix: runs the schedule for `LM4DB_SOAK_SEED`
/// under whatever thread count and trace level the parent set, and
/// prints the outcome-stream fingerprint. Reaching `SOAK_OK` means every
/// in-test assertion (conservation, drain) held.
#[test]
fn soak_child() {
    let seed = std::env::var("LM4DB_SOAK_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(11);
    let all = soak_workload(seed);
    println!("SOAK_FP={:016x}", fnv64(&all));
    println!("SOAK_OK");
}

/// Spawns [`soak_child`] across seeds × thread counts × trace levels.
/// Within a seed all eight configurations (plus one repeat) must agree on
/// the fingerprint byte for byte; across seeds they must differ.
#[test]
fn soak_matrix_is_byte_identical_across_threads_and_trace() {
    let exe = std::env::current_exe().expect("current test binary");
    let run = |seed: u64, threads: &str, trace: &str, sample_steps: &str| -> String {
        let out = Command::new(&exe)
            .args(["soak_child", "--exact", "--nocapture"])
            .env("LM4DB_SOAK_SEED", seed.to_string())
            .env("LM4DB_THREADS", threads)
            .env("LM4DB_TRACE", trace)
            // Telemetry sampling is step-clock-driven and must be purely
            // observational: sampler-enabled legs share the reference
            // fingerprint ("0" disables sampling).
            .env("LM4DB_SAMPLE_STEPS", sample_steps)
            // A chaos-job environment must not poison the soak run.
            .env_remove("LM4DB_FAULTS")
            .output()
            .expect("spawn soak child");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "soak child failed (seed={seed}, threads={threads}, trace={trace}):\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("SOAK_OK"),
            "child never reached SOAK_OK:\n{stdout}"
        );
        stdout
            .split("SOAK_FP=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"))
            .to_string()
    };

    let mut per_seed = Vec::new();
    for seed in [11u64, 12] {
        let reference = run(seed, "1", "0", "0");
        for (threads, trace) in [("1", "2"), ("4", "0"), ("4", "2")] {
            let fp = run(seed, threads, trace, "0");
            assert_eq!(
                reference, fp,
                "seed {seed}: outcome stream changed at threads={threads} trace={trace}"
            );
        }
        // Sampler-enabled legs: telemetry snapshots every 7 steps must not
        // perturb a single scheduling decision, at any thread count or
        // trace level.
        for (threads, trace) in [("1", "0"), ("1", "2"), ("4", "0"), ("4", "2")] {
            let fp = run(seed, threads, trace, "7");
            assert_eq!(
                reference, fp,
                "seed {seed}: sampler changed the outcome stream at \
                 threads={threads} trace={trace}"
            );
        }
        per_seed.push(reference);
    }
    // Same config twice: the fingerprint is a constant of the seed.
    let again = run(11, "1", "0", "0");
    assert_eq!(per_seed[0], again, "fixed-seed soak run not reproducible");
    assert_ne!(
        per_seed[0], per_seed[1],
        "seeds 11 and 12 produced identical schedules — generator looks inert"
    );
}
