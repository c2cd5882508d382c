//! With tracing on, the engine's `Stats` must agree exactly with the
//! counters it mirrors into the global `lm4db-obs` registry — the registry
//! is a second view of the same accounting, not a drifting copy.
//!
//! This lives in its own test binary on purpose: tracing state and the
//! registry are process-global, and a dedicated process keeps other tests'
//! engines from bleeding counters into the snapshot.

use lm4db_serve::{Engine, EngineOptions, Outcome, Request, TenantClass};
use lm4db_tokenize::{BOS, EOS};
use lm4db_transformer::{GptModel, ModelConfig};

/// Tracing state, the registry, and the fault injector are all
/// process-global; each test holds this lock so the counter snapshots
/// stay exact.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn registry_counters_match_engine_stats() {
    let _l = lock();
    lm4db_obs::set_enabled(true);
    lm4db_obs::reset();

    let mut m = GptModel::new(ModelConfig::test(), 7);
    let mut opt = m.optimizer(3e-3);
    let batch = vec![
        vec![BOS, 10, 11, 12, 13, 14, EOS],
        vec![BOS, 20, 21, 22, 23, 24, EOS],
    ];
    for _ in 0..10 {
        m.train_step(&batch, &mut opt);
    }
    // Training contaminates serve/* not at all, but clear anyway so the
    // snapshot below is exactly one engine run.
    lm4db_obs::reset();

    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 2,
            ..Default::default()
        },
    );
    let prompts = [
        vec![BOS, 10],
        vec![BOS, 10, 11],
        vec![BOS, 20],
        vec![BOS, 20, 21, 22],
    ];
    let reqs = prompts
        .iter()
        .map(|p| Request::greedy(p.clone(), 6, EOS))
        .collect();
    let responses = engine.generate_batch(reqs);
    assert_eq!(responses.len(), 4);

    let stats = engine.stats();
    let snap = lm4db_obs::snapshot();
    lm4db_obs::set_enabled(false);

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("serve/submitted"), stats.submitted);
    assert_eq!(counter("serve/completed"), stats.completed);
    assert_eq!(counter("serve/steps"), stats.steps);
    assert_eq!(counter("serve/prefill_tokens"), stats.prefill_tokens);
    assert_eq!(counter("serve/decoded_tokens"), stats.decoded_tokens);
    assert_eq!(
        counter("serve/cached_prefix_tokens"),
        stats.cached_prefix_tokens
    );
    assert_eq!(
        counter("serve/batch_occupancy_sum"),
        stats.batch_occupancy_sum
    );
    assert_eq!(
        snap.gauges.get("serve/peak_batch").copied(),
        Some(stats.peak_batch as f64)
    );
    assert_eq!(
        snap.gauges.get("serve/prefix_cache_nodes").copied(),
        Some(stats.prefix_cache_nodes as f64)
    );

    // The scheduler phases were timed, nested under serve_step.
    for phase in [
        "serve_step",
        "serve_step/admit",
        "serve_step/feed",
        "serve_step/share",
        "serve_step/select",
    ] {
        let t = snap
            .timers
            .get(phase)
            .unwrap_or_else(|| panic!("missing timer {phase}"));
        assert!(t.count() > 0, "timer {phase} recorded nothing");
    }
    // Every prefilled or decoded token was one row of a stacked KV-cached
    // forward, which counts its rows and carries its own flat timer.
    assert_eq!(
        counter("kv/stack_rows"),
        stats.prefill_tokens + stats.decoded_tokens
    );
    let stacks = snap.timers.get("kv/feed_stack").expect("stack timer");
    assert!(stacks.count() > 0, "stack timer recorded nothing");

    // Per-request latency accounting: one queue-wait observation per
    // admitted request, one end-to-end latency per retired request —
    // mirrored into registry timers with the same counts.
    assert_eq!(stats.queue_wait.count(), 4);
    assert_eq!(stats.latency.count(), 4);
    let qw = snap
        .timers
        .get("serve/queue_wait")
        .expect("queue_wait timer");
    assert_eq!(qw.count(), stats.queue_wait.count());
    let lat = snap.timers.get("serve/latency").expect("latency timer");
    assert_eq!(lat.count(), stats.latency.count());
    // Quantiles are monotone and bounded by the observed extremes.
    let p50 = stats.latency.quantile(0.50);
    let p99 = stats.latency.quantile(0.99);
    assert!(p50 <= p99);
    assert!(p99 <= stats.latency.max());
}

#[test]
fn fault_counters_match_engine_stats() {
    let _l = lock();
    lm4db_obs::set_enabled(true);
    lm4db_obs::reset();
    // Saturating fault rate: every instrumented point fires (panic or
    // delay per its deterministic roll), so the retry and failure paths
    // are guaranteed to execute.
    lm4db_fault::configure(42, 1.0);

    let m = GptModel::new(ModelConfig::test(), 7);
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 1,
            max_queue: 2,
            max_retries: 1,
            ..Default::default()
        },
    );
    // 6 submissions into a 2-deep queue: 4 shed immediately.
    let ids: Vec<_> = (0..6)
        .map(|_| engine.submit(Request::greedy(vec![BOS, 10], 6, EOS)))
        .collect();
    let responses = engine.run();
    lm4db_fault::disarm();

    let stats = engine.stats();
    let snap = lm4db_obs::snapshot();
    lm4db_obs::set_enabled(false);

    // Exactly one terminal response per submission, whatever the faults
    // did (the conservation law).
    assert_eq!(
        responses.iter().map(|r| r.id).collect::<Vec<_>>(),
        ids,
        "every submission retires exactly once, in id order"
    );
    assert_eq!(stats.terminal_total(), stats.submitted);
    let failed = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Failed { .. }))
        .count() as u64;

    // The new Stats fields mirror into serve/* exactly, and each fault
    // path actually ran under this seed/rate.
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("serve/failed"), stats.failed);
    assert_eq!(counter("serve/rejected"), stats.rejected);
    assert_eq!(counter("serve/retries"), stats.retries);
    assert_eq!(counter("serve/cancelled"), stats.cancelled);
    assert_eq!(counter("serve/expired"), stats.expired);
    assert_eq!(stats.rejected, 4, "rejected {}", stats.rejected);
    assert!(stats.failed > 0, "saturating faults must fail requests");
    assert_eq!(stats.failed, failed, "one Failed response per failed stat");
    assert!(stats.retries > 0, "first poisoning always retries");
    assert!(counter("fault/injected") > 0);
    assert_eq!(
        counter("fault/injected"),
        counter("fault/panics") + counter("fault/delays")
    );
    // Pool-level isolation accounting fired for every poisoned task.
    assert!(counter("pool/task_panics") > 0);
}

#[test]
fn tenant_counters_match_per_tenant_stats() {
    let _l = lock();
    lm4db_obs::set_enabled(true);
    lm4db_obs::reset();

    let m = GptModel::new(ModelConfig::test(), 7);
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 1,
            max_queue: 3,
            tenants: vec![
                TenantClass::new("interactive").weight(2),
                TenantClass::new("batch").tier(1),
            ],
            ..Default::default()
        },
    );
    // 4 requests per tenant into a 3-deep shared queue: some shed, the
    // rest complete — every per-tenant counter class gets exercised.
    for i in 0..4u32 {
        engine.submit(Request::greedy(vec![BOS, 10 + i as usize], 2, EOS).with_tenant(0));
        engine.submit(Request::greedy(vec![BOS, 20 + i as usize], 2, EOS).with_tenant(1));
    }
    engine.run();

    let stats = engine.stats();
    let snap = lm4db_obs::snapshot();
    lm4db_obs::set_enabled(false);

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(stats.tenants.len(), 2, "both tenants booked");
    let mut rejected_total = 0;
    for (&tenant, t) in &stats.tenants {
        // The registry's serve/tenant/<id>/* counters are a second view of
        // the same per-tenant accounting — exact, not approximate.
        for (field, value) in [
            ("submitted", t.submitted),
            ("admitted", t.admitted),
            ("completed", t.completed),
            ("rejected", t.rejected),
            ("slo_shed", t.slo_shed),
            ("failed", t.failed),
            ("cancelled", t.cancelled),
            ("expired", t.expired),
            ("retries", t.retries),
        ] {
            assert_eq!(
                counter(&format!("serve/tenant/{tenant}/{field}")),
                value,
                "tenant {tenant} field {field}"
            );
        }
        assert_eq!(t.submitted, 4);
        assert_eq!(t.terminal_total(), t.submitted, "per-tenant conservation");
        assert_eq!(
            t.latency_steps.count(),
            t.admitted,
            "one step-latency per admit"
        );
        rejected_total += t.rejected;
    }
    assert_eq!(rejected_total, stats.rejected, "tenant sheds sum to global");
    assert!(
        stats.rejected > 0,
        "a 3-deep queue under 8 submits must shed"
    );
    // The global view is the sum of the tenant views.
    let sum: u64 = stats.tenants.values().map(|t| t.completed).sum();
    assert_eq!(sum, stats.completed);
}

#[test]
fn sampler_and_alert_counters_match_engine_stats() {
    let _l = lock();
    lm4db_obs::set_enabled(true);
    lm4db_obs::reset();
    lm4db_obs::series_reset();

    let mut m = GptModel::new(ModelConfig::test(), 7);
    let mut opt = m.optimizer(3e-3);
    let batch = vec![
        vec![BOS, 10, 11, 12, 13, 14, EOS],
        vec![BOS, 20, 21, 22, 23, 24, EOS],
    ];
    for _ in 0..10 {
        m.train_step(&batch, &mut opt);
    }
    lm4db_obs::reset();

    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 1,
            tenants: vec![TenantClass::new("strict").slo_steps(4)],
            slo_admission: true,
            sample_steps: 1,
            slo_alerts: Some(lm4db_obs::AlertConfig {
                fast_samples: 1,
                slow_samples: 2,
                burn_num: 1,
                burn_den: 4,
                resolve_samples: 2,
            }),
            ..Default::default()
        },
    );
    // Overload, then drain, then idle cool-down: exercises shed-driven
    // burn, firing, and resolution — every slo/* counter class.
    for _ in 0..12 {
        engine.submit(Request::greedy(vec![BOS, 10], 3, EOS));
        engine.step();
    }
    engine.run();
    for _ in 0..8 {
        engine.step();
    }

    let stats = engine.stats();
    let snap = lm4db_obs::snapshot();
    lm4db_obs::set_enabled(false);

    // Same equality style as the per-tenant nine: the registry's
    // sampler/alert counters are a second view of the Stats fields.
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(stats.sampler_ticks > 0, "sampler must have ticked");
    assert_eq!(counter("serve/sampler_ticks"), stats.sampler_ticks);
    assert_eq!(counter("slo/pending"), stats.slo_pending);
    assert_eq!(counter("slo/firing"), stats.slo_firing);
    assert_eq!(counter("slo/resolved"), stats.slo_resolved);
    assert!(stats.slo_firing > 0, "overload must fire");
    assert!(stats.slo_resolved > 0, "cool-down must resolve");

    // The transition log agrees with both views, state by state.
    let fired = engine
        .alert_transitions()
        .iter()
        .filter(|t| t.to == lm4db_obs::AlertState::Firing)
        .count() as u64;
    assert_eq!(fired, stats.slo_firing);

    // And the sampler's series cover the engine's step range with one
    // point per tick (cadence 1), values consistent with the stats.
    let series = lm4db_obs::series_snapshot();
    let get = |name: &str| {
        series
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing series {name}"))
            .1
            .clone()
    };
    let submitted = get("serve/submitted");
    assert_eq!(submitted.total_pushed(), stats.sampler_ticks);
    assert_eq!(submitted.latest().unwrap().value, stats.submitted);
    let shed = get("serve/tenant/0/slo_shed");
    assert_eq!(
        shed.latest().unwrap().value,
        stats.tenants[&0].slo_shed,
        "series end at the cumulative stat"
    );
}

#[test]
fn tracing_does_not_change_engine_output() {
    let _l = lock();
    // Same engine run with tracing off and on: token streams must be
    // byte-identical (tracing is purely observational).
    let m = {
        let mut m = GptModel::new(ModelConfig::test(), 7);
        let mut opt = m.optimizer(3e-3);
        let batch = vec![
            vec![BOS, 10, 11, 12, 13, 14, EOS],
            vec![BOS, 20, 21, 22, 23, 24, EOS],
        ];
        for _ in 0..10 {
            m.train_step(&batch, &mut opt);
        }
        m
    };
    let run = || {
        let mut engine = Engine::new(&m);
        let reqs = [vec![BOS, 10], vec![BOS, 20, 21]]
            .iter()
            .map(|p| Request::greedy(p.clone(), 8, EOS))
            .collect();
        engine
            .generate_batch(reqs)
            .into_iter()
            .map(|r| r.tokens)
            .collect::<Vec<_>>()
    };
    lm4db_obs::set_enabled(false);
    let off = run();
    lm4db_obs::set_enabled(true);
    let on = run();
    lm4db_obs::set_enabled(false);
    assert_eq!(off, on, "tracing changed engine output");
}
