//! **Exp T** (sharded serving): prefix-affinity routing vs a random
//! spread, and a failover drill that kills 1 of 4 replicas at peak.
//!
//! The workload is a session mix: `FAMILIES` prompt families, each with a
//! fixed instruction header (12 tokens) and a per-request suffix —
//! text-to-SQL assistants, wranglers, and the like all re-send their
//! header on every call. A family's header must be prefilled once per
//! replica before later requests can restore it, and each replica's
//! prefix cache holds `CACHE_TOKENS` positions, so the routing policy
//! decides both how often headers are warmed and whether they stay
//! resident:
//!
//! * **affinity** — consistent-hash on the header fingerprint: each
//!   family lands on exactly one replica, pays its header warm-up once
//!   fleet-wide, and that replica's working set (its share of the
//!   families) fits the cache budget;
//! * **random** — the locality-free baseline: a family's requests land on
//!   every replica, so its header is re-prefilled cold on each of them,
//!   and every replica's working set is the full family population —
//!   past its budget, so headers thrash on top of the repeated warm-ups.
//!
//! The first acceptance assertion pins the tentpole claim: the aggregate
//! warm prefix hit rate under affinity routing is **≥ 1.5×** the random
//! spread. The second is the failover drill: with the same affinity
//! traffic, replica 1 of 4 is killed at the submission peak; every
//! in-flight request must fail over and retire (zero lost, ledger
//! balanced) and the p99 latency in scheduler steps must stay within
//! `max(4× baseline, baseline + 64)` of the kill-free run.
//!
//! Everything is on the virtual step clock, so reruns are byte-identical.
//! `LM4DB_SMOKE=1` shrinks the run for CI.

use lm4db::fault::{self, mix};
use lm4db::router::{RoutePolicy, Router, RouterOptions, RouterStats};
use lm4db::serve::{EngineOptions, Request};
use lm4db::transformer::{GptModel, ModelConfig};
use lm4db_bench::{json_obj, write_results_json};
use serde_json::Value;

const SEED: u64 = 33;
/// Seed for the random routing policy. Deliberately NOT `SEED`: the
/// family draw below is `mix(SEED ^ mix(n)) % FAMILIES` and the random
/// policy routes by `mix(seed ^ mix(serial)) % replicas` — with the same
/// seed and `FAMILIES % REPLICAS == 0` the two draws are perfectly
/// correlated and "random" silently becomes affinity routing.
const RAND_SEED: u64 = 0x5eed;
const REPLICAS: usize = 4;
const HEADER_TOKENS: usize = 12;
const SUFFIX_TOKENS: usize = 4;
const CACHE_TOKENS: usize = 512;
const PER_TICK: usize = 2;

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

/// The `n`-th request: a family-stable 12-token header (what the prefix
/// cache can reuse) plus a request-unique suffix (what it cannot).
fn prompt(n: u64, families: u64) -> Vec<usize> {
    let family = mix(SEED ^ mix(n)) % families;
    let mut p = Vec::with_capacity(HEADER_TOKENS + SUFFIX_TOKENS);
    for i in 0..HEADER_TOKENS {
        p.push((mix(family.wrapping_mul(31).wrapping_add(i as u64)) % 255 + 1) as usize);
    }
    for i in 0..SUFFIX_TOKENS {
        p.push((mix(SEED ^ n.wrapping_mul(7).wrapping_add(i as u64)) % 255 + 1) as usize);
    }
    p
}

fn options(policy: RoutePolicy) -> RouterOptions {
    RouterOptions {
        replicas: REPLICAS,
        prefix_window: 8,   // inside the 12-token header: one key per family
        heartbeat_every: 0, // kills are explicit in this drill, not rolled
        policy,
        engine: EngineOptions {
            max_batch: 4,
            max_queue: 256,
            prefix_cache_tokens: CACHE_TOKENS,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Drives `total` requests open-loop at `PER_TICK`/tick, optionally
/// killing a replica mid-run, then drains. Returns the router's books
/// plus the externally counted retirements.
fn drive(
    model: &GptModel,
    policy: RoutePolicy,
    total: u64,
    families: u64,
    kill: Option<(u64, u32)>,
) -> (RouterStats, u64) {
    let mut router = Router::new(model, options(policy));
    let mut issued = 0u64;
    let mut retired = 0u64;
    let mut tick = 0u64;
    let mut more = true;
    while issued < total || more {
        if let Some((kill_tick, replica)) = kill {
            if tick == kill_tick {
                router.kill_replica(replica);
            }
        }
        for _ in 0..PER_TICK {
            if issued < total {
                router.submit(Request::greedy(prompt(issued, families), 3, usize::MAX));
                issued += 1;
            }
        }
        more = router.step();
        tick += 1;
        retired += router.take_responses().len() as u64;
        assert!(tick < total * 100 + 10_000, "router failed to drain");
    }
    (router.stats(), retired)
}

/// Aggregate warm-prefix hit rate across all replicas of a run.
fn hit_rate(st: &RouterStats) -> f64 {
    let (mut cached, mut prefill) = (0u64, 0u64);
    for r in &st.replicas {
        cached += r.engine.cached_prefix_tokens;
        prefill += r.engine.prefill_tokens;
    }
    if cached + prefill == 0 {
        0.0
    } else {
        cached as f64 / (cached + prefill) as f64
    }
}

fn main() {
    // This is a controlled drill: the only kill is the explicit one below,
    // so an ambient chaos environment must not leak in.
    fault::disarm();
    let smoke = std::env::var("LM4DB_SMOKE").is_ok_and(|v| v == "1");
    // ~5 requests per family either way: enough repeats for warm headers
    // under affinity, few enough that random routing keeps paying cold
    // header prefills on replicas that have not seen the family yet.
    let (total, families): (u64, u64) = if smoke { (160, 32) } else { (640, 128) };
    let model = GptModel::new(cfg(), 11);

    let mut out = String::new();
    let mut emit = |line: &str| {
        println!("{line}");
        out.push_str(line);
        out.push('\n');
    };

    emit(&format!(
        "### Exp T — sharded serving: {REPLICAS} replicas, {families} prompt \
         families ({HEADER_TOKENS}-token headers), {total} requests, \
         {CACHE_TOKENS}-token prefix cache per replica"
    ));
    emit("");

    // ---- Part 1: routing policy vs warm-cache hit rate -------------------
    let (affinity, aff_retired) = drive(&model, RoutePolicy::PrefixAffinity, total, families, None);
    let (random, rnd_retired) = drive(
        &model,
        RoutePolicy::Random { seed: RAND_SEED },
        total,
        families,
        None,
    );
    for (name, st, retired) in [
        ("affinity", &affinity, aff_retired),
        ("random", &random, rnd_retired),
    ] {
        assert_eq!(retired, st.submitted, "{name}: lost requests");
        assert_eq!(st.terminal_total(), st.submitted, "{name} ledger: {st:?}");
    }

    emit("| policy | prefix hit rate | per-replica routed | per-replica hit rate |");
    emit("|---|---|---|---|");
    for (name, st) in [("affinity", &affinity), ("random", &random)] {
        let routed: Vec<String> = st.replicas.iter().map(|r| r.routed.to_string()).collect();
        let hits: Vec<String> = st
            .replicas
            .iter()
            .map(|r| format!("{:.2}", r.engine.prefix_hit_rate()))
            .collect();
        emit(&format!(
            "| {name} | {:.3} | {} | {} |",
            hit_rate(st),
            routed.join("/"),
            hits.join("/"),
        ));
    }
    let (aff_hit, rnd_hit) = (hit_rate(&affinity), hit_rate(&random));
    emit("");
    emit(&format!(
        "affinity/random hit-rate ratio: {:.2}x",
        aff_hit / rnd_hit.max(1e-9)
    ));
    assert!(
        aff_hit >= 1.5 * rnd_hit,
        "acceptance: affinity routing must keep headers warm — hit rate \
         {aff_hit:.3} vs random {rnd_hit:.3} (need ≥ 1.5x)"
    );

    // ---- Part 2: failover drill — kill 1 of 4 at the submission peak -----
    let kill_tick = total / PER_TICK as u64 / 2;
    let victim = 1u32;
    let (killed, kill_retired) = drive(
        &model,
        RoutePolicy::PrefixAffinity,
        total,
        families,
        Some((kill_tick, victim)),
    );
    assert_eq!(kill_retired, killed.submitted, "kill run: lost requests");
    assert_eq!(
        killed.terminal_total(),
        killed.submitted,
        "kill run ledger: {killed:?}"
    );
    assert_eq!(killed.kills, 1);
    assert!(
        killed.failovers >= 1,
        "killing replica {victim} at tick {kill_tick} stranded no in-flight \
         work — the drill is not exercising failover"
    );
    assert!(
        !killed.replicas[victim as usize].alive && killed.live_replicas() == REPLICAS - 1,
        "exactly one replica must be down"
    );

    let base_p99 = affinity.latency_steps.quantile(0.99);
    let kill_p99 = killed.latency_steps.quantile(0.99);
    let bound = (4 * base_p99).max(base_p99 + 64);
    emit("");
    emit(&format!(
        "failover drill: killed replica {victim}/{REPLICAS} at tick \
         {kill_tick}; failovers={} completed={} failed={} p99={} steps \
         (baseline {base_p99}, bound {bound})",
        killed.failovers, killed.completed, killed.failed, kill_p99
    ));
    assert!(
        kill_p99 <= bound,
        "acceptance: p99 with a dead replica must stay bounded — \
         {kill_p99} steps vs bound {bound} (baseline {base_p99})"
    );
    emit(&format!(
        "acceptance: hit-rate ratio {:.2}x ≥ 1.5x and kill p99 {kill_p99} ≤ {bound} — ok",
        aff_hit / rnd_hit.max(1e-9)
    ));

    let per_replica = |st: &RouterStats| -> Value {
        Value::Array(
            st.replicas
                .iter()
                .map(|r| {
                    json_obj(vec![
                        ("routed", Value::Int(r.routed as i64)),
                        ("alive", Value::Bool(r.alive)),
                        ("completed", Value::Int(r.engine.completed as i64)),
                        (
                            "prefix_hit_rate",
                            Value::Float(f64::from(r.engine.prefix_hit_rate())),
                        ),
                    ])
                })
                .collect(),
        )
    };
    let txt_path = lm4db_bench::results_path("expT_router.txt");
    std::fs::create_dir_all(txt_path.parent().unwrap()).expect("results dir");
    std::fs::write(&txt_path, &out).expect("write txt results");
    let path = write_results_json(
        "expT_router.json",
        &json_obj(vec![
            ("experiment", Value::Str("expT_router".into())),
            ("seed", Value::Int(SEED as i64)),
            ("smoke", Value::Bool(smoke)),
            ("replicas", Value::Int(REPLICAS as i64)),
            ("families", Value::Int(families as i64)),
            ("requests", Value::Int(total as i64)),
            ("prefix_cache_tokens", Value::Int(CACHE_TOKENS as i64)),
            ("affinity_hit_rate", Value::Float(aff_hit)),
            ("random_hit_rate", Value::Float(rnd_hit)),
            ("hit_rate_ratio", Value::Float(aff_hit / rnd_hit.max(1e-9))),
            ("affinity_replicas", per_replica(&affinity)),
            ("random_replicas", per_replica(&random)),
            ("kill_tick", Value::Int(kill_tick as i64)),
            ("killed_replica", Value::Int(victim as i64)),
            ("failovers", Value::Int(killed.failovers as i64)),
            ("kill_completed", Value::Int(killed.completed as i64)),
            ("kill_failed", Value::Int(killed.failed as i64)),
            ("baseline_p99_steps", Value::Int(base_p99 as i64)),
            ("kill_p99_steps", Value::Int(kill_p99 as i64)),
            ("kill_p99_bound_steps", Value::Int(bound as i64)),
        ]),
    );
    println!("wrote {} and {}", txt_path.display(), path.display());
}
