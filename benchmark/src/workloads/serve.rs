//! The serving workloads: requests through `Router` → `Engine` → KV decode
//! → kernels, on one model, two replicas and prefix-affinity routing.
//!
//! * `serve_decode` — short unshared prompts, long greedy outputs: decode
//!   is nearly all of the model's tokens, the prefix cache and the routing
//!   policy have nothing to do.
//! * `serve_prefix` — prompts that share long headers, short outputs: the
//!   prefix cache, the routing policy and prefill do the work, decode
//!   little. The header working set is larger than one replica's cache and
//!   fits across two only when a family always lands on the same replica.
//! * `serve_mix_open` — the three-tenant mix of expQ on the wall clock:
//!   beam, teacher-forced scoring and greedy requests, tenant classes and
//!   fair queues, idle steps. The same layers, used differently.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lm4db::loadgen::{LoadGen, Phase, PromptShape, Rng, TenantSpec, Workload};
use lm4db::router::{RoutePolicy, Router, RouterOptions, RouterStats};
use lm4db::serve::{Decode, EngineOptions, Outcome, Request, TenantClass};
use lm4db::transformer::{greedy_cached, GptModel, ModelConfig};

use crate::alloc;
use crate::open::{self, Clock, Server};
use crate::report::{end_to_end, metric, timed_setup, Metric, RunArgs, RunResult, SetUp};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::window::{Plan, Window};

pub const REPLICAS: usize = 2;
const MAX_BATCH: usize = 8;
const CLIENTS: usize = 16;
const SETUP_REPS: usize = 15;
/// Never emitted, so a request's service time is its budget, not a
/// property of the random weights.
const STOP: usize = usize::MAX;

/// The model every serving workload and every transformer probe uses.
pub fn serving_config() -> ModelConfig {
    ModelConfig {
        vocab_size: 512,
        max_seq_len: 96,
        d_model: 128,
        n_heads: 4,
        n_layers: 4,
        d_ff: 512,
        dropout: 0.0,
    }
}

/// The model-init seed is fixed: `--seed` drives inputs, not weights.
pub fn serving_model() -> GptModel {
    GptModel::new(serving_config(), 11)
}

fn router_options(prefix_cache_tokens: usize, tenants: Vec<TenantClass>) -> RouterOptions {
    RouterOptions {
        replicas: REPLICAS,
        prefix_window: 8,
        // No health rolls and no telemetry sampling, whatever LM4DB_* says.
        heartbeat_every: 0,
        policy: RoutePolicy::PrefixAffinity,
        engine: EngineOptions {
            max_batch: MAX_BATCH,
            prefix_cache_tokens,
            sample_steps: 0,
            tenants,
            ..EngineOptions::default()
        },
        ..RouterOptions::default()
    }
}

/// Set-up is the construction of model and router: where a later change
/// could move work to (pre-packed weights, a quantised snapshot).
fn set_up(options: &RouterOptions) -> (GptModel, SetUp) {
    timed_setup(SETUP_REPS, || {
        let model = serving_model();
        drop(std::hint::black_box(Router::new(&model, options.clone())));
        model
    })
}

/// The counters the serving layers keep, summed over replicas. In a closed
/// loop they are a function of the request sequence alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub router_steps: u64,
    pub engine_steps: u64,
    pub prefill_tokens: u64,
    pub cached_prefix_tokens: u64,
    pub decoded_tokens: u64,
    pub occupancy_sum: u64,
    pub rejected: u64,
    pub retries: u64,
    pub routed: [u64; REPLICAS],
}

impl Counters {
    fn read(st: &RouterStats) -> Self {
        let mut c = Counters {
            router_steps: st.steps,
            ..Counters::default()
        };
        for (i, r) in st.replicas.iter().enumerate() {
            c.engine_steps += r.engine.steps;
            c.prefill_tokens += r.engine.prefill_tokens;
            c.cached_prefix_tokens += r.engine.cached_prefix_tokens;
            c.decoded_tokens += r.engine.decoded_tokens;
            c.occupancy_sum += r.engine.batch_occupancy_sum;
            c.rejected += r.engine.rejected;
            c.retries += r.engine.retries;
            c.routed[i] = r.routed;
        }
        c
    }

    fn since(self, earlier: Counters) -> Counters {
        let mut routed = self.routed;
        for (r, e) in routed.iter_mut().zip(earlier.routed) {
            *r -= e;
        }
        Counters {
            router_steps: self.router_steps - earlier.router_steps,
            engine_steps: self.engine_steps - earlier.engine_steps,
            prefill_tokens: self.prefill_tokens - earlier.prefill_tokens,
            cached_prefix_tokens: self.cached_prefix_tokens - earlier.cached_prefix_tokens,
            decoded_tokens: self.decoded_tokens - earlier.decoded_tokens,
            occupancy_sum: self.occupancy_sum - earlier.occupancy_sum,
            rejected: self.rejected - earlier.rejected,
            retries: self.retries - earlier.retries,
            routed,
        }
    }

    fn model_tokens(&self) -> u64 {
        self.prefill_tokens + self.decoded_tokens
    }
}

/// A span of the run with its counters, allocations and wall time.
#[derive(Debug, Clone, Copy)]
struct Mark {
    counters: Counters,
    allocs: usize,
    /// Prompt plus generated tokens of the requests finished so far.
    tokens: u64,
    at: Instant,
}

/// What the harness expects of a response, kept from submit to collect.
struct Expect {
    prompt_len: usize,
    /// `Some(budget)` for greedy requests, which must use it up.
    greedy_budget: Option<usize>,
    /// Kept for every `verify_every`-th greedy request.
    prompt: Option<Vec<usize>>,
}

/// The router with the harness's checks and spans around it.
struct Routed<'m> {
    router: Router<'m>,
    expect: BTreeMap<u64, Expect>,
    greedy_seen: u64,
    verify_every: u64,
    /// `(prompt, budget, tokens)` of the sampled greedy responses.
    to_verify: Vec<(Vec<usize>, usize, Vec<usize>)>,
    submitted: u64,
    /// Prompt plus generated tokens of finished requests.
    tokens: u64,
}

impl<'m> Routed<'m> {
    fn new(model: &'m GptModel, options: RouterOptions, verify_every: u64) -> Self {
        Routed {
            router: Router::new(model, options),
            expect: BTreeMap::new(),
            greedy_seen: 0,
            verify_every,
            to_verify: Vec::new(),
            submitted: 0,
            tokens: 0,
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            counters: Counters::read(&self.router.stats()),
            allocs: alloc::allocs(),
            tokens: self.tokens,
            at: Instant::now(),
        }
    }

    /// The checks that need the whole run: the router's ledger balances
    /// with everything finished, and the sampled greedy outputs equal an
    /// independent sequential decode through `greedy_cached`.
    fn final_checks(&self, model: &GptModel) -> bool {
        let st = self.router.stats();
        let ledger = st.terminal_total() == st.submitted && st.completed == st.submitted;
        if !ledger {
            eprintln!("check failed: router ledger {st:?}");
        }
        let mut same = true;
        for (prompt, budget, tokens) in &self.to_verify {
            if greedy_cached(model, prompt, *budget, STOP) != *tokens {
                eprintln!("check failed: served tokens differ from greedy_cached for {prompt:?}");
                same = false;
            }
        }
        ledger && same && self.expect.is_empty()
    }
}

impl<'m> Server for Routed<'m> {
    type Request = Request<'m>;

    fn submit(&mut self, req: Request<'m>, tracer: &mut Tracer) -> u64 {
        let greedy_budget = match req.decode {
            Decode::Greedy { max_new, .. } => Some(max_new),
            _ => None,
        };
        let mut prompt = None;
        if greedy_budget.is_some() {
            if self.greedy_seen.is_multiple_of(self.verify_every) {
                prompt = Some(req.prompt.clone());
            }
            self.greedy_seen += 1;
        }
        let expect = Expect {
            prompt_len: req.prompt.len(),
            greedy_budget,
            prompt,
        };
        // Router ids count submissions, so the span's op is the id to come.
        let op = self.submitted;
        self.submitted += 1;
        let id = tracer.span("Router::submit", op, |_| self.router.submit(req));
        self.expect.insert(id, expect);
        id
    }

    fn step(&mut self, tracer: &mut Tracer) -> bool {
        tracer.span("Router::step", self.router.ticks(), |_| self.router.step())
    }

    fn collect(&mut self, tracer: &mut Tracer) -> Vec<(u64, bool)> {
        // The step that just ran: its responses share its op.
        let op = self.router.ticks() - 1;
        let responses = tracer.span("Router::take_responses", op, |_| {
            self.router.take_responses()
        });
        let mut out = Vec::with_capacity(responses.len());
        for resp in responses {
            let expect = self
                .expect
                .remove(&resp.id)
                .expect("response to an unknown id");
            let mut ok = resp.outcome == Outcome::Finished;
            if let Some(budget) = expect.greedy_budget {
                ok &= resp.tokens.len() == budget;
                if let Some(prompt) = expect.prompt {
                    self.to_verify.push((prompt, budget, resp.tokens.clone()));
                }
            }
            if ok {
                self.tokens += (expect.prompt_len + resp.tokens.len()) as u64;
            } else {
                eprintln!("check failed: request {} ended {:?}", resp.id, resp.outcome);
            }
            out.push((resp.id, ok));
        }
        out
    }
}

/// A closed loop of `CLIENTS` clients: each sends its next request when
/// the previous one completes. `warmup` completions go untimed (caches
/// fill, the pool spawns), then the window runs.
struct ClosedRun {
    window: Window,
    warmup_ok: bool,
    /// Start of the window and the end of its `min_segments`-th segment.
    fixed: (Mark, Mark),
    end: Mark,
}

fn closed_loop(
    routed: &mut Routed<'_>,
    tracer: &mut Tracer,
    plan: Plan,
    warmup: usize,
    mut next_request: impl FnMut(u64) -> Request<'static>,
) -> ClosedRun {
    let mut started: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut issued = 0u64;
    let mut warm_left = warmup;
    let mut warmup_ok = true;
    let mut window: Option<Window> = None;
    let mut marks: Vec<Mark> = Vec::new();
    let mut stopping = false;
    loop {
        while !stopping && started.len() < CLIENTS {
            let id = routed.submit(next_request(issued), tracer);
            started.insert(id, Instant::now());
            issued += 1;
        }
        if started.is_empty() {
            break;
        }
        routed.step(tracer);
        let done = routed.collect(tracer);
        let now = Instant::now();
        for (id, ok) in done {
            let t0 = started.remove(&id).expect("completion of an unknown id");
            let Some(w) = &mut window else {
                warmup_ok &= ok;
                warm_left -= 1;
                if warm_left == 0 {
                    marks.push(routed.mark());
                    window = Some(Window::new(plan, Duration::ZERO));
                }
                continue;
            };
            let ms = now.duration_since(t0).as_secs_f64() * 1e3;
            if w.record(ms, ok, Duration::ZERO, tracer) {
                if w.min_segments_done() {
                    marks.push(routed.mark());
                }
                stopping |= w.time_is_up();
            }
        }
    }
    ClosedRun {
        window: window.expect("warm-up never finished"),
        warmup_ok,
        fixed: (marks[0], marks[1]),
        end: routed.mark(),
    }
}

/// Per-layer metrics of a serving run. Counts cover `from` to `to`: the
/// first `min_segments` segments of a closed loop, where they repeat
/// exactly; the open loop passes its whole run. `end` closes the run.
fn layer_metrics(
    from: &Mark,
    to: &Mark,
    end: &Mark,
    routed: &Routed<'_>,
    window: &Window,
    tracer: &Tracer,
) -> Vec<Metric> {
    let c = to.counters.since(from.counters);
    let wall_s = to.at.duration_since(from.at).as_secs_f64();
    let whole_s = end.at.duration_since(from.at).as_secs_f64();
    let share = |part: u64, of: u64| part as f64 / of.max(1) as f64;
    let mean_routed = c.routed.iter().sum::<u64>() as f64 / REPLICAS as f64;
    let max_routed = *c.routed.iter().max().expect("REPLICAS > 0") as f64;
    let mut out = vec![
        metric("router.steps", c.router_steps as f64, "count"),
        metric(
            "router.routed_imbalance",
            max_routed / mean_routed.max(1.0),
            "ratio",
        ),
        metric(
            "serve.prefix_hit_share",
            share(
                c.cached_prefix_tokens,
                c.cached_prefix_tokens + c.prefill_tokens,
            ),
            "share",
        ),
        // Of all the tokens the requests consist of — cached, prefilled or
        // decoded — the share that took a decode step.
        metric(
            "serve.decode_token_share",
            share(c.decoded_tokens, c.model_tokens() + c.cached_prefix_tokens),
            "share",
        ),
        metric("serve.prefill_tokens", c.prefill_tokens as f64, "count"),
        metric("serve.decoded_tokens", c.decoded_tokens as f64, "count"),
        metric(
            "serve.cached_prefix_tokens",
            c.cached_prefix_tokens as f64,
            "count",
        ),
        metric(
            "serve.batch_occupancy_mean",
            share(c.occupancy_sum, c.engine_steps),
            "seqs",
        ),
        metric(
            "serve.tokens_per_step",
            share(c.model_tokens(), c.router_steps),
            "tok/step",
        ),
        metric("serve.rejected", c.rejected as f64, "count"),
        metric("serve.retries", c.retries as f64, "count"),
        metric(
            "serve.allocs_per_step",
            share((to.allocs - from.allocs) as u64, c.router_steps),
            "count",
        ),
        metric(
            "serve.model_tok_s",
            c.model_tokens() as f64 / wall_s,
            "tok/s",
        ),
        metric(
            "serve.tokens_per_s",
            (end.tokens - from.tokens) as f64 / whole_s,
            "tok/s",
        ),
        metric(
            "obs.trace_overhead_share",
            window.trace_overhead_share(),
            "share",
        ),
    ];
    // Timers, from the harness spans of the traced segments and from the
    // engines' own queue-wait histograms (whole run, warm-up included).
    let totals = tracer.totals();
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.calls.max(1) as f64)
    };
    let mut queue_wait = lm4db::obs::Histogram::new();
    for r in &routed.router.stats().replicas {
        queue_wait.merge(&r.engine.queue_wait);
    }
    out.extend([
        metric("router.submit_us", mean_us("Router::submit"), "us"),
        metric(
            "router.step_ms_p50",
            tracer.percentile_ms("Router::step", 0.50),
            "ms",
        ),
        metric(
            "router.step_ms_p99",
            tracer.percentile_ms("Router::step", 0.99),
            "ms",
        ),
        metric("router.collect_us", mean_us("Router::take_responses"), "us"),
        metric(
            "serve.queue_wait_p50_ms",
            queue_wait.quantile(0.50) as f64 / 1e6,
            "ms",
        ),
        metric(
            "serve.queue_wait_p99_ms",
            queue_wait.quantile(0.99) as f64 / 1e6,
            "ms",
        ),
    ]);
    out
}

fn scaled(n: usize, smoke: bool) -> usize {
    if smoke {
        (n / 10).max(1)
    } else {
        n
    }
}

fn random_tokens(rng: &mut Rng, n: usize) -> Vec<usize> {
    // [4, vocab): the specials never appear mid-prompt.
    let span = (serving_config().vocab_size - 4) as u64;
    (0..n).map(|_| 4 + rng.below(span) as usize).collect()
}

/// Runs one of the two closed-loop workloads and reports it.
fn closed_workload(
    args: &RunArgs,
    tracer: &mut Tracer,
    plan: Plan,
    warmup: usize,
    verify_every: u64,
    next_request: impl FnMut(u64) -> Request<'static>,
) -> (RunResult, Counters) {
    let options = router_options(4096, Vec::new());
    let (model, set_up) = set_up(&options);
    let mut routed = Routed::new(&model, options, verify_every);
    let run = closed_loop(&mut routed, tracer, plan, warmup, next_request);
    let correct = routed.final_checks(&model) && run.warmup_ok && run.window.failed == 0;
    let (from, to) = &run.fixed;
    let metrics = if args.trace {
        layer_metrics(from, to, &run.end, &routed, &run.window, tracer)
    } else {
        end_to_end(&run.window, set_up, run.window.per_segment())
    };
    let result = RunResult {
        correct,
        attempted: run.window.attempted,
        failed: run.window.failed,
        metrics,
    };
    (result, to.counters.since(from.counters))
}

pub const DECODE_PROMPT: usize = 8;
pub const DECODE_NEW: usize = 48;

pub fn serve_decode(args: &RunArgs, tracer: &mut Tracer) -> (RunResult, Counters) {
    let plan = Plan {
        segment_ops: scaled(200, args.smoke),
        min_segments: 2,
        seconds: args.seconds,
        limit_ms: 1000.0,
        trace: args.trace,
    };
    let mut rng = Rng::derive(args.seed, &[1]);
    closed_workload(args, tracer, plan, scaled(160, args.smoke), 64, move |_| {
        // 40 to 56 new tokens, 48 on average: equal budgets would keep the
        // clients in lockstep and completions would come in bursts of eight.
        let new = DECODE_NEW - 8 + rng.below(17) as usize;
        Request::greedy(random_tokens(&mut rng, DECODE_PROMPT), new, STOP)
    })
}

pub const PREFIX_FAMILIES: u64 = 96;
pub const PREFIX_HEADER: usize = 56;
pub const PREFIX_TAIL: usize = 4;
pub const PREFIX_NEW: usize = 4;

pub fn serve_prefix(args: &RunArgs, tracer: &mut Tracer) -> (RunResult, Counters) {
    let plan = Plan {
        segment_ops: scaled(400, args.smoke),
        min_segments: 2,
        seconds: args.seconds,
        limit_ms: 250.0,
        trace: args.trace,
    };
    let mut rng = Rng::derive(args.seed, &[2]);
    closed_workload(
        args,
        tracer,
        plan,
        scaled(1000, args.smoke),
        256,
        move |_| {
            // The headers are the workload's fixed instruction templates, as
            // LoadGen's are: which replica a family lands on, and so how the
            // cache budget splits, does not change with the seed. The seed
            // draws the order of the families and the tails.
            let family = rng.below(PREFIX_FAMILIES);
            let mut prompt = random_tokens(&mut Rng::derive(0xB007, &[family]), PREFIX_HEADER);
            prompt.extend(random_tokens(&mut rng, PREFIX_TAIL));
            Request::greedy(prompt, PREFIX_NEW, STOP)
        },
    )
}

// ---- serve_mix_open --------------------------------------------------

/// One generator tick. Short, so that arrivals are spread over time and
/// not sent in bursts of several requests every 50 ms.
const TICK: Duration = Duration::from_millis(10);
/// Rate multiplier of the schedule: 1.6 × this requests per tick, so about
/// 36 requests per second, a little under a third of what two replicas
/// serve of this mix. At half of capacity the same seed's median latency
/// stopped repeating within a fifth on a two-core host.
const MIX_RATE: f64 = 0.225;
/// An open-loop request misses its limit when it finishes later than this
/// after it was due.
const MIX_LIMIT_MS: f64 = 100.0;
/// Ticks that run before the window opens: two seconds.
const MIX_WARM_TICKS: u64 = 200;

fn mix_shape() -> PromptShape {
    PromptShape {
        vocab: serving_config().vocab_size,
        max_prompt: 32,
        // LoadGen draws a budget in two uniform stages; with a ceiling of
        // 23 both the median and the 95th percentile budget (5 and 17
        // tokens) lie in the middle of their probability mass, so neither
        // latency percentile sits on the edge between two step counts.
        max_new: 23,
    }
}

/// The three-tenant mix of expQ: an interactive tier, a mid-tier analytics
/// tenant and a best-effort batch tier; 1.6 requests per tick at rate 1.
fn tenant_specs() -> Vec<TenantSpec> {
    let spec = |name, rate, tier, weight, mix: &[(Workload, f64)]| TenantSpec {
        name,
        rate,
        tier,
        weight,
        slo_steps: 0,
        slo_wall_ms: 0,
        mix: Workload::mix(mix),
    };
    vec![
        spec(
            "interactive",
            0.8,
            0,
            4,
            &[
                (Workload::Text2Sql, 3.0),
                (Workload::Wrangle, 2.0),
                (Workload::FactCheck, 2.0),
                (Workload::NeuralDb, 1.0),
            ],
        ),
        spec(
            "analytics",
            0.5,
            1,
            2,
            &[
                (Workload::Summarize, 2.0),
                (Workload::FactCheck, 1.0),
                (Workload::Lm, 1.0),
            ],
        ),
        spec(
            "batch",
            0.3,
            2,
            1,
            &[(Workload::CodeGen, 2.0), (Workload::Lm, 1.0)],
        ),
    ]
}

/// The generator of `serve_mix_open`, also probed on its own.
pub fn mix_generator(seed: u64, ticks: u64) -> LoadGen {
    LoadGen::new(
        seed,
        mix_shape(),
        tenant_specs(),
        vec![Phase::poisson(ticks, MIX_RATE)],
    )
}

/// The wall clock. It waits by spinning: a driver that sleeps measures the
/// host's timer and power management — the same seed's 95th percentile
/// ranged from 23 to 36 ms with `thread::sleep`, and 20 to 22 ms spinning.
struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&mut self, t: Duration) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

pub fn serve_mix_open(args: &RunArgs, tracer: &mut Tracer) -> RunResult {
    let classes = tenant_specs()
        .iter()
        .map(|s| TenantClass::new(s.name).tier(s.tier).weight(s.weight))
        .collect();
    // The mix's shared headers are under a hundred tokens; its tails are
    // random. A budget of 1024 positions per replica fills within seconds,
    // so the heap of the window is that of a full cache, not of a cache
    // that is still growing when the run ends.
    let options = router_options(1024, classes);
    let (model, set_up) = set_up(&options);
    // Every 8th greedy request is re-decoded: there are fewer of them here.
    let mut routed = Routed::new(&model, options, 8);

    let plan = Plan {
        segment_ops: scaled(100, args.smoke),
        min_segments: 1,
        seconds: args.seconds,
        limit_ms: MIX_LIMIT_MS,
        trace: args.trace,
    };
    // However short `--seconds` is, the schedule is long enough to expect
    // three segments' worth of arrivals, so that one closes.
    let least_ticks = (3.0 * plan.segment_ops as f64 / (1.6 * MIX_RATE)).ceil() as u64;
    let warm_ticks = scaled(MIX_WARM_TICKS as usize, args.smoke) as u64;
    let window_ticks = (args.seconds / TICK.as_secs_f64()).ceil() as u64;
    let ticks = warm_ticks + window_ticks.max(least_ticks);
    let gen = mix_generator(args.seed, ticks);
    let warm_end = TICK * warm_ticks as u32;
    let mut window: Option<Window> = None;
    let start = routed.mark();
    let mut clock = WallClock(Instant::now());
    let log = open::run(
        &mut routed,
        &mut clock,
        tracer,
        TICK,
        ticks,
        |tick, tracer| {
            let arrivals = tracer.span("LoadGen::arrivals_at", tick, |_| gen.arrivals_at(tick));
            arrivals
                .iter()
                .map(|a| tracer.span("Arrival::to_request", tick, |_| a.to_request()))
                .collect()
        },
        |done, idle, tracer| {
            if done.due < warm_end {
                return;
            }
            let w = window.get_or_insert_with(|| Window::new(plan, idle));
            let ms = done.latency.as_secs_f64() * 1e3;
            w.record(ms, done.ok, idle, tracer);
        },
    );
    let window = window.expect("no request was due after the warm-up");
    let correct = routed.final_checks(&model) && window.failed == 0;
    let metrics = if args.trace {
        // The open loop has no exact prefix: counters cover the whole run,
        // warm-up and idle time included, and are not expected to repeat.
        let end = routed.mark();
        let lag_ms: Vec<f64> = log.lag.iter().map(|l| l.as_secs_f64() * 1e3).collect();
        let mut m = layer_metrics(&start, &end, &end, &routed, &window, tracer);
        let whole_s = end.at.duration_since(start.at).as_secs_f64();
        m.extend([
            metric(
                "loadgen.idle_share",
                log.idle.as_secs_f64() / whole_s,
                "share",
            ),
            metric("loadgen.send_lag_p99_ms", percentile(&lag_ms, 0.99), "ms"),
            metric(
                "loadgen.latency_p99_ms",
                window.pooled_percentile_ms(0.99),
                "ms",
            ),
        ]);
        m
    } else {
        // One segment of an open loop is mostly arrival noise: pool them.
        end_to_end(&window, set_up, window.pooled())
    };
    RunResult {
        correct,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Closed = fn(&RunArgs, &mut Tracer) -> (RunResult, Counters);

    /// A smoke-scale run of exactly `min_segments` segments.
    fn counters(workload: Closed, seed: u64, trace: bool) -> Counters {
        lm4db::fault::disarm();
        let args = RunArgs {
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
        };
        let (result, counters) = workload(&args, &mut Tracer::new());
        assert!(result.correct && result.failed == 0 && result.attempted > 0);
        counters
    }

    #[test]
    fn closed_loop_counters_repeat_exactly_and_follow_the_seed() {
        for workload in [serve_decode as Closed, serve_prefix] {
            let first = counters(workload, 1, false);
            assert!(first.router_steps > 0 && first.decoded_tokens > 0);
            assert!(first.routed.iter().sum::<u64>() > 0);
            assert_eq!(first, counters(workload, 1, false));
            // Spans and the program's own level-1 instrumentation observe;
            // they must not change what the program does.
            assert_eq!(first, counters(workload, 1, true));
            assert_ne!(first, counters(workload, 2, false));
        }
    }
}
