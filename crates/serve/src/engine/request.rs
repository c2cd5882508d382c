//! Request-side types: what callers submit and get back, the engine's
//! tuning knobs, and the one internal record ([`Job`]) a request lives in
//! from submit to retire.

use std::time::Instant;

use lm4db_transformer::{Hypothesis, KvCache, TokenMask};

use crate::sched::{TenantClass, TenantId};

/// Engine-assigned request handle, increasing in submission order.
pub type RequestId = u64;

/// When the engine must give up on a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Deadline {
    /// Run to completion.
    #[default]
    None,
    /// Survive at most this many scheduler steps, then retire with partial
    /// results. Deterministic (counts steps, not time).
    Steps(u64),
    /// Retire at this wall-clock instant — inherently non-deterministic;
    /// use [`Deadline::Steps`] when reproducibility matters.
    Wall(Instant),
}

/// What to do with a request's prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Greedy decoding, mirroring [`lm4db_transformer::greedy`].
    Greedy {
        /// Maximum number of generated tokens.
        max_new: usize,
        /// Stop token (never emitted).
        stop: usize,
    },
    /// Beam search, mirroring [`lm4db_transformer::beam`].
    Beam {
        /// Number of beams.
        width: usize,
        /// Maximum number of expansion rounds.
        max_new: usize,
        /// Stop token.
        stop: usize,
    },
    /// Teacher-forced scoring: the prompt is `prefix ++ continuation` and
    /// the response carries the total log-probability of the continuation,
    /// mirroring `lm4db_lm::score_continuation` over a KV-cached session.
    Score {
        /// Length of the conditioning prefix inside the prompt.
        prefix_len: usize,
    },
}

/// One unit of work for the engine. `Clone` is part of the contract: the
/// router tier keeps a copy of every in-flight request so it can re-submit
/// it to another replica after a kill (the mask attachment is borrowed, so
/// a clone is cheap and shares it).
#[derive(Clone)]
pub struct Request<'a> {
    /// Prompt token ids (non-empty; [`crate::Engine::submit`] fails one
    /// the model's window cannot hold).
    pub prompt: Vec<usize>,
    /// Decoding strategy.
    pub decode: Decode,
    /// Optional incremental grammar mask (PICARD-style constrained
    /// decoding): materialized once per decode step as a vocabulary-wide
    /// allow table — the same form `lm4db_transformer::{greedy, beam,
    /// sample}` take.
    pub mask: Option<&'a dyn TokenMask>,
    /// Optional deadline.
    pub deadline: Deadline,
    /// Owning tenant. With [`EngineOptions::tenants`] configured this must
    /// index into that list (validated at submit); otherwise it is a free
    /// label that only keys the per-tenant [`crate::Stats::tenants`]
    /// accounting.
    pub tenant: TenantId,
}

impl<'a> Request<'a> {
    fn new(prompt: Vec<usize>, decode: Decode) -> Self {
        Request {
            prompt,
            decode,
            mask: None,
            deadline: Deadline::None,
            tenant: 0,
        }
    }

    /// A greedy-decoding request.
    pub fn greedy(prompt: Vec<usize>, max_new: usize, stop: usize) -> Self {
        Request::new(prompt, Decode::Greedy { max_new, stop })
    }

    /// A beam-search request.
    pub fn beam(prompt: Vec<usize>, width: usize, max_new: usize, stop: usize) -> Self {
        let decode = Decode::Beam {
            width,
            max_new,
            stop,
        };
        Request::new(prompt, decode)
    }

    /// A continuation-scoring request.
    pub fn score(prefix: &[usize], continuation: &[usize]) -> Self {
        let mut prompt = prefix.to_vec();
        prompt.extend_from_slice(continuation);
        let prefix_len = prefix.len();
        Request::new(prompt, Decode::Score { prefix_len })
    }

    /// Attaches an incremental grammar mask (see [`Request::mask`]).
    pub fn with_mask(mut self, m: &'a dyn TokenMask) -> Self {
        self.mask = Some(m);
        self
    }

    /// Attaches a deadline.
    pub fn with_deadline(mut self, d: Deadline) -> Self {
        self.deadline = d;
        self
    }

    /// Assigns the request to a tenant (see [`Request::tenant`]).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// How a request left the engine. Every variant is terminal: a submitted
/// request produces exactly one response with exactly one outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to its natural end (stop token, budget, or dead end).
    Finished,
    /// Cancelled via [`crate::Engine::cancel`]; results are partial.
    Cancelled,
    /// Retired by its deadline; results are partial.
    DeadlineExpired,
    /// Every attempt was poisoned (a worker panic, or a malformed prompt
    /// that admission validation refused); results are partial and
    /// `reason` carries the last failure's diagnosis. The engine itself
    /// survives — see the [engine module docs](super) on fault isolation.
    Failed {
        /// The last panic message, or the validation error.
        reason: String,
    },
    /// Shed at admission: the queue was at [`EngineOptions::max_queue`].
    /// The request was never decoded; resubmit when load drops.
    Rejected,
}

/// The engine's answer to one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id returned by [`crate::Engine::submit`].
    pub id: RequestId,
    /// How the request ended.
    pub outcome: Outcome,
    /// Generated tokens: the greedy output, or the top hypothesis's
    /// generated part for beam requests (empty for scoring).
    pub tokens: Vec<usize>,
    /// All beam hypotheses, sorted exactly like [`lm4db_transformer::beam`]
    /// (empty for other request kinds).
    pub hyps: Vec<Hypothesis>,
    /// Continuation log-probability (scoring requests only).
    pub score: f32,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Maximum number of concurrently decoding requests.
    pub max_batch: usize,
    /// Prefix-cache budget in token positions; `0` disables the cache.
    pub prefix_cache_tokens: usize,
    /// Admission-control bound: submissions arriving while this many
    /// requests are already queued shed immediately with
    /// [`Outcome::Rejected`]. `0` (the default) means unbounded.
    pub max_queue: usize,
    /// How many times a fault-poisoned request is retried from scratch
    /// before retiring with [`Outcome::Failed`]. `0` fails on the first
    /// poisoning.
    pub max_retries: u32,
    /// Base quarantine backoff, in scheduler steps: retry `r` waits
    /// `retry_backoff_steps << r` steps (capped at 1024) before
    /// re-admission. Step-based, so fault recovery is reproducible.
    pub retry_backoff_steps: u64,
    /// Tenant classes, indexed by [`Request::tenant`]. Empty (the default)
    /// keeps the single global FIFO queue; non-empty switches admission to
    /// per-tenant queues with strict-priority tiers and weighted-fair
    /// sharing within a tier (see [`crate::sched`]), and submits must carry
    /// a tenant id below `tenants.len()`.
    pub tenants: Vec<TenantClass>,
    /// SLO-aware admission control: a submit for a tenant with a non-zero
    /// [`TenantClass::slo_steps`] is shed with [`Outcome::Rejected`] when
    /// `(backlog_ahead / max_batch + 1) * estimated_service_steps` exceeds
    /// the tenant's target — the backlog a tenant waits behind is its own
    /// tier's and higher tiers' queues plus the running batch, so
    /// lower-tier tenants shed first under overload. The service estimate
    /// is a deterministic integer EWMA over completed requests, starting
    /// at 4 steps before any request has completed.
    pub slo_admission: bool,
    /// Telemetry sampling cadence in scheduler ticks: every
    /// `sample_steps`-th tick, the engine snapshots its step-based
    /// counters, queue depths, and per-tenant step-latency quantiles into
    /// the global [`lm4db_obs::timeseries`] store and feeds the SLO
    /// monitor. Samples are pure functions of the request schedule
    /// (virtual step clock, no wall time), so sampling never perturbs
    /// outputs and replays byte-identically at any thread count or trace
    /// level. `0` disables sampling; the default comes from
    /// `LM4DB_SAMPLE_STEPS` ([`lm4db_obs::env_sample_steps`]).
    pub sample_steps: u64,
    /// Multi-window burn-rate alerting over per-tenant SLO outcomes (see
    /// [`lm4db_obs::slo`]): each sampler tick observes, per tenant class
    /// with a non-zero `slo_steps`, the cumulative bad outcomes
    /// (`slo_missed + slo_shed`) against all SLO-tracked outcomes.
    /// Transitions are booked in [`crate::Stats`] (`slo_pending` /
    /// `slo_firing` / `slo_resolved`), mirrored as `slo/*` registry
    /// counters and flight-recorder instants, and kept in an in-order log
    /// ([`crate::Engine::alert_transitions`]). While a tenant's alert is
    /// firing, SLO admission tightens: the shed predicate halves that
    /// tenant's step target, shedding earlier to drain the burn. Requires
    /// [`EngineOptions::sample_steps`] > 0 to observe anything. `None`
    /// (the default) disables alerting — and because alerting changes
    /// admission decisions, golden/soak determinism legs leave it off
    /// while freely enabling `sample_steps`.
    pub slo_alerts: Option<lm4db_obs::AlertConfig>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            max_batch: 8,
            prefix_cache_tokens: 4096,
            max_queue: 0,
            max_retries: 2,
            retry_backoff_steps: 2,
            tenants: Vec::new(),
            slo_admission: false,
            sample_steps: lm4db_obs::env_sample_steps(),
            slo_alerts: None,
        }
    }
}

/// One live sequence (a greedy/score request has one; a beam request has
/// up to `width`).
pub(super) struct Seq {
    pub cache: KvCache,
    /// Full token sequence: prompt plus chosen continuations.
    pub ids: Vec<usize>,
    /// How many of `ids` are scheduled for feeding; the unfed span is
    /// `ids[cache.len()..sched]`.
    pub sched: usize,
    pub log_prob: f32,
}

/// Decode progress of one attempt. Quarantine resets it wholesale
/// (`Run::default()`), so a retry can never inherit half-written state.
#[derive(Default)]
pub(super) struct Run {
    pub live: Vec<Seq>,
    /// Finished beam hypotheses.
    pub done: Vec<Hypothesis>,
    /// Beam expansion rounds completed.
    pub rounds: usize,
    /// Greedy output so far.
    pub out: Vec<usize>,
    /// Accumulated continuation log-probability (scoring).
    pub score: f32,
    /// Next continuation index to score.
    pub score_pos: usize,
    /// Whether this attempt's prefill was inserted into the prefix cache.
    pub inserted: bool,
}

/// The scheduler's record of one request, from [`crate::Engine::submit`]
/// to its terminal response. The same record moves whole between the
/// admission queue, the batch, and quarantine — no stage rebuilds it.
pub(super) struct Job<'a> {
    pub id: RequestId,
    /// Engine-local submission index — the deterministic half of the
    /// chaos-injection salt (request ids are process-global and therefore
    /// depend on what else ran in the process; serials don't). Assigned
    /// when the request is queued: sheds never consume one.
    pub serial: u64,
    /// Which attempt this is (0 = first); salts fault rolls so a retry
    /// re-rolls instead of deterministically re-faulting.
    pub attempt: u32,
    /// Earliest scheduler tick at which a quarantined job may re-admit.
    pub wake: u64,
    /// The request as submitted with its budget capped to the window, except
    /// for two fields the scheduler owns while the job is live.
    /// `deadline` holds the *remaining* budget: a
    /// `Steps` count ticks down once per step spent in the batch (not in
    /// quarantine — a backing-off request consumes no capacity). `prompt`
    /// is moved into `run.live[0].ids` at admission and moved back by
    /// quarantine, so the tokens are never copied; it is empty while the
    /// job is in the batch, which is why `prompt_len` is kept beside it.
    pub req: Request<'a>,
    pub prompt_len: usize,
    /// When submit accepted the request (end-to-end latency runs from
    /// here).
    pub submitted: Instant,
    /// Engine tick at submit; step-based queue-wait and latency run from
    /// here.
    pub submit_tick: u64,
    /// Engine tick of the latest admission (0 = never admitted; ticks
    /// start at 1). Service-step observations for the SLO estimator run
    /// from here, and it decides whether the job counts in its tenant's
    /// step-latency distribution.
    pub admit_tick: u64,
    pub run: Run,
}

impl<'a> Job<'a> {
    pub fn new(id: RequestId, req: Request<'a>, submit_tick: u64) -> Self {
        Job {
            id,
            serial: 0,
            attempt: 0,
            wake: 0,
            prompt_len: req.prompt.len(),
            req,
            submitted: Instant::now(),
            submit_tick,
            admit_tick: 0,
            run: Run::default(),
        }
    }

    /// The most positions any of this request's sequences can ever hold —
    /// what admission reserves its KV cache for: the prompt, plus one
    /// position per generated token or beam round (scoring generates
    /// nothing).
    pub fn horizon(&self) -> usize {
        match self.req.decode {
            Decode::Greedy { max_new, .. } | Decode::Beam { max_new, .. } => {
                self.prompt_len + max_new
            }
            Decode::Score { .. } => self.prompt_len,
        }
    }

    /// Number of leading prompt positions that must be fed before any
    /// selection: the whole prompt, except for scoring requests where the
    /// continuation is fed one token at a time.
    pub fn prefill_target(&self) -> usize {
        match self.req.decode {
            Decode::Score { prefix_len } => prefix_len,
            _ => self.prompt_len,
        }
    }
}
