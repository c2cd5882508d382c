//! The continuous-batching scheduler.
//!
//! One [`Engine`] borrows a frozen [`GptModel`] and serves any number of
//! requests through a synchronous API: submit, then `step()` (or `run()`)
//! until responses appear. Internally every scheduler step runs four
//! stages, each a small module of free functions over the engine's shared
//! batch state (`admit`, `feed`, `select`, `retire`):
//!
//! 1. **admit** moves queued requests into the dynamic batch while slots
//!    are free, restoring any shared prompt prefix from the trie cache,
//!    and sweeps cancelled and deadline-expired requests out,
//! 2. **feed** runs every live sequence's pending tokens through the model
//!    as one stacked forward ([`feed_stack`]): decode rows, prefill chunks
//!    and beam siblings are rows of one activation, each projection of each
//!    layer runs once over the stack, and row groups of it fan out across
//!    the worker pool in one dispatch. Rows share weight sweeps, never an
//!    accumulator, and each sequence attends over and appends to only its
//!    own [`KvCache`], so the computation for one request is independent
//!    of what else is in the batch,
//! 3. **select** chooses the next token(s) for each request serially, in
//!    submission order, with the exact float operations of the
//!    single-request decoders in `lm4db_transformer::generate`, and
//! 4. **retire** is the one exit: every terminal route — shed at submit,
//!    cancelled while queued, swept from quarantine, failed after its
//!    retries, finished in the batch — passes through one `finish`, which
//!    books the outcome once (see [`crate::stats`]) and frees the slot
//!    without blocking the rest.
//!
//! A request is one record from submit to retire: the same `Job` moves
//! whole between the admission queue, the batch, and quarantine.
//!
//! Steps 2–3 are why output is bit-identical to single-request decoding at
//! any batch size and thread count: every row of the stack is computed
//! with the one-row product's own accumulation order, whatever it is
//! stacked with, and selection is deterministic and sequential.
//!
//! **Fault isolation** (DESIGN.md §5f). An injected `serve/feed` fault
//! fires in a gate ahead of the stack and poisons only its own sequence;
//! the group fan-out runs through [`try_parallel_tasks_mut`], so a panic
//! inside a forward poisons only the sequences of its own row group. A
//! poisoned request is *quarantined* — pulled from the batch
//! with its half-written KV state discarded — and retried from scratch
//! after a step-based exponential backoff, up to
//! [`EngineOptions::max_retries`] times. A request that fails every
//! attempt retires with [`Outcome::Failed`] carrying the panic message;
//! the process never aborts and the rest of the batch never notices.
//! Because KV rows are pure functions of the token prefix, a retried
//! request's output is bit-identical to an undisturbed run — fault
//! recovery is invisible in the result stream. Admission control caps the
//! queue at [`EngineOptions::max_queue`]: excess submissions shed
//! immediately with [`Outcome::Rejected`] instead of growing the queue
//! unboundedly. Every submitted request therefore retires with exactly
//! one terminal outcome
//! (`completed + cancelled + expired + failed + rejected == submitted`).
//!
//! **Multi-tenant scheduling** (DESIGN.md §5h). With
//! [`EngineOptions::tenants`] configured, each request carries a
//! [`Request::tenant`] id and waits in that tenant's own queue; admission
//! picks across queues by strict priority tier and weighted-fair virtual
//! time (see [`crate::sched`]), instead of global FIFO. A tenant with an
//! `slo_steps` target is SLO-admitted: it sheds its own arrivals (lowest
//! tiers feel the backlog first — higher-tier work jumps their queue)
//! whenever the backlog it must wait behind, times a running estimate of
//! per-request service steps, predicts a miss of that target. Every
//! outcome, retry, and a step-based latency distribution is additionally
//! booked per tenant in [`Stats::tenants`]; the conservation law above
//! holds tenant by tenant.
//!
//! [`KvCache`]: lm4db_transformer::KvCache
//! [`feed_stack`]: lm4db_transformer::feed_stack
//! [`try_parallel_tasks_mut`]: lm4db_tensor::try_parallel_tasks_mut

use std::collections::HashSet;

use lm4db_transformer::{GptModel, Hypothesis, TokenMask};

use crate::prefix::PrefixCache;
use crate::sched::{FairQueues, TenantClass, TenantId};
use crate::stats::{Counter, Stats};

mod admit;
mod feed;
mod request;
mod retire;
mod select;
mod telemetry;

use request::Job;
pub use request::{Deadline, Decode, EngineOptions, Outcome, Request, RequestId, Response};

/// The batched inference engine. See the [module docs](self).
pub struct Engine<'a> {
    model: &'a GptModel,
    opts: EngineOptions,
    /// Per-tenant admission queues (one plain FIFO when no tenant classes
    /// are configured).
    queue: FairQueues<Job<'a>>,
    /// Quarantined requests waiting out their backoff before re-admission.
    retrying: Vec<Job<'a>>,
    /// Ids of live requests with a cancel pending; each leaves the set
    /// when its request retires.
    cancelled: HashSet<RequestId>,
    /// The batch: requests currently decoding.
    active: Vec<Job<'a>>,
    finished: Vec<Response>,
    prefix: PrefixCache,
    stats: Stats,
    /// Scheduler ticks: increments on every [`Engine::step`] call, even
    /// idle ones (unlike `stats.steps`, which only counts steps with an
    /// active batch). Quarantine wake times are expressed in ticks so the
    /// engine makes progress while every request is backing off.
    ticks: u64,
    /// Engine-local submission counter backing `Job::serial`.
    next_serial: u64,
    /// Deterministic integer EWMA of admit→retire service steps over
    /// completed requests, used by SLO admission (`est ← (3·est + obs)/4`).
    est_service_steps: u64,
    /// Burn-rate monitor, present iff [`EngineOptions::slo_alerts`] is
    /// configured; fed by the sampler, consulted by SLO admission.
    monitor: Option<lm4db_obs::SloMonitor>,
    /// In-order log of every alert state-machine transition, for replay
    /// determinism assertions ([`Engine::alert_transitions`]).
    transitions: Vec<lm4db_obs::AlertTransition>,
}

impl<'a> Engine<'a> {
    /// An engine with default options.
    pub fn new(model: &'a GptModel) -> Self {
        Engine::with_options(model, EngineOptions::default())
    }

    /// An engine with explicit options.
    pub fn with_options(model: &'a GptModel, opts: EngineOptions) -> Self {
        /// SLO admission's service-step estimate before any completion.
        const SLO_INITIAL_SERVICE_STEPS: u64 = 4;
        assert!(opts.max_batch >= 1, "max_batch must be at least 1");
        let queue = FairQueues::new(opts.tenants.clone());
        let monitor = opts.slo_alerts.map(lm4db_obs::SloMonitor::new);
        // One stats row per configured tenant from the start, so a tenant
        // that never submits still has its (empty) row.
        let mut stats = Stats::default();
        for i in 0..opts.tenants.len() {
            stats.tenants.insert(i as TenantId, Default::default());
        }
        Engine {
            model,
            prefix: PrefixCache::new(opts.prefix_cache_tokens),
            opts,
            queue,
            retrying: Vec::new(),
            cancelled: HashSet::new(),
            active: Vec::new(),
            finished: Vec::new(),
            stats,
            ticks: 0,
            next_serial: 0,
            est_service_steps: SLO_INITIAL_SERVICE_STEPS,
            monitor,
            transitions: Vec::new(),
        }
    }

    /// Enqueues a request; it is admitted into the batch on a later
    /// [`Engine::step`]. Without tenant classes, requests are admitted and
    /// answered in FIFO order of their ids; with [`EngineOptions::tenants`]
    /// configured, admission order follows the tier/weighted-fair policy of
    /// [`crate::sched`] (FIFO within one tenant).
    ///
    /// Three conditions retire the request immediately instead of queueing
    /// it: a prompt the window rule ([`lm4db_transformer::ModelConfig::room`],
    /// which also caps every greedy and beam budget) leaves no room for
    /// fails validation ([`Outcome::Failed`]); a queue already holding
    /// [`EngineOptions::max_queue`] requests sheds the submission with
    /// [`Outcome::Rejected`]; and a submission predicted to miss its
    /// tenant's non-zero `slo_steps` target sheds the same way (booked under
    /// [`crate::TenantStats::slo_shed`]). Structurally invalid requests
    /// (empty prompt, zero-width beam, degenerate scoring split,
    /// out-of-range tenant id) are API misuse and still panic.
    pub fn submit(&mut self, req: Request<'a>) -> RequestId {
        admit::submit(self, req)
    }

    /// Cancels a queued, quarantined or active request; it retires with
    /// partial results and [`Outcome::Cancelled`] on the next step.
    /// Cancelling an id that is not live (already retired, or never
    /// issued) is a no-op, so the pending-cancel set only ever holds
    /// requests that will be swept.
    pub fn cancel(&mut self, id: RequestId) {
        let live = self.active.iter().chain(&self.retrying).any(|j| j.id == id)
            || self.queue.iter().any(|(_, j)| j.id == id);
        if live {
            self.cancelled.insert(id);
        }
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        s.queued = self.queue.len();
        s.active = self.active.len();
        s.retrying = self.retrying.len();
        s.prefix_cache_nodes = self.prefix.nodes();
        for (_, job) in self.queue.iter() {
            s.tenants.entry(job.req.tenant).or_default().queued += 1;
        }
        s
    }

    /// Responses completed so far, drained in submission order.
    pub fn take_responses(&mut self) -> Vec<Response> {
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by_key(|r| r.id);
        out
    }

    /// Runs one scheduler step; returns whether any work remains.
    ///
    /// With tracing on (`LM4DB_TRACE=1`), each phase is timed as a span
    /// nested under `serve_step` — `admit` (admission + deadline sweep),
    /// `feed` (the step's stacked forward, row groups across the pool, and
    /// nothing but the model), `share` (finished prefills go into the
    /// prefix trie, which evicts to its budget), and `select` (serial token
    /// selection) — and the [`Stats`] counters are
    /// mirrored into the global registry under `serve/*`. At
    /// `LM4DB_TRACE=2` the same spans additionally emit flight-recorder
    /// events, a request's own events carry its id (selection runs under a
    /// request scope; each group forward is booked as a `kv/feed_all`
    /// interval under every request with rows in it), and
    /// `serve/submit`–`serve/admit`–`serve/retire` instants bracket each
    /// request's lifecycle — enough to reconstruct per-request queue-wait
    /// vs. feed vs. select timelines from one trace.
    pub fn step(&mut self) -> bool {
        let _step_timer = lm4db_obs::span("serve_step");
        self.ticks += 1;
        {
            let _t = lm4db_obs::span("admit");
            admit::admit(self);
            admit::sweep(self);
        }
        if !self.active.is_empty() {
            {
                let _t = lm4db_obs::span("feed");
                let failures = feed::run(self);
                feed::quarantine(self, failures);
            }
            {
                let _t = lm4db_obs::span("share");
                feed::share_prefixes(self);
            }
            let occupancy = self.active.iter().map(|j| j.run.live.len()).sum::<usize>();
            self.stats.add(Counter::STEPS, 1);
            self.stats
                .add(Counter::BATCH_OCCUPANCY_SUM, occupancy as u64);
            self.stats.peak_batch = self.stats.peak_batch.max(self.active.len());
            {
                let _t = lm4db_obs::span("select");
                select::run(self);
            }
            self.stats
                .publish_gauges(self.queue.len(), self.active.len(), self.prefix.nodes());
        }
        // Idle ticks sample too: the monitor must keep observing after
        // load drains, or a firing alert could never resolve.
        if self.opts.sample_steps > 0 && self.ticks.is_multiple_of(self.opts.sample_steps) {
            telemetry::sample(self);
        }
        !(self.active.is_empty() && self.queue.is_empty() && self.retrying.is_empty())
    }

    /// Every burn-rate alert transition so far, in observation order.
    /// Empty unless both [`EngineOptions::sample_steps`] and
    /// [`EngineOptions::slo_alerts`] are configured. Transitions carry
    /// the scheduler step they happened at, so two replays of the same
    /// schedule can be asserted to alert identically.
    pub fn alert_transitions(&self) -> &[lm4db_obs::AlertTransition] {
        &self.transitions
    }

    /// The scheduling class `tenant` belongs to.
    fn class(&self, tenant: TenantId) -> &TenantClass {
        &self.queue.classes()[self.queue.class_index(tenant)]
    }

    /// Steps until idle and returns all completed responses in submission
    /// order.
    pub fn run(&mut self) -> Vec<Response> {
        while self.step() {}
        self.take_responses()
    }

    /// Submits every request, runs to completion, and returns their
    /// responses in the given order. Responses to other outstanding
    /// requests stay buffered for [`Engine::take_responses`].
    pub fn generate_batch(&mut self, reqs: Vec<Request<'a>>) -> Vec<Response> {
        let ids: Vec<RequestId> = reqs.into_iter().map(|r| self.submit(r)).collect();
        self.run_for(&ids)
    }

    /// Convenience: greedy-decode one prompt to completion. Equivalent to
    /// [`lm4db_transformer::greedy_cached`].
    pub fn greedy(&mut self, prompt: &[usize], max_new: usize, stop: usize) -> Vec<usize> {
        let id = self.submit(Request::greedy(prompt.to_vec(), max_new, stop));
        self.run_one(id).tokens
    }

    /// Convenience: beam-search one prompt to completion, optionally under
    /// a grammar mask (see [`Request::mask`]). Hypotheses are ordered
    /// exactly like [`lm4db_transformer::beam`] over a KV-cached session.
    pub fn beam(
        &mut self,
        prompt: &[usize],
        width: usize,
        max_new: usize,
        stop: usize,
        mask: Option<&'a dyn TokenMask>,
    ) -> Vec<Hypothesis> {
        let mut req = Request::beam(prompt.to_vec(), width, max_new, stop);
        req.mask = mask;
        let id = self.submit(req);
        self.run_one(id).hyps
    }

    /// Convenience: total log-probability of `continuation` after `prefix`.
    pub fn score(&mut self, prefix: &[usize], continuation: &[usize]) -> f32 {
        assert!(!continuation.is_empty(), "continuation must be non-empty");
        let id = self.submit(Request::score(prefix, continuation));
        self.run_one(id).score
    }

    /// Runs to completion and returns the responses to `ids` (ascending,
    /// as submit issues them); responses to other outstanding requests
    /// stay buffered.
    fn run_for(&mut self, ids: &[RequestId]) -> Vec<Response> {
        let (mine, others) = self
            .run()
            .into_iter()
            .partition(|r| ids.binary_search(&r.id).is_ok());
        self.finished = others;
        mine
    }

    fn run_one(&mut self, id: RequestId) -> Response {
        let mut mine = self.run_for(&[id]);
        mine.pop().expect("submitted request always completes")
    }
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
