//! The router tier: N in-process engine replicas behind one submit
//! surface, with prefix-affinity routing, health tracking, and
//! deterministic failover.
//!
//! # Life of a routed request
//!
//! [`Router::submit`] fingerprints the prompt's prefix
//! ([`crate::ring::prefix_fingerprint`]), walks the consistent-hash ring
//! for the first *routable* replica (alive, breaker closed), and submits a
//! copy of the request to that replica's [`Engine`]. The router keeps the
//! original request plus the engine-id→router-id mapping, so it can (a)
//! rewrite delivered responses to the router's own id space and (b)
//! re-submit the request elsewhere if its replica dies.
//!
//! # Health, kills, and failover
//!
//! [`Router::step`] advances every live replica one scheduler step and, on
//! the heartbeat cadence, consults the fault injector at the
//! `router/replica` site ([`lm4db_fault::probe`]): a `Panic` decision
//! kills the replica outright; a `Delay` is a heartbeat miss feeding its
//! circuit breaker ([`lm4db_fault::breaker`]). A kill (or a breaker opening)
//! drains the replica: already-finished responses are delivered, and
//! every in-flight or queued request fails over to the next live ring
//! node as a **fresh** engine submission — new engine serial, hence
//! attempt-salted fault re-rolls at the engine's own `serve/feed` site.
//! When no live replica remains, requests retire with
//! [`Outcome::Failed`] rather than vanishing: the router's conservation
//! ledger (`completed + cancelled + expired + failed + rejected ==
//! submitted`) holds across any kill schedule, which is what the chaos
//! matrix asserts.
//!
//! # Determinism
//!
//! Everything runs on the virtual step clock: heartbeat decisions are
//! pure functions of `(fault seed, replica, tick)`, ring walks are pure
//! functions of the member list, and the engines themselves are
//! byte-deterministic at any thread count. A fixed (loadgen seed, fault
//! seed) pair therefore replays the complete outcome stream — kills,
//! failovers, breaker trips and all — byte-identically across
//! `LM4DB_THREADS` and `LM4DB_TRACE` (pinned by
//! `tests/integration_router.rs`).

use std::collections::BTreeMap;

use lm4db_fault::{mix, Breaker, BreakerState, Fault, Transition};
use lm4db_obs::Histogram;
use lm4db_serve::{Engine, EngineOptions, Outcome, Request, RequestId, Response, Stats};
use lm4db_transformer::GptModel;

use crate::ring::{prefix_fingerprint, HashRing};

/// Fault-injection site for replica health: on the heartbeat cadence the
/// router rolls here once per live replica — `Panic` kills the replica,
/// `Delay` is a missed heartbeat (see [`Router::step`]).
pub const REPLICA_FAULT_SITE: &str = "router/replica";

/// How submissions choose a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Consistent-hash on the prompt-prefix fingerprint: prompts sharing
    /// an instruction header land on the same replica, so its token-trie
    /// prefix cache stays warm for that header (the expT_router claim).
    PrefixAffinity,
    /// Seeded uniform-random spread — the locality-free baseline the
    /// affinity experiment compares against. Deterministic: the choice is
    /// a pure function of `(seed, submission serial)`.
    Random {
        /// Stream seed.
        seed: u64,
    },
}

/// Router construction knobs.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Number of engine replicas (≥ 1).
    pub replicas: usize,
    /// Prompt tokens hashed into the routing fingerprint (0 = whole
    /// prompt).
    pub prefix_window: usize,
    /// Heartbeat cadence in router steps (0 disables health rolls — no
    /// fault-driven kills, breakers stay closed).
    pub heartbeat_every: u64,
    /// Steps a tripped breaker stays open before its half-open probe.
    pub breaker_cooldown: u64,
    /// Replica-selection policy.
    pub policy: RoutePolicy,
    /// Options every replica engine is built with.
    pub engine: EngineOptions,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            replicas: 4,
            prefix_window: 8,
            heartbeat_every: 32,
            breaker_cooldown: 96,
            policy: RoutePolicy::PrefixAffinity,
            engine: EngineOptions::default(),
        }
    }
}

/// One replica's slice of [`RouterStats`].
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Requests routed here (first placements plus failover arrivals).
    pub routed: u64,
    /// Whether the replica is still alive.
    pub alive: bool,
    /// Its breaker position.
    pub breaker: BreakerState,
    /// The replica engine's own counters.
    pub engine: Stats,
}

/// A point-in-time snapshot of the router's counters
/// ([`Router::stats`]).
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Requests ever submitted to the router.
    pub submitted: u64,
    /// Delivered with [`Outcome::Finished`].
    pub completed: u64,
    /// Delivered with [`Outcome::Cancelled`].
    pub cancelled: u64,
    /// Delivered with [`Outcome::DeadlineExpired`].
    pub expired: u64,
    /// Delivered with [`Outcome::Failed`] — engine-side failures plus
    /// router-side `no_live_replica` retirements.
    pub failed: u64,
    /// Delivered with [`Outcome::Rejected`] (replica admission shed).
    pub rejected: u64,
    /// The subset of `failed` retired by the router because no live
    /// replica remained to place them on.
    pub no_live_replica: u64,
    /// Re-submissions to another replica after a kill or breaker open.
    pub failovers: u64,
    /// Replicas killed (fault-driven or via [`Router::kill_replica`]).
    pub kills: u64,
    /// Breaker transitions into Open from a miss streak.
    pub breaker_opened: u64,
    /// Breaker transitions into HalfOpen (cooldown expiry).
    pub breaker_half_opened: u64,
    /// Breaker transitions into Closed (successful probe).
    pub breaker_closed: u64,
    /// Breaker transitions back to Open (failed probe).
    pub breaker_reopened: u64,
    /// Router steps executed.
    pub steps: u64,
    /// Submit→deliver router steps per delivered request. Step-based, so
    /// deterministic and fingerprint-safe.
    pub latency_steps: Histogram,
    /// Per-replica breakdown, indexed by replica id.
    pub replicas: Vec<ReplicaStats>,
}

impl RouterStats {
    /// Requests that reached a terminal outcome; equals
    /// [`RouterStats::submitted`] once the router is idle — the
    /// conservation law, which must hold across any kill schedule.
    pub fn terminal_total(&self) -> u64 {
        self.completed + self.cancelled + self.expired + self.failed + self.rejected
    }

    /// Live replica count.
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.alive).count()
    }
}

/// The router's copy of one in-flight request.
struct Entry<'a> {
    req: Request<'a>,
    fingerprint: u64,
    replica: u32,
    engine_id: RequestId,
    attempts: u32,
    submit_tick: u64,
    cancel_requested: bool,
}

struct Replica<'a> {
    engine: Engine<'a>,
    breaker: Breaker,
    alive: bool,
    routed: u64,
    /// engine request id → router request id, for rewriting responses.
    /// An id leaves the map when its request is delivered or fails over;
    /// a response with no entry here belongs to a request that moved on
    /// (the engine copy a drain cancelled) and is swallowed.
    ids: BTreeMap<RequestId, u64>,
}

/// A router over N in-process engine replicas. See the
/// [module docs](self).
pub struct Router<'a> {
    replicas: Vec<Replica<'a>>,
    ring: HashRing,
    opts: RouterOptions,
    entries: BTreeMap<u64, Entry<'a>>,
    finished: Vec<Response>,
    next_id: u64,
    ticks: u64,
    stats: RouterStats,
}

impl<'a> Router<'a> {
    /// A router whose replicas all serve `model` with the options'
    /// per-engine configuration.
    pub fn new(model: &'a GptModel, opts: RouterOptions) -> Self {
        /// Consecutive heartbeat misses that trip a replica's breaker.
        const BREAKER_THRESHOLD: u32 = 2;
        /// Ring nodes per replica: at ≥ 64 none owns > 2× its fair share.
        const VNODES: u32 = 64;
        assert!(opts.replicas >= 1, "need at least one replica");
        let replicas: Vec<Replica<'a>> = (0..opts.replicas)
            .map(|_| Replica {
                engine: Engine::with_options(model, opts.engine.clone()),
                breaker: Breaker::new(BREAKER_THRESHOLD, opts.breaker_cooldown),
                alive: true,
                routed: 0,
                ids: BTreeMap::new(),
            })
            .collect();
        let ring = HashRing::new(opts.replicas as u32, VNODES);
        Router {
            replicas,
            ring,
            opts,
            entries: BTreeMap::new(),
            finished: Vec::new(),
            next_id: 0,
            ticks: 0,
            stats: RouterStats::default(),
        }
    }

    /// Whether replica `r` may receive new traffic.
    fn routable(&self, r: u32) -> bool {
        let rep = &self.replicas[r as usize];
        rep.alive && rep.breaker.routable()
    }

    /// The replica a request keyed `(fingerprint, serial)` goes to, or
    /// `None` when nothing is routable.
    fn pick_replica(&self, fingerprint: u64, serial: u64) -> Option<u32> {
        match self.opts.policy {
            RoutePolicy::PrefixAffinity => self
                .ring
                .successors(fingerprint)
                .find(|&r| self.routable(r)),
            RoutePolicy::Random { seed } => {
                let n = self.replicas.len() as u64;
                let start = (mix(seed ^ mix(serial)) % n) as u32;
                (0..n as u32)
                    .map(|k| (start + k) % n as u32)
                    .find(|&r| self.routable(r))
            }
        }
    }

    /// Enqueues a request on its ring-chosen replica and returns the
    /// router-scoped id its response will carry. When no replica is
    /// routable the request retires immediately with
    /// [`Outcome::Failed`] — submission never blocks and never loses a
    /// request.
    pub fn submit(&mut self, req: Request<'a>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;
        lm4db_obs::counter_add("router/submitted", 1);
        let fingerprint = prefix_fingerprint(&req.prompt, self.opts.prefix_window);
        match self.pick_replica(fingerprint, id) {
            Some(r) => self.place(id, req, fingerprint, r, self.ticks, 0),
            None => self.retire_unroutable(id, self.ticks),
        }
        id
    }

    /// Submits to a specific replica's engine and records the entry.
    fn place(
        &mut self,
        id: u64,
        req: Request<'a>,
        fingerprint: u64,
        r: u32,
        submit_tick: u64,
        attempts: u32,
    ) {
        let rep = &mut self.replicas[r as usize];
        let engine_id = rep.engine.submit(req.clone());
        rep.ids.insert(engine_id, id);
        rep.routed += 1;
        lm4db_obs::counter_add("router/routed", 1);
        self.entries.insert(
            id,
            Entry {
                req,
                fingerprint,
                replica: r,
                engine_id,
                attempts,
                submit_tick,
                cancel_requested: false,
            },
        );
    }

    /// Retires `id` with the router-side `no live replica` failure.
    fn retire_unroutable(&mut self, id: u64, submit_tick: u64) {
        self.stats.no_live_replica += 1;
        lm4db_obs::counter_add("router/no_live_replica", 1);
        lm4db_obs::instant_for("router/unroutable", id);
        let reason = "no live replica".to_string();
        self.retire_local(id, submit_tick, Outcome::Failed { reason });
    }

    /// Retires a request the router answers itself, with no engine output.
    fn retire_local(&mut self, id: u64, submit_tick: u64, outcome: Outcome) {
        let resp = Response {
            id,
            outcome,
            tokens: Vec::new(),
            hyps: Vec::new(),
            score: 0.0,
        };
        self.retire(submit_tick, resp);
    }

    /// The single retire path: every terminal response — delivered from a
    /// replica or answered by the router itself — books its outcome, its
    /// submit→deliver step latency and the `router/delivered` counter
    /// here, exactly once, then queues for [`Router::take_responses`].
    fn retire(&mut self, submit_tick: u64, resp: Response) {
        match resp.outcome {
            Outcome::Finished => self.stats.completed += 1,
            Outcome::Cancelled => self.stats.cancelled += 1,
            Outcome::DeadlineExpired => self.stats.expired += 1,
            Outcome::Failed { .. } => self.stats.failed += 1,
            Outcome::Rejected => self.stats.rejected += 1,
        }
        self.stats
            .latency_steps
            .record(self.ticks.saturating_sub(submit_tick));
        lm4db_obs::counter_add("router/delivered", 1);
        self.finished.push(resp);
    }

    /// Requests cancellation of a routed request; it retires with
    /// [`Outcome::Cancelled`] on a later step (immediately at its next
    /// failover, otherwise when its replica engine processes the cancel).
    pub fn cancel(&mut self, id: u64) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.cancel_requested = true;
            let engine_id = e.engine_id;
            self.replicas[e.replica as usize].engine.cancel(engine_id);
        }
    }

    /// Kills replica `r` outright: its finished responses are delivered,
    /// everything else on it fails over, and it never steps again. The
    /// chaos hook — fault-driven kills call this too.
    pub fn kill_replica(&mut self, r: u32) {
        if !self.replicas[r as usize].alive {
            return;
        }
        self.replicas[r as usize].alive = false;
        self.stats.kills += 1;
        lm4db_obs::counter_add("router/replica_killed", 1);
        lm4db_obs::instant_arg("router_replica_killed", u64::from(r));
        if let Some(t) = self.replicas[r as usize].breaker.force_open(self.ticks) {
            self.book_transition(r, t);
        }
        // Responses the replica finished before dying were already retired
        // engine-side; deliver them rather than re-running their requests.
        let done = self.replicas[r as usize].engine.take_responses();
        self.deliver(r, done);
        self.replicas[r as usize].ids.clear();
        self.drain(r);
    }

    /// Fails over every entry still assigned to replica `r`, in router-id
    /// order.
    fn drain(&mut self, r: u32) {
        let ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.replica == r)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            self.failover(id);
        }
    }

    /// Re-places entry `id` on the next live ring node (or retires it).
    fn failover(&mut self, id: u64) {
        let mut e = self.entries.remove(&id).expect("failover of a live entry");
        let old = &mut self.replicas[e.replica as usize];
        old.ids.remove(&e.engine_id);
        if old.alive {
            // The old engine still holds its copy: cancel it. Its eventual
            // Cancelled response finds no id mapping and is swallowed, so
            // the request is not answered twice.
            old.engine.cancel(e.engine_id);
        }
        if e.cancel_requested {
            self.retire_local(id, e.submit_tick, Outcome::Cancelled);
            return;
        }
        e.attempts += 1;
        self.stats.failovers += 1;
        lm4db_obs::counter_add("router/failovers", 1);
        lm4db_obs::instant_for("router/failover", id);
        // Salting the pick with the attempt keeps repeated failovers of
        // one request from cycling the same dead-end choice under the
        // Random policy; affinity re-walks the ring from the fingerprint.
        match self.pick_replica(e.fingerprint, mix(id ^ (u64::from(e.attempts) << 48))) {
            Some(r) => self.place(id, e.req, e.fingerprint, r, e.submit_tick, e.attempts),
            None => self.retire_unroutable(id, e.submit_tick),
        }
    }

    /// Books a breaker transition for replica `r`: counters, a flight
    /// instant, and — on any transition *into* Open — a drain.
    fn book_transition(&mut self, r: u32, t: Transition) {
        let (counter, instant) = match t {
            Transition::Opened => {
                self.stats.breaker_opened += 1;
                ("router/breaker_opened", "router_breaker_open")
            }
            Transition::HalfOpened => {
                self.stats.breaker_half_opened += 1;
                ("router/breaker_half_opened", "router_breaker_half_open")
            }
            Transition::Closed => {
                self.stats.breaker_closed += 1;
                ("router/breaker_closed", "router_breaker_close")
            }
            Transition::Reopened => {
                self.stats.breaker_reopened += 1;
                ("router/breaker_reopened", "router_breaker_reopen")
            }
        };
        lm4db_obs::counter_add(counter, 1);
        lm4db_obs::instant_arg(instant, u64::from(r));
    }

    /// One heartbeat observation for replica `r`.
    fn heartbeat(&mut self, r: u32, ok: bool) {
        let transitions = self.replicas[r as usize].breaker.heartbeat(self.ticks, ok);
        for t in transitions {
            self.book_transition(r, t);
            if t == Transition::Opened || t == Transition::Reopened {
                // An open replica takes no new work and keeps none of its
                // pending work: everything fails over now rather than
                // waiting out the cooldown.
                self.drain(r);
            }
        }
    }

    /// Runs one router step — health rolls, one engine step per live
    /// replica, response collection — and returns whether work remains.
    pub fn step(&mut self) -> bool {
        self.ticks += 1;
        self.stats.steps += 1;
        if self.opts.heartbeat_every > 0 && self.ticks.is_multiple_of(self.opts.heartbeat_every) {
            for r in 0..self.replicas.len() as u32 {
                if !self.replicas[r as usize].alive {
                    continue;
                }
                let salt = (u64::from(r) << 48) ^ self.ticks;
                match lm4db_fault::probe(REPLICA_FAULT_SITE, salt) {
                    Some(Fault::Panic) => self.kill_replica(r),
                    Some(Fault::Delay) => self.heartbeat(r, false),
                    None => self.heartbeat(r, true),
                }
            }
        }
        let mut more = false;
        for r in 0..self.replicas.len() as u32 {
            let rep = &mut self.replicas[r as usize];
            if !rep.alive {
                continue;
            }
            // Open replicas keep stepping: they are draining cancels, and
            // a closed-again breaker resumes routing to a warm engine.
            more |= rep.engine.step();
            let responses = rep.engine.take_responses();
            self.deliver(r, responses);
        }
        more
    }

    /// Rewrites replica responses to router ids and retires them.
    /// Responses with no id mapping are swallowed: their request failed
    /// over elsewhere (a drain cancelled this engine's copy) or a kill
    /// cleared the map before draining.
    fn deliver(&mut self, r: u32, responses: Vec<Response>) {
        for mut resp in responses {
            let Some(id) = self.replicas[r as usize].ids.remove(&resp.id) else {
                continue;
            };
            let e = self.entries.remove(&id).expect("delivered entry exists");
            resp.id = id;
            self.retire(e.submit_tick, resp);
        }
    }

    /// Responses delivered so far, drained in router-id (submission)
    /// order — the same contract as [`Engine::take_responses`].
    pub fn take_responses(&mut self) -> Vec<Response> {
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by_key(|resp| resp.id);
        out
    }

    /// Router steps executed (the virtual clock).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// A snapshot of the router's counters, including each replica's
    /// engine stats.
    pub fn stats(&self) -> RouterStats {
        let mut s = self.stats.clone();
        s.replicas = self
            .replicas
            .iter()
            .map(|rep| ReplicaStats {
                routed: rep.routed,
                alive: rep.alive,
                breaker: rep.breaker.state(),
                engine: rep.engine.stats(),
            })
            .collect();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm4db_transformer::ModelConfig;

    fn model() -> GptModel {
        GptModel::new(ModelConfig::test(), 7)
    }

    fn opts(replicas: usize) -> RouterOptions {
        RouterOptions {
            replicas,
            heartbeat_every: 0, // no fault rolls unless a test arms them
            ..RouterOptions::default()
        }
    }

    fn drive(router: &mut Router<'_>) -> Vec<Response> {
        let mut out = Vec::new();
        let mut guard = 0;
        loop {
            let more = router.step();
            out.extend(router.take_responses());
            guard += 1;
            assert!(guard < 10_000, "router failed to drain");
            if !more {
                break;
            }
        }
        out
    }

    #[test]
    fn routes_complete_and_conserve() {
        lm4db_fault::disarm();
        let m = model();
        let mut router = Router::new(&m, opts(3));
        let ids: Vec<u64> = (0..20)
            .map(|i| router.submit(Request::greedy(vec![1, 2 + (i % 7)], 3, usize::MAX)))
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>(), "router ids are dense");
        let responses = drive(&mut router);
        assert_eq!(responses.len(), 20);
        assert!(responses
            .iter()
            .all(|resp| resp.outcome == Outcome::Finished));
        let s = router.stats();
        assert_eq!(s.submitted, 20);
        assert_eq!(s.terminal_total(), 20);
        assert_eq!(s.completed, 20);
        // Every replica exists in the breakdown and the routed counts sum.
        assert_eq!(s.replicas.len(), 3);
        assert_eq!(s.replicas.iter().map(|r| r.routed).sum::<u64>(), 20);
    }

    #[test]
    fn same_prefix_routes_to_same_replica() {
        lm4db_fault::disarm();
        let m = model();
        let mut router = Router::new(&m, opts(4));
        // Two prompt families sharing 8-token headers.
        for i in 0..10 {
            router.submit(Request::greedy(
                vec![1, 2, 3, 4, 5, 6, 7, 8, 20 + i],
                1,
                usize::MAX,
            ));
            router.submit(Request::greedy(
                vec![9, 9, 9, 9, 9, 9, 9, 9, 30 + i],
                1,
                usize::MAX,
            ));
        }
        drive(&mut router);
        let s = router.stats();
        // Each family lands on exactly one replica, so at most two
        // replicas saw traffic.
        let used = s.replicas.iter().filter(|r| r.routed > 0).count();
        assert!(
            used <= 2,
            "affinity routing spread two prefixes {used} ways"
        );
    }

    #[test]
    fn kill_fails_over_without_losing_requests() {
        lm4db_fault::disarm();
        let m = model();
        let mut router = Router::new(&m, opts(2));
        for i in 0..30 {
            router.submit(Request::greedy(vec![1, 2 + (i % 7)], 4, usize::MAX));
        }
        // Let some work start, then kill one replica mid-flight.
        router.step();
        router.kill_replica(0);
        let responses = drive(&mut router);
        let s = router.stats();
        assert_eq!(s.kills, 1);
        assert_eq!(responses.len(), 30, "every request answered exactly once");
        assert_eq!(s.terminal_total(), s.submitted, "ledger: {s:?}");
        assert!(s.live_replicas() == 1);
        // In-flight work on replica 0 moved to replica 1.
        assert!(s.failovers > 0, "kill mid-flight must fail something over");
    }

    #[test]
    fn all_dead_retires_instead_of_losing() {
        lm4db_fault::disarm();
        let m = model();
        let mut router = Router::new(&m, opts(2));
        for _ in 0..5 {
            router.submit(Request::greedy(vec![1, 2], 4, usize::MAX));
        }
        router.kill_replica(0);
        router.kill_replica(1);
        // Later submissions fail fast.
        router.submit(Request::greedy(vec![1, 3], 4, usize::MAX));
        let responses = drive(&mut router);
        assert_eq!(responses.len(), 6);
        assert!(responses
            .iter()
            .all(|resp| matches!(resp.outcome, Outcome::Failed { .. })));
        let s = router.stats();
        assert_eq!(s.no_live_replica, 6);
        assert_eq!(s.terminal_total(), s.submitted);
    }

    #[test]
    fn cancel_retires_cancelled_once() {
        lm4db_fault::disarm();
        let m = model();
        let mut router = Router::new(&m, opts(2));
        let keep = router.submit(Request::greedy(vec![1, 2], 3, usize::MAX));
        let drop_id = router.submit(Request::greedy(vec![1, 3], 50, usize::MAX));
        router.cancel(drop_id);
        let responses = drive(&mut router);
        assert_eq!(responses.len(), 2);
        let by_id: BTreeMap<u64, &Outcome> = responses.iter().map(|r| (r.id, &r.outcome)).collect();
        assert_eq!(by_id[&keep], &Outcome::Finished);
        assert_eq!(by_id[&drop_id], &Outcome::Cancelled);
    }

    #[test]
    fn random_policy_spreads_load() {
        lm4db_fault::disarm();
        let m = model();
        let mut o = opts(4);
        o.policy = RoutePolicy::Random { seed: 7 };
        let mut router = Router::new(&m, o);
        // One shared prefix: affinity would put all of it on one replica.
        for i in 0..40 {
            router.submit(Request::greedy(
                vec![1, 2, 3, 4, 5, 6, 7, 8, 10 + (i % 50)],
                1,
                usize::MAX,
            ));
        }
        drive(&mut router);
        let s = router.stats();
        let used = s.replicas.iter().filter(|r| r.routed > 0).count();
        assert!(used >= 3, "random routing used only {used} of 4 replicas");
    }
}
