//! Pins the ledger row of every terminal route through the engine: one
//! probe request per route, and the exact per-tenant accounting it must
//! leave behind — which outcome counter moved, whether the request counts
//! as admitted, and which latency distributions saw it. Sheds never reach
//! the step-latency histogram, quarantined requests do, and only a first
//! admission books a queue wait; this table is where those differences
//! are written down.
//!
//! One `#[test]` in its own binary on purpose: three routes arm the
//! process-global fault injector.

use std::time::{Duration, Instant};

use lm4db_fault::Fault;
use lm4db_serve::{Deadline, Engine, EngineOptions, Request, TenantClass, TenantStats};
use lm4db_tokenize::{BOS, EOS};
use lm4db_transformer::{GptModel, ModelConfig};

/// Tenant of the probe request; fillers that create backlog use [`FILLER`]
/// so the probe's row stays exactly one request.
const PROBE: u32 = 0;
const FILLER: u32 = 1;

/// What one retired probe leaves in its tenant's row.
#[derive(Debug, PartialEq)]
struct Row {
    /// `[completed, cancelled, expired, failed, rejected]`.
    outcome: [u64; 5],
    admitted: u64,
    queue_wait_steps: u64,
    latency_steps: u64,
    /// `Stats::latency` observations (engine-wide, probe plus fillers).
    latency: u64,
    /// `[slo_met, slo_missed, slo_shed]`.
    slo: [u64; 3],
}

const COMPLETED: [u64; 5] = [1, 0, 0, 0, 0];
const CANCELLED: [u64; 5] = [0, 1, 0, 0, 0];
const EXPIRED: [u64; 5] = [0, 0, 1, 0, 0];
const FAILED: [u64; 5] = [0, 0, 0, 1, 0];
const REJECTED: [u64; 5] = [0, 0, 0, 0, 1];

/// A probe that never held a batch slot: no admission, no step latency.
fn never_admitted(outcome: [u64; 5], latency: u64, slo_shed: u64) -> Row {
    Row {
        outcome,
        admitted: 0,
        queue_wait_steps: 0,
        latency_steps: 0,
        latency,
        slo: [0, 0, slo_shed],
    }
}

/// A probe admitted once: one queue wait, one step latency.
fn admitted(outcome: [u64; 5], slo: [u64; 3]) -> Row {
    Row {
        outcome,
        admitted: 1,
        queue_wait_steps: 1,
        latency_steps: 1,
        latency: 1,
        slo,
    }
}

fn probe() -> Request<'static> {
    Request::greedy(vec![BOS, 10], 6, EOS).with_tenant(PROBE)
}

fn filler() -> Request<'static> {
    Request::greedy(vec![BOS, 20], 2, EOS).with_tenant(FILLER)
}

/// Arms the injector — left configured with the first seed that does it —
/// so the probe's first feed pass (serial 0, attempt 0, nothing fed:
/// salt 0) panics, whatever else rolls.
fn poison_first_feed() {
    (0..)
        .find(|&seed| {
            lm4db_fault::configure(seed, 1.0);
            lm4db_fault::roll("serve/feed", 0) == Some(Fault::Panic)
        })
        .expect("some seed panics the first feed");
}

/// Steps once with the first feed poisoned, leaving the probe quarantined.
fn quarantine_probe(engine: &mut Engine<'_>, req: Request<'static>) -> u64 {
    let id = engine.submit(req);
    poison_first_feed();
    engine.step();
    lm4db_fault::disarm();
    assert_eq!(engine.stats().retrying, 1, "probe must be quarantined");
    id
}

struct Route {
    name: &'static str,
    /// Probe tenant's SLO target in steps (0 = none).
    slo_steps: u64,
    opts: EngineOptions,
    drive: fn(&mut Engine<'_>, &GptModel),
    want: Row,
}

fn routes() -> Vec<Route> {
    let opts = EngineOptions {
        max_batch: 1,
        // A quarantined probe must still be backing off when the route
        // cancels or expires it.
        retry_backoff_steps: 64,
        sample_steps: 0,
        ..EngineOptions::default()
    };
    vec![
        Route {
            name: "oversize prompt",
            slo_steps: 0,
            opts: opts.clone(),
            drive: |e, m| {
                let len = m.config().max_seq_len + 1;
                e.submit(Request::greedy(vec![BOS; len], 2, EOS).with_tenant(PROBE));
            },
            want: never_admitted(FAILED, 1, 0),
        },
        Route {
            name: "queue shed",
            slo_steps: 0,
            opts: EngineOptions {
                max_queue: 1,
                ..opts.clone()
            },
            drive: |e, _| {
                e.submit(filler());
                e.submit(probe());
            },
            want: never_admitted(REJECTED, 2, 0),
        },
        Route {
            name: "slo shed",
            slo_steps: 4,
            opts: EngineOptions {
                slo_admission: true,
                ..opts.clone()
            },
            drive: |e, _| {
                e.submit(filler());
                e.submit(probe());
            },
            want: never_admitted(REJECTED, 2, 1),
        },
        Route {
            name: "cancelled while queued",
            slo_steps: 0,
            opts: opts.clone(),
            drive: |e, _| {
                let id = e.submit(probe());
                e.cancel(id);
            },
            want: never_admitted(CANCELLED, 1, 0),
        },
        Route {
            name: "cancelled in quarantine",
            slo_steps: 0,
            opts: opts.clone(),
            drive: |e, _| {
                let id = quarantine_probe(e, probe());
                e.cancel(id);
            },
            want: admitted(CANCELLED, [0, 0, 0]),
        },
        Route {
            name: "wall-expired in quarantine",
            slo_steps: 0,
            opts: opts.clone(),
            drive: |e, _| {
                let wall = Instant::now() + Duration::from_millis(100);
                quarantine_probe(e, probe().with_deadline(Deadline::Wall(wall)));
                std::thread::sleep(Duration::from_millis(110));
            },
            want: admitted(EXPIRED, [0, 0, 0]),
        },
        Route {
            name: "cancelled while active",
            slo_steps: 0,
            opts: opts.clone(),
            drive: |e, _| {
                let id = e.submit(probe());
                e.step();
                assert_eq!(e.stats().active, 1);
                e.cancel(id);
            },
            want: admitted(CANCELLED, [0, 0, 0]),
        },
        Route {
            name: "step-expired while active",
            slo_steps: 0,
            opts: opts.clone(),
            drive: |e, _| {
                e.submit(probe().with_deadline(Deadline::Steps(1)));
            },
            want: admitted(EXPIRED, [0, 0, 0]),
        },
        Route {
            name: "failed after max_retries",
            slo_steps: 0,
            opts: EngineOptions {
                max_retries: 0,
                ..opts.clone()
            },
            drive: |e, _| {
                e.submit(probe());
                poison_first_feed();
                e.step();
                lm4db_fault::disarm();
            },
            want: admitted(FAILED, [0, 0, 0]),
        },
        Route {
            name: "finished, slo met",
            slo_steps: 64,
            opts: opts.clone(),
            drive: |e, _| {
                e.submit(probe());
            },
            want: admitted(COMPLETED, [1, 0, 0]),
        },
        Route {
            name: "finished, slo missed",
            slo_steps: 1,
            opts,
            drive: |e, _| {
                e.submit(probe());
            },
            want: admitted(COMPLETED, [0, 1, 0]),
        },
    ]
}

fn row(t: &TenantStats, latency: u64) -> Row {
    Row {
        outcome: [t.completed, t.cancelled, t.expired, t.failed, t.rejected],
        admitted: t.admitted,
        queue_wait_steps: t.queue_wait_steps.count(),
        latency_steps: t.latency_steps.count(),
        latency,
        slo: [t.slo_met, t.slo_missed, t.slo_shed],
    }
}

#[test]
fn every_terminal_route_books_its_exact_row() {
    lm4db_fault::disarm();
    let m = GptModel::new(ModelConfig::test(), 7);
    for route in routes() {
        let mut opts = route.opts;
        opts.tenants = vec![
            TenantClass::new("probe").slo_steps(route.slo_steps),
            TenantClass::new("filler"),
        ];
        let mut engine = Engine::with_options(&m, opts);
        (route.drive)(&mut engine, &m);
        engine.run();
        let stats = engine.stats();
        assert_eq!((stats.queued, stats.active, stats.retrying), (0, 0, 0));
        assert_eq!(stats.terminal_total(), stats.submitted, "{}", route.name);
        let t = &stats.tenants[&PROBE];
        assert_eq!(t.submitted, 1, "{}: one probe", route.name);
        assert_eq!(
            row(t, stats.latency.count()),
            route.want,
            "route {:?}",
            route.name
        );
    }
}
