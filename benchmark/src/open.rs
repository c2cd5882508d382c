//! The open-loop scheduler: requests are sent when the schedule says so,
//! whether or not the server has caught up, and each is timed from the
//! moment it was *due*, so the wait a stall imposes on later requests
//! counts. Clock and server are parameters so a test can substitute fakes.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::trace::Tracer;

/// Time since the window opened, and a way to wait for a later moment.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, t: Duration);
}

/// A step-driven server: the one driver thread submits, steps, collects.
pub trait Server {
    type Request;
    /// Enqueues a request and returns the id its completion will carry.
    fn submit(&mut self, req: Self::Request, tracer: &mut Tracer) -> u64;
    /// Runs one step; returns whether work remains.
    fn step(&mut self, tracer: &mut Tracer) -> bool;
    /// Completions since the last call, as `(id, output was right)`.
    fn collect(&mut self, tracer: &mut Tracer) -> Vec<(u64, bool)>;
}

/// One finished request, as the schedule saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    pub id: u64,
    pub ok: bool,
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// From due time to the end of the step that finished it.
    pub latency: Duration,
}

/// What the generator side of a run reports.
#[derive(Debug, Default)]
pub struct SendLog {
    /// How late each request was sent, relative to its due time.
    pub lag: Vec<Duration>,
    /// Time the driver spent waiting for the next tick with nothing to do.
    pub idle: Duration,
}

/// Drives `ticks` ticks of `tick` each: the arrivals of tick `k` are due at
/// `k × tick`. After the last tick the server is drained. Every completion
/// goes to `on_done` as it is observed, with the idle time so far.
pub fn run<S: Server, C: Clock>(
    server: &mut S,
    clock: &mut C,
    tracer: &mut Tracer,
    tick: Duration,
    ticks: u64,
    mut arrivals_at: impl FnMut(u64, &mut Tracer) -> Vec<S::Request>,
    mut on_done: impl FnMut(Completion, Duration, &mut Tracer),
) -> SendLog {
    let mut log = SendLog::default();
    let mut due_of: BTreeMap<u64, Duration> = BTreeMap::new();
    let mut next_tick = 0u64;
    let mut more = false;
    loop {
        // Send everything that is due. A late driver sends late — the lag
        // is recorded — but a request's due time never moves.
        while next_tick < ticks && tick * next_tick as u32 <= clock.now() {
            let due = tick * next_tick as u32;
            for req in arrivals_at(next_tick, tracer) {
                log.lag.push(clock.now().saturating_sub(due));
                due_of.insert(server.submit(req, tracer), due);
                more = true;
            }
            next_tick += 1;
        }
        if more {
            more = server.step(tracer);
            let done = server.collect(tracer);
            let now = clock.now();
            for (id, ok) in done {
                let due = due_of.remove(&id).expect("completion of an unknown id");
                let latency = now.saturating_sub(due);
                on_done(
                    Completion {
                        id,
                        ok,
                        due,
                        latency,
                    },
                    log.idle,
                    tracer,
                );
            }
        } else if next_tick < ticks {
            let wake = tick * next_tick as u32;
            let before = clock.now();
            clock.sleep_until(wake);
            log.idle += clock.now().saturating_sub(before);
        } else {
            assert!(due_of.is_empty(), "server idle with requests outstanding");
            return log;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    const MS: Duration = Duration::from_millis(1);

    #[derive(Clone)]
    struct FakeClock(Rc<Cell<Duration>>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&mut self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Finishes every request in the step after its submission; a step
    /// takes `step_cost`, except step number `stall_at`, which takes
    /// `stall`.
    struct FakeServer {
        clock: FakeClock,
        queued: Vec<u64>,
        finished: Vec<u64>,
        next_id: u64,
        steps: u64,
        step_cost: Duration,
        stall_at: u64,
        stall: Duration,
    }

    impl Server for FakeServer {
        type Request = ();
        fn submit(&mut self, _req: (), _t: &mut Tracer) -> u64 {
            self.queued.push(self.next_id);
            self.next_id += 1;
            self.next_id - 1
        }
        fn step(&mut self, _t: &mut Tracer) -> bool {
            let cost = if self.steps == self.stall_at {
                self.stall
            } else {
                self.step_cost
            };
            self.steps += 1;
            self.clock.0.set(self.clock.now() + cost);
            self.finished.append(&mut self.queued);
            false
        }
        fn collect(&mut self, _t: &mut Tracer) -> Vec<(u64, bool)> {
            self.finished.drain(..).map(|id| (id, true)).collect()
        }
    }

    fn drive(stall_at: u64, stall: Duration) -> (Vec<Completion>, SendLog) {
        let mut clock = FakeClock(Rc::new(Cell::new(Duration::ZERO)));
        let mut server = FakeServer {
            clock: clock.clone(),
            queued: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            steps: 0,
            step_cost: 2 * MS,
            stall_at,
            stall,
        };
        let mut done = Vec::new();
        // One request per tick, ticks 10 ms apart: due at 0, 10, 20, 30, 40.
        let log = run(
            &mut server,
            &mut clock,
            &mut Tracer::new(),
            10 * MS,
            5,
            |_, _| vec![()],
            |c, _, _| done.push(c),
        );
        (done, log)
    }

    #[test]
    fn an_unstalled_server_sees_no_lag_and_service_time_latency() {
        let (done, log) = drive(u64::MAX, Duration::ZERO);
        assert_eq!(done.len(), 5);
        assert!(done.iter().all(|c| c.ok && c.latency == 2 * MS));
        assert!(log.lag.iter().all(|l| l.is_zero()));
        // Four gaps of 10 ms, each with 2 ms of service: 8 ms idle per gap.
        assert_eq!(log.idle, 32 * MS);
    }

    #[test]
    fn a_stall_delays_later_sends_but_not_their_due_times() {
        // The step serving request 1 (due at 10 ms) stalls for 25 ms, until
        // t = 35 ms. Requests 2 and 3 (due at 20 and 30 ms) are sent late.
        let (done, log) = drive(1, 25 * MS);
        let latency: Vec<Duration> = done.iter().map(|c| c.latency).collect();
        assert_eq!(latency[0], 2 * MS);
        assert_eq!(latency[1], 25 * MS);
        // Both went out at t = 35 ms and finished at t = 37 ms; timed from
        // their due times they took 17 and 7 ms, not the 2 ms of service.
        assert_eq!(latency[2], 17 * MS);
        assert_eq!(latency[3], 7 * MS);
        // The schedule recovers: request 4 is on time again.
        assert_eq!(latency[4], 2 * MS);
        assert_eq!(
            log.lag,
            [
                Duration::ZERO,
                Duration::ZERO,
                15 * MS,
                5 * MS,
                Duration::ZERO
            ]
        );
    }
}
