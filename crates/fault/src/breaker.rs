//! Circuit breaker on a caller-supplied tick.
//!
//! The classic three-state machine — Closed → Open → HalfOpen — driven
//! not by wall time but by a count the caller passes in (the router's
//! scheduler step per replica, the synthesizer's call serial), so a chaos
//! run's breaker trajectory is a pure function of the observations and
//! replays byte-identically at any thread count:
//!
//! * **Closed**: traffic flows. Consecutive misses accumulate a failure
//!   streak; reaching `threshold` trips the breaker Open. Any success
//!   resets the streak.
//! * **Open**: no new traffic, and observations are ignored until
//!   `cooldown` ticks have passed ([`Breaker::probe_due`]); the next one
//!   moves the breaker to HalfOpen and is the probe.
//! * **HalfOpen**: a successful probe closes the breaker; a miss reopens
//!   it for another full cooldown.

/// Breaker position: whether new traffic may flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows.
    Closed,
    /// Tripped: no traffic until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next heartbeat is the probe.
    HalfOpen,
}

/// A state change returned by [`Breaker::heartbeat`], in the order it
/// happened within the tick (a cooldown expiry and its probe outcome can
/// land on the same heartbeat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Closed → Open: the failure streak reached the threshold.
    Opened,
    /// Open → HalfOpen: the cooldown elapsed, probing resumes.
    HalfOpened,
    /// HalfOpen → Closed: the probe succeeded.
    Closed,
    /// HalfOpen → Open: the probe missed; a fresh cooldown starts.
    Reopened,
}

/// The breaker. See the [module docs](self) for the state machine.
#[derive(Debug, Clone)]
pub struct Breaker {
    threshold: u32,
    cooldown: u64,
    streak: u32,
    state: BreakerState,
    opened_at: u64,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive misses
    /// (clamped to ≥ 1) and probing after `cooldown` ticks open.
    pub fn new(threshold: u32, cooldown: u64) -> Self {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            streak: 0,
            state: BreakerState::Closed,
            opened_at: 0,
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether new traffic may flow. Only a Closed breaker routes;
    /// HalfOpen waits for its probe rather than gambling live traffic on a
    /// recovering target.
    pub fn routable(&self) -> bool {
        self.state == BreakerState::Closed
    }

    /// Whether an observation at `tick` would be the half-open probe: the
    /// breaker is Open and its cooldown has elapsed.
    pub fn probe_due(&self, tick: u64) -> bool {
        self.state == BreakerState::Open && tick.saturating_sub(self.opened_at) >= self.cooldown
    }

    /// Feeds one observation at `tick` and returns the transitions it
    /// caused, in order (at most two: `HalfOpened` then the probe
    /// outcome).
    pub fn heartbeat(&mut self, tick: u64, ok: bool) -> Vec<Transition> {
        let mut out = Vec::new();
        if self.probe_due(tick) {
            self.state = BreakerState::HalfOpen;
            out.push(Transition::HalfOpened);
        }
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.streak = 0;
                } else {
                    self.streak += 1;
                    if self.streak >= self.threshold {
                        self.state = BreakerState::Open;
                        self.opened_at = tick;
                        out.push(Transition::Opened);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.state = BreakerState::Closed;
                    self.streak = 0;
                    out.push(Transition::Closed);
                } else {
                    self.state = BreakerState::Open;
                    self.opened_at = tick;
                    out.push(Transition::Reopened);
                }
            }
            // Still cooling down: observations are ignored by design — an
            // open breaker's only exit is the cooldown timer.
            BreakerState::Open => {}
        }
        out
    }

    /// Forces the breaker Open at `tick` (the router calls this when it
    /// kills a replica outright, so stats render dead replicas as open).
    pub fn force_open(&mut self, tick: u64) -> Option<Transition> {
        if self.state == BreakerState::Open {
            return None;
        }
        self.state = BreakerState::Open;
        self.opened_at = tick;
        Some(Transition::Opened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_misses() {
        let mut b = Breaker::new(3, 10);
        assert_eq!(b.heartbeat(1, false), vec![]);
        assert_eq!(b.heartbeat(2, true), vec![], "success resets the streak");
        assert_eq!(b.heartbeat(3, false), vec![]);
        assert_eq!(b.heartbeat(4, false), vec![]);
        assert_eq!(b.heartbeat(5, false), vec![Transition::Opened]);
        assert!(!b.routable());
    }

    #[test]
    fn cooldown_probe_closes_on_success() {
        let mut b = Breaker::new(1, 10);
        assert_eq!(b.heartbeat(0, false), vec![Transition::Opened]);
        assert_eq!(b.heartbeat(5, true), vec![], "mid-cooldown is ignored");
        assert_eq!(
            b.heartbeat(10, true),
            vec![Transition::HalfOpened, Transition::Closed]
        );
        assert!(b.routable());
    }

    #[test]
    fn cooldown_probe_reopens_on_miss() {
        let mut b = Breaker::new(1, 4);
        b.heartbeat(0, false);
        assert_eq!(
            b.heartbeat(4, false),
            vec![Transition::HalfOpened, Transition::Reopened]
        );
        assert_eq!(b.state(), BreakerState::Open);
        // The reopen restarts the cooldown from tick 4.
        assert_eq!(b.heartbeat(7, true), vec![]);
        assert_eq!(
            b.heartbeat(8, true),
            vec![Transition::HalfOpened, Transition::Closed]
        );
    }

    #[test]
    fn force_open_is_idempotent() {
        let mut b = Breaker::new(2, 8);
        assert_eq!(b.force_open(3), Some(Transition::Opened));
        assert_eq!(b.force_open(4), None);
        assert_eq!(b.state(), BreakerState::Open);
    }
}
