//! Multi-window burn-rate SLO monitoring with a deterministic alert
//! state machine.
//!
//! Google-SRE-style burn-rate alerting, reduced to integer step
//! arithmetic: a rule watches a pair of cumulative counters — `bad`
//! (SLO-violating outcomes) and `total` (all outcomes) — sampled on the
//! scheduler's step cadence, and fires when the *bad fraction* over BOTH
//! a fast and a slow trailing window exceeds the configured burn
//! threshold. The two-window conjunction gives the classic trade: the
//! slow window keeps one bad burst from paging, the fast window lets the
//! alert resolve promptly once the burn stops.
//!
//! The comparison `bad_delta * burn_den >= burn_num * total_delta` is
//! exact u128 integer arithmetic over step-clock samples, so for a given
//! request schedule every [`SloMonitor`] replay walks the identical
//! pending → firing → resolved trajectory — transition steps are
//! asserted byte-equal across replays by `expS_telemetry`.
//!
//! State machine (per rule):
//!
//! ```text
//! Inactive --cond--> Pending --cond × fast_samples--> Firing
//!     ^                 |                               |
//!     |              ¬cond                        ¬cond × resolve_samples
//!     |                 v                               v
//!     +-------------- (back) <------------------- Resolved --next obs--> Inactive/Pending
//! ```
//!
//! Every transition is returned to the caller as an [`AlertTransition`];
//! the serve engine books them as `slo/*` counters and flight-recorder
//! instants, and consults [`SloMonitor::is_firing`] to tighten SLO
//! admission while a tenant burns.
//!
//! # Examples
//!
//! ```
//! use lm4db_obs::slo::{AlertConfig, AlertState, SloMonitor};
//!
//! let mut mon = SloMonitor::new(AlertConfig {
//!     fast_samples: 2,
//!     slow_samples: 4,
//!     burn_num: 1,
//!     burn_den: 2, // fire when >= 50% of outcomes are bad
//!     resolve_samples: 2,
//! });
//! // All-good samples: stays inactive.
//! for step in 0..4 {
//!     assert!(mon.observe("t", step * 8, 0, step + 1).is_empty());
//! }
//! // Everything turns bad: pending, then firing.
//! let mut fired_at = None;
//! for i in 0..4u64 {
//!     for t in mon.observe("t", 32 + i * 8, 4 + i, 8 + i) {
//!         if t.to == AlertState::Firing {
//!             fired_at = Some(t.step);
//!         }
//!     }
//! }
//! assert!(fired_at.is_some());
//! assert!(mon.is_firing("t"));
//! ```

use std::collections::BTreeMap;

/// Burn-rate rule parameters. All windows are counted in **samples**
/// (sampler ticks), not raw steps, so the same config scales with the
/// sampling cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertConfig {
    /// Fast-window length in samples (short horizon; gates firing AND,
    /// by requiring `fast_samples` consecutive bad observations in
    /// Pending, debounces one-sample blips).
    pub fast_samples: usize,
    /// Slow-window length in samples (long horizon; keeps a single burst
    /// below the threshold from firing).
    pub slow_samples: usize,
    /// Burn threshold numerator: fire while
    /// `bad_delta / total_delta >= burn_num / burn_den` on both windows.
    pub burn_num: u64,
    /// Burn threshold denominator (must be > 0).
    pub burn_den: u64,
    /// Consecutive below-threshold observations required to move a
    /// firing alert to Resolved.
    pub resolve_samples: usize,
}

impl Default for AlertConfig {
    /// Fast window 3 samples, slow window 12, fire at a 25% bad
    /// fraction, resolve after 3 consecutive clean samples.
    fn default() -> AlertConfig {
        AlertConfig {
            fast_samples: 3,
            slow_samples: 12,
            burn_num: 1,
            burn_den: 4,
            resolve_samples: 3,
        }
    }
}

impl AlertConfig {
    fn normalized(mut self) -> AlertConfig {
        self.fast_samples = self.fast_samples.max(1);
        self.slow_samples = self.slow_samples.max(self.fast_samples);
        self.burn_den = self.burn_den.max(1);
        self.resolve_samples = self.resolve_samples.max(1);
        self
    }
}

/// Alert lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// No burn observed.
    Inactive,
    /// Burn condition holds but not yet for `fast_samples` consecutive
    /// observations.
    Pending,
    /// Both windows over threshold for long enough — the engine tightens
    /// admission while here.
    Firing,
    /// Burn stopped (`resolve_samples` consecutive clean observations);
    /// parks for one observation before returning to Inactive so the
    /// resolution is visible in the transition log.
    Resolved,
}

impl AlertState {
    /// Stable lower-case name, used in counter names and exports.
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One state-machine transition, in the order it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// Rule (tenant) name.
    pub rule: String,
    /// Scheduler step of the observation that caused the transition.
    pub step: u64,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
}

/// One cumulative (bad, total) sample. The step it was taken at is
/// carried by the caller (transitions use the observation step), so only
/// the counter pair is retained.
#[derive(Debug, Clone, Copy, Default)]
struct BurnSample {
    bad: u64,
    total: u64,
}

/// Per-rule tracking: a bounded history of cumulative samples plus the
/// state machine.
#[derive(Debug, Clone)]
struct Rule {
    /// Trailing samples, oldest first; bounded at `slow_samples + 1`
    /// entries (window deltas need one sample beyond the window).
    history: Vec<BurnSample>,
    state: AlertState,
    /// Consecutive observations with the condition true (while Pending).
    hot_streak: usize,
    /// Consecutive observations with the condition false (while Firing).
    cool_streak: usize,
}

impl Rule {
    fn new() -> Rule {
        Rule {
            history: Vec::new(),
            state: AlertState::Inactive,
            hot_streak: 0,
            cool_streak: 0,
        }
    }

    /// Whether the burn fraction over the last `window` sampling
    /// intervals is at or above `num/den`. With no elapsed outcomes the
    /// condition is false (no traffic means no burn).
    fn over(&self, window: usize, num: u64, den: u64) -> bool {
        let n = self.history.len();
        if n < 2 {
            return false;
        }
        let newest = self.history[n - 1];
        let base = self.history[n.saturating_sub(window + 1).min(n - 2)];
        let bad = newest.bad.saturating_sub(base.bad);
        let total = newest.total.saturating_sub(base.total);
        if total == 0 {
            return false;
        }
        (bad as u128) * (den as u128) >= (num as u128) * (total as u128)
    }
}

/// Multi-rule burn-rate monitor. Rules are keyed by name (one per tenant
/// in the serve engine) and created lazily on first observation.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    cfg: AlertConfig,
    rules: BTreeMap<String, Rule>,
}

impl SloMonitor {
    /// A monitor applying `cfg` (normalized: zero windows clamp to 1,
    /// `slow_samples >= fast_samples`) to every rule.
    pub fn new(cfg: AlertConfig) -> SloMonitor {
        SloMonitor {
            cfg: cfg.normalized(),
            rules: BTreeMap::new(),
        }
    }

    /// The (normalized) configuration in force.
    pub fn config(&self) -> AlertConfig {
        self.cfg
    }

    /// Feeds one cumulative sample for `rule` at `step` and advances its
    /// state machine, returning the transitions this observation caused
    /// (0, 1, or — for a Resolved alert re-entering Pending — 2).
    ///
    /// `bad` and `total` are cumulative counters as of `step`, e.g.
    /// `slo_missed + slo_shed` and all retired+shed outcomes; windowed
    /// deltas are derived internally.
    pub fn observe(&mut self, rule: &str, step: u64, bad: u64, total: u64) -> Vec<AlertTransition> {
        let cfg = self.cfg;
        let r = self.rules.entry(rule.to_string()).or_insert_with(Rule::new);
        r.history.push(BurnSample { bad, total });
        let max_hist = cfg.slow_samples + 1;
        if r.history.len() > max_hist {
            let excess = r.history.len() - max_hist;
            r.history.drain(..excess);
        }
        let cond = r.over(cfg.fast_samples, cfg.burn_num, cfg.burn_den)
            && r.over(cfg.slow_samples, cfg.burn_num, cfg.burn_den);

        let mut out = Vec::new();
        let mut transition = |r: &mut Rule, step: u64, to: AlertState| {
            out.push(AlertTransition {
                rule: rule.to_string(),
                step,
                from: r.state,
                to,
            });
            r.state = to;
        };

        // A Resolved alert parks for exactly one observation, then
        // re-enters the live states below.
        if r.state == AlertState::Resolved {
            transition(r, step, AlertState::Inactive);
        }

        match r.state {
            AlertState::Inactive => {
                if cond {
                    r.hot_streak = 1;
                    if cfg.fast_samples == 1 {
                        transition(r, step, AlertState::Firing);
                        r.cool_streak = 0;
                    } else {
                        transition(r, step, AlertState::Pending);
                    }
                }
            }
            AlertState::Pending => {
                if cond {
                    r.hot_streak += 1;
                    if r.hot_streak >= cfg.fast_samples {
                        transition(r, step, AlertState::Firing);
                        r.cool_streak = 0;
                    }
                } else {
                    r.hot_streak = 0;
                    transition(r, step, AlertState::Inactive);
                }
            }
            AlertState::Firing => {
                if cond {
                    r.cool_streak = 0;
                } else {
                    r.cool_streak += 1;
                    if r.cool_streak >= cfg.resolve_samples {
                        transition(r, step, AlertState::Resolved);
                        r.hot_streak = 0;
                    }
                }
            }
            AlertState::Resolved => unreachable!("resolved alerts re-enter above"),
        }
        out
    }

    /// Current state of `rule` (Inactive when never observed).
    pub fn state(&self, rule: &str) -> AlertState {
        self.rules
            .get(rule)
            .map(|r| r.state)
            .unwrap_or(AlertState::Inactive)
    }

    /// Whether `rule` is currently firing — the engine's admission
    /// tightening hook.
    pub fn is_firing(&self, rule: &str) -> bool {
        self.state(rule) == AlertState::Firing
    }

    /// Rule names with their current states, sorted by name.
    pub fn states(&self) -> Vec<(String, AlertState)> {
        self.rules
            .iter()
            .map(|(k, r)| (k.clone(), r.state))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AlertConfig {
        AlertConfig {
            fast_samples: 2,
            slow_samples: 4,
            burn_num: 1,
            burn_den: 4,
            resolve_samples: 2,
        }
    }

    /// Drives `mon` through cumulative (bad, total) pairs at steps
    /// 0, 10, 20, … and returns all transitions.
    fn drive(mon: &mut SloMonitor, samples: &[(u64, u64)]) -> Vec<AlertTransition> {
        let mut all = Vec::new();
        for (i, &(bad, total)) in samples.iter().enumerate() {
            all.extend(mon.observe("r", i as u64 * 10, bad, total));
        }
        all
    }

    #[test]
    fn clean_traffic_never_alerts() {
        let mut mon = SloMonitor::new(cfg());
        let t = drive(&mut mon, &[(0, 10), (0, 20), (0, 30), (0, 40), (0, 50)]);
        assert!(t.is_empty());
        assert_eq!(mon.state("r"), AlertState::Inactive);
    }

    #[test]
    fn burn_fires_then_resolves_deterministically() {
        let mut mon = SloMonitor::new(cfg());
        // 10 outcomes per sample; bad ramps to 100% then back to 0%.
        let t = drive(
            &mut mon,
            &[
                (0, 10),  // inactive
                (0, 20),  // inactive
                (10, 30), // 100% bad on both windows -> pending
                (20, 40), // still burning -> firing (hot_streak = 2)
                (30, 50), // firing
                (30, 60), // clean sample 1 (fast window still hot)
                (30, 70), // clean: fast window clean now
                (30, 80), // cool_streak reaches 2 -> resolved
                (30, 90), // resolved parks one obs -> inactive
            ],
        );
        let seq: Vec<(AlertState, u64)> = t.iter().map(|x| (x.to, x.step)).collect();
        assert_eq!(seq[0].0, AlertState::Pending);
        assert_eq!(seq[1].0, AlertState::Firing);
        assert_eq!(seq[1].1, 30);
        assert!(seq.iter().any(|&(s, _)| s == AlertState::Resolved));
        assert_eq!(seq.last().unwrap().0, AlertState::Inactive);
        assert_eq!(mon.state("r"), AlertState::Inactive);
        // Determinism: an identical replay produces identical transitions.
        let mut mon2 = SloMonitor::new(cfg());
        let t2 = drive(
            &mut mon2,
            &[
                (0, 10),
                (0, 20),
                (10, 30),
                (20, 40),
                (30, 50),
                (30, 60),
                (30, 70),
                (30, 80),
                (30, 90),
            ],
        );
        assert_eq!(t, t2);
    }

    #[test]
    fn one_sample_blip_stays_pending_only() {
        let mut mon = SloMonitor::new(cfg());
        let t = drive(
            &mut mon,
            &[(0, 10), (0, 20), (10, 30), (10, 100), (10, 150), (10, 200)],
        );
        // One burning sample (10/20 = 50% on the fast window), then the
        // traffic surge dilutes the window below 25%: Pending, back to
        // Inactive, never fires.
        assert!(t.iter().all(|x| x.to != AlertState::Firing));
        assert_eq!(t[0].to, AlertState::Pending);
        assert_eq!(t[1].to, AlertState::Inactive);
    }

    #[test]
    fn slow_window_suppresses_short_burst_against_long_good_history() {
        // Threshold 50%: a 2-sample total burn after a long clean run
        // trips the fast window but not the slow one.
        let mut mon = SloMonitor::new(AlertConfig {
            fast_samples: 1,
            slow_samples: 4,
            burn_num: 1,
            burn_den: 2,
            resolve_samples: 1,
        });
        let t = drive(
            &mut mon,
            &[(0, 100), (0, 200), (0, 300), (0, 400), (10, 410)],
        );
        // Fast window: 10/10 bad. Slow window: 10/310 — under 50%.
        assert!(t.is_empty(), "slow window must veto the burst: {t:?}");
    }

    #[test]
    fn no_traffic_is_not_a_burn() {
        let mut mon = SloMonitor::new(cfg());
        let t = drive(&mut mon, &[(5, 5), (5, 5), (5, 5)]);
        // Cumulative counters frozen: zero outcomes in every window.
        assert!(t.is_empty());
    }

    #[test]
    fn rules_are_independent_and_sorted() {
        let mut mon = SloMonitor::new(AlertConfig {
            fast_samples: 1,
            slow_samples: 1,
            burn_num: 1,
            burn_den: 2,
            resolve_samples: 1,
        });
        mon.observe("b", 0, 0, 10);
        mon.observe("a", 0, 0, 10);
        mon.observe("b", 10, 10, 20);
        mon.observe("a", 10, 0, 20);
        assert!(mon.is_firing("b"));
        assert!(!mon.is_firing("a"));
        let names: Vec<String> = mon.states().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn config_normalizes_degenerate_values() {
        let mon = SloMonitor::new(AlertConfig {
            fast_samples: 0,
            slow_samples: 0,
            burn_num: 1,
            burn_den: 0,
            resolve_samples: 0,
        });
        let c = mon.config();
        assert_eq!(c.fast_samples, 1);
        assert_eq!(c.slow_samples, 1);
        assert_eq!(c.burn_den, 1);
        assert_eq!(c.resolve_samples, 1);
    }
}
