//! # lm4db-fault
//!
//! Deterministic, seeded fault injection for the LM4DB stack — the chaos
//! half of the fault-tolerance story (DESIGN.md §5f). Production code is
//! instrumented with [`point`] calls at the places where real deployments
//! fail (a kernel on a pool thread, a request's feed pass, a synthesized
//! program's validation); the injector decides, purely as a function of a
//! seed and the call site, whether that point panics, stalls, or proceeds.
//! Recovery paths — pool task poisoning, request quarantine and retry,
//! admission shedding, the codegen circuit breaker — are then exercised by
//! reproducible chaos tests instead of hand-written mocks. The tick-driven
//! [`Breaker`] the router and the synthesizer recover with lives here too.
//!
//! **Arming.** `LM4DB_FAULTS=<seed>:<rate>` arms the injector from the
//! environment (e.g. `LM4DB_FAULTS=42:0.05` for a 5% fault rate at seed
//! 42), or [`configure`] arms it programmatically. Unset, every
//! instrumentation point costs one relaxed atomic load plus a branch —
//! the same tri-state-atomic pattern as `LM4DB_TRACE`; every `benchmark/`
//! workload runs in that state, so its cost is inside `ops_per_s` there.
//!
//! **Determinism.** A decision is a pure function of `(seed, site, salt)`
//! — no global RNG stream, no clock — so it does not depend on thread
//! interleaving: the same seed produces the same faults at any
//! `LM4DB_THREADS`, and a fixed-seed chaos run is exactly reproducible.
//! Callers choose the salt so that retries re-roll (a transient fault) and
//! distinct requests fault independently.
//!
//! # Examples
//!
//! ```
//! use lm4db_fault as fault;
//!
//! fault::configure(42, 1.0); // every instrumented point faults
//! assert!(fault::roll("doc/site", 7).is_some());
//! fault::configure(42, 0.0); // armed, but nothing fires
//! assert!(fault::roll("doc/site", 7).is_none());
//! fault::disarm();
//! assert!(!fault::armed());
//! ```

#![warn(missing_docs)]

pub mod breaker;
pub use breaker::{Breaker, BreakerState, Transition};

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Arming state: 0 = unresolved (consult `LM4DB_FAULTS` on first use),
/// 1 = disarmed, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
/// The armed seed (valid only when `STATE == 2`).
static SEED: AtomicU64 = AtomicU64::new(0);
/// Fault probability as a fixed-point threshold in units of 2⁻³². A roll
/// fires when the decision hash's upper 32 bits fall below this.
static RATE_BITS: AtomicU32 = AtomicU32::new(0);
/// Monotonic dispatch ticket: lets call sites that run many times under
/// one name (pool task fan-outs) salt each dispatch distinctly. Increments
/// happen on the (serial) dispatching thread, so ticket numbers are
/// deterministic for a deterministic driver regardless of pool size.
static TICKET: AtomicU64 = AtomicU64::new(0);

/// What an armed instrumentation point has been told to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Unwind with an `"injected fault at <site>"` message, past the panic
    /// hook. Exercises the catch-unwind / quarantine / retry paths.
    Panic,
    /// Stall for a fixed busy-spin — a deterministic stand-in for a slow
    /// kernel or a descheduled worker. Exercises deadline and latency
    /// accounting without changing any result.
    Delay,
}

/// Whether the injector is armed. One relaxed atomic load plus a branch
/// after the first call — the entire disabled-path cost of a [`point`].
#[inline]
pub fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == 2,
    }
}

/// Arms the injector programmatically, overriding `LM4DB_FAULTS`.
/// `rate` is the per-point fault probability, clamped to `[0, 1]`.
pub fn configure(seed: u64, rate: f64) {
    SEED.store(seed, Ordering::Relaxed);
    RATE_BITS.store(rate_to_bits(rate), Ordering::Relaxed);
    STATE.store(2, Ordering::Relaxed);
}

/// Disarms the injector, overriding `LM4DB_FAULTS`.
pub fn disarm() {
    STATE.store(1, Ordering::Relaxed);
}

/// The armed seed (0 when disarmed) — experiments record it next to their
/// results so a chaos run can be replayed.
pub fn seed() -> u64 {
    if armed() {
        SEED.load(Ordering::Relaxed)
    } else {
        0
    }
}

fn rate_to_bits(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * 4_294_967_296.0).min(u32::MAX as f64) as u32
}

/// Parses `<seed>:<rate>` (e.g. `42:0.05`). A bare `<seed>` gets the
/// default 5% rate; garbage or an empty value means disarmed — never a
/// panic, faults must not be injectable by accident.
fn parse_spec(raw: &str) -> Option<(u64, f64)> {
    let v = raw.trim();
    if v.is_empty() {
        return None;
    }
    let (seed_s, rate_s) = match v.split_once(':') {
        Some((s, r)) => (s.trim(), Some(r.trim())),
        None => (v, None),
    };
    let seed = seed_s.parse::<u64>().ok()?;
    let rate = match rate_s {
        Some(r) => r.parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r))?,
        None => 0.05,
    };
    Some((seed, rate))
}

/// Resolves `LM4DB_FAULTS` exactly once; a racing [`configure`]/[`disarm`]
/// wins because only the unresolved state is replaced.
#[cold]
fn init_from_env() -> bool {
    let spec = std::env::var("LM4DB_FAULTS")
        .ok()
        .and_then(|v| parse_spec(&v));
    let new_state = match spec {
        Some((seed, rate)) => {
            SEED.store(seed, Ordering::Relaxed);
            RATE_BITS.store(rate_to_bits(rate), Ordering::Relaxed);
            2
        }
        None => 1,
    };
    let _ = STATE.compare_exchange(0, new_state, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == 2
}

/// FNV-1a over a string's bytes. The injector hashes site names with it
/// (sites get independent fault streams); the golden and chaos suites use
/// it as their outcome-stream fingerprint.
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// splitmix64 finalizer — one xorshift-multiply round trip with
/// full-avalanche behaviour on structured inputs (small indices,
/// consecutive ticks). The stack's one hash mixer: the injector spreads
/// `(seed, site, salt)` with it, the load generator derives its RNG
/// streams from it, and the router places ring nodes and fingerprints
/// prompt prefixes with it.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The decision for `(site, salt)`: `None` (proceed), or a [`Fault`].
/// Pure — the same armed seed, site, and salt always roll the same way,
/// on any thread, in any order. Returns `None` when disarmed.
#[inline]
pub fn roll(site: &str, salt: u64) -> Option<Fault> {
    if !armed() {
        return None;
    }
    let seed = SEED.load(Ordering::Relaxed);
    let x = mix(mix(seed ^ fnv64(site)).wrapping_add(mix(salt)));
    if (x >> 32) as u32 >= RATE_BITS.load(Ordering::Relaxed) {
        None
    } else if x & 1 == 0 {
        Some(Fault::Panic)
    } else {
        Some(Fault::Delay)
    }
}

/// Spin iterations for an injected delay: long enough to register as a
/// slow kernel (~hundreds of µs), short enough that chaos suites stay
/// fast. A busy spin, not a sleep, so the stall is scheduler-independent.
const DELAY_SPINS: u32 = 200_000;

/// Executes an injected delay (also used directly by tests).
pub fn delay() {
    for _ in 0..DELAY_SPINS {
        std::hint::spin_loop();
    }
}

/// An instrumentation point. Disarmed this is one relaxed load plus a
/// branch; armed it rolls for `(site, salt)` and either proceeds, stalls,
/// or unwinds with `"injected fault at <site> (salt <salt>)"`, which the
/// site catches; the panic hook does not see it. Every fired
/// fault is counted (`fault/injected`, and per-kind `fault/panics` /
/// `fault/delays`) and leaves a `fault_injected` instant in the flight
/// recorder, so a chaos run's trace shows exactly where chaos struck.
#[inline]
pub fn point(site: &'static str, salt: u64) {
    let Some(fault) = roll(site, salt) else {
        return;
    };
    lm4db_obs::counter_add("fault/injected", 1);
    lm4db_obs::instant("fault_injected");
    match fault {
        Fault::Panic => {
            lm4db_obs::counter_add("fault/panics", 1);
            // Unwinds without running the panic hook: every site catches
            // its fault and fails or retries the one unit of work, so this
            // is no crash, and at `LM4DB_TRACE=2` it writes no post-mortem.
            // The payload is the `String` `panic!` would have carried.
            std::panic::resume_unwind(Box::new(format!("injected fault at {site} (salt {salt})")));
        }
        Fault::Delay => {
            lm4db_obs::counter_add("fault/delays", 1);
            delay();
        }
    }
}

/// A supervisory instrumentation point: rolls for `(site, salt)` like
/// [`point`], but returns the decision for the **caller** to enact
/// structurally instead of panicking or stalling this thread. This is how
/// control planes consume fault decisions — the router's replica-health
/// sweep maps `Panic` to "kill the replica" and `Delay` to "missed
/// heartbeat" — so one `LM4DB_FAULTS` spec drives thread-level chaos
/// (worker panics at `serve/feed`) and topology-level chaos (replica
/// loss) from the same seed. Fired decisions are counted
/// (`fault/injected`, `fault/probes`) and leave a `fault_probe` instant;
/// the disabled path is the same one-load-one-branch as [`point`].
#[inline]
pub fn probe(site: &'static str, salt: u64) -> Option<Fault> {
    let fault = roll(site, salt)?;
    lm4db_obs::counter_add("fault/injected", 1);
    lm4db_obs::counter_add("fault/probes", 1);
    lm4db_obs::instant("fault_probe");
    Some(fault)
}

/// A fresh dispatch ticket for salting repeated call sites.
pub fn ticket() -> u64 {
    TICKET.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arming state is process-global; every test that touches it holds
    /// this lock so parallel test threads don't race.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disarmed_rolls_nothing() {
        let _l = LOCK.lock().unwrap();
        disarm();
        for salt in 0..1000 {
            assert_eq!(roll("test/site", salt), None);
        }
        assert_eq!(seed(), 0);
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_site_salt() {
        let _l = LOCK.lock().unwrap();
        configure(7, 0.25);
        let first: Vec<Option<Fault>> = (0..512).map(|s| roll("a/site", s)).collect();
        let again: Vec<Option<Fault>> = (0..512).map(|s| roll("a/site", s)).collect();
        assert_eq!(first, again, "same (seed, site, salt) must roll the same");
        let fired = first.iter().flatten().count();
        // 512 rolls at 25%: expect ~128; a pure-but-degenerate hash would
        // give 0 or 512.
        assert!((64..=192).contains(&fired), "fired {fired}/512 at 25%");
        disarm();
    }

    #[test]
    fn sites_and_seeds_decorrelate() {
        let _l = LOCK.lock().unwrap();
        configure(7, 0.5);
        let a: Vec<_> = (0..256).map(|s| roll("site/a", s)).collect();
        let b: Vec<_> = (0..256).map(|s| roll("site/b", s)).collect();
        assert_ne!(a, b, "different sites must have independent streams");
        configure(8, 0.5);
        let a2: Vec<_> = (0..256).map(|s| roll("site/a", s)).collect();
        assert_ne!(a, a2, "different seeds must have independent streams");
        disarm();
    }

    #[test]
    fn rate_bounds_behave() {
        let _l = LOCK.lock().unwrap();
        configure(3, 0.0);
        assert!((0..512).all(|s| roll("x", s).is_none()), "rate 0 fires");
        configure(3, 1.0);
        assert!((0..512).all(|s| roll("x", s).is_some()), "rate 1 skips");
        disarm();
    }

    #[test]
    fn both_fault_kinds_occur() {
        let _l = LOCK.lock().unwrap();
        configure(11, 1.0);
        let kinds: Vec<Fault> = (0..64).filter_map(|s| roll("k", s)).collect();
        assert!(kinds.contains(&Fault::Panic));
        assert!(kinds.contains(&Fault::Delay));
        disarm();
    }

    #[test]
    fn point_panics_with_recognizable_message() {
        let _l = LOCK.lock().unwrap();
        configure(1, 1.0);
        // Find a salt that rolls Panic (rate 1.0 ⇒ every roll faults).
        let salt = (0..64)
            .find(|&s| roll("p/site", s) == Some(Fault::Panic))
            .expect("some salt panics at rate 1");
        let err = std::panic::catch_unwind(|| point("p/site", salt))
            .expect_err("point must panic for a Panic roll");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the formatted message");
        assert_eq!(msg, format!("injected fault at p/site (salt {salt})"));
        disarm();
    }

    #[test]
    fn probe_returns_the_same_decision_point_would_enact() {
        let _l = LOCK.lock().unwrap();
        configure(5, 0.5);
        for salt in 0..256 {
            assert_eq!(
                probe("probe/site", salt),
                roll("probe/site", salt),
                "probe must be roll plus accounting, nothing more"
            );
        }
        disarm();
        assert_eq!(probe("probe/site", 1), None, "disarmed probes are inert");
    }

    #[test]
    fn spec_parsing_is_tolerant() {
        assert_eq!(parse_spec("42:0.05"), Some((42, 0.05)));
        assert_eq!(parse_spec(" 7 : 0.5 "), Some((7, 0.5)));
        assert_eq!(parse_spec("9"), Some((9, 0.05)));
        assert_eq!(parse_spec("9:1.0"), Some((9, 1.0)));
        assert_eq!(parse_spec("9:0"), Some((9, 0.0)));
        assert_eq!(parse_spec(""), None);
        assert_eq!(parse_spec("  "), None);
        assert_eq!(parse_spec("banana"), None);
        assert_eq!(parse_spec("9:banana"), None);
        assert_eq!(parse_spec("9:1.5"), None, "rate above 1 is a spec error");
        assert_eq!(parse_spec("-3:0.1"), None);
    }

    #[test]
    fn tickets_are_monotone() {
        let a = ticket();
        let b = ticket();
        assert!(b > a);
    }
}
