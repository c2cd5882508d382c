//! # lm4db-loadgen
//!
//! A seeded **open-loop traffic generator** for the LM4DB serving stack —
//! the "millions of users" half of the production story. The paper's
//! pitch is one very large model behind many data-management workloads at
//! once, so the load that matters is a *mixed* tenant population: an
//! interactive text-to-SQL tenant with tight latency SLOs sharing the
//! engine with batch codegen synthesis and background fact-checking
//! sweeps.
//!
//! Three pieces:
//!
//! * [`TenantSpec`] — a traffic class: arrival rate, strict-priority
//!   tier, weighted-fair share, SLO deadline (in scheduler steps), and a
//!   mix over the seven application [`Workload`]s.
//!   [`TenantSpec::class`] is the serve engine's class for it.
//! * [`Phase`] / [`Burst`] — the schedule: stationary Poisson stretches
//!   and flash-crowd bursts, all on a **virtual clock** (one tick per
//!   engine scheduler step).
//! * [`LoadGen`] — the generator: [`LoadGen::arrivals_at`]`(tick)` is a
//!   pure function of `(seed, tick)`, so a schedule replays
//!   byte-identically at any thread count and in any order. Each
//!   [`Arrival`] converts to a ready-to-submit engine request with the
//!   decode strategy its workload really uses (beam for text2sql, scoring
//!   for LM probability queries, greedy elsewhere).
//!
//! # Examples
//!
//! ```
//! use lm4db_loadgen::{LoadGen, Phase, PromptShape, TenantSpec, Workload};
//!
//! let tenants = vec![TenantSpec {
//!     name: "interactive",
//!     rate: 1.0,
//!     tier: 0,
//!     weight: 4,
//!     slo_steps: 32,
//!     slo_wall_ms: 0,
//!     mix: Workload::mix(&[(Workload::Text2Sql, 3.0), (Workload::NeuralDb, 1.0)]),
//! }];
//! let shape = PromptShape { vocab: 64, max_prompt: 10, max_new: 3 };
//! let gen = LoadGen::new(42, shape, tenants, vec![Phase::poisson(100, 1.0)]);
//! let first = gen.arrivals_at(0);
//! assert_eq!(first, gen.arrivals_at(0)); // pure function of (seed, tick)
//! # let _ = first;
//! ```

#![warn(missing_docs)]

mod gen;
mod rng;
mod workload;

pub use gen::{Arrival, Burst, LoadGen, Phase, TenantSpec};
pub use rng::Rng;
pub use workload::{PromptShape, Workload};

impl Workload {
    /// Builds a mix vector from `(workload, weight)` pairs; unlisted
    /// workloads get weight 0.
    pub fn mix(pairs: &[(Workload, f64)]) -> [f64; 7] {
        let mut m = [0.0; 7];
        for &(w, x) in pairs {
            m[w.index()] = x;
        }
        m
    }
}
