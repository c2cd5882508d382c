//! # lm4db-router
//!
//! Sharded multi-replica serving (DESIGN.md §5l): a deterministic router
//! tier in front of N in-process [`lm4db_serve::Engine`] replicas.
//!
//! * [`ring`] — consistent-hash ring with virtual nodes, keyed by
//!   prompt-prefix fingerprints so the token-trie prefix cache gets
//!   per-replica locality (fair-share and minimal-disruption invariants
//!   property-tested).
//! * [`Breaker`] (`lm4db-fault`'s, re-exported) — one per replica on the
//!   virtual step clock: closed → open → half-open with cooldown probes.
//! * [`router`] — the [`Router`] itself: routing, heartbeat-driven
//!   health rolls at the `router/replica` fault site, and failover that
//!   re-submits a dead replica's in-flight requests to the next live
//!   ring node while the conservation ledger
//!   (`completed + cancelled + expired + failed + rejected == submitted`)
//!   holds across any kill schedule.
//!
//! Everything runs on the virtual step clock, so a chaos run with
//! `LM4DB_FAULTS` killing replicas mid-stream replays byte-identically
//! at any `LM4DB_THREADS`/`LM4DB_TRACE` setting — see
//! `tests/integration_router.rs` and the `expT_router` bench.
//!
//! ```
//! use lm4db_router::{Router, RouterOptions};
//! use lm4db_serve::Request;
//! use lm4db_transformer::{GptModel, ModelConfig};
//!
//! lm4db_fault::disarm();
//! let model = GptModel::new(ModelConfig::test(), 7);
//! let mut router = Router::new(&model, RouterOptions {
//!     replicas: 2,
//!     ..RouterOptions::default()
//! });
//! let id = router.submit(Request::greedy(vec![1, 2, 3], 2, usize::MAX));
//! while router.step() {}
//! let responses = router.take_responses();
//! assert_eq!(responses[0].id, id);
//! ```

#![warn(missing_docs)]

pub mod ring;
pub mod router;

pub use lm4db_fault::{Breaker, BreakerState, Transition};
pub use ring::{prefix_fingerprint, HashRing};
pub use router::{
    ReplicaStats, RoutePolicy, Router, RouterOptions, RouterStats, REPLICA_FAULT_SITE,
};
