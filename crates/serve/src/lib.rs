//! # lm4db-serve
//!
//! A batched inference engine over the GPT decoder in `lm4db-transformer`,
//! in the mold of the serving stacks that make "very large language models
//! for data management" economical: the tutorial's applications (text-to-
//! SQL, wrangling, CodexDB-style synthesis) funnel many small prompts with
//! near-identical instruction/schema headers through one decoder, and that
//! workload is exactly what continuous batching plus prefix caching exploit.
//!
//! The engine is synchronous-API, internally concurrent:
//!
//! * **Continuous batching** ([`Engine`]): requests are admitted into a
//!   dynamic batch, all active sequences step together through the
//!   pool-parallel kernels, and finished requests retire without blocking
//!   the rest.
//! * **KV caching** ([`lm4db_transformer::KvCache`]): each sequence decodes
//!   in O(t) per token instead of the O(t²) full re-forward.
//! * **Prefix caching** ([`PrefixCache`]): a trie keyed on token ids stores
//!   the per-layer key/value rows of previously prefilled prompts, so a
//!   request sharing an instruction/schema header skips re-prefilling the
//!   common prefix. KV rows are pure functions of the token prefix, so the
//!   restore is bitwise identical to recomputation.
//! * **Deadlines & cancellation**: per-request step deadlines with
//!   graceful partial results, plus [`Engine::cancel`]. The engine reads
//!   the wall clock only to measure (queue wait, latency), never to
//!   decide.
//! * **Multi-tenant scheduling** ([`sched`] module, DESIGN.md §5h):
//!   per-tenant queues with strict-priority tiers and weighted-fair
//!   sharing within a tier ([`EngineOptions::tenants`]), SLO admission
//!   that sheds predicted misses of a tenant's step target
//!   ([`TenantClass::slo_steps`]), and per-tenant outcome/latency
//!   accounting in [`Stats::tenants`] — deterministic step-based
//!   histograms, mirrored into `lm4db-obs` as `serve/tenant/*` counters.
//! * **Observability**: a [`Stats`] snapshot with queued/prefilled/decoded
//!   token counters, prefix-cache hits, and batch occupancy. With
//!   `LM4DB_TRACE=1` the same counters are mirrored into the global
//!   `lm4db-obs` registry (under `serve/*`) and every scheduler phase is
//!   timed as a span, exportable as text or JSON (see DESIGN.md §5d).
//! * **Fault isolation** ([`engine`] module docs, DESIGN.md §5f): a panic
//!   inside one sequence's forward pass never takes down the process or
//!   the batch — the poisoned request quarantines and retries with
//!   step-based backoff, then retires with [`Outcome::Failed`] if every
//!   attempt is poisoned; admission control sheds excess queue depth with
//!   [`Outcome::Rejected`]. Every submitted request retires with exactly
//!   one terminal outcome. Chaos-test this path with `LM4DB_FAULTS` (the
//!   `lm4db-fault` injector).
//!
//! Output is bit-identical to the single-request KV-cached decode path at
//! any batch size and thread count (see DESIGN.md §5c for the invariants),
//! and token-identical to the full-forward `generate` path whenever the
//! model's distributions are sharper than the ~1e-3 float divergence
//! between the two forward implementations. Tracing never changes output:
//! the golden suite passes byte-exact with tracing on.
//!
//! # Examples
//!
//! Serve a batch of greedy requests through the engine and read the
//! counters back:
//!
//! ```
//! use lm4db_serve::{Engine, Request};
//! use lm4db_tokenize::{BOS, EOS};
//! use lm4db_transformer::{GptModel, ModelConfig};
//!
//! let model = GptModel::new(ModelConfig::test(), 7);
//! let mut engine = Engine::new(&model);
//! let responses = engine.generate_batch(vec![
//!     Request::greedy(vec![BOS, 10], 4, EOS),
//!     Request::greedy(vec![BOS, 10, 11], 4, EOS),
//! ]);
//! assert_eq!(responses.len(), 2);
//! let stats = engine.stats();
//! assert_eq!(stats.submitted, 2);
//! assert_eq!(stats.completed, 2);
//! assert!(stats.prefill_tokens > 0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod prefix;
pub mod sched;
pub mod stats;

pub use engine::{Deadline, Decode, Engine, EngineOptions, Outcome, Request, RequestId, Response};
pub use prefix::PrefixCache;
pub use sched::{TenantClass, TenantId};
pub use stats::{Stats, TenantStats};
