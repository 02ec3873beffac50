//! # `lowband-serve` — compile once, execute many
//!
//! The serving layer for the low-bandwidth matrix multiplication stack. In
//! the supported model (DESIGN.md §1) every structure-dependent artifact —
//! triangle enumeration, schedule compilation, compression, linking — is a
//! pure function of the supports (`Â`, `B̂`, `X̂`), the placement, the
//! algorithm and the compression flag; only value loading and execution
//! depend on the runtime values. This crate exploits that split:
//!
//! * [`StructureKey`] — a 128-bit fingerprint of exactly the inputs that
//!   plan compilation reads, built from two independent `mix64` streams
//!   over a canonical serialization.
//! * [`ScheduleCache`] — an LRU-bounded map from [`StructureKey`] to
//!   `Arc<CompiledPlan>`. Misses compile, link and **lint** (via
//!   `lowband-check::lint_linked`) the artifact once; hits are a hash
//!   lookup. Hit/miss/eviction counts surface both on
//!   [`ScheduleCache::stats`] and as `serve.cache.*` tracer counters.
//! * [`PlanStore`] — an on-disk second tier behind the LRU: one
//!   content-addressed `model::binser` file per structure key, published
//!   by atomic rename and re-validated (checksums, key equality,
//!   `lint_linked`) on every load, so a tampered or stale file degrades
//!   to a miss + recompile rather than an execution.
//! * [`run_batch`] / [`run_batch_traced`] — stream `K` seeded value-sets
//!   through one cached plan, sequentially (one slot store, reset between
//!   runs) or fanned across threads ([`lowband_core::BatchMode`]).
//!
//! The contract, locked down by the `batch` integration suite: a batch of
//! `K` seeds is observationally identical to `K` independent
//! [`lowband_core::run_algorithm`] calls — same rounds, same message
//! counts, same extracted `X` — it just stops re-paying the
//! structure-dependent work.

#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod disk;
pub mod key;
pub mod supervise;

pub use batch::{run_batch, run_batch_elementwise, run_batch_elementwise_traced, run_batch_traced};
pub use cache::{CacheStats, ScheduleCache, ServeError};
pub use disk::{decode_plan, encode_plan, PlanStore, StoreError};
pub use key::StructureKey;
pub use supervise::{
    BreakerState, CircuitBreaker, SupervisedOutcome, Supervisor, SupervisorConfig,
};
