//! # `lowband-core` — the paper's algorithms
//!
//! This crate is the primary contribution of the reproduction: the
//! distributed sparse matrix multiplication algorithms of
//!
//! > Gupta, Korhonen, Studený, Suomela, Vahidi. *Low-Bandwidth Matrix
//! > Multiplication: Faster Algorithms and More General Forms of Sparsity.*
//! > SPAA 2024.
//!
//! compiled to runnable [`lowband_model::Schedule`]s. The map from paper to
//! module:
//!
//! | Paper | Module |
//! |---|---|
//! | §2.2 triangles `𝒯̂`, tripartite graph | [`triangles`] |
//! | §2 input/output placement | [`instance`] |
//! | Lemma 3.1 (process `κn` triangles in `O(κ + d + log m)`) | [`lemma31`] |
//! | Lemma 2.1 (clustered instances via dense MM) | [`densemm`] |
//! | Lemmas 4.7/4.9/4.11 (cluster extraction) | [`cluster`] |
//! | Lemma 4.13 / Tables 3–4 (parameter schedules) | [`optimizer`] |
//! | Theorem 4.2 (`[US:US:AS]` in `O(d^{1.867})`/`O(d^{1.832})`) | [`algorithms::two_phase`] |
//! | Theorems 5.3/5.11 (`O(d² + log n)` general cases) | [`algorithms::bounded_triangles`] |
//! | Trivial baselines (`O(d²)`, `O(d⁴)`) | [`algorithms::trivial`] |
//! | Prior work SPAA 2022 (cost model) | [`optimizer`] + [`algorithms`] |
//! | Table 2 classification | [`mod@classify`] |
//!
//! Everything is generic over the message semiring; the *compilation* of a
//! schedule depends only on the supports (`Â`, `B̂`, `X̂`) — never on values —
//! exactly as the supported model allows.

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod budget;
pub mod classify;
pub mod cluster;
pub mod densemm;
pub mod instance;
pub mod lemma31;
pub mod optimizer;
pub mod runner;
pub mod strassen;
pub mod supervise;
pub mod triangles;

pub use budget::{
    element_load, entries_for_observed, entries_for_report, predicted_rounds, Prediction,
};
pub use classify::{classify, Classification};
pub use instance::{Instance, PackedLaneStore, PackedSites, Placement, ValueStore};
pub use runner::{
    compile_plan, compile_plan_traced, compile_schedule, fill_fault_kinds, run_algorithm,
    run_algorithm_batch, run_algorithm_batch_traced, run_algorithm_traced,
    run_packed_guarded_seeded_traced, run_plan_batch, run_plan_batch_elementwise_traced,
    run_plan_batch_traced, run_reference_seeded, run_resilient, run_resilient_plan_traced,
    run_resilient_recorded, run_resilient_traced, Algorithm, BatchElement, BatchMode, CompiledPlan,
    ResilientReport, RetryPolicy, RunReport, Supervision,
};
pub use supervise::{Backoff, Deadline, ResilientError, Rung};
pub use triangles::{Triangle, TriangleSet};
