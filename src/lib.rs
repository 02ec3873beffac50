//! # lowband — low-bandwidth distributed sparse matrix multiplication
//!
//! A from-scratch Rust reproduction of
//!
//! > Gupta, Korhonen, Studený, Suomela, Vahidi. *Brief Announcement:
//! > Low-Bandwidth Matrix Multiplication: Faster Algorithms and More
//! > General Forms of Sparsity.* SPAA 2024.
//!
//! The workspace builds the full stack the paper assumes and contributes:
//!
//! * [`model`] — the supported low-bandwidth model: `n` computers, one
//!   message sent and one received per computer per round, schedules
//!   compiled from the sparsity structure only;
//! * [`routing`] — edge-colored packed routing, doubling broadcast,
//!   halving convergecast;
//! * [`matrix`] — semirings/rings/fields, sparse supports, the sparsity
//!   families `US ⊆ {RS, CS} ⊆ BD ⊆ AS ⊆ GM`, degeneracy machinery,
//!   instance generators and the sequential reference product every run
//!   is verified against;
//! * [`core`] — the paper's algorithms: Lemma 3.1 triangle processing, the
//!   two-phase Theorem 4.2 algorithm (`O(d^{1.867})` / `O(d^{1.832})`),
//!   the `O(d² + log n)` general algorithms (Theorems 5.3/5.11), the
//!   exponent optimizer reproducing Tables 3–4, and the Table 2
//!   classifier;
//! * [`lower`] — the lower bounds as executable artifacts: Boolean-function
//!   degree, broadcast affection bound, routing gadgets with an
//!   information-counting certifier, and the dense-packing reduction;
//! * [`faults`] — deterministic fault injection (message drops, value
//!   corruption, node crashes), per-round integrity checksums, and the
//!   checkpoint/rollback machinery behind
//!   [`core::run_resilient`];
//! * [`check`] — the schedule invariant linter (per-round capacity,
//!   same-round hazards, liveness, link fidelity) and the seeded
//!   cross-executor differential fuzzer behind the `check` CI gate;
//! * [`serve`] — the serving layer: a structure-keyed LRU cache of
//!   compiled, linked, lint-checked schedules and batched multi-value
//!   execution ([`serve::run_batch`]) that compiles once and executes
//!   many — sequentially, or through packed SIMD-style value planes
//!   ([`core::BatchMode::Packed`]) that advance up to 64 batch members
//!   per schedule decode;
//! * [`served`] — the network daemon over [`serve`]: a dependency-free
//!   TCP server speaking a length-prefixed binary protocol, with
//!   thread-per-core workers sharing one bounded admission queue,
//!   supervised execution around every request, and graceful drain on
//!   shutdown (DESIGN.md §15).
//!
//! ## Quick start
//!
//! ```
//! use lowband::core::{run_algorithm, Algorithm, Instance};
//! use lowband::matrix::{gen, Fp};
//! use rand::SeedableRng;
//!
//! // A random [US:US:US] instance with n = 64 computers, d = 4.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let inst = Instance::new(
//!     gen::uniform_sparse(64, 4, &mut rng),
//!     gen::uniform_sparse(64, 4, &mut rng),
//!     gen::uniform_sparse(64, 4, &mut rng),
//! );
//! // Compile + execute + verify the Theorem 5.3 algorithm over 𝔽_p.
//! let report = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, 42).unwrap();
//! assert!(report.correct);
//! println!("{} rounds, {} messages", report.rounds, report.messages);
//! ```

#![forbid(unsafe_code)]

pub use lowband_check as check;
pub use lowband_core as core;
pub use lowband_faults as faults;
pub use lowband_lower as lower;
pub use lowband_matrix as matrix;
pub use lowband_model as model;
pub use lowband_routing as routing;
pub use lowband_serve as serve;
pub use lowband_served as served;
