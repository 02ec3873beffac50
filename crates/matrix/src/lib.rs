//! # `lowband-matrix` — matrices, sparsity classes, and algebra
//!
//! Substrate crate for the SPAA 2024 low-bandwidth matrix multiplication
//! reproduction. It provides everything the distributed algorithms need to
//! talk *about*:
//!
//! * **Algebra** ([`algebra`]): implementations of the
//!   [`Semiring`] / [`Ring`] traits — the Boolean semiring
//!   (triangle detection), the tropical min-plus semiring (shortest paths),
//!   the prime field `𝔽_p` with `p = 2⁶¹ − 1`, and the wrapping `u64` ring.
//! * **Supports** ([`support`]): indicator matrices `Â`, `B̂`, `X̂` — the
//!   sparsity structure known in advance in the supported model (§2.1).
//! * **Sparsity classes** ([`classes`]): exact membership checkers and
//!   minimal parameters for the paper's six families
//!   `US ⊆ {RS, CS} ⊆ BD ⊆ AS ⊆ GM` (§1.3).
//! * **Degeneracy machinery** ([`mod@degeneracy`]): the recursive-elimination
//!   degeneracy of a support and the constructive `BD(d) = RS(d) + CS(d)`
//!   splitting used by Theorem 5.11.
//! * **Sparse matrices** ([`sparse`]): values attached to a support, plus
//!   the sequential reference product `X = (AB) ⊙ X̂` that every distributed
//!   algorithm is checked against.
//! * **Generators** ([`gen`]): seeded random instances of every sparsity
//!   class, plus the clustered and scattered workloads of the evaluation.
//! * **Pattern I/O** ([`io`]): Matrix Market coordinate reader/writer, so
//!   real-world sparsity patterns drop straight into the experiments.

#![forbid(unsafe_code)]

pub mod algebra;
pub mod classes;
pub mod degeneracy;
pub mod gen;
pub mod io;
pub mod sparse;
pub mod support;

pub use algebra::{Bool, Fp, Gf2, MinPlus, SampleElement, Wrap64};
pub use classes::{SparsityClass, SparsityProfile};
pub use degeneracy::{bd_split, degeneracy, EliminationStep};
pub use sparse::{reference_multiply, reference_multiply_into, SparseMatrix};
pub use support::Support;

// Re-export the algebra traits so downstream crates have one import path.
pub use lowband_model::algebra::{Ring, Semiring};
