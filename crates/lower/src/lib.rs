//! # `lowband-lower` — the paper's lower bounds as executable artifacts
//!
//! Section 6 of the paper proves four kinds of lower bounds. None of them
//! can be "run" in the usual sense — they are impossibility results — but
//! each has an executable counterpart that this crate provides:
//!
//! * **Degree bounds** ([`boolfn`], §6.1.1): the multilinear degree of a
//!   Boolean function and the bound `T ≥ log₂ deg(f)` (Lemma 6.5); we
//!   compute degrees exactly from truth tables and verify
//!   `deg(OR_n) = n` (Corollary 6.8).
//! * **Broadcast bound** ([`broadcast_lb`], §6.1.2): the `B_t ≤ 3·B_{t−1}`
//!   affection argument of Lemma 6.13, giving `T ≥ log₃ n`, sandwiched
//!   against the `⌈log₂ n⌉` doubling broadcast we actually run.
//! * **Routing gadgets** ([`gadgets`], [`certifier`], §6.3): the concrete
//!   instances of Lemmas 6.1, 6.21 and 6.23, plus the information-counting
//!   certifier of Lemma 6.25 — for a given output placement it computes how
//!   many foreign values some computer *must* receive, which is a hard
//!   per-instance round lower bound (`Ω(√n)` on the gadgets).
//! * **Tightness of the broadcast bound** ([`ternary`]): a
//!   signalling-by-silence protocol in the paper's abstract model
//!   (Definition 6.3) that broadcasts one bit in exactly `⌈log₃ n⌉`
//!   rounds — matching Lemma 6.13 and exhibiting the power the executable
//!   message-only schedules give up.
//! * **Dense-packing reduction** ([`reduction`], §6.2): Lemma 6.17 executed
//!   end-to-end — an `m × m` dense product embedded into an `AS(1)`
//!   instance on `n = m²` computers, with the simulation cost `T′(m) =
//!   m·T(m²)` reported, making Theorem 6.19's conditional bound measurable.

#![forbid(unsafe_code)]

pub mod boolfn;
pub mod broadcast_lb;
pub mod certifier;
pub mod gadgets;
pub mod reduction;
pub mod ternary;

pub use boolfn::BooleanFunction;
pub use broadcast_lb::{broadcast_lower_bound, broadcast_upper_bound};
pub use certifier::{foreign_values_bound, max_foreign_values};
pub use reduction::{dense_via_as_reduction, ReductionReport};
pub use ternary::{ternary_broadcast, AbstractNetwork};
