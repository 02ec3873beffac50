//! # `lowband-routing` — communication primitives for the low-bandwidth model
//!
//! All of the paper's algorithms are assembled from three communication
//! patterns, each of which this crate compiles into a [`lowband_model::Schedule`]:
//!
//! * **Packed point-to-point routing** ([`route`]): given an arbitrary set of
//!   messages where every node sends at most `a` and receives at most `b`
//!   messages, deliver all of them in exactly `max(a, b)` rounds. This is the
//!   "proper edge coloring with `O(d + κ)` colors" step in the proof of
//!   Lemma 3.1: the messages form a bipartite multigraph (senders on one
//!   side, receivers on the other), and by König's theorem a Δ-edge-coloring
//!   exists; the color classes are the rounds. We implement the classic
//!   constructive alternating-path (Kempe chain) coloring, so the bound is
//!   met exactly, not just asymptotically. A first-fit [`route_greedy`]
//!   variant (≤ `a + b − 1` rounds) is provided for ablation benchmarks.
//!
//! * **Doubling broadcast** ([`broadcast()`]): spread one value held at the
//!   head of each of several *disjoint* contiguous computer ranges to every
//!   computer in its range, all ranges in parallel, in `⌈log₂ L⌉` rounds
//!   where `L` is the longest range. This is the "broadcast tree of depth
//!   `O(log m)`" in Lemma 3.1 and the upper bound side of Lemma 6.13.
//!
//! * **Halving convergecast** ([`convergecast`]): the time-reversal of
//!   broadcast — sum a value held by every computer of each disjoint range
//!   into the range head, in `⌈log₂ L⌉` rounds. This is the aggregation step
//!   of Lemma 3.1 (step 3) and the upper bound for Corollary 6.10's sum task.

#![forbid(unsafe_code)]

pub mod broadcast;
pub mod coloring;
pub mod router;

pub use broadcast::{broadcast, convergecast, RangeTask};
pub use coloring::{color_bipartite, greedy_color_bipartite, max_degree};
pub use router::{route, route_greedy, route_with_capacity, MessageSpec};
