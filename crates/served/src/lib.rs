//! # `lowband-served` — the network serving daemon
//!
//! `lowband-serve` makes compiled schedules a *service* inside one
//! process; this crate puts that service on a socket. It is a
//! dependency-free TCP daemon (std only, like the rest of the
//! workspace) speaking a length-prefixed binary protocol:
//!
//! * [`wire`] — the protocol: framing, request/response encodings, and
//!   a blocking [`wire::Client`];
//! * [`server`] — the daemon: accept loop, one bounded admission queue
//!   every worker pops from, the shared [`lowband_serve::Supervisor`]
//!   wrapped around every request, typed backpressure refusals, and
//!   graceful drain on shutdown;
//! * [`digest`] — the 64-bit product digest responses carry, and the
//!   client-side recomputation that makes every response verifiable.
//!
//! Two binaries ride along: `served` (the daemon) and `loadgen` (the
//! open/closed-loop harness behind `results/serving.json` — see
//! EXPERIMENTS.md E19).

#![forbid(unsafe_code)]

pub mod digest;
pub mod server;
pub mod wire;

pub use digest::{expected_digest, product_digest};
pub use server::{serve, ServerConfig, ServerHandle};
pub use wire::{Client, ExecuteRequest, Request, Response, WireError, WireSemiring};
