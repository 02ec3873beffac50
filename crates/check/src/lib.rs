//! # `lowband-check` — schedule invariant linter + differential fuzzer
//!
//! Verification tooling for the schedule pipeline. Two halves:
//!
//! * **Static linting** ([`lint_schedule`], [`lint_linked`]): walk a
//!   compiled [`Schedule`](lowband_model::Schedule) (and its linked form)
//!   and check every model invariant decidable without values — per-round
//!   send/receive capacity (including capacity `c > 1`), node ranges,
//!   strict-read liveness, same-round read-after-overwrite and
//!   write-write hazards, declared-total consistency, and linking
//!   integrity (step kinds and counts, dangling slots, slot↔key interning).
//!   Violations come back as typed [`CheckError`]s with
//!   step/round/node/key provenance and can be emitted as `check.*`
//!   tracer counters.
//!
//! * **Differential fuzzing** ([`fuzz_seed`], [`fuzz_range`]): generate
//!   seeded random valid schedules ([`gen`]), run them on both executors
//!   — the hash-map reference, the slot machine at one and four lanes,
//!   and windowed linked chains that restore every window's checkpoint
//!   onto a fresh machine, with and without an enabled fault hook — and
//!   demand bit-identical stores and stats ([`diff`]). Any divergence is
//!   minimized to a small replayable case ([`shrink`](mod@shrink)) before
//!   being reported.
//!
//! The `check` binary in `lowband-bench` drives both over the real
//! compiled pipelines (tables 1–4, figure 1, experiments) and over a
//! fixed seed grid in CI.

#![forbid(unsafe_code)]

pub mod diff;
pub mod fuzz;
pub mod gen;
pub mod lint;
pub mod report;
pub mod shrink;

pub use diff::{run_differential, run_differential_windowed, HookMode, Mismatch};
pub use fuzz::{fuzz_range, fuzz_seed, FuzzFailure, FuzzReport};
pub use gen::{generate, generate_for_seed, GeneratedCase};
pub use lint::{lint_linked, lint_linked_traced, lint_schedule, LintOptions};
pub use report::{CheckError, CheckReport, Severity};
pub use shrink::{shrink, ShrunkCase};
