//! The seeded fuzz driver: generate → lint → differential → shrink.
//!
//! One seed drives one [`crate::gen::GeneratedCase`] through the whole
//! battery:
//!
//! 1. the static linter on the generated schedule, its compressed form,
//!    and both linked forms (the generator's contract is lint-clean
//!    output — an error here is a generator or linter bug);
//! 2. the full cross-executor differential on both forms;
//! 3. the windowed checkpoint/restore differential, rotating backends,
//!    with both fault-hook modes and two window sizes.
//!
//! Any failure is minimized with [`crate::shrink`](fn@crate::shrink)
//! before being reported, so a regression lands as a small committed test
//! case, not a seed.

use lowband_model::{compress, link, Schedule};

use crate::diff::{run_differential, run_differential_windowed, HookMode};
use crate::gen::{generate_for_seed, pool_preloaded, GeneratedCase};
use crate::lint::{lint_linked, lint_schedule, LintOptions};
use crate::shrink::shrink;

/// One fuzz failure, already minimized.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The seed that produced the failing case.
    pub seed: u64,
    /// Which stage failed and how.
    pub detail: String,
    /// The minimized failing schedule, serialized in the `lowband-schedule
    /// v1` text format (directly replayable through `read_schedule`).
    pub minimized: String,
    /// The minimized loads as `(node, key-raw, value)` triples.
    pub minimized_loads: Vec<(u32, u128, u64)>,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "seed {:#x}: {}", self.seed, self.detail)?;
        writeln!(f, "minimized loads: {:?}", self.minimized_loads)?;
        write!(f, "minimized schedule:\n{}", self.minimized)
    }
}

/// Aggregate outcome of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Seeds exercised.
    pub seeds: u64,
    /// Failures found (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when every seed passed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

fn serialize(schedule: &Schedule) -> String {
    let mut buf = Vec::new();
    lowband_model::write_schedule(schedule, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("v1 format is ASCII")
}

fn minimized_failure(
    seed: u64,
    detail: String,
    case: &GeneratedCase,
    schedule: &Schedule,
) -> FuzzFailure {
    let min = shrink(schedule, &case.loads, |s, loads| {
        failure_of(s, loads).is_some()
    });
    FuzzFailure {
        seed,
        detail,
        minimized: serialize(&min.schedule),
        minimized_loads: min
            .loads
            .iter()
            .map(|&(node, key, v)| (node, key.to_raw(), v))
            .collect(),
    }
}

/// The differential battery on one `(schedule, loads)` pair; `Some` with
/// a description of the first divergence, `None` when all executors
/// agree. This is also the shrinker's predicate.
fn failure_of(schedule: &Schedule, loads: &[(u32, lowband_model::Key, u64)]) -> Option<String> {
    if let Err(m) = run_differential(schedule, loads) {
        return Some(format!("differential: {m}"));
    }
    for hook in [HookMode::Disabled, HookMode::EmptyPlan] {
        for k in [1, 3] {
            if let Err(m) = run_differential_windowed(schedule, loads, k, hook) {
                return Some(format!("windowed differential (k={k}, {hook:?}): {m}"));
            }
        }
    }
    None
}

/// Fuzz one seed. `Ok(())` when the linter is clean and every executor
/// agrees on the generated schedule and its compressed form.
pub fn fuzz_seed(seed: u64) -> Result<(), FuzzFailure> {
    let case = generate_for_seed(seed);
    let opts = LintOptions::with_preloaded(&pool_preloaded);

    let compressed = compress(&case.schedule);
    for (label, schedule) in [("generated", &case.schedule), ("compressed", &compressed)] {
        let report = lint_schedule(schedule, &opts);
        if !report.is_clean() {
            return Err(minimized_failure(
                seed,
                format!("lint ({label}): {report}"),
                &case,
                schedule,
            ));
        }
        match link(schedule) {
            Err(e) => {
                return Err(minimized_failure(
                    seed,
                    format!("link ({label}): {e:?}"),
                    &case,
                    schedule,
                ))
            }
            Ok(linked) => {
                let report = lint_linked(schedule, &linked);
                if !report.is_clean() {
                    return Err(minimized_failure(
                        seed,
                        format!("lint linked ({label}): {report}"),
                        &case,
                        schedule,
                    ));
                }
            }
        }
        if let Some(detail) = failure_of(schedule, &case.loads) {
            return Err(minimized_failure(
                seed,
                format!("{label}: {detail}"),
                &case,
                schedule,
            ));
        }
    }
    Ok(())
}

/// Fuzz `count` consecutive seeds starting at `start`, collecting every
/// failure (one per seed at most).
pub fn fuzz_range(start: u64, count: u64) -> FuzzReport {
    let mut report = FuzzReport {
        seeds: count,
        ..Default::default()
    };
    for seed in start..start + count {
        if let Err(f) = fuzz_seed(seed) {
            report.failures.push(f);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed fuzz gate: the same fixed seed set CI runs. Any
    /// divergence found later should be shrunk and added to
    /// `tests/regressions.rs`, not just rerun here.
    #[test]
    fn fixed_seed_battery_passes() {
        let report = fuzz_range(0, 24);
        assert!(
            report.is_clean(),
            "{}",
            report
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n---\n")
        );
    }
}
