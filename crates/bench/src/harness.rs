//! A tiny, dependency-free stand-in for the subset of the Criterion API the
//! `benches/` directory uses, so `cargo bench` runs with no registry access.
//!
//! The interface mirrors Criterion 0.5 — `Criterion::benchmark_group`,
//! `BenchmarkGroup::{sample_size, bench_function, bench_with_input, finish}`,
//! `BenchmarkId::{new, from_parameter}`, `Bencher::iter` — plus the
//! [`criterion_group!`](crate::criterion_group)/[`criterion_main!`](crate::criterion_main)
//! macros, so a bench file ports by changing only its `use` lines. What it
//! does *not* do is Criterion's statistics machinery: each benchmark is
//! timed with warmup plus a fixed number of wall-clock samples, and the
//! median/min/max per-iteration times are printed in a plain table.
//!
//! Command-line behaviour: any non-flag argument acts as a substring filter
//! on benchmark ids (like Criterion); `--bench`/`--quick` and other flags
//! cargo passes are accepted and ignored. `LOWBAND_BENCH_SAMPLES` overrides
//! the per-benchmark sample count.

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

use crate::report::{json_mode, reservoir_section, BudgetEntry, Json, JsonReport, Reservoir};

/// Measurements collected for the `--json` artifact; drained by
/// [`write_json_records`] from the `criterion_main!`-generated `main`.
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Communication-budget rows registered by the bench file itself (bounds
/// are workload knowledge the harness doesn't have); drained into the
/// artifact's `budget` section by [`write_json_records`].
static BUDGETS: Mutex<Vec<BudgetEntry>> = Mutex::new(Vec::new());

/// Register predicted-vs-observed budget rows for the artifact this bench
/// writes under `--json`. Call once from the bench function, on the same
/// workload the measurements run — every bench artifact must carry a
/// non-empty `budget` section (`validate_results` enforces it).
pub fn register_budget(entries: Vec<BudgetEntry>) {
    BUDGETS.lock().unwrap().extend(entries);
}

struct Record {
    id: String,
    samples: usize,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Every per-iteration sample in nanoseconds, for the exact
    /// `percentiles` section (sample counts are small, so no sketching).
    sample_ns: Vec<u64>,
}

/// Write `results/bench_<name>.json` with every measurement recorded so
/// far. No-op without `--json`. Called automatically by
/// [`criterion_main!`](crate::criterion_main); `name` is derived from the
/// bench executable.
pub fn write_json_records() {
    if !json_mode() {
        return;
    }
    let records = std::mem::take(&mut *RECORDS.lock().unwrap());
    let budgets = std::mem::take(&mut *BUDGETS.lock().unwrap());
    let name = bench_name();
    let rows: Vec<Json> = records
        .iter()
        .map(|r| {
            Json::obj()
                .set("id", r.id.as_str())
                .set("samples", r.samples)
                .set("median_ns", r.median_ns)
                .set("min_ns", r.min_ns)
                .set("max_ns", r.max_ns)
        })
        .collect();
    let reservoirs: Vec<(String, Reservoir)> = records
        .iter()
        .map(|r| {
            let mut res = Reservoir::new(r.sample_ns.len());
            for &ns in &r.sample_ns {
                res.record(ns);
            }
            (r.id.clone(), res)
        })
        .collect();
    let pairs: Vec<(&str, &Reservoir)> =
        reservoirs.iter().map(|(id, r)| (id.as_str(), r)).collect();
    let mut report = JsonReport::new(format!("bench_{name}"));
    report.section("measurements", Json::Arr(rows));
    report.section("percentiles", reservoir_section(&pairs));
    report.section(
        "budget",
        crate::report::budget_section(&budgets, crate::report::DEFAULT_TOLERANCE),
    );
    report.finish();
}

/// The bench target's name: executable stem minus cargo's trailing
/// `-<metadata hash>` (e.g. `link_vs_hash-60837f…` → `link_vs_hash`).
fn bench_name() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    match stem.rsplit_once('-') {
        Some((base, hash))
            if !base.is_empty()
                && hash.len() == 16
                && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            base.to_string()
        }
        _ => stem,
    }
}

/// Target wall-clock time for one measured sample.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(25);
/// Warmup budget before iteration-count calibration is trusted.
const WARMUP_TIME: Duration = Duration::from_millis(150);

/// Entry point object handed to every bench function (mirrors
/// `criterion::Criterion`).
pub struct Criterion {
    filter: Option<String>,
    sample_override: Option<usize>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "bench");
        let sample_override = std::env::var("LOWBAND_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok());
        Criterion {
            filter,
            sample_override,
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            header_printed: false,
        }
    }
}

/// A named benchmark id, optionally carrying a parameter (mirrors
/// `criterion::BenchmarkId`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id shown as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// A group of benchmarks sharing a prefix and sample settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    header_printed: bool,
}

impl BenchmarkGroup<'_> {
    /// Set the number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run a benchmark identified by `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let samples = self.criterion.sample_override.unwrap_or(self.sample_size);
        if !self.header_printed {
            println!("\n{}", self.name);
            println!(
                "  {:<32} {:>14} {:>14} {:>14}",
                "benchmark", "median", "min", "max"
            );
            self.header_printed = true;
        }
        let mut bencher = Bencher {
            samples,
            times: Vec::new(),
        };
        f(&mut bencher);
        let mut times = bencher.times;
        if times.is_empty() {
            println!("  {:<32} {:>14}", id.id, "no measurements");
            return self;
        }
        times.sort();
        let median = times[times.len() / 2];
        println!(
            "  {:<32} {:>14} {:>14} {:>14}",
            id.id,
            format_time(median),
            format_time(times[0]),
            format_time(times[times.len() - 1]),
        );
        if json_mode() {
            RECORDS.lock().unwrap().push(Record {
                id: full,
                samples: times.len(),
                median_ns: median.as_nanos() as u64,
                min_ns: times[0].as_nanos() as u64,
                max_ns: times[times.len() - 1].as_nanos() as u64,
                sample_ns: times.iter().map(|t| t.as_nanos() as u64).collect(),
            });
        }
        self
    }

    /// Run a benchmark over an explicit input (the input is just forwarded;
    /// the point of the signature is source compatibility).
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (prints nothing extra; exists for API parity).
    pub fn finish(&mut self) {}
}

/// Timing driver passed to each benchmark closure (mirrors
/// `criterion::Bencher`).
pub struct Bencher {
    samples: usize,
    /// Per-iteration durations, one entry per measured sample.
    times: Vec<Duration>,
}

impl Bencher {
    /// Time `f`, discarding its output via [`black_box`]. Calibrates an
    /// iteration count so each sample runs for roughly 25 ms, then records
    /// `self.samples` samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup + calibration: run until the warmup budget is spent,
        // doubling the batch size while a batch is too fast to time well.
        let mut batch: u64 = 1;
        let warmup_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed < TARGET_SAMPLE_TIME {
                batch = batch.saturating_mul(2);
            } else if warmup_start.elapsed() >= WARMUP_TIME {
                break;
            }
            if warmup_start.elapsed() >= WARMUP_TIME && elapsed >= TARGET_SAMPLE_TIME / 4 {
                break;
            }
        }
        // Measured samples.
        self.times.clear();
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            self.times.push(t.elapsed() / batch as u32);
        }
    }
}

fn format_time(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Collect bench functions under a group name (mirrors
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::harness::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` running the listed groups (mirrors
/// `criterion::criterion_main!`), then writing the `--json` artifact if
/// requested.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::harness::write_json_records();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_samples() {
        let mut b = Bencher {
            samples: 5,
            times: Vec::new(),
        };
        b.iter(|| std::hint::black_box(1u64 + 1));
        assert_eq!(b.times.len(), 5);
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("exact", 1000).id, "exact/1000");
        assert_eq!(BenchmarkId::from_parameter(16).id, "16");
    }
}
