//! What a workload run returns, and the order statistics it is reported
//! with.

use lowband_bench::report::Reservoir;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, or batch members.
    pub attempted: u64,
    /// Operations refused, dropped, degraded, answered wrongly, or
    /// compiled where the workload promises they do not.
    pub failed: u64,
    /// Of `failed`, the operations whose answer was wrong.
    pub incorrect: u64,
    /// The metrics the run reports on its last line: the end-to-end set,
    /// or the per-layer set for a traced run.
    pub metrics: Vec<Metric>,
    /// Further measurements, printed and written to result files only.
    pub extra: Vec<Metric>,
    /// Checks the run failed other than wrong answers (the ledger check).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Fold another run's operation counts into this one.
    pub fn add_counts(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
    }

    /// Look a metric up among both lists.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Every recorded sample, with exact nearest-rank quantiles: a
/// [`Reservoir`] sized so it never starts sampling within a run.
pub struct Samples(Reservoir);

/// Far above the requests any window issues (≈ 10⁴ per second).
const SAMPLE_CAPACITY: usize = 1 << 24;

impl Samples {
    /// No samples yet.
    pub fn new() -> Samples {
        Samples(Reservoir::new(SAMPLE_CAPACITY))
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.0.record(value);
    }

    /// Nearest-rank quantile `q ∈ (0, 1]`: the `⌈q·N⌉`-th smallest sample;
    /// 0 with no samples (a run with no successful operation fails its
    /// correctness check anyway).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.0.is_exact(), "a window outgrew the sample capacity");
        self.0.quantile(q).map_or(0.0, |v| v as f64)
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Samples {
        let mut samples = Samples::new();
        for v in iter {
            samples.record(v);
        }
        samples
    }
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// `[q1, median, q3]` computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does with its default "exclusive"
/// method, so spreads agree with the common Python tooling. A single
/// value is its own quartiles.
///
/// # Panics
///
/// If `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(&mut out) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance over the median: the run-to-run spread. Values
/// that do not vary have spread 0.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, median, q3] = quartiles(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// This process's peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable (the benchmark runs on Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Samples = (1..=100).collect();
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        // ⌈0.99·10⌉ = 10: the tail of a small window is its maximum.
        let small: Samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6].into_iter().collect();
        assert_eq!(small.quantile(0.5), 5.0);
        assert_eq!(small.quantile(0.9), 9.0);
        assert_eq!(small.quantile(0.99), 10.0);
        assert_eq!(Samples::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 3]), 2.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
