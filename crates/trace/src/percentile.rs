//! Percentile extraction: quantiles from log₂-bucket [`Histogram`]s and an
//! exact small-N [`Reservoir`], surfaced as the `percentiles` section of
//! every results artifact.
//!
//! # Bucket-bound error
//!
//! A [`Histogram`] only knows which log₂ bucket each observation fell in
//! (see [`Histogram::bucket_of`]), so a quantile extracted from it is the
//! **inclusive upper bound of the bucket holding the nearest-rank
//! observation**, clamped to the exact `[min, max]` the histogram keeps
//! alongside. The estimate therefore never *under*-reports and
//! over-reports by strictly less than one bucket: for a true quantile `t`
//! the returned `q` satisfies `t ≤ q < 2·t` (and `q == t` exactly when the
//! observation is `0`, or the clamp to `min`/`max` engages). That error
//! model is what makes the p50/p95/p99/p999 surfaces safe to gate on: a
//! regression can hide at most a factor-of-two inside one bucket, never
//! more.
//!
//! When the population is small enough to keep outright — per-request
//! latencies of a `loadgen` run, per-sample times of a perfgate probe — use a
//! [`Reservoir`] instead: below its capacity it stores every observation
//! and its quantiles are **exact** (nearest-rank); past capacity it
//! degrades gracefully into uniform reservoir sampling (Algorithm R with a
//! deterministic seeded generator, so artifacts are reproducible).

use crate::json::Json;
use crate::metrics::{Histogram, MetricsRegistry};

/// The quantiles every `percentiles` section carries.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.50, "p50"), (0.95, "p95"), (0.99, "p99"), (0.999, "p999")];

/// Nearest-rank index for quantile `q` over a population of `count`
/// observations: the 1-based rank `⌈q·count⌉` clamped into `[1, count]`.
fn nearest_rank(q: f64, count: u64) -> u64 {
    let rank = (q * count as f64).ceil() as u64;
    rank.clamp(1, count)
}

/// The quantile-`q` observation of a log₂-bucket histogram, as the
/// inclusive upper bound of the nearest-rank bucket clamped to the exact
/// `[min, max]`; `None` when the histogram is empty. See the module docs
/// for the (< one bucket, i.e. < 2×) error model.
pub fn histogram_quantile(h: &Histogram, q: f64) -> Option<u64> {
    if h.count == 0 {
        return None;
    }
    let rank = nearest_rank(q, h.count);
    let mut seen = 0u64;
    for (b, &c) in h.buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let (_, hi) = Histogram::bucket_bounds(b);
            return Some(hi.clamp(h.min, h.max));
        }
    }
    Some(h.max) // unreachable: seen == count ≥ rank after the loop
}

/// The `{p50, p95, p99, p999, count, min, max, mean, exact}` summary of
/// one histogram; `None` when it never saw an observation (an empty
/// summary would force nulls into the artifact, which the validator
/// rejects).
pub fn histogram_percentiles(h: &Histogram) -> Option<Json> {
    if h.count == 0 {
        return None;
    }
    let mut obj = Json::obj();
    for (q, name) in QUANTILES {
        obj = obj.set(name, histogram_quantile(h, q).expect("non-empty"));
    }
    Some(
        obj.set("count", h.count)
            .set("min", h.min)
            .set("max", h.max)
            .set("mean", h.mean().expect("non-empty"))
            .set("exact", false),
    )
}

/// The full `percentiles` section for an artifact: one summary per
/// non-empty histogram in the registry, plus the estimation method. The
/// shape the `validate_results` gate requires on every artifact:
///
/// ```json
/// {"method": "...", "histograms": {"run.round_nanos": {"p50": ...}}}
/// ```
pub fn percentiles_section(registry: &MetricsRegistry) -> Json {
    let mut hists = Json::obj();
    for (name, h) in registry.histograms() {
        if let Some(p) = histogram_percentiles(h) {
            hists = hists.set(name, p);
        }
    }
    Json::obj()
        .set("method", "log2-bucket-upper-bound")
        .set("max_overestimate", "one bucket (< 2x true quantile)")
        .set("histograms", hists)
}

/// An exact-until-capacity quantile sketch.
///
/// Below `capacity` observations every value is kept and
/// [`Reservoir::quantile`] is exact nearest-rank; past capacity the kept
/// set becomes a uniform sample (Vitter's Algorithm R) driven by a
/// splitmix64 stream from the construction seed, so the same observation
/// sequence always yields the same artifact.
#[derive(Clone, Debug)]
pub struct Reservoir {
    values: Vec<u64>,
    capacity: usize,
    seen: u64,
    state: u64,
}

impl Reservoir {
    /// A reservoir keeping up to `capacity` observations (floored at 1),
    /// seeded for deterministic sampling past capacity.
    pub fn with_seed(capacity: usize, seed: u64) -> Reservoir {
        Reservoir {
            values: Vec::new(),
            capacity: capacity.max(1),
            seen: 0,
            // Golden-gamma offset so seed 0 doesn't start a zero stream.
            state: seed.wrapping_add(0x9e3779b97f4a7c15),
        }
    }

    /// [`Reservoir::with_seed`] with seed 0.
    pub fn new(capacity: usize) -> Reservoir {
        Reservoir::with_seed(capacity, 0)
    }

    fn next_random(&mut self) -> u64 {
        // splitmix64: the same generator the fault layer uses.
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.values.len() < self.capacity {
            self.values.push(value);
        } else {
            // Algorithm R: replace a random slot with probability cap/seen.
            let j = self.next_random() % self.seen;
            if (j as usize) < self.capacity {
                self.values[j as usize] = value;
            }
        }
    }

    /// Observations recorded so far (including any sampled out).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// `true` while every observation is still held, i.e. quantiles are
    /// exact nearest-rank values.
    pub fn is_exact(&self) -> bool {
        self.seen as usize <= self.capacity
    }

    /// Nearest-rank quantile over the kept observations; `None` when
    /// empty. Exact while [`Reservoir::is_exact`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let rank = nearest_rank(q, sorted.len() as u64);
        Some(sorted[(rank - 1) as usize])
    }

    /// The same `{p50, …, exact}` summary shape as
    /// [`histogram_percentiles`]; `None` when empty.
    pub fn percentiles(&self) -> Option<Json> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let mut obj = Json::obj();
        for (q, name) in QUANTILES {
            let rank = nearest_rank(q, sorted.len() as u64);
            obj = obj.set(name, sorted[(rank - 1) as usize]);
        }
        let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
        Some(
            obj.set("count", self.seen)
                .set("min", sorted[0])
                .set("max", *sorted.last().expect("non-empty"))
                .set("mean", sum as f64 / sorted.len() as f64)
                .set("exact", self.is_exact()),
        )
    }
}

/// A `percentiles` section built from named [`Reservoir`]s (the exact
/// counterpart of [`percentiles_section`]); reservoirs that never saw an
/// observation are skipped.
pub fn reservoir_section(reservoirs: &[(&str, &Reservoir)]) -> Json {
    let mut hists = Json::obj();
    for (name, r) in reservoirs {
        if let Some(p) = r.percentiles() {
            hists = hists.set(name, p);
        }
    }
    Json::obj()
        .set("method", "exact-reservoir")
        .set("max_overestimate", "none while exact=true")
        .set("histograms", hists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn histogram_quantile_is_within_one_bucket() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, _) in QUANTILES {
            let t = (q * 1000.0).ceil() as u64; // true nearest-rank value
            let est = histogram_quantile(&h, q).unwrap();
            assert!(est >= t, "q={q}: est {est} under-reports true {t}");
            assert!(est < 2 * t, "q={q}: est {est} ≥ 2× true {t}");
        }
    }

    #[test]
    fn histogram_quantile_clamps_to_exact_extremes() {
        let mut h = Histogram::default();
        h.record(5);
        h.record(5);
        h.record(5);
        // Bucket upper bound for 5 is 7, but max = 5 clamps it.
        assert_eq!(histogram_quantile(&h, 0.5), Some(5));
        assert_eq!(histogram_quantile(&h, 0.999), Some(5));
        assert_eq!(histogram_quantile(&Histogram::default(), 0.5), None);
    }

    #[test]
    fn zero_and_max_are_exact() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(histogram_quantile(&h, 0.25), Some(0));
        assert_eq!(histogram_quantile(&h, 1.0), Some(u64::MAX));
    }

    #[test]
    fn reservoir_exact_below_capacity() {
        let mut r = Reservoir::new(128);
        for v in (1..=100u64).rev() {
            r.record(v);
        }
        assert!(r.is_exact());
        assert_eq!(r.quantile(0.5), Some(50));
        assert_eq!(r.quantile(0.99), Some(99));
        assert_eq!(r.quantile(0.999), Some(100));
        let p = r.percentiles().unwrap();
        assert_eq!(p.get("p50").unwrap().as_u64(), Some(50));
        assert_eq!(p.get("exact").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn reservoir_sampling_stays_in_range_and_deterministic() {
        let mut a = Reservoir::with_seed(16, 7);
        let mut b = Reservoir::with_seed(16, 7);
        for v in 0..10_000u64 {
            a.record(v);
            b.record(v);
        }
        assert!(!a.is_exact());
        assert_eq!(a.quantile(0.5), b.quantile(0.5), "same seed, same sketch");
        let q = a.quantile(0.5).unwrap();
        assert!(q < 10_000);
    }

    #[test]
    fn section_shape_skips_empty_histograms() {
        let mut m = MetricsRegistry::new();
        m.histogram("run.round_nanos", 10);
        m.histogram("run.round_nanos", 20);
        let section = percentiles_section(&m);
        let hists = section.get("histograms").unwrap();
        let p = hists.get("run.round_nanos").unwrap();
        assert!(p.get("p50").unwrap().as_u64().is_some());
        assert_eq!(p.get("count").unwrap().as_u64(), Some(2));
    }
}
