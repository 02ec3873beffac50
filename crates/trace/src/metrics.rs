//! Aggregating sink: named counters, log₂-bucket histograms, span timings.
//!
//! A [`MetricsRegistry`] is the cheap always-on sink: every event folds
//! into O(1) state (a counter bump, a bucket increment), so attaching one
//! to an executor costs a few table lookups per *round*, not per message.
//! The whole registry snapshots to a [`Json`] tree for the
//! `results/*.json` artifacts.
//!
//! Histograms use fixed log₂ buckets: value `v` lands in bucket
//! `bit_width(v)` (bucket 0 holds only `v == 0`), covering the full `u64`
//! range in 65 slots with no configuration. Exact `count`/`sum`/`min`/`max`
//! are kept alongside, so totals stay bit-exact even though the bucket
//! boundaries are coarse.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::Tracer;

/// Number of log₂ buckets: one for zero plus one per possible bit width.
const BUCKETS: usize = 65;

/// A fixed-bucket histogram with exact summary statistics.
///
/// # Bucketing rule (the single source of truth)
///
/// Observation `v` lands in bucket [`Histogram::bucket_of`]`(v) ==
/// bit_width(v)`, i.e. `u64::BITS - v.leading_zeros()`:
///
/// * bucket `0` holds **only** `v == 0`;
/// * bucket `b ≥ 1` holds exactly `2^(b-1) ≤ v < 2^b` — so a value
///   exactly at a power of two `2^k` is the *first* value of bucket
///   `k + 1`, never the last value of bucket `k`;
/// * bucket `64` (the last of the 65 buckets) holds
///   `2^63 ≤ v ≤ u64::MAX`; its inclusive upper bound is `u64::MAX`, not
///   `2^64` (which does not exist in `u64`).
///
/// [`Histogram::bucket_bounds`] returns the inclusive `[lo, hi]` range of
/// a bucket under exactly this rule; the percentile surfaces in
/// [`crate::percentile`] derive their documented error bound from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[b]` counts observations with `bit_width(v) == b`,
    /// i.e. `v == 0` for `b == 0` and `2^(b-1) <= v < 2^b` otherwise.
    pub buckets: [u64; BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations (saturating add: a sum that would wrap
    /// pins at `u64::MAX` instead of silently restarting near zero, so
    /// `mean` degrades to an under-estimate rather than garbage).
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket observation `value` lands in — `bit_width(value)`, per
    /// the rule documented on the type.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive `[lo, hi]` value range of bucket `b`: `[0, 0]` for
    /// bucket 0, `[2^(b-1), 2^b - 1]` for `1 ≤ b ≤ 63`, and
    /// `[2^63, u64::MAX]` for bucket 64.
    ///
    /// # Panics
    ///
    /// If `b ≥ 65` (there are 65 buckets).
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < BUCKETS, "bucket {b} out of range");
        match b {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (b - 1), (1 << b) - 1),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    fn to_json(&self) -> Json {
        // Only the populated bucket range is emitted, as
        // [bit_width, count] pairs — compact and lossless.
        let pairs: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| Json::Arr(vec![Json::UInt(b as u64), Json::UInt(c)]))
            .collect();
        Json::obj()
            .set("count", self.count)
            .set("sum", self.sum)
            .set(
                "min",
                if self.count > 0 {
                    Json::UInt(self.min)
                } else {
                    Json::Null
                },
            )
            .set(
                "max",
                if self.count > 0 {
                    Json::UInt(self.max)
                } else {
                    Json::Null
                },
            )
            .set("mean", self.mean())
            .set("log2_buckets", Json::Arr(pairs))
    }
}

/// Accumulated wall-clock time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many times the span was entered (and exited).
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub nanos: u64,
}

/// The aggregating [`Tracer`] sink.
///
/// Keys are `&'static str` (the instrumentation sites use literals), so
/// lookups never allocate. Iteration order is the `BTreeMap` key order,
/// which makes snapshots deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<&'static str, SpanStats>,
    /// Open spans: name + enter time. Exits pop the top entry; a
    /// mismatched name closes the span anyway (trust the call sites).
    open: Vec<(&'static str, Instant)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter, if it was ever bumped.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Summary of a histogram, if it ever saw an observation.
    pub fn histogram_stats(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms in deterministic (key) order — the iteration the
    /// [`crate::percentile::percentiles_section`] surface folds over.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.histograms.iter().map(|(&k, h)| (k, h))
    }

    /// All counters in deterministic (key) order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Accumulated timing of a span name, if it was ever entered.
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        self.spans.get(name).copied()
    }

    /// Snapshot everything into a JSON tree:
    /// `{"counters": {...}, "histograms": {...}, "spans": {...}}`.
    /// Counter values are exact `u64`s, so totals agree bit-for-bit with
    /// whatever fed the registry.
    pub fn snapshot(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), Json::UInt(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.to_json()))
                .collect(),
        );
        let spans = Json::Obj(
            self.spans
                .iter()
                .map(|(&k, s)| {
                    let v = Json::obj().set("count", s.count).set("nanos", s.nanos);
                    (k.to_string(), v)
                })
                .collect(),
        );
        Json::obj()
            .set("counters", counters)
            .set("histograms", histograms)
            .set("spans", spans)
    }

    /// [`Self::snapshot`] serialized with two-space indentation.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_pretty()
    }
}

impl Tracer for MetricsRegistry {
    fn span_enter(&mut self, name: &'static str) {
        self.open.push((name, Instant::now()));
    }

    fn span_exit(&mut self, name: &'static str) {
        let nanos = match self.open.pop() {
            Some((_, start)) => start.elapsed().as_nanos() as u64,
            None => 0,
        };
        let s = self.spans.entry(name).or_default();
        s.count += 1;
        s.nanos += nanos;
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    fn histogram(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter("a", 1);
        m.counter("a", 41);
        m.counter("b", 7);
        assert_eq!(m.counter_value("a"), Some(42));
        assert_eq!(m.counter_value("b"), Some(7));
        assert_eq!(m.counter_value("zzz"), None);
    }

    #[test]
    fn histogram_buckets_and_exact_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1 + 2 + 3 + 4 + 1023 + 1024);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[10], 1); // 1023
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.mean(), Some(h.sum as f64 / 7.0));
    }

    #[test]
    fn bucket_rule_at_powers_of_two_zero_and_max() {
        // Exactly-at-a-power-of-two values open the *next* bucket.
        for k in 1..=63u32 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_of(v - 1), k as usize, "2^{k} - 1");
            assert_eq!(Histogram::bucket_of(v), k as usize + 1, "2^{k}");
        }
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Bounds round-trip: every bucket's bounds map back to the bucket.
        for b in 0..super::BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_of(lo), b, "lo of bucket {b}");
            assert_eq!(Histogram::bucket_of(hi), b, "hi of bucket {b}");
            assert!(lo <= hi);
        }
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn extreme_values_keep_exact_stats_and_saturate_sum() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!((h.min, h.max), (0, u64::MAX));
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[64], 2);
        // The sum would wrap; it must pin at MAX so the mean stays sane.
        assert_eq!(h.sum, u64::MAX);
        assert!(h.mean().unwrap() <= u64::MAX as f64);
    }

    #[test]
    fn spans_time_and_nest() {
        let mut m = MetricsRegistry::new();
        m.span_enter("outer");
        m.span_enter("inner");
        m.span_exit("inner");
        m.span_exit("outer");
        m.span_enter("inner");
        m.span_exit("inner");
        assert_eq!(m.span_stats("inner").unwrap().count, 2);
        assert_eq!(m.span_stats("outer").unwrap().count, 1);
        assert!(m.span_stats("outer").unwrap().nanos >= m.span_stats("inner").unwrap().nanos / 2);
    }

    #[test]
    fn snapshot_is_valid_json_with_exact_counters() {
        let mut m = MetricsRegistry::new();
        m.counter("run.messages", u64::MAX - 5);
        m.histogram("run.round_messages", 3);
        m.span_enter("run");
        m.span_exit("run");
        let text = m.snapshot_json();
        let doc = json::parse(&text).expect("snapshot parses");
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("run.messages").unwrap().as_u64(),
            Some(u64::MAX - 5)
        );
        let h = doc
            .get("histograms")
            .unwrap()
            .get("run.round_messages")
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("max").unwrap().as_u64(), Some(3));
        let s = doc.get("spans").unwrap().get("run").unwrap();
        assert_eq!(s.get("count").unwrap().as_u64(), Some(1));
    }
}
