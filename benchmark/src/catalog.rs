//! The workloads' inputs: the structures each one serves, the value seeds
//! drawn from `--seed`, the expected answers, and the zipf sampler that
//! picks which structure a request asks for.
//!
//! Structures and request sequences come from fixed seeds, so every
//! `--seed` serves the same plans in the same order and the
//! `rounds`/`messages` totals are exact constants; `--seed` draws the
//! values every request carries.

use lowband_bench::{block_workload, mixed_workload, scattered_workload};
use lowband_core::densemm::DenseEngine;
use lowband_core::{Algorithm, Instance};
use lowband_matrix::Fp;
use lowband_serve::StructureKey;
use lowband_served::{expected_digest, ExecuteRequest, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Tiny memory-hit requests: per-request fixed costs dominate.
    ServeHot,
    /// A catalog larger than the cache: misses compile under the lock.
    ServeChurn,
    /// Fresh daemons over a warm plan store: every first touch is a disk hit.
    StoreRestart,
    /// One n = 1024 plan, batches through the sequential and packed executors.
    BatchN1024,
}

impl Workload {
    /// Every workload, in the order `run` and `trace` visit them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeChurn,
        Workload::StoreRestart,
        Workload::BatchN1024,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
            Workload::StoreRestart => "store-restart",
            Workload::BatchN1024 => "batch-n1024",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Capacity of the daemon's (or batch's) in-memory plan cache.
    pub fn cache_capacity(self) -> usize {
        match self {
            // Smaller than the 64-structure catalog: about a quarter of
            // the requests miss.
            Workload::ServeChurn => 24,
            _ => 32,
        }
    }

    /// Zipf exponent of structure popularity.
    fn zipf_exponent(self) -> f64 {
        match self {
            Workload::ServeChurn => 1.0,
            _ => 1.1,
        }
    }
}

/// Structures are drawn from this seed whatever `--seed` is (it is
/// loadgen's catalog seed).
const STRUCTURE_SEED: u64 = 0x10AD;

/// Value sets per structure: few enough that set-up computes every
/// expected digest, more than one so requests differ in their values.
pub const VARIANTS: usize = 4;

/// One structure a workload serves.
pub struct Entry {
    /// The supports and placement.
    pub inst: Instance,
    /// The algorithm its plan is compiled with.
    pub algorithm: Algorithm,
    /// Whether its plan is round-compressed.
    pub compress: bool,
    /// Value seeds of its [`VARIANTS`] value sets, drawn from `--seed`.
    pub seeds: Vec<u64>,
}

impl Entry {
    /// The cache key the daemon files this structure's plan under.
    pub fn key(&self) -> StructureKey {
        StructureKey::of(&self.inst, self.algorithm, self.compress)
    }

    /// A fault-free 𝔽_p execute request for value set `variant`.
    pub fn request(&self, variant: usize) -> Request {
        Request::Execute(Box::new(ExecuteRequest::clean(
            &self.inst,
            self.algorithm,
            self.compress,
            self.seeds[variant],
        )))
    }

    /// The digest a correct answer to `request(variant)` carries.
    pub fn expected(&self, variant: usize) -> u64 {
        expected_digest::<Fp>(&self.inst, self.seeds[variant])
    }
}

const BOUNDED: Algorithm = Algorithm::BoundedTriangles;

fn two_phase(d: usize) -> Algorithm {
    Algorithm::TwoPhase {
        d,
        engine: DenseEngine::Cube3d,
    }
}

/// The structures of `workload`: (instance, algorithm, compress).
fn structures(workload: Workload) -> Vec<(Instance, Algorithm, bool)> {
    let s = STRUCTURE_SEED;
    match workload {
        // loadgen's catalog (n 16–40). The three mixed structures are
        // served compressed so the compress layer is measured here too.
        Workload::ServeHot => vec![
            (scattered_workload(32, 3, s), BOUNDED, false),
            (scattered_workload(32, 3, s ^ 0xA1), BOUNDED, false),
            (scattered_workload(24, 3, s ^ 0xB2), BOUNDED, false),
            (scattered_workload(24, 3, s ^ 0xC3), BOUNDED, false),
            (scattered_workload(40, 4, s ^ 0xD4), BOUNDED, false),
            (block_workload(6, 4), BOUNDED, false),
            (block_workload(8, 4), BOUNDED, false),
            (block_workload(5, 5), BOUNDED, false),
            (mixed_workload(6, 4, s ^ 0xE5), BOUNDED, true),
            (mixed_workload(6, 4, s ^ 0xF6), BOUNDED, true),
            (mixed_workload(8, 4, s ^ 0x17), BOUNDED, true),
            (scattered_workload(16, 2, s ^ 0x28), BOUNDED, false),
        ],
        // 64 structures at n 48–144, interleaving three shapes so every
        // popularity band mixes cheap and expensive compiles.
        Workload::ServeChurn => (0..64u64)
            .map(|i| {
                let step = (i / 3) as usize;
                let n = 48 + 16 * (step % 7);
                match i % 3 {
                    0 => (scattered_workload(n, 4, s ^ i), BOUNDED, false),
                    1 => {
                        let d = [4, 6, 8][step / 7];
                        (block_workload(n / d, d), BOUNDED, false)
                    }
                    _ => (mixed_workload(n / 8, 8, s ^ i), two_phase(8), true),
                }
            })
            .collect(),
        // n 128–256, three of them Theorem 4.2 two-phase plans compressed.
        Workload::StoreRestart => vec![
            (scattered_workload(128, 4, s), BOUNDED, false),
            (scattered_workload(256, 4, s ^ 0x11), BOUNDED, false),
            (block_workload(16, 8), BOUNDED, false),
            (block_workload(24, 8), BOUNDED, false),
            (block_workload(32, 8), BOUNDED, false),
            (mixed_workload(16, 8, s ^ 0x22), two_phase(8), true),
            (mixed_workload(24, 8, s ^ 0x33), two_phase(8), true),
            (mixed_workload(32, 8, s ^ 0x44), two_phase(8), true),
        ],
        // [US:US:AS] at n = 1024, Theorem 4.2 with d = 16.
        Workload::BatchN1024 => vec![(mixed_workload(64, 16, s), two_phase(16), true)],
    }
}

/// Every structure of `workload`, with value seeds drawn from `seed`.
pub fn catalog(workload: Workload, seed: u64) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(seed);
    structures(workload)
        .into_iter()
        .map(|(inst, algorithm, compress)| Entry {
            inst,
            algorithm,
            compress,
            seeds: (0..VARIANTS).map(|_| rng.gen::<u64>()).collect(),
        })
        .collect()
}

/// Zipf(s) popularity over `n` ranks: rank `r` (0-based) is drawn with
/// probability proportional to `1 / (r + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler over `n ≥ 1` ranks.
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank in `0..n`.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The request sequence of one client: (structure, value variant) pairs.
///
/// The sequence is the same for every `--seed` (only the values behind
/// each variant change): which structures miss the cache is most of
/// serve-churn's cost, and a sequence that moved with the seed would move
/// the results by more than any bound worth setting.
pub struct Requests {
    rng: StdRng,
    zipf: Zipf,
}

/// Seed of every request sequence.
const SEQUENCE_SEED: u64 = 0x5E0_0E4CE;

impl Requests {
    /// Client `client`'s stream over `entries` structures.
    pub fn new(workload: Workload, entries: usize, client: u64) -> Requests {
        Requests {
            rng: StdRng::seed_from_u64(
                SEQUENCE_SEED ^ (client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            zipf: Zipf::new(entries, workload.zipf_exponent()),
        }
    }

    /// The next request's (structure index, variant).
    pub fn next_request(&mut self) -> (usize, usize) {
        let idx = self.zipf.sample(&mut self.rng);
        (idx, self.rng.gen_range(0..VARIANTS))
    }
}

/// The order set-up warms a cache of `capacity` in: the most popular
/// structures that fit, least popular first, so the most popular one is
/// the most recently used when the window opens.
pub fn warm_order(entries: usize, capacity: usize) -> impl Iterator<Item = usize> {
    (0..entries.min(capacity)).rev()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(12, 1.1);
        assert!((zipf.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(zipf.cdf.windows(2).all(|w| w[0] < w[1]));
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 12];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
        assert!(counts[0] > 2 * counts[3] && counts[3] > counts[11]);
        // Rank 0 carries 1/H(12, 1.1) of the mass.
        let expected = 1.0 / (1..=12).map(|k| 1.0 / f64::from(k).powf(1.1)).sum::<f64>();
        let share = counts[0] as f64 / 20_000.0;
        assert!(
            (share - expected).abs() < 0.02,
            "rank-0 share {share}, expected {expected}"
        );
    }

    #[test]
    fn zipf_of_one_rank_always_draws_it() {
        let zipf = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| zipf.sample(&mut rng) == 0));
    }

    #[test]
    fn catalogs_are_a_function_of_the_seed() {
        for workload in [Workload::ServeHot, Workload::StoreRestart] {
            let a = catalog(workload, 5);
            let b = catalog(workload, 5);
            let c = catalog(workload, 6);
            assert_eq!(a.len(), b.len());
            for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                assert_eq!(x.key(), y.key());
                assert_eq!(x.seeds, y.seeds);
                assert_eq!(x.expected(0), y.expected(0));
                assert_eq!(x.expected(VARIANTS - 1), y.expected(VARIANTS - 1));
                // Another seed keeps the structure and changes the values.
                assert_eq!(x.key(), z.key());
                assert_ne!(x.expected(0), z.expected(0));
            }
        }
    }

    #[test]
    fn churn_catalog_has_64_distinct_structures_in_range() {
        let entries = catalog(Workload::ServeChurn, 1);
        assert_eq!(entries.len(), 64);
        let mut keys: Vec<_> = entries.iter().map(Entry::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 64);
        assert!(entries.iter().all(|e| (48..=144).contains(&e.inst.n)));
        assert!(entries.iter().any(|e| e.compress) && entries.iter().any(|e| !e.compress));
    }

    #[test]
    fn request_streams_repeat_per_client() {
        let draw = |client| {
            let mut r = Requests::new(Workload::ServeHot, 12, client);
            (0..50).map(|_| r.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1));
    }

    #[test]
    fn warm_order_ends_on_the_most_popular() {
        assert_eq!(warm_order(64, 24).collect::<Vec<_>>().first(), Some(&23));
        assert_eq!(warm_order(64, 24).last(), Some(0));
        assert_eq!(warm_order(12, 32).count(), 12);
    }
}
