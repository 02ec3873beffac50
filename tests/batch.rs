//! Batch-equivalence and cache-correctness suite: compile-once/execute-many
//! must be observationally identical to compile-per-run.
//!
//! The serving layer's contract (DESIGN.md §11) is that a batch of `K`
//! seeds through one cached [`CompiledPlan`] behaves exactly like `K`
//! independent [`run_algorithm`] calls: same rounds, same message counts,
//! same extracted `X̂` values — across the sequential and packed batch
//! modes, with and without schedule compression, and in agreement
//! with the hash-map reference executor. On top of that, the
//! [`ScheduleCache`] must key purely on structure: identical structures
//! share one compiled entry, distinct structures never collide, and
//! eviction only ever costs a recompile, never correctness.

use lowband::core::{
    compile_plan, run_algorithm, run_algorithm_traced, run_plan_batch_traced, Algorithm,
    BatchElement, BatchMode, Instance, PackedSites, RunReport,
};
use lowband::matrix::{gen, reference_multiply, Bool, Fp, Gf2, SparseMatrix, Wrap64};
use lowband::model::{ModelError, NoopTracer, PackedLinkedMachine};
use lowband::serve::{run_batch, ScheduleCache, StructureKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iterations of the randomized properties: modest by default, heavier
/// behind the `proptest-tests` feature (same convention as
/// `tests/properties.rs`).
#[cfg(feature = "proptest-tests")]
const CASES: u64 = 32;
#[cfg(not(feature = "proptest-tests"))]
const CASES: u64 = 8;

fn us_instance(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    )
}

/// Compile once, then stream `seeds` through the plan in `mode`.
fn batch<S: BatchElement>(
    inst: &Instance,
    algorithm: Algorithm,
    seeds: &[u64],
    compress: bool,
    mode: BatchMode,
) -> Result<Vec<RunReport>, ModelError> {
    let plan = compile_plan(inst, algorithm, compress)?;
    run_plan_batch_traced::<S, _>(inst, &plan, seeds, mode, &mut NoopTracer)
}

/// The RunReport fields that are deterministic functions of (structure,
/// algorithm, seed) — everything except the wall-clock throughput.
fn deterministic_fields(r: &RunReport) -> (usize, usize, u64, usize, bool) {
    (
        r.rounds,
        r.messages,
        r.modeled_rounds.to_bits(),
        r.triangles,
        r.correct,
    )
}

#[test]
fn batch_matches_independent_runs_across_modes_and_compression() {
    let inst = us_instance(32, 3, 100);
    let seeds: Vec<u64> = (0..6).map(|s| 500 + s).collect();
    for compress in [false, true] {
        // The per-seed reference: K independent full-pipeline runs.
        let solo: Vec<RunReport> = seeds
            .iter()
            .map(|&seed| {
                run_algorithm_traced::<Fp, _>(
                    &inst,
                    Algorithm::BoundedTriangles,
                    seed,
                    compress,
                    &mut NoopTracer,
                )
                .expect("independent run")
            })
            .collect();
        assert!(solo.iter().all(|r| r.correct), "reference runs verify");
        for mode in [BatchMode::Sequential, BatchMode::Packed { lanes: 0 }] {
            let reports = batch::<Fp>(&inst, Algorithm::BoundedTriangles, &seeds, compress, mode)
                .expect("batched run");
            assert_eq!(reports.len(), solo.len());
            for (s, b) in solo.iter().zip(&reports) {
                assert_eq!(
                    deterministic_fields(s),
                    deterministic_fields(b),
                    "batch must be observationally identical (compress={compress}, {mode:?})"
                );
            }
        }
    }
}

#[test]
fn batch_equivalence_holds_for_trivial_and_wrap64() {
    // A second algorithm and a second semiring, so the equivalence is not
    // an artifact of one code path.
    let inst = us_instance(24, 2, 101);
    let seeds = [7u64, 11, 13];
    let solo: Vec<RunReport> = seeds
        .iter()
        .map(|&s| run_algorithm::<Wrap64>(&inst, Algorithm::Trivial, s).expect("solo"))
        .collect();
    let reports = batch::<Wrap64>(
        &inst,
        Algorithm::Trivial,
        &seeds,
        false,
        BatchMode::Sequential,
    )
    .expect("batch");
    for (s, b) in solo.iter().zip(&reports) {
        assert_eq!(deterministic_fields(s), deterministic_fields(b));
    }
}

#[test]
fn cached_plan_agrees_with_hash_reference_executor() {
    // Cross-backend check on the *cached artifact itself*: the same seeded
    // value-set through (a) the hash-map reference machine running the
    // source schedule and (b) the linked slot-store machine running the
    // linked schedule must extract the same X, equal to the sequential
    // reference product.
    let inst = us_instance(28, 3, 102);
    for compress in [false, true] {
        let plan = compile_plan(&inst, Algorithm::BoundedTriangles, compress).expect("plan");
        for seed in [1u64, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed);
            let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
            let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
            let want = reference_multiply(&a, &b, &inst.xhat);

            let mut hash = inst.load_machine(&a, &b);
            let hash_stats = hash.run(&plan.schedule).expect("hash executor");
            assert_eq!(inst.extract_x(&hash), want, "hash backend X");

            let mut linked = inst.load_linked(&a, &b, &plan.linked);
            let linked_stats = linked.run().expect("linked executor");
            assert_eq!(inst.extract_x_from(&linked), want, "linked backend X");

            assert_eq!(hash_stats.rounds, linked_stats.rounds);
            assert_eq!(hash_stats.messages, linked_stats.messages);
        }
    }
}

#[test]
fn identical_structures_share_one_cache_entry() {
    // N instances with the same supports (different value seeds don't
    // exist at this level — values never enter the key): 1 miss, N−1 hits.
    let base = us_instance(24, 3, 103);
    let mut cache = ScheduleCache::new(4);
    let n_lookups = 5;
    for i in 0..n_lookups {
        let clone = Instance::new(base.ahat.clone(), base.bhat.clone(), base.xhat.clone());
        let reports = run_batch::<Fp>(
            &mut cache,
            &clone,
            Algorithm::BoundedTriangles,
            &[i],
            false,
            BatchMode::Sequential,
        )
        .expect("batch through cache");
        assert!(reports[0].correct);
    }
    let s = cache.stats();
    assert_eq!(
        (s.misses, s.hits),
        (1, n_lookups - 1),
        "identical structure must compile exactly once"
    );
    assert_eq!(s.len, 1);
}

#[test]
fn structurally_distinct_instances_never_collide() {
    // Key-distinctness property: random small instances (plus algorithm
    // and compression variations) must all map to distinct keys, and the
    // cache must hold them as distinct entries.
    let mut rng = StdRng::seed_from_u64(104);
    let mut keys = Vec::new();
    let mut cache = ScheduleCache::new(256);
    for case in 0..CASES {
        let n = rng.gen_range(8..24usize);
        let d = rng.gen_range(1..4usize);
        let inst = us_instance(n, d, 200 + case);
        for (algorithm, compress) in [
            (Algorithm::Trivial, false),
            (Algorithm::BoundedTriangles, false),
            (Algorithm::BoundedTriangles, true),
        ] {
            keys.push(StructureKey::of(&inst, algorithm, compress));
            cache
                .get_or_compile(&inst, algorithm, compress)
                .expect("compile");
        }
    }
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        keys.len(),
        "key collision among {} keys",
        keys.len()
    );
    let s = cache.stats();
    assert_eq!(
        s.misses as usize,
        keys.len(),
        "every distinct key is a miss"
    );
    assert_eq!(s.hits, 0);
}

#[test]
fn eviction_recompiles_correctly() {
    // A capacity-1 cache thrashing between two structures: every lookup
    // after the first pair evicts, and every recompiled plan still
    // produces verified runs.
    let a = us_instance(24, 3, 105);
    let b = us_instance(24, 3, 106);
    let mut cache = ScheduleCache::new(1);
    for round in 0..3u64 {
        for inst in [&a, &b] {
            let reports = run_batch::<Fp>(
                &mut cache,
                inst,
                Algorithm::BoundedTriangles,
                &[round],
                false,
                BatchMode::Sequential,
            )
            .expect("batch after eviction");
            assert!(reports[0].correct, "recompiled plan must still verify");
        }
    }
    let s = cache.stats();
    assert_eq!(s.hits, 0, "capacity 1 with two structures never hits");
    assert_eq!(s.misses, 6);
    assert_eq!(s.evictions, 5, "every miss after the first evicts");
    assert_eq!(s.len, 1);
}

/// The packed ≡ sequential contract for one value type: every lane width
/// the type compiles, driven over ragged batch sizes (K = 1, LANES−1,
/// LANES, LANES+1), with and without schedule compression, must produce
/// reports bit-identical to the sequential batch mode.
fn assert_packed_equals_sequential<S: BatchElement>(inst: &Instance, widths: &[usize]) {
    for compress in [false, true] {
        for &lanes in widths {
            for k in [1usize, lanes.saturating_sub(1).max(1), lanes, lanes + 1] {
                let seeds: Vec<u64> = (0..k as u64).map(|s| 700 + s).collect();
                let seq = batch::<S>(
                    inst,
                    Algorithm::BoundedTriangles,
                    &seeds,
                    compress,
                    BatchMode::Sequential,
                )
                .expect("sequential batch");
                let packed = batch::<S>(
                    inst,
                    Algorithm::BoundedTriangles,
                    &seeds,
                    compress,
                    BatchMode::Packed { lanes },
                )
                .expect("packed batch");
                assert_eq!(packed.len(), seq.len(), "lanes={lanes} k={k}");
                assert!(seq.iter().all(|r| r.correct));
                for (s, p) in seq.iter().zip(&packed) {
                    assert_eq!(
                        deterministic_fields(s),
                        deterministic_fields(p),
                        "packed must be observationally identical \
                         (compress={compress}, lanes={lanes}, k={k})"
                    );
                }
            }
        }
    }
}

#[test]
fn packed_equals_sequential_fp() {
    // Every compiled array-plane width for the field, small widths with
    // full ragged coverage.
    assert_packed_equals_sequential::<Fp>(&us_instance(28, 3, 110), &[4, 8, 16]);
}

#[test]
fn packed_equals_sequential_wrap64() {
    assert_packed_equals_sequential::<Wrap64>(&us_instance(28, 3, 111), &[4, 8]);
}

#[test]
fn packed_equals_sequential_bool_bit_sliced() {
    // 64 bit-sliced lanes: K = 63/64/65 exercises a full word plus a
    // one-member ragged tail group.
    assert_packed_equals_sequential::<Bool>(&us_instance(20, 2, 112), &[64]);
}

#[test]
fn packed_equals_sequential_gf2_bit_sliced() {
    assert_packed_equals_sequential::<Gf2>(&us_instance(20, 2, 113), &[64]);
}

#[test]
fn packed_lanes_agree_with_hash_reference_executor() {
    // Cross-backend check at the store level: each lane of a packed run,
    // loaded and read through the batch runner's `PackedSites`, must
    // extract exactly the X the hash-map reference executor computes for
    // that lane's seed — so the plane machine agrees not just report-wise
    // but value-wise with the least-optimized backend.
    const LANES: usize = 4;
    let inst = us_instance(24, 3, 114);
    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).expect("plan");
    let sites = PackedSites::new(&inst, &plan.linked);
    let mut packed: PackedLinkedMachine<'_, Fp, LANES> = PackedLinkedMachine::new(&plan.linked);
    let mut value_sets = Vec::new();
    for (lane, seed) in (900u64..900 + LANES as u64).enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        sites.load_lane(&mut packed, lane, &a, &b);
        value_sets.push((a, b));
    }
    packed.run().expect("packed run");
    for (lane, (a, b)) in value_sets.iter().enumerate() {
        let mut hash = inst.load_machine(a, b);
        hash.run(&plan.schedule).expect("hash executor");
        let want = inst.extract_x(&hash);
        let mut got = SparseMatrix::zeros(inst.xhat.clone());
        sites.extract_lane_into(&packed, lane, &mut got);
        assert_eq!(got, want, "lane {lane} diverges from the hash backend");
        assert_eq!(
            want,
            reference_multiply(a, b, &inst.xhat),
            "hash backend itself verifies"
        );
    }
}

#[test]
fn random_instances_packed_equals_solo() {
    // Randomized packed property, widened under `proptest-tests`:
    // arbitrary small US instances, random in-menu lane width, ragged K.
    let mut rng = StdRng::seed_from_u64(115);
    for case in 0..CASES {
        let n = rng.gen_range(8..28usize);
        let d = rng.gen_range(1..4usize);
        let inst = us_instance(n, d, 400 + case);
        let lanes = [4usize, 8, 16][rng.gen_range(0..3)];
        let k = rng.gen_range(1..=lanes + 1);
        let seeds: Vec<u64> = (0..k as u64).map(|s| 1000 * case + s).collect();
        let packed = batch::<Fp>(
            &inst,
            Algorithm::BoundedTriangles,
            &seeds,
            false,
            BatchMode::Packed { lanes },
        )
        .expect("packed batch");
        for (&seed, p) in seeds.iter().zip(&packed) {
            let solo = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, seed).expect("solo");
            assert_eq!(
                deterministic_fields(&solo),
                deterministic_fields(p),
                "case {case} (n={n}, d={d}, lanes={lanes}, seed={seed})"
            );
        }
    }
}

#[test]
fn random_instances_batch_equals_solo() {
    // The randomized core property, widened under `proptest-tests`:
    // arbitrary small US instances, batch ≡ independent runs.
    let mut rng = StdRng::seed_from_u64(107);
    for case in 0..CASES {
        let n = rng.gen_range(8..28usize);
        let d = rng.gen_range(1..4usize);
        let inst = us_instance(n, d, 300 + case);
        let seeds = [case, case + 1];
        let reports = batch::<Fp>(
            &inst,
            Algorithm::BoundedTriangles,
            &seeds,
            false,
            BatchMode::Sequential,
        )
        .expect("batch");
        for (&seed, b) in seeds.iter().zip(&reports) {
            let solo = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, seed).expect("solo");
            assert_eq!(
                deterministic_fields(&solo),
                deterministic_fields(b),
                "case {case} (n={n}, d={d}, seed={seed})"
            );
        }
    }
}
