//! Randomized property tests over the whole stack.
//!
//! These were originally written with `proptest`; they now use seeded
//! loops over the vendored `rand` (see `crates/rng`) so the suite runs
//! with zero external dependencies. Enable the `proptest-tests` feature
//! to raise the iteration counts (`cargo test --features proptest-tests`).

use lowband::core::{run_algorithm, Algorithm, Instance};
use lowband::matrix::{bd_split, degeneracy, gen, Fp, SparsityProfile, Support, Wrap64};
use lowband::routing::{color_bipartite, max_degree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iterations per property: modest by default, heavier behind the flag.
#[cfg(feature = "proptest-tests")]
const CASES: u64 = 48;
#[cfg(not(feature = "proptest-tests"))]
const CASES: u64 = 16;

/// A random support as an entry list over an n×n grid (entry count is
/// itself random in `0..max_entries`, mirroring the old strategy).
fn random_support(rng: &mut StdRng, n: usize, max_entries: usize) -> Support {
    let count = rng.gen_range(0..max_entries);
    let entries: Vec<(u32, u32)> = (0..count)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    Support::from_entries(n, n, entries)
}

/// A random bipartite edge list over `side × side` with `1..max_edges` edges.
fn random_edges(rng: &mut StdRng, side: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let count = rng.gen_range(1..max_edges);
    (0..count)
        .map(|_| (rng.gen_range(0..side), rng.gen_range(0..side)))
        .collect()
}

/// The distributed product equals the reference on arbitrary supports.
#[test]
fn simulation_equals_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5111 + case);
        let a = random_support(&mut rng, 12, 40);
        let b = random_support(&mut rng, 12, 40);
        let x = random_support(&mut rng, 12, 40);
        let seed = rng.gen_range(0u64..1000);
        let inst = Instance::balanced(a, b, x);
        let report = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, seed).unwrap();
        assert!(
            report.correct,
            "case {case}: simulation diverged from reference"
        );
    }
}

/// The trivial algorithm agrees too.
#[test]
fn trivial_equals_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7214 + case);
        let a = random_support(&mut rng, 10, 30);
        let b = random_support(&mut rng, 10, 30);
        let x = random_support(&mut rng, 10, 30);
        let seed = rng.gen_range(0u64..1000);
        let inst = Instance::new(a, b, x);
        let report = run_algorithm::<Wrap64>(&inst, Algorithm::Trivial, seed).unwrap();
        assert!(report.correct, "case {case}: trivial algorithm diverged");
    }
}

/// Edge coloring is proper and uses exactly Δ colors.
#[test]
fn coloring_is_proper_and_optimal() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC010 + case);
        let edges = random_edges(&mut rng, 20, 200);
        let colors = color_bipartite(&edges);
        let delta = max_degree(&edges);
        assert_eq!(*colors.iter().max().unwrap() + 1, delta);
        // Properness.
        let mut seen = std::collections::HashSet::new();
        for (e, &(u, v)) in edges.iter().enumerate() {
            assert!(seen.insert((0u8, u, colors[e])), "case {case}: left clash");
            assert!(seen.insert((1u8, v, colors[e])), "case {case}: right clash");
        }
    }
}

/// BD = RS + CS: the split partitions the entries and respects the
/// degeneracy bound on both sides.
#[test]
fn bd_split_is_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xBD00 + case);
        let s = random_support(&mut rng, 16, 80);
        let (r, c, d) = bd_split(&s);
        assert_eq!(r.nnz() + c.nnz(), s.nnz());
        for (i, j) in s.iter() {
            assert!(r.contains(i, j) ^ c.contains(i, j));
        }
        assert!(r.max_row_nnz() <= d);
        assert!(c.max_col_nnz() <= d);
        // And the reported degeneracy is consistent with the profile.
        let (d2, _) = degeneracy(&s);
        assert_eq!(d, d2);
    }
}

/// Sparsity parameters are mutually bounded as the paper's Table 2 assumes.
#[test]
fn degeneracy_bounded_by_max_degree() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDE60 + case);
        let s = random_support(&mut rng, 14, 70);
        let p = SparsityProfile::of(&s);
        assert!(p.bd_param <= p.us_param);
        assert!(p.rs_param <= p.us_param);
        assert!(p.cs_param <= p.us_param);
        // AS parameter never exceeds US either (nnz ≤ us_param · n).
        assert!(p.as_param <= p.us_param.max(1));
    }
}

/// Matrix Market I/O round-trips any support.
#[test]
fn io_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let s = random_support(&mut rng, 20, 120);
        let mut buf = Vec::new();
        lowband::matrix::io::write_support(&s, &mut buf).unwrap();
        let back = lowband::matrix::io::read_support(buf.as_slice()).unwrap();
        assert_eq!(back, s);
    }
}

/// Capacity-c routing uses ⌈Δ/c⌉ rounds and never violates the model.
#[test]
fn capacity_routing_divides_rounds() {
    use lowband::model::{Key, NodeId};
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xCA90 + case);
        let edges = random_edges(&mut rng, 16, 120);
        let cap = rng.gen_range(1usize..6);
        let messages: Vec<_> = edges
            .iter()
            .enumerate()
            .map(|(t, &(u, v))| {
                lowband::routing::router::msg(
                    NodeId(u),
                    Key::tmp(0, t as u64),
                    NodeId(v),
                    Key::tmp(1, t as u64),
                )
            })
            .collect();
        let delta = max_degree(&edges);
        let s = lowband::routing::route_with_capacity(16, cap, &messages).unwrap();
        assert_eq!(s.rounds(), delta.div_ceil(cap));
        assert_eq!(s.capacity(), cap);
    }
}

/// Lemma 3.1's round envelope O(κ + load + log m) holds on random
/// instances, with an explicit constant.
#[test]
fn lemma31_round_envelope() {
    use lowband::core::TriangleSet;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3100 + case);
        let a = random_support(&mut rng, 16, 60);
        let b = random_support(&mut rng, 16, 60);
        let x = random_support(&mut rng, 16, 60);
        let inst = Instance::balanced(a, b, x);
        let ts = TriangleSet::enumerate(&inst);
        let kappa = ts.kappa(inst.n);
        let schedule =
            lowband::core::lemma31::process_triangles(&inst, &ts.triangles, kappa, 0).unwrap();
        let load = inst
            .max_a_load()
            .max(inst.max_b_load())
            .max(inst.max_x_load())
            .max(1);
        let m = ts.max_pair_count().max(2);
        let envelope = 10 * (kappa + load + (m as f64).log2().ceil() as usize + 1);
        assert!(
            schedule.rounds() <= envelope,
            "case {case}: rounds {} > envelope {envelope}",
            schedule.rounds()
        );
    }
}

/// Schedule serialization round-trips full algorithm schedules: the
/// linked `binser` payload a plan file stores decodes and de-links back to
/// the source schedule in link order.
#[test]
fn schedule_serialization_roundtrip() {
    use lowband::core::TriangleSet;
    use lowband::model::binser::{decode_linked, delink, encode_linked};
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E1A + case);
        let a = random_support(&mut rng, 10, 30);
        let b = random_support(&mut rng, 10, 30);
        let x = random_support(&mut rng, 10, 30);
        let inst = Instance::balanced(a, b, x);
        let ts = TriangleSet::enumerate(&inst);
        let schedule =
            lowband::core::lemma31::process_triangles(&inst, &ts.triangles, ts.kappa(inst.n), 0)
                .unwrap();
        let mut buf = Vec::new();
        encode_linked(&lowband::model::link(&schedule), &mut buf);
        let back = delink(&decode_linked(&buf, 0).unwrap(), 0).unwrap();
        assert_eq!(back, schedule.into_link_order());
    }
}

/// Round compression preserves the computed product on full algorithm
/// schedules, and never increases the round count.
#[test]
fn compression_is_semantics_preserving() {
    use lowband::core::TriangleSet;
    use lowband::matrix::SparseMatrix;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0B0 + case);
        let a = random_support(&mut rng, 12, 40);
        let b = random_support(&mut rng, 12, 40);
        let x = random_support(&mut rng, 12, 40);
        let seed = rng.gen_range(0u64..500);
        let inst = Instance::balanced(a, b, x);
        let ts = TriangleSet::enumerate(&inst);
        let schedule =
            lowband::core::lemma31::process_triangles(&inst, &ts.triangles, ts.kappa(inst.n), 0)
                .unwrap();
        let compressed = lowband::model::compress(&schedule);
        assert!(compressed.rounds() <= schedule.rounds());
        assert_eq!(compressed.messages(), schedule.messages());

        let mut vrng = StdRng::seed_from_u64(seed);
        let av: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut vrng);
        let bv: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut vrng);
        let mut m1 = inst.load_machine(&av, &bv);
        m1.run(&schedule).unwrap();
        let mut m2 = inst.load_machine(&av, &bv);
        m2.run(&compressed).unwrap();
        assert_eq!(inst.extract_x(&m1), inst.extract_x(&m2));
    }
}

/// Generators respect their advertised classes.
#[test]
fn generators_respect_classes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6E00 + case);
        let seed = rng.gen_range(0u64..500);
        let d = rng.gen_range(1usize..6);
        let n = 32;
        let mut rng = StdRng::seed_from_u64(seed);
        assert!(SparsityProfile::of(&gen::uniform_sparse(n, d, &mut rng)).us_param <= d);
        assert!(SparsityProfile::of(&gen::row_sparse(n, d, &mut rng)).rs_param <= d);
        assert!(SparsityProfile::of(&gen::col_sparse(n, d, &mut rng)).cs_param <= d);
        assert!(SparsityProfile::of(&gen::bounded_degeneracy(n, d, &mut rng)).bd_param <= d);
        assert!(SparsityProfile::of(&gen::average_sparse(n, d, &mut rng)).as_param <= d);
        assert!(SparsityProfile::of(&gen::block_diagonal(n, d)).us_param <= d);
    }
}
