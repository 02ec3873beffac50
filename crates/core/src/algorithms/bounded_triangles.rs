//! Theorems 5.3 and 5.11: `O(d² + log n)` multiplication whenever the
//! triangle count is `O(d²n)`.
//!
//! The entire algorithmic content is "bound the triangles, then apply
//! Lemma 3.1 with `κ = ⌈|𝒯̂|/n⌉`":
//!
//! * `[US:AS:GM]` (Theorem 5.3): Lemma 5.1 shows `|𝒯̂| ≤ d²n`;
//! * `[BD:AS:AS]` (Theorem 5.11): Lemma 5.9 (via the `BD = RS + CS`
//!   decomposition of §1.3) shows `|𝒯̂| ≤ 2d²n`.
//!
//! The decomposition is *proof machinery* — the algorithm itself never needs
//! to split `A`: triangle enumeration already sees exactly the triples the
//! two sub-products would. [`solve_bounded_triangles`] is therefore a single
//! code path valid for any instance; its cost is `O(κ + L + log n)` where
//! `κ = ⌈|𝒯̂|/n⌉` and `L` is the per-computer element load (with balanced
//! placement, `⌈nnz/n⌉ ≤ d`).

use lowband_model::{ModelError, Schedule};

use crate::instance::Instance;
use crate::lemma31::process_triangles;
use crate::triangles::TriangleSet;

/// Statistics of a bounded-triangles run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BoundedStats {
    /// Number of triangles processed.
    pub triangles: usize,
    /// The κ used (`⌈|𝒯̂|/n⌉`).
    pub kappa: usize,
}

/// Solve an instance by enumerating `𝒯̂` and processing everything with one
/// Lemma 3.1 invocation. (The pair multiplicity `m` behind the `log m` term
/// is [`TriangleSet::max_pair_count`].)
pub fn solve_bounded_triangles(
    inst: &Instance,
    ns_base: u64,
) -> Result<(Schedule, BoundedStats), ModelError> {
    solve_bounded_triangles_from(inst, &TriangleSet::enumerate(inst), ns_base)
}

/// [`solve_bounded_triangles`] over an already enumerated `𝒯̂`.
pub(crate) fn solve_bounded_triangles_from(
    inst: &Instance,
    ts: &TriangleSet,
    ns_base: u64,
) -> Result<(Schedule, BoundedStats), ModelError> {
    let kappa = ts.kappa(inst.n);
    let stats = BoundedStats {
        triangles: ts.len(),
        kappa,
    };
    let schedule = process_triangles(inst, &ts.triangles, kappa, ns_base)?;
    Ok((schedule, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_matrix::{gen, reference_multiply, Fp, SparseMatrix, Support};
    use rand::SeedableRng;

    fn check(inst: &Instance, seed: u64) -> (usize, BoundedStats) {
        let (schedule, stats) = solve_bounded_triangles(inst, 0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
        (schedule.rounds(), stats)
    }

    #[test]
    fn us_as_gm_instance() {
        // Theorem 5.3 setting: A ∈ US, B ∈ AS, X̂ = GM (everything of
        // interest).
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let n = 24;
        let d = 3;
        let inst = Instance::balanced(
            gen::uniform_sparse(n, d, &mut rng),
            gen::average_sparse(n, d, &mut rng),
            Support::full(n, n),
        );
        let (rounds, stats) = check(&inst, 32);
        assert!(stats.triangles <= d * d * n, "Lemma 5.1 bound");
        // O(d² + log n) with small constants.
        assert!(
            rounds <= 8 * (d * d + 8),
            "rounds {rounds} too large for d² + log n"
        );
    }

    #[test]
    fn bd_as_as_instance() {
        // Theorem 5.11 setting: A ∈ BD, B, X̂ ∈ AS.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let n = 48;
        let d = 3;
        let inst = Instance::balanced(
            gen::bounded_degeneracy(n, d, &mut rng),
            gen::average_sparse(n, d, &mut rng),
            gen::average_sparse(n, d, &mut rng),
        );
        let (_, stats) = check(&inst, 34);
        assert!(stats.triangles <= 2 * d * d * n, "Lemma 5.9 bound");
    }

    #[test]
    fn cross_instance_exercises_broadcast_depth() {
        // Lemma 6.1's gadget: dense column × dense row with full X̂ — a
        // single pair (0, ·)… every triangle shares the middle node 0, and
        // pair multiplicities reach n. Still O(κ + log n) by Lemma 3.1.
        let n = 32;
        let inst = Instance::balanced(
            lowband_matrix::gen::dense_column(n),
            lowband_matrix::gen::dense_row(n),
            Support::full(n, n),
        );
        let (rounds, stats) = check(&inst, 35);
        assert_eq!(stats.triangles, n * n, "all (i, 0, k)");
        assert_eq!(stats.kappa, n);
        // κ = n dominates here; just confirm execution stayed within a small
        // multiple of κ.
        assert!(rounds <= 12 * n, "rounds {rounds}");
    }

    #[test]
    fn us_us_gm_outlier_runs_in_d2_log_n() {
        // The paper's Table 2 outlier: our Lemma 3.1 pipeline nevertheless
        // handles it with κ ≤ d² (see EXPERIMENTS.md, remark E3).
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let n = 24;
        let d = 3;
        let inst = Instance::balanced(
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
            Support::full(n, n),
        );
        let (_, stats) = check(&inst, 37);
        assert!(stats.kappa <= d * d);
    }
}
