//! Full-network dense multiplication: the `O(n^{4/3})` semiring row of
//! Table 1 (Censor-Hillel et al., simulated in the low-bandwidth model).
//!
//! The whole `n × n` instance is treated as a single "cluster" of side `n`
//! whose dedicated block is the entire network, and the 3D cube engine of
//! [`crate::densemm`] runs on the `⌊n^{1/3}⌋³` grid. The measured rounds
//! track `n^{4/3}` (exactly the congested-clique `O(n^{1/3})` bound paid
//! once per unit of bandwidth), giving the dense baseline that the paper's
//! sparse algorithms are compared against.

use lowband_model::{ModelError, NodeId, Schedule};

use crate::cluster::Cluster;
use crate::densemm::process_wave;
use crate::instance::Instance;
use crate::triangles::{Triangle, TriangleSet};

/// Solve an arbitrary instance with the full-network 3D cube algorithm.
///
/// All triangles of `𝒯̂` are processed by one dense wave spanning every
/// computer. Intended for dense or near-dense instances — on sparse inputs
/// the wave is still correct but the sparse algorithms are far cheaper.
pub fn solve_dense_cube(inst: &Instance, ns_base: u64) -> Result<Schedule, ModelError> {
    solve_dense_cube_from(inst, TriangleSet::enumerate(inst).triangles, ns_base)
}

/// [`solve_dense_cube`] over an already enumerated `𝒯̂`.
pub(crate) fn solve_dense_cube_from(
    inst: &Instance,
    triangles: Vec<Triangle>,
    ns_base: u64,
) -> Result<Schedule, ModelError> {
    let n = inst.n;
    let all: Vec<u32> = (0..n as u32).collect();
    let cluster = Cluster::new(all.clone(), all.clone(), all, triangles);
    process_wave(inst, &[cluster], &[NodeId(0)], n, ns_base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_matrix::{gen, reference_multiply, Fp, SparseMatrix, Support};
    use rand::SeedableRng;

    #[test]
    fn sparse_cube_achieves_d_n_third() {
        // Table 1 row 3 (the [2]-style bound): running the full-network
        // cube on a US(d) × US(d) = GM instance costs O(d·n^{1/3} + d²) —
        // all dn input edges are replicated p = n^{1/3} ways over n
        // computers.
        let d = 2;
        for n in [64usize, 216] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let inst = Instance::balanced(
                gen::uniform_sparse(n, d, &mut rng),
                gen::uniform_sparse(n, d, &mut rng),
                Support::full(n, n),
            );
            let schedule = solve_dense_cube(&inst, 0).unwrap();
            let bound = (8 * d) as f64 * (n as f64).powf(1.0 / 3.0) + (8 * d * d) as f64 + 16.0;
            assert!(
                (schedule.rounds() as f64) <= bound,
                "n = {n}: {} rounds > {bound}",
                schedule.rounds()
            );
        }
    }

    #[test]
    fn dense_cube_computes_full_product() {
        let n = 12;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        let schedule = solve_dense_cube(&inst, 0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn dense_cube_rounds_beat_naive_quadratic() {
        // At n = 27 the grid is 3×3×3; data movement per computer is
        // ~2(n/p)² = 162 ≪ the ~n² ≈ 729 a gather-everything approach pays.
        let n = 27;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        let schedule = solve_dense_cube(&inst, 0).unwrap();
        assert!(
            schedule.rounds() < n * n,
            "cube ({}) must beat n² = {}",
            schedule.rounds(),
            n * n
        );
        assert!(schedule.rounds() >= (n as f64).powf(4.0 / 3.0) as usize / 2);
    }

    #[test]
    fn dense_cube_handles_sparse_inputs_too() {
        let n = 16;
        let inst = Instance::new(
            Support::identity(n),
            Support::identity(n),
            Support::identity(n),
        );
        let schedule = solve_dense_cube(&inst, 0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(72);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }
}
