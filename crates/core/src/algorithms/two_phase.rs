//! Theorem 4.2: the two-phase `O(d^{1.867})` / `O(d^{1.832})` algorithm for
//! `[US:US:AS]`.
//!
//! Phase 1 (§4.2) walks the parameter schedule of Lemma 4.13 (Tables 3–4):
//! for each step with parameters `(γ, ε)` it extracts dense clusters
//! (threshold `d^{3−4ε}/24`, Lemma 4.7) until the pool drops to
//! `d^{2−ε}n`, then moves to the next step. Extracted clusters are processed
//! in parallel waves by the dense engine of Lemma 2.1.
//!
//! Phase 2 (§4.3) hands the residual pool — at most `d^{α}n` triangles — to
//! Lemma 3.1 with `κ = ⌈|residual|/n⌉`, finishing in `O(d^{α})` rounds.
//!
//! The report separates *measured* rounds (the cube-engine schedule actually
//! executed, semiring-faithful) from *modeled* rounds (the fast-field charge
//! of DESIGN.md §3) so benches can print both columns.

use lowband_model::{ModelError, Schedule};

use crate::cluster::{extract_clusters, Cluster};
use crate::densemm::{process_clusters, DenseEngine};
use crate::instance::Instance;
use crate::lemma31::process_triangles;
use crate::optimizer::{optimal_schedule, ParameterSchedule, Phase2};
use crate::triangles::{Triangle, TriangleSet};

/// Everything a two-phase run reports.
#[derive(Debug)]
pub struct TwoPhaseReport {
    /// The executable schedule (phase 1 followed by phase 2).
    pub schedule: Schedule,
    /// Clusters extracted in phase 1.
    pub clusters: usize,
    /// Triangles captured by phase 1.
    pub captured: usize,
    /// Triangles left for phase 2.
    pub residual: usize,
    /// Parallel dense waves executed.
    pub waves: usize,
    /// Rounds of the dense phase as executed (cube engine).
    pub dense_rounds: usize,
    /// Rounds of the Lemma 3.1 phase.
    pub phase2_rounds: usize,
    /// Modeled total rounds under the selected engine (equals the measured
    /// total for [`DenseEngine::Cube3d`]).
    pub modeled_rounds: f64,
    /// The parameter schedule driving the extraction.
    pub params: ParameterSchedule,
}

impl TwoPhaseReport {
    /// Measured total rounds.
    pub fn rounds(&self) -> usize {
        self.schedule.rounds()
    }
}

/// Run phase-1 extraction following the parameter schedule; returns the
/// clusters and leaves the residual in `pool`.
fn extract_by_schedule(
    pool: &mut Vec<Triangle>,
    d: usize,
    n: usize,
    params: &ParameterSchedule,
) -> Vec<Cluster> {
    let mut clusters = Vec::new();
    let df = d as f64;
    let _ = n;
    for step in &params.steps {
        // The paper's per-step budget `d^{2−ε}n` only serves its counting
        // argument (bounding the number of clusterings L); extraction that
        // keeps going while clusters meet the profitability threshold
        // `d^{3−4ε}/24` is never worse — the dense engine processes every
        // captured cluster at its d^{4/3}-style cost, and whatever the
        // greedy cannot certify falls through to phase 2 unchanged.
        // Floor at d²: a side-d cluster occupies a d-computer block for a
        // whole wave (≥ d^{4/3}-ish rounds), so captures below ~d² triangles
        // are cheaper to leave to phase 2 at simulator scale. For the large
        // d of the asymptotic regime the paper's own threshold dominates.
        let paper = (df.powf(3.0 - 4.0 * step.eps) / 24.0).ceil().max(1.0) as usize;
        let threshold = paper.max(d * d);
        let report = extract_clusters(pool, d, threshold, 0);
        clusters.extend(report.clusters);
    }
    clusters
}

/// Solve an instance with the two-phase algorithm of Theorem 4.2.
///
/// `d` is the sparsity parameter of the instance (the `US`/`AS` bound);
/// `engine` selects the dense cost model. Scratch namespaces: the dense
/// phase uses `ns_base..ns_base+2`, phase 2 uses `ns_base+8..`.
pub fn solve_two_phase(
    inst: &Instance,
    d: usize,
    engine: DenseEngine,
    ns_base: u64,
) -> Result<TwoPhaseReport, ModelError> {
    solve_two_phase_from(
        inst,
        TriangleSet::enumerate(inst).triangles,
        d,
        engine,
        ns_base,
    )
}

/// [`solve_two_phase`] over an already enumerated `𝒯̂` (`pool`).
pub(crate) fn solve_two_phase_from(
    inst: &Instance,
    mut pool: Vec<Triangle>,
    d: usize,
    engine: DenseEngine,
    ns_base: u64,
) -> Result<TwoPhaseReport, ModelError> {
    let n = inst.n;
    let lambda = match engine {
        DenseEngine::Cube3d => crate::optimizer::LAMBDA_SEMIRING,
        DenseEngine::FastField { omega } => crate::optimizer::lambda_field(omega),
        DenseEngine::StrassenExec => {
            crate::optimizer::lambda_field(crate::optimizer::OMEGA_STRASSEN)
        }
    };
    let params = optimal_schedule(lambda, 0.00001, Phase2::ThisWork);
    let total = pool.len();

    // ---- Phase 1: cluster extraction + dense processing ------------------
    let clusters = extract_by_schedule(&mut pool, d.max(1), n, &params);
    let captured = total - pool.len();
    let (dense_schedule, waves) = match engine {
        DenseEngine::StrassenExec => {
            crate::densemm::process_clusters_strassen(inst, &clusters, d.max(1), ns_base)?
        }
        _ => process_clusters(inst, &clusters, d.max(1), ns_base)?,
    };
    let dense_rounds = dense_schedule.rounds();

    // ---- Phase 2: Lemma 3.1 on the residual -------------------------------
    let kappa = pool.len().div_ceil(n).max(1);
    let phase2_schedule = process_triangles(inst, &pool, kappa, ns_base + 8)?;
    let phase2_rounds = phase2_schedule.rounds();

    let schedule = dense_schedule.chain(phase2_schedule)?;

    let modeled_dense: f64 = (0..waves)
        .map(|_| engine.modeled_wave_rounds(d.max(2), dense_rounds / waves.max(1)))
        .sum();
    let modeled_rounds = match engine {
        DenseEngine::Cube3d | DenseEngine::StrassenExec => schedule.rounds() as f64,
        DenseEngine::FastField { .. } => modeled_dense + phase2_rounds as f64,
    };

    Ok(TwoPhaseReport {
        schedule,
        clusters: clusters.len(),
        captured,
        residual: pool.len(),
        waves,
        dense_rounds,
        phase2_rounds,
        modeled_rounds,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_matrix::{gen, reference_multiply, Fp, SparseMatrix};
    use rand::SeedableRng;

    fn verify(inst: &Instance, report: &TwoPhaseReport, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&report.schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn clustered_workload_goes_through_phase1() {
        let n = 32;
        let d = 4;
        let s = gen::block_diagonal(n, d);
        let inst = Instance::new(s.clone(), s.clone(), s);
        let report = solve_two_phase(&inst, d, DenseEngine::Cube3d, 0).unwrap();
        assert_eq!(report.captured + report.residual, (n / d) * d * d * d);
        assert!(report.captured > 0, "blocks are dense clusters");
        verify(&inst, &report, 41);
    }

    #[test]
    fn scattered_workload_goes_through_phase2() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 64;
        let d = 4;
        let inst = Instance::new(
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
        );
        let report = solve_two_phase(&inst, d, DenseEngine::Cube3d, 0).unwrap();
        assert!(
            report.residual >= report.captured,
            "scattered pools mostly fall through"
        );
        verify(&inst, &report, 43);
    }

    #[test]
    fn us_us_as_mixed_workload() {
        // Half clustered, half scattered; X̂ average-sparse — the exact
        // Theorem 4.2 setting.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let n = 48;
        let d = 4;
        let ahat = gen::block_diagonal(n, d).union(&gen::uniform_sparse(n, 2, &mut rng));
        let bhat = gen::block_diagonal(n, d).union(&gen::uniform_sparse(n, 2, &mut rng));
        let xhat = gen::block_diagonal(n, d).union(&gen::average_sparse(n, 2, &mut rng));
        // ahat/bhat are now US(d+2); use d+2 as the parameter.
        let inst = Instance::new(ahat, bhat, xhat);
        let report = solve_two_phase(&inst, d + 2, DenseEngine::Cube3d, 0).unwrap();
        verify(&inst, &report, 45);
    }

    #[test]
    fn fast_field_engine_is_value_correct_and_charges_less() {
        let n = 32;
        let d = 4;
        let s = gen::block_diagonal(n, d);
        let inst = Instance::new(s.clone(), s.clone(), s);
        let cube = solve_two_phase(&inst, d, DenseEngine::Cube3d, 0).unwrap();
        let fast = solve_two_phase(
            &inst,
            d,
            DenseEngine::FastField {
                omega: crate::optimizer::OMEGA_PAPER,
            },
            0,
        )
        .unwrap();
        verify(&inst, &fast, 46);
        assert!(
            fast.modeled_rounds <= cube.modeled_rounds,
            "fast engine must not charge more: {} vs {}",
            fast.modeled_rounds,
            cube.modeled_rounds
        );
    }

    #[test]
    fn strassen_engine_end_to_end() {
        // Theorem 4.2 with the executable fast engine: clusters of side 8
        // run two-level… one-level Strassen recursions (7 ≤ block ≤ 8) on
        // their own blocks, phase 2 unchanged. Verified over 𝔽_p.
        let n = 64;
        let d = 8;
        let s = gen::block_diagonal(n, d);
        let inst = Instance::new(s.clone(), s.clone(), s);
        let report = solve_two_phase(&inst, d, DenseEngine::StrassenExec, 0).unwrap();
        assert!(report.captured > 0);
        verify(&inst, &report, 47);
        assert_eq!(report.modeled_rounds, report.rounds() as f64);
    }

    #[test]
    fn strassen_engine_multiwave() {
        // More clusters than fit in one wave: namespace striding across
        // waves must prevent stale-key aliasing.
        let n = 32;
        let d = 8; // 4 clusters, per_wave = n/d = 4 … force 2 waves via d=16 blocks
        let s = gen::block_diagonal(n, d);
        let inst = Instance::new(s.clone(), s.clone(), s);
        let mut pool = crate::triangles::TriangleSet::enumerate(&inst).triangles;
        let report = crate::cluster::extract_clusters(&mut pool, d, 1, 0);
        assert_eq!(report.clusters.len(), 4);
        let (schedule, waves) =
            crate::densemm::process_clusters_strassen(&inst, &report.clusters, 16, 9000).unwrap();
        assert_eq!(waves, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn report_accounting_is_consistent() {
        let n = 32;
        let d = 4;
        let s = gen::block_diagonal(n, d);
        let inst = Instance::new(s.clone(), s.clone(), s);
        let report = solve_two_phase(&inst, d, DenseEngine::Cube3d, 0).unwrap();
        assert_eq!(
            report.rounds(),
            report.dense_rounds + report.phase2_rounds,
            "schedule chaining adds rounds"
        );
        assert_eq!(report.modeled_rounds, report.rounds() as f64);
    }
}
