//! # `lowband-bench` — the experiment harness
//!
//! Shared helpers for the binaries in `src/bin/` (the table/figure
//! reproductions, `experiments`, and the `perfgate`, `batch`, `check`,
//! `chaos` and `recovery` gates) and for the repository benchmark
//! (`benchmark/`), which builds its workloads from [`block_workload`],
//! [`mixed_workload`] and [`scattered_workload`]. Every workload here is
//! seeded and deterministic; the binaries print the rows recorded in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

use lowband_core::{Instance, TriangleSet};
use lowband_matrix::{gen, Support};
use rand::SeedableRng;

pub mod report;

/// Least-squares fit of `log y = e·log x + c`; returns `Some((e, exp(c)))`.
///
/// The measured-exponent column of Table 1 and the §1.2 figure come from
/// this fit over a `d` sweep. Degenerate points (`x ≤ 0` or `y ≤ 0`, where
/// the logarithm is undefined) are skipped rather than clamped — clamping
/// `y` to 1 silently flattened small-round measurements and biased the
/// fitted exponent low. Returns `None` when fewer than two usable points
/// remain, or when all usable points share one `x` (slope undefined).
pub fn fit_exponent(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-12 {
        return None;
    }
    let e = (n * sxy - sx * sy) / det;
    let c = (sy - e * sx) / n;
    Some((e, c.exp()))
}

/// The extremal `[US:US:US]` workload: block-diagonal dense `d × d`
/// clusters — `d²` triangles per node (the Lemma 4.3 maximum), all of them
/// clustered. `n = blocks · d`.
pub fn block_workload(blocks: usize, d: usize) -> Instance {
    let n = blocks * d;
    let s = gen::block_diagonal(n, d);
    Instance::new(s.clone(), s.clone(), s)
}

/// A scattered `[US:US:US]` workload: random unions of permutations, few
/// triangles, no extractable clusters.
pub fn scattered_workload(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    )
}

/// A mixed workload: dense blocks plus scattered background, `X̂`
/// average-sparse — the general `[US:US:AS]` setting of Theorem 4.2.
pub fn mixed_workload(blocks: usize, d: usize, seed: u64) -> Instance {
    let n = blocks * d;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let extra = 2.min(d);
    let ahat = gen::block_diagonal(n, d).union(&gen::uniform_sparse(n, extra, &mut rng));
    let bhat = gen::block_diagonal(n, d).union(&gen::uniform_sparse(n, extra, &mut rng));
    let xhat = gen::block_diagonal(n, d).union(&gen::average_sparse(n, extra, &mut rng));
    Instance::new(ahat, bhat, xhat)
}

/// `[US:AS:GM]` workload (Theorem 5.3): uniform × average with everything
/// of interest.
pub fn us_as_gm_workload(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Instance::balanced(
        gen::uniform_sparse(n, d, &mut rng),
        gen::average_sparse(n, d, &mut rng),
        Support::full(n, n),
    )
}

/// `[BD:AS:AS]` workload (Theorem 5.11).
pub fn bd_as_as_workload(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Instance::balanced(
        gen::bounded_degeneracy(n, d, &mut rng),
        gen::average_sparse(n, d, &mut rng),
        gen::average_sparse(n, d, &mut rng),
    )
}

/// Round count of one Lemma 3.1 invocation on an instance (compile only —
/// round counts are a property of the schedule, not of the values).
pub fn lemma31_rounds(inst: &Instance, kappa_override: Option<usize>) -> usize {
    let ts = TriangleSet::enumerate(inst);
    let kappa = kappa_override.unwrap_or_else(|| ts.kappa(inst.n));
    lowband_core::lemma31::process_triangles(inst, &ts.triangles, kappa, 0)
        .expect("schedule compiles")
        .rounds()
}

/// Markdown-ish table printer used by all binaries.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Start a table with the given column headers (widths inferred).
    pub fn new(headers: &[&str], widths: &[usize]) -> TablePrinter {
        assert_eq!(headers.len(), widths.len());
        let cells: Vec<String> = headers
            .iter()
            .zip(widths)
            .map(|(h, &w)| format!("{h:>w$}"))
            .collect();
        println!("| {} |", cells.join(" | "));
        let seps: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        println!("|-{}-|", seps.join("-|-"));
        TablePrinter {
            widths: widths.to_vec(),
        }
    }

    /// Print one row.
    pub fn row(&self, cells: &[String]) {
        let formatted: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", formatted.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_known_exponent() {
        let points: Vec<(f64, f64)> = [2.0f64, 4.0, 8.0, 16.0]
            .iter()
            .map(|&d| (d, 3.0 * d.powf(1.5)))
            .collect();
        let (e, c) = fit_exponent(&points).expect("clean points fit");
        assert!((e - 1.5).abs() < 1e-9, "exponent {e}");
        assert!((c - 3.0).abs() < 1e-6, "constant {c}");
    }

    #[test]
    fn fit_skips_degenerate_points() {
        // A zero-round measurement used to be clamped to y=1 and drag the
        // slope down; now it is skipped and the clean points fit exactly.
        let points = [
            (2.0, 0.0),
            (4.0, 4.0 * 4.0),
            (8.0, 8.0 * 8.0),
            (16.0, 16.0 * 16.0),
        ];
        let (e, c) = fit_exponent(&points).expect("three clean points remain");
        assert!((e - 2.0).abs() < 1e-9, "exponent {e}");
        assert!((c - 1.0).abs() < 1e-6, "constant {c}");
    }

    #[test]
    fn fit_rejects_underdetermined_inputs() {
        assert_eq!(fit_exponent(&[]), None);
        assert_eq!(fit_exponent(&[(2.0, 8.0)]), None);
        // Two points but only one survives the degeneracy filter.
        assert_eq!(fit_exponent(&[(2.0, 8.0), (4.0, 0.0)]), None);
        // All points share one x: the slope is undefined.
        assert_eq!(fit_exponent(&[(2.0, 8.0), (2.0, 16.0)]), None);
    }

    #[test]
    fn workloads_have_expected_shapes() {
        let block = block_workload(4, 8);
        assert_eq!(block.n, 32);
        let ts = TriangleSet::enumerate(&block);
        assert_eq!(ts.len(), 4 * 8 * 8 * 8, "d³ per block");

        let scattered = scattered_workload(64, 4, 1);
        let ts = TriangleSet::enumerate(&scattered);
        assert!(
            ts.len() < 4 * 4 * 64 / 2,
            "scattered pools are triangle-poor"
        );
    }

    #[test]
    fn lemma31_rounds_positive_on_nonempty() {
        let inst = block_workload(4, 4);
        assert!(lemma31_rounds(&inst, None) > 0);
    }
}
