//! Communication budgets: the paper's bounds in constructive form,
//! computed from **instance parameters only** (never from the compiled
//! schedule), paired with the observed value (schedule round/message
//! totals, or an achieved exponent) into [`BudgetEntry`] rows, and the
//! `budget` section ([`budget_section`]) every results artifact carries.
//! The invariant gated by `validate_results` and the CI jobs:
//!
//! ```text
//! predicted / observed ≥ 1 − tolerance
//! ```
//!
//! i.e. the bound must *hold*, with a small tolerance for the analytic
//! entries where predicted = observed by construction and float noise is
//! the only slack.
//!
//! Each prediction is the shape the paper proves with a constant
//! calibrated once against this repository's constructive compilers —
//! a regression **tripwire**, not a re-proof: if a change to the
//! compiler, router, or compressor inflates round counts past the
//! calibrated envelope, `predicted / observed` drops below 1 and
//! `validate_results` / CI fail. The shapes:
//!
//! * [`Algorithm::Trivial`] — direct fetching pays the maximum in/out
//!   degree of the fetch graph in rounds (the paper's `O(d²)` on
//!   `[US:US:US]`, degrading with per-node load exactly as §3 warns);
//! * [`Algorithm::BoundedTriangles`] — Lemma 3.1's `O(κ + L + log m)`
//!   with `κ = ⌈|𝒯̂|/n⌉`, `L` the per-node element load, `m` the largest
//!   pair multiplicity (Theorems 5.3/5.11);
//! * [`Algorithm::TwoPhase`] — the `O(d² + log n)` general envelope that
//!   Theorem 4.2's two-phase split always stays inside (its point is to
//!   *beat* it, so the envelope upper-bounds both phases);
//! * [`Algorithm::DenseCube`] — the dense `O(n^{4/3})` baseline;
//! * [`Algorithm::StrassenField`] — distributed Strassen at
//!   `λ = 2 − 2/ω(2.807) ≈ 1.288`.
//!
//! Message budgets need no per-algorithm model at all: the capacity
//! invariant (each node sends ≤ c messages per round, enforced by the
//! linter) gives the sound bound `messages ≤ rounds_predicted · n · c`.

use lowband_trace::Json;

use crate::instance::Instance;
use crate::optimizer::{lambda_field, OMEGA_STRASSEN};
use crate::runner::{Algorithm, RunReport};
use crate::triangles::TriangleSet;

/// Default slack for the `predicted / observed ≥ 1 − tolerance` gate.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Ratios are clamped to this when `observed == 0` (the bound holds
/// vacuously; artifacts must stay finite for the NaN/negative gate).
const RATIO_CAP: f64 = 1e12;

/// One predicted-vs-observed pairing.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetEntry {
    /// What was measured, e.g. `"bounded_triangles n=128 d=8"`.
    pub label: String,
    /// The budgeted quantity: `"rounds"`, `"messages"`, `"exponent"`.
    pub quantity: String,
    /// Human-readable form of the bound, e.g. `"12(κ + L + ⌈log₂n⌉) + 16"`.
    pub formula: String,
    /// The bound's value on this instance's parameters.
    pub predicted: f64,
    /// What the schedule (or optimizer) actually achieved.
    pub observed: f64,
}

impl BudgetEntry {
    /// Build an entry.
    pub fn new(
        label: impl Into<String>,
        quantity: impl Into<String>,
        formula: impl Into<String>,
        predicted: f64,
        observed: f64,
    ) -> BudgetEntry {
        BudgetEntry {
            label: label.into(),
            quantity: quantity.into(),
            formula: formula.into(),
            predicted,
            observed,
        }
    }

    /// `predicted / observed`, finite by construction: `observed == 0`
    /// (bound holds vacuously) yields the cap `1e12`.
    pub fn ratio(&self) -> f64 {
        if self.observed > 0.0 {
            (self.predicted / self.observed).min(RATIO_CAP)
        } else {
            RATIO_CAP
        }
    }

    /// Does the bound hold: `ratio ≥ 1 − tolerance`?
    pub fn holds(&self, tolerance: f64) -> bool {
        self.ratio() >= 1.0 - tolerance
    }

    fn to_json(&self, tolerance: f64) -> Json {
        Json::obj()
            .set("label", self.label.as_str())
            .set("quantity", self.quantity.as_str())
            .set("formula", self.formula.as_str())
            .set("predicted", self.predicted)
            .set("observed", self.observed)
            .set("ratio", self.ratio())
            .set("ok", self.holds(tolerance))
    }
}

/// The `budget` section for an artifact:
///
/// ```json
/// {"tolerance": 0.05, "all_hold": true, "entries": [{"label": ..., "ok": true}]}
/// ```
///
/// `validate_results` requires the section on every artifact, requires
/// `entries` non-empty, and fails any entry with `ok == false`.
pub fn budget_section(entries: &[BudgetEntry], tolerance: f64) -> Json {
    let all_hold = entries.iter().all(|e| e.holds(tolerance));
    Json::obj()
        .set("tolerance", tolerance)
        .set("all_hold", all_hold)
        .set(
            "entries",
            Json::Arr(entries.iter().map(|e| e.to_json(tolerance)).collect()),
        )
}

/// A predicted round bound plus its human-readable formula.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Upper bound on schedule rounds for this instance + algorithm.
    pub rounds: f64,
    /// The bound's constructive form, for the artifact.
    pub formula: String,
}

fn log2_ceil(x: usize) -> f64 {
    (x.max(1) as f64).log2().ceil()
}

/// Per-node element load `L`: the largest number of `A`/`B`/`X̂` entries
/// any computer owns, summed over the three matrices (the `L` of
/// Lemma 3.1's `O(κ + L + log m)`).
pub fn element_load(inst: &Instance) -> usize {
    inst.max_a_load() + inst.max_b_load() + inst.max_x_load()
}

/// The predicted round bound for running `algorithm` on `inst`. Triangle
/// enumeration runs once (the same `O(Σ pair products)` the compiler
/// itself pays), so call this at artifact-emission frequency, not in hot
/// loops.
pub fn predicted_rounds(inst: &Instance, algorithm: Algorithm) -> Prediction {
    let n = inst.n;
    let l = element_load(inst) as f64;
    let logn = log2_ceil(n);
    match algorithm {
        Algorithm::Trivial => {
            // Fetch-graph degree bounds: an input owner serves at most
            // (its entries) × (consumers per entry); a consumer fetches
            // at most (its X̂ entries) × (inputs per entry). König pays
            // the max degree in rounds; ×4 covers the two independent
            // route invocations (A then B) plus slack.
            let out_a = (inst.max_a_load() * inst.bhat.max_row_nnz()) as f64;
            let out_b = (inst.max_b_load() * inst.ahat.max_col_nnz()) as f64;
            let in_x =
                (inst.max_x_load() * (inst.ahat.max_row_nnz() + inst.bhat.max_col_nnz())) as f64;
            let degree = out_a.max(out_b).max(in_x);
            Prediction {
                rounds: 4.0 * (degree + 1.0),
                formula: "4(Δfetch + 1) [direct fetch pays max degree]".to_string(),
            }
        }
        Algorithm::BoundedTriangles => {
            let ts = TriangleSet::enumerate(inst);
            let kappa = ts.kappa(n) as f64;
            let logm = log2_ceil(ts.max_pair_count());
            Prediction {
                rounds: 16.0 * (kappa + l + logm + logn) + 16.0,
                formula: "16(κ + L + ⌈log₂m⌉ + ⌈log₂n⌉) + 16 [Lemma 3.1]".to_string(),
            }
        }
        Algorithm::TwoPhase { d, .. } => {
            let d = d as f64;
            Prediction {
                rounds: 16.0 * (d * d + l + logn) + 16.0,
                formula: "16(d² + L + ⌈log₂n⌉) + 16 [general envelope over Thm 4.2]".to_string(),
            }
        }
        Algorithm::DenseCube => Prediction {
            rounds: 12.0 * (n as f64).powf(4.0 / 3.0) + 16.0,
            formula: "12·n^{4/3} + 16 [dense cube baseline]".to_string(),
        },
        Algorithm::StrassenField => {
            let lambda = lambda_field(OMEGA_STRASSEN);
            Prediction {
                rounds: 64.0 * (n as f64).powf(lambda) + 64.0,
                formula: "64·n^{2−2/ω} + 64, ω = 2.807 [distributed Strassen]".to_string(),
            }
        }
    }
}

/// The two budget rows (`rounds`, `messages`) for one observed
/// compile/run of `algorithm` on `inst`. `capacity` is the schedule's
/// per-round send/receive capacity (1 in the low-bandwidth model);
/// the message bound is `rounds_predicted · n · capacity` by the
/// capacity invariant.
pub fn entries_for_observed(
    label: &str,
    inst: &Instance,
    algorithm: Algorithm,
    observed_rounds: usize,
    observed_messages: usize,
    capacity: usize,
) -> Vec<BudgetEntry> {
    let p = predicted_rounds(inst, algorithm);
    let msg_bound = p.rounds * inst.n as f64 * capacity.max(1) as f64;
    vec![
        BudgetEntry::new(
            label,
            "rounds",
            p.formula.clone(),
            p.rounds,
            observed_rounds as f64,
        ),
        BudgetEntry::new(
            label,
            "messages",
            format!(
                "rounds_bound · n · c [capacity invariant over {}]",
                p.formula
            ),
            msg_bound,
            observed_messages as f64,
        ),
    ]
}

/// [`entries_for_observed`] fed from a verified [`RunReport`] (executed
/// rounds/messages, capacity 1 — every `Algorithm` compiler builds
/// low-bandwidth schedules).
pub fn entries_for_report(
    label: &str,
    inst: &Instance,
    algorithm: Algorithm,
    report: &RunReport,
) -> Vec<BudgetEntry> {
    entries_for_observed(label, inst, algorithm, report.rounds, report.messages, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::compile_schedule;
    use lowband_matrix::gen;
    use rand::SeedableRng;

    fn us_instance(n: usize, d: usize, seed: u64) -> Instance {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Instance::new(
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
        )
    }

    #[test]
    fn bounds_hold_for_compiled_schedules() {
        for (n, d) in [(32, 3), (64, 4), (96, 6)] {
            let inst = us_instance(n, d, 100 + n as u64);
            for algorithm in [Algorithm::Trivial, Algorithm::BoundedTriangles] {
                let s = compile_schedule(&inst, algorithm).unwrap();
                let entries = entries_for_observed(
                    "test",
                    &inst,
                    algorithm,
                    s.rounds(),
                    s.messages(),
                    s.capacity(),
                );
                assert_eq!(entries.len(), 2);
                for e in &entries {
                    assert!(
                        e.holds(DEFAULT_TOLERANCE),
                        "{algorithm:?} n={n} d={d} {}: predicted {} < observed {}",
                        e.quantity,
                        e.predicted,
                        e.observed
                    );
                }
            }
        }
    }

    #[test]
    fn fan_out_instance_stays_inside_the_lemma31_budget() {
        // The broadcast-heavy gadget: one B value feeds every consumer.
        let n = 64;
        let ahat = lowband_matrix::Support::from_entries(n, n, (0..n as u32).map(|i| (i, 0)));
        let bhat = lowband_matrix::Support::from_entries(n, n, vec![(0, 0)]);
        let xhat = lowband_matrix::Support::from_entries(n, n, (0..n as u32).map(|i| (i, 0)));
        let inst = Instance::balanced(ahat, bhat, xhat);
        let s = compile_schedule(&inst, Algorithm::BoundedTriangles).unwrap();
        let entries = entries_for_observed(
            "fan-out",
            &inst,
            Algorithm::BoundedTriangles,
            s.rounds(),
            s.messages(),
            1,
        );
        assert!(entries.iter().all(|e| e.holds(DEFAULT_TOLERANCE)));
    }

    #[test]
    fn a_synthetic_round_blowup_trips_the_gate() {
        let inst = us_instance(48, 3, 9);
        let s = compile_schedule(&inst, Algorithm::BoundedTriangles).unwrap();
        let p = predicted_rounds(&inst, Algorithm::BoundedTriangles);
        // Observed rounds past the envelope — the tripwire must fire.
        let blown = (p.rounds as usize) * 2;
        let entries = entries_for_observed(
            "blown",
            &inst,
            Algorithm::BoundedTriangles,
            blown,
            s.messages(),
            1,
        );
        assert!(!entries[0].holds(DEFAULT_TOLERANCE));
    }

    #[test]
    fn ratio_and_gate() {
        let ok = BudgetEntry::new("x", "rounds", "8d²", 100.0, 80.0);
        assert!((ok.ratio() - 1.25).abs() < 1e-12);
        assert!(ok.holds(DEFAULT_TOLERANCE));
        let tight = BudgetEntry::new("y", "exponent", "paper", 1.867, 1.867);
        assert!(tight.holds(DEFAULT_TOLERANCE));
        let broken = BudgetEntry::new("z", "rounds", "8d²", 100.0, 150.0);
        assert!(!broken.holds(DEFAULT_TOLERANCE));
    }

    #[test]
    fn zero_observed_holds_vacuously_and_stays_finite() {
        let e = BudgetEntry::new("empty", "messages", "r·n·c", 64.0, 0.0);
        assert!(e.ratio().is_finite());
        assert!(e.holds(DEFAULT_TOLERANCE));
    }

    #[test]
    fn section_shape() {
        let entries = vec![
            BudgetEntry::new("a", "rounds", "f", 10.0, 5.0),
            BudgetEntry::new("b", "messages", "g", 10.0, 20.0),
        ];
        let s = budget_section(&entries, DEFAULT_TOLERANCE);
        assert_eq!(s.get("all_hold").unwrap(), &Json::Bool(false));
        let arr = s.get("entries").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("ok").unwrap(), &Json::Bool(true));
        assert_eq!(arr[1].get("ok").unwrap(), &Json::Bool(false));
    }
}
