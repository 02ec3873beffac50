//! Communication-budget accounting: the paper's predicted bounds recorded
//! next to what the compiled schedules actually did, as a
//! continuously-checked invariant.
//!
//! The paper's whole contribution is a *budget* — `O(d^{1.867})` rounds
//! here, `O(κ + L + log m)` there — so every results artifact now carries
//! a `budget` section pairing a **predicted** value (the bound's
//! constructive form with calibrated constants, computed from instance
//! parameters only — never from the compiled schedule) with the
//! **observed** value (schedule round/message totals, or an achieved
//! exponent). The invariant gated by `validate_results` and the CI jobs:
//!
//! ```text
//! predicted / observed ≥ 1 − tolerance
//! ```
//!
//! i.e. the bound must *hold* (with a small tolerance for the analytic
//! entries where predicted = observed by construction and float noise is
//! the only slack). The prediction formulas live next to the algorithms
//! in `lowband-core`; this module is the sink-side representation, shared
//! by every artifact emitter.

use crate::json::Json;

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

#[cfg(test)]
mod tests {
    use super::*;

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
