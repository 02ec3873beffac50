//! The perf-regression baseline gate: committed probe values with
//! noise-tolerant bands, compared against fresh median-of-K measurements.
//!
//! `results/baseline.json` carries a `probes` section — a list of
//! [`Probe`]s, each a **smaller-is-better** scalar (a median wall-clock in
//! nanoseconds, or a dimensionless ratio like warm/cold or linked/hash)
//! with a per-probe relative tolerance. `bin/perfgate` re-measures the
//! same probes (median-of-K to shave scheduler noise) and fails CI when
//! any fresh value exceeds `baseline · (1 + tolerance)`.
//!
//! Two probe kinds, two gate widths: **ratio** probes (linked/hash,
//! warm/cold, packed/sequential) are machine-portable, so their bands are
//! tight and they are the primary regression signal; **absolute** probes
//! (raw nanoseconds) drift with the host, so their bands are wide and
//! they only catch catastrophic slowdowns. A synthetic 2× slowdown of the
//! linked executor moves linked/hash by ~2× and trips the ratio gate on
//! any machine.

use crate::json::Json;

/// One committed baseline measurement. Smaller is better.
#[derive(Clone, Debug, PartialEq)]
pub struct Probe {
    /// Stable identifier, e.g. `"linked_over_hash"`.
    pub id: String,
    /// The baseline value (median-of-K at generation time).
    pub value: f64,
    /// Allowed relative regression: fresh passes while
    /// `fresh ≤ value · (1 + tolerance)`.
    pub tolerance: f64,
    /// `"ns"` or `"ratio"` — documentation, not semantics.
    pub unit: String,
}

impl Probe {
    /// Build a probe.
    pub fn new(
        id: impl Into<String>,
        value: f64,
        tolerance: f64,
        unit: impl Into<String>,
    ) -> Probe {
        Probe {
            id: id.into(),
            value,
            tolerance,
            unit: unit.into(),
        }
    }
}

/// The `probes` section payload of `results/baseline.json`.
pub fn probes_to_json(probes: &[Probe]) -> Json {
    Json::Arr(
        probes
            .iter()
            .map(|p| {
                Json::obj()
                    .set("id", p.id.as_str())
                    .set("value", p.value)
                    .set("tolerance", p.tolerance)
                    .set("unit", p.unit.as_str())
            })
            .collect(),
    )
}

/// Parse a `probes` section back. Rejects malformed entries and
/// non-finite or negative numbers outright — a corrupt baseline must not
/// silently pass the gate.
pub fn probes_from_json(json: &Json) -> Result<Vec<Probe>, String> {
    let arr = json.as_array().ok_or("probes: expected an array")?;
    let mut probes = Vec::with_capacity(arr.len());
    for (i, entry) in arr.iter().enumerate() {
        let id = entry
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("probes[{i}]: missing id"))?;
        let value = entry
            .get("value")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("probes[{i}] ({id}): missing value"))?;
        let tolerance = entry
            .get("tolerance")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("probes[{i}] ({id}): missing tolerance"))?;
        let unit = entry
            .get("unit")
            .and_then(|v| v.as_str())
            .unwrap_or("ns")
            .to_string();
        if !value.is_finite() || value < 0.0 || !tolerance.is_finite() || tolerance < 0.0 {
            return Err(format!("probes[{i}] ({id}): non-finite or negative"));
        }
        probes.push(Probe {
            id: id.to_string(),
            value,
            tolerance,
            unit,
        });
    }
    Ok(probes)
}

/// One probe's comparison outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct GateResult {
    /// The probe id.
    pub id: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value; `None` when the run did not produce it
    /// (always a failure — a vanished probe is a broken gate).
    pub fresh: Option<f64>,
    /// `fresh / baseline` when both are available and baseline > 0.
    pub ratio: Option<f64>,
    /// The pass threshold `baseline · (1 + tolerance)`.
    pub allowed: f64,
    /// Did this probe pass?
    pub pass: bool,
}

/// Gate `fresh` measurements against `baseline` probes. Every baseline
/// probe must be present and within band; fresh-only measurements are
/// reported as passing "new" probes (they gate nothing yet — committing
/// an updated baseline adopts them).
pub fn gate(baseline: &[Probe], fresh: &[(String, f64)]) -> Vec<GateResult> {
    let mut results = Vec::with_capacity(baseline.len());
    for probe in baseline {
        let measured = fresh
            .iter()
            .find(|(id, _)| *id == probe.id)
            .map(|&(_, v)| v);
        let allowed = probe.value * (1.0 + probe.tolerance);
        let (ratio, pass) = match measured {
            Some(v) if v.is_finite() => {
                ((probe.value > 0.0).then(|| v / probe.value), v <= allowed)
            }
            _ => (None, false),
        };
        results.push(GateResult {
            id: probe.id.clone(),
            baseline: probe.value,
            fresh: measured,
            ratio,
            allowed,
            pass,
        });
    }
    for (id, v) in fresh {
        if !baseline.iter().any(|p| p.id == *id) {
            results.push(GateResult {
                id: id.clone(),
                baseline: 0.0,
                fresh: Some(*v),
                ratio: None,
                allowed: 0.0,
                pass: true,
            });
        }
    }
    results
}

/// `true` when every gated probe passed.
pub fn all_pass(results: &[GateResult]) -> bool {
    results.iter().all(|r| r.pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_round_trip_through_json() {
        let probes = vec![
            Probe::new("linked_over_hash", 0.15, 0.5, "ratio"),
            Probe::new("linked_run_ns", 1.2e6, 3.0, "ns"),
        ];
        let back = probes_from_json(&probes_to_json(&probes)).unwrap();
        assert_eq!(back, probes);
    }

    #[test]
    fn corrupt_probes_are_rejected() {
        let bad = Json::Arr(vec![Json::obj().set("id", "x").set("value", -1.0)]);
        assert!(probes_from_json(&bad).is_err());
        let nan = crate::json::parse(r#"[{"id":"x","value":null,"tolerance":0.5}]"#).unwrap();
        assert!(probes_from_json(&nan).is_err());
    }

    #[test]
    fn gate_passes_within_band_fails_outside() {
        let baseline = vec![Probe::new("r", 0.10, 0.5, "ratio")];
        let ok = gate(&baseline, &[("r".to_string(), 0.14)]);
        assert!(all_pass(&ok));
        // A 2× regression: 0.20 > 0.10 · 1.5 — the synthetic-slowdown case.
        let bad = gate(&baseline, &[("r".to_string(), 0.20)]);
        assert!(!all_pass(&bad));
        assert!(bad[0].ratio.unwrap() > 1.9);
    }

    #[test]
    fn missing_probe_fails_new_probe_passes() {
        let baseline = vec![Probe::new("gone", 1.0, 1.0, "ns")];
        let res = gate(&baseline, &[("brand_new".to_string(), 5.0)]);
        assert!(!all_pass(&res));
        assert!(res
            .iter()
            .find(|r| r.id == "gone")
            .map(|r| !r.pass)
            .unwrap());
        assert!(res.iter().find(|r| r.id == "brand_new").unwrap().pass);
    }
}
