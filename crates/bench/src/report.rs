//! Machine-readable run artifacts: the `--json` mode shared by every
//! binary in `src/bin/`.
//!
//! Passing `--json` to a binary keeps its human-readable stdout exactly as
//! before and *additionally* writes `results/<name>.json` — the same rows
//! as structured data (see [`Json`]), so plots and regression checks never
//! re-parse the text tables. The envelope is uniform across binaries:
//!
//! ```json
//! {"name": "table1", "sections": {"<section>": <rows-or-object>, ...}}
//! ```
//!
//! Counters and round totals are emitted as exact integers; derived floats
//! (fits, throughput) as JSON numbers, with `null` for not-measurable
//! (e.g. a run below clock resolution).

use std::path::{Path, PathBuf};

pub use lowband_core::budget::{budget_section, BudgetEntry, DEFAULT_TOLERANCE};
pub use lowband_trace::percentile::{percentiles_section, reservoir_section, Reservoir};
pub use lowband_trace::Json;

/// True when `--json` was passed on the command line.
fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Directory the JSON artifacts are written to (created on demand),
/// overridable with `LOWBAND_RESULTS_DIR` — the text artifacts live in
/// `results/` too, so that is the default.
pub fn results_dir() -> PathBuf {
    std::env::var_os("LOWBAND_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Accumulates one binary's sections and writes the artifact.
pub struct JsonReport {
    name: String,
    sections: Vec<(String, Json)>,
}

impl JsonReport {
    /// Start an artifact named `name` (becomes `results/<name>.json`).
    pub fn new(name: impl Into<String>) -> JsonReport {
        JsonReport {
            name: name.into(),
            sections: Vec::new(),
        }
    }

    /// Add (or extend) a named section. Re-adding a key appends rows when
    /// both values are arrays; otherwise the later value wins.
    pub fn section(&mut self, key: &str, value: Json) {
        if let Some((_, existing)) = self.sections.iter_mut().find(|(k, _)| k == key) {
            if let (Json::Arr(old), Json::Arr(new)) = (&mut *existing, value) {
                old.extend(new);
                return;
            } else {
                // Unreachable in practice; keep a deterministic rule.
                return;
            }
        }
        self.sections.push((key.to_string(), value));
    }

    /// The full `{"name", "sections"}` envelope.
    pub fn to_json(&self) -> Json {
        Json::obj().set("name", self.name.as_str()).set(
            "sections",
            Json::Obj(
                self.sections
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
        )
    }

    /// Write `results/<name>.json` (pretty-printed); returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }

    /// Write the artifact and print where it went; call unconditionally at
    /// the end of a binary — it is a no-op unless `--json` was passed.
    pub fn finish(&self) {
        if !json_mode() {
            return;
        }
        match self.write() {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}.json: {e}", self.name);
                std::process::exit(1);
            }
        }
    }
}

/// Validate one artifact file: well-formed JSON with the uniform envelope
/// (`name` string, `sections` object). Returns the section count.
pub fn validate_artifact(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = lowband_trace::json::parse(&text).map_err(|e| e.to_string())?;
    let name = doc
        .get("name")
        .and_then(|v| v.as_str())
        .ok_or("missing \"name\" string")?;
    if name.is_empty() {
        return Err("empty \"name\"".into());
    }
    let sections = doc
        .get("sections")
        .and_then(|v| v.as_object())
        .ok_or("missing \"sections\" object")?;
    if sections.is_empty() {
        return Err("no sections".into());
    }
    Ok(sections.len())
}

/// Check that an artifact carries every section in `required`, on top of the
/// envelope checks of [`validate_artifact`]. Used by `validate_results` for
/// artifacts whose schema is known, so a bin that silently stops emitting a
/// section fails CI instead of shipping a hollow file.
pub fn validate_required_sections(path: &Path, required: &[&str]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = lowband_trace::json::parse(&text).map_err(|e| e.to_string())?;
    let sections = doc
        .get("sections")
        .and_then(|v| v.as_object())
        .ok_or("missing \"sections\" object")?;
    for key in required {
        if !sections.iter().any(|(k, _)| k == key) {
            return Err(format!("missing required section \"{key}\""));
        }
    }
    Ok(())
}

/// Reject `null`s (a NaN or ∞ serializes as `null` by design, so a `null`
/// inside a measurement section means a poisoned number) and negative
/// numbers anywhere under `value`. `at` names the JSON path for messages.
fn check_clean(value: &Json, at: &str) -> Result<(), String> {
    match value {
        Json::Null => Err(format!("{at}: null (NaN/∞ or missing measurement)")),
        Json::Float(f) if *f < 0.0 => Err(format!("{at}: negative value {f}")),
        Json::Int(i) if *i < 0 => Err(format!("{at}: negative value {i}")),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, v)| check_clean(v, &format!("{at}[{i}]"))),
        Json::Obj(pairs) => pairs
            .iter()
            .try_for_each(|(k, v)| check_clean(v, &format!("{at}.{k}"))),
        _ => Ok(()),
    }
}

/// Deep checks on the two observability sections every artifact must carry
/// (DESIGN.md §13):
///
/// * `percentiles` — a `method` string plus a **non-empty** `histograms`
///   object (log₂-bucket or exact-reservoir summaries);
/// * `budget` — non-empty `entries`, each with `ok: true` (the
///   predicted/observed communication budget holds within tolerance);
/// * neither section contains a `null` (NaN poisoning) or a negative
///   number anywhere.
pub fn validate_observability(doc: &Json) -> Result<(), String> {
    let sections = doc
        .get("sections")
        .and_then(|v| v.as_object())
        .ok_or("missing \"sections\" object")?;
    let lookup = |key: &str| sections.iter().find(|(k, _)| k == key).map(|(_, v)| v);

    let pct = lookup("percentiles").ok_or("missing required section \"percentiles\"")?;
    pct.get("method")
        .and_then(|v| v.as_str())
        .ok_or("percentiles: missing \"method\" string")?;
    let hists = pct
        .get("histograms")
        .and_then(|v| v.as_object())
        .ok_or("percentiles: missing \"histograms\" object")?;
    if hists.is_empty() {
        return Err("percentiles: empty \"histograms\" (nothing was measured)".into());
    }
    check_clean(pct, "percentiles")?;

    let budget = lookup("budget").ok_or("missing required section \"budget\"")?;
    let entries = budget
        .get("entries")
        .and_then(|v| v.as_array())
        .ok_or("budget: missing \"entries\" array")?;
    if entries.is_empty() {
        return Err("budget: empty \"entries\" (no bound was checked)".into());
    }
    for (i, e) in entries.iter().enumerate() {
        let label = e.get("label").and_then(|v| v.as_str()).unwrap_or("?");
        match e.get("ok").and_then(|v| v.as_bool()) {
            Some(true) => {}
            Some(false) => {
                return Err(format!(
                    "budget entry {i} ({label}): bound violated (observed exceeds predicted)"
                ))
            }
            None => return Err(format!("budget entry {i} ({label}): missing \"ok\" bool")),
        }
    }
    check_clean(budget, "budget")
}

/// Format an optional throughput for the text tables: `"n/a"` when the
/// run was below clock resolution.
pub fn format_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) if r >= 1e6 => format!("{:.2} Mev/s", r / 1e6),
        Some(r) if r >= 1e3 => format!("{:.1} kev/s", r / 1e3),
        Some(r) => format!("{r:.0} ev/s"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shape() {
        let mut r = JsonReport::new("t");
        r.section("rows", Json::Arr(vec![Json::UInt(1)]));
        r.section("rows", Json::Arr(vec![Json::UInt(2)]));
        r.section("meta", Json::obj().set("n", 4u64));
        let doc = r.to_json();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("t"));
        let sections = doc.get("sections").unwrap();
        assert_eq!(sections.get("rows").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            sections.get("meta").unwrap().get("n").unwrap().as_u64(),
            Some(4)
        );
    }

    #[test]
    fn validation_round_trip() {
        let dir = std::env::temp_dir().join("lowband-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.json");
        let mut r = JsonReport::new("ok");
        r.section("rows", Json::Arr(vec![Json::UInt(3)]));
        std::fs::write(&path, r.to_json().to_pretty()).unwrap();
        assert_eq!(validate_artifact(&path), Ok(1));

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"name\": \"x\"").unwrap();
        assert!(validate_artifact(&bad).is_err());
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "{\"name\": \"x\", \"sections\": {}}").unwrap();
        assert!(validate_artifact(&empty).is_err());
    }

    fn doc_with(budget_ok: bool, poisoned: bool) -> Json {
        let hist = Json::obj()
            .set("p50", 10u64)
            .set("p95", 20u64)
            .set("count", 5u64);
        let mut entry = Json::obj()
            .set("label", "e")
            .set("predicted", 10.0)
            .set("ok", budget_ok);
        if poisoned {
            entry = entry.set("observed", f64::NAN); // serializes as null
        } else {
            entry = entry.set("observed", 8.0);
        }
        Json::obj().set("name", "t").set(
            "sections",
            Json::obj()
                .set(
                    "percentiles",
                    Json::obj()
                        .set("method", "exact-reservoir")
                        .set("histograms", Json::obj().set("x", hist)),
                )
                .set("budget", Json::obj().set("entries", Json::Arr(vec![entry]))),
        )
    }

    #[test]
    fn observability_validation_accepts_good_rejects_bad() {
        assert_eq!(validate_observability(&doc_with(true, false)), Ok(()));
        // A violated bound names the entry.
        let err = validate_observability(&doc_with(false, false)).unwrap_err();
        assert!(err.contains("bound violated"), "{err}");
        // NaN poisoning (serialized as null) is caught by the deep scan.
        let reparsed = lowband_trace::json::parse(&doc_with(true, true).to_pretty()).unwrap();
        let err = validate_observability(&reparsed).unwrap_err();
        assert!(err.contains("null"), "{err}");
        // Missing sections entirely.
        let bare = Json::obj()
            .set("name", "t")
            .set("sections", Json::obj().set("rows", Json::Arr(vec![])));
        assert!(validate_observability(&bare)
            .unwrap_err()
            .contains("percentiles"));
        // Empty histograms: something claimed to measure but didn't.
        let mut empty = doc_with(true, false);
        if let Json::Obj(ref mut fields) = empty {
            if let Some((_, Json::Obj(sections))) = fields.iter_mut().find(|(k, _)| k == "sections")
            {
                if let Some((_, pct)) = sections.iter_mut().find(|(k, _)| k == "percentiles") {
                    *pct = Json::obj()
                        .set("method", "exact-reservoir")
                        .set("histograms", Json::obj());
                }
            }
        }
        assert!(validate_observability(&empty)
            .unwrap_err()
            .contains("empty"));
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(format_rate(None), "n/a");
        assert_eq!(format_rate(Some(2_500_000.0)), "2.50 Mev/s");
        assert_eq!(format_rate(Some(1_500.0)), "1.5 kev/s");
        assert_eq!(format_rate(Some(42.0)), "42 ev/s");
    }
}
