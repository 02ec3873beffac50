//! Validate every machine-readable run artifact under the results
//! directory: each `results/*.json` must parse and carry the
//! `{"name": ..., "sections": {...}}` envelope written by
//! [`lowband_bench::report::JsonReport`].
//!
//! ```text
//! cargo run -p lowband-bench --bin validate_results
//! ```
//!
//! Exits non-zero if any artifact is malformed, or if the directory
//! contains no artifacts at all (so CI fails loudly when generation was
//! skipped). `LOWBAND_RESULTS_DIR` overrides the directory.
//!
//! Beyond the envelope, **every** artifact must carry the two
//! observability sections (DESIGN.md §13): `percentiles` (non-empty
//! histogram summaries) and `budget` (every predicted-vs-observed bound
//! holding), with no `null` (NaN/∞ poisoning) or negative number inside
//! either.

use lowband_bench::report::{
    results_dir, validate_artifact, validate_observability, validate_required_sections,
};

/// Required sections for artifacts with a known schema; files not listed
/// here only get the generic envelope + observability checks.
const KNOWN: &[(&str, &[&str])] = &[
    (
        "recovery",
        &["checkpoint_overhead", "recovery_cost", "fault_kinds"],
    ),
    ("batch", &["amortized", "cache", "packed", "plan_store"]),
    ("baseline", &["probes", "meta"]),
    (
        "chaos",
        &["survival", "rungs", "breaker", "deadline", "fault_kinds"],
    ),
    (
        "serving",
        &[
            "throughput",
            "latency",
            "hit_rate",
            "rungs",
            "rejections",
            "correctness",
        ],
    ),
];

/// Batch-specific deep check: the `cache` section must expose a
/// `hit_rate` in `[0, 1]` (satellite of the schedule-cache stats surface).
fn validate_batch_cache(doc: &lowband_bench::report::Json) -> Result<(), String> {
    let rate = doc
        .get("sections")
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get("hit_rate"))
        .and_then(|v| v.as_f64())
        .ok_or("cache: missing \"hit_rate\" number")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("cache: hit_rate {rate} outside [0, 1]"));
    }
    Ok(())
}

/// Batch-specific deep check for the plan-store triple (DESIGN.md §16):
/// the tiers must be ordered cold ≥ disk ≥ warm, and a disk load
/// (read + checksum + decode + de-link) must cost at most 0.3× the
/// cold compile it replaces — otherwise the persistent tier is not
/// pulling its weight.
fn validate_batch_plan_store(doc: &lowband_bench::report::Json) -> Result<(), String> {
    let section = doc
        .get("sections")
        .and_then(|s| s.get("plan_store"))
        .ok_or("plan_store: missing section")?;
    let num = |field: &str| -> Result<f64, String> {
        section
            .get(field)
            .and_then(|v| v.as_f64())
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or(format!("plan_store: missing or invalid \"{field}\""))
    };
    let (cold, disk, warm) = (num("cold_ns")?, num("disk_ns")?, num("warm_ns")?);
    if !(cold >= disk && disk >= warm) {
        return Err(format!(
            "plan_store: tiers out of order — cold {cold:.0} / disk {disk:.0} / warm {warm:.0}"
        ));
    }
    let ratio = num("disk_over_cold")?;
    if ratio > 0.3 {
        return Err(format!(
            "plan_store: disk_over_cold {ratio:.3} above the 0.3 gate"
        ));
    }
    if num("file_bytes")? <= 0.0 {
        return Err("plan_store: file_bytes must be positive".to_string());
    }
    Ok(())
}

/// Serving-specific deep check (DESIGN.md §15): the daemon must never
/// have answered with a digest that failed client-side verification, and
/// the cache hit-rate must be a clean number in `[0, 1]`.
fn validate_serving(doc: &lowband_bench::report::Json) -> Result<(), String> {
    let sections = doc.get("sections").ok_or("serving: missing sections")?;
    let incorrect = sections
        .get("correctness")
        .and_then(|c| c.get("incorrect"))
        .and_then(|v| v.as_u64())
        .ok_or("serving: missing \"correctness.incorrect\" count")?;
    if incorrect > 0 {
        return Err(format!(
            "serving: {incorrect} response(s) failed digest verification"
        ));
    }
    let rate = sections
        .get("hit_rate")
        .and_then(|c| c.get("hit_rate"))
        .and_then(|v| v.as_f64())
        .ok_or("serving: missing \"hit_rate.hit_rate\" number")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("serving: hit_rate {rate} outside [0, 1]"));
    }
    Ok(())
}

/// Chaos-specific deep check (DESIGN.md §14): every request must have
/// ended in a typed outcome (survival rate exactly 1.0 — zero process
/// aborts) and the served rate must clear the soak gate.
fn validate_chaos(doc: &lowband_bench::report::Json) -> Result<(), String> {
    let survival = doc
        .get("sections")
        .and_then(|s| s.get("survival"))
        .ok_or("chaos: missing \"survival\" section")?;
    let survived = survival
        .get("survived_rate")
        .and_then(|v| v.as_f64())
        .ok_or("chaos: missing \"survived_rate\" number")?;
    if survived < 1.0 {
        return Err(format!(
            "chaos: survived_rate {survived} < 1.0 — a request ended without a typed outcome"
        ));
    }
    let served = survival
        .get("served_rate")
        .and_then(|v| v.as_f64())
        .ok_or("chaos: missing \"served_rate\" number")?;
    if served < 0.9 {
        return Err(format!("chaos: served_rate {served} below the 0.9 gate"));
    }
    Ok(())
}

fn main() {
    let dir = results_dir();
    let mut checked = 0usize;
    let mut failed = 0usize;
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("validate_results: cannot read {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    for path in paths {
        checked += 1;
        let required = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|stem| KNOWN.iter().find(|(name, _)| *name == stem))
            .map_or(&[][..], |(_, sections)| sections);
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("")
            .to_string();
        match validate_artifact(&path).and_then(|n| {
            validate_required_sections(&path, required)?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read failed: {e}"))?;
            let doc = lowband_trace::json::parse(&text).map_err(|e| e.to_string())?;
            validate_observability(&doc)?;
            if stem == "batch" {
                validate_batch_cache(&doc)?;
                validate_batch_plan_store(&doc)?;
            }
            if stem == "chaos" {
                validate_chaos(&doc)?;
            }
            if stem == "serving" {
                validate_serving(&doc)?;
            }
            Ok(n)
        }) {
            Ok(sections) => println!("ok   {} ({sections} sections)", path.display()),
            Err(msg) => {
                failed += 1;
                eprintln!("FAIL {}: {msg}", path.display());
            }
        }
    }
    if checked == 0 {
        eprintln!(
            "validate_results: no *.json artifacts in {} — run a table bin with --json first",
            dir.display()
        );
        std::process::exit(1);
    }
    println!("validated {checked} artifact(s), {failed} failure(s)");
    if failed > 0 {
        std::process::exit(1);
    }
}
