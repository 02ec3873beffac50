//! `compare A B`: two sets of `run` results checked against the bounds in
//! `BENCHMARK.json`.
//!
//! For every (workload, end-to-end metric) it prints each side's median
//! and quartiles, the verdict of the no-regression rule, and the pairwise
//! win rate of B over A across runs made with the same seed.

use std::path::{Path, PathBuf};

use lowband_trace::{json, Json};

use crate::stats::{quartiles, spread};

/// `BENCHMARK.json`, at the root of the repository.
fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json")
}

/// Parse `BENCHMARK.json`.
pub fn load_spec() -> Result<Json, String> {
    let path = spec_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What `compare` concludes about one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Pass,
    /// B is worse than A by more than the bound.
    Fail,
    /// The runs spread wider than the bound: no conclusion.
    Unresolved,
}

/// Whether reading `x` is better than reading `y`.
fn better(x: f64, y: f64, lower_is_better: bool) -> bool {
    if lower_is_better {
        x < y
    } else {
        x > y
    }
}

/// The no-regression rule: B's median may be worse than A's by at most
/// `bound` of A's median. When either side's spread (interquartile
/// distance over median) exceeds the bound, the metric is unresolved —
/// unless every B run reads better than every A run.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if b.iter()
        .all(|&y| a.iter().all(|&x| better(y, x, lower_is_better)))
    {
        return Verdict::Pass;
    }
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    if worse > bound * ma.abs() {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

/// Pairwise comparison over (A, B) runs with the same seed: B's wins
/// (ties count for neither side), and whether they support claiming a
/// gain — at least 10 pairs, B winning at least 9 in 10 of them, and the
/// medians further apart than A's interquartile distance.
pub fn gain(pairs: &[(f64, f64)], lower_is_better: bool) -> (usize, bool) {
    let wins = pairs
        .iter()
        .filter(|&&(a, b)| better(b, a, lower_is_better))
        .count();
    if pairs.len() < 10 {
        return (wins, false);
    }
    let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let [q1, ma, q3] = quartiles(&a);
    let mb = quartiles(&b)[1];
    let claim = wins * 10 >= pairs.len() * 9
        && better(mb, ma, lower_is_better)
        && (mb - ma).abs() > q3 - q1;
    (wins, claim)
}

/// The `run-seed*.json` files of `dir`, as (seed, document), by seed.
fn load_runs(dir: &Path) -> Result<Vec<(u64, Json)>, String> {
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in listing {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("run-seed") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: no seed", path.display()))?;
        runs.push((seed, doc));
    }
    if runs.is_empty() {
        return Err(format!("{}: no run-seed*.json files", dir.display()));
    }
    runs.sort_by_key(|&(seed, _)| seed);
    Ok(runs)
}

fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .as_f64()
}

fn names(spec: &Json, key: &str) -> Vec<Json> {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .to_vec()
}

/// Print the comparison; `Ok(false)` when any metric fails its bound or
/// is missing.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load_spec()?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    println!(
        "# compare A = {} ({} runs) with B = {} ({} runs); bounds from BENCHMARK.json",
        a.display(),
        runs_a.len(),
        b.display(),
        runs_b.len()
    );
    println!(
        "# {:<13} {:<16} {:>34} {:>34} {:>8} {:>8}  {:<10} B wins",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "change",
        "bound",
        "verdict"
    );
    let mut ok = true;
    for workload in names(&spec, "workloads") {
        let w = workload.get("name").and_then(Json::as_str).unwrap_or("?");
        for m in names(&spec, "end_to_end") {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let va: Vec<f64> = runs_a
                .iter()
                .filter_map(|(_, d)| value(d, w, name))
                .collect();
            let vb: Vec<f64> = runs_b
                .iter()
                .filter_map(|(_, d)| value(d, w, name))
                .collect();
            if va.is_empty() || vb.is_empty() {
                println!("  {w:<13} {name:<16} missing from one side");
                ok = false;
                continue;
            }
            let pairs: Vec<(f64, f64)> = runs_a
                .iter()
                .filter_map(|(seed, da)| {
                    let (_, db) = runs_b.iter().find(|(s, _)| s == seed)?;
                    Some((value(da, w, name)?, value(db, w, name)?))
                })
                .collect();
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let v = verdict(&va, &vb, lower, bound);
            let (wins, claim) = gain(&pairs, lower);
            let side = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            println!(
                "  {w:<13} {name:<16} {:>34} {:>34} {:>+7.2}% {bound:>8} {:<10} {wins}/{}{}",
                side(qa),
                side(qb),
                100.0 * (qb[1] - qa[1]) / qa[1],
                format!("{v:?}").to_lowercase(),
                pairs.len(),
                if claim { " gain" } else { "" }
            );
            ok &= v != Verdict::Fail;
        }
    }
    Ok(ok)
}

/// `compare A B`: exit status 0 when nothing fails its bound, 1 when
/// something does, 2 on bad input.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: lowband-benchmark compare <dir A> <dir B>");
        return 2;
    };
    match compare(Path::new(a), Path::new(b)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.10;

    #[test]
    fn a_small_regression_passes_and_a_large_one_fails() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(verdict(&a, &slower, true, BOUND), Verdict::Pass);
        let much_slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(verdict(&a, &much_slower, true, BOUND), Verdict::Fail);
        // Direction matters: the same drop is a regression of a rate.
        assert_eq!(verdict(&much_slower, &a, false, BOUND), Verdict::Fail);
        assert_eq!(verdict(&much_slower, &a, true, BOUND), Verdict::Pass);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_b_wins_every_run() {
        let a = [100.0, 130.0, 80.0, 110.0, 95.0];
        let b = [101.0, 99.0, 100.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &b, true, BOUND), Verdict::Unresolved);
        let all_better = [70.0, 71.0, 72.0, 73.0, 74.0];
        assert_eq!(verdict(&a, &all_better, true, BOUND), Verdict::Pass);
    }

    #[test]
    fn exact_counts_fail_on_any_change() {
        let a = [98_954.0; 5];
        assert_eq!(verdict(&a, &a, true, 1e-6), Verdict::Pass);
        let one_more = [98_955.0; 5];
        assert_eq!(verdict(&a, &one_more, true, 1e-6), Verdict::Fail);
    }

    #[test]
    fn gain_needs_ten_pairs_nine_wins_and_separated_medians() {
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, 80.0 + i as f64))
            .collect();
        assert_eq!(gain(&pairs, true), (10, true));
        assert_eq!(gain(&pairs[..9], true), (9, false), "fewer than ten pairs");
        let mut eight = pairs.clone();
        eight[0].1 = 200.0;
        eight[1].1 = 200.0;
        assert_eq!(gain(&eight, true), (8, false), "8/10 is below 9/10");
        // Nine wins by a hair: medians inside A's interquartile distance.
        let close: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + 4.0 * i as f64, 99.9 + 4.0 * i as f64))
            .collect();
        assert_eq!(gain(&close, true), (10, false));
    }
}
