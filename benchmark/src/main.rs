//! `lowband-benchmark` — the repository benchmark (see `README.md`).
//!
//! ```text
//! lowband-benchmark --workload W --seed N --seconds T --trace 0|1 [--out DIR]
//! lowband-benchmark run   --seed N [--seconds T] [--out DIR]
//! lowband-benchmark trace --seed N [--seconds T] [--out DIR]
//! lowband-benchmark compare DIR_A DIR_B
//! ```
//!
//! The first form runs one workload in this process. It prints one
//! `workload metric value unit` line per metric and, last, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! `run` and `trace` run every workload that way in a child process of
//! its own, so peak memory is per workload, and write
//! `DIR/{run,trace}-seed<N>.json`. `compare` checks two directories of
//! `run` results against the bounds in `BENCHMARK.json`. The exit status
//! is non-zero on any wrong answer or failed check.

mod catalog;
mod compare;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use lowband_trace::{json, Json};

use catalog::Workload;
use stats::Outcome;
use workloads::{Params, SETUPS};

const USAGE: &str = "usage:
  lowband-benchmark --workload W --seed N --seconds T --trace 0|1 [--out DIR]
  lowband-benchmark run   --seed N [--seconds T] [--out DIR]
  lowband-benchmark trace --seed N [--seconds T] [--out DIR]
  lowband-benchmark compare DIR_A DIR_B
workloads: serve-hot serve-churn store-restart batch-n1024";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => every_workload(&args[1..], false),
        Some("trace") => every_workload(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        _ => one_workload(&args),
    };
    std::process::exit(code);
}

/// The value following `--name`, if any.
fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `--out`, or `out/` beside this crate's manifest.
fn out_dir(args: &[String]) -> PathBuf {
    option(args, "--out").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

fn usage_error(what: &str) -> i32 {
    eprintln!("error: {what}\n{USAGE}");
    2
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter.
const M_ARENA_MAX: i32 = -8;

/// Make every thread allocate from one malloc arena. With an arena per
/// thread, memory a finished daemon freed stays resident in whichever
/// arenas its threads used, so the same store-restart run peaked at 80
/// or at 95 MiB; with one arena it peaks at 50.5 ± 0.2 MiB. Pinned to one
/// core, the threads gain nothing from separate arenas.
fn one_malloc_arena() -> bool {
    // SAFETY: `mallopt` takes two integers and touches no caller memory;
    // it runs before this process starts a second thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Confine this thread, and every thread it starts later, to the first
/// core it may run on; returns that core, or `None` if the kernel refused.
///
/// On a shared two-core virtual machine, a hand-off between threads on
/// different cores waits for the host to wake the other core, and that
/// wait drifts with the host's load: unpinned, serving throughput moved
/// by ±20% over minutes; on one core, two sets of ten runs agreed on
/// every serving metric's median within 11%.
fn pin_to_one_core() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // it outlives the call.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let core = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and it
    // outlives the call.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    pinned.then_some(core)
}

/// Run one workload in this process and report it.
fn one_workload(args: &[String]) -> i32 {
    let Some(workload) = option(args, "--workload").and_then(Workload::parse) else {
        return usage_error("--workload names no workload");
    };
    let Some(seed) = option(args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage_error("--seed needs a whole number");
    };
    let Some(seconds) = option(args, "--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage_error("--seconds needs a positive number");
    };
    let traced = match option(args, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return usage_error("--trace needs 0 or 1"),
    };
    let scratch = out_dir(args).join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: {}: {e}", scratch.display());
        return 1;
    }
    // Every daemon stop writes a post-mortem dump under
    // `$LOWBAND_RESULTS_DIR/postmortem`; keep those in the scratch
    // directory, never in the repository's `results/`. No other thread
    // runs yet, so setting the variable races with nothing.
    std::env::set_var("LOWBAND_RESULTS_DIR", scratch.join("results"));
    match pin_to_one_core() {
        Some(core) => eprintln!("# {}: running on core {core}", workload.name()),
        None => eprintln!(
            "# {}: could not pin to one core; running unpinned",
            workload.name()
        ),
    }
    if !one_malloc_arena() {
        eprintln!("# {}: could not limit malloc to one arena", workload.name());
    }
    let params = Params {
        workload,
        seed,
        seconds,
        scratch: scratch.clone(),
    };
    let outcome = if traced {
        trace::run(&params)
    } else {
        workloads::run(&params, SETUPS)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    report(workload, &outcome)
}

/// Print every metric as a line, then the result object; returns the
/// exit status.
fn report(workload: Workload, outcome: &Outcome) -> i32 {
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("error: {}: {e}", workload.name());
    }
    if outcome.incorrect > 0 {
        eprintln!(
            "error: {}: {} wrong answer(s)",
            workload.name(),
            outcome.incorrect
        );
    }
    let metrics = outcome.metrics.iter().fold(Json::obj(), |obj, m| {
        obj.set(
            m.name,
            Json::obj().set("value", m.value).set("unit", m.unit),
        )
    });
    let result = Json::obj()
        .set("correct", outcome.incorrect == 0)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", result.to_compact());
    i32::from(outcome.incorrect > 0 || !outcome.errors.is_empty())
}

/// `run` / `trace`: every workload in a child process of its own, then
/// one JSON file with all of their metrics.
fn every_workload(args: &[String], traced: bool) -> i32 {
    let Some(seed) = option(args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage_error("--seed needs a whole number");
    };
    let seconds = match option(args, "--seconds") {
        Some(s) => s.to_string(),
        None => {
            match compare::load_spec().map(|spec| spec.get("run_seconds").and_then(Json::as_u64)) {
                Ok(Some(s)) => s.to_string(),
                _ => return usage_error("no --seconds and no run_seconds in BENCHMARK.json"),
            }
        }
    };
    let out = out_dir(args);
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let mut all_ok = true;
    let mut results = Json::obj();
    for workload in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds,
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&out)
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(output) => output,
            Err(e) => {
                eprintln!("error: could not start {}: {e}", exe.display());
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().and_then(|l| json::parse(l).ok());
        let mut metrics = Json::obj();
        for line in &lines {
            println!("{line}");
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let [w, name, value, _unit] = fields[..] {
                if let (true, Ok(value)) = (w == workload.name(), value.parse::<f64>()) {
                    metrics = metrics.set(name, value);
                }
            }
        }
        let Some(last) = last.filter(|_| output.status.success()) else {
            eprintln!("error: {} failed ({})", workload.name(), output.status);
            all_ok = false;
            continue;
        };
        let field = |key: &str| last.get(key).cloned().unwrap_or(Json::Null);
        results = results.set(
            workload.name(),
            Json::obj()
                .set("correct", field("correct"))
                .set("attempted", field("attempted"))
                .set("failed", field("failed"))
                .set("metrics", metrics),
        );
    }
    let doc = Json::obj()
        .set("seed", seed)
        .set("seconds", seconds.as_str())
        .set("trace", traced)
        .set("workloads", results);
    let path = out.join(format!(
        "{}-seed{seed}.json",
        if traced { "trace" } else { "run" }
    ));
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, doc.to_pretty()))
    {
        eprintln!("error: {}: {e}", path.display());
        return 1;
    }
    println!("# wrote {}", path.display());
    i32::from(!all_ok)
}
