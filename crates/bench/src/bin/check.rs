//! `check` — lint every pipeline schedule, then fuzz the executors.
//!
//! ```text
//! cargo run -p lowband-bench --release --bin check [-- OPTIONS]
//!
//! --seeds N      differential fuzz seeds to run (default 64)
//! --start N      first fuzz seed (default 0)
//! --lint-only    skip the fuzzer
//! --fuzz-only    skip the pipeline lint
//! ```
//!
//! **Lint mode** recompiles the schedules behind the table 1–4 / figure 1 /
//! experiments / recovery pipelines (every algorithm family: trivial,
//! bounded-triangles, two-phase, dense cube, Strassen, plus the
//! capacity-`c` routed schedules of the model-comparison experiment) and
//! runs the `lowband-check` static linter over each schedule, its
//! compressed form, and the linked forms of both. The preloaded-key
//! predicate is derived from the instance placement — exactly what
//! `Instance::load_values` provides at run time.
//!
//! **Fuzz mode** runs the seeded cross-executor differential battery
//! ([`lowband_check::fuzz_range`]): every seed's schedule (and its
//! compressed form) must produce bit-identical stores and stats on both
//! executors, including windowed linked runs that restore every window's
//! checkpoint onto a fresh machine.
//!
//! Exit status is non-zero if any lint *error* (warnings pass) or any
//! fuzz failure is found.

use lowband_bench::{
    bd_as_as_workload, block_workload, mixed_workload, scattered_workload, us_as_gm_workload,
};
use lowband_check::{fuzz_range, lint_linked, lint_schedule, LintOptions};
use lowband_core::densemm::DenseEngine;
use lowband_core::{compile_schedule, Algorithm, Instance, TriangleSet};
use lowband_model::key::KeyKind;
use lowband_model::{compress, link, Key, NodeId, Schedule};

/// The preloaded-key predicate of a compiled pipeline: exactly the `A`
/// and `B` entries `Instance::load_values` places, at the nodes the
/// placement assigns them to.
fn instance_preloaded(inst: &Instance) -> impl Fn(NodeId, Key) -> bool + '_ {
    move |node, key| {
        let (i, j) = (key.fst(), key.snd());
        if i >= inst.n as u64 || j >= inst.n as u64 {
            return false;
        }
        let (i, j) = (i as u32, j as u32);
        match key.kind() {
            KeyKind::A => inst.ahat.contains(i, j) && inst.placement.a.owner(i, j) == node,
            KeyKind::B => inst.bhat.contains(i, j) && inst.placement.b.owner(i, j) == node,
            _ => false,
        }
    }
}

/// Lint one schedule in all four forms (plain, compressed, and both
/// linked). Prints one status line and returns the number of lint
/// errors (warnings are reported but don't fail).
fn lint_artifact(name: &str, schedule: &Schedule, inst: &Instance) -> usize {
    let preloaded = instance_preloaded(inst);
    let opts = LintOptions::with_preloaded(&preloaded);
    let mut errors = 0;
    let mut warnings = 0;

    let compressed = compress(schedule);
    for (form, s) in [("plain", schedule), ("compressed", &compressed)] {
        let mut report = lint_schedule(s, &opts);
        report.merge(lint_linked(s, &link(s)));
        for v in report.errors() {
            println!("  FAIL {name} [{form}]: {v}");
        }
        for v in report.warnings() {
            println!("  warn {name} [{form}]: {v}");
        }
        errors += report.errors().count();
        warnings += report.warnings().count();
    }
    let status = if errors > 0 { "FAIL" } else { "ok" };
    println!(
        "{status:>4}  {name}: {} rounds, {} messages, capacity {}, {errors} errors, {warnings} warnings",
        schedule.rounds(),
        schedule.messages(),
        schedule.capacity(),
    );
    errors
}

fn full_instance(n: usize) -> Instance {
    let full = lowband_matrix::Support::full(n, n);
    Instance::balanced(full.clone(), full.clone(), full)
}

/// The routed schedules of the experiments model-comparison sweep
/// (`route_with_capacity` at capacity 1, `log n`, `n`) — the pipeline's
/// only capacity-`c > 1` schedules.
fn routed_schedules(inst: &Instance) -> Vec<(String, Schedule)> {
    let n = inst.n;
    let ts = TriangleSet::enumerate(inst);
    let mut messages = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for tri in &ts.triangles {
        let consumer = inst.placement.x.owner(tri.i, tri.k);
        let src = inst.placement.b.owner(tri.j, tri.k);
        if src != consumer && seen.insert((tri.j, tri.k, consumer)) {
            messages.push(lowband_routing::router::msg(
                src,
                Key::b(tri.j as u64, tri.k as u64),
                consumer,
                Key::b(tri.j as u64, tri.k as u64),
            ));
        }
    }
    let log_n = (n as f64).log2().ceil() as usize;
    [1usize, log_n, n]
        .into_iter()
        .map(|cap| {
            let s = lowband_routing::route_with_capacity(n, cap, &messages)
                .expect("routable message set");
            (format!("experiments: routed capacity {cap}"), s)
        })
        .collect()
}

fn lint_pipelines() -> usize {
    println!("## Pipeline schedule lint\n");
    let cases: Vec<(&str, Instance, Algorithm)> = vec![
        (
            "table1: Lemma 3.1 on block(4,8)",
            block_workload(4, 8),
            Algorithm::BoundedTriangles,
        ),
        (
            "table1: dense cube n=16",
            full_instance(16),
            Algorithm::DenseCube,
        ),
        (
            "table1: strassen n=16",
            full_instance(16),
            Algorithm::StrassenField,
        ),
        (
            "table2: two-phase mixed(8,d=8)",
            mixed_workload(8, 8, 7),
            Algorithm::TwoPhase {
                d: 10,
                engine: DenseEngine::Cube3d,
            },
        ),
        (
            "table2: bounded [US:AS:GM] n=64",
            us_as_gm_workload(64, 3, 8),
            Algorithm::BoundedTriangles,
        ),
        (
            "table2: bounded [BD:AS:AS] n=64",
            bd_as_as_workload(64, 3, 10),
            Algorithm::BoundedTriangles,
        ),
        (
            "experiments: trivial scattered(128,8)",
            scattered_workload(128, 8, 60),
            Algorithm::Trivial,
        ),
        (
            "experiments: bounded scattered(128,8)",
            scattered_workload(128, 8, 60),
            Algorithm::BoundedTriangles,
        ),
        (
            "figure1/recovery: bounded scattered(128,6)",
            scattered_workload(128, 6, 77),
            Algorithm::BoundedTriangles,
        ),
    ];

    let mut errors = 0;
    for (name, inst, algorithm) in &cases {
        match compile_schedule(inst, *algorithm) {
            Ok(schedule) => errors += lint_artifact(name, &schedule, inst),
            Err(e) => {
                println!("FAIL  {name}: compilation failed: {e}");
                errors += 1;
            }
        }
    }

    let routed_inst = scattered_workload(64, 8, 50);
    for (name, schedule) in routed_schedules(&routed_inst) {
        errors += lint_artifact(&name, &schedule, &routed_inst);
    }
    errors
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 64u64;
    let mut start = 0u64;
    let mut do_lint = true;
    let mut do_fuzz = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seeds takes a number");
            }
            "--start" => {
                start = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--start takes a number");
            }
            "--lint-only" => do_fuzz = false,
            "--fuzz-only" => do_lint = false,
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }

    println!("# lowband-check\n");
    let mut failed = false;

    if do_lint {
        let errors = lint_pipelines();
        if errors > 0 {
            println!("\npipeline lint: {errors} errors");
            failed = true;
        } else {
            println!("\npipeline lint: clean");
        }
    }

    if do_fuzz {
        println!("\n## Differential fuzz ({seeds} seeds from {start})\n");
        let report = fuzz_range(start, seeds);
        for f in &report.failures {
            println!("{f}\n");
        }
        if report.is_clean() {
            println!("fuzz: {} seeds clean", report.seeds);
        } else {
            println!(
                "fuzz: {} failures in {} seeds",
                report.failures.len(),
                report.seeds
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}
