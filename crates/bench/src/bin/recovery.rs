//! Recovery overhead: what fault-tolerance costs on top of a clean run.
//!
//! ```text
//! cargo run -p lowband-bench --release --bin recovery [-- --json]
//! ```
//!
//! Two questions, one workload (Theorem 5.3 on a scattered US instance):
//!
//! 1. **Checkpoint overhead, no faults** — the resilient driver with a
//!    fault-free spec vs the plain pipeline, across checkpoint cadences.
//!    Snapshots are paid only while a planned fault can still fire, so a
//!    fault-free run takes none at any cadence: this measures what
//!    *being ready* to recover costs when nothing is planned.
//! 2. **Recovery cost under faults** — failure rates × checkpoint cadence:
//!    how many rollbacks, how many replayed rounds, and the wall-clock
//!    price, with every run verified against the sequential reference.
//!
//! With `--json`, additionally writes `results/recovery.json`.

use std::time::Instant;

use lowband_bench::report::{
    budget_section, percentiles_section, BudgetEntry, Json, JsonReport, DEFAULT_TOLERANCE,
};
use lowband_bench::{scattered_workload, TablePrinter};
use lowband_core::budget::entries_for_report;
use lowband_core::{run_algorithm_traced, run_resilient_traced, Algorithm, Instance, RetryPolicy};
use lowband_matrix::Fp;
use lowband_model::trace::MetricsRegistry;
use lowband_model::FaultSpec;

/// Wall-clock median of `iters` runs of `f`, in milliseconds.
fn median_ms<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.unwrap())
}

fn main() {
    let mut artifact = JsonReport::new("recovery");
    let inst = scattered_workload(128, 6, 77);
    let algorithm = Algorithm::BoundedTriangles;
    let seed = 42u64;
    let iters = 3usize;
    // One registry observes every run in this binary (clean and
    // resilient); the budget rows come from the verified clean report —
    // replays never inflate `report.report.rounds`, so Lemma 3.1's
    // envelope applies unchanged.
    let mut metrics = MetricsRegistry::new();
    let mut budget = Vec::new();

    checkpoint_overhead(
        &mut artifact,
        &inst,
        algorithm,
        seed,
        iters,
        &mut metrics,
        &mut budget,
    );
    recovery_cost(
        &mut artifact,
        &inst,
        algorithm,
        seed,
        iters,
        &mut metrics,
        &mut budget,
    );
    artifact.section("percentiles", percentiles_section(&metrics));
    artifact.section("budget", budget_section(&budget, DEFAULT_TOLERANCE));
    artifact.finish();
}

#[allow(clippy::too_many_arguments)]
fn checkpoint_overhead(
    artifact: &mut JsonReport,
    inst: &Instance,
    algorithm: Algorithm,
    seed: u64,
    iters: usize,
    metrics: &mut MetricsRegistry,
    budget: &mut Vec<BudgetEntry>,
) {
    println!("# recovery — checkpoint overhead with zero faults\n");
    let (plain_ms, plain) = median_ms(iters, || {
        run_algorithm_traced::<Fp, _>(inst, algorithm, seed, false, &mut *metrics)
            .expect("clean run")
    });
    assert!(plain.correct, "baseline must verify");
    budget.extend(entries_for_report(
        "recovery plain run",
        inst,
        algorithm,
        &plain,
    ));
    println!(
        "plain pipeline: {} rounds, {:.2} ms median of {iters}\n",
        plain.rounds, plain_ms
    );

    let t = TablePrinter::new(
        &["checkpoint every", "checkpoints", "median ms", "overhead"],
        &[16, 12, 10, 9],
    );
    for cadence in [8usize, 32, 128] {
        let policy = RetryPolicy {
            checkpoint_every: cadence,
            ..RetryPolicy::default()
        };
        let (ms, report) = median_ms(iters, || {
            run_resilient_traced::<Fp, _>(
                inst,
                algorithm,
                seed,
                &FaultSpec::none(1),
                policy,
                &mut *metrics,
            )
            .expect("fault-free resilient run")
        });
        assert!(report.report.correct, "resilient run must verify");
        assert_eq!(report.failures, 0);
        artifact.section(
            "checkpoint_overhead",
            Json::Arr(vec![Json::obj()
                .set("checkpoint_every", cadence)
                .set("checkpoints", report.checkpoints)
                .set("rounds", report.report.rounds)
                .set("plain_ms", plain_ms)
                .set("resilient_ms", ms)]),
        );
        t.row(&[
            cadence.to_string(),
            report.checkpoints.to_string(),
            format!("{ms:.2}"),
            format!("{:.2}×", ms / plain_ms.max(1e-9)),
        ]);
    }
    println!(
        "\nsnapshots are paid only while a planned fault can still fire, so a\n\
         fault-free run takes none at any cadence; when faults do land, denser\n\
         cadences buy shorter replays (next table)."
    );
}

#[allow(clippy::too_many_arguments)]
fn recovery_cost(
    artifact: &mut JsonReport,
    inst: &Instance,
    algorithm: Algorithm,
    seed: u64,
    iters: usize,
    metrics: &mut MetricsRegistry,
    budget: &mut Vec<BudgetEntry>,
) {
    println!("\n# recovery — rollback/replay cost under injected faults\n");
    let t = TablePrinter::new(
        &[
            "fault rate",
            "ckpt every",
            "injected",
            "failures",
            "replayed",
            "median ms",
            "correct",
        ],
        &[10, 10, 9, 9, 9, 10, 8],
    );
    let (mut drops, mut corruptions, mut crashes) = (0usize, 0usize, 0usize);
    for rate in [0.01f64, 0.05, 0.10] {
        for cadence in [8usize, 32] {
            let spec = FaultSpec {
                seed: 0xFA + (rate * 100.0) as u64,
                drop_rate: rate,
                corrupt_rate: rate,
                crash_rate: rate / 2.0,
            };
            let policy = RetryPolicy {
                checkpoint_every: cadence,
                max_attempts: 10_000,
                base_round_budget: 1 << 20,
            };
            let (ms, report) = median_ms(iters, || {
                run_resilient_traced::<Fp, _>(inst, algorithm, seed, &spec, policy, &mut *metrics)
                    .expect("recoverable run")
            });
            assert!(report.report.correct, "recovered run must verify");
            drops += report.stats.fault_drops;
            corruptions += report.stats.fault_corruptions;
            crashes += report.stats.fault_crashes;
            if budget
                .iter()
                .all(|e| !e.label.starts_with("recovery recovered"))
            {
                budget.extend(entries_for_report(
                    &format!("recovery recovered run rate={rate:.2} ckpt={cadence}"),
                    inst,
                    algorithm,
                    &report.report,
                ));
            }
            artifact.section(
                "recovery_cost",
                Json::Arr(vec![Json::obj()
                    .set("fault_rate", rate)
                    .set("checkpoint_every", cadence)
                    .set("injected", report.stats.faults_injected)
                    .set("drops", report.stats.fault_drops)
                    .set("corruptions", report.stats.fault_corruptions)
                    .set("crashes", report.stats.fault_crashes)
                    .set("failures", report.failures)
                    .set("replayed_rounds", report.replayed_rounds)
                    .set("rounds", report.report.rounds)
                    .set("median_ms", ms)]),
            );
            t.row(&[
                format!("{rate:.2}"),
                cadence.to_string(),
                report.stats.faults_injected.to_string(),
                report.failures.to_string(),
                report.replayed_rounds.to_string(),
                format!("{ms:.2}"),
                report.report.correct.to_string(),
            ]);
        }
    }
    // Per-kind injection totals across the whole grid: the chaos harness and
    // regression checks read these instead of re-deriving them from rates.
    artifact.section(
        "fault_kinds",
        Json::obj()
            .set("drops", drops)
            .set("corruptions", corruptions)
            .set("crashes", crashes)
            .set("total", drops + corruptions + crashes),
    );
    println!(
        "\nfault kinds across the grid: {drops} drops, {corruptions} corruptions, \
         {crashes} crashes"
    );
    println!(
        "\nreplayed rounds scale with cadence × failures: the checkpoint interval is\n\
         the replay bound per failure, the classic recovery-overhead trade-off."
    );
}
