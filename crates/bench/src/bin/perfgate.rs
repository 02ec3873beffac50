//! The perf-regression baseline gate.
//!
//! ```text
//! cargo run -p lowband-bench --release --bin perfgate              # gate
//! cargo run -p lowband-bench --release --bin perfgate -- --update  # re-baseline
//! ```
//!
//! Re-measures a fixed set of **smaller-is-better** probes (median-of-K,
//! default K = 3) and compares them against the committed
//! `results/baseline.json`; any probe past `baseline · (1 + tolerance)`
//! fails the process with exit code 1. The probe set mirrors the repo's
//! performance tentpoles:
//!
//! * **executor** — schedule compile, hash-executor and linked-executor
//!   wall clock on a block workload, plus the `linked_over_hash` ratio
//!   (the linked slot-store must stay decisively faster than hashing; it
//!   is also the canary for the `NoopTracer` zero-cost claim, since the
//!   executors run fully traced-out);
//! * **admission gate** — `decode_over_compile` and `lint_over_compile`,
//!   over a compile of the same plan: `decode_plan` of the encoded plan
//!   file (envelope, checksums, linked decode and de-link — a disk hit's
//!   whole gate apart from the key check) and the `lint_linked` pass a
//!   fresh compile takes before insertion (both must stay a small
//!   fraction of the compile);
//! * **compile internals** — `extract_over_compile`: one cluster-extraction
//!   pass on the batch-n1024 benchmark structure (n = 1024, two-phase
//!   d = 16) over that structure's whole compile (the extraction indexes
//!   the pool once per call; per-cluster whole-pool rebuilds put the ratio
//!   near 0.9); and `compress_link_over_compile`: the fused
//!   compress-and-link pass (`lowband_model::compress_and_link_traced`) on that
//!   structure's compiled schedule, cloned before the timer starts, over
//!   the same compile (about 0.95–1.3 when compression runs on the slot ids
//!   linking interned; compressing by key and then linking again puts it
//!   near 2.5–3);
//! * **serving** — `warm_over_cold`: amortized per-run cost of a cached
//!   batch vs per-run recompilation;
//! * **supervision** — `supervised_over_batch`: one fault-free, warm
//!   `Supervisor::run_supervised` request entering at the linked rung, as
//!   the daemon does, over the per-member cost of the warm batch above
//!   (about 1.3 when fault-free requests take no checkpoint; snapshots
//!   after load and every 32 rounds put it at 4.5–5);
//! * **packing** — `packed_over_sequential`: per-member cost of the lane
//!   plane executor vs the sequential warm path.
//!
//! Ratio probes are machine-portable and carry tight bands — they are the
//! real regression signal. Absolute nanosecond probes drift with the host,
//! so their bands are wide and only catch catastrophic slowdowns.
//!
//! `--update` rewrites `results/baseline.json` (full artifact envelope:
//! `probes`, `meta`, `percentiles`, `budget` sections — the baseline is
//! validated like every other results artifact). `--baseline <path>`
//! overrides the baseline location; `--k <N>` the median width.
//! `LOWBAND_PERFGATE_SLOWDOWN=<f64>` multiplies the linked-executor
//! timings — the self-test hook CI uses to prove a synthetic 2× slowdown
//! actually trips the gate.

use std::path::PathBuf;
use std::time::Instant;

use lowband_bench::report::{
    budget_section, reservoir_section, results_dir, Json, Reservoir, DEFAULT_TOLERANCE,
};
use lowband_bench::{block_workload, mixed_workload, TablePrinter};
use lowband_check::lint_linked;
use lowband_core::budget::entries_for_observed;
use lowband_core::cluster::extract_clusters;
use lowband_core::densemm::DenseEngine;
use lowband_core::{
    compile_plan, compile_schedule, run_algorithm, Algorithm, BatchMode, Rung, TriangleSet,
};
use lowband_matrix::{Fp, SparseMatrix, Wrap64};
use lowband_model::{compress_and_link_traced, FaultSpec, NoopTracer};
use lowband_serve::{
    decode_plan, encode_plan, run_batch, ScheduleCache, Supervisor, SupervisorConfig,
};
use lowband_trace::baseline::{all_pass, gate, probes_from_json, probes_to_json, Probe};
use rand::SeedableRng;

/// Per-probe relative tolerance for the absolute (nanosecond) probes.
const ABS_TOLERANCE: f64 = 1.5;
/// Per-probe relative tolerance for the dimensionless ratio probes.
const RATIO_TOLERANCE: f64 = 0.5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median-of-`k` wall clock of `f`, in nanoseconds, with every sample
/// also pushed into `samples` for the baseline's `percentiles` section.
fn median_ns<R>(k: usize, samples: &mut Reservoir, mut f: impl FnMut() -> R) -> f64 {
    median_ns_from(k, samples, || (), |()| f())
}

/// [`median_ns`] of `f(setup())`, where only `f` is timed — for passes
/// that consume their input.
fn median_ns_from<S, R>(
    k: usize,
    samples: &mut Reservoir,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> f64 {
    let mut times = Vec::with_capacity(k);
    for _ in 0..k {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(f(input));
        let ns = t0.elapsed().as_nanos() as f64;
        samples.record(ns as u64);
        times.push(ns);
    }
    median(times)
}

struct Measurements {
    /// `(probe id, value)` pairs in a fixed order.
    fresh: Vec<(String, f64)>,
    /// Raw per-iteration samples per absolute probe.
    reservoirs: Vec<(String, Reservoir)>,
    /// The executor workload's schedule vs the Lemma 3.1 budget.
    budget: Json,
}

fn measure(k: usize) -> Measurements {
    let slowdown: f64 = std::env::var("LOWBAND_PERFGATE_SLOWDOWN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);

    let mut fresh = Vec::new();
    let mut reservoirs = Vec::new();
    let mut probe = |id: &str, value: f64| fresh.push((id.to_string(), value));

    // ---- executor probes: compile / hash / linked -------------------------
    let inst = block_workload(64, 16); // n = 1024, dense 16×16 clusters
    let mut res = Reservoir::new(k);
    let compile_ns = median_ns(k, &mut res, || {
        compile_schedule(&inst, Algorithm::BoundedTriangles).expect("compiles")
    });
    reservoirs.push(("perfgate.compile_nanos".to_string(), res));
    probe("compile_ns", compile_ns);

    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).expect("compiles");
    let (schedule, linked) = (&plan.schedule, &plan.linked);
    let budget = budget_section(
        &entries_for_observed(
            "perfgate block(64,16)",
            &inst,
            Algorithm::BoundedTriangles,
            schedule.rounds(),
            schedule.messages(),
            schedule.capacity(),
        ),
        DEFAULT_TOLERANCE,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x11A5);
    let a: SparseMatrix<Wrap64> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
    let b: SparseMatrix<Wrap64> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);

    let mut res = Reservoir::new(k);
    let hash_ns = median_ns(k, &mut res, || {
        let mut m = inst.load_machine(&a, &b);
        m.run(schedule).expect("runs").messages
    });
    reservoirs.push(("perfgate.hash_run_nanos".to_string(), res));
    probe("hash_run_ns", hash_ns);

    let mut res = Reservoir::new(k);
    let linked_ns = slowdown
        * median_ns(k, &mut res, || {
            let mut m = inst.load_linked(&a, &b, linked);
            m.run().expect("runs").messages
        });
    reservoirs.push(("perfgate.linked_run_nanos".to_string(), res));
    probe("linked_run_ns", linked_ns);
    probe("linked_over_hash", linked_ns / hash_ns);

    // ---- admission-gate probes: plan decode and insert-time lint --------
    let file = encode_plan(0, &plan);
    let mut res = Reservoir::new(k);
    let decode_ns = median_ns(k, &mut res, || decode_plan(&file).expect("plan decodes"));
    reservoirs.push(("perfgate.decode_plan_nanos".to_string(), res));
    probe("decode_over_compile", decode_ns / compile_ns);

    let mut res = Reservoir::new(k);
    let lint_ns = median_ns(k, &mut res, || {
        assert!(lint_linked(schedule, linked).is_clean(), "plan lints clean");
    });
    reservoirs.push(("perfgate.lint_linked_nanos".to_string(), res));
    probe("lint_over_compile", lint_ns / compile_ns);

    // ---- compile-internals probe: cluster extraction ---------------------
    // The batch-n1024 benchmark structure: [US:US:AS] at n = 1024 under
    // Theorem 4.2 with d = 16. One extraction pass at the schedule's
    // threshold (d² = 256) captures every dense block.
    let mixed = mixed_workload(64, 16, 0x10AD);
    let two_phase = Algorithm::TwoPhase {
        d: 16,
        engine: DenseEngine::Cube3d,
    };
    let mut res = Reservoir::new(k);
    let two_phase_ns = median_ns(k, &mut res, || {
        compile_schedule(&mixed, two_phase).expect("compiles")
    });
    reservoirs.push(("perfgate.two_phase_compile_nanos".to_string(), res));
    let pool = TriangleSet::enumerate(&mixed).triangles;
    let mut res = Reservoir::new(k);
    let extract_ns = median_ns(k, &mut res, || {
        extract_clusters(&mut pool.clone(), 16, 256, 0)
    });
    reservoirs.push(("perfgate.extract_clusters_nanos".to_string(), res));
    probe("extract_over_compile", extract_ns / two_phase_ns);

    let compiled = compile_schedule(&mixed, two_phase).expect("compiles");
    let mut res = Reservoir::new(k);
    let fused_ns = median_ns_from(
        k,
        &mut res,
        || compiled.clone(),
        |s| compress_and_link_traced(s, &mut NoopTracer),
    );
    reservoirs.push(("perfgate.compress_link_nanos".to_string(), res));
    probe("compress_link_over_compile", fused_ns / two_phase_ns);
    drop(compiled);

    // ---- serving probe: warm vs cold amortized per-run --------------------
    let small = block_workload(4, 8);
    let algorithm = Algorithm::BoundedTriangles;
    let seeds: Vec<u64> = (0..16u64).map(|s| 1000 + s).collect();
    let mut res = Reservoir::new(k);
    let cold_ns = median_ns(k, &mut res, || {
        for &s in &seeds {
            std::hint::black_box(run_algorithm::<Fp>(&small, algorithm, s).expect("cold run"));
        }
    }) / seeds.len() as f64;
    reservoirs.push(("perfgate.cold_batch_nanos".to_string(), res));

    let mut cache = ScheduleCache::new(4);
    run_batch::<Fp>(
        &mut cache,
        &small,
        algorithm,
        &seeds[..1],
        false,
        BatchMode::Sequential,
    )
    .expect("priming run");
    let mut res = Reservoir::new(k);
    let warm_ns = median_ns(k, &mut res, || {
        run_batch::<Fp>(
            &mut cache,
            &small,
            algorithm,
            &seeds,
            false,
            BatchMode::Sequential,
        )
        .expect("warm batch")
    }) / seeds.len() as f64;
    reservoirs.push(("perfgate.warm_batch_nanos".to_string(), res));
    probe("warm_over_cold", warm_ns / cold_ns);

    // ---- supervision probe: a daemon-shaped request vs a batch member ----
    let mut supervisor = Supervisor::new(SupervisorConfig::default());
    let clean = FaultSpec::none(0);
    let mut supervise = |seed: u64| {
        let outcome = supervisor.run_supervised::<Fp>(&small, algorithm, seed, false, &clean, None);
        assert_eq!(outcome.rung, Rung::Linked, "a clean request lands linked");
        outcome.result.expect("supervised request")
    };
    supervise(seeds[0]); // priming compile
    let mut res = Reservoir::new(k);
    let supervised_ns = median_ns(k, &mut res, || {
        for &s in &seeds {
            std::hint::black_box(supervise(s));
        }
    }) / seeds.len() as f64;
    reservoirs.push(("perfgate.supervised_request_nanos".to_string(), res));
    probe("supervised_over_batch", supervised_ns / warm_ns);

    // ---- packing probe: lane planes vs sequential -------------------------
    let lanes = <Fp as lowband_core::BatchElement>::LANE_WIDTHS
        .iter()
        .copied()
        .filter(|&w| w <= 16)
        .max()
        .expect("Fp has a narrow lane width");
    let wide: Vec<u64> = (0..64u64).map(|s| 2000 + s).collect();
    let mut res = Reservoir::new(k);
    let seq_ns = median_ns(k, &mut res, || {
        run_batch::<Fp>(
            &mut cache,
            &small,
            algorithm,
            &wide,
            false,
            BatchMode::Sequential,
        )
        .expect("sequential batch")
    }) / wide.len() as f64;
    reservoirs.push(("perfgate.sequential_member_nanos".to_string(), res));
    let mut res = Reservoir::new(k);
    let packed_ns = median_ns(k, &mut res, || {
        run_batch::<Fp>(
            &mut cache,
            &small,
            algorithm,
            &wide,
            false,
            BatchMode::Packed { lanes },
        )
        .expect("packed batch")
    }) / wide.len() as f64;
    reservoirs.push(("perfgate.packed_member_nanos".to_string(), res));
    probe("packed_over_sequential", packed_ns / seq_ns);

    Measurements {
        fresh,
        reservoirs,
        budget,
    }
}

/// Tolerance for a probe id: ratios get the tight band.
fn tolerance_for(id: &str) -> f64 {
    if id.contains("_over_") {
        RATIO_TOLERANCE
    } else {
        ABS_TOLERANCE
    }
}

fn unit_for(id: &str) -> &'static str {
    if id.contains("_over_") {
        "ratio"
    } else {
        "ns"
    }
}

fn write_baseline(path: &PathBuf, m: &Measurements, k: usize) -> std::io::Result<()> {
    let probes: Vec<Probe> = m
        .fresh
        .iter()
        .map(|(id, v)| Probe::new(id.clone(), *v, tolerance_for(id), unit_for(id)))
        .collect();
    let pairs: Vec<(&str, &Reservoir)> = m
        .reservoirs
        .iter()
        .map(|(id, r)| (id.as_str(), r))
        .collect();
    let doc = Json::obj().set("name", "baseline").set(
        "sections",
        Json::Obj(vec![
            ("probes".to_string(), probes_to_json(&probes)),
            (
                "meta".to_string(),
                Json::obj()
                    .set("median_of", k as u64)
                    .set("executor_workload", "block_workload(64, 16)")
                    .set(
                        "compile_internals_workload",
                        "mixed_workload(64, 16, 0x10AD), two-phase d = 16",
                    )
                    .set("serving_workload", "block_workload(4, 8)"),
            ),
            ("percentiles".to_string(), reservoir_section(&pairs)),
            ("budget".to_string(), m.budget.clone()),
        ]),
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_pretty())
}

fn load_baseline(path: &PathBuf) -> Result<Vec<Probe>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e} (run `perfgate -- --update` first)", path.display()))?;
    let doc = lowband_trace::json::parse(&text).map_err(|e| e.to_string())?;
    let probes = doc
        .get("sections")
        .and_then(|s| s.get("probes"))
        .ok_or("baseline: missing sections.probes")?;
    probes_from_json(probes)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let update = args.iter().any(|a| a == "--update");
    let k = args
        .iter()
        .position(|a| a == "--k")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize)
        .max(1);
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("baseline.json"));

    println!(
        "# perfgate — median-of-{k} probes vs {}\n",
        baseline_path.display()
    );
    let m = measure(k);

    if update {
        write_baseline(&baseline_path, &m, k).expect("write baseline");
        println!(
            "wrote {} ({} probes)",
            baseline_path.display(),
            m.fresh.len()
        );
        return;
    }

    let baseline = match load_baseline(&baseline_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let results = gate(&baseline, &m.fresh);
    let t = TablePrinter::new(
        &["probe", "baseline", "fresh", "allowed", "ratio", "pass"],
        &[24, 12, 12, 12, 7, 5],
    );
    for r in &results {
        t.row(&[
            r.id.clone(),
            format!("{:.3}", r.baseline),
            r.fresh.map_or("—".into(), |f| format!("{f:.3}")),
            format!("{:.3}", r.allowed),
            r.ratio.map_or("—".into(), |x| format!("{x:.2}")),
            if r.pass { "ok" } else { "FAIL" }.into(),
        ]);
    }
    if all_pass(&results) {
        println!("\nperfgate: all {} probes within band", results.len());
    } else {
        let failed: Vec<&str> = results
            .iter()
            .filter(|r| !r.pass)
            .map(|r| r.id.as_str())
            .collect();
        eprintln!(
            "\nperfgate: REGRESSION — {} probe(s) out of band: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
