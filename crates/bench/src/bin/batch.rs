//! Batched serving: what compile-once/execute-many buys over per-run
//! compilation.
//!
//! ```text
//! cargo run -p lowband-bench --release --bin batch [-- --json]
//! ```
//!
//! One workload (the Table 1 extremal block workload, Theorem 5.3
//! algorithm over 𝔽_p), two paths:
//!
//! * **cold** — `K` independent [`run_algorithm`] calls: every run pays
//!   triangle enumeration, schedule compilation and linking again;
//! * **warm** — one [`ScheduleCache`] lookup plus
//!   [`serve::run_batch`](lowband_serve::run_batch): the
//!   structure-dependent work is paid once (and here not even once — the
//!   cache is primed before timing), every run pays only load + execute +
//!   verify through one reused slot-store machine.
//!
//! The headline number is amortized wall-clock per run vs `K`: the warm
//! path must flatten to the pure execution cost while the cold path stays
//! constant. A second table fans the same `K = 64` batch across worker
//! threads. With `--json`, additionally writes `results/batch.json`.

use std::time::Instant;

use lowband_bench::report::{
    budget_section, percentiles_section, Json, JsonReport, DEFAULT_TOLERANCE,
};
use lowband_bench::{block_workload, TablePrinter};
use lowband_core::budget::entries_for_report;
use lowband_core::densemm::DenseEngine;
use lowband_core::{compile_plan, run_algorithm, Algorithm, BatchElement, BatchMode, Instance};
use lowband_matrix::{Fp, Gf2};
use lowband_model::trace::MetricsRegistry;
use lowband_serve::{run_batch, run_batch_traced, PlanStore, ScheduleCache, StructureKey};

/// Median wall-clock of `iters` calls to `f`, in nanoseconds.
fn median_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64() * 1e9);
        last = Some(r);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.unwrap())
}

fn seeds_for(k: usize) -> Vec<u64> {
    (0..k as u64).map(|s| 1000 + s).collect()
}

fn main() {
    let mut artifact = JsonReport::new("batch");
    let inst = block_workload(4, 8);
    let algorithm = Algorithm::BoundedTriangles;
    let iters = 5usize;

    println!("# batch — amortized per-run cost, cold (compile per run) vs warm (cached plan)\n");
    println!(
        "workload: block_workload(4, 8)  n = {}  algorithm = Theorem 5.3 over F_p\n",
        inst.n
    );

    let mut cache = ScheduleCache::new(4);
    // Prime the cache: the warm path times pure execution, not the
    // one-off compile (which the cold column already exhibits).
    run_batch::<Fp>(
        &mut cache,
        &inst,
        algorithm,
        &[999],
        false,
        BatchMode::Sequential,
    )
    .expect("priming run");

    let t = TablePrinter::new(
        &["K", "cold ns/run", "warm ns/run", "warm/cold"],
        &[4, 14, 14, 9],
    );
    let mut ratio_at_kmax = f64::NAN;
    let mut kmax = 0usize;
    for k in [1usize, 4, 16, 64] {
        let seeds = seeds_for(k);
        let (cold_ns, cold_reports) = median_ns(iters, || {
            seeds
                .iter()
                .map(|&s| run_algorithm::<Fp>(&inst, algorithm, s).expect("cold run"))
                .collect::<Vec<_>>()
        });
        let (warm_ns, warm_reports) = median_ns(iters, || {
            run_batch::<Fp>(
                &mut cache,
                &inst,
                algorithm,
                &seeds,
                false,
                BatchMode::Sequential,
            )
            .expect("warm batch")
        });
        assert!(cold_reports.iter().all(|r| r.correct));
        assert!(warm_reports.iter().all(|r| r.correct));
        for (c, w) in cold_reports.iter().zip(&warm_reports) {
            assert_eq!((c.rounds, c.messages), (w.rounds, w.messages));
        }
        let cold_per_run = cold_ns / k as f64;
        let warm_per_run = warm_ns / k as f64;
        let ratio = warm_per_run / cold_per_run;
        if k >= kmax {
            kmax = k;
            ratio_at_kmax = ratio;
        }
        artifact.section(
            "amortized",
            Json::Arr(vec![Json::obj()
                .set("semiring", "Fp")
                .set("lanes", 1u64)
                .set("k", k as u64)
                .set("cold_ns_per_run", cold_per_run)
                .set("warm_ns_per_run", warm_per_run)
                .set("warm_over_cold", ratio)]),
        );
        t.row(&[
            k.to_string(),
            format!("{cold_per_run:.0}"),
            format!("{warm_per_run:.0}"),
            format!("{ratio:.3}"),
        ]);
    }
    println!(
        "\nthe cold column is flat (every run recompiles); the warm column is the\n\
         execution floor. At K = {kmax} the cached path costs {:.0}% of the cold path.",
        ratio_at_kmax * 100.0
    );
    assert!(
        ratio_at_kmax <= 0.5,
        "warm amortized cost must be <= 0.5x cold at K = {kmax}, got {ratio_at_kmax:.3}"
    );

    parallel_fanout(&mut artifact, &inst, algorithm, iters);
    packed_lanes(&mut artifact, &inst, algorithm, iters);
    plan_store_triple(&mut artifact);

    // One traced warm batch (outside the timing loops) populates the
    // per-request latency histogram and pins the executed rounds/messages
    // under the Lemma 3.1 budget.
    let mut metrics = MetricsRegistry::new();
    let traced = run_batch_traced::<Fp, _>(
        &mut cache,
        &inst,
        algorithm,
        &seeds_for(64),
        false,
        BatchMode::Sequential,
        &mut metrics,
    )
    .expect("traced warm batch");
    assert!(traced.iter().all(|r| r.correct));
    artifact.section("percentiles", percentiles_section(&metrics));
    artifact.section(
        "budget",
        budget_section(
            &entries_for_report("batch warm run", &inst, algorithm, &traced[0]),
            DEFAULT_TOLERANCE,
        ),
    );

    let s = cache.stats();
    artifact.section("cache", s.to_json());
    println!(
        "\ncache: {} hits / {} misses / {} evictions ({} of {} entries, hit rate {:.3})",
        s.hits,
        s.misses,
        s.evictions,
        s.len,
        s.capacity,
        s.hit_rate()
    );
    assert_eq!(s.misses, 1, "one structure must compile exactly once");

    artifact.finish();
}

/// The plan-store tier ladder at n = 1024: what a disk hit costs relative
/// to the cold compile it replaces and the memory hit it feeds.
///
/// * **cold** — full `compile_plan` (triangle enumeration, schedule
///   compilation, linking) from the instance;
/// * **disk** — `PlanStore::load`: read, checksum, decode and run the
///   full admission gate (`lint_linked`) on the published binser file;
/// * **warm** — a primed `ScheduleCache` memory hit.
///
/// Gated: cold ≥ disk ≥ warm and disk ≤ 0.3 × cold — the restart story
/// only holds if admission-gated loads are much cheaper than the
/// compiles they replace.
fn plan_store_triple(artifact: &mut JsonReport) {
    println!("\n# batch — plan store tiers at n = 1024: cold compile vs disk load vs memory hit\n");
    // The Table 1 extremal block workload at n = 1024 (64 dense 16×16
    // clusters, 256K triangles) under the Theorem 4.2 two-phase
    // algorithm — the regime the persistent tier exists for: the compile
    // pays triangle enumeration, cluster extraction and the compression
    // re-schedule, while the disk hit pays a linear decode + admission
    // lint of the finished plan.
    let inst = block_workload(64, 16);
    let algorithm = Algorithm::TwoPhase {
        d: 16,
        engine: DenseEngine::Cube3d,
    };
    let compress = true;
    let key = StructureKey::of(&inst, algorithm, compress);
    let iters = 3usize;

    let (cold_ns, plan) = median_ns(iters, || {
        compile_plan(&inst, algorithm, compress).expect("cold compile")
    });

    let root = std::env::temp_dir().join(format!("lowband-batch-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = PlanStore::open(&root).expect("open plan store");
    let file_bytes = store.save(key, &plan).expect("publish plan");
    let (disk_ns, loaded) = median_ns(iters, || {
        store
            .load(key)
            .expect("gate passes")
            .expect("published plan loads")
    });
    assert_eq!(
        loaded.schedule, plan.schedule,
        "disk tier must return the published plan"
    );

    let mut cache = ScheduleCache::with_store(4, store);
    cache
        .get_or_compile(&inst, algorithm, compress)
        .expect("prime from disk");
    let (warm_ns, _) = median_ns(iters, || {
        cache
            .get_or_compile(&inst, algorithm, compress)
            .expect("memory hit")
    });
    let s = cache.stats();
    assert_eq!(
        (s.compiles, s.disk_hits),
        (0, 1),
        "priming must come from the disk tier, not a compile: {s:?}"
    );
    let _ = std::fs::remove_dir_all(&root);

    let disk_over_cold = disk_ns / cold_ns;
    let warm_over_cold = warm_ns / cold_ns;
    let t = TablePrinter::new(&["tier", "ns", "vs cold"], &[6, 14, 9]);
    for (tier, ns) in [("cold", cold_ns), ("disk", disk_ns), ("warm", warm_ns)] {
        t.row(&[
            tier.to_string(),
            format!("{ns:.0}"),
            format!("{:.4}", ns / cold_ns),
        ]);
    }
    println!(
        "\na disk hit (read + checksum + decode + lint) costs {:.1}% of the cold\n\
         compile it replaces ({} bytes on disk); a memory hit costs {:.2}%.",
        disk_over_cold * 100.0,
        file_bytes,
        warm_over_cold * 100.0
    );
    artifact.section(
        "plan_store",
        Json::obj()
            .set("n", 1024u64)
            .set("cold_ns", cold_ns)
            .set("disk_ns", disk_ns)
            .set("warm_ns", warm_ns)
            .set("disk_over_cold", disk_over_cold)
            .set("warm_over_cold", warm_over_cold)
            .set("file_bytes", file_bytes),
    );
    assert!(
        cold_ns >= disk_ns && disk_ns >= warm_ns,
        "tier ordering must be cold >= disk >= warm: {cold_ns:.0} / {disk_ns:.0} / {warm_ns:.0}"
    );
    assert!(
        disk_over_cold <= 0.3,
        "disk load must be <= 0.3x cold compile at n = 1024, got {disk_over_cold:.3}"
    );
}

/// The same K = 64 batch fanned across worker threads — each worker owns a
/// machine and streams its contiguous share of the seeds.
fn parallel_fanout(artifact: &mut JsonReport, inst: &Instance, algorithm: Algorithm, iters: usize) {
    println!("\n# batch — K = 64 fanned across worker threads\n");
    let seeds = seeds_for(64);
    let mut cache = ScheduleCache::new(4);
    let t = TablePrinter::new(&["threads", "ns/run", "vs 1 thread"], &[8, 14, 11]);
    let mut base = f64::NAN;
    for threads in [1usize, 2, 4] {
        let mode = if threads == 1 {
            BatchMode::Sequential
        } else {
            BatchMode::Parallel { threads }
        };
        let (ns, reports) = median_ns(iters, || {
            run_batch::<Fp>(&mut cache, inst, algorithm, &seeds, false, mode)
                .expect("parallel batch")
        });
        assert!(reports.iter().all(|r| r.correct));
        let per_run = ns / seeds.len() as f64;
        if threads == 1 {
            base = per_run;
        }
        artifact.section(
            "parallel",
            Json::Arr(vec![Json::obj()
                .set("semiring", "Fp")
                .set("lanes", 1u64)
                .set("threads", threads as u64)
                .set("ns_per_run", per_run)
                .set("speedup", base / per_run)]),
        );
        t.row(&[
            threads.to_string(),
            format!("{per_run:.0}"),
            format!("{:.2}×", base / per_run),
        ]);
    }
}

/// The same K = 64 batch through struct-of-arrays lane planes: one
/// interpretation of the cached schedule advances all lanes at once, so
/// per-member decode cost falls by `1/LANES`. Per-member ns is printed
/// side by side with the sequential and thread-fanned paths for the same
/// semiring; the `Fp` packed/sequential ratio is the asserted gate, the
/// bit-sliced `Gf2` ratio (64 members per `u64`) is reported alongside.
fn packed_lanes(artifact: &mut JsonReport, inst: &Instance, algorithm: Algorithm, iters: usize) {
    println!("\n# batch — K = 64 through packed lane planes (warm cache)\n");
    let seeds = seeds_for(64);
    let t = TablePrinter::new(
        &["semiring", "mode", "lanes", "ns/member", "vs sequential"],
        &[8, 12, 5, 14, 13],
    );

    let mut gate_ratio = f64::NAN;
    let mut gate_lanes = 0usize;
    for semiring in ["Fp", "Gf2"] {
        // Measure the three warm modes for one value type; returns
        // (mode label, lanes, ns/member) rows in print order.
        let rows: Vec<(&str, usize, f64)> = match semiring {
            "Fp" => measure_modes::<Fp>(inst, algorithm, &seeds, iters, true),
            _ => measure_modes::<Gf2>(inst, algorithm, &seeds, iters, false),
        };
        let seq_ns = rows[0].2;
        for &(mode, lanes, ns) in &rows {
            let ratio = ns / seq_ns;
            artifact.section(
                "packed",
                Json::Arr(vec![Json::obj()
                    .set("semiring", semiring)
                    .set("mode", mode)
                    .set("lanes", lanes as u64)
                    .set("k", seeds.len() as u64)
                    .set("ns_per_member", ns)
                    .set("vs_sequential", ratio)]),
            );
            t.row(&[
                semiring.to_string(),
                mode.to_string(),
                lanes.to_string(),
                format!("{ns:.0}"),
                format!("{ratio:.3}"),
            ]);
            if mode == "packed" && semiring == "Fp" {
                gate_ratio = ratio;
                gate_lanes = lanes;
            }
        }
    }
    println!(
        "\none schedule decode drives all lanes: the packed F_p path costs\n\
         {:.0}% of the sequential warm path per member at {gate_lanes} lanes \
         (gate: <= 50%).",
        gate_ratio * 100.0
    );
    assert!(
        gate_ratio <= 0.5,
        "packed per-member cost must be <= 0.5x sequential at K = 64 for Fp, \
         got {gate_ratio:.3} at {gate_lanes} lanes"
    );
}

/// Warm per-member ns for sequential / parallel(4) / packed over one value
/// type, in that row order (sequential first so callers can normalize).
fn measure_modes<S: BatchElement>(
    inst: &Instance,
    algorithm: Algorithm,
    seeds: &[u64],
    iters: usize,
    with_parallel: bool,
) -> Vec<(&'static str, usize, f64)> {
    let mut cache = ScheduleCache::new(4);
    run_batch::<S>(
        &mut cache,
        inst,
        algorithm,
        &seeds[..1],
        false,
        BatchMode::Sequential,
    )
    .expect("priming run");
    // Widest plane that still fits comfortably in cache (16 × u64 = two
    // cache lines per slot; 32-lane planes already thrash L1 here),
    // falling back to whatever the type supports (bit-sliced types only
    // compile the 64-member word).
    let lanes = S::LANE_WIDTHS
        .iter()
        .copied()
        .filter(|&w| w <= 16)
        .max()
        .unwrap_or(*S::LANE_WIDTHS.last().expect("non-empty width menu"));
    let mut modes: Vec<(&'static str, usize, BatchMode)> =
        vec![("sequential", 1, BatchMode::Sequential)];
    if with_parallel {
        modes.push(("parallel(4)", 1, BatchMode::Parallel { threads: 4 }));
    }
    modes.push(("packed", lanes, BatchMode::Packed { lanes }));

    // Interleave the modes round-robin so a noisy stretch of wall-clock
    // (this box is shared) inflates every mode's samples equally instead
    // of biasing whichever mode happened to be measured during it; the
    // per-mode median then compares like with like.
    let reps = iters * 2 + 1;
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); modes.len()];
    for _ in 0..reps {
        for (m, &(_, _, mode)) in modes.iter().enumerate() {
            let t0 = Instant::now();
            let reports = run_batch::<S>(&mut cache, inst, algorithm, seeds, false, mode)
                .expect("warm batch");
            samples[m].push(t0.elapsed().as_secs_f64() * 1e9);
            assert!(reports.iter().all(|r| r.correct));
        }
    }
    modes
        .iter()
        .zip(&mut samples)
        .map(|(&(label, lanes, _), times)| {
            times.sort_by(f64::total_cmp);
            (label, lanes, times[times.len() / 2] / seeds.len() as f64)
        })
        .collect()
}
