//! `loadgen` — the open/closed-loop harness behind `results/serving.json`
//! (EXPERIMENTS.md E19).
//!
//! ```text
//! cargo run -p lowband-served --release --bin loadgen [-- --json] [--gate]
//!     [--addr HOST:PORT] [--requests N] [--connections C] [--zipf S]
//!     [--burst B] [--seed K] [--shutdown] [--expect-no-compiles]
//! ```
//!
//! Without `--addr` an in-process daemon is started (and always shut
//! down gracefully at the end); with `--addr` an external daemon is
//! driven and `--shutdown` additionally sends the wire shutdown frame
//! when done. Four phases:
//!
//! 1. **closed loop** — `C` persistent connections (one per daemon
//!    worker) issue `N` requests total, structure drawn from a
//!    zipf(`S`)-distributed catalog, every response's digest verified
//!    against the locally computed reference product;
//! 2. **fault slice** — a handful of fault-injected requests prove the
//!    injection path works over the wire (digests must still verify);
//! 3. **stats** — one wire stats snapshot, for the cache hit-rate and
//!    rung distribution sections;
//! 4. **admission burst** — `B` idle connections opened at once; every
//!    connection beyond `workers + backlog` must be refused with a typed
//!    `Overloaded` frame (the backpressure section).
//!
//! With `--gate`: throughput ≥ 1000 req/s, cache hit-rate ≥ 0.8, zero
//! incorrect responses, and ≥ 1 burst rejection — the serving gate CI
//! enforces.
//!
//! With `--expect-no-compiles`: the daemon's stats snapshot must report
//! zero cold compiles — the warm-restart check for a daemon started with
//! `--store` on a previously populated root (the catalog is a pure
//! function of `--seed`, so a rerun asks for exactly the same structure
//! keys and every one must be answered from memory or disk).

use lowband_bench::report::{
    budget_section, reservoir_section, BudgetEntry, Json, JsonReport, Reservoir, DEFAULT_TOLERANCE,
};
use lowband_bench::{block_workload, mixed_workload, scattered_workload, TablePrinter};
use lowband_core::budget::entries_for_report;
use lowband_core::{run_algorithm_traced, Algorithm, Instance};
use lowband_matrix::Fp;
use lowband_served::server::{serve, shard_bounds, ServerConfig};
use lowband_served::{expected_digest, Client, ExecuteRequest, Request, Response};
use lowband_trace::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// One catalog entry: a named structure plus its precomputed expected
/// digests (one per seed variant).
struct CatalogEntry {
    name: &'static str,
    inst: Instance,
    expected: Vec<u64>,
}

/// Seed variants per structure — small so the expected digests can all
/// be precomputed, while still exercising more than one value draw.
const SEED_VARIANTS: u64 = 4;

fn seed_for(struct_idx: usize, variant: u64, base: u64) -> u64 {
    base ^ (struct_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ variant
}

/// The popularity catalog: a dozen structures across the three workload
/// shapes, enough distinct keys to be a real cache test and few enough
/// that the default cache (32 entries) converges to hits.
fn catalog(base: u64) -> Vec<CatalogEntry> {
    let shapes: Vec<(&'static str, Instance)> = vec![
        ("scattered-32a", scattered_workload(32, 3, base)),
        ("scattered-32b", scattered_workload(32, 3, base ^ 0xA1)),
        ("scattered-24a", scattered_workload(24, 3, base ^ 0xB2)),
        ("scattered-24b", scattered_workload(24, 3, base ^ 0xC3)),
        ("scattered-40", scattered_workload(40, 4, base ^ 0xD4)),
        ("block-6x4", block_workload(6, 4)),
        ("block-8x4", block_workload(8, 4)),
        ("block-5x5", block_workload(5, 5)),
        ("mixed-6x4a", mixed_workload(6, 4, base ^ 0xE5)),
        ("mixed-6x4b", mixed_workload(6, 4, base ^ 0xF6)),
        ("mixed-8x4", mixed_workload(8, 4, base ^ 0x17)),
        ("scattered-16", scattered_workload(16, 2, base ^ 0x28)),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(idx, (name, inst))| {
            let expected = (0..SEED_VARIANTS)
                .map(|v| expected_digest::<Fp>(&inst, seed_for(idx, v, base)))
                .collect();
            CatalogEntry {
                name,
                inst,
                expected,
            }
        })
        .collect()
}

/// Zipf(s) sampler over `n` ranks: normalized CDF + binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One client thread's closed-loop tally, merged under a mutex.
#[derive(Default)]
struct Tally {
    issued: u64,
    ok: u64,
    incorrect: u64,
    refused: u64,
    dropped: u64,
    latencies: Vec<u64>,
    per_struct: Vec<u64>,
}

fn main() {
    let requests: usize = arg_value("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000)
        .max(1);
    let connections: usize = arg_value("--connections")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1);
    let zipf_s: f64 = arg_value("--zipf")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.1);
    let burst: usize = arg_value("--burst")
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    let base_seed: u64 = arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x10AD);
    let gate = flag("--gate");

    // Target daemon: external via --addr, else in-process. The
    // in-process daemon pins `workers == connections` so the closed
    // loop's persistent connections occupy every worker and nothing
    // starves in a queue behind them.
    let (addr, handle) = match arg_value("--addr") {
        Some(addr) => (addr, None),
        None => {
            let config = ServerConfig {
                workers: connections,
                backlog: arg_value("--backlog")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(64),
                ..ServerConfig::default()
            };
            let handle = serve(config).expect("bind in-process daemon");
            (handle.addr().to_string(), Some(handle))
        }
    };
    println!("# loadgen — target {addr}, {requests} request(s), {connections} connection(s), zipf({zipf_s})\n");

    let entries = catalog(base_seed);
    let zipf = Zipf::new(entries.len(), zipf_s);
    let algorithm = Algorithm::BoundedTriangles;

    // Budget rows from one verified fault-free *local* run per structure
    // — the artifact's communication-bound section is about the
    // schedules the daemon serves, measured without serving noise.
    let mut metrics = MetricsRegistry::new();
    let mut budget: Vec<BudgetEntry> = Vec::new();
    for entry in &entries {
        let clean =
            run_algorithm_traced::<Fp, _>(&entry.inst, algorithm, base_seed, false, &mut metrics)
                .expect("fault-free baseline");
        assert!(clean.correct, "baseline must verify");
        budget.extend(entries_for_report(
            &format!("serving {}", entry.name),
            &entry.inst,
            algorithm,
            &clean,
        ));
    }

    // ---- Phase 1: closed loop ------------------------------------------
    let shared = Mutex::new(Tally {
        per_struct: vec![0; entries.len()],
        ..Tally::default()
    });
    let bounds = shard_bounds(requests, connections);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..connections {
            let quota = bounds[c + 1] - bounds[c];
            let entries = &entries;
            let zipf = &zipf;
            let shared = &shared;
            let addr = addr.as_str();
            scope.spawn(move || {
                let mut local = Tally {
                    per_struct: vec![0; entries.len()],
                    ..Tally::default()
                };
                let mut rng = StdRng::seed_from_u64(base_seed ^ (c as u64) << 32);
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..quota {
                    let idx = zipf.sample(&mut rng);
                    let variant = rng.gen_range(0..=SEED_VARIANTS - 1);
                    let entry = &entries[idx];
                    let request = Request::Execute(Box::new(ExecuteRequest::clean(
                        &entry.inst,
                        algorithm,
                        false,
                        seed_for(idx, variant, base_seed),
                    )));
                    local.issued += 1;
                    local.per_struct[idx] += 1;
                    let t0 = Instant::now();
                    match client.roundtrip(&request) {
                        Ok(Some(Response::Ok { digest, .. })) => {
                            local.latencies.push(t0.elapsed().as_nanos() as u64);
                            if digest == entry.expected[variant as usize] {
                                local.ok += 1;
                            } else {
                                local.incorrect += 1;
                            }
                        }
                        Ok(Some(_)) => local.refused += 1,
                        Ok(None) | Err(_) => {
                            local.dropped += 1;
                            // The daemon closed the connection; reconnect.
                            if let Ok(fresh) = Client::connect(addr) {
                                client = fresh;
                            }
                        }
                    }
                }
                let mut total = shared.lock().unwrap();
                total.issued += local.issued;
                total.ok += local.ok;
                total.incorrect += local.incorrect;
                total.refused += local.refused;
                total.dropped += local.dropped;
                total.latencies.extend(local.latencies);
                for (i, count) in local.per_struct.iter().enumerate() {
                    total.per_struct[i] += count;
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let tally = shared.into_inner().unwrap();
    let throughput = tally.ok as f64 / elapsed.as_secs_f64().max(1e-9);

    let mut reservoir = Reservoir::with_seed(16_384, base_seed);
    for &nanos in &tally.latencies {
        reservoir.record(nanos);
    }
    let latency = reservoir.percentiles().unwrap_or_else(|| {
        eprintln!("error: no latencies recorded");
        std::process::exit(1);
    });

    println!(
        "closed loop: {} ok / {} issued in {:.2?} — {:.0} req/s",
        tally.ok, tally.issued, elapsed, throughput
    );
    let t = TablePrinter::new(&["structure", "requests"], &[14, 9]);
    for (i, entry) in entries.iter().enumerate() {
        t.row(&[entry.name.to_string(), tally.per_struct[i].to_string()]);
    }

    // ---- Phase 2: fault slice ------------------------------------------
    // Fault-injected requests through the daemon path: digests must
    // still verify (the supervisor's output is bit-identical whatever
    // rung the ladder lands on). A dedicated structure keeps any
    // breaker strikes away from the catalog.
    let storm_inst = scattered_workload(24, 3, base_seed ^ 0x570_12F);
    let storm_expected = expected_digest::<Fp>(&storm_inst, base_seed);
    let mut faulted_ok = 0u64;
    let mut faulted_refused = 0u64;
    let mut faulted_incorrect = 0u64;
    let fault_requests = 8u64;
    {
        let mut client = Client::connect(&addr).expect("connect fault slice");
        for k in 0..fault_requests {
            let mut req = ExecuteRequest::clean(&storm_inst, algorithm, false, base_seed);
            req.fault_seed = base_seed ^ k;
            req.drop_rate = 0.10;
            req.corrupt_rate = 0.10;
            req.crash_rate = 0.02;
            match client.roundtrip(&Request::Execute(Box::new(req))) {
                Ok(Some(Response::Ok { digest, .. })) => {
                    if digest == storm_expected {
                        faulted_ok += 1;
                    } else {
                        faulted_incorrect += 1;
                    }
                }
                _ => faulted_refused += 1,
            }
        }
    }
    println!(
        "\nfault slice: {faulted_ok}/{fault_requests} served under injected faults, {faulted_refused} refused"
    );

    // ---- Phase 3: stats snapshot ---------------------------------------
    let stats_doc = {
        let mut client = Client::connect(&addr).expect("connect stats");
        match client.roundtrip(&Request::Stats) {
            Ok(Some(Response::Stats { json })) => {
                lowband_trace::json::parse(&json).expect("stats JSON parses")
            }
            other => {
                eprintln!("error: stats request failed: {other:?}");
                std::process::exit(1);
            }
        }
    };
    let cache = stats_doc.get("cache").cloned().unwrap_or_else(Json::obj);
    let hit_rate = cache
        .get("hit_rate")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let rungs = stats_doc
        .get("counters")
        .and_then(|c| c.get("rungs"))
        .cloned()
        .unwrap_or_else(Json::obj);
    let compiles = cache
        .get("compiles")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0) as u64;
    let disk_hits = cache
        .get("disk_hits")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0) as u64;
    println!("cache hit-rate {hit_rate:.3}, {compiles} cold compile(s), {disk_hits} disk hit(s)");

    // ---- Phase 4: admission burst --------------------------------------
    // Idle connections are admission-queued without being served (the
    // workers are parked on the first `workers` of them), so opening
    // more than `workers + backlog` must produce typed refusals.
    let mut burst_rejected = 0u64;
    let mut burst_admitted = 0u64;
    if burst > 0 {
        let mut streams = Vec::with_capacity(burst);
        for _ in 0..burst {
            match std::net::TcpStream::connect(&addr) {
                Ok(s) => streams.push(s),
                Err(_) => burst_rejected += 1, // refused at the OS level
            }
        }
        for stream in &streams {
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .ok();
        }
        for mut stream in streams {
            match lowband_served::wire::read_frame(&mut stream) {
                Ok(Some(payload)) => match Response::decode(&payload) {
                    Ok(Response::Overloaded { .. }) => burst_rejected += 1,
                    _ => burst_admitted += 1,
                },
                // Timeout or clean EOF: the connection sits admitted in
                // a queue (or on a worker) with no frame to read.
                _ => burst_admitted += 1,
            }
        }
    }
    println!("admission burst: {burst} connection(s), {burst_rejected} rejected, {burst_admitted} admitted");

    // ---- Shutdown -------------------------------------------------------
    let final_snapshot = if handle.is_some() || flag("--shutdown") {
        let mut client = Client::connect(&addr).expect("connect shutdown");
        match client.roundtrip(&Request::Shutdown) {
            Ok(Some(Response::ShutdownAck { json })) => Some(json),
            other => {
                eprintln!("error: shutdown not acknowledged: {other:?}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    if let Some(handle) = handle {
        handle.join();
    }
    if final_snapshot.is_some() {
        println!("daemon acknowledged shutdown and drained");
    }

    // ---- Artifact -------------------------------------------------------
    let mut artifact = JsonReport::new("serving");
    artifact.section(
        "throughput",
        Json::obj()
            .set("requests", tally.issued)
            .set("ok", tally.ok)
            .set("refused", tally.refused)
            .set("dropped", tally.dropped)
            .set("elapsed_secs", elapsed.as_secs_f64())
            .set("req_per_sec", throughput)
            .set("connections", connections as u64),
    );
    artifact.section("latency", latency);
    artifact.section("hit_rate", cache);
    artifact.section("rungs", rungs);
    artifact.section(
        "rejections",
        Json::obj()
            .set("burst_connections", burst as u64)
            .set("rejected", burst_rejected)
            .set("admitted", burst_admitted),
    );
    artifact.section(
        "correctness",
        Json::obj()
            .set("verified", tally.ok + faulted_ok)
            .set("incorrect", tally.incorrect + faulted_incorrect)
            .set("fault_slice_served", faulted_ok)
            .set("fault_slice_refused", faulted_refused),
    );
    artifact.section(
        "percentiles",
        reservoir_section(&[("loadgen.request_nanos", &reservoir)]),
    );
    artifact.section("budget", budget_section(&budget, DEFAULT_TOLERANCE));
    artifact.finish();

    // ---- Gates ----------------------------------------------------------
    let incorrect = tally.incorrect + faulted_incorrect;
    if incorrect > 0 {
        eprintln!("GATE FAILED: {incorrect} incorrect response(s)");
        std::process::exit(1);
    }
    if flag("--expect-no-compiles") && compiles > 0 {
        eprintln!(
            "GATE FAILED: {compiles} cold compile(s) with --expect-no-compiles \
             (every structure should have been served from the warm plan store)"
        );
        std::process::exit(1);
    }
    if gate {
        let mut failed = false;
        if throughput < 1000.0 {
            eprintln!("GATE FAILED: throughput {throughput:.0} req/s < 1000");
            failed = true;
        }
        if hit_rate < 0.8 {
            eprintln!("GATE FAILED: cache hit-rate {hit_rate:.3} < 0.8");
            failed = true;
        }
        if burst > 0 && burst_rejected == 0 {
            eprintln!("GATE FAILED: admission burst produced no rejections");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("\nall serving gates passed.");
    }
}
