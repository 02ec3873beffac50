//! The untraced runs: each workload's set-up and timed window, measured
//! the way a user of the daemon, the plan store or the batch API meets
//! them.
//!
//! A window is a run of slices, each the same fixed amount of work (the
//! same requests from every client, the same number of restart cycles or
//! batch pairs), repeated until `--seconds` of them have been measured.
//! Every rate and latency percentile is computed per slice and the run
//! reports the median over its slices, so a burst of interference from
//! the machine's other work moves a few slices, not the run. Fixed work
//! matters on serve-churn: a slice cut by time reaches further into the
//! request sequence on a faster machine, meets a different share of
//! cache hits, and so amplifies the machine's noise. The serving
//! workloads start a fresh daemon for every slice.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use lowband_core::{compile_plan_traced, BatchMode, CompiledPlan, RunReport, Rung};
use lowband_matrix::Fp;
use lowband_serve::{run_batch, PlanStore, ScheduleCache, ServeError};
use lowband_served::{serve, Client, Request, Response, ServerConfig, ServerHandle};
use lowband_trace::{Json, MetricsRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{catalog, warm_order, Entry, Requests, Workload, VARIANTS};
use crate::stats::{mean, metric, peak_rss_mib, quartiles, Metric, Outcome, Samples};

/// Daemon workers, client connections and client threads alike: the load
/// is sized for a two-core machine. The loop is closed, because the wire
/// client blocks and a daemon worker serves one connection at a time.
const CONNECTIONS: usize = 2;

/// Set-ups of a store-restart or batch-n1024 run; `setup_s` is their
/// median. (The serving workloads set up once per slice.)
pub const SETUPS: usize = 3;

/// Batch sizes of batch-n1024: a sequential batch, then a packed one.
pub const SEQ_K: usize = 16;
/// See [`SEQ_K`].
pub const PACKED_K: usize = 64;

/// What one run is asked to do.
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the values.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Directory for plan stores and daemon dumps; the caller removes it.
    pub scratch: PathBuf,
}

impl Params {
    /// The work of one slice — requests per client (serving), restart
    /// cycles, or batch pairs — taking roughly half a second (serve-hot),
    /// one second (serve-churn, store-restart) or three (batch-n1024) on a
    /// two-core Xeon virtual machine.
    fn slice_ops(&self) -> usize {
        match self.workload {
            Workload::ServeHot => 2000,
            Workload::ServeChurn => 200,
            Workload::StoreRestart | Workload::BatchN1024 => 10,
        }
    }

    /// The tail percentile: the highest with at least ten samples beyond
    /// it in a slice — p99 of serve-hot's 4000 requests, p95 of
    /// serve-churn's 400 — and p90, the second-slowest, of the ten
    /// operations in a store-restart or batch-n1024 slice.
    fn tail(&self) -> f64 {
        match self.workload {
            Workload::ServeHot => 0.99,
            Workload::ServeChurn => 0.95,
            Workload::StoreRestart | Workload::BatchN1024 => 0.90,
        }
    }
}

/// Run one workload untraced; store-restart and batch-n1024 are set up
/// `setups` times.
pub fn run(p: &Params, setups: usize) -> Outcome {
    match p.workload {
        Workload::ServeHot | Workload::ServeChurn => serve_window(p),
        Workload::StoreRestart => store_restart(p, setups),
        Workload::BatchN1024 => batch(p, setups),
    }
}

fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Per-slice readings of a window.
#[derive(Default)]
struct Slices {
    /// Time measured so far.
    measured: Duration,
    /// Set-up seconds (serving workloads only).
    setup: Vec<f64>,
    /// Operations per second.
    throughput: Vec<f64>,
    /// Median operation latency, µs.
    p50: Vec<f64>,
    /// Tail operation latency, µs.
    tail: Vec<f64>,
}

impl Slices {
    /// Whether the window wants another slice: until `--seconds` have
    /// been measured, and at least one.
    fn more(&self, p: &Params) -> bool {
        self.throughput.is_empty() || self.measured.as_secs_f64() < p.seconds
    }

    /// Record a slice of `ops` operations over `elapsed`, with the latency
    /// (ns) of each that was timed.
    fn record(&mut self, p: &Params, ops: u64, elapsed: Duration, latencies: &[u64]) {
        let samples: Samples = latencies.iter().copied().collect();
        self.measured += elapsed;
        self.throughput.push(ops as f64 / elapsed.as_secs_f64());
        self.p50.push(samples.quantile(0.50) / 1e3);
        self.tail.push(samples.quantile(p.tail()) / 1e3);
    }

    /// The end-to-end metrics: medians over slices, then the run's own.
    fn metrics(&self, setup_s: f64, (rounds, messages): (f64, f64)) -> Vec<Metric> {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("throughput", median(&self.throughput), "1/s"),
            metric("latency_p50_us", median(&self.p50), "us"),
            metric("latency_tail_us", median(&self.tail), "us"),
            metric("rounds", rounds, "count"),
            metric("messages", messages, "count"),
            metric("peak_rss_mb", peak_rss_mib(), "MiB"),
        ]
    }
}

/// Run `setup` `count` times, dropping all but the last result, and
/// return that result with the median set-up wall time in seconds.
fn repeated_setup<T>(count: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..count.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The daemon configuration of `workload`: one worker per connection, the
/// workload's cache size, and the plan store when one is given.
pub fn daemon_config(workload: Workload, store_root: Option<PathBuf>) -> ServerConfig {
    let mut config = ServerConfig {
        workers: CONNECTIONS,
        ..ServerConfig::default()
    };
    config.supervisor.cache_capacity = workload.cache_capacity();
    config.supervisor.store_root = store_root;
    config
}

fn start(config: ServerConfig) -> ServerHandle {
    serve(config).expect("bind the in-process daemon on 127.0.0.1")
}

/// Stop a daemon whose clients have all disconnected (so the drain needs
/// no idle grace) and return its final snapshot.
fn stop(handle: ServerHandle) -> Json {
    handle.shutdown();
    handle.join()
}

/// Operation accounting of one client.
#[derive(Default)]
struct Tally {
    /// Requests sent.
    attempted: u64,
    /// Requests refused, dropped, degraded or answered wrongly.
    failed: u64,
    /// Of `failed`, the wrong answers.
    incorrect: u64,
    /// Client-side latency of each verified answer, ns.
    latencies: Vec<u64>,
    /// Server-side service time (`Response::Ok.nanos`) of each, ns.
    server: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
        self.latencies.extend(other.latencies);
        self.server.extend(other.server);
    }

    /// Send one request and check the answer against `expected`. A
    /// dropped connection is re-opened for the next request.
    fn roundtrip(&mut self, client: &mut Client, addr: &str, request: &Request, expected: u64) {
        self.attempted += 1;
        let started = Instant::now();
        let answer = client.roundtrip(request);
        let nanos = started.elapsed().as_nanos() as u64;
        match answer {
            Ok(Some(Response::Ok {
                digest,
                rung,
                nanos: server,
                ..
            })) => {
                if digest != expected {
                    self.failed += 1;
                    self.incorrect += 1;
                } else if rung != Rung::Linked {
                    // No faults are injected, so a descent is a defect.
                    self.failed += 1;
                } else {
                    self.latencies.push(nanos);
                    self.server.push(server);
                }
            }
            Ok(Some(_)) => self.failed += 1,
            Ok(None) | Err(_) => {
                self.failed += 1;
                if let Ok(fresh) = Client::connect(addr) {
                    *client = fresh;
                }
            }
        }
    }

    fn add_counts_to(&self, outcome: &mut Outcome) {
        outcome.attempted += self.attempted;
        outcome.failed += self.failed;
        outcome.incorrect += self.incorrect;
    }

    /// The daemon's view of the requests: service time, and the client's
    /// remainder (socket, codec, scheduling).
    fn server_metrics(&self) -> Vec<Metric> {
        let server: Samples = self.server.iter().copied().collect();
        let (latency_mean, server_mean) = (mean(&self.latencies), mean(&self.server));
        vec![
            metric("verified_requests", self.latencies.len() as f64, "count"),
            metric("latency_mean_us", latency_mean / 1e3, "us"),
            metric("server_us_p50", server.quantile(0.50) / 1e3, "us"),
            metric("server_us_p99", server.quantile(0.99) / 1e3, "us"),
            metric("server_us_mean", server_mean / 1e3, "us"),
            metric("outside_us", (latency_mean - server_mean) / 1e3, "us"),
        ]
    }
}

/// Cache counters summed over the daemons of a run.
#[derive(Default)]
struct CacheTotals {
    hits: f64,
    misses: f64,
    evictions: f64,
    compiles: f64,
    disk_hits: f64,
}

/// A field of the `cache` section of a daemon snapshot.
fn cache_stat(snapshot: &Json, field: &str) -> f64 {
    snapshot
        .get("cache")
        .and_then(|c| c.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

impl CacheTotals {
    /// Add one daemon's final snapshot.
    fn add(&mut self, snapshot: &Json) {
        self.hits += cache_stat(snapshot, "hits");
        self.misses += cache_stat(snapshot, "misses");
        self.evictions += cache_stat(snapshot, "evictions");
        self.compiles += cache_stat(snapshot, "compiles");
        self.disk_hits += cache_stat(snapshot, "disk_hits");
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "cache_hit_rate",
                self.hits / (self.hits + self.misses).max(1.0),
                "ratio",
            ),
            metric("cache_compiles", self.compiles, "count"),
            metric("cache_evictions", self.evictions, "count"),
            metric("disk_hits", self.disk_hits, "count"),
        ]
    }
}

/// Every (structure, variant) request of a catalog and its expected
/// digest, built once per run.
pub struct Prepared {
    /// The structures.
    pub entries: Vec<Entry>,
    /// `requests[structure][variant]`.
    pub requests: Vec<Vec<Request>>,
    /// `expected[structure][variant]`.
    pub expected: Vec<Vec<u64>>,
}

/// Build the catalog of `p.workload` with its requests and answers.
pub fn prepare(p: &Params) -> Prepared {
    let entries = catalog(p.workload, p.seed);
    let requests = entries
        .iter()
        .map(|e| (0..VARIANTS).map(|v| e.request(v)).collect())
        .collect();
    let expected = entries
        .iter()
        .map(|e| (0..VARIANTS).map(|v| e.expected(v)).collect())
        .collect();
    Prepared {
        entries,
        requests,
        expected,
    }
}

/// Compile `entry`'s plan; `counts` collects the compiler's counters.
fn compile(entry: &Entry, counts: &mut MetricsRegistry) -> CompiledPlan {
    compile_plan_traced(&entry.inst, entry.algorithm, entry.compress, counts)
        .expect("catalog plans compile")
}

/// Summed rounds and messages of the compiled schedules, before
/// compression, from the compiler's `schedule.*` counters. Compression
/// keeps the messages, but its round count follows the order of
/// transfers within the compiler's rounds, which comes from hash-map
/// iteration and so differs between processes (by a round, on a few
/// two-phase plans); the compiled schedule's count does not.
fn compiled_totals(counts: &MetricsRegistry) -> (f64, f64) {
    let total = |name| counts.counter_value(name).unwrap_or(0) as f64;
    (total("schedule.rounds"), total("schedule.messages"))
}

/// A daemon set up for one slice, with its connections.
struct Daemon {
    handle: ServerHandle,
    addr: String,
    clients: Vec<Client>,
}

/// A slice's set-up: start a daemon, connect, and warm its cache with the
/// most popular structures that fit, so the slice opens in steady state.
fn serve_setup(p: &Params, prepared: &Prepared, warm: &mut Tally) -> Daemon {
    let handle = start(daemon_config(p.workload, None));
    let addr = handle.addr().to_string();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(&addr).expect("connect to the in-process daemon"))
        .collect();
    for idx in warm_order(prepared.entries.len(), p.workload.cache_capacity()) {
        warm.roundtrip(
            &mut clients[0],
            &addr,
            &prepared.requests[idx][0],
            prepared.expected[idx][0],
        );
    }
    Daemon {
        handle,
        addr,
        clients,
    }
}

/// Every client sends the first `requests` of its request sequence;
/// returns the merged tally and the elapsed time.
fn closed_loop(
    p: &Params,
    prepared: &Prepared,
    daemon: &mut Daemon,
    requests: usize,
) -> (Tally, Duration) {
    let started = Instant::now();
    let addr = daemon.addr.as_str();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let threads: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut stream = Requests::new(p.workload, prepared.entries.len(), c as u64);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for _ in 0..requests {
                        let (idx, v) = stream.next_request();
                        tally.roundtrip(
                            client,
                            addr,
                            &prepared.requests[idx][v],
                            prepared.expected[idx][v],
                        );
                    }
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut merged = Tally::default();
    for t in tallies {
        merged.merge(t);
    }
    (merged, elapsed)
}

/// serve-hot and serve-churn: in every slice, a fresh warmed daemon and
/// closed-loop clients over the wire, every answer's digest verified.
fn serve_window(p: &Params) -> Outcome {
    let prepared = prepare(p);
    let mut slices = Slices::default();
    let mut warm = Tally::default();
    let mut window = Tally::default();
    let mut cache = CacheTotals::default();
    while slices.more(p) {
        let started = Instant::now();
        let mut daemon = serve_setup(p, &prepared, &mut warm);
        slices.setup.push(started.elapsed().as_secs_f64());
        let (tally, elapsed) = closed_loop(p, &prepared, &mut daemon, p.slice_ops());
        slices.record(p, tally.latencies.len() as u64, elapsed, &tally.latencies);
        window.merge(tally);
        drop(daemon.clients);
        cache.add(&stop(daemon.handle));
    }
    let mut counts = MetricsRegistry::new();
    for entry in &prepared.entries {
        compile(entry, &mut counts);
    }

    let mut outcome = Outcome::default();
    warm.add_counts_to(&mut outcome);
    window.add_counts_to(&mut outcome);
    outcome.metrics = slices.metrics(median(&slices.setup), compiled_totals(&counts));
    outcome.extra = window.server_metrics();
    outcome.extra.extend(cache.metrics());
    outcome
}

/// The store-restart set-up result: a plan store holding every catalog
/// plan.
pub struct Published {
    /// Requests and answers.
    pub prepared: Prepared,
    /// The store's root directory.
    pub root: PathBuf,
    /// Summed compiled rounds and messages (see [`compiled_totals`]).
    pub totals: (f64, f64),
}

/// Compile every store-restart plan and publish it to a fresh store.
pub fn publish(p: &Params) -> Published {
    let prepared = prepare(p);
    let root = p.scratch.join("store");
    let _ = std::fs::remove_dir_all(&root);
    let store = PlanStore::open(&root).expect("create the plan store");
    let mut counts = MetricsRegistry::new();
    for entry in &prepared.entries {
        let plan = compile(entry, &mut counts);
        store.save(entry.key(), &plan).expect("publish a plan");
    }
    Published {
        prepared,
        root,
        totals: compiled_totals(&counts),
    }
}

/// One restart: a fresh daemon over the store, every structure requested
/// once (value set `variant`) across the connections, which then close
/// before shutdown. Returns the time from `serve()` until every structure
/// was answered, and the daemon's final snapshot.
fn restart_cycle(published: &Published, variant: usize, tally: &mut Tally) -> (Duration, Json) {
    let prepared = &published.prepared;
    let started = Instant::now();
    let handle = start(daemon_config(
        Workload::StoreRestart,
        Some(published.root.clone()),
    ));
    let addr = handle.addr().to_string();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the fresh daemon");
                    let mut t = Tally::default();
                    for idx in (c..prepared.entries.len()).step_by(CONNECTIONS) {
                        t.roundtrip(
                            &mut client,
                            addr,
                            &prepared.requests[idx][variant],
                            prepared.expected[idx][variant],
                        );
                    }
                    t
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let ready = started.elapsed();
    for t in tallies {
        tally.merge(t);
    }
    (ready, stop(handle))
}

/// store-restart: restart cycles over a warm plan store for the window.
fn store_restart(p: &Params, setups: usize) -> Outcome {
    let (published, setup_s) = repeated_setup(setups, || publish(p));
    let structures = published.prepared.entries.len() as f64;
    let mut slices = Slices::default();
    let mut tally = Tally::default();
    let mut cache = CacheTotals::default();
    let mut cycles = 0usize;
    while slices.more(p) {
        let started = Instant::now();
        let mut ready = Vec::new();
        for _ in 0..p.slice_ops() {
            let (time, snapshot) = restart_cycle(&published, cycles % VARIANTS, &mut tally);
            ready.push(time.as_nanos() as u64);
            cycles += 1;
            cache.add(&snapshot);
            // Every first touch must be answered from disk; one that was
            // not (it compiled) is a failed operation.
            tally.failed += (structures - cache_stat(&snapshot, "disk_hits")).max(0.0) as u64;
        }
        slices.record(p, ready.len() as u64, started.elapsed(), &ready);
    }

    let mut outcome = Outcome::default();
    tally.add_counts_to(&mut outcome);
    outcome.metrics = slices.metrics(setup_s, published.totals);
    outcome.extra = vec![metric("cycles", cycles as f64, "count")];
    outcome.extra.extend(tally.server_metrics());
    outcome.extra.extend(cache.metrics());
    outcome
}

/// The batch-n1024 set-up result.
pub struct BatchSetup {
    /// The one structure.
    pub entry: Entry,
    /// A cache holding its compiled, linted plan.
    pub cache: ScheduleCache,
    /// Rounds every member must execute: the plan's.
    pub executed_rounds: usize,
    /// Messages every member must deliver: the plan's.
    pub messages: usize,
    /// Compiled rounds and messages (see [`compiled_totals`]).
    pub totals: (f64, f64),
}

/// Compile the n = 1024 plan into a fresh cache.
pub fn batch_setup(p: &Params) -> BatchSetup {
    let entry = catalog(p.workload, p.seed)
        .pop()
        .expect("batch-n1024 has one structure");
    let mut cache = ScheduleCache::new(p.workload.cache_capacity());
    let mut counts = MetricsRegistry::new();
    let plan = cache
        .get_or_compile_traced(&entry.inst, entry.algorithm, entry.compress, &mut counts)
        .expect("the n = 1024 plan compiles and passes lint");
    BatchSetup {
        executed_rounds: plan.linked.rounds(),
        messages: plan.linked.messages(),
        entry,
        cache,
        totals: compiled_totals(&counts),
    }
}

/// Count one batch's members into `outcome`: each must verify and run
/// exactly the plan's rounds and messages. Returns the verified members.
pub fn check_batch(
    result: Result<Vec<RunReport>, ServeError>,
    k: usize,
    setup: &BatchSetup,
    outcome: &mut Outcome,
) -> u64 {
    outcome.attempted += k as u64;
    let Ok(reports) = result else {
        outcome.failed += k as u64;
        return 0;
    };
    let good = reports
        .iter()
        .filter(|r| r.correct && r.rounds == setup.executed_rounds && r.messages == setup.messages)
        .count() as u64;
    let bad = k as u64 - good;
    outcome.failed += bad;
    outcome.incorrect += bad;
    good
}

/// Value seeds of the two batches of one batch-n1024 operation.
pub fn batch_seeds(rng: &mut StdRng) -> (Vec<u64>, Vec<u64>) {
    let seq = (0..SEQ_K).map(|_| rng.gen()).collect();
    let packed = (0..PACKED_K).map(|_| rng.gen()).collect();
    (seq, packed)
}

/// batch-n1024: alternate a sequential and a packed batch for the window.
fn batch(p: &Params, setups: usize) -> Outcome {
    let (mut s, setup_s) = repeated_setup(setups, || batch_setup(p));
    let (inst, algorithm, compress) = (s.entry.inst.clone(), s.entry.algorithm, s.entry.compress);
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut slices = Slices::default();
    let mut outcome = Outcome::default();
    let (mut seq_nanos, mut packed_nanos) = (0u64, 0u64);
    let (mut seq_members, mut packed_members) = (0u64, 0u64);
    while slices.more(p) {
        let started = Instant::now();
        let mut pairs = Vec::new();
        let mut members = 0;
        for _ in 0..p.slice_ops() {
            let (seq_seeds, packed_seeds) = batch_seeds(&mut rng);
            let t0 = Instant::now();
            let seq = run_batch::<Fp>(
                &mut s.cache,
                &inst,
                algorithm,
                &seq_seeds,
                compress,
                BatchMode::Sequential,
            );
            let t1 = Instant::now();
            let packed = run_batch::<Fp>(
                &mut s.cache,
                &inst,
                algorithm,
                &packed_seeds,
                compress,
                BatchMode::Packed { lanes: 0 },
            );
            let t2 = Instant::now();
            seq_nanos += (t1 - t0).as_nanos() as u64;
            packed_nanos += (t2 - t1).as_nanos() as u64;
            pairs.push((t2 - t0).as_nanos() as u64);
            let seq = check_batch(seq, SEQ_K, &s, &mut outcome);
            let packed = check_batch(packed, PACKED_K, &s, &mut outcome);
            seq_members += seq;
            packed_members += packed;
            members += seq + packed;
        }
        slices.record(p, members, started.elapsed(), &pairs);
    }
    let stats = s.cache.stats();

    outcome.metrics = slices.metrics(setup_s, s.totals);
    outcome.extra = vec![
        metric(
            "seq_members_per_s",
            seq_members as f64 / (seq_nanos as f64 / 1e9),
            "1/s",
        ),
        metric(
            "packed_members_per_s",
            packed_members as f64 / (packed_nanos as f64 / 1e9),
            "1/s",
        ),
        metric("cache_hit_rate", stats.hit_rate(), "ratio"),
        metric("cache_compiles", stats.compiles as f64, "count"),
        metric("cache_evictions", stats.evictions as f64, "count"),
    ];
    outcome
}
