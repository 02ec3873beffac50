//! The traced run: per-layer metrics, and a stage ledger of the
//! workload's operation whose stages must add up to the operation's
//! end-to-end time.
//!
//! Every number here is timed in this file, around calls into the
//! crates' public functions, or read from the spans and counters the
//! crates' existing `_traced` entry points report into a
//! [`MetricsRegistry`]. The program itself gains no instrumentation. A
//! traced run has three parts:
//!
//! 1. **The untraced window** — the same run as `--trace 0`, set up once —
//!    for what only a real daemon shows: server-side service time, the
//!    client-side remainder, and the cache counters.
//! 2. **The lifecycle probe** — every catalog structure once through each
//!    layer's function: triangle enumeration, compile/compress/link,
//!    admission lint, binser encode, plan-store save, file read, binser
//!    decode, and the request path (wire encode and decode, instance
//!    rebuild, key hash, digest, response encode). It gives every layer a
//!    number on every workload, including layers the workload's timed
//!    operation does not pass through.
//! 3. **The replay** — the workload's own operation sequence from the same
//!    seed, single-threaded and in-process: first untraced, then traced
//!    over the same operations. The traced pass is the ledger; the ratio
//!    of the two passes is the tracing overhead.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use lowband_check::lint_linked_traced;
use lowband_core::{compile_plan_traced, BatchMode, RunReport, Rung, TriangleSet};
use lowband_matrix::{reference_multiply, Fp, SparseMatrix};
use lowband_serve::{
    decode_plan, encode_plan, run_batch_traced, PlanStore, ServeError, StructureKey, Supervisor,
    SupervisorConfig,
};
use lowband_served::{product_digest, Request, Response};
use lowband_trace::{MetricsRegistry, NoopTracer, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::catalog::{warm_order, Entry, Requests, Workload, VARIANTS};
use crate::stats::{metric, Metric, Outcome};
use crate::workloads::{
    self, batch_seeds, batch_setup, check_batch, daemon_config, prepare, publish, BatchSetup,
    Params, Prepared, Published, PACKED_K, SEQ_K,
};

/// The ledger check: stage means must add up to the traced end-to-end
/// mean within this share of it.
const LEDGER_TOLERANCE: f64 = 0.05;

/// Calls per request-path function in the lifecycle probe: these take
/// microseconds, so one call would sit close to the clock's resolution.
const REPS: u64 = 16;

/// Wall time summed per named stage, in first-seen order.
#[derive(Default)]
struct Stages(Vec<(&'static str, u64)>);

impl Stages {
    fn add(&mut self, stage: &'static str, nanos: u64) {
        match self.0.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, total)) => *total += nanos,
            None => self.0.push((stage, nanos)),
        }
    }

    fn get(&self, stage: &str) -> u64 {
        self.0
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0, |&(_, t)| t)
    }

    fn total(&self) -> u64 {
        self.0.iter().map(|&(_, t)| t).sum()
    }
}

/// Times an operation's stages when on; runs them bare when off (the
/// untraced replay pass).
struct Clock {
    on: bool,
    stages: Stages,
}

impl Clock {
    fn new(on: bool) -> Clock {
        Clock {
            on,
            stages: Stages::default(),
        }
    }

    fn time<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let result = f();
        self.stages.add(stage, started.elapsed().as_nanos() as u64);
        result
    }

    /// Call `f` [`REPS`] times under `stage`; returns the last result.
    fn repeat<R>(&mut self, stage: &'static str, mut f: impl FnMut() -> R) -> R {
        self.time(stage, || {
            for _ in 1..REPS {
                black_box(f());
            }
            f()
        })
    }
}

/// Per-structure cost of each layer over a catalog.
struct Lifecycle {
    structures: u64,
    stages: Stages,
    /// `compile`, `compress`, `link` and `check.lint_linked` spans.
    spans: MetricsRegistry,
    file_bytes: u64,
    failed: u64,
}

/// The reference product of value set `variant` — what a correct run
/// writes, and what the daemon digests.
fn reference_product(entry: &Entry, variant: usize) -> SparseMatrix<Fp> {
    let mut rng = StdRng::seed_from_u64(entry.seeds[variant]);
    let a: SparseMatrix<Fp> = SparseMatrix::randomize(entry.inst.ahat.clone(), &mut rng);
    let b: SparseMatrix<Fp> = SparseMatrix::randomize(entry.inst.bhat.clone(), &mut rng);
    reference_multiply(&a, &b, &entry.inst.xhat)
}

fn lifecycle(entries: &[Entry], root: &Path) -> Lifecycle {
    let _ = std::fs::remove_dir_all(root);
    let store = PlanStore::open(root).expect("create the probe's plan store");
    let mut spans = MetricsRegistry::new();
    let mut clock = Clock::new(true);
    let (mut file_bytes, mut failed) = (0, 0);
    for entry in entries {
        black_box(clock.time("core.triangles", || TriangleSet::enumerate(&entry.inst)));
        let plan = compile_plan_traced(&entry.inst, entry.algorithm, entry.compress, &mut spans)
            .expect("catalog plans compile");
        let lint = lint_linked_traced(&plan.schedule, &plan.linked, &mut spans);
        failed += u64::from(lint.errors().next().is_some());
        let key = entry.key();
        black_box(clock.time("binser.encode", || encode_plan(key.as_u128(), &plan)));
        file_bytes += clock
            .time("disk.save", || store.save(key, &plan))
            .expect("publish a plan");
        let bytes = clock
            .time("disk.read", || std::fs::read(store.path_for(key)))
            .expect("read a published plan");
        let decoded = clock.time("binser.decode", || decode_plan(&bytes));
        failed += u64::from(!matches!(decoded, Ok((k, _)) if k == key.as_u128()));

        let request = entry.request(0);
        let payload = clock.repeat("wire.encode", || request.encode());
        let Ok(Request::Execute(req)) = clock.repeat("wire.decode", || Request::decode(&payload))
        else {
            failed += 1;
            continue;
        };
        black_box(clock.repeat("wire.instance", || req.instance()));
        black_box(clock.repeat("serve.key", || {
            StructureKey::of(&entry.inst, entry.algorithm, entry.compress)
        }));
        let product = reference_product(entry, 0);
        let digest = clock.repeat("served.digest", || product_digest(&product));
        let response = Response::Ok {
            digest,
            rung: Rung::Linked,
            descents: 0,
            quarantined: false,
            nanos: 0,
        };
        black_box(clock.repeat("wire.response_encode", || response.encode()));
    }
    Lifecycle {
        structures: entries.len() as u64,
        stages: clock.stages,
        spans,
        file_bytes,
        failed,
    }
}

/// A replay's accounting.
struct Ledger {
    /// What one operation is.
    unit: &'static str,
    /// Operations replayed, once untraced and once traced.
    ops: u64,
    /// Plan executions inside them: requests, or batch members.
    executions: u64,
    /// Wall time of the untraced pass, ns.
    untraced: u64,
    /// Wall time of the traced pass, ns.
    traced: u64,
    /// Stage times of the traced pass.
    stages: Stages,
    /// The crates' spans, filed under the stage that reported them.
    spans: Vec<(&'static str, MetricsRegistry)>,
    /// Operation counts of both passes.
    counts: Outcome,
}

impl Ledger {
    fn new(unit: &'static str) -> Ledger {
        Ledger {
            unit,
            ops: 0,
            executions: 0,
            untraced: 0,
            traced: 0,
            stages: Stages::default(),
            spans: Vec::new(),
            counts: Outcome::default(),
        }
    }

    /// |Σ stages − end-to-end| / end-to-end over the traced pass.
    fn gap(&self) -> f64 {
        (self.stages.total() as f64 - self.traced as f64).abs() / self.traced as f64
    }

    /// Summed nanoseconds of one span name across the registries.
    fn span_nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter_map(|(_, r)| r.span_stats(name))
            .map(|s| s.nanos)
            .sum()
    }
}

/// Time `op` and add it to `total`.
fn timed<R>(total: &mut u64, op: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let result = op();
    *total += started.elapsed().as_nanos() as u64;
    result
}

/// One request through the daemon's path, in-process: what the client
/// encodes, what a worker decodes and rebuilds, the supervised run, the
/// digest, and the response both ways (`server::execute_typed` without
/// the socket and the lock). Returns the answer's digest and rung.
fn serve_op<T: Tracer>(
    sup: &mut Supervisor,
    request: &Request,
    clock: &mut Clock,
    tracer: &mut T,
) -> Option<(u64, Rung)> {
    let payload = clock.time("wire.encode", || request.encode());
    let Ok(Request::Execute(req)) = clock.time("wire.decode", || Request::decode(&payload)) else {
        return None;
    };
    let inst = clock.time("wire.instance", || req.instance());
    let mut out = clock.time("served.output_alloc", || {
        SparseMatrix::<Fp>::zeros(inst.xhat.clone())
    });
    let outcome = clock.time("serve.supervised", || {
        sup.run_supervised_traced::<Fp, _>(
            &inst,
            req.algorithm,
            req.seed,
            req.compress,
            &req.fault_spec(),
            Some(&mut out),
            tracer,
        )
    });
    let Ok(report) = &outcome.result else {
        return None;
    };
    let digest = clock.time("served.digest", || product_digest(&out));
    let response = Response::Ok {
        digest,
        rung: report.rung,
        descents: outcome.descents as u32,
        quarantined: outcome.quarantined,
        nanos: 0,
    };
    let bytes = clock.time("wire.response_encode", || response.encode());
    let answer = clock.time("wire.response_decode", || Response::decode(&bytes));
    // What the worker frees once the response is written.
    clock.time("served.release", || {
        drop((payload, req, inst, out, outcome, bytes))
    });
    match answer {
        Ok(Response::Ok { digest, rung, .. }) => Some((digest, rung)),
        _ => None,
    }
}

/// Count one replayed request: a wrong digest is incorrect, a refusal or
/// a descent below the linked rung is failed.
fn count(counts: &mut Outcome, answer: Option<(u64, Rung)>, expected: u64) {
    counts.attempted += 1;
    match answer {
        Some((digest, _)) if digest != expected => {
            counts.failed += 1;
            counts.incorrect += 1;
        }
        Some((_, Rung::Linked)) => {}
        _ => counts.failed += 1,
    }
}

/// serve-hot and serve-churn: two supervisors configured like the daemon
/// and warmed like its set-up, one per pass, so both passes meet the
/// same cache states.
fn replay_serving(p: &Params, prepared: &Prepared, budget: Duration) -> Ledger {
    let mut ledger = Ledger::new("request");
    let config = daemon_config(p.workload, None).supervisor;
    let [mut bare, mut traced] = [config.clone(), config].map(Supervisor::new);
    for sup in [&mut bare, &mut traced] {
        for idx in warm_order(prepared.entries.len(), p.workload.cache_capacity()) {
            let answer = serve_op(
                sup,
                &prepared.requests[idx][0],
                &mut Clock::new(false),
                &mut NoopTracer,
            );
            count(&mut ledger.counts, answer, prepared.expected[idx][0]);
        }
    }
    let mut stream = Requests::new(p.workload, prepared.entries.len(), 0);
    let mut ops = Vec::new();
    let started = Instant::now();
    while ops.is_empty() || started.elapsed() < budget {
        let (idx, v) = stream.next_request();
        let answer = timed(&mut ledger.untraced, || {
            serve_op(
                &mut bare,
                &prepared.requests[idx][v],
                &mut Clock::new(false),
                &mut NoopTracer,
            )
        });
        count(&mut ledger.counts, answer, prepared.expected[idx][v]);
        ops.push((idx, v));
    }
    let mut clock = Clock::new(true);
    let mut spans = MetricsRegistry::new();
    for &(idx, v) in &ops {
        let answer = timed(&mut ledger.traced, || {
            serve_op(
                &mut traced,
                &prepared.requests[idx][v],
                &mut clock,
                &mut spans,
            )
        });
        count(&mut ledger.counts, answer, prepared.expected[idx][v]);
    }
    ledger.ops = ops.len() as u64;
    ledger.executions = ledger.ops;
    ledger.stages = clock.stages;
    ledger.spans = vec![("serve.supervised", spans)];
    ledger
}

type Answers = Vec<Option<(u64, Rung)>>;

/// One restart cycle in-process: the daemon's fresh supervisor over the
/// store, then every structure once. Returns the supervisor, so its plans
/// are freed after the cycle's time is taken (as the daemon frees them
/// after it was ready), and the answers.
fn restart_op<T: Tracer>(
    config: &SupervisorConfig,
    prepared: &Prepared,
    variant: usize,
    clock: &mut Clock,
    tracer: &mut T,
) -> (Supervisor, Answers) {
    let mut sup = clock.time("served.start", || Supervisor::new(config.clone()));
    let answers = prepared
        .requests
        .iter()
        .map(|requests| serve_op(&mut sup, &requests[variant], clock, tracer))
        .collect();
    (sup, answers)
}

/// Count a replayed restart cycle: every answer, and every first touch
/// that was not a disk hit.
fn count_cycle(
    counts: &mut Outcome,
    prepared: &Prepared,
    variant: usize,
    (sup, answers): (Supervisor, Answers),
) {
    for (answer, expected) in answers.into_iter().zip(&prepared.expected) {
        count(counts, answer, expected[variant]);
    }
    let hits = sup.cache().stats().disk_hits;
    counts.failed += (prepared.entries.len() as u64).saturating_sub(hits);
}

/// store-restart: restart cycles over the published store.
fn replay_store(p: &Params, published: &Published, budget: Duration) -> Ledger {
    let mut ledger = Ledger::new("restart cycle");
    let prepared = &published.prepared;
    let config = daemon_config(p.workload, Some(published.root.clone())).supervisor;
    let mut cycles = Vec::new();
    let started = Instant::now();
    while cycles.is_empty() || started.elapsed() < budget {
        let variant = cycles.len() % VARIANTS;
        let cycle = timed(&mut ledger.untraced, || {
            restart_op(
                &config,
                prepared,
                variant,
                &mut Clock::new(false),
                &mut NoopTracer,
            )
        });
        count_cycle(&mut ledger.counts, prepared, variant, cycle);
        cycles.push(variant);
    }
    let mut clock = Clock::new(true);
    let mut spans = MetricsRegistry::new();
    for &variant in &cycles {
        let cycle = timed(&mut ledger.traced, || {
            restart_op(&config, prepared, variant, &mut clock, &mut spans)
        });
        count_cycle(&mut ledger.counts, prepared, variant, cycle);
    }
    ledger.ops = cycles.len() as u64;
    ledger.executions = ledger.ops * prepared.entries.len() as u64;
    ledger.stages = clock.stages;
    ledger.spans = vec![("serve.supervised", spans)];
    ledger
}

type BatchResult = Result<Vec<RunReport>, ServeError>;

/// One batch-n1024 operation: a sequential batch, then a packed one.
fn batch_op<A: Tracer, B: Tracer>(
    setup: &mut BatchSetup,
    (seq, packed): &(Vec<u64>, Vec<u64>),
    clock: &mut Clock,
    seq_tracer: &mut A,
    packed_tracer: &mut B,
) -> (BatchResult, BatchResult) {
    let BatchSetup { entry, cache, .. } = setup;
    let (inst, algorithm, compress) = (&entry.inst, entry.algorithm, entry.compress);
    let seq = clock.time("serve.run_batch.seq", || {
        run_batch_traced::<Fp, _>(
            cache,
            inst,
            algorithm,
            seq,
            compress,
            BatchMode::Sequential,
            seq_tracer,
        )
    });
    let packed = clock.time("serve.run_batch.packed", || {
        let mode = BatchMode::Packed { lanes: 0 };
        run_batch_traced::<Fp, _>(
            cache,
            inst,
            algorithm,
            packed,
            compress,
            mode,
            packed_tracer,
        )
    });
    (seq, packed)
}

/// batch-n1024: sequential/packed pairs through the compiled plan.
fn replay_batch(p: &Params, setup: &mut BatchSetup, budget: Duration) -> Ledger {
    let mut ledger = Ledger::new("batch pair");
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut pairs = Vec::new();
    let started = Instant::now();
    while pairs.is_empty() || started.elapsed() < budget {
        let seeds = batch_seeds(&mut rng);
        let (seq, packed) = timed(&mut ledger.untraced, || {
            batch_op(
                setup,
                &seeds,
                &mut Clock::new(false),
                &mut NoopTracer,
                &mut NoopTracer,
            )
        });
        check_batch(seq, SEQ_K, setup, &mut ledger.counts);
        check_batch(packed, PACKED_K, setup, &mut ledger.counts);
        pairs.push(seeds);
    }
    let mut clock = Clock::new(true);
    let (mut seq_spans, mut packed_spans) = (MetricsRegistry::new(), MetricsRegistry::new());
    for seeds in &pairs {
        let (seq, packed) = timed(&mut ledger.traced, || {
            batch_op(setup, seeds, &mut clock, &mut seq_spans, &mut packed_spans)
        });
        check_batch(seq, SEQ_K, setup, &mut ledger.counts);
        check_batch(packed, PACKED_K, setup, &mut ledger.counts);
    }
    ledger.ops = pairs.len() as u64;
    ledger.executions = ledger.ops * (SEQ_K + PACKED_K) as u64;
    ledger.stages = clock.stages;
    ledger.spans = vec![
        ("serve.run_batch.seq", seq_spans),
        ("serve.run_batch.packed", packed_spans),
    ];
    ledger
}

/// Spans the crates report inside a serving or batch stage.
const CHILD_SPANS: [&str; 7] = [
    "compile",
    "compress",
    "link",
    "check.lint_linked",
    "load",
    "run",
    "verify",
];

/// Print the ledger: top-level stages (which must add up), the crates'
/// spans under the stage that reported them, and the stage's self time.
fn print_ledger(workload: Workload, ledger: &Ledger, life: &Lifecycle, window: &Outcome) {
    let ops = ledger.ops as f64;
    let us = |nanos: u64| nanos as f64 / ops / 1e3;
    let traced = ledger.traced as f64;
    println!(
        "# ledger {} — {} {}(s) replayed in-process on one thread; mean µs per {}",
        workload.name(),
        ledger.ops,
        ledger.unit,
        ledger.unit
    );
    for &(stage, nanos) in &ledger.stages.0 {
        println!(
            "#   {stage:<30} {:>12.3} {:>6.1}%",
            us(nanos),
            100.0 * nanos as f64 / traced
        );
        if let Some((_, spans)) = ledger.spans.iter().find(|(s, _)| *s == stage) {
            let mut children = 0;
            for name in CHILD_SPANS {
                if let Some(s) = spans.span_stats(name) {
                    children += s.nanos;
                    println!("#     {name:<28} {:>12.3} ({} calls)", us(s.nanos), s.count);
                }
            }
            println!(
                "#     {:<28} {:>12.3}",
                "self (the rest)",
                us(nanos.saturating_sub(children))
            );
            if workload == Workload::StoreRestart {
                let load = ["disk.read", "binser.decode"]
                    .map(|s| life.stages.get(s))
                    .iter()
                    .sum::<u64>()
                    + life
                        .spans
                        .span_stats("check.lint_linked")
                        .map_or(0, |s| s.nanos);
                println!(
                    "#       {:<26} {:>12.3}   (read + decode + admission lint, from the lifecycle probe)",
                    "of which plan-store loads",
                    load as f64 / life.structures as f64 * (ledger.executions as f64 / ops) / 1e3
                );
            }
        }
    }
    let sum = ledger.stages.total();
    println!("#   {:<30} {:>12.3}", "sum of stages", us(sum));
    println!(
        "#   {:<30} {:>12.3}   gap {:.2}% (check: within {:.0}%)",
        "traced end-to-end",
        us(ledger.traced),
        100.0 * ledger.gap(),
        100.0 * LEDGER_TOLERANCE
    );
    println!(
        "#   {:<30} {:>12.3}   tracing overhead ×{:.4}",
        "untraced end-to-end, same ops",
        us(ledger.untraced),
        traced / ledger.untraced as f64
    );
    if let (Some(latency), Some(server)) =
        (window.get("latency_mean_us"), window.get("server_us_mean"))
    {
        println!(
            "#   over the wire (untraced window): client latency {latency:.3} µs = server {server:.3} µs + outside {:.3} µs per request",
            latency - server
        );
    }
}

/// Per-layer metrics common to every workload.
fn per_layer(life: &Lifecycle, ledger: &Ledger, window: &Outcome) -> Vec<Metric> {
    let per_structure = |stage| life.stages.get(stage) as f64 / life.structures as f64;
    let per_call = |stage| per_structure(stage) / REPS as f64;
    let span_mean = |name| {
        life.spans
            .span_stats(name)
            .map_or(0.0, |s| s.nanos as f64 / s.count as f64)
    };
    let per_execution = |name| ledger.span_nanos(name) as f64 / ledger.executions as f64;
    let (round_sum, round_count) = ledger
        .spans
        .iter()
        .filter_map(|(_, r)| r.histogram_stats("run.round_nanos"))
        .fold((0u64, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    let stat = |name| window.get(name).unwrap_or(0.0);
    vec![
        metric(
            "core.triangles_ms",
            per_structure("core.triangles") / 1e6,
            "ms",
        ),
        metric("core.compile_ms", span_mean("compile") / 1e6, "ms"),
        metric("core.compress_ms", span_mean("compress") / 1e6, "ms"),
        metric("core.link_ms", span_mean("link") / 1e6, "ms"),
        metric("check.lint_ms", span_mean("check.lint_linked") / 1e6, "ms"),
        metric(
            "binser.encode_ms",
            per_structure("binser.encode") / 1e6,
            "ms",
        ),
        metric("disk.save_ms", per_structure("disk.save") / 1e6, "ms"),
        metric("disk.read_ms", per_structure("disk.read") / 1e6, "ms"),
        metric(
            "binser.decode_ms",
            per_structure("binser.decode") / 1e6,
            "ms",
        ),
        metric(
            "disk.file_bytes",
            life.file_bytes as f64 / life.structures as f64,
            "bytes",
        ),
        metric("wire.encode_us", per_call("wire.encode") / 1e3, "us"),
        metric("wire.decode_us", per_call("wire.decode") / 1e3, "us"),
        metric("wire.instance_us", per_call("wire.instance") / 1e3, "us"),
        metric("serve.key_us", per_call("serve.key") / 1e3, "us"),
        metric("served.digest_us", per_call("served.digest") / 1e3, "us"),
        metric(
            "wire.response_encode_us",
            per_call("wire.response_encode") / 1e3,
            "us",
        ),
        metric("core.load_us", per_execution("load") / 1e3, "us"),
        metric("core.run_us", per_execution("run") / 1e3, "us"),
        metric("core.verify_us", per_execution("verify") / 1e3, "us"),
        metric(
            "run.round_ns_mean",
            round_sum as f64 / round_count.max(1) as f64,
            "ns",
        ),
        metric("serve.cache.hit_rate", stat("cache_hit_rate"), "ratio"),
        metric("serve.cache.compiles", stat("cache_compiles"), "count"),
        metric("serve.cache.evictions", stat("cache_evictions"), "count"),
        metric(
            "trace.overhead_ratio",
            ledger.traced as f64 / ledger.untraced as f64,
            "ratio",
        ),
        metric("ledger.gap_frac", ledger.gap(), "ratio"),
    ]
}

/// Layer metrics only some workloads have: the supervised run and the
/// daemon's view (serving workloads), or the executor split (batch).
fn workload_layers(ledger: &Ledger, window: &Outcome) -> Vec<Metric> {
    let per_exec = |nanos: u64| nanos as f64 / ledger.executions as f64 / 1e3;
    if let Some(supervised) = ledger
        .stages
        .0
        .iter()
        .find(|(s, _)| *s == "serve.supervised")
    {
        let supervised = per_exec(supervised.1);
        let children: u64 = CHILD_SPANS.iter().map(|n| ledger.span_nanos(n)).sum();
        let stat = |name| window.get(name).unwrap_or(0.0);
        let server_mean = stat("server_us_mean");
        return vec![
            metric("serve.supervised_us", supervised, "us"),
            metric(
                "serve.supervise_self_us",
                supervised - per_exec(children),
                "us",
            ),
            metric("served.server_us_p50", stat("server_us_p50"), "us"),
            metric("served.server_us_p99", stat("server_us_p99"), "us"),
            metric("served.outside_us", stat("outside_us"), "us"),
            // Inferred, not measured: the daemon reports service time with
            // the lock wait inside it, and the replay has no lock.
            metric("served.lock_wait_us", server_mean - supervised, "us"),
        ];
    }
    let member = |mode: usize, k: usize, name: &str| {
        let nanos = ledger.spans[mode].1.span_stats(name).map_or(0, |s| s.nanos);
        nanos as f64 / (ledger.ops * k as u64) as f64 / 1e3
    };
    vec![
        metric("core.load_us.seq", member(0, SEQ_K, "load"), "us"),
        metric("core.run_us.seq", member(0, SEQ_K, "run"), "us"),
        metric("core.verify_us.seq", member(0, SEQ_K, "verify"), "us"),
        metric("core.load_us.packed", member(1, PACKED_K, "load"), "us"),
        metric("core.run_us.packed", member(1, PACKED_K, "run"), "us"),
        metric("core.verify_us.packed", member(1, PACKED_K, "verify"), "us"),
    ]
}

/// The traced run of `p.workload`.
pub fn run(p: &Params) -> Outcome {
    let window = workloads::run(p, 1);
    let budget = Duration::from_secs_f64(p.seconds / 4.0);
    let probe_root = p.scratch.join("probe-store");
    let (life, ledger) = match p.workload {
        Workload::ServeHot | Workload::ServeChurn => {
            let prepared = prepare(p);
            (
                lifecycle(&prepared.entries, &probe_root),
                replay_serving(p, &prepared, budget),
            )
        }
        Workload::StoreRestart => {
            let published = publish(p);
            let life = lifecycle(&published.prepared.entries, &probe_root);
            (life, replay_store(p, &published, budget))
        }
        Workload::BatchN1024 => {
            let mut setup = batch_setup(p);
            let life = lifecycle(std::slice::from_ref(&setup.entry), &probe_root);
            (life, replay_batch(p, &mut setup, budget))
        }
    };
    print_ledger(p.workload, &ledger, &life, &window);

    let mut outcome = Outcome::default();
    outcome.add_counts(&window);
    outcome.add_counts(&ledger.counts);
    outcome.attempted += life.structures;
    outcome.failed += life.failed;
    outcome.incorrect += life.failed;
    outcome.metrics = per_layer(&life, &ledger, &window);
    outcome.extra = workload_layers(&ledger, &window);
    outcome.extra.extend(window.metrics);
    if ledger.gap() > LEDGER_TOLERANCE {
        outcome.errors.push(format!(
            "ledger check failed: stages add up to within {:.2}% of the traced end-to-end time, over the {:.0}% tolerance",
            100.0 * ledger.gap(),
            100.0 * LEDGER_TOLERANCE
        ));
    }
    outcome
}
