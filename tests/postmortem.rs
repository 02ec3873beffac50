//! End-to-end post-mortem: a seeded fault plan plus a no-retry policy
//! aborts a resilient run traced into a flight recorder composed with a
//! metrics registry, and the recorder's dump must land under the results
//! directory as a parseable, balanced Chrome trace carrying the abort
//! reason and the metrics snapshot.
//!
//! Kept as its own test binary: it mutates `LOWBAND_RESULTS_DIR`, which
//! is process-global — and the tests below serialize on [`ENV_LOCK`] so
//! they never see each other's override.

use lowband::core::{run_resilient_traced, Algorithm, Instance, RetryPolicy};
use lowband::matrix::{gen, Fp};
use lowband::model::trace::{json, FlightRecorder, MetricsRegistry, Tracer};
use lowband::model::FaultSpec;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes access to the process-global `LOWBAND_RESULTS_DIR`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn aborted_run_dumps_a_parseable_postmortem() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("lowband-postmortem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("LOWBAND_RESULTS_DIR", &dir);

    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let inst = Instance::new(
        gen::uniform_sparse(64, 4, &mut rng),
        gen::uniform_sparse(64, 4, &mut rng),
        gen::uniform_sparse(64, 4, &mut rng),
    );
    // Heavy seeded faults + zero retries: the first detected failure
    // aborts the run instead of rolling back.
    let spec = FaultSpec {
        seed: 0xDEAD,
        drop_rate: 0.3,
        corrupt_rate: 0.3,
        crash_rate: 0.1,
    };
    let policy = RetryPolicy {
        checkpoint_every: 8,
        max_attempts: 0,
        base_round_budget: 1 << 20,
    };
    let mut recorder = FlightRecorder::new(128);
    let mut metrics = MetricsRegistry::new();
    let result = run_resilient_traced::<Fp, _>(
        &inst,
        Algorithm::BoundedTriangles,
        7,
        &spec,
        policy,
        &mut (&mut recorder, &mut metrics),
    );
    let error = result.expect_err("no-retry policy must abort under faults");
    let reason = format!("{error:?}");
    let extra = json::Json::obj()
        .set("error", reason.as_str())
        .set("metrics", metrics.snapshot());
    let path = recorder
        .dump_postmortem("faulted-run", &reason, extra)
        .expect("abort must produce a post-mortem dump");
    assert!(path.starts_with(dir.join("postmortem")));
    assert!(path
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f.starts_with("faulted-run-") && f.ends_with(".trace.json")));

    // The dump parses and is a structurally valid Chrome trace.
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = json::parse(&text).expect("dump is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), count("E"), "span stream balances");
    let other = doc.get("otherData").expect("otherData");
    assert!(other
        .get("reason")
        .and_then(|v| v.as_str())
        .is_some_and(|r| !r.is_empty()));
    // The caller-supplied metrics snapshot rode along.
    assert!(other.get("metrics").is_some());

    std::env::remove_var("LOWBAND_RESULTS_DIR");
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent aborts must never collide on a dump filename (ISSUE 9
/// satellite): the sequence counter is one process-wide atomic shared by
/// every recorder, and the dump directory is created race-safely even
/// when many workers abort at once into a directory that does not exist
/// yet.
#[test]
fn concurrent_aborts_dump_to_distinct_files() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!(
        "lowband-postmortem-concurrent-{}",
        std::process::id()
    ));
    // Deliberately do NOT pre-create the directory: the racing dumpers
    // must create `<dir>/postmortem` themselves without tripping over
    // each other.
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("LOWBAND_RESULTS_DIR", &dir);

    const WORKERS: usize = 8;
    const DUMPS_PER_WORKER: usize = 4;
    let paths: Vec<std::path::PathBuf> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(DUMPS_PER_WORKER);
                    for i in 0..DUMPS_PER_WORKER {
                        // Each worker has its own recorder — the only
                        // shared state is the process-wide counter.
                        let mut recorder = FlightRecorder::new(16);
                        recorder.span_enter("abort");
                        recorder.span_exit("abort");
                        let extra = json::Json::obj()
                            .set("worker", w as u64)
                            .set("iteration", i as u64);
                        let path = recorder
                            .dump_postmortem("worker-abort", "simulated abort", extra)
                            .expect("dump must succeed under contention");
                        out.push(path);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("dump worker"))
            .collect()
    });

    // Every dump landed at a distinct path, under the shared postmortem
    // dir, with the label prefix; all of them parse.
    assert_eq!(paths.len(), WORKERS * DUMPS_PER_WORKER);
    let unique: std::collections::HashSet<_> = paths.iter().collect();
    assert_eq!(
        unique.len(),
        paths.len(),
        "filename collision under concurrent aborts: {paths:?}"
    );
    for path in &paths {
        assert!(path.starts_with(dir.join("postmortem")));
        assert!(path
            .file_name()
            .and_then(|f| f.to_str())
            .is_some_and(|f| f.starts_with("worker-abort-") && f.ends_with(".trace.json")));
        let text = std::fs::read_to_string(path).expect("dump file exists");
        let doc = json::parse(&text).expect("dump is valid JSON");
        assert!(doc.get("traceEvents").is_some());
        assert!(doc
            .get("otherData")
            .and_then(|o| o.get("reason"))
            .and_then(|r| r.as_str())
            .is_some_and(|r| r == "simulated abort"));
    }

    std::env::remove_var("LOWBAND_RESULTS_DIR");
    std::fs::remove_dir_all(&dir).ok();
}
