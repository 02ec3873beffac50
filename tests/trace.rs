//! Integration tests for the observability layer: the traced pipeline must
//! agree bit-for-bit with the schedule-level ground truth, the Chrome trace
//! the flight recorder writes must be structurally valid, and the no-op
//! tracer must not change results.

use lowband::core::{run_algorithm, run_algorithm_traced, Algorithm, Instance};
use lowband::matrix::{gen, Fp};
use lowband::model::trace::flight::FlightKind;
use lowband::model::trace::json;
use lowband::model::trace::{FlightRecorder, Json, MetricsRegistry, NoopTracer};
use rand::SeedableRng;

fn workload(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    )
}

/// The MetricsRegistry snapshot of a run agrees bit-for-bit with the
/// schedule-level totals the report carries (ISSUE acceptance criterion).
#[test]
fn metrics_snapshot_matches_schedule_totals() {
    let inst = workload(64, 4, 7);
    let mut metrics = MetricsRegistry::new();
    let report =
        run_algorithm_traced::<Fp, _>(&inst, Algorithm::BoundedTriangles, 42, false, &mut metrics)
            .unwrap();
    assert!(report.correct);

    // Executor-observed totals == report totals == schedule totals.
    assert_eq!(
        metrics.counter_value("run.rounds"),
        Some(report.rounds as u64)
    );
    assert_eq!(
        metrics.counter_value("run.messages"),
        Some(report.messages as u64)
    );
    assert_eq!(
        metrics.counter_value("schedule.rounds"),
        Some(report.rounds as u64)
    );
    assert_eq!(
        metrics.counter_value("schedule.messages"),
        Some(report.messages as u64)
    );
    // The linker sees exactly the messages the executor later delivers.
    assert_eq!(
        metrics.counter_value("link.transfers"),
        Some(report.messages as u64)
    );

    // The same equalities must survive a round-trip through the snapshot
    // JSON (exact u64s, not floats).
    let text = metrics.snapshot_json();
    let parsed = json::parse(&text).expect("snapshot is valid JSON");
    let counters = parsed.get("counters").expect("snapshot has counters");
    assert_eq!(
        counters.get("run.rounds").and_then(Json::as_u64),
        Some(report.rounds as u64)
    );
    assert_eq!(
        counters.get("run.messages").and_then(Json::as_u64),
        Some(report.messages as u64)
    );

    // Histograms observed one entry per round.
    let hist = metrics
        .histogram_stats("run.round_messages")
        .expect("round histogram recorded");
    assert_eq!(hist.count, report.rounds as u64);
    assert_eq!(hist.sum, report.messages as u64);

    // Every pipeline phase opened and closed its span exactly once.
    for span in ["compile", "link", "load", "run", "verify"] {
        let stats = metrics.span_stats(span).unwrap_or_else(|| {
            panic!("span {span:?} missing from registry");
        });
        assert_eq!(stats.count, 1, "span {span:?} should close exactly once");
    }
}

/// The Chrome trace of a whole run is well-formed: every span the pipeline
/// enters it exits, innermost first, and a flight recorder large enough to
/// drop nothing renders valid JSON in which every event carries the
/// required keys, timestamps never decrease, and the only instants are the
/// per-round events.
#[test]
fn chrome_trace_is_structurally_valid() {
    let inst = workload(64, 4, 9);
    let mut recorder = FlightRecorder::new(1 << 16);
    let report =
        run_algorithm_traced::<Fp, _>(&inst, Algorithm::BoundedTriangles, 42, true, &mut recorder)
            .unwrap();
    assert!(report.correct);
    assert_eq!(recorder.dropped(), 0, "the ring must hold the whole run");

    // Balance is checked on the recorded events, not the rendered JSON:
    // rendering closes every span still open at the end, so a span the
    // pipeline entered and never exited would balance there.
    let mut open: Vec<&str> = Vec::new();
    for ev in recorder.events() {
        match ev.kind {
            FlightKind::SpanEnter(name) => open.push(name),
            FlightKind::SpanExit(name) => assert_eq!(
                open.pop(),
                Some(name),
                "exit of {name:?} does not close the innermost open span"
            ),
            FlightKind::Round(_) | FlightKind::Fault(..) => {}
        }
    }
    assert!(open.is_empty(), "spans entered and never exited: {open:?}");

    let text = recorder.to_chrome_json("complete", Json::Null).to_compact();
    let parsed = json::parse(&text).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut duration_events = 0usize;
    let mut last_ts = 0u64;
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing {key:?}: {ev:?}");
        }
        let ts = ev.get("ts").and_then(Json::as_u64).expect("integer ts");
        assert!(ts >= last_ts, "timestamps went backwards: {ts} < {last_ts}");
        last_ts = ts;
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        match ev.get("ph").and_then(Json::as_str).expect("ph") {
            "B" | "E" => duration_events += 1,
            "i" => assert_eq!(name, "round", "the only instants are rounds"),
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(duration_events > 0, "no duration events recorded");

    // The pipeline spans appear by name, including the compress phase
    // (enabled above), which runs after link's interning pass on the slot
    // ids it assigned.
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for span in ["compile", "compress", "link", "load", "run", "verify"] {
        assert!(names.contains(span), "span {span:?} absent from trace");
    }
}

/// Tracing with `NoopTracer` is observationally identical to the untraced
/// entry point: same rounds, messages, and verification outcome.
#[test]
fn noop_traced_run_matches_untraced_run() {
    let inst = workload(48, 3, 11);
    let plain = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, 5).unwrap();
    let traced = run_algorithm_traced::<Fp, _>(
        &inst,
        Algorithm::BoundedTriangles,
        5,
        false,
        &mut NoopTracer,
    )
    .unwrap();
    assert_eq!(plain.rounds, traced.rounds);
    assert_eq!(plain.messages, traced.messages);
    assert_eq!(plain.correct, traced.correct);
}

/// Composition: a tuple of sinks sees the same event stream as each sink
/// alone — metrics counted through `(MetricsRegistry, FlightRecorder)`
/// agree with a standalone registry, and the recorder holds one round
/// event per counted round.
#[test]
fn tuple_tracer_forwards_to_both_sinks() {
    let inst = workload(48, 3, 13);
    let mut solo = MetricsRegistry::new();
    run_algorithm_traced::<Fp, _>(&inst, Algorithm::BoundedTriangles, 5, false, &mut solo).unwrap();

    let mut pair = (MetricsRegistry::new(), FlightRecorder::new(1 << 16));
    run_algorithm_traced::<Fp, _>(&inst, Algorithm::BoundedTriangles, 5, false, &mut pair).unwrap();

    for counter in ["run.rounds", "run.messages", "run.local_ops"] {
        assert_eq!(
            pair.0.counter_value(counter),
            solo.counter_value(counter),
            "tuple-forwarded counter {counter:?} diverges"
        );
    }
    assert_eq!(pair.1.dropped(), 0);
    let rounds = pair
        .1
        .events()
        .filter(|e| matches!(e.kind, FlightKind::Round(_)))
        .count() as u64;
    assert_eq!(Some(rounds), solo.counter_value("run.rounds"));
}
