//! Integration tests for the second-generation observability layer: the
//! flight recorder composes with the metrics registry on a real run and
//! dumps balanced Chrome traces; the percentile surfaces are ordered and
//! within their documented error; the communication budgets hold on
//! verified runs; and the baseline gate round-trips through JSON and
//! catches a synthetic 2× regression.

use lowband::core::budget::DEFAULT_TOLERANCE;
use lowband::core::{run_algorithm, run_algorithm_traced, Algorithm, Instance};
use lowband::matrix::{gen, Fp};
use lowband::model::trace::baseline::{all_pass, gate, probes_from_json, probes_to_json, Probe};
use lowband::model::trace::percentile::{percentiles_section, reservoir_section};
use lowband::model::trace::{FlightRecorder, Json, MetricsRegistry, Reservoir};
use rand::SeedableRng;

fn workload(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    )
}

/// A recorder + registry pair observing one verified run: the recorder
/// retains events, the registry aggregates, and the dump renders as a
/// balanced Chrome trace (every "B" matched by an "E").
#[test]
fn flight_recorder_composes_and_dumps_balanced_chrome_trace() {
    let inst = workload(64, 4, 11);
    let mut recorder = FlightRecorder::new(256);
    let mut metrics = MetricsRegistry::new();
    let report = {
        let mut pair = (&mut recorder, &mut metrics);
        run_algorithm_traced::<Fp, _>(&inst, Algorithm::BoundedTriangles, 5, false, &mut pair)
            .unwrap()
    };
    assert!(report.correct);
    assert!(!recorder.is_empty());
    // The registry saw the same run (aggregates are its job, not the ring's).
    assert_eq!(
        metrics.counter_value("run.rounds"),
        Some(report.rounds as u64)
    );

    let doc = recorder.to_chrome_json("test-reason", Json::obj().set("note", "hello"));
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .to_vec();
    assert!(!events.is_empty());
    let phase_count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(ph))
            .count()
    };
    assert_eq!(phase_count("B"), phase_count("E"), "span stream balances");
    let other = doc.get("otherData").expect("otherData");
    assert_eq!(
        other.get("reason").and_then(|v| v.as_str()),
        Some("test-reason")
    );
    assert_eq!(other.get("note").and_then(|v| v.as_str()), Some("hello"));
}

/// A tiny ring under a big run must overflow gracefully: drops counted,
/// B/E still balanced after orphan repair.
#[test]
fn overflowed_ring_still_renders_balanced() {
    let inst = workload(96, 4, 13);
    let mut recorder = FlightRecorder::new(8);
    run_algorithm_traced::<Fp, _>(&inst, Algorithm::BoundedTriangles, 6, false, &mut recorder)
        .unwrap();
    assert!(recorder.dropped() > 0, "an 8-slot ring must overflow");
    let doc = recorder.to_chrome_json("overflow", Json::Null);
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), count("E"));
}

/// The per-request latency histogram lands in the registry and its
/// percentile summary is ordered with the documented shape.
#[test]
fn percentile_surfaces_are_ordered() {
    let inst = workload(64, 4, 17);
    let mut metrics = MetricsRegistry::new();
    for seed in 0..8u64 {
        run_algorithm_traced::<Fp, _>(
            &inst,
            Algorithm::BoundedTriangles,
            seed,
            false,
            &mut metrics,
        )
        .unwrap();
    }
    let section = percentiles_section(&metrics);
    assert_eq!(
        section.get("method").and_then(|v| v.as_str()),
        Some("log2-bucket-upper-bound")
    );
    let hists = section.get("histograms").expect("histograms");
    let req = hists
        .get("run.request_nanos")
        .expect("run.request_nanos histogram from the traced runner");
    let q = |name: &str| req.get(name).and_then(|v| v.as_u64()).expect(name);
    assert!(q("p50") <= q("p95"));
    assert!(q("p95") <= q("p99"));
    assert!(q("p99") <= q("p999"));
    assert!(q("p999") <= q("max"));
    assert_eq!(req.get("count").and_then(|v| v.as_u64()), Some(8));

    // The exact reservoir agrees with hand-computed nearest-rank values.
    let mut r = Reservoir::new(128);
    for v in 1..=100u64 {
        r.record(v);
    }
    assert_eq!(r.quantile(0.50), Some(50));
    assert_eq!(r.quantile(0.99), Some(99));
    let section = reservoir_section(&[("x", &r)]);
    let x = section.get("histograms").and_then(|h| h.get("x")).unwrap();
    assert_eq!(x.get("exact").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(x.get("p999").and_then(|v| v.as_u64()), Some(100));
}

/// The paper's communication budgets hold on verified runs across the
/// algorithm menu (the tripwire the `budget` sections gate in CI).
#[test]
fn communication_budgets_hold_on_verified_runs() {
    let inst = workload(64, 3, 19);
    for algorithm in [Algorithm::Trivial, Algorithm::BoundedTriangles] {
        let report = run_algorithm::<Fp>(&inst, algorithm, 23).unwrap();
        assert!(report.correct);
        let entries = lowband::core::entries_for_report("obs-test", &inst, algorithm, &report);
        assert_eq!(entries.len(), 2, "rounds + messages rows");
        for e in &entries {
            assert!(
                e.holds(DEFAULT_TOLERANCE),
                "{algorithm:?} {}: predicted {} < observed {}",
                e.quantity,
                e.predicted,
                e.observed
            );
        }
    }
}

/// Baseline probes survive a JSON round trip and the gate passes in-band
/// measurements while a synthetic 2× regression on a tight ratio probe
/// fails it.
#[test]
fn baseline_gate_round_trips_and_trips_on_regression() {
    let probes = vec![
        Probe::new("linked_over_hash", 0.08, 0.5, "ratio"),
        Probe::new("linked_run_ns", 2.0e7, 1.5, "ns"),
    ];
    let parsed = probes_from_json(&probes_to_json(&probes)).unwrap();
    assert_eq!(parsed, probes);

    let fresh_ok = vec![
        ("linked_over_hash".to_string(), 0.09),
        ("linked_run_ns".to_string(), 2.1e7),
    ];
    assert!(all_pass(&gate(&parsed, &fresh_ok)));

    // The synthetic slowdown: linked 2× slower moves the ratio ~2×.
    let fresh_bad = vec![
        ("linked_over_hash".to_string(), 0.16),
        ("linked_run_ns".to_string(), 4.2e7),
    ];
    let results = gate(&parsed, &fresh_bad);
    assert!(!all_pass(&results));
    let ratio_probe = results.iter().find(|r| r.id == "linked_over_hash").unwrap();
    assert!(!ratio_probe.pass, "tight ratio band must catch 2×");
}
