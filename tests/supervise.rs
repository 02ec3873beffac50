//! Supervised execution: the degradation ladder, circuit breakers,
//! quarantine and deadlines (DESIGN.md §14).
//!
//! The contracts under test:
//!
//! * **graceful degradation** — a fault storm walks one request down the
//!   two-rung ladder, linked → reference, and the bottom rung's product
//!   is **bit-identical** to the fault-free run of the same seed;
//! * **circuit breaker** — consecutive distributed-path failures open the
//!   structure's breaker; while open, requests are refused with a typed
//!   error; the cooldown's half-open probe closes it again;
//! * **quarantine** — a structure that keeps failing is quarantined and
//!   served plan-free until a clean lint + probe readmits it;
//! * **deadlines** — a tight budget plus inter-rung backoff surfaces as
//!   `ServeError::DeadlineExceeded` with a partial report, never a hang.

use std::time::Duration;

use lowband::core::{Algorithm, Instance, RetryPolicy, Rung};
use lowband::faults::FaultSpec;
use lowband::matrix::{gen, Fp, SparseMatrix};
use lowband::serve::{BreakerState, ServeError, StructureKey, Supervisor, SupervisorConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn us_instance(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    )
}

/// A storm that faults every round three ways — no distributed rung
/// survives it, so the ladder must bottom out.
fn total_storm(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        drop_rate: 1.0,
        corrupt_rate: 1.0,
        crash_rate: 1.0,
    }
}

/// A placeholder output matrix (overwritten by every served request).
fn out_slot(inst: &Instance, seed: u64) -> SparseMatrix<Fp> {
    let mut rng = StdRng::seed_from_u64(seed);
    SparseMatrix::randomize(inst.xhat.clone(), &mut rng)
}

/// Ladder config with admission control out of the way: no breaker, no
/// quarantine — this isolates the rung walk itself.
fn ladder_only() -> SupervisorConfig {
    SupervisorConfig {
        retry: RetryPolicy {
            checkpoint_every: 4,
            max_attempts: 2,
            base_round_budget: 64,
        },
        breaker_threshold: u32::MAX,
        quarantine_threshold: u32::MAX,
        ..SupervisorConfig::default()
    }
}

/// The acceptance pin: under a total storm the request descends from the
/// linked rung, lands on the reference rung, and the product it writes is
/// bit-identical to the fault-free run of the same seed.
#[test]
fn storm_lands_on_reference_with_bit_identical_output() {
    let inst = us_instance(24, 3, 0x5AB);
    let seed = 7u64;
    let mut sup = Supervisor::new(ladder_only());

    let mut degraded = out_slot(&inst, 1);
    let outcome = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        seed,
        false,
        &total_storm(0xF00D),
        Some(&mut degraded),
    );
    let report = outcome.result.expect("the bottom rung cannot fail");
    assert_eq!(report.rung, Rung::Reference, "storm must bottom the ladder");
    assert!(report.correct);
    assert_eq!(
        outcome.descents, 1,
        "one descent from the one distributed rung"
    );
    assert_eq!(outcome.failures.len(), 1);
    assert!(
        !outcome.fault_log.is_empty(),
        "the storm must actually have fired"
    );

    // Same supervisor, same seed, no faults: lands on the entry rung.
    let mut clean = out_slot(&inst, 2);
    let clean_outcome = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        seed,
        false,
        &FaultSpec::none(1),
        Some(&mut clean),
    );
    let clean_report = clean_outcome.result.expect("fault-free run serves");
    assert_eq!(clean_report.rung, Rung::Linked);
    assert_eq!(clean_outcome.descents, 0);

    assert_eq!(
        degraded, clean,
        "reference-rung product must be bit-identical to the fault-free run"
    );
}

/// The full breaker cycle on one structure: closed → open (threshold
/// consecutive failures) → refusals while cooling → half-open probe →
/// closed.
#[test]
fn breaker_opens_refuses_and_closes_via_probe() {
    let inst = us_instance(24, 3, 0xB4EA);
    let key = StructureKey::of(&inst, Algorithm::BoundedTriangles, false);
    let mut sup = Supervisor::new(SupervisorConfig {
        retry: RetryPolicy {
            checkpoint_every: 4,
            max_attempts: 2,
            base_round_budget: 64,
        },
        breaker_threshold: 2,
        breaker_cooldown: 2,
        quarantine_threshold: u32::MAX,
        ..SupervisorConfig::default()
    });

    // Two consecutive storm requests land on the bottom rung — two
    // distributed-path failures, which is the threshold.
    for req in 0..2u64 {
        let outcome = sup.run_supervised::<Fp>(
            &inst,
            Algorithm::BoundedTriangles,
            req,
            false,
            &total_storm(0xFA11 + req),
            None,
        );
        let report = outcome.result.expect("degraded requests still serve");
        assert_eq!(report.rung, Rung::Reference);
    }
    let b = sup.breaker(&key).expect("breaker exists after requests");
    assert_eq!(b.state(), BreakerState::Open);
    assert_eq!(b.opened, 1);

    // While open, a request is refused without executing anything.
    let refused = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        9,
        false,
        &FaultSpec::none(1),
        None,
    );
    assert!(matches!(
        refused.result,
        Err(ServeError::BreakerOpen { cooldown_left: 1 })
    ));

    // Cooldown elapsed: the next request is the half-open probe; it runs
    // clean, so the breaker closes.
    let probe = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        9,
        false,
        &FaultSpec::none(1),
        None,
    );
    let report = probe.result.expect("probe serves");
    assert_eq!(report.rung, Rung::Linked);
    let b = sup.breaker(&key).expect("breaker exists");
    assert_eq!(b.state(), BreakerState::Closed);
    assert_eq!(b.closed_from_probe, 1);
    assert_eq!(b.rejected, 1);
}

/// Quarantine round trip: a failing structure is quarantined, served
/// plan-free while blocked, and readmitted only through a clean lint +
/// probe run — after which requests use the distributed path again.
#[test]
fn quarantine_blocks_then_probe_readmits() {
    let inst = us_instance(24, 3, 0x94A0);
    let key = StructureKey::of(&inst, Algorithm::BoundedTriangles, false);
    let mut sup = Supervisor::new(SupervisorConfig {
        retry: RetryPolicy {
            checkpoint_every: 4,
            max_attempts: 2,
            base_round_budget: 64,
        },
        breaker_threshold: u32::MAX,
        quarantine_threshold: 1,
        ..SupervisorConfig::default()
    });

    // One stormy request is enough at threshold 1.
    let stormy = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        3,
        false,
        &total_storm(0xBAD),
        None,
    );
    assert!(stormy.descents > 0);
    assert!(sup.cache().is_quarantined_key(&key));

    // While quarantined: served plan-free at the bottom rung, correct.
    let mut blocked_out = out_slot(&inst, 3);
    let blocked = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        3,
        false,
        &FaultSpec::none(1),
        Some(&mut blocked_out),
    );
    assert!(blocked.quarantined);
    let report = blocked.result.expect("quarantined requests still serve");
    assert_eq!(report.rung, Rung::Reference);
    assert!(report.correct);

    // Readmission is a fresh compile + clean lint + verified probe run.
    sup.cache_mut()
        .try_readmit::<Fp>(&inst, Algorithm::BoundedTriangles, false, 99)
        .expect("clean structure readmits");
    assert!(!sup.cache().is_quarantined_key(&key));

    // Back on the distributed path.
    let healthy = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        3,
        false,
        &FaultSpec::none(1),
        None,
    );
    assert!(!healthy.quarantined);
    assert_eq!(healthy.result.expect("served").rung, Rung::Linked);
}

/// A tight deadline plus large inter-rung backoff expires the request
/// deterministically: the virtual backoff clock charges the deadline, so
/// the typed error surfaces even if wall-clock execution was instant.
#[test]
fn tight_deadline_surfaces_typed_error_with_partial_report() {
    let inst = us_instance(24, 3, 0xDEAD);
    let mut sup = Supervisor::new(SupervisorConfig {
        deadline: Some(Duration::from_micros(10)),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        retry: RetryPolicy {
            checkpoint_every: 4,
            max_attempts: 2,
            base_round_budget: 64,
        },
        breaker_threshold: u32::MAX,
        quarantine_threshold: u32::MAX,
        ..SupervisorConfig::default()
    });
    let outcome = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        5,
        false,
        &total_storm(0x7160),
        None,
    );
    match outcome.result {
        Err(ServeError::DeadlineExceeded { partial }) => {
            assert!(!partial.report.correct, "a partial report never verifies");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The same structure under a generous budget serves normally.
    let mut generous = Supervisor::new(SupervisorConfig {
        deadline: Some(Duration::from_secs(30)),
        breaker_threshold: u32::MAX,
        quarantine_threshold: u32::MAX,
        ..SupervisorConfig::default()
    });
    let ok = generous.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        5,
        false,
        &FaultSpec::none(1),
        None,
    );
    assert!(ok.result.expect("served").correct);
}

/// A deadline the linked attempt keeps but the descent backoff spends:
/// the request misses it before the reference rung runs, still reports
/// the linked rung, and carries the linked attempt's exhaustion partial.
#[test]
fn deadline_spent_by_the_descent_backoff_skips_the_reference_rung() {
    let inst = us_instance(24, 3, 0xDE5C);
    let mut sup = Supervisor::new(SupervisorConfig {
        deadline: Some(Duration::from_secs(600)),
        backoff_base: Duration::from_secs(3600),
        backoff_cap: Duration::from_secs(7200),
        retry: RetryPolicy {
            checkpoint_every: 4,
            max_attempts: 0,
            base_round_budget: 64,
        },
        breaker_threshold: u32::MAX,
        quarantine_threshold: u32::MAX,
        ..SupervisorConfig::default()
    });
    let placeholder = out_slot(&inst, 4);
    let mut out = placeholder.clone();
    let outcome = sup.run_supervised::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        5,
        false,
        &total_storm(0xDE5C),
        Some(&mut out),
    );
    assert_eq!(outcome.descents, 1);
    assert_eq!(outcome.rung, Rung::Linked, "the reference rung never ran");
    assert_eq!(outcome.failures.len(), 1);
    assert!(
        outcome.failures[0].starts_with("linked: retries exhausted"),
        "{:?}",
        outcome.failures
    );
    match outcome.result {
        Err(ServeError::DeadlineExceeded { partial }) => {
            assert_eq!(partial.failures, 1, "the linked attempt's partial");
            assert_eq!(partial.report.rung, Rung::Linked);
            assert!(!partial.report.correct);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(out, placeholder, "a missed request writes no product");
}
