//! Fault injection, integrity checking and checkpoint/recovery.
//!
//! The contracts under test:
//!
//! * **cross-executor determinism** — one seeded [`FaultSpec`] produces the
//!   same injected-fault log, the same outcome, the same stats and (on
//!   capacity-1 schedules) bitwise-equal stores on the linked executor and
//!   on the hash-map reference's whole-run fault hook;
//! * **detection** — a dropped or corrupted message fails the round
//!   checksum; a crash surfaces as [`ModelError::NodeCrashed`] with the
//!   victim's store wiped;
//! * **checkpoint/restore** — a linked [`Checkpoint`] rewinds the machine
//!   it was taken on, resumes on a fresh machine over the same linked
//!   schedule with the exact final stores of an uninterrupted run, and is
//!   refused with a typed error by a machine linked against another
//!   schedule;
//! * **recovery** — [`run_resilient`] drives a faulted run to the correct
//!   product within its retry budget, reproducibly.

use lowband::core::{
    compile_plan, run_resilient, run_resilient_plan_traced, Algorithm, Deadline, Instance,
    ResilientError, RetryPolicy, Supervision,
};
use lowband::faults::{Fault, FaultKind, FaultPlan, FaultSpec};
use lowband::matrix::{gen, Fp, SparseMatrix};
use lowband::model::algebra::Nat;
use lowband::model::{
    link, Checkpoint, ExecutionStats, Key, LinkedMachine, LocalOp, Machine, Merge, ModelError,
    NodeId, NoopTracer, RunWindow, Schedule, ScheduleBuilder, Transfer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iterations per randomized test: modest by default, heavier behind the
/// `proptest-tests` feature (same convention as `tests/properties.rs`).
#[cfg(feature = "proptest-tests")]
const CASES: u64 = 48;
#[cfg(not(feature = "proptest-tests"))]
const CASES: u64 = 12;

/// A capacity-1 ring-exchange schedule: in round `r` node `i` sends its
/// `tmp(0, i)` value to node `(i + 1 + r) mod n`, accumulated under
/// `x(0, i)`. Exactly one send and one receive per node per round, so a
/// `(round, sender)` fault key selects a unique message — the setting where
/// all executors must agree bit for bit even under faults.
fn ring_schedule(n: usize, rounds: usize) -> Schedule {
    let mut b = ScheduleBuilder::new(n);
    for r in 0..rounds as u32 {
        b.round(
            (0..n as u32)
                .map(|i| Transfer {
                    src: NodeId(i),
                    src_key: Key::tmp(0, u64::from(i)),
                    dst: NodeId((i + 1 + r) % n as u32),
                    dst_key: Key::x(0, u64::from(i)),
                    merge: Merge::Add,
                })
                .collect(),
        )
        .unwrap();
    }
    b.build()
}

fn load_ring(store: &mut dyn FnMut(NodeId, Key, Nat), n: usize) {
    for i in 0..n as u32 {
        store(NodeId(i), Key::tmp(0, u64::from(i)), Nat(u64::from(i) + 1));
    }
}

fn us_instance(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    )
}

/// One seeded spec ⇒ identical fault log, outcome, stats and stores on the
/// hash-map and linked executors.
#[test]
fn same_plan_same_outcome_across_executors() {
    let (n, rounds) = (8usize, 6usize);
    let s = ring_schedule(n, rounds);
    let linked = link(&s);
    for case in 0..CASES {
        let spec = FaultSpec {
            seed: 0xFA07 + case,
            drop_rate: 0.15,
            corrupt_rate: 0.15,
            crash_rate: 0.10,
        };

        let mut m: Machine<Nat> = Machine::new(n);
        load_ring(&mut |node, key, v| m.load(node, key, v), n);
        let mut plan_m = spec.plan(rounds, n);
        let mut stats_m = ExecutionStats::default();
        let res_m = m.run_guarded(&s, &mut plan_m, &mut stats_m);

        let mut l: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        load_ring(&mut |node, key, v| l.load(node, key, v), n);
        let mut plan_l = spec.plan(rounds, n);
        let mut stats_l = ExecutionStats::default();
        let res_l = l.run_guarded(
            &mut NoopTracer,
            &mut plan_l,
            RunWindow::full(),
            &mut stats_l,
        );

        assert_eq!(
            res_m.map(|()| None),
            res_l,
            "case {case}: machine vs linked outcome"
        );
        assert_eq!(plan_m.log(), plan_l.log(), "case {case}: fault logs");
        assert_eq!(stats_m, stats_l, "case {case}: stats");
        for i in 0..n as u32 {
            assert_eq!(
                m.snapshot(NodeId(i)),
                l.snapshot(NodeId(i)),
                "case {case}: node {i} store, machine vs linked"
            );
        }
    }
}

/// Drops and corruptions both fail the round checksum, before the round is
/// recorded; out-of-range crash targets are ignored, not a panic.
#[test]
fn tampering_is_detected_by_the_round_checksum() {
    for kind in [FaultKind::Drop, FaultKind::Corrupt] {
        let s = ring_schedule(5, 3);
        let linked = link(&s);
        let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        load_ring(&mut |node, key, v| m.load(node, key, v), 5);
        let mut plan = FaultPlan::new(vec![
            Fault {
                round: 0,
                node: 99, // out of range: must be skipped silently
                kind: FaultKind::Crash,
            },
            Fault {
                round: 2,
                node: 1,
                kind,
            },
        ]);
        let mut stats = ExecutionStats::default();
        let err = m
            .run_guarded(&mut NoopTracer, &mut plan, RunWindow::full(), &mut stats)
            .unwrap_err();
        assert_eq!(err, ModelError::Corruption { round: 2 }, "{kind:?}");
        assert_eq!(stats.rounds, 2, "the failed round is not recorded");
    }
}

/// A crash wipes the victim's store and aborts; restore rehydrates it and
/// the (exhausted, one-shot) plan lets the rerun complete.
#[test]
fn crash_restore_rerun_completes() {
    let (n, rounds) = (6usize, 4usize);
    let s = ring_schedule(n, rounds);
    let linked = link(&s);
    let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    load_ring(&mut |node, key, v| m.load(node, key, v), n);
    let ckpt = m.checkpoint(0, ExecutionStats::default());

    let mut plan = FaultPlan::new(vec![Fault {
        round: 1,
        node: 2,
        kind: FaultKind::Crash,
    }]);
    let mut stats = ExecutionStats::default();
    let err = m
        .run_guarded(&mut NoopTracer, &mut plan, RunWindow::full(), &mut stats)
        .unwrap_err();
    assert_eq!(
        err,
        ModelError::NodeCrashed {
            node: NodeId(2),
            round: 1
        }
    );
    assert!(m.snapshot(NodeId(2)).is_empty(), "crashed store is wiped");
    assert_eq!(stats.rounds, 1, "one clean round before the crash");

    m.restore(&ckpt).unwrap();
    assert!(!m.snapshot(NodeId(2)).is_empty(), "restore rehydrates");
    let mut stats2 = ExecutionStats::default();
    let done = m
        .run_guarded(&mut NoopTracer, &mut plan, RunWindow::full(), &mut stats2)
        .unwrap();
    assert_eq!(done, None, "exhausted one-shot plan lets the rerun finish");
    assert_eq!(stats2.rounds, rounds);
}

/// Snapshot → keep running → restore: the checkpoint rewinds the machine
/// it was taken on, and replaying the tail from it on a fresh machine
/// reproduces the final stores of an uninterrupted reference run.
#[test]
fn checkpoints_rewind_and_resume_on_a_fresh_machine() {
    let (n, rounds) = (8usize, 6usize);
    let s = ring_schedule(n, rounds);
    let linked = link(&s);

    // Ground truth: the whole schedule on the hash-map reference.
    let mut reference: Machine<Nat> = Machine::new(n);
    load_ring(&mut |node, key, v| reference.load(node, key, v), n);
    reference.run(&s).unwrap();
    let final_stores: Vec<_> = (0..n as u32)
        .map(|i| reference.snapshot(NodeId(i)))
        .collect();

    // Run the first 3 rounds; checkpoint there.
    let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    load_ring(&mut |node, key, v| m.load(node, key, v), n);
    let mut no_faults = FaultPlan::new(Vec::new()); // enabled hook, injects nothing
    let mut stats = ExecutionStats::default();
    let cursor = m
        .run_guarded(
            &mut NoopTracer,
            &mut no_faults,
            RunWindow::new(0, 3),
            &mut stats,
        )
        .unwrap()
        .expect("a 6-round schedule must hit the 3-round window boundary");
    let ckpt = m.checkpoint(cursor, stats);
    assert_eq!(ckpt.stats().rounds, 3);

    // Run on past the checkpoint; restoring rewinds the machine.
    let at_ckpt: Vec<_> = (0..n as u32).map(|i| m.snapshot(NodeId(i))).collect();
    let done = m
        .run_guarded(
            &mut NoopTracer,
            &mut no_faults,
            RunWindow::new(cursor, usize::MAX),
            &mut stats,
        )
        .unwrap();
    assert_eq!(done, None);
    assert_eq!(stats.rounds, rounds);
    let moved: Vec<_> = (0..n as u32).map(|i| m.snapshot(NodeId(i))).collect();
    m.restore(&ckpt).unwrap();
    let rewound: Vec<_> = (0..n as u32).map(|i| m.snapshot(NodeId(i))).collect();
    assert_ne!(moved, rewound, "restore must rewind state");
    assert_eq!(rewound, at_ckpt, "restore lands exactly on the checkpoint");

    // Replay the tail from the same checkpoint on a fresh machine.
    let mut fresh: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    fresh.restore(&ckpt).unwrap();
    let mut fstats = ckpt.stats();
    fresh
        .run_guarded(
            &mut NoopTracer,
            &mut no_faults,
            RunWindow::new(ckpt.next_step(), usize::MAX),
            &mut fstats,
        )
        .unwrap();
    assert_eq!(fstats.rounds, rounds, "resumed stats stay global");

    for i in 0..n as u32 {
        assert_eq!(
            fresh.snapshot(NodeId(i)),
            final_stores[i as usize],
            "tail replay diverged from the reference at node {i}"
        );
    }
}

/// A checkpoint restores only onto a machine with its slot layout: one
/// linked against another schedule refuses it with a typed error and
/// keeps its own state, whether the network size or only the per-node
/// slot counts differ.
#[test]
fn foreign_checkpoints_are_refused() {
    let n = 6usize;
    let s = ring_schedule(n, 4);
    let linked = link(&s);
    let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    load_ring(&mut |node, key, v| m.load(node, key, v), n);
    let ckpt: Checkpoint<Nat> = m.checkpoint(0, ExecutionStats::default());

    let small_linked = link(&ring_schedule(3, 4));
    let mut small: LinkedMachine<Nat> = LinkedMachine::new(&small_linked);
    assert_eq!(
        small.restore(&ckpt),
        Err(ModelError::SizeMismatch {
            expected: n,
            actual: 3
        })
    );

    // Same n, one round instead of four: each node interns 2 keys, not 5.
    let short_linked = link(&ring_schedule(n, 1));
    let mut short: LinkedMachine<Nat> = LinkedMachine::new(&short_linked);
    short.load(NodeId(0), Key::tmp(0, 0), Nat(9));
    assert_eq!(
        short.restore(&ckpt),
        Err(ModelError::LayoutMismatch {
            node: NodeId(0),
            expected: linked.slots_at(NodeId(0)),
            actual: short_linked.slots_at(NodeId(0)),
        })
    );
    assert_eq!(
        short.get(NodeId(0), Key::tmp(0, 0)),
        Some(Nat(9)),
        "a refused restore writes nothing"
    );
}

/// Values loaded under keys the linked schedule never interns survive a
/// checkpoint round-trip through the side map.
#[test]
fn linked_checkpoint_preserves_extra_keys() {
    let s = ring_schedule(4, 2);
    let linked = link(&s);
    let mut l: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    load_ring(&mut |node, key, v| l.load(node, key, v), 4);
    l.load(NodeId(1), Key::tmp(77, 77), Nat(123)); // never mentioned
    let ckpt = l.checkpoint(0, ExecutionStats::default());
    l.reset_values();
    assert!(l.get(NodeId(1), Key::tmp(77, 77)).is_none());
    l.restore(&ckpt).unwrap();
    assert_eq!(l.get(NodeId(1), Key::tmp(77, 77)), Some(Nat(123)));
}

/// [`run_resilient`] drives a faulted full-pipeline run to the verified
/// correct product, and the whole recovery transcript is reproducible.
#[test]
fn run_resilient_recovers_to_correct_product() {
    let inst = us_instance(32, 3, 0xB001);
    // Rates sized for this instance's ~10-round schedule: several faults
    // per run, every run recoverable.
    let spec = FaultSpec {
        seed: 9,
        drop_rate: 0.3,
        corrupt_rate: 0.3,
        crash_rate: 0.2,
    };
    let policy = RetryPolicy {
        checkpoint_every: 8,
        max_attempts: 500,
        base_round_budget: 1 << 16,
    };
    let r1 = run_resilient::<Fp>(&inst, Algorithm::BoundedTriangles, 5, &spec, policy).unwrap();
    assert!(r1.report.correct, "recovered run must verify");
    assert!(r1.failures > 0, "this spec must actually fault the run");
    assert_eq!(r1.stats.faults_injected, r1.fault_log.len());
    assert_eq!(r1.stats.faults_detected, r1.failures);
    assert_eq!(r1.stats.recoveries, r1.failures);
    assert!(r1.checkpoints >= 1);

    let r2 = run_resilient::<Fp>(&inst, Algorithm::BoundedTriangles, 5, &spec, policy).unwrap();
    assert_eq!(r1.fault_log, r2.fault_log, "same seed ⇒ same fault log");
    assert_eq!(r1.stats, r2.stats, "same seed ⇒ same stats");
    assert_eq!(r1.failures, r2.failures);
    assert_eq!(r1.replayed_rounds, r2.replayed_rounds);
}

/// A fault-free spec through the resilient driver behaves exactly like the
/// plain pipeline: no failures, no replays, correct product.
#[test]
fn resilient_with_no_faults_is_clean() {
    let inst = us_instance(24, 3, 0xC1EA);
    let r = run_resilient::<Fp>(
        &inst,
        Algorithm::BoundedTriangles,
        7,
        &FaultSpec::none(1),
        RetryPolicy::default(),
    )
    .unwrap();
    assert!(r.report.correct);
    assert_eq!(r.failures, 0);
    assert_eq!(r.replayed_rounds, 0);
    assert!(r.fault_log.is_empty());
    assert_eq!(r.stats.faults_injected, 0);
    assert_eq!(
        r.checkpoints, 0,
        "no planned fault, nothing to roll back to"
    );
}

/// Every snapshot sits in a `checkpoint` span, so a traced run accounts
/// for each checkpoint it reports — and a fault-free run records none.
#[test]
fn checkpoint_spans_count_the_checkpoints_taken() {
    use lowband::core::run_resilient_traced;
    use lowband::model::trace::MetricsRegistry;

    let inst = us_instance(32, 3, 0xB001);
    let policy = RetryPolicy {
        checkpoint_every: 4,
        max_attempts: 500,
        base_round_budget: 1 << 16,
    };
    let spec = FaultSpec {
        seed: 9,
        drop_rate: 0.3,
        corrupt_rate: 0.3,
        crash_rate: 0.2,
    };
    let mut metrics = MetricsRegistry::new();
    let faulted = run_resilient_traced::<Fp, _>(
        &inst,
        Algorithm::BoundedTriangles,
        5,
        &spec,
        policy,
        &mut metrics,
    )
    .unwrap();
    assert!(faulted.report.correct);
    assert!(faulted.checkpoints > 0, "this spec must plan faults");
    let spans = metrics.span_stats("checkpoint").expect("checkpoint spans");
    assert_eq!(spans.count as usize, faulted.checkpoints);

    let mut metrics = MetricsRegistry::new();
    let clean = run_resilient_traced::<Fp, _>(
        &inst,
        Algorithm::BoundedTriangles,
        5,
        &FaultSpec::none(1),
        policy,
        &mut metrics,
    )
    .unwrap();
    assert!(clean.report.correct);
    assert_eq!(clean.checkpoints, 0);
    assert!(metrics.span_stats("checkpoint").is_none());
    assert!(
        metrics.span_stats("run").is_some(),
        "the run itself is traced"
    );
}

/// An unrecoverable regime (every retry re-faults past the budget) gives
/// up with the underlying fault error instead of spinning forever.
#[test]
fn hopeless_runs_give_up_within_budget() {
    let (n, rounds) = (6usize, 8usize);
    let s = ring_schedule(n, rounds);
    // One crash planned for every round: with max_attempts = 2 the driver
    // must abort on the third detection.
    let faults: Vec<Fault> = (0..rounds)
        .map(|r| Fault {
            round: r,
            node: 0,
            kind: FaultKind::Crash,
        })
        .collect();
    let mut plan = FaultPlan::new(faults);
    let linked = link(&s);
    let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    load_ring(&mut |node, key, v| m.load(node, key, v), n);
    let ckpt = m.checkpoint(0, ExecutionStats::default());
    let mut attempts = 0usize;
    let err = loop {
        let mut stats = ckpt.stats();
        match m.run_guarded(&mut NoopTracer, &mut plan, RunWindow::full(), &mut stats) {
            Ok(_) => {
                // One-shot faults: after `rounds` attempts the plan is dry.
                assert!(attempts >= 2, "plan must fault the first attempts");
                break None;
            }
            Err(e) => {
                attempts += 1;
                if attempts > 2 {
                    break Some(e);
                }
                m.restore(&ckpt).unwrap();
            }
        }
    };
    let err = err.expect("third failure must surface");
    assert!(matches!(err, ModelError::NodeCrashed { .. }));
    assert_eq!(attempts, 3);
}

/// Random schedules × random fault plans: never a panic on either
/// executor, and both agree on the outcome, the fault log, the stats and
/// the stores.
#[test]
fn random_faulted_runs_never_panic_and_agree() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF022 + case);
        let n = rng.gen_range(2usize..10);
        let rounds = rng.gen_range(1usize..8);
        let mut b = ScheduleBuilder::new(n);
        for r in 0..rounds as u32 {
            let shift = rng.gen_range(1..n as u32);
            b.round(
                (0..n as u32)
                    .map(|i| Transfer {
                        src: NodeId(i),
                        src_key: Key::tmp(rng.gen_range(0..2), 0),
                        dst: NodeId((i + shift) % n as u32),
                        dst_key: Key::x(0, u64::from((i + r) % 3)),
                        merge: if rng.gen_bool(0.5) {
                            Merge::Add
                        } else {
                            Merge::Overwrite
                        },
                    })
                    .collect(),
            )
            .unwrap();
            if rng.gen_bool(0.5) {
                b.compute(
                    (0..n as u32)
                        .map(|i| LocalOp::MulAdd {
                            node: NodeId(i),
                            dst: Key::x(1, 0),
                            lhs: Key::tmp(0, 0),
                            rhs: Key::tmp(rng.gen_range(0..2), 0),
                        })
                        .collect(),
                )
                .unwrap();
            }
        }
        let s = b.build();
        let linked = link(&s);
        let spec = FaultSpec {
            seed: rng.gen_range(0..u64::MAX / 2),
            drop_rate: rng.gen_range(0u32..40) as f64 / 100.0,
            corrupt_rate: rng.gen_range(0u32..40) as f64 / 100.0,
            crash_rate: rng.gen_range(0u32..30) as f64 / 100.0,
        };
        // Load every key the schedule can read, so the only aborts are the
        // injected faults (the executors report MissingValue in different
        // but individually-correct orders when several are missing at once).
        let load_all = |store: &mut dyn FnMut(NodeId, Key, Nat)| {
            for i in 0..n as u32 {
                store(NodeId(i), Key::tmp(0, 0), Nat(u64::from(i) + 1));
                store(NodeId(i), Key::tmp(1, 0), Nat(2 * u64::from(i) + 1));
            }
        };

        let mut m: Machine<Nat> = Machine::new(n);
        load_all(&mut |node, key, v| m.load(node, key, v));
        let mut plan_m = spec.plan(rounds, n);
        let mut stats_m = ExecutionStats::default();
        let res_m = m.run_guarded(&s, &mut plan_m, &mut stats_m);

        let mut l: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        load_all(&mut |node, key, v| l.load(node, key, v));
        let mut plan_l = spec.plan(rounds, n);
        let mut stats_l = ExecutionStats::default();
        let res_l = l.run_guarded(
            &mut NoopTracer,
            &mut plan_l,
            RunWindow::full(),
            &mut stats_l,
        );

        assert_eq!(res_m.map(|()| None), res_l, "case {case}");
        assert_eq!(plan_m.log(), plan_l.log(), "case {case}");
        assert_eq!(stats_m, stats_l, "case {case}");
        for i in 0..n as u32 {
            assert_eq!(
                m.snapshot(NodeId(i)),
                l.snapshot(NodeId(i)),
                "case {case}: node {i} store"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// RetryPolicy edge cases, driven through `run_resilient_plan_traced` with
// explicit one-shot fault plans so every boundary is deterministic.
// ---------------------------------------------------------------------------

/// Run one seeded value-set through a compiled plan under an explicit
/// fault plan and policy (unlimited deadline, no backoff).
fn resilient_with(
    inst: &Instance,
    plan: &lowband::core::CompiledPlan,
    faults: Vec<Fault>,
    policy: RetryPolicy,
) -> Result<lowband::core::ResilientReport, ResilientError> {
    let mut faults = FaultPlan::new(faults);
    let mut deadline = Deadline::none();
    let mut sup = Supervision {
        policy,
        deadline: &mut deadline,
        backoff: None,
    };
    run_resilient_plan_traced::<Fp, _>(
        inst,
        plan,
        5,
        &mut faults,
        &mut sup,
        None::<&mut SparseMatrix<Fp>>,
        &mut NoopTracer,
    )
}

fn crash(round: usize, node: u32) -> Fault {
    Fault {
        round,
        node,
        kind: FaultKind::Crash,
    }
}

/// `max_attempts = 0`: the very first detection exhausts the retries — no
/// recovery is ever attempted, and the partial report carries the fault.
#[test]
fn max_attempts_zero_aborts_on_first_detection() {
    let inst = us_instance(24, 3, 0xED6E);
    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
    let policy = RetryPolicy {
        checkpoint_every: 4,
        max_attempts: 0,
        base_round_budget: 1 << 16,
    };
    match resilient_with(&inst, &plan, vec![crash(1, 0)], policy) {
        Err(ResilientError::RetriesExhausted { partial, .. }) => {
            assert_eq!(partial.failures, 1);
            assert!(!partial.report.correct);
            assert_eq!(partial.stats.fault_crashes, 1);
            assert_eq!(partial.stats.faults_detected, 1);
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // The same policy with no faults is a clean success: zero attempts
    // bounds *retries*, not first tries.
    let r = resilient_with(&inst, &plan, Vec::new(), policy).expect("clean run");
    assert!(r.report.correct);
    assert_eq!(r.failures, 0);
}

/// `max_attempts = 1` is a knife edge: one recovery is allowed, so one
/// fault recovers but two faults abort — and `max_attempts = 2` recovers
/// both.
#[test]
fn max_attempts_one_recovers_one_fault_but_not_two() {
    let inst = us_instance(24, 3, 0xED6E);
    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
    let policy = |max_attempts: usize| RetryPolicy {
        checkpoint_every: 4,
        max_attempts,
        base_round_budget: 1 << 16,
    };
    let one = resilient_with(&inst, &plan, vec![crash(1, 0)], policy(1))
        .expect("one attempt recovers one fault");
    assert!(one.report.correct);
    assert_eq!(one.failures, 1);

    let two_faults = vec![crash(1, 0), crash(2, 1)];
    assert!(matches!(
        resilient_with(&inst, &plan, two_faults.clone(), policy(1)),
        Err(ResilientError::RetriesExhausted { .. })
    ));
    let two = resilient_with(&inst, &plan, two_faults, policy(2))
        .expect("two attempts recover two faults");
    assert!(two.report.correct);
    assert_eq!(two.failures, 2);
}

/// The replay budget is strictly `replayed > budget`: a budget exactly
/// equal to the replay cost recovers; one round less aborts.
#[test]
fn replay_budget_boundary_is_exact() {
    let inst = us_instance(24, 3, 0xED6E);
    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
    let policy = |base_round_budget: usize| RetryPolicy {
        checkpoint_every: 8,
        max_attempts: 4,
        base_round_budget,
    };
    // Measure the replay cost of one mid-schedule crash under an
    // unlimited budget.
    let probe =
        resilient_with(&inst, &plan, vec![crash(3, 0)], policy(1 << 16)).expect("recoverable run");
    assert_eq!(probe.failures, 1);
    let replayed = probe.replayed_rounds;
    assert!(replayed > 0, "a round-3 crash must replay something");

    // Exactly at the boundary: `replayed > budget` is false ⇒ recovers.
    let at = resilient_with(&inst, &plan, vec![crash(3, 0)], policy(replayed))
        .expect("budget == replay cost recovers");
    assert!(at.report.correct);
    // One below: aborts with the typed exhaustion error.
    assert!(matches!(
        resilient_with(&inst, &plan, vec![crash(3, 0)], policy(replayed - 1)),
        Err(ResilientError::RetriesExhausted { .. })
    ));
}

/// A checkpoint cadence far beyond the round count leaves one window: a
/// clean run takes no checkpoint at all, and a faulted run takes only the
/// post-load snapshot, rolls all the way back to the start and still
/// recovers.
#[test]
fn cadence_beyond_round_count_checkpoints_only_a_faulted_run() {
    let inst = us_instance(24, 3, 0xED6E);
    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
    let policy = RetryPolicy {
        checkpoint_every: 100_000,
        max_attempts: 4,
        base_round_budget: 1 << 16,
    };
    let clean = resilient_with(&inst, &plan, Vec::new(), policy).expect("clean run");
    assert!(clean.report.correct);
    assert_eq!(clean.checkpoints, 0, "no planned fault, no snapshot");
    assert_eq!(clean.replayed_rounds, 0);

    let faulted =
        resilient_with(&inst, &plan, vec![crash(3, 0)], policy).expect("full-replay recovery");
    assert!(faulted.report.correct);
    assert_eq!(faulted.checkpoints, 1, "no mid-run checkpoint to land on");
    assert_eq!(faulted.failures, 1);
    assert!(
        faulted.replayed_rounds > 0,
        "rollback to round 0 replays the whole prefix"
    );
}

/// Checkpoints stop once the last planned fault has fired: a lone crash
/// at round `r` under cadence 4 is covered by the snapshots at rounds 0,
/// 4, …, `4·⌊r/4⌋` and no later one, while failures, replayed rounds and
/// the product are exactly what checkpointing every window gives.
#[test]
fn checkpoints_stop_after_the_last_fault() {
    let inst = us_instance(24, 3, 0xED6E);
    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
    let policy = RetryPolicy {
        checkpoint_every: 4,
        max_attempts: 4,
        base_round_budget: 1 << 16,
    };
    let clean = resilient_with(&inst, &plan, Vec::new(), policy).expect("clean run");
    assert_eq!(
        clean.report.rounds, 14,
        "the schedule this test is sized for"
    );
    for r in 0..14 {
        let run = resilient_with(&inst, &plan, vec![crash(r, 0)], policy)
            .unwrap_or_else(|e| panic!("crash at round {r}: {e}"));
        assert!(run.report.correct, "crash at round {r}");
        assert_eq!(run.failures, 1, "crash at round {r}");
        assert_eq!(run.replayed_rounds, r % 4, "crash at round {r}");
        assert_eq!(run.checkpoints, 1 + r / 4, "crash at round {r}");
        assert_eq!(run.stats.rounds, clean.stats.rounds, "crash at round {r}");
        assert_eq!(
            run.stats.messages, clean.stats.messages,
            "crash at round {r}"
        );
    }
}

/// Backoff arithmetic at the extremes: with `cap` near `u64::MAX`
/// nanoseconds the decorrelated-jitter step must saturate — never wrap
/// into a tiny delay, truncate the `u128` nanosecond count, or panic on an
/// empty sample range — and repeated pauses must keep charging the
/// virtual [`Deadline`] without overflow panics.
#[test]
fn backoff_saturates_at_extreme_caps() {
    use lowband::core::Backoff;
    use std::time::Duration;

    let huge_cap = Duration::from_nanos(u64::MAX);
    // Base equal to the cap: sample range collapses to a point, delays
    // pin at the cap, and multiplying `prev` by 3 must saturate.
    let mut pinned = Backoff::new(1, huge_cap, huge_cap);
    let mut deadline = Deadline::within(Duration::from_secs(60));
    let paused: Vec<Duration> = (0..4).map(|_| pinned.pause(&mut deadline)).collect();
    assert_eq!(
        paused,
        vec![huge_cap; 4],
        "base == cap pins every delay at the cap"
    );
    assert!(deadline.expired(), "virtual charges still consume budget");

    // Small base, huge cap: prev grows ×3 per step and must clamp to the
    // cap instead of wrapping once prev × 3 exceeds u64::MAX nanos.
    let mut growing = Backoff::new(2, Duration::from_nanos(1), huge_cap);
    let mut last = Duration::ZERO;
    for _ in 0..80 {
        let d = growing.next_delay();
        assert!(
            d >= Duration::from_nanos(1) && d <= huge_cap,
            "delay {d:?} escaped [base, cap]"
        );
        last = d;
    }
    assert!(
        last > Duration::from_micros(100),
        "decorrelated growth must still make upward progress, got {last:?}"
    );

    // Base above the cap: the delay clamps down to the cap.
    let mut inverted = Backoff::new(3, huge_cap, Duration::from_millis(5));
    for _ in 0..3 {
        assert_eq!(inverted.next_delay(), Duration::from_millis(5));
    }

    // Durations beyond u64::MAX nanoseconds (u128 territory) saturate
    // instead of truncating to a near-zero delay.
    let beyond = Duration::from_secs(u64::MAX);
    let mut overflowing = Backoff::new(4, beyond, beyond);
    let d = overflowing.next_delay();
    assert_eq!(d, Duration::from_nanos(u64::MAX), "u128 nanos saturate");
}

/// Extreme virtual delays charge the deadline monotonically: repeated
/// `advance` calls past `Duration::MAX` saturate rather than panic, and
/// the deadline stays expired.
#[test]
fn deadline_virtual_clock_saturates_under_extreme_charges() {
    use lowband::core::Backoff;
    use std::time::Duration;

    let huge = Duration::from_nanos(u64::MAX);
    let mut deadline = Deadline::within(Duration::from_secs(1));
    let mut backoff = Backoff::new(7, huge, huge);
    for _ in 0..3 {
        backoff.pause(&mut deadline);
    }
    assert!(deadline.expired());
    assert_eq!(deadline.remaining(), Some(Duration::ZERO));
    // Direct virtual charges at Duration::MAX stack without panicking.
    deadline.advance(Duration::MAX);
    deadline.advance(Duration::MAX);
    assert!(deadline.expired());
}
