//! Contract tests for the model layer as seen through the whole stack:
//! bandwidth enforcement, schedule/machine separation, supported-model
//! discipline.

use lowband::core::{Instance, TriangleSet};
use lowband::matrix::{gen, Fp, SparseMatrix, Support};
use lowband::model::algebra::Nat;
use lowband::model::{Key, Machine, Merge, ModelError, NodeId, ScheduleBuilder, Transfer};
use rand::SeedableRng;

#[test]
fn machine_rejects_overloaded_rounds() {
    // The builder refuses; and a machine run with a hand-built valid round
    // still revalidates every execution.
    let mut b = ScheduleBuilder::new(3);
    let t = |src: u32, dst: u32| Transfer {
        src: NodeId(src),
        src_key: Key::tmp(0, 0),
        dst: NodeId(dst),
        dst_key: Key::tmp(0, 1),
        merge: Merge::Overwrite,
    };
    assert!(matches!(
        b.round(vec![t(0, 1), t(0, 2)]),
        Err(ModelError::SendConflict { .. })
    ));
    assert!(matches!(
        b.round(vec![t(0, 2), t(1, 2)]),
        Err(ModelError::ReceiveConflict { .. })
    ));
}

#[test]
fn schedules_are_reusable_across_machines_and_values() {
    // Supported-model discipline: one schedule (structure-only), many value
    // assignments.
    let n = 24;
    let d = 3;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let inst = Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    );
    let ts = TriangleSet::enumerate(&inst);
    let schedule =
        lowband::core::lemma31::process_triangles(&inst, &ts.triangles, ts.kappa(n), 0).unwrap();

    for seed in [1u64, 2, 3] {
        let mut vrng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut vrng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut vrng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        let got = inst.extract_x(&m);
        let want = lowband::matrix::reference_multiply(&a, &b, &inst.xhat);
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn missing_inputs_surface_as_errors_not_wrong_answers() {
    let n = 8;
    let s = Support::identity(n);
    let inst = Instance::new(s.clone(), s.clone(), s.clone());
    let ts = TriangleSet::enumerate(&inst);
    let schedule = lowband::core::lemma31::process_triangles(&inst, &ts.triangles, 1, 0).unwrap();
    // Load only A; B is missing.
    let mut m: Machine<Nat> = Machine::new(n);
    for i in 0..n as u32 {
        m.load(NodeId(i), Key::a(u64::from(i), u64::from(i)), Nat(1));
    }
    let result = m.run(&schedule);
    if schedule.messages() > 0 || !ts.triangles.is_empty() {
        assert!(
            matches!(result, Err(ModelError::MissingValue { .. })),
            "got {result:?}"
        );
    }
}

#[test]
fn round_accounting_matches_schedule() {
    let n = 32;
    let d = 3;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let inst = Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    );
    let ts = TriangleSet::enumerate(&inst);
    let schedule =
        lowband::core::lemma31::process_triangles(&inst, &ts.triangles, ts.kappa(n), 0).unwrap();
    let mut vrng = rand::rngs::StdRng::seed_from_u64(9);
    let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut vrng);
    let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut vrng);
    let mut m = inst.load_machine(&a, &b);
    let stats = m.run(&schedule).unwrap();
    assert_eq!(stats.rounds, schedule.rounds());
    assert_eq!(stats.messages, schedule.messages());
    assert!(
        stats.max_round_messages <= n,
        "at most one message in per node"
    );
}

#[test]
fn lemma31_respects_analytic_envelope() {
    // O(κ + L + log m) with explicit constants: measure the pieces on a
    // family where we control κ exactly.
    let n = 64;
    for kappa in [1usize, 2, 4, 8] {
        // κ·n triangles: κ entries per X row via block structure.
        let d = kappa;
        let s = gen::block_diagonal(n, d.max(1));
        let inst = Instance::new(s.clone(), s.clone(), s);
        let ts = TriangleSet::enumerate(&inst);
        let k = ts.kappa(n);
        let schedule =
            lowband::core::lemma31::process_triangles(&inst, &ts.triangles, k, 0).unwrap();
        let load = inst
            .max_a_load()
            .max(inst.max_b_load())
            .max(inst.max_x_load());
        let m = ts.max_pair_count().max(2);
        let envelope = 8 * (k + load + (m as f64).log2().ceil() as usize + 1);
        assert!(
            schedule.rounds() <= envelope,
            "κ = {k}: rounds {} exceed envelope {envelope}",
            schedule.rounds()
        );
    }
}
