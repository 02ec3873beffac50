//! Minimal regression tests for executor bugs found by (or fixed alongside)
//! the `lowband-check` tooling.
//!
//! 1. `RunWindow::max_rounds` was silently ignored when the fault hook was
//!    statically disabled (`NoopFaults`): a windowed plain run executed the
//!    whole schedule instead of pausing at the boundary. The budget must
//!    bind on every run, on every executor backend.
//! 2. A panicking worker thread aborted the whole process (or re-panicked
//!    at scope exit); in the parallel batch fan-out it must surface as the
//!    typed `ModelError::WorkerPanicked`.

use std::sync::OnceLock;

use lowband::core::{
    compile_plan, run_plan_batch, Algorithm, BatchElement, BatchMode, CompiledPlan, Instance,
    RunReport,
};
use lowband::matrix::{gen, SampleElement};
use lowband::model::algebra::{Nat, Semiring};
use lowband::model::{
    link, ExecutionStats, Key, LinkedMachine, LocalOp, Machine, Merge, ModelError, NodeId,
    NoopFaults, NoopTracer, RunWindow, ScheduleBuilder, Tracer, Transfer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn transfer(src: u32, src_key: Key, dst: u32, dst_key: Key) -> Transfer {
    Transfer {
        src: NodeId(src),
        src_key,
        dst: NodeId(dst),
        dst_key,
        merge: Merge::Add,
    }
}

/// A 4-round ring-shift schedule over 3 nodes with one compute block in
/// the middle, plus its initial loads.
fn windowed_fixture() -> (lowband::model::Schedule, Vec<(u32, Key, u64)>) {
    let mut b = ScheduleBuilder::new(3);
    for r in 0..4u64 {
        if r == 2 {
            b.compute(vec![LocalOp::MulAdd {
                node: NodeId(0),
                dst: Key::x(0, 0),
                lhs: Key::tmp(0, 0),
                rhs: Key::tmp(0, 0),
            }])
            .unwrap();
        }
        let t = (0..3u32)
            .map(|node| {
                transfer(
                    node,
                    Key::tmp(0, u64::from(node)),
                    (node + 1) % 3,
                    Key::tmp(0, u64::from((node + 1) % 3)),
                )
            })
            .collect();
        b.round(t).unwrap();
    }
    let loads = (0..3u32)
        .map(|node| (node, Key::tmp(0, u64::from(node)), u64::from(node) + 2))
        .collect();
    (b.build(), loads)
}

/// A windowed run with the statically-disabled `NoopFaults` hook must stop
/// at the round budget, return the resume cursor, and complete to the same
/// state as an unwindowed run — on every executor backend.
#[test]
fn window_budget_binds_without_fault_hook() {
    let (schedule, loads) = windowed_fixture();
    let linked = link(&schedule).unwrap();

    // Unwindowed reference state.
    let mut reference: Machine<Nat> = Machine::new(3);
    for &(node, key, v) in &loads {
        reference.load(NodeId(node), key, Nat(v));
    }
    let ref_stats = reference.run(&schedule).unwrap();
    assert_eq!(ref_stats.rounds, 4);

    // Each backend: a 2-round window must pause (the old bug ran to
    // completion and returned Ok(None)), then resuming must finish.
    let check = |paused: Result<Option<usize>, ModelError>,
                 stats: &ExecutionStats,
                 backend: &str|
     -> usize {
        let cursor = paused
            .unwrap()
            .unwrap_or_else(|| panic!("{backend}: windowed plain run ignored max_rounds"));
        assert_eq!(stats.rounds, 2, "{backend}: wrong rounds at the boundary");
        cursor
    };

    {
        let mut m: Machine<Nat> = Machine::new(3);
        for &(node, key, v) in &loads {
            m.load(NodeId(node), key, Nat(v));
        }
        let mut stats = ExecutionStats::default();
        let paused = m.run_guarded(
            &schedule,
            &mut NoopTracer,
            &mut NoopFaults,
            RunWindow::new(0, 2),
            &mut stats,
        );
        let cursor = check(paused, &stats, "Machine");
        let done = m
            .run_guarded(
                &schedule,
                &mut NoopTracer,
                &mut NoopFaults,
                RunWindow::new(cursor, usize::MAX),
                &mut stats,
            )
            .unwrap();
        assert_eq!(done, None);
        assert_eq!(stats.rounds, 4);
        for node in 0..3 {
            assert_eq!(m.snapshot(NodeId(node)), reference.snapshot(NodeId(node)));
        }
    }

    {
        let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        for &(node, key, v) in &loads {
            m.load(NodeId(node), key, Nat(v));
        }
        let mut stats = ExecutionStats::default();
        let paused = m.run_guarded(
            &mut NoopTracer,
            &mut NoopFaults,
            RunWindow::new(0, 2),
            &mut stats,
        );
        let cursor = check(paused, &stats, "LinkedMachine");
        let done = m
            .run_guarded(
                &mut NoopTracer,
                &mut NoopFaults,
                RunWindow::new(cursor, usize::MAX),
                &mut stats,
            )
            .unwrap();
        assert_eq!(done, None);
        assert_eq!(stats.rounds, 4);
        for node in 0..3 {
            assert_eq!(m.snapshot(NodeId(node)), reference.snapshot(NodeId(node)));
        }
    }
}

/// A value type whose `mul` panics on the first value [`POISON_SEED`]
/// draws — the minimal reproduction of a worker-thread panic in the
/// parallel batch fan-out.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Boom(u64);

/// The seed whose value-set poisons `mul`.
const POISON_SEED: u64 = 4;

fn poison() -> u64 {
    static POISON: OnceLock<u64> = OnceLock::new();
    *POISON.get_or_init(|| Boom::sample_nonzero(&mut StdRng::seed_from_u64(POISON_SEED)).0)
}

impl Semiring for Boom {
    fn zero() -> Boom {
        Boom(0)
    }
    fn one() -> Boom {
        Boom(1)
    }
    fn add(&self, rhs: &Boom) -> Boom {
        Boom(self.0.wrapping_add(rhs.0))
    }
    fn mul(&self, rhs: &Boom) -> Boom {
        assert!(self.0 != poison() && rhs.0 != poison(), "poisoned multiply");
        Boom(self.0.wrapping_mul(rhs.0))
    }
}

impl SampleElement for Boom {
    fn sample_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Boom {
        Boom(rng.gen::<u64>() | 1)
    }
}

// A sampled value set runs on the one-lane slot machine.
lowband::model::impl_packed_semiring_array!(Boom);

/// Scalar batches only: no lane width is on `Boom`'s batch menu.
impl BatchElement for Boom {
    const LANE_WIDTHS: &'static [usize] = &[];
    const DEFAULT_LANES: usize = 1;

    fn run_packed_batch_traced<T: Tracer>(
        _: &Instance,
        _: &CompiledPlan,
        _: &[u64],
        lanes: usize,
        _: &mut T,
    ) -> Result<Vec<RunReport>, ModelError> {
        Err(ModelError::PackedLanesUnsupported { lanes })
    }
}

/// Compute-phase worker panic in the parallel batch fan-out: the batch
/// returns the typed `WorkerPanicked` error instead of aborting the
/// process.
#[test]
fn compute_worker_panic_is_a_typed_error() {
    // Block-diagonal A = B = X: every A entry, the poisoned seed's first
    // draw included, takes part in some product.
    let s = gen::block_diagonal(8, 2);
    let inst = Instance::new(s.clone(), s.clone(), s);
    let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
    let seeds: Vec<u64> = (0..6).collect();
    let mode = BatchMode::Parallel { threads: 3 };

    let err = run_plan_batch::<Boom>(&inst, &plan, &seeds, mode).unwrap_err();
    assert_eq!(err, ModelError::WorkerPanicked { step: 0 });
}

/// Text-format loader regressions (fixed alongside the binary plan
/// format): the v1 `lowband-schedule` reader accepted duplicate headers
/// and silently ignored everything after the `end` marker, so a file
/// accidentally concatenated with itself (or with trailing junk) loaded
/// as a valid — wrong — schedule. Both are now typed parse errors.
#[test]
fn serial_loader_rejects_duplicate_header_and_trailing_garbage() {
    use lowband::model::serial::SerialError;
    use lowband::model::{read_schedule, write_schedule};

    let mut b = ScheduleBuilder::new(2);
    b.round(vec![transfer(0, Key::tmp(0, 0), 1, Key::tmp(0, 1))])
        .unwrap();
    let schedule = b.build();
    let mut text = Vec::new();
    write_schedule(&schedule, &mut text).unwrap();
    let text = String::from_utf8(text).unwrap();

    // Sanity: the pristine document round-trips.
    assert_eq!(read_schedule(text.as_bytes()).unwrap(), schedule);

    // Self-concatenation: the second header must be a typed error, not a
    // silent re-parse.
    let double = format!("{text}{text}");
    match read_schedule(double.as_bytes()) {
        Err(SerialError::Parse { message, .. }) => {
            assert!(
                message.contains("after `end`") || message.contains("duplicate"),
                "unexpected message: {message}"
            );
        }
        other => panic!("concatenated document: expected parse error, got {other:?}"),
    }

    // Trailing garbage after `end` (blank lines stay fine).
    let with_blank = format!("{text}\n\n");
    assert_eq!(read_schedule(with_blank.as_bytes()).unwrap(), schedule);
    let with_garbage = format!("{text}round 99\n");
    match read_schedule(with_garbage.as_bytes()) {
        Err(SerialError::Parse { line, message }) => {
            assert!(
                message.contains("after `end`"),
                "unexpected message: {message}"
            );
            assert!(line > 0, "error must carry line provenance");
        }
        other => panic!("trailing garbage: expected parse error, got {other:?}"),
    }
}
