//! Minimal regression tests for executor bugs found by (or fixed alongside)
//! the `lowband-check` tooling.
//!
//! `RunWindow::max_rounds` was silently ignored when the fault hook was
//! statically disabled (`NoopFaults`): a windowed plain run executed the
//! whole schedule instead of pausing at the boundary. The budget must
//! bind on every windowed run, hooked or not.

use lowband::model::algebra::Nat;
use lowband::model::{
    link, ExecutionStats, Key, LinkedMachine, LocalOp, Machine, Merge, NodeId, NoopFaults,
    NoopTracer, RunWindow, ScheduleBuilder, Transfer,
};

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
/// state as an unwindowed reference run.
#[test]
fn window_budget_binds_without_fault_hook() {
    let (schedule, loads) = windowed_fixture();
    let linked = link(&schedule);

    // Unwindowed reference state.
    let mut reference: Machine<Nat> = Machine::new(3);
    for &(node, key, v) in &loads {
        reference.load(NodeId(node), key, Nat(v));
    }
    let ref_stats = reference.run(&schedule).unwrap();
    assert_eq!(ref_stats.rounds, 4);

    // A 2-round window must pause (the old bug ran to completion and
    // returned Ok(None)), then resuming must finish.
    let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    for &(node, key, v) in &loads {
        m.load(NodeId(node), key, Nat(v));
    }
    let mut stats = ExecutionStats::default();
    let cursor = m
        .run_guarded(
            &mut NoopTracer,
            &mut NoopFaults,
            RunWindow::new(0, 2),
            &mut stats,
        )
        .unwrap()
        .expect("windowed plain run ignored max_rounds");
    assert_eq!(stats.rounds, 2, "wrong rounds at the boundary");
    let done = m
        .run_guarded(
            &mut NoopTracer,
            &mut NoopFaults,
            RunWindow::new(cursor, usize::MAX),
            &mut stats,
        )
        .unwrap();
    assert_eq!(done, None);
    assert_eq!(stats, ref_stats);
    for node in 0..3 {
        assert_eq!(m.snapshot(NodeId(node)), reference.snapshot(NodeId(node)));
    }
}
