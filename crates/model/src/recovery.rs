//! Checkpoint/restore support for windowed, fault-guarded execution.
//!
//! Runs driven by a real [`FaultHook`](lowband_faults::FaultHook) execute
//! in **windows** of at most `k` rounds ([`RunWindow`]); at each window
//! boundary the driver snapshots machine state into a [`Checkpoint`]. When
//! a fault surfaces (a round checksum mismatch or a node crash), the driver
//! restores the last checkpoint and replays from there — the plan's
//! one-shot faults guarantee progress.
//!
//! A checkpoint stores the **canonical hash-map representation** of every
//! node's store (the same shape `snapshot` returns on both scalar
//! executors), plus the step cursor and the statistics accumulated so far.
//! That makes checkpoints executor-independent: a checkpoint taken on the
//! hash-map machine restores bit-for-bit onto the linked machine and vice
//! versa, because `next_step` indexes the schedule's step list and linking
//! preserves step positions one-to-one.

use std::collections::HashMap;

use crate::{ExecutionStats, Key, Semiring};

/// The step range and round budget of one execution window.
#[derive(Clone, Copy, Debug)]
pub struct RunWindow {
    /// First schedule step to execute (0 for a fresh run; a checkpoint's
    /// `next_step` when resuming).
    pub start_step: usize,
    /// Stop *before* the communication step that would begin round
    /// `max_rounds + 1` of this window, returning the resume cursor.
    /// `usize::MAX` runs to completion. The budget binds on **every** run,
    /// with or without a fault hook: a windowed plain run (e.g.
    /// [`NoopFaults`](lowband_faults::NoopFaults)) stops at the boundary
    /// and returns `Ok(Some(step))` exactly like a guarded one.
    pub max_rounds: usize,
}

impl RunWindow {
    /// The whole schedule in one window (no checkpoint boundary).
    pub fn full() -> RunWindow {
        RunWindow {
            start_step: 0,
            max_rounds: usize::MAX,
        }
    }

    /// Resume at `start_step`, stopping after at most `max_rounds` rounds.
    pub fn new(start_step: usize, max_rounds: usize) -> RunWindow {
        RunWindow {
            start_step,
            max_rounds,
        }
    }
}

/// A restorable snapshot of executor state at a step boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint<V: Semiring> {
    next_step: usize,
    stats: ExecutionStats,
    stores: Vec<HashMap<Key, V>>,
}

impl<V: Semiring> Checkpoint<V> {
    /// Assemble a checkpoint from its parts. Executors call this from
    /// their `checkpoint` methods; drivers normally never construct one
    /// directly.
    pub fn new(
        next_step: usize,
        stats: ExecutionStats,
        stores: Vec<HashMap<Key, V>>,
    ) -> Checkpoint<V> {
        Checkpoint {
            next_step,
            stats,
            stores,
        }
    }

    /// Network size the checkpoint was taken on.
    pub fn n(&self) -> usize {
        self.stores.len()
    }

    /// The schedule step execution resumes at.
    pub fn next_step(&self) -> usize {
        self.next_step
    }

    /// Statistics accumulated up to the checkpoint.
    pub fn stats(&self) -> ExecutionStats {
        self.stats
    }

    /// Per-node stores in canonical hash-map form.
    pub fn stores(&self) -> &[HashMap<Key, V>] {
        &self.stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Nat;

    #[test]
    fn checkpoint_accessors_roundtrip() {
        let mut store = HashMap::new();
        store.insert(Key::a(0, 0), Nat(7));
        let stats = ExecutionStats {
            rounds: 3,
            ..Default::default()
        };
        let ckpt = Checkpoint::new(5, stats, vec![store, HashMap::new()]);
        assert_eq!(ckpt.n(), 2);
        assert_eq!(ckpt.next_step(), 5);
        assert_eq!(ckpt.stats().rounds, 3);
        assert_eq!(ckpt.stores()[0].get(&Key::a(0, 0)), Some(&Nat(7)));
    }

    #[test]
    fn full_window_runs_everything() {
        let w = RunWindow::full();
        assert_eq!(w.start_step, 0);
        assert_eq!(w.max_rounds, usize::MAX);
        let w = RunWindow::new(4, 8);
        assert_eq!((w.start_step, w.max_rounds), (4, 8));
    }
}
