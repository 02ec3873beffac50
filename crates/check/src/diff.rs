//! The cross-executor differential runner.
//!
//! One schedule, one set of initial loads, both executors: the hash-map
//! reference [`Machine`] and the slot-addressed [`PackedLinkedMachine`],
//! at one lane ([`LinkedMachine`]) and at four (every lane loaded alike),
//! must produce bit-identical final stores and identical model-level
//! [`ExecutionStats`]. [`run_differential`] checks the full runs;
//! [`run_differential_windowed`] additionally chops the linked run into
//! checkpoint windows and resumes every window on a *fresh*
//! [`LinkedMachine`] restored from the previous window's checkpoint —
//! exercising checkpoint/restore, the window budget on plain
//! (`NoopFaults`) runs, and the guarded path with an enabled-but-empty
//! fault plan — then diffs the end state against the unwindowed reference
//! run. Checkpoints and run windows exist at one lane only, so the
//! four-lane machine sits out the windowed chain.

use std::collections::HashMap;

use lowband_model::algebra::Nat;
use lowband_model::{
    link, ExecutionStats, FaultPlan, Key, LinkedMachine, Machine, ModelError, NodeId, NoopFaults,
    NoopTracer, PackedLinkedMachine, RunWindow, Schedule,
};

/// Lane count of the packed backend.
const LANES: usize = 4;

/// One observed divergence between executors.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Which executor (or phase) disagreed with the reference.
    pub executor: &'static str,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.executor, self.detail)
    }
}

fn mismatch(executor: &'static str, detail: String) -> Mismatch {
    Mismatch { executor, detail }
}

type Snapshots = Vec<HashMap<Key, Nat>>;

/// The reference outcome: either final stores + stats, or the error the
/// reference machine raised (every other executor must then raise an
/// equal error).
fn reference(
    schedule: &Schedule,
    loads: &[(u32, Key, u64)],
) -> Result<(Snapshots, ExecutionStats), ModelError> {
    let mut m: Machine<Nat> = Machine::new(schedule.n());
    for &(node, key, v) in loads {
        m.load(NodeId(node), key, Nat(v));
    }
    let stats = m.run(schedule)?;
    let stores = (0..schedule.n() as u32)
        .map(|node| m.snapshot(NodeId(node)))
        .collect();
    Ok((stores, stats))
}

fn compare(
    executor: &'static str,
    want: &Result<(Snapshots, ExecutionStats), ModelError>,
    got: Result<(Snapshots, ExecutionStats), ModelError>,
) -> Result<(), Mismatch> {
    match (want, got) {
        (Ok((stores, stats)), Ok((g_stores, g_stats))) => {
            if *stats != g_stats {
                return Err(mismatch(
                    executor,
                    format!("stats diverge: reference {stats:?}, got {g_stats:?}"),
                ));
            }
            for (node, (w, g)) in stores.iter().zip(g_stores.iter()).enumerate() {
                if w != g {
                    return Err(mismatch(
                        executor,
                        format!("store diverges at node {node}: reference {w:?}, got {g:?}"),
                    ));
                }
            }
            Ok(())
        }
        (Err(e), Err(g)) => {
            if *e != g {
                return Err(mismatch(
                    executor,
                    format!("errors diverge: reference {e:?}, got {g:?}"),
                ));
            }
            Ok(())
        }
        (Ok(_), Err(g)) => Err(mismatch(executor, format!("reference succeeds, got {g:?}"))),
        (Err(e), Ok(_)) => Err(mismatch(
            executor,
            format!("reference fails ({e:?}), got success"),
        )),
    }
}

/// Run `schedule` on every executor backend and check that final stores
/// and [`ExecutionStats`] agree bit-for-bit with the reference machine
/// (or that every executor raises the same error). The packed backend
/// must match the reference in each of its lanes.
pub fn run_differential(schedule: &Schedule, loads: &[(u32, Key, u64)]) -> Result<(), Mismatch> {
    let n = schedule.n();
    let want = reference(schedule, loads);

    let linked = link(schedule);

    let got = {
        let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        for &(node, key, v) in loads {
            m.load(NodeId(node), key, Nat(v));
        }
        m.run().map(|stats| {
            let stores = (0..n as u32).map(|v| m.snapshot(NodeId(v))).collect();
            (stores, stats)
        })
    };
    compare("linked", &want, got)?;

    let mut m: PackedLinkedMachine<Nat, LANES> = PackedLinkedMachine::new(&linked);
    for &(node, key, v) in loads {
        for lane in 0..LANES {
            m.load_lane(NodeId(node), key, lane, Nat(v));
        }
    }
    match m.run() {
        Err(e) => compare("packed", &want, Err(e)),
        Ok(stats) => (0..LANES).try_for_each(|lane| {
            let stores = (0..n as u32)
                .map(|v| m.snapshot_lane(NodeId(v), lane))
                .collect();
            compare("packed", &want, Ok((stores, stats)))
                .map_err(|e| mismatch(e.executor, format!("lane {lane}: {}", e.detail)))
        }),
    }
}

/// Which fault hook drives a windowed run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookMode {
    /// `NoopFaults` — the statically-disabled hook; exercises the plain
    /// path, where the window budget must bind all the same.
    Disabled,
    /// An enabled but empty [`FaultPlan`] — exercises the guarded path
    /// (round checksums, crash polling) without injecting anything.
    EmptyPlan,
}

/// Run the linked schedule in windows of `max_rounds` rounds, each on a
/// fresh [`LinkedMachine`] restored from the previous window's
/// checkpoint, and check the final state against an unwindowed reference
/// run. Restoring must carry stores, side maps, stats and the step cursor
/// bit-for-bit across machines.
pub fn run_differential_windowed(
    schedule: &Schedule,
    loads: &[(u32, Key, u64)],
    max_rounds: usize,
    hook: HookMode,
) -> Result<(), Mismatch> {
    assert!(max_rounds >= 1, "a zero-round window cannot make progress");
    let want = reference(schedule, loads);
    let linked = link(schedule);
    let executor = match hook {
        HookMode::Disabled => "windowed",
        HookMode::EmptyPlan => "windowed-guarded",
    };

    let mut loaded: LinkedMachine<Nat> = LinkedMachine::new(&linked);
    for &(node, key, v) in loads {
        loaded.load(NodeId(node), key, Nat(v));
    }
    let mut ckpt = loaded.checkpoint(0, ExecutionStats::default());
    loop {
        let mut m: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        let mut stats = ckpt.stats();
        let window = RunWindow::new(ckpt.next_step(), max_rounds);
        let outcome = m.restore(&ckpt).and_then(|()| match hook {
            HookMode::Disabled => {
                m.run_guarded(&mut NoopTracer, &mut NoopFaults, window, &mut stats)
            }
            // A fresh empty plan per window: enabled-but-inert hooks are
            // stateless by construction.
            HookMode::EmptyPlan => m.run_guarded(
                &mut NoopTracer,
                &mut FaultPlan::new(vec![]),
                window,
                &mut stats,
            ),
        });
        match outcome {
            Err(e) => return compare(executor, &want, Err(e)),
            Ok(None) => {
                let stores = (0..schedule.n() as u32)
                    .map(|v| m.snapshot(NodeId(v)))
                    .collect();
                return compare(executor, &want, Ok((stores, stats)));
            }
            // Defensive: a window that paused without advancing would
            // loop forever.
            Ok(Some(next)) if next == ckpt.next_step() => {
                return Err(mismatch(
                    executor,
                    format!("window made no progress at step {next}"),
                ));
            }
            Ok(Some(next)) => ckpt = m.checkpoint(next, stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_for_seed;

    #[test]
    fn generated_cases_agree_across_executors() {
        for seed in 0..16 {
            let case = generate_for_seed(seed);
            run_differential(&case.schedule, &case.loads)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}"));
        }
    }

    #[test]
    fn windowed_chain_matches_full_run() {
        for seed in 0..8 {
            let case = generate_for_seed(seed);
            for hook in [HookMode::Disabled, HookMode::EmptyPlan] {
                for k in [1, 3] {
                    run_differential_windowed(&case.schedule, &case.loads, k, hook)
                        .unwrap_or_else(|m| panic!("seed {seed} k={k} {hook:?}: {m}"));
                }
            }
        }
    }
}
