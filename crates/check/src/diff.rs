//! The cross-executor differential runner.
//!
//! One schedule, one set of initial loads, every executor backend: the
//! hash-map reference [`Machine`], the slot-addressed [`LinkedMachine`],
//! and the lane-plane [`PackedLinkedMachine`] (every lane loaded alike)
//! must produce bit-identical final stores and identical model-level
//! [`ExecutionStats`]. [`run_differential`] checks the full runs;
//! [`run_differential_windowed`] additionally chops the run into
//! checkpoint windows and migrates the state *across backends* at every
//! boundary — exercising executor-interchangeable [`Checkpoint`]s, the
//! window budget on plain (`NoopFaults`) runs, and the guarded path with
//! an enabled-but-empty fault plan. The packed machine has no
//! checkpoint/restore, so it sits out the windowed rotation.

use std::collections::HashMap;

use lowband_model::algebra::Nat;
use lowband_model::{
    link, Checkpoint, ExecutionStats, FaultPlan, Key, LinkedMachine, Machine, ModelError, NodeId,
    NoopFaults, NoopTracer, PackedLinkedMachine, RunWindow, Schedule,
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

    let linked = match link(schedule) {
        Ok(l) => l,
        Err(e) => {
            // The reference executes schedules linking refuses only if the
            // refusal is a linking bug.
            return match &want {
                Ok(_) => Err(mismatch(
                    "link",
                    format!("linking failed on a runnable schedule: {e:?}"),
                )),
                Err(_) => Ok(()),
            };
        }
    };

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

/// Either the checkpoint a paused window produced, or the final state of
/// a completed run.
type WindowOutcome = Result<Checkpoint<Nat>, (Snapshots, ExecutionStats)>;

/// One window of at most `max_rounds` rounds on one backend, resuming
/// from `ckpt`, driven by the given fault hook.
fn run_one_window<F: lowband_model::FaultHook>(
    schedule: &Schedule,
    linked: &lowband_model::LinkedSchedule,
    backend: usize,
    faults: &mut F,
    ckpt: &Checkpoint<Nat>,
    max_rounds: usize,
    stats: &mut ExecutionStats,
) -> Result<WindowOutcome, ModelError> {
    let n = schedule.n();
    let window = RunWindow::new(ckpt.next_step(), max_rounds);
    let snap =
        |get: &dyn Fn(u32) -> HashMap<Key, Nat>| (0..n as u32).map(get).collect::<Snapshots>();
    match backend % 2 {
        0 => {
            let mut m: Machine<Nat> = Machine::new(n);
            m.restore(ckpt)?;
            match m.run_guarded(schedule, &mut NoopTracer, faults, window, stats)? {
                Some(next) => Ok(Ok(m.checkpoint(next, *stats))),
                None => Ok(Err((snap(&|v| m.snapshot(NodeId(v))), *stats))),
            }
        }
        _ => {
            let mut m: LinkedMachine<Nat> = LinkedMachine::new(linked);
            m.restore(ckpt)?;
            match m.run_guarded(&mut NoopTracer, faults, window, stats)? {
                Some(next) => Ok(Ok(m.checkpoint(next, *stats))),
                None => Ok(Err((snap(&|v| m.snapshot(NodeId(v))), *stats))),
            }
        }
    }
}

/// Run the schedule in windows of `max_rounds` rounds, rotating the
/// executor backend at every checkpoint boundary (reference → linked →
/// reference → …), and check the final state against an
/// unwindowed reference run. A checkpoint taken on any backend must
/// restore bit-for-bit onto every other.
pub fn run_differential_windowed(
    schedule: &Schedule,
    loads: &[(u32, Key, u64)],
    max_rounds: usize,
    hook: HookMode,
) -> Result<(), Mismatch> {
    assert!(max_rounds >= 1, "a zero-round window cannot make progress");
    let want = reference(schedule, loads);
    let linked = match link(schedule) {
        Ok(l) => l,
        // Full differential covers link refusals; nothing to window.
        Err(_) => return Ok(()),
    };

    let n = schedule.n();
    let mut stores: Snapshots = vec![HashMap::new(); n];
    for &(node, key, v) in loads {
        stores[node as usize].insert(key, Nat(v));
    }
    let mut ckpt = Checkpoint::new(0, ExecutionStats::default(), stores);
    let mut stats = ExecutionStats::default();
    let executor = match hook {
        HookMode::Disabled => "windowed",
        HookMode::EmptyPlan => "windowed-guarded",
    };

    let mut backend = 0;
    loop {
        let outcome = match hook {
            HookMode::Disabled => run_one_window(
                schedule,
                &linked,
                backend,
                &mut NoopFaults,
                &ckpt,
                max_rounds,
                &mut stats,
            ),
            // A fresh empty plan per window: enabled-but-inert hooks are
            // stateless by construction.
            HookMode::EmptyPlan => run_one_window(
                schedule,
                &linked,
                backend,
                &mut FaultPlan::new(vec![]),
                &ckpt,
                max_rounds,
                &mut stats,
            ),
        };
        match outcome {
            Err(e) => return compare(executor, &want, Err(e)),
            Ok(Ok(next)) => {
                if next.next_step() == ckpt.next_step() && max_rounds > 0 {
                    // Defensive: a window that paused without advancing
                    // would loop forever.
                    return Err(mismatch(
                        executor,
                        format!("window made no progress at step {}", next.next_step()),
                    ));
                }
                ckpt = next;
            }
            Ok(Err(fin)) => return compare(executor, &want, Ok(fin)),
        }
        backend += 1;
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
