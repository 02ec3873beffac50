//! Seeded generation of random valid schedules for the differential
//! fuzzer.
//!
//! The generator tracks which keys are live on each node so every strict
//! read (transfer source, local-op factor) hits a value, keeps each round
//! within the capacity bound by construction, and never aims two writes at
//! one `(node, key)` in the same round — so every generated schedule lints
//! clean of errors ([`crate::lint_schedule`]) and executes without
//! `MissingValue` failures. `Free`/`Zero`/`Copy` churn keeps the stores
//! from being static.

use std::collections::HashSet;

use lowband_model::{Key, LocalOp, Merge, NodeId, Schedule, ScheduleBuilder, Transfer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys every node starts out holding.
pub const POOL: u64 = 6;

/// The `k`-th pool key (`k < POOL`).
pub fn pool_key(k: u64) -> Key {
    Key::tmp(1, k)
}

/// The preloaded-key predicate matching [`GeneratedCase::loads`]: the pool
/// keys are loaded on every node before execution. Pass to
/// [`crate::LintOptions::with_preloaded`] when linting generated
/// schedules.
pub fn pool_preloaded(_node: NodeId, key: Key) -> bool {
    (0..POOL).any(|k| pool_key(k) == key)
}

/// One generated fuzz case: a valid schedule plus the initial loads it
/// assumes.
#[derive(Clone, Debug)]
pub struct GeneratedCase {
    /// Network size.
    pub n: usize,
    /// Per-round send/receive capacity.
    pub capacity: usize,
    /// The schedule.
    pub schedule: Schedule,
    /// `(node, key, value)` triples to place before running.
    pub loads: Vec<(u32, Key, u64)>,
}

/// Generate a random valid schedule for `n` nodes at the given capacity.
pub fn generate(rng: &mut StdRng, n: usize, capacity: usize) -> GeneratedCase {
    let mut live: Vec<HashSet<Key>> = vec![(0..POOL).map(pool_key).collect(); n];
    let mut loads = Vec::new();
    for node in 0..n as u32 {
        for k in 0..POOL {
            loads.push((node, pool_key(k), u64::from(node) * 17 + k * 3 + 1));
        }
    }

    let mut b = ScheduleBuilder::with_capacity(n, capacity);
    let steps = rng.gen_range(3..10u32);
    for _ in 0..steps {
        if rng.gen_range(0..3u32) < 2 {
            // Communication round: each node may appear up to `capacity`
            // times on each side.
            let mut srcs: Vec<u32> = (0..n as u32)
                .flat_map(|v| std::iter::repeat_n(v, capacity))
                .collect();
            let mut dsts = srcs.clone();
            shuffle(rng, &mut srcs);
            shuffle(rng, &mut dsts);
            let k = rng.gen_range(1..=srcs.len());
            let mut transfers = Vec::new();
            let mut written: HashSet<(u32, Key)> = HashSet::new();
            for (&src, &dst) in srcs.iter().zip(dsts.iter()).take(k) {
                let mut candidates: Vec<Key> = live[src as usize].iter().copied().collect();
                if candidates.is_empty() {
                    continue;
                }
                candidates.sort(); // HashSet order is nondeterministic
                let src_key = candidates[rng.gen_range(0..candidates.len())];
                let dst_key = pool_key(rng.gen_range(0..POOL));
                // One write per (node, key) per round: a second write —
                // with an overwrite in the mix — would make the result
                // delivery-order dependent, which the linter rejects.
                if !written.insert((dst, dst_key)) {
                    continue;
                }
                let merge = if rng.gen_range(0..2u32) == 0 {
                    Merge::Overwrite
                } else {
                    Merge::Add
                };
                transfers.push(Transfer {
                    src: NodeId(src),
                    src_key,
                    dst: NodeId(dst),
                    dst_key,
                    merge,
                });
            }
            if !transfers.is_empty() {
                // Deliveries become readable only after the round: within
                // a round all reads precede all writes.
                for t in &transfers {
                    live[t.dst.index()].insert(t.dst_key);
                }
                b.round(transfers).expect("generator respects capacity");
            }
        } else {
            // Compute block: a few ops on random nodes.
            let mut ops = Vec::new();
            for _ in 0..rng.gen_range(1..2 * n) {
                let node = rng.gen_range(0..n as u32);
                let mut alive: Vec<Key> = live[node as usize].iter().copied().collect();
                alive.sort(); // HashSet order is nondeterministic
                let pick = |rng: &mut StdRng, alive: &[Key]| alive[rng.gen_range(0..alive.len())];
                let op = match rng.gen_range(0..7u32) {
                    0 if !alive.is_empty() => LocalOp::Mul {
                        node: NodeId(node),
                        dst: pool_key(rng.gen_range(0..POOL)),
                        lhs: pick(rng, &alive),
                        rhs: pick(rng, &alive),
                    },
                    1 if !alive.is_empty() => LocalOp::MulAdd {
                        node: NodeId(node),
                        dst: pool_key(rng.gen_range(0..POOL)),
                        lhs: pick(rng, &alive),
                        rhs: pick(rng, &alive),
                    },
                    2 if !alive.is_empty() => LocalOp::AddAssign {
                        node: NodeId(node),
                        dst: pool_key(rng.gen_range(0..POOL)),
                        src: pick(rng, &alive),
                    },
                    3 if !alive.is_empty() => LocalOp::Copy {
                        node: NodeId(node),
                        dst: pool_key(rng.gen_range(0..POOL)),
                        src: pick(rng, &alive),
                    },
                    4 => LocalOp::BlockMulAdd {
                        node: NodeId(node),
                        dim: 2,
                        a_ns: 20,
                        b_ns: 21,
                        c_ns: 22,
                    },
                    5 if alive.len() > 2 => {
                        let key = pick(rng, &alive);
                        live[node as usize].remove(&key);
                        LocalOp::Free {
                            node: NodeId(node),
                            key,
                        }
                    }
                    _ => LocalOp::Zero {
                        node: NodeId(node),
                        dst: pool_key(rng.gen_range(0..POOL)),
                    },
                };
                match op {
                    LocalOp::Free { .. } => {}
                    LocalOp::BlockMulAdd { c_ns, dim, .. } => {
                        for idx in 0..u64::from(dim) * u64::from(dim) {
                            live[node as usize].insert(Key::tmp(c_ns, idx));
                        }
                    }
                    _ => {
                        if let Some(dst) = op_dst(&op) {
                            live[node as usize].insert(dst);
                        }
                    }
                }
                ops.push(op);
            }
            b.compute(ops).expect("compute blocks are unconstrained");
        }
    }
    GeneratedCase {
        n,
        capacity,
        schedule: b.build(),
        loads,
    }
}

/// Derive network size, capacity, and a schedule from one seed — the
/// fuzzer's per-seed entry point.
pub fn generate_for_seed(seed: u64) -> GeneratedCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..12);
    let capacity = rng.gen_range(1..4);
    generate(&mut rng, n, capacity)
}

fn op_dst(op: &LocalOp) -> Option<Key> {
    match *op {
        LocalOp::Mul { dst, .. }
        | LocalOp::MulAdd { dst, .. }
        | LocalOp::AddAssign { dst, .. }
        | LocalOp::SubAssign { dst, .. }
        | LocalOp::Copy { dst, .. }
        | LocalOp::Zero { dst, .. } => Some(dst),
        LocalOp::BlockMulAdd { .. } | LocalOp::Free { .. } => None,
    }
}

fn shuffle(rng: &mut StdRng, xs: &mut [u32]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{lint_linked, lint_schedule, LintOptions};

    #[test]
    fn generated_schedules_lint_clean() {
        for seed in 0..32 {
            let case = generate_for_seed(seed);
            let opts = LintOptions::with_preloaded(&pool_preloaded);
            let report = lint_schedule(&case.schedule, &opts);
            assert!(report.is_clean(), "seed {seed}: {report}");
            let linked = lowband_model::link(&case.schedule);
            let lreport = lint_linked(&case.schedule, &linked);
            assert!(lreport.is_clean(), "seed {seed} linked: {lreport}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_for_seed(42);
        let b = generate_for_seed(42);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.loads, b.loads);
    }
}
