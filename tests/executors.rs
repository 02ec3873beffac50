//! Cross-executor equivalence: the hash-map reference machine, the linked
//! slot-store machine and the lane-plane packed machine (in every lane)
//! must produce **identical** final stores and identical model statistics
//! on arbitrary schedules.
//!
//! Schedules are generated randomly but validly: the generator tracks which
//! keys are live on each node so every transfer and local-op read hits a
//! value, while Free/Zero/Copy churn keeps the stores from being static.

use std::collections::HashSet;

use lowband::model::algebra::Nat;
use lowband::model::{
    link, Key, LinkedMachine, LocalOp, Machine, Merge, NodeId, PackedLinkedMachine, Schedule,
    ScheduleBuilder, Transfer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(feature = "proptest-tests")]
const CASES: u64 = 48;
#[cfg(not(feature = "proptest-tests"))]
const CASES: u64 = 16;

/// Keys every node starts out holding.
const POOL: u64 = 6;

/// Lane count of the packed machine.
const LANES: usize = 4;

fn pool_key(k: u64) -> Key {
    Key::tmp(1, k)
}

/// Build a random valid schedule plus the initial loads it assumes.
///
/// Returns `(schedule, loads)` where `loads` lists `(node, key, value)`
/// triples to place before running.
fn random_schedule(
    rng: &mut StdRng,
    n: usize,
    capacity: usize,
) -> (Schedule, Vec<(u32, Key, u64)>) {
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
            for (&src, &dst) in srcs.iter().zip(dsts.iter()).take(k) {
                let mut candidates: Vec<Key> = live[src as usize].iter().copied().collect();
                if candidates.is_empty() {
                    continue;
                }
                candidates.sort(); // HashSet order is nondeterministic
                let src_key = candidates[rng.gen_range(0..candidates.len())];
                let dst_key = pool_key(rng.gen_range(0..POOL));
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
                // Deliveries become readable only after the round: within a
                // round all reads precede all writes, so marking a dst live
                // immediately would let a later transfer of the same round
                // read a value that is not there yet.
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
    (b.build(), loads)
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

/// All executors agree bit-for-bit: final stores AND the model-level
/// execution statistics (rounds, messages, busiest round, local ops —
/// wall-clock time is excluded from stats equality). Every lane of the
/// packed machine carries the same loads, so each must match.
#[test]
fn executors_agree_on_random_schedules() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE4EC + case);
        let n = rng.gen_range(2..12);
        let capacity = rng.gen_range(1..4);
        let (schedule, loads) = random_schedule(&mut rng, n, capacity);
        let linked = link(&schedule).expect("generated schedules are valid");

        let mut hash: Machine<Nat> = Machine::new(n);
        let mut slot: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        let mut packed: PackedLinkedMachine<Nat, LANES> = PackedLinkedMachine::new(&linked);
        for &(node, key, v) in &loads {
            hash.load(NodeId(node), key, Nat(v));
            slot.load(NodeId(node), key, Nat(v));
            for lane in 0..LANES {
                packed.load_lane(NodeId(node), key, lane, Nat(v));
            }
        }

        let s_hash = hash.run(&schedule).expect("reference run");
        let s_slot = slot.run().expect("linked run");
        let s_packed = packed.run().expect("packed run");

        assert_eq!(s_hash, s_slot, "case {case}: linked stats diverge");
        assert_eq!(s_hash, s_packed, "case {case}: packed stats diverge");
        assert_eq!(s_hash.rounds, schedule.rounds(), "case {case}");
        assert_eq!(s_hash.messages, schedule.messages(), "case {case}");

        for node in 0..n as u32 {
            let want = hash.snapshot(NodeId(node));
            assert_eq!(
                want,
                slot.snapshot(NodeId(node)),
                "case {case}: linked store diverges at node {node}"
            );
            for lane in 0..LANES {
                assert_eq!(
                    want,
                    packed.snapshot_lane(NodeId(node), lane),
                    "case {case}: packed lane {lane} diverges at node {node}"
                );
            }
        }
    }
}

/// Compression composes with linking: compress(schedule) linked and run on
/// the slot store matches the original schedule on the reference machine.
#[test]
fn compressed_then_linked_still_agrees() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE + case);
        let n = rng.gen_range(2..10);
        let (schedule, loads) = random_schedule(&mut rng, n, 1);
        let compressed = lowband::model::compress(&schedule);
        let linked = link(&compressed).expect("compressed schedules are valid");

        let mut hash: Machine<Nat> = Machine::new(n);
        let mut hash_c: Machine<Nat> = Machine::new(n);
        let mut slot: LinkedMachine<Nat> = LinkedMachine::new(&linked);
        for &(node, key, v) in &loads {
            hash.load(NodeId(node), key, Nat(v));
            hash_c.load(NodeId(node), key, Nat(v));
            slot.load(NodeId(node), key, Nat(v));
        }
        hash.run(&schedule).expect("reference run");
        hash_c
            .run(&compressed)
            .expect("reference run on compressed");
        slot.run().expect("linked compressed run");
        for node in 0..n as u32 {
            assert_eq!(
                hash.snapshot(NodeId(node)),
                hash_c.snapshot(NodeId(node)),
                "case {case}: compression alone diverges at node {node}"
            );
            assert_eq!(
                hash_c.snapshot(NodeId(node)),
                slot.snapshot(NodeId(node)),
                "case {case}: linking the compressed schedule diverges at node {node}"
            );
        }
    }
}

/// Slot ids follow key order on every linked schedule, raw and compressed:
/// each node's keys ascend strictly, `slot_of` inverts `key_of`, keys the
/// schedule never mentions (below the first key, between two keys, above
/// the last) resolve to no slot, and values loaded under them still show
/// up in `LinkedMachine::snapshot` exactly as in `Machine`.
#[test]
fn slot_ids_follow_key_order() {
    let mut gaps = 0;
    for seed in 0..4 * CASES {
        let case = lowband::check::generate_for_seed(seed);
        let compressed = lowband::model::compress(&case.schedule);
        for (form, schedule) in [("raw", &case.schedule), ("compressed", &compressed)] {
            let linked = link(schedule).expect("generated schedules link");
            let mut hash: Machine<Nat> = Machine::new(case.n);
            let mut slot: LinkedMachine<Nat> = LinkedMachine::new(&linked);
            for &(node, key, v) in &case.loads {
                hash.load(NodeId(node), key, Nat(v));
                slot.load(NodeId(node), key, Nat(v));
            }
            for v in 0..case.n as u32 {
                let node = NodeId(v);
                let keys: Vec<Key> = (0..linked.slots_at(node) as u32)
                    .map(|s| linked.key_of(node, s))
                    .collect();
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} {form} node {v}: keys not strictly ascending"
                );
                for (s, &key) in keys.iter().enumerate() {
                    assert_eq!(
                        linked.slot_of(node, key),
                        Some(s as u32),
                        "seed {seed} {form} node {v}: slot_of(key_of({s}))"
                    );
                }
                // Keys just below the first, strictly between two
                // neighbours and just above the last cannot be interned;
                // a node without keys gets one arbitrary probe.
                let raw: Vec<u128> = keys.iter().map(|k| k.to_raw()).collect();
                let between: Vec<u128> = raw
                    .windows(2)
                    .filter(|w| w[1] - w[0] > 1)
                    .map(|w| w[0] + 1)
                    .collect();
                gaps += between.len();
                let mut absent: Vec<u128> = raw
                    .first()
                    .and_then(|r| r.checked_sub(1))
                    .into_iter()
                    .collect();
                absent.extend(between);
                absent.extend(raw.last().and_then(|r| r.checked_add(1)));
                if raw.is_empty() {
                    absent.push(Key::a(0, 0).to_raw());
                }
                for (i, key) in absent.into_iter().map(Key::from_raw).enumerate() {
                    assert_eq!(
                        linked.slot_of(node, key),
                        None,
                        "seed {seed} {form} node {v}: absent key {key:?} found a slot"
                    );
                    let value = Nat(1000 + i as u64);
                    hash.load(node, key, value);
                    slot.load(node, key, value);
                }
            }
            let s_hash = hash.run(schedule).expect("reference run");
            let s_slot = slot.run().expect("linked run");
            assert_eq!(s_hash, s_slot, "seed {seed} {form}: stats diverge");
            for v in 0..case.n as u32 {
                assert_eq!(
                    hash.snapshot(NodeId(v)),
                    slot.snapshot(NodeId(v)),
                    "seed {seed} {form}: stores diverge at node {v}"
                );
            }
        }
    }
    assert!(gaps > 0, "no key run had a gap to probe between");
}
