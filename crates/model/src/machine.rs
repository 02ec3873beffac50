//! The reference runtime: executes a [`Schedule`] against per-node
//! hash-map value stores — the oracle every other executor is diffed
//! against.

use std::collections::HashMap;
use std::time::Instant;

use lowband_faults::{mix64, FaultHook, NoopFaults, Tamper};

use crate::schedule::{LocalOp, Merge, Step};
use crate::{Key, ModelError, NodeId, Schedule, Semiring};

pub use crate::stats::ExecutionStats;

/// A network of `n` computers, each with a key–value store of semiring
/// elements.
///
/// The machine executes compiled [`Schedule`]s. It re-validates the
/// one-send/one-receive constraint on every round (the
/// [`crate::ScheduleBuilder`] already enforces it; this independent
/// re-check is part of what makes the machine the oracle), so a successful
/// [`Machine::run`] certifies that the computation fits the low-bandwidth
/// model.
///
/// This is the oracle: it runs whole schedules only. Run windows and
/// checkpoints belong to the slot machine
/// ([`crate::LinkedMachine`]), which serves every program path; the
/// oracle keeps one whole-run fault hook ([`Machine::run_guarded`]) as the
/// reference for faulted outcomes.
#[derive(Clone, Debug)]
pub struct Machine<V: Semiring> {
    stores: Vec<HashMap<Key, V>>,
    /// Scratch stamps/counters for constraint validation.
    send_stamp: Vec<u32>,
    recv_stamp: Vec<u32>,
    send_count: Vec<u32>,
    recv_count: Vec<u32>,
    stamp: u32,
}

impl<V: Semiring> Machine<V> {
    /// Create a machine with `n` computers and empty stores.
    pub fn new(n: usize) -> Machine<V> {
        Machine {
            stores: vec![HashMap::new(); n],
            send_stamp: vec![0; n],
            recv_stamp: vec![0; n],
            send_count: vec![0; n],
            recv_count: vec![0; n],
            stamp: 0,
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.stores.len()
    }

    /// Place `value` under `key` at `node` (input loading).
    pub fn load(&mut self, node: NodeId, key: Key, value: V) {
        self.stores[node.index()].insert(key, value);
    }

    /// Read the value under `key` at `node`, if present.
    pub fn get(&self, node: NodeId, key: Key) -> Option<&V> {
        self.stores[node.index()].get(&key)
    }

    /// Read the value under `key` at `node`, or semiring zero if absent.
    pub fn get_or_zero(&self, node: NodeId, key: Key) -> V {
        self.get(node, key).cloned().unwrap_or_else(V::zero)
    }

    /// Execute a schedule. On success returns the cost accounting; on
    /// failure the machine state is left as of the failing step.
    pub fn run(&mut self, schedule: &Schedule) -> Result<ExecutionStats, ModelError> {
        let mut stats = ExecutionStats::default();
        self.run_guarded(schedule, &mut NoopFaults, &mut stats)?;
        Ok(stats)
    }

    /// [`Machine::run`] under a fault hook: executes the whole schedule,
    /// querying `faults` at every round boundary and message and
    /// accumulating into `stats`, which is valid on every exit path
    /// (errors included). The round index handed to the hook is
    /// `stats.rounds`.
    ///
    /// On an injected crash the victim's store is wiped and the run aborts
    /// with [`ModelError::NodeCrashed`]; a lost/corrupted message fails
    /// the round's payload checksum and aborts with
    /// [`ModelError::Corruption`]. This is the reference the slot
    /// machine's fault path is checked against: one fault plan must give
    /// both executors the same outcome, fault log, stats and stores.
    ///
    /// All fault bookkeeping is guarded by `F::ENABLED` (a constant): with
    /// [`NoopFaults`] this compiles to exactly [`Machine::run`].
    pub fn run_guarded<F: FaultHook>(
        &mut self,
        schedule: &Schedule,
        faults: &mut F,
        stats: &mut ExecutionStats,
    ) -> Result<(), ModelError> {
        if schedule.n() != self.n() {
            return Err(ModelError::SizeMismatch {
                expected: schedule.n(),
                actual: self.n(),
            });
        }
        let start = Instant::now();
        let result = self.run_steps(schedule, faults, stats);
        stats.elapsed += start.elapsed();
        result
    }

    fn run_steps<F: FaultHook>(
        &mut self,
        schedule: &Schedule,
        faults: &mut F,
        stats: &mut ExecutionStats,
    ) -> Result<(), ModelError> {
        let cap = schedule.capacity() as u32;
        let mut inbox: Vec<(NodeId, Key, Merge, V)> = Vec::new();
        for (step_idx, step) in schedule.steps().iter().enumerate() {
            match step {
                Step::Comm(round) => {
                    if F::ENABLED {
                        if let Some(victim) = faults.crash(stats.rounds) {
                            let victim = NodeId(victim);
                            // Targets outside the network (a plan generated
                            // for a different n) are ignored, never a panic.
                            if victim.index() < self.n() {
                                self.stores[victim.index()].clear();
                                return Err(ModelError::NodeCrashed {
                                    node: victim,
                                    round: stats.rounds,
                                });
                            }
                        }
                    }
                    self.stamp += 1;
                    let stamp = self.stamp;
                    inbox.clear();
                    inbox.reserve(round.transfers.len());
                    // Commutative rolling checksums of the payloads as sent
                    // vs. as delivered: order-independent (wrapping sum of
                    // mixed digests), so every executor computes the same
                    // value for the same round.
                    let (mut sent_sum, mut recv_sum) = (0u64, 0u64);
                    // Read phase: gather all payloads and validate the
                    // bandwidth constraint before any store is mutated, so
                    // that delivery within a round is simultaneous.
                    for t in &round.transfers {
                        for node in [t.src, t.dst] {
                            if node.index() >= self.n() {
                                return Err(ModelError::NodeOutOfRange { node, n: self.n() });
                            }
                        }
                        let si = t.src.index();
                        if self.send_stamp[si] != stamp {
                            self.send_stamp[si] = stamp;
                            self.send_count[si] = 0;
                        }
                        self.send_count[si] += 1;
                        if self.send_count[si] > cap {
                            return Err(ModelError::SendConflict {
                                round: stats.rounds,
                                node: t.src,
                            });
                        }
                        let di = t.dst.index();
                        if self.recv_stamp[di] != stamp {
                            self.recv_stamp[di] = stamp;
                            self.recv_count[di] = 0;
                        }
                        self.recv_count[di] += 1;
                        if self.recv_count[di] > cap {
                            return Err(ModelError::ReceiveConflict {
                                round: stats.rounds,
                                node: t.dst,
                            });
                        }
                        let mut payload = self.stores[t.src.index()]
                            .get(&t.src_key)
                            .cloned()
                            .ok_or(ModelError::MissingValue {
                                node: t.src,
                                key: t.src_key,
                                step: step_idx,
                            })?;
                        if F::ENABLED {
                            sent_sum = sent_sum.wrapping_add(mix64(payload.digest()));
                            match faults.tamper(stats.rounds, t.src.0) {
                                Tamper::None => {}
                                Tamper::Drop => continue,
                                Tamper::Corrupt => payload = payload.corrupted(),
                            }
                            recv_sum = recv_sum.wrapping_add(mix64(payload.digest()));
                        }
                        inbox.push((t.dst, t.dst_key, t.merge, payload));
                    }
                    // Write phase: deliver.
                    for (dst, dst_key, merge, payload) in inbox.drain(..) {
                        let store = &mut self.stores[dst.index()];
                        match merge {
                            Merge::Overwrite => {
                                store.insert(dst_key, payload);
                            }
                            Merge::Add => {
                                let entry = store.entry(dst_key).or_insert_with(V::zero);
                                *entry = entry.add(&payload);
                            }
                        }
                    }
                    if F::ENABLED && sent_sum != recv_sum {
                        return Err(ModelError::Corruption {
                            round: stats.rounds,
                        });
                    }
                    stats.record_round(round.transfers.len());
                }
                Step::Compute(ops) => {
                    for op in ops {
                        self.apply_local(*op, step_idx)?;
                        stats.local_ops += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Clone of the full key–value store at `node` (for equivalence tests
    /// and output extraction).
    pub fn snapshot(&self, node: NodeId) -> HashMap<Key, V> {
        self.stores[node.index()].clone()
    }

    fn apply_local(&mut self, op: LocalOp, step: usize) -> Result<(), ModelError> {
        // Schedules built by `ScheduleBuilder` can't name out-of-range
        // nodes, but deserialized or hand-built ones can — surface those as
        // a model error, never an index panic.
        let node = op.node();
        if node.index() >= self.n() {
            return Err(ModelError::NodeOutOfRange { node, n: self.n() });
        }
        match op {
            LocalOp::Mul {
                node,
                dst,
                lhs,
                rhs,
            } => {
                let store = &mut self.stores[node.index()];
                let a = store.get(&lhs).cloned().ok_or(ModelError::MissingValue {
                    node,
                    key: lhs,
                    step,
                })?;
                let b = store.get(&rhs).cloned().ok_or(ModelError::MissingValue {
                    node,
                    key: rhs,
                    step,
                })?;
                store.insert(dst, a.mul(&b));
            }
            LocalOp::AddAssign { node, dst, src } => {
                let store = &mut self.stores[node.index()];
                let s = store.get(&src).cloned().ok_or(ModelError::MissingValue {
                    node,
                    key: src,
                    step,
                })?;
                let entry = store.entry(dst).or_insert_with(V::zero);
                *entry = entry.add(&s);
            }
            LocalOp::MulAdd {
                node,
                dst,
                lhs,
                rhs,
            } => {
                let store = &mut self.stores[node.index()];
                let a = store.get(&lhs).cloned().ok_or(ModelError::MissingValue {
                    node,
                    key: lhs,
                    step,
                })?;
                let b = store.get(&rhs).cloned().ok_or(ModelError::MissingValue {
                    node,
                    key: rhs,
                    step,
                })?;
                let entry = store.entry(dst).or_insert_with(V::zero);
                *entry = entry.add(&a.mul(&b));
            }
            LocalOp::SubAssign { node, dst, src } => {
                let store = &mut self.stores[node.index()];
                let s = store.get(&src).cloned().ok_or(ModelError::MissingValue {
                    node,
                    key: src,
                    step,
                })?;
                let negated = s.try_neg().ok_or(ModelError::UnsupportedOp {
                    node,
                    step,
                    what: "additive inverses (a ring)",
                })?;
                let entry = store.entry(dst).or_insert_with(V::zero);
                *entry = entry.add(&negated);
            }
            LocalOp::BlockMulAdd {
                node,
                dim,
                a_ns,
                b_ns,
                c_ns,
            } => {
                let store = &mut self.stores[node.index()];
                block_mul_add(store, dim as usize, a_ns, b_ns, c_ns);
            }
            LocalOp::Copy { node, dst, src } => {
                let store = &mut self.stores[node.index()];
                let s = store.get(&src).cloned().ok_or(ModelError::MissingValue {
                    node,
                    key: src,
                    step,
                })?;
                store.insert(dst, s);
            }
            LocalOp::Zero { node, dst } => {
                self.stores[node.index()].insert(dst, V::zero());
            }
            LocalOp::Free { node, key } => {
                self.stores[node.index()].remove(&key);
            }
        }
        Ok(())
    }
}

/// The node-local dense kernel behind [`LocalOp::BlockMulAdd`]: reads the
/// `A`/`B` blocks into dense buffers (missing entries are zero), runs the
/// cubic product in dense scratch, and accumulates into the `C` keys.
///
/// Every one of the `dim²` output keys is materialized (zero included):
/// key *existence* must depend only on the schedule, never on runtime
/// values, so downstream transfers compiled from structure alone can read
/// the outputs unconditionally.
pub(crate) fn block_mul_add<V: Semiring>(
    store: &mut HashMap<Key, V>,
    dim: usize,
    a_ns: u64,
    b_ns: u64,
    c_ns: u64,
) {
    let fetch = |store: &HashMap<Key, V>, ns: u64| -> Vec<V> {
        (0..dim * dim)
            .map(|idx| {
                store
                    .get(&Key::tmp(ns, idx as u64))
                    .cloned()
                    .unwrap_or_else(V::zero)
            })
            .collect()
    };
    let a = fetch(store, a_ns);
    let b = fetch(store, b_ns);
    let mut out = vec![V::zero(); dim * dim];
    for r in 0..dim {
        for q in 0..dim {
            let av = &a[r * dim + q];
            if av.is_zero() {
                continue;
            }
            for c in 0..dim {
                let bv = &b[q * dim + c];
                if bv.is_zero() {
                    continue;
                }
                let cell = &mut out[r * dim + c];
                *cell = cell.add(&av.mul(bv));
            }
        }
    }
    for (idx, v) in out.into_iter().enumerate() {
        let key = Key::tmp(c_ns, idx as u64);
        let entry = store.entry(key).or_insert_with(V::zero);
        *entry = entry.add(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Nat;
    use crate::{ScheduleBuilder, Transfer};

    fn xfer(src: u32, sk: Key, dst: u32, dk: Key, merge: Merge) -> Transfer {
        Transfer {
            src: NodeId(src),
            src_key: sk,
            dst: NodeId(dst),
            dst_key: dk,
            merge,
        }
    }

    #[test]
    fn overwrite_and_add_merges() {
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![
            xfer(0, Key::a(0, 0), 2, Key::tmp(0, 0), Merge::Overwrite),
            xfer(1, Key::a(1, 0), 0, Key::tmp(0, 1), Merge::Add),
        ])
        .unwrap();
        b.round(vec![xfer(1, Key::a(1, 0), 0, Key::tmp(0, 1), Merge::Add)])
            .unwrap();
        let s = b.build();

        let mut m: Machine<Nat> = Machine::new(3);
        m.load(NodeId(0), Key::a(0, 0), Nat(5));
        m.load(NodeId(1), Key::a(1, 0), Nat(3));
        let stats = m.run(&s).unwrap();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.max_round_messages, 2);
        assert_eq!(m.get(NodeId(2), Key::tmp(0, 0)), Some(&Nat(5)));
        // Added twice starting from absent (=zero).
        assert_eq!(m.get(NodeId(0), Key::tmp(0, 1)), Some(&Nat(6)));
        // Sender keeps its copy.
        assert_eq!(m.get(NodeId(1), Key::a(1, 0)), Some(&Nat(3)));
    }

    #[test]
    fn simultaneous_swap_within_a_round() {
        // Delivery is simultaneous: two nodes can exchange values in one
        // round without clobbering each other.
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![
            xfer(0, Key::tmp(0, 0), 1, Key::tmp(0, 0), Merge::Overwrite),
            xfer(1, Key::tmp(0, 0), 0, Key::tmp(0, 0), Merge::Overwrite),
        ])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(2);
        m.load(NodeId(0), Key::tmp(0, 0), Nat(1));
        m.load(NodeId(1), Key::tmp(0, 0), Nat(2));
        m.run(&s).unwrap();
        assert_eq!(m.get(NodeId(0), Key::tmp(0, 0)), Some(&Nat(2)));
        assert_eq!(m.get(NodeId(1), Key::tmp(0, 0)), Some(&Nat(1)));
    }

    #[test]
    fn local_ops_compute_products_and_sums() {
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![
            LocalOp::Mul {
                node: NodeId(0),
                dst: Key::prod(0, 0),
                lhs: Key::a(0, 0),
                rhs: Key::b(0, 0),
            },
            LocalOp::AddAssign {
                node: NodeId(0),
                dst: Key::x(0, 0),
                src: Key::prod(0, 0),
            },
            LocalOp::Copy {
                node: NodeId(0),
                dst: Key::tmp(1, 0),
                src: Key::x(0, 0),
            },
            LocalOp::Zero {
                node: NodeId(0),
                dst: Key::tmp(1, 1),
            },
            LocalOp::Free {
                node: NodeId(0),
                key: Key::prod(0, 0),
            },
        ])
        .unwrap();
        let s = b.build();
        assert_eq!(s.rounds(), 0, "local computation is free");

        let mut m: Machine<Nat> = Machine::new(1);
        m.load(NodeId(0), Key::a(0, 0), Nat(6));
        m.load(NodeId(0), Key::b(0, 0), Nat(7));
        let stats = m.run(&s).unwrap();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.local_ops, 5);
        assert_eq!(m.get(NodeId(0), Key::x(0, 0)), Some(&Nat(42)));
        assert_eq!(m.get(NodeId(0), Key::tmp(1, 0)), Some(&Nat(42)));
        assert_eq!(m.get(NodeId(0), Key::tmp(1, 1)), Some(&Nat(0)));
        assert_eq!(m.get(NodeId(0), Key::prod(0, 0)), None);
    }

    #[test]
    fn mul_add_fuses_product_and_accumulation() {
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![
            LocalOp::MulAdd {
                node: NodeId(0),
                dst: Key::x(0, 0),
                lhs: Key::a(0, 0),
                rhs: Key::b(0, 0),
            },
            LocalOp::MulAdd {
                node: NodeId(0),
                dst: Key::x(0, 0),
                lhs: Key::a(0, 0),
                rhs: Key::b(0, 0),
            },
        ])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(1);
        m.load(NodeId(0), Key::a(0, 0), Nat(6));
        m.load(NodeId(0), Key::b(0, 0), Nat(7));
        m.run(&s).unwrap();
        assert_eq!(
            m.get(NodeId(0), Key::x(0, 0)),
            Some(&Nat(84)),
            "0 + 42 + 42"
        );
    }

    #[test]
    fn sub_assign_works_for_rings_only() {
        // Nat is a plain semiring: SubAssign must fail with UnsupportedOp.
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![LocalOp::SubAssign {
            node: NodeId(0),
            dst: Key::x(0, 0),
            src: Key::a(0, 0),
        }])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(1);
        m.load(NodeId(0), Key::a(0, 0), Nat(3));
        assert!(matches!(m.run(&s), Err(ModelError::UnsupportedOp { .. })));
    }

    #[test]
    fn block_mul_add_matches_scalar_kernel() {
        // 2×2 block: A = [1 2; 3 4], B = [5 6; 7 8], C starts at [1 0; 0 0].
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![LocalOp::BlockMulAdd {
            node: NodeId(0),
            dim: 2,
            a_ns: 10,
            b_ns: 11,
            c_ns: 12,
        }])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(1);
        for (idx, v) in [1u64, 2, 3, 4].into_iter().enumerate() {
            m.load(NodeId(0), Key::tmp(10, idx as u64), Nat(v));
        }
        for (idx, v) in [5u64, 6, 7, 8].into_iter().enumerate() {
            m.load(NodeId(0), Key::tmp(11, idx as u64), Nat(v));
        }
        m.load(NodeId(0), Key::tmp(12, 0), Nat(1));
        m.run(&s).unwrap();
        // [1 2; 3 4]·[5 6; 7 8] = [19 22; 43 50]; plus the preloaded 1.
        assert_eq!(m.get(NodeId(0), Key::tmp(12, 0)), Some(&Nat(20)));
        assert_eq!(m.get(NodeId(0), Key::tmp(12, 1)), Some(&Nat(22)));
        assert_eq!(m.get(NodeId(0), Key::tmp(12, 2)), Some(&Nat(43)));
        assert_eq!(m.get(NodeId(0), Key::tmp(12, 3)), Some(&Nat(50)));
    }

    #[test]
    fn block_mul_add_treats_missing_as_zero() {
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![LocalOp::BlockMulAdd {
            node: NodeId(0),
            dim: 2,
            a_ns: 10,
            b_ns: 11,
            c_ns: 12,
        }])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(1);
        // Only A[0,0] and B[0,1] present: C[0,1] = 3·7, everything else 0
        // (and absent entries never materialize).
        m.load(NodeId(0), Key::tmp(10, 0), Nat(3));
        m.load(NodeId(0), Key::tmp(11, 1), Nat(7));
        m.run(&s).unwrap();
        assert_eq!(m.get(NodeId(0), Key::tmp(12, 1)), Some(&Nat(21)));
        // Every output key materializes (structurally), zeros included.
        assert_eq!(m.get(NodeId(0), Key::tmp(12, 0)), Some(&Nat(0)));
        assert_eq!(m.get(NodeId(0), Key::tmp(12, 3)), Some(&Nat(0)));
    }

    #[test]
    fn missing_source_value_is_an_error() {
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![xfer(
            0,
            Key::a(9, 9),
            1,
            Key::tmp(0, 0),
            Merge::Overwrite,
        )])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(2);
        let err = m.run(&s).unwrap_err();
        assert!(matches!(err, ModelError::MissingValue { .. }));
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let s = ScheduleBuilder::new(3).build();
        let mut m: Machine<Nat> = Machine::new(2);
        assert!(matches!(
            m.run(&s),
            Err(ModelError::SizeMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn machine_revalidates_constraints() {
        // Hand-construct an invalid schedule bypassing the builder by
        // chaining two valid single-round schedules... not possible; instead
        // check that a valid schedule re-run twice still validates (stamps
        // reset correctly across runs).
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![xfer(
            0,
            Key::a(0, 0),
            1,
            Key::tmp(0, 0),
            Merge::Overwrite,
        )])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(2);
        m.load(NodeId(0), Key::a(0, 0), Nat(1));
        m.run(&s).unwrap();
        m.run(&s).unwrap();
        assert_eq!(m.get(NodeId(1), Key::tmp(0, 0)), Some(&Nat(1)));
    }

    #[test]
    fn machine_honors_schedule_capacity() {
        let mut b = crate::ScheduleBuilder::with_capacity(3, 2);
        b.round(vec![
            xfer(0, Key::a(0, 0), 1, Key::tmp(0, 0), Merge::Overwrite),
            xfer(0, Key::a(0, 1), 2, Key::tmp(0, 1), Merge::Overwrite),
        ])
        .unwrap();
        let s = b.build();
        let mut m: Machine<Nat> = Machine::new(3);
        m.load(NodeId(0), Key::a(0, 0), Nat(1));
        m.load(NodeId(0), Key::a(0, 1), Nat(2));
        let stats = m.run(&s).unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.messages, 2);
        assert_eq!(m.get(NodeId(2), Key::tmp(0, 1)), Some(&Nat(2)));
    }

    #[test]
    fn get_or_zero_defaults() {
        let m: Machine<Nat> = Machine::new(1);
        assert_eq!(m.get_or_zero(NodeId(0), Key::x(0, 0)), Nat(0));
    }
}
