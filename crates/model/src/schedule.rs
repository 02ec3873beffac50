//! Schedules: the compiled form of a low-bandwidth algorithm.
//!
//! In the supported model, the communication pattern of an algorithm is a
//! function of the instance *structure* only. A [`Schedule`] is that
//! pattern, made explicit: an alternating sequence of communication
//! [`Round`]s (each a set of [`Transfer`]s obeying the one-send/one-receive
//! constraint) and blocks of free [`LocalOp`]s.
//!
//! The round count of the schedule — [`Schedule::rounds`] — is the paper's
//! complexity measure.

use crate::link::sort_by_node;
use crate::{Key, ModelError, NodeId};

/// How an arriving message is combined with the destination key's current
/// value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Merge {
    /// Destination key is set to the payload, replacing any previous value.
    Overwrite,
    /// Payload is semiring-added into the destination key (treated as zero
    /// if absent). This models the "accumulate into `X_ik`" pattern.
    Add,
}

/// One message: `dst.dst_key ← merge(dst.dst_key, src.src_key)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transfer {
    /// Sending computer.
    pub src: NodeId,
    /// Key read at the sender (the sender keeps its copy; messages copy).
    pub src_key: Key,
    /// Receiving computer.
    pub dst: NodeId,
    /// Key written at the receiver.
    pub dst_key: Key,
    /// Combination rule at the receiver.
    pub merge: Merge,
}

/// One synchronous communication round: a set of transfers in which every
/// node sends at most once and receives at most once.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Round {
    /// The messages of this round.
    pub transfers: Vec<Transfer>,
}

/// A zero-cost local computation executed by one node between rounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocalOp {
    /// `dst ← lhs · rhs` (semiring multiplication of two local values).
    Mul {
        /// Node performing the multiplication.
        node: NodeId,
        /// Key written.
        dst: Key,
        /// Left factor key.
        lhs: Key,
        /// Right factor key.
        rhs: Key,
    },
    /// `dst ← dst + src` (semiring addition; `dst` starts at zero if absent).
    AddAssign {
        /// Node performing the addition.
        node: NodeId,
        /// Accumulator key.
        dst: Key,
        /// Added key.
        src: Key,
    },
    /// `dst ← dst + lhs · rhs` (fused multiply-accumulate; `dst` starts at
    /// zero if absent). The workhorse of triangle processing — one op per
    /// triangle instead of a `Mul` + `AddAssign` pair.
    MulAdd {
        /// Node performing the operation.
        node: NodeId,
        /// Accumulator key.
        dst: Key,
        /// Left factor key.
        lhs: Key,
        /// Right factor key.
        rhs: Key,
    },
    /// `dst ← dst − src` (ring subtraction; `dst` starts at zero if
    /// absent). Requires the value type to provide additive inverses
    /// ([`crate::Semiring::try_neg`]); executing it over a plain semiring
    /// is a runtime error. Used by the Strassen field schedules.
    SubAssign {
        /// Node performing the subtraction.
        node: NodeId,
        /// Accumulator key.
        dst: Key,
        /// Subtracted key.
        src: Key,
    },
    /// Dense block multiply-accumulate, entirely node-local:
    /// `C[r,c] += Σ_q A[r,q] · B[q,c]` for `r, c, q < dim`, where a block
    /// entry `(r, c)` lives under `Key::tmp(ns, r·dim + c)` and missing
    /// entries read as zero. One op replaces `dim³` scalar [`LocalOp::MulAdd`]s —
    /// the local kernel of the Strassen leaves (local computation is free in
    /// the model either way; this keeps compiled schedules compact).
    BlockMulAdd {
        /// Node performing the block product.
        node: NodeId,
        /// Block dimension.
        dim: u32,
        /// Namespace of the `A` block.
        a_ns: u64,
        /// Namespace of the `B` block.
        b_ns: u64,
        /// Namespace of the accumulated `C` block.
        c_ns: u64,
    },
    /// `dst ← src` (local copy / rename).
    Copy {
        /// Node performing the copy.
        node: NodeId,
        /// Key written.
        dst: Key,
        /// Key read.
        src: Key,
    },
    /// `dst ← 0`.
    Zero {
        /// Node performing the initialization.
        node: NodeId,
        /// Key written.
        dst: Key,
    },
    /// Remove `key` from the node's store (bookkeeping only).
    Free {
        /// Node whose store is modified.
        node: NodeId,
        /// Key removed.
        key: Key,
    },
}

impl LocalOp {
    /// The node this op runs on.
    pub fn node(&self) -> NodeId {
        match *self {
            LocalOp::Mul { node, .. }
            | LocalOp::AddAssign { node, .. }
            | LocalOp::MulAdd { node, .. }
            | LocalOp::SubAssign { node, .. }
            | LocalOp::BlockMulAdd { node, .. }
            | LocalOp::Copy { node, .. }
            | LocalOp::Zero { node, .. }
            | LocalOp::Free { node, .. } => node,
        }
    }
}

/// One step of a schedule: either a communication round (costs 1 round) or a
/// block of local ops (costs 0 rounds).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// A communication round.
    Comm(Round),
    /// A block of free local computation.
    Compute(Vec<LocalOp>),
}

/// A compiled low-bandwidth program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schedule {
    n: usize,
    steps: Vec<Step>,
    rounds: usize,
    messages: usize,
    capacity: usize,
}

impl Schedule {
    /// Network size this schedule was compiled for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-round send/receive capacity this schedule was compiled for
    /// (1 = the low-bandwidth model; `O(log n)` = the node-capacitated
    /// clique of §1.5).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of communication rounds — the paper's cost measure.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total number of messages across all rounds.
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// This schedule with every step stable-sorted into *link order*: each
    /// round's transfers by destination node, each compute block's ops by
    /// node ([`crate::link::sort_by_node`]). Within a round all reads
    /// precede all writes and same-destination deliveries keep their
    /// order; within a block ops on distinct nodes commute. So the sorted
    /// schedule leaves every store exactly as the original does, and it
    /// pairs with its [`crate::LinkedSchedule`] event by event.
    pub fn into_link_order(mut self) -> Schedule {
        for step in &mut self.steps {
            match step {
                Step::Comm(round) => sort_by_node(&mut round.transfers, |t| t.dst.0),
                Step::Compute(ops) => sort_by_node(ops, |op| op.node().0),
            }
        }
        self
    }

    /// Concatenate another schedule after this one (both must be compiled
    /// for the same `n`).
    pub fn chain(mut self, other: Schedule) -> Result<Schedule, ModelError> {
        if self.n != other.n || self.capacity != other.capacity {
            return Err(ModelError::SizeMismatch {
                expected: self.n,
                actual: other.n,
            });
        }
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.steps.extend(other.steps);
        Ok(self)
    }
}

/// Incremental builder for a [`Schedule`]; validates the bandwidth
/// constraint as rounds are added.
#[derive(Clone, Debug)]
pub struct ScheduleBuilder {
    n: usize,
    capacity: usize,
    steps: Vec<Step>,
    rounds: usize,
    messages: usize,
    /// Scratch stamps/counters reused across `round` calls to validate
    /// constraints in O(transfers) without per-call allocation.
    send_stamp: Vec<u32>,
    recv_stamp: Vec<u32>,
    send_count: Vec<u32>,
    recv_count: Vec<u32>,
    stamp: u32,
}

impl ScheduleBuilder {
    /// Start building a schedule for a network of `n` computers in the
    /// low-bandwidth model (capacity 1).
    pub fn new(n: usize) -> ScheduleBuilder {
        ScheduleBuilder::with_capacity(n, 1)
    }

    /// Start building with per-round send/receive capacity `capacity ≥ 1` —
    /// the node-capacitated clique generalization of §1.5 (`capacity =
    /// O(log n)` there; `capacity = 1` is the low-bandwidth model).
    pub fn with_capacity(n: usize, capacity: usize) -> ScheduleBuilder {
        assert!(capacity >= 1, "capacity must be at least 1");
        ScheduleBuilder {
            n,
            capacity,
            steps: Vec::new(),
            rounds: 0,
            messages: 0,
            send_stamp: vec![0; n],
            recv_stamp: vec![0; n],
            send_count: vec![0; n],
            recv_count: vec![0; n],
            stamp: 0,
        }
    }

    /// The per-round capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds added so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Messages added so far.
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// Append one communication round. Fails if any node would send or
    /// receive more than `capacity` messages, or a node index is out of
    /// range.
    pub fn round(&mut self, transfers: Vec<Transfer>) -> Result<(), ModelError> {
        self.stamp += 1;
        let stamp = self.stamp;
        let cap = self.capacity as u32;
        for t in &transfers {
            for node in [t.src, t.dst] {
                if node.index() >= self.n {
                    return Err(ModelError::NodeOutOfRange { node, n: self.n });
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
                    round: self.rounds,
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
                    round: self.rounds,
                    node: t.dst,
                });
            }
        }
        self.rounds += 1;
        self.messages += transfers.len();
        self.steps.push(Step::Comm(Round { transfers }));
        Ok(())
    }

    /// Append a block of free local computation.
    pub fn compute(&mut self, ops: Vec<LocalOp>) -> Result<(), ModelError> {
        for op in &ops {
            let node = op.node();
            if node.index() >= self.n {
                return Err(ModelError::NodeOutOfRange { node, n: self.n });
            }
        }
        if !ops.is_empty() {
            self.steps.push(Step::Compute(ops));
        }
        Ok(())
    }

    /// Append every step of an already-built schedule.
    pub fn extend(&mut self, other: &Schedule) -> Result<(), ModelError> {
        if other.n() != self.n || other.capacity() != self.capacity {
            return Err(ModelError::SizeMismatch {
                expected: self.n,
                actual: other.n(),
            });
        }
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.steps.extend(other.steps.iter().cloned());
        Ok(())
    }

    /// Finish building.
    pub fn build(self) -> Schedule {
        Schedule {
            n: self.n,
            steps: self.steps,
            rounds: self.rounds,
            messages: self.messages,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: u32, dst: u32) -> Transfer {
        Transfer {
            src: NodeId(src),
            src_key: Key::tmp(0, 0),
            dst: NodeId(dst),
            dst_key: Key::tmp(0, 1),
            merge: Merge::Overwrite,
        }
    }

    #[test]
    fn valid_round_accepted() {
        let mut b = ScheduleBuilder::new(4);
        b.round(vec![t(0, 1), t(2, 3)]).unwrap();
        // A node may send and receive in the same round.
        b.round(vec![t(0, 1), t(1, 0)]).unwrap();
        let s = b.build();
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.messages(), 4);
    }

    #[test]
    fn double_send_rejected() {
        let mut b = ScheduleBuilder::new(4);
        let err = b.round(vec![t(0, 1), t(0, 2)]).unwrap_err();
        assert_eq!(
            err,
            ModelError::SendConflict {
                round: 0,
                node: NodeId(0)
            }
        );
    }

    #[test]
    fn double_receive_rejected() {
        let mut b = ScheduleBuilder::new(4);
        let err = b.round(vec![t(0, 3), t(1, 3)]).unwrap_err();
        assert_eq!(
            err,
            ModelError::ReceiveConflict {
                round: 0,
                node: NodeId(3)
            }
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = ScheduleBuilder::new(2);
        assert!(matches!(
            b.round(vec![t(0, 5)]),
            Err(ModelError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            b.compute(vec![LocalOp::Zero {
                node: NodeId(9),
                dst: Key::x(0, 0)
            }]),
            Err(ModelError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn rejected_round_does_not_count() {
        let mut b = ScheduleBuilder::new(4);
        let _ = b.round(vec![t(0, 1), t(0, 2)]);
        b.round(vec![t(0, 1)]).unwrap();
        let s = b.build();
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.messages(), 1);
    }

    #[test]
    fn capacity_allows_multiple_messages_per_round() {
        // Node-capacitated clique mode: capacity 2 admits two sends from
        // one node in one round, but not three.
        let mut b = ScheduleBuilder::with_capacity(4, 2);
        b.round(vec![t(0, 1), t(0, 2)]).unwrap();
        let err = b.round(vec![t(0, 1), t(0, 2), t(0, 3)]).unwrap_err();
        assert!(matches!(err, ModelError::SendConflict { .. }));
        let err = b.round(vec![t(0, 3), t(1, 3), t(2, 3)]).unwrap_err();
        assert!(matches!(err, ModelError::ReceiveConflict { .. }));
        let s = b.build();
        assert_eq!(s.capacity(), 2);
        assert_eq!(s.rounds(), 1, "failed rounds are not recorded");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = ScheduleBuilder::with_capacity(2, 0);
    }

    #[test]
    fn chain_requires_matching_capacity() {
        let a = ScheduleBuilder::with_capacity(4, 1).build();
        let b = ScheduleBuilder::with_capacity(4, 2).build();
        assert!(matches!(a.chain(b), Err(ModelError::SizeMismatch { .. })));
    }

    #[test]
    fn chain_concatenates_costs() {
        let mut b1 = ScheduleBuilder::new(4);
        b1.round(vec![t(0, 1)]).unwrap();
        let mut b2 = ScheduleBuilder::new(4);
        b2.round(vec![t(1, 2)]).unwrap();
        b2.round(vec![t(2, 3)]).unwrap();
        let s = b1.build().chain(b2.build()).unwrap();
        assert_eq!(s.rounds(), 3);
        assert_eq!(s.messages(), 3);
    }

    #[test]
    fn chain_size_mismatch_rejected() {
        let a = ScheduleBuilder::new(4).build();
        let b = ScheduleBuilder::new(5).build();
        assert!(matches!(a.chain(b), Err(ModelError::SizeMismatch { .. })));
    }

    /// `extend` is how `densemm` and `strassen` splice sub-schedules into
    /// a program; it must refuse another `n` or capacity, or a capacity-2
    /// schedule's rounds would pass as capacity-1 rounds.
    #[test]
    fn extend_requires_matching_size_and_capacity() {
        let mut wide = ScheduleBuilder::with_capacity(4, 2);
        wide.round(vec![t(0, 1), t(0, 2)]).unwrap();
        let wide = wide.build();
        let mut b = ScheduleBuilder::new(4);
        assert!(matches!(
            b.extend(&wide),
            Err(ModelError::SizeMismatch { .. })
        ));
        assert!(matches!(
            b.extend(&ScheduleBuilder::new(5).build()),
            Err(ModelError::SizeMismatch { .. })
        ));
        assert_eq!((b.rounds(), b.messages()), (0, 0), "nothing spliced");

        let mut narrow = ScheduleBuilder::new(4);
        narrow.round(vec![t(0, 1)]).unwrap();
        b.extend(&narrow.build()).unwrap();
        let s = b.build();
        assert_eq!((s.rounds(), s.messages(), s.steps().len()), (1, 1, 1));
    }

    #[test]
    fn empty_compute_block_elided() {
        let mut b = ScheduleBuilder::new(2);
        b.compute(vec![]).unwrap();
        assert!(b.build().steps().is_empty());
    }
}
