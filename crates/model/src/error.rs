//! Errors raised while building or executing schedules.

use crate::{Key, NodeId};

/// Everything that can go wrong in the model layer.
///
/// Schedule construction errors ([`ModelError::SendConflict`],
/// [`ModelError::ReceiveConflict`], [`ModelError::NodeOutOfRange`]) are the
/// model's bandwidth constraint doing its job: a round in which some
/// computer would send or receive two messages is not a low-bandwidth round
/// and is rejected eagerly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// A node appears as the source of two transfers in one round.
    SendConflict { round: usize, node: NodeId },
    /// A node appears as the destination of two transfers in one round.
    ReceiveConflict { round: usize, node: NodeId },
    /// A transfer or local op references a node `>= n`.
    NodeOutOfRange { node: NodeId, n: usize },
    /// At execution time, a referenced source key held no value.
    MissingValue { node: NodeId, key: Key, step: usize },
    /// A schedule built for `expected` nodes was run on a machine with
    /// `actual` nodes.
    SizeMismatch { expected: usize, actual: usize },
    /// A checkpoint holding `expected` slots at `node` was restored onto
    /// a machine whose linked schedule interns `actual` slots there: the
    /// checkpoint was taken against another schedule.
    LayoutMismatch {
        /// The first node whose slot count differs.
        node: NodeId,
        /// Slots the checkpoint holds at `node`.
        expected: usize,
        /// Slots the restoring machine has at `node`.
        actual: usize,
    },
    /// An op required algebraic structure the value type lacks (e.g.
    /// subtraction over a plain semiring).
    UnsupportedOp {
        /// Node executing the op.
        node: NodeId,
        /// Step index.
        step: usize,
        /// What was required.
        what: &'static str,
    },
    /// The per-round rolling checksum of delivered payloads disagreed with
    /// the sender-side checksum: at least one message of `round` was lost
    /// or corrupted in flight. Raised only by fault-guarded runs.
    Corruption {
        /// Global round index (resumes included) of the failed round.
        round: usize,
    },
    /// `node` crashed (lost its entire store) at the boundary of `round`.
    /// Raised only by fault-guarded runs; recovery restores from the last
    /// checkpoint.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// Global round index at which the crash occurred.
        round: usize,
    },
    /// A packed (lane-plane) batch was requested with a lane count the
    /// value type has no `PackedSemiring` monomorphization for — e.g. the
    /// bit-sliced Boolean planes exist only at 64 lanes per word.
    PackedLanesUnsupported {
        /// The rejected lane count.
        lanes: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::SendConflict { round, node } => {
                write!(f, "round {round}: node {node} would send two messages")
            }
            ModelError::ReceiveConflict { round, node } => {
                write!(f, "round {round}: node {node} would receive two messages")
            }
            ModelError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for network of size {n}")
            }
            ModelError::MissingValue { node, key, step } => {
                write!(f, "step {step}: node {node} holds no value for key {key:?}")
            }
            ModelError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "schedule compiled for {expected} nodes run on machine with {actual} nodes"
                )
            }
            ModelError::LayoutMismatch {
                node,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "checkpoint holds {expected} slots at node {node}, machine has {actual}"
                )
            }
            ModelError::UnsupportedOp { node, step, what } => {
                write!(
                    f,
                    "step {step}: node {node} needs {what} which the value type lacks"
                )
            }
            ModelError::Corruption { round } => {
                write!(
                    f,
                    "round {round}: delivered payloads fail the round checksum (message lost or corrupted)"
                )
            }
            ModelError::NodeCrashed { node, round } => {
                write!(f, "round {round}: node {node} crashed and lost its store")
            }
            ModelError::PackedLanesUnsupported { lanes } => {
                write!(
                    f,
                    "no packed {lanes}-lane execution is compiled in for this value type"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}
