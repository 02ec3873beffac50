//! Typed lint violations with provenance, and the report that carries them.

use lowband_model::{Key, NodeId};
use lowband_trace::Tracer;

/// How bad a violation is.
///
/// * [`Severity::Error`] — the schedule breaks a model invariant (capacity,
///   liveness, linking integrity); executing it would fail or silently
///   diverge across executors.
/// * [`Severity::Warning`] — legal but surprising; the executors give it a
///   defined meaning, yet a compiler emitting it is usually buggy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Legal under the executors' defined semantics, but suspicious.
    Warning,
    /// Violates a model or linking invariant.
    Error,
}

/// One schedule invariant violation, with enough provenance (step, round,
/// node, key/slot) to point at the offending event.
///
/// Step indices always refer to the *source* schedule's step list, even for
/// violations found in the linked form — a linked step's index is its
/// position, and linking produces one linked step per source step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// A node sends more than `capacity` messages in one round.
    SendOverCapacity {
        /// Step index of the round.
        step: usize,
        /// Round index (counting communication steps only).
        round: usize,
        /// Offending sender.
        node: NodeId,
        /// Messages the node sends this round.
        count: usize,
        /// The schedule's per-round capacity.
        capacity: usize,
    },
    /// A node receives more than `capacity` messages in one round.
    ReceiveOverCapacity {
        /// Step index of the round.
        step: usize,
        /// Round index.
        round: usize,
        /// Offending receiver.
        node: NodeId,
        /// Messages the node receives this round.
        count: usize,
        /// The schedule's per-round capacity.
        capacity: usize,
    },
    /// An event names a node outside `0..n`.
    NodeOutOfRange {
        /// Step index of the event.
        step: usize,
        /// The out-of-range node.
        node: NodeId,
        /// Network size the schedule was compiled for.
        n: usize,
    },
    /// A strict read (transfer source, `Mul`/`MulAdd` factor,
    /// `AddAssign`/`SubAssign`/`Copy` source) of a key that no earlier
    /// event wrote and that the lint options do not declare preloaded.
    /// Executing the schedule fails with `ModelError::MissingValue` here.
    ReadNeverWritten {
        /// Step index of the reading event.
        step: usize,
        /// Node performing the read.
        node: NodeId,
        /// The never-written key.
        key: Key,
    },
    /// A round both reads a key (as a transfer source) and writes it (as a
    /// transfer destination) on the same node. The executors define this —
    /// all payloads are read before any delivery, so the send carries the
    /// *old* value — but compilers almost never mean it.
    ReadAfterOverwrite {
        /// Step index of the round.
        step: usize,
        /// Round index.
        round: usize,
        /// Node whose key is both read and written.
        node: NodeId,
        /// The key in question.
        key: Key,
    },
    /// Two transfers of one round write the same `(node, key)` and at
    /// least one of them is `Merge::Overwrite`, so the result depends on
    /// delivery order. (All-`Add` fan-in commutes and is fine.)
    WriteWriteConflict {
        /// Step index of the round.
        step: usize,
        /// Round index.
        round: usize,
        /// Node receiving the conflicting writes.
        node: NodeId,
        /// The contested destination key.
        key: Key,
    },
    /// A schedule-level aggregate (declared `rounds`/`messages`, or a
    /// schedule↔linked total such as `n`/`capacity`) disagrees with what
    /// walking the steps actually counts.
    TotalsMismatch {
        /// Which aggregate: `"rounds"`, `"messages"`, `"n"`, `"capacity"`,
        /// `"linked rounds"`, `"linked messages"`.
        what: &'static str,
        /// The declared / source-schedule value.
        expected: usize,
        /// The counted / linked-form value.
        found: usize,
    },
    /// The linked schedule has a different number of steps than its source
    /// (linking must produce exactly one linked step per source step).
    StepCountMismatch {
        /// Source schedule step count.
        schedule_steps: usize,
        /// Linked schedule step count.
        linked_steps: usize,
    },
    /// A linked step is a round where the source has a compute block, or
    /// vice versa.
    StepKindMismatch {
        /// Step index (same in both forms).
        step: usize,
    },
    /// A linked round has a different transfer count than its source round.
    TransferCountMismatch {
        /// Step index.
        step: usize,
        /// Transfers in the source round.
        schedule_count: usize,
        /// Transfers in the linked round.
        linked_count: usize,
    },
    /// A linked compute block has a different op count than its source.
    OpCountMismatch {
        /// Step index.
        step: usize,
        /// Ops in the source block.
        schedule_count: usize,
        /// Ops in the linked block.
        linked_count: usize,
    },
    /// A linked event references a slot id at or beyond the node's slot
    /// count — an out-of-bounds store access at run time.
    DanglingSlot {
        /// Step index of the event.
        step: usize,
        /// Node whose store is indexed.
        node: NodeId,
        /// The dangling slot id.
        slot: u32,
        /// The node's actual slot count.
        slots: usize,
    },
    /// A linked slot interns a different key than the source event names,
    /// so the linked run reads or writes the wrong cell.
    SlotKeyMismatch {
        /// Step index of the event.
        step: usize,
        /// Node whose slot disagrees.
        node: NodeId,
        /// The slot in question.
        slot: u32,
        /// Key the source schedule names.
        expected: Key,
        /// Key the slot actually interns.
        found: Key,
    },
    /// A linked `BlockMulAdd` references a block side-table entry that does
    /// not exist.
    BlockOutOfRange {
        /// Step index of the op.
        step: usize,
        /// Node performing the op.
        node: NodeId,
        /// The out-of-range block index.
        block: u32,
        /// Entries actually in the side-table.
        blocks: usize,
    },
}

impl CheckError {
    /// This violation's severity. Only [`CheckError::ReadAfterOverwrite`]
    /// is a warning (the executors define it: sends read the pre-round
    /// value); everything else breaks an invariant.
    pub fn severity(&self) -> Severity {
        match self {
            CheckError::ReadAfterOverwrite { .. } => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// The `check.*` tracer counter this violation bumps.
    pub fn counter_name(&self) -> &'static str {
        match self {
            CheckError::SendOverCapacity { .. } => "check.send_over_capacity",
            CheckError::ReceiveOverCapacity { .. } => "check.receive_over_capacity",
            CheckError::NodeOutOfRange { .. } => "check.node_out_of_range",
            CheckError::ReadNeverWritten { .. } => "check.read_never_written",
            CheckError::ReadAfterOverwrite { .. } => "check.read_after_overwrite",
            CheckError::WriteWriteConflict { .. } => "check.write_write_conflict",
            CheckError::TotalsMismatch { .. } => "check.totals_mismatch",
            CheckError::StepCountMismatch { .. } => "check.step_count_mismatch",
            CheckError::StepKindMismatch { .. } => "check.step_kind_mismatch",
            CheckError::TransferCountMismatch { .. } => "check.transfer_count_mismatch",
            CheckError::OpCountMismatch { .. } => "check.op_count_mismatch",
            CheckError::DanglingSlot { .. } => "check.dangling_slot",
            CheckError::SlotKeyMismatch { .. } => "check.slot_key_mismatch",
            CheckError::BlockOutOfRange { .. } => "check.block_out_of_range",
        }
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::SendOverCapacity {
                step,
                round,
                node,
                count,
                capacity,
            } => write!(
                f,
                "step {step} (round {round}): {node} sends {count} messages (capacity {capacity})"
            ),
            CheckError::ReceiveOverCapacity {
                step,
                round,
                node,
                count,
                capacity,
            } => write!(
                f,
                "step {step} (round {round}): {node} receives {count} messages (capacity {capacity})"
            ),
            CheckError::NodeOutOfRange { step, node, n } => {
                write!(f, "step {step}: {node} out of range for n={n}")
            }
            CheckError::ReadNeverWritten { step, node, key } => write!(
                f,
                "step {step}: {node} reads {key:?}, which is never written and not preloaded"
            ),
            CheckError::ReadAfterOverwrite {
                step,
                round,
                node,
                key,
            } => write!(
                f,
                "step {step} (round {round}): {node} both sends and receives {key:?}; \
                 the send carries the pre-round value"
            ),
            CheckError::WriteWriteConflict {
                step,
                round,
                node,
                key,
            } => write!(
                f,
                "step {step} (round {round}): multiple transfers write {node} {key:?} \
                 with at least one overwrite; result is delivery-order dependent"
            ),
            CheckError::TotalsMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: declared {expected}, counted {found}"),
            CheckError::StepCountMismatch {
                schedule_steps,
                linked_steps,
            } => write!(
                f,
                "linked schedule has {linked_steps} steps, source has {schedule_steps}"
            ),
            CheckError::StepKindMismatch { step } => {
                write!(f, "step {step}: linked and source step kinds disagree")
            }
            CheckError::TransferCountMismatch {
                step,
                schedule_count,
                linked_count,
            } => write!(
                f,
                "step {step}: linked round has {linked_count} transfers, source has {schedule_count}"
            ),
            CheckError::OpCountMismatch {
                step,
                schedule_count,
                linked_count,
            } => write!(
                f,
                "step {step}: linked block has {linked_count} ops, source has {schedule_count}"
            ),
            CheckError::DanglingSlot {
                step,
                node,
                slot,
                slots,
            } => write!(
                f,
                "step {step}: {node} slot {slot} out of range ({slots} slots interned)"
            ),
            CheckError::SlotKeyMismatch {
                step,
                node,
                slot,
                expected,
                found,
            } => write!(
                f,
                "step {step}: {node} slot {slot} interns {found:?}, source names {expected:?}"
            ),
            CheckError::BlockOutOfRange {
                step,
                node,
                block,
                blocks,
            } => write!(
                f,
                "step {step}: {node} block id {block} out of range ({blocks} blocks)"
            ),
        }
    }
}

/// The outcome of one lint pass: every violation found, in step order.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    violations: Vec<CheckError>,
}

impl CheckReport {
    /// An empty (clean) report.
    pub fn new() -> CheckReport {
        CheckReport::default()
    }

    /// Record one violation.
    pub fn push(&mut self, v: CheckError) {
        self.violations.push(v);
    }

    /// All violations, warnings included, in the order found.
    pub fn violations(&self) -> &[CheckError] {
        &self.violations
    }

    /// Violations of [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &CheckError> {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Error)
    }

    /// Violations of [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &CheckError> {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Warning)
    }

    /// `true` when the report carries no errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// `true` when the report carries nothing at all.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another report's violations into this one.
    pub fn merge(&mut self, other: CheckReport) {
        self.violations.extend(other.violations);
    }

    /// Emit the report as `check.*` tracer counters: one bump of
    /// [`CheckError::counter_name`] per violation, plus aggregate
    /// `check.errors` / `check.warnings` totals (emitted even when zero,
    /// so sinks can tell "clean" from "never linted").
    pub fn emit<T: Tracer>(&self, tracer: &mut T) {
        let mut errors = 0;
        let mut warnings = 0;
        for v in &self.violations {
            tracer.counter(v.counter_name(), 1);
            match v.severity() {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
        tracer.counter("check.errors", errors);
        tracer.counter("check.warnings", warnings);
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "clean");
        }
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let tag = match v.severity() {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            write!(f, "{tag}: {v}")?;
        }
        Ok(())
    }
}
