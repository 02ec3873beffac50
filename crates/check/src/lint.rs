//! The static schedule linter.
//!
//! [`lint_schedule`] walks a [`Schedule`]'s steps and checks every model
//! invariant that is decidable from the plan alone (no values needed):
//! per-round send/receive capacity, node ranges, strict-read liveness,
//! same-round read-after-overwrite and write-write hazards, and the
//! schedule's declared round/message totals. [`lint_linked`] then checks a
//! [`LinkedSchedule`] against its source: step counts and kinds, per-step
//! event counts, slot bounds, and slot↔key interning agreement. It pairs
//! events in the linker's order without hashing and falls back to an
//! order-free matcher only where that order disagrees.
//!
//! Liveness needs to know which keys the runtime loads before execution
//! starts; [`LintOptions::preloaded`] supplies that predicate. The default
//! treats every `A` and `B` matrix key as preloaded — exactly what
//! `Instance::load` provides the compiled pipelines.

use std::collections::{HashMap, HashSet};

use lowband_model::key::KeyKind;
use lowband_model::{
    sort_by_node, Key, LinkedOp, LinkedSchedule, LinkedStepView, LinkedTransfer, LocalOp, Merge,
    NodeId, Schedule, Step, Transfer,
};
use lowband_trace::Tracer;

use crate::report::{CheckError, CheckReport};

/// What the linter may assume about runtime state before step 0.
pub struct LintOptions<'a> {
    /// `preloaded(node, key)` is `true` when the runtime loads `key` into
    /// `node`'s store before execution. Reads of preloaded keys are always
    /// live; everything else must be written by an earlier event.
    pub preloaded: &'a dyn Fn(NodeId, Key) -> bool,
}

impl Default for LintOptions<'_> {
    /// Assume the `A` and `B` matrix keys are preloaded everywhere — the
    /// contract of `Instance::load` for compiled pipelines.
    fn default() -> LintOptions<'static> {
        LintOptions {
            preloaded: &|_, key| matches!(key.kind(), KeyKind::A | KeyKind::B),
        }
    }
}

impl<'a> LintOptions<'a> {
    /// Lint with the given preloaded-key predicate.
    pub fn with_preloaded(preloaded: &'a dyn Fn(NodeId, Key) -> bool) -> LintOptions<'a> {
        LintOptions { preloaded }
    }
}

/// Per-node liveness state threaded through the walk.
struct Liveness<'a> {
    live: Vec<HashSet<Key>>,
    preloaded: &'a dyn Fn(NodeId, Key) -> bool,
}

impl Liveness<'_> {
    fn new<'a>(n: usize, opts: &LintOptions<'a>) -> Liveness<'a> {
        Liveness {
            live: vec![HashSet::new(); n],
            preloaded: opts.preloaded,
        }
    }

    fn is_live(&self, node: NodeId, key: Key) -> bool {
        self.live[node.index()].contains(&key) || (self.preloaded)(node, key)
    }

    fn write(&mut self, node: NodeId, key: Key) {
        self.live[node.index()].insert(key);
    }

    fn free(&mut self, node: NodeId, key: Key) {
        self.live[node.index()].remove(&key);
    }
}

/// Strict reads of a local op: the keys whose absence is a runtime
/// `MissingValue` error (accumulator destinations read as zero and are not
/// listed; `BlockMulAdd` reads everything as zero).
fn strict_reads(op: &LocalOp) -> Vec<Key> {
    match *op {
        LocalOp::Mul { lhs, rhs, .. } | LocalOp::MulAdd { lhs, rhs, .. } => vec![lhs, rhs],
        LocalOp::AddAssign { src, .. }
        | LocalOp::SubAssign { src, .. }
        | LocalOp::Copy { src, .. } => vec![src],
        LocalOp::BlockMulAdd { .. } | LocalOp::Zero { .. } | LocalOp::Free { .. } => vec![],
    }
}

/// Keys a local op writes (makes live).
fn writes(op: &LocalOp) -> Vec<Key> {
    match *op {
        LocalOp::Mul { dst, .. }
        | LocalOp::AddAssign { dst, .. }
        | LocalOp::MulAdd { dst, .. }
        | LocalOp::SubAssign { dst, .. }
        | LocalOp::Copy { dst, .. }
        | LocalOp::Zero { dst, .. } => vec![dst],
        LocalOp::BlockMulAdd { dim, c_ns, .. } => {
            let d = dim as u64;
            (0..d * d).map(|i| Key::tmp(c_ns, i)).collect()
        }
        LocalOp::Free { .. } => vec![],
    }
}

fn check_node(report: &mut CheckReport, step: usize, node: NodeId, n: usize) -> bool {
    if node.index() >= n {
        report.push(CheckError::NodeOutOfRange { step, node, n });
        return false;
    }
    true
}

/// Lint one communication round. Reads happen before writes, so liveness
/// is consulted against the pre-round state and destinations become live
/// only after the whole round is processed.
fn lint_round(
    report: &mut CheckReport,
    live: &mut Liveness<'_>,
    transfers: &[Transfer],
    step: usize,
    round: usize,
    n: usize,
    capacity: usize,
) {
    let mut sends: HashMap<NodeId, usize> = HashMap::new();
    let mut recvs: HashMap<NodeId, usize> = HashMap::new();
    // (dst, dst_key) → (write count, any Overwrite).
    let mut writes_to: HashMap<(NodeId, Key), (usize, bool)> = HashMap::new();

    for t in transfers {
        let src_ok = check_node(report, step, t.src, n);
        let dst_ok = check_node(report, step, t.dst, n);
        if src_ok {
            *sends.entry(t.src).or_default() += 1;
            if !live.is_live(t.src, t.src_key) {
                report.push(CheckError::ReadNeverWritten {
                    step,
                    node: t.src,
                    key: t.src_key,
                });
            }
        }
        if dst_ok {
            *recvs.entry(t.dst).or_default() += 1;
            let e = writes_to.entry((t.dst, t.dst_key)).or_insert((0, false));
            e.0 += 1;
            e.1 |= t.merge == Merge::Overwrite;
        }
    }

    let mut over_send: Vec<_> = sends.iter().filter(|(_, &c)| c > capacity).collect();
    over_send.sort_by_key(|(node, _)| **node);
    for (&node, &count) in over_send {
        report.push(CheckError::SendOverCapacity {
            step,
            round,
            node,
            count,
            capacity,
        });
    }
    let mut over_recv: Vec<_> = recvs.iter().filter(|(_, &c)| c > capacity).collect();
    over_recv.sort_by_key(|(node, _)| **node);
    for (&node, &count) in over_recv {
        report.push(CheckError::ReceiveOverCapacity {
            step,
            round,
            node,
            count,
            capacity,
        });
    }

    // Same-round read of a key this round also writes: the send carries
    // the pre-round value (defined, but almost always unintended).
    for t in transfers {
        if t.src.index() < n && writes_to.contains_key(&(t.src, t.src_key)) {
            report.push(CheckError::ReadAfterOverwrite {
                step,
                round,
                node: t.src,
                key: t.src_key,
            });
        }
    }

    let mut conflicts: Vec<_> = writes_to
        .iter()
        .filter(|(_, &(count, any_overwrite))| count > 1 && any_overwrite)
        .map(|(&(node, key), _)| (node, key))
        .collect();
    conflicts.sort();
    for (node, key) in conflicts {
        report.push(CheckError::WriteWriteConflict {
            step,
            round,
            node,
            key,
        });
    }

    for t in transfers {
        if t.dst.index() < n {
            live.write(t.dst, t.dst_key);
        }
    }
}

/// Lint one compute block. Ops within a block run sequentially on each
/// node, so liveness updates op by op.
fn lint_compute(
    report: &mut CheckReport,
    live: &mut Liveness<'_>,
    ops: &[LocalOp],
    step: usize,
    n: usize,
) {
    for op in ops {
        let node = op.node();
        if !check_node(report, step, node, n) {
            continue;
        }
        for key in strict_reads(op) {
            if !live.is_live(node, key) {
                report.push(CheckError::ReadNeverWritten { step, node, key });
            }
        }
        if let LocalOp::Free { key, .. } = *op {
            live.free(node, key);
        }
        for key in writes(op) {
            live.write(node, key);
        }
    }
}

/// Statically verify a schedule against the model invariants. See the
/// module docs for the checked properties; violations come back typed in a
/// [`CheckReport`] with step/round/node/key provenance.
pub fn lint_schedule(schedule: &Schedule, opts: &LintOptions<'_>) -> CheckReport {
    let mut report = CheckReport::new();
    let n = schedule.n();
    let capacity = schedule.capacity();
    let mut live = Liveness::new(n, opts);
    let mut rounds = 0usize;
    let mut messages = 0usize;

    for (step, s) in schedule.steps().iter().enumerate() {
        match s {
            Step::Comm(round) => {
                lint_round(
                    &mut report,
                    &mut live,
                    &round.transfers,
                    step,
                    rounds,
                    n,
                    capacity,
                );
                rounds += 1;
                messages += round.transfers.len();
            }
            Step::Compute(ops) => lint_compute(&mut report, &mut live, ops, step, n),
        }
    }

    if rounds != schedule.rounds() {
        report.push(CheckError::TotalsMismatch {
            what: "rounds",
            expected: schedule.rounds(),
            found: rounds,
        });
    }
    if messages != schedule.messages() {
        report.push(CheckError::TotalsMismatch {
            what: "messages",
            expected: schedule.messages(),
            found: messages,
        });
    }
    report
}

fn check_slot(
    report: &mut CheckReport,
    linked: &LinkedSchedule,
    step: usize,
    node: u32,
    slot: u32,
) -> bool {
    let n = linked.n();
    if (node as usize) >= n {
        report.push(CheckError::NodeOutOfRange {
            step,
            node: NodeId(node),
            n,
        });
        return false;
    }
    let slots = linked.slots_at(NodeId(node));
    if (slot as usize) >= slots {
        report.push(CheckError::DanglingSlot {
            step,
            node: NodeId(node),
            slot,
            slots,
        });
        return false;
    }
    true
}

/// Check a slot is in range *and* interns the key the source schedule
/// names at this event.
fn check_slot_key(
    report: &mut CheckReport,
    linked: &LinkedSchedule,
    step: usize,
    node: u32,
    slot: u32,
    expected: Key,
) {
    if slot_holds(linked, node, slot, expected) || !check_slot(report, linked, step, node, slot) {
        return;
    }
    report.push(CheckError::SlotKeyMismatch {
        step,
        node: NodeId(node),
        slot,
        expected,
        found: linked.key_of(NodeId(node), slot),
    });
}

/// Pop the next not-yet-claimed source index bucketed under `key`. The
/// per-bucket cursor only moves forward, so across a whole round every
/// index is inspected O(1) times.
fn take_unclaimed<K: std::hash::Hash + Eq>(
    map: &mut HashMap<K, (Vec<usize>, usize)>,
    key: &K,
    claimed: &[bool],
) -> Option<usize> {
    let (indices, cursor) = map.get_mut(key)?;
    while *cursor < indices.len() {
        let i = indices[*cursor];
        *cursor += 1;
        if !claimed[i] {
            return Some(i);
        }
    }
    None
}

fn lint_linked_round(
    report: &mut CheckReport,
    linked: &LinkedSchedule,
    step: usize,
    src_round: &[Transfer],
    transfers: &[LinkedTransfer],
) {
    if src_round.len() != transfers.len() {
        report.push(CheckError::TransferCountMismatch {
            step,
            schedule_count: src_round.len(),
            linked_count: transfers.len(),
        });
        // Counts disagree: slot checks still apply, key agreement doesn't.
        for t in transfers {
            check_slot(report, linked, step, t.src, t.src_slot);
            check_slot(report, linked, step, t.dst, t.dst_slot);
        }
        return;
    }
    // The round is not in link order (or some pair disagrees): match each
    // linked transfer to a not-yet-claimed source transfer with the same
    // endpoints rather than assuming an order. Indexing the source
    // round up front keeps the match linear — a per-transfer rescan is
    // quadratic in the round's fan-in, which dominates lint time on dense
    // block workloads.
    type Signature = (u32, u32, u8, Option<u32>, Option<u32>);
    let merge_tag = |m: Merge| -> u8 {
        match m {
            Merge::Overwrite => 0,
            Merge::Add => 1,
        }
    };
    // Source indices (in round order) by full linked signature, and by
    // endpoints alone for the fallback; cursors skip already-claimed
    // entries so each index is visited O(1) times overall.
    let mut by_signature: HashMap<Signature, (Vec<usize>, usize)> = HashMap::new();
    let mut by_endpoints: HashMap<(u32, u32), (Vec<usize>, usize)> = HashMap::new();
    for (i, s) in src_round.iter().enumerate() {
        let sig = (
            s.src.0,
            s.dst.0,
            merge_tag(s.merge),
            linked.slot_of(s.src, s.src_key),
            linked.slot_of(s.dst, s.dst_key),
        );
        by_signature.entry(sig).or_default().0.push(i);
        by_endpoints
            .entry((s.src.0, s.dst.0))
            .or_default()
            .0
            .push(i);
    }
    let mut claimed = vec![false; src_round.len()];
    for t in transfers {
        check_slot(report, linked, step, t.src, t.src_slot);
        check_slot(report, linked, step, t.dst, t.dst_slot);
        let sig = (
            t.src,
            t.dst,
            merge_tag(t.merge),
            Some(t.src_slot),
            Some(t.dst_slot),
        );
        match take_unclaimed(&mut by_signature, &sig, &claimed) {
            Some(i) => {
                claimed[i] = true;
                let s = &src_round[i];
                check_slot_key(report, linked, step, t.src, t.src_slot, s.src_key);
                check_slot_key(report, linked, step, t.dst, t.dst_slot, s.dst_key);
            }
            None => {
                // No source transfer interns to this linked one: report it
                // against whichever key an unclaimed same-endpoint source
                // names, or fall back to the slot's own interning.
                match take_unclaimed(&mut by_endpoints, &(t.src, t.dst), &claimed) {
                    Some(i) => {
                        claimed[i] = true;
                        let s = &src_round[i];
                        check_slot_key(report, linked, step, t.src, t.src_slot, s.src_key);
                        check_slot_key(report, linked, step, t.dst, t.dst_slot, s.dst_key);
                    }
                    None => report.push(CheckError::TransferCountMismatch {
                        step,
                        schedule_count: src_round.len(),
                        linked_count: transfers.len(),
                    }),
                }
            }
        }
    }
}

fn lint_linked_op(
    report: &mut CheckReport,
    linked: &LinkedSchedule,
    step: usize,
    src: &LocalOp,
    op: &LinkedOp,
) {
    let node = op.node();
    if src.node().0 != node {
        report.push(CheckError::StepKindMismatch { step });
        return;
    }
    match (*src, *op) {
        (
            LocalOp::Mul { dst, lhs, rhs, .. },
            LinkedOp::Mul {
                dst: d,
                lhs: l,
                rhs: r,
                ..
            },
        )
        | (
            LocalOp::MulAdd { dst, lhs, rhs, .. },
            LinkedOp::MulAdd {
                dst: d,
                lhs: l,
                rhs: r,
                ..
            },
        ) => {
            check_slot_key(report, linked, step, node, d, dst);
            check_slot_key(report, linked, step, node, l, lhs);
            check_slot_key(report, linked, step, node, r, rhs);
        }
        (LocalOp::AddAssign { dst, src, .. }, LinkedOp::AddAssign { dst: d, src: s, .. })
        | (LocalOp::SubAssign { dst, src, .. }, LinkedOp::SubAssign { dst: d, src: s, .. })
        | (LocalOp::Copy { dst, src, .. }, LinkedOp::Copy { dst: d, src: s, .. }) => {
            check_slot_key(report, linked, step, node, d, dst);
            check_slot_key(report, linked, step, node, s, src);
        }
        (LocalOp::Zero { dst, .. }, LinkedOp::Zero { dst: d, .. }) => {
            check_slot_key(report, linked, step, node, d, dst);
        }
        (LocalOp::Free { key, .. }, LinkedOp::Free { slot, .. }) => {
            check_slot_key(report, linked, step, node, slot, key);
        }
        (
            LocalOp::BlockMulAdd {
                dim,
                a_ns,
                b_ns,
                c_ns,
                ..
            },
            LinkedOp::BlockMulAdd { block, .. },
        ) => match linked.block_slots(block) {
            None => report.push(CheckError::BlockOutOfRange {
                step,
                node: NodeId(node),
                block,
                blocks: linked.block_count(),
            }),
            Some((bdim, a, b, c)) => {
                if bdim != dim {
                    report.push(CheckError::StepKindMismatch { step });
                    return;
                }
                let cells = (dim as usize) * (dim as usize);
                if a.len() != cells || b.len() != cells || c.len() != cells {
                    report.push(CheckError::StepKindMismatch { step });
                    return;
                }
                for (i, ((&sa, &sb), &sc)) in a.iter().zip(b).zip(c).enumerate() {
                    let i = i as u64;
                    check_slot_key(report, linked, step, node, sa, Key::tmp(a_ns, i));
                    check_slot_key(report, linked, step, node, sb, Key::tmp(b_ns, i));
                    check_slot_key(report, linked, step, node, sc, Key::tmp(c_ns, i));
                }
            }
        },
        _ => report.push(CheckError::StepKindMismatch { step }),
    }
}

/// The source indices of `items` in the order the linker emits them: a
/// stable sort by `node_of` (destination for transfers, node for ops),
/// through the model's own link-order sort.
fn link_order<T>(order: &mut Vec<usize>, items: &[T], node_of: impl Fn(&T) -> u32) {
    order.clear();
    order.extend(0..items.len());
    sort_by_node(order, |&i| node_of(&items[i]));
}

/// `true` when `node`'s `slot` exists and interns `key`.
fn slot_holds(linked: &LinkedSchedule, node: u32, slot: u32, key: Key) -> bool {
    linked.key_at(node, slot) == Some(key)
}

/// Whether linked transfer `t` is source transfer `s` exactly: endpoints,
/// merge, and both slots interning the source keys.
fn transfer_agrees(linked: &LinkedSchedule, s: &Transfer, t: &LinkedTransfer) -> bool {
    t.src == s.src.0
        && t.dst == s.dst.0
        && t.merge == s.merge
        && slot_holds(linked, t.src, t.src_slot, s.src_key)
        && slot_holds(linked, t.dst, t.dst_slot, s.dst_key)
}

/// The fast path for one round: pair the linked transfers with the
/// source transfers in link `order` and require each pair to agree
/// exactly. `true` means the matcher would find nothing to report for
/// this round.
fn round_agrees_in_order(
    linked: &LinkedSchedule,
    src_round: &[Transfer],
    transfers: &[LinkedTransfer],
    order: &[usize],
) -> bool {
    src_round.len() == transfers.len()
        && transfers
            .iter()
            .zip(order)
            .all(|(t, &i)| transfer_agrees(linked, &src_round[i], t))
}

/// [`round_agrees_in_order`] for a source round already in link order —
/// as a plan's schedule always is — where link order is the identity:
/// one scan checks the order and the pairs together, with no index sort.
fn round_agrees_as_is(
    linked: &LinkedSchedule,
    src_round: &[Transfer],
    transfers: &[LinkedTransfer],
) -> bool {
    let mut prev = 0;
    src_round.len() == transfers.len()
        && transfers.iter().zip(src_round).all(|(t, s)| {
            let sorted = s.dst.0 >= prev;
            prev = s.dst.0;
            sorted && transfer_agrees(linked, s, t)
        })
}

/// Whether a compute block's source ops are already in link order and
/// the linked ops run on the same nodes position by position — then link
/// order is the identity and the pairs can be checked as they stand.
fn block_nodes_as_is(src_ops: &[LocalOp], ops: &[LinkedOp]) -> bool {
    let mut prev = 0;
    ops.iter().zip(src_ops).all(|(op, s)| {
        let node = s.node().0;
        let sorted = node >= prev;
        prev = node;
        sorted && op.node() == node
    })
}

/// The matcher for one compute block whose ops are not in link order:
/// pair each node's ops in program order.
fn lint_linked_block_by_node(
    report: &mut CheckReport,
    linked: &LinkedSchedule,
    step: usize,
    src_ops: &[LocalOp],
    ops: &[LinkedOp],
) {
    // Group the source ops by node once — an `iter().filter().nth()`
    // rescan per linked op is quadratic in the step's op count.
    let mut by_node: HashMap<u32, Vec<&LocalOp>> = HashMap::new();
    for s in src_ops {
        by_node.entry(s.node().0).or_default().push(s);
    }
    let mut next: HashMap<u32, usize> = HashMap::new();
    for op in ops {
        let node = op.node();
        let cursor = next.entry(node).or_default();
        let src = by_node.get(&node).and_then(|v| v.get(*cursor)).copied();
        *cursor += 1;
        match src {
            Some(src) => lint_linked_op(report, linked, step, src, op),
            None => report.push(CheckError::OpCountMismatch {
                step,
                schedule_count: src_ops.len(),
                linked_count: ops.len(),
            }),
        }
    }
}

/// Verify a linked schedule against its source: matching totals
/// (`n`/`capacity`/`rounds`/`messages`), one linked step per source step
/// and of the same kind (a linked step's index is its position),
/// per-step transfer/op counts, every slot id in range for its node
/// ([`CheckError::DanglingSlot`]), and slot↔key interning agreement on
/// every event ([`CheckError::SlotKeyMismatch`]).
///
/// Linking stable-sorts each round's transfers by destination and each
/// block's ops by node, so the linter recomputes that order from the
/// source and compares the pairs directly — no hashing. A source step
/// already in link order (a plan's schedule always is) pairs by
/// position, checked in the same scan; any other source step gets an
/// index sort ([`lowband_model::sort_by_node`]). Only a round or block
/// whose pairs disagree falls back to the order-free matcher, which
/// produces the report; a linked schedule in any other valid order
/// therefore lints exactly as before.
pub fn lint_linked(schedule: &Schedule, linked: &LinkedSchedule) -> CheckReport {
    lint_linked_with(schedule, linked, true)
}

fn lint_linked_with(schedule: &Schedule, linked: &LinkedSchedule, fast: bool) -> CheckReport {
    let mut report = CheckReport::new();
    for (what, expected, found) in [
        ("n", schedule.n(), linked.n()),
        ("capacity", schedule.capacity(), linked.capacity()),
        ("linked rounds", schedule.rounds(), linked.rounds()),
        ("linked messages", schedule.messages(), linked.messages()),
    ] {
        if expected != found {
            report.push(CheckError::TotalsMismatch {
                what,
                expected,
                found,
            });
        }
    }
    if schedule.steps().len() != linked.step_count() {
        report.push(CheckError::StepCountMismatch {
            schedule_steps: schedule.steps().len(),
            linked_steps: linked.step_count(),
        });
        return report;
    }
    let mut order = Vec::new();
    for (i, view) in linked.step_views().enumerate() {
        match (&schedule.steps()[i], view) {
            (Step::Comm(round), LinkedStepView::Comm { transfers }) => {
                if fast
                    && (round_agrees_as_is(linked, &round.transfers, transfers) || {
                        link_order(&mut order, &round.transfers, |t| t.dst.0);
                        round_agrees_in_order(linked, &round.transfers, transfers, &order)
                    })
                {
                    continue;
                }
                lint_linked_round(&mut report, linked, i, &round.transfers, transfers);
            }
            (Step::Compute(src_ops), LinkedStepView::Compute { ops }) => {
                if src_ops.len() != ops.len() {
                    report.push(CheckError::OpCountMismatch {
                        step: i,
                        schedule_count: src_ops.len(),
                        linked_count: ops.len(),
                    });
                    continue;
                }
                // When the linked block's node sequence is the source's in
                // link order, the by-node matcher's pairing *is* that
                // order, so checking the pairs directly reports the same.
                if fast && block_nodes_as_is(src_ops, ops) {
                    for (op, src) in ops.iter().zip(src_ops) {
                        lint_linked_op(&mut report, linked, i, src, op);
                    }
                    continue;
                }
                if fast {
                    link_order(&mut order, src_ops, |op| op.node().0);
                    if ops
                        .iter()
                        .zip(&order)
                        .all(|(op, &j)| op.node() == src_ops[j].node().0)
                    {
                        for (op, &j) in ops.iter().zip(&order) {
                            lint_linked_op(&mut report, linked, i, &src_ops[j], op);
                        }
                        continue;
                    }
                }
                lint_linked_block_by_node(&mut report, linked, i, src_ops, ops);
            }
            _ => report.push(CheckError::StepKindMismatch { step: i }),
        }
    }
    report
}

/// [`lint_linked`] with `check.*` counter emission (inside a
/// `"check.lint_linked"` span).
pub fn lint_linked_traced<T: Tracer>(
    schedule: &Schedule,
    linked: &LinkedSchedule,
    tracer: &mut T,
) -> CheckReport {
    tracer.span_enter("check.lint_linked");
    let report = lint_linked(schedule, linked);
    report.emit(tracer);
    tracer.span_exit("check.lint_linked");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_model::{binser, link, ScheduleBuilder};

    fn transfer(src: u32, src_key: Key, dst: u32, dst_key: Key, merge: Merge) -> Transfer {
        Transfer {
            src: NodeId(src),
            src_key,
            dst: NodeId(dst),
            dst_key,
            merge,
        }
    }

    /// Everything preloaded: isolates the capacity/hazard checks from
    /// liveness.
    fn all_preloaded() -> LintOptions<'static> {
        LintOptions {
            preloaded: &|_, _| true,
        }
    }

    #[test]
    fn clean_schedule_is_clean() {
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![transfer(0, Key::a(0, 0), 1, Key::x(0, 0), Merge::Add)])
            .unwrap();
        b.compute(vec![LocalOp::MulAdd {
            node: NodeId(1),
            dst: Key::x(0, 1),
            lhs: Key::x(0, 0),
            rhs: Key::b(0, 0),
        }])
        .unwrap();
        let s = b.build();
        let report = lint_schedule(&s, &LintOptions::default());
        assert!(report.is_empty(), "{report}");
        let linked = link(&s);
        assert!(lint_linked(&s, &linked).is_empty());
    }

    #[test]
    fn read_of_never_written_key_flagged() {
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![transfer(
            0,
            Key::tmp(9, 9),
            1,
            Key::x(0, 0),
            Merge::Overwrite,
        )])
        .unwrap();
        let s = b.build();
        let report = lint_schedule(&s, &LintOptions::default());
        assert!(matches!(
            report.violations(),
            [CheckError::ReadNeverWritten { step: 0, node: NodeId(0), key }] if *key == Key::tmp(9, 9)
        ));
        assert!(!report.is_clean());
    }

    #[test]
    fn compute_strict_reads_checked_sequentially() {
        // Zero makes tmp(0,0) live, so the Copy reading it is fine; the
        // Mul's rhs is not.
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![
            LocalOp::Zero {
                node: NodeId(0),
                dst: Key::tmp(0, 0),
            },
            LocalOp::Copy {
                node: NodeId(0),
                dst: Key::tmp(0, 1),
                src: Key::tmp(0, 0),
            },
            LocalOp::Mul {
                node: NodeId(0),
                dst: Key::tmp(0, 2),
                lhs: Key::tmp(0, 1),
                rhs: Key::tmp(7, 7),
            },
        ])
        .unwrap();
        let s = b.build();
        let report = lint_schedule(&s, &LintOptions::default());
        assert_eq!(report.violations().len(), 1);
        assert!(matches!(
            report.violations()[0],
            CheckError::ReadNeverWritten { key, .. } if key == Key::tmp(7, 7)
        ));
    }

    #[test]
    fn freed_key_no_longer_live() {
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![
            LocalOp::Zero {
                node: NodeId(0),
                dst: Key::tmp(0, 0),
            },
            LocalOp::Free {
                node: NodeId(0),
                key: Key::tmp(0, 0),
            },
            LocalOp::Copy {
                node: NodeId(0),
                dst: Key::tmp(0, 1),
                src: Key::tmp(0, 0),
            },
        ])
        .unwrap();
        let s = b.build();
        let report = lint_schedule(&s, &LintOptions::default());
        assert!(matches!(
            report.violations(),
            [CheckError::ReadNeverWritten { .. }]
        ));
    }

    #[test]
    fn read_after_overwrite_is_warning_only() {
        // Node 1 forwards x(0,0) while simultaneously receiving a new
        // value for it — defined (old value is sent), but flagged.
        let mut b = ScheduleBuilder::new(3);
        b.compute(vec![LocalOp::Zero {
            node: NodeId(1),
            dst: Key::x(0, 0),
        }])
        .unwrap();
        b.round(vec![
            transfer(1, Key::x(0, 0), 2, Key::x(0, 0), Merge::Overwrite),
            transfer(0, Key::a(0, 0), 1, Key::x(0, 0), Merge::Overwrite),
        ])
        .unwrap();
        let s = b.build();
        let report = lint_schedule(&s, &LintOptions::default());
        assert!(matches!(
            report.violations(),
            [CheckError::ReadAfterOverwrite {
                round: 0,
                node: NodeId(1),
                ..
            }]
        ));
        assert!(report.is_clean(), "warnings don't fail a lint");
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn write_write_overwrite_conflict_flagged() {
        // Capacity 2 lets node 2 legally receive twice; both writes target
        // the same key and one is an overwrite → order-dependent result.
        let mut b = ScheduleBuilder::with_capacity(3, 2);
        b.round(vec![
            transfer(0, Key::a(0, 0), 2, Key::x(0, 0), Merge::Overwrite),
            transfer(1, Key::a(1, 0), 2, Key::x(0, 0), Merge::Add),
        ])
        .unwrap();
        let s = b.build();
        let report = lint_schedule(&s, &LintOptions::default());
        assert!(matches!(
            report.violations(),
            [CheckError::WriteWriteConflict {
                node: NodeId(2),
                ..
            }]
        ));
        assert!(!report.is_clean());
    }

    #[test]
    fn all_add_fanin_is_fine() {
        let mut b = ScheduleBuilder::with_capacity(3, 2);
        b.round(vec![
            transfer(0, Key::a(0, 0), 2, Key::x(0, 0), Merge::Add),
            transfer(1, Key::a(1, 0), 2, Key::x(0, 0), Merge::Add),
        ])
        .unwrap();
        let s = b.build();
        assert!(lint_schedule(&s, &LintOptions::default()).is_empty());
    }

    #[test]
    fn capacity_respected_not_overreported() {
        // The builder enforces capacity, so an in-capacity round under
        // c = 2 must not be flagged.
        let mut b = ScheduleBuilder::with_capacity(4, 2);
        b.round(vec![
            transfer(0, Key::a(0, 0), 1, Key::x(0, 0), Merge::Add),
            transfer(0, Key::a(0, 1), 2, Key::x(0, 1), Merge::Add),
            transfer(3, Key::a(3, 0), 1, Key::x(1, 0), Merge::Add),
        ])
        .unwrap();
        let s = b.build();
        assert!(lint_schedule(&s, &all_preloaded()).is_empty());
    }

    #[test]
    fn over_capacity_round_flagged() {
        // Every public constructor (builder, binser de-link) enforces
        // capacity, so exercise the round checker directly with a raw
        // transfer list: node 0 sends twice, node 1 receives twice, both
        // over capacity 1.
        let raw = vec![
            transfer(0, Key::a(0, 0), 1, Key::x(0, 0), Merge::Add),
            transfer(0, Key::a(0, 1), 1, Key::x(0, 1), Merge::Add),
        ];
        let opts = all_preloaded();
        let mut live = Liveness::new(2, &opts);
        let mut report = CheckReport::new();
        lint_round(&mut report, &mut live, &raw, 0, 0, 2, 1);
        let kinds: Vec<_> = report
            .violations()
            .iter()
            .map(|v| v.counter_name())
            .collect();
        assert_eq!(
            kinds,
            ["check.send_over_capacity", "check.receive_over_capacity"],
            "{report}"
        );
        assert!(matches!(
            report.violations()[0],
            CheckError::SendOverCapacity {
                node: NodeId(0),
                count: 2,
                capacity: 1,
                ..
            }
        ));
    }

    #[test]
    fn declared_totals_cross_checked() {
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![transfer(0, Key::a(0, 0), 1, Key::x(0, 0), Merge::Add)])
            .unwrap();
        let good = b.build();
        // chain() sums totals; chaining with itself keeps them consistent,
        // so totals stay clean — this is the negative control.
        let s = good.clone().chain(good).unwrap();
        let report = lint_schedule(&s, &all_preloaded());
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn linked_form_of_clean_schedule_lints_clean() {
        let mut b = ScheduleBuilder::with_capacity(4, 2);
        b.compute(vec![LocalOp::BlockMulAdd {
            node: NodeId(0),
            dim: 2,
            a_ns: 10,
            b_ns: 11,
            c_ns: 12,
        }])
        .unwrap();
        b.round(vec![
            transfer(0, Key::tmp(12, 0), 1, Key::tmp(3, 0), Merge::Overwrite),
            transfer(0, Key::tmp(12, 1), 2, Key::tmp(3, 1), Merge::Add),
        ])
        .unwrap();
        b.compute(vec![
            LocalOp::MulAdd {
                node: NodeId(1),
                dst: Key::x(0, 0),
                lhs: Key::tmp(3, 0),
                rhs: Key::b(0, 0),
            },
            LocalOp::Free {
                node: NodeId(1),
                key: Key::tmp(3, 0),
            },
        ])
        .unwrap();
        let s = b.build();
        let linked = link(&s);
        let report = lint_linked(&s, &linked);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn linked_totals_mismatch_detected() {
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![transfer(0, Key::a(0, 0), 1, Key::x(0, 0), Merge::Add)])
            .unwrap();
        let s = b.build();
        let linked = link(&s);
        // Lint the linked form against a *different* source schedule.
        let mut b2 = ScheduleBuilder::new(2);
        b2.round(vec![transfer(0, Key::a(0, 0), 1, Key::x(0, 0), Merge::Add)])
            .unwrap();
        b2.round(vec![transfer(1, Key::x(0, 0), 0, Key::x(0, 0), Merge::Add)])
            .unwrap();
        let other = b2.build();
        let report = lint_linked(&other, &linked);
        assert!(!report.is_clean());
        assert!(report.violations().iter().any(|v| matches!(
            v,
            CheckError::TotalsMismatch {
                what: "linked rounds",
                ..
            }
        )));
    }

    /// Byte offsets of the first transfer record and the first op record
    /// inside an `encode_linked` payload (20 bytes each): header words,
    /// per-node key runs, the step table, then the two event tables.
    fn event_tables(ls: &LinkedSchedule) -> (usize, usize) {
        let keys: usize = (0..ls.n())
            .map(|v| 8 + 16 * ls.slots_at(NodeId(v as u32)))
            .sum();
        let transfers = 32 + keys + 8 + 32 * ls.step_count() + 8;
        (transfers, transfers + 20 * ls.messages() + 8)
    }

    /// Round-trip a linked schedule through its binser payload, letting
    /// `edit` rewrite the bytes in between (the decoder re-checks bounds
    /// only, so any in-range edit survives).
    fn relinked(ls: &LinkedSchedule, edit: impl FnOnce(&mut [u8])) -> LinkedSchedule {
        let mut payload = linked_payload(ls);
        edit(&mut payload);
        binser::decode_linked(&payload, 0).expect("edited payload stays in bounds")
    }

    fn linked_payload(ls: &LinkedSchedule) -> Vec<u8> {
        let mut payload = Vec::new();
        binser::encode_linked(ls, &mut payload);
        payload
    }

    /// The fast lint and the matcher-only lint report the same list.
    fn assert_lints_agree(s: &Schedule, ls: &LinkedSchedule) -> CheckReport {
        let fast = lint_linked(s, ls);
        let matcher = lint_linked_with(s, ls, false);
        assert_eq!(fast.violations(), matcher.violations());
        fast
    }

    /// Three transfers into node 2 (capacity 3): link order keeps them in
    /// program order, so swapping two linked records leaves a valid
    /// pairing in a different order.
    fn fan_in_schedule() -> Schedule {
        let mut b = ScheduleBuilder::with_capacity(4, 3);
        b.round(vec![
            transfer(0, Key::a(0, 0), 2, Key::x(0, 0), Merge::Add),
            transfer(1, Key::a(1, 0), 2, Key::x(0, 1), Merge::Add),
            transfer(3, Key::a(3, 0), 2, Key::x(0, 2), Merge::Overwrite),
        ])
        .unwrap();
        b.compute(vec![
            LocalOp::MulAdd {
                node: NodeId(2),
                dst: Key::x(1, 0),
                lhs: Key::x(0, 0),
                rhs: Key::x(0, 1),
            },
            LocalOp::Copy {
                node: NodeId(2),
                dst: Key::x(1, 1),
                src: Key::x(0, 2),
            },
        ])
        .unwrap();
        b.build()
    }

    #[test]
    fn permuted_linked_round_lints_clean_via_the_fallback() {
        let s = fan_in_schedule();
        let ls = link(&s);
        let (transfers, _) = event_tables(&ls);
        let permuted = relinked(&ls, |p| {
            let (first, second) = p[transfers..transfers + 40].split_at_mut(20);
            first.swap_with_slice(second);
        });
        // The edit really reordered the round, so the fast path cannot
        // accept it and the matcher must.
        let order = |l: &LinkedSchedule| match l.step_views().next() {
            Some(LinkedStepView::Comm { transfers }) => {
                transfers.iter().map(|t| t.src).collect::<Vec<_>>()
            }
            _ => unreachable!("step 0 is the round"),
        };
        assert_eq!(order(&ls), [0, 1, 3]);
        assert_eq!(order(&permuted), [1, 0, 3]);
        let report = assert_lints_agree(&s, &permuted);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn slot_swap_in_link_order_reports_like_the_matcher() {
        let s = fan_in_schedule();
        let ls = link(&s);
        let (transfers, ops) = event_tables(&ls);
        // Swap the dst slots of the first two transfers (words 3 of each
        // record) and the lhs/rhs slots of the MulAdd (words 3 and 4):
        // order and endpoints still agree, the interned keys do not.
        let swapped = relinked(&ls, |p| {
            for (a, b) in [(transfers + 12, transfers + 32), (ops + 12, ops + 16)] {
                let (lo, hi) = p.split_at_mut(b);
                lo[a..a + 4].swap_with_slice(&mut hi[..4]);
            }
        });
        let report = assert_lints_agree(&s, &swapped);
        let mismatches = report
            .violations()
            .iter()
            .filter(|v| matches!(v, CheckError::SlotKeyMismatch { .. }))
            .count();
        assert_eq!(mismatches, 4, "{report}");
        assert_eq!(report.violations().len(), 4, "{report}");
    }

    /// Point the slot word `slot_word` of the 20-byte record at `at` (whose
    /// node is word `node_word`) at the node's next slot, wrapping.
    fn bump_slot(p: &mut [u8], ls: &LinkedSchedule, at: usize, node_word: usize, slot_word: usize) {
        let word = |p: &[u8], w: usize| {
            u32::from_le_bytes(p[at + 4 * w..at + 4 * w + 4].try_into().unwrap())
        };
        let slots = ls.slots_at(NodeId(word(p, node_word))) as u32;
        let slot = (word(p, slot_word) + 1) % slots;
        p[at + 4 * slot_word..at + 4 * slot_word + 4].copy_from_slice(&slot.to_le_bytes());
    }

    #[test]
    fn fast_lint_matches_the_matcher_over_fuzz_seeds() {
        use rand::{Rng, SeedableRng};
        let mut failing = 0;
        for seed in 0..64u64 {
            let case = crate::gen::generate_for_seed(seed);
            let compressed = lowband_model::compress(&case.schedule);
            for s in [&case.schedule, &compressed] {
                let ls = link(s);
                assert!(assert_lints_agree(s, &ls).is_empty(), "seed {seed}");
                // Corrupt one transfer's dst slot and one op's first slot
                // (rewritten to another in-range slot of the same node):
                // the two lints must also agree on failing reports.
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let (transfers, ops) = event_tables(&ls);
                let op_count: usize = ls
                    .step_views()
                    .map(|v| match v {
                        LinkedStepView::Compute { ops } => ops.len(),
                        LinkedStepView::Comm { .. } => 0,
                    })
                    .sum();
                let mut edits = Vec::new();
                if ls.messages() > 0 {
                    edits.push((transfers + 20 * rng.gen_range(0..ls.messages()), 2, 3));
                }
                if op_count > 0 {
                    edits.push((ops + 20 * rng.gen_range(0..op_count), 1, 2));
                }
                let pristine = linked_payload(&ls);
                for (at, node_word, slot_word) in edits {
                    let tag = u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap());
                    if at >= ops && tag == 4 {
                        continue; // BlockMulAdd: word 2 is a block id, not a slot
                    }
                    let corrupt = relinked(&ls, |p| bump_slot(p, &ls, at, node_word, slot_word));
                    failing += usize::from(!assert_lints_agree(s, &corrupt).is_empty());
                }
            }
        }
        assert!(
            failing > 64,
            "only {failing} corrupted plans failed the lint"
        );
    }

    #[test]
    fn report_emits_counters() {
        use lowband_trace::metrics::MetricsRegistry;
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![transfer(
            0,
            Key::tmp(9, 9),
            1,
            Key::x(0, 0),
            Merge::Add,
        )])
        .unwrap();
        let s = b.build();
        let mut tracer = MetricsRegistry::new();
        let report = lint_schedule(&s, &LintOptions::default());
        report.emit(&mut tracer);
        assert_eq!(report.violations().len(), 1);
        assert_eq!(tracer.counter_value("check.read_never_written"), Some(1));
        assert_eq!(tracer.counter_value("check.errors"), Some(1));
        assert_eq!(tracer.counter_value("check.warnings"), Some(0));
    }
}
