//! Schedule linking: key interning + flat slot stores for hash-free
//! execution.
//!
//! The reference executor ([`crate::Machine`]) addresses every value
//! through a per-node `HashMap<Key, V>`, so every
//! transfer and local op pays several hash probes on 16-byte keys. But in
//! the supported model the *entire* set of keys a schedule will ever touch
//! is known before any value exists — schedules are compiled from structure
//! alone. [`link`] exploits that: it walks a [`Schedule`] once, interns each
//! node's distinct keys into dense slot ids (`u32`), and rewrites every
//! transfer and local op into slot-addressed form. The resulting
//! [`LinkedSchedule`] executes on [`LinkedMachine`], whose per-node store is
//! a flat `Vec<Option<V>>` indexed by slot — **zero hashing per event**.
//!
//! Slot ids follow key order: a node's slot `s` holds its `s`-th smallest
//! key. Finding a key's slot (value loading, output extraction) is then a
//! binary search over the node's key run ([`LinkedSchedule::slot_of`]),
//! and a linked schedule carries no key → slot map at all.
//!
//! Linking also *validates* once what the reference executor re-checks every
//! round (node ranges and the ≤ `capacity` send/receive constraint), so a
//! `LinkedSchedule` is a certificate that the program fits the model, and
//! the runtime loop carries no per-round validation at all.
//!
//! Within each round the linked transfers are stable-sorted by destination
//! node. This groups each node's deliveries together while preserving the
//! relative order of deliveries to the *same* destination — which,
//! combined with the same read-all-then-write-all round semantics as the
//! reference executor, makes the final stores bit-identical between the
//! hash-map and slot-store backends (asserted by tests and by the
//! cross-executor equivalence suite).

use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

use lowband_faults::{mix64, FaultHook, NoopFaults, Tamper};
use lowband_trace::{NoopTracer, RoundEvent, Tracer};

use crate::recovery::{Checkpoint, RunWindow};
use crate::schedule::{LocalOp, Merge, Round, Step};
use crate::{ExecutionStats, Key, ModelError, NodeId, PackedSemiring, Schedule, Semiring};

/// One message in slot-addressed form:
/// `dst.slots[dst_slot] ← merge(dst.slots[dst_slot], src.slots[src_slot])`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkedTransfer {
    /// Sending node.
    pub src: u32,
    /// Slot read at the sender.
    pub src_slot: u32,
    /// Receiving node.
    pub dst: u32,
    /// Slot written at the receiver.
    pub dst_slot: u32,
    /// Combination rule at the receiver.
    pub merge: Merge,
}

/// A [`LocalOp`] rewritten onto slot ids. `BlockMulAdd` references a
/// side-table entry holding the pre-interned slot vectors of its three
/// blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkedOp {
    /// `dst ← lhs · rhs`.
    Mul {
        /// Node performing the op.
        node: u32,
        /// Slot written.
        dst: u32,
        /// Left factor slot.
        lhs: u32,
        /// Right factor slot.
        rhs: u32,
    },
    /// `dst ← dst + src`.
    AddAssign {
        /// Node performing the op.
        node: u32,
        /// Accumulator slot.
        dst: u32,
        /// Added slot.
        src: u32,
    },
    /// `dst ← dst + lhs · rhs`.
    MulAdd {
        /// Node performing the op.
        node: u32,
        /// Accumulator slot.
        dst: u32,
        /// Left factor slot.
        lhs: u32,
        /// Right factor slot.
        rhs: u32,
    },
    /// `dst ← dst − src` (rings only).
    SubAssign {
        /// Node performing the op.
        node: u32,
        /// Accumulator slot.
        dst: u32,
        /// Subtracted slot.
        src: u32,
    },
    /// Dense block multiply-accumulate over pre-interned slot vectors.
    BlockMulAdd {
        /// Node performing the op.
        node: u32,
        /// Index into [`LinkedSchedule`]'s block side-table.
        block: u32,
    },
    /// `dst ← src`.
    Copy {
        /// Node performing the op.
        node: u32,
        /// Slot written.
        dst: u32,
        /// Slot read.
        src: u32,
    },
    /// `dst ← 0`.
    Zero {
        /// Node performing the op.
        node: u32,
        /// Slot written.
        dst: u32,
    },
    /// Empty the slot.
    Free {
        /// Node performing the op.
        node: u32,
        /// Slot emptied.
        slot: u32,
    },
}

impl LinkedOp {
    /// The node this op runs on.
    pub fn node(&self) -> u32 {
        match *self {
            LinkedOp::Mul { node, .. }
            | LinkedOp::AddAssign { node, .. }
            | LinkedOp::MulAdd { node, .. }
            | LinkedOp::SubAssign { node, .. }
            | LinkedOp::BlockMulAdd { node, .. }
            | LinkedOp::Copy { node, .. }
            | LinkedOp::Zero { node, .. }
            | LinkedOp::Free { node, .. } => node,
        }
    }
}

/// Pre-interned slot vectors of one `BlockMulAdd`'s `A`/`B`/`C` blocks, in
/// row-major `r·dim + c` order.
#[derive(Clone, Debug)]
pub(crate) struct BlockSlots {
    pub(crate) dim: u32,
    pub(crate) a: Vec<u32>,
    pub(crate) b: Vec<u32>,
    pub(crate) c: Vec<u32>,
}

/// One step of a linked schedule; ranges index the flat transfer/op arrays.
/// `step` is the step index in the *source* schedule, so runtime errors
/// point at the same step as the reference executor's.
#[derive(Clone, Debug)]
pub(crate) enum LinkedStep {
    Comm {
        transfers: Range<usize>,
        step: usize,
    },
    Compute {
        ops: Range<usize>,
        step: usize,
    },
}

/// One step of a linked schedule in borrowed, slot-addressed form — the
/// public view behind [`LinkedSchedule::step_views`]. `step` is the index
/// of the corresponding step in the *source* schedule (linking produces
/// exactly one linked step per source step).
#[derive(Clone, Copy, Debug)]
pub enum LinkedStepView<'a> {
    /// A communication round.
    Comm {
        /// The round's transfers, stable-sorted by destination node.
        transfers: &'a [LinkedTransfer],
        /// Source-schedule step index.
        step: usize,
    },
    /// A block of local ops.
    Compute {
        /// The block's ops, stable-sorted by node.
        ops: &'a [LinkedOp],
        /// Source-schedule step index.
        step: usize,
    },
}

/// A [`Schedule`] after linking: keys interned to dense per-node slots,
/// events in flat slot-addressed arrays, model constraints validated.
#[derive(Clone, Debug)]
pub struct LinkedSchedule {
    pub(crate) n: usize,
    pub(crate) capacity: usize,
    pub(crate) rounds: usize,
    pub(crate) messages: usize,
    /// Per node: the interned keys in strictly ascending order; a key's
    /// slot id is its index here, so [`LinkedSchedule::slot_of`] is a
    /// binary search and no per-node key → slot map exists.
    pub(crate) node_keys: Vec<Vec<Key>>,
    pub(crate) steps: Vec<LinkedStep>,
    pub(crate) transfers: Vec<LinkedTransfer>,
    pub(crate) ops: Vec<LinkedOp>,
    pub(crate) blocks: Vec<BlockSlots>,
}

fn intern(keys: &mut Vec<Key>, slots: &mut HashMap<Key, u32>, key: Key) -> u32 {
    *slots.entry(key).or_insert_with(|| {
        let slot = keys.len() as u32;
        keys.push(key);
        slot
    })
}

/// The pre-interned slot vectors of one `BlockMulAdd` side-table entry:
/// `(dim, a, b, c)`, each slice in row-major `r·dim + c` order.
pub type BlockSlotsRef<'a> = (u32, &'a [u32], &'a [u32], &'a [u32]);

impl LinkedSchedule {
    /// Link a schedule: one pass of interning, rewriting and validation,
    /// then one pass renumbering each node's slots into key order.
    /// Fails with the same errors the [`crate::ScheduleBuilder`] would raise
    /// if the schedule violates node ranges or the bandwidth constraint
    /// (relevant for schedules built by other means, e.g. deserialized).
    pub fn link(schedule: &Schedule) -> Result<LinkedSchedule, ModelError> {
        let n = schedule.n();
        let cap = schedule.capacity() as u32;
        // Per node: key → first-seen slot id. Local to linking; the
        // result is renumbered into key order and keeps no map.
        let mut interned: Vec<HashMap<Key, u32>> = vec![HashMap::new(); n];
        let mut ls = LinkedSchedule {
            n,
            capacity: schedule.capacity(),
            rounds: 0,
            messages: 0,
            node_keys: vec![Vec::new(); n],
            steps: Vec::with_capacity(schedule.steps().len()),
            transfers: Vec::with_capacity(schedule.messages()),
            ops: Vec::new(),
            blocks: Vec::new(),
        };
        let mut send_stamp = vec![0u32; n];
        let mut recv_stamp = vec![0u32; n];
        let mut send_count = vec![0u32; n];
        let mut recv_count = vec![0u32; n];
        let mut stamp = 0u32;

        let check_node = |node: NodeId| -> Result<usize, ModelError> {
            let i = node.index();
            if i >= n {
                return Err(ModelError::NodeOutOfRange { node, n });
            }
            Ok(i)
        };

        for (step_idx, step) in schedule.steps().iter().enumerate() {
            match step {
                Step::Comm(Round { transfers }) => {
                    stamp += 1;
                    let start = ls.transfers.len();
                    for t in transfers {
                        let si = check_node(t.src)?;
                        let di = check_node(t.dst)?;
                        if send_stamp[si] != stamp {
                            send_stamp[si] = stamp;
                            send_count[si] = 0;
                        }
                        send_count[si] += 1;
                        if send_count[si] > cap {
                            return Err(ModelError::SendConflict {
                                round: ls.rounds,
                                node: t.src,
                            });
                        }
                        if recv_stamp[di] != stamp {
                            recv_stamp[di] = stamp;
                            recv_count[di] = 0;
                        }
                        recv_count[di] += 1;
                        if recv_count[di] > cap {
                            return Err(ModelError::ReceiveConflict {
                                round: ls.rounds,
                                node: t.dst,
                            });
                        }
                        let src_slot = intern(&mut ls.node_keys[si], &mut interned[si], t.src_key);
                        let dst_slot = intern(&mut ls.node_keys[di], &mut interned[di], t.dst_key);
                        ls.transfers.push(LinkedTransfer {
                            src: si as u32,
                            src_slot,
                            dst: di as u32,
                            dst_slot,
                            merge: t.merge,
                        });
                    }
                    // Stable sort groups deliveries by destination while
                    // keeping same-destination deliveries in program
                    // order — required for bit-identical stores.
                    ls.transfers[start..].sort_by_key(|t| t.dst);
                    ls.rounds += 1;
                    ls.messages += transfers.len();
                    ls.steps.push(LinkedStep::Comm {
                        transfers: start..ls.transfers.len(),
                        step: step_idx,
                    });
                }
                Step::Compute(ops) => {
                    let start = ls.ops.len();
                    for op in ops {
                        let ni = check_node(op.node())?;
                        let keys = &mut ls.node_keys[ni];
                        let slots = &mut interned[ni];
                        let linked = match *op {
                            LocalOp::Mul { dst, lhs, rhs, .. } => LinkedOp::Mul {
                                node: ni as u32,
                                dst: intern(keys, slots, dst),
                                lhs: intern(keys, slots, lhs),
                                rhs: intern(keys, slots, rhs),
                            },
                            LocalOp::AddAssign { dst, src, .. } => LinkedOp::AddAssign {
                                node: ni as u32,
                                dst: intern(keys, slots, dst),
                                src: intern(keys, slots, src),
                            },
                            LocalOp::MulAdd { dst, lhs, rhs, .. } => LinkedOp::MulAdd {
                                node: ni as u32,
                                dst: intern(keys, slots, dst),
                                lhs: intern(keys, slots, lhs),
                                rhs: intern(keys, slots, rhs),
                            },
                            LocalOp::SubAssign { dst, src, .. } => LinkedOp::SubAssign {
                                node: ni as u32,
                                dst: intern(keys, slots, dst),
                                src: intern(keys, slots, src),
                            },
                            LocalOp::BlockMulAdd {
                                dim,
                                a_ns,
                                b_ns,
                                c_ns,
                                ..
                            } => {
                                let cells = (dim as u64) * (dim as u64);
                                let mut grab = |ns: u64| -> Vec<u32> {
                                    (0..cells)
                                        .map(|idx| intern(keys, slots, Key::tmp(ns, idx)))
                                        .collect()
                                };
                                let block = BlockSlots {
                                    dim,
                                    a: grab(a_ns),
                                    b: grab(b_ns),
                                    c: grab(c_ns),
                                };
                                ls.blocks.push(block);
                                LinkedOp::BlockMulAdd {
                                    node: ni as u32,
                                    block: (ls.blocks.len() - 1) as u32,
                                }
                            }
                            LocalOp::Copy { dst, src, .. } => LinkedOp::Copy {
                                node: ni as u32,
                                dst: intern(keys, slots, dst),
                                src: intern(keys, slots, src),
                            },
                            LocalOp::Zero { dst, .. } => LinkedOp::Zero {
                                node: ni as u32,
                                dst: intern(keys, slots, dst),
                            },
                            LocalOp::Free { key, .. } => LinkedOp::Free {
                                node: ni as u32,
                                slot: intern(keys, slots, key),
                            },
                        };
                        ls.ops.push(linked);
                    }
                    // Stable sort by node: ops on distinct nodes touch
                    // disjoint stores and commute; per-node program order is
                    // preserved.
                    ls.ops[start..].sort_by_key(|op| op.node());
                    ls.steps.push(LinkedStep::Compute {
                        ops: start..ls.ops.len(),
                        step: step_idx,
                    });
                }
            }
        }
        drop(interned);
        ls.renumber_in_key_order();
        Ok(ls)
    }

    /// Renumber every node's slots so slot ids ascend with keys: sort each
    /// key run, then rewrite every slot id in the transfer, op and block
    /// tables through the resulting old → new map. Event order is
    /// untouched; only the numbering changes.
    fn renumber_in_key_order(&mut self) {
        // `remap[base[v] + old] = new` for node `v`.
        let mut base = Vec::with_capacity(self.n + 1);
        base.push(0usize);
        for keys in &self.node_keys {
            base.push(base[base.len() - 1] + keys.len());
        }
        let mut remap = vec![0u32; base[self.n]];
        let mut order: Vec<u32> = Vec::new();
        let mut sorted: Vec<Key> = Vec::new();
        for (v, keys) in self.node_keys.iter_mut().enumerate() {
            order.clear();
            order.extend(0..keys.len() as u32);
            // Keys are distinct within a node, so the unstable sort is
            // deterministic.
            order.sort_unstable_by_key(|&old| keys[old as usize]);
            let map = &mut remap[base[v]..base[v + 1]];
            sorted.clear();
            for (new, &old) in order.iter().enumerate() {
                map[old as usize] = new as u32;
                sorted.push(keys[old as usize]);
            }
            keys.copy_from_slice(&sorted);
        }
        let at = |node: u32, slot: u32| remap[base[node as usize] + slot as usize];
        for t in &mut self.transfers {
            t.src_slot = at(t.src, t.src_slot);
            t.dst_slot = at(t.dst, t.dst_slot);
        }
        for op in &mut self.ops {
            match op {
                LinkedOp::Mul {
                    node,
                    dst,
                    lhs,
                    rhs,
                }
                | LinkedOp::MulAdd {
                    node,
                    dst,
                    lhs,
                    rhs,
                } => {
                    *dst = at(*node, *dst);
                    *lhs = at(*node, *lhs);
                    *rhs = at(*node, *rhs);
                }
                LinkedOp::AddAssign { node, dst, src }
                | LinkedOp::SubAssign { node, dst, src }
                | LinkedOp::Copy { node, dst, src } => {
                    *dst = at(*node, *dst);
                    *src = at(*node, *src);
                }
                LinkedOp::Zero { node, dst } => *dst = at(*node, *dst),
                LinkedOp::Free { node, slot } => *slot = at(*node, *slot),
                // Linking gives every BlockMulAdd op a side-table entry
                // of its own, so each block is remapped exactly once.
                LinkedOp::BlockMulAdd { node, block } => {
                    let spec = &mut self.blocks[*block as usize];
                    for slot in spec.a.iter_mut().chain(&mut spec.b).chain(&mut spec.c) {
                        *slot = at(*node, *slot);
                    }
                }
            }
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-round send/receive capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Communication rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total messages.
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// Number of interned slots at `node`.
    pub fn slots_at(&self, node: NodeId) -> usize {
        self.node_keys[node.index()].len()
    }

    /// Total interned slots across all nodes.
    pub fn total_slots(&self) -> usize {
        self.node_keys.iter().map(Vec::len).sum()
    }

    /// The slot id of `key` at `node`, if the schedule mentions it — a
    /// binary search over the node's ascending key run, and the only key
    /// → slot lookup there is.
    pub fn slot_of(&self, node: NodeId, key: Key) -> Option<u32> {
        self.node_keys[node.index()]
            .binary_search(&key)
            .ok()
            .map(|slot| slot as u32)
    }

    /// The key interned at `slot` of `node`.
    pub fn key_of(&self, node: NodeId, slot: u32) -> Key {
        self.node_keys[node.index()][slot as usize]
    }

    /// The key interned at `slot` of `node`, or `None` when either is out
    /// of range — the bounds-checked form of [`LinkedSchedule::key_of`].
    pub fn key_at(&self, node: u32, slot: u32) -> Option<Key> {
        self.node_keys
            .get(node as usize)?
            .get(slot as usize)
            .copied()
    }

    /// Number of linked steps. Linking produces exactly one linked step per
    /// source step, so this equals the source schedule's step count — an
    /// invariant `lowband-check` lints.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The linked steps in execution order, viewed against the flat
    /// transfer/op arrays. This is the read-only surface external
    /// validators (the `lowband-check` linter) walk.
    pub fn step_views(&self) -> impl Iterator<Item = LinkedStepView<'_>> {
        self.steps.iter().map(|s| match s {
            LinkedStep::Comm { transfers, step } => LinkedStepView::Comm {
                transfers: &self.transfers[transfers.clone()],
                step: *step,
            },
            LinkedStep::Compute { ops, step } => LinkedStepView::Compute {
                ops: &self.ops[ops.clone()],
                step: *step,
            },
        })
    }

    /// Number of entries in the `BlockMulAdd` side-table.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The pre-interned slot vectors of block `block` as
    /// `(dim, a, b, c)` in row-major `r·dim + c` order, or `None` if the
    /// index is out of range.
    pub fn block_slots(&self, block: u32) -> Option<BlockSlotsRef<'_>> {
        self.blocks
            .get(block as usize)
            .map(|b| (b.dim, &b.a[..], &b.b[..], &b.c[..]))
    }

    fn missing(&self, node: u32, slot: u32, step: usize) -> ModelError {
        ModelError::MissingValue {
            node: NodeId(node),
            key: self.node_keys[node as usize][slot as usize],
            step,
        }
    }
}

/// Convenience free-function form of [`LinkedSchedule::link`].
pub fn link(schedule: &Schedule) -> Result<LinkedSchedule, ModelError> {
    LinkedSchedule::link(schedule)
}

/// [`link`] with an instrumentation sink: wraps the pass in a `"link"`
/// span and records the artifact's size — rounds and transfers in, slot
/// stores and op list out.
pub fn link_traced<T: Tracer>(
    schedule: &Schedule,
    tracer: &mut T,
) -> Result<LinkedSchedule, ModelError> {
    tracer.span_enter("link");
    let result = LinkedSchedule::link(schedule);
    if let Ok(ls) = &result {
        tracer.counter("link.rounds", ls.rounds() as u64);
        tracer.counter("link.transfers", ls.messages() as u64);
        tracer.counter("link.ops", ls.ops.len() as u64);
        tracer.counter("link.slots", ls.total_slots() as u64);
    }
    tracer.span_exit("link");
    result
}

/// Slot-store executor for a [`LinkedSchedule`].
///
/// Each node's store is a flat `Vec<Option<V>>` indexed by slot id; `None`
/// means "key absent", exactly like a missing hash-map entry in
/// [`crate::Machine`]. Values loaded under keys the schedule never mentions
/// land in a per-node side map (they can't affect execution, but
/// [`LinkedMachine::snapshot`] must report them for bit-identical stores).
#[derive(Clone, Debug)]
pub struct LinkedMachine<'s, V: Semiring> {
    schedule: &'s LinkedSchedule,
    slots: Vec<Vec<Option<V>>>,
    extra: Vec<HashMap<Key, V>>,
}

impl<'s, V: Semiring> LinkedMachine<'s, V> {
    /// Create an empty machine sized for `schedule`.
    pub fn new(schedule: &'s LinkedSchedule) -> LinkedMachine<'s, V> {
        LinkedMachine {
            schedule,
            slots: schedule
                .node_keys
                .iter()
                .map(|keys| vec![None; keys.len()])
                .collect(),
            extra: vec![HashMap::new(); schedule.n],
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.schedule.n
    }

    /// The schedule this machine is linked against.
    pub fn schedule(&self) -> &'s LinkedSchedule {
        self.schedule
    }

    /// Place `value` under `key` at `node` (input loading).
    pub fn load(&mut self, node: NodeId, key: Key, value: V) {
        match self.schedule.slot_of(node, key) {
            Some(slot) => self.slots[node.index()][slot as usize] = Some(value),
            None => {
                self.extra[node.index()].insert(key, value);
            }
        }
    }

    /// Read the value under `key` at `node`, if present.
    pub fn get(&self, node: NodeId, key: Key) -> Option<&V> {
        match self.schedule.slot_of(node, key) {
            Some(slot) => self.slots[node.index()][slot as usize].as_ref(),
            None => self.extra[node.index()].get(&key),
        }
    }

    /// Read the value under `key` at `node`, or semiring zero if absent.
    pub fn get_or_zero(&self, node: NodeId, key: Key) -> V {
        self.get(node, key).cloned().unwrap_or_else(V::zero)
    }

    /// The full key–value store at `node` as a hash map — directly
    /// comparable against [`crate::Machine::snapshot`].
    pub fn snapshot(&self, node: NodeId) -> HashMap<Key, V> {
        let i = node.index();
        let mut map = self.extra[i].clone();
        for (slot, value) in self.slots[i].iter().enumerate() {
            if let Some(v) = value {
                map.insert(self.schedule.node_keys[i][slot], v.clone());
            }
        }
        map
    }

    /// Execute the linked schedule sequentially. The store mutations are
    /// bit-identical to [`crate::Machine::run`] on the source schedule; no
    /// hashing or constraint checking happens per event.
    pub fn run(&mut self) -> Result<ExecutionStats, ModelError> {
        self.run_traced(&mut NoopTracer)
    }

    /// [`LinkedMachine::run`] with an instrumentation sink: one
    /// [`RoundEvent`] per round, a `run.local_ops` counter per compute
    /// step, and per-node send/receive loads at the end. All payload
    /// gathering is guarded by `T::ENABLED` (a constant), so with
    /// [`NoopTracer`] this compiles to exactly [`LinkedMachine::run`] —
    /// the hash-free hot path stays hash-free and branch-free.
    pub fn run_traced<T: Tracer>(&mut self, tracer: &mut T) -> Result<ExecutionStats, ModelError> {
        let mut stats = ExecutionStats::default();
        self.run_guarded(tracer, &mut NoopFaults, RunWindow::full(), &mut stats)?;
        Ok(stats)
    }

    /// Fault-guarded, windowed variant of [`LinkedMachine::run_traced`];
    /// same contract as [`crate::Machine::run_guarded`]. Because linking
    /// produces exactly one step per source step, `window.start_step` and
    /// the returned resume cursor are **source**-schedule step indices —
    /// checkpoints are interchangeable with the reference executor.
    pub fn run_guarded<T: Tracer, F: FaultHook>(
        &mut self,
        tracer: &mut T,
        faults: &mut F,
        window: RunWindow,
        stats: &mut ExecutionStats,
    ) -> Result<Option<usize>, ModelError> {
        let start = Instant::now();
        let result = self.run_window(tracer, faults, window, stats);
        stats.elapsed += start.elapsed();
        result
    }

    fn run_window<T: Tracer, F: FaultHook>(
        &mut self,
        tracer: &mut T,
        faults: &mut F,
        window: RunWindow,
        stats: &mut ExecutionStats,
    ) -> Result<Option<usize>, ModelError> {
        let schedule = self.schedule;
        let mut inbox: Vec<V> = Vec::new();
        // Surviving transfer indices for the write phase of fault runs
        // (drops leave holes, so `ts.iter().zip(inbox)` would misalign).
        let mut keep: Vec<usize> = Vec::new();
        let (mut node_sends, mut node_recvs) = if T::ENABLED {
            (vec![0u64; schedule.n], vec![0u64; schedule.n])
        } else {
            (Vec::new(), Vec::new())
        };
        let mut ops_since_round = 0u64;
        let mut window_rounds = 0usize;
        let first = window.start_step.min(schedule.steps.len());
        for lstep in &schedule.steps[first..] {
            match lstep {
                LinkedStep::Comm { transfers, step } => {
                    // The window budget binds on every run, fault hook or
                    // not (see `crate::Machine::run_window`).
                    if window_rounds == window.max_rounds {
                        if T::ENABLED {
                            tracer.node_loads(&node_sends, &node_recvs);
                        }
                        return Ok(Some(*step));
                    }
                    window_rounds += 1;
                    if F::ENABLED {
                        if let Some(victim) = faults.crash(stats.rounds) {
                            if (victim as usize) < schedule.n {
                                if T::ENABLED {
                                    tracer.fault("fault.injected.crash", stats.rounds as u64);
                                }
                                self.slots[victim as usize]
                                    .iter_mut()
                                    .for_each(|cell| *cell = None);
                                self.extra[victim as usize].clear();
                                return Err(ModelError::NodeCrashed {
                                    node: NodeId(victim),
                                    round: stats.rounds,
                                });
                            }
                        }
                    }
                    let round_start = if T::ENABLED {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let ts = &schedule.transfers[transfers.clone()];
                    // Read phase: gather all payloads before any delivery,
                    // so that delivery within a round is simultaneous.
                    inbox.clear();
                    inbox.reserve(ts.len());
                    let (mut sent_sum, mut recv_sum) = (0u64, 0u64);
                    if F::ENABLED {
                        keep.clear();
                    }
                    for (i, t) in ts.iter().enumerate() {
                        let mut v = self.slots[t.src as usize][t.src_slot as usize]
                            .clone()
                            .ok_or_else(|| schedule.missing(t.src, t.src_slot, *step))?;
                        if F::ENABLED {
                            sent_sum = sent_sum.wrapping_add(mix64(v.digest()));
                            match faults.tamper(stats.rounds, t.src) {
                                Tamper::None => {}
                                Tamper::Drop => {
                                    if T::ENABLED {
                                        tracer.fault("fault.injected.drop", stats.rounds as u64);
                                    }
                                    continue;
                                }
                                Tamper::Corrupt => {
                                    if T::ENABLED {
                                        tracer.fault("fault.injected.corrupt", stats.rounds as u64);
                                    }
                                    v = v.corrupted();
                                }
                            }
                            recv_sum = recv_sum.wrapping_add(mix64(v.digest()));
                            keep.push(i);
                        }
                        inbox.push(v);
                    }
                    // Write phase: deliver.
                    if F::ENABLED {
                        for (&i, payload) in keep.iter().zip(inbox.drain(..)) {
                            let t = &ts[i];
                            deliver(
                                &mut self.slots[t.dst as usize][t.dst_slot as usize],
                                t.merge,
                                payload,
                            );
                        }
                        if sent_sum != recv_sum {
                            if T::ENABLED {
                                tracer.fault("fault.detected", stats.rounds as u64);
                            }
                            return Err(ModelError::Corruption {
                                round: stats.rounds,
                            });
                        }
                    } else {
                        for (t, payload) in ts.iter().zip(inbox.drain(..)) {
                            deliver(
                                &mut self.slots[t.dst as usize][t.dst_slot as usize],
                                t.merge,
                                payload,
                            );
                        }
                    }
                    stats.record_round(ts.len());
                    if T::ENABLED {
                        for t in ts {
                            node_sends[t.src as usize] += 1;
                            node_recvs[t.dst as usize] += 1;
                        }
                        tracer.round(RoundEvent {
                            index: (stats.rounds - 1) as u64,
                            messages: ts.len() as u64,
                            local_ops: ops_since_round,
                            nanos: round_start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                        });
                        ops_since_round = 0;
                    }
                }
                LinkedStep::Compute { ops, step } => {
                    for op in &schedule.ops[ops.clone()] {
                        let store = &mut self.slots[op.node() as usize];
                        apply_linked_op(store, op, schedule, *step)?;
                        stats.local_ops += 1;
                    }
                    tracer.counter("run.local_ops", ops.len() as u64);
                    if T::ENABLED {
                        ops_since_round += ops.len() as u64;
                    }
                }
            }
        }
        if T::ENABLED {
            tracer.node_loads(&node_sends, &node_recvs);
        }
        Ok(None)
    }

    /// Snapshot machine state into an executor-independent [`Checkpoint`]
    /// (stores in canonical hash-map form, so it restores onto any backend).
    pub fn checkpoint(&self, next_step: usize, stats: ExecutionStats) -> Checkpoint<V> {
        let stores = (0..self.n())
            .map(|i| self.snapshot(NodeId(i as u32)))
            .collect();
        Checkpoint::new(next_step, stats, stores)
    }

    /// Restore every store from a [`Checkpoint`] taken on any executor
    /// backend of the same network size. Keys the linked schedule never
    /// mentions land back in the side map, exactly as [`LinkedMachine::load`]
    /// places them.
    pub fn restore(&mut self, ckpt: &Checkpoint<V>) -> Result<(), ModelError> {
        if ckpt.n() != self.n() {
            return Err(ModelError::SizeMismatch {
                expected: ckpt.n(),
                actual: self.n(),
            });
        }
        self.reset();
        for (i, saved) in ckpt.stores().iter().enumerate() {
            for (key, value) in saved {
                self.load(NodeId(i as u32), *key, value.clone());
            }
        }
        Ok(())
    }

    /// Empty every slot and side map **in place**, returning the machine to
    /// its freshly-constructed state while keeping every allocation — the
    /// per-node slot vectors and side-map tables are cleared, not dropped.
    ///
    /// This is the compile-once/execute-many primitive: a serving loop
    /// streams K value-sets through one machine by alternating
    /// `reset_values` → load → run, paying the structure-dependent
    /// allocation cost once per [`LinkedSchedule`] instead of once per
    /// value-set (see `Instance::reload_linked` in `lowband-core`).
    pub fn reset_values(&mut self) {
        debug_assert!(
            self.slots.len() == self.schedule.n
                && self
                    .slots
                    .iter()
                    .zip(&self.schedule.node_keys)
                    .all(|(slots, keys)| slots.len() == keys.len()),
            "slot stores diverged from the linked schedule's interned layout \
             (stale machine reused against a different compiled plan?)"
        );
        for slots in &mut self.slots {
            slots.iter_mut().for_each(|cell| *cell = None);
        }
        for extra in &mut self.extra {
            extra.clear();
        }
    }

    /// Alias of [`LinkedMachine::reset_values`], kept so the
    /// checkpoint/restore surface (`checkpoint`/`restore`/`reset`) stays
    /// interchangeable across all executor backends.
    pub fn reset(&mut self) {
        self.reset_values();
    }
}

#[inline]
fn deliver<V: Semiring>(cell: &mut Option<V>, merge: Merge, payload: V) {
    match merge {
        Merge::Overwrite => *cell = Some(payload),
        Merge::Add => {
            let cur = cell.take().unwrap_or_else(V::zero);
            *cell = Some(cur.add(&payload));
        }
    }
}

fn apply_linked_op<V: Semiring>(
    store: &mut [Option<V>],
    op: &LinkedOp,
    schedule: &LinkedSchedule,
    step: usize,
) -> Result<(), ModelError> {
    let read = |store: &[Option<V>], node: u32, slot: u32| -> Result<V, ModelError> {
        store[slot as usize]
            .clone()
            .ok_or_else(|| schedule.missing(node, slot, step))
    };
    match *op {
        LinkedOp::Mul {
            node,
            dst,
            lhs,
            rhs,
        } => {
            let a = read(store, node, lhs)?;
            let b = read(store, node, rhs)?;
            store[dst as usize] = Some(a.mul(&b));
        }
        LinkedOp::AddAssign { node, dst, src } => {
            let s = read(store, node, src)?;
            let cell = &mut store[dst as usize];
            let cur = cell.take().unwrap_or_else(V::zero);
            *cell = Some(cur.add(&s));
        }
        LinkedOp::MulAdd {
            node,
            dst,
            lhs,
            rhs,
        } => {
            let a = read(store, node, lhs)?;
            let b = read(store, node, rhs)?;
            let cell = &mut store[dst as usize];
            let cur = cell.take().unwrap_or_else(V::zero);
            *cell = Some(cur.add(&a.mul(&b)));
        }
        LinkedOp::SubAssign { node, dst, src } => {
            let s = read(store, node, src)?;
            let negated = s.try_neg().ok_or(ModelError::UnsupportedOp {
                node: NodeId(node),
                step,
                what: "additive inverses (a ring)",
            })?;
            let cell = &mut store[dst as usize];
            let cur = cell.take().unwrap_or_else(V::zero);
            *cell = Some(cur.add(&negated));
        }
        LinkedOp::BlockMulAdd { block, .. } => {
            let spec = &schedule.blocks[block as usize];
            let dim = spec.dim as usize;
            let fetch = |slots: &[u32]| -> Vec<V> {
                slots
                    .iter()
                    .map(|&s| store[s as usize].clone().unwrap_or_else(V::zero))
                    .collect()
            };
            let a = fetch(&spec.a);
            let b = fetch(&spec.b);
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
            // Every output slot materializes (zeros included), matching the
            // reference kernel's structural-materialization guarantee.
            for (&slot, v) in spec.c.iter().zip(out) {
                let cell = &mut store[slot as usize];
                let cur = cell.take().unwrap_or_else(V::zero);
                *cell = Some(cur.add(&v));
            }
        }
        LinkedOp::Copy { node, dst, src } => {
            let s = read(store, node, src)?;
            store[dst as usize] = Some(s);
        }
        LinkedOp::Zero { dst, .. } => {
            store[dst as usize] = Some(V::zero());
        }
        LinkedOp::Free { slot, .. } => {
            store[slot as usize] = None;
        }
    }
    Ok(())
}

/// Struct-of-arrays batched executor for a [`LinkedSchedule`]: every slot
/// stores a *lane plane* of `LANES` independent values
/// ([`PackedSemiring::Plane`]), so one interpretation of the schedule —
/// one pass over the linked steps, one decode per transfer and op —
/// advances `LANES` batch members at once. Schedule-decode cost amortizes
/// to `1/LANES` per member and the semiring ops become straight-line
/// plane loops (bit-sliced `u64` ops for two-element algebras: 64 members
/// per word).
///
/// The machine executes the *same* [`LinkedSchedule`] as
/// [`LinkedMachine`], unmodified — `BlockMulAdd` side-tables included —
/// and every lane's store evolution is bit-identical to a scalar run of
/// that lane's values (the packed ≡ sequential suite in `tests/batch.rs`
/// asserts this across semirings). Presence is plane-level: a slot is
/// occupied iff *any* lane loaded it, and unloaded lanes of an occupied
/// plane read as [`Semiring::zero`]. The batch runners always load every
/// lane with value-sets over the same supports, so plane presence
/// coincides with each member's scalar presence; tail lanes of a ragged
/// batch (`K % LANES ≠ 0`) stay zero-padded and are simply not reported.
///
/// Fault-guarded runs keep **per-lane** rolling round checksums
/// ([`PackedSemiring::lane_digest`]), so in-flight corruption is detected
/// *and localized to the batch member it hit* (`fault.detected.lane`
/// tracer event); a dropped message affects the physical plane, i.e.
/// every lane, exactly as one lost wire message would.
#[derive(Clone, Debug)]
pub struct PackedLinkedMachine<'s, V: PackedSemiring<LANES>, const LANES: usize> {
    schedule: &'s LinkedSchedule,
    slots: Vec<Vec<Option<V::Plane>>>,
    extra: Vec<HashMap<Key, V::Plane>>,
}

impl<'s, V: PackedSemiring<LANES>, const LANES: usize> PackedLinkedMachine<'s, V, LANES> {
    /// Create an empty packed machine sized for `schedule`; all planes
    /// start absent. `LANES` must be `1..=64` (a zero mask is one `u64`).
    pub fn new(schedule: &'s LinkedSchedule) -> PackedLinkedMachine<'s, V, LANES> {
        const {
            assert!(
                LANES >= 1 && LANES <= 64,
                "lane planes carry 1..=64 members"
            );
        }
        PackedLinkedMachine {
            schedule,
            slots: schedule
                .node_keys
                .iter()
                .map(|keys| vec![None; keys.len()])
                .collect(),
            extra: vec![HashMap::new(); schedule.n],
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.schedule.n
    }

    /// Lane count (batch members per plane).
    pub fn lanes(&self) -> usize {
        LANES
    }

    /// The schedule this machine is linked against.
    pub fn schedule(&self) -> &'s LinkedSchedule {
        self.schedule
    }

    /// Place `value` under `key` at `node` in lane `lane`. The first load
    /// into an absent plane zero-fills the other lanes.
    pub fn load_lane(&mut self, node: NodeId, key: Key, lane: usize, value: V) {
        debug_assert!(lane < LANES, "lane {lane} out of range for {LANES} lanes");
        let plane = match self.schedule.slot_of(node, key) {
            Some(slot) => {
                self.slots[node.index()][slot as usize].get_or_insert_with(V::packed_zero)
            }
            None => self.extra[node.index()]
                .entry(key)
                .or_insert_with(V::packed_zero),
        };
        V::insert(plane, lane, value);
    }

    /// [`PackedLinkedMachine::load_lane`] with the slot already resolved
    /// (`slot < ` [`LinkedSchedule::slots_at`]` (node)`): the search-free
    /// fast path for batch loaders that precompute each support entry's
    /// `(node, slot)` site once per plan and then stream `LANES`
    /// value-sets through it — the slot search is structure-only work, so
    /// it amortizes across the whole batch exactly like the schedule
    /// decode.
    #[inline]
    pub fn load_lane_slot(&mut self, node: NodeId, slot: u32, lane: usize, value: V) {
        debug_assert!(lane < LANES, "lane {lane} out of range for {LANES} lanes");
        let plane = self.slots[node.index()][slot as usize].get_or_insert_with(V::packed_zero);
        V::insert(plane, lane, value);
    }

    /// [`PackedLinkedMachine::get_or_zero_lane`] with the slot already
    /// resolved — the search-free extraction counterpart of
    /// [`PackedLinkedMachine::load_lane_slot`].
    #[inline]
    pub fn get_or_zero_lane_slot(&self, node: NodeId, slot: u32, lane: usize) -> V {
        match &self.slots[node.index()][slot as usize] {
            Some(plane) => V::extract(plane, lane),
            None => V::zero(),
        }
    }

    /// Read lane `lane` of the value under `key` at `node`, if the plane
    /// is occupied (an occupied plane's unloaded lanes read as zero).
    pub fn get_lane(&self, node: NodeId, key: Key, lane: usize) -> Option<V> {
        debug_assert!(lane < LANES, "lane {lane} out of range for {LANES} lanes");
        let plane = match self.schedule.slot_of(node, key) {
            Some(slot) => self.slots[node.index()][slot as usize].as_ref(),
            None => self.extra[node.index()].get(&key),
        };
        plane.map(|p| V::extract(p, lane))
    }

    /// Read lane `lane` of the value under `key` at `node`, or zero.
    pub fn get_or_zero_lane(&self, node: NodeId, key: Key, lane: usize) -> V {
        self.get_lane(node, key, lane).unwrap_or_else(V::zero)
    }

    /// One lane's full key–value store at `node` as a hash map — directly
    /// comparable against [`LinkedMachine::snapshot`] of a scalar run of
    /// that lane's values.
    pub fn snapshot_lane(&self, node: NodeId, lane: usize) -> HashMap<Key, V> {
        let i = node.index();
        let mut map: HashMap<Key, V> = self.extra[i]
            .iter()
            .map(|(k, p)| (*k, V::extract(p, lane)))
            .collect();
        for (slot, plane) in self.slots[i].iter().enumerate() {
            if let Some(p) = plane {
                map.insert(self.schedule.node_keys[i][slot], V::extract(p, lane));
            }
        }
        map
    }

    /// Empty every plane and side map in place, keeping every allocation —
    /// the packed analogue of [`LinkedMachine::reset_values`], and the
    /// same compile-once/execute-many primitive: a serving loop streams
    /// lane groups through one machine by alternating `reset_values` →
    /// load → run.
    pub fn reset_values(&mut self) {
        debug_assert!(
            self.slots.len() == self.schedule.n
                && self
                    .slots
                    .iter()
                    .zip(&self.schedule.node_keys)
                    .all(|(slots, keys)| slots.len() == keys.len()),
            "plane stores diverged from the linked schedule's interned layout \
             (stale machine reused against a different compiled plan?)"
        );
        for slots in &mut self.slots {
            slots.iter_mut().for_each(|cell| *cell = None);
        }
        for extra in &mut self.extra {
            extra.clear();
        }
    }

    /// Execute the linked schedule once, advancing all `LANES` lanes.
    /// Each lane's store mutations are bit-identical to a scalar
    /// [`LinkedMachine::run`] over that lane's values.
    pub fn run(&mut self) -> Result<ExecutionStats, ModelError> {
        self.run_traced(&mut NoopTracer)
    }

    /// [`PackedLinkedMachine::run`] with an instrumentation sink: the
    /// same per-round [`RoundEvent`] stream, `run.local_ops` counters and
    /// per-node send/receive loads as the scalar executor — one event per
    /// *physical* round, not per lane.
    pub fn run_traced<T: Tracer>(&mut self, tracer: &mut T) -> Result<ExecutionStats, ModelError> {
        let mut stats = ExecutionStats::default();
        self.run_guarded(tracer, &mut NoopFaults, RunWindow::full(), &mut stats)?;
        Ok(stats)
    }

    /// Fault-guarded, windowed variant of [`PackedLinkedMachine::run_traced`];
    /// same window contract as [`LinkedMachine::run_guarded`] (source-step
    /// resume cursors). Under an enabled [`FaultHook`] the machine keeps
    /// one rolling checksum **per lane**: a `Tamper::Corrupt` perturbs a
    /// single deterministic lane (`round % LANES`), and the resulting
    /// [`ModelError::Corruption`] is preceded by a `fault.detected.lane`
    /// tracer event naming the corrupted member's lane — detection
    /// localizes the member, not just the round. A `Tamper::Drop` loses
    /// the physical message, i.e. every lane of the plane at once.
    pub fn run_guarded<T: Tracer, F: FaultHook>(
        &mut self,
        tracer: &mut T,
        faults: &mut F,
        window: RunWindow,
        stats: &mut ExecutionStats,
    ) -> Result<Option<usize>, ModelError> {
        let start = Instant::now();
        let result = self.run_window(tracer, faults, window, stats);
        stats.elapsed += start.elapsed();
        result
    }

    fn run_window<T: Tracer, F: FaultHook>(
        &mut self,
        tracer: &mut T,
        faults: &mut F,
        window: RunWindow,
        stats: &mut ExecutionStats,
    ) -> Result<Option<usize>, ModelError> {
        let schedule = self.schedule;
        let mut inbox: Vec<V::Plane> = Vec::new();
        let mut keep: Vec<usize> = Vec::new();
        let (mut node_sends, mut node_recvs) = if T::ENABLED {
            (vec![0u64; schedule.n], vec![0u64; schedule.n])
        } else {
            (Vec::new(), Vec::new())
        };
        let mut ops_since_round = 0u64;
        let mut window_rounds = 0usize;
        let first = window.start_step.min(schedule.steps.len());
        for lstep in &schedule.steps[first..] {
            match lstep {
                LinkedStep::Comm { transfers, step } => {
                    if window_rounds == window.max_rounds {
                        if T::ENABLED {
                            tracer.node_loads(&node_sends, &node_recvs);
                        }
                        return Ok(Some(*step));
                    }
                    window_rounds += 1;
                    if F::ENABLED {
                        if let Some(victim) = faults.crash(stats.rounds) {
                            if (victim as usize) < schedule.n {
                                if T::ENABLED {
                                    tracer.fault("fault.injected.crash", stats.rounds as u64);
                                }
                                self.slots[victim as usize]
                                    .iter_mut()
                                    .for_each(|cell| *cell = None);
                                self.extra[victim as usize].clear();
                                return Err(ModelError::NodeCrashed {
                                    node: NodeId(victim),
                                    round: stats.rounds,
                                });
                            }
                        }
                    }
                    let round_start = if T::ENABLED {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let ts = &schedule.transfers[transfers.clone()];
                    // Read phase: gather all payload planes before any
                    // delivery, so delivery within a round is simultaneous
                    // for every lane.
                    inbox.clear();
                    inbox.reserve(ts.len());
                    let (mut sent_sum, mut recv_sum) = ([0u64; LANES], [0u64; LANES]);
                    if F::ENABLED {
                        keep.clear();
                    }
                    for (i, t) in ts.iter().enumerate() {
                        let mut plane = self.slots[t.src as usize][t.src_slot as usize]
                            .clone()
                            .ok_or_else(|| schedule.missing(t.src, t.src_slot, *step))?;
                        if F::ENABLED {
                            for (lane, sum) in sent_sum.iter_mut().enumerate() {
                                *sum = sum.wrapping_add(mix64(V::lane_digest(&plane, lane)));
                            }
                            match faults.tamper(stats.rounds, t.src) {
                                Tamper::None => {}
                                Tamper::Drop => {
                                    if T::ENABLED {
                                        tracer.fault("fault.injected.drop", stats.rounds as u64);
                                    }
                                    continue;
                                }
                                Tamper::Corrupt => {
                                    if T::ENABLED {
                                        tracer.fault("fault.injected.corrupt", stats.rounds as u64);
                                    }
                                    V::corrupt_lane(&mut plane, stats.rounds % LANES);
                                }
                            }
                            for (lane, sum) in recv_sum.iter_mut().enumerate() {
                                *sum = sum.wrapping_add(mix64(V::lane_digest(&plane, lane)));
                            }
                            keep.push(i);
                        }
                        inbox.push(plane);
                    }
                    // Write phase: deliver.
                    if F::ENABLED {
                        for (&i, payload) in keep.iter().zip(inbox.drain(..)) {
                            let t = &ts[i];
                            deliver_packed::<V, LANES>(
                                &mut self.slots[t.dst as usize][t.dst_slot as usize],
                                t.merge,
                                payload,
                            );
                        }
                        if sent_sum != recv_sum {
                            if T::ENABLED {
                                tracer.fault("fault.detected", stats.rounds as u64);
                                // Name the first mismatching lane so the
                                // driver can localize the corrupt member.
                                if let Some(lane) = (0..LANES).find(|&l| sent_sum[l] != recv_sum[l])
                                {
                                    tracer.fault("fault.detected.lane", lane as u64);
                                }
                            }
                            return Err(ModelError::Corruption {
                                round: stats.rounds,
                            });
                        }
                    } else {
                        for (t, payload) in ts.iter().zip(inbox.drain(..)) {
                            deliver_packed::<V, LANES>(
                                &mut self.slots[t.dst as usize][t.dst_slot as usize],
                                t.merge,
                                payload,
                            );
                        }
                    }
                    stats.record_round(ts.len());
                    if T::ENABLED {
                        for t in ts {
                            node_sends[t.src as usize] += 1;
                            node_recvs[t.dst as usize] += 1;
                        }
                        tracer.round(RoundEvent {
                            index: (stats.rounds - 1) as u64,
                            messages: ts.len() as u64,
                            local_ops: ops_since_round,
                            nanos: round_start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                        });
                        ops_since_round = 0;
                    }
                }
                LinkedStep::Compute { ops, step } => {
                    for op in &schedule.ops[ops.clone()] {
                        let store = &mut self.slots[op.node() as usize];
                        apply_packed_op::<V, LANES>(store, op, schedule, *step)?;
                        stats.local_ops += 1;
                    }
                    tracer.counter("run.local_ops", ops.len() as u64);
                    if T::ENABLED {
                        ops_since_round += ops.len() as u64;
                    }
                }
            }
        }
        if T::ENABLED {
            tracer.node_loads(&node_sends, &node_recvs);
        }
        Ok(None)
    }
}

#[inline]
fn deliver_packed<V: PackedSemiring<LANES>, const LANES: usize>(
    cell: &mut Option<V::Plane>,
    merge: Merge,
    payload: V::Plane,
) {
    match merge {
        Merge::Overwrite => *cell = Some(payload),
        Merge::Add => {
            let cur = cell.take().unwrap_or_else(V::packed_zero);
            *cell = Some(V::packed_add(&cur, &payload));
        }
    }
}

fn apply_packed_op<V: PackedSemiring<LANES>, const LANES: usize>(
    store: &mut [Option<V::Plane>],
    op: &LinkedOp,
    schedule: &LinkedSchedule,
    step: usize,
) -> Result<(), ModelError> {
    let read = |store: &[Option<V::Plane>], node: u32, slot: u32| -> Result<V::Plane, ModelError> {
        store[slot as usize]
            .clone()
            .ok_or_else(|| schedule.missing(node, slot, step))
    };
    match *op {
        LinkedOp::Mul {
            node,
            dst,
            lhs,
            rhs,
        } => {
            let a = read(store, node, lhs)?;
            let b = read(store, node, rhs)?;
            store[dst as usize] = Some(V::packed_mul(&a, &b));
        }
        LinkedOp::AddAssign { node, dst, src } => {
            let s = read(store, node, src)?;
            let cell = &mut store[dst as usize];
            let cur = cell.take().unwrap_or_else(V::packed_zero);
            *cell = Some(V::packed_add(&cur, &s));
        }
        LinkedOp::MulAdd {
            node,
            dst,
            lhs,
            rhs,
        } => {
            let a = read(store, node, lhs)?;
            let b = read(store, node, rhs)?;
            let cell = &mut store[dst as usize];
            let cur = cell.take().unwrap_or_else(V::packed_zero);
            *cell = Some(V::packed_mul_add(&cur, &a, &b));
        }
        LinkedOp::SubAssign { node, dst, src } => {
            let s = read(store, node, src)?;
            let negated = V::packed_try_neg(&s).ok_or(ModelError::UnsupportedOp {
                node: NodeId(node),
                step,
                what: "additive inverses (a ring)",
            })?;
            let cell = &mut store[dst as usize];
            let cur = cell.take().unwrap_or_else(V::packed_zero);
            *cell = Some(V::packed_add(&cur, &negated));
        }
        LinkedOp::BlockMulAdd { block, .. } => {
            let spec = &schedule.blocks[block as usize];
            let dim = spec.dim as usize;
            let lanes_mask = if LANES == 64 { !0 } else { (1u64 << LANES) - 1 };
            let fetch = |slots: &[u32]| -> Vec<V::Plane> {
                slots
                    .iter()
                    .map(|&s| store[s as usize].clone().unwrap_or_else(V::packed_zero))
                    .collect()
            };
            let a = fetch(&spec.a);
            let b = fetch(&spec.b);
            let mut out = vec![V::packed_zero(); dim * dim];
            for r in 0..dim {
                for q in 0..dim {
                    let av = &a[r * dim + q];
                    // Skip only when *every* lane is zero; a zero lane of a
                    // live plane contributes `cell + 0·b = cell`, which is
                    // bit-identical to the scalar kernel's skip.
                    if V::zero_mask(av) & lanes_mask == lanes_mask {
                        continue;
                    }
                    for c in 0..dim {
                        let bv = &b[q * dim + c];
                        if V::zero_mask(bv) & lanes_mask == lanes_mask {
                            continue;
                        }
                        let cell = &mut out[r * dim + c];
                        *cell = V::packed_mul_add(cell, av, bv);
                    }
                }
            }
            // Every output slot materializes (zeros included), matching the
            // reference kernel's structural-materialization guarantee.
            for (&slot, v) in spec.c.iter().zip(out) {
                let cell = &mut store[slot as usize];
                let cur = cell.take().unwrap_or_else(V::packed_zero);
                *cell = Some(V::packed_add(&cur, &v));
            }
        }
        LinkedOp::Copy { node, dst, src } => {
            let s = read(store, node, src)?;
            store[dst as usize] = Some(s);
        }
        LinkedOp::Zero { dst, .. } => {
            store[dst as usize] = Some(V::packed_zero());
        }
        LinkedOp::Free { slot, .. } => {
            store[slot as usize] = None;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Nat;
    use crate::{Machine, ScheduleBuilder, Transfer};

    fn xfer(src: u32, sk: Key, dst: u32, dk: Key, merge: Merge) -> Transfer {
        Transfer {
            src: NodeId(src),
            src_key: sk,
            dst: NodeId(dst),
            dst_key: dk,
            merge,
        }
    }

    /// A schedule exercising every op kind plus Add/Overwrite transfers.
    fn mixed_schedule(n: usize) -> Schedule {
        let mut b = ScheduleBuilder::new(n);
        // Round 1: ring shift with Add into accumulators.
        b.round(
            (0..n as u32)
                .map(|i| {
                    xfer(
                        i,
                        Key::a(u64::from(i), 0),
                        (i + 1) % n as u32,
                        Key::x(0, u64::from(i)),
                        Merge::Add,
                    )
                })
                .collect(),
        )
        .unwrap();
        // Compute: every node multiplies and accumulates.
        b.compute(
            (0..n as u32)
                .flat_map(|i| {
                    [
                        LocalOp::Mul {
                            node: NodeId(i),
                            dst: Key::prod(u64::from(i), 0),
                            lhs: Key::a(u64::from(i), 0),
                            rhs: Key::b(u64::from(i), 0),
                        },
                        LocalOp::MulAdd {
                            node: NodeId(i),
                            dst: Key::x(1, 1),
                            lhs: Key::a(u64::from(i), 0),
                            rhs: Key::b(u64::from(i), 0),
                        },
                        LocalOp::AddAssign {
                            node: NodeId(i),
                            dst: Key::x(1, 1),
                            src: Key::prod(u64::from(i), 0),
                        },
                        LocalOp::Copy {
                            node: NodeId(i),
                            dst: Key::tmp(7, u64::from(i)),
                            src: Key::x(1, 1),
                        },
                        LocalOp::Zero {
                            node: NodeId(i),
                            dst: Key::tmp(8, 0),
                        },
                        LocalOp::Free {
                            node: NodeId(i),
                            key: Key::prod(u64::from(i), 0),
                        },
                    ]
                })
                .collect(),
        )
        .unwrap();
        // Round 2: overwrite shift back.
        b.round(
            (0..n as u32)
                .map(|i| {
                    xfer(
                        i,
                        Key::tmp(7, u64::from(i)),
                        (i + n as u32 - 1) % n as u32,
                        Key::tmp(9, 0),
                        Merge::Overwrite,
                    )
                })
                .collect(),
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn linking_is_idempotent_on_counts() {
        let s = mixed_schedule(8);
        let l = LinkedSchedule::link(&s).unwrap();
        assert_eq!(l.n(), s.n());
        assert_eq!(l.capacity(), s.capacity());
        assert_eq!(l.rounds(), s.rounds());
        assert_eq!(l.messages(), s.messages());
        assert!(l.total_slots() > 0);
    }

    #[test]
    fn transfers_sorted_by_destination_within_rounds() {
        let s = mixed_schedule(8);
        let l = LinkedSchedule::link(&s).unwrap();
        for step in &l.steps {
            if let LinkedStep::Comm { transfers, .. } = step {
                let ts = &l.transfers[transfers.clone()];
                assert!(ts.windows(2).all(|w| w[0].dst <= w[1].dst));
            }
        }
    }

    #[test]
    fn linked_matches_hash_executor_bit_for_bit() {
        let n = 8;
        let s = mixed_schedule(n);
        let l = LinkedSchedule::link(&s).unwrap();
        let mut reference: Machine<Nat> = Machine::new(n);
        let mut linked: LinkedMachine<Nat> = LinkedMachine::new(&l);
        for i in 0..n as u32 {
            for (key, v) in [
                (Key::a(u64::from(i), 0), u64::from(i) + 1),
                (Key::b(u64::from(i), 0), 2 * u64::from(i) + 1),
            ] {
                reference.load(NodeId(i), key, Nat(v));
                linked.load(NodeId(i), key, Nat(v));
            }
        }
        // A value under a key the schedule never mentions must survive.
        reference.load(NodeId(0), Key::tmp(99, 99), Nat(123));
        linked.load(NodeId(0), Key::tmp(99, 99), Nat(123));

        let s1 = reference.run(&s).unwrap();
        let s2 = linked.run().unwrap();
        assert_eq!(s1, s2, "stats must agree (elapsed excluded from eq)");
        for i in 0..n as u32 {
            assert_eq!(
                reference.snapshot(NodeId(i)),
                linked.snapshot(NodeId(i)),
                "node {i} stores diverge"
            );
        }
    }

    #[test]
    fn block_mul_add_links_and_matches() {
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
        let l = LinkedSchedule::link(&s).unwrap();
        assert_eq!(l.slots_at(NodeId(0)), 12, "3 blocks × dim²");

        let mut reference: Machine<Nat> = Machine::new(1);
        let mut linked: LinkedMachine<Nat> = LinkedMachine::new(&l);
        for (idx, v) in [1u64, 2, 3, 4].into_iter().enumerate() {
            reference.load(NodeId(0), Key::tmp(10, idx as u64), Nat(v));
            linked.load(NodeId(0), Key::tmp(10, idx as u64), Nat(v));
        }
        for (idx, v) in [5u64, 6, 7, 8].into_iter().enumerate() {
            reference.load(NodeId(0), Key::tmp(11, idx as u64), Nat(v));
            linked.load(NodeId(0), Key::tmp(11, idx as u64), Nat(v));
        }
        reference.load(NodeId(0), Key::tmp(12, 0), Nat(1));
        linked.load(NodeId(0), Key::tmp(12, 0), Nat(1));
        reference.run(&s).unwrap();
        linked.run().unwrap();
        assert_eq!(reference.snapshot(NodeId(0)), linked.snapshot(NodeId(0)));
        assert_eq!(linked.get(NodeId(0), Key::tmp(12, 0)), Some(&Nat(20)));
    }

    #[test]
    fn missing_value_error_matches_reference() {
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
        let l = LinkedSchedule::link(&s).unwrap();
        let mut reference: Machine<Nat> = Machine::new(2);
        let mut linked: LinkedMachine<Nat> = LinkedMachine::new(&l);
        let e1 = reference.run(&s).unwrap_err();
        let e2 = linked.run().unwrap_err();
        assert_eq!(e1, e2, "identical MissingValue (node, key, step)");
    }

    #[test]
    fn sub_assign_requires_a_ring() {
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![LocalOp::SubAssign {
            node: NodeId(0),
            dst: Key::x(0, 0),
            src: Key::a(0, 0),
        }])
        .unwrap();
        let s = b.build();
        let l = LinkedSchedule::link(&s).unwrap();
        let mut m: LinkedMachine<Nat> = LinkedMachine::new(&l);
        m.load(NodeId(0), Key::a(0, 0), Nat(3));
        assert!(matches!(m.run(), Err(ModelError::UnsupportedOp { .. })));
    }

    /// `shard_bounds` blocks must be exactly the items its documented
    /// owner formula `i * threads / n` maps to each shard: the batch
    /// fan-out that runs linked machines per worker slices its seed list
    /// by these bounds.
    #[test]
    fn sharding_invariant_holds_for_awkward_sizes() {
        for n in [1usize, 2, 5, 13, 64, 100] {
            for threads in [1usize, 2, 3, 7, 16] {
                let bounds = crate::parallel::shard_bounds(n, threads);
                let holds = (0..n).all(|node| {
                    let s = node * threads / n;
                    bounds[s] <= node && node < bounds[s + 1]
                });
                assert!(holds, "n={n} threads={threads} bounds={bounds:?}");
            }
        }
    }

    #[test]
    fn slot_lookup_roundtrips() {
        let s = mixed_schedule(4);
        let l = LinkedSchedule::link(&s).unwrap();
        for node in 0..4u32 {
            for slot in 0..l.slots_at(NodeId(node)) as u32 {
                let key = l.key_of(NodeId(node), slot);
                assert_eq!(l.slot_of(NodeId(node), key), Some(slot));
            }
        }
        assert_eq!(l.slot_of(NodeId(0), Key::tmp(424242, 0)), None);
    }

    /// One packed run over `mixed_schedule` must leave every lane's store
    /// bit-identical to the scalar run of that lane's values — including a
    /// ragged tail lane that was never loaded (tail members stay zero and
    /// are simply ignored by the batch runner, but they must not perturb
    /// the live lanes).
    #[test]
    fn packed_lanes_match_scalar_runs() {
        const LANES: usize = 4;
        let n = 8;
        let s = mixed_schedule(n);
        let l = LinkedSchedule::link(&s).unwrap();

        let lane_value = |lane: u64, i: u64, which: u64| Nat(1 + lane * 31 + i * 7 + which);
        let live_lanes = LANES - 1; // leave lane 3 as a zero-padded tail

        let mut packed: PackedLinkedMachine<'_, Nat, LANES> = PackedLinkedMachine::new(&l);
        assert_eq!(packed.lanes(), LANES);
        let mut scalars: Vec<LinkedMachine<'_, Nat>> =
            (0..live_lanes).map(|_| LinkedMachine::new(&l)).collect();
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            for i in 0..n as u64 {
                for (key, which) in [(Key::a(i, 0), 0), (Key::b(i, 0), 1)] {
                    let v = lane_value(lane as u64, i, which);
                    packed.load_lane(NodeId(i as u32), key, lane, v);
                    scalar.load(NodeId(i as u32), key, v);
                }
            }
        }

        let packed_stats = packed.run().unwrap();
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            let scalar_stats = scalar.run().unwrap();
            assert_eq!(packed_stats, scalar_stats, "lane {lane} stats");
            for i in 0..n as u32 {
                assert_eq!(
                    packed.snapshot_lane(NodeId(i), lane),
                    scalar.snapshot(NodeId(i)),
                    "lane {lane} node {i} stores diverge"
                );
            }
        }
        // The tail lane ran an all-zero member: every occupied plane reads
        // zero there, and nothing leaked across from the live lanes.
        for i in 0..n as u32 {
            for (_, v) in packed.snapshot_lane(NodeId(i), LANES - 1) {
                assert_eq!(v, Nat(0), "tail lane must stay zero");
            }
        }
    }

    /// Packed `BlockMulAdd` materializes the same side-table outputs per
    /// lane as the scalar kernel, lanes loaded with different blocks.
    #[test]
    fn packed_block_mul_add_matches_scalar_per_lane() {
        const LANES: usize = 4;
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
        let l = LinkedSchedule::link(&s).unwrap();

        let mut packed: PackedLinkedMachine<'_, Nat, LANES> = PackedLinkedMachine::new(&l);
        let mut scalars: Vec<LinkedMachine<'_, Nat>> =
            (0..LANES).map(|_| LinkedMachine::new(&l)).collect();
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            for idx in 0..4u64 {
                // Lane 2 gets an all-zero A block to hit the zero-skip path
                // in some lanes while others stay live.
                let av = if lane == 2 { 0 } else { lane as u64 + idx + 1 };
                let bv = 2 * lane as u64 + idx + 5;
                packed.load_lane(NodeId(0), Key::tmp(10, idx), lane, Nat(av));
                packed.load_lane(NodeId(0), Key::tmp(11, idx), lane, Nat(bv));
                scalar.load(NodeId(0), Key::tmp(10, idx), Nat(av));
                scalar.load(NodeId(0), Key::tmp(11, idx), Nat(bv));
            }
        }
        packed.run().unwrap();
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            scalar.run().unwrap();
            assert_eq!(
                packed.snapshot_lane(NodeId(0), lane),
                scalar.snapshot(NodeId(0)),
                "lane {lane}"
            );
        }
    }

    /// Missing-value and unsupported-op errors surface identically from the
    /// packed executor (same node/key/step payloads as scalar).
    #[test]
    fn packed_error_parity_with_scalar() {
        // MissingValue on an unloaded transfer source.
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
        let l = LinkedSchedule::link(&s).unwrap();
        let mut scalar: LinkedMachine<Nat> = LinkedMachine::new(&l);
        let mut packed: PackedLinkedMachine<'_, Nat, 4> = PackedLinkedMachine::new(&l);
        assert_eq!(scalar.run().unwrap_err(), packed.run().unwrap_err());

        // SubAssign over a plain semiring.
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![LocalOp::SubAssign {
            node: NodeId(0),
            dst: Key::x(0, 0),
            src: Key::a(0, 0),
        }])
        .unwrap();
        let s = b.build();
        let l = LinkedSchedule::link(&s).unwrap();
        let mut packed: PackedLinkedMachine<'_, Nat, 4> = PackedLinkedMachine::new(&l);
        packed.load_lane(NodeId(0), Key::a(0, 0), 0, Nat(3));
        assert!(matches!(
            packed.run(),
            Err(ModelError::UnsupportedOp { .. })
        ));
    }

    /// `reset_values` empties every plane while keeping the layout, so a
    /// packed machine can serve lane-group after lane-group.
    #[test]
    fn packed_reset_values_clears_all_lanes() {
        let n = 4;
        let s = mixed_schedule(n);
        let l = LinkedSchedule::link(&s).unwrap();
        let mut packed: PackedLinkedMachine<'_, Nat, 4> = PackedLinkedMachine::new(&l);
        for lane in 0..4 {
            for i in 0..n as u64 {
                packed.load_lane(NodeId(i as u32), Key::a(i, 0), lane, Nat(lane as u64 + 1));
                packed.load_lane(NodeId(i as u32), Key::b(i, 0), lane, Nat(2));
            }
        }
        packed.run().unwrap();
        packed.reset_values();
        for i in 0..n as u32 {
            for lane in 0..4 {
                assert!(packed.snapshot_lane(NodeId(i), lane).is_empty());
            }
        }
        // And the machine is reusable after the reset.
        for lane in 0..4 {
            for i in 0..n as u64 {
                packed.load_lane(NodeId(i as u32), Key::a(i, 0), lane, Nat(9));
                packed.load_lane(NodeId(i as u32), Key::b(i, 0), lane, Nat(9));
            }
        }
        packed.run().unwrap();
    }

    /// In-flight corruption of one lane trips the per-lane checksum: the
    /// run fails with `Corruption { round }` and the tracer's
    /// `fault.detected.lane` event names the corrupted member.
    #[test]
    fn packed_fault_detection_localizes_lane() {
        struct CorruptRound0;
        impl FaultHook for CorruptRound0 {
            const ENABLED: bool = true;
            fn crash(&mut self, _round: usize) -> Option<u32> {
                None
            }
            fn tamper(&mut self, round: usize, src: u32) -> Tamper {
                if round == 0 && src == 0 {
                    Tamper::Corrupt
                } else {
                    Tamper::None
                }
            }
        }

        struct LaneRecorder(Vec<(String, u64)>);
        impl Tracer for LaneRecorder {
            const ENABLED: bool = true;
            fn span_enter(&mut self, _name: &'static str) {}
            fn span_exit(&mut self, _name: &'static str) {}
            fn counter(&mut self, _name: &'static str, _delta: u64) {}
            fn histogram(&mut self, _name: &'static str, _value: u64) {}
            fn fault(&mut self, what: &'static str, value: u64) {
                self.0.push((what.to_string(), value));
            }
        }

        const LANES: usize = 4;
        let n = 4;
        let s = mixed_schedule(n);
        let l = LinkedSchedule::link(&s).unwrap();
        let mut packed: PackedLinkedMachine<'_, Nat, LANES> = PackedLinkedMachine::new(&l);
        for lane in 0..LANES {
            for i in 0..n as u64 {
                packed.load_lane(NodeId(i as u32), Key::a(i, 0), lane, Nat(5));
                packed.load_lane(NodeId(i as u32), Key::b(i, 0), lane, Nat(6));
            }
        }
        let mut tracer = LaneRecorder(Vec::new());
        let mut stats = ExecutionStats::default();
        let err = packed
            .run_guarded(
                &mut tracer,
                &mut CorruptRound0,
                RunWindow::full(),
                &mut stats,
            )
            .unwrap_err();
        assert_eq!(err, ModelError::Corruption { round: 0 });
        // Round 0 corrupts lane 0 % LANES == 0.
        assert!(tracer
            .0
            .iter()
            .any(|(what, lane)| what == "fault.detected.lane" && *lane == 0));
    }
}
