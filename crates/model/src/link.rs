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
//! [`LinkedSchedule`] executes on [`PackedLinkedMachine`] — one value set
//! per run at one lane ([`LinkedMachine`]), up to 64 at once on lane
//! planes — whose per-node store is a flat vector indexed by slot — **zero
//! hashing per event**.
//!
//! Slot ids follow key order: a node's slot `s` holds its `s`-th smallest
//! key. Finding a key's slot (value loading, output extraction) is then a
//! binary search over the node's key run ([`LinkedSchedule::slot_of`]),
//! and a linked schedule carries no key → slot map at all.
//!
//! Linking checks nothing. [`crate::ScheduleBuilder`] holds every round to
//! node ranges and the ≤ `capacity` send/receive constraint as it builds a
//! [`Schedule`], and a `LinkedSchedule` inherits that check, so the
//! runtime loop carries no per-round validation (the reference executor
//! re-checks every round as the oracle).
//!
//! Linking is two passes. `LinkedSchedule::intern` rewrites every event
//! onto slot ids in source order; `LinkedSchedule::sort_into_link_order`
//! then puts every step into *link order*: each round's transfers
//! stable-sorted by destination node, each compute block's ops by node
//! ([`sort_by_node`], the one owner of that order). This groups each
//! node's deliveries together while preserving the relative order of
//! deliveries to the *same* destination — which, combined with the same
//! read-all-then-write-all round semantics as the reference executor,
//! makes the final stores bit-identical between the hash-map and
//! slot-store backends (asserted by tests and by the cross-executor
//! equivalence suite). Compression ([`mod@crate::compress`]) runs between the
//! two passes, on slot ids, so a compressed plan is interned once.

use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

use lowband_faults::{mix64, FaultHook, NoopFaults, Tamper};
use lowband_trace::{NoopTracer, RoundEvent, Tracer};

use crate::schedule::{LocalOp, Merge, Round, Step};
use crate::{ExecutionStats, Key, ModelError, NodeId, PackedSemiring, Schedule};

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
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockSlots {
    pub(crate) dim: u32,
    pub(crate) a: Vec<u32>,
    pub(crate) b: Vec<u32>,
    pub(crate) c: Vec<u32>,
}

/// One step of a linked schedule; ranges index the flat transfer/op arrays.
/// A step's index is its position: linking produces exactly one linked
/// step per source step, so runtime errors name the same step as the
/// reference executor's.
#[derive(Clone, Debug)]
pub(crate) enum LinkedStep {
    Comm { transfers: Range<usize> },
    Compute { ops: Range<usize> },
}

/// One step of a linked schedule in borrowed, slot-addressed form — the
/// public view behind [`LinkedSchedule::step_views`]. The `i`-th view is
/// source step `i` (linking produces exactly one linked step per source
/// step).
#[derive(Clone, Copy, Debug)]
pub enum LinkedStepView<'a> {
    /// A communication round.
    Comm {
        /// The round's transfers, stable-sorted by destination node.
        transfers: &'a [LinkedTransfer],
    },
    /// A block of local ops.
    Compute {
        /// The block's ops, stable-sorted by node.
        ops: &'a [LinkedOp],
    },
}

/// A [`Schedule`] after linking: keys interned to dense per-node slots,
/// events in flat slot-addressed arrays. It fits the model because the
/// builder checked it: [`link`] inherits the check from its source
/// schedule, and a plan file's linked schedule passes it when
/// [`crate::binser::delink`] replays it through the builder.
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
    /// The interning pass of [`link`]: one pass of interning and
    /// rewriting, then one pass renumbering each node's slots into key
    /// order. Every event keeps its source position — one linked step per
    /// source step, transfers and ops in program order — which is the form
    /// compression places from. Nothing here can fail: the builder
    /// checked the schedule's node ranges and capacity.
    pub(crate) fn intern(schedule: &Schedule) -> LinkedSchedule {
        let n = schedule.n();
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
        for step in schedule.steps() {
            match step {
                Step::Comm(Round { transfers }) => {
                    let start = ls.transfers.len();
                    for t in transfers {
                        let (si, di) = (t.src.index(), t.dst.index());
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
                    ls.rounds += 1;
                    ls.messages += transfers.len();
                    ls.steps.push(LinkedStep::Comm {
                        transfers: start..ls.transfers.len(),
                    });
                }
                Step::Compute(ops) => {
                    let start = ls.ops.len();
                    for op in ops {
                        let ni = op.node().index();
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
                    ls.steps.push(LinkedStep::Compute {
                        ops: start..ls.ops.len(),
                    });
                }
            }
        }
        drop(interned);
        ls.renumber_in_key_order();
        ls
    }

    /// Put every step into link order: each round's transfers stable-sorted
    /// by destination (grouping deliveries while keeping same-destination
    /// deliveries in program order — required for bit-identical stores),
    /// each compute block's ops by node (ops on distinct nodes touch
    /// disjoint stores and commute; per-node program order is preserved).
    pub(crate) fn sort_into_link_order(&mut self) {
        for step in &self.steps {
            match step {
                LinkedStep::Comm { transfers } => {
                    sort_by_node(&mut self.transfers[transfers.clone()], |t| t.dst)
                }
                LinkedStep::Compute { ops } => {
                    sort_by_node(&mut self.ops[ops.clone()], LinkedOp::node)
                }
            }
        }
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
            LinkedStep::Comm { transfers } => LinkedStepView::Comm {
                transfers: &self.transfers[transfers.clone()],
            },
            LinkedStep::Compute { ops } => LinkedStepView::Compute {
                ops: &self.ops[ops.clone()],
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

    /// Record the artifact's size as the `link.*` counters.
    pub(crate) fn count_into<T: Tracer>(&self, tracer: &mut T) {
        tracer.counter("link.rounds", self.rounds() as u64);
        tracer.counter("link.transfers", self.messages() as u64);
        tracer.counter("link.ops", self.ops.len() as u64);
        tracer.counter("link.slots", self.total_slots() as u64);
    }

    fn missing(&self, node: u32, slot: u32, step: usize) -> ModelError {
        ModelError::MissingValue {
            node: NodeId(node),
            key: self.node_keys[node as usize][slot as usize],
            step,
        }
    }
}

/// Stable counting sort of `items` by `node_of` — the one owner of link
/// order. [`link`] sorts each round's transfers by destination and each
/// compute block's ops by node with it, [`Schedule::into_link_order`]
/// puts a source schedule into the same order, and `lowband-check`'s
/// linked lint recomputes the order with it.
///
/// Equal nodes keep their relative order, so the result is exactly
/// `items.sort_by_key(node_of)`. An already-sorted slice (a plan's
/// schedule, which is stored in link order) costs one scan and no
/// allocation; otherwise the sort counts over the slice's node span, or
/// falls back to the comparison sort when that span dwarfs the slice.
pub fn sort_by_node<T: Copy>(items: &mut [T], node_of: impl Fn(&T) -> u32) {
    let (mut lo, mut hi, mut sorted) = (u32::MAX, 0u32, true);
    for (i, item) in items.iter().enumerate() {
        let v = node_of(item);
        if i > 0 && v < hi {
            sorted = false;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if sorted {
        return;
    }
    let span = (hi - lo) as usize + 1;
    if span > 4 * items.len() {
        items.sort_by_key(node_of);
        return;
    }
    // `next[v - lo]` is the output position of node `v`'s next item.
    let mut next = vec![0usize; span + 1];
    for item in items.iter() {
        next[(node_of(item) - lo) as usize + 1] += 1;
    }
    for v in 1..span {
        next[v] += next[v - 1];
    }
    let source = items.to_vec();
    for item in source {
        let at = &mut next[(node_of(&item) - lo) as usize];
        items[*at] = item;
        *at += 1;
    }
}

/// Link a schedule: `LinkedSchedule::intern`, then
/// `LinkedSchedule::sort_into_link_order`. Linking cannot fail: every
/// [`Schedule`] already passed [`crate::ScheduleBuilder`]'s model check.
pub fn link(schedule: &Schedule) -> LinkedSchedule {
    let mut ls = LinkedSchedule::intern(schedule);
    ls.sort_into_link_order();
    ls
}

/// [`link`] with an instrumentation sink: wraps the pass in a `"link"`
/// span and records the artifact's size — rounds and transfers in, slot
/// stores and op list out.
pub fn link_traced<T: Tracer>(schedule: &Schedule, tracer: &mut T) -> LinkedSchedule {
    tracer.span_enter("link");
    let ls = link(schedule);
    ls.count_into(tracer);
    tracer.span_exit("link");
    ls
}

/// Slot-store executor for a [`LinkedSchedule`], advancing `LANES`
/// independent value sets per interpretation of the schedule.
///
/// Each node's store is a flat vector indexed by slot id whose cells hold
/// a *lane plane* ([`PackedSemiring::Plane`]): one value per lane. `None`
/// means "key absent", exactly like a missing hash-map entry in
/// [`crate::Machine`]. Values loaded under keys the schedule never
/// mentions land in a per-node side map (they can't affect execution, but
/// snapshots must report them for bit-identical stores). One pass over the
/// linked steps — one decode per transfer and op, no hashing and no
/// constraint check per event — advances every lane, so schedule-decode
/// cost amortizes to `1/LANES` per member and the semiring ops become
/// straight-line plane loops (bit-sliced `u64` ops for two-element
/// algebras: up to 64 members per word).
///
/// Every lane's store evolution is bit-identical to a [`crate::Machine`]
/// run of that lane's values on the source schedule (the packed ≡
/// sequential suite in `tests/batch.rs` asserts this across semirings).
/// Presence is plane-level: a slot is occupied iff *any* lane loaded it,
/// and unloaded lanes of an occupied plane read as
/// [`Semiring::zero`](crate::Semiring::zero). The batch runners always
/// load every lane with value sets over the same supports, so plane
/// presence coincides with each member's own presence; tail lanes of a
/// ragged batch (`K % LANES ≠ 0`) stay zero-padded and are simply not
/// reported.
///
/// At one lane this is [`LinkedMachine`], the executor of single value
/// sets, and only there does it have the key-addressed single-value
/// surface ([`PackedLinkedMachine::load`], [`PackedLinkedMachine::get`],
/// [`PackedLinkedMachine::snapshot`]) and the fault path: a fault hook,
/// round checksums and run windows ([`PackedLinkedMachine::run_guarded`])
/// and checkpoints ([`PackedLinkedMachine::checkpoint`],
/// [`PackedLinkedMachine::restore`]). Wider machines serve fault-free lane
/// batches.
#[derive(Clone, Debug)]
pub struct PackedLinkedMachine<'s, V: PackedSemiring<LANES>, const LANES: usize> {
    schedule: &'s LinkedSchedule,
    slots: Vec<Vec<Option<V::Plane>>>,
    extra: Vec<HashMap<Key, V::Plane>>,
}

/// The executor of one value set: the one-lane [`PackedLinkedMachine`].
/// Supervised requests, fault-injected runs and sequential batch members
/// run here; it is the only executor with run windows and checkpoints.
pub type LinkedMachine<'s, V> = PackedLinkedMachine<'s, V, 1>;

impl<'s, V: PackedSemiring<LANES>, const LANES: usize> PackedLinkedMachine<'s, V, LANES> {
    /// Create an empty machine sized for `schedule`; all planes start
    /// absent. `LANES` must be `1..=64` (a zero mask is one `u64`).
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
    /// comparable against [`crate::Machine::snapshot`] of a run of that
    /// lane's values.
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

    /// Empty every plane and side map **in place**, returning the machine
    /// to its freshly-constructed state while keeping every allocation —
    /// the per-node slot vectors and side-map tables are cleared, not
    /// dropped.
    ///
    /// This is the compile-once/execute-many primitive: a serving loop
    /// streams value sets (or lane groups) through one machine by
    /// alternating `reset_values` → load → run, paying the
    /// structure-dependent allocation cost once per [`LinkedSchedule`]
    /// instead of once per run (see `Instance::reload_linked` in
    /// `lowband-core`).
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

    /// Execute the linked schedule once, advancing all `LANES` lanes.
    /// Each lane's store mutations are bit-identical to
    /// [`crate::Machine::run`] on the source schedule over that lane's
    /// values.
    pub fn run(&mut self) -> Result<ExecutionStats, ModelError> {
        self.run_traced(&mut NoopTracer)
    }

    /// [`PackedLinkedMachine::run`] with an instrumentation sink: one
    /// [`RoundEvent`] per *physical* round (not per lane), a
    /// `run.local_ops` counter per compute step, and per-node send/receive
    /// loads at the end. All payload gathering is guarded by `T::ENABLED`
    /// (a constant), so with [`NoopTracer`] this compiles to exactly
    /// [`PackedLinkedMachine::run`] — the hash-free hot path stays
    /// hash-free and branch-free.
    pub fn run_traced<T: Tracer>(&mut self, tracer: &mut T) -> Result<ExecutionStats, ModelError> {
        let start = Instant::now();
        let mut stats = ExecutionStats::default();
        self.run_window(tracer, &mut NoopFaults, RunWindow::full(), &mut stats)?;
        stats.elapsed = start.elapsed();
        Ok(stats)
    }

    /// The round loop. Every `F::ENABLED` branch folds away under
    /// [`NoopFaults`], the only hook a machine wider than one lane is
    /// given; at one lane a real hook's crash wipes the victim's planes
    /// and side map, a drop skips the plane, a corruption replaces lane 0,
    /// and each payload's checksum term sums `mix64` of every lane's
    /// digest.
    fn run_window<T: Tracer, F: FaultHook>(
        &mut self,
        tracer: &mut T,
        faults: &mut F,
        window: RunWindow,
        stats: &mut ExecutionStats,
    ) -> Result<Option<usize>, ModelError> {
        let schedule = self.schedule;
        let checksum = |plane: &V::Plane| {
            (0..LANES).fold(0u64, |sum, lane| {
                sum.wrapping_add(mix64(V::extract(plane, lane).digest()))
            })
        };
        let mut inbox: Vec<V::Plane> = Vec::new();
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
        for (step, lstep) in schedule.steps.iter().enumerate().skip(window.start_step) {
            match lstep {
                LinkedStep::Comm { transfers } => {
                    // The window budget binds on every run, fault hook or
                    // not: a windowed plain run stops at the boundary and
                    // returns its resume cursor just like a guarded one.
                    if window_rounds == window.max_rounds {
                        if T::ENABLED {
                            tracer.node_loads(&node_sends, &node_recvs);
                        }
                        return Ok(Some(step));
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
                    let (mut sent_sum, mut recv_sum) = (0u64, 0u64);
                    if F::ENABLED {
                        keep.clear();
                    }
                    for (i, t) in ts.iter().enumerate() {
                        let mut plane = self.slots[t.src as usize][t.src_slot as usize]
                            .clone()
                            .ok_or_else(|| schedule.missing(t.src, t.src_slot, step))?;
                        if F::ENABLED {
                            sent_sum = sent_sum.wrapping_add(checksum(&plane));
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
                                    let corrupted = V::extract(&plane, 0).corrupted();
                                    V::insert(&mut plane, 0, corrupted);
                                }
                            }
                            recv_sum = recv_sum.wrapping_add(checksum(&plane));
                            keep.push(i);
                        }
                        inbox.push(plane);
                    }
                    // Write phase: deliver.
                    if F::ENABLED {
                        for (&i, payload) in keep.iter().zip(inbox.drain(..)) {
                            let t = &ts[i];
                            deliver::<V, LANES>(
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
                            deliver::<V, LANES>(
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
                LinkedStep::Compute { ops } => {
                    for op in &schedule.ops[ops.clone()] {
                        let store = &mut self.slots[op.node() as usize];
                        apply_op::<V, LANES>(store, op, schedule, step)?;
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

/// The step range and round budget of one execution window.
#[derive(Clone, Copy, Debug)]
pub struct RunWindow {
    /// First schedule step to execute (0 for a fresh run; a checkpoint's
    /// `next_step` when resuming).
    pub start_step: usize,
    /// Stop *before* the communication step that would begin round
    /// `max_rounds + 1` of this window, returning the resume cursor.
    /// `usize::MAX` runs to completion. The budget binds on **every** run,
    /// with or without a fault hook: a windowed plain run
    /// ([`NoopFaults`]) stops at the boundary and returns `Ok(Some(step))`
    /// exactly like a guarded one.
    pub max_rounds: usize,
}

impl RunWindow {
    /// The whole schedule in one window (no checkpoint boundary).
    pub fn full() -> RunWindow {
        RunWindow {
            start_step: 0,
            max_rounds: usize::MAX,
        }
    }

    /// Resume at `start_step`, stopping after at most `max_rounds` rounds.
    pub fn new(start_step: usize, max_rounds: usize) -> RunWindow {
        RunWindow {
            start_step,
            max_rounds,
        }
    }
}

/// A [`LinkedMachine`]'s state at a step boundary: a copy of its slot
/// vectors and side maps, plus the step cursor and the statistics
/// accumulated so far. It restores onto any machine linked against a
/// schedule with the same per-node slot layout — in practice the one it
/// was taken on, or a fresh machine over the same [`LinkedSchedule`].
#[derive(Clone, Debug)]
pub struct Checkpoint<V: PackedSemiring<1>> {
    next_step: usize,
    stats: ExecutionStats,
    slots: Vec<Vec<Option<V::Plane>>>,
    extra: Vec<HashMap<Key, V::Plane>>,
}

impl<V: PackedSemiring<1>> Checkpoint<V> {
    /// The schedule step execution resumes at: a **source**-schedule step
    /// index, since linking produces exactly one step per source step.
    pub fn next_step(&self) -> usize {
        self.next_step
    }

    /// Statistics accumulated up to the checkpoint.
    pub fn stats(&self) -> ExecutionStats {
        self.stats
    }
}

/// The single-value surface and the fault path exist at one lane only:
/// supervised and fault-injected runs execute one value set at a time.
impl<'s, V: PackedSemiring<1>> PackedLinkedMachine<'s, V, 1> {
    /// Place `value` under `key` at `node` (input loading).
    pub fn load(&mut self, node: NodeId, key: Key, value: V) {
        self.load_lane(node, key, 0, value);
    }

    /// Read the value under `key` at `node`, if present.
    pub fn get(&self, node: NodeId, key: Key) -> Option<V> {
        self.get_lane(node, key, 0)
    }

    /// Read the value under `key` at `node`, or semiring zero if absent.
    pub fn get_or_zero(&self, node: NodeId, key: Key) -> V {
        self.get_or_zero_lane(node, key, 0)
    }

    /// The full key–value store at `node` as a hash map — directly
    /// comparable against [`crate::Machine::snapshot`].
    pub fn snapshot(&self, node: NodeId) -> HashMap<Key, V> {
        self.snapshot_lane(node, 0)
    }

    /// Fault-guarded, windowed variant of [`PackedLinkedMachine::run_traced`]:
    /// executes the schedule steps of `window`, querying `faults` at every
    /// round boundary and message, accumulating into `stats` (pass the
    /// stats of the checkpoint being resumed; the round index handed to
    /// the fault hook is `stats.rounds`, so it stays global across
    /// windows).
    ///
    /// Returns `Ok(None)` when the schedule completed, or `Ok(Some(step))`
    /// when the window's round budget was exhausted — `step` is the resume
    /// cursor to checkpoint, a **source**-schedule step index. On an
    /// injected crash the victim's planes and side map are wiped and the
    /// run aborts with [`ModelError::NodeCrashed`]; a lost/corrupted
    /// message fails the round's payload checksum and aborts with
    /// [`ModelError::Corruption`]. `stats` is valid on every exit path
    /// (errors included), so callers can measure replayed work. Over a
    /// full window, the outcome, fault log, stats and stores equal
    /// [`crate::Machine::run_guarded`]'s under the same fault plan.
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

    /// Copy the slot vectors and side maps into a [`Checkpoint`] that
    /// resumes at `next_step` with the given accumulated `stats`.
    pub fn checkpoint(&self, next_step: usize, stats: ExecutionStats) -> Checkpoint<V> {
        Checkpoint {
            next_step,
            stats,
            slots: self.slots.clone(),
            extra: self.extra.clone(),
        }
    }

    /// Restore every slot and side map from a [`Checkpoint`], reusing this
    /// machine's allocations. A checkpoint taken against another slot
    /// layout is refused before anything is written: a different network
    /// size with [`ModelError::SizeMismatch`], a different slot count at
    /// some node with [`ModelError::LayoutMismatch`].
    pub fn restore(&mut self, ckpt: &Checkpoint<V>) -> Result<(), ModelError> {
        if ckpt.slots.len() != self.slots.len() {
            return Err(ModelError::SizeMismatch {
                expected: ckpt.slots.len(),
                actual: self.slots.len(),
            });
        }
        for (node, (saved, live)) in ckpt.slots.iter().zip(&self.slots).enumerate() {
            if saved.len() != live.len() {
                return Err(ModelError::LayoutMismatch {
                    node: NodeId(node as u32),
                    expected: saved.len(),
                    actual: live.len(),
                });
            }
        }
        self.slots.clone_from(&ckpt.slots);
        self.extra.clone_from(&ckpt.extra);
        Ok(())
    }
}

#[inline]
fn deliver<V: PackedSemiring<LANES>, const LANES: usize>(
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

fn apply_op<V: PackedSemiring<LANES>, const LANES: usize>(
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
        let l = link(&s);
        assert_eq!(l.n(), s.n());
        assert_eq!(l.capacity(), s.capacity());
        assert_eq!(l.rounds(), s.rounds());
        assert_eq!(l.messages(), s.messages());
        assert!(l.total_slots() > 0);
    }

    /// The counting sort is exactly the stable comparison sort: on random
    /// inputs of every shape — sorted, reversed, narrow and wide node
    /// spans (the latter take the comparison fallback), many ties.
    #[test]
    fn sort_by_node_equals_stable_sort_by_key() {
        let mut state = 0x5EED_u64;
        let mut below = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            lowband_faults::mix64(state) % bound
        };
        for case in 0..500 {
            let len = below(80) as usize;
            let span = [1, 2, 7, 64, 1000, u32::MAX as u64][case % 6];
            let base = below(1 << 20) as u32;
            let mut items: Vec<(u32, usize)> = (0..len)
                .map(|i| (base.saturating_add(below(span) as u32), i))
                .collect();
            match case % 5 {
                0 => items.sort_by_key(|&(v, _)| v),
                1 => items.sort_by_key(|&(v, _)| std::cmp::Reverse(v)),
                _ => {}
            }
            let mut want = items.clone();
            want.sort_by_key(|&(v, _)| v);
            sort_by_node(&mut items, |&(v, _)| v);
            assert_eq!(items, want, "case {case}: len {len}, span {span}");
        }
    }

    #[test]
    fn transfers_sorted_by_destination_within_rounds() {
        let s = mixed_schedule(8);
        let l = link(&s);
        for step in &l.steps {
            if let LinkedStep::Comm { transfers } = step {
                let ts = &l.transfers[transfers.clone()];
                assert!(ts.windows(2).all(|w| w[0].dst <= w[1].dst));
            }
        }
    }

    #[test]
    fn linked_matches_hash_executor_bit_for_bit() {
        let n = 8;
        let s = mixed_schedule(n);
        let l = link(&s);
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
        let l = link(&s);
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
        assert_eq!(linked.get(NodeId(0), Key::tmp(12, 0)), Some(Nat(20)));
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
        let l = link(&s);
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
        let l = link(&s);
        let mut m: LinkedMachine<Nat> = LinkedMachine::new(&l);
        m.load(NodeId(0), Key::a(0, 0), Nat(3));
        assert!(matches!(m.run(), Err(ModelError::UnsupportedOp { .. })));
    }

    #[test]
    fn slot_lookup_roundtrips() {
        let s = mixed_schedule(4);
        let l = link(&s);
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
        let l = link(&s);

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
        let l = link(&s);

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
        let l = link(&s);
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
        let l = link(&s);
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
        let l = link(&s);
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

    #[test]
    fn checkpoint_accessors_roundtrip() {
        let s = mixed_schedule(2);
        let l = link(&s);
        let mut m: LinkedMachine<Nat> = LinkedMachine::new(&l);
        m.load(NodeId(0), Key::a(0, 0), Nat(7));
        let stats = ExecutionStats {
            rounds: 3,
            ..Default::default()
        };
        let ckpt = m.checkpoint(5, stats);
        assert_eq!(ckpt.next_step(), 5);
        assert_eq!(ckpt.stats().rounds, 3);
        m.reset_values();
        m.restore(&ckpt).unwrap();
        assert_eq!(m.get(NodeId(0), Key::a(0, 0)), Some(Nat(7)));
    }

    #[test]
    fn full_window_runs_everything() {
        let w = RunWindow::full();
        assert_eq!(w.start_step, 0);
        assert_eq!(w.max_rounds, usize::MAX);
        let w = RunWindow::new(4, 8);
        assert_eq!((w.start_step, w.max_rounds), (4, 8));
    }
}
