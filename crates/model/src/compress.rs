//! Dataflow round compression: semantics-preserving schedule pipelining.
//!
//! Algorithms in `lowband-core` compile as sequences of *phases* (route,
//! kick, broadcast, deliver, …), each scheduled tightly on its own but
//! strictly after the previous one. Messages of a later phase that do not
//! depend on the earlier phase's values could travel earlier — phases can
//! *overlap*. Compression performs that pipelining: it list-schedules every
//! event at the earliest round consistent with
//!
//! * **flow dependencies** — a value must be fully written strictly before
//!   a round that sends it (and no later than the compute slot that reads
//!   it);
//! * **anti dependencies** — a write may not overtake a read of the old
//!   value (a read and a write in the *same* round are fine: the machine
//!   reads all payloads before delivering any);
//! * **output dependencies** — writes to the same key keep their order;
//! * the **bandwidth constraint** — per round, each node sends ≤ `capacity`
//!   and receives ≤ `capacity` messages.
//!
//! Timing model: communication round `r ≥ 1` acts at time `2r`; the free
//! compute slot after round `s` acts at time `2s + 1` (slot 0 precedes the
//! first round). Reads act at the start of their time point, writes at the
//! end, which encodes the read-before-write round semantics exactly.
//!
//! ## One pass with the linker
//!
//! Compression and linking share their interning.
//! [`compress_and_link_traced`] runs compile → intern → compress on slot
//! ids → link order:
//!
//! 1. **Intern** the compiled schedule once, in source order
//!    (`LinkedSchedule::intern` — linking without its per-step sorts).
//!    Every `(node, key)` becomes one global slot id, and the source
//!    schedule can be dropped.
//! 2. **Place** every event on those ids: a flat clock vector holds each
//!    slot's last read and write time, a generation-stamped array finds
//!    hazard rounds, and per-node `u64` bitmasks of full rounds make the
//!    first-fit round search a `trailing_zeros` per 64 rounds. Placing a
//!    transfer or op allocates nothing; each records only its round or
//!    compute slot.
//! 3. **Emit** the compressed [`LinkedSchedule`] from those placements
//!    and sort it into link order (`LinkedSchedule::sort_into_link_order`).
//!    Its bytes equal linking the separately compressed schedule.
//! 4. **De-link** it ([`crate::binser::delink`]) into the compressed
//!    source [`Schedule`], which is therefore in link order too.
//!
//! [`compress`] is the same pass for callers holding only a [`Schedule`].
//!
//! Correctness relies only on the machine semantics (it is checked by
//! property tests that compressed and original schedules produce identical
//! stores, and by an oracle test against the original key-addressed
//! compressor); it does *not* assume the semiring is commutative beyond
//! what [`Merge::Add`] already requires.

use lowband_trace::Tracer;

use crate::binser::delink;
use crate::link::{BlockSlots, LinkedStep};
use crate::schedule::Merge;
use crate::{LinkedOp, LinkedSchedule, LinkedTransfer, Schedule};

/// Per-slot dependency clock.
#[derive(Clone, Copy, Default)]
struct KeyClock {
    /// Time of the last scheduled write (0 = initial load / never).
    write: u64,
    /// Time of the last scheduled read.
    read: u64,
}

/// Earliest communication round `r ≥ 1` whose action time `2r` is
/// **strictly after** clock time `t`.
///
/// This is the strict rounding used by flow dependencies (a payload ships
/// only after its producing write completed) and output dependencies
/// (writes to the same key keep their order). `t / 2 + 1 ≥ 1` for every
/// `t`, so no extra clamp is needed.
fn round_strictly_after(t: u64) -> usize {
    (t / 2 + 1) as usize
}

/// Earliest communication round `r ≥ 1` whose action time `2r` is **at or
/// after** clock time `t`.
///
/// This is the non-strict rounding used by anti dependencies: a write may
/// land in the *same* round as the last read of the old value, because
/// within a round the machine reads all payloads before delivering any.
/// The two roundings differ exactly at even `t = 2s`: a *read* at round
/// `s` admits a write in round `s` (this function), while a *write* at
/// round `s` pushes dependents to round `s + 1`
/// ([`round_strictly_after`]).
fn round_at_or_after(t: u64) -> usize {
    t.div_ceil(2).max(1) as usize
}

/// Earliest compute slot `s ≥ 0` whose action time `2s + 1` is at or after
/// clock time `t` (slot 0 precedes the first round; slot times are odd, so
/// "at or after" and "strictly after an even write time" coincide).
fn slot_at_or_after(t: u64) -> usize {
    t.saturating_sub(1).div_ceil(2) as usize
}

/// Call `f(clock, is_write)` for every slot `op` reads or writes, where
/// `clock` is the slot's global id (`base[node] + slot`). A slot an op both
/// reads and writes (an accumulator) is visited once each way.
fn for_each_access(
    op: &LinkedOp,
    base: &[usize],
    blocks: &[BlockSlots],
    mut f: impl FnMut(usize, bool),
) {
    let at = |slot: u32| base[op.node() as usize] + slot as usize;
    match *op {
        LinkedOp::Mul { dst, lhs, rhs, .. } => {
            f(at(lhs), false);
            f(at(rhs), false);
            f(at(dst), true);
        }
        LinkedOp::MulAdd { dst, lhs, rhs, .. } => {
            f(at(lhs), false);
            f(at(rhs), false);
            f(at(dst), false);
            f(at(dst), true);
        }
        LinkedOp::AddAssign { dst, src, .. } | LinkedOp::SubAssign { dst, src, .. } => {
            f(at(src), false);
            f(at(dst), false);
            f(at(dst), true);
        }
        LinkedOp::BlockMulAdd { block, .. } => {
            let b = &blocks[block as usize];
            for ((&a, &b), &c) in b.a.iter().zip(&b.b).zip(&b.c) {
                f(at(a), false);
                f(at(b), false);
                f(at(c), false);
                f(at(c), true);
            }
        }
        LinkedOp::Copy { dst, src, .. } => {
            f(at(src), false);
            f(at(dst), true);
        }
        LinkedOp::Zero { dst, .. } => f(at(dst), true),
        LinkedOp::Free { slot, .. } => f(at(slot), true),
    }
}

/// List-scheduling state over global slot ids. Rounds are 1-based, as in
/// the timing model; round `r`'s per-node tables sit at row `r − 1`.
struct Placer {
    n: usize,
    capacity: u32,
    /// First global slot id of each node: node `v`'s slot `s` is clock
    /// `base[v] + s`.
    base: Vec<usize>,
    /// Flat clock storage, indexed by global slot id.
    clocks: Vec<KeyClock>,
    /// Per global slot: the generation of the last round that writes it —
    /// the hazard check's set, cleared by bumping `generation`.
    written_in: Vec<u32>,
    generation: u32,
    /// Rounds opened so far.
    rounds: usize,
    /// Send/receive counts, flat-indexed `(r − 1)·n + node`.
    send_used: Vec<u32>,
    recv_used: Vec<u32>,
    /// Full-round bitmasks: bit `(r − 1) mod 64` of word
    /// `⌊(r − 1)/64⌋·n + node` is set once `node` has no send (receive)
    /// capacity left in round `r`.
    send_full: Vec<u64>,
    recv_full: Vec<u64>,
    /// Per-node demand of the hazard round being placed atomically; all
    /// zero between rounds.
    demand_send: Vec<u32>,
    demand_recv: Vec<u32>,
}

impl Placer {
    fn new(source: &LinkedSchedule) -> Placer {
        let n = source.n();
        let mut base = Vec::with_capacity(n);
        let mut slots = 0usize;
        for keys in &source.node_keys {
            base.push(slots);
            slots += keys.len();
        }
        Placer {
            n,
            capacity: source.capacity() as u32,
            base,
            clocks: vec![KeyClock::default(); slots],
            written_in: vec![0; slots],
            generation: 0,
            rounds: 0,
            send_used: Vec::new(),
            recv_used: Vec::new(),
            send_full: Vec::new(),
            recv_full: Vec::new(),
            demand_send: vec![0; n],
            demand_recv: vec![0; n],
        }
    }

    fn clock(&self, node: u32, slot: u32) -> usize {
        self.base[node as usize] + slot as usize
    }

    /// Open rounds up to `r` (fresh rounds are empty).
    fn open(&mut self, r: usize) {
        while self.rounds < r {
            if self.rounds.is_multiple_of(64) {
                self.send_full.resize(self.send_full.len() + self.n, 0);
                self.recv_full.resize(self.recv_full.len() + self.n, 0);
            }
            self.rounds += 1;
            self.send_used.resize(self.rounds * self.n, 0);
            self.recv_used.resize(self.rounds * self.n, 0);
        }
    }

    /// First round `≥ r` in which `src` can still send and `dst` can
    /// still receive: one bitmask word per 64 rounds. Rounds not yet
    /// opened have clear bits, so the search ends at the first fresh
    /// round at the latest.
    fn first_fit(&self, r: usize, src: usize, dst: usize) -> usize {
        let n = self.n;
        let words = self.send_full.len() / n;
        let mut w = (r - 1) / 64;
        let mut from = !0u64 << ((r - 1) % 64);
        while w < words {
            let free = !(self.send_full[w * n + src] | self.recv_full[w * n + dst]) & from;
            if free != 0 {
                return 64 * w + free.trailing_zeros() as usize + 1;
            }
            w += 1;
            from = !0;
        }
        r.max(64 * words + 1)
    }

    /// Charge one send of `src` and one receive of `dst` to round `r`.
    fn take(&mut self, r: usize, src: usize, dst: usize) {
        let row = (r - 1) * self.n;
        let (word, bit) = ((r - 1) / 64 * self.n, 1u64 << ((r - 1) % 64));
        self.send_used[row + src] += 1;
        if self.send_used[row + src] == self.capacity {
            self.send_full[word + src] |= bit;
        }
        self.recv_used[row + dst] += 1;
        if self.recv_used[row + dst] == self.capacity {
            self.recv_full[word + dst] |= bit;
        }
    }

    /// Earliest round `t`'s dependencies admit.
    fn earliest(&self, t: &LinkedTransfer) -> usize {
        let src = self.clocks[self.clock(t.src, t.src_slot)];
        let dst = self.clocks[self.clock(t.dst, t.dst_slot)];
        // Flow: source value fully written strictly before the round fires.
        round_strictly_after(src.write)
            // Anti dependency: a write may not overtake a read of the old
            // value (ties are fine — within a round all reads precede all
            // writes).
            .max(round_at_or_after(dst.read))
            // Output dependency: strictly after any earlier write to the
            // same key (two same-round writes have no defined order once
            // capacity exceeds 1).
            .max(round_strictly_after(dst.write))
    }

    /// Advance `t`'s clocks to round `r`.
    fn touch(&mut self, t: &LinkedTransfer, r: usize) {
        let time = 2 * r as u64;
        let src = self.clock(t.src, t.src_slot);
        let dst = self.clock(t.dst, t.dst_slot);
        let sc = &mut self.clocks[src];
        sc.read = sc.read.max(time);
        let dc = &mut self.clocks[dst];
        dc.write = dc.write.max(time);
        if t.merge == Merge::Add {
            // An Add also "reads" the accumulator.
            dc.read = dc.read.max(time);
        }
    }

    /// Whether round `r` has room for the whole hazard round whose
    /// per-node demand is staged in `demand_send`/`demand_recv`.
    fn fits(&self, r: usize, transfers: &[LinkedTransfer]) -> bool {
        let row = (r - 1) * self.n;
        transfers.iter().all(|t| {
            let (src, dst) = (t.src as usize, t.dst as usize);
            self.send_used[row + src] + self.demand_send[src] <= self.capacity
                && self.recv_used[row + dst] + self.demand_recv[dst] <= self.capacity
        })
    }

    /// Place one source communication round, writing each transfer's
    /// round into `placed`.
    ///
    /// Within a round the machine reads **all** payloads before delivering
    /// any, so a transfer may read a key that another transfer of the same
    /// round overwrites — it sees the *old* value regardless of list order.
    /// Per-transfer list scheduling would serialize such a pair and flip the
    /// read to the new value. When a round contains such a hazard (some
    /// slot is both a source and a destination within the round) we
    /// therefore place the whole round atomically in one new round, which
    /// reproduces the read-barrier semantics exactly. Hazard-free rounds
    /// (the overwhelmingly common case for compiled phases) still pipeline
    /// transfer by transfer.
    fn place_round(&mut self, transfers: &[LinkedTransfer], placed: &mut [u32]) {
        self.generation += 1;
        for t in transfers {
            let dst = self.clock(t.dst, t.dst_slot);
            self.written_in[dst] = self.generation;
        }
        let hazard = transfers
            .iter()
            .any(|t| self.written_in[self.clock(t.src, t.src_slot)] == self.generation);
        if !hazard {
            for (t, at) in transfers.iter().zip(placed) {
                let r = self.first_fit(self.earliest(t), t.src as usize, t.dst as usize);
                self.open(r);
                self.take(r, t.src as usize, t.dst as usize);
                self.touch(t, r);
                *at = (r - 1) as u32;
            }
            return;
        }

        // Atomic placement: earliest round satisfying every transfer's
        // dependencies and with simultaneous send/receive capacity for all
        // of them. A fresh round always fits (the source round was valid),
        // so the search terminates.
        let mut r = transfers
            .iter()
            .map(|t| self.earliest(t))
            .fold(1, usize::max);
        for t in transfers {
            self.demand_send[t.src as usize] += 1;
            self.demand_recv[t.dst as usize] += 1;
        }
        while r <= self.rounds && !self.fits(r, transfers) {
            r += 1;
        }
        for t in transfers {
            self.demand_send[t.src as usize] = 0;
            self.demand_recv[t.dst as usize] = 0;
        }
        self.open(r);
        for t in transfers {
            self.take(r, t.src as usize, t.dst as usize);
        }
        // Clock updates after all placements: reads and writes of the round
        // share the same time point, exactly like the machine's semantics.
        for t in transfers {
            self.touch(t, r);
        }
        placed.fill((r - 1) as u32);
    }

    /// Place one local op in the earliest compute slot its clocks admit
    /// and return the slot. Slot `s` acts at time `2s + 1`: inputs must be
    /// written, and the written slots read and written, by then.
    fn place_op(&mut self, op: &LinkedOp, blocks: &[BlockSlots]) -> u32 {
        let mut need = 0u64;
        for_each_access(op, &self.base, blocks, |id, write| {
            let c = self.clocks[id];
            need = need.max(if write { c.read.max(c.write) } else { c.write });
        });
        let s = slot_at_or_after(need);
        let time = 2 * s as u64 + 1;
        let clocks = &mut self.clocks;
        for_each_access(op, &self.base, blocks, |id, write| {
            let c = &mut clocks[id];
            if write {
                c.write = c.write.max(time);
            } else {
                c.read = c.read.max(time);
            }
        });
        s as u32
    }
}

/// Stable counting sort of `0..keys.len()` by key: group `g` is
/// `order[starts[g]..starts[g + 1]]`, in index order.
fn group_by(keys: &[u32], groups: usize) -> (Vec<u32>, Vec<usize>) {
    let mut starts = vec![0usize; groups + 1];
    for &k in keys {
        starts[k as usize + 1] += 1;
    }
    for g in 1..=groups {
        starts[g] += starts[g - 1];
    }
    let mut next = starts.clone();
    let mut order = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        order[next[k as usize]] = i as u32;
        next[k as usize] += 1;
    }
    (order, starts)
}

/// Compress an interned schedule (events in source order, as
/// `LinkedSchedule::intern` leaves them) and return the compressed
/// linked schedule in link order.
///
/// Each compressed round holds its transfers in source order, and each
/// compute slot its ops, so placements are recorded as one round or slot
/// number per event and emitted by a counting sort. Emission walks slot 0,
/// round 1, slot 1, … — the compressed schedule's step order, skipping
/// empty compute slots — and gives each `BlockMulAdd` its block in that
/// order, exactly as linking the compressed schedule would.
fn place_and_emit(mut source: LinkedSchedule) -> LinkedSchedule {
    let mut placer = Placer::new(&source);
    let mut round_of = vec![0u32; source.transfers.len()];
    let mut slot_of = vec![0u32; source.ops.len()];
    for step in &source.steps {
        match step {
            LinkedStep::Comm { transfers } => placer.place_round(
                &source.transfers[transfers.clone()],
                &mut round_of[transfers.clone()],
            ),
            LinkedStep::Compute { ops } => {
                for (op, at) in source.ops[ops.clone()]
                    .iter()
                    .zip(&mut slot_of[ops.clone()])
                {
                    *at = placer.place_op(op, &source.blocks);
                }
            }
        }
    }
    let rounds = placer.rounds;
    drop(placer);

    let slots = slot_of
        .iter()
        .map(|&s| s as usize + 1)
        .fold(rounds + 1, usize::max);
    let (by_round, round_starts) = group_by(&round_of, rounds);
    let (by_slot, slot_starts) = group_by(&slot_of, slots);
    drop((round_of, slot_of));
    let mut out = LinkedSchedule {
        n: source.n,
        capacity: source.capacity,
        rounds,
        messages: source.messages,
        node_keys: std::mem::take(&mut source.node_keys),
        steps: Vec::with_capacity(2 * rounds + 1),
        transfers: Vec::with_capacity(source.transfers.len()),
        ops: Vec::with_capacity(source.ops.len()),
        blocks: Vec::with_capacity(source.blocks.len()),
    };
    for s in 0..slots {
        let ops = &by_slot[slot_starts[s]..slot_starts[s + 1]];
        if !ops.is_empty() {
            let start = out.ops.len();
            for &i in ops {
                let mut op = source.ops[i as usize];
                if let LinkedOp::BlockMulAdd { block, .. } = &mut op {
                    // Interning gives every BlockMulAdd a block of its own.
                    out.blocks
                        .push(std::mem::take(&mut source.blocks[*block as usize]));
                    *block = (out.blocks.len() - 1) as u32;
                }
                out.ops.push(op);
            }
            out.steps.push(LinkedStep::Compute {
                ops: start..out.ops.len(),
            });
        }
        if s < rounds {
            let start = out.transfers.len();
            out.transfers.extend(
                by_round[round_starts[s]..round_starts[s + 1]]
                    .iter()
                    .map(|&i| source.transfers[i as usize]),
            );
            out.steps.push(LinkedStep::Comm {
                transfers: start..out.transfers.len(),
            });
        }
    }
    drop(source);
    out.sort_into_link_order();
    out
}

/// The fused compress-and-link pass: intern `schedule` once (dropping it
/// right after), compress on slot ids, emit the linked schedule in link
/// order, and de-link it into the compressed source schedule. Returns
/// `(compressed schedule, its linked form)`; the schedule equals
/// [`compress`]'s, and the linked form equals [`crate::link()`] of it.
///
/// The tracer sees the `"link"` span around interning and the
/// `"compress"` span around placement, emission, the link-order sort and
/// the de-link, plus the `compress.rounds_in`/`compress.rounds_out`/
/// `compress.messages` and `link.*` counters. Like [`crate::link()`] it
/// cannot fail: the builder checked `schedule` against the model.
pub fn compress_and_link_traced<T: Tracer>(
    schedule: Schedule,
    tracer: &mut T,
) -> (Schedule, LinkedSchedule) {
    tracer.span_enter("link");
    let source = LinkedSchedule::intern(&schedule);
    tracer.span_exit("link");
    let rounds_in = schedule.rounds();
    drop(schedule);
    tracer.span_enter("compress");
    let linked = place_and_emit(source);
    let compressed = delink(&linked, 0).expect("an interned schedule de-links");
    tracer.counter("compress.rounds_in", rounds_in as u64);
    tracer.counter("compress.rounds_out", linked.rounds() as u64);
    tracer.counter("compress.messages", linked.messages() as u64);
    tracer.span_exit("compress");
    linked.count_into(tracer);
    (compressed, linked)
}

/// Pipeline a schedule: produce an equivalent schedule (identical final
/// machine state for every input) with at most — and usually far fewer
/// than — the original number of rounds, every step in link order.
pub fn compress(schedule: &Schedule) -> Schedule {
    delink(&place_and_emit(LinkedSchedule::intern(schedule)), 0)
        .expect("an interned schedule de-links")
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Nat;
    use crate::schedule::LocalOp;
    use crate::{Key, Machine, NodeId, ScheduleBuilder, Transfer};

    fn t(src: u32, sk: Key, dst: u32, dk: Key, merge: Merge) -> Transfer {
        Transfer {
            src: NodeId(src),
            src_key: sk,
            dst: NodeId(dst),
            dst_key: dk,
            merge,
        }
    }

    /// Run both schedules from the same initial loads and compare final
    /// stores on the given keys.
    fn equivalent(
        n: usize,
        loads: &[(u32, Key, u64)],
        original: &Schedule,
        observe: &[(u32, Key)],
    ) {
        let compressed = compress(original);
        assert!(compressed.rounds() <= original.rounds());
        assert_eq!(compressed.messages(), original.messages());
        let mut m1: Machine<Nat> = Machine::new(n);
        let mut m2: Machine<Nat> = Machine::new(n);
        for &(node, key, v) in loads {
            m1.load(NodeId(node), key, Nat(v));
            m2.load(NodeId(node), key, Nat(v));
        }
        m1.run(original).unwrap();
        m2.run(&compressed).unwrap();
        for &(node, key) in observe {
            assert_eq!(
                m1.get(NodeId(node), key),
                m2.get(NodeId(node), key),
                "divergence at node {node} key {key:?}"
            );
        }
    }

    #[test]
    fn independent_rounds_merge_into_one() {
        // Two sequential rounds with disjoint nodes compress to one round.
        let mut b = ScheduleBuilder::new(4);
        b.round(vec![t(0, Key::a(0, 0), 1, Key::a(0, 0), Merge::Overwrite)])
            .unwrap();
        b.round(vec![t(2, Key::a(1, 0), 3, Key::a(1, 0), Merge::Overwrite)])
            .unwrap();
        let s = b.build();
        let c = compress(&s);
        assert_eq!(c.rounds(), 1);
        equivalent(
            4,
            &[(0, Key::a(0, 0), 5), (2, Key::a(1, 0), 7)],
            &s,
            &[(1, Key::a(0, 0)), (3, Key::a(1, 0))],
        );
    }

    #[test]
    fn flow_dependencies_are_respected() {
        // Relay 0 → 1 → 2: cannot compress below 2 rounds.
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![t(0, Key::a(0, 0), 1, Key::a(0, 0), Merge::Overwrite)])
            .unwrap();
        b.round(vec![t(1, Key::a(0, 0), 2, Key::a(0, 0), Merge::Overwrite)])
            .unwrap();
        let s = b.build();
        let c = compress(&s);
        assert_eq!(c.rounds(), 2, "a relay needs both hops");
        equivalent(3, &[(0, Key::a(0, 0), 9)], &s, &[(2, Key::a(0, 0))]);
    }

    #[test]
    fn anti_dependency_read_then_overwrite() {
        // Round 1: node 0 sends K to node 1. Round 2: node 2 overwrites K
        // at node 0. The overwrite may move into round 1 (read-before-write
        // within a round), but not earlier, and node 1 must still see the
        // OLD value.
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![t(
            0,
            Key::tmp(0, 0),
            1,
            Key::tmp(0, 1),
            Merge::Overwrite,
        )])
        .unwrap();
        b.round(vec![t(
            2,
            Key::tmp(0, 2),
            0,
            Key::tmp(0, 0),
            Merge::Overwrite,
        )])
        .unwrap();
        let s = b.build();
        equivalent(
            3,
            &[(0, Key::tmp(0, 0), 11), (2, Key::tmp(0, 2), 99)],
            &s,
            &[(1, Key::tmp(0, 1)), (0, Key::tmp(0, 0))],
        );
    }

    #[test]
    fn compute_dependencies_are_respected() {
        // Round 1 delivers a factor; the product must compute after it and
        // the result ships afterwards.
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![t(0, Key::a(0, 0), 1, Key::a(0, 0), Merge::Overwrite)])
            .unwrap();
        b.compute(vec![LocalOp::MulAdd {
            node: NodeId(1),
            dst: Key::x(0, 0),
            lhs: Key::a(0, 0),
            rhs: Key::b(0, 0),
        }])
        .unwrap();
        b.round(vec![t(1, Key::x(0, 0), 2, Key::x(0, 0), Merge::Overwrite)])
            .unwrap();
        let s = b.build();
        let c = compress(&s);
        assert_eq!(c.rounds(), 2);
        equivalent(
            3,
            &[(0, Key::a(0, 0), 6), (1, Key::b(0, 0), 7)],
            &s,
            &[(2, Key::x(0, 0))],
        );
    }

    #[test]
    fn adds_into_one_accumulator_serialize_on_bandwidth() {
        // Three adds into node 0 from distinct sources: receive capacity
        // forces 3 rounds, compression cannot cheat.
        let mut b = ScheduleBuilder::new(4);
        for i in 1..4u32 {
            b.round(vec![t(i, Key::tmp(0, 0), 0, Key::x(0, 0), Merge::Add)])
                .unwrap();
        }
        let s = b.build();
        let c = compress(&s);
        assert_eq!(c.rounds(), 3);
        equivalent(
            4,
            &[
                (1, Key::tmp(0, 0), 1),
                (2, Key::tmp(0, 0), 2),
                (3, Key::tmp(0, 0), 4),
            ],
            &s,
            &[(0, Key::x(0, 0))],
        );
    }

    #[test]
    fn trailing_compute_is_preserved() {
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![t(0, Key::a(0, 0), 1, Key::a(0, 0), Merge::Overwrite)])
            .unwrap();
        b.compute(vec![LocalOp::Copy {
            node: NodeId(1),
            dst: Key::tmp(9, 9),
            src: Key::a(0, 0),
        }])
        .unwrap();
        let s = b.build();
        equivalent(2, &[(0, Key::a(0, 0), 3)], &s, &[(1, Key::tmp(9, 9))]);
    }

    #[test]
    fn capacity_is_preserved_and_exploited() {
        // Capacity-2 schedule with two sequential rounds of sends from the
        // same source: compression packs them into one round (2 slots).
        let mut b = ScheduleBuilder::with_capacity(3, 2);
        b.round(vec![t(0, Key::a(0, 0), 1, Key::a(0, 0), Merge::Overwrite)])
            .unwrap();
        b.round(vec![t(0, Key::a(0, 1), 2, Key::a(0, 1), Merge::Overwrite)])
            .unwrap();
        let s = b.build();
        let c = compress(&s);
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn same_round_read_of_overwritten_key_sees_old_value() {
        // One round does two things at once: node 0 overwrites K at node 1,
        // while node 1 forwards its OLD value of K to node 2 (within a
        // round, all reads precede all writes). Naive per-transfer
        // pipelining serializes the pair and forwards the new value; the
        // atomic-round fallback must keep the barrier semantics.
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![
            t(0, Key::a(0, 0), 1, Key::tmp(0, 0), Merge::Overwrite),
            t(1, Key::tmp(0, 0), 2, Key::tmp(0, 1), Merge::Overwrite),
        ])
        .unwrap();
        let s = b.build();
        equivalent(
            3,
            &[(0, Key::a(0, 0), 9), (1, Key::tmp(0, 0), 5)],
            &s,
            &[(1, Key::tmp(0, 0)), (2, Key::tmp(0, 1))],
        );
    }

    #[test]
    fn swap_round_stays_simultaneous() {
        // Two nodes exchange values in one round — a cyclic hazard that can
        // only execute with simultaneous delivery.
        let mut b = ScheduleBuilder::new(2);
        b.round(vec![
            t(0, Key::tmp(0, 0), 1, Key::tmp(0, 0), Merge::Overwrite),
            t(1, Key::tmp(0, 0), 0, Key::tmp(0, 0), Merge::Overwrite),
        ])
        .unwrap();
        let s = b.build();
        equivalent(
            2,
            &[(0, Key::tmp(0, 0), 1), (1, Key::tmp(0, 0), 2)],
            &s,
            &[(0, Key::tmp(0, 0)), (1, Key::tmp(0, 0))],
        );
    }

    #[test]
    fn empty_schedule_compresses_to_empty() {
        let s = ScheduleBuilder::new(2).build();
        let c = compress(&s);
        assert_eq!(c.rounds(), 0);
        assert_eq!(c.messages(), 0);
    }

    /// Boundary values for the two round roundings at clock times 0, 1, 2.
    /// The strict form (flow/output deps) and the non-strict form (anti
    /// deps) agree at odd times and on the never-touched clock `t = 0`, and
    /// differ exactly at positive even times — `t = 2` (a round-1 event)
    /// admits round 1 for a write-after-read but forces round 2 for a
    /// read-after-write.
    #[test]
    fn rounding_helpers_boundary_values() {
        // t = 0: clock never touched — both admit the first round.
        assert_eq!(round_strictly_after(0), 1);
        assert_eq!(round_at_or_after(0), 1);
        // t = 1: compute slot 0 (before round 1) — both admit round 1.
        assert_eq!(round_strictly_after(1), 1);
        assert_eq!(round_at_or_after(1), 1);
        // t = 2: round 1 — the formulas disagree by design.
        assert_eq!(round_strictly_after(2), 2);
        assert_eq!(round_at_or_after(2), 1);
        // Compute slots act at odd times 2s + 1.
        assert_eq!(slot_at_or_after(0), 0);
        assert_eq!(slot_at_or_after(1), 0);
        assert_eq!(slot_at_or_after(2), 1, "even write time 2 forces slot 1");
    }

    /// Schedule-level pin of the `t = 2` boundary: an anti dependency on a
    /// round-1 read may share round 1, while a flow dependency on a round-1
    /// write must wait for round 2.
    #[test]
    fn round_one_clock_boundary_behaviors() {
        // Anti: round 1 reads K at node 0; the later overwrite of K joins
        // round 1 (read-before-write within a round).
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![t(
            0,
            Key::tmp(0, 0),
            1,
            Key::tmp(0, 1),
            Merge::Overwrite,
        )])
        .unwrap();
        b.round(vec![t(
            2,
            Key::tmp(0, 2),
            0,
            Key::tmp(0, 0),
            Merge::Overwrite,
        )])
        .unwrap();
        let s = b.build();
        assert_eq!(compress(&s).rounds(), 1, "anti dep shares the round");
        equivalent(
            3,
            &[(0, Key::tmp(0, 0), 4), (2, Key::tmp(0, 2), 8)],
            &s,
            &[(1, Key::tmp(0, 1)), (0, Key::tmp(0, 0))],
        );

        // Flow: round 1 writes K at node 1; forwarding K must wait.
        let mut b = ScheduleBuilder::new(3);
        b.round(vec![t(
            0,
            Key::tmp(0, 0),
            1,
            Key::tmp(0, 1),
            Merge::Overwrite,
        )])
        .unwrap();
        b.round(vec![t(
            1,
            Key::tmp(0, 1),
            2,
            Key::tmp(0, 2),
            Merge::Overwrite,
        )])
        .unwrap();
        let s = b.build();
        assert_eq!(compress(&s).rounds(), 2, "flow dep forces the next round");
        equivalent(3, &[(0, Key::tmp(0, 0), 4)], &s, &[(2, Key::tmp(0, 2))]);

        // Output: two overwrites of the same key keep their order even
        // with capacity to spare.
        let mut b = ScheduleBuilder::with_capacity(3, 2);
        b.round(vec![t(
            0,
            Key::tmp(0, 0),
            2,
            Key::tmp(0, 9),
            Merge::Overwrite,
        )])
        .unwrap();
        b.round(vec![t(
            1,
            Key::tmp(0, 1),
            2,
            Key::tmp(0, 9),
            Merge::Overwrite,
        )])
        .unwrap();
        let s = b.build();
        assert_eq!(compress(&s).rounds(), 2, "output dep keeps write order");
        equivalent(
            3,
            &[(0, Key::tmp(0, 0), 4), (1, Key::tmp(0, 1), 6)],
            &s,
            &[(2, Key::tmp(0, 9))],
        );
    }

    /// A small seeded generator (mix64 over a counter).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            lowband_faults::mix64(self.0) % bound
        }
    }

    /// A random valid schedule over a tiny key pool, so that hazard
    /// rounds, `Merge::Add` chains and write-after-read pairs are common:
    /// rounds (some empty) fill each node's capacity at random, compute
    /// blocks mix every op kind, `BlockMulAdd` included, and a compute
    /// block may trail the last round.
    fn random_schedule(seed: u64) -> Schedule {
        let mut rng = Rng(seed);
        let n = 2 + rng.below(7) as usize;
        let capacity = 1 + rng.below(3) as usize;
        let pool = |rng: &mut Rng| match rng.below(3) {
            0 => Key::a(0, rng.below(3)),
            1 => Key::tmp(1, rng.below(4)),
            _ => Key::x(0, rng.below(2)),
        };
        let mut b = ScheduleBuilder::with_capacity(n, capacity);
        for _ in 0..rng.below(48) {
            if rng.below(3) > 0 {
                let (mut sends, mut recvs) = (vec![0; n], vec![0; n]);
                let mut round = Vec::new();
                for _ in 0..rng.below((n * capacity) as u64 + 1) {
                    let (src, dst) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
                    if sends[src] == capacity || recvs[dst] == capacity {
                        continue;
                    }
                    sends[src] += 1;
                    recvs[dst] += 1;
                    let merge = if rng.below(3) == 0 {
                        Merge::Add
                    } else {
                        Merge::Overwrite
                    };
                    round.push(t(
                        src as u32,
                        pool(&mut rng),
                        dst as u32,
                        pool(&mut rng),
                        merge,
                    ));
                }
                b.round(round).unwrap();
            } else {
                let mut ops = Vec::new();
                for _ in 0..1 + rng.below(6) {
                    let node = NodeId(rng.below(n as u64) as u32);
                    let (dst, lhs, rhs) = (pool(&mut rng), pool(&mut rng), pool(&mut rng));
                    ops.push(match rng.below(8) {
                        0 => LocalOp::Mul {
                            node,
                            dst,
                            lhs,
                            rhs,
                        },
                        1 => LocalOp::MulAdd {
                            node,
                            dst,
                            lhs,
                            rhs,
                        },
                        2 => LocalOp::AddAssign {
                            node,
                            dst,
                            src: lhs,
                        },
                        3 => LocalOp::SubAssign {
                            node,
                            dst,
                            src: lhs,
                        },
                        4 => LocalOp::Copy {
                            node,
                            dst,
                            src: lhs,
                        },
                        5 => LocalOp::Zero { node, dst },
                        6 => LocalOp::Free { node, key: dst },
                        _ => LocalOp::BlockMulAdd {
                            node,
                            dim: 1 + rng.below(3) as u32,
                            a_ns: 20 + rng.below(2),
                            b_ns: 21 + rng.below(2),
                            c_ns: 1 + rng.below(2),
                        },
                    });
                }
                b.compute(ops).unwrap();
            }
        }
        b.build()
    }

    /// Long schedules whose first-fit searches cross bitmask words: node 0
    /// sends `fan` independent values (one round each at capacity 1),
    /// then a relay of `hops` dependent hops runs through node 1, and
    /// later sends from node 0 and an Add chain into node 1 must skip every
    /// full round — well past round 64 and 128 — to find room.
    fn long_schedule(fan: u64, hops: u64, capacity: usize) -> Schedule {
        let n = 4;
        let mut b = ScheduleBuilder::with_capacity(n, capacity);
        for i in 0..fan {
            b.round(vec![t(
                0,
                Key::a(0, i),
                2,
                Key::tmp(5, i),
                Merge::Overwrite,
            )])
            .unwrap();
        }
        for h in 0..hops {
            let (src, dst) = if h % 2 == 0 { (1, 3) } else { (3, 1) };
            b.round(vec![t(
                src,
                Key::tmp(6, h),
                dst,
                Key::tmp(6, h + 1),
                Merge::Overwrite,
            )])
            .unwrap();
        }
        b.round(vec![]).unwrap();
        for i in 0..fan / 2 {
            b.round(vec![
                t(0, Key::a(1, i), 3, Key::tmp(7, i), Merge::Overwrite),
                t(2, Key::tmp(5, i), 1, Key::x(0, 0), Merge::Add),
            ])
            .unwrap();
        }
        b.compute(vec![LocalOp::Copy {
            node: NodeId(1),
            dst: Key::tmp(9, 0),
            src: Key::x(0, 0),
        }])
        .unwrap();
        b.build()
    }

    /// The hand-written schedules above, as the oracle's fixed cases.
    fn fixed_cases() -> Vec<Schedule> {
        let swap = {
            let mut b = ScheduleBuilder::new(2);
            b.round(vec![
                t(0, Key::tmp(0, 0), 1, Key::tmp(0, 0), Merge::Overwrite),
                t(1, Key::tmp(0, 0), 0, Key::tmp(0, 0), Merge::Overwrite),
            ])
            .unwrap();
            b.build()
        };
        let read_of_overwritten = {
            let mut b = ScheduleBuilder::with_capacity(3, 2);
            b.round(vec![t(2, Key::a(0, 0), 0, Key::a(0, 1), Merge::Overwrite)])
                .unwrap();
            b.round(vec![
                t(0, Key::a(0, 0), 1, Key::tmp(0, 0), Merge::Overwrite),
                t(1, Key::tmp(0, 0), 2, Key::tmp(0, 1), Merge::Add),
                t(0, Key::a(0, 1), 2, Key::tmp(0, 2), Merge::Overwrite),
            ])
            .unwrap();
            b.build()
        };
        vec![
            ScheduleBuilder::new(2).build(),
            ScheduleBuilder::with_capacity(3, 2).build(),
            swap,
            read_of_overwritten,
            long_schedule(70, 10, 1),
            long_schedule(140, 140, 1),
            long_schedule(140, 30, 2),
            long_schedule(200, 5, 3),
        ]
    }

    /// The fused pass against the key-addressed reference: its linked
    /// bytes equal linking the reference's output, and its schedule is the
    /// reference's, stable-sorted into link order.
    #[test]
    fn fused_pass_matches_the_reference_compressor() {
        let seeded = (0..400u64).map(random_schedule);
        for (case, s) in fixed_cases().into_iter().chain(seeded).enumerate() {
            let want = reference::compress(&s);
            let mut want_bytes = Vec::new();
            crate::binser::encode_linked(&crate::link(&want), &mut want_bytes);
            let (fused, linked) =
                compress_and_link_traced(s.clone(), &mut lowband_trace::NoopTracer);
            let mut got_bytes = Vec::new();
            crate::binser::encode_linked(&linked, &mut got_bytes);
            assert!(got_bytes == want_bytes, "case {case}: linked bytes differ");
            assert_eq!(
                fused,
                want.into_link_order(),
                "case {case}: schedule differs"
            );
            assert_eq!(compress(&s), fused, "case {case}: compress disagrees");
        }
        // The long cases really cross one and two bitmask words.
        let deep = compress(&long_schedule(140, 140, 1));
        assert!(deep.rounds() > 128, "{} rounds", deep.rounds());
    }
}
