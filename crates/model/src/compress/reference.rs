//! The key-addressed compressor the fused pass replaced, kept as the
//! oracle it is tested against: per-node `HashMap` interning, per-round
//! count vectors and a linear first-fit search. Its output holds each
//! round's transfers and each slot's ops in placement order.

use std::collections::HashMap;

use super::{round_at_or_after, round_strictly_after, slot_at_or_after, KeyClock};
use crate::schedule::{LocalOp, Merge, Round, Step};
use crate::{Key, NodeId, Schedule, ScheduleBuilder};

struct Compressor {
    n: usize,
    capacity: u32,
    /// Per-node key interner: `(node, key)` → dense clock slot. This is the
    /// same interning the schedule linker performs — hashing happens once
    /// per key reference here, and every subsequent clock access is a plain
    /// index into the flat `clocks` vector.
    slot_ids: Vec<HashMap<Key, u32>>,
    /// Flat clock storage, indexed by the interned slot id.
    clocks: Vec<KeyClock>,
    /// Per-round send/receive counts, flat-indexed by node (index round − 1).
    send_used: Vec<Vec<u32>>,
    recv_used: Vec<Vec<u32>>,
    /// The new rounds and compute slots being assembled.
    rounds: Vec<Vec<crate::Transfer>>,
    slots: Vec<Vec<LocalOp>>, // slot s runs after round s (slot 0 first)
}

impl Compressor {
    fn new(n: usize, capacity: u32) -> Compressor {
        Compressor {
            n,
            capacity,
            slot_ids: vec![HashMap::new(); n],
            clocks: Vec::new(),
            send_used: Vec::new(),
            recv_used: Vec::new(),
            rounds: Vec::new(),
            slots: vec![Vec::new()],
        }
    }

    /// Intern `(node, key)` into its dense clock slot (allocating a fresh
    /// zeroed clock on first sight). The single hash lookup per event lives
    /// here.
    fn slot(&mut self, node: NodeId, key: Key) -> usize {
        let clocks = &mut self.clocks;
        *self.slot_ids[node.index()].entry(key).or_insert_with(|| {
            let id = clocks.len() as u32;
            clocks.push(KeyClock::default());
            id
        }) as usize
    }

    fn ensure_round(&mut self, r: usize) {
        while self.rounds.len() < r {
            self.rounds.push(Vec::new());
            self.send_used.push(vec![0; self.n]);
            self.recv_used.push(vec![0; self.n]);
        }
        while self.slots.len() <= self.rounds.len() {
            self.slots.push(Vec::new());
        }
    }

    fn round_has_slot(&self, r: usize, src: NodeId, dst: NodeId) -> bool {
        if r > self.rounds.len() {
            return true; // fresh round
        }
        self.send_used[r - 1][src.index()] < self.capacity
            && self.recv_used[r - 1][dst.index()] < self.capacity
    }

    fn place_transfer(&mut self, t: crate::Transfer) {
        let src_id = self.slot(t.src, t.src_key);
        let dst_id = self.slot(t.dst, t.dst_key);
        // Flow: source value fully written strictly before the round fires.
        let src_written = self.clocks[src_id].write;
        let mut r = round_strictly_after(src_written);
        // Anti dependency: a write may not overtake a read of the old value
        // (ties are fine — within a round all reads precede all writes).
        let dst_clock = self.clocks[dst_id];
        r = r.max(round_at_or_after(dst_clock.read));
        // Output dependency: strictly after any earlier write to the same
        // key (two same-round writes have no defined order once capacity
        // exceeds 1).
        r = r.max(round_strictly_after(dst_clock.write));
        while !self.round_has_slot(r, t.src, t.dst) {
            r += 1;
        }
        self.ensure_round(r);
        self.send_used[r - 1][t.src.index()] += 1;
        self.recv_used[r - 1][t.dst.index()] += 1;
        self.rounds[r - 1].push(t);
        let time = 2 * r as u64;
        let sc = &mut self.clocks[src_id];
        sc.read = sc.read.max(time);
        let dc = &mut self.clocks[dst_id];
        dc.write = dc.write.max(time);
        if t.merge == Merge::Add {
            // An Add also "reads" the accumulator.
            dc.read = dc.read.max(time);
        }
    }

    /// Place one original communication round.
    ///
    /// Within a round the machine reads **all** payloads before delivering
    /// any, so a transfer may read a key that another transfer of the same
    /// round overwrites — it sees the *old* value regardless of list order.
    /// Per-transfer list scheduling would serialize such a pair and flip the
    /// read to the new value. When a round contains such a hazard (some
    /// `(node, key)` is both a source and a destination within the round) we
    /// therefore place the whole round atomically in one new round, which
    /// reproduces the read-barrier semantics exactly. Hazard-free rounds
    /// (the overwhelmingly common case for compiled phases) still pipeline
    /// transfer by transfer.
    fn place_round(&mut self, transfers: &[crate::Transfer]) {
        let written: std::collections::HashSet<(u32, Key)> =
            transfers.iter().map(|t| (t.dst.0, t.dst_key)).collect();
        let hazard = transfers
            .iter()
            .any(|t| written.contains(&(t.src.0, t.src_key)));
        if !hazard {
            for t in transfers {
                self.place_transfer(*t);
            }
            return;
        }

        // Atomic placement: earliest round satisfying every transfer's flow,
        // anti and output dependencies...
        let mut r = 1usize;
        for t in transfers {
            let src_id = self.slot(t.src, t.src_key);
            let dst_id = self.slot(t.dst, t.dst_key);
            let src_written = self.clocks[src_id].write;
            r = r.max(round_strictly_after(src_written));
            let dst_clock = self.clocks[dst_id];
            r = r.max(round_at_or_after(dst_clock.read));
            r = r.max(round_strictly_after(dst_clock.write));
        }
        // ...and with simultaneous send/receive capacity for all of them.
        // A fresh round always fits (the original round was valid), so this
        // terminates.
        'search: loop {
            if r <= self.rounds.len() {
                let mut send = vec![0u32; self.n];
                let mut recv = vec![0u32; self.n];
                for t in transfers {
                    send[t.src.index()] += 1;
                    recv[t.dst.index()] += 1;
                }
                for v in 0..self.n {
                    if self.send_used[r - 1][v] + send[v] > self.capacity
                        || self.recv_used[r - 1][v] + recv[v] > self.capacity
                    {
                        r += 1;
                        continue 'search;
                    }
                }
            }
            break;
        }
        self.ensure_round(r);
        let time = 2 * r as u64;
        for t in transfers {
            self.send_used[r - 1][t.src.index()] += 1;
            self.recv_used[r - 1][t.dst.index()] += 1;
            self.rounds[r - 1].push(*t);
        }
        // Clock updates after all placements: reads and writes of the round
        // share the same time point, exactly like the machine's semantics.
        for t in transfers {
            let src_id = self.slot(t.src, t.src_key);
            let sc = &mut self.clocks[src_id];
            sc.read = sc.read.max(time);
            let dst_id = self.slot(t.dst, t.dst_key);
            let dc = &mut self.clocks[dst_id];
            dc.write = dc.write.max(time);
            if t.merge == Merge::Add {
                dc.read = dc.read.max(time);
            }
        }
    }

    fn place_compute(&mut self, op: LocalOp) {
        let node = op.node();
        let (reads, writes): (Vec<Key>, Vec<Key>) = match op {
            LocalOp::Mul { dst, lhs, rhs, .. } => (vec![lhs, rhs], vec![dst]),
            LocalOp::MulAdd { dst, lhs, rhs, .. } => (vec![lhs, rhs, dst], vec![dst]),
            LocalOp::AddAssign { dst, src, .. } => (vec![src, dst], vec![dst]),
            LocalOp::SubAssign { dst, src, .. } => (vec![src, dst], vec![dst]),
            LocalOp::BlockMulAdd {
                dim,
                a_ns,
                b_ns,
                c_ns,
                ..
            } => {
                let dim = dim as u64;
                let mut reads = Vec::with_capacity(3 * (dim * dim) as usize);
                let mut writes = Vec::with_capacity((dim * dim) as usize);
                for idx in 0..dim * dim {
                    reads.push(Key::tmp(a_ns, idx));
                    reads.push(Key::tmp(b_ns, idx));
                    reads.push(Key::tmp(c_ns, idx));
                    writes.push(Key::tmp(c_ns, idx));
                }
                (reads, writes)
            }
            LocalOp::Copy { dst, src, .. } => (vec![src], vec![dst]),
            LocalOp::Zero { dst, .. } => (vec![], vec![dst]),
            LocalOp::Free { key, .. } => (vec![], vec![key]),
        };
        // Intern each referenced key once; the clock passes below are plain
        // indexed loads/stores on the flat clock vector.
        let read_ids: Vec<usize> = reads.iter().map(|&k| self.slot(node, k)).collect();
        let write_ids: Vec<usize> = writes.iter().map(|&k| self.slot(node, k)).collect();
        // Slot s acts at time 2s + 1; needs inputs written at ≤ 2s + 1 and
        // write deps ≤ 2s + 1.
        let mut need: u64 = 0;
        for &id in &read_ids {
            need = need.max(self.clocks[id].write);
        }
        for &id in &write_ids {
            let c = self.clocks[id];
            need = need.max(c.read).max(c.write);
        }
        let s = slot_at_or_after(need);
        while self.slots.len() <= s {
            self.slots.push(Vec::new());
        }
        self.slots[s].push(op);
        let time = 2 * s as u64 + 1;
        for &id in &read_ids {
            let c = &mut self.clocks[id];
            c.read = c.read.max(time);
        }
        for &id in &write_ids {
            let c = &mut self.clocks[id];
            c.write = c.write.max(time);
        }
    }

    fn finish(mut self) -> Schedule {
        self.ensure_round(self.rounds.len());
        let mut b = ScheduleBuilder::with_capacity(self.n, self.capacity as usize);
        let num_rounds = self.rounds.len();
        for r in 0..=num_rounds {
            if r < self.slots.len() {
                b.compute(std::mem::take(&mut self.slots[r]))
                    .expect("ops were valid in the source schedule");
            }
            if r < num_rounds {
                b.round(std::mem::take(&mut self.rounds[r]))
                    .expect("capacity was respected during placement");
            }
        }
        // Any trailing compute slots beyond the last round.
        for s in (num_rounds + 1)..self.slots.len() {
            let ops = std::mem::take(&mut self.slots[s]);
            b.compute(ops)
                .expect("ops were valid in the source schedule");
        }
        b.build()
    }
}

/// The key-addressed compression: the same schedule, events in
/// placement order.
pub(super) fn compress(schedule: &Schedule) -> Schedule {
    let mut c = Compressor::new(schedule.n(), schedule.capacity() as u32);
    for step in schedule.steps() {
        match step {
            Step::Comm(Round { transfers }) => {
                c.place_round(transfers);
            }
            Step::Compute(ops) => {
                for op in ops {
                    c.place_compute(*op);
                }
            }
        }
    }
    c.finish()
}
