//! Distributed Strassen multiplication — the *executable* fast field engine.
//!
//! The paper's field results rest on fast dense multiplication in
//! `O(n^{2−2/ω})` rounds (Censor-Hillel et al.); with the galactic `ω < 2.371552` that bound
//! is purely analytic, but with Strassen's `ω = log₂ 7 ≈ 2.807` the same
//! recursion is implementable — and this module implements it at the
//! message level, giving a measured `≈ n^{1.3}` dense engine whose exponent
//! beats the semiring cube's `n^{4/3}` (with worse constants, exactly as in
//! the centralized world).
//!
//! ## Structure
//!
//! The unit of work is a [`DenseJob`]: a `side × side` dense product on a
//! dedicated contiguous *region* of computers, with inputs pulled from and
//! outputs accumulated to arbitrary owners. [`append_strassen_jobs`]
//! schedules any number of region-disjoint jobs in parallel (the cluster
//! waves of Theorem 4.2's phase 1); [`solve_strassen`] is the whole-network
//! special case.
//!
//! Per job, let `L = min(⌊log₇ region⌋, ⌊log₂ side⌋)` recursion levels and
//! pad to `D ≡ 0 (mod 2^L)`. At level `t` there are `7^t` subproblems of
//! size `m_t = D/2^t`, every entry striped across the region's computers:
//!
//! 1. **Down-sweep** (`t → t+1`): each child entry is a ±-combination of at
//!    most two parent-quadrant entries (the Strassen input combinations);
//!    the first term routes straight into the child key, the optional
//!    second into a side key folded in by free local ops. Traffic per level
//!    is `Θ((7/4)^t · D²)`, geometrically dominated by the last level:
//!    `Θ(D² · (7/4)^L)` total ⇒ `Θ(n^{1.288})` rounds when `D = region = n`.
//! 2. **Leaves**: subproblem `q < 7^L ≤ region` gathers its two blocks on
//!    the region's `q`-th computer and multiplies with one free
//!    [`lowband_model::LocalOp::BlockMulAdd`], then scatters the product.
//! 3. **Up-sweep**: parent products are ±-combinations of up to four child
//!    products (`C11 = M1 + M4 − M5 + M7`, …), routed and folded likewise.
//! 4. The root product feeds the job's output accumulations.
//!
//! Key-existence discipline: presence sets are propagated structurally at
//! compile time and the leaf kernel materializes all outputs, so the
//! schedule never reads a key whose existence depends on runtime values.
//! Callers composing several waves over the same regions must advance
//! `ns_base` between waves (see [`NS_WAVE_STRIDE`]).

use lowband_model::{Key, LocalOp, Merge, ModelError, NodeId, Schedule, ScheduleBuilder, Transfer};
use lowband_routing::route;

use crate::instance::Instance;

/// One term of a Strassen combination: quadrant coordinates and sign.
type Term = ((usize, usize), bool); // ((qr, qc), positive)

/// Input combinations per child `s` (the 7 Strassen products), A side.
const A_SPECS: [&[Term]; 7] = [
    &[((0, 0), true), ((1, 1), true)],  // A11 + A22
    &[((1, 0), true), ((1, 1), true)],  // A21 + A22
    &[((0, 0), true)],                  // A11
    &[((1, 1), true)],                  // A22
    &[((0, 0), true), ((0, 1), true)],  // A11 + A12
    &[((1, 0), true), ((0, 0), false)], // A21 − A11
    &[((0, 1), true), ((1, 1), false)], // A12 − A22
];

/// Input combinations per child `s`, B side.
const B_SPECS: [&[Term]; 7] = [
    &[((0, 0), true), ((1, 1), true)],  // B11 + B22
    &[((0, 0), true)],                  // B11
    &[((0, 1), true), ((1, 1), false)], // B12 − B22
    &[((1, 0), true), ((0, 0), false)], // B21 − B11
    &[((1, 1), true)],                  // B22
    &[((0, 0), true), ((0, 1), true)],  // B11 + B12
    &[((1, 0), true), ((1, 1), true)],  // B21 + B22
];

/// One output-combination row: parent quadrant `(qr, qc)` and its
/// contributing child products `(s, positive)`.
type CSpec = (usize, usize, &'static [(usize, bool)]);

/// Output combinations: for each parent quadrant, the contributing child
/// products `(s, positive)`; the first term is always positive.
const C_SPECS: [CSpec; 4] = [
    (0, 0, &[(0, true), (3, true), (4, false), (6, true)]), // C11 = M1+M4−M5+M7
    (0, 1, &[(2, true), (4, true)]),                        // C12 = M3+M5
    (1, 0, &[(1, true), (3, true)]),                        // C21 = M2+M4
    (1, 1, &[(0, true), (1, false), (2, true), (5, true)]), // C22 = M1−M2+M3+M6
];

const ROLE_A: u64 = 0;
const ROLE_B: u64 = 1;
const ROLE_C: u64 = 2;

/// Callers composing several [`append_strassen_jobs`] batches that reuse
/// computers (e.g. successive cluster waves) must advance `ns_base` by at
/// least this much between batches so stale leaf/side keys from an earlier
/// batch can never alias a later one.
pub const NS_WAVE_STRIDE: u64 = 1 << 20;

/// A dense `side × side` product job on a dedicated computer region.
#[derive(Clone, Debug)]
pub struct DenseJob {
    /// Matrix dimension.
    pub side: usize,
    /// First computer of the job's region.
    pub region_start: u32,
    /// Region length (regions of concurrent jobs must be disjoint).
    pub region_len: usize,
    /// `A` inputs: dense position `(r, c)` read from `(owner, key)`.
    pub a_items: Vec<(usize, usize, NodeId, Key)>,
    /// `B` inputs.
    pub b_items: Vec<(usize, usize, NodeId, Key)>,
    /// Outputs: dense position `(r, c)` accumulated ([`Merge::Add`]) into
    /// `(owner, key)`.
    pub out_items: Vec<(usize, usize, NodeId, Key)>,
}

struct Layout {
    region_start: u32,
    region_len: usize,
    ns_base: u64,
    /// Padded dimension (multiple of `2^levels`).
    dim: usize,
}

impl Layout {
    fn m(&self, t: usize) -> usize {
        self.dim >> t
    }

    /// Namespace of the main matrix keys at level `t` for `role`.
    fn main_ns(&self, t: usize, role: u64) -> u64 {
        self.ns_base + (t as u64) * 8 + role
    }

    /// Namespace of the down-sweep second-term side keys.
    fn side_ns(&self, t: usize, role: u64) -> u64 {
        self.ns_base + (t as u64) * 8 + 3 + role
    }

    /// Namespace of up-sweep extra-term side keys (`term ∈ 0..3`).
    fn up_ns(&self, t: usize, term: usize) -> u64 {
        self.ns_base + (t as u64) * 8 + 5 + term as u64
    }

    /// Namespace of leaf-local gathered blocks.
    fn leaf_ns(&self, q: usize, role: u64) -> u64 {
        self.ns_base + 1000 + (q as u64) * 3 + role
    }

    /// Global index of entry `(r, c)` of subproblem `p` at level `t`.
    fn idx(&self, t: usize, p: usize, r: usize, c: usize) -> u64 {
        let m = self.m(t) as u64;
        (p as u64) * m * m + (r as u64) * m + c as u64
    }

    /// Balanced owner of an entry: linear striping spreads any contiguous
    /// index range evenly over the region (a hash would be balanced only in
    /// expectation, and the per-phase max-degree — which is what rounds
    /// cost — suffers visibly from Poisson skew at these sizes).
    fn owner(&self, t: usize, role: u64, p: usize, r: usize, c: usize) -> NodeId {
        let idx = self.idx(t, p, r, c) + role * (self.region_len as u64 / 3 + 1);
        NodeId(self.region_start + (idx % self.region_len as u64) as u32)
    }

    fn key(&self, t: usize, role: u64, p: usize, r: usize, c: usize) -> Key {
        Key::tmp(self.main_ns(t, role), self.idx(t, p, r, c))
    }
}

/// Presence bitmaps for one level: `[role][p * m² + r*m + c]`.
type Presence = Vec<Vec<bool>>;

struct JobState {
    lay: Layout,
    levels: usize,
    presence: Vec<Presence>,
}

/// Push a transfer, or the equivalent local `Copy` when source and
/// destination coincide.
fn emit(
    msgs: &mut Vec<Transfer>,
    local: &mut Vec<LocalOp>,
    src: NodeId,
    src_key: Key,
    dst: NodeId,
    dst_key: Key,
    merge: Merge,
) {
    if src == dst {
        local.push(match merge {
            Merge::Overwrite => LocalOp::Copy {
                node: dst,
                dst: dst_key,
                src: src_key,
            },
            Merge::Add => LocalOp::AddAssign {
                node: dst,
                dst: dst_key,
                src: src_key,
            },
        });
    } else {
        msgs.push(Transfer {
            src,
            src_key,
            dst,
            dst_key,
            merge,
        });
    }
}

/// Schedule a batch of region-disjoint Strassen jobs onto `b`, phase by
/// phase (all jobs' messages of a phase share the same routed rounds).
///
/// The produced schedule requires ring values at run time (it contains
/// subtraction ops); executing it over a plain semiring fails with
/// [`ModelError::UnsupportedOp`].
pub fn append_strassen_jobs(
    b: &mut ScheduleBuilder,
    n: usize,
    jobs: &[DenseJob],
    ns_base: u64,
) -> Result<(), ModelError> {
    // ---- Initialize per-job layouts and load inputs -----------------------
    let mut states = Vec::with_capacity(jobs.len());
    let mut msgs = Vec::new();
    let mut local = Vec::new();
    for job in jobs {
        assert!(job.region_len >= 1, "job region must be non-empty");
        assert!(
            (job.region_start as usize + job.region_len) <= n,
            "job region exceeds the network"
        );
        let mut levels = 0usize;
        while 7usize.pow(levels as u32 + 1) <= job.region_len
            && (1usize << (levels + 1)) <= job.side
        {
            levels += 1;
        }
        let block = 1usize << levels;
        let dim = job.side.div_ceil(block) * block;
        let lay = Layout {
            region_start: job.region_start,
            region_len: job.region_len,
            ns_base,
            dim,
        };
        let mut presence_a = vec![false; dim * dim];
        let mut presence_b = vec![false; dim * dim];
        for &(r, c, src, src_key) in &job.a_items {
            debug_assert!(r < job.side && c < job.side);
            presence_a[r * dim + c] = true;
            emit(
                &mut msgs,
                &mut local,
                src,
                src_key,
                lay.owner(0, ROLE_A, 0, r, c),
                lay.key(0, ROLE_A, 0, r, c),
                Merge::Overwrite,
            );
        }
        for &(r, c, src, src_key) in &job.b_items {
            debug_assert!(r < job.side && c < job.side);
            presence_b[r * dim + c] = true;
            emit(
                &mut msgs,
                &mut local,
                src,
                src_key,
                lay.owner(0, ROLE_B, 0, r, c),
                lay.key(0, ROLE_B, 0, r, c),
                Merge::Overwrite,
            );
        }
        states.push(JobState {
            lay,
            levels,
            presence: vec![vec![presence_a, presence_b]],
        });
    }
    b.compute(std::mem::take(&mut local))?;
    b.extend(&route(n, &msgs)?)?;
    msgs.clear();

    let max_levels = states.iter().map(|s| s.levels).max().unwrap_or(0);

    // ---- Down-sweep (all jobs in lock-step) --------------------------------
    for t in 0..max_levels {
        let mut msgs = Vec::new();
        let mut folds = Vec::new();
        for state in states.iter_mut().filter(|s| s.levels > t) {
            let lay = &state.lay;
            let m_child = lay.m(t + 1);
            let m_parent = lay.m(t);
            let parents = 7usize.pow(t as u32);
            let mut child_presence: Presence = vec![
                vec![false; parents * 7 * m_child * m_child],
                vec![false; parents * 7 * m_child * m_child],
            ];
            for (role, specs) in [(ROLE_A, &A_SPECS), (ROLE_B, &B_SPECS)] {
                let parent_pres = &state.presence[t][role as usize];
                for p in 0..parents {
                    for (s, spec) in specs.iter().enumerate() {
                        let q = p * 7 + s;
                        for r in 0..m_child {
                            for c in 0..m_child {
                                let mut present_terms: Vec<Term> = Vec::with_capacity(2);
                                for &((qr, qc), sign) in spec.iter() {
                                    let pr = qr * m_child + r;
                                    let pc = qc * m_child + c;
                                    if parent_pres[p * m_parent * m_parent + pr * m_parent + pc] {
                                        present_terms.push(((qr, qc), sign));
                                    }
                                }
                                if present_terms.is_empty() {
                                    continue;
                                }
                                child_presence[role as usize][lay.idx(t + 1, q, r, c) as usize] =
                                    true;
                                let dst = lay.owner(t + 1, role, q, r, c);
                                let dst_key = lay.key(t + 1, role, q, r, c);
                                let (first, rest) = present_terms.split_first().unwrap();
                                let ((qr, qc), sign) = *first;
                                let src = lay.owner(t, role, p, qr * m_child + r, qc * m_child + c);
                                let src_key =
                                    lay.key(t, role, p, qr * m_child + r, qc * m_child + c);
                                if sign {
                                    emit(
                                        &mut msgs,
                                        &mut folds,
                                        src,
                                        src_key,
                                        dst,
                                        dst_key,
                                        Merge::Overwrite,
                                    );
                                } else {
                                    // child = −parent: side copy, zero-init,
                                    // subtract.
                                    let side =
                                        Key::tmp(lay.side_ns(t, role), lay.idx(t + 1, q, r, c));
                                    emit(
                                        &mut msgs,
                                        &mut folds,
                                        src,
                                        src_key,
                                        dst,
                                        side,
                                        Merge::Overwrite,
                                    );
                                    folds.push(LocalOp::Zero {
                                        node: dst,
                                        dst: dst_key,
                                    });
                                    folds.push(LocalOp::SubAssign {
                                        node: dst,
                                        dst: dst_key,
                                        src: side,
                                    });
                                }
                                if let Some(&((qr2, qc2), sign2)) = rest.first() {
                                    let side2 =
                                        Key::tmp(lay.side_ns(t, role) + 2, lay.idx(t + 1, q, r, c));
                                    let src2 =
                                        lay.owner(t, role, p, qr2 * m_child + r, qc2 * m_child + c);
                                    let src2_key =
                                        lay.key(t, role, p, qr2 * m_child + r, qc2 * m_child + c);
                                    emit(
                                        &mut msgs,
                                        &mut folds,
                                        src2,
                                        src2_key,
                                        dst,
                                        side2,
                                        Merge::Overwrite,
                                    );
                                    folds.push(if sign2 {
                                        LocalOp::AddAssign {
                                            node: dst,
                                            dst: dst_key,
                                            src: side2,
                                        }
                                    } else {
                                        LocalOp::SubAssign {
                                            node: dst,
                                            dst: dst_key,
                                            src: side2,
                                        }
                                    });
                                }
                            }
                        }
                    }
                }
            }
            state.presence.push(child_presence);
        }
        b.extend(&route(n, &msgs)?)?;
        b.compute(folds)?;
    }

    // ---- Leaves --------------------------------------------------------------
    let mut gather = Vec::new();
    let mut local = Vec::new();
    for state in &states {
        let lay = &state.lay;
        let m_leaf = lay.m(state.levels);
        let leaves = 7usize.pow(state.levels as u32);
        debug_assert!(leaves <= lay.region_len);
        for q in 0..leaves {
            let host = NodeId(lay.region_start + q as u32);
            for (role, pres) in [
                (ROLE_A, &state.presence[state.levels][ROLE_A as usize]),
                (ROLE_B, &state.presence[state.levels][ROLE_B as usize]),
            ] {
                for r in 0..m_leaf {
                    for c in 0..m_leaf {
                        if !pres[lay.idx(state.levels, q, r, c) as usize] {
                            continue;
                        }
                        emit(
                            &mut gather,
                            &mut local,
                            lay.owner(state.levels, role, q, r, c),
                            lay.key(state.levels, role, q, r, c),
                            host,
                            Key::tmp(lay.leaf_ns(q, role), (r * m_leaf + c) as u64),
                            Merge::Overwrite,
                        );
                    }
                }
            }
            local.push(LocalOp::BlockMulAdd {
                node: host,
                dim: m_leaf as u32,
                a_ns: lay.leaf_ns(q, ROLE_A),
                b_ns: lay.leaf_ns(q, ROLE_B),
                c_ns: lay.leaf_ns(q, ROLE_C),
            });
        }
    }
    b.extend(&route(n, &gather)?)?;
    b.compute(local)?;

    // Scatter all product entries back to striped ownership.
    let mut scatter = Vec::new();
    let mut local = Vec::new();
    for state in &states {
        let lay = &state.lay;
        let m_leaf = lay.m(state.levels);
        let leaves = 7usize.pow(state.levels as u32);
        for q in 0..leaves {
            let host = NodeId(lay.region_start + q as u32);
            for r in 0..m_leaf {
                for c in 0..m_leaf {
                    emit(
                        &mut scatter,
                        &mut local,
                        host,
                        Key::tmp(lay.leaf_ns(q, ROLE_C), (r * m_leaf + c) as u64),
                        lay.owner(state.levels, ROLE_C, q, r, c),
                        lay.key(state.levels, ROLE_C, q, r, c),
                        Merge::Overwrite,
                    );
                }
            }
        }
    }
    b.extend(&route(n, &scatter)?)?;
    b.compute(local)?;

    // ---- Up-sweep ---------------------------------------------------------------
    for level in 0..max_levels {
        let mut msgs = Vec::new();
        let mut folds = Vec::new();
        for state in states.iter().filter(|s| s.levels > level) {
            // This job folds from its own level `t = levels − 1 − level` …
            let t = state.levels - 1 - level;
            let lay = &state.lay;
            let m_child = lay.m(t + 1);
            let parents = 7usize.pow(t as u32);
            for p in 0..parents {
                for &(qr, qc, terms) in C_SPECS.iter() {
                    for r in 0..m_child {
                        for c in 0..m_child {
                            let pr = qr * m_child + r;
                            let pc = qc * m_child + c;
                            let dst = lay.owner(t, ROLE_C, p, pr, pc);
                            let dst_key = lay.key(t, ROLE_C, p, pr, pc);
                            for (k, &(s, sign)) in terms.iter().enumerate() {
                                let child = p * 7 + s;
                                let src = lay.owner(t + 1, ROLE_C, child, r, c);
                                let src_key = lay.key(t + 1, ROLE_C, child, r, c);
                                if k == 0 {
                                    debug_assert!(sign, "first output term is positive");
                                    emit(
                                        &mut msgs,
                                        &mut folds,
                                        src,
                                        src_key,
                                        dst,
                                        dst_key,
                                        Merge::Overwrite,
                                    );
                                } else {
                                    let side = Key::tmp(lay.up_ns(t, k - 1), lay.idx(t, p, pr, pc));
                                    emit(
                                        &mut msgs,
                                        &mut folds,
                                        src,
                                        src_key,
                                        dst,
                                        side,
                                        Merge::Overwrite,
                                    );
                                    folds.push(if sign {
                                        LocalOp::AddAssign {
                                            node: dst,
                                            dst: dst_key,
                                            src: side,
                                        }
                                    } else {
                                        LocalOp::SubAssign {
                                            node: dst,
                                            dst: dst_key,
                                            src: side,
                                        }
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        b.extend(&route(n, &msgs)?)?;
        b.compute(folds)?;
    }

    // ---- Outputs -------------------------------------------------------------------
    let mut msgs = Vec::new();
    let mut local = Vec::new();
    for (job, state) in jobs.iter().zip(&states) {
        let lay = &state.lay;
        for &(r, c, dst, dst_key) in &job.out_items {
            emit(
                &mut msgs,
                &mut local,
                lay.owner(0, ROLE_C, 0, r, c),
                lay.key(0, ROLE_C, 0, r, c),
                dst,
                dst_key,
                Merge::Add,
            );
        }
    }
    b.extend(&route(n, &msgs)?)?;
    b.compute(local)?;
    Ok(())
}

/// Solve an instance with one whole-network Strassen job.
pub fn solve_strassen(inst: &Instance, ns_base: u64) -> Result<Schedule, ModelError> {
    let n = inst.n;
    let d = inst.ahat.rows();
    let job = DenseJob {
        side: d,
        region_start: 0,
        region_len: n,
        a_items: inst
            .ahat
            .iter()
            .map(|(i, j)| {
                (
                    i as usize,
                    j as usize,
                    inst.placement.a.owner(i, j),
                    Key::a(u64::from(i), u64::from(j)),
                )
            })
            .collect(),
        b_items: inst
            .bhat
            .iter()
            .map(|(j, k)| {
                (
                    j as usize,
                    k as usize,
                    inst.placement.b.owner(j, k),
                    Key::b(u64::from(j), u64::from(k)),
                )
            })
            .collect(),
        out_items: inst
            .xhat
            .iter()
            .map(|(i, k)| {
                (
                    i as usize,
                    k as usize,
                    inst.placement.x.owner(i, k),
                    Key::x(u64::from(i), u64::from(k)),
                )
            })
            .collect(),
    };
    let mut b = ScheduleBuilder::new(n);
    append_strassen_jobs(&mut b, n, &[job], ns_base)?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_matrix::{gen, reference_multiply, Fp, Gf2, SparseMatrix, Support};
    use rand::SeedableRng;

    fn verify_fp(inst: &Instance, seed: u64) -> usize {
        let schedule = solve_strassen(inst, 5000).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(
            inst.extract_x(&m),
            reference_multiply(&a, &b, &inst.xhat),
            "strassen product mismatch"
        );
        schedule.rounds()
    }

    #[test]
    fn dense_small_one_level() {
        // n = d = 7: L = 1, padded to 8.
        let n = 7;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        verify_fp(&inst, 81);
    }

    #[test]
    fn dense_two_levels() {
        // n = d = 49: L = 2, padded to 52.
        let n = 49;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        verify_fp(&inst, 82);
    }

    #[test]
    fn dense_non_power_pad() {
        // d = 10 on n = 10 computers: L = 1, no padding needed (10 is even).
        let n = 10;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        verify_fp(&inst, 83);
    }

    #[test]
    fn tiny_network_degenerates_to_gather() {
        // n < 7 ⇒ L = 0: everything gathers on one leaf; still correct.
        let n = 5;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        verify_fp(&inst, 84);
    }

    #[test]
    fn sparse_inputs_and_masked_output() {
        let n = 16;
        let mut rng = rand::rngs::StdRng::seed_from_u64(85);
        let inst = Instance::balanced(
            gen::uniform_sparse(n, 3, &mut rng),
            gen::uniform_sparse(n, 3, &mut rng),
            gen::uniform_sparse(n, 3, &mut rng),
        );
        verify_fp(&inst, 86);
    }

    #[test]
    fn gf2_field_works_too() {
        let n = 8;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        let schedule = solve_strassen(&inst, 5000).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(87);
        let a: SparseMatrix<Gf2> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Gf2> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn semiring_without_subtraction_is_rejected_at_runtime() {
        use lowband_matrix::Bool;
        let n = 8;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        let schedule = solve_strassen(&inst, 5000).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(88);
        let a: SparseMatrix<Bool> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Bool> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        assert!(matches!(
            m.run(&schedule),
            Err(ModelError::UnsupportedOp { .. })
        ));
    }

    #[test]
    fn strassen_schedules_serialize_and_compress() {
        // The schedule exercises every op kind (SubAssign, BlockMulAdd,
        // Copy, Zero, …): round-trip it through the linked plan-file
        // payload and through the dataflow compressor, checking execution
        // equivalence.
        use lowband_model::binser::{decode_linked, delink, encode_linked};
        let n = 10;
        let full = Support::full(n, n);
        let inst = Instance::balanced(full.clone(), full.clone(), full);
        let schedule = solve_strassen(&inst, 5000).unwrap();

        let mut buf = Vec::new();
        encode_linked(&lowband_model::link(&schedule), &mut buf);
        let reloaded = delink(&decode_linked(&buf, 0).unwrap(), 0).unwrap();
        assert_eq!(reloaded, schedule.clone().into_link_order());

        let compressed = lowband_model::compress(&schedule);
        assert!(compressed.rounds() <= schedule.rounds());

        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let want = reference_multiply(&a, &b, &inst.xhat);
        for s in [&schedule, &reloaded, &compressed] {
            let mut m = inst.load_machine(&a, &b);
            m.run(s).unwrap();
            assert_eq!(inst.extract_x(&m), want);
        }
    }

    #[test]
    fn strassen_scaling_is_subquadratic() {
        // What the recursion buys is the *exponent*: per-computer work
        // scales like n^{2−2/ω} = n^{1.288}. Constants are worse than the
        // cube's (≈8 routing phases carrying 2–4 values per entry vs one
        // replication), exactly as for real-world distributed Strassen;
        // measure the growth between L = 1 (n = 7) and L = 2 (n = 49) and
        // check it stays well below quadratic and near the theory value.
        let rounds = |n: usize| {
            let full = Support::full(n, n);
            let inst = Instance::balanced(full.clone(), full.clone(), full);
            solve_strassen(&inst, 5000).unwrap().rounds()
        };
        let (r7, r49) = (rounds(7), rounds(49));
        let exponent = ((r49 as f64) / (r7 as f64)).ln() / 7f64.ln();
        assert!(
            exponent < 1.55,
            "growth exponent {exponent:.3} should be ≈ 1.29 (padding inflates it \
             slightly at these sizes), far below the trivial 2.0"
        );
        assert!(exponent > 1.0, "sanity: strictly superlinear");
    }
}
