//! Lemma 2.1: batch-processing clustered triangle collections with
//! distributed dense matrix multiplication.
//!
//! Each [`Cluster`] is a tiny dense instance: at most `d × d` blocks of `A`,
//! `B` and `X̂` restricted to the cluster's masks. A batch ("wave") of
//! clusters is processed in parallel, each cluster on its own block of `d`
//! consecutive computers.
//!
//! Within a cluster with `g` computers we run the classic **3D cube
//! algorithm** (Censor-Hillel et al., adapted from the congested clique):
//! computers form a `p × p × p` grid with `p = ⌊g^{1/3}⌋`; computer
//! `(x, y, z)` receives the blocks `A[I_x, J_y]` and `B[J_y, K_z]`,
//! multiplies locally, and the `p` partial sums of each output pair are
//! folded at a designated aggregator before being accumulated into the `X`
//! owner. Every computer sends/receives `O(d²/p²) = O(d^{4/3})` values, and
//! our edge-colored router realizes each phase in exactly its max-degree
//! round count — giving the `O(d^{4/3})` semiring bound of Lemma 2.1.
//!
//! For the field case the paper invokes fast dense multiplication with
//! `ω < 2.371552`, giving `O(d^{1.156671})` — an algorithm that exists only
//! asymptotically. We *charge* that cost analytically ([`fast_field_rounds`])
//! while computing the values with the same cube schedule, as documented in
//! DESIGN.md §3.

use lowband_model::{Key, LocalOp, Merge, ModelError, NodeId, Schedule, ScheduleBuilder, Transfer};
use lowband_routing::route;

use crate::cluster::Cluster;
use crate::instance::Instance;

/// Which dense-multiplication engine processes the cluster waves.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DenseEngine {
    /// Semiring cube algorithm: measured rounds are the real cost.
    Cube3d,
    /// Fast field multiplication with exponent `omega`: values computed by
    /// the cube schedule, rounds analytically charged as `⌈side^{2−2/ω}⌉`
    /// per wave (the paper's galactic `ω`; see DESIGN.md §3).
    FastField {
        /// The dense matrix multiplication exponent to charge.
        omega: f64,
    },
    /// Executable distributed Strassen per cluster
    /// ([`crate::strassen::append_strassen_jobs`]): measured rounds are the
    /// real cost; requires ring values at run time.
    StrassenExec,
}

impl DenseEngine {
    /// The per-wave modeled round count for clusters of side `side`.
    pub fn modeled_wave_rounds(&self, side: usize, measured: usize) -> f64 {
        match *self {
            DenseEngine::Cube3d | DenseEngine::StrassenExec => measured as f64,
            DenseEngine::FastField { omega } => fast_field_rounds(side, omega),
        }
    }
}

/// The analytic round charge for one fast-field dense multiplication of a
/// `side × side` cluster on `side` computers: `side^{2 − 2/ω}`.
pub fn fast_field_rounds(side: usize, omega: f64) -> f64 {
    (side.max(2) as f64).powf(2.0 - 2.0 / omega)
}

/// Partition `nodes` into `p` nearly-equal parts; returns part index per
/// position.
fn partition_parts(len: usize, p: usize) -> Vec<usize> {
    (0..len).map(|idx| idx * p / len.max(1)).collect()
}

/// Dense position of every node of one cluster side in its node list.
struct NodeIndex {
    pos: Vec<u32>,
}

impl NodeIndex {
    /// Marks a node outside the cluster.
    const NONE: u32 = u32::MAX;

    fn new(n: usize) -> NodeIndex {
        NodeIndex {
            pos: vec![NodeIndex::NONE; n],
        }
    }

    fn set(&mut self, nodes: &[u32]) {
        for (at, &v) in nodes.iter().enumerate() {
            self.pos[v as usize] = at as u32;
        }
    }

    fn clear(&mut self, nodes: &[u32]) {
        for &v in nodes {
            self.pos[v as usize] = NodeIndex::NONE;
        }
    }

    /// The position of `v`; panics if `v` is not a cluster node.
    fn of(&self, v: u32) -> usize {
        let at = self.pos[v as usize];
        assert!(at != NodeIndex::NONE, "node {v} is outside the cluster");
        at as usize
    }
}

/// Build the schedule processing one wave of clusters in parallel.
///
/// `blocks[c]` is the first computer of the `c`-th cluster's dedicated block
/// of `block_size` computers; the caller guarantees the blocks are disjoint.
/// Scratch keys use namespaces `ns_base..ns_base+1`. Every message list is
/// built in a fixed order (edges as the cluster lists them, partial sums by
/// `(i, k)`), so the schedule is a pure function of its inputs.
pub fn process_wave(
    inst: &Instance,
    clusters: &[Cluster],
    blocks: &[NodeId],
    block_size: usize,
    ns_base: u64,
) -> Result<Schedule, ModelError> {
    assert_eq!(clusters.len(), blocks.len());
    let n = inst.n;
    let mut b = ScheduleBuilder::new(n);

    let mut a_msgs: Vec<Transfer> = Vec::new();
    let mut b_msgs: Vec<Transfer> = Vec::new();
    let mut fold_msgs: Vec<Transfer> = Vec::new();
    let mut final_msgs: Vec<Transfer> = Vec::new();
    let mut mults: Vec<LocalOp> = Vec::new();
    let mut fold_local: Vec<LocalOp> = Vec::new();
    let mut final_local: Vec<LocalOp> = Vec::new();
    let [mut i_idx, mut j_idx, mut k_idx] = [(); 3].map(|_| NodeIndex::new(n));
    // (i, k, grid cell) of every partial sum of the current cluster.
    let mut partials: Vec<(u32, u32, usize)> = Vec::new();

    for (cluster, &block) in clusters.iter().zip(blocks) {
        let g = block_size.max(1);
        let p = (1..=g).rev().find(|&p| p * p * p <= g).unwrap_or(1);
        let grid = |x: usize, y: usize, z: usize| NodeId(block.0 + (x * p * p + y * p + z) as u32);

        // Dense local index of every cluster node, and its grid part.
        i_idx.set(&cluster.i_nodes);
        j_idx.set(&cluster.j_nodes);
        k_idx.set(&cluster.k_nodes);
        let i_part = partition_parts(cluster.i_nodes.len(), p);
        let j_part = partition_parts(cluster.j_nodes.len(), p);
        let k_part = partition_parts(cluster.k_nodes.len(), p);
        let x_of = |i: u32| i_part[i_idx.of(i)];
        let y_of = |j: u32| j_part[j_idx.of(j)];
        let z_of = |k: u32| k_part[k_idx.of(k)];

        // 1. Replicate A edges to all z-layers of their (x, y) cell, B edges
        //    to all x-layers of their (y, z) cell.
        for &(i, j) in &cluster.a_edges {
            let (x, y) = (x_of(i), y_of(j));
            let src = inst.placement.a.owner(i, j);
            let key = Key::a(u64::from(i), u64::from(j));
            for z in 0..p {
                let dst = grid(x, y, z);
                if dst != src {
                    a_msgs.push(Transfer {
                        src,
                        src_key: key,
                        dst,
                        dst_key: key,
                        merge: Merge::Overwrite,
                    });
                }
            }
        }
        for &(j, k) in &cluster.b_edges {
            let (y, z) = (y_of(j), z_of(k));
            let src = inst.placement.b.owner(j, k);
            let key = Key::b(u64::from(j), u64::from(k));
            for x in 0..p {
                let dst = grid(x, y, z);
                if dst != src {
                    b_msgs.push(Transfer {
                        src,
                        src_key: key,
                        dst,
                        dst_key: key,
                        merge: Merge::Overwrite,
                    });
                }
            }
        }

        // 2. Local multiplication: every cluster triangle happens at the
        //    grid cell of its (x, y, z) parts; partial sums accumulate under
        //    a per-(i,k) scratch key local to that cell.
        //    Partial key: tmp(ns_base, i * n + k) — per-node stores make the
        //    same key safe on different computers.
        let pair_key = |i: u32, k: u32| Key::tmp(ns_base, u64::from(i) * n as u64 + u64::from(k));
        partials.clear();
        for t in &cluster.triangles {
            let (x, y, z) = (x_of(t.i), y_of(t.j), z_of(t.k));
            mults.push(LocalOp::MulAdd {
                node: grid(x, y, z),
                dst: pair_key(t.i, t.k),
                lhs: Key::a(u64::from(t.i), u64::from(t.j)),
                rhs: Key::b(u64::from(t.j), u64::from(t.k)),
            });
            partials.push((t.i, t.k, x * p * p + y * p + z));
        }

        // 3. Fold the ≤ p partials of each X pair at its aggregator
        //    (x, y₀, z) with y₀ = (i + k) mod p, then accumulate into the
        //    X owner. A cell contributes to pair (i,k) iff some captured
        //    triangle of that cell hits (i,k). Pairs go in (i, k) order,
        //    each pair's cells in grid order.
        partials.sort_unstable();
        partials.dedup();
        for pair in partials.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (i, k) = (pair[0].0, pair[0].1);
            let agg = grid(x_of(i), (i as usize + k as usize) % p, z_of(k));
            // If the aggregator has a partial of its own the adds
            // accumulate on top of it; otherwise the first fold message
            // creates the key (Merge::Add starts from zero).
            for &(_, _, cell) in pair {
                let node = NodeId(block.0 + cell as u32);
                if node != agg {
                    fold_msgs.push(Transfer {
                        src: node,
                        src_key: pair_key(i, k),
                        dst: agg,
                        dst_key: pair_key(i, k),
                        merge: Merge::Add,
                    });
                }
            }
            let owner = inst.placement.x.owner(i, k);
            let xkey = Key::x(u64::from(i), u64::from(k));
            if owner == agg {
                final_local.push(LocalOp::AddAssign {
                    node: agg,
                    dst: xkey,
                    src: pair_key(i, k),
                });
            } else {
                final_msgs.push(Transfer {
                    src: agg,
                    src_key: pair_key(i, k),
                    dst: owner,
                    dst_key: xkey,
                    merge: Merge::Add,
                });
            }
            // Clear the partial keys afterwards so later waves can reuse
            // the namespace on the same computers.
            for cell in 0..p * p * p {
                fold_local.push(LocalOp::Free {
                    node: NodeId(block.0 + cell as u32),
                    key: pair_key(i, k),
                });
            }
        }
        i_idx.clear(&cluster.i_nodes);
        j_idx.clear(&cluster.j_nodes);
        k_idx.clear(&cluster.k_nodes);
    }

    b.extend(&route(n, &a_msgs)?)?;
    b.extend(&route(n, &b_msgs)?)?;
    b.compute(mults)?;
    b.extend(&route(n, &fold_msgs)?)?;
    b.compute(final_local)?;
    b.extend(&route(n, &final_msgs)?)?;
    b.compute(fold_local)?;
    Ok(b.build())
}

/// Process clusters in waves with the executable Strassen engine: each
/// cluster of a wave becomes one [`crate::strassen::DenseJob`] on its own
/// computer block (cluster node ids are densified into `0..side`).
pub fn process_clusters_strassen(
    inst: &Instance,
    clusters: &[Cluster],
    block_size: usize,
    ns_base: u64,
) -> Result<(Schedule, usize), ModelError> {
    use crate::strassen::{append_strassen_jobs, DenseJob, NS_WAVE_STRIDE};
    let n = inst.n;
    let block_size = block_size.max(1);
    let per_wave = (n / block_size).max(1);
    let mut b = ScheduleBuilder::new(n);
    let mut waves = 0usize;
    let [mut i_idx, mut j_idx, mut k_idx] = [(); 3].map(|_| NodeIndex::new(n));
    for chunk in clusters.chunks(per_wave) {
        let mut jobs = Vec::with_capacity(chunk.len());
        for (c_idx, cluster) in chunk.iter().enumerate() {
            i_idx.set(&cluster.i_nodes);
            j_idx.set(&cluster.j_nodes);
            k_idx.set(&cluster.k_nodes);
            let side = cluster.side().max(1);
            jobs.push(DenseJob {
                side,
                region_start: (c_idx * block_size) as u32,
                region_len: block_size,
                a_items: cluster
                    .a_edges
                    .iter()
                    .map(|&(i, j)| {
                        (
                            i_idx.of(i),
                            j_idx.of(j),
                            inst.placement.a.owner(i, j),
                            Key::a(u64::from(i), u64::from(j)),
                        )
                    })
                    .collect(),
                b_items: cluster
                    .b_edges
                    .iter()
                    .map(|&(j, k)| {
                        (
                            j_idx.of(j),
                            k_idx.of(k),
                            inst.placement.b.owner(j, k),
                            Key::b(u64::from(j), u64::from(k)),
                        )
                    })
                    .collect(),
                out_items: cluster
                    .x_pairs
                    .iter()
                    .map(|&(i, k)| {
                        (
                            i_idx.of(i),
                            k_idx.of(k),
                            inst.placement.x.owner(i, k),
                            Key::x(u64::from(i), u64::from(k)),
                        )
                    })
                    .collect(),
            });
            i_idx.clear(&cluster.i_nodes);
            j_idx.clear(&cluster.j_nodes);
            k_idx.clear(&cluster.k_nodes);
        }
        append_strassen_jobs(&mut b, n, &jobs, ns_base + waves as u64 * NS_WAVE_STRIDE)?;
        waves += 1;
    }
    Ok((b.build(), waves))
}

/// Process a list of clusters in waves of at most `⌊n / block_size⌋`
/// clusters, each on its own computer block. Returns the combined schedule
/// and the number of waves.
pub fn process_clusters(
    inst: &Instance,
    clusters: &[Cluster],
    block_size: usize,
    ns_base: u64,
) -> Result<(Schedule, usize), ModelError> {
    let n = inst.n;
    let block_size = block_size.max(1);
    let per_wave = (n / block_size).max(1);
    let mut combined = ScheduleBuilder::new(n).build();
    let mut waves = 0usize;
    for chunk in clusters.chunks(per_wave) {
        let blocks: Vec<NodeId> = (0..chunk.len())
            .map(|c| NodeId((c * block_size) as u32))
            .collect();
        let wave = process_wave(inst, chunk, &blocks, block_size, ns_base)?;
        combined = combined.chain(wave)?;
        waves += 1;
    }
    Ok((combined, waves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::extract_clusters;
    use crate::triangles::TriangleSet;
    use lowband_matrix::{gen, reference_multiply, Fp, SparseMatrix, Support};
    use rand::SeedableRng;

    #[test]
    fn block_diagonal_wave_computes_product() {
        let n = 32;
        let d = 4;
        let s = gen::block_diagonal(n, d);
        let inst = Instance::new(s.clone(), s.clone(), s);
        let mut pool = TriangleSet::enumerate(&inst).triangles;
        let total = pool.len();
        let report = extract_clusters(&mut pool, d, 1, 0);
        assert_eq!(report.captured, total);
        let (schedule, waves) = process_clusters(&inst, &report.clusters, d, 100).unwrap();
        assert!(waves >= 1);

        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        let got = inst.extract_x(&m);
        assert_eq!(got, reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn single_dense_cluster_equals_dense_product() {
        let n = 8;
        let full = Support::full(n, n);
        let inst = Instance::new(full.clone(), full.clone(), full);
        let mut pool = TriangleSet::enumerate(&inst).triangles;
        let report = extract_clusters(&mut pool, n, 1, 0);
        assert_eq!(report.clusters.len(), 1);
        let (schedule, _) = process_clusters(&inst, &report.clusters, n, 100).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn cube_rounds_scale_subquadratically() {
        // For dense d×d clusters on d computers, the cube algorithm must
        // beat the naive d² data movement once p ≥ 2.
        let mut rounds = Vec::new();
        for d in [8usize, 27] {
            let n = d;
            let full = Support::full(n, n);
            let inst = Instance::new(full.clone(), full.clone(), full);
            let mut pool = TriangleSet::enumerate(&inst).triangles;
            let report = extract_clusters(&mut pool, d, 1, 0);
            let (schedule, _) = process_clusters(&inst, &report.clusters, d, 100).unwrap();
            rounds.push((d, schedule.rounds()));
        }
        for &(d, r) in &rounds {
            assert!(
                r < 3 * d * d,
                "cube should beat naive ~3d² = {} at d = {d}, got {r}",
                3 * d * d
            );
        }
    }

    #[test]
    fn multiple_waves_reuse_namespaces_correctly() {
        // 8 clusters but room for only 2 per wave: 4 waves chained on the
        // same scratch namespaces — the Free bookkeeping must prevent stale
        // partials from leaking across waves.
        let n = 32;
        let d = 4;
        let s = gen::block_diagonal(n, d);
        let inst = Instance::new(s.clone(), s.clone(), s);
        let mut pool = TriangleSet::enumerate(&inst).triangles;
        let report = extract_clusters(&mut pool, d, 1, 0);
        assert_eq!(report.clusters.len(), 8);
        // Pretend each cluster needs a block of 16 computers: 2 per wave.
        let (schedule, waves) = process_clusters(&inst, &report.clusters, 16, 100).unwrap();
        assert_eq!(waves, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&schedule).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn fast_field_charge_matches_formula() {
        let r = fast_field_rounds(16, 2.8074);
        let expect = 16f64.powf(2.0 - 2.0 / 2.8074);
        assert!((r - expect).abs() < 1e-9);
        // The paper's ω gives the d^{1.157} exponent.
        let paper = fast_field_rounds(100, 2.371552);
        assert!((paper.ln() / 100f64.ln() - 1.156672).abs() < 1e-3);
    }

    #[test]
    fn engine_modeled_rounds() {
        assert_eq!(DenseEngine::Cube3d.modeled_wave_rounds(8, 42), 42.0);
        let ff = DenseEngine::FastField { omega: 2.8074 };
        assert!(ff.modeled_wave_rounds(8, 42) > 0.0);
    }
}
