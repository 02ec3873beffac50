//! The trivial baseline: process triangles "one by one" by direct fetching.
//!
//! Every owner of an `X` entry pulls the `A` and `B` values of each of its
//! triangles straight from their owners, then multiplies and accumulates
//! locally. No anchors, no broadcast trees, no virtualization: contention is
//! whatever it is, and the edge-colored router simply pays the maximum
//! in/out degree in rounds.
//!
//! On a `[US:US:US]` instance this is the paper's `O(d²)` trivial bound
//! (each computer's row of `X̂` touches at most `d²` triangles, so it needs
//! at most `d²` foreign values of each input). On unbalanced instances the
//! cost degrades to the maximum per-node triangle load — exactly the
//! weakness Lemma 3.1's virtualization removes.

use lowband_model::{Key, LocalOp, Merge, ModelError, Schedule, ScheduleBuilder, Transfer};
use lowband_routing::route;

use crate::instance::Instance;
use crate::triangles::Triangle;

/// Build the direct-fetch schedule for the given triangles.
///
/// Scratch keys live in namespace `ns_base`.
pub fn solve_trivial(
    inst: &Instance,
    triangles: &[Triangle],
    ns_base: u64,
) -> Result<Schedule, ModelError> {
    let n = inst.n;
    let mut b = ScheduleBuilder::new(n);

    // Each distinct (value, consumer) pair is one message; dedup so an X
    // owner fetches each input value once even if it appears in many of its
    // triangles. Sorting fixes the message order.
    let mut a_fetches: Vec<(u32, u32, u32)> = Vec::with_capacity(triangles.len()); // (i, j, consumer)
    let mut b_fetches: Vec<(u32, u32, u32)> = Vec::with_capacity(triangles.len()); // (j, k, consumer)
    for t in triangles {
        let consumer = inst.placement.x.owner(t.i, t.k);
        a_fetches.push((t.i, t.j, consumer.0));
        b_fetches.push((t.j, t.k, consumer.0));
    }
    for fetches in [&mut a_fetches, &mut b_fetches] {
        fetches.sort_unstable();
        fetches.dedup();
    }
    let mut messages: Vec<Transfer> = Vec::with_capacity(a_fetches.len() + b_fetches.len());
    for &(i, j, consumer) in &a_fetches {
        let src = inst.placement.a.owner(i, j);
        let dst = lowband_model::NodeId(consumer);
        if src != dst {
            let key = Key::a(u64::from(i), u64::from(j));
            messages.push(Transfer {
                src,
                src_key: key,
                dst,
                dst_key: key,
                merge: Merge::Overwrite,
            });
        }
    }
    for &(j, k, consumer) in &b_fetches {
        let src = inst.placement.b.owner(j, k);
        let dst = lowband_model::NodeId(consumer);
        if src != dst {
            let key = Key::b(u64::from(j), u64::from(k));
            messages.push(Transfer {
                src,
                src_key: key,
                dst,
                dst_key: key,
                merge: Merge::Overwrite,
            });
        }
    }
    b.extend(&route(n, &messages)?)?;

    // All products are now local: one fused multiply-accumulate per
    // triangle into the X accumulator.
    let _ = ns_base;
    let mut ops = Vec::with_capacity(triangles.len());
    for t in triangles.iter() {
        let node = inst.placement.x.owner(t.i, t.k);
        ops.push(LocalOp::MulAdd {
            node,
            dst: Key::x(u64::from(t.i), u64::from(t.k)),
            lhs: Key::a(u64::from(t.i), u64::from(t.j)),
            rhs: Key::b(u64::from(t.j), u64::from(t.k)),
        });
    }
    b.compute(ops)?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::TriangleSet;
    use lowband_matrix::{gen, reference_multiply, Fp, SparseMatrix, Support};
    use rand::SeedableRng;

    #[test]
    fn trivial_matches_reference_on_us_instance() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let n = 32;
        let d = 3;
        let inst = Instance::new(
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
        );
        let ts = TriangleSet::enumerate(&inst);
        let s = solve_trivial(&inst, &ts.triangles, 0).unwrap();
        let a: SparseMatrix<Fp> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
        let b: SparseMatrix<Fp> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
        let mut m = inst.load_machine(&a, &b);
        m.run(&s).unwrap();
        assert_eq!(inst.extract_x(&m), reference_multiply(&a, &b, &inst.xhat));
    }

    #[test]
    fn trivial_rounds_bounded_by_d_squared_on_us() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let n = 64;
        for d in [2usize, 4] {
            let inst = Instance::new(
                gen::uniform_sparse(n, d, &mut rng),
                gen::uniform_sparse(n, d, &mut rng),
                gen::uniform_sparse(n, d, &mut rng),
            );
            let ts = TriangleSet::enumerate(&inst);
            let s = solve_trivial(&inst, &ts.triangles, 0).unwrap();
            // Out-degree of a B owner: each of its d entries serves ≤ d
            // consumers; plus symmetric A degree ⇒ ≤ 2d² rounds.
            assert!(
                s.rounds() <= 2 * d * d + 2,
                "d = {d}: {} rounds",
                s.rounds()
            );
        }
    }

    #[test]
    fn trivial_degrades_on_fan_out_instances() {
        // One B value feeds all n consumers (triangles (i, 0, 0) for all
        // i): direct fetch makes B's owner send ~n copies, while Lemma 3.1
        // spreads the value along a broadcast tree in O(log n) extra rounds.
        let n = 64;
        let ahat = Support::from_entries(n, n, (0..n as u32).map(|i| (i, 0)));
        let bhat = Support::from_entries(n, n, vec![(0, 0)]);
        let xhat = Support::from_entries(n, n, (0..n as u32).map(|i| (i, 0)));
        let inst = Instance::balanced(ahat, bhat, xhat);
        let ts = TriangleSet::enumerate(&inst);
        assert_eq!(ts.len(), n, "triangles (i, 0, 0)");
        let trivial = solve_trivial(&inst, &ts.triangles, 0).unwrap();
        let lemma =
            crate::lemma31::process_triangles(&inst, &ts.triangles, ts.kappa(n), 0).unwrap();
        assert!(
            trivial.rounds() >= n - 2,
            "B's owner must send ~n copies: {}",
            trivial.rounds()
        );
        assert!(
            lemma.rounds() < trivial.rounds() / 2,
            "lemma 3.1 ({}) must beat trivial ({})",
            lemma.rounds(),
            trivial.rounds()
        );
    }
}
