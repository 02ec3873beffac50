//! Bipartite multigraph edge coloring.
//!
//! The message set of one routing phase is a bipartite multigraph: the left
//! side is "node *u* in its role as sender", the right side is "node *v* in
//! its role as receiver", and every message is an edge. A proper edge
//! coloring partitions the messages into matchings — and a matching is
//! exactly a set of messages that one low-bandwidth round can carry (each
//! node sends ≤ 1 and receives ≤ 1 message).
//!
//! König's edge-coloring theorem says Δ colors always suffice for bipartite
//! (multi)graphs, where Δ is the maximum degree. [`color_bipartite`]
//! implements the standard constructive proof (alternating-path recoloring),
//! achieving exactly Δ colors; [`greedy_color_bipartite`] is the cheap
//! first-fit alternative using at most `2Δ − 1` colors, kept for ablation
//! measurements.

/// An edge of the bipartite routing multigraph: `(sender, receiver)`.
pub type Edge = (u32, u32);

/// Maximum degree of the bipartite multigraph spanned by `edges`:
/// `max(max out-degree of a sender, max in-degree of a receiver)`.
pub fn max_degree(edges: &[Edge]) -> usize {
    let mut out: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut inc: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut best = 0;
    for &(u, v) in edges {
        let o = out.entry(u).or_insert(0);
        *o += 1;
        best = best.max(*o);
        let i = inc.entry(v).or_insert(0);
        *i += 1;
        best = best.max(*i);
    }
    best
}

/// Compress arbitrary `u32` ids appearing in `it` into dense `0..k` indices.
fn compress(ids: impl Iterator<Item = u32>) -> std::collections::HashMap<u32, usize> {
    let mut map = std::collections::HashMap::new();
    for id in ids {
        let next = map.len();
        map.entry(id).or_insert(next);
    }
    map
}

/// Proper edge coloring of a bipartite multigraph with exactly Δ colors.
///
/// Returns `colors[e]` for each edge, with `colors[e] < Δ` and no two edges
/// sharing a sender or sharing a receiver getting the same color. Runs the
/// classic alternating-path (Kempe chain) argument: O(E · Δ) time in the
/// worst case, fast in practice.
pub fn color_bipartite(edges: &[Edge]) -> Vec<usize> {
    if edges.is_empty() {
        return Vec::new();
    }
    let delta = max_degree(edges);
    let left = compress(edges.iter().map(|&(u, _)| u));
    let right = compress(edges.iter().map(|&(_, v)| v));

    // at[side][node][color] = edge id or usize::MAX
    const NONE: usize = usize::MAX;
    let mut at_l = vec![NONE; left.len() * delta];
    let mut at_r = vec![NONE; right.len() * delta];
    let mut colors = vec![NONE; edges.len()];

    let slot_l = |node: usize, c: usize| node * delta + c;
    let slot_r = |node: usize, c: usize| node * delta + c;

    for (e, &(u, v)) in edges.iter().enumerate() {
        let lu = left[&u];
        let rv = right[&v];
        // Free colors exist because each endpoint has degree ≤ Δ and at most
        // Δ − 1 of its edges are colored so far.
        let cu = (0..delta)
            .find(|&c| at_l[slot_l(lu, c)] == NONE)
            .expect("sender must have a free color");
        let cv = (0..delta)
            .find(|&c| at_r[slot_r(rv, c)] == NONE)
            .expect("receiver must have a free color");
        if cu == cv {
            colors[e] = cu;
            at_l[slot_l(lu, cu)] = e;
            at_r[slot_r(rv, cu)] = e;
            continue;
        }
        // Kempe chain: the maximal alternating path starting at v with
        // colors cu, cv, cu, … . By the standard parity argument the path
        // never reaches u (arrivals at left vertices always use color cu,
        // which is free at u), so after swapping cu ↔ cv along the chain,
        // color cu is free at both u and v.
        //
        // Pass 1: collect the chain.
        let mut chain: Vec<usize> = Vec::new();
        let mut cur_edge = at_r[slot_r(rv, cu)];
        let mut from_right = true; // side at which cur_edge was discovered
        let mut other = cv; // color of the *next* edge on the chain
        while cur_edge != NONE {
            chain.push(cur_edge);
            let (eu, ev) = edges[cur_edge];
            cur_edge = if from_right {
                // Discovered via right endpoint; continue from the left one.
                at_l[slot_l(left[&eu], other)]
            } else {
                at_r[slot_r(right[&ev], other)]
            };
            from_right = !from_right;
            other = if other == cu { cv } else { cu };
        }
        // Pass 2: unregister every chain edge, then flip and re-register.
        for &ce in &chain {
            let (eu, ev) = edges[ce];
            let c = colors[ce];
            at_l[slot_l(left[&eu], c)] = NONE;
            at_r[slot_r(right[&ev], c)] = NONE;
        }
        for &ce in &chain {
            let (eu, ev) = edges[ce];
            let c = if colors[ce] == cu { cv } else { cu };
            colors[ce] = c;
            debug_assert_eq!(at_l[slot_l(left[&eu], c)], NONE);
            debug_assert_eq!(at_r[slot_r(right[&ev], c)], NONE);
            at_l[slot_l(left[&eu], c)] = ce;
            at_r[slot_r(right[&ev], c)] = ce;
        }
        // Now color cu is free at both u and v.
        debug_assert_eq!(at_l[slot_l(lu, cu)], NONE);
        debug_assert_eq!(at_r[slot_r(rv, cu)], NONE);
        colors[e] = cu;
        at_l[slot_l(lu, cu)] = e;
        at_r[slot_r(rv, cu)] = e;
    }
    colors
}

/// First-fit proper edge coloring; uses at most `2Δ − 1` colors.
///
/// Kept as the ablation baseline: it is what a naive implementation of
/// Lemma 3.1's routing phases would do, and the benches compare its round
/// counts against the exact Δ coloring.
pub fn greedy_color_bipartite(edges: &[Edge]) -> Vec<usize> {
    let mut used_l: std::collections::HashMap<u32, Vec<bool>> = std::collections::HashMap::new();
    let mut used_r: std::collections::HashMap<u32, Vec<bool>> = std::collections::HashMap::new();
    let mut colors = Vec::with_capacity(edges.len());
    for &(u, v) in edges {
        let lu = used_l.entry(u).or_default();
        let rv = used_r.entry(v).or_default();
        let mut c = 0;
        loop {
            let free_l = lu.get(c).copied().unwrap_or(false);
            let free_r = rv.get(c).copied().unwrap_or(false);
            if !free_l && !free_r {
                break;
            }
            c += 1;
        }
        if lu.len() <= c {
            lu.resize(c + 1, false);
        }
        if rv.len() <= c {
            rv.resize(c + 1, false);
        }
        lu[c] = true;
        rv[c] = true;
        colors.push(c);
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_proper(edges: &[Edge], colors: &[usize]) {
        use std::collections::HashSet;
        let mut seen: HashSet<(bool, u32, usize)> = HashSet::new();
        for (e, &(u, v)) in edges.iter().enumerate() {
            assert!(
                seen.insert((false, u, colors[e])),
                "sender {u} repeats color {}",
                colors[e]
            );
            assert!(
                seen.insert((true, v, colors[e])),
                "receiver {v} repeats color {}",
                colors[e]
            );
        }
    }

    #[test]
    fn empty_graph() {
        assert!(color_bipartite(&[]).is_empty());
        assert_eq!(max_degree(&[]), 0);
    }

    #[test]
    fn perfect_matching_uses_one_color() {
        let edges: Vec<Edge> = (0..10).map(|i| (i, 100 + i)).collect();
        let colors = color_bipartite(&edges);
        assert_proper(&edges, &colors);
        assert!(colors.iter().all(|&c| c == 0));
    }

    #[test]
    fn star_uses_degree_colors() {
        // One sender to many receivers: Δ = 5, need exactly 5 colors.
        let edges: Vec<Edge> = (0..5).map(|i| (7, i)).collect();
        let colors = color_bipartite(&edges);
        assert_proper(&edges, &colors);
        assert_eq!(*colors.iter().max().unwrap() + 1, 5);
    }

    #[test]
    fn complete_bipartite_k33() {
        let mut edges = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                edges.push((u, 10 + v));
            }
        }
        let colors = color_bipartite(&edges);
        assert_proper(&edges, &colors);
        assert_eq!(
            *colors.iter().max().unwrap() + 1,
            3,
            "K3,3 is 3-edge-colorable"
        );
    }

    #[test]
    fn multigraph_parallel_edges() {
        // Three parallel edges between the same pair: Δ = 3.
        let edges = vec![(0, 1), (0, 1), (0, 1)];
        let colors = color_bipartite(&edges);
        assert_proper(&edges, &colors);
        assert_eq!(*colors.iter().max().unwrap() + 1, 3);
    }

    #[test]
    fn self_node_both_sides_is_fine() {
        // A node id may appear as sender and receiver (it is two different
        // vertices of the bipartite graph).
        let edges = vec![(0, 0), (0, 1), (1, 0)];
        let colors = color_bipartite(&edges);
        assert_proper(&edges, &colors);
        assert_eq!(*colors.iter().max().unwrap() + 1, 2);
    }

    #[test]
    fn adversarial_chain_forcing_flips() {
        // Path-like structure known to trigger alternating-path recoloring.
        let edges = vec![
            (0, 10),
            (1, 10),
            (1, 11),
            (2, 11),
            (2, 12),
            (0, 12),
            (0, 11),
        ];
        let colors = color_bipartite(&edges);
        assert_proper(&edges, &colors);
        assert_eq!(*colors.iter().max().unwrap() + 1, max_degree(&edges));
    }

    #[test]
    fn greedy_is_proper_and_bounded() {
        let mut edges = Vec::new();
        for u in 0..8 {
            for v in 0..8 {
                if (u + v) % 3 != 0 {
                    edges.push((u, 100 + v));
                }
            }
        }
        let colors = greedy_color_bipartite(&edges);
        assert_proper(&edges, &colors);
        let delta = max_degree(&edges);
        assert!(*colors.iter().max().unwrap() < 2 * delta - 1);
    }

    #[test]
    fn random_instances_hit_delta_exactly() {
        // Deterministic pseudo-random multigraph; exact coloring must always
        // land on exactly Δ colors.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            let m = 50 + (trial * 37) % 200;
            let edges: Vec<Edge> = (0..m)
                .map(|_| ((next() % 23) as u32, (next() % 17) as u32))
                .collect();
            let colors = color_bipartite(&edges);
            assert_proper(&edges, &colors);
            assert_eq!(
                *colors.iter().max().unwrap() + 1,
                max_degree(&edges),
                "trial {trial}"
            );
        }
    }
}
