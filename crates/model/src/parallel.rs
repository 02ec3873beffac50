//! Contiguous-block sharding of `n` items across worker threads.
//!
//! The executors themselves are single-threaded; parallelism lives one
//! level up, where independent work is fanned out in contiguous blocks:
//! value-sets across batch workers (`lowband-core`'s parallel batch mode),
//! the admission backlog across `lowband-served`'s worker queues, and
//! requests across `loadgen`'s connections. [`shard_bounds`] is the one
//! partition they all share.

/// First item of each shard (length `threads + 1`; shard `s` owns
/// `bounds[s]..bounds[s+1]`). Item `i` lands in shard
/// `i * threads / n`, so blocks are contiguous and differ in size by at
/// most one.
///
/// Degenerate shapes are well defined: `threads > n` yields `threads - n`
/// empty shards (never out-of-bounds), and `threads == 0` yields
/// the zero-shard partition `[0]` — no shard owns anything, so a caller
/// with `n > 0` items must reject zero workers up front (the batch
/// executors raise [`crate::ModelError::ZeroWorkers`]).
pub fn shard_bounds(n: usize, threads: usize) -> Vec<usize> {
    if threads == 0 {
        return vec![0];
    }
    // Shard `s` starts at the first item `i` with `i * threads >= s * n`.
    (0..=threads).map(|s| (s * n).div_ceil(threads)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_zero_threads_is_the_empty_partition() {
        for n in [0usize, 1, 5, 100] {
            assert_eq!(shard_bounds(n, 0), vec![0], "n={n}");
        }
    }

    #[test]
    fn shard_bounds_with_more_threads_than_nodes_has_empty_tail_shards() {
        for (n, threads) in [(0usize, 4usize), (1, 8), (3, 7), (5, 64)] {
            let bounds = shard_bounds(n, threads);
            assert_eq!(bounds.len(), threads + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[threads], n);
            for s in 0..threads {
                assert!(
                    bounds[s] <= bounds[s + 1] && bounds[s + 1] <= n,
                    "n={n} t={threads} shard={s} bounds={bounds:?}"
                );
            }
            let owned: usize = (0..threads).map(|s| bounds[s + 1] - bounds[s]).sum();
            assert_eq!(owned, n, "every node owned exactly once");
        }
    }

    #[test]
    fn shard_bounds_partition_the_nodes() {
        for (n, threads) in [(10usize, 3usize), (7, 7), (16, 4), (5, 1), (1, 1)] {
            let bounds = shard_bounds(n, threads);
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[threads], n);
            for node in 0..n {
                let s = node * threads / n;
                assert!(
                    bounds[s] <= node && node < bounds[s + 1],
                    "n={n} t={threads} node={node} shard={s} bounds={bounds:?}"
                );
            }
        }
    }
}
