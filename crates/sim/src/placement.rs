//! Where partitions run: the one placement rule every backend that packs
//! partitions onto fewer workers shares.
//!
//! The paper gives each partition its own FPGA because FPGAs are the
//! scarce resource; on a host, cores are. So a backend runs `P`
//! partitions on `min(P, cap)` workers, each hosting a contiguous run of
//! them in FireRipper's order: the threads backend places partition
//! threads on OS threads, the net backend places partitions on worker
//! processes.

/// Resolves a pool of workers for `n` (> 0) items on a host with `cores`
/// usable cores, returning the worker that hosts each item.
///
/// `requested == 0` asks for one worker per core; any other value is an
/// explicit cap. Either way there are `W = min(cap, n)` workers (at least
/// one), and item `i` goes to worker `i · W / n`: each worker hosts a
/// contiguous run of items, and run lengths differ by at most one. Worker
/// indices never decrease along the items, so the last entry is `W - 1`.
#[must_use]
pub fn placement(n: usize, requested: usize, cores: usize) -> Vec<usize> {
    let n_workers = pool_size(n, requested, cores);
    (0..n).map(|i| i * n_workers / n).collect()
}

/// The worker count `W` of a [`placement`]: `min(cap, n)`, at least one,
/// where `requested == 0` caps at `cores`.
#[must_use]
pub fn pool_size(n: usize, requested: usize, cores: usize) -> usize {
    let cap = if requested == 0 { cores } else { requested };
    cap.clamp(1, n.max(1))
}

/// Cores this process may run on (CPU affinity and cgroup quota
/// respected), 1 if the host cannot say. Queried once per process.
#[must_use]
pub fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

#[cfg(test)]
mod tests {
    use super::placement;

    #[test]
    fn placement_resolves_the_pool_size() {
        let workers = |n, requested, cores| {
            let w = placement(n, requested, cores)[n - 1] + 1;
            assert_eq!(w, super::pool_size(n, requested, cores));
            w
        };
        // Requested 0: one worker per core, never more than one per item.
        assert_eq!(workers(4, 0, 2), 2);
        assert_eq!(workers(4, 0, 1), 1);
        assert_eq!(workers(4, 0, 16), 4);
        // An explicit cap, whatever the core count.
        assert_eq!(workers(4, 3, 1), 3);
        assert_eq!(workers(4, 9, 2), 4);
        assert_eq!(workers(1, 0, 8), 1);
        assert!(placement(0, 0, 2).is_empty());
    }

    #[test]
    fn placement_deals_contiguous_balanced_runs() {
        for n in 1..=12 {
            for requested in 0..=n + 1 {
                for cores in 1..=4 {
                    let worker_of = placement(n, requested, cores);
                    assert_eq!(worker_of.len(), n, "every item placed once");
                    let n_workers = worker_of[n - 1] + 1;
                    // Runs: consecutive items share a worker or move to
                    // the next one, starting at worker 0.
                    assert_eq!(worker_of[0], 0);
                    assert!(worker_of
                        .windows(2)
                        .all(|w| w[0] <= w[1] && w[1] <= w[0] + 1));
                    let mut lens = vec![0usize; n_workers];
                    for &w in &worker_of {
                        lens[w] += 1;
                    }
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(
                        *min >= 1 && max - min <= 1,
                        "{n}/{requested}/{cores}: {lens:?}"
                    );
                }
            }
        }
    }
}
