//! Shared parallelism context for every multi-core phase of the system.
//!
//! Both the RecPart optimizer's output sampler ([`crate::sample`],
//! `RecPartConfig::threads` — the split search itself is sequential) and the
//! simulated-cluster executor in the `distsim` crate (`ExecutorConfig::threads`) honour
//! the same three-way `threads` knob. This module centralizes the dispatch so no phase
//! re-implements the sequential / ambient-pool / bounded-pool cases:
//!
//! * [`Parallelism::Sequential`] — `threads == 1`: plain loops, no thread pool at all;
//! * [`Parallelism::Ambient`] — `threads == 0`: the surrounding rayon context (the
//!   global pool with real rayon), no per-call pool construction;
//! * [`Parallelism::Pool`] — `threads == n > 1`: an explicit bounded pool built once
//!   per optimizer / executor.
//!
//! Every caller is required to keep its results **bit-identical** across all three
//! variants: parallel fan-outs go over deterministic work lists (contiguous index
//! chunks from [`chunk_ranges`]) and reductions merge the partial results in work-list
//! order, so the thread count is a pure wall-clock knob.

use rayon::ThreadPool;
use std::sync::Arc;

/// How a phase should run its work.
#[derive(Debug, Clone, Copy)]
pub enum Parallelism<'a> {
    /// Strictly sequential: no thread pool involved.
    Sequential,
    /// The ambient rayon context (all cores unless a caller installed a pool).
    Ambient,
    /// An explicit pool bounding the thread count.
    Pool(&'a ThreadPool),
}

impl Parallelism<'_> {
    /// Number of threads parallel work run through [`run`](Self::run) will use.
    pub fn threads(&self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Ambient => rayon::current_num_threads().max(1),
            Parallelism::Pool(pool) => pool.current_num_threads().max(1),
        }
    }

    /// Whether work run under this context may actually fan out over threads.
    pub fn is_parallel(&self) -> bool {
        !matches!(self, Parallelism::Sequential)
    }

    /// Run `op` under this context: inside the bounded pool for
    /// [`Parallelism::Pool`], directly otherwise. Parallel iterators inside `op`
    /// then pick up the intended thread count.
    pub fn run<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match self {
            Parallelism::Pool(pool) => pool.install(op),
            _ => op(),
        }
    }
}

/// Owner of what a `threads` setting needs to exist between calls: the bounded pool
/// for `threads > 1`, built once so repeated `optimize` / `execute` calls do not pay
/// pool construction, and nothing otherwise. Cloning shares the pool.
#[derive(Debug, Clone)]
pub struct Threads {
    threads: usize,
    pool: Option<Arc<ThreadPool>>,
}

impl Threads {
    /// Build the holder for a three-way `threads` setting (see the module docs).
    pub fn new(threads: usize) -> Self {
        let pool = (threads > 1).then(|| {
            Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("building the bounded thread pool"),
            )
        });
        Threads { threads, pool }
    }

    /// The parallelism context work under this setting runs in.
    pub fn parallelism(&self) -> Parallelism<'_> {
        match self.threads {
            1 => Parallelism::Sequential,
            0 => Parallelism::Ambient,
            _ => Parallelism::Pool(self.pool.as_ref().expect("pool exists when threads > 1")),
        }
    }
}

/// Contiguous `(lo, hi)` ranges covering `0..n` in at most `pieces` chunks of
/// near-equal size, in ascending order. Shared by every phase that fans work out over
/// contiguous index chunks and merges results back in chunk order.
pub fn chunk_ranges(n: usize, pieces: usize) -> Vec<(usize, usize)> {
    let pieces = pieces.clamp(1, n.max(1));
    let chunk = n.div_ceil(pieces).max(1);
    (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_everything_once() {
        for (n, pieces) in [
            (10usize, 3usize),
            (7, 7),
            (5, 16),
            (1, 4),
            (0, 3),
            (4_096, 5),
        ] {
            let ranges = chunk_ranges(n, pieces);
            let mut next = 0;
            for (lo, hi) in ranges {
                assert_eq!(lo, next, "n={n} pieces={pieces}");
                assert!(hi > lo);
                next = hi;
            }
            assert_eq!(next, n, "n={n} pieces={pieces}");
        }
    }

    #[test]
    fn sequential_reports_one_thread() {
        assert_eq!(Parallelism::Sequential.threads(), 1);
        assert!(!Parallelism::Sequential.is_parallel());
        assert!(!Threads::new(1).parallelism().is_parallel());
    }

    #[test]
    fn ambient_reports_at_least_one_thread() {
        assert!(Parallelism::Ambient.threads() >= 1);
        assert!(Parallelism::Ambient.is_parallel());
        assert!(matches!(
            Threads::new(0).parallelism(),
            Parallelism::Ambient
        ));
    }

    #[test]
    fn pool_bounds_threads_inside_run() {
        // A clone of the holder shares its pool.
        let holder = Threads::new(2).clone();
        let par = holder.parallelism();
        assert!(matches!(par, Parallelism::Pool(_)));
        assert_eq!(par.threads(), 2);
        let inside = par.run(rayon::current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn run_returns_the_closure_result() {
        assert_eq!(Parallelism::Sequential.run(|| 41 + 1), 42);
        assert_eq!(Parallelism::Ambient.run(|| "ok"), "ok");
    }
}
