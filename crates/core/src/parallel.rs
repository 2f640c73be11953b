//! The one fan-out primitive every multi-core phase of the system runs on.
//!
//! Both the RecPart optimizer's output sampler ([`crate::sample`],
//! `RecPartConfig::threads` — the split search itself is sequential) and the
//! simulated-cluster executor in the `distsim` crate (`ExecutorConfig::threads`) honour
//! the same `threads` knob: `0` = all available cores, `1` = sequential, `n` = `n`
//! threads. [`Parallelism::new`] resolves it once, when the optimizer or executor is
//! built, and [`Parallelism::map`] is the one way work fans out: a fixed work list
//! over scoped threads, results in list order.
//!
//! Every caller is required to keep its results **bit-identical** across thread
//! counts: parallel fan-outs go over deterministic work lists (contiguous index
//! chunks from [`chunk_ranges`]) and reductions merge the partial results in work-list
//! order, so the thread count is a pure wall-clock knob.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Contiguous chunks of a [`Parallelism::map`] work list per thread: a few, so
/// skewed per-item costs still balance across threads, while a worker pays one claim
/// per chunk instead of one per item.
const CHUNKS_PER_THREAD: usize = 8;

/// How many threads a phase fans its work out over: a resolved count, at least 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Resolve a `threads` setting: `0` uses every available core, `1` runs strictly
    /// sequentially, `n > 1` uses `n` threads.
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Parallelism { threads }
    }

    /// The resolved thread count, at least 1.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Apply `f` to every item and return the results in input order.
    ///
    /// Runs inline with one thread or at most one item. Otherwise spawns
    /// `min(threads, items)` scoped threads that claim contiguous chunks of the list
    /// from an atomic cursor. Every worker is joined before a worker's panic is
    /// re-raised with its original payload, so a `catch_unwind` supervisor above sees
    /// the fault itself.
    pub fn map<T: Send, R: Send>(self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        let n = items.len();
        let threads = self.threads.min(n);
        if threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        let mut items = items.into_iter();
        let chunks: Vec<Mutex<Vec<T>>> = chunk_ranges(n, threads * CHUNKS_PER_THREAD)
            .into_iter()
            .map(|(lo, hi)| Mutex::new(items.by_ref().take(hi - lo).collect()))
            .collect();
        // The cursor only hands out chunk indices, each to exactly one worker; the
        // chunks themselves pass through their mutexes, so `Relaxed` suffices.
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(c) else {
                    return done;
                };
                // The guard is a temporary, dropped before `f` runs on the chunk.
                let chunk = std::mem::take(&mut *chunk.lock().expect("no guard outlives a take"));
                done.push((c, chunk.into_iter().map(&f).collect::<Vec<R>>()));
            }
        };
        let joined: Vec<_> = thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers.into_iter().map(|w| w.join()).collect()
        });
        let mut done = Vec::with_capacity(chunks.len());
        for worker in joined {
            done.extend(worker.unwrap_or_else(|payload| panic::resume_unwind(payload)));
        }
        done.sort_unstable_by_key(|&(c, _)| c);
        let mut out = Vec::with_capacity(n);
        for (_, results) in done {
            out.extend(results);
        }
        out
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
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

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
        assert_eq!(Parallelism::new(1).threads(), 1);
        assert_eq!(Parallelism::new(4).threads(), 4);
    }

    #[test]
    fn zero_resolves_to_at_least_one_thread() {
        assert!(Parallelism::new(0).threads() >= 1);
    }

    #[test]
    fn pool_bounds_threads_inside_run() {
        // `map` runs on at most the resolved number of worker threads.
        let par = Parallelism::new(2);
        assert_eq!(par.threads(), 2);
        let ids = par.map((0..256).collect(), |_: usize| thread::current().id());
        assert_eq!(ids.len(), 256);
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() <= 2, "{} worker threads", distinct.len());
    }

    #[test]
    fn chunked_claiming_visits_every_item_exactly_once() {
        let n: usize = 10_000;
        let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let out = Parallelism::new(4).map((0..n).collect(), |i: usize| {
            visits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), n);
        for (i, v) in visits.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), 1, "item {i} visited wrong count");
        }
    }

    #[test]
    fn input_order_survives_interleaved_claims() {
        // Two workers, one item per chunk. Item 1 waits for item 2, which the worker
        // holding item 1 cannot reach: the worker that took item 0 must also take
        // item 2, so neither worker's results are a contiguous run of the input.
        let (first, second) = (Barrier::new(2), Barrier::new(2));
        let out = Parallelism::new(2).map((0..16).collect(), |i: usize| {
            match i {
                0 => {
                    first.wait();
                }
                1 => {
                    first.wait();
                    second.wait();
                }
                2 => {
                    second.wait();
                }
                _ => {}
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_runs_every_item() {
        let out = Parallelism::new(16).map(vec![1u64, 2, 3], |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn skewed_work_completes() {
        // Heavily skewed per-item cost; chunked claiming must still finish in order.
        let out = Parallelism::new(4).map((0..64).collect(), |i: usize| {
            let reps = if i == 0 { 200_000u64 } else { 100 };
            (0..reps).sum::<u64>().wrapping_add(i as u64)
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1], (0..100u64).sum::<u64>() + 1);
    }

    #[test]
    fn worker_panic_propagates_with_original_payload() {
        // A panic inside a worker must unwind out of `map` with its original
        // payload (not a join error), so callers under `catch_unwind` can
        // recognize it.
        #[derive(Debug)]
        struct Marker(u32);
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let caught = panic::catch_unwind(|| {
            Parallelism::new(4).map((0..256).collect(), |i: usize| {
                if i == 97 {
                    panic::panic_any(Marker(97));
                }
                i
            })
        });
        panic::set_hook(prev);
        let payload = caught.expect_err("panic must propagate");
        let marker = payload.downcast_ref::<Marker>().expect("original payload");
        assert_eq!(marker.0, 97);
    }
}
