//! # recpart — near-optimal distributed band-joins through recursive partitioning
//!
//! This crate implements the core contribution of the SIGMOD 2020 paper
//! *"Near-Optimal Distributed Band-Joins through Recursive Partitioning"*
//! (Li, Gatterbauer, Riedewald): the **RecPart** algorithm, which partitions the
//! d-dimensional join-attribute space of a band-join `S ⋈_B T` so that the work can be
//! spread over `w` distributed workers while keeping both
//!
//! * the **total input** (original tuples plus duplicates created at partition
//!   boundaries), and
//! * the **maximum worker load** `L_m = max_i (β₂·I_i + β₃·O_i)`
//!
//! close to their respective lower bounds.
//!
//! ## Crate layout
//!
//! The modules are private: the `pub use` list at the end of this file is the crate's
//! whole public surface (DESIGN.md, "The public surface").
//!
//! | module | contents |
//! |---|---|
//! | `relation` | columnar (one contiguous array per dimension) [`Relation`] storage for join-key vectors |
//! | `band` | [`BandCondition`] — per-dimension (possibly asymmetric) band widths |
//! | `geometry` | [`Rect`] — axis-aligned hyper-rectangles of the attribute space |
//! | `load` | [`LoadModel`] (β coefficients), per-worker loads, lower bounds |
//! | `metrics` | [`PartitioningStats`] — I, Im, Om, Lm and overhead-vs-lower-bound measures |
//! | `parallel` | [`Parallelism`], the one fan-out primitive (an ordered map over scoped threads) every `threads` knob uses |
//! | `partition` | the [`Partitioner`] trait every partitioning strategy implements |
//! | `sample` | [`InputSample`] and band-join [`OutputSample`]s |
//! | `split_tree` | the recursive [`SplitTree`] grown by RecPart |
//! | `router` | the split tree compiled into flat per-side routing tables ([`CompiledRouter`]) |
//! | `simd` | runtime-dispatched batch routing and join kernels ([`RouteKernel`], [`JoinKernel`]) |
//! | `scoring` | [`SplitScore`]: load-variance reduction / duplication increase |
//! | `small` | [`BucketGrid`], 1-Bucket style internal sub-partitioning of "small" leaves |
//! | [`recpart`] | the optimizer driver, [`RecPart`] (Algorithm 1 of the paper) |
//! | `config` | [`RecPartConfig`], [`Termination`] conditions |
//!
//! ## Quick example
//!
//! ```
//! use recpart::{BandCondition, Partitioner, RecPart, RecPartConfig, Relation};
//! use rand::{rngs::StdRng, SeedableRng, Rng};
//!
//! // Two small 1-D relations.
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut s = Relation::new(1);
//! let mut t = Relation::new(1);
//! for _ in 0..2000 {
//!     s.push(&[rng.gen::<f64>() * 100.0]);
//!     t.push(&[rng.gen::<f64>() * 100.0]);
//! }
//! let band = BandCondition::symmetric(&[0.5]);
//!
//! // Partition for 8 workers.
//! let config = RecPartConfig::new(8);
//! let result = RecPart::new(config).optimize(&s, &t, &band, &mut rng);
//! let partitioner = result.partitioner;
//! assert!(partitioner.num_partitions() >= 8);
//!
//! // Every tuple is assigned to at least one partition.
//! let mut out = Vec::new();
//! partitioner.assign_s(&s.key(0), 0, &mut out);
//! assert!(!out.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod band;
mod config;
mod error;
mod geometry;
mod load;
mod metrics;
mod parallel;
mod partition;
/// The optimizer driver. Every item here is re-exported below; the module itself stays
/// public only because the benchmark package names `recpart::recpart::OptimizationReport`.
pub mod recpart;
mod relation;
mod router;
mod sample;
mod scoring;
mod simd;
mod small;
mod split_tree;

pub use band::BandCondition;
pub use config::{RecPartConfig, Termination};
pub use error::RecPartError;
pub use geometry::Rect;
pub use load::{LeastLoaded, LoadModel};
pub use metrics::{
    EvalCounters, PartitioningStats, PlanCacheCounters, SplitSearchCounters, WorkerLoad,
};
pub use parallel::{chunk_ranges, Parallelism};
pub use partition::{
    AssignmentSink, PartitionId, Partitioner, SinglePartition, DEFAULT_BLOCK_TUPLES,
};
pub use recpart::{OptimizationReport, RecPart, RecPartResult, SplitTreePartitioner};
pub use relation::{Key, Relation};
pub use router::CompiledRouter;
pub use sample::{InputSample, OutputSample, SampleConfig};
pub use scoring::SplitScore;
pub use simd::{JoinKernel, Kernel, RouteKernel, WindowKernel};
pub use small::{stable_hash, BucketGrid};
pub use split_tree::{Node, SplitKind, SplitTree};

/// The fan-out primitive through the crate's public exports, the way the `distsim`
/// crate reaches it: [`Parallelism::map`]'s input order and coverage, and the
/// [`chunk_ranges`] split it claims from.
#[cfg(test)]
mod tests {
    use super::{chunk_ranges, Parallelism};
    use std::thread;

    #[test]
    fn map_collect_preserves_order() {
        let out = Parallelism::new(4).map((0..1_000).collect(), |i: usize| i * 2);
        assert_eq!(out, (0..1_000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collected_order_is_stable_across_runs() {
        let expected: Vec<usize> = (0..5_000).map(|i| i * 3 + 1).collect();
        for _ in 0..5 {
            let out = Parallelism::new(4).map((0..5_000).collect(), |i: usize| i * 3 + 1);
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn collect_len_matches_input_len_for_awkward_sizes() {
        // Sizes around chunk boundaries: primes, one-more-than-multiples, tiny.
        for threads in [1, 4] {
            for n in [0usize, 1, 2, 31, 64, 65, 1_009] {
                let out = Parallelism::new(threads).map((0..n).collect(), |i: usize| i);
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let caller = thread::current().id();
        let out =
            Parallelism::new(1).map((0..10).collect(), |i: usize| (i, thread::current().id()));
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(
            out.iter().all(|&(_, id)| id == caller),
            "one thread runs on the caller"
        );
    }

    #[test]
    fn split_into_chunks_preserves_order_and_covers_everything() {
        for (n, pieces) in [(10usize, 3usize), (4, 4), (7, 16), (1, 2), (1_000, 7)] {
            let items: Vec<usize> = (0..n).collect();
            let chunks: Vec<&[usize]> = chunk_ranges(n, pieces)
                .into_iter()
                .map(|(lo, hi)| &items[lo..hi])
                .collect();
            assert!(chunks.len() <= pieces.max(1));
            assert!(
                chunks.iter().all(|c| !c.is_empty()),
                "n={n} pieces={pieces}"
            );
            let flat: Vec<usize> = chunks.concat();
            assert_eq!(flat, items, "n={n} pieces={pieces}");
        }
    }
}
