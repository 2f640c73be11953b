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
//! | `parallel` | [`Parallelism`], the shared sequential / ambient / bounded-pool dispatch every `threads` knob uses |
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
pub use parallel::{chunk_ranges, Parallelism, Threads};
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
