//! # distsim — distributed band-join execution substrate
//!
//! The paper evaluates partitioning strategies on a 30-node Amazon EMR cluster. This
//! crate provides the equivalent substrate as a deterministic, in-process simulator so
//! that every experiment of the paper can be re-run on a single machine. The modules
//! are private; the `pub use` list below is the crate's public surface.
//!
//! * `local_join` — the per-worker band-join (the index-nested-loop over sorted
//!   ε-ranges the paper's reducers use, [`probe_sorted`] over a [`SortedProbeSide`]),
//!   which also reports the number of candidate comparisons it performed;
//! * `executor` — the map–shuffle–reduce pipeline ([`Executor`]): routes every tuple
//!   through a [`recpart::Partitioner`], materializes per-partition inputs, maps
//!   partitions onto workers (modelling the dynamic scheduler with a
//!   longest-processing-time heuristic), runs the local joins, and reports the paper's
//!   success measures (`I`, `I_m`, `O_m`, `L_m`, overheads vs. lower bounds) in an
//!   [`ExecutionReport`]. Every phase — map/shuffle, local joins, verification — fans
//!   out over threads under one `threads` knob and reports its own measured wall-clock.
//!   There is **one** reduce (DESIGN.md §5): `execute`, `execute_prepared`,
//!   `execute_supervised` and a served query differ only in the arenas they bring and
//!   the schedule they ask for;
//! * `shuffle` — the chunked parallel tuple-routing fan-out (fixed 64k-tuple
//!   chunks, each routed once and its pairs replayed into the arena) whose merged
//!   per-partition index lists ([`ShuffledInputs`]) are bit-identical to sequential
//!   routing;
//! * `cost_model` — the running-time model `M(I, I_m, O_m) = β₀ + β₁I + β₂I_m + β₃O_m`
//!   of Li et al. \[24\] ([`CostModel`]), with least-squares fitting over a
//!   calibration benchmark;
//! * `machine` — the synthetic "ground truth" cluster timing model (`MachineModel`)
//!   used in place of real wall-clock measurements (shuffle + per-worker
//!   scan/compare/emit costs), which the linear cost model is fitted against;
//! * `verify` — exact single-node joins ([`exact_join_count`], [`exact_join_pairs`])
//!   used to validate the exactly-once property of every partitioner;
//! * `faults` / `supervise` — deterministic seeded fault injection ([`FaultPlan`]:
//!   panics, I/O errors, stragglers at every pipeline stage) and the one sharded path,
//!   `Executor::execute_supervised`: the reduce phase as shared-nothing shards
//!   over contiguous partition ranges (per-shard accounting in [`ShardStats`]) under
//!   `catch_unwind` worker isolation, retry with capped exponential backoff,
//!   deadline-triggered speculation, and graceful degradation into partial
//!   reports with structured per-shard errors — bit-identical to the unsharded
//!   path whenever no shard is lost;
//! * `plan_cache` / `serve` — the query-serving tier: a long-running
//!   [`BandJoinService`] loads the dataset once and answers a stream of band-join
//!   queries from a plan cache of compiled partitionings plus their shuffled CSR
//!   arenas (LRU by arena bytes, keyed on dataset generations + band + worker count,
//!   with band-subsumption reuse) — warm queries skip optimize/compile/shuffle and
//!   run only the reduce phase, bit-identical to a one-shot execution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cost_model;
mod executor;
mod faults;
mod join_ready;
mod local_join;
mod machine;
mod metrics;
mod plan_cache;
mod serve;
mod shuffle;
mod supervise;
mod verify;

pub use cost_model::{CalibrationPoint, CostModel};
pub use executor::{
    ExecutionReport, Executor, ExecutorConfig, PartitionLoad, ShardPlan, VerificationLevel,
};
pub use faults::{FaultKind, FaultPlan, FaultSpec, InjectionPoint};
pub use local_join::{probe_sorted, LocalJoinResult, SortedProbeSide};
pub use metrics::{process_peak_rss_bytes, RecoveryCounters, ShardStats};
pub use recpart::JoinKernel;
pub use serve::{
    BandJoinQuery, BandJoinService, PlanSource, QueryResponse, ServeError, ServiceConfig,
    ServiceHealth,
};
pub use shuffle::{PartitionedIndex, ShuffledInputs};
pub use supervise::{
    ShardError, ShardFailureKind, SuperviseError, SupervisedExecution, SupervisorConfig,
};
pub use verify::{exact_join_count, exact_join_count_on, exact_join_pairs};
