//! # band-join — distributed band-joins through recursive partitioning
//!
//! This is the facade crate of the workspace reproducing *"Near-Optimal Distributed
//! Band-Joins through Recursive Partitioning"* (SIGMOD 2020). It re-exports the public
//! API of the four underlying crates so that applications can depend on a single crate:
//!
//! * [`recpart`] — the RecPart optimizer and split-tree partitioner (the paper's
//!   contribution), plus the shared vocabulary types ([`Relation`](recpart::Relation),
//!   [`BandCondition`](recpart::BandCondition), the
//!   [`Partitioner`](recpart::Partitioner) trait, load models and partitioning
//!   statistics);
//! * [`baselines`] — the competitor partitioners (1-Bucket, Grid-ε, Grid*, CSIO,
//!   IEJoin-style blocks);
//! * [`distsim`] — the simulated MapReduce-style cluster: the local join, the
//!   executor that measures `I`, `I_m`, `O_m`, `L_m`, the linear running-time model, and
//!   correctness verification;
//! * [`datagen`] — workload generators and the experiment catalog of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use band_join::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Generate a small skewed workload (Pareto-distributed join attribute).
//! let mut rng = StdRng::seed_from_u64(42);
//! let s = datagen::pareto_relation(5_000, 1, 1.5, &mut rng);
//! let t = datagen::pareto_relation(5_000, 1, 1.5, &mut rng);
//! let band = BandCondition::symmetric(&[0.01]);
//!
//! // Find a partitioning for 8 workers with RecPart.
//! let result = RecPart::new(RecPartConfig::new(8)).optimize(&s, &t, &band, &mut rng);
//!
//! // Run the join on the simulated cluster and inspect the paper's success measures.
//! let report = Executor::with_workers(8).execute(&result.partitioner, &s, &t, &band);
//! assert_eq!(report.correct, Some(true));
//! println!(
//!     "I = {}, Im = {}, Om = {}, duplication overhead = {:.1}%",
//!     report.stats.total_input,
//!     report.stats.max_worker_input,
//!     report.stats.max_worker_output,
//!     100.0 * report.duplication_overhead(),
//! );
//! ```

pub use baselines;
pub use datagen;
pub use distsim;
pub use recpart;

/// One-stop imports for applications: what the quickstart, the README and the examples
/// use. Everything else is imported from its crate (`band_join::distsim::PlanCache`).
pub mod prelude {
    pub use baselines::{
        CsioConfig, CsioPartitioner, GridPartitioner, GridStarPartitioner, IEJoinPartitioner,
        OneBucket,
    };
    pub use datagen;
    pub use distsim::{CostModel, Executor};
    pub use recpart::{BandCondition, LoadModel, Partitioner, RecPart, RecPartConfig, Relation};
}
