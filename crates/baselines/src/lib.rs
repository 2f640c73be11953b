//! # baselines — competitor partitioners for distributed band-joins
//!
//! The RecPart paper compares against three main competitors plus the distributed
//! IEJoin partitioning; all of them are implemented here behind the common
//! [`recpart::Partitioner`] trait so that the `distsim` executor can measure them under
//! identical conditions:
//!
//! * [`OneBucket`] — **1-Bucket** (Okcan & Riedewald): covers the entire `S × T` join
//!   matrix with an `r × c` grid; each S-tuple is assigned to a random row (and hence
//!   copied to all `c` cells of that row), each T-tuple to a random column. Near-perfect
//!   load balance, ~`√w` input duplication, independent of the join condition.
//! * [`GridPartitioner`] — **Grid-ε** (Soloviev's truncating hash generalized to `d`
//!   dimensions): partitions the attribute space into cells of side `ε_i` (or a
//!   multiple); S goes to its cell, T is copied to every neighbouring cell its ε-range
//!   intersects.
//! * [`GridStarPartitioner`] — **Grid\***: the paper's extension that tunes the grid
//!   cell size with the running-time cost model, coarsening until the predicted time
//!   stops improving.
//! * [`CsioPartitioner`] — **CSIO** (Vitorovic et al.): range-partitions a
//!   linearization of the attribute space with approximate quantiles, builds the
//!   (coarsened) candidate join matrix from input and output samples, and covers the
//!   candidate cells with at most `w` rectangles minimizing the maximum rectangle load
//!   (an M-Bucket-I style covering search).
//! * [`IEJoinPartitioner`] — the quantile/block partitioning used by distributed
//!   **IEJoin**, with its `sizePerBlock` knob.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod csio;
mod grid;
mod grid_star;
mod iejoin;
mod one_bucket;

pub use csio::{CsioConfig, CsioPartitioner, LinearizationOrder};
pub use grid::GridPartitioner;
pub use grid_star::{GridStarPartitioner, GridStarReport};
pub use iejoin::IEJoinPartitioner;
pub use one_bucket::OneBucket;
