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

/// Assert that `p` joins `s` and `t` exactly once: every S-tuple is assigned to some
/// partition, so is every T-tuple of a pair `band` matches, and the two tuples of
/// every such pair meet in exactly one partition. Returns the most partitions any
/// S-tuple was assigned to.
#[cfg(test)]
fn assert_exactly_once(
    p: &dyn recpart::Partitioner,
    s: &recpart::Relation,
    t: &recpart::Relation,
    band: &recpart::BandCondition,
) -> usize {
    let mut s_parts = Vec::new();
    let mut t_parts = Vec::new();
    let mut most_s_copies = 0;
    for (si, sk) in s.iter().enumerate() {
        s_parts.clear();
        p.assign_s(&sk, si as u64, &mut s_parts);
        assert!(!s_parts.is_empty(), "S#{si} unassigned");
        most_s_copies = most_s_copies.max(s_parts.len());
        for (ti, tk) in t.iter().enumerate() {
            if !band.matches(&sk, &tk) {
                continue;
            }
            t_parts.clear();
            p.assign_t(&tk, ti as u64, &mut t_parts);
            assert!(!t_parts.is_empty(), "T#{ti} unassigned");
            let common = s_parts.iter().filter(|x| t_parts.contains(x)).count();
            assert_eq!(common, 1, "pair (S#{si}, T#{ti}) met {common} times");
        }
    }
    most_s_copies
}
