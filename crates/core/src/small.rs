//! "Small" partitions and their 1-Bucket-style internal sub-partitioning.
//!
//! A split-tree leaf is *small* once its extent is below twice the band width in every
//! dimension (Section 4.2): essentially all S- and T-tuples inside it join with each
//! other, so the local computation behaves like a Cartesian product — for which
//! 1-Bucket [28] is near-optimal. Instead of further recursive splits, a small leaf
//! maintains an internal grid of `r` row × `c` column sub-partitions: every S-tuple is
//! assigned to one random row (and therefore copied to the `c` cells of that row), every
//! T-tuple to one random column (copied to `r` cells). Each candidate "split" of a small
//! leaf increments `r` or `c`, whichever gives the better ratio of variance reduction to
//! duplication increase.

use crate::scoring::{partition_load, variance_term, SplitScore};

/// The internal 1-Bucket grid of a small leaf: `rows × cols` sub-partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketGrid {
    /// Number of row sub-partitions (S-tuples pick a row).
    pub rows: u32,
    /// Number of column sub-partitions (T-tuples pick a column).
    pub cols: u32,
}

impl Default for BucketGrid {
    fn default() -> Self {
        BucketGrid { rows: 1, cols: 1 }
    }
}

impl BucketGrid {
    /// Total number of sub-partitions (cells).
    #[inline]
    pub fn cells(&self) -> u32 {
        self.rows * self.cols
    }

    /// Total input of the leaf under this grid, given the leaf's (un-duplicated) S and T
    /// input estimates: every S-tuple is copied `cols` times, every T-tuple `rows` times.
    #[inline]
    pub fn total_input(&self, s_input: f64, t_input: f64) -> f64 {
        s_input * self.cols as f64 + t_input * self.rows as f64
    }

    /// Expected load of one cell of the grid.
    #[inline]
    pub(crate) fn cell_load(
        &self,
        beta_input: f64,
        beta_output: f64,
        s_input: f64,
        t_input: f64,
        output: f64,
    ) -> f64 {
        let cell_input = s_input / self.rows as f64 + t_input / self.cols as f64;
        let cell_output = output / self.cells() as f64;
        partition_load(beta_input, beta_output, cell_input, cell_output)
    }

    /// Contribution of all cells of this grid to the load variance `Σ l_p²`, including
    /// the `(w−1)/w²` factor.
    #[inline]
    pub(crate) fn variance_contribution(
        &self,
        workers: usize,
        beta_input: f64,
        beta_output: f64,
        s_input: f64,
        t_input: f64,
        output: f64,
    ) -> f64 {
        let l = self.cell_load(beta_input, beta_output, s_input, t_input, output);
        self.cells() as f64 * variance_term(workers, l)
    }

    /// Evaluate incrementing the number of rows: returns the score and the duplication
    /// increase (which equals the leaf's T-input, since every T-tuple gains one copy).
    pub(crate) fn score_add_row(
        &self,
        workers: usize,
        beta_input: f64,
        beta_output: f64,
        s_input: f64,
        t_input: f64,
        output: f64,
    ) -> (SplitScore, f64) {
        let before =
            self.variance_contribution(workers, beta_input, beta_output, s_input, t_input, output);
        let after = BucketGrid {
            rows: self.rows + 1,
            cols: self.cols,
        }
        .variance_contribution(workers, beta_input, beta_output, s_input, t_input, output);
        let dup = t_input;
        (SplitScore::new(before - after, dup), dup)
    }

    /// Evaluate incrementing the number of columns: returns the score and the duplication
    /// increase (the leaf's S-input).
    pub(crate) fn score_add_col(
        &self,
        workers: usize,
        beta_input: f64,
        beta_output: f64,
        s_input: f64,
        t_input: f64,
        output: f64,
    ) -> (SplitScore, f64) {
        let before =
            self.variance_contribution(workers, beta_input, beta_output, s_input, t_input, output);
        let after = BucketGrid {
            rows: self.rows,
            cols: self.cols + 1,
        }
        .variance_contribution(workers, beta_input, beta_output, s_input, t_input, output);
        let dup = s_input;
        (SplitScore::new(before - after, dup), dup)
    }

    /// The cell index an S-tuple with the given pseudo-random hash is routed to, as
    /// `(row, all columns)` — callers enumerate the `cols` cells `row * cols + j`.
    #[inline]
    pub(crate) fn s_row(&self, hash: u64) -> u32 {
        (hash % self.rows as u64) as u32
    }

    /// The column a T-tuple with the given pseudo-random hash is routed to.
    #[inline]
    pub(crate) fn t_col(&self, hash: u64) -> u32 {
        (hash % self.cols as u64) as u32
    }
}

/// SplitMix64: a fast, high-quality 64-bit mixer used to derive stable pseudo-random
/// row/column assignments from `(seed, tuple id)` pairs. Randomized partitioners must be
/// deterministic functions of the tuple id so that repeated assignment calls agree.
#[inline]
pub fn stable_hash(seed: u64, tuple_id: u64) -> u64 {
    let mut z = seed ^ tuple_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 8;
    const BI: f64 = 4.0;
    const BO: f64 = 1.0;

    #[test]
    fn default_grid_is_single_cell() {
        let g = BucketGrid::default();
        assert_eq!(g.cells(), 1);
        assert_eq!(g.total_input(100.0, 50.0), 150.0);
    }

    #[test]
    fn total_input_counts_duplicates() {
        let g = BucketGrid { rows: 3, cols: 2 };
        // S copied to 2 cells each, T to 3 cells each.
        assert_eq!(g.total_input(100.0, 50.0), 200.0 + 150.0);
    }

    #[test]
    fn cell_load_splits_input_and_output() {
        let g = BucketGrid { rows: 2, cols: 2 };
        let l = g.cell_load(BI, BO, 100.0, 100.0, 400.0);
        // cell input = 50 + 50, cell output = 100 → load = 4·100 + 100
        assert!((l - 500.0).abs() < 1e-12);
    }

    #[test]
    fn adding_rows_reduces_variance() {
        let g = BucketGrid { rows: 1, cols: 1 };
        let before = g.variance_contribution(W, BI, BO, 1000.0, 1000.0, 1e6);
        let bigger = BucketGrid { rows: 2, cols: 1 };
        let after = bigger.variance_contribution(W, BI, BO, 1000.0, 1000.0, 1e6);
        assert!(after < before);
        let (score, dup) = g.score_add_row(W, BI, BO, 1000.0, 1000.0, 1e6);
        assert!(score.is_splittable());
        assert_eq!(dup, 1000.0);
    }

    #[test]
    fn asymmetric_inputs_prefer_splitting_the_larger_side() {
        // S much larger than T: splitting S (adding columns... no — adding *rows* splits S
        // across rows; each S-tuple is copied per *column*). Splitting the big side means
        // partitioning it: more rows partitions S, duplicating T. With |S| >> |T| the
        // row increment should score better than the column increment.
        let g = BucketGrid { rows: 1, cols: 1 };
        let (row_score, _) = g.score_add_row(W, BI, BO, 10_000.0, 100.0, 1e5);
        let (col_score, _) = g.score_add_col(W, BI, BO, 10_000.0, 100.0, 1e5);
        assert!(row_score > col_score);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let g = BucketGrid { rows: 3, cols: 4 };
        for id in 0..1000u64 {
            let h = stable_hash(42, id);
            let r = g.s_row(h);
            let c = g.t_col(h);
            assert!(r < 3);
            assert!(c < 4);
            // Deterministic.
            assert_eq!(r, g.s_row(stable_hash(42, id)));
            assert_eq!(c, g.t_col(stable_hash(42, id)));
        }
    }

    #[test]
    fn stable_hash_spreads_values() {
        // All three rows should receive a reasonable share of 3000 tuples.
        let g = BucketGrid { rows: 3, cols: 1 };
        let mut counts = [0usize; 3];
        for id in 0..3000u64 {
            counts[g.s_row(stable_hash(7, id)) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (800..=1200).contains(&c),
                "row counts too skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let differing = (0..100u64)
            .filter(|&id| stable_hash(1, id) % 10 != stable_hash(2, id) % 10)
            .count();
        assert!(differing > 50);
    }
}
