//! The 1-Bucket partitioner (Okcan & Riedewald, "Processing Theta-Joins Using
//! MapReduce").
//!
//! 1-Bucket ignores the join condition entirely: it covers the whole `S × T` join matrix
//! with a grid of `r` rows and `c` columns (one cell per worker), assigns every S-tuple
//! to a random row — which means the tuple is sent to all `c` cells of that row — and
//! every T-tuple to a random column. Randomization yields near-perfect load balance, but
//! the input is duplicated roughly `√w` times; and because the matrix is independent of
//! the band condition, the duplication does not shrink for selective joins
//! (this is exactly what Tables 2–4 of the paper show).

use recpart::stable_hash;
use recpart::{AssignmentSink, PartitionId, Partitioner, Relation};
use std::ops::Range;

/// The 1-Bucket random matrix-cover partitioner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneBucket {
    rows: u32,
    cols: u32,
    seed: u64,
}

impl OneBucket {
    /// Choose the matrix grid for `workers` workers and the given input sizes.
    ///
    /// Among all `(r, c)` with `r·c ≤ workers`, the pair minimizing the expected
    /// per-cell input `|S|/r + |T|/c` is selected (ties broken towards using more
    /// cells). This is the standard 1-Bucket region-shape optimization.
    pub fn new(workers: usize, s_len: usize, t_len: usize, seed: u64) -> Self {
        assert!(workers > 0, "need at least one worker");
        let mut best = (1u32, 1u32);
        let mut best_cost = f64::INFINITY;
        for r in 1..=workers {
            let c = workers / r;
            if c == 0 {
                continue;
            }
            let cost = s_len as f64 / r as f64 + t_len as f64 / c as f64;
            let cells = (r * c) as f64;
            // Prefer lower per-cell input; among equals prefer more cells used.
            if cost < best_cost - 1e-9
                || ((cost - best_cost).abs() <= 1e-9 && cells > (best.0 * best.1) as f64)
            {
                best_cost = cost;
                best = (r as u32, c as u32);
            }
        }
        OneBucket {
            rows: best.0,
            cols: best.1,
            seed,
        }
    }

    /// Number of matrix rows (S side).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of matrix columns (T side).
    pub fn cols(&self) -> u32 {
        self.cols
    }
}

impl Partitioner for OneBucket {
    fn num_partitions(&self) -> usize {
        (self.rows * self.cols) as usize
    }

    fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        let row = (stable_hash(self.seed, tuple_id) % self.rows as u64) as u32;
        let base = row * self.cols;
        for j in 0..self.cols {
            out.push(base + j);
        }
    }

    fn assign_t(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        let col =
            (stable_hash(self.seed ^ 0xD1B5_4A32_D192_ED03, tuple_id) % self.cols as u64) as u32;
        for i in 0..self.rows {
            out.push(i * self.cols + col);
        }
    }

    // Block routing with closed-form cell arithmetic: the matrix shape is fixed, so a
    // whole block is one tight hash-and-emit loop — no per-tuple dispatch, no
    // intermediate buffer.
    fn assign_s_block(&self, _rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len() * self.cols as usize);
        for i in rows {
            let row = (stable_hash(self.seed, i as u64) % self.rows as u64) as u32;
            let base = row * self.cols;
            for j in 0..self.cols {
                sink.push(base + j, i as u32);
            }
        }
    }

    fn assign_t_block(&self, _rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len() * self.rows as usize);
        for i in rows {
            let col = (stable_hash(self.seed ^ 0xD1B5_4A32_D192_ED03, i as u64) % self.cols as u64)
                as u32;
            for r in 0..self.rows {
                sink.push(r * self.cols + col, i as u32);
            }
        }
    }

    fn name(&self) -> &str {
        "1-Bucket"
    }

    /// Closed form: every S-tuple is copied `cols` times, every T-tuple `rows` times.
    fn count_total_input(&self, s: &Relation, t: &Relation) -> u64 {
        s.len() as u64 * self.cols as u64 + t.len() as u64 * self.rows as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_uses_available_workers() {
        // Equal-size inputs on a square worker count → square grid.
        let b = OneBucket::new(16, 1000, 1000, 1);
        assert_eq!((b.rows(), b.cols()), (4, 4));
        assert_eq!(b.num_partitions(), 16);
        // Very lopsided inputs → partition the big side more.
        let b = OneBucket::new(16, 100_000, 100, 1);
        assert!(b.rows() > b.cols());
    }

    #[test]
    fn thirty_workers_duplication_matches_paper_scale() {
        // The paper reports I = 2200M for 400M input on 30 workers → factor 5.5.
        let b = OneBucket::new(30, 200, 200, 2);
        // Each S-tuple is copied to `cols` cells, each T-tuple to `rows`.
        let dup = f64::from(b.cols() * 200 + b.rows() * 200) / 400.0;
        assert!(
            (5.0..6.0).contains(&dup),
            "expected ≈5.5× duplication on 30 workers, got {dup}"
        );
    }

    #[test]
    fn every_pair_meets_in_exactly_one_cell() {
        let b = OneBucket {
            rows: 3,
            cols: 5,
            seed: 7,
        };
        let mut s_parts = Vec::new();
        let mut t_parts = Vec::new();
        for sid in 0..200u64 {
            s_parts.clear();
            b.assign_s(&[0.0], sid, &mut s_parts);
            assert_eq!(s_parts.len(), 5, "S goes to all cells of one row");
            for tid in 0..50u64 {
                t_parts.clear();
                b.assign_t(&[0.0], tid, &mut t_parts);
                assert_eq!(t_parts.len(), 3, "T goes to all cells of one column");
                let common = s_parts.iter().filter(|p| t_parts.contains(p)).count();
                assert_eq!(common, 1);
            }
        }
    }

    #[test]
    fn assignment_is_deterministic_and_seed_dependent() {
        let a = OneBucket {
            rows: 4,
            cols: 4,
            seed: 1,
        };
        let b = OneBucket {
            rows: 4,
            cols: 4,
            seed: 2,
        };
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        a.assign_s(&[0.0], 123, &mut out1);
        a.assign_s(&[0.0], 123, &mut out2);
        assert_eq!(out1, out2);
        let mut differing = 0;
        for id in 0..100 {
            out1.clear();
            out2.clear();
            a.assign_s(&[0.0], id, &mut out1);
            b.assign_s(&[0.0], id, &mut out2);
            if out1 != out2 {
                differing += 1;
            }
        }
        assert!(differing > 30, "different seeds should shuffle row choices");
    }

    #[test]
    fn rows_are_roughly_balanced() {
        let b = OneBucket {
            rows: 4,
            cols: 1,
            seed: 3,
        };
        let mut counts = [0usize; 4];
        let mut out = Vec::new();
        for id in 0..4000u64 {
            out.clear();
            b.assign_s(&[0.0], id, &mut out);
            counts[out[0] as usize] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "row counts {counts:?}");
        }
    }

    #[test]
    fn partition_ids_are_in_range() {
        let b = OneBucket::new(7, 10, 10, 4); // 7 workers → grid uses ≤ 7 cells
        assert!(b.num_partitions() <= 7);
        let mut out = Vec::new();
        for id in 0..100 {
            out.clear();
            b.assign_s(&[0.0], id, &mut out);
            b.assign_t(&[0.0], id, &mut out);
            assert!(out.iter().all(|&p| (p as usize) < b.num_partitions()));
        }
    }
}
