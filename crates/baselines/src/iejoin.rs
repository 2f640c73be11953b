//! The quantile/block partitioning used by distributed IEJoin (Khayyat et al., VLDBJ
//! 2017), as compared against in Section 6.6 / Appendix A.1 of the paper.
//!
//! Distributed IEJoin sorts each input on one join attribute and range-partitions it
//! into blocks of (roughly) `sizePerBlock` tuples using approximate quantiles. Every
//! pair of blocks whose attribute ranges can contain joining tuples (i.e. whose ranges
//! are within band width of each other) becomes a unit of work assigned to some worker.
//! Here every such *joinable block pair* is one logical partition: an S-tuple is sent to
//! every partition involving its block, a T-tuple to every partition involving its
//! block, and the pair of blocks containing a matching tuple pair is unique — so the
//! exactly-once property holds. The executor's LPT mapping then spreads the block pairs
//! over the workers, mirroring how IEJoin schedules block-pair tasks.
//!
//! The paper's finding — reproduced by `exp_paper --table 7` — is that direct
//! quantile-based partitioning duplicates far more input than RecPart because block
//! boundaries cut through dense regions and no covering step merges joinable pairs.

use recpart::{AssignmentSink, BandCondition, PartitionId, Partitioner, Relation};
use std::ops::Range;

/// The distributed-IEJoin style block partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct IEJoinPartitioner {
    /// Upper boundaries of the S blocks on dimension 0 (last boundary is +∞).
    s_bounds: Vec<f64>,
    /// Upper boundaries of the T blocks on dimension 0.
    t_bounds: Vec<f64>,
    /// For every S block, the partitions (joinable block pairs) it participates in.
    s_block_partitions: Vec<Vec<PartitionId>>,
    /// For every T block, the partitions it participates in.
    t_block_partitions: Vec<Vec<PartitionId>>,
    /// Number of joinable block pairs.
    num_partitions: usize,
}

impl IEJoinPartitioner {
    /// Build the block partitioning with the given `sizePerBlock`.
    pub fn build(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        size_per_block: usize,
    ) -> IEJoinPartitioner {
        assert!(size_per_block > 0, "sizePerBlock must be positive");
        let s_bounds = block_boundaries(s, size_per_block);
        let t_bounds = block_boundaries(t, size_per_block);
        let s_blocks = s_bounds.len();
        let t_blocks = t_bounds.len();

        // Block value ranges on dimension 0: block i covers (prev_bound, bound_i].
        let range_of = |bounds: &[f64], i: usize| -> (f64, f64) {
            let lo = if i == 0 {
                f64::NEG_INFINITY
            } else {
                bounds[i - 1]
            };
            (lo, bounds[i])
        };

        let mut s_block_partitions = vec![Vec::new(); s_blocks];
        let mut t_block_partitions = vec![Vec::new(); t_blocks];
        let mut num_partitions = 0usize;
        for (si, s_parts) in s_block_partitions.iter_mut().enumerate() {
            let (s_lo, s_hi) = range_of(&s_bounds, si);
            for (ti, t_parts) in t_block_partitions.iter_mut().enumerate() {
                let (t_lo, t_hi) = range_of(&t_bounds, ti);
                // Joinable iff some s in (s_lo, s_hi] can match some t in (t_lo, t_hi]:
                // s ∈ [t − ε_lo, t + ε_hi]  ⇔  intervals [s_lo, s_hi] and
                // [t_lo − ε_lo, t_hi + ε_hi] overlap.
                let t_lo_ext = t_lo - band.eps_low(0);
                let t_hi_ext = t_hi + band.eps_high(0);
                if s_hi >= t_lo_ext && s_lo <= t_hi_ext {
                    let pid = num_partitions as PartitionId;
                    s_parts.push(pid);
                    t_parts.push(pid);
                    num_partitions += 1;
                }
            }
        }
        // Guarantee h(x) ≠ ∅ even for blocks with no joinable counterpart: give such
        // blocks a private partition (it will simply produce no output).
        for parts in s_block_partitions
            .iter_mut()
            .chain(t_block_partitions.iter_mut())
        {
            if parts.is_empty() {
                parts.push(num_partitions as PartitionId);
                num_partitions += 1;
            }
        }

        IEJoinPartitioner {
            s_bounds,
            t_bounds,
            s_block_partitions,
            t_block_partitions,
            num_partitions,
        }
    }

    fn block_of(bounds: &[f64], value: f64) -> usize {
        bounds
            .partition_point(|&b| b < value)
            .min(bounds.len().saturating_sub(1))
    }
}

/// Sort the relation on dimension 0 and emit one upper boundary per `size_per_block`
/// tuples (the last boundary is `+∞` so every value falls into some block).
fn block_boundaries(relation: &Relation, size_per_block: usize) -> Vec<f64> {
    let mut values: Vec<f64> = (0..relation.len()).map(|i| relation.value(i, 0)).collect();
    values.sort_unstable_by(f64::total_cmp);
    let mut bounds = Vec::new();
    let mut i = size_per_block;
    while i < values.len() {
        bounds.push(values[i - 1]);
        i += size_per_block;
    }
    bounds.push(f64::INFINITY);
    bounds
}

impl Partitioner for IEJoinPartitioner {
    fn num_partitions(&self) -> usize {
        self.num_partitions.max(1)
    }

    fn assign_s(&self, key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        let block = Self::block_of(&self.s_bounds, key[0]);
        out.extend_from_slice(&self.s_block_partitions[block]);
    }

    fn assign_t(&self, key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        let block = Self::block_of(&self.t_bounds, key[0]);
        out.extend_from_slice(&self.t_block_partitions[block]);
    }

    // Block routing: only dimension 0 decides the quantile block, so a routed block
    // is one `value → partition_point → emit-slice` loop over the column.
    fn assign_s_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len());
        for i in rows {
            let block = Self::block_of(&self.s_bounds, rel.value(i, 0));
            for &p in &self.s_block_partitions[block] {
                sink.push(p, i as u32);
            }
        }
    }

    fn assign_t_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len());
        for i in rows {
            let block = Self::block_of(&self.t_bounds, rel.value(i, 0));
            for &p in &self.t_block_partitions[block] {
                sink.push(p, i as u32);
            }
        }
    }

    fn name(&self) -> &str {
        "IEJoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distsim::Executor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_relation(n: usize, dims: usize, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                *k = rng.gen_range(0.0..100.0);
            }
            r.push(&key);
        }
        r
    }

    #[test]
    fn blocks_have_expected_count() {
        let s = random_relation(1000, 1, 1);
        let t = random_relation(500, 1, 2);
        let band = BandCondition::symmetric(&[1.0]);
        let p = IEJoinPartitioner::build(&s, &t, &band, 100);
        assert_eq!(p.s_bounds.len(), 10);
        assert_eq!(p.t_bounds.len(), 5);
    }

    #[test]
    fn exactly_once_for_matching_pairs() {
        let s = random_relation(300, 2, 3);
        let t = random_relation(300, 2, 4);
        let band = BandCondition::symmetric(&[2.0, 50.0]);
        let p = IEJoinPartitioner::build(&s, &t, &band, 64);
        crate::assert_exactly_once(&p, &s, &t, &band);
    }

    #[test]
    fn every_tuple_is_assigned_somewhere() {
        // Far-apart inputs: no joinable pairs at all, but h(x) must still be non-empty.
        let mut s = Relation::new(1);
        let mut t = Relation::new(1);
        for i in 0..50 {
            s.push(&[i as f64]);
            t.push(&[1e6 + i as f64]);
        }
        let band = BandCondition::symmetric(&[1.0]);
        let p = IEJoinPartitioner::build(&s, &t, &band, 10);
        let mut out = Vec::new();
        for (i, key) in s.iter().enumerate() {
            out.clear();
            p.assign_s(&key, i as u64, &mut out);
            assert!(!out.is_empty());
        }
        for (i, key) in t.iter().enumerate() {
            out.clear();
            p.assign_t(&key, i as u64, &mut out);
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn smaller_blocks_mean_more_partitions_and_duplication() {
        let s = random_relation(2000, 1, 5);
        let t = random_relation(2000, 1, 6);
        let band = BandCondition::symmetric(&[3.0]);
        let fine = IEJoinPartitioner::build(&s, &t, &band, 50);
        let coarse = IEJoinPartitioner::build(&s, &t, &band, 500);
        assert!(fine.num_partitions() > coarse.num_partitions());
        let total_input = |p: &IEJoinPartitioner| {
            Executor::with_workers(1)
                .map_shuffle(p, &s, &t)
                .total_input()
        };
        assert!(total_input(&fine) > total_input(&coarse));
    }

    #[test]
    fn wider_band_means_more_joinable_pairs() {
        let s = random_relation(1000, 1, 7);
        let t = random_relation(1000, 1, 8);
        let narrow = IEJoinPartitioner::build(&s, &t, &BandCondition::symmetric(&[0.5]), 100);
        let wide = IEJoinPartitioner::build(&s, &t, &BandCondition::symmetric(&[20.0]), 100);
        assert!(wide.num_partitions() > narrow.num_partitions());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_rejected() {
        let s = random_relation(10, 1, 9);
        let t = random_relation(10, 1, 10);
        let _ = IEJoinPartitioner::build(&s, &t, &BandCondition::symmetric(&[1.0]), 0);
    }
}
