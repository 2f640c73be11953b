//! The executor's parallel map phase must reproduce the split-tree walk a RecPart
//! partitioner answers `assign_s`/`assign_t` with, for any thread count: the
//! per-tuple tree walk builds a reference CSR (ascending tuples appended per
//! partition) and `map_shuffle` at threads 1 / 0 (all cores) / 4 must match it
//! partition by partition.

use band_join::distsim::ExecutorConfig;
use band_join::prelude::*;
use band_join::recpart::{PartitionId, SampleConfig, SplitTreePartitioner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn recpart_partitioner(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    workers: usize,
    seed: u64,
) -> SplitTreePartitioner {
    let cfg = RecPartConfig::new(workers)
        .with_seed(seed)
        .with_sample(SampleConfig {
            input_sample_size: 200,
            output_sample_size: 100,
            output_probe_count: 100,
        });
    let mut rng = StdRng::seed_from_u64(seed);
    RecPart::new(cfg).optimize(s, t, band, &mut rng).partitioner
}

/// The tree walk's `(partition, tuple)` stream over every row of `rel`, row
/// index as tuple id.
fn tree_pairs(p: &dyn Partitioner, rel: &Relation, t_side: bool) -> Vec<(PartitionId, u32)> {
    let mut expected = Vec::new();
    let mut buf = Vec::new();
    for i in 0..rel.len() {
        buf.clear();
        if t_side {
            p.assign_t(&rel.key(i), i as u64, &mut buf);
        } else {
            p.assign_s(&rel.key(i), i as u64, &mut buf);
        }
        expected.extend(buf.iter().map(|&part| (part, i as u32)));
    }
    expected
}

#[test]
fn map_shuffle_matches_scalar_reference_across_threads() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut s = Relation::new(2);
    let mut t = Relation::new(2);
    for _ in 0..3000 {
        s.push(&[rng.gen::<f64>() * 60.0, rng.gen::<f64>() * 60.0]);
        t.push(&[rng.gen::<f64>() * 60.0, rng.gen::<f64>() * 60.0]);
    }
    let band = BandCondition::symmetric(&[0.6, 0.6]);
    let partitioner = recpart_partitioner(&s, &t, &band, 8, 5);

    // Tree-walk reference CSR: ascending tuples appended per partition.
    let build_reference = |rel: &Relation, t_side: bool| -> Vec<Vec<u32>> {
        let mut parts = vec![Vec::new(); partitioner.num_partitions()];
        for (p, i) in tree_pairs(&partitioner, rel, t_side) {
            parts[p as usize].push(i);
        }
        parts
    };
    let expected_s = build_reference(&s, false);
    let expected_t = build_reference(&t, true);

    for threads in [1usize, 0, 4] {
        let shuffled = Executor::new(ExecutorConfig::new(8).with_threads(threads)).map_shuffle(
            &partitioner,
            &s,
            &t,
        );
        for p in 0..partitioner.num_partitions() {
            assert_eq!(
                shuffled.s_parts.part(p),
                &expected_s[p][..],
                "threads={threads}: S partition {p} diverged from the tree walk"
            );
            assert_eq!(
                shuffled.t_parts.part(p),
                &expected_t[p][..],
                "threads={threads}: T partition {p} diverged from the tree walk"
            );
        }
    }
}
