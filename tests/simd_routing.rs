//! Property tests pinning every routing kernel to the split-tree walk.
//!
//! The routing reference is the tree walk a RecPart partitioner answers
//! `assign_s`/`assign_t` with (`SplitTree::route_s`), independent of the
//! compiled router. Every kernel's block routing must reproduce its
//! `(partition, tuple)` stream **bit-identically** — same ids, same order —
//! for random trees, random key blocks, and every block chunking. A separate
//! sweep checks that every partitioner in the repository still satisfies
//! block-routing == per-tuple routing with the SIMD path live, and that the
//! executor's parallel map phase reproduces the tree walk for any thread
//! count.

use band_join::distsim::ExecutorConfig;
use band_join::prelude::*;
use band_join::recpart::Node;
use band_join::recpart::{
    AssignmentSink, CompiledRouter, PartitionId, RouteKernel, SampleConfig, SplitTreePartitioner,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn relation_from(values: &[Vec<f64>], dims: usize) -> Relation {
    let mut r = Relation::new(dims);
    for v in values {
        r.push(&v[..dims]);
    }
    r
}

fn key_strategy(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, dims)
}

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

/// The `(partition, tuple)` stream of routing `rel` in `chunk`-sized blocks
/// with an explicit kernel.
fn pairs_with(
    router: &CompiledRouter,
    kernel: RouteKernel,
    rel: &Relation,
    chunk: usize,
    t_side: bool,
) -> Vec<(PartitionId, u32)> {
    let mut sink = AssignmentSink::new(router.num_partitions());
    let mut lo = 0;
    while lo < rel.len() {
        let hi = (lo + chunk).min(rel.len());
        if t_side {
            router.route_t_block_with(kernel, rel, lo..hi, &mut sink);
        } else {
            router.route_s_block_with(kernel, rel, lo..hi, &mut sink);
        }
        lo = hi;
    }
    sink.pairs().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random trees × random key blocks × random chunkings: every supported
    /// kernel must emit the tree walk's stream bit for bit, on both sides.
    /// Chunk sizes below the 4-lane vector width exercise the pure-tail path;
    /// odd sizes exercise every vector/tail mix. Each block call builds its own
    /// working buffers, so the many consecutive calls here (across chunkings,
    /// kernels, and both sides on one thread) pin that no state carries from
    /// one block to the next.
    #[test]
    fn every_kernel_matches_the_tree_walk_bit_for_bit(
        s_vals in prop::collection::vec(key_strategy(2), 30..150),
        t_vals in prop::collection::vec(key_strategy(2), 30..150),
        block_vals in prop::collection::vec(key_strategy(2), 1..260),
        eps0 in 0.0f64..8.0,
        eps1 in 0.0f64..8.0,
        workers in 2usize..10,
        chunk in 1usize..97,
        seed in any::<u64>(),
    ) {
        let s = relation_from(&s_vals, 2);
        let t = relation_from(&t_vals, 2);
        let band = BandCondition::symmetric(&[eps0, eps1]);
        let partitioner = recpart_partitioner(&s, &t, &band, workers, seed);
        let router = partitioner.router();
        // Route a block that is *not* one of the build inputs: the tree's
        // boundaries fall anywhere relative to these keys. The block also holds
        // keys at every split boundary `v` and at `v ∓ ε`, where `(v − ε) + ε`
        // lands exactly on `v` for most `v`: there a duplicating node's `<` and
        // `>=` part ways.
        let tree = partitioner.tree();
        let ties: Vec<Vec<f64>> = (0..tree.num_nodes() as u32)
            .filter_map(|id| match tree.node(id) {
                Node::Inner(inner) => Some(inner),
                Node::Leaf(_) => None,
            })
            .enumerate()
            .flat_map(|(j, inner)| {
                let eps = [eps0, eps1][inner.dim];
                let base = &block_vals[j % block_vals.len()];
                [-eps, 0.0, eps].map(|shift| {
                    let mut key = base.clone();
                    key[inner.dim] = inner.value + shift;
                    key
                })
            })
            .collect();
        let block_vals: Vec<Vec<f64>> = block_vals.iter().cloned().chain(ties).collect();
        let block = relation_from(&block_vals, 2);
        for t_side in [false, true] {
            let expected = tree_pairs(&partitioner, &block, t_side);
            for kernel in RouteKernel::all_supported() {
                for chunk in [chunk, 1, 3, block.len()] {
                    let got = pairs_with(router, kernel, &block, chunk, t_side);
                    prop_assert_eq!(
                        &got, &expected,
                        "kernel {} diverged from the tree walk (t_side={}, chunk={})",
                        kernel.name(), t_side, chunk
                    );
                }
            }
        }
    }
}

/// Every partitioner in the repository: block routing must equal per-tuple
/// routing with the SIMD batch path live (the router-backed RecPart
/// partitioners go through the auto-detected kernel here; the closed-form
/// baselines must stay oblivious). One RecPart tree is deep: 64 workers over
/// skewed 1-d keys, routed in small blocks and in one block per side.
#[test]
fn every_partitioner_blocks_match_per_tuple_with_simd_live() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut s = Relation::new(2);
    let mut t = Relation::new(2);
    use rand::Rng;
    for _ in 0..400 {
        s.push(&[rng.gen::<f64>() * 40.0, rng.gen::<f64>() * 40.0]);
        t.push(&[rng.gen::<f64>() * 40.0, rng.gen::<f64>() * 40.0]);
    }
    let band = BandCondition::symmetric(&[0.8, 0.8]);
    let s1 = Relation::from_values_1d(&(0..400).map(|i| i as f64 * 0.11).collect::<Vec<_>>());
    let t1 = Relation::from_values_1d(&(0..400).map(|i| i as f64 * 0.13).collect::<Vec<_>>());
    let band1 = BandCondition::symmetric(&[0.5]);

    let mut prng = StdRng::seed_from_u64(0xA551_6E00);
    let sp = datagen::pareto_relation(20_000, 1, 1.5, &mut prng);
    let tp = datagen::pareto_relation(20_000, 1, 1.5, &mut prng);
    let deep: Box<dyn Partitioner> = Box::new(
        RecPart::new(RecPartConfig::new(64).with_seed(9))
            .optimize(&sp, &tp, &BandCondition::symmetric(&[0.001]), &mut prng)
            .partitioner,
    );
    assert!(deep.num_partitions() >= 64, "the tree must be deep");

    let recpart: Box<dyn Partitioner> = Box::new(recpart_partitioner(&s, &t, &band, 6, 7));
    let grid: Box<dyn Partitioner> = Box::new(GridPartitioner::build(&s, &t, &band, 2.0));
    let one_bucket: Box<dyn Partitioner> = Box::new(OneBucket::new(8, s.len(), t.len(), 3));
    let iejoin: Box<dyn Partitioner> = Box::new(IEJoinPartitioner::build(&s1, &t1, &band1, 16));
    let csio: Box<dyn Partitioner> = Box::new(CsioPartitioner::build(
        &s1,
        &t1,
        &band1,
        6,
        &CsioConfig::default(),
        &mut rng,
    ));

    for (p, s, t) in [
        (&recpart, &s, &t),
        (&deep, &sp, &tp),
        (&grid, &s, &t),
        (&one_bucket, &s, &t),
        (&iejoin, &s1, &t1),
        (&csio, &s1, &t1),
    ] {
        for t_side in [false, true] {
            let rel = if t_side { t } else { s };
            let expected = tree_pairs(p.as_ref(), rel, t_side);
            for chunk in [61, rel.len()] {
                let mut sink = AssignmentSink::new(p.num_partitions());
                let mut lo = 0;
                while lo < rel.len() {
                    let hi = (lo + chunk).min(rel.len());
                    if t_side {
                        p.assign_t_block(rel, lo..hi, &mut sink);
                    } else {
                        p.assign_s_block(rel, lo..hi, &mut sink);
                    }
                    lo = hi;
                }
                assert_eq!(
                    sink.pairs(),
                    &expected[..],
                    "{}: block routing diverged from per-tuple (t_side={t_side}, chunk={chunk})",
                    p.name()
                );
            }
        }
    }
}

/// The executor's map phase — which routes through the batch kernel — must
/// reproduce the tree walk's per-tuple assignment exactly, for every thread count.
#[test]
fn map_shuffle_matches_scalar_reference_across_threads() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut s = Relation::new(2);
    let mut t = Relation::new(2);
    use rand::Rng;
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
