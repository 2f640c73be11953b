//! Block routing must be a pure interface change: for **every** in-tree partitioner,
//! `assign_s_block`/`assign_t_block` must emit exactly the assignments (partition ids
//! **and** order) the per-tuple `assign_s`/`assign_t` loop emits, for any chunking of
//! the input; every routing kernel must reproduce the split-tree walk a RecPart
//! partitioner answers `assign_s`/`assign_t` with, bit for bit, on random trees; and
//! the executor's block-driven map/shuffle must stay bit-identical to per-tuple
//! routing across thread counts 1 / 0 (all cores) / 4.

use band_join::distsim::ExecutorConfig;
use band_join::prelude::*;
use band_join::recpart::Node;
use band_join::recpart::{
    AssignmentSink, PartitionId, RouteKernel, SampleConfig, SplitTreePartitioner,
};
use distsim::CostModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

fn relation_from(values: &[Vec<f64>], dims: usize) -> Relation {
    let mut r = Relation::new(dims);
    for v in values {
        r.push(&v[..dims]);
    }
    r
}

fn key_strategy(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-40.0f64..40.0, dims)
}

/// A RecPart partitioner optimized on a small sample.
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

/// `vals` plus, for every split of `p`'s tree, three keys copied from a row of
/// `vals` with the split dimension set to the boundary `v` and to `v ∓ ε` (that
/// dimension's width in `eps`): `(v − ε) + ε` lands exactly on `v` for most `v`,
/// where a duplicating node's `<` and `>=` part ways.
fn with_boundary_ties(p: &SplitTreePartitioner, vals: &[Vec<f64>], eps: &[f64]) -> Relation {
    let tree = p.tree();
    let ties = (0..tree.num_nodes() as u32)
        .filter_map(|id| match tree.node(id) {
            Node::Inner(inner) => Some(inner),
            Node::Leaf(_) => None,
        })
        .enumerate()
        .flat_map(|(j, inner)| {
            let eps = eps[inner.dim];
            [-eps, 0.0, eps].map(|shift| {
                let mut key = vals[j % vals.len()].clone();
                key[inner.dim] = inner.value + shift;
                key
            })
        });
    let vals: Vec<Vec<f64>> = vals.iter().cloned().chain(ties).collect();
    relation_from(&vals, 2)
}

/// The per-tuple reference stream: `(partition, tuple index)` in routing order, row
/// index as tuple id — for a RecPart partitioner, the split-tree walk.
fn per_tuple_stream<P: Partitioner + ?Sized>(
    p: &P,
    rel: &Relation,
    t_side: bool,
) -> Vec<(PartitionId, u32)> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for i in 0..rel.len() {
        buf.clear();
        if t_side {
            p.assign_t(&rel.key(i), i as u64, &mut buf);
        } else {
            p.assign_s(&rel.key(i), i as u64, &mut buf);
        }
        out.extend(buf.iter().map(|&part| (part, i as u32)));
    }
    out
}

/// The block stream: `0..len` handed to `route` in `chunk`-sized contiguous blocks,
/// each into the one reused (reset) sink, whose counts must agree with its pairs
/// block by block.
fn block_stream(
    partitions: usize,
    len: usize,
    chunk: usize,
    mut route: impl FnMut(Range<usize>, &mut AssignmentSink),
) -> Vec<(PartitionId, u32)> {
    let mut sink = AssignmentSink::new(partitions.max(1));
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < len {
        let hi = (lo + chunk).min(len);
        sink.reset(sink.num_partitions());
        route(lo..hi, &mut sink);
        for (part, &count) in sink.counts().iter().enumerate() {
            let seen = sink
                .pairs()
                .iter()
                .filter(|&&(p0, _)| p0 as usize == part)
                .count();
            assert_eq!(seen, count as usize, "sink counts out of sync");
        }
        out.extend_from_slice(sink.pairs());
        lo = hi;
    }
    out
}

/// Assert block == per-tuple on both sides: one block per side, blocks of 61, and
/// three blocks.
fn assert_block_identical<P: Partitioner + ?Sized>(p: &P, s: &Relation, t: &Relation) {
    for (rel, t_side) in [(s, false), (t, true)] {
        let reference = per_tuple_stream(p, rel, t_side);
        let n = rel.len().max(1);
        for chunk in [n, 61, n.div_ceil(3)] {
            let got = block_stream(p.num_partitions(), rel.len(), chunk, |range, sink| {
                if t_side {
                    p.assign_t_block(rel, range, sink);
                } else {
                    p.assign_s_block(rel, range, sink);
                }
            });
            assert_eq!(
                got,
                reference,
                "{}: block routing diverged (t_side = {t_side}, chunk = {chunk})",
                p.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Block routing equals per-tuple routing for every in-tree partitioner on
    /// random 2-D workloads.
    #[test]
    fn block_routing_matches_per_tuple_for_every_partitioner(
        s_vals in prop::collection::vec(key_strategy(2), 30..100),
        t_vals in prop::collection::vec(key_strategy(2), 30..100),
        eps in 0.5f64..8.0,
        workers in 2usize..10,
        seed in any::<u64>(),
    ) {
        let s = relation_from(&s_vals, 2);
        let t = relation_from(&t_vals, 2);
        let band = BandCondition::symmetric(&[eps, eps]);
        let mut rng = StdRng::seed_from_u64(seed);

        // RecPart (compiled-router block path), both role configurations, with
        // keys on every split boundary and boundary ∓ ε added to each side.
        for symmetric in [true, false] {
            let mut cfg = RecPartConfig::new(workers)
                .with_seed(seed)
                .with_sample(SampleConfig {
                    input_sample_size: 150,
                    output_sample_size: 80,
                    output_probe_count: 80,
                });
            cfg.symmetric = symmetric;
            let recpart = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng).partitioner;
            let s_ties = with_boundary_ties(&recpart, &s_vals, &[eps, eps]);
            let t_ties = with_boundary_ties(&recpart, &t_vals, &[eps, eps]);
            assert_block_identical(&recpart, &s_ties, &t_ties);
        }

        // 1-Bucket (closed-form matrix cells).
        assert_block_identical(&OneBucket::new(workers, s.len(), t.len(), seed), &s, &t);

        // Grid-ε and a coarser grid.
        assert_block_identical(&GridPartitioner::build(&s, &t, &band, 1.0), &s, &t);
        assert_block_identical(&GridPartitioner::build(&s, &t, &band, 3.0), &s, &t);

        // Grid* (delegates to the chosen grid).
        let gs = GridStarPartitioner::build(
            &s, &t, &band, workers, &CostModel::default(), 8, &mut rng,
        );
        assert_block_identical(&gs, &s, &t);

        // CSIO (quantile ranges + rectangle cover).
        let csio_cfg = CsioConfig {
            quantiles: 16,
            max_matrix_dim: 8,
            input_sample_size: 128,
            output_sample_size: 64,
            buckets_per_dim: 64,
            ..CsioConfig::default()
        };
        let csio = CsioPartitioner::build(&s, &t, &band, workers, &csio_cfg, &mut rng);
        assert_block_identical(&csio, &s, &t);

        // IEJoin quantile blocks.
        assert_block_identical(&IEJoinPartitioner::build(&s, &t, &band, 16), &s, &t);
    }

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
        // boundaries fall anywhere relative to these keys.
        let block = with_boundary_ties(&partitioner, &block_vals, &[eps0, eps1]);
        for t_side in [false, true] {
            let expected = per_tuple_stream(&partitioner, &block, t_side);
            for kernel in RouteKernel::all_supported() {
                for chunk in [chunk, 1, 3, block.len()] {
                    let route = |range, sink: &mut AssignmentSink| {
                        if t_side {
                            router.route_t_block_with(kernel, &block, range, sink);
                        } else {
                            router.route_s_block_with(kernel, &block, range, sink);
                        }
                    };
                    let got = block_stream(router.num_partitions(), block.len(), chunk, route);
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

/// The inputs random 2-D workloads do not reach: a deep RecPart tree (64 workers over
/// skewed 1-d keys) through the auto-detected kernel, and the quantile baselines —
/// CSIO at its default configuration and IEJoin — on a 1-d ramp.
#[test]
fn deep_trees_and_1d_baselines_block_route_like_per_tuple() {
    let mut prng = StdRng::seed_from_u64(0xA551_6E00);
    let sp = datagen::pareto_relation(20_000, 1, 1.5, &mut prng);
    let tp = datagen::pareto_relation(20_000, 1, 1.5, &mut prng);
    let deep = RecPart::new(RecPartConfig::new(64).with_seed(9))
        .optimize(&sp, &tp, &BandCondition::symmetric(&[0.001]), &mut prng)
        .partitioner;
    assert!(deep.num_partitions() >= 64, "the tree must be deep");
    assert_block_identical(&deep, &sp, &tp);

    let s1 = Relation::from_values_1d(&(0..400).map(|i| i as f64 * 0.11).collect::<Vec<_>>());
    let t1 = Relation::from_values_1d(&(0..400).map(|i| i as f64 * 0.13).collect::<Vec<_>>());
    let band1 = BandCondition::symmetric(&[0.5]);
    let mut rng = StdRng::seed_from_u64(42);
    let csio = CsioPartitioner::build(&s1, &t1, &band1, 6, &CsioConfig::default(), &mut rng);
    assert_block_identical(&csio, &s1, &t1);
    assert_block_identical(&IEJoinPartitioner::build(&s1, &t1, &band1, 16), &s1, &t1);
}

/// Adapter that forwards only a partitioner's per-tuple methods: every block call
/// takes the trait's default per-tuple loop — the per-tuple reference of
/// `map_shuffle`.
struct PerTuple<'a, P: ?Sized>(&'a P);
impl<P: Partitioner + ?Sized> Partitioner for PerTuple<'_, P> {
    fn num_partitions(&self) -> usize {
        self.0.num_partitions()
    }
    fn assign_s(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        self.0.assign_s(key, tuple_id, out)
    }
    fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        self.0.assign_t(key, tuple_id, out)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The executor's block-driven map/shuffle is bit-identical across thread counts —
/// for the compiled-router path (RecPart) and for closed-form baselines — and
/// matches the per-tuple fallback routed through the same executor.
#[test]
fn map_shuffle_is_deterministic_across_threads_1_0_4() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    // More than one 64k-tuple shuffle chunk a side, so threads 0 and 4 fan out.
    let s = datagen::pareto_relation(80_000, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(70_000, 1, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[0.01]);

    let recpart = RecPart::new(RecPartConfig::new(16).with_seed(3))
        .optimize(&s, &t, &band, &mut rng)
        .partitioner;
    let one_bucket = OneBucket::new(16, s.len(), t.len(), 5);
    let grid = GridPartitioner::build(&s, &t, &band, 1.0);
    let cases: [(&dyn Partitioner, &Relation, &Relation); 3] =
        [(&recpart, &s, &t), (&one_bucket, &s, &t), (&grid, &s, &t)];

    for (p, s, t) in cases {
        let shuffle_with = |threads: usize| {
            Executor::new(ExecutorConfig::new(16).with_threads(threads)).map_shuffle(p, s, t)
        };
        let sequential = shuffle_with(1);
        // The sequential block path must equal per-tuple routing...
        let fallback =
            Executor::new(ExecutorConfig::new(16).with_threads(1)).map_shuffle(&PerTuple(p), s, t);
        assert_eq!(sequential.s_parts, fallback.s_parts, "{}", p.name());
        assert_eq!(sequential.t_parts, fallback.t_parts, "{}", p.name());
        // ...and every thread count must reproduce it bit for bit.
        for threads in [0usize, 4] {
            let parallel = shuffle_with(threads);
            assert_eq!(
                sequential.s_parts,
                parallel.s_parts,
                "{}: threads={threads}",
                p.name()
            );
            assert_eq!(
                sequential.t_parts,
                parallel.t_parts,
                "{}: threads={threads}",
                p.name()
            );
        }
    }
}
