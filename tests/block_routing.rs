//! Block routing must be a pure interface change: for **every** in-tree partitioner,
//! `assign_s_block`/`assign_t_block` must emit exactly the assignments (partition ids
//! **and** order) the per-tuple `assign_s`/`assign_t` loop emits, for any chunking of
//! the input — and the executor's block-driven map/shuffle must stay bit-identical
//! across thread counts 1 / 0 (all cores) / 4.

use band_join::distsim::ExecutorConfig;
use band_join::prelude::*;
use band_join::recpart::Node;
use band_join::recpart::{AssignmentSink, PartitionId, SampleConfig, SplitTreePartitioner};
use distsim::CostModel;
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
    prop::collection::vec(-40.0f64..40.0, dims)
}

/// `vals` plus, for every split of `p`'s tree, three keys copied from a row of
/// `vals` with the split dimension set to the boundary `v` and to `v ∓ eps`:
/// `(v − ε) + ε` lands exactly on `v` for most `v`, where a duplicating node's
/// `<` and `>=` part ways.
fn with_boundary_ties(p: &SplitTreePartitioner, vals: &[Vec<f64>], eps: f64) -> Relation {
    let tree = p.tree();
    let ties = (0..tree.num_nodes() as u32)
        .filter_map(|id| match tree.node(id) {
            Node::Inner(inner) => Some(inner),
            Node::Leaf(_) => None,
        })
        .enumerate()
        .flat_map(|(j, inner)| {
            [-eps, 0.0, eps].map(|shift| {
                let mut key = vals[j % vals.len()].clone();
                key[inner.dim] = inner.value + shift;
                key
            })
        });
    let vals: Vec<Vec<f64>> = vals.iter().cloned().chain(ties).collect();
    relation_from(&vals, 2)
}

/// The per-tuple reference stream: `(partition, tuple index)` in routing order.
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
        for &part in &buf {
            out.push((part, i as u32));
        }
    }
    out
}

/// The block stream, routed in `pieces` contiguous chunks through one reused sink.
fn block_stream<P: Partitioner + ?Sized>(
    p: &P,
    rel: &Relation,
    t_side: bool,
    pieces: usize,
) -> Vec<(PartitionId, u32)> {
    let mut sink = AssignmentSink::new(p.num_partitions().max(1));
    let mut out = Vec::new();
    let chunk = rel.len().div_ceil(pieces.max(1)).max(1);
    let mut lo = 0;
    while lo < rel.len() {
        let hi = (lo + chunk).min(rel.len());
        sink.reset(sink.num_partitions());
        if t_side {
            p.assign_t_block(rel, lo..hi, &mut sink);
        } else {
            p.assign_s_block(rel, lo..hi, &mut sink);
        }
        // Counts must agree with the pair stream chunk by chunk.
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

/// Assert block == per-tuple on both sides, whole-input and 3-way chunked, plus the
/// block-driven `count_total_input` against the per-tuple stream's length.
fn assert_block_identical<P: Partitioner + ?Sized>(p: &P, s: &Relation, t: &Relation) {
    let mut per_tuple_total = 0;
    for (rel, t_side) in [(s, false), (t, true)] {
        let reference = per_tuple_stream(p, rel, t_side);
        per_tuple_total += reference.len() as u64;
        assert_eq!(
            block_stream(p, rel, t_side, 1),
            reference,
            "{}: whole-block routing diverged (t_side = {t_side})",
            p.name()
        );
        assert_eq!(
            block_stream(p, rel, t_side, 3),
            reference,
            "{}: chunked block routing diverged (t_side = {t_side})",
            p.name()
        );
    }
    assert_eq!(
        p.count_total_input(s, t),
        per_tuple_total,
        "{}: count_total_input diverged from the per-tuple path",
        p.name()
    );
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
            let s_ties = with_boundary_ties(&recpart, &s_vals, eps);
            let t_ties = with_boundary_ties(&recpart, &t_vals, eps);
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
/// for the compiled-router path (RecPart) and for a closed-form baseline — and
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
    let partitioners: [&dyn Partitioner; 3] = [&recpart, &one_bucket, &grid];

    for p in partitioners {
        let shuffle_with = |threads: usize| {
            Executor::new(ExecutorConfig::new(16).with_threads(threads)).map_shuffle(p, &s, &t)
        };
        let sequential = shuffle_with(1);
        // The sequential block path must equal per-tuple routing...
        let fallback = Executor::new(ExecutorConfig::new(16).with_threads(1)).map_shuffle(
            &PerTuple(p),
            &s,
            &t,
        );
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
        assert_eq!(sequential.total_input(), p.count_total_input(&s, &t));
    }
}
