//! Property-based tests of the core correctness invariant (Definition 1 of the paper):
//! for every partitioner, every matching pair must be produced by exactly one partition,
//! and every tuple must be assigned to at least one partition — for arbitrary inputs,
//! band widths, and worker counts.

use band_join::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generate a small relation from proptest-provided values.
fn relation_from(values: &[Vec<f64>], dims: usize) -> Relation {
    let mut r = Relation::new(dims);
    for v in values {
        r.push(&v[..dims]);
    }
    r
}

/// Finite coordinates with `±∞` at about 1/20 each: infinities are admitted keys
/// (only NaN is rejected), so they must be partitioned exactly once too.
fn key_strategy(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    let coord = prop_oneof![
        18 => -50.0f64..50.0,
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ];
    prop::collection::vec(coord, dims)
}

/// Check the exactly-once property by brute force.
fn assert_exactly_once<P: Partitioner + ?Sized>(
    p: &P,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
) {
    let mut s_parts = Vec::new();
    let mut t_parts = Vec::new();
    for (si, sk) in s.iter().enumerate() {
        s_parts.clear();
        p.assign_s(&sk, si as u64, &mut s_parts);
        prop_assert_ne_empty(&s_parts, p.name());
        for (ti, tk) in t.iter().enumerate() {
            t_parts.clear();
            p.assign_t(&tk, ti as u64, &mut t_parts);
            prop_assert_ne_empty(&t_parts, p.name());
            let common = s_parts.iter().filter(|x| t_parts.contains(x)).count();
            if band.matches(&sk, &tk) {
                assert_eq!(
                    common,
                    1,
                    "{}: pair (S#{si}, T#{ti}) produced {common} times",
                    p.name()
                );
            }
        }
    }
}

fn prop_assert_ne_empty(parts: &[PartitionId], name: &str) {
    assert!(!parts.is_empty(), "{name}: tuple assigned to no partition");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recpart_partitioning_is_exactly_once(
        s_vals in prop::collection::vec(key_strategy(2), 20..120),
        t_vals in prop::collection::vec(key_strategy(2), 20..120),
        eps0 in 0.0f64..10.0,
        eps1 in 0.0f64..10.0,
        workers in 1usize..9,
        symmetric in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let s = relation_from(&s_vals, 2);
        let t = relation_from(&t_vals, 2);
        let band = BandCondition::symmetric(&[eps0, eps1]);
        let mut cfg = RecPartConfig::new(workers)
            .with_seed(seed)
            .with_sample(SampleConfig {
                input_sample_size: 200,
                output_sample_size: 100,
                output_probe_count: 100,
            });
        if !symmetric {
            cfg = cfg.without_symmetric();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        assert_exactly_once(&result.partitioner, &s, &t, &band);
    }

    #[test]
    fn one_bucket_is_exactly_once(
        s_len in 1usize..200,
        t_len in 1usize..200,
        workers in 1usize..40,
        seed in any::<u64>(),
    ) {
        let ob = OneBucket::new(workers, s_len, t_len, seed);
        let s = Relation::from_values_1d(&vec![0.0; s_len]);
        let t = Relation::from_values_1d(&vec![0.0; t_len]);
        let band = BandCondition::symmetric(&[1.0]);
        assert_exactly_once(&ob, &s, &t, &band);
        prop_assert!(ob.num_partitions() <= workers);
    }

    #[test]
    fn grid_partitioning_is_exactly_once(
        s_vals in prop::collection::vec(key_strategy(2), 10..80),
        t_vals in prop::collection::vec(key_strategy(2), 10..80),
        eps in 0.05f64..20.0,
        scale in 1usize..6,
    ) {
        let s = relation_from(&s_vals, 2);
        let t = relation_from(&t_vals, 2);
        let band = BandCondition::symmetric(&[eps, eps]);
        let grid = GridPartitioner::build(&s, &t, &band, scale as f64);
        assert_exactly_once(&grid, &s, &t, &band);
    }

    #[test]
    fn iejoin_blocks_are_exactly_once(
        s_vals in prop::collection::vec(key_strategy(1), 10..150),
        t_vals in prop::collection::vec(key_strategy(1), 10..150),
        eps in 0.0f64..30.0,
        block in 1usize..40,
    ) {
        let s = relation_from(&s_vals, 1);
        let t = relation_from(&t_vals, 1);
        let band = BandCondition::symmetric(&[eps]);
        let p = IEJoinPartitioner::build(&s, &t, &band, block);
        assert_exactly_once(&p, &s, &t, &band);
    }

    #[test]
    fn csio_covering_is_exactly_once(
        s_vals in prop::collection::vec(key_strategy(1), 20..120),
        t_vals in prop::collection::vec(key_strategy(1), 20..120),
        eps in 0.0f64..15.0,
        workers in 2usize..12,
        seed in any::<u64>(),
    ) {
        let s = relation_from(&s_vals, 1);
        let t = relation_from(&t_vals, 1);
        let band = BandCondition::symmetric(&[eps]);
        let cfg = CsioConfig {
            quantiles: 16,
            max_matrix_dim: 8,
            input_sample_size: 128,
            output_sample_size: 64,
            buckets_per_dim: 64,
            ..CsioConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let p = CsioPartitioner::build(&s, &t, &band, workers, &cfg, &mut rng);
        assert_exactly_once(&p, &s, &t, &band);
    }

    #[test]
    fn executed_output_count_matches_exact_join(
        s_vals in prop::collection::vec(key_strategy(1), 20..100),
        t_vals in prop::collection::vec(key_strategy(1), 20..100),
        eps in 0.0f64..10.0,
        workers in 1usize..6,
        seed in any::<u64>(),
    ) {
        let s = relation_from(&s_vals, 1);
        let t = relation_from(&t_vals, 1);
        let band = BandCondition::symmetric(&[eps]);
        let mut rng = StdRng::seed_from_u64(seed);
        let recpart = RecPart::new(
            RecPartConfig::new(workers)
                .with_seed(seed)
                .with_sample(SampleConfig {
                    input_sample_size: 150,
                    output_sample_size: 80,
                    output_probe_count: 80,
                }),
        )
        .optimize(&s, &t, &band, &mut rng);
        let report = Executor::new(
            ExecutorConfig::new(workers).with_verification(VerificationLevel::FullPairs),
        )
        .execute(&recpart.partitioner, &s, &t, &band);
        prop_assert_eq!(report.correct, Some(true));
        prop_assert_eq!(report.stats.output_len, report.exact_output.unwrap());
    }
}
