//! Bit-identity of the RecPart optimizer across thread counts: `threads` bounds only
//! the output sampler's scan, so the chosen split tree (shape, split values, kinds,
//! grids), the estimated statistics and every work counter must be exactly the
//! strictly sequential result. (The same workloads are held to the optimizer's
//! oracles by the end-to-end tests in `crates/core/src/recpart/tests.rs`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recpart::{
    BandCondition, OptimizationReport, Partitioner, RecPart, RecPartConfig, RecPartResult,
    Relation, SampleConfig,
};

fn pareto_relation(n: usize, dims: usize, z: f64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Relation::with_capacity(dims, n);
    let mut key = vec![0.0; dims];
    for _ in 0..n {
        for k in key.iter_mut() {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            *k = (1.0 - u).powf(-1.0 / z);
        }
        r.push(&key);
    }
    r
}

/// A multi-dimensional "catalog-like" workload: one skewed magnitude dimension plus
/// uniform spatial dimensions, mirroring the paper's real-data catalogs.
fn catalog_relation(n: usize, dims: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Relation::with_capacity(dims, n);
    let mut key = vec![0.0; dims];
    for _ in 0..n {
        let u: f64 = rng.gen_range(0.0..1.0f64);
        key[0] = (1.0 - u).powf(-1.0 / 1.2);
        for k in key.iter_mut().skip(1) {
            *k = rng.gen_range(0.0..360.0);
        }
        r.push(&key);
    }
    r
}

fn sample_config() -> SampleConfig {
    SampleConfig {
        input_sample_size: 4_096,
        output_sample_size: 1_024,
        output_probe_count: 512,
    }
}

/// Compare everything of two results except the wall-clock fields.
fn assert_bit_identical(a: &RecPartResult, b: &RecPartResult, label: &str) {
    assert_eq!(a.partitioner.tree(), b.partitioner.tree(), "{label}: tree");
    assert_eq!(
        a.partitioner.num_partitions(),
        b.partitioner.num_partitions(),
        "{label}: partitions"
    );
    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(ra.strategy, rb.strategy, "{label}");
    assert_eq!(ra.iterations, rb.iterations, "{label}");
    assert_eq!(ra.winning_iteration, rb.winning_iteration, "{label}");
    assert_eq!(ra.leaves, rb.leaves, "{label}");
    assert_eq!(ra.partitions, rb.partitions, "{label}");
    assert_eq!(
        ra.split_search, rb.split_search,
        "{label}: split-search counters"
    );
    assert_eq!(ra.evaluation, rb.evaluation, "{label}: evaluation counters");
    let estimates = |r: &OptimizationReport| {
        [
            r.estimated_total_input,
            r.estimated_dup_overhead,
            r.estimated_load_overhead,
            r.estimated_output,
            r.predicted_time,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(estimates(ra), estimates(rb), "{label}: estimate bits");
    assert_eq!(ra.termination_reason, rb.termination_reason, "{label}");
}

fn run_with(
    cfg: &RecPartConfig,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    threads: usize,
) -> RecPartResult {
    // Re-seeded per run so every configuration sees identical samples.
    let mut rng = StdRng::seed_from_u64(0x0D15_EA5E);
    RecPart::new(cfg.clone().with_threads(threads)).optimize(s, t, band, &mut rng)
}

/// Optimize at threads 1 / 0 / 4 and require every run to equal the sequential one,
/// which is returned.
fn assert_thread_independent(
    cfg: &RecPartConfig,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    label: &str,
) -> RecPartResult {
    let sequential = run_with(cfg, s, t, band, 1);
    for threads in [0usize, 4] {
        let parallel = run_with(cfg, s, t, band, threads);
        assert_bit_identical(
            &sequential,
            &parallel,
            &format!("{label} threads={threads}"),
        );
    }
    sequential
}

/// Pareto-skewed 1-D workload (the paper's hardest skew case).
#[test]
fn pareto_1d_is_bit_identical_across_threads() {
    let s = pareto_relation(30_000, 1, 1.5, 11);
    let t = pareto_relation(30_000, 1, 1.5, 12);
    let band = BandCondition::symmetric(&[0.01]);
    let cfg = RecPartConfig::new(32).with_sample(sample_config());
    let sequential = assert_thread_independent(&cfg, &s, &t, &band, "pareto-1d");
    assert!(
        sequential.partitioner.num_partitions() >= 32,
        "workload must be non-trivial, got {} partitions",
        sequential.partitioner.num_partitions()
    );
}

/// Multi-dimensional catalog workload with symmetric partitioning enabled (so
/// S-splits and the T-side output projections are exercised).
#[test]
fn catalog_3d_is_bit_identical_across_threads() {
    let s = catalog_relation(20_000, 3, 21);
    let t = catalog_relation(20_000, 3, 22);
    let band = BandCondition::symmetric(&[0.5, 2.0, 2.0]);
    let cfg = RecPartConfig::new(16).with_sample(sample_config());
    assert_thread_independent(&cfg, &s, &t, &band, "catalog-3d");
}

/// RecPart-S (asymmetric roles) and the theoretical termination rule follow the same
/// contract.
#[test]
fn recpart_s_theoretical_is_bit_identical_across_threads() {
    let s = pareto_relation(15_000, 2, 1.3, 31);
    let t = pareto_relation(15_000, 2, 1.3, 32);
    let band = BandCondition::symmetric(&[0.2, 0.2]);
    let cfg = RecPartConfig::new(8)
        .without_symmetric()
        .with_theoretical_termination()
        .with_sample(sample_config());
    assert_thread_independent(&cfg, &s, &t, &band, "recpart-s");
}

/// Wide-band workload where leaves go "small" and the optimizer interleaves grid
/// increments with plane splits.
#[test]
fn grid_heavy_workload_is_bit_identical_across_threads() {
    let s = pareto_relation(10_000, 1, 1.5, 41);
    let t = pareto_relation(10_000, 1, 1.5, 42);
    let band = BandCondition::symmetric(&[3.0]);
    let cfg = RecPartConfig::new(12).with_sample(sample_config());
    let sequential = assert_thread_independent(&cfg, &s, &t, &band, "grid-heavy");
    assert!(
        sequential.partitioner.num_partitions() > sequential.partitioner.tree().num_leaves(),
        "expected 1-Bucket cells in small leaves"
    );
}

/// The incremental evaluator's workloads — one hard-skew 1-D workload with deep
/// trees, one multi-dimensional catalog with S-splits, one wide-band grid-heavy
/// workload where grid increments dominate — at threads 1 / 0 / 4, evaluation
/// counters included.
#[test]
fn incremental_evaluator_is_bit_identical_across_threads() {
    let workloads: Vec<(&str, Relation, Relation, BandCondition, RecPartConfig)> = vec![
        (
            "pareto-1d",
            pareto_relation(20_000, 1, 1.5, 71),
            pareto_relation(20_000, 1, 1.5, 72),
            BandCondition::symmetric(&[0.01]),
            RecPartConfig::new(32).with_sample(sample_config()),
        ),
        (
            "catalog-3d",
            catalog_relation(15_000, 3, 73),
            catalog_relation(15_000, 3, 74),
            BandCondition::symmetric(&[0.5, 2.0, 2.0]),
            RecPartConfig::new(16).with_sample(sample_config()),
        ),
        (
            "grid-heavy",
            pareto_relation(10_000, 1, 1.5, 75),
            pareto_relation(10_000, 1, 1.5, 76),
            BandCondition::symmetric(&[3.0]),
            RecPartConfig::new(12).with_sample(sample_config()),
        ),
    ];
    for (label, s, t, band, cfg) in &workloads {
        let sequential = assert_thread_independent(cfg, s, t, band, label);
        let e = sequential.report.evaluation;
        assert!(
            e.ledger_leaf_visits <= 2 * e.evaluations,
            "{label}: ledger visits {} exceed the delta bound for {} evaluations",
            e.ledger_leaf_visits,
            e.evaluations
        );
    }
}

/// The split-search counters are non-trivial and reported alongside the wall-clock.
#[test]
fn split_search_counters_are_populated() {
    let s = pareto_relation(8_000, 1, 1.5, 51);
    let t = pareto_relation(8_000, 1, 1.5, 52);
    let band = BandCondition::symmetric(&[0.05]);
    let cfg = RecPartConfig::new(8).with_sample(sample_config());
    let result = run_with(&cfg, &s, &t, &band, 0);
    let c = result.report.split_search;
    assert!(c.leaves_scored > 0);
    assert!(c.dims_scanned > 0);
    assert!(c.candidates_scored > c.dims_scanned, "{c:?}");
    assert!(result.report.split_search_seconds >= 0.0);
    assert!(result.report.split_search_seconds <= result.report.optimization_seconds);
    let e = result.report.evaluation;
    assert!(e.evaluations > 0);
    assert!(e.ledger_leaf_visits > 0);
    assert!(e.lpt_cells >= e.evaluations, "{e:?}");
    assert!(result.report.evaluation_seconds >= 0.0);
    assert!(result.report.evaluation_seconds <= result.report.optimization_seconds);
}
