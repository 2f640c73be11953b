//! Bit-identity of the RecPart optimizer across thread counts and scorer
//! implementations: the parallel sweep-line split search is a pure wall-clock
//! optimization — the chosen split tree (shape, split values, kinds, grids), the
//! estimated statistics, and the split-search work counters must be exactly the
//! result the strictly sequential binary-search optimizer of PR 2 produces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recpart::{
    BandCondition, Evaluator, Partitioner, RecPart, RecPartConfig, RecPartResult, Relation,
    SampleConfig, SplitScorer,
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
    assert_eq!(
        a.report.evaluation, b.report.evaluation,
        "{label}: evaluation counters"
    );
    assert_bit_identical_except_eval_counters(a, b, label);
}

/// [`assert_bit_identical`] minus the evaluation work counters — the comparison
/// across *evaluators*, whose `ledger_leaf_visits` differ by design while everything
/// they compute must not.
fn assert_bit_identical_except_eval_counters(a: &RecPartResult, b: &RecPartResult, label: &str) {
    assert_eq!(a.partitioner.tree(), b.partitioner.tree(), "{label}: tree");
    assert_eq!(
        a.partitioner.num_partitions(),
        b.partitioner.num_partitions(),
        "{label}: partitions"
    );
    assert_eq!(a.report.strategy, b.report.strategy, "{label}");
    assert_eq!(a.report.iterations, b.report.iterations, "{label}");
    assert_eq!(
        a.report.winning_iteration, b.report.winning_iteration,
        "{label}"
    );
    assert_eq!(a.report.leaves, b.report.leaves, "{label}");
    assert_eq!(a.report.partitions, b.report.partitions, "{label}");
    assert_eq!(
        a.report.split_search, b.report.split_search,
        "{label}: split-search counters"
    );
    for (x, y, what) in [
        (
            a.report.estimated_total_input,
            b.report.estimated_total_input,
            "estimated_total_input",
        ),
        (
            a.report.estimated_dup_overhead,
            b.report.estimated_dup_overhead,
            "estimated_dup_overhead",
        ),
        (
            a.report.estimated_load_overhead,
            b.report.estimated_load_overhead,
            "estimated_load_overhead",
        ),
        (
            a.report.estimated_output,
            b.report.estimated_output,
            "estimated_output",
        ),
        (
            a.report.predicted_time,
            b.report.predicted_time,
            "predicted_time",
        ),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {what}");
    }
    assert_eq!(
        a.report.termination_reason, b.report.termination_reason,
        "{label}"
    );
}

fn run_with(
    cfg: &RecPartConfig,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    threads: usize,
    scorer: SplitScorer,
) -> RecPartResult {
    // Re-seeded per run so every configuration sees identical samples.
    let mut rng = StdRng::seed_from_u64(0x0D15_EA5E);
    RecPart::new(cfg.clone().with_threads(threads).with_scorer(scorer))
        .optimize(s, t, band, &mut rng)
}

/// Pareto-skewed 1-D workload (the paper's hardest skew case): threads 1 / 0 / 4 and
/// both scorers must agree bit-for-bit.
#[test]
fn pareto_1d_is_bit_identical_across_threads_and_scorers() {
    let s = pareto_relation(30_000, 1, 1.5, 11);
    let t = pareto_relation(30_000, 1, 1.5, 12);
    let band = BandCondition::symmetric(&[0.01]);
    let cfg = RecPartConfig::new(32).with_sample(sample_config());

    let baseline = run_with(&cfg, &s, &t, &band, 1, SplitScorer::BinarySearch);
    assert!(
        baseline.partitioner.num_partitions() >= 32,
        "workload must be non-trivial, got {} partitions",
        baseline.partitioner.num_partitions()
    );
    for threads in [1usize, 0, 4] {
        let sweep = run_with(&cfg, &s, &t, &band, threads, SplitScorer::SweepLine);
        assert_bit_identical(&baseline, &sweep, &format!("pareto-1d threads={threads}"));
    }
}

/// Multi-dimensional catalog workload with symmetric partitioning enabled (so
/// S-splits and the T-side output projections are exercised).
#[test]
fn catalog_3d_is_bit_identical_across_threads_and_scorers() {
    let s = catalog_relation(20_000, 3, 21);
    let t = catalog_relation(20_000, 3, 22);
    let band = BandCondition::symmetric(&[0.5, 2.0, 2.0]);
    let cfg = RecPartConfig::new(16).with_sample(sample_config());

    let baseline = run_with(&cfg, &s, &t, &band, 1, SplitScorer::BinarySearch);
    for threads in [1usize, 0, 4] {
        let sweep = run_with(&cfg, &s, &t, &band, threads, SplitScorer::SweepLine);
        assert_bit_identical(&baseline, &sweep, &format!("catalog-3d threads={threads}"));
    }
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

    let baseline = run_with(&cfg, &s, &t, &band, 1, SplitScorer::BinarySearch);
    for threads in [0usize, 4] {
        let sweep = run_with(&cfg, &s, &t, &band, threads, SplitScorer::SweepLine);
        assert_bit_identical(&baseline, &sweep, &format!("recpart-s threads={threads}"));
    }
}

/// Wide-band workload where leaves go "small" and the optimizer interleaves grid
/// increments with plane splits.
#[test]
fn grid_heavy_workload_is_bit_identical_across_threads() {
    let s = pareto_relation(10_000, 1, 1.5, 41);
    let t = pareto_relation(10_000, 1, 1.5, 42);
    let band = BandCondition::symmetric(&[3.0]);
    let cfg = RecPartConfig::new(12).with_sample(sample_config());

    let baseline = run_with(&cfg, &s, &t, &band, 1, SplitScorer::SweepLine);
    assert!(
        baseline.partitioner.num_partitions() > baseline.partitioner.tree().num_leaves(),
        "expected 1-Bucket cells in small leaves"
    );
    for threads in [0usize, 4] {
        let sweep = run_with(&cfg, &s, &t, &band, threads, SplitScorer::SweepLine);
        assert_bit_identical(&baseline, &sweep, &format!("grid-heavy threads={threads}"));
    }
    let reference = run_with(&cfg, &s, &t, &band, 1, SplitScorer::BinarySearch);
    assert_bit_identical(&baseline, &reference, "grid-heavy reference scorer");
}

fn run_with_evaluator(
    cfg: &RecPartConfig,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    threads: usize,
    evaluator: Evaluator,
) -> RecPartResult {
    let mut rng = StdRng::seed_from_u64(0x0D15_EA5E);
    RecPart::new(cfg.clone().with_threads(threads).with_evaluator(evaluator))
        .optimize(s, t, band, &mut rng)
}

/// Incremental evaluation at threads 1 / 0 / 4 must be bit-identical to the
/// full-recompute oracle — everything the optimizer computes (tree, loads, report
/// estimates) is shared; only `ledger_leaf_visits` may differ, and it must show the
/// incremental path doing delta-sized work. One hard-skew 1-D workload with deep
/// trees, one multi-dimensional catalog with S-splits, one wide-band grid-heavy
/// workload where grid increments dominate.
#[test]
fn incremental_evaluator_is_bit_identical_across_threads_and_oracles() {
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
        let oracle = run_with_evaluator(cfg, s, t, band, 1, Evaluator::FullRecompute);
        let baseline = run_with_evaluator(cfg, s, t, band, 1, Evaluator::Incremental);
        assert_bit_identical_except_eval_counters(
            &oracle,
            &baseline,
            &format!("{label}: incremental vs full recompute"),
        );
        // evaluate() no longer iterates all leaves per split: after the initial
        // build the ledger is touched at most twice per evaluation, while the
        // oracle pays leaves × evaluations.
        let (ie, oe) = (baseline.report.evaluation, oracle.report.evaluation);
        assert_eq!(ie.evaluations, oe.evaluations, "{label}");
        assert_eq!(ie.lpt_cells, oe.lpt_cells, "{label}");
        assert!(
            ie.ledger_leaf_visits <= 2 * ie.evaluations,
            "{label}: incremental ledger visits {} exceed the delta bound for {} evaluations",
            ie.ledger_leaf_visits,
            ie.evaluations
        );
        assert!(
            oe.ledger_leaf_visits > 2 * ie.ledger_leaf_visits,
            "{label}: oracle must re-walk far more leaves ({} vs {})",
            oe.ledger_leaf_visits,
            ie.ledger_leaf_visits
        );
        // Thread determinism of the incremental path (counters included).
        for threads in [0usize, 4] {
            let parallel = run_with_evaluator(cfg, s, t, band, threads, Evaluator::Incremental);
            assert_bit_identical(
                &baseline,
                &parallel,
                &format!("{label}: incremental threads={threads}"),
            );
        }
    }
}

/// The split-search counters are non-trivial and reported alongside the wall-clock.
#[test]
fn split_search_counters_are_populated() {
    let s = pareto_relation(8_000, 1, 1.5, 51);
    let t = pareto_relation(8_000, 1, 1.5, 52);
    let band = BandCondition::symmetric(&[0.05]);
    let cfg = RecPartConfig::new(8).with_sample(sample_config());
    let result = run_with(&cfg, &s, &t, &band, 0, SplitScorer::SweepLine);
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
