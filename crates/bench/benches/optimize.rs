//! Criterion benchmark of the RecPart split search itself: `optimize_with_samples`
//! on pre-drawn samples (sampling excluded; the split search is sequential by
//! construction, so there is no thread axis), comparing
//!
//! * the PR 2 baseline (`SplitScorer::BinarySearch`),
//! * the sweep-line scorer with cached projections,
//! * the sweep-line scorer with the `Evaluator::FullRecompute` oracle (isolates
//!   what the incremental evaluation ledger saves end to end).
//!
//! All rows produce bit-identical `RecPartResult`s (asserted once per workload
//! before timing); only wall-clock differs. A second `evaluate/*` group times the
//! post-split evaluation alone on the fully grown (deep) tree: incremental
//! delta-evaluation vs the full walk + re-sort recompute it replaced. Pass `--test`
//! to run everything in seconds-level smoke mode — CI does this in release so the
//! hot path is exercised optimized.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{
    BandCondition, Evaluator, InputSample, OutputSample, RecPart, RecPartConfig, Relation,
    SampleConfig, SplitScorer,
};
use std::time::Instant;

/// Smoke mode: shrink sample sizes and iterations so the bench finishes in seconds
/// (used by CI; mirrors criterion's `--test` flag).
fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

struct PreparedWorkload {
    label: &'static str,
    s_len: usize,
    t_len: usize,
    band: BandCondition,
    s_sample: InputSample,
    t_sample: InputSample,
    o_sample: OutputSample,
}

/// Draw samples once per workload; the bench times only the split search.
fn prepare(
    label: &'static str,
    s: Relation,
    t: Relation,
    band: BandCondition,
    sample: SampleConfig,
) -> PreparedWorkload {
    let mut rng = StdRng::seed_from_u64(0x0BEC_0DE5);
    let total = sample.input_sample_size.max(2);
    let s_share = (total / 2).max(1);
    let s_sample = InputSample::draw(&s, s_share, &mut rng);
    let t_sample = InputSample::draw(&t, total - s_share, &mut rng);
    let o_sample = OutputSample::draw(&s, &t, &band, &sample, &mut rng);
    PreparedWorkload {
        label,
        s_len: s.len(),
        t_len: t.len(),
        band,
        s_sample,
        t_sample,
        o_sample,
    }
}

/// The large Pareto configuration of the README table (scaled down under `--test`).
fn pareto_1d() -> PreparedWorkload {
    let (n, sample) = if smoke() {
        (
            40_000,
            SampleConfig {
                input_sample_size: 4_096,
                output_sample_size: 1_024,
                output_probe_count: 512,
            },
        )
    } else {
        (
            200_000,
            SampleConfig {
                input_sample_size: 32_768,
                output_sample_size: 8_192,
                output_probe_count: 4_096,
            },
        )
    };
    let mut rng = StdRng::seed_from_u64(0x009A_3E70);
    let s = datagen::pareto_relation(n, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(n, 1, 1.5, &mut rng);
    prepare(
        "pareto-1d",
        s,
        t,
        BandCondition::symmetric(&[0.001]),
        sample,
    )
}

fn pareto_3d() -> PreparedWorkload {
    let (n, sample) = if smoke() {
        (
            20_000,
            SampleConfig {
                input_sample_size: 2_048,
                output_sample_size: 512,
                output_probe_count: 256,
            },
        )
    } else {
        (
            100_000,
            SampleConfig {
                input_sample_size: 16_384,
                output_sample_size: 4_096,
                output_probe_count: 2_048,
            },
        )
    };
    let mut rng = StdRng::seed_from_u64(0x009A_3E71);
    let s = datagen::pareto_relation(n, 3, 1.5, &mut rng);
    let t = datagen::pareto_relation(n, 3, 1.5, &mut rng);
    prepare(
        "pareto-3d",
        s,
        t,
        BandCondition::symmetric(&[2.0, 2.0, 2.0]),
        sample,
    )
}

/// `(row label, scorer, evaluator)` configurations every workload compares.
const ROWS: [(&str, SplitScorer, Evaluator); 3] = [
    (
        "binary-search-seq",
        SplitScorer::BinarySearch,
        Evaluator::Incremental,
    ),
    ("sweep-seq", SplitScorer::SweepLine, Evaluator::Incremental),
    (
        "sweep-full-eval",
        SplitScorer::SweepLine,
        Evaluator::FullRecompute,
    ),
];

fn bench_workload(c: &mut Criterion, workers: usize, w: &PreparedWorkload) {
    let mut group = c.benchmark_group(format!("optimize/{}", w.label));
    group.sample_size(if smoke() { 2 } else { 10 });

    // The rows are only comparable because they optimize identically: assert
    // bit-identity of the chosen tree before timing anything.
    let result_of = |scorer: SplitScorer, evaluator: Evaluator| {
        let cfg = RecPartConfig::new(workers)
            .with_scorer(scorer)
            .with_threads(1)
            .with_evaluator(evaluator);
        RecPart::new(cfg).optimize_with_samples(
            w.s_len,
            w.t_len,
            &w.band,
            &w.s_sample,
            &w.t_sample,
            &w.o_sample,
            Instant::now(),
        )
    };
    let baseline = result_of(SplitScorer::BinarySearch, Evaluator::Incremental);
    for (_, scorer, evaluator) in ROWS {
        let r = result_of(scorer, evaluator);
        assert_eq!(
            baseline.partitioner.tree(),
            r.partitioner.tree(),
            "{}: scorer {scorer:?} evaluator {evaluator:?} diverged",
            w.label
        );
    }

    for (label, scorer, evaluator) in ROWS {
        let optimizer = RecPart::new(
            RecPartConfig::new(workers)
                .with_scorer(scorer)
                .with_threads(1)
                .with_evaluator(evaluator),
        );
        group.bench_function(BenchmarkId::new(label, workers), |b| {
            b.iter(|| {
                optimizer.optimize_with_samples(
                    w.s_len,
                    w.t_len,
                    &w.band,
                    &w.s_sample,
                    &w.t_sample,
                    &w.o_sample,
                    Instant::now(),
                )
            })
        });
    }
    group.finish();
}

/// Time the post-split evaluation alone on the fully grown tree: grow once per
/// evaluator, assert the evaluations agree bit for bit, then measure repeated
/// evaluations on the same harnesses. The incremental row replays only the ledger's
/// LPT mapping and sums; the full-recompute row additionally pays the per-split
/// tree walk + re-sort the incremental ledger deletes.
fn bench_evaluate(c: &mut Criterion, workers: usize, w: &PreparedWorkload) {
    let mut group = c.benchmark_group(format!("evaluate/{}", w.label));
    group.sample_size(if smoke() { 10 } else { 20 });

    let optimizer_with = |evaluator: Evaluator| {
        RecPart::new(
            RecPartConfig::new(workers)
                .with_threads(1)
                .with_evaluator(evaluator),
        )
    };
    let opt_incr = optimizer_with(Evaluator::Incremental);
    let opt_full = optimizer_with(Evaluator::FullRecompute);
    let mut incr = opt_incr.evaluation_bench(
        w.s_len,
        w.t_len,
        &w.band,
        &w.s_sample,
        &w.t_sample,
        &w.o_sample,
    );
    let mut full = opt_full.evaluation_bench(
        w.s_len,
        w.t_len,
        &w.band,
        &w.s_sample,
        &w.t_sample,
        &w.o_sample,
    );

    // The rows are only comparable because both evaluators compute the identical
    // evaluation on the same grown state: assert that before timing anything.
    assert_eq!(
        incr.evaluate_once().to_bits(),
        full.evaluate_once().to_bits(),
        "{}: evaluators diverged on the grown tree",
        w.label
    );
    if !smoke() {
        assert!(
            incr.leaves() >= 64,
            "{}: expected a deep (>= 64-leaf) tree, got {} leaves",
            w.label,
            incr.leaves()
        );
    }

    group.bench_function(BenchmarkId::new("incremental", workers), |b| {
        b.iter(|| incr.evaluate_once())
    });
    group.bench_function(BenchmarkId::new("full-recompute", workers), |b| {
        b.iter(|| full.evaluate_once())
    });
    group.finish();
}

fn bench_optimize_pareto_1d(c: &mut Criterion) {
    let w = pareto_1d();
    bench_workload(c, 64, &w);
    bench_evaluate(c, 64, &w);
}

fn bench_optimize_pareto_3d(c: &mut Criterion) {
    bench_workload(c, 30, &pareto_3d());
}

criterion_group!(benches, bench_optimize_pareto_1d, bench_optimize_pareto_3d);
criterion_main!(benches);
