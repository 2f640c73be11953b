//! End-to-end integration tests: every partitioner in the workspace is run through the
//! simulated cluster on several workloads and must produce the exact join result.

use band_join::distsim::exact_join_count;
use band_join::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workloads() -> Vec<(&'static str, Relation, Relation, BandCondition)> {
    let mut rng = StdRng::seed_from_u64(100);
    let mut out = Vec::new();

    // Skewed 1-D Pareto workload.
    let s = datagen::pareto_relation(3_000, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(3_000, 1, 1.5, &mut rng);
    out.push(("pareto-1d", s, t, BandCondition::symmetric(&[0.02])));

    // 3-D Pareto workload with a wider band.
    let s = datagen::pareto_relation(1_500, 3, 1.5, &mut rng);
    let t = datagen::pareto_relation(1_500, 3, 1.5, &mut rng);
    out.push((
        "pareto-3d",
        s,
        t,
        BandCondition::symmetric(&[1.0, 1.0, 1.0]),
    ));

    // Anti-correlated (reverse Pareto) workload: output is empty but partitioning must
    // still be correct and every tuple assigned.
    let s = datagen::pareto_relation(1_500, 1, 1.5, &mut rng);
    let t = datagen::reverse_pareto_relation(1_500, 1, 1.5, &mut rng);
    out.push(("rv-pareto-1d", s, t, BandCondition::symmetric(&[100.0])));

    // Uniform 2-D data.
    let s = datagen::uniform_relation(2_000, 2, 0.0, 50.0, &mut rng);
    let t = datagen::uniform_relation(2_000, 2, 0.0, 50.0, &mut rng);
    out.push(("uniform-2d", s, t, BandCondition::symmetric(&[0.5, 0.5])));

    out
}

fn all_partitioners(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    workers: usize,
    seed: u64,
) -> Vec<Box<dyn Partitioner>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Box<dyn Partitioner>> = Vec::new();
    out.push(Box::new(
        RecPart::new(RecPartConfig::new(workers))
            .optimize(s, t, band, &mut rng)
            .partitioner,
    ));
    out.push(Box::new(
        RecPart::new(RecPartConfig::new(workers).without_symmetric())
            .optimize(s, t, band, &mut rng)
            .partitioner,
    ));
    out.push(Box::new(OneBucket::new(workers, s.len(), t.len(), seed)));
    if (0..band.dims()).all(|d| band.eps(d) > 0.0) {
        out.push(Box::new(GridPartitioner::build(s, t, band, 1.0)));
        out.push(Box::new(GridStarPartitioner::build(
            s,
            t,
            band,
            workers,
            &CostModel::default(),
            32,
            &mut rng,
        )));
    }
    out.push(Box::new(CsioPartitioner::build(
        s,
        t,
        band,
        workers,
        &CsioConfig {
            quantiles: 64,
            max_matrix_dim: 32,
            input_sample_size: 2_000,
            output_sample_size: 512,
            buckets_per_dim: 256,
            ..CsioConfig::default()
        },
        &mut rng,
    )));
    out.push(Box::new(IEJoinPartitioner::build(
        s,
        t,
        band,
        (s.len() / (2 * workers)).max(1),
    )));
    out
}

#[test]
fn every_partitioner_produces_the_exact_result_on_every_workload() {
    let workers = 6;
    let executor = Executor::with_workers(workers);
    for (name, s, t, band) in workloads() {
        let exact = exact_join_count(&s, &t, &band);
        for partitioner in all_partitioners(&s, &t, &band, workers, 7) {
            let report = executor.execute(partitioner.as_ref(), &s, &t, &band);
            assert_eq!(
                report.stats.output_len,
                exact,
                "strategy {} lost or duplicated results on workload {name}",
                partitioner.name()
            );
            assert_eq!(
                report.correct,
                Some(true),
                "strategy {} failed verification on workload {name}",
                partitioner.name()
            );
            // Every tuple must be assigned at least once: total input ≥ |S| + |T|.
            assert!(
                report.stats.total_input >= (s.len() + t.len()) as u64,
                "strategy {} dropped tuples on workload {name}",
                partitioner.name()
            );
        }
    }
}

#[test]
fn recpart_beats_one_bucket_on_selective_joins() {
    // For a selective band-join, RecPart should need far less input duplication than
    // 1-Bucket's ~√w while keeping a competitive max load (the paper's headline result).
    let workers = 8;
    let mut rng = StdRng::seed_from_u64(11);
    let s = datagen::pareto_relation(6_000, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(6_000, 1, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[0.005]);
    let executor = Executor::with_workers(workers);

    let recpart = RecPart::new(RecPartConfig::new(workers)).optimize(&s, &t, &band, &mut rng);
    let rp_report = executor.execute(&recpart.partitioner, &s, &t, &band);
    let ob = OneBucket::new(workers, s.len(), t.len(), 3);
    let ob_report = executor.execute(&ob, &s, &t, &band);

    assert!(
        rp_report.stats.total_input * 2 < ob_report.stats.total_input,
        "RecPart I = {} should be far below 1-Bucket I = {}",
        rp_report.stats.total_input,
        ob_report.stats.total_input
    );
    assert!(
        rp_report.stats.max_worker_load <= ob_report.stats.max_worker_load * 1.5,
        "RecPart max load {} should not be much worse than 1-Bucket {}",
        rp_report.stats.max_worker_load,
        ob_report.stats.max_worker_load
    );
}

#[test]
fn symmetric_recpart_helps_on_anti_correlated_data() {
    // Table 9 / Table 14: on reverse-Pareto data RecPart (with S-splits) should achieve
    // a max worker input no worse than RecPart-S, typically much better.
    let workers = 8;
    let mut rng = StdRng::seed_from_u64(13);
    let s = datagen::pareto_relation(4_000, 1, 2.0, &mut rng);
    let t = datagen::reverse_pareto_relation(4_000, 1, 2.0, &mut rng);
    let band = BandCondition::symmetric(&[1_000.0]);
    let executor = Executor::with_workers(workers);

    let sym = RecPart::new(RecPartConfig::new(workers)).optimize(&s, &t, &band, &mut rng);
    let asym = RecPart::new(RecPartConfig::new(workers).without_symmetric())
        .optimize(&s, &t, &band, &mut rng);
    let sym_report = executor.execute(&sym.partitioner, &s, &t, &band);
    let asym_report = executor.execute(&asym.partitioner, &s, &t, &band);
    assert_eq!(sym_report.correct, Some(true));
    assert_eq!(asym_report.correct, Some(true));
    assert!(
        sym_report.stats.max_worker_input <= asym_report.stats.max_worker_input,
        "symmetric RecPart Im = {} should not exceed RecPart-S Im = {}",
        sym_report.stats.max_worker_input,
        asym_report.stats.max_worker_input
    );
}

#[test]
fn executor_works_with_one_worker() {
    let mut rng = StdRng::seed_from_u64(17);
    let s = datagen::uniform_relation(500, 1, 0.0, 10.0, &mut rng);
    let t = datagen::uniform_relation(500, 1, 0.0, 10.0, &mut rng);
    let band = BandCondition::symmetric(&[0.1]);
    let recpart = RecPart::new(RecPartConfig::new(1)).optimize(&s, &t, &band, &mut rng);
    let report = Executor::with_workers(1).execute(&recpart.partitioner, &s, &t, &band);
    assert_eq!(report.correct, Some(true));
    // A single worker cannot beat the lower bound: load overhead is 0 by definition if
    // there is no duplication.
    assert!(report.load_overhead() >= -1e-9);
}
