//! Sequential vs. rayon-parallel executor equivalence: the parallel backend must be a
//! pure wall-clock optimization — same join output (byte-identical pairs), same stats,
//! same per-partition loads — while surfacing real per-worker wall-clock timing.

use band_join::distsim::{ExecutorConfig, VerificationLevel};
use band_join::prelude::*;
use band_join::recpart::SplitTreePartitioner;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> (Relation, Relation, BandCondition) {
    let mut rng = StdRng::seed_from_u64(2020);
    let s = datagen::pareto_relation(4_000, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(4_000, 1, 1.5, &mut rng);
    (s, t, BandCondition::symmetric(&[0.01]))
}

/// Big enough per side (> `distsim::shuffle`'s 4 096-tuple threshold) that parallel
/// configurations actually take the chunked routing path, so the determinism tests
/// compare parallel routing against sequential rather than sequential against itself.
fn large_workload() -> (Relation, Relation, BandCondition) {
    let mut rng = StdRng::seed_from_u64(2021);
    let s = datagen::pareto_relation(8_000, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(8_000, 1, 1.5, &mut rng);
    (s, t, BandCondition::symmetric(&[0.005]))
}

fn optimize(
    cfg: RecPartConfig,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
) -> SplitTreePartitioner {
    let mut rng = StdRng::seed_from_u64(7);
    RecPart::new(cfg.with_seed(7))
        .optimize(s, t, band, &mut rng)
        .partitioner
}

#[test]
fn parallel_executor_matches_sequential_bit_for_bit() {
    let workers = 8;
    let (s, t, band) = workload();
    let partitioner = optimize(RecPartConfig::new(workers), &s, &t, &band);

    let sequential = Executor::new(
        ExecutorConfig::new(workers)
            .with_verification(VerificationLevel::FullPairs)
            .with_threads(1),
    )
    .execute(&partitioner, &s, &t, &band);
    let parallel =
        Executor::new(ExecutorConfig::new(workers).with_verification(VerificationLevel::FullPairs))
            .execute(&partitioner, &s, &t, &band);

    // Both paths are exact.
    assert_eq!(sequential.correct, Some(true));
    assert_eq!(parallel.correct, Some(true));

    // Identical success measures and per-partition accounting.
    assert_eq!(sequential.stats, parallel.stats);
    assert_eq!(sequential.per_partition, parallel.per_partition);
    assert_eq!(sequential.partition_to_worker, parallel.partition_to_worker);
    assert_eq!(sequential.total_comparisons, parallel.total_comparisons);
    assert_eq!(sequential.exact_output, parallel.exact_output);

    // Byte-identical join results: the materialized pair lists match exactly
    // (same pairs, same order), not just as multisets.
    let seq_pairs = sequential.pair_check.as_ref().expect("pairs materialized");
    let par_pairs = parallel.pair_check.as_ref().expect("pairs materialized");
    assert_eq!(seq_pairs, par_pairs);

    // The sequential path reports exactly one thread; the parallel path reports
    // however many the machine offers (at least one).
    assert_eq!(sequential.threads_used, 1);
    assert!(parallel.threads_used >= 1);
}

#[test]
fn executor_reports_wall_clock_per_worker() {
    let workers = 4;
    let (s, t, band) = workload();
    let partitioner = optimize(RecPartConfig::new(workers), &s, &t, &band);
    let report = Executor::with_workers(workers).execute(&partitioner, &s, &t, &band);

    // One wall-clock measurement per partition and per worker.
    assert_eq!(report.per_partition_wall_seconds.len(), report.partitions);
    assert_eq!(report.per_worker_wall_seconds.len(), workers);
    assert!(report
        .per_partition_wall_seconds
        .iter()
        .all(|&s| s.is_finite() && s >= 0.0));

    // Per-worker busy time is the sum of its partitions' times.
    let mut expected = vec![0.0f64; workers];
    for (p, &w) in report.partition_to_worker.iter().enumerate() {
        expected[w as usize] += report.per_partition_wall_seconds[p];
    }
    for (w, &got) in report.per_worker_wall_seconds.iter().enumerate() {
        assert!(
            (got - expected[w]).abs() < 1e-12,
            "worker {w}: {got} != {}",
            expected[w]
        );
    }

    // The phase wall time covers at least the busiest worker's single longest
    // partition (it ran somewhere within the phase), and the total busy time is at
    // least the slowest worker's busy time.
    assert!(report.local_join_wall_seconds > 0.0);
    assert!(report.max_worker_wall_seconds() <= report.per_worker_wall_seconds.iter().sum::<f64>());

    // Executing a non-trivial partitioning must spread work over several workers.
    let busy_workers = report
        .per_worker_wall_seconds
        .iter()
        .filter(|&&s| s > 0.0)
        .count();
    assert!(busy_workers > 1, "only {busy_workers} busy workers");
}

#[test]
fn explicit_thread_counts_agree() {
    let workers = 4;
    let (s, t, band) = workload();
    let partitioner = optimize(RecPartConfig::new(workers), &s, &t, &band);

    let mut baseline: Option<band_join::distsim::ExecutionReport> = None;
    for threads in [1usize, 2, 3] {
        let report = Executor::new(ExecutorConfig::new(workers).with_threads(threads)).execute(
            &partitioner,
            &s,
            &t,
            &band,
        );
        assert_eq!(report.correct, Some(true));
        if let Some(base) = &baseline {
            assert_eq!(base.stats, report.stats, "threads={threads} changed stats");
            assert_eq!(
                base.per_partition, report.per_partition,
                "threads={threads} changed per-partition loads"
            );
        } else {
            baseline = Some(report);
        }
    }
}

/// Map/shuffle determinism on a real RecPart partitioning: sequential, all-cores, and
/// an explicit 4-thread pool must route every tuple to bit-identical per-partition
/// index lists.
#[test]
fn map_shuffle_is_bit_identical_across_thread_counts() {
    let workers = 8;
    let (s, t, band) = large_workload();
    let partitioner = optimize(RecPartConfig::new(workers), &s, &t, &band);

    let shuffled_seq = Executor::new(ExecutorConfig::new(workers).with_threads(1)).map_shuffle(
        &partitioner,
        &s,
        &t,
    );
    assert!(
        shuffled_seq.s_parts.num_partitions() > 1,
        "need a non-trivial partitioning"
    );
    assert!(shuffled_seq.wall_seconds >= 0.0);
    for threads in [0usize, 4] {
        let shuffled = Executor::new(ExecutorConfig::new(workers).with_threads(threads))
            .map_shuffle(&partitioner, &s, &t);
        assert_eq!(
            shuffled_seq.s_parts, shuffled.s_parts,
            "threads={threads} changed s_parts"
        );
        assert_eq!(
            shuffled_seq.t_parts, shuffled.t_parts,
            "threads={threads} changed t_parts"
        );
        assert_eq!(shuffled_seq.total_input(), shuffled.total_input());
    }
}

/// Full determinism matrix on RecPart partitionings (not just `SinglePartition`),
/// symmetric and RecPart-S: sequential vs. `threads=0` vs. `threads=4` produce
/// identical stats, per-partition loads, and pair-level verification under
/// `FullPairs`.
#[test]
fn execute_reports_identical_across_thread_counts_with_full_pairs() {
    let workers = 8;
    let (s, t, band) = large_workload();
    let cfg = RecPartConfig::new(workers);
    for partitioner in [
        optimize(cfg.clone(), &s, &t, &band),
        optimize(cfg.clone().without_symmetric(), &s, &t, &band),
    ] {
        let name = partitioner.name();
        let base = Executor::new(
            ExecutorConfig::new(workers)
                .with_verification(VerificationLevel::FullPairs)
                .with_threads(1),
        )
        .execute(&partitioner, &s, &t, &band);
        assert_eq!(base.correct, Some(true), "{name}");
        assert_eq!(base.threads_used, 1);

        for threads in [0usize, 4] {
            let report = Executor::new(
                ExecutorConfig::new(workers)
                    .with_verification(VerificationLevel::FullPairs)
                    .with_threads(threads),
            )
            .execute(&partitioner, &s, &t, &band);
            assert_eq!(
                base.stats, report.stats,
                "{name}: threads={threads} changed stats"
            );
            assert_eq!(base.per_partition, report.per_partition, "{name}");
            assert_eq!(
                base.partition_to_worker, report.partition_to_worker,
                "{name}"
            );
            assert_eq!(base.exact_output, report.exact_output, "{name}");
            assert_eq!(base.pair_check, report.pair_check, "{name}");
            assert_eq!(report.correct, Some(true), "{name}");
        }
    }
}

/// Every phase reports a wall-clock measurement, and the phase sum is consistent.
#[test]
fn execute_reports_per_phase_wall_clock() {
    let workers = 4;
    let (s, t, band) = workload();
    let partitioner = optimize(RecPartConfig::new(workers), &s, &t, &band);
    let report = Executor::with_workers(workers).execute(&partitioner, &s, &t, &band);

    assert!(report.map_shuffle_wall_seconds > 0.0);
    assert!(report.local_join_wall_seconds > 0.0);
    assert!(
        report.verify_wall_seconds > 0.0,
        "Count verification is timed"
    );
    let sum = report.measured_phase_seconds();
    assert!(
        (sum - report.map_shuffle_wall_seconds
            - report.local_join_wall_seconds
            - report.verify_wall_seconds)
            .abs()
            < 1e-15
    );

    let unverified =
        Executor::new(ExecutorConfig::new(workers).with_verification(VerificationLevel::None))
            .execute(&partitioner, &s, &t, &band);
    assert_eq!(unverified.verify_wall_seconds, 0.0);
}

/// End-to-end scaling on real hardware: with 4+ cores, `threads=0` must beat
/// `threads=1` by ≥1.5× on a pareto-1d workload with ≥200k tuples and ≥64
/// partitions, with bit-identical results. Skipped on smaller machines (there is
/// nothing to scale onto). Ignored by default because wall-clock assertions are
/// meaningless while sibling tests compete for the same cores — CI runs it in an
/// isolated release-mode step (`--ignored --test-threads=1`).
#[test]
#[ignore = "timing-sensitive: run isolated via --ignored --test-threads=1"]
fn parallel_execute_beats_sequential_on_multicore() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping parallel_execute_beats_sequential_on_multicore: {cores} cores");
        return;
    }
    let workers = 64;
    let mut rng = StdRng::seed_from_u64(0x200_000);
    let s = datagen::pareto_relation(100_000, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(100_000, 1, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[0.001]);
    let partitioner = optimize(RecPartConfig::new(workers), &s, &t, &band);

    let run = |threads: usize| {
        let exec = Executor::new(
            ExecutorConfig::new(workers)
                .with_verification(VerificationLevel::Count)
                .with_threads(threads),
        );
        let start = std::time::Instant::now();
        let report = exec.execute(&partitioner, &s, &t, &band);
        (start.elapsed().as_secs_f64(), report)
    };
    // Warm up once (page-cache / allocator effects), then measure. Sibling tests in
    // this binary may still be running on other cores and can steal CPU from the
    // parallel run, so allow a few attempts before declaring a regression; the last
    // attempt almost always runs alone.
    let _ = run(0);
    let mut best_speedup = 0.0f64;
    for attempt in 1..=3 {
        let (par_seconds, par_report) = run(0);
        let (seq_seconds, seq_report) = run(1);

        assert!(
            seq_report.partitions >= 64,
            "only {} partitions",
            seq_report.partitions
        );
        assert_eq!(seq_report.stats, par_report.stats);
        assert_eq!(seq_report.per_partition, par_report.per_partition);
        assert_eq!(seq_report.correct, Some(true));
        assert_eq!(par_report.correct, Some(true));

        let speedup = seq_seconds / par_seconds;
        best_speedup = best_speedup.max(speedup);
        if best_speedup >= 1.5 {
            return;
        }
        eprintln!(
            "attempt {attempt}: speedup {speedup:.2}x \
             (sequential {seq_seconds:.3}s, parallel {par_seconds:.3}s)"
        );
    }
    panic!("expected >=1.5x end-to-end speedup on {cores} cores, best was {best_speedup:.2}x");
}
