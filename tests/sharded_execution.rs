//! Property tests pinning the shared-nothing sharded execution path to the
//! unsharded executor.
//!
//! `Executor::execute_supervised` splits the partition space into contiguous
//! disjoint shard ranges, joins each shard's partitions sequentially while
//! shards run concurrently, and merges the results back in shard (= partition)
//! order. Every per-partition computation is the same code the unsharded path
//! runs, so with no faults the merged report must be **bit-identical** to
//! `execute` — same per-partition loads, same worker mapping, same stats, same
//! materialized pairs — for every shard count and thread count.
//!
//! Under injected faults the supervisor retries, speculates, and degrades, with
//! the matching invariant: any supervised run that ends with no failed shards
//! must reproduce the fault-free report bit for bit, and a degraded run's
//! failed shard ranges must exactly cover the partitions whose loads are
//! missing — the chaos proptest sweeps random seeded [`FaultPlan`]s to enforce
//! both.

use band_join::distsim::PartitionLoad;
use band_join::distsim::{
    ExecutionReport, ExecutorConfig, FaultKind, FaultPlan, FaultSpec, InjectionPoint,
    RecoveryCounters, ShardFailureKind, ShardPlan, SuperviseError, SupervisedExecution,
    SupervisorConfig, VerificationLevel,
};
use band_join::prelude::*;
use band_join::recpart::{SampleConfig, SplitTreePartitioner};
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

/// Field-by-field bit-identity of everything deterministic in a report (the
/// wall-clock fields are measurements and necessarily differ).
fn assert_reports_identical(got: &ExecutionReport, want: &ExecutionReport, label: &str) {
    assert_eq!(got.strategy, want.strategy, "{label}: strategy");
    assert_eq!(got.stats, want.stats, "{label}: stats");
    assert_eq!(got.partitions, want.partitions, "{label}: partitions");
    assert_eq!(got.per_partition, want.per_partition, "{label}: loads");
    assert_eq!(
        got.partition_to_worker, want.partition_to_worker,
        "{label}: worker mapping"
    );
    assert_eq!(
        got.per_worker_work, want.per_worker_work,
        "{label}: per-worker work"
    );
    assert_eq!(
        got.total_comparisons, want.total_comparisons,
        "{label}: comparisons"
    );
    assert_eq!(got.exact_output, want.exact_output, "{label}: exact output");
    assert_eq!(got.correct, want.correct, "{label}: correctness");
    assert_eq!(got.pair_check, want.pair_check, "{label}: pair check");
    assert_eq!(got.degraded, want.degraded, "{label}: degraded flag");
}

/// A degraded supervised report must be the oracle with *exactly* the failed
/// shards' partitions blanked out: missing partitions carry default (zero)
/// loads, surviving partitions are bit-identical to the oracle, and the
/// per-shard assignment accounting still conserves the globally routed total
/// (failed shards report their assignments from the arena slices, which the
/// shuffle wrote before any shard ran).
fn assert_degraded_coverage(sup: &SupervisedExecution, oracle: &ExecutionReport, label: &str) {
    assert!(sup.report.degraded, "{label}: degraded flag");
    assert!(!sup.failed.is_empty(), "{label}: degraded implies failures");
    assert_eq!(
        sup.report.partitions, oracle.partitions,
        "{label}: partitions"
    );

    let mut missing = vec![false; oracle.partitions];
    for err in &sup.failed {
        assert!(
            err.partition_lo < err.partition_hi && err.partition_hi <= oracle.partitions,
            "{label}: shard {} range [{}, {}) out of bounds",
            err.shard,
            err.partition_lo,
            err.partition_hi
        );
        let stats = &sup.shard_stats[err.shard];
        assert_eq!(stats.partition_lo, err.partition_lo, "{label}: range lo");
        assert_eq!(stats.partition_hi, err.partition_hi, "{label}: range hi");
        assert_eq!(stats.attempts, err.attempts, "{label}: attempts");
        for m in &mut missing[err.partition_lo..err.partition_hi] {
            *m = true;
        }
    }
    for (p, &is_missing) in missing.iter().enumerate() {
        if is_missing {
            assert_eq!(
                sup.report.per_partition[p],
                PartitionLoad::default(),
                "{label}: failed partition {p} must carry a default load"
            );
        } else {
            assert_eq!(
                sup.report.per_partition[p], oracle.per_partition[p],
                "{label}: surviving partition {p} must match the oracle"
            );
        }
    }

    // Degraded reports skip verification rather than flagging missing work
    // as incorrect.
    assert_eq!(
        sup.report.correct, None,
        "{label}: no verdict when degraded"
    );
    assert_eq!(sup.report.pair_check, None, "{label}: no pair check");

    // Assignment conservation: every routed assignment is owned by exactly
    // one shard, failed or not.
    let assigned: u64 = sup.shard_stats.iter().map(|st| st.assignments()).sum();
    assert_eq!(
        assigned, oracle.stats.total_input,
        "{label}: shard assignments must conserve the routed total"
    );
}

/// Launch accounting: every shard got its mandatory first attempt; everything
/// beyond that is exactly the supervisor's recorded retries + speculation.
fn assert_attempt_accounting(sup: &SupervisedExecution, label: &str) {
    let launched: u64 = sup
        .shard_stats
        .iter()
        .map(|st| u64::from(st.attempts))
        .sum();
    assert_eq!(
        launched,
        sup.shard_stats.len() as u64
            + sup.recovery.shard_retries
            + sup.recovery.speculative_launches,
        "{label}: attempts launched must equal shards + retries + speculation"
    );
    assert!(
        sup.recovery.speculative_wins <= sup.recovery.speculative_launches,
        "{label}: cannot win more speculative attempts than were launched"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// shards {1, 2, 7} × threads {1, 0, 4}: every combination must reproduce the
    /// sequential in-memory unsharded run bit for bit, down to the materialized
    /// pair check, and the per-shard stats must add up to the global totals.
    #[test]
    fn sharded_execution_is_bit_identical_to_unsharded(
        s_vals in prop::collection::vec(prop::collection::vec(-30.0f64..30.0, 2), 60..200),
        t_vals in prop::collection::vec(prop::collection::vec(-30.0f64..30.0, 2), 60..200),
        eps0 in 0.1f64..6.0,
        eps1 in 0.1f64..6.0,
        workers in 3usize..12,
        seed in any::<u64>(),
    ) {
        let s = relation_from(&s_vals, 2);
        let t = relation_from(&t_vals, 2);
        let band = BandCondition::symmetric(&[eps0, eps1]);
        let partitioner = recpart_partitioner(&s, &t, &band, workers, seed);

        // Oracle: sequential, in-memory, unsharded, full pair verification.
        let oracle = Executor::new(
            ExecutorConfig::new(workers)
                .with_verification(VerificationLevel::FullPairs)
                .with_threads(1),
        )
        .execute(&partitioner, &s, &t, &band);
        prop_assert_eq!(oracle.correct, Some(true));

        for shards in [1usize, 2, 7] {
            for threads in [1usize, 0, 4] {
                let label = format!("shards={shards} threads={threads}");
                let exec = Executor::new(
                    ExecutorConfig::new(workers)
                        .with_verification(VerificationLevel::FullPairs)
                        .with_threads(threads),
                );
                let sharded = exec
                    .execute_supervised(
                        &partitioner,
                        &s,
                        &t,
                        &band,
                        &SupervisorConfig::new(shards),
                        &FaultPlan::none(),
                    )
                    .unwrap();
                assert_reports_identical(&sharded.report, &oracle, &label);

                // Shard accounting: disjoint contiguous coverage of the
                // partition space, totals equal to the global stats.
                let stats = &sharded.shard_stats;
                prop_assert!(stats.len() <= shards, "{}", &label);
                prop_assert_eq!(stats[0].partition_lo, 0, "{}", &label);
                prop_assert_eq!(
                    stats.last().unwrap().partition_hi,
                    oracle.partitions,
                    "{}", &label
                );
                for w in stats.windows(2) {
                    prop_assert_eq!(w[0].partition_hi, w[1].partition_lo, "{}", &label);
                }
                let assigned: u64 = stats.iter().map(|st| st.assignments()).sum();
                prop_assert_eq!(assigned, oracle.stats.total_input, "{}", &label);
                prop_assert!(
                    sharded.simulated_sharded_seconds >= sharded.report.simulated_join_seconds,
                    "{}: per-shard job overhead cannot make the simulated time shorter",
                    &label
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chaos sweep: random seeded [`FaultPlan`]s (panics, I/O errors,
    /// stragglers; recoverable and permanent) × shards {1, 2, 7} × threads
    /// {1, 0, 4}, every other combination with a speculation deadline. Every run must end in either a bit-identical
    /// report (all faults recovered) or a structurally degraded one whose
    /// failed shard ranges exactly cover the missing partitions, with
    /// assignment conservation across all shards — and the supervisor's
    /// launch accounting must balance in both cases.
    #[test]
    fn chaos_supervised_runs_recover_or_degrade_structurally(
        s_vals in prop::collection::vec(prop::collection::vec(-30.0f64..30.0, 2), 60..120),
        t_vals in prop::collection::vec(prop::collection::vec(-30.0f64..30.0, 2), 60..120),
        eps in 0.1f64..4.0,
        workers in 3usize..10,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let s = relation_from(&s_vals, 2);
        let t = relation_from(&t_vals, 2);
        let band = BandCondition::symmetric(&[eps, eps]);
        let partitioner = recpart_partitioner(&s, &t, &band, workers, seed);

        let oracle = Executor::new(
            ExecutorConfig::new(workers)
                .with_verification(VerificationLevel::FullPairs)
                .with_threads(1),
        )
        .execute(&partitioner, &s, &t, &band);
        prop_assert_eq!(oracle.correct, Some(true));

        let mut combo = 0u64;
        for shards in [1usize, 2, 7] {
            for threads in [1usize, 0, 4] {
                combo += 1;
                // Random plan per combination; shard faults may outlive the
                // 3-attempt budget (max_shard_fire = 4), so this sweep hits
                // recovery *and* exhaustion/degradation.
                let plan = FaultPlan::random(fault_seed.wrapping_add(combo), shards, 4);
                // Tiny backoff keeps the sweep fast; a deadline on every
                // other combination exercises the speculation path too.
                let mut sup_config = SupervisorConfig::new(shards).with_backoff_ms(1, 4);
                if combo.is_multiple_of(2) {
                    sup_config = sup_config.with_shard_deadline_ms(15);
                }
                let label = format!("shards={shards} threads={threads} plan={:?}", plan.specs());
                let exec = Executor::new(
                    ExecutorConfig::new(workers)
                        .with_verification(VerificationLevel::FullPairs)
                        .with_threads(threads),
                );
                // Random plans keep shuffle/merge faults within the retry
                // budget, and shard exhaustion degrades rather than
                // failing: the supervised run must always produce a result.
                let sup = exec
                    .execute_supervised(&partitioner, &s, &t, &band, &sup_config, &plan)
                    .unwrap_or_else(|e| panic!("{label}: supervised run failed: {e}"));

                assert_attempt_accounting(&sup, &label);
                if sup.failed.is_empty() {
                    assert_reports_identical(&sup.report, &oracle, &label);
                    let assigned: u64 = sup.shard_stats.iter().map(|st| st.assignments()).sum();
                    prop_assert_eq!(assigned, oracle.stats.total_input, "{}", &label);
                } else {
                    assert_degraded_coverage(&sup, &oracle, &label);
                }
            }
        }
    }
}

/// A zero-fault supervised run is the production configuration: it must be
/// bit-identical to the unsharded oracle, with every shard succeeding on its
/// first attempt, every recovery counter at zero, and each shard owning its
/// [`ShardPlan::contiguous`] range and exactly the oracle's assignments there.
#[test]
fn zero_fault_supervised_run_is_bit_identical_with_clean_accounting() {
    let (s, t, band, partitioner) = small_workload(11);
    let exec = supervised_executor(6);
    let oracle = exec.execute(&partitioner, &s, &t, &band);

    let sup = exec
        .execute_supervised(
            &partitioner,
            &s,
            &t,
            &band,
            &SupervisorConfig::new(3),
            &FaultPlan::none(),
        )
        .expect("a fault-free supervised run cannot fail");

    assert_reports_identical(&sup.report, &oracle, "zero-fault");
    assert!(sup.failed.is_empty());
    assert_eq!(sup.recovery, RecoveryCounters::default());
    let plan = ShardPlan::contiguous(oracle.partitions, 3);
    assert_eq!(sup.shard_stats.len(), plan.num_shards());
    for got in &sup.shard_stats {
        assert_eq!(got.attempts, 1, "shard {}: first attempt wins", got.shard);
        assert_eq!(got.recovery_wall_seconds, 0.0, "shard {}", got.shard);
        let (lo, hi) = plan.partition_range(got.shard);
        assert_eq!((got.partition_lo, got.partition_hi), (lo, hi));
        let loads = &oracle.per_partition[lo..hi];
        let s_assignments: u64 = loads.iter().map(|l| l.s_input).sum();
        let t_assignments: u64 = loads.iter().map(|l| l.t_input).sum();
        assert_eq!(got.s_assignments, s_assignments, "shard {}", got.shard);
        assert_eq!(got.t_assignments, t_assignments, "shard {}", got.shard);
        assert_eq!(
            got.arena_bytes,
            (s_assignments + t_assignments) * 4,
            "shard {}",
            got.shard
        );
    }
}

/// Transient faults on every pipeline stage — shuffle panic, shard I/O error,
/// merge I/O error — are retried away and the run converges to the fault-free
/// result, with each retry showing up in exactly one recovery counter.
#[test]
fn transient_faults_on_every_stage_are_retried_to_the_identical_result() {
    let (s, t, band, partitioner) = small_workload(12);
    let exec = supervised_executor(6);
    let oracle = exec.execute(&partitioner, &s, &t, &band);

    let plan = FaultPlan::new(vec![
        FaultSpec {
            point: InjectionPoint::ShufflePass1,
            unit: 1,
            fire_attempts: 1,
            kind: FaultKind::Panic,
        },
        FaultSpec {
            point: InjectionPoint::ShardJoin,
            unit: 1,
            fire_attempts: 2,
            kind: FaultKind::IoError,
        },
        FaultSpec {
            point: InjectionPoint::Merge,
            unit: 0,
            fire_attempts: 1,
            kind: FaultKind::IoError,
        },
    ]);
    let sup = exec
        .execute_supervised(
            &partitioner,
            &s,
            &t,
            &band,
            &SupervisorConfig::new(3).with_backoff_ms(1, 4),
            &plan,
        )
        .expect("all faults are within the 3-attempt budget");

    assert_reports_identical(&sup.report, &oracle, "transient faults");
    assert!(sup.failed.is_empty());
    assert_eq!(sup.recovery.shuffle_retries, 1);
    assert_eq!(sup.recovery.shard_retries, 2);
    assert_eq!(sup.recovery.merge_retries, 1);
    assert_eq!(sup.recovery.injected_panics, 1);
    assert_eq!(sup.recovery.injected_io_errors, 3);
    assert_eq!(sup.shard_stats[1].attempts, 3);
    assert_eq!(sup.shard_stats[0].attempts, 1);
    assert_eq!(sup.shard_stats[2].attempts, 1);
}

/// A shard whose fault outlives the attempt budget degrades gracefully: the
/// run still returns, the failed shard's exact partition range is reported,
/// survivors are bit-identical to the oracle, and assignments are conserved.
#[test]
fn exhausted_shard_degrades_into_structured_partial_report() {
    let (s, t, band, partitioner) = small_workload(13);
    let exec = supervised_executor(6);
    let oracle = Executor::new(
        ExecutorConfig::new(6)
            .with_verification(VerificationLevel::FullPairs)
            .with_threads(1),
    )
    .execute(&partitioner, &s, &t, &band);

    let plan = FaultPlan::new(vec![FaultSpec {
        point: InjectionPoint::ShardJoin,
        unit: 1,
        fire_attempts: u32::MAX,
        kind: FaultKind::Panic,
    }]);
    let sup_config = SupervisorConfig::new(3).with_backoff_ms(1, 2);
    let sup = exec
        .execute_supervised(&partitioner, &s, &t, &band, &sup_config, &plan)
        .expect("degradation still yields a result");

    assert_eq!(sup.failed.len(), 1);
    let err = &sup.failed[0];
    assert_eq!(err.shard, 1);
    assert_eq!(err.attempts, sup_config.max_attempts);
    assert!(
        matches!(&err.kind, ShardFailureKind::Panic(msg) if msg.contains("injected panic")),
        "failure kind names the injected panic: {}",
        err.kind
    );
    assert_degraded_coverage(&sup, &oracle, "exhausted shard");
    assert_eq!(
        sup.recovery.injected_panics,
        u64::from(sup_config.max_attempts)
    );

    // With degradation off the same schedule fails the whole run instead.
    let err = exec
        .execute_supervised(&partitioner, &s, &t, &band, &sup_config.fail_fast(), &plan)
        .expect_err("fail-fast must surface the exhausted shard");
    match err {
        SuperviseError::ShardsFailed(failed) => {
            assert_eq!(failed.len(), 1);
            assert_eq!(failed[0].shard, 1);
        }
        other => panic!("expected ShardsFailed, got: {other}"),
    }
}

/// A straggling shard past its deadline gets a speculative duplicate whose
/// clean result wins while the delayed original is still asleep; the report
/// stays bit-identical.
#[test]
fn straggler_speculation_duplicates_the_slow_shard() {
    let (s, t, band, partitioner) = small_workload(14);
    let exec = supervised_executor(6);
    let oracle = exec.execute(&partitioner, &s, &t, &band);

    let plan = FaultPlan::new(vec![FaultSpec {
        point: InjectionPoint::ShardJoin,
        unit: 0,
        // Only attempt 1 sleeps: the speculative duplicate runs clean.
        fire_attempts: 1,
        kind: FaultKind::Delay(150),
    }]);
    let sup = exec
        .execute_supervised(
            &partitioner,
            &s,
            &t,
            &band,
            &SupervisorConfig::new(2).with_shard_deadline_ms(10),
            &plan,
        )
        .expect("a straggler is not a failure");

    assert_reports_identical(&sup.report, &oracle, "straggler");
    assert!(sup.failed.is_empty());
    assert_eq!(sup.recovery.injected_delays, 1);
    assert_eq!(sup.recovery.speculative_launches, 1);
    assert_eq!(sup.shard_stats[0].attempts, 2);
    assert_eq!(sup.shard_stats[1].attempts, 1);
    // The clean duplicate beats the 150 ms sleeper; its win is recorded and
    // the sleeper's wall is accounted as recovery overhead.
    assert_eq!(sup.recovery.speculative_wins, 1);
    assert!(sup.shard_stats[0].recovery_wall_seconds > 0.0);
}

/// Shared tiny workload for the fixed-schedule supervision tests.
fn small_workload(seed: u64) -> (Relation, Relation, BandCondition, SplitTreePartitioner) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Relation::new(2);
    let mut t = Relation::new(2);
    use rand::Rng;
    for _ in 0..300 {
        s.push(&[rng.gen::<f64>() * 40.0, rng.gen::<f64>() * 40.0]);
        t.push(&[rng.gen::<f64>() * 40.0, rng.gen::<f64>() * 40.0]);
    }
    let band = BandCondition::symmetric(&[0.8, 0.8]);
    let partitioner = recpart_partitioner(&s, &t, &band, 6, seed);
    (s, t, band, partitioner)
}

/// The executor configuration the fixed-schedule supervision tests share.
fn supervised_executor(workers: usize) -> Executor {
    Executor::new(
        ExecutorConfig::new(workers)
            .with_verification(VerificationLevel::FullPairs)
            .with_threads(1),
    )
}
