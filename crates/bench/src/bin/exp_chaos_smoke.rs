//! Chaos smoke gate: supervised sharded execution must recover from a fixed
//! fault schedule bit-identically and without re-executing healthy work
//! (CI-guarding, not a paper table).
//!
//! Runs one uniform-1d band join at 4 shards through three shapes:
//!
//! * **unsupervised `execute_sharded`** — the baseline (min-of-3 map+join);
//! * **zero-fault `execute_supervised`** — the supervision layer with an empty
//!   [`FaultPlan`]: must be bit-identical with every recovery counter at zero,
//!   and (min-of-3) within **1.10×** of the unsupervised baseline — isolation
//!   threads and `catch_unwind` are allowed, a slow supervisor is not;
//! * **faulted `execute_supervised`** — a fixed schedule of one injected
//!   panic, one injected I/O error, and one straggler delay on three different
//!   shards: must recover to the bit-identical report with deterministic
//!   attempt accounting (only the faulted shards retry; the healthy shard runs
//!   exactly once) and recovery overhead bounded by the retried shards' own
//!   work — a fault must never trigger a full-join re-execution.
//!
//! **Fails** (non-zero exit) if any deterministic field differs between the
//! shapes, the attempt/counter accounting deviates from the schedule, the
//! recovery overhead exceeds its budget, or the zero-fault supervised path
//! regresses past the 1.10× throughput gate (`--quick` skips only the timing
//! threshold: timing gates need the full-size run).
//!
//! ```text
//! cargo run -p bench --release --bin exp_chaos_smoke [-- --quick]
//! ```

use bench::ExperimentArgs;
use datagen::uniform_relation;
use distsim::{
    ExecutionReport, Executor, ExecutorConfig, FaultKind, FaultPlan, FaultSpec, InjectionPoint,
    RecoveryCounters, ShuffleConfig, SupervisorConfig, VerificationLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, Partitioner, RecPart, RecPartConfig, StorageMode};

/// Measurement rounds per executor shape (the minimum of the rounds is compared).
const ROUNDS: usize = 3;
/// Shard count: one healthy shard plus one per fault kind.
const SHARDS: usize = 4;
/// The straggler's injected sleep. Must dominate the deadline + a clean
/// speculative attempt so the duplicate reliably wins.
const STRAGGLER_MS: u64 = 500;
/// Speculation deadline: comfortably above any healthy shard's join time at
/// this workload size, comfortably below the straggler's sleep.
const DEADLINE_MS: u64 = 150;

fn main() {
    let args = ExperimentArgs::from_env();
    let per_side: usize = if args.quick { 30_000 } else { 150_000 };
    let workers = args.workers_or(16);

    let mut rng = StdRng::seed_from_u64(args.seed);
    let s = uniform_relation(per_side, 1, 0.0, 1000.0, &mut rng);
    let t = uniform_relation(per_side, 1, 0.0, 1000.0, &mut rng);
    let band = BandCondition::symmetric(&[0.01]);
    println!(
        "workload: uniform-1d, |S|+|T| = {}, eps = 0.01, {workers} workers, {SHARDS} shards",
        s.len() + t.len()
    );

    let mut failures = Vec::new();

    let partitioner = RecPart::new(RecPartConfig::new(workers).with_seed(args.seed))
        .optimize(&s, &t, &band, &mut rng)
        .partitioner;
    println!(
        "RecPart partitioning: {} partitions",
        partitioner.num_partitions()
    );

    let exec =
        Executor::new(ExecutorConfig::new(workers).with_verification(VerificationLevel::None))
            .with_shuffle_config(ShuffleConfig::streaming(65_536, StorageMode::Heap));
    let phases = |r: &ExecutionReport| r.map_shuffle_wall_seconds + r.local_join_wall_seconds;
    let identical = |got: &ExecutionReport, want: &ExecutionReport| {
        got.stats == want.stats
            && got.per_partition == want.per_partition
            && got.partition_to_worker == want.partition_to_worker
            && got.total_comparisons == want.total_comparisons
            && !got.degraded
            && !want.degraded
    };

    // --- Baseline: unsupervised sharded execution, min-of-ROUNDS. ---
    let mut baseline_best = f64::INFINITY;
    let mut baseline: Option<ExecutionReport> = None;
    for round in 1..=ROUNDS {
        let sharded = exec.execute_sharded(&partitioner, &s, &t, &band, SHARDS);
        let seconds = phases(&sharded.report);
        println!("execute_sharded round {round}: map+join {seconds:.4}s");
        baseline_best = baseline_best.min(seconds);
        baseline.get_or_insert(sharded.report);
    }
    let baseline = baseline.expect("at least one baseline round ran");

    // --- Zero-fault supervised runs: bit-identical, clean accounting, and no
    // throughput regression (the supervisor's overhead budget is 10%). ---
    let sup_config = SupervisorConfig::default();
    let mut supervised_best = f64::INFINITY;
    for round in 1..=ROUNDS {
        match exec.execute_supervised(
            &partitioner,
            &s,
            &t,
            &band,
            SHARDS,
            &FaultPlan::none(),
            &sup_config,
        ) {
            Ok(sup) => {
                let seconds = phases(&sup.report);
                println!("zero-fault supervised round {round}: map+join {seconds:.4}s");
                supervised_best = supervised_best.min(seconds);
                if !identical(&sup.report, &baseline) {
                    failures.push(format!(
                        "zero-fault supervised run differs from execute_sharded (round {round})"
                    ));
                }
                if sup.recovery != RecoveryCounters::default() {
                    failures.push(format!(
                        "zero-fault supervised run did recovery work (round {round}): {:?}",
                        sup.recovery
                    ));
                }
                if sup.shard_stats.iter().any(|st| st.attempts != 1) {
                    failures.push(format!(
                        "zero-fault supervised run retried a shard (round {round})"
                    ));
                }
            }
            Err(e) => failures.push(format!("zero-fault supervised run failed: {e}")),
        }
    }

    // --- The fixed chaos schedule: one panic, one I/O error, one straggler,
    // each on its own shard; shard 0 stays healthy. ---
    let plan = FaultPlan::new(vec![
        FaultSpec {
            point: InjectionPoint::ShardJoin,
            unit: 1,
            fire_attempts: 1,
            kind: FaultKind::Panic,
        },
        FaultSpec {
            point: InjectionPoint::ShardJoin,
            unit: 2,
            fire_attempts: 1,
            kind: FaultKind::IoError,
        },
        FaultSpec {
            point: InjectionPoint::ShardJoin,
            unit: 3,
            fire_attempts: 1,
            kind: FaultKind::Delay(STRAGGLER_MS),
        },
    ]);
    let chaos_config = SupervisorConfig::default()
        .with_backoff_ms(2, 8)
        .with_shard_deadline_ms(DEADLINE_MS);
    match exec.execute_supervised(&partitioner, &s, &t, &band, SHARDS, &plan, &chaos_config) {
        Ok(sup) => {
            if !identical(&sup.report, &baseline) {
                failures.push("faulted supervised run is not bit-identical after recovery".into());
            }
            if !sup.failed.is_empty() {
                failures.push(format!(
                    "the schedule is recoverable, but {} shard(s) failed",
                    sup.failed.len()
                ));
            }
            // Deterministic attempt accounting: the healthy shard runs once;
            // each faulted shard runs exactly twice (one retry for the panic
            // and the I/O error, one speculative duplicate for the straggler).
            let attempts: Vec<u32> = sup.shard_stats.iter().map(|st| st.attempts).collect();
            if attempts != [1, 2, 2, 2] {
                failures.push(format!(
                    "attempt accounting deviates from the schedule: {attempts:?} != [1, 2, 2, 2]"
                ));
            }
            let want = RecoveryCounters {
                injected_panics: 1,
                injected_io_errors: 1,
                injected_delays: 1,
                shuffle_retries: 0,
                shard_retries: 2,
                speculative_launches: 1,
                speculative_wins: 1,
                merge_retries: 0,
            };
            if sup.recovery != want {
                failures.push(format!(
                    "recovery counters deviate from the schedule: {:?} != {want:?}",
                    sup.recovery
                ));
            }
            if sup.shard_stats[0].recovery_wall_seconds != 0.0 {
                failures.push("the healthy shard was charged recovery time".into());
            }
            // Recovery overhead ≤ retried-shard work: the wall burnt on losing
            // attempts is bounded by the straggler's sleep plus re-doing the
            // faulted shards' own joins (plus backoff and scheduling slack) —
            // nothing proportional to the full join.
            let recovery_overhead: f64 = sup
                .shard_stats
                .iter()
                .map(|st| st.recovery_wall_seconds)
                .sum();
            let retried_work: f64 = sup.shard_stats[1..].iter().map(|st| st.wall_seconds).sum();
            let budget = STRAGGLER_MS as f64 / 1000.0 + retried_work + 0.016 + 0.300;
            println!(
                "chaos recovery: overhead {recovery_overhead:.4}s (budget {budget:.4}s), \
                 attempts {attempts:?}"
            );
            if recovery_overhead > budget {
                failures.push(format!(
                    "recovery overhead {recovery_overhead:.4}s exceeds the retried-shard \
                     budget {budget:.4}s"
                ));
            }
        }
        Err(e) => failures.push(format!("faulted supervised run failed outright: {e}")),
    }

    // --- Throughput: supervision must be (near-)free when nothing fails. ---
    let ratio = supervised_best / baseline_best;
    println!(
        "best-of-{ROUNDS} map+join: execute_sharded {baseline_best:.4}s vs zero-fault \
         supervised {supervised_best:.4}s (ratio {ratio:.2}, allowed 1.10)"
    );
    // Quick mode skips the threshold (at smoke sizes the fixed per-run costs
    // dominate the work being supervised).
    if !args.quick && supervised_best > baseline_best * 1.10 {
        failures.push(format!(
            "zero-fault supervision regressed throughput: {supervised_best:.4}s > 1.10 x \
             {baseline_best:.4}s over {ROUNDS} rounds"
        ));
    }

    if failures.is_empty() {
        println!("chaos smoke: OK");
    } else {
        for f in &failures {
            eprintln!("chaos smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
