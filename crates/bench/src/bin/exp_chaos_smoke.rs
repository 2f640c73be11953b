//! Chaos smoke gate: supervised sharded execution must recover from a fixed
//! fault schedule bit-identically and without re-executing healthy work
//! (CI-guarding, not a paper table).
//!
//! Runs one uniform-1d band join at 4 shards, once through each of three shapes:
//!
//! * **unsharded `execute`** — the baseline;
//! * **zero-fault `execute_supervised`** — the supervision layer with an empty
//!   [`FaultPlan`]: bit-identical, every recovery counter at zero, every shard
//!   run exactly once;
//! * **faulted `execute_supervised`** — a fixed schedule of one injected
//!   panic, one injected I/O error, and one straggler delay on three different
//!   shards: must recover to the bit-identical report.
//!
//! Every check is a count, so the gate cannot fail on a slow machine. That
//! recovery re-runs only the faulted shards — never the full join — is asserted
//! by what it stands for:
//!
//! * attempts per shard exactly `[1, 2, 2, 2]` (the healthy shard runs once;
//!   one retry each for the panic and the I/O error, one speculative duplicate
//!   for the straggler);
//! * the exact [`RecoveryCounters`] of the schedule, `shuffle_retries: 0` and
//!   `merge_retries: 0` included;
//! * no failed shard;
//! * zero recovery time charged to the healthy shard.
//!
//! The `STRAGGLER_MS` / `DEADLINE_MS` schedule stays: speculation needs a
//! deadline the straggler overruns. Speed is measured by `perf/`, not here.
//!
//! ```text
//! cargo run -p bench --release --bin exp_chaos_smoke [-- --quick]
//! ```

use bench::ExperimentArgs;
use datagen::uniform_relation;
use distsim::{
    ExecutionReport, Executor, ExecutorConfig, FaultKind, FaultPlan, FaultSpec, InjectionPoint,
    RecoveryCounters, SupervisorConfig, VerificationLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, Partitioner, RecPart, RecPartConfig};

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
        Executor::new(ExecutorConfig::new(workers).with_verification(VerificationLevel::None));
    let identical = |got: &ExecutionReport, want: &ExecutionReport| {
        got.stats == want.stats
            && got.per_partition == want.per_partition
            && got.partition_to_worker == want.partition_to_worker
            && got.total_comparisons == want.total_comparisons
            && !got.degraded
            && !want.degraded
    };

    // --- Baseline: unsharded execution. ---
    let baseline = exec.execute(&partitioner, &s, &t, &band);

    // --- Zero-fault supervised run: bit-identical, clean accounting. ---
    match exec.execute_supervised(
        &partitioner,
        &s,
        &t,
        &band,
        &SupervisorConfig::new(SHARDS),
        &FaultPlan::none(),
    ) {
        Ok(sup) => {
            if !identical(&sup.report, &baseline) {
                failures.push("zero-fault supervised run differs from unsharded execute".into());
            }
            if sup.recovery != RecoveryCounters::default() {
                failures.push(format!(
                    "zero-fault supervised run did recovery work: {:?}",
                    sup.recovery
                ));
            }
            if sup.shard_stats.iter().any(|st| st.attempts != 1) {
                failures.push("zero-fault supervised run retried a shard".into());
            }
        }
        Err(e) => failures.push(format!("zero-fault supervised run failed: {e}")),
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
    let chaos_config = SupervisorConfig::new(SHARDS)
        .with_backoff_ms(2, 8)
        .with_shard_deadline_ms(DEADLINE_MS);
    match exec.execute_supervised(&partitioner, &s, &t, &band, &chaos_config, &plan) {
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
            println!("chaos recovery: attempts {attempts:?}, {:?}", sup.recovery);
        }
        Err(e) => failures.push(format!("faulted supervised run failed outright: {e}")),
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
