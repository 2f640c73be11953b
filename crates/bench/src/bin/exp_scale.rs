//! Scale-tier gate: sharded execution at ~25× the largest table-4 input
//! (CI-guarding, not a paper table).
//!
//! Runs one 4M-tuple uniform-1d band join (≥ 20× the biggest `exp_paper` Table 4
//! workload at the same `--scale`), once through each of three executor shapes:
//!
//! * **unsharded** — `Executor::execute`, the baseline everything is held to;
//! * **2 shards** and **4 shards** — `Executor::execute_supervised` with no
//!   faults: the same shuffle, then shared-nothing shard workers owning
//!   contiguous partition ranges.
//!
//! Every check is a count, so the gate cannot fail on a slow machine. It
//! **fails** (non-zero exit) if
//!
//! * the verified unsharded run's distributed output differs from the exact
//!   count;
//! * a sharded run differs from the unsharded run in any
//!   deterministic field (`stats`, `per_partition`, `partition_to_worker`,
//!   `total_comparisons`);
//! * the workload is smaller than 20× the largest table-4 input at this
//!   `--scale`;
//! * per-shard memory is not flat: the largest shard arena at 4 shards must be
//!   ≤ 0.65× the largest at 2 shards (each shard only touches its own
//!   partition range, so doubling the shard count must shrink what any single
//!   worker needs resident).
//!
//! Speed is measured by `perf/` (`shuffle.*`, `executor.*`,
//! `process.peak_rss_mb`), not here.
//!
//! ```text
//! cargo run -p bench --release --bin exp_scale [-- --quick]
//! ```

use bench::ExperimentArgs;
use datagen::uniform_relation;
use distsim::{
    Executor, ExecutorConfig, FaultPlan, ShardStats, SupervisorConfig, VerificationLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, Partitioner, RecPart, RecPartConfig};

fn main() {
    let args = ExperimentArgs::from_env();
    let per_side: usize = if args.quick { 150_000 } else { 2_000_000 };
    let workers = args.workers_or(64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rng = StdRng::seed_from_u64(args.seed);
    let s = uniform_relation(per_side, 1, 0.0, 1000.0, &mut rng);
    let t = uniform_relation(per_side, 1, 0.0, 1000.0, &mut rng);
    // ~2 expected matches per S-tuple: output stays O(input), so the run exercises
    // the partitioned pipeline rather than pair emission.
    let band = BandCondition::symmetric(&[0.0005]);
    let total_tuples = s.len() + t.len();
    println!("workload: uniform-1d, |S|+|T| = {total_tuples}, eps = 0.0005, {workers} workers, {cores} cores");

    let mut failures = Vec::new();

    // The scale floor: ≥ 20× the largest table-4 workload at the same --scale
    // (table 4a/c/d top out at 4× the 200M-equivalent row).
    let table04_max = args.scaled_tuples(200.0) * 4;
    if !args.quick && total_tuples < 20 * table04_max {
        failures.push(format!(
            "workload too small for a scale gate: {total_tuples} tuples < 20 x {table04_max}"
        ));
    }

    let partitioner = RecPart::new(RecPartConfig::new(workers).with_seed(args.seed))
        .optimize(&s, &t, &band, &mut rng)
        .partitioner;
    println!(
        "RecPart partitioning: {} partitions",
        partitioner.num_partitions()
    );

    let base_cfg = ExecutorConfig::new(workers).with_verification(VerificationLevel::None);

    // --- The verified unsharded run: the exact-count check anchors everything
    // downstream, since the sharded runs are held to this report's deterministic
    // fields. ---
    let baseline = Executor::new(base_cfg.with_verification(VerificationLevel::Count)).execute(
        &partitioner,
        &s,
        &t,
        &band,
    );
    if baseline.correct != Some(true) {
        failures.push(format!(
            "unsharded run is incorrect: {} distributed vs {:?} exact",
            baseline.stats.output_len, baseline.exact_output
        ));
    }

    // --- Sharded runs, bit-identical to the unsharded run. ---
    let mut shard_stats: Vec<Vec<ShardStats>> = Vec::new();
    for shards in [2usize, 4] {
        let sharded = Executor::new(base_cfg)
            .execute_supervised(
                &partitioner,
                &s,
                &t,
                &band,
                &SupervisorConfig::new(shards),
                &FaultPlan::none(),
            )
            .expect("a fault-free supervised run cannot fail");
        if sharded.report.stats != baseline.stats
            || sharded.report.per_partition != baseline.per_partition
            || sharded.report.partition_to_worker != baseline.partition_to_worker
            || sharded.report.total_comparisons != baseline.total_comparisons
        {
            failures.push(format!("{shards}-shard run differs from the unsharded run"));
        }
        for st in &sharded.shard_stats {
            println!(
                "  shard {} of {shards} owns partitions [{}, {}): {:.1} MiB arena, {} assignments",
                st.shard,
                st.partition_lo,
                st.partition_hi,
                st.arena_bytes as f64 / (1024.0 * 1024.0),
                st.assignments(),
            );
        }
        shard_stats.push(sharded.shard_stats);
    }

    // --- Flat per-shard memory: the largest shard arena must shrink when the
    // shard count doubles (each worker only needs its own range resident). ---
    let max_arena = |stats: &[ShardStats]| stats.iter().map(|s| s.arena_bytes).max().unwrap_or(0);
    let max2 = max_arena(&shard_stats[0]);
    let max4 = max_arena(&shard_stats[1]);
    println!(
        "per-shard arena: max {:.1} MiB at 2 shards vs {:.1} MiB at 4 shards",
        max2 as f64 / (1024.0 * 1024.0),
        max4 as f64 / (1024.0 * 1024.0)
    );
    if max4 as f64 > 0.65 * max2 as f64 {
        failures.push(format!(
            "per-shard memory is not flat: max arena {max4} B at 4 shards > 0.65 x {max2} B \
             at 2 shards"
        ));
    }

    if failures.is_empty() {
        println!("scale tier: OK");
    } else {
        for f in &failures {
            eprintln!("scale tier FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
