//! Scale-tier gate: out-of-core sharded execution at ~25× the largest
//! table-4 input (CI-guarding, not a paper table).
//!
//! Runs one 4M-tuple uniform-1d band join (≥ 20× the biggest `exp_table04*`
//! workload at the same `--scale`) through three executor shapes:
//!
//! * **unsharded / in-memory** — the legacy `Executor::execute` path (heap
//!   arenas, single-pass shuffle), the baseline everything is held to;
//! * **2 shards** and **4 shards** — `Executor::execute_sharded` over the
//!   streaming counting shuffle with **mmap-backed spill arenas**
//!   (`ShuffleConfig::streaming` + `StorageMode::Spill`): bounded chunks in
//!   pass 1, offset-aware cursors scattering into the file-backed arena in
//!   pass 2, shared-nothing shard workers owning contiguous partition ranges.
//!
//! and **fails** (non-zero exit) if
//!
//! * any deterministic result differs between the shapes (per-partition loads,
//!   stats, worker mapping — the sharded spill path must be bit-identical to
//!   the in-memory run), or the one verified run is not exactly correct;
//! * the spill arenas are not actually mmap-backed, or the workload is smaller
//!   than 20× the largest table-4 input at this `--scale`;
//! * per-shard memory is not flat: the largest shard arena at 4 shards must be
//!   ≤ 0.65× the largest at 2 shards (each shard only touches its own
//!   partition range, so doubling the shard count must shrink what any single
//!   worker needs resident);
//! * sharded throughput regresses: best-of-3 map+join wall-clock at 4 shards
//!   must stay within 1.10× of the unsharded best (shards add isolation, not
//!   work).
//!
//! ```text
//! cargo run -p bench --release --bin exp_scale [-- --quick]
//! ```

use bench::ExperimentArgs;
use datagen::uniform_relation;
use distsim::{
    ExecutionReport, Executor, ExecutorConfig, ShardStats, ShuffleConfig, VerificationLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, Partitioner, RecPart, RecPartConfig, SpillDir, StorageMode};
use std::time::Instant;

/// Measurement rounds per executor shape (the minimum of the rounds is compared).
const ROUNDS: usize = 3;
/// Streaming shuffle chunk: bounds pass-1/pass-2 working memory per chunk.
const STREAM_CHUNK: usize = 65_536;

fn main() {
    let args = ExperimentArgs::from_env();
    let per_side: usize = if args.quick { 150_000 } else { 2_000_000 };
    let workers = args.workers_or(64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rng = StdRng::seed_from_u64(args.seed);
    let s = uniform_relation(per_side, 1, 0.0, 1000.0, &mut rng);
    let t = uniform_relation(per_side, 1, 0.0, 1000.0, &mut rng);
    // ~2 expected matches per S-tuple: output stays O(input), so the run times
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
    let spill_config = || {
        let dir = SpillDir::in_temp("exp-scale").expect("creating the spill dir");
        ShuffleConfig::streaming(STREAM_CHUNK, StorageMode::Spill(dir))
    };
    let phases = |r: &ExecutionReport| r.map_shuffle_wall_seconds + r.local_join_wall_seconds;

    // --- One verified unsharded run (not timed): the exact-count check anchors
    // everything downstream, since the sharded runs are gated on bit-identity
    // against this report's deterministic fields. ---
    let verified = Executor::new(base_cfg.with_verification(VerificationLevel::Count)).execute(
        &partitioner,
        &s,
        &t,
        &band,
    );
    if verified.correct != Some(true) {
        failures.push(format!(
            "unsharded run is incorrect: {} distributed vs {:?} exact",
            verified.stats.output_len, verified.exact_output
        ));
    }

    // --- The spill arena must actually be mmap-backed at this scale. ---
    let spilled = Executor::new(base_cfg)
        .with_shuffle_config(spill_config())
        .map_shuffle(&partitioner, &s, &t);
    if !spilled.s_parts.is_spilled() || !spilled.t_parts.is_spilled() {
        failures.push("streaming shuffle did not produce mmap-backed arenas".into());
    }
    let total_arena_bytes = spilled.arena_bytes();
    println!(
        "spill arenas: {:.1} MiB total ({} S + {} T assignments)",
        total_arena_bytes as f64 / (1024.0 * 1024.0),
        spilled.s_parts.len(),
        spilled.t_parts.len(),
    );
    drop(spilled);

    // --- Timed rounds: unsharded in-memory baseline vs sharded spill runs. ---
    let unsharded_exec = Executor::new(base_cfg);
    let mut unsharded_best = f64::INFINITY;
    let mut baseline: Option<ExecutionReport> = None;
    for round in 1..=ROUNDS {
        let start = Instant::now();
        let report = unsharded_exec.execute(&partitioner, &s, &t, &band);
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "unsharded round {round}: {elapsed:.4}s (map+join {:.4}s)",
            phases(&report)
        );
        unsharded_best = unsharded_best.min(phases(&report));
        baseline.get_or_insert(report);
    }
    let baseline = baseline.expect("at least one unsharded round ran");

    let mut shard_results: Vec<(usize, f64, Vec<ShardStats>)> = Vec::new();
    for shards in [2usize, 4] {
        let exec = Executor::new(base_cfg).with_shuffle_config(spill_config());
        let mut best = f64::INFINITY;
        let mut stats: Option<Vec<ShardStats>> = None;
        for round in 1..=ROUNDS {
            let sharded = exec.execute_sharded(&partitioner, &s, &t, &band, shards);
            let seconds = phases(&sharded.report);
            println!(
                "{shards}-shard round {round}: map+join {seconds:.4}s (simulated sharded {:.4}s)",
                sharded.simulated_sharded_seconds
            );
            best = best.min(seconds);
            // Bit-identity of everything deterministic, every round.
            if sharded.report.stats != baseline.stats
                || sharded.report.per_partition != baseline.per_partition
                || sharded.report.partition_to_worker != baseline.partition_to_worker
                || sharded.report.total_comparisons != baseline.total_comparisons
            {
                failures.push(format!(
                    "{shards}-shard spill run differs from the unsharded in-memory run \
                     (round {round})"
                ));
            }
            stats.get_or_insert(sharded.shard_stats);
        }
        let stats = stats.expect("at least one sharded round ran");
        for st in &stats {
            println!(
                "  shard {} owns partitions [{}, {}): {:.1} MiB arena, {} assignments",
                st.shard,
                st.partition_lo,
                st.partition_hi,
                st.arena_bytes as f64 / (1024.0 * 1024.0),
                st.assignments(),
            );
        }
        shard_results.push((shards, best, stats));
    }

    // --- Flat per-shard memory: the largest shard arena must shrink when the
    // shard count doubles (each worker only needs its own range resident). ---
    let max_arena = |stats: &[ShardStats]| stats.iter().map(|s| s.arena_bytes).max().unwrap_or(0);
    let max2 = max_arena(&shard_results[0].2);
    let max4 = max_arena(&shard_results[1].2);
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

    // --- Throughput: the out-of-core sharded path must keep up with the
    // in-memory unsharded baseline (min of ROUNDS on both sides). ---
    let sharded4_best = shard_results[1].1;
    let ratio = sharded4_best / unsharded_best;
    println!(
        "best-of-{ROUNDS} map+join: unsharded {unsharded_best:.4}s vs 4-shard spill \
         {sharded4_best:.4}s (ratio {ratio:.2}, allowed 1.10)"
    );
    // Quick mode skips the threshold (timing gates need the full-size run: at
    // smoke sizes the two-pass streaming shuffle's fixed cost dominates the
    // join work it exists to scale).
    if !args.quick && sharded4_best > unsharded_best * 1.10 {
        failures.push(format!(
            "sharded spill execution regressed: {sharded4_best:.4}s > 1.10 x \
             {unsharded_best:.4}s over {ROUNDS} rounds"
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
