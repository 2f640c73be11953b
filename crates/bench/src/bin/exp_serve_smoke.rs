//! Plan-cached serving smoke check (CI-guarding, not a paper table).
//!
//! Loads a pareto-1d dataset into a [`BandJoinService`] and drives a **fixed
//! query stream** (repeats, narrower bands, a second plan) through it, failing
//! (non-zero exit) if
//!
//! * any response — cold build, warm hit, or subsumed hit — is not
//!   bit-identical (wall-clock fields aside) to a fresh one-shot
//!   `Executor::execute` with the serving partitioner and the query band, or
//! * the stream's cache accounting is off (`hits + subsumed + misses` must
//!   equal the query count; only misses may shuffle), or
//! * a subsumed or warm hit shuffles even one tuple or sorts even one partition
//!   (`ServiceHealth::partitions_prepared` must rise by the plan's partition count
//!   on a cold build and by zero otherwise — a count, not a timing), or
//! * the median warm-hit serve is not ≥ 5× faster than a cold one-shot
//!   pipeline (optimize + compile + shuffle + join, minimum of three rounds) —
//!   the headline claim of the serving tier (skipped with `--quick`, where the
//!   input is too small for stable timing).
//!
//! ```text
//! cargo run -p bench --release --bin exp_serve_smoke [-- --quick]
//! ```

use bench::ExperimentArgs;
use datagen::pareto_relation;
use distsim::{
    BandJoinQuery, BandJoinService, ExecutionReport, Executor, PlanSource, ServiceConfig,
    VerificationLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, RecPart};
use std::time::Instant;

/// Measurement rounds per timing gate (the minimum / median of the rounds is
/// compared, so a noisy CI neighbour cannot fail the gate spuriously).
const ROUNDS: usize = 3;

/// Warm serves timed for the median (and the queries/second record).
const WARM_TIMED: usize = 9;

/// Required cold-one-shot / warm-hit speedup.
const MIN_WARM_SPEEDUP: f64 = 5.0;

/// Field-by-field bit-identity of everything deterministic in a report; returns
/// a description of the first divergence.
fn report_divergence(got: &ExecutionReport, want: &ExecutionReport) -> Option<String> {
    if got.strategy != want.strategy {
        return Some("strategy".into());
    }
    if got.stats != want.stats {
        return Some("stats".into());
    }
    if got.partitions != want.partitions {
        return Some("partitions".into());
    }
    if got.per_partition != want.per_partition {
        return Some("per-partition loads".into());
    }
    if got.partition_to_worker != want.partition_to_worker {
        return Some("worker mapping".into());
    }
    if got.per_worker_work != want.per_worker_work {
        return Some("per-worker work".into());
    }
    if got.total_comparisons != want.total_comparisons {
        return Some(format!(
            "comparisons ({} vs {})",
            got.total_comparisons, want.total_comparisons
        ));
    }
    if got.exact_output != want.exact_output {
        return Some("exact output".into());
    }
    if got.correct != want.correct {
        return Some("correctness".into());
    }
    if got.degraded != want.degraded {
        return Some("degraded flag".into());
    }
    None
}

fn main() {
    let args = ExperimentArgs::from_env();
    let per_side: usize = if args.quick { 8_000 } else { 30_000 };
    let workers = args.workers.unwrap_or(64);

    let mut rng = StdRng::seed_from_u64(args.seed);
    let s = pareto_relation(per_side, 1, 1.5, &mut rng);
    let t = pareto_relation(per_side, 1, 1.5, &mut rng);

    let config = ServiceConfig::new()
        .with_seed(args.seed)
        .with_verification(VerificationLevel::None);
    let mut service = BandJoinService::new(s, t, config);

    let mut failures: Vec<String> = Vec::new();

    // --- The fixed stream: two plans, repeats, and narrower (subsumed) bands.
    // The bands are narrow enough that the plan's front half (optimize +
    // compile + shuffle) dominates a cold query — the regime the cache is for.
    let eps_stream: [(f64, PlanSource); 7] = [
        (0.0005, PlanSource::ColdBuild),
        (0.0005, PlanSource::WarmHit),
        (0.0002, PlanSource::SubsumedHit),
        (0.0002, PlanSource::SubsumedHit),
        (0.0020, PlanSource::ColdBuild),
        (0.0005, PlanSource::WarmHit),
        (0.0020, PlanSource::WarmHit),
    ];
    println!(
        "workload: pareto-1d, |S|+|T| = {}, workers = {workers}, stream of {} queries",
        2 * per_side,
        eps_stream.len(),
    );

    for (i, &(eps, expected_source)) in eps_stream.iter().enumerate() {
        let band = BandCondition::symmetric(&[eps]);
        let query = BandJoinQuery::new(band.clone(), workers);
        let before = service.health();
        let response = service.serve(&query).expect("unsupervised serving");
        let after = service.health();
        let shuffled_during = after.tuples_shuffled - before.tuples_shuffled;
        let prepared_during = after.partitions_prepared - before.partitions_prepared;

        if response.source != expected_source {
            failures.push(format!(
                "query {i} (eps {eps}): expected {expected_source:?}, got {:?}",
                response.source
            ));
        }
        if response.source != PlanSource::ColdBuild && shuffled_during != 0 {
            failures.push(format!(
                "query {i} (eps {eps}, {:?}): shuffled {shuffled_during} tuples — \
                 warm paths must shuffle zero",
                response.source
            ));
        }

        let expect_prepared = match response.source {
            PlanSource::ColdBuild => response.report.partitions as u64,
            PlanSource::WarmHit | PlanSource::SubsumedHit => 0,
        };
        if prepared_during != expect_prepared {
            failures.push(format!(
                "query {i} (eps {eps}, {:?}): sorted {prepared_during} partitions, \
                 expected {expect_prepared} — only a cold build prepares, once per partition",
                response.source
            ));
        }

        // Bit-identity against a fresh one-shot execution with the serving plan.
        let partitioner = service
            .cached_partitioner(response.plan_signature)
            .expect("serving plan is cached");
        let oracle = Executor::new(service.config().executor_config(workers)).execute(
            partitioner,
            service.s(),
            service.t(),
            &band,
        );
        if let Some(field) = report_divergence(&response.report, &oracle) {
            failures.push(format!(
                "query {i} (eps {eps}, {:?}): response diverges from the one-shot \
                 oracle in {field}",
                response.source
            ));
        }
        println!(
            "query {i}: eps {eps:.3} -> {:?}, output {}, {} tuples shuffled",
            response.source, response.report.stats.output_len, shuffled_during
        );
    }

    let health = service.health();
    if health.cache.hits + health.cache.subsumed_hits + health.cache.misses
        != eps_stream.len() as u64
    {
        failures.push(format!(
            "cache accounting off: {} hits + {} subsumed + {} misses != {} queries",
            health.cache.hits,
            health.cache.subsumed_hits,
            health.cache.misses,
            eps_stream.len()
        ));
    }
    if health.shuffles_run != health.cache.misses {
        failures.push(format!(
            "{} shuffles for {} misses: only cold builds may shuffle",
            health.shuffles_run, health.cache.misses
        ));
    }

    // --- Timing gate: median warm hit vs min-of-rounds cold one-shot. ---
    let hot_band = BandCondition::symmetric(&[0.0005]);
    let hot_query = BandJoinQuery::new(hot_band.clone(), workers);

    let mut cold_best = f64::INFINITY;
    for round in 0..ROUNDS {
        let cfg = service.config().recpart_config(workers);
        let exec = Executor::new(service.config().executor_config(workers));
        let mut opt_rng = StdRng::seed_from_u64(service.config().seed);
        let start = Instant::now();
        let partitioner = RecPart::new(cfg)
            .optimize(service.s(), service.t(), &hot_band, &mut opt_rng)
            .partitioner;
        let report = exec.execute(&partitioner, service.s(), service.t(), &hot_band);
        let elapsed = start.elapsed().as_secs_f64();
        cold_best = cold_best.min(elapsed);
        assert!(report.stats.output_len > 0, "round {round}: empty join");
    }

    let mut warm_times = Vec::with_capacity(WARM_TIMED);
    let mut outputs = 0u64;
    for _ in 0..WARM_TIMED {
        let start = Instant::now();
        let response = service.serve(&hot_query).expect("warm serving");
        warm_times.push(start.elapsed().as_secs_f64());
        assert_eq!(response.source, PlanSource::WarmHit);
        outputs += response.report.stats.output_len;
    }
    warm_times.sort_by(f64::total_cmp);
    let warm_median = warm_times[warm_times.len() / 2];
    let speedup = cold_best / warm_median;
    let queries_per_second = 1.0 / warm_median;
    println!(
        "cold one-shot best-of-{ROUNDS}: {cold_best:.4}s; warm-hit median of {WARM_TIMED}: \
         {warm_median:.4}s = {speedup:.1}x ({queries_per_second:.1} queries/s, {} pairs/query)",
        outputs / WARM_TIMED as u64,
    );
    if !args.quick && speedup < MIN_WARM_SPEEDUP {
        failures.push(format!(
            "warm hit only {speedup:.2}x faster than the cold one-shot pipeline \
             (< {MIN_WARM_SPEEDUP}x): {warm_median:.4}s vs {cold_best:.4}s"
        ));
    }

    if failures.is_empty() {
        println!("serve smoke: OK");
    } else {
        for f in &failures {
            eprintln!("serve smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
