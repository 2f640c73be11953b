//! Deterministic-seed regression test: RecPart on the pareto-1d workload must keep
//! producing exactly these `PartitioningStats`. Future optimizer changes that shift
//! partitioning quality (better or worse) will trip this test and force a conscious
//! re-baseline instead of a silent regression.
//!
//! Baseline provenance: `RecPart::optimize` with the pinned seeds below, executed on
//! the shim `rand::StdRng` (xoshiro256** — see shims/README.md). Re-baselining is
//! required if that generator, the sampling pipeline, or the optimizer change.

use band_join::distsim::ExecutionReport;
use band_join::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKERS: usize = 8;
const SEED: u64 = 2020;

fn golden_report() -> ExecutionReport {
    let mut rng = StdRng::seed_from_u64(SEED);
    let s = datagen::pareto_relation(5_000, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(5_000, 1, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[0.01]);
    let mut opt_rng = StdRng::seed_from_u64(SEED);
    let result = RecPart::new(RecPartConfig::new(WORKERS).with_seed(SEED)).optimize(
        &s,
        &t,
        &band,
        &mut opt_rng,
    );
    Executor::with_workers(WORKERS).execute(&result.partitioner, &s, &t, &band)
}

#[test]
fn recpart_pareto_1d_stats_are_pinned() {
    let report = golden_report();
    let stats = &report.stats;

    // Keep in sync with the printed values from `print_current_baseline` below.
    assert_eq!(stats.s_len, 5_000, "|S|");
    assert_eq!(stats.t_len, 5_000, "|T|");
    assert_eq!(stats.output_len, GOLDEN_OUTPUT, "|S ⋈ T|");
    assert_eq!(stats.total_input, GOLDEN_TOTAL_INPUT, "I");
    assert_eq!(stats.max_worker_input, GOLDEN_MAX_WORKER_INPUT, "Im");
    assert_eq!(stats.max_worker_output, GOLDEN_MAX_WORKER_OUTPUT, "Om");
    assert!(
        (stats.max_worker_load - GOLDEN_MAX_WORKER_LOAD).abs() < 1e-9,
        "Lm = {}",
        stats.max_worker_load
    );
    assert!(
        (stats.duplication_overhead() - GOLDEN_DUP_OVERHEAD).abs() < 1e-12,
        "duplication overhead = {}",
        stats.duplication_overhead()
    );
    assert_eq!(report.correct, Some(true), "the pinned run must stay exact");
}

#[test]
fn golden_run_is_reproducible() {
    // The baseline is only meaningful if the pipeline is bit-deterministic.
    let a = golden_report();
    let b = golden_report();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.per_partition, b.per_partition);
}

/// Run with `cargo test --test golden_stats -- --ignored --nocapture` to print the
/// current values when re-baselining after an intentional optimizer change.
#[test]
#[ignore = "baseline printer, not a check"]
fn print_current_baseline() {
    let report = golden_report();
    let stats = &report.stats;
    println!("const GOLDEN_OUTPUT: u64 = {};", stats.output_len);
    println!("const GOLDEN_TOTAL_INPUT: u64 = {};", stats.total_input);
    println!(
        "const GOLDEN_MAX_WORKER_INPUT: u64 = {};",
        stats.max_worker_input
    );
    println!(
        "const GOLDEN_MAX_WORKER_OUTPUT: u64 = {};",
        stats.max_worker_output
    );
    println!(
        "const GOLDEN_MAX_WORKER_LOAD: f64 = {:?};",
        stats.max_worker_load
    );
    println!(
        "const GOLDEN_DUP_OVERHEAD: f64 = {:?};",
        stats.duplication_overhead()
    );
}

const GOLDEN_OUTPUT: u64 = 291143;
const GOLDEN_TOTAL_INPUT: u64 = 11191;
const GOLDEN_MAX_WORKER_INPUT: u64 = 1842;
const GOLDEN_MAX_WORKER_OUTPUT: u64 = 35872;
const GOLDEN_MAX_WORKER_LOAD: f64 = 43240.0;
const GOLDEN_DUP_OVERHEAD: f64 = 0.1191;
