//! What the integration tests share: the one statement of "these two reports are
//! the same answer".

use band_join::distsim::ExecutionReport;

/// Field-by-field bit-identity of everything deterministic in a report. The
/// wall-clock fields are measurements and necessarily differ; a warm serve also
/// reports `map_shuffle_wall_seconds == 0.0` by design.
pub fn assert_reports_identical(got: &ExecutionReport, want: &ExecutionReport, label: &str) {
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
