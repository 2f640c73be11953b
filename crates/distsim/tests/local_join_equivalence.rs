//! Property-based checks of the executor's accounting: the per-worker totals must add
//! up, and a single-partition execution must be exact. (The local join's own oracle
//! comparisons live beside it, in `distsim`'s `local_join` test modules.)

use distsim::{exact_join_count, Executor, ExecutorConfig, VerificationLevel};
use proptest::prelude::*;
use recpart::partition::SinglePartition;
use recpart::{BandCondition, Relation};

fn relation(values: &[Vec<f64>], dims: usize) -> Relation {
    let mut r = Relation::new(dims);
    for v in values {
        r.push(&v[..dims]);
    }
    r
}

fn keys(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-25.0f64..25.0, dims), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The executor's reported totals are internally consistent: per-worker inputs sum
    /// to the total input, per-worker outputs sum to the join size, and a
    /// single-partition execution is always exact.
    #[test]
    fn executor_accounting_adds_up(
        s_vals in keys(1),
        t_vals in keys(1),
        eps in 0.0f64..5.0,
        workers in 1usize..5,
    ) {
        let s = relation(&s_vals, 1);
        let t = relation(&t_vals, 1);
        let band = BandCondition::symmetric(&[eps]);
        let exec = Executor::new(
            ExecutorConfig::new(workers).with_verification(VerificationLevel::FullPairs),
        );
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        prop_assert_eq!(report.correct, Some(true));
        let worker_input: u64 = report.per_worker_work.iter().map(|w| w.input).sum();
        let worker_output: u64 = report.per_worker_work.iter().map(|w| w.output).sum();
        prop_assert_eq!(worker_input, report.stats.total_input);
        prop_assert_eq!(worker_output, report.stats.output_len);
        prop_assert_eq!(report.stats.output_len, exact_join_count(&s, &t, &band));
        // Lower bounds hold.
        prop_assert!(report.stats.total_input >= (s.len() + t.len()) as u64);
        prop_assert!(report.stats.max_worker_load + 1e-9 >= report.stats.load_lower_bound());
    }
}
