//! `RecPart::try_optimize` is, by contract, the composition of four public steps on one
//! RNG stream: `InputSample::draw` for S, `InputSample::draw` for T, `OutputSample::draw`,
//! `RecPart::optimize_with_samples`. The benchmark's traced pass (`perf/`) times those
//! steps one by one and is only meaningful while the composition reproduces the plan of
//! the one-call path; this test holds the two paths together inside the workspace, at
//! every `threads` setting — `try_optimize` fans the output sampler's scan out over its
//! pool, the public `OutputSample::draw` is sequential, and both must draw one sample.

use band_join::prelude::*;
use band_join::recpart::{EvalCounters, RecPartResult, SampleConfig, SplitSearchCounters};
use band_join::recpart::{InputSample, OutputSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SEED: u64 = 13;

/// What must agree between the two paths (everything in the report but wall-clock).
#[derive(Debug, PartialEq)]
struct Outcome {
    plan_signature: u64,
    iterations: usize,
    winning_iteration: usize,
    leaves: usize,
    partitions: usize,
    estimated_output_bits: u64,
    split_search: SplitSearchCounters,
    evaluation: EvalCounters,
    /// The RNG's next value after the call: both paths consume the same stream.
    next_random: u64,
}

fn outcome(result: &RecPartResult, mut rng: StdRng) -> Outcome {
    let report = &result.report;
    Outcome {
        plan_signature: result.partitioner.plan_signature(),
        iterations: report.iterations,
        winning_iteration: report.winning_iteration,
        leaves: report.leaves,
        partitions: report.partitions,
        estimated_output_bits: report.estimated_output.to_bits(),
        split_search: report.split_search,
        evaluation: report.evaluation,
        next_random: rng.gen(),
    }
}

#[test]
fn try_optimize_equals_the_staged_composition_at_every_thread_count() {
    let mut data_rng = StdRng::seed_from_u64(SEED);
    let s = datagen::pareto_relation(20_000, 2, 1.5, &mut data_rng);
    // Large enough for the output sampler's scan to fan out when threads != 1.
    let t = datagen::pareto_relation(140_000, 2, 1.5, &mut data_rng);
    let band = BandCondition::symmetric(&[0.01, 0.02]);
    let sample = SampleConfig {
        input_sample_size: 2_048,
        output_sample_size: 1_024,
        output_probe_count: 512,
    };

    let mut outcomes = Vec::new();
    for threads in [1, 2, 0] {
        let recpart = RecPart::new(
            RecPartConfig::new(8)
                .with_seed(SEED)
                .with_sample(sample)
                .with_threads(threads),
        );

        let mut rng = StdRng::seed_from_u64(SEED);
        let direct = recpart.try_optimize(&s, &t, &band, &mut rng).unwrap();
        let direct = outcome(&direct, rng);

        // The input-sample split of `RecPart::try_optimize`.
        let mut rng = StdRng::seed_from_u64(SEED);
        let total = sample.input_sample_size;
        let s_share = ((total as f64 * s.len() as f64 / (s.len() + t.len()) as f64).round()
            as usize)
            .clamp(1, total - 1);
        let s_sample = InputSample::draw(&s, s_share, &mut rng);
        let t_sample = InputSample::draw(&t, total - s_share, &mut rng);
        let o_sample = OutputSample::draw(&s, &t, &band, &recpart.config().sample, &mut rng);
        assert_eq!(s_sample.len() + t_sample.len(), total);
        assert_eq!(o_sample.len(), sample.output_sample_size);
        let staged = recpart.optimize_with_samples(
            s.len(),
            t.len(),
            &band,
            &s_sample,
            &t_sample,
            &o_sample,
            Instant::now(),
        );
        assert_eq!(
            staged.report.estimated_output.to_bits(),
            o_sample.estimated_output().to_bits()
        );
        let staged = outcome(&staged, rng);

        assert_eq!(direct, staged, "threads = {threads}");
        outcomes.push(direct);
    }
    assert_eq!(outcomes[0], outcomes[1], "threads 1 vs 2");
    assert_eq!(outcomes[0], outcomes[2], "threads 1 vs 0");
}
