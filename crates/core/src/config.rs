//! Configuration of the RecPart optimizer.

use crate::load::LoadModel;
use crate::sample::SampleConfig;

/// When does the optimizer stop growing the split tree, and which of the partitionings
/// seen along the way is returned?
///
/// Section 4.2 "Termination condition and winning partitioning" describes both variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// **Theoretical** condition: stop as soon as the (monotonically increasing)
    /// duplication overhead exceeds the smallest max-load overhead seen so far; return
    /// the partitioning minimizing `max{dup overhead, load overhead}`. Needs no cost
    /// model beyond the relative weight of input vs. output tuples.
    Theoretical,
    /// **Applied** condition: evaluate the running-time model `β₀ + β₁·I + β₂·I_m + β₃·O_m`
    /// after every split and stop when the predicted join time has improved by less than
    /// `min_improvement` (relative) over a window of `w` iterations; return the
    /// partitioning with the lowest predicted time.
    CostModel {
        /// Relative improvement below which the window is considered converged
        /// (the paper uses 1%).
        min_improvement: f64,
    },
}

impl Default for Termination {
    fn default() -> Self {
        Termination::CostModel {
            min_improvement: 0.01,
        }
    }
}

/// Configuration of a RecPart optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecPartConfig {
    /// Number of worker machines `w`.
    pub workers: usize,
    /// Sampling configuration (input and output sample sizes).
    pub sample: SampleConfig,
    /// Per-worker load weights `β₂` (input) and `β₃` (output).
    pub load_model: LoadModel,
    /// Fixed cost `β₀` of the running-time model (only used by the cost-model
    /// termination and reporting).
    pub beta0: f64,
    /// Weight `β₁` of the total (shuffled) input in the running-time model.
    pub beta1: f64,
    /// Enable symmetric partitioning: at every split the optimizer may choose which
    /// input is partitioned and which is duplicated (the paper's full *RecPart*).
    /// With `false`, `T` is always the duplicated side (*RecPart-S*).
    pub symmetric: bool,
    /// Termination rule.
    pub termination: Termination,
    /// Hard cap on the number of repeat-loop iterations: a safety bound, not a
    /// termination rule (the paper's analysis expects termination after a small
    /// multiple of `w` iterations).
    ///
    /// Narrow 1-d bands no longer end here. Almost no split there pays estimated
    /// duplication, so the cost-model rule's window of `w` duplication-incurring
    /// iterations never fills; growth instead ends when every regular leaf is below
    /// the split search's minimum sample support and no split is left. The cap
    /// still binds where grid increments stay free on the sample (a small leaf that
    /// holds only one input's tuples), and on narrow bands for `w ≤ 11`, where the
    /// cap (at most 704) comes before the support rule (≈ 750–850 iterations at the
    /// default sample). DESIGN.md §11 has the measurements.
    pub max_iterations: usize,
    /// Seed for all randomized choices (sampling, 1-Bucket row/column assignment).
    pub seed: u64,
    /// Parallelism of the output sampler's T scan — output-sample scan only; the split
    /// search and the evaluation are sequential by construction (every measurement
    /// read their thread fan-outs slower than one thread, DESIGN.md §6). `0` uses one
    /// rayon thread per available core, `1` runs strictly sequentially (no thread
    /// pool at all), `n > 1` uses a bounded pool of `n` threads built once per
    /// [`crate::RecPart`]. The drawn sample, and with it the optimization result, is
    /// bit-identical across all settings; only wall-clock timing changes.
    pub threads: usize,
}

impl RecPartConfig {
    /// A configuration with sensible defaults for `workers` machines.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        RecPartConfig {
            workers,
            sample: SampleConfig::default(),
            load_model: LoadModel::default(),
            beta0: 0.0,
            beta1: 1.0,
            symmetric: true,
            termination: Termination::default(),
            max_iterations: (workers * 64).max(512),
            seed: 0x5EED_0001,
            threads: 0,
        }
    }

    /// Disable symmetric partitioning (the paper's *RecPart-S* variant, used in most of
    /// the experimental comparisons so that all advantages come from better split
    /// boundaries rather than from role reversal).
    pub fn without_symmetric(mut self) -> Self {
        self.symmetric = false;
        self
    }

    /// Use the theoretical termination condition.
    pub fn with_theoretical_termination(mut self) -> Self {
        self.termination = Termination::Theoretical;
        self
    }

    /// Override the sampling configuration.
    pub fn with_sample(mut self, sample: SampleConfig) -> Self {
        self.sample = sample;
        self
    }

    /// Override the load model.
    pub fn with_load_model(mut self, load_model: LoadModel) -> Self {
        self.load_model = load_model;
        self
    }

    /// Override the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bound the output-sample scan — output-sample scan only, the split search is
    /// sequential — to `threads` OS threads (`0` = all available cores, `1` = strictly
    /// sequential). Results are bit-identical for every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The name the resulting partitioner reports: `"RecPart"` or `"RecPart-S"`.
    pub(crate) fn strategy_name(&self) -> &'static str {
        if self.symmetric {
            "RecPart"
        } else {
            "RecPart-S"
        }
    }

    /// Predicted running time `β₀ + β₁·I + β₂·I_m + β₃·O_m` under this configuration's
    /// coefficients.
    pub fn predict_time(&self, total_input: f64, max_input: f64, max_output: f64) -> f64 {
        self.beta0
            + self.beta1 * total_input
            + self.load_model.beta_input * max_input
            + self.load_model.beta_output * max_output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RecPartConfig::new(30);
        assert_eq!(c.workers, 30);
        assert!(c.symmetric);
        assert_eq!(c.threads, 0, "all cores by default");
        assert_eq!(c.strategy_name(), "RecPart");
        assert!(c.max_iterations >= 30);
        assert_eq!(
            c.termination,
            Termination::CostModel {
                min_improvement: 0.01
            }
        );
    }

    #[test]
    fn builder_methods_apply() {
        let c = RecPartConfig::new(4)
            .without_symmetric()
            .with_theoretical_termination()
            .with_seed(99)
            .with_load_model(LoadModel::new(3.0, 1.0))
            .with_threads(3);
        assert!(!c.symmetric);
        assert_eq!(c.threads, 3);
        assert_eq!(c.strategy_name(), "RecPart-S");
        assert_eq!(c.termination, Termination::Theoretical);
        assert_eq!(c.seed, 99);
        assert_eq!(c.load_model.beta_input, 3.0);
    }

    #[test]
    fn predict_time_is_linear() {
        let c = RecPartConfig {
            beta0: 10.0,
            beta1: 2.0,
            ..RecPartConfig::new(2)
        };
        // 10 + 2·100 + 4·20 + 1·30
        assert!((c.predict_time(100.0, 20.0, 30.0) - (10.0 + 200.0 + 80.0 + 30.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = RecPartConfig::new(0);
    }
}
