//! Builds, times, and executes every partitioning strategy on a workload.

use baselines::{
    CsioConfig, CsioPartitioner, GridPartitioner, GridStarPartitioner, IEJoinPartitioner, OneBucket,
};
use distsim::{CostModel, ExecutionReport, Executor, ExecutorConfig, VerificationLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{
    BandCondition, LoadModel, Partitioner, RecPart, RecPartConfig, Relation, Termination,
};
use std::time::Instant;

/// Seed of every randomized decision a strategy makes (sampling, 1-Bucket's cover).
const SEED: u64 = 0x00C0FFEE;

/// The partitioning strategies the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// RecPart with symmetric partitioning.
    RecPart,
    /// RecPart without symmetric partitioning (T is always duplicated).
    RecPartS,
    /// RecPart-S with the theoretical termination condition.
    RecPartTheoretical,
    /// CSIO (quantile + coarsening + rectangle covering).
    Csio,
    /// 1-Bucket random join-matrix cover.
    OneBucket,
    /// Grid-ε with cell size equal to the band width.
    GridEps,
    /// Grid-ε with an explicit cell-size multiplier.
    GridScaled(u32),
    /// Grid\* (cost-model tuned grid size).
    GridStar,
    /// Distributed-IEJoin block partitioning with the given `sizePerBlock`.
    IEJoin(usize),
}

impl Strategy {
    /// Display name (matches the paper's tables).
    pub fn label(&self) -> String {
        match self {
            Strategy::RecPart => "RecPart".into(),
            Strategy::RecPartS => "RecPart-S".into(),
            Strategy::RecPartTheoretical => "RecPart(th)".into(),
            Strategy::Csio => "CSIO".into(),
            Strategy::OneBucket => "1-Bucket".into(),
            Strategy::GridEps => "Grid-eps".into(),
            Strategy::GridScaled(j) => format!("Grid-{j}eps"),
            Strategy::GridStar => "Grid*".into(),
            Strategy::IEJoin(b) => format!("IEJoin({b})"),
        }
    }

    /// The four strategies of the paper's main comparison tables.
    pub const PAPER_MAIN: &'static [Strategy] = &[
        Strategy::RecPartS,
        Strategy::Csio,
        Strategy::OneBucket,
        Strategy::GridEps,
    ];

    /// Is the strategy applicable to a workload with the given band condition?
    /// (Grid variants are undefined for band width zero.)
    pub fn applicable(&self, band: &BandCondition) -> bool {
        match self {
            Strategy::GridEps | Strategy::GridScaled(_) | Strategy::GridStar => {
                (0..band.dims()).all(|d| band.eps(d) > 0.0)
            }
            _ => true,
        }
    }
}

/// Everything measured for one strategy on one workload.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// The strategy.
    pub strategy: Strategy,
    /// Display label.
    pub label: String,
    /// Wall-clock optimization time (building the partitioner), in seconds.
    pub optimization_seconds: f64,
    /// Simulated join time under the machine model, in seconds.
    pub join_seconds: f64,
    /// Join time predicted by the linear cost model, in seconds.
    pub predicted_join_seconds: f64,
    /// The full execution report.
    pub report: ExecutionReport,
}

impl StrategyOutcome {
    /// Total (optimization + simulated join) time.
    pub fn total_seconds(&self) -> f64 {
        self.optimization_seconds + self.join_seconds
    }
}

/// Options controlling how strategies are built and executed. Everything else is
/// fixed: the default sample, all cores, count verification (an incorrect result
/// panics) and one seed.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Number of workers.
    pub workers: usize,
    /// Load model (β₂, β₃) used for optimization and reporting.
    pub load_model: LoadModel,
    /// The fitted linear cost model used for predictions (and by Grid\*).
    pub cost_model: CostModel,
}

impl HarnessConfig {
    /// Defaults for `workers` workers.
    pub fn new(workers: usize) -> Self {
        HarnessConfig {
            workers,
            load_model: LoadModel::default(),
            cost_model: CostModel::default(),
        }
    }
}

/// Build the requested strategy's partitioner, measuring the optimization time.
fn build_partitioner(
    strategy: Strategy,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    cfg: &HarnessConfig,
) -> (Box<dyn Partitioner>, f64) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x51AE);
    let start = Instant::now();
    let partitioner: Box<dyn Partitioner> = match strategy {
        Strategy::RecPart | Strategy::RecPartS | Strategy::RecPartTheoretical => {
            let mut rp_cfg = RecPartConfig::new(cfg.workers)
                .with_load_model(cfg.load_model)
                .with_seed(SEED);
            if matches!(strategy, Strategy::RecPartS | Strategy::RecPartTheoretical) {
                rp_cfg = rp_cfg.without_symmetric();
            }
            if matches!(strategy, Strategy::RecPartTheoretical) {
                rp_cfg.termination = Termination::Theoretical;
            }
            let result = RecPart::new(rp_cfg).optimize(s, t, band, &mut rng);
            Box::new(result.partitioner)
        }
        Strategy::Csio => Box::new(CsioPartitioner::build(
            s,
            t,
            band,
            cfg.workers,
            &CsioConfig::default(),
            &mut rng,
        )),
        Strategy::OneBucket => Box::new(OneBucket::new(cfg.workers, s.len(), t.len(), SEED)),
        Strategy::GridEps => Box::new(GridPartitioner::build(s, t, band, 1.0)),
        Strategy::GridScaled(j) => Box::new(GridPartitioner::build(s, t, band, j as f64)),
        Strategy::GridStar => Box::new(GridStarPartitioner::build(
            s,
            t,
            band,
            cfg.workers,
            &cfg.cost_model,
            256,
            &mut rng,
        )),
        Strategy::IEJoin(size_per_block) => {
            Box::new(IEJoinPartitioner::build(s, t, band, size_per_block))
        }
    };
    (partitioner, start.elapsed().as_secs_f64())
}

/// Build, execute, and measure one strategy.
pub fn run_strategy(
    strategy: Strategy,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    cfg: &HarnessConfig,
) -> StrategyOutcome {
    let (partitioner, optimization_seconds) = build_partitioner(strategy, s, t, band, cfg);
    let executor = Executor::new(ExecutorConfig::new(cfg.workers).with_load_model(cfg.load_model));
    let report = executor.execute(partitioner.as_ref(), s, t, band);
    if let Some(false) = report.correct {
        panic!(
            "strategy {} produced an incorrect result ({} vs exact {:?})",
            strategy.label(),
            report.stats.output_len,
            report.exact_output
        );
    }
    let predicted_join_seconds = cfg.cost_model.predict(
        report.stats.total_input as f64,
        report.stats.max_worker_input as f64,
        report.stats.max_worker_output as f64,
    );
    StrategyOutcome {
        strategy,
        label: strategy.label(),
        optimization_seconds,
        join_seconds: report.simulated_join_seconds,
        predicted_join_seconds,
        report,
    }
}

/// Run every applicable strategy of `strategies` on the workload.
pub fn run_strategies(
    strategies: &[Strategy],
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    cfg: &HarnessConfig,
) -> Vec<StrategyOutcome> {
    strategies
        .iter()
        .filter(|st| st.applicable(band))
        .map(|&st| run_strategy(st, s, t, band, cfg))
        .collect()
}

/// Calibrate the linear cost model against the machine model by running a small
/// benchmark of single-strategy executions with varying sizes and worker counts
/// (the paper's "offline benchmark of 100 queries", scaled down).
pub fn calibrate_cost_model(seed: u64, queries: usize) -> CostModel {
    use distsim::CalibrationPoint;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::new();
    let sizes = [2_000usize, 4_000, 8_000, 16_000];
    let worker_counts = [2usize, 4, 8, 16];
    let mut produced = 0usize;
    'outer: for &n in &sizes {
        for &w in &worker_counts {
            if produced >= queries {
                break 'outer;
            }
            let s = datagen::pareto_relation(n, 1, 1.5, &mut rng);
            let t = datagen::pareto_relation(n, 1, 1.5, &mut rng);
            let band = BandCondition::symmetric(&[0.01]);
            let ob = OneBucket::new(w, s.len(), t.len(), seed ^ produced as u64);
            let report =
                Executor::new(ExecutorConfig::new(w).with_verification(VerificationLevel::None))
                    .execute(&ob, &s, &t, &band);
            points.push(CalibrationPoint {
                total_input: report.stats.total_input as f64,
                max_input: report.stats.max_worker_input as f64,
                max_output: report.stats.max_worker_output as f64,
                join_seconds: report.simulated_join_seconds,
            });
            produced += 1;
        }
    }
    CostModel::fit(&points).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> (Relation, Relation, BandCondition) {
        let mut rng = StdRng::seed_from_u64(1);
        let s = datagen::pareto_relation(2_000, 1, 1.5, &mut rng);
        let t = datagen::pareto_relation(2_000, 1, 1.5, &mut rng);
        (s, t, BandCondition::symmetric(&[0.02]))
    }

    #[test]
    fn labels_are_unique() {
        let all = [
            Strategy::RecPart,
            Strategy::RecPartS,
            Strategy::RecPartTheoretical,
            Strategy::Csio,
            Strategy::OneBucket,
            Strategy::GridEps,
            Strategy::GridScaled(4),
            Strategy::GridStar,
            Strategy::IEJoin(100),
        ];
        let labels: std::collections::HashSet<String> = all.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn grid_is_not_applicable_to_equi_joins() {
        let equi = BandCondition::equi(2);
        assert!(!Strategy::GridEps.applicable(&equi));
        assert!(!Strategy::GridStar.applicable(&equi));
        assert!(Strategy::RecPart.applicable(&equi));
        assert!(Strategy::Csio.applicable(&equi));
    }

    #[test]
    fn run_strategy_produces_verified_outcome() {
        let (s, t, band) = workload();
        let cfg = HarnessConfig::new(4);
        for strategy in [Strategy::RecPartS, Strategy::OneBucket, Strategy::GridEps] {
            let outcome = run_strategy(strategy, &s, &t, &band, &cfg);
            assert_eq!(outcome.report.correct, Some(true), "{}", outcome.label);
            assert!(outcome.optimization_seconds >= 0.0);
            assert!(outcome.join_seconds > 0.0);
            assert!(outcome.total_seconds() >= outcome.join_seconds);
        }
    }

    #[test]
    fn thread_bound_executor_matches_default_and_reports_phases() {
        let (s, t, band) = workload();
        let cfg = HarnessConfig::new(4);
        let default = run_strategy(Strategy::OneBucket, &s, &t, &band, &cfg);
        let (partitioner, _) = build_partitioner(Strategy::OneBucket, &s, &t, &band, &cfg);
        let seq = Executor::new(
            ExecutorConfig::new(cfg.workers)
                .with_load_model(cfg.load_model)
                .with_threads(1),
        )
        .execute(partitioner.as_ref(), &s, &t, &band);
        // Thread count is a pure wall-clock knob.
        assert_eq!(seq.stats, default.report.stats);
        assert_eq!(seq.per_partition, default.report.per_partition);
        // Every phase wall-clock is measured.
        for r in [&seq, &default.report] {
            assert!(r.map_shuffle_wall_seconds > 0.0);
            assert!(r.local_join_wall_seconds > 0.0);
            assert!(r.verify_wall_seconds > 0.0, "Count verification is timed");
        }
    }

    #[test]
    fn run_strategies_skips_inapplicable_ones() {
        let (s, t, _) = workload();
        let equi = BandCondition::equi(1);
        let cfg = HarnessConfig::new(2);
        let outcomes = run_strategies(
            &[Strategy::RecPartS, Strategy::GridEps],
            &s,
            &t,
            &equi,
            &cfg,
        );
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].label, "RecPart-S");
    }

    #[test]
    fn calibration_produces_a_usable_model() {
        let model = calibrate_cost_model(7, 8);
        // Sanity: predictions are positive and increase with load.
        let small = model.predict(1_000.0, 100.0, 10.0);
        let large = model.predict(100_000.0, 10_000.0, 1_000.0);
        assert!(small >= 0.0);
        assert!(large > small);
    }
}
