//! Table and figure output shared by the experiment binaries.
//!
//! The experiment binaries print rows with the same structure as the paper's tables:
//! running time (optimization + join), relative time over RecPart-S, and the I/O sizes
//! `I`, `I_m`, `O_m`. [`FigurePoint`]s accumulate the Figure 4 / Figure 10 scatter
//! (duplication overhead vs. max-load overhead relative to the lower bounds).

use crate::harness::StrategyOutcome;
use serde::{Deserialize, Serialize};

/// One row of a paper-style comparison table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableRow {
    /// Row label (e.g. the band width or dataset of this configuration).
    pub config: String,
    /// Outcomes of every strategy on this configuration.
    pub outcomes: Vec<StrategyOutcome>,
}

impl TableRow {
    /// Runtime of the baseline (first) strategy, used for "relative time over RecPart-S".
    pub fn baseline_total_seconds(&self) -> Option<f64> {
        self.outcomes.first().map(|o| o.total_seconds())
    }
}

/// Print a paper-style table: one block of lines per configuration row, one line per
/// strategy with runtime, relative time, and I/O sizes.
pub fn print_table(title: &str, rows: &[TableRow]) {
    println!();
    println!("=== {title} ===");
    println!(
        "{:<28} {:<12} {:>14} {:>8} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "config", "strategy", "runtime[s]", "rel", "I", "Im", "Om", "dup%", "load%"
    );
    for row in rows {
        let base = row.baseline_total_seconds().unwrap_or(f64::NAN);
        for (i, o) in row.outcomes.iter().enumerate() {
            let stats = &o.report.stats;
            println!(
                "{:<28} {:<12} {:>6.1}({:>4.1}+{:>6.1}) {:>8.2} {:>12} {:>10} {:>10} {:>8.1}% {:>8.1}%",
                if i == 0 { row.config.as_str() } else { "" },
                o.label,
                o.total_seconds(),
                o.optimization_seconds,
                o.join_seconds,
                o.total_seconds() / base,
                stats.total_input,
                stats.max_worker_input,
                stats.max_worker_output,
                100.0 * stats.duplication_overhead(),
                100.0 * stats.load_overhead(),
            );
        }
    }
    println!();
}

/// One point of the Figure 4 / Figure 10 scatter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Strategy label.
    pub strategy: String,
    /// Experiment / configuration label.
    pub config: String,
    /// Duplication overhead `(I − (|S|+|T|)) / (|S|+|T|)` (x-axis).
    pub duplication_overhead: f64,
    /// Max-load overhead `(L_m − L₀) / L₀` (y-axis).
    pub load_overhead: f64,
}

impl FigurePoint {
    /// Build a point from a strategy outcome.
    pub fn from_outcome(config: &str, outcome: &StrategyOutcome) -> FigurePoint {
        FigurePoint {
            strategy: outcome.label.clone(),
            config: config.to_string(),
            duplication_overhead: outcome.report.duplication_overhead(),
            load_overhead: outcome.report.load_overhead(),
        }
    }
}

/// Print the Figure 4 point cloud grouped by strategy, plus the per-strategy maxima the
/// paper's near-optimality claim is about ("RecPart is always within 10% of the lower
/// bounds").
pub fn print_figure_points(title: &str, points: &[FigurePoint]) {
    println!();
    println!("=== {title} ===");
    println!(
        "{:<12} {:<30} {:>16} {:>16}",
        "strategy", "config", "dup overhead", "load overhead"
    );
    for p in points {
        println!(
            "{:<12} {:<30} {:>15.3}% {:>15.3}%",
            p.strategy,
            p.config,
            100.0 * p.duplication_overhead,
            100.0 * p.load_overhead
        );
    }
    // Per-strategy worst case.
    let mut strategies: Vec<String> = points.iter().map(|p| p.strategy.clone()).collect();
    strategies.sort();
    strategies.dedup();
    println!();
    println!("-- worst case per strategy --");
    for s in strategies {
        let max_dup = points
            .iter()
            .filter(|p| p.strategy == s)
            .map(|p| p.duplication_overhead)
            .fold(0.0, f64::max);
        let max_load = points
            .iter()
            .filter(|p| p.strategy == s)
            .map(|p| p.load_overhead)
            .fold(0.0, f64::max);
        println!(
            "{:<12} max dup overhead {:>9.2}%   max load overhead {:>9.2}%",
            s,
            100.0 * max_dup,
            100.0 * max_load
        );
    }
    println!();
}

/// Serialize figure points to JSON (written next to the binary output so plots can be
/// regenerated without re-running the experiments).
pub fn figure_points_to_json(points: &[FigurePoint]) -> String {
    serde_json::to_string_pretty(points).expect("figure points serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_strategy, HarnessConfig, Strategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recpart::BandCondition;

    fn outcome() -> StrategyOutcome {
        let mut rng = StdRng::seed_from_u64(5);
        let s = datagen::pareto_relation(800, 1, 1.5, &mut rng);
        let t = datagen::pareto_relation(800, 1, 1.5, &mut rng);
        let band = BandCondition::symmetric(&[0.05]);
        run_strategy(Strategy::OneBucket, &s, &t, &band, &HarnessConfig::new(4))
    }

    #[test]
    fn figure_point_reflects_report() {
        let o = outcome();
        let p = FigurePoint::from_outcome("test-config", &o);
        assert_eq!(p.strategy, "1-Bucket");
        assert_eq!(p.config, "test-config");
        assert!((p.duplication_overhead - o.report.duplication_overhead()).abs() < 1e-12);
        assert!(p.duplication_overhead > 0.5, "1-Bucket duplicates heavily");
    }

    #[test]
    fn json_round_trip() {
        let o = outcome();
        let points = vec![FigurePoint::from_outcome("cfg", &o)];
        let json = figure_points_to_json(&points);
        let back: Vec<FigurePoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, points);
    }

    #[test]
    fn printing_does_not_panic() {
        let o = outcome();
        let rows = vec![TableRow {
            config: "cfg".into(),
            outcomes: vec![o.clone()],
        }];
        print_table("smoke", &rows);
        print_figure_points("smoke", &[FigurePoint::from_outcome("cfg", &o)]);
        assert!(rows[0].baseline_total_seconds().unwrap() > 0.0);
    }
}
