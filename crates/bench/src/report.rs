//! Paper-style table output: running time (optimization + join), relative time over
//! the row's first strategy, the I/O sizes `I`, `I_m`, `O_m`, and the Figure 4 axes —
//! duplication and max-load overhead over the lower bounds.

use crate::harness::StrategyOutcome;

/// One row of a paper-style comparison table.
#[derive(Debug, Clone)]
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
            let (dup, load) = figure_point(o);
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
                100.0 * dup,
                100.0 * load,
            );
        }
    }
    println!();
}

/// The outcome's Figure 4 coordinates: (duplication overhead, max-load overhead).
fn figure_point(o: &StrategyOutcome) -> (f64, f64) {
    (o.report.duplication_overhead(), o.report.load_overhead())
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
        let (dup, load) = figure_point(&o);
        assert!((dup - o.report.stats.duplication_overhead()).abs() < 1e-12);
        assert!((load - o.report.stats.load_overhead()).abs() < 1e-12);
        assert!(dup > 0.5, "1-Bucket duplicates heavily");
    }

    #[test]
    fn printing_does_not_panic() {
        let o = outcome();
        let rows = vec![TableRow {
            config: "cfg".into(),
            outcomes: vec![o],
        }];
        print_table("smoke", &rows);
        assert!(rows[0].baseline_total_seconds().unwrap() > 0.0);
    }
}
