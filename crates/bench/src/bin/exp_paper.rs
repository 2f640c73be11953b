//! The paper's tables, figures and lemmas, one view each:
//!
//! ```text
//! cargo run -p bench --release --bin exp_paper -- [--table <id>] [--scale 2e-4] [--quick]
//! ```
//!
//! The ids, in paper order, are `1 2a 2b 2c 3 4a 4b 4c 4d 5 6 7 8 9 12 15 16 fig4
//! lemma`; without `--table` every view runs in that order. Most views are a list of
//! catalog rows (`datagen::catalog`, band widths calibrated to the paper's output
//! ratios, see `DESIGN.md`) with every strategy run on each row; the others measure
//! something of their own. Every table row prints the runtime (optimization +
//! simulated join), the time relative to the row's first strategy, the I/O sizes `I`,
//! `I_m`, `O_m`, and the Figure 4 axes `dup%` / `load%`.

use baselines::GridPartitioner;
use bench::harness::{calibrate_cost_model, run_strategies, run_strategy, HarnessConfig};
use bench::{print_table, ExperimentArgs, Strategy, TableRow};
use datagen::catalog::{calibrate_band, catalog_entry, table1_catalog, Workload};
use distsim::{exact_join_count, CostModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, LoadModel, Partitioner, Relation};
use std::collections::BTreeMap;
use Strategy::*;

/// One configuration row: label, catalog id, paper worker count, and the input size —
/// `None` for the catalog row's paper size, `Some((m, k))` for `k ×` the scaled size
/// of `m` million tuples.
#[derive(Clone, Copy)]
struct Row(&'static str, &'static str, usize, Option<(f64, usize)>);

/// A row on the paper's 30 workers at the catalog row's paper size.
const fn row(label: &'static str, id: &'static str) -> Row {
    Row(label, id, 30, None)
}

impl Row {
    fn workload(self, args: &ExperimentArgs) -> Workload {
        let Row(_, id, _, size) = self;
        let entry = catalog_entry(id);
        let total = match size {
            Some((millions, times)) => args.scaled_tuples(millions) * times,
            None => args.scaled_tuples(entry.paper_input_millions),
        };
        entry.instantiate(total, args.seed)
    }

    fn run(self, strategies: &[Strategy], args: &ExperimentArgs, cost: CostModel) -> TableRow {
        let Row(label, _, workers, _) = self;
        eprintln!("running {label} …");
        let w = self.workload(args);
        let cfg = HarnessConfig {
            cost_model: cost,
            ..HarnessConfig::new(args.workers_or(workers))
        };
        TableRow {
            config: label.to_string(),
            outcomes: run_strategies(strategies, &w.s, &w.t, &w.band, &cfg),
        }
    }
}

/// Run `strategies` on every row.
fn measure(rows: &[Row], strategies: &[Strategy], args: &ExperimentArgs) -> Vec<TableRow> {
    let cost = CostModel::default();
    rows.iter().map(|r| r.run(strategies, args, cost)).collect()
}

/// What a view runs.
enum Body {
    /// A titled table: every strategy on every row.
    Rows(&'static str, &'static [Strategy], &'static [Row]),
    /// A view with a measurement or layout of its own.
    Custom(fn(&ExperimentArgs)),
}
use Body::{Custom, Rows};

/// One `--table` view: its id and what it runs.
type View = (&'static str, Body);

/// The paper's main comparison: RecPart-S, CSIO, 1-Bucket, Grid-ε.
const MAIN: &[Strategy] = Strategy::PAPER_MAIN;

/// Every view, in paper order.
#[rustfmt::skip]
const VIEWS: &[View] = &[
    ("1", Custom(table1)),
    ("2a", Rows("Table 2a — impact of band width (pareto-1.5, d = 1)", MAIN, &[
        row("pareto-1.5 d=1 eps=0", "pareto-1.5/d1/eps0"),
        row("pareto-1.5 d=1 eps=1e-5", "pareto-1.5/d1/eps1e-5"),
        row("pareto-1.5 d=1 eps=2e-5", "pareto-1.5/d1/eps2e-5"),
        row("pareto-1.5 d=1 eps=3e-5", "pareto-1.5/d1/eps3e-5"),
    ])),
    ("2b", Rows("Table 2b — impact of band width (pareto-1.5, d = 3)", MAIN, &[
        row("pareto-1.5 d=3 eps=(0,0,0)", "pareto-1.5/d3/eps0"),
        row("pareto-1.5 d=3 eps=(2,2,2)", "pareto-1.5/d3/eps2"),
        row("pareto-1.5 d=3 eps=(4,4,4)", "pareto-1.5/d3/eps4"),
    ])),
    ("2c", Rows("Table 2c — impact of band width (ebird ⋈ cloud, d = 3)", MAIN, &[
        row("ebird-cloud eps=(0,0,0)", "ebird-cloud/eps0"),
        row("ebird-cloud eps=(1,1,1)", "ebird-cloud/eps1"),
        row("ebird-cloud eps=(1,1,5)", "ebird-cloud/eps1-1-5"),
        row("ebird-cloud eps=(2,2,2)", "ebird-cloud/eps2"),
        row("ebird-cloud eps=(4,4,4)", "ebird-cloud/eps4"),
    ])),
    ("3", Rows("Table 3 — skew resistance (pareto-z, d = 3, eps = (2,2,2))", MAIN, &[
        row("pareto-0.5", "pareto-0.5/d3/eps2"),
        row("pareto-1.0", "pareto-1.0/d3/eps2"),
        row("pareto-1.5", "pareto-1.5/d3/eps2"),
        row("pareto-2.0", "pareto-2.0/d3/eps2"),
    ])),
    // Tables 4a/4b double input size and worker count together.
    ("4a", Rows("Table 4a — scalability (pareto-1.5, d = 3, eps = (2,2,2))", MAIN, &[
        Row("200M-equiv / 15 workers", "pareto-1.5/d3/eps2", 15, Some((200.0, 1))),
        Row("400M-equiv / 30 workers", "pareto-1.5/d3/eps2", 30, Some((200.0, 2))),
        Row("800M-equiv / 60 workers", "pareto-1.5/d3/eps2", 60, Some((200.0, 4))),
    ])),
    ("4b", Rows("Table 4b — scalability (ebird ⋈ cloud, d = 3, eps = (2,2,2))", MAIN, &[
        Row("222M-equiv / 15 workers", "ebird-cloud/eps2", 15, Some((222.0, 1))),
        Row("445M-equiv / 30 workers", "ebird-cloud/eps2", 30, Some((222.0, 2))),
        Row("890M-equiv / 60 workers", "ebird-cloud/eps2", 60, Some((222.0, 4))),
    ])),
    ("4c", Rows("Table 4c — varying input size (pareto-1.5, d = 8, eps = 20, w = 30)", MAIN, &[
        row("100M-equiv input", "pareto-1.5/d8/eps20/100M"),
        row("200M-equiv input", "pareto-1.5/d8/eps20/200M"),
        row("400M-equiv input", "pareto-1.5/d8/eps20/400M"),
        row("800M-equiv input", "pareto-1.5/d8/eps20/800M"),
    ])),
    ("4d", Rows("Table 4d — varying the number of workers (pareto-1.5, d = 8, eps = 20)", MAIN, &[
        Row("w = 1", "pareto-1.5/d8/eps20/400M", 1, None),
        Row("w = 15", "pareto-1.5/d8/eps20/400M", 15, None),
        Row("w = 30", "pareto-1.5/d8/eps20/400M", 30, None),
        Row("w = 60", "pareto-1.5/d8/eps20/400M", 60, None),
    ])),
    ("5", Rows("Table 5 — Grid-eps grid-size sweep vs Grid*, RecPart-S, CSIO, 1-Bucket", &[
        GridScaled(1), GridScaled(2), GridScaled(4), GridScaled(8), GridScaled(16),
        GridScaled(32), GridScaled(64), GridStar, RecPartS, Csio, OneBucket,
    ], &[
        row("pareto-1.5 d=3 eps=(2,2,2)", "pareto-1.5/d3/eps2"),
    ])),
    // Skewed and anti-correlated data, where Lemma 2 predicts an unavoidable heavy cell.
    ("6", Rows("Table 6 — Grid* vs RecPart on skewed / reverse-Pareto data", &[
        RecPart, GridStar,
    ], &[
        row("pareto-2.0 eps=(2,2,2)", "pareto-2.0/d3/eps2"),
        row("rv-pareto-1.5 eps=(1k,1k,1k)", "rv-pareto-1.5/d3/eps1000"),
        row("rv-pareto-1.5 eps=(2k,2k,2k)", "rv-pareto-1.5/d3/eps2000"),
    ])),
    ("7", Custom(table7)),
    ("8", Custom(table8)),
    ("9", Custom(table9)),
    ("12", Custom(table12)),
    ("15", Custom(table15)),
    ("16", Rows("Table 16 — PTF self-join, RecPart with the theoretical termination condition", &[
        RecPartTheoretical, Csio, OneBucket, GridEps,
    ], &[
        row("ptf_objects eps=1 arcsec", "ptf/eps1arcsec"),
        row("ptf_objects eps=3 arcsec", "ptf/eps3arcsec"),
    ])),
    ("fig4", Custom(figure4)),
    ("lemma", Custom(lemmas)),
];

fn main() {
    let (views, args) = parse(std::env::args().skip(1));
    for (_, body) in views {
        match body {
            Rows(title, strategies, rows) => print_table(title, &measure(rows, strategies, &args)),
            Custom(run) => run(&args),
        }
    }
}

/// Take every `--table <id>` out of `args` (none selects every view) and parse the
/// rest as [`ExperimentArgs`].
fn parse(args: impl IntoIterator<Item = String>) -> (Vec<&'static View>, ExperimentArgs) {
    let ids = VIEWS.iter().map(|v| v.0).collect::<Vec<_>>().join(" ");
    let (mut views, mut rest) = (Vec::new(), Vec::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--table" => {
                let id = args.next().expect("--table needs an id");
                let view = VIEWS.iter().find(|v| v.0 == id);
                views.push(
                    view.unwrap_or_else(|| panic!("unknown --table id {id:?}; valid ids: {ids}")),
                );
            }
            "--help" | "-h" => {
                eprintln!("exp_paper [--table <id>]…, ids: {ids}");
                rest.push(arg);
            }
            _ => rest.push(arg),
        }
    }
    if views.is_empty() {
        views = VIEWS.iter().collect();
    }
    (views, ExperimentArgs::parse(rest))
}

/// Table 1 / Table 10: every catalog row's input and exact output size next to the
/// paper's output ratio, and the multiplier its band width was calibrated by.
fn table1(args: &ExperimentArgs) {
    println!(
        "=== Table 1 / Table 10: band-join characteristics (scale {}) ===",
        args.scale
    );
    println!(
        "{:<28} {:>3} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "dataset", "d", "|S|+|T|", "output", "out/in", "paper out/in", "band mult"
    );
    for entry in table1_catalog() {
        let w = entry.instantiate(args.scaled_tuples(entry.paper_input_millions), args.seed);
        let output = exact_join_count(&w.s, &w.t, &w.band);
        let total = w.s.len() + w.t.len();
        let band_mult = if entry.paper_band[0] > 0.0 {
            w.band.eps(0) / entry.paper_band[0]
        } else {
            1.0
        };
        println!(
            "{:<28} {:>3} {:>12} {:>12} {:>14.3} {:>14.3} {:>12.3}",
            entry.id,
            entry.dataset.dims(),
            total,
            output,
            output as f64 / total as f64,
            entry.paper_output_ratio(),
            band_mult,
        );
    }
}

/// Table 7 / Table 11: RecPart-S vs distributed-IEJoin block partitioning over a
/// `sizePerBlock` sweep.
fn table7(args: &ExperimentArgs) {
    // The paper sweeps sizePerBlock in the thousands for 200M-tuple inputs (about
    // |S| / (2w) … |S| / (20w)); the equivalents here scale with the instantiated size.
    let reference = args.scaled_tuples(400.0) / 2; // |S| for the pareto rows
    let mut strategies = vec![RecPartS];
    strategies.extend(
        [240, 120, 60, 30]
            .into_iter()
            .map(|k| reference / k)
            .filter(|&b| b > 0)
            .map(IEJoin),
    );
    let rows = [
        row("pareto-1.5 d=1 eps=0", "pareto-1.5/d1/eps0"),
        row("pareto-1.5 d=3 eps=(2,2,2)", "pareto-1.5/d3/eps2"),
        row("pareto-1.0 d=3 eps=(2,2,2)", "pareto-1.0/d3/eps2"),
        row("pareto-0.5 d=3 eps=(2,2,2)", "pareto-0.5/d3/eps2"),
    ];
    print_table(
        "Table 7 / Table 11 — RecPart-S vs distributed IEJoin (sizePerBlock sweep)",
        &measure(&rows, &strategies, args),
    );
}

/// Table 8 / Table 13: sweeping β₂/β₁. A small ratio means the network dominates
/// (minimize I), a large one local work (minimize the max load at some extra
/// duplication); RecPart adapts, 1-Bucket ignores the ratio.
fn table8(args: &ExperimentArgs) {
    let w = row("", "ebird-cloud/eps2").workload(args);
    println!("=== Table 8 / Table 13 — impact of the beta2/beta1 ratio (ebird ⋈ cloud) ===");
    println!(
        "{:<10} {:>12} {:>16} | {:>12} {:>16}",
        "β2/β1", "RecPart I", "RecPart 4Im+Om", "1-Bucket I", "1-Bucket 4Im+Om"
    );
    for ratio in [0.0001f64, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0] {
        // β1 = 1, β2 = ratio, β3 = β2/4 (the paper's β2/β3 = 4).
        let cfg = HarnessConfig {
            load_model: LoadModel::new(ratio.max(1e-9), (ratio / 4.0).max(1e-9)),
            ..HarnessConfig::new(args.workers_or(30))
        };
        let [(rp_i, rp_load), (ob_i, ob_load)] = [RecPart, OneBucket].map(|strategy| {
            let stats = run_strategy(strategy, &w.s, &w.t, &w.band, &cfg)
                .report
                .stats;
            let load = 4.0 * stats.max_worker_input as f64 + stats.max_worker_output as f64;
            (stats.total_input, load)
        });
        println!("{ratio:<10} {rp_i:>12} {rp_load:>16.0} | {ob_i:>12} {ob_load:>16.0}");
    }
    println!();
    println!(
        "(The paper's observation: as β2 grows, RecPart trades a slightly larger I for a \
         smaller max worker load, while the competitors are unaffected.)"
    );
}

/// Table 9 / Table 14: RecPart-S vs RecPart — symmetric partitioning pays off where
/// the dense regions of S and T are anti-correlated (reverse Pareto).
fn table9(args: &ExperimentArgs) {
    let rows = [
        row("pareto-1.0 eps=(2,2,2)", "pareto-1.0/d3/eps2"),
        row("ebird-cloud eps=(0,0,0)", "ebird-cloud/eps0"),
        row("ebird-cloud eps=(2,2,2)", "ebird-cloud/eps2"),
        row("ebird-cloud eps=(4,4,4)", "ebird-cloud/eps4"),
        row("rv-pareto-1.5 d=1 eps=2", "rv-pareto-1.5/d1/eps2"),
        row("rv-pareto-1.5 d=1 eps=1000", "rv-pareto-1.5/d1/eps1000"),
        row("rv-pareto-1.5 d=3 eps=1000", "rv-pareto-1.5/d3/eps1000"),
        row("rv-pareto-1.5 d=3 eps=2000", "rv-pareto-1.5/d3/eps2000"),
    ];
    let table = measure(&rows, &[RecPartS, RecPart], args);
    print_table(
        "Table 9 / Table 14 — RecPart-S vs RecPart (symmetric partitioning)",
        &table,
    );
    println!(
        "Imbalance (max/mean worker load): the symmetric variant should stay near 1.0 on \
         the reverse-Pareto rows while RecPart-S degrades."
    );
    for row in &table {
        for o in &row.outcomes {
            let imbalance = o.report.stats.imbalance();
            println!(
                "{:<32} {:<10} imbalance {imbalance:>6.2}",
                row.config, o.label
            );
        }
    }
}

/// Table 12 and Figure 9: the linear model `β₀ + β₁·I + β₂·I_m + β₃·O_m`, fitted once
/// on a calibration benchmark (the paper's ~100 offline queries), predicting every
/// strategy's simulated join time; then the cumulative distribution of its error.
fn table12(args: &ExperimentArgs) {
    eprintln!("calibrating the running-time model …");
    let cost_model = calibrate_cost_model(args.seed, 16);
    println!(
        "fitted model: t = {:.2} + {:.3e}·I + {:.3e}·Im + {:.3e}·Om   (β2/β3 = {:.2})",
        cost_model.beta0,
        cost_model.beta1,
        cost_model.beta2,
        cost_model.beta3,
        cost_model.beta2 / cost_model.beta3.max(1e-12)
    );
    let rows = [
        row("pareto-1.5 d=1 eps=0", "pareto-1.5/d1/eps0"),
        row("pareto-1.5 d=1 eps=2e-5", "pareto-1.5/d1/eps2e-5"),
        row("pareto-1.5 d=3 eps=(2,2,2)", "pareto-1.5/d3/eps2"),
        row("pareto-1.5 d=3 eps=(4,4,4)", "pareto-1.5/d3/eps4"),
        row("pareto-0.5 d=3 eps=(2,2,2)", "pareto-0.5/d3/eps2"),
        row("pareto-2.0 d=3 eps=(2,2,2)", "pareto-2.0/d3/eps2"),
        row("ebird-cloud eps=(1,1,1)", "ebird-cloud/eps1"),
        row("ebird-cloud eps=(2,2,2)", "ebird-cloud/eps2"),
    ];
    println!();
    println!("=== Table 12 — predicted vs simulated join time ===");
    println!(
        "{:<28} {:<12} {:>12} {:>12} {:>9}",
        "config", "strategy", "predicted", "actual", "error"
    );
    let mut errors = Vec::new();
    for row in rows {
        let measured = row.run(Strategy::PAPER_MAIN, args, cost_model);
        for o in &measured.outcomes {
            let (predicted, actual) = (o.predicted_join_seconds, o.join_seconds);
            let error = (predicted - actual) / actual;
            errors.push(error.abs());
            println!(
                "{:<28} {:<12} {:>11.1}s {:>11.1}s {:>8.1}%",
                measured.config,
                o.label,
                predicted,
                actual,
                100.0 * error
            );
        }
    }
    errors.sort_by(f64::total_cmp);
    println!();
    println!("=== Figure 9 — cumulative distribution of the model error ===");
    for threshold in [0.05, 0.10, 0.20, 0.40, 0.60, 0.80] {
        let below = errors.iter().filter(|&&e| e <= threshold).count();
        println!(
            "error ≤ {:>4.0}% : {:>5.1}% of the {} measurements",
            100.0 * threshold,
            100.0 * below as f64 / errors.len() as f64,
            errors.len()
        );
    }
    if let Some(max) = errors.last() {
        println!("maximum relative error: {:.1}%", 100.0 * max);
    }
}

/// Table 15: dimensionality 1…8 on pareto-1.5. The data is generated here rather than
/// taken from the catalog, each band width (base 5 per dimension) calibrated to the
/// output-to-input ratio of the paper's row.
fn table15(args: &ExperimentArgs) {
    let workers = args.workers_or(30);
    let total = args.scaled_tuples(400.0);
    let mut rows = Vec::new();
    // Output sizes of the paper's Table 15 divided by its 400M input.
    for (dims, target_ratio) in [(1, 280.0), (2, 0.78), (4, 2.15e-3), (8, 0.0)] {
        eprintln!("running d = {dims} …");
        let mut rng = StdRng::seed_from_u64(args.seed ^ dims as u64);
        let s = datagen::pareto_relation(total / 2, dims, 1.5, &mut rng);
        let t = datagen::pareto_relation(total / 2, dims, 1.5, &mut rng);
        let band = calibrate_band(&s, &t, &vec![5.0; dims], target_ratio, &mut rng);
        let cfg = HarnessConfig::new(workers);
        rows.push(TableRow {
            config: format!("d = {dims}"),
            outcomes: run_strategies(Strategy::PAPER_MAIN, &s, &t, &band, &cfg),
        });
    }
    print_table(
        "Table 15 — dimensionality sweep (pareto-1.5, eps = 5 per dimension)",
        &rows,
    );
}

/// Figure 4 / Figure 10: duplication overhead (x) vs max-load overhead (y) over the
/// Lemma 1 lower bounds, for every strategy on a broad set of rows, then each
/// strategy's worst case — the paper claims RecPart stays within 10 % of both bounds.
fn figure4(args: &ExperimentArgs) {
    let rows = [
        row("pareto-1.5/d1/eps1e-5", "pareto-1.5/d1/eps1e-5"),
        row("pareto-1.5/d1/eps3e-5", "pareto-1.5/d1/eps3e-5"),
        row("pareto-1.5/d3/eps2", "pareto-1.5/d3/eps2"),
        row("pareto-1.5/d3/eps4", "pareto-1.5/d3/eps4"),
        row("pareto-0.5/d3/eps2", "pareto-0.5/d3/eps2"),
        row("pareto-2.0/d3/eps2", "pareto-2.0/d3/eps2"),
        row("pareto-1.5/d8/eps20", "pareto-1.5/d8/eps20/400M"),
        row("rv-pareto-1.5/d3/eps1000", "rv-pareto-1.5/d3/eps1000"),
        row("ebird-cloud/eps1", "ebird-cloud/eps1"),
        row("ebird-cloud/eps2", "ebird-cloud/eps2"),
        row("ptf/eps3arcsec", "ptf/eps3arcsec"),
    ];
    let table = measure(&rows, &[RecPart, Csio, OneBucket, GridEps], args);
    println!();
    println!("=== Figure 4 / Figure 10 — overhead vs lower bounds, all configurations ===");
    println!(
        "{:<12} {:<30} {:>16} {:>16}",
        "strategy", "config", "dup overhead", "load overhead"
    );
    let mut worst = BTreeMap::<&str, (f64, f64)>::new();
    for row in &table {
        for o in &row.outcomes {
            let (dup, load) = (o.report.duplication_overhead(), o.report.load_overhead());
            let (config, label) = (&row.config, &o.label);
            println!(
                "{label:<12} {config:<30} {:>15.3}% {:>15.3}%",
                100.0 * dup,
                100.0 * load
            );
            let max = worst.entry(label).or_insert((0.0, 0.0));
            *max = (max.0.max(dup), max.1.max(load));
        }
    }
    println!();
    println!("-- worst case per strategy --");
    for (label, (dup, load)) in worst {
        println!(
            "{label:<12} max dup overhead {:>9.2}%   max load overhead {:>9.2}%",
            100.0 * dup,
            100.0 * load
        );
    }
    println!();
}

/// Section 5.1, asserted: Lemma 2 (an ε-range holding `n` T-tuples puts at least `n`
/// into some cell of every grid, whatever its cell size) on a corner-packed workload,
/// and Lemma 3 (for similarly distributed inputs with bounded output-to-input ratio,
/// the largest cell's input share shrinks like `O(√(1/|S| + 1/|T|))`) over doubling
/// input sizes.
fn lemmas(args: &ExperimentArgs) {
    let mut rng = StdRng::seed_from_u64(args.seed);
    println!("=== Lemma 2 — a dense ε-range defeats every grid size ===");
    let n = 20_000;
    let s = datagen::uniform_relation(n, 2, 0.0, 100.0, &mut rng);
    // Half of T packed into [50, 50.01)², much smaller than the band width.
    let t = datagen::corner_packed_relation(n, 2, 50.0, 0.01, 0.5, 100.0, &mut rng);
    let band = BandCondition::symmetric(&[1.0, 1.0]);
    let packed = t
        .iter()
        .filter(|key| key.iter().all(|x| (50.0..50.01).contains(x)))
        .count();
    println!(
        "{packed} of {n} T-tuples lie inside one ε-range; \
         Lemma 2 predicts ≥ that many in some cell:"
    );
    println!(
        "{:>10} {:>18} {:>14}",
        "grid scale", "max T per cell", "≥ packed?"
    );
    for scale in [1.0, 2.0, 4.0, 8.0, 0.5, 0.25] {
        let max_cell = max_t_cell_count(&GridPartitioner::build(&s, &t, &band, scale), &t);
        assert!(
            max_cell >= packed,
            "Lemma 2 fails at grid scale {scale}: {max_cell} < {packed}"
        );
        println!("{scale:>10} {max_cell:>18} {:>14}", "yes");
    }

    println!();
    println!("=== Lemma 3 — max cell share shrinks as ~1/sqrt(|S|) for self-similar inputs ===");
    println!(
        "{:>10} {:>10} {:>16} {:>20}  (bounded: must not grow)",
        "|S|=|T|", "out/in", "max cell share", "share·sqrt(|S|)"
    );
    let mut bounded = Vec::new();
    for size in [5_000usize, 10_000, 20_000, 40_000] {
        let s = datagen::pareto_relation(size, 2, 1.5, &mut rng);
        let t = datagen::pareto_relation(size, 2, 1.5, &mut rng);
        // ε ∝ 1/sqrt(|S|) keeps the output-to-input ratio bounded, as the lemma requires.
        let eps = 0.05 * (5_000.0 / size as f64).sqrt();
        let band = BandCondition::symmetric(&[eps, eps]);
        let out_in = exact_join_count(&s, &t, &band) as f64 / (2 * size) as f64;
        let grid = GridPartitioner::build(&s, &t, &band, 1.0);
        let share = grid.cell_inputs().iter().cloned().fold(0.0, f64::max) / (2 * size) as f64;
        let scaled = share * (size as f64).sqrt();
        println!(
            "{size:>10} {out_in:>10.2} {:>15.3}% {scaled:>20.3}",
            100.0 * share
        );
        bounded.push(scaled);
    }
    let (first, last) = (bounded[0], bounded[bounded.len() - 1]);
    assert!(
        last <= first,
        "Lemma 3: share·sqrt(|S|) grew from {first:.3} to {last:.3}"
    );
}

/// The largest number of T-tuples any grid cell receives (duplicates included).
fn max_t_cell_count(grid: &GridPartitioner, t: &Relation) -> usize {
    let mut counts = vec![0usize; grid.num_partitions()];
    let mut buf = Vec::new();
    for (i, key) in t.iter().enumerate() {
        buf.clear();
        grid.assign_t(&key, i as u64, &mut buf);
        for &p in &buf {
            counts[p as usize] += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn views_are_the_paper_tables_in_order() {
        // Tables 1–16 as the paper numbers them, then Figure 4 / 10 and Lemmas 2–3.
        let ids: Vec<&str> = VIEWS.iter().map(|v| v.0).collect();
        assert_eq!(
            ids.join(" "),
            "1 2a 2b 2c 3 4a 4b 4c 4d 5 6 7 8 9 12 15 16 fig4 lemma"
        );
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 19);
    }

    #[test]
    fn table_flag_selects_views_and_passes_the_rest_on() {
        let (views, args) = parse(strings(&["--quick", "--table", "4d", "--seed", "9"]));
        assert_eq!(views.iter().map(|v| v.0).collect::<Vec<_>>(), ["4d"]);
        assert_eq!(args.scale, 5e-5);
        assert_eq!(args.seed, 9);
        assert_eq!(parse(strings(&["--quick"])).0.len(), VIEWS.len());
    }

    #[test]
    #[should_panic(expected = "valid ids: 1 2a 2b 2c 3 4a 4b 4c 4d 5 6 7 8 9 12 15 16 fig4 lemma")]
    fn unknown_table_panics() {
        let _ = parse(strings(&["--table", "10"]));
    }

    #[test]
    fn row_instantiates_scaled_workload() {
        let args = ExperimentArgs {
            scale: 1e-5,
            ..ExperimentArgs::default()
        };
        // 400 M × 1e-5 = 4 000 tuples; 2 × (200 M × 1e-5) as well.
        for size in [None, Some((200.0, 2))] {
            let w = Row("pareto d3 eps0", "pareto-1.5/d3/eps0", 4, size).workload(&args);
            assert_eq!(w.s.len() + w.t.len(), 4_000);
            assert_eq!(w.band.dims(), 3);
        }
    }

    #[test]
    fn row_runs_every_strategy_verified() {
        let row = Row("tiny", "pareto-1.5/d1/eps0", 3, Some((10.0, 1)));
        let measured = row.run(
            &[RecPartS, OneBucket],
            &ExperimentArgs::default(),
            CostModel::default(),
        );
        assert_eq!(measured.config, "tiny");
        assert_eq!(measured.outcomes.len(), 2);
        for o in &measured.outcomes {
            assert_eq!(o.report.correct, Some(true));
            assert_eq!(o.report.stats.s_len + o.report.stats.t_len, 2_000);
        }
    }
}
