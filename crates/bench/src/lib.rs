//! # bench — the experiment harness
//!
//! Shared infrastructure for the experiment binaries in `src/bin/`, each of which
//! regenerates one table or figure of the paper (the README lists them under
//! "Reproducing the paper's experiments"; `DESIGN.md` records where the set-up departs
//! from the paper's):
//!
//! * [`harness`] — builds every partitioning strategy on a workload, measures
//!   optimization time, runs the simulated execution, and collects the paper's
//!   success measures;
//! * [`report`] — table formatting that mirrors the paper's row structure, plus the
//!   Figure 4 "overhead vs. lower bounds" scatter collection;
//! * [`args`] — minimal command-line parsing shared by all experiment binaries
//!   (`--scale`, `--workers`, `--quick`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod experiments;
pub mod harness;
pub mod report;

pub use args::ExperimentArgs;
pub use experiments::{run_row, run_rows, RowSpec};
pub use harness::{Strategy, StrategyOutcome};
pub use report::{print_figure_points, print_table, FigurePoint, TableRow};
