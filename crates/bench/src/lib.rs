//! # bench — the experiment harness
//!
//! The infrastructure of `exp_paper`, whose `--table <id>` views regenerate the
//! paper's tables, figures and lemmas (the README lists them under "Reproducing the
//! paper's experiments"; `DESIGN.md` records where the set-up departs from the
//! paper's):
//!
//! * [`harness`] — builds every partitioning strategy on a workload, measures
//!   optimization time, runs the simulated execution, and collects the paper's
//!   success measures;
//! * [`report`] — table formatting that mirrors the paper's row structure;
//! * [`args`] — minimal command-line parsing (`--scale`, `--workers`, `--seed`,
//!   `--quick`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod harness;
pub mod report;

pub use args::ExperimentArgs;
pub use harness::{Strategy, StrategyOutcome};
pub use report::{print_table, TableRow};
