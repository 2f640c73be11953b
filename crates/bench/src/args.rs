//! Minimal command-line argument handling for `exp_paper`, which accepts:
//!
//! * `--scale <f64>`   — fraction of the paper's input size to generate
//!   (default `2e-4`, i.e. 400 M paper tuples become 80 k tuples);
//! * `--workers <n>`   — override the default worker count of the experiment;
//! * `--quick`         — cap `--scale` at `5e-5` for smoke runs and CI;
//! * `--seed <u64>`    — change the data-generation seed.

/// Parsed command-line options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentArgs {
    /// Fraction of the paper's input sizes to instantiate.
    pub scale: f64,
    /// Worker-count override (`None` keeps each experiment's paper value).
    pub workers: Option<usize>,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            scale: 2e-4,
            workers: None,
            seed: 0xBA2D_2020,
        }
    }
}

impl ExperimentArgs {
    /// Parse from an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> ExperimentArgs {
        let mut out = ExperimentArgs::default();
        let mut quick = false;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    out.scale = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a floating-point value");
                }
                "--workers" => {
                    out.workers = Some(
                        iter.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--workers needs an integer"),
                    );
                }
                "--seed" => {
                    out.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs an integer");
                }
                "--quick" => quick = true,
                "--help" | "-h" => {
                    eprintln!("options: [--scale <f64>] [--workers <n>] [--seed <u64>] [--quick]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument: {other}"),
            }
        }
        if quick {
            out.scale = out.scale.min(5e-5);
        }
        out
    }

    /// Parse from the process arguments.
    pub fn from_env() -> ExperimentArgs {
        Self::parse(std::env::args().skip(1))
    }

    /// Translate a paper input size (in millions of tuples) into a concrete tuple count
    /// under this scale factor (at least 1 000 tuples so experiments stay meaningful).
    pub fn scaled_tuples(&self, paper_millions: f64) -> usize {
        ((paper_millions * 1e6 * self.scale).round() as usize).max(1_000)
    }

    /// The worker count to use given an experiment's paper default.
    pub fn workers_or(&self, paper_default: usize) -> usize {
        self.workers.unwrap_or(paper_default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExperimentArgs {
        ExperimentArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a, ExperimentArgs::default());
        assert_eq!(a.workers_or(30), 30);
        // 400 M paper tuples at 2e-4 → 80 k.
        assert_eq!(a.scaled_tuples(400.0), 80_000);
    }

    #[test]
    fn explicit_values() {
        let a = parse(&["--scale", "0.001", "--workers", "12", "--seed", "9"]);
        assert!((a.scale - 0.001).abs() < 1e-12);
        assert_eq!(a.workers_or(30), 12);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn quick_mode_shrinks_scale() {
        let a = parse(&["--quick"]);
        assert!(a.scale <= 5e-5);
        assert_eq!(a.scaled_tuples(400.0).max(1_000), a.scaled_tuples(400.0));
    }

    #[test]
    fn minimum_tuple_count_enforced() {
        let a = parse(&["--scale", "0.0000001"]);
        assert_eq!(a.scaled_tuples(400.0), 1_000);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_argument_panics() {
        let _ = parse(&["--bogus"]);
    }
}
