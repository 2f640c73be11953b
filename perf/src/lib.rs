//! The repository's one benchmark (see `README.md` beside this crate).
//!
//! ```text
//! perf [--seed N] [--seconds S] [--quick] [--out FILE]       all workloads, both passes
//! perf --workload NAME --seed N --seconds S --trace 0|1     one workload, one pass
//! perf compare A B                                          A, B: result files or directories of them
//! ```
//!
//! Every mode prints each metric by name with its unit, checks every answer, and
//! writes `result.json`; `--workload` additionally ends standard output with the one
//! JSON line `BENCHMARK.json`'s driver reads.

mod compare;
mod run;
pub mod spec;
mod staged;
mod stats;
mod stream;
mod trace;
mod workloads;

use run::{run_workload, Opts};
use spec::{Benchmark, DriverLine, Metric, Metrics, RunResult, WorkloadResult, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// `perf/out/`, wherever the process was started from.
fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: both passes.
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        quick: false,
        out: default_out_dir().join("result.json"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// `git rev-parse HEAD` of the repository this package sits in; `unknown` where the
/// sources are not a git checkout (git is not asked, so it cannot answer for some
/// enclosing repository).
fn git_sha() -> String {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !repo.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |sha| sha.trim().to_string())
}

/// Attach the contract's units to what a workload emitted, failing on any metric the
/// contract names for these passes that is missing or not finite, and on any emitted
/// metric the contract does not know.
fn named_metrics(
    emitted: &[(&'static str, f64)],
    expected: &[(&str, &str)],
) -> Result<Metrics, String> {
    let mut metrics = BTreeMap::new();
    for &(name, unit) in expected {
        let value = emitted
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }
    if let Some((name, _)) = emitted
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
    {
        return Err(format!("metric {name} is not in BENCHMARK.json"));
    }
    Ok(Metrics(metrics))
}

fn benchmark(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_cli(args)?;
    let contract = Benchmark::load()?;
    let selected: Vec<&Workload> = match &cli.workload {
        Some(name) => vec![Workload::by_name(name).ok_or_else(|| {
            format!("unknown workload {name}; BENCHMARK.json names the workloads")
        })?],
        None => workloads::ALL.iter().collect(),
    };
    for w in &selected {
        if !contract.workloads.iter().any(|spec| spec.name == w.name) {
            return Err(format!("workload {} is not in BENCHMARK.json", w.name));
        }
    }
    let out_dir = cli
        .out
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            0.3
        } else {
            contract.run_seconds as f64
        }),
        quick: cli.quick,
        threads: nproc.min(4),
        timed: cli.trace != Some(true),
        traced: cli.trace != Some(false),
        out_dir,
    };
    let mut expected: Vec<(&str, &str)> = Vec::new();
    if opts.timed {
        expected.extend(
            contract
                .end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        );
    }
    if opts.traced {
        expected.extend(
            contract
                .per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        );
    }

    let mut result = RunResult {
        schema: SCHEMA_VERSION,
        git_sha: git_sha(),
        nproc,
        threads: opts.threads,
        route_kernel: recpart::RouteKernel::active().name().into(),
        join_kernel: recpart::JoinKernel::active().name().into(),
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        workloads: Vec::new(),
    };
    println!(
        "perf: seed {} · {} s timed · {} threads of {} cores · route {} · join {} · {}",
        result.seed,
        result.seconds,
        result.threads,
        result.nproc,
        result.route_kernel,
        result.join_kernel,
        result.git_sha
    );

    let mut all_correct = true;
    for workload in selected {
        let start = Instant::now();
        let outcome = run_workload(workload, &opts);
        let wall_s = start.elapsed().as_secs_f64();
        let metrics = named_metrics(&outcome.metrics, &expected)
            .map_err(|e| format!("{}: {e}", workload.name))?;
        let correct = outcome.tally.failed == 0;
        all_correct &= correct;

        println!(
            "\n{} — {} tuples, {:.1} s wall, {} operations, {} failed",
            workload.name, outcome.tuples, wall_s, outcome.tally.attempted, outcome.tally.failed
        );
        for (name, _) in &expected {
            let metric = &metrics.0[*name];
            println!("  {name:<28} {:>16.6} {}", metric.value, metric.unit);
        }
        for note in &outcome.notes {
            println!("  ({note})");
        }
        for message in &outcome.tally.messages {
            eprintln!("  FAILED {message}");
        }
        result.workloads.push(WorkloadResult {
            name: workload.name.into(),
            tuples: outcome.tuples,
            timed_ops: outcome.timed_ops,
            wall_s,
            correct,
            attempted: outcome.tally.attempted,
            failed: outcome.tally.failed,
            metrics,
        });
    }

    let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&cli.out, json).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    println!("\nwrote {}", cli.out.display());

    if cli.workload.is_some() {
        let only = &result.workloads[0];
        let line = DriverLine {
            correct: only.correct,
            attempted: only.attempted,
            failed: only.failed,
            metrics: only.metrics.clone(),
        };
        println!(
            "{}",
            serde_json::to_string(&line).map_err(|e| e.to_string())?
        );
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run the command line `args` (without the program name).
pub fn cli(args: &[String]) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        _ => benchmark(args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("perf: {message}");
        ExitCode::from(2)
    })
}
