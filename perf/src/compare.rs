//! `perf compare A B`: judge B against A by the bounds `BENCHMARK.json` fixes.
//!
//! A and B are each a `result.json` or a directory of them (one per run). Per
//! workload and end-to-end metric the medians over each side's runs are compared;
//! `worse` means B's median is worse than A's by more than the bound, `unresolved`
//! means a side's own run-to-run spread (first to third quartile, as a share of the
//! median) is wider than the bound, so the comparison cannot tell. Count metrics of
//! the traced pass are exact: runs of the same commit, seed and size must agree on
//! them to the last digit.

use crate::spec::{Benchmark, RunResult};
use crate::stats::{median, quartiles_exclusive};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn load_runs(path: &str) -> Result<Vec<RunResult>, String> {
    let path = Path::new(path);
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let file = entry.map_err(|e| e.to_string())?.path();
            let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".json") && !name.starts_with("trace-") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        runs.push(
            serde_json::from_str::<RunResult>(&text)
                .map_err(|e| format!("{}: {e}", file.display()))?,
        );
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(runs)
}

fn values(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|run| &run.workloads)
        .filter(|w| w.name == workload)
        .filter_map(|w| w.metrics.0.get(metric))
        .map(|m| m.value)
        .collect()
}

/// First-to-third-quartile distance as a share of the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values)
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: perf compare <a.json|dir> <b.json|dir>".into());
    };
    let contract = Benchmark::load()?;
    let (a, b) = (load_runs(a)?, load_runs(b)?);
    let mut failed = false;

    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>9} {:>6} {:>7}  verdict   (ratio = b/a, {} vs {} runs)",
        "workload",
        "metric",
        "a",
        "b",
        "ratio",
        "bound",
        "spread",
        a.len(),
        b.len()
    );
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let (va, vb) = (
                values(&a, &workload.name, &metric.name),
                values(&b, &workload.name, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if metric.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = spread(&va).max(spread(&vb));
            let verdict = if spread > metric.bound {
                "unresolved"
            } else if worse_by > metric.bound {
                failed = true;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<18} {:>12.6} {:>12.6} {:>9.4} {:>6.2} {:>7.4}  {verdict}",
                workload.name,
                metric.name,
                ma,
                mb,
                mb / ma,
                metric.bound,
                spread
            );
        }
    }

    // Exact counts: group every run of both sides by what determines them.
    let mut groups: BTreeMap<(String, u64, bool, String, String), Vec<f64>> = BTreeMap::new();
    for run in a.iter().chain(&b).filter(|run| run.git_sha != "unknown") {
        for workload in &run.workloads {
            for layer in contract
                .per_layer
                .iter()
                .filter(|l| l.unit == "count" || l.unit == "bytes")
            {
                if let Some(metric) = workload.metrics.0.get(&layer.name) {
                    groups
                        .entry((
                            run.git_sha.clone(),
                            run.seed,
                            run.quick,
                            workload.name.clone(),
                            layer.name.clone(),
                        ))
                        .or_default()
                        .push(metric.value);
                }
            }
        }
    }
    let compared = groups.values().filter(|v| v.len() > 1).count();
    for ((_, seed, _, workload, metric), v) in &groups {
        if v.iter().any(|x| x != &v[0]) {
            failed = true;
            println!("{workload:<18} {metric:<28} differs between runs of seed {seed}: {v:?}");
        }
    }
    println!("exact-count metrics compared across runs of one commit, seed and size: {compared}");

    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
