//! `BENCHMARK.json` (the contract: workloads, metrics, units, bounds) and
//! `result.json` (what one run measured), as serde types.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// The repository's `BENCHMARK.json`, compiled in so the binary and the contract
/// cannot drift apart unnoticed: a metric the code emits but the contract does not
/// name (or the reverse) fails the run.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Deserialize)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<LayerSpec>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct LayerSpec {
    pub name: String,
    pub unit: String,
}

impl Benchmark {
    pub fn load() -> Result<Benchmark, String> {
        serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

pub const SCHEMA_VERSION: u32 = 1;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Metrics by name, as a JSON *object*. The serde shim writes maps as arrays of
/// `[key, value]` pairs (it keys maps by compound values elsewhere), so the object
/// form the driver reads is spelled out against the shim's value tree.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(name, metric)| (name.clone(), metric.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for Metrics {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        v.as_map()
            .ok_or_else(|| serde::Error::custom("expected an object of metrics"))?
            .iter()
            .map(|(name, metric)| Ok((name.clone(), Metric::from_value(metric)?)))
            .collect::<Result<_, _>>()
            .map(Metrics)
    }
}

/// One run of the benchmark: metadata plus one record per workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub schema: u32,
    pub git_sha: String,
    pub nproc: usize,
    pub threads: usize,
    pub route_kernel: String,
    pub join_kernel: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub workloads: Vec<WorkloadResult>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    /// `|S| + |T|`.
    pub tuples: usize,
    /// Operations the timed pass measured.
    pub timed_ops: u64,
    /// Set-up + warm-up + timed + traced, as the process saw it.
    pub wall_s: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The last line of standard output in `--workload` mode.
#[derive(Debug, Clone, Serialize)]
pub struct DriverLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}
