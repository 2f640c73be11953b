//! Runs the benchmark binary in `--quick` mode and holds it to `BENCHMARK.json`: every
//! workload the contract names emits every metric the contract names, finite, in the
//! contract's unit, with no failed operation.

use perf::spec::{Benchmark, RunResult};
use std::path::Path;
use std::process::Command;

#[test]
fn quick_run_emits_every_contract_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-result.json");
    let status = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--quick", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("the perf binary starts");
    assert!(status.success(), "perf --quick exited with {status}");

    let contract = Benchmark::load().unwrap();
    let run: RunResult = serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(run.quick);

    for workload in &contract.workloads {
        let measured = run
            .workloads
            .iter()
            .find(|w| w.name == workload.name)
            .unwrap_or_else(|| panic!("workload {} did not run", workload.name));
        assert!(measured.correct, "{}: incorrect", workload.name);
        assert!(
            measured.attempted > 0,
            "{}: nothing attempted",
            workload.name
        );
        assert_eq!(measured.failed, 0, "{}: failed operations", workload.name);
        let units = contract
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit))
            .chain(contract.per_layer.iter().map(|m| (&m.name, &m.unit)));
        for (name, unit) in units {
            let metric = measured
                .metrics
                .0
                .get(name)
                .unwrap_or_else(|| panic!("{}: no metric {name}", workload.name));
            assert!(
                metric.value.is_finite(),
                "{}: {name} = {}",
                workload.name,
                metric.value
            );
            assert_eq!(&metric.unit, unit, "{name}");
        }
        for end_to_end in &contract.end_to_end {
            assert!(
                measured.metrics.0[&end_to_end.name].value > 0.0,
                "{}: end-to-end metric {} must never be 0",
                workload.name,
                end_to_end.name
            );
        }
    }
}
