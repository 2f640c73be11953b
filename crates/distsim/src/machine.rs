//! The synthetic "ground truth" cluster timing model.
//!
//! The paper measures wall-clock times on a 30-node Amazon EMR cluster. This repository
//! replaces the physical cluster with a deterministic timing model applied to the
//! *measured* per-worker work of a simulated execution:
//!
//! ```text
//! join time = shuffle + max over workers ( read·I_w + probe·C_w + emit·O_w + task·P_w )
//! shuffle   = per_shuffled_tuple · I  +  job_overhead
//! ```
//!
//! where `I_w`, `O_w` are the worker's input/output tuple counts, `C_w` is the number of
//! candidate comparisons its local join algorithm actually performed, and `P_w` the
//! number of partitions (reduce tasks) it executed. Because `C_w` is *not* a linear
//! function of `I_w`/`O_w`, the linear cost model of [`crate::cost_model`] exhibits the
//! same kind of moderate prediction error the paper reports in Table 12 / Figure 9 —
//! which is exactly the role this model plays in the reproduction.
//!
//! The default constants are tuned so that (a) input handling dominates output handling
//! roughly 4:1 per tuple (the paper's β₂/β₃) and (b) a 400 k-tuple workload on 30
//! simulated workers lands in the "hundreds of seconds" range of the paper's tables.

/// Per-worker work measured during a simulated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerWork {
    /// Input tuples received (including duplicates).
    pub input: u64,
    /// Output tuples produced.
    pub output: u64,
    /// Candidate pairs the local join's index handed its probes — the summed
    /// dimension-0 window sizes, not the per-candidate tests a kernel executed.
    pub comparisons: u64,
    /// Number of partitions (reduce tasks) processed.
    pub partitions: u64,
}

/// Deterministic timing model of the simulated cluster. Its constants are
/// fixed: every report is simulated under [`MachineModel::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MachineModel {
    /// Seconds per shuffled input tuple (network + serialization).
    shuffle_per_tuple: f64,
    /// Seconds per input tuple read and staged by a worker.
    read_per_tuple: f64,
    /// Seconds per candidate comparison in the local join.
    compare_per_pair: f64,
    /// Seconds per output tuple emitted.
    emit_per_tuple: f64,
    /// Fixed seconds per reduce task (partition) — models task scheduling overhead.
    task_overhead: f64,
    /// Fixed seconds per job (container startup, job setup).
    job_overhead: f64,
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel {
            shuffle_per_tuple: 2.0e-4,
            read_per_tuple: 7.0e-4,
            compare_per_pair: 1.2e-4,
            emit_per_tuple: 2.0e-4,
            task_overhead: 0.05,
            job_overhead: 15.0,
        }
    }
}

impl MachineModel {
    /// Time spent by one worker on its local joins.
    pub(crate) fn worker_seconds(&self, work: &WorkerWork) -> f64 {
        self.read_per_tuple * work.input as f64
            + self.compare_per_pair * work.comparisons as f64
            + self.emit_per_tuple * work.output as f64
            + self.task_overhead * work.partitions as f64
    }

    /// End-to-end simulated join time: shuffle of the total input plus the slowest
    /// worker, plus the fixed job overhead.
    pub(crate) fn join_seconds(&self, total_input: u64, workers: &[WorkerWork]) -> f64 {
        let shuffle = self.shuffle_per_tuple * total_input as f64;
        let slowest = workers
            .iter()
            .map(|w| self.worker_seconds(w))
            .fold(0.0, f64::max);
        self.job_overhead + shuffle + slowest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_time_is_monotone_in_each_component() {
        let m = MachineModel::default();
        let base = WorkerWork {
            input: 1000,
            output: 100,
            comparisons: 5000,
            partitions: 2,
        };
        let t0 = m.worker_seconds(&base);
        for delta in [
            WorkerWork {
                input: 2000,
                ..base
            },
            WorkerWork {
                output: 200,
                ..base
            },
            WorkerWork {
                comparisons: 10_000,
                ..base
            },
            WorkerWork {
                partitions: 4,
                ..base
            },
        ] {
            assert!(m.worker_seconds(&delta) > t0);
        }
    }

    #[test]
    fn join_time_uses_slowest_worker() {
        let m = MachineModel::default();
        let light = WorkerWork {
            input: 10,
            output: 0,
            comparisons: 10,
            partitions: 1,
        };
        let heavy = WorkerWork {
            input: 100_000,
            output: 10_000,
            comparisons: 1_000_000,
            partitions: 1,
        };
        let balanced = m.join_seconds(200_000, &[heavy, heavy]);
        let skewed = m.join_seconds(200_000, &[light, heavy]);
        // Total input identical → shuffle identical; max worker identical → same time.
        assert!((balanced - skewed).abs() < 1e-9);
        // But reducing the heaviest worker reduces the time.
        let better = m.join_seconds(200_000, &[light, light]);
        assert!(better < balanced);
    }

    #[test]
    fn default_input_output_cost_ratio_is_about_four() {
        let m = MachineModel::default();
        // Reading + shuffling an input tuple vs. emitting an output tuple.
        let input_cost = m.read_per_tuple + m.shuffle_per_tuple;
        let ratio = input_cost / m.emit_per_tuple;
        assert!((3.0..6.0).contains(&ratio), "ratio {ratio} outside 3–6");
    }

    #[test]
    fn empty_cluster_is_just_job_overhead() {
        let m = MachineModel::default();
        assert!((m.join_seconds(0, &[]) - m.job_overhead).abs() < 1e-12);
    }
}
