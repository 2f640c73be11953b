//! The five workloads, the fixed program configuration they run under, and the
//! correctness bookkeeping every pass shares.
//!
//! `--seed` drives data generation and the query stream only. The program's own seeds
//! ([`PROGRAM_SEED`]) are configuration: a one-shot query and a service cold build of
//! the same band and worker count draw the same samples and must choose the same plan.

use datagen::{catalog::catalog_entry, pareto_relation};
use distsim::{ExecutionReport, Executor, ExecutorConfig, ServiceConfig, VerificationLevel};
use rand::{rngs::StdRng, SeedableRng};
use recpart::{BandCondition, RecPart, RecPartConfig, Relation};

/// Simulated workers of the representative query: the paper's 30-node cluster.
pub const WORKERS: usize = 30;
/// Seed of every `RecPartConfig` / `ServiceConfig` the benchmark builds.
pub const PROGRAM_SEED: u64 = 7;
/// `--quick` divides every workload's tuple count by this.
pub const QUICK_DIVISOR: usize = 20;

/// Which code path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold `RecPart::optimize` + `Executor::execute` per query.
    OneShot,
    /// `BandJoinService` whose cache holds every plan the stream asks for.
    ServeHot,
    /// `BandJoinService` whose working set exceeds the cache, with appends.
    ServeChurn,
}

/// One named workload. Bands are literals: calibrating them at run time costs more
/// than the queries they would parameterize.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `|S| + |T|` at full size, split evenly.
    pub tuples: usize,
    pub dims: usize,
    /// Symmetric band width of the representative query, per dimension.
    pub eps: f64,
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "oneshot-1d-narrow",
        kind: Kind::OneShot,
        tuples: 2_000_000,
        dims: 1,
        eps: 1e-5,
    },
    Workload {
        name: "oneshot-1d-wide",
        kind: Kind::OneShot,
        tuples: 2_000_000,
        dims: 1,
        eps: 3e-4,
    },
    Workload {
        name: "oneshot-3d",
        kind: Kind::OneShot,
        tuples: 1_000_000,
        dims: 3,
        eps: 0.02,
    },
    Workload {
        name: "serve-hot",
        kind: Kind::ServeHot,
        tuples: 1_000_000,
        dims: 1,
        eps: 1e-5,
    },
    Workload {
        name: "serve-churn",
        kind: Kind::ServeChurn,
        tuples: 1_000_000,
        dims: 1,
        eps: 1e-5,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|w| w.name == name)
    }

    pub fn band(&self) -> BandCondition {
        BandCondition::symmetric(&vec![self.eps; self.dims])
    }

    pub fn tuples_at(&self, quick: bool) -> usize {
        if quick {
            self.tuples / QUICK_DIVISOR
        } else {
            self.tuples
        }
    }

    /// Both relations, from `seed` alone.
    pub fn generate(&self, seed: u64, quick: bool) -> (Relation, Relation) {
        let per_side = self.tuples_at(quick) / 2;
        if self.dims == 1 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = pareto_relation(per_side, 1, 1.5, &mut rng);
            let t = pareto_relation(per_side, 1, 1.5, &mut rng);
            (s, t)
        } else {
            catalog_entry("pareto-1.5/d3/eps2")
                .dataset
                .generate(per_side, per_side, seed)
        }
    }
}

pub fn recpart_config(workers: usize, threads: usize) -> RecPartConfig {
    RecPartConfig::new(workers)
        .with_seed(PROGRAM_SEED)
        .with_threads(threads)
}

/// Verification is set explicitly: the benchmark checks answers against its own
/// oracle outside the clock, never inside a timed call.
pub fn executor_config(workers: usize, threads: usize) -> ExecutorConfig {
    ExecutorConfig::new(workers)
        .with_verification(VerificationLevel::None)
        .with_threads(threads)
}

pub fn service_config(threads: usize, cache_capacity_bytes: u64) -> ServiceConfig {
    ServiceConfig::new()
        .with_seed(PROGRAM_SEED)
        .with_threads(threads)
        .with_verification(VerificationLevel::None)
        .with_cache_capacity_bytes(cache_capacity_bytes)
}

/// One query, the data it runs on, and the oracle's answer to it.
pub struct Case<'a> {
    pub s: &'a Relation,
    pub t: &'a Relation,
    pub band: &'a BandCondition,
    /// `exact_join_count_on(s, t, band)`, computed outside every clock.
    pub oracle_output: u64,
}

/// The optimizer and executor of one-shot queries at one thread count.
pub struct Pipeline {
    pub recpart: RecPart,
    pub executor: Executor,
}

impl Pipeline {
    pub fn new(workers: usize, threads: usize) -> Self {
        Pipeline {
            recpart: RecPart::new(recpart_config(workers, threads)),
            executor: Executor::new(executor_config(workers, threads)),
        }
    }

    /// One cold query as a user issues it; returns the plan signature with the report.
    pub fn query(&self, case: &Case<'_>) -> (u64, ExecutionReport) {
        let mut rng = StdRng::seed_from_u64(PROGRAM_SEED);
        let plan = self.recpart.optimize(case.s, case.t, case.band, &mut rng);
        let report = self
            .executor
            .execute(&plan.partitioner, case.s, case.t, case.band);
        (plan.partitioner.plan_signature(), report)
    }
}

/// What two executions of the same query must agree on exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub plan_signature: u64,
    pub total_input: u64,
    pub comparisons: u64,
    pub output: u64,
}

impl Fingerprint {
    pub fn of(plan_signature: u64, report: &ExecutionReport) -> Self {
        Fingerprint {
            plan_signature,
            total_input: report.stats.total_input,
            comparisons: report.total_comparisons,
            output: report.stats.output_len,
        }
    }
}

/// `I / (|S|+|T|)` and `L_m / L_0`: the paper's two success measures.
pub fn quality_ratios(report: &ExecutionReport) -> (f64, f64) {
    let stats = &report.stats;
    (
        stats.total_input as f64 / stats.input_lower_bound() as f64,
        stats.max_worker_load / stats.load_lower_bound(),
    )
}

/// Operations attempted and failed. An operation fails once, however many checks it
/// violates.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            if self.messages.len() < 16 {
                self.messages
                    .push(format!("{what}: {}", violations.join("; ")));
            }
        }
    }
}

/// Append `message()` to `violations` unless `ok`.
pub fn ensure(violations: &mut Vec<String>, ok: bool, message: impl FnOnce() -> String) {
    if !ok {
        violations.push(message());
    }
}

/// The checks every answered query passes: the oracle's output count, the first
/// execution's fingerprint, and no degradation.
pub fn check_report(
    plan_signature: u64,
    report: &ExecutionReport,
    expected: &Fingerprint,
    oracle_output: u64,
) -> Vec<String> {
    let got = Fingerprint::of(plan_signature, report);
    let mut violations = Vec::new();
    ensure(&mut violations, got.output == oracle_output, || {
        format!("output {} != oracle {oracle_output}", got.output)
    });
    ensure(&mut violations, got == *expected, || {
        format!("{got:?} != first execution {expected:?}")
    });
    ensure(&mut violations, !report.degraded, || {
        "degraded report".into()
    });
    violations
}
