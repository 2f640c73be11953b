//! The traced pass: one cold query taken apart into the repo's layers, each behind a
//! span, and the per-layer metrics read off those spans.
//!
//! The staged query calls the same public functions `RecPart::optimize` and
//! `Executor::execute` call, in the same order on the same RNG stream, so it must
//! reproduce the untraced query's plan signature and counts exactly; if it does not,
//! the trace measures a different program and the run fails. Measurements that are
//! not steps of a query (re-compiling the router, a count-only routing pass, the
//! sequential per-partition build/sweep split) run in a sibling `probes` span so they
//! do not inflate the `query` span they explain.

use crate::stats::{median, median_or_zero};
use crate::trace::{Lane, Tracer};
use crate::workloads::{
    check_report, ensure, Case, Fingerprint, Pipeline, Tally, PROGRAM_SEED, WORKERS,
};
use distsim::{probe_sorted, ExecutionReport, ShuffledInputs, SortedProbeSide};
use rand::{rngs::StdRng, SeedableRng};
use recpart::{
    recpart::OptimizationReport, AssignmentSink, CompiledRouter, InputSample, OutputSample,
    Partitioner, RecPartResult, DEFAULT_BLOCK_TUPLES,
};
use std::time::Instant;

/// Everything one staged query produced that a metric or a check reads.
struct StagedQuery {
    plan: RecPartResult,
    sampled_pairs: usize,
    shuffled: ShuffledInputs,
    reduce: ExecutionReport,
}

/// What the metrics keep of a staged query once its arenas are dropped (holding five
/// queries' arenas alive would make every later query allocate fresh pages).
struct StagedSummary {
    optimization: OptimizationReport,
    sampled_pairs: usize,
    assignments: u64,
    arena_bytes: u64,
    reduce: ExecutionReport,
}

/// Counts of the sequential per-partition probe, for the `local_join.*` metrics.
#[derive(Default, Clone, Copy)]
struct ProbeCounts {
    comparisons: u64,
    output: u64,
}

fn staged_query(tr: &mut Tracer, pipeline: &Pipeline, case: &Case<'_>) -> StagedQuery {
    let (s, t, band) = (case.s, case.t, case.band);
    tr.span("query", |tr| {
        let config = pipeline.recpart.config();
        let mut rng = StdRng::seed_from_u64(PROGRAM_SEED);
        // The input-sample split of `RecPart::try_optimize`.
        let total = config.sample.input_sample_size.max(2);
        let s_share = ((total as f64 * s.len() as f64 / (s.len() + t.len()) as f64).round()
            as usize)
            .clamp(1, total - 1);
        let (s_sample, t_sample) = tr.span("sample.input", |_| {
            (
                InputSample::draw(s, s_share, &mut rng),
                InputSample::draw(t, total - s_share, &mut rng),
            )
        });
        let o_sample = tr.span("sample.output", |_| {
            OutputSample::draw(s, t, band, &config.sample, &mut rng)
        });
        let plan = tr.span("recpart.optimize", |_| {
            pipeline.recpart.optimize_with_samples(
                s.len(),
                t.len(),
                band,
                &s_sample,
                &t_sample,
                &o_sample,
                Instant::now(),
            )
        });
        let shuffled = tr.span("shuffle.map_shuffle", |_| {
            pipeline.executor.map_shuffle(&plan.partitioner, s, t)
        });
        let reduce = tr.span("executor.reduce", |_| {
            pipeline.executor.execute_prepared(
                &plan.partitioner,
                s,
                t,
                band,
                &shuffled.s_parts,
                &shuffled.t_parts,
            )
        });
        StagedQuery {
            plan,
            sampled_pairs: o_sample.len(),
            shuffled,
            reduce,
        }
    })
}

/// The measurements beside the query: router compile, count-only routing, and the
/// per-partition probe-side build and kernel sweep run one partition at a time.
fn probes(
    tr: &mut Tracer,
    staged: &StagedQuery,
    case: &Case<'_>,
    violations: &mut Vec<String>,
) -> ProbeCounts {
    let (s, t, band) = (case.s, case.t, case.band);
    tr.span("probes", |tr| {
        let partitioner = &staged.plan.partitioner;
        let router = tr.span("router.compile", |_| {
            CompiledRouter::compile(partitioner.tree(), band, PROGRAM_SEED)
        });
        ensure(
            violations,
            router.signature() == partitioner.router().signature(),
            || "recompiled router differs from the plan's".into(),
        );

        let routed = tr.span("router.route", |_| {
            let mut sink = AssignmentSink::counting(partitioner.num_partitions());
            for lo in (0..s.len()).step_by(DEFAULT_BLOCK_TUPLES) {
                let hi = (lo + DEFAULT_BLOCK_TUPLES).min(s.len());
                partitioner.assign_s_block(s, lo..hi, &mut sink);
            }
            for lo in (0..t.len()).step_by(DEFAULT_BLOCK_TUPLES) {
                let hi = (lo + DEFAULT_BLOCK_TUPLES).min(t.len());
                partitioner.assign_t_block(t, lo..hi, &mut sink);
            }
            sink.len() as u64
        });
        ensure(violations, routed == staged.shuffled.total_input(), || {
            format!(
                "count-only routing made {routed} assignments, the shuffle {}",
                staged.shuffled.total_input()
            )
        });

        let mut counts = ProbeCounts::default();
        let (s_parts, t_parts) = (&staged.shuffled.s_parts, &staged.shuffled.t_parts);
        for p in 0..s_parts.num_partitions() {
            if s_parts.part(p).is_empty() || t_parts.part(p).is_empty() {
                continue;
            }
            let side = tr.span("local_join.probe_build", |_| {
                SortedProbeSide::build(t, t_parts.part(p))
            });
            let joined = tr.span("local_join.sweep", |_| {
                probe_sorted(s, t, &side, band, s_parts.part(p).iter().copied(), None)
            });
            counts.comparisons += joined.comparisons;
            counts.output += joined.output;
        }
        counts
    })
}

/// What the traced pass needs from the untraced one.
pub struct Reference {
    pub fingerprint: Fingerprint,
    /// Median wall seconds of the untraced cold query.
    pub query_s: f64,
}

/// Run `reps` staged queries at the run's thread count (with probes) and `reps` at
/// one thread, check each against `reference`, and return the per-layer metrics.
pub fn trace_cold_query(
    tr: &mut Tracer,
    case: &Case<'_>,
    threads: usize,
    reps: usize,
    reference: &Reference,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let mut run_lane: Vec<StagedSummary> = Vec::new();
    let mut probe_counts = ProbeCounts::default();
    for (lane, lane_threads) in [(Lane::Run, threads), (Lane::Sequential, 1)] {
        let pipeline = Pipeline::new(WORKERS, lane_threads);
        for _ in 0..reps {
            tr.begin_query(lane);
            let staged = staged_query(tr, &pipeline, case);
            let mut violations = check_report(
                staged.plan.partitioner.plan_signature(),
                &staged.reduce,
                &reference.fingerprint,
                case.oracle_output,
            );
            ensure(
                &mut violations,
                staged.shuffled.total_input() == reference.fingerprint.total_input,
                || "shuffled assignments differ from the untraced total input".into(),
            );
            if lane == Lane::Run {
                probe_counts = probes(tr, &staged, case, &mut violations);
                ensure(
                    &mut violations,
                    probe_counts.comparisons == reference.fingerprint.comparisons
                        && probe_counts.output == reference.fingerprint.output,
                    || "per-partition probe counts differ from the untraced query".into(),
                );
                run_lane.push(StagedSummary {
                    optimization: staged.plan.report,
                    sampled_pairs: staged.sampled_pairs,
                    assignments: staged.shuffled.total_input(),
                    arena_bytes: staged.shuffled.arena_bytes(),
                    reduce: staged.reduce,
                });
            }
            tally.record("staged query", violations);
        }
    }

    let run = |name: &str| median(&tr.per_query_seconds(name, Lane::Run));
    let speedup = |name: &str| median(&tr.per_query_seconds(name, Lane::Sequential)) / run(name);
    let over_queries =
        |f: &dyn Fn(&StagedSummary) -> f64| median(&run_lane.iter().map(f).collect::<Vec<_>>());

    let assemble: Vec<f64> = tr
        .per_query_seconds("executor.reduce", Lane::Run)
        .iter()
        .zip(&run_lane)
        .map(|(wall, q)| wall - q.reduce.local_join_wall_seconds)
        .collect();
    let first = &run_lane[0];
    let optimization = &first.optimization;
    let tuples = (case.s.len() + case.t.len()) as f64;
    let sweep_s = run("local_join.sweep");
    let query_s = run("query");
    let oracle = case.oracle_output as f64;
    vec![
        ("sample.input_s", run("sample.input")),
        ("sample.output_s", run("sample.output")),
        ("sample.output_pairs", first.sampled_pairs as f64),
        (
            "sample.est_output_rel_err",
            (optimization.estimated_output - oracle).abs() / oracle.max(1.0),
        ),
        ("recpart.optimize_s", run("recpart.optimize")),
        (
            "recpart.split_search_s",
            over_queries(&|q| q.optimization.split_search_seconds),
        ),
        (
            "recpart.evaluation_s",
            over_queries(&|q| q.optimization.evaluation_seconds),
        ),
        ("recpart.iterations", optimization.iterations as f64),
        (
            "recpart.winner_frac",
            optimization.winning_iteration as f64 / optimization.iterations.max(1) as f64,
        ),
        ("recpart.partitions", optimization.partitions as f64),
        (
            "recpart.candidates_scored",
            optimization.split_search.candidates_scored as f64,
        ),
        ("recpart.par_speedup", speedup("recpart.optimize")),
        ("router.compile_s", run("router.compile")),
        ("router.route_s", run("router.route")),
        ("router.tuples_per_s", tuples / run("router.route")),
        ("shuffle.map_shuffle_s", run("shuffle.map_shuffle")),
        ("shuffle.assignments", first.assignments as f64),
        ("shuffle.arena_bytes", first.arena_bytes as f64),
        ("shuffle.tuples_per_s", tuples / run("shuffle.map_shuffle")),
        ("shuffle.par_speedup", speedup("shuffle.map_shuffle")),
        ("local_join.probe_build_s", run("local_join.probe_build")),
        ("local_join.sweep_s", sweep_s),
        ("local_join.comparisons", probe_counts.comparisons as f64),
        ("local_join.output", probe_counts.output as f64),
        (
            "local_join.match_frac",
            probe_counts.output as f64 / (probe_counts.comparisons as f64).max(1.0),
        ),
        (
            "local_join.comparisons_per_s",
            probe_counts.comparisons as f64 / sweep_s,
        ),
        ("executor.reduce_s", run("executor.reduce")),
        // The report's own phase wall is the kernel part of the reduce; the rest is
        // the LPT mapping and report assembly.
        ("executor.assemble_s", median(&assemble)),
        (
            "executor.worker_wall_skew",
            over_queries(&|q| {
                let walls = &q.reduce.per_worker_wall_seconds;
                let mean = walls.iter().sum::<f64>() / walls.len() as f64;
                q.reduce.max_worker_wall_seconds() / mean
            }),
        ),
        ("executor.par_speedup", speedup("executor.reduce")),
        (
            "trace.unattributed_s",
            median_or_zero(&tr.self_seconds("query", Lane::Run)),
        ),
        (
            "trace.overhead_frac",
            (query_s - reference.query_s) / reference.query_s,
        ),
    ]
}
