//! One workload, start to finish: set-up, oracle, the timed pass (tracing off) and the
//! traced pass, with every answer checked on the way.

use crate::staged::{trace_cold_query, Reference};
use crate::stats::{median, quantile};
use crate::stream::{cold_build, run_stream, setup_service, Script, Until, STREAM_LAYER_METRICS};
use crate::trace::Tracer;
use crate::workloads::{
    check_report, quality_ratios, Case, Fingerprint, Kind, Pipeline, Tally, Workload, WORKERS,
};
use distsim::{exact_join_count_on, process_peak_rss_bytes, ExecutionReport};
use std::path::PathBuf;
use std::time::Instant;

pub struct Opts {
    pub seed: u64,
    /// Length of the timed pass.
    pub seconds: f64,
    pub quick: bool,
    /// `min(nproc, 4)`: optimizer, shuffle and reduce all run on this many threads.
    pub threads: usize,
    /// Report the end-to-end metrics (timed pass at full length, set-up repeated).
    pub timed: bool,
    /// Report the per-layer metrics (traced pass) and write the trace file.
    pub traced: bool,
    pub out_dir: PathBuf,
}

/// Repetition counts that do not come from `--seconds`.
struct Reps {
    /// Set-ups per run; `setup_s` is their median.
    setup: usize,
    /// Untimed queries before the timed ones.
    warmup: usize,
    /// Staged queries per thread count in the traced pass.
    staged: usize,
    /// Queries of the traced `serve-hot` stream.
    hot_stream: usize,
    /// Queries per generation of `serve-churn`.
    churn_generation: usize,
}

impl Reps {
    fn new(quick: bool) -> Self {
        if quick {
            Reps {
                setup: 1,
                warmup: 1,
                staged: 2,
                hot_stream: 40,
                churn_generation: 8,
            }
        } else {
            Reps {
                setup: 5,
                warmup: 2,
                staged: 5,
                hot_stream: 200,
                churn_generation: 25,
            }
        }
    }
}

pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub tuples: usize,
    /// Operations the timed pass measured.
    pub timed_ops: u64,
    /// `n` and p90 beside each timing median, for the printout only.
    pub notes: Vec<String>,
}

pub fn run_workload(workload: &Workload, opts: &Opts) -> Outcome {
    let mut outcome = Outcome {
        metrics: Vec::new(),
        tally: Tally::default(),
        tuples: workload.tuples_at(opts.quick),
        timed_ops: 0,
        notes: Vec::new(),
    };
    let mut tr = Tracer::new(opts.traced);
    match workload.kind {
        Kind::OneShot => one_shot(workload, opts, &mut tr, &mut outcome),
        Kind::ServeHot | Kind::ServeChurn => serve(workload, opts, &mut tr, &mut outcome),
    }
    if opts.traced {
        outcome.metrics.extend([
            ("datagen.gen_s", median(&tr.seconds("datagen"))),
            ("datagen.tuples", outcome.tuples as f64),
            (
                "verify.exact_count_s",
                median(&tr.seconds("verify.exact_count")),
            ),
            (
                "process.peak_rss_mb",
                process_peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64,
            ),
        ]);
        let path = opts.out_dir.join(format!("trace-{}.json", workload.name));
        if let Err(error) = tr.write_chrome(&path) {
            outcome
                .tally
                .record("trace file", vec![format!("{}: {error}", path.display())]);
        }
    }
    outcome
}

fn timing_note(name: &str, samples: &[f64]) -> String {
    format!(
        "{name}: n = {}, p90 = {:.4} s",
        samples.len(),
        quantile(samples, 0.9)
    )
}

/// Cold one-shot queries back to back until `seconds` of query time have passed, every
/// answer checked; then, in a traced run, the same query staged layer by layer and
/// held to the untraced answer. Returns the untraced walls, the first answer's
/// fingerprint and its report.
fn cold_queries(
    tr: &mut Tracer,
    pipeline: &Pipeline,
    case: &Case<'_>,
    seconds: f64,
    opts: &Opts,
    out: &mut Outcome,
) -> (Vec<f64>, Fingerprint, ExecutionReport) {
    let reps = Reps::new(opts.quick);
    let mut walls = Vec::new();
    let mut first: Option<(Fingerprint, ExecutionReport)> = None;
    let mut issued = 0;
    // At least as many untraced queries as the traced pass will stage.
    while issued < reps.warmup + reps.staged || walls.iter().sum::<f64>() < seconds {
        let start = Instant::now();
        let (signature, report) = pipeline.query(case);
        let wall = start.elapsed().as_secs_f64();
        issued += 1;
        if issued > reps.warmup {
            walls.push(wall);
        }
        let answer = Fingerprint::of(signature, &report);
        let expected = first.get_or_insert((answer, report.clone())).0;
        out.tally.record(
            "query",
            check_report(signature, &report, &expected, case.oracle_output),
        );
    }
    let (fingerprint, report) = first.expect("at least one query ran");
    if opts.traced {
        let reference = Reference {
            fingerprint,
            query_s: median(&walls),
        };
        out.metrics.extend(trace_cold_query(
            tr,
            case,
            opts.threads,
            reps.staged,
            &reference,
            &mut out.tally,
        ));
    }
    (walls, fingerprint, report)
}

fn one_shot(workload: &Workload, opts: &Opts, tr: &mut Tracer, out: &mut Outcome) {
    let reps = Reps::new(opts.quick);
    let band = workload.band();

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if opts.timed { reps.setup } else { 1 } {
        let start = Instant::now();
        let (s, t) = tr.span("datagen", |_| workload.generate(opts.seed, opts.quick));
        let pipeline = Pipeline::new(WORKERS, opts.threads);
        setups.push(start.elapsed().as_secs_f64());
        built = Some((s, t, pipeline));
    }
    let (s, t, pipeline) = built.expect("set up at least once");
    let case = Case {
        s: &s,
        t: &t,
        band: &band,
        oracle_output: tr.span("verify.exact_count", |_| {
            exact_join_count_on(&s, &t, &band, opts.threads)
        }),
    };

    // The traced pass alone still needs an untraced reference: a shorter timed pass.
    let seconds = if opts.timed {
        opts.seconds
    } else {
        opts.seconds / 4.0
    };
    let (walls, _, report) = cold_queries(tr, &pipeline, &case, seconds, opts, out);
    if opts.timed {
        let (input_ratio, load_ratio) = quality_ratios(&report);
        out.timed_ops = walls.len() as u64;
        out.notes.push(timing_note("query_s", &walls));
        out.notes.push(format!(
            "query_s: {:.0} input tuples/s",
            out.tuples as f64 / median(&walls)
        ));
        out.metrics.extend([
            ("setup_s", median(&setups)),
            ("query_s", median(&walls)),
            (
                "queries_per_s",
                walls.len() as f64 / walls.iter().sum::<f64>(),
            ),
            ("total_input_ratio", input_ratio),
            ("max_load_ratio", load_ratio),
        ]);
    }
    if opts.traced {
        out.metrics
            .extend(STREAM_LAYER_METRICS.iter().map(|&name| (name, 0.0)));
    }
}

fn serve(workload: &Workload, opts: &Opts, tr: &mut Tracer, out: &mut Outcome) {
    let reps = Reps::new(opts.quick);
    let churn = workload.kind == Kind::ServeChurn;

    if opts.timed {
        // Set-up and the timed stream run untraced even when a traced pass follows.
        let mut off = Tracer::new(false);
        let mut setups = Vec::new();
        let mut service = None;
        for _ in 0..reps.setup {
            let start = Instant::now();
            let (built, _) = setup_service(&mut off, workload, opts, &mut out.tally);
            setups.push(start.elapsed().as_secs_f64());
            service = Some(built);
        }
        let mut service = service.expect("set up at least once");
        let mut script = Script::new(workload, opts.seed, reps.churn_generation);
        if !churn {
            // Every churn generation starts from an empty cache by construction; the
            // hot stream gets its first-touch costs out of the way.
            run_stream(
                &mut off,
                &mut service,
                &mut script,
                Until::Cycles(reps.warmup),
                opts.threads,
                &mut out.tally,
            );
        }
        let run = run_stream(
            &mut off,
            &mut service,
            &mut script,
            Until::OpSeconds(opts.seconds),
            opts.threads,
            &mut out.tally,
        );
        // The operation users wait for: a warm hit where the cache fits, a cold build
        // where it does not.
        let headline = if churn { &run.cold } else { &run.warm };
        let (input_ratio, load_ratio) = run.quality_ratios();
        out.timed_ops = run.queries + run.appends.len() as u64;
        out.notes.push(timing_note("query_s", headline));
        out.metrics.extend([
            ("setup_s", median(&setups)),
            ("query_s", median(headline)),
            ("queries_per_s", run.queries_per_s()),
            ("total_input_ratio", input_ratio),
            ("max_load_ratio", load_ratio),
        ]);
    }

    if opts.traced {
        let (mut service, built) = setup_service(tr, workload, opts, &mut out.tally);
        let band = workload.band();
        let case = Case {
            s: service.s(),
            t: service.t(),
            band: &band,
            oracle_output: tr.span("verify.exact_count", |_| {
                exact_join_count_on(service.s(), service.t(), &band, opts.threads)
            }),
        };
        // The cold pipeline of the most frequent query, as a one-shot caller runs it.
        let pipeline = Pipeline::new(WORKERS, opts.threads);
        let (_, fingerprint, _) = cold_queries(tr, &pipeline, &case, 0.0, opts, out);

        // The service's own cold build of that query must be the plan just traced.
        let built = built.or_else(|| cold_build(&mut service, band.clone(), &mut out.tally));
        out.tally.record(
            "service plan == staged plan",
            if built == Some(fingerprint) {
                Vec::new()
            } else {
                vec![format!("{built:?} != {fingerprint:?}")]
            },
        );

        let mut script = Script::new(workload, opts.seed, reps.churn_generation);
        let run = run_stream(
            tr,
            &mut service,
            &mut script,
            Until::Cycles(if churn { 1 } else { reps.hot_stream }),
            opts.threads,
            &mut out.tally,
        );
        out.metrics.extend(run.layer_metrics());
    }
}
