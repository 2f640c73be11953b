//! Parallel scaling smoke check (CI-guarding, not a paper table).
//!
//! Runs one mid-size pareto-1d workload (≥200 k tuples, ≥64 partitions) through the
//! full `Executor::execute` pipeline with `threads = 1` (strictly sequential) and
//! `threads = 0` (all cores), prints the measured per-phase wall-clock breakdown, and
//! **fails** (non-zero exit) if
//!
//! * any result differs between the runs (they must be bit-identical), or
//! * the parallel `map_shuffle + local_join` wall-clock regresses above the
//!   sequential time (guards against the rayon shim's scheduler silently
//!   serializing again), or
//! * on a 4+-core machine, end-to-end parallel `execute` is not ≥1.5× faster than
//!   sequential.
//!
//! It then times the **RecPart split search** on pre-drawn samples: the sweep-line
//! optimizer (`SplitScorer::SweepLine`) against the PR 2 baseline
//! (`SplitScorer::BinarySearch`), both at `threads = 1` — the split search is
//! sequential by construction — requiring bit-identical split trees, a ≥1.5× speedup
//! on 4+-core machines, and at least a ≥1.1× win everywhere (the sweep's advantage
//! is algorithmic, so it is core-count independent).
//!
//! It then gates the **incremental evaluator**: on the fully grown (deep) tree,
//! `Evaluator::Incremental` must compute bit-identical evaluations to the
//! `Evaluator::FullRecompute` oracle, never be slower, and beat it ≥1.5× on a
//! 4+-core machine when the tree is deep (≥64 leaves).
//!
//! Finally it gates the **block routing pipeline**: `map_shuffle` through the
//! partitioner's block API (the compiled split-tree router for RecPart) must
//! produce a bit-identical arena and be no slower than the per-tuple baseline
//! (`PerTupleFallback`, the pre-block-API path) at `threads = 1` and `threads = 0`.
//!
//! Finally it gates the **SIMD routing kernels**: every batch kernel
//! (`portable`, and `avx2` where the CPU supports it) must route bit-identically
//! to the scalar per-tuple descent and never be slower than it, and the
//! auto-detected vector kernel must beat scalar ≥1.3× on supported hardware.
//!
//! Every timing gate takes the **minimum of three timed rounds for each side**
//! before applying its threshold, so a noisy neighbour on a shared CI runner cannot
//! fail the gate spuriously.
//!
//! ```text
//! cargo run -p bench --release --bin exp_parallel_smoke [-- --quick]
//! ```

use bench::harness::{build_partitioner, run_strategy, HarnessConfig, Strategy, StrategyOutcome};
use bench::{print_phase_breakdown, ExperimentArgs, TableRow};
use datagen::pareto_relation;
use distsim::{ExecutionReport, Executor, ExecutorConfig, VerificationLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{
    AssignmentSink, BandCondition, Evaluator, InputSample, OutputSample, PerTupleFallback, RecPart,
    RecPartConfig, RecPartResult, RouteKernel, SampleConfig, SplitScorer, DEFAULT_BLOCK_TUPLES,
};
use std::time::Instant;

/// Measurement rounds per timing gate (the minimum of the rounds is compared).
const ROUNDS: usize = 3;

fn main() {
    let args = ExperimentArgs::from_env();
    let per_side: usize = if args.quick { 20_000 } else { 120_000 };
    let workers = args.workers_or(64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rng = StdRng::seed_from_u64(args.seed);
    let s = pareto_relation(per_side, 1, 1.5, &mut rng);
    let t = pareto_relation(per_side, 1, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[0.001]);
    println!(
        "workload: pareto-1d, |S|+|T| = {}, eps = 0.001, {workers} workers, {cores} cores",
        s.len() + t.len(),
    );

    let cfg = HarnessConfig::new(workers).with_verification(VerificationLevel::Count);
    let run = |threads: usize| -> StrategyOutcome {
        run_strategy(
            Strategy::RecPartS,
            &s,
            &t,
            &band,
            &cfg.clone().with_threads(threads),
        )
    };

    let sequential = run(1);
    let parallel = run(0);
    // A bounded 4-thread pool exercises the chunked claiming scheduler even when the
    // ambient context has a single core.
    let pooled = run(4);

    print_phase_breakdown(
        "parallel smoke (RecPart-S, pareto-1d)",
        &[
            TableRow {
                config: "threads=1".into(),
                outcomes: vec![sequential.clone()],
            },
            TableRow {
                config: "threads=0".into(),
                outcomes: vec![parallel.clone()],
            },
            TableRow {
                config: "threads=4".into(),
                outcomes: vec![pooled.clone()],
            },
        ],
    );

    let mut failures = Vec::new();

    // The partitioning must be non-trivial for the check to mean anything.
    if !args.quick && sequential.report.partitions < 64 {
        failures.push(format!(
            "expected >= 64 partitions, got {}",
            sequential.report.partitions
        ));
    }

    // Bit-identical results across thread counts.
    for (label, other) in [("threads=0", &parallel), ("threads=4", &pooled)] {
        if sequential.report.stats != other.report.stats {
            failures.push(format!("stats differ between threads=1 and {label}"));
        }
        if sequential.report.per_partition != other.report.per_partition {
            failures.push(format!(
                "per-partition loads differ between threads=1 and {label}"
            ));
        }
        if other.report.correct != Some(true) {
            failures.push(format!("verification failed for {label}"));
        }
    }
    if sequential.report.correct != Some(true) {
        failures.push("verification failed for threads=1".into());
    }

    // --- Execute timing gates, min of ROUNDS rounds per side. ---
    // The parallel map+join phases must never regress above sequential (on a single
    // core the parallel path degenerates to chunked sequential work, so only
    // fan-out/merge overhead is tolerated); on real multi-core hardware the whole
    // pipeline must scale. Rounds re-time `execute` on a partitioner built once —
    // re-running the optimization would only add untimed overhead.
    let slack = if cores == 1 { 1.35 } else { 1.05 };
    let (retry_partitioner, _) = build_partitioner(Strategy::RecPartS, &s, &t, &band, &cfg);
    let retime = |threads: usize| -> (f64, ExecutionReport) {
        let executor = Executor::new(
            ExecutorConfig::new(workers)
                .with_verification(VerificationLevel::Count)
                .with_threads(threads),
        );
        let start = Instant::now();
        let report = executor.execute(retry_partitioner.as_ref(), &s, &t, &band);
        (start.elapsed().as_secs_f64(), report)
    };
    let phases = |r: &ExecutionReport| r.map_shuffle_wall_seconds + r.local_join_wall_seconds;
    // Round 1 reuses the measurements of the bit-identity runs above.
    let mut seq_exec = sequential.execute_seconds;
    let mut par_exec = parallel.execute_seconds;
    let mut seq_phases = phases(&sequential.report);
    let mut par_phases = phases(&parallel.report);
    let mut par_threads_used = parallel.report.threads_used;
    println!(
        "execute round 1: sequential {seq_exec:.4}s (map+join {seq_phases:.4}s) vs parallel \
         {par_exec:.4}s (map+join {par_phases:.4}s)"
    );
    for round in 2..=ROUNDS {
        let (st, sr) = retime(1);
        let (pt, pr) = retime(0);
        println!(
            "execute round {round}: sequential {st:.4}s (map+join {:.4}s) vs parallel \
             {pt:.4}s (map+join {:.4}s)",
            phases(&sr),
            phases(&pr)
        );
        seq_exec = seq_exec.min(st);
        par_exec = par_exec.min(pt);
        seq_phases = seq_phases.min(phases(&sr));
        par_phases = par_phases.min(phases(&pr));
        par_threads_used = pr.threads_used;
    }
    let phase_ratio = par_phases / seq_phases;
    let speedup = seq_exec / par_exec;
    println!(
        "execute best-of-{ROUNDS}: map+join ratio {phase_ratio:.2} (allowed {slack}), \
         end-to-end speedup {speedup:.2}x on {par_threads_used} threads"
    );
    if phase_ratio > slack {
        failures.push(format!(
            "parallel map_shuffle+local_join regressed: best ratio {phase_ratio:.2} > {slack} \
             over {ROUNDS} rounds"
        ));
    }
    if cores >= 4 && speedup < 1.5 {
        failures.push(format!(
            "end-to-end speedup {speedup:.2}x < 1.5x on a {cores}-core machine \
             over {ROUNDS} rounds"
        ));
    }

    // --- Optimizer gate: sweep-line split search vs the PR 2 baseline. ---
    let opt_sample = if args.quick {
        SampleConfig {
            input_sample_size: 4_096,
            output_sample_size: 1_024,
            output_probe_count: 512,
        }
    } else {
        SampleConfig {
            input_sample_size: 32_768,
            output_sample_size: 8_192,
            output_probe_count: 4_096,
        }
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0BEC);
    let total = opt_sample.input_sample_size;
    let s_sample = InputSample::draw(&s, total / 2, &mut rng);
    let t_sample = InputSample::draw(&t, total - total / 2, &mut rng);
    let o_sample = OutputSample::draw(&s, &t, &band, &opt_sample, &mut rng);
    let opt_cfg = RecPartConfig::new(workers).with_sample(opt_sample);
    let time_optimize = |scorer: SplitScorer| -> (f64, RecPartResult) {
        let optimizer = RecPart::new(opt_cfg.clone().with_scorer(scorer).with_threads(1));
        let start = Instant::now();
        let result = optimizer.optimize_with_samples(
            s.len(),
            t.len(),
            &band,
            &s_sample,
            &t_sample,
            &o_sample,
            Instant::now(),
        );
        (start.elapsed().as_secs_f64(), result)
    };
    let mut base_best = f64::INFINITY;
    let mut sweep_best = f64::INFINITY;
    let mut base_result: Option<RecPartResult> = None;
    let mut sweep_result: Option<RecPartResult> = None;
    for round in 1..=ROUNDS {
        let (bt, br) = time_optimize(SplitScorer::BinarySearch);
        let (nt, nr) = time_optimize(SplitScorer::SweepLine);
        println!("optimize round {round}: binary-search {bt:.4}s vs sweep-line {nt:.4}s");
        base_best = base_best.min(bt);
        sweep_best = sweep_best.min(nt);
        base_result.get_or_insert(br);
        sweep_result.get_or_insert(nr);
    }
    let base_result = base_result.expect("at least one round ran");
    let sweep_result = sweep_result.expect("at least one round ran");
    if base_result.partitioner.tree() != sweep_result.partitioner.tree() {
        failures.push("sweep-line optimizer result differs from the binary-search baseline".into());
    }
    if base_result.report.split_search != sweep_result.report.split_search {
        failures.push("split-search counters differ between the two scorers".into());
    }
    let opt_speedup = base_best / sweep_best;
    println!(
        "optimize best-of-{ROUNDS}: {base_best:.4}s (PR 2 baseline) vs {sweep_best:.4}s \
         (sweep-line) = {opt_speedup:.2}x speedup; \
         {} leaves scored, {} candidates",
        sweep_result.report.split_search.leaves_scored,
        sweep_result.report.split_search.candidates_scored,
    );
    // Both optimizer thresholds apply only at full sample sizes: in --quick mode the
    // samples are too small for robust ratios. At full size the sweep's algorithmic
    // win is ~2x on one core.
    if !args.quick && cores >= 4 && opt_speedup < 1.5 {
        failures.push(format!(
            "optimize_with_samples speedup {opt_speedup:.2}x < 1.5x on a {cores}-core machine \
             over {ROUNDS} rounds"
        ));
    }
    if !args.quick && opt_speedup < 1.1 {
        failures.push(format!(
            "sweep-line optimizer regressed vs the PR 2 baseline: {opt_speedup:.2}x < 1.1x \
             over {ROUNDS} rounds"
        ));
    }

    // --- Evaluator gate: incremental delta-evaluation vs the full-recompute
    // oracle, timed on the fully grown (deep) tree. Both evaluators must compute
    // bit-identical evaluations; the incremental ledger must never be slower, and
    // on a 4+-core machine with a deep (>= 64-leaf) tree it must be >= 1.5x faster.
    // Min of ROUNDS timed rounds per side; each round runs a fixed batch of
    // evaluations so the measurement is not instant-resolution bound. ---
    let opt_incr = RecPart::new(opt_cfg.clone().with_threads(1));
    let opt_full = RecPart::new(
        opt_cfg
            .clone()
            .with_threads(1)
            .with_evaluator(Evaluator::FullRecompute),
    );
    let mut incr_bench =
        opt_incr.evaluation_bench(s.len(), t.len(), &band, &s_sample, &t_sample, &o_sample);
    let mut full_bench =
        opt_full.evaluation_bench(s.len(), t.len(), &band, &s_sample, &t_sample, &o_sample);
    let leaves = incr_bench.leaves();
    if incr_bench.evaluate_once().to_bits() != full_bench.evaluate_once().to_bits() {
        failures.push("incremental evaluation differs from the full-recompute oracle".into());
    }
    const EVALS_PER_ROUND: usize = 200;
    let mut incr_best = f64::INFINITY;
    let mut full_best = f64::INFINITY;
    let mut sink = 0.0f64;
    for round in 1..=ROUNDS {
        let t0 = Instant::now();
        for _ in 0..EVALS_PER_ROUND {
            sink += incr_bench.evaluate_once();
        }
        let it = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..EVALS_PER_ROUND {
            sink += full_bench.evaluate_once();
        }
        let ft = t0.elapsed().as_secs_f64();
        println!(
            "evaluate round {round}: incremental {it:.4}s vs full recompute {ft:.4}s \
             ({EVALS_PER_ROUND} evaluations each)"
        );
        incr_best = incr_best.min(it);
        full_best = full_best.min(ft);
    }
    assert!(sink.is_finite(), "evaluations must stay finite");
    let eval_speedup = full_best / incr_best;
    println!(
        "evaluate best-of-{ROUNDS}: {full_best:.4}s (full recompute) vs {incr_best:.4}s \
         (incremental) = {eval_speedup:.2}x on a {leaves}-leaf tree"
    );
    if !args.quick && incr_best > full_best * 1.05 {
        failures.push(format!(
            "incremental evaluation slower than full recompute: {incr_best:.4}s vs \
             {full_best:.4}s over {ROUNDS} rounds"
        ));
    }
    if !args.quick && cores >= 4 && leaves >= 64 && eval_speedup < 1.5 {
        failures.push(format!(
            "incremental evaluation speedup {eval_speedup:.2}x < 1.5x on a deep \
             ({leaves}-leaf) tree on a {cores}-core machine over {ROUNDS} rounds"
        ));
    }

    // --- Block-routing gate: the block-API map/shuffle (the compiled split-tree
    // router for RecPart) must be no slower than the per-tuple PR 3 baseline, which
    // `PerTupleFallback` reproduces exactly (default block impls looping
    // `assign_s`/`assign_t` with one reused buffer). Min of ROUNDS per side; routed
    // arenas must also be bit-identical between the two paths. ---
    let fallback = PerTupleFallback(retry_partitioner.as_ref());
    for (label, threads) in [("threads=1", 1usize), ("threads=0", 0)] {
        let executor = Executor::new(ExecutorConfig::new(workers).with_threads(threads));
        let block_ref = executor.map_shuffle(retry_partitioner.as_ref(), &s, &t);
        let per_tuple_ref = executor.map_shuffle(&fallback, &s, &t);
        if block_ref.s_parts != per_tuple_ref.s_parts || block_ref.t_parts != per_tuple_ref.t_parts
        {
            failures.push(format!(
                "block map/shuffle arena differs from the per-tuple path ({label})"
            ));
        }
        let mut block_best = block_ref.wall_seconds;
        let mut per_tuple_best = per_tuple_ref.wall_seconds;
        for _ in 2..=ROUNDS {
            per_tuple_best =
                per_tuple_best.min(executor.map_shuffle(&fallback, &s, &t).wall_seconds);
            block_best = block_best.min(
                executor
                    .map_shuffle(retry_partitioner.as_ref(), &s, &t)
                    .wall_seconds,
            );
        }
        let speedup = per_tuple_best / block_best;
        println!(
            "block routing ({label}) best-of-{ROUNDS}: per-tuple {per_tuple_best:.4}s vs \
             block {block_best:.4}s = {speedup:.2}x"
        );
        if block_best > per_tuple_best * 1.05 {
            failures.push(format!(
                "block map/shuffle slower than the per-tuple baseline ({label}): \
                 {block_best:.4}s vs {per_tuple_best:.4}s over {ROUNDS} rounds"
            ));
        }
    }

    // --- SIMD routing-kernel gate: every batch kernel must route bit-identically
    // to the scalar per-tuple descent, no batch kernel may be slower than scalar,
    // and on hardware with a vector unit the detected kernel must win >= 1.3x.
    // Min of ROUNDS single-threaded rounds per kernel; a counting sink keeps the
    // measurement on the routing itself rather than pair materialization. ---
    let router = sweep_result.partitioner.router();
    let pairs_of = |kernel: RouteKernel| -> Vec<(u32, u32)> {
        let mut sink = AssignmentSink::new(router.num_partitions());
        router.route_s_block_with(kernel, &s, 0..s.len(), &mut sink);
        router.route_t_block_with(kernel, &t, 0..t.len(), &mut sink);
        sink.pairs().to_vec()
    };
    let time_kernel = |kernel: RouteKernel| -> f64 {
        let mut sink = AssignmentSink::counting(router.num_partitions());
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let start = Instant::now();
            for (rel, t_side) in [(&s, false), (&t, true)] {
                let mut lo = 0;
                while lo < rel.len() {
                    let hi = (lo + DEFAULT_BLOCK_TUPLES).min(rel.len());
                    sink.reset(router.num_partitions());
                    if t_side {
                        router.route_t_block_with(kernel, rel, lo..hi, &mut sink);
                    } else {
                        router.route_s_block_with(kernel, rel, lo..hi, &mut sink);
                    }
                    lo = hi;
                }
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let scalar_pairs = pairs_of(RouteKernel::Scalar);
    let scalar_time = time_kernel(RouteKernel::Scalar);
    let detected = RouteKernel::detect();
    for kernel in RouteKernel::all_supported() {
        if kernel == RouteKernel::Scalar {
            continue;
        }
        if pairs_of(kernel) != scalar_pairs {
            failures.push(format!(
                "routing kernel {} is not bit-identical to the scalar descent",
                kernel.name()
            ));
            continue;
        }
        let time = time_kernel(kernel);
        let speedup = scalar_time / time;
        println!(
            "routing kernel {}: best-of-{ROUNDS} {time:.4}s vs scalar {scalar_time:.4}s \
             = {speedup:.2}x",
            kernel.name()
        );
        if time > scalar_time * 1.05 {
            failures.push(format!(
                "routing kernel {} slower than the scalar baseline: {time:.4}s vs \
                 {scalar_time:.4}s over {ROUNDS} rounds",
                kernel.name()
            ));
        }
        if !args.quick && kernel == detected && detected != RouteKernel::Portable && speedup < 1.3 {
            failures.push(format!(
                "vectorized routing kernel {} only {speedup:.2}x over scalar (< 1.3x) \
                 over {ROUNDS} rounds",
                kernel.name()
            ));
        }
    }

    if failures.is_empty() {
        println!("parallel smoke: OK");
    } else {
        for f in &failures {
            eprintln!("parallel smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
