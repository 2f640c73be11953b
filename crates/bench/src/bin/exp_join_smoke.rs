//! Join-kernel smoke check (CI-guarding, not a paper table).
//!
//! Runs two candidate-heavy pareto band-joins (wide ε₁ → large dimension-0 windows)
//! through the index-nested-loop probe — 1-d, and 3-d with the same ε₁ — and
//! **fails** (non-zero exit) if
//!
//! * on either, any supported [`JoinKernel`] is not bit-identical to the scalar
//!   probe — same pairs, same pair *order*, same `output` and `comparisons` —
//!   sequentially and under chunked parallel probing on rayon pools of 1, all, and
//!   4 threads, or
//! * on the 3-d join, any vector kernel is slower than the scalar baseline (1.05
//!   slack), or
//! * on the 3-d join, on hardware with a vector unit, the auto-detected kernel does
//!   not beat the scalar probe ≥ 1.3× (skipped with `--quick`, and when detection
//!   falls back to the portable kernel — branchless scalar has no vector win to
//!   gate).
//!
//! Only the 3-d join is timed: the sweep settles dimension 0 on the sorted column
//! itself and the kernels evaluate dimensions `1..`, so on the 1-d join no kernel runs
//! at all (every non-scalar "kernel" reads > 100× over the per-candidate scalar
//! probe there, whatever it is) and a kernel-against-kernel gate would be blind.
//!
//! Every timing is the **minimum of three rounds**, so a noisy CI neighbour cannot
//! fail the gate spuriously.
//!
//! ```text
//! cargo run -p bench --release --bin exp_join_smoke [-- --quick]
//! ```

use bench::ExperimentArgs;
use datagen::pareto_relation;
use distsim::{probe_sorted_with, LocalJoinResult, SortedProbeSide};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use recpart::parallel::chunk_ranges;
use recpart::{BandCondition, JoinKernel, Relation};
use std::time::Instant;

/// Measurement rounds per timing gate (the minimum of the rounds is compared).
const ROUNDS: usize = 3;

/// Chunked probe on the ambient rayon context: `pieces` contiguous probe ranges
/// joined independently and concatenated in range order — the shape the parallel
/// exact join and the executor's chunked verification use.
fn chunked_probe(
    kernel: JoinKernel,
    s: &Relation,
    t: &Relation,
    side: &SortedProbeSide,
    band: &BandCondition,
    pieces: usize,
) -> (LocalJoinResult, Vec<(u32, u32)>) {
    let per_chunk: Vec<(LocalJoinResult, Vec<(u32, u32)>)> = chunk_ranges(s.len(), pieces)
        .into_par_iter()
        .map(|(lo, hi)| {
            let mut pairs = Vec::new();
            let res = probe_sorted_with(
                kernel,
                s,
                t,
                side,
                band,
                lo as u32..hi as u32,
                Some(&mut pairs),
            );
            (res, pairs)
        })
        .collect();
    let mut total = LocalJoinResult::default();
    let mut pairs = Vec::new();
    for (res, chunk) in per_chunk {
        total.output += res.output;
        total.comparisons += res.comparisons;
        pairs.extend(chunk);
    }
    (total, pairs)
}

/// One pareto workload: bit-identity of every kernel against the scalar probe and,
/// when `timed`, the kernel-against-kernel timing gates. Failures append to `failures`.
fn check_workload(args: &ExperimentArgs, dims: usize, timed: bool, failures: &mut Vec<String>) {
    let per_side: usize = if args.quick { 5_000 } else { 20_000 };
    let eps = 0.05;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let name = format!("pareto-{dims}d");

    let mut rng = StdRng::seed_from_u64(args.seed);
    let s = pareto_relation(per_side, dims, 1.5, &mut rng);
    let t = pareto_relation(per_side, dims, 1.5, &mut rng);
    let band = BandCondition::symmetric(&vec![eps; dims]);
    let side = SortedProbeSide::build_full(&t);

    // Scalar oracle: the verbatim per-probe loop, sequential.
    let mut scalar_pairs = Vec::new();
    let scalar = probe_sorted_with(
        JoinKernel::Scalar,
        &s,
        &t,
        &side,
        &band,
        0..s.len() as u32,
        Some(&mut scalar_pairs),
    );
    println!(
        "workload: {name}, |S|+|T| = {}, eps = {eps}, {} candidate comparisons, \
         {} output pairs, {cores} cores",
        s.len() + t.len(),
        scalar.comparisons,
        scalar.output,
    );
    if scalar.comparisons < 10 * s.len() as u64 {
        failures.push(format!(
            "{name} not candidate-heavy: {} comparisons for {} probes",
            scalar.comparisons,
            s.len()
        ));
    }

    // --- Bit-identity: every supported kernel, sequential and on pools of 1 /
    // all / 4 threads (chunked probing, concatenated in chunk order). ---
    for kernel in JoinKernel::all_supported() {
        let mut pairs = Vec::new();
        let res = probe_sorted_with(
            kernel,
            &s,
            &t,
            &side,
            &band,
            0..s.len() as u32,
            Some(&mut pairs),
        );
        if res != scalar || pairs != scalar_pairs {
            failures.push(format!(
                "{name}: kernel {} is not bit-identical to the scalar probe (sequential)",
                kernel.name()
            ));
        }
        for threads in [1usize, 0, 4] {
            let pool_threads = if threads == 0 { cores } else { threads };
            let pool = ThreadPoolBuilder::new()
                .num_threads(pool_threads)
                .build()
                .expect("thread pool");
            let pieces = pool_threads * 4;
            let (chunked, chunked_pairs) =
                pool.install(|| chunked_probe(kernel, &s, &t, &side, &band, pieces));
            if chunked != scalar || chunked_pairs != scalar_pairs {
                failures.push(format!(
                    "{name}: kernel {} diverges under chunked probing (threads={threads}): \
                     output {} vs {}, comparisons {} vs {}",
                    kernel.name(),
                    chunked.output,
                    scalar.output,
                    chunked.comparisons,
                    scalar.comparisons,
                ));
            }
        }
    }
    if !timed {
        return;
    }

    // --- Timing gates: count-only probe (the executor's non-materializing shape),
    // min of ROUNDS rounds per kernel, single-threaded so the comparison is pure
    // kernel against kernel. ---
    let time_kernel = |kernel: JoinKernel| -> f64 {
        let mut best = f64::INFINITY;
        let mut sink = 0u64;
        for _ in 0..ROUNDS {
            let start = Instant::now();
            sink += probe_sorted_with(kernel, &s, &t, &side, &band, 0..s.len() as u32, None).output;
            best = best.min(start.elapsed().as_secs_f64());
        }
        assert_eq!(sink % scalar.output.max(1), 0, "outputs must not drift");
        best
    };
    let scalar_time = time_kernel(JoinKernel::Scalar);
    let detected = JoinKernel::detect();
    for kernel in JoinKernel::all_supported() {
        if kernel == JoinKernel::Scalar {
            continue;
        }
        let time = time_kernel(kernel);
        let speedup = scalar_time / time;
        println!(
            "{name} join kernel {}: best-of-{ROUNDS} {time:.4}s vs scalar {scalar_time:.4}s = {speedup:.2}x",
            kernel.name()
        );
        if time > scalar_time * 1.05 {
            failures.push(format!(
                "{name}: join kernel {} slower than the scalar baseline: {time:.4}s vs \
                 {scalar_time:.4}s over {ROUNDS} rounds",
                kernel.name()
            ));
        }
        if !args.quick && kernel == detected && detected != JoinKernel::Portable && speedup < 1.3 {
            failures.push(format!(
                "{name}: vectorized join kernel {} only {speedup:.2}x over scalar (< 1.3x) \
                 over {ROUNDS} rounds",
                kernel.name()
            ));
        }
    }
}

fn main() {
    let args = ExperimentArgs::from_env();
    let mut failures: Vec<String> = Vec::new();
    // 1-d: no kernel runs once dimension 0 is settled, so bit-identity only.
    check_workload(&args, 1, false, &mut failures);
    check_workload(&args, 3, true, &mut failures);

    if failures.is_empty() {
        println!("join smoke: OK");
    } else {
        for f in &failures {
            eprintln!("join smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
