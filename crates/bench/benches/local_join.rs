//! Criterion micro-benchmarks of the per-worker local band-join algorithms and of
//! the per-window [`JoinKernel`]s.
//!
//! Every vector-kernel benchmark asserts bit-identity with the scalar oracle (pairs,
//! order, counters) **before** timing, so a kernel can never look fast by being
//! wrong.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distsim::LocalJoinAlgorithm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, JoinKernel};

fn bench_local_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_join");
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[1_000usize, 4_000] {
        let s = datagen::pareto_relation(n, 1, 1.5, &mut rng);
        let t = datagen::pareto_relation(n, 1, 1.5, &mut rng);
        let band = BandCondition::symmetric(&[0.01]);
        for algo in [
            LocalJoinAlgorithm::IndexNestedLoop,
            LocalJoinAlgorithm::NestedLoop,
        ] {
            // The quadratic reference algorithm only at the small size.
            if algo == LocalJoinAlgorithm::NestedLoop && n > 1_000 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(algo.name(), n), &(&s, &t), |b, (s, t)| {
                b.iter(|| algo.join_full(s, t, &band, None).output)
            });
        }
    }
    group.finish();
}

/// Kernel sweep on a candidate-heavy workload (wide band → large dimension-0
/// windows), where the per-window evaluation dominates.
fn bench_join_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_kernels");
    let mut rng = StdRng::seed_from_u64(3);
    let n = 4_000usize;
    let s = datagen::pareto_relation(n, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(n, 1, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[1.5]);
    let algo = LocalJoinAlgorithm::IndexNestedLoop;

    let mut scalar_pairs = Vec::new();
    let scalar = algo.join_full_with(JoinKernel::Scalar, &s, &t, &band, Some(&mut scalar_pairs));
    assert!(scalar.output > 0, "workload must produce output");
    for kernel in JoinKernel::all_supported() {
        // Bit-identity before timing: pairs, order, and counters must match scalar.
        let mut pairs = Vec::new();
        let res = algo.join_full_with(kernel, &s, &t, &band, Some(&mut pairs));
        assert_eq!(res, scalar, "kernel {} counters diverge", kernel.name());
        assert_eq!(
            pairs,
            scalar_pairs,
            "kernel {} pairs diverge",
            kernel.name()
        );

        group.bench_with_input(
            BenchmarkId::new(kernel.name(), n),
            &(&s, &t),
            |b, (s, t)| b.iter(|| algo.join_full_with(kernel, s, t, &band, None).output),
        );
    }
    group.finish();
}

fn bench_local_join_3d(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_join_3d");
    let mut rng = StdRng::seed_from_u64(2);
    let s = datagen::pareto_relation(2_000, 3, 1.5, &mut rng);
    let t = datagen::pareto_relation(2_000, 3, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[1.0, 1.0, 1.0]);
    let algo = LocalJoinAlgorithm::IndexNestedLoop;
    group.bench_function(algo.name(), |b| {
        b.iter(|| algo.join_full(&s, &t, &band, None).output)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_local_join,
    bench_join_kernels,
    bench_local_join_3d
);
criterion_main!(benches);
