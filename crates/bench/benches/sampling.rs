//! Criterion benchmarks of the sampling phase (input sampling and band-join output
//! sampling), which bounds RecPart's statistics-gathering cost.
//!
//! The output-sampling rows cover the three shapes the sampler's cost depends on: a
//! selective 1-d join (most T-tuples join no probe; the per-row run lookup dominates),
//! the 3-d catalog row the pipeline benchmark runs as `oneshot-3d` (unselective
//! dimension-0 windows: many candidates per T-tuple, few matches), and the 8-d
//! scalability row (the same with eight columns per candidate). Pass `--test` for the
//! CI smoke mode (inputs a tenth the size, 2 samples).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::catalog::catalog_entry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, InputSample, OutputSample, SampleConfig};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn bench_input_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("input_sampling");
    let mut rng = StdRng::seed_from_u64(31);
    let relation = datagen::pareto_relation(200_000, 3, 1.5, &mut rng);
    for &k in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                InputSample::draw(&relation, k, &mut rng).len()
            });
        });
    }
    group.finish();
}

fn bench_output_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("output_sampling");
    group.sample_size(if smoke() { 2 } else { 10 });
    let per_side = |full: usize| if smoke() { full / 10 } else { full };

    let mut rng = StdRng::seed_from_u64(32);
    let n = per_side(100_000);
    let s = datagen::pareto_relation(n, 1, 1.5, &mut rng);
    let t = datagen::pareto_relation(n, 1, 1.5, &mut rng);
    let band = BandCondition::symmetric(&[0.001]);
    for &probes in &[512usize, 2_048, 8_192] {
        group.bench_with_input(
            BenchmarkId::new("pareto-1.5/d1/probes", probes),
            &probes,
            |b, &probes| {
                let cfg = SampleConfig {
                    input_sample_size: 8_192,
                    output_sample_size: 2_048,
                    output_probe_count: probes,
                };
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(2);
                    OutputSample::draw(&s, &t, &band, &cfg, &mut rng).estimated_output()
                });
            },
        );
    }

    // Catalog rows at the default sample configuration. Band widths are literals in
    // the generators' units, as in the pipeline benchmark (calibrating them would
    // cost more sampler calls than the rows time).
    for (id, eps) in [
        ("pareto-1.5/d3/eps2", 0.02),
        ("pareto-1.5/d8/eps20/100M", 0.2),
    ] {
        let entry = catalog_entry(id);
        let n = per_side(200_000);
        let (s, t) = entry.dataset.generate(n, n, 33);
        let band = BandCondition::uniform(entry.paper_band.len(), eps);
        let cfg = SampleConfig::default();
        group.bench_function(BenchmarkId::from_parameter(id), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                OutputSample::draw(&s, &t, &band, &cfg, &mut rng).estimated_output()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_input_sampling, bench_output_sampling);
criterion_main!(benches);
