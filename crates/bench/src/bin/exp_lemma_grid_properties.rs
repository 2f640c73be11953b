//! Empirical illustration of the analytical results of Section 5.1:
//!
//! * **Lemma 2**: if some ε-range contains `n` T-tuples, every grid partitioning —
//!   regardless of its cell size — has a partition with at least `n` T-tuples. We build
//!   an adversarial corner-packed workload and sweep the grid scale.
//! * **Lemma 3**: for similarly distributed inputs with bounded output-to-input ratio,
//!   the largest cell's share of the input shrinks like `O(√(1/|S| + 1/|T|))` as the
//!   inputs grow. We double the input size and watch the max cell share fall.
//!
//! ```text
//! cargo run -p bench --release --bin exp_lemma_grid_properties [-- --scale 2e-4]
//! ```

use baselines::GridPartitioner;
use bench::ExperimentArgs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, Partitioner, Relation};

fn max_t_cell_count(grid: &GridPartitioner, t: &Relation) -> usize {
    let mut counts = vec![0usize; grid.num_partitions()];
    let mut buf = Vec::new();
    for (i, key) in t.iter().enumerate() {
        buf.clear();
        grid.assign_t(&key, i as u64, &mut buf);
        for &p in &buf {
            counts[p as usize] += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0)
}

fn main() {
    let args = ExperimentArgs::from_env();
    let mut rng = StdRng::seed_from_u64(args.seed);

    // ---------------- Lemma 2 ----------------
    println!("=== Lemma 2 — a dense ε-range defeats every grid size ===");
    let n = 20_000;
    let s = datagen::uniform_relation(n, 2, 0.0, 100.0, &mut rng);
    // Half of T packed into a box much smaller than the band width.
    let t = datagen::corner_packed_relation(n, 2, 50.0, 0.01, 0.5, 100.0, &mut rng);
    let band = BandCondition::symmetric(&[1.0, 1.0]);
    let packed = (n as f64 * 0.5) as usize;
    println!(
        "{} of {} T-tuples lie inside one ε-range; Lemma 2 predicts ≥ that many in some cell:",
        packed, n
    );
    println!(
        "{:>10} {:>18} {:>14}",
        "grid scale", "max T per cell", "≥ packed?"
    );
    for scale in [1.0, 2.0, 4.0, 8.0, 0.5, 0.25] {
        let grid = GridPartitioner::build(&s, &t, &band, scale);
        let max_cell = max_t_cell_count(&grid, &t);
        println!(
            "{:>10} {:>18} {:>14}",
            scale,
            max_cell,
            if max_cell * 10 >= packed * 9 {
                "yes"
            } else {
                "NO"
            }
        );
    }

    // ---------------- Lemma 3 ----------------
    println!();
    println!("=== Lemma 3 — max cell share shrinks as ~1/sqrt(|S|) for self-similar inputs ===");
    println!(
        "{:>10} {:>16} {:>20} {:>20}",
        "|S|=|T|", "max cell share", "share·sqrt(|S|)", "(should stay ~flat)"
    );
    for &size in &[5_000usize, 10_000, 20_000, 40_000] {
        let s = datagen::pareto_relation(size, 2, 1.5, &mut rng);
        let t = datagen::pareto_relation(size, 2, 1.5, &mut rng);
        let band = BandCondition::symmetric(&[0.05, 0.05]);
        let grid = GridPartitioner::build(&s, &t, &band, 1.0);
        let loads = grid.cell_inputs();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let share = max / (2.0 * size as f64);
        println!(
            "{:>10} {:>15.3}% {:>20.3} {:>20}",
            size,
            100.0 * share,
            share * (size as f64).sqrt(),
            ""
        );
    }
}
