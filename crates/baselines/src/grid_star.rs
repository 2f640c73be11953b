//! Grid\*: cost-model-driven grid-size tuning (Section 6.5 of the paper).
//!
//! Plain Grid-ε fixes the cell size to the band width, which causes `O(3^d)` input
//! duplication. Grid\* tries coarser grids with cell side `j · ε_i` for `j = 1, 2, 3, …`,
//! predicts the running time of each candidate with the same running-time model used by
//! RecPart and CSIO (`β₀ + β₁·I + β₂·I_m + β₃·O_m`, estimated from per-cell input counts
//! and an output sample), and stops at the first local minimum.

use crate::grid::GridPartitioner;
use distsim::CostModel;
use rand::Rng;
use recpart::{BandCondition, OutputSample, Partitioner, Relation, SampleConfig};

/// Report of the Grid\* search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridStarReport {
    /// The chosen cell-size multiplier `j`.
    pub chosen_scale: f64,
    /// Predicted join time of every candidate that was evaluated, as `(j, time)` pairs.
    pub evaluated: Vec<(f64, f64)>,
    /// Wall-clock optimization time in seconds.
    pub optimization_seconds: f64,
}

/// The Grid\* partitioner: a [`GridPartitioner`] whose cell size was chosen by the cost
/// model.
#[derive(Debug, Clone)]
pub struct GridStarPartitioner {
    inner: GridPartitioner,
    report: GridStarReport,
}

impl GridStarPartitioner {
    /// Run the Grid\* search: evaluate multipliers `1, 2, 3, …` (up to `max_scale`) and
    /// keep the grid with the lowest predicted join time, stopping one step after the
    /// predictions stop improving.
    pub fn build<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        workers: usize,
        cost_model: &CostModel,
        max_scale: usize,
        rng: &mut R,
    ) -> GridStarPartitioner {
        assert!(workers > 0 && max_scale >= 1);
        let start = std::time::Instant::now();

        // One output sample shared by all candidate evaluations.
        let sample_cfg = SampleConfig {
            input_sample_size: 4_096,
            output_sample_size: 2_048,
            output_probe_count: 1_024,
        };
        let output_sample = OutputSample::draw(s, t, band, &sample_cfg, rng);

        let mut evaluated = Vec::new();
        let mut best: Option<(f64, f64, GridPartitioner)> = None;
        let mut previous_time = f64::INFINITY;
        for j in 1..=max_scale {
            let scale = j as f64;
            let grid = GridPartitioner::build(s, t, band, scale);
            let time = predict_time(&grid, s, t, &output_sample, workers, cost_model);
            evaluated.push((scale, time));
            let is_better = best.as_ref().map(|(_, bt, _)| time < *bt).unwrap_or(true);
            if is_better {
                best = Some((scale, time, grid));
            }
            // Local-minimum stop: once the prediction starts rising, stop searching.
            if time > previous_time {
                break;
            }
            previous_time = time;
        }
        let (chosen_scale, _, inner) = best.expect("at least one candidate evaluated");
        GridStarPartitioner {
            inner,
            report: GridStarReport {
                chosen_scale,
                evaluated,
                optimization_seconds: start.elapsed().as_secs_f64(),
            },
        }
    }

    /// The search report (chosen multiplier and every evaluated candidate).
    pub fn report(&self) -> &GridStarReport {
        &self.report
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridPartitioner {
        &self.inner
    }
}

/// Predict the join time of a grid partitioning from per-cell input counts and the
/// output sample, using an LPT mapping of cells onto workers.
fn predict_time(
    grid: &GridPartitioner,
    s: &Relation,
    t: &Relation,
    output_sample: &OutputSample,
    workers: usize,
    cost_model: &CostModel,
) -> f64 {
    let partitions = grid.num_partitions();
    let mut cell_input = vec![0.0f64; partitions];
    let mut cell_output = vec![0.0f64; partitions];
    let mut buf = Vec::new();

    // Per-cell input counts via block routing (a count-only sink is exactly the
    // histogram this needs — no pairs are ever materialized), chunked so the
    // per-block work stays bounded.
    let mut sink = recpart::AssignmentSink::counting(partitions);
    for (rel, is_s) in [(s, true), (t, false)] {
        let mut lo = 0;
        while lo < rel.len() {
            let hi = (lo + recpart::DEFAULT_BLOCK_TUPLES).min(rel.len());
            sink.reset(partitions);
            if is_s {
                grid.assign_s_block(rel, lo..hi, &mut sink);
            } else {
                grid.assign_t_block(rel, lo..hi, &mut sink);
            }
            for (cell, &count) in cell_input.iter_mut().zip(sink.counts()) {
                *cell += count as f64;
            }
            lo = hi;
        }
    }
    // Output located at the cell of the sampled pair's S-side key.
    let out_weight = output_sample.weight();
    for i in 0..output_sample.len() {
        buf.clear();
        grid.assign_s(output_sample.s_key(i), i as u64, &mut buf);
        for &p in &buf {
            cell_output[p as usize] += out_weight;
        }
    }

    let total_input: f64 = cell_input.iter().sum();

    // LPT mapping onto workers using the cost model's per-worker weights.
    let mut order: Vec<usize> = (0..partitions).collect();
    let load = |i: f64, o: f64| cost_model.beta2 * i + cost_model.beta3 * o;
    // Total order `(load desc, cell index asc)` via `total_cmp`, matching the
    // executor's LPT mapping: `partial_cmp(..).unwrap_or(Equal)` under an
    // unstable sort left the tied-cell order at the mercy of the std sort
    // implementation, and with it the predicted max-loaded worker.
    order.sort_unstable_by(|&a, &b| {
        load(cell_input[b], cell_output[b])
            .total_cmp(&load(cell_input[a], cell_output[a]))
            .then_with(|| a.cmp(&b))
    });
    let mut worker_in = vec![0.0f64; workers];
    let mut worker_out = vec![0.0f64; workers];
    for &c in &order {
        let target = (0..workers)
            .min_by(|&a, &b| {
                load(worker_in[a], worker_out[a]).total_cmp(&load(worker_in[b], worker_out[b]))
            })
            .expect("at least one worker");
        worker_in[target] += cell_input[c];
        worker_out[target] += cell_output[c];
    }
    let (max_in, max_out) = (0..workers)
        .map(|w| (worker_in[w], worker_out[w]))
        .max_by(|a, b| load(a.0, a.1).total_cmp(&load(b.0, b.1)))
        .expect("at least one worker");

    cost_model.predict(total_input, max_in, max_out)
}

impl Partitioner for GridStarPartitioner {
    fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }
    fn assign_s(&self, key: &[f64], tuple_id: u64, out: &mut Vec<recpart::PartitionId>) {
        self.inner.assign_s(key, tuple_id, out)
    }
    fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<recpart::PartitionId>) {
        self.inner.assign_t(key, tuple_id, out)
    }
    fn assign_s_block(
        &self,
        rel: &Relation,
        rows: std::ops::Range<usize>,
        sink: &mut recpart::AssignmentSink,
    ) {
        self.inner.assign_s_block(rel, rows, sink)
    }
    fn assign_t_block(
        &self,
        rel: &Relation,
        rows: std::ops::Range<usize>,
        sink: &mut recpart::AssignmentSink,
    ) {
        self.inner.assign_t_block(rel, rows, sink)
    }
    fn name(&self) -> &str {
        "Grid*"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distsim::Executor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pareto_relation(n: usize, dims: usize, z: f64, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                let u: f64 = rng.gen_range(0.0..1.0f64);
                *k = (1.0 - u).powf(-1.0 / z);
            }
            r.push(&key);
        }
        r
    }

    #[test]
    fn grid_star_prefers_coarser_grid_than_eps_on_dense_data() {
        // Dense, similarly distributed inputs: a coarser grid cuts duplication a lot while
        // load balance stays fine (Table 5's message).
        let s = pareto_relation(3000, 2, 1.5, 1);
        let t = pareto_relation(3000, 2, 1.5, 2);
        let band = BandCondition::symmetric(&[0.05, 0.05]);
        let mut rng = StdRng::seed_from_u64(3);
        let gs = GridStarPartitioner::build(&s, &t, &band, 8, &CostModel::default(), 64, &mut rng);
        assert!(
            gs.report().chosen_scale > 1.0,
            "expected a multiplier > 1, got {}",
            gs.report().chosen_scale
        );
        assert!(gs.report().evaluated.len() >= 2);
        // Duplication of the chosen grid must not exceed plain Grid-ε's.
        let plain = GridPartitioner::build(&s, &t, &band, 1.0);
        let total_input = |p: &dyn Partitioner| {
            Executor::with_workers(1)
                .map_shuffle(p, &s, &t)
                .total_input()
        };
        assert!(total_input(&gs) <= total_input(&plain));
    }

    #[test]
    fn exactly_once_still_holds_for_chosen_grid() {
        let s = pareto_relation(200, 1, 1.5, 4);
        let t = pareto_relation(200, 1, 1.5, 5);
        let band = BandCondition::symmetric(&[0.1]);
        let mut rng = StdRng::seed_from_u64(6);
        let gs = GridStarPartitioner::build(&s, &t, &band, 4, &CostModel::default(), 16, &mut rng);
        crate::assert_exactly_once(&gs, &s, &t, &band);
    }

    #[test]
    fn report_contains_monotone_scales() {
        let s = pareto_relation(500, 1, 1.0, 7);
        let t = pareto_relation(500, 1, 1.0, 8);
        let band = BandCondition::symmetric(&[0.2]);
        let mut rng = StdRng::seed_from_u64(9);
        let gs = GridStarPartitioner::build(&s, &t, &band, 4, &CostModel::default(), 10, &mut rng);
        let scales: Vec<f64> = gs.report().evaluated.iter().map(|(j, _)| *j).collect();
        for w in scales.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(gs.name(), "Grid*");
        assert!(gs.report().optimization_seconds >= 0.0);
    }
}
