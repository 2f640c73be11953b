//! CSIO (Vitorovic et al., "Load balancing and skew resilience for parallel joins",
//! ICDE 2016) — the state-of-the-art join-matrix covering approach the paper compares
//! against.
//!
//! CSIO's pipeline, reproduced here:
//!
//! 1. **Linearize** the d-dimensional join-attribute space into a total order
//!    ([`LinearizationOrder::RowMajor`] over a coarse grid whose most-significant-
//!    dimension stripe is at least one band width tall — Section 5.2 of the paper shows
//!    this minimizes candidate cells — or a [`LinearizationOrder::Block`]/Z-order
//!    variant used for the ablation).
//! 2. **Range-partition** `S` (matrix rows) and `T` (matrix columns) on approximate
//!    quantiles of the linearized key, computed from an input sample.
//! 3. Build the **candidate matrix**: cell `(i, j)` is a candidate iff some tuple of row
//!    `i` can join some tuple of column `j` (determined conservatively from the actual
//!    per-range attribute bounds), and estimate per-cell output from an output sample.
//! 4. **Coarsen** the matrix to a tractable size and **cover** all candidate cells with
//!    at most `w` non-overlapping rectangles minimizing the maximum rectangle load, via
//!    a binary search on the load bound with an M-Bucket-I style greedy cover (this is
//!    the expensive optimization step the paper highlights).
//!
//! Each cover rectangle is one partition: an S-tuple is sent to every rectangle that
//! intersects its row, a T-tuple to every rectangle intersecting its column; the unique
//! rectangle covering cell `(row(s), col(t))` receives both, so every result is produced
//! exactly once.

use rand::Rng;
use recpart::{
    AssignmentSink, BandCondition, InputSample, OutputSample, PartitionId, Partitioner, Relation,
    SampleConfig,
};
use std::ops::Range;
use std::time::Instant;

/// How the multidimensional attribute space is mapped to a total order (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinearizationOrder {
    /// Row-major / lexicographic order with dimension 0 most significant. Ranges are
    /// thin stripes along dimension 0, which minimizes candidate cells when the stripe
    /// height is at least the band width.
    #[default]
    RowMajor,
    /// Bit-interleaved (Morton / Z-order) order: ranges are square-ish blocks. Used to
    /// reproduce the paper's Figure 8 ablation.
    Block,
}

/// Tuning knobs of the CSIO optimization pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsioConfig {
    /// Number of quantile ranges per input before coarsening.
    pub quantiles: usize,
    /// Maximum matrix dimension used by the rectangle-covering search (ranges are merged
    /// down to this size first). Larger values find better covers but optimization cost
    /// grows steeply — the trade-off the paper calls out.
    pub max_matrix_dim: usize,
    /// Linearization order.
    pub order: LinearizationOrder,
    /// Input-sample size used for the quantiles.
    pub input_sample_size: usize,
    /// Output-sample size used for per-cell output estimates.
    pub output_sample_size: usize,
    /// Number of grid buckets per dimension used by the linearization.
    pub buckets_per_dim: usize,
}

impl Default for CsioConfig {
    fn default() -> Self {
        CsioConfig {
            quantiles: 256,
            max_matrix_dim: 96,
            order: LinearizationOrder::RowMajor,
            input_sample_size: 8_192,
            output_sample_size: 2_048,
            buckets_per_dim: 1_024,
        }
    }
}

/// One cover rectangle `[row_lo, row_hi] × [col_lo, col_hi]` (inclusive, in coarsened
/// matrix coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CoverRect {
    row_lo: u32,
    row_hi: u32,
    col_lo: u32,
    col_hi: u32,
}

/// Report of the CSIO optimization phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CsioReport {
    /// Number of matrix rows / columns after coarsening.
    pub matrix_rows: usize,
    /// Number of matrix columns after coarsening.
    pub matrix_cols: usize,
    /// Number of candidate cells that had to be covered.
    pub candidate_cells: usize,
    /// Number of cover rectangles (≤ w).
    pub rectangles: usize,
    /// Wall-clock optimization time in seconds.
    pub optimization_seconds: f64,
}

/// The CSIO partitioner.
#[derive(Debug, Clone)]
pub struct CsioPartitioner {
    lin: Linearizer,
    /// Exclusive upper key boundaries of the S ranges (last is `u128::MAX`).
    s_bounds: Vec<u128>,
    /// Exclusive upper key boundaries of the T ranges.
    t_bounds: Vec<u128>,
    /// Partitions every S range participates in.
    s_range_partitions: Vec<Vec<PartitionId>>,
    /// Partitions every T range participates in.
    t_range_partitions: Vec<Vec<PartitionId>>,
    num_partitions: usize,
    report: CsioReport,
}

impl CsioPartitioner {
    /// Run the CSIO optimization pipeline and build the partitioner.
    pub fn build<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        workers: usize,
        config: &CsioConfig,
        rng: &mut R,
    ) -> CsioPartitioner {
        assert!(workers > 0);
        assert!(config.quantiles >= 2 && config.max_matrix_dim >= 2);
        let start = Instant::now();
        let dims = band.dims();

        // --- Samples (used for the linearization grid, the quantile ranges, and the
        //     per-cell output estimates). ---
        let sample_cfg = SampleConfig {
            input_sample_size: config.input_sample_size,
            output_sample_size: config.output_sample_size,
            output_probe_count: config.output_sample_size,
        };
        let s_sample = InputSample::draw(s, config.input_sample_size, rng);
        let t_sample = InputSample::draw(t, config.input_sample_size, rng);

        // --- Linearization grid: equi-depth bucket boundaries per dimension, derived
        //     from the combined sample so that skewed value distributions still spread
        //     over many buckets. Section 5.2: the stripes of the most significant
        //     dimension must be at least one band width tall, so boundaries closer than
        //     ε₀ are merged in dimension 0.
        let lin = Linearizer::fit(
            dims,
            config.order,
            config.buckets_per_dim,
            band,
            s_sample.iter().chain(t_sample.iter()),
        );

        // --- Quantile ranges from input samples. ---
        let s_bounds = quantile_bounds(&lin, s_sample.iter(), config.quantiles);
        let t_bounds = quantile_bounds(&lin, t_sample.iter(), config.quantiles);
        let rows = s_bounds.len();
        let cols = t_bounds.len();

        // --- Per-range statistics from the full inputs (counts + attribute bounds). ---
        let mut s_stats = RangeStats::new(rows, dims);
        for key in s.iter() {
            let r = range_of(&s_bounds, lin.key(&key));
            s_stats.add(r, &key);
        }
        let mut t_stats = RangeStats::new(cols, dims);
        for key in t.iter() {
            let c = range_of(&t_bounds, lin.key(&key));
            t_stats.add(c, &key);
        }

        // --- Per-cell output estimates from the output sample. ---
        let o_sample = OutputSample::draw(s, t, band, &sample_cfg, rng);
        let mut cell_output = vec![0.0f64; rows * cols];
        let out_weight = o_sample.weight();
        for i in 0..o_sample.len() {
            let r = range_of(&s_bounds, lin.key(o_sample.s_key(i)));
            let c = range_of(&t_bounds, lin.key(o_sample.t_key(i)));
            cell_output[r * cols + c] += out_weight;
        }

        // --- Coarsen to the covering matrix. ---
        let row_groups = group_ranges(rows, config.max_matrix_dim);
        let col_groups = group_ranges(cols, config.max_matrix_dim);
        let matrix = CandidateMatrix::build(
            band,
            &s_stats,
            &t_stats,
            &cell_output,
            cols,
            &row_groups,
            &col_groups,
        );

        // --- Rectangle covering (binary search on the max rectangle load). ---
        let rects = matrix.cover(workers);

        // --- Translate rectangles (coarse coordinates) back to quantile ranges. ---
        let mut s_range_partitions: Vec<Vec<PartitionId>> = vec![Vec::new(); rows];
        let mut t_range_partitions: Vec<Vec<PartitionId>> = vec![Vec::new(); cols];
        for (pid, rect) in rects.iter().enumerate() {
            let pid = pid as PartitionId;
            for group in rect.row_lo..=rect.row_hi {
                for r in row_groups[group as usize].clone() {
                    s_range_partitions[r].push(pid);
                }
            }
            for group in rect.col_lo..=rect.col_hi {
                for c in col_groups[group as usize].clone() {
                    t_range_partitions[c].push(pid);
                }
            }
        }
        // Private fallback partitions so every tuple is assigned somewhere.
        let mut num_partitions = rects.len();
        for parts in s_range_partitions
            .iter_mut()
            .chain(t_range_partitions.iter_mut())
        {
            if parts.is_empty() {
                parts.push(num_partitions as PartitionId);
                num_partitions += 1;
            }
        }

        let report = CsioReport {
            matrix_rows: row_groups.len(),
            matrix_cols: col_groups.len(),
            candidate_cells: matrix.candidate_count(),
            rectangles: rects.len(),
            optimization_seconds: start.elapsed().as_secs_f64(),
        };

        CsioPartitioner {
            lin,
            s_bounds,
            t_bounds,
            s_range_partitions,
            t_range_partitions,
            num_partitions,
            report,
        }
    }

    /// The optimization report.
    pub fn report(&self) -> &CsioReport {
        &self.report
    }
}

impl Partitioner for CsioPartitioner {
    fn num_partitions(&self) -> usize {
        self.num_partitions.max(1)
    }

    fn assign_s(&self, key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        let r = range_of(&self.s_bounds, self.lin.key(key));
        out.extend_from_slice(&self.s_range_partitions[r]);
    }

    fn assign_t(&self, key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        let c = range_of(&self.t_bounds, self.lin.key(key));
        out.extend_from_slice(&self.t_range_partitions[c]);
    }

    // Block routing: one linearize-lookup-emit loop per block. The range's partition
    // list is a precomputed slice, so a block needs no per-tuple buffer or dispatch.
    fn assign_s_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len());
        for i in rows {
            let r = range_of(&self.s_bounds, self.lin.key(&rel.key(i)));
            for &p in &self.s_range_partitions[r] {
                sink.push(p, i as u32);
            }
        }
    }

    fn assign_t_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len());
        for i in rows {
            let c = range_of(&self.t_bounds, self.lin.key(&rel.key(i)));
            for &p in &self.t_range_partitions[c] {
                sink.push(p, i as u32);
            }
        }
    }

    fn name(&self) -> &str {
        "CSIO"
    }
}

// --------------------------------------------------------------------------------------
// Linearization
// --------------------------------------------------------------------------------------

/// Maps d-dimensional keys to a 128-bit linear key via per-dimension equi-depth bucket
/// boundaries.
#[derive(Debug, Clone)]
struct Linearizer {
    dims: usize,
    order: LinearizationOrder,
    /// Per-dimension bucket boundaries (ascending). A value's bucket is the number of
    /// boundaries that are `<=` the value, so there are `boundaries.len() + 1` buckets.
    boundaries: Vec<Vec<f64>>,
}

impl Linearizer {
    /// Derive equi-depth boundaries from a sample of points. In dimension 0, boundaries
    /// closer than the band width are merged so that stripes are at least one band width
    /// tall (Section 5.2).
    fn fit<'a>(
        dims: usize,
        order: LinearizationOrder,
        buckets_per_dim: usize,
        band: &BandCondition,
        sample: impl Iterator<Item = &'a [f64]>,
    ) -> Linearizer {
        let buckets_per_dim = buckets_per_dim.clamp(2, u16::MAX as usize + 1);
        let points: Vec<&[f64]> = sample.collect();
        let mut boundaries = Vec::with_capacity(dims);
        for d in 0..dims {
            let mut values: Vec<f64> = points.iter().map(|p| p[d]).collect();
            values.sort_unstable_by(f64::total_cmp);
            let mut bounds: Vec<f64> = Vec::new();
            if !values.is_empty() {
                for q in 1..buckets_per_dim {
                    let idx = q * values.len() / buckets_per_dim;
                    bounds.push(values[idx.min(values.len() - 1)]);
                }
            }
            bounds.dedup();
            if d == 0 {
                let eps = band.eps(0);
                if eps > 0.0 {
                    let mut merged: Vec<f64> = Vec::with_capacity(bounds.len());
                    for b in bounds {
                        if merged.last().map(|&l| b - l >= eps).unwrap_or(true) {
                            merged.push(b);
                        }
                    }
                    bounds = merged;
                }
            }
            boundaries.push(bounds);
        }
        Linearizer {
            dims,
            order,
            boundaries,
        }
    }

    fn bucket(&self, d: usize, v: f64) -> u64 {
        (self.boundaries[d].partition_point(|&b| b <= v) as u64).min(u16::MAX as u64)
    }

    fn key(&self, point: &[f64]) -> u128 {
        match self.order {
            LinearizationOrder::RowMajor => {
                let mut key: u128 = 0;
                for (d, &p) in point.iter().enumerate().take(self.dims) {
                    key = (key << 16) | self.bucket(d, p) as u128;
                }
                key
            }
            LinearizationOrder::Block => {
                // Bit-interleaved (Morton) key over 16-bit buckets.
                let buckets: Vec<u64> = (0..self.dims).map(|d| self.bucket(d, point[d])).collect();
                let mut key: u128 = 0;
                for bit in (0..16).rev() {
                    for &b in &buckets {
                        key = (key << 1) | (((b >> bit) & 1) as u128);
                    }
                }
                key
            }
        }
    }
}

/// Quantile boundaries (exclusive upper bounds; last is `u128::MAX`) over the linear
/// keys of a sample.
fn quantile_bounds<'a>(
    lin: &Linearizer,
    sample: impl Iterator<Item = &'a [f64]>,
    quantiles: usize,
) -> Vec<u128> {
    let mut keys: Vec<u128> = sample.map(|p| lin.key(p)).collect();
    keys.sort_unstable();
    let mut bounds = Vec::with_capacity(quantiles);
    if !keys.is_empty() {
        for q in 1..quantiles {
            let idx = q * keys.len() / quantiles;
            bounds.push(keys[idx.min(keys.len() - 1)]);
        }
    }
    bounds.push(u128::MAX);
    bounds.dedup();
    if *bounds.last().unwrap() != u128::MAX {
        bounds.push(u128::MAX);
    }
    bounds
}

/// Index of the range containing `key` (ranges are `[prev bound, bound)`).
fn range_of(bounds: &[u128], key: u128) -> usize {
    bounds.partition_point(|&b| b <= key).min(bounds.len() - 1)
}

// --------------------------------------------------------------------------------------
// Per-range statistics and the candidate matrix
// --------------------------------------------------------------------------------------

/// Tuple counts and attribute bounds of each quantile range, gathered from the full
/// input.
#[derive(Debug, Clone)]
struct RangeStats {
    dims: usize,
    count: Vec<u64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl RangeStats {
    fn new(ranges: usize, dims: usize) -> Self {
        RangeStats {
            dims,
            count: vec![0; ranges],
            min: vec![f64::INFINITY; ranges * dims],
            max: vec![f64::NEG_INFINITY; ranges * dims],
        }
    }

    fn add(&mut self, range: usize, key: &[f64]) {
        self.count[range] += 1;
        for (d, &k) in key.iter().enumerate().take(self.dims) {
            let idx = range * self.dims + d;
            self.min[idx] = self.min[idx].min(k);
            self.max[idx] = self.max[idx].max(k);
        }
    }

    fn bounds(&self, range: usize, d: usize) -> (f64, f64) {
        let idx = range * self.dims + d;
        (self.min[idx], self.max[idx])
    }

    fn is_empty(&self, range: usize) -> bool {
        self.count[range] == 0
    }
}

/// The coarsened candidate matrix with per-cell loads.
#[derive(Debug, Clone)]
struct CandidateMatrix {
    rows: usize,
    cols: usize,
    candidate: Vec<bool>,
    /// Input tuples per coarse row (S side).
    row_input: Vec<f64>,
    /// Input tuples per coarse column (T side).
    col_input: Vec<f64>,
    /// Estimated output per coarse cell.
    output: Vec<f64>,
    /// Load weights (β₂, β₃).
    beta_input: f64,
    beta_output: f64,
}

impl CandidateMatrix {
    fn build(
        band: &BandCondition,
        s_stats: &RangeStats,
        t_stats: &RangeStats,
        fine_cell_output: &[f64],
        fine_cols: usize,
        row_groups: &[std::ops::Range<usize>],
        col_groups: &[std::ops::Range<usize>],
    ) -> CandidateMatrix {
        let rows = row_groups.len();
        let cols = col_groups.len();
        let dims = band.dims();

        // Coarse per-group attribute bounds and counts.
        let group_bounds = |stats: &RangeStats, groups: &[std::ops::Range<usize>]| {
            let mut min = vec![f64::INFINITY; groups.len() * dims];
            let mut max = vec![f64::NEG_INFINITY; groups.len() * dims];
            let mut count = vec![0.0f64; groups.len()];
            for (g, range) in groups.iter().enumerate() {
                for r in range.clone() {
                    if stats.is_empty(r) {
                        continue;
                    }
                    count[g] += stats.count[r] as f64;
                    for d in 0..dims {
                        let (lo, hi) = stats.bounds(r, d);
                        min[g * dims + d] = min[g * dims + d].min(lo);
                        max[g * dims + d] = max[g * dims + d].max(hi);
                    }
                }
            }
            (min, max, count)
        };
        let (s_min, s_max, row_input) = group_bounds(s_stats, row_groups);
        let (t_min, t_max, col_input) = group_bounds(t_stats, col_groups);

        let mut candidate = vec![false; rows * cols];
        for i in 0..rows {
            if row_input[i] == 0.0 {
                continue;
            }
            for j in 0..cols {
                if col_input[j] == 0.0 {
                    continue;
                }
                let mut ok = true;
                for d in 0..dims {
                    let (s_lo, s_hi) = (s_min[i * dims + d], s_max[i * dims + d]);
                    let (t_lo, t_hi) = (t_min[j * dims + d], t_max[j * dims + d]);
                    // Some s ∈ [s_lo, s_hi] can match some t ∈ [t_lo, t_hi] iff the
                    // intervals [s_lo, s_hi] and [t_lo − ε_lo, t_hi + ε_hi] overlap.
                    if s_hi < t_lo - band.eps_low(d) || s_lo > t_hi + band.eps_high(d) {
                        ok = false;
                        break;
                    }
                }
                candidate[i * cols + j] = ok;
            }
        }

        // Aggregate fine-grained output estimates into coarse cells.
        let mut output = vec![0.0f64; rows * cols];
        for (gi, rg) in row_groups.iter().enumerate() {
            for (gj, cg) in col_groups.iter().enumerate() {
                let mut sum = 0.0;
                for r in rg.clone() {
                    for c in cg.clone() {
                        sum += fine_cell_output[r * fine_cols + c];
                    }
                }
                output[gi * cols + gj] = sum;
            }
        }

        CandidateMatrix {
            rows,
            cols,
            candidate,
            row_input,
            col_input,
            output,
            beta_input: 4.0,
            beta_output: 1.0,
        }
    }

    fn candidate_count(&self) -> usize {
        self.candidate.iter().filter(|&&c| c).count()
    }

    fn total_load(&self) -> f64 {
        self.beta_input * (self.row_input.iter().sum::<f64>() + self.col_input.iter().sum::<f64>())
            + self.beta_output * self.output.iter().sum::<f64>()
    }

    /// Cover all candidate cells with at most `workers` rectangles minimizing the max
    /// rectangle load, via binary search on the load bound.
    fn cover(&self, workers: usize) -> Vec<CoverRect> {
        if self.candidate_count() == 0 {
            return Vec::new();
        }
        let mut lo = 0.0f64;
        let mut hi = self.total_load().max(1.0);
        let mut best: Option<Vec<CoverRect>> = None;
        for _ in 0..32 {
            let mid = 0.5 * (lo + hi);
            match self.greedy_cover(mid, workers) {
                Some(rects) => {
                    best = Some(rects);
                    hi = mid;
                }
                None => {
                    lo = mid;
                }
            }
        }
        best.unwrap_or_else(|| {
            self.greedy_cover(f64::INFINITY, workers)
                .expect("an unbounded load always fits in one rectangle per row block")
        })
    }

    /// Greedy M-Bucket-I style cover under a load bound: process rows top-down, choose
    /// the row-block height maximizing rows-per-rectangle, split each block's candidate
    /// column span into rectangles that respect the bound. Returns `None` when more than
    /// `workers` rectangles would be needed.
    fn greedy_cover(&self, max_load: f64, workers: usize) -> Option<Vec<CoverRect>> {
        let mut rects: Vec<CoverRect> = Vec::new();
        let mut row = 0usize;
        while row < self.rows {
            // Try block heights 1..=remaining and keep the one with the best score.
            let mut best_block: Option<(usize, Vec<CoverRect>)> = None;
            let mut best_score = 0.0f64;
            let mut height = 1usize;
            while row + height <= self.rows {
                let block_rects = self.cover_row_block(row, row + height - 1, max_load);
                match block_rects {
                    Some(rects_for_block) => {
                        let score = if rects_for_block.is_empty() {
                            // A block with no candidates costs nothing; prefer extending.
                            f64::INFINITY
                        } else {
                            height as f64 / rects_for_block.len() as f64
                        };
                        if score >= best_score {
                            best_score = score;
                            best_block = Some((height, rects_for_block));
                        }
                        height += 1;
                    }
                    None => break,
                }
            }
            let (height, mut block_rects) = best_block?;
            rects.append(&mut block_rects);
            if rects.len() > workers {
                return None;
            }
            row += height;
        }
        Some(rects)
    }

    /// Cover the candidate columns of rows `[row_lo, row_hi]` with column-contiguous
    /// rectangles under the load bound. Returns `None` if even a single column exceeds
    /// the bound.
    fn cover_row_block(
        &self,
        row_lo: usize,
        row_hi: usize,
        max_load: f64,
    ) -> Option<Vec<CoverRect>> {
        let block_s_input: f64 = (row_lo..=row_hi).map(|r| self.row_input[r]).sum();
        let mut rects = Vec::new();
        let mut current: Option<(usize, f64, f64)> = None; // (start col, t input, output)
        for col in 0..self.cols {
            let is_candidate = (row_lo..=row_hi).any(|r| self.candidate[r * self.cols + col]);
            if !is_candidate {
                continue;
            }
            let col_output: f64 = (row_lo..=row_hi)
                .map(|r| self.output[r * self.cols + col])
                .sum();
            let col_input = self.col_input[col];
            let single_load =
                self.beta_input * (block_s_input + col_input) + self.beta_output * col_output;
            if single_load > max_load {
                return None;
            }
            current = match current {
                None => Some((col, col_input, col_output)),
                Some((start, t_in, out)) => {
                    let new_load = self.beta_input * (block_s_input + t_in + col_input)
                        + self.beta_output * (out + col_output);
                    if new_load > max_load {
                        rects.push(CoverRect {
                            row_lo: row_lo as u32,
                            row_hi: row_hi as u32,
                            col_lo: start as u32,
                            col_hi: (col - 1).max(start) as u32,
                        });
                        Some((col, col_input, col_output))
                    } else {
                        Some((start, t_in + col_input, out + col_output))
                    }
                }
            };
            // Close the rectangle at the last column.
            if col == self.cols - 1 {
                if let Some((start, _, _)) = current {
                    rects.push(CoverRect {
                        row_lo: row_lo as u32,
                        row_hi: row_hi as u32,
                        col_lo: start as u32,
                        col_hi: col as u32,
                    });
                    current = None;
                }
            }
        }
        if let Some((start, _, _)) = current {
            // Candidates ended before the last column.
            let last_candidate = (0..self.cols)
                .rev()
                .find(|&c| (row_lo..=row_hi).any(|r| self.candidate[r * self.cols + c]))
                .unwrap_or(start);
            rects.push(CoverRect {
                row_lo: row_lo as u32,
                row_hi: row_hi as u32,
                col_lo: start as u32,
                col_hi: last_candidate.max(start) as u32,
            });
        }
        Some(rects)
    }
}

/// Partition `0..n` into at most `max_groups` contiguous groups of (near-)equal size.
fn group_ranges(n: usize, max_groups: usize) -> Vec<std::ops::Range<usize>> {
    let groups = n.min(max_groups).max(1);
    let mut out = Vec::with_capacity(groups);
    let mut start = 0usize;
    for g in 0..groups {
        let end = ((g + 1) * n) / groups;
        out.push(start..end.max(start));
        start = end;
    }
    // Make sure the full range is covered even with rounding.
    if let Some(last) = out.last_mut() {
        last.end = n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_relation(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                *k = rng.gen_range(lo..hi);
            }
            r.push(&key);
        }
        r
    }

    fn small_config() -> CsioConfig {
        CsioConfig {
            quantiles: 32,
            max_matrix_dim: 16,
            order: LinearizationOrder::RowMajor,
            input_sample_size: 512,
            output_sample_size: 256,
            buckets_per_dim: 128,
        }
    }

    #[test]
    fn exactly_once_1d() {
        let s = random_relation(400, 1, 0.0, 100.0, 1);
        let t = random_relation(400, 1, 0.0, 100.0, 2);
        let band = BandCondition::symmetric(&[1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let p = CsioPartitioner::build(&s, &t, &band, 8, &small_config(), &mut rng);
        assert!(p.report().rectangles <= 8);
        assert!(p.report().rectangles > 0);
        crate::assert_exactly_once(&p, &s, &t, &band);
    }

    #[test]
    fn exactly_once_2d_both_orders() {
        let s = random_relation(250, 2, 0.0, 30.0, 4);
        let t = random_relation(250, 2, 0.0, 30.0, 5);
        let band = BandCondition::symmetric(&[1.0, 1.0]);
        for order in [LinearizationOrder::RowMajor, LinearizationOrder::Block] {
            let cfg = CsioConfig {
                order,
                ..small_config()
            };
            let mut rng = StdRng::seed_from_u64(6);
            let p = CsioPartitioner::build(&s, &t, &band, 6, &cfg, &mut rng);
            crate::assert_exactly_once(&p, &s, &t, &band);
        }
    }

    #[test]
    fn rectangles_respect_worker_budget() {
        let s = random_relation(2000, 1, 0.0, 1000.0, 7);
        let t = random_relation(2000, 1, 0.0, 1000.0, 8);
        let band = BandCondition::symmetric(&[2.0]);
        for workers in [4usize, 16, 30] {
            let mut rng = StdRng::seed_from_u64(9);
            let p = CsioPartitioner::build(&s, &t, &band, workers, &small_config(), &mut rng);
            assert!(
                p.report().rectangles <= workers,
                "workers {workers}: got {} rectangles",
                p.report().rectangles
            );
        }
    }

    #[test]
    fn row_major_produces_fewer_candidates_than_block_order_in_2d() {
        // Section 5.2 / Figure 8: with stripe height ≥ ε, row-major ordering yields a
        // thinner candidate diagonal than block ordering.
        let s = random_relation(2000, 2, 0.0, 100.0, 10);
        let t = random_relation(2000, 2, 0.0, 100.0, 11);
        let band = BandCondition::symmetric(&[0.5, 0.5]);
        let cfg = CsioConfig {
            quantiles: 64,
            max_matrix_dim: 64,
            input_sample_size: 2000,
            output_sample_size: 256,
            buckets_per_dim: 256,
            order: LinearizationOrder::RowMajor,
        };
        let mut rng = StdRng::seed_from_u64(12);
        let row_major = CsioPartitioner::build(&s, &t, &band, 16, &cfg, &mut rng);
        let cfg_block = CsioConfig {
            order: LinearizationOrder::Block,
            ..cfg
        };
        let mut rng = StdRng::seed_from_u64(12);
        let block = CsioPartitioner::build(&s, &t, &band, 16, &cfg_block, &mut rng);
        assert!(
            row_major.report().candidate_cells < block.report().candidate_cells,
            "row-major candidates {} should be below block-order candidates {}",
            row_major.report().candidate_cells,
            block.report().candidate_cells
        );
    }

    #[test]
    fn skewed_data_still_covered_correctly() {
        // Pareto-like skew in 1-D.
        let mut rng = StdRng::seed_from_u64(13);
        let mut s = Relation::new(1);
        let mut t = Relation::new(1);
        for _ in 0..500 {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            s.push(&[(1.0 - u).powf(-1.0 / 1.5)]);
            let u: f64 = rng.gen_range(0.0..1.0f64);
            t.push(&[(1.0 - u).powf(-1.0 / 1.5)]);
        }
        let band = BandCondition::symmetric(&[0.05]);
        let p = CsioPartitioner::build(&s, &t, &band, 8, &small_config(), &mut rng);
        crate::assert_exactly_once(&p, &s, &t, &band);
    }

    #[test]
    fn group_ranges_covers_everything() {
        for (n, g) in [(10usize, 3usize), (7, 7), (100, 16), (5, 10), (1, 1)] {
            let groups = group_ranges(n, g);
            assert!(groups.len() <= g.max(1));
            let covered: usize = groups.iter().map(|r| r.len()).sum();
            assert_eq!(covered, n, "n={n} g={g} groups={groups:?}");
            assert_eq!(groups.first().unwrap().start, 0);
            assert_eq!(groups.last().unwrap().end, n);
        }
    }

    #[test]
    fn range_of_is_total() {
        let bounds = vec![10u128, 20, u128::MAX];
        assert_eq!(range_of(&bounds, 0), 0);
        assert_eq!(range_of(&bounds, 9), 0);
        assert_eq!(range_of(&bounds, 10), 1);
        assert_eq!(range_of(&bounds, 19), 1);
        assert_eq!(range_of(&bounds, 20), 2);
        assert_eq!(range_of(&bounds, u128::MAX - 1), 2);
        assert_eq!(range_of(&bounds, u128::MAX), 2);
    }

    #[test]
    fn report_reflects_configuration() {
        let s = random_relation(300, 1, 0.0, 10.0, 14);
        let t = random_relation(300, 1, 0.0, 10.0, 15);
        let band = BandCondition::symmetric(&[0.2]);
        let mut rng = StdRng::seed_from_u64(16);
        let p = CsioPartitioner::build(&s, &t, &band, 4, &small_config(), &mut rng);
        assert!(p.report().matrix_rows <= 16);
        assert!(p.report().matrix_cols <= 16);
        assert!(p.report().optimization_seconds >= 0.0);
        assert_eq!(p.name(), "CSIO");
    }
}
