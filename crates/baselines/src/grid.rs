//! Grid-ε: attribute-space grid partitioning (Soloviev's truncating-hash band-join
//! algorithm, generalized to `d` dimensions).
//!
//! The attribute space is divided into axis-aligned cells whose side length in dimension
//! `i` is `scale · ε_i` (the paper's default Grid-ε uses `scale = 1`). Every S-tuple is
//! sent to the single cell containing it; every T-tuple is copied to each cell its
//! ε-range intersects — with cell side `ε_i` that is up to 3 cells per dimension, i.e.
//! `O(3^d)` duplication. Cells are materialized lazily from the actual data (only cells
//! that receive at least one tuple become partitions), which is what a truncating-hash
//! implementation on MapReduce effectively does.
//!
//! Grid-ε is not defined for band width zero (the paper notes the same); construction
//! fails if any `ε_i` is zero.

use recpart::{AssignmentSink, BandCondition, PartitionId, Partitioner, Relation};
use std::collections::HashMap;
use std::ops::Range;

/// The Grid-ε / Grid-(j·ε) partitioner.
#[derive(Debug, Clone)]
pub struct GridPartitioner {
    band: BandCondition,
    /// Cell side length per dimension.
    cell: Vec<f64>,
    /// Origin of the grid (minimum corner of the data's bounding box).
    origin: Vec<f64>,
    /// Map from cell coordinates to partition id.
    cells: HashMap<Vec<i64>, PartitionId>,
    /// Input-tuple count per partition (see [`GridPartitioner::cell_inputs`]).
    cell_input: Vec<f64>,
    name: String,
}

impl GridPartitioner {
    /// Build a grid with cell side `scale · ε_i` from the actual inputs.
    ///
    /// # Panics
    /// Panics if any band width is zero (Grid-ε is undefined for equi-dimensions) or if
    /// `scale <= 0`.
    pub fn build(s: &Relation, t: &Relation, band: &BandCondition, scale: f64) -> GridPartitioner {
        assert!(scale > 0.0, "grid scale must be positive");
        let dims = band.dims();
        for d in 0..dims {
            assert!(
                band.eps(d) > 0.0,
                "Grid-eps is not defined for band width 0 (dimension {d})"
            );
        }
        let cell: Vec<f64> = (0..dims).map(|d| band.eps(d) * scale).collect();

        // Grid origin: minimum corner over both inputs (any fixed origin works; using the
        // data minimum keeps cell coordinates small).
        let mut origin = vec![f64::INFINITY; dims];
        for r in [s, t] {
            if let Some(mins) = r.min_per_dim() {
                for (o, m) in origin.iter_mut().zip(mins) {
                    *o = o.min(m);
                }
            }
        }
        for o in origin.iter_mut() {
            if !o.is_finite() {
                *o = 0.0;
            }
        }

        let mut builder = GridPartitioner {
            band: band.clone(),
            cell,
            origin,
            cells: HashMap::new(),
            cell_input: Vec::new(),
            name: if (scale - 1.0).abs() < 1e-12 {
                "Grid-eps".to_string()
            } else {
                format!("Grid-{scale}eps")
            },
        };

        // Materialize every cell that receives at least one S-tuple (those are the only
        // cells that can produce output) and every cell containing a T-tuple (so that no
        // tuple ends up unassigned, as Definition 1 requires h(x) ≠ ∅).
        let mut coords = vec![0i64; dims];
        for key in s.iter() {
            builder.cell_coords(&key, &mut coords);
            builder.intern(&coords, 1.0);
        }
        for key in t.iter() {
            builder.cell_coords(&key, &mut coords);
            builder.intern(&coords, 1.0);
        }
        builder
    }

    fn intern(&mut self, coords: &[i64], weight: f64) -> PartitionId {
        if let Some(&id) = self.cells.get(coords) {
            self.cell_input[id as usize] += weight;
            return id;
        }
        let id = self.cells.len() as PartitionId;
        self.cells.insert(coords.to_vec(), id);
        self.cell_input.push(weight);
        id
    }

    /// Input tuples per cell, duplicates included, indexed by partition id: the
    /// quantity Lemmas 2 and 3 bound (`exp_paper --table lemma` asserts both).
    pub fn cell_inputs(&self) -> &[f64] {
        &self.cell_input
    }

    #[inline]
    fn cell_coords(&self, key: &[f64], out: &mut [i64]) {
        for (d, c) in out.iter_mut().enumerate() {
            *c = floor_to_i64((key[d] - self.origin[d]) / self.cell[d]);
        }
    }

    /// Enumerate the (existing) cells intersecting the ε-range around a T-tuple into
    /// `emit`, using caller-provided scratch buffers (`lo`/`hi`/`cursor`, each of
    /// `dims` length) so block routing re-touches no allocator per tuple.
    fn for_each_t_range_cell(
        &self,
        key: &[f64],
        scratch: &mut TScratch,
        emit: impl FnMut(PartitionId),
    ) -> bool {
        for (d, &k) in key.iter().enumerate() {
            let (range_lo, range_hi) = self.band.range_around_t(d, k);
            scratch.lo[d] = floor_to_i64((range_lo - self.origin[d]) / self.cell[d]);
            scratch.hi[d] = floor_to_i64((range_hi - self.origin[d]) / self.cell[d]);
        }
        self.for_each_cell_in_box(scratch, emit)
    }

    /// Odometer over the cartesian product of the per-dimension index ranges
    /// already loaded into `scratch.lo`/`scratch.hi`, emitting every
    /// materialized cell. Shared by the per-tuple path (ranges from
    /// [`Self::for_each_t_range_cell`]) and the block path (ranges from the
    /// [`Self::cell_column`] sweeps).
    fn for_each_cell_in_box(
        &self,
        scratch: &mut TScratch,
        mut emit: impl FnMut(PartitionId),
    ) -> bool {
        let dims = self.band.dims();
        let TScratch { lo, hi, cursor } = scratch;
        // Iterate the cartesian product of per-dimension index ranges.
        cursor.copy_from_slice(lo);
        let mut any = false;
        loop {
            if let Some(&id) = self.cells.get(cursor.as_slice()) {
                emit(id);
                any = true;
            }
            // Advance the cursor (odometer style). Increment only while
            // strictly below `hi`: extreme keys saturate the cell index to
            // `i64::MAX`, where a blind `+= 1` would overflow.
            let mut d = 0;
            loop {
                if d == dims {
                    return any;
                }
                if cursor[d] < hi[d] {
                    cursor[d] += 1;
                    break;
                }
                cursor[d] = lo[d];
                d += 1;
            }
        }
    }

    /// Dimension-`d` cell indices of `rows` of `col`, column-major:
    /// `out[j] = floor(((col[rows.start + j] − sub) − origin) / cell) as i64`.
    /// `sub` folds the band shift of the T-side range endpoints in **exactly**:
    /// IEEE subtraction is addition of the negated operand, so `sub = ε_lo`
    /// gives `k − ε_lo`, `sub = −ε_hi` gives `k + ε_hi`, and `sub = 0.0` the
    /// unshifted S-side cell (`x − 0.0 == x` for every value, `−0.0` included)
    /// — bit for bit the per-tuple expressions. `out` is cleared first.
    fn cell_column(&self, col: &[f64], rows: Range<usize>, d: usize, sub: f64, out: &mut Vec<i64>) {
        let (origin, width) = (self.origin[d], self.cell[d]);
        out.clear();
        out.extend(
            col[rows]
                .iter()
                .map(|&k| floor_to_i64(((k - sub) - origin) / width)),
        );
    }

    /// The tuple's own cell, or partition 0 when it falls outside every
    /// materialized cell. This is both the S-side assignment and the T-side
    /// fallback (a T-tuple whose ε-range hit no cell): either way the tuple must
    /// land somewhere (`h(x) ≠ ∅`, Definition 1) without producing spurious output,
    /// and partition 0 always exists (`num_partitions` is clamped to ≥ 1).
    #[inline]
    fn cell_or_default(&self, key: &[f64], coords: &mut [i64]) -> PartitionId {
        self.cell_coords(key, coords);
        match self.cells.get(coords) {
            Some(&id) => id,
            None => 0,
        }
    }
}

/// `x.floor() as i64` for every `f64`, NaN and the saturating ends included, without
/// the libm `floor` call the baseline x86-64 target (no SSE4.1 `roundsd`) makes per
/// key: the `as` cast truncates toward zero and saturates (NaN → 0), and a negative
/// non-integer, which truncation rounded up, steps down by one.
#[inline]
fn floor_to_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub(((t as f64) > x) as i64)
}

/// Reusable odometer buffers of the T-side range enumeration.
struct TScratch {
    lo: Vec<i64>,
    hi: Vec<i64>,
    cursor: Vec<i64>,
}

impl TScratch {
    fn new(dims: usize) -> Self {
        TScratch {
            lo: vec![0; dims],
            hi: vec![0; dims],
            cursor: vec![0; dims],
        }
    }
}

impl Partitioner for GridPartitioner {
    fn num_partitions(&self) -> usize {
        self.cells.len().max(1)
    }

    fn assign_s(&self, key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        let mut coords = vec![0i64; self.band.dims()];
        out.push(self.cell_or_default(key, &mut coords));
    }

    fn assign_t(&self, key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        let mut scratch = TScratch::new(self.band.dims());
        let any = self.for_each_t_range_cell(key, &mut scratch, |id| out.push(id));
        if !any {
            let mut coords = vec![0i64; self.band.dims()];
            out.push(self.cell_or_default(key, &mut coords));
        }
    }

    // Block routing: same cell arithmetic, restructured column-major over the
    // relation's columnar layout — one `floor((k − origin) / cell)` sweep per
    // dimension ([`GridPartitioner::cell_column`]), then per-row hash lookups
    // over the coordinate buffers. The sweeps reproduce the per-tuple cell
    // indices bit for bit (the band shifts fold into `sub` exactly), so block
    // == per-tuple assignment.
    fn assign_s_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len());
        let dims = self.band.dims();
        let mut coords = vec![0i64; dims];
        let mut cols: Vec<Vec<i64>> = vec![Vec::new(); dims];
        for (d, col) in cols.iter_mut().enumerate() {
            self.cell_column(rel.column(d), rows.clone(), d, 0.0, col);
        }
        for (j, i) in rows.enumerate() {
            for (c, col) in coords.iter_mut().zip(&cols) {
                *c = col[j];
            }
            let id = self.cells.get(coords.as_slice()).copied().unwrap_or(0);
            sink.push(id, i as u32);
        }
    }

    fn assign_t_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        sink.reserve(rows.len());
        let dims = self.band.dims();
        let mut scratch = TScratch::new(dims);
        let mut coords = vec![0i64; dims];
        // `range_around_t(d, k) = (k − ε_lo, k + ε_hi)`: pass `sub = ε_lo` for
        // the low endpoint and `sub = −ε_hi` for the high one (`x − (−ε) == x + ε`
        // exactly in IEEE arithmetic), so both sweeps match the scalar endpoints
        // bit for bit.
        let mut lo_cols: Vec<Vec<i64>> = vec![Vec::new(); dims];
        let mut hi_cols: Vec<Vec<i64>> = vec![Vec::new(); dims];
        for d in 0..dims {
            let col = rel.column(d);
            self.cell_column(col, rows.clone(), d, self.band.eps_low(d), &mut lo_cols[d]);
            self.cell_column(
                col,
                rows.clone(),
                d,
                -self.band.eps_high(d),
                &mut hi_cols[d],
            );
        }
        for (j, i) in rows.enumerate() {
            for d in 0..dims {
                scratch.lo[d] = lo_cols[d][j];
                scratch.hi[d] = hi_cols[d][j];
            }
            let any = self.for_each_cell_in_box(&mut scratch, |id| sink.push(id, i as u32));
            if !any {
                let id = self.cell_or_default(&rel.key(i), &mut coords);
                sink.push(id, i as u32);
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn floor_to_i64_matches_libm_floor_cast() {
        let two52 = 2f64.powi(52);
        let two63 = 2f64.powi(63);
        let mut edges = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            i64::MAX as f64,
            i64::MIN as f64,
            two63,
            -two63,
            1e19,
            -1e19,
            0.5,
            -0.5,
            1.5,
            -1.5,
        ];
        for base in [two52, two52 / 2.0, two52 / 4.0] {
            for x in [base - 0.5, base + 0.5, base - 1.5, base - 1.0] {
                edges.extend([x, -x]);
            }
        }
        for x in [two63, -two63] {
            edges.extend([
                f64::from_bits(x.to_bits() - 1),
                f64::from_bits(x.to_bits() + 1),
            ]);
        }
        for x in edges {
            assert_eq!(floor_to_i64(x), x.floor() as i64, "x = {x:e}");
        }
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..200_000 {
            let bits = f64::from_bits(rng.gen::<u64>());
            let quotient = rng.gen_range(-1e6..1e6) / rng.gen_range(1e-3..10.0);
            for x in [bits, quotient] {
                assert_eq!(floor_to_i64(x), x.floor() as i64, "x = {x:e}");
            }
        }
    }

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

    fn exactly_once(grid: &GridPartitioner, s: &Relation, t: &Relation, band: &BandCondition) {
        let mut s_parts = Vec::new();
        let mut t_parts = Vec::new();
        for (si, sk) in s.iter().enumerate() {
            s_parts.clear();
            grid.assign_s(&sk, si as u64, &mut s_parts);
            assert_eq!(s_parts.len(), 1, "S-tuples go to exactly one cell");
            for (ti, tk) in t.iter().enumerate() {
                if !band.matches(&sk, &tk) {
                    continue;
                }
                t_parts.clear();
                grid.assign_t(&tk, ti as u64, &mut t_parts);
                let common = s_parts.iter().filter(|p| t_parts.contains(p)).count();
                assert_eq!(common, 1, "pair (S#{si}, T#{ti}) must meet exactly once");
            }
        }
    }

    #[test]
    fn exactly_once_1d() {
        let s = random_relation(300, 1, 0.0, 50.0, 1);
        let t = random_relation(300, 1, 0.0, 50.0, 2);
        let band = BandCondition::symmetric(&[1.0]);
        let grid = GridPartitioner::build(&s, &t, &band, 1.0);
        exactly_once(&grid, &s, &t, &band);
    }

    #[test]
    fn exactly_once_2d_with_coarser_grid() {
        let s = random_relation(200, 2, 0.0, 20.0, 3);
        let t = random_relation(200, 2, 0.0, 20.0, 4);
        let band = BandCondition::symmetric(&[0.5, 1.0]);
        for scale in [1.0, 2.0, 4.0] {
            let grid = GridPartitioner::build(&s, &t, &band, scale);
            exactly_once(&grid, &s, &t, &band);
        }
    }

    #[test]
    fn t_duplication_is_bounded_by_3_pow_d() {
        let s = random_relation(500, 2, 0.0, 30.0, 5);
        let t = random_relation(500, 2, 0.0, 30.0, 6);
        let band = BandCondition::symmetric(&[1.0, 1.0]);
        let grid = GridPartitioner::build(&s, &t, &band, 1.0);
        let mut out = Vec::new();
        let mut max_copies = 0;
        for (i, key) in t.iter().enumerate() {
            out.clear();
            grid.assign_t(&key, i as u64, &mut out);
            assert!(!out.is_empty());
            max_copies = max_copies.max(out.len());
        }
        assert!(
            max_copies <= 9,
            "T copied to at most 3^2 cells, saw {max_copies}"
        );
        assert!(max_copies >= 4, "dense data should hit multi-cell copies");
    }

    #[test]
    fn coarser_grid_has_fewer_cells_and_less_duplication() {
        let s = random_relation(1000, 1, 0.0, 100.0, 7);
        let t = random_relation(1000, 1, 0.0, 100.0, 8);
        let band = BandCondition::symmetric(&[1.0]);
        let fine = GridPartitioner::build(&s, &t, &band, 1.0);
        let coarse = GridPartitioner::build(&s, &t, &band, 8.0);
        assert!(coarse.num_partitions() < fine.num_partitions());
        assert_eq!(fine.num_partitions(), fine.cells.len());
        let dup = |g: &GridPartitioner| g.count_total_input(&s, &t);
        assert!(dup(&coarse) < dup(&fine));
    }

    #[test]
    fn skewed_data_gives_skewed_cell_loads() {
        // All S-tuples in one tiny spot: that cell's input dwarfs the others (Lemma 2's
        // precondition).
        let mut s = Relation::new(1);
        for i in 0..500 {
            s.push(&[10.0 + (i as f64) * 1e-6]);
        }
        let t = random_relation(500, 1, 0.0, 100.0, 9);
        let band = BandCondition::symmetric(&[1.0]);
        let grid = GridPartitioner::build(&s, &t, &band, 1.0);
        let loads = grid.cell_inputs();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        assert!(
            max > mean * 10.0,
            "hot cell must stand out (max {max}, mean {mean})"
        );
    }

    /// Block routing (column-major cell indexing) must reproduce the per-tuple
    /// assignments exactly, including on keys far outside every materialized
    /// cell and across asymmetric bands — the cases where a cell-index
    /// off-by-one would silently change the odometer box.
    #[test]
    fn block_routing_matches_per_tuple_on_adversarial_keys() {
        let s = random_relation(300, 2, 0.0, 25.0, 20);
        let t = random_relation(300, 2, 0.0, 25.0, 21);
        let band = BandCondition::try_asymmetric(&[0.7, 0.0], &[0.0, 1.3]).unwrap();
        let grid = GridPartitioner::build(&s, &t, &band, 1.0);

        // Keys the grid was NOT built from: cell boundaries, far outliers, huge
        // magnitudes (saturating casts), and negative coordinates.
        let mut probe = random_relation(200, 2, -40.0, 60.0, 22);
        probe.push(&[0.0, 0.0]);
        probe.push(&[-0.0, 25.0]);
        probe.push(&[1e18, -1e18]);
        probe.push(&[f64::MAX, f64::MIN]);
        probe.push(&[0.7, 1.3]);

        for t_side in [false, true] {
            let mut expected = Vec::new();
            let mut buf = Vec::new();
            for i in 0..probe.len() {
                buf.clear();
                if t_side {
                    grid.assign_t(&probe.key(i), i as u64, &mut buf);
                } else {
                    grid.assign_s(&probe.key(i), i as u64, &mut buf);
                }
                expected.extend(buf.iter().map(|&p| (p, i as u32)));
            }
            let mut sink = AssignmentSink::new(grid.num_partitions());
            let mut lo = 0;
            while lo < probe.len() {
                let hi = (lo + 37).min(probe.len());
                if t_side {
                    grid.assign_t_block(&probe, lo..hi, &mut sink);
                } else {
                    grid.assign_s_block(&probe, lo..hi, &mut sink);
                }
                lo = hi;
            }
            assert_eq!(
                sink.pairs(),
                &expected[..],
                "block routing diverged from per-tuple (t_side={t_side})"
            );
        }
    }

    /// The T-side high endpoint's sweep passes `sub = −ε_hi` and the S side
    /// `sub = 0.0`: the folds rely on IEEE `x − (−ε) == x + ε` and `x − 0.0 == x`
    /// bit for bit.
    #[test]
    fn negated_band_shift_is_bit_identical_to_the_added_one() {
        for x in [1.75, -3.0, 0.1, f64::MAX, 5e-324, -0.0] {
            assert_eq!((x - 0.0).to_bits(), x.to_bits());
            for e in [0.3, 1e-9, 1e300] {
                assert_eq!((x - (-e)).to_bits(), (x + e).to_bits());
            }
        }
    }

    #[test]
    fn names_reflect_scale() {
        let s = random_relation(50, 1, 0.0, 10.0, 10);
        let t = random_relation(50, 1, 0.0, 10.0, 11);
        let band = BandCondition::symmetric(&[1.0]);
        assert_eq!(
            GridPartitioner::build(&s, &t, &band, 1.0).name(),
            "Grid-eps"
        );
        assert_eq!(
            GridPartitioner::build(&s, &t, &band, 4.0).name(),
            "Grid-4eps"
        );
    }

    #[test]
    #[should_panic(expected = "band width 0")]
    fn zero_band_width_rejected() {
        let s = random_relation(10, 1, 0.0, 1.0, 12);
        let t = random_relation(10, 1, 0.0, 1.0, 13);
        let band = BandCondition::equi(1);
        let _ = GridPartitioner::build(&s, &t, &band, 1.0);
    }

    #[test]
    fn cell_sizes_follow_band_and_scale() {
        let s = random_relation(20, 2, 0.0, 10.0, 14);
        let t = random_relation(20, 2, 0.0, 10.0, 15);
        let band = BandCondition::symmetric(&[0.5, 2.0]);
        let grid = GridPartitioner::build(&s, &t, &band, 3.0);
        assert_eq!(grid.cell, [1.5, 6.0]);
    }
}
