//! Input and output sampling.
//!
//! RecPart's optimization phase works on a fixed-size random **input sample** (from
//! `S ∪ T`) and a random **output sample** of the band-join result (Algorithm 1, lines
//! 1–2). The output sample is needed because a good partitioning must balance *output*
//! as well as input across workers; the paper uses the join sampling method of
//! Vitorovic et al. [38]. We substitute a two-phase degree-weighted probe sampler
//! (the substitution is argued in `DESIGN.md`): pick `output_probe_count` random
//! S-tuples, find every T-tuple each of them joins with, and draw output pairs
//! uniformly from the concatenated match lists — i.e. with probability proportional
//! to each probe's degree. The by-product `Σ degree · |S| / probes` is an unbiased
//! estimate of `|S ⋈ T|`; pairs and estimate are the two artifacts the optimizer needs.
//!
//! # How the match lists are found: the probes are the build side
//!
//! There are a few thousand probes and up to millions of T-tuples, so the scan is
//! inverted relative to an index-nested-loop join: the **probes** are indexed and **T
//! streams through once, in storage order**, straight off [`Relation::column`].
//!
//! * The probes are sorted by `s₀` and held structure-of-arrays (one column per
//!   dimension, ≤ 48 KB at three dimensions — cache-resident for the whole scan).
//!   Their dimension-0 windows `[s₀ − ε_high, s₀ + ε_low]` (the exact
//!   [`BandCondition::range_around_s`] expressions) then have monotone lower *and*
//!   upper ends, so the probes whose window contains a given `t₀` form one contiguous
//!   run of the sorted order. Both ends of all windows are merged into one ascending
//!   threshold list with the run that holds between each two thresholds, so one
//!   binary search per T row finds its run — for most rows of a selective join, the
//!   empty one.
//! * Every probe of that run is tested against the T-tuple in all dimensions with
//!   the window kernel of the local join (`simd::band_window_collect`, the literal
//!   [`BandCondition::matches`] predicate, vectorised over the contiguous probe
//!   columns). The kernel computes `key − column`, here `t − s`, so it is handed the
//!   band with its two widths exchanged: negation is exact in IEEE-754, hence
//!   `t − s` rejects under the exchanged widths exactly when `s − t` rejects under
//!   the original ones.
//! * The scan records one entry per T-tuple that joined at least one probe and one
//!   `u32` per match; nothing of size `|T|` is allocated, and only the matched rows
//!   are ever sorted. Sorting *them* once by `(t₀, T index)` and dealing their
//!   matches out to the probes in that order (a stable counting sort by probe)
//!   leaves every probe's list in the order the contract below demands, at a cost
//!   that does not grow with the number of probes a row joins.
//!
//! The T scan fans out over contiguous row chunks under the caller's
//! [`Parallelism`]; [`OutputSample::draw`] is the sequential entry point.
//!
//! # The ordering contract
//!
//! The sample must not depend on how the matches were found, or every plan,
//! golden statistic and benchmark count would move with the scan's implementation
//! or thread count. So the match list of each probe is put into one defined total
//! order before anything is drawn from it: ascending `(t₀ by f64::total_cmp, T
//! index)` — the order a stable sort of T on dimension 0 visits a probe's window in.
//! The lists are concatenated in probe draw order and pair `r` of the concatenation
//! is addressed by one `gen_range(0..total_degree)` call per sampled pair. Given the
//! same RNG state, any correct way of finding the matches therefore yields the same
//! pairs in the same order, the same estimate, and leaves the RNG in the same state.
//!
//! The implementation that *defined* that order — argsort all of T on dimension 0,
//! then walk each probe's window through the permutation — is kept as the
//! `#[cfg(test)]` `reference` module, and a differential property test holds the scan
//! to it bit for bit (pairs, order, estimate, next RNG value, every thread count).

use crate::band::BandCondition;
use crate::parallel::{chunk_ranges, Parallelism};
use crate::relation::Relation;
use crate::simd::{band_window_collect, JoinKernel};
use rand::Rng;
use rayon::prelude::*;
use std::collections::HashMap;
use std::ops::Range;

/// Configuration of the sampling phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Total number of input-sample tuples drawn from `S ∪ T` (split proportionally to
    /// the relation sizes). The paper uses 100 000 for inputs of hundreds of millions;
    /// the default here is sized for the scaled-down experiments.
    pub input_sample_size: usize,
    /// Number of output pairs to sample.
    pub output_sample_size: usize,
    /// Number of S-tuples probed against T while building the output sample. More
    /// probes give a better output-size estimate at higher sampling cost.
    pub output_probe_count: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            input_sample_size: 8_192,
            output_sample_size: 4_096,
            output_probe_count: 2_048,
        }
    }
}

impl SampleConfig {
    /// A configuration with every knob scaled by `factor` (≥ 1 keeps at least one
    /// element per knob). Useful for optimization-time experiments.
    pub fn scaled(&self, factor: f64) -> SampleConfig {
        let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
        SampleConfig {
            input_sample_size: scale(self.input_sample_size),
            output_sample_size: scale(self.output_sample_size),
            output_probe_count: scale(self.output_probe_count),
        }
    }
}

/// The first `k` slots of a Fisher–Yates shuffle of `0..n`: `k` distinct indices,
/// uniformly distributed, in draw order, in `O(k)` memory.
///
/// The dense formulation fills a vector with `0..n` and, for `i` in `0..k`, swaps slot
/// `i` with slot `gen_range(i..n)`. Only slots a swap has touched differ from their
/// own index, so this keeps just those in a map: the indices returned and the RNG
/// calls made are those of the dense loop, without the `n`-element vector. Whether a
/// partially shuffled slice holds its sample in the prefix or the tail differs between
/// shuffle implementations; returning the sample itself removes the question.
pub(crate) fn sample_indices<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let k = k.min(n);
    let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(k);
    let mut sample = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        sample.push(displaced.get(&j).copied().unwrap_or(j));
        // Slot `i` is never read again; slot `j` now holds what slot `i` held.
        let at_i = displaced.remove(&i).unwrap_or(i);
        if j != i {
            displaced.insert(j, at_i);
        }
    }
    sample
}

/// A uniform random sample of an input relation, together with the scale-up weight
/// that converts sample counts into full-relation estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct InputSample {
    dims: usize,
    /// Row-major sample points.
    data: Vec<f64>,
    /// Number of tuples in the full relation.
    relation_len: usize,
}

impl InputSample {
    /// Draw a uniform sample of (at most) `size` tuples from `relation`.
    pub fn draw<R: Rng + ?Sized>(relation: &Relation, size: usize, rng: &mut R) -> Self {
        let n = relation.len();
        let size = size.min(n);
        let mut data = Vec::with_capacity(size * relation.dims());
        if size == n {
            data.extend_from_slice(&relation.to_flat());
        } else {
            for i in sample_indices(n, size, rng) {
                data.extend_from_slice(&relation.key(i));
            }
        }
        InputSample {
            dims: relation.dims(),
            data,
            relation_len: n,
        }
    }

    /// Number of sampled tuples.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of the sampled keys.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Key of sampled tuple `i`.
    pub fn key(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Iterate over sampled keys.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dims)
    }

    /// Indices `0..len` sorted ascending by the key value in dimension `dim`
    /// (`f64::total_cmp`, so the order is deterministic even for NaNs and ±0.0).
    /// Seeds the optimizer's cached per-dimension projections.
    pub(crate) fn argsort_by_dim(&self, dim: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.key(a as usize)[dim].total_cmp(&self.key(b as usize)[dim])
        });
        order
    }

    /// Scale factor converting a sample count into a full-relation estimate
    /// (`|R| / sample size`); 0 for an empty sample.
    pub fn weight(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.relation_len as f64 / self.len() as f64
        }
    }
}

/// A sample of band-join output pairs `(s_key, t_key)` plus an estimate of the total
/// output size.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSample {
    dims: usize,
    /// Row-major: for pair `i`, the S-key occupies `[2*i*d, (2*i+1)*d)` and the T-key
    /// `[(2*i+1)*d, (2*i+2)*d)`.
    pairs: Vec<f64>,
    /// Estimated total number of output tuples `|S ⋈ T|`.
    estimated_output: f64,
}

impl OutputSample {
    /// Build an output sample by probing `config.output_probe_count` random S-tuples
    /// against `t` and drawing `config.output_sample_size` pairs weighted by probe
    /// degree. Sequential; see the module docs for the scan and the ordering contract
    /// that makes the sample a function of the inputs and the RNG state alone.
    ///
    /// # Panics
    /// Panics if both relations are non-empty and `s`, `t` and `band` do not all have
    /// the same dimensionality, or if `t` or the probe set holds more than `u32::MAX`
    /// tuples.
    pub fn draw<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        config: &SampleConfig,
        rng: &mut R,
    ) -> Self {
        Self::draw_with(s, t, band, config, rng, Parallelism::Sequential)
    }

    /// [`OutputSample::draw`] with the T scan fanned out under `par`. The sample
    /// and the RNG stream are the same for every `par`.
    pub(crate) fn draw_with<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        config: &SampleConfig,
        rng: &mut R,
        par: Parallelism<'_>,
    ) -> Self {
        let dims = s.dims();
        if s.is_empty() || t.is_empty() {
            return OutputSample::empty(dims, 0.0);
        }
        // The window kernel reads `dims` values of every column without bounds
        // checks, so these hold in release builds too.
        assert_eq!(t.dims(), dims, "S and T differ in dimensionality");
        assert_eq!(band.dims(), dims, "band and S differ in dimensionality");

        let probe_count = config.output_probe_count.min(s.len()).max(1);
        assert!(
            probe_count <= u32::MAX as usize && t.len() <= u32::MAX as usize,
            "output sampling addresses probes and T-tuples by u32 index"
        );
        let probe_indices = sample_indices(s.len(), probe_count, rng);
        let probes = ProbeIndex::build(s, &probe_indices, band);

        let matches = probes.match_lists(t, band, par);
        let total_degree = matches.t.len();
        let estimated_output = total_degree as f64 * s.len() as f64 / probe_count as f64;

        // Draw output pairs proportional to degree: uniformly from the concatenated
        // match lists, which `matches.offsets` indexes cumulatively.
        let want = config.output_sample_size.min(total_degree);
        let mut pairs = Vec::with_capacity(want * 2 * dims);
        for _ in 0..want {
            let r = rng.gen_range(0..total_degree);
            let probe = matches.offsets.partition_point(|&c| c <= r) - 1;
            pairs.extend_from_slice(&s.key(probe_indices[probe]));
            pairs.extend_from_slice(&t.key(matches.t[r] as usize));
        }

        OutputSample {
            dims,
            pairs,
            estimated_output,
        }
    }

    /// An empty output sample with a given output-size estimate (useful in tests).
    pub fn empty(dims: usize, estimated_output: f64) -> Self {
        OutputSample {
            dims,
            pairs: Vec::new(),
            estimated_output,
        }
    }

    /// Number of sampled output pairs.
    pub fn len(&self) -> usize {
        if self.dims == 0 {
            0
        } else {
            self.pairs.len() / (2 * self.dims)
        }
    }

    /// Whether no output pairs were sampled.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Dimensionality of the keys.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The S-side key of sampled pair `i`.
    pub fn s_key(&self, i: usize) -> &[f64] {
        let start = 2 * i * self.dims;
        &self.pairs[start..start + self.dims]
    }

    /// The T-side key of sampled pair `i`.
    pub fn t_key(&self, i: usize) -> &[f64] {
        let start = (2 * i + 1) * self.dims;
        &self.pairs[start..start + self.dims]
    }

    /// Estimated total output size `|S ⋈ T|`.
    pub fn estimated_output(&self) -> f64 {
        self.estimated_output
    }

    /// Pair indices `0..len` sorted ascending by the **S-side** key value in
    /// dimension `dim` (`f64::total_cmp`).
    pub(crate) fn argsort_by_s_dim(&self, dim: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.s_key(a as usize)[dim].total_cmp(&self.s_key(b as usize)[dim])
        });
        order
    }

    /// Pair indices `0..len` sorted ascending by the **T-side** key value in
    /// dimension `dim` (`f64::total_cmp`).
    pub(crate) fn argsort_by_t_dim(&self, dim: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.t_key(a as usize)[dim].total_cmp(&self.t_key(b as usize)[dim])
        });
        order
    }

    /// Scale factor converting a count of sampled pairs into an estimate of output
    /// tuples (`|S ⋈ T|_est / sample size`); 0 for an empty sample.
    pub fn weight(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.estimated_output / self.len() as f64
        }
    }
}

/// A T-tuple that joins at least one probe, as the scan records it: which probes
/// (`hits` entries of the scan's hit list from `first_hit` on), and its dimension-0
/// value so ordering the rows never goes back to the column.
#[derive(Debug, Clone, Copy)]
struct MatchedRow {
    t0: f64,
    first_hit: usize,
    hits: u32,
    /// Index of the T-tuple.
    t: u32,
}

/// What one scan produced: the matched rows in row order, and their concatenated hit
/// lists (probes by draw-order index).
type ScanOutput = (Vec<MatchedRow>, Vec<u32>);

/// The match list of every probe, concatenated in probe draw order: probe `p` joins
/// the T-tuples `t[offsets[p]..offsets[p + 1]]`, ascending by `(t₀, T index)`.
struct MatchLists {
    offsets: Vec<usize>,
    t: Vec<u32>,
}

/// T rows per parallel work item of the scan; a T of fewer than two of them is
/// scanned in one piece. (Tiny under test so that small inputs exercise the fan-out.)
const SCAN_CHUNK_ROWS: usize = if cfg!(test) { 64 } else { 1 << 16 };

/// The probed S-tuples as the build side of the output-sampling scan: sorted by `s₀`,
/// one column per dimension. See the module docs.
struct ProbeIndex {
    /// Where the run of probes whose dimension-0 window contains a T-value changes:
    /// every window's lower end `lo` and the successor of its upper end `hi`, merged
    /// and ascending, so that "`lo ≤ v`" and "`hi < v`" are both "`threshold ≤ v`".
    thresholds: Vec<f64>,
    /// `runs[n]` is the run `(start, end)` of sorted probe positions for a value that
    /// has passed exactly `n` thresholds: `#(hi < v) .. #(lo ≤ v)`.
    runs: Vec<(u32, u32)>,
    /// Probe keys, one column per dimension, in `s₀` order.
    cols: Vec<Vec<f64>>,
    /// Draw-order index of the probe at each sorted position.
    draw_index: Vec<u32>,
}

impl ProbeIndex {
    fn build(s: &Relation, probe_indices: &[usize], band: &BandCondition) -> Self {
        let s0 = s.column(0);
        let mut draw_index: Vec<u32> = (0..probe_indices.len() as u32).collect();
        draw_index.sort_unstable_by(|&a, &b| {
            s0[probe_indices[a as usize]].total_cmp(&s0[probe_indices[b as usize]])
        });
        let column = |d: usize| -> Vec<f64> {
            let col = s.column(d);
            draw_index
                .iter()
                .map(|&p| col[probe_indices[p as usize]])
                .collect()
        };
        let cols: Vec<Vec<f64>> = (0..s.dims()).map(column).collect();

        // The window of a probe is `[lo, hi]` = `range_around_s(0, s₀)`. Subtracting
        // (adding) a constant is monotone under IEEE-754 rounding, so `lo` and `hi`
        // both ascend with `s₀`: the probes with `lo ≤ v` are a prefix of the sorted
        // order, those with `hi < v` a shorter prefix, and the run between the two is
        // the probes whose window contains `v`. `hi < v` iff `hi.next_up() ≤ v`.
        let mut events: Vec<(f64, bool)> = Vec::with_capacity(2 * cols[0].len());
        for &v in &cols[0] {
            let (lo, hi) = band.range_around_s(0, v);
            events.push((lo, true));
            events.push((hi.next_up(), false));
        }
        events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let (mut start, mut end) = (0u32, 0u32);
        let mut runs = Vec::with_capacity(events.len() + 1);
        runs.push((start, end));
        for &(_, is_lower_end) in &events {
            if is_lower_end {
                end += 1;
            } else {
                start += 1;
            }
            runs.push((start, end));
        }
        ProbeIndex {
            thresholds: events.into_iter().map(|(v, _)| v).collect(),
            runs,
            cols,
            draw_index,
        }
    }

    fn len(&self) -> usize {
        self.draw_index.len()
    }

    /// The match list of every probe against `t`, in the module's defined order.
    fn match_lists(&self, t: &Relation, band: &BandCondition, par: Parallelism<'_>) -> MatchLists {
        // The kernel evaluates `key − column` = `t − s`; see the module docs.
        let exchanged = band.exchanged();
        let kernel = JoinKernel::active();
        let scan = |rows: Range<usize>| self.scan(t, &exchanged, kernel, rows);
        let (mut rows, hits) = if par.is_parallel() && t.len() >= 2 * SCAN_CHUNK_ROWS {
            let ranges = chunk_ranges(t.len(), t.len().div_ceil(SCAN_CHUNK_ROWS));
            let chunks: Vec<ScanOutput> = par.run(|| {
                ranges
                    .into_par_iter()
                    .map(|(lo, hi)| scan(lo..hi))
                    .collect()
            });
            let (mut rows, mut hits) = (Vec::new(), Vec::new());
            for (chunk_rows, chunk_hits) in chunks {
                let shift = hits.len();
                rows.extend(chunk_rows.into_iter().map(|row| MatchedRow {
                    first_hit: row.first_hit + shift,
                    ..row
                }));
                hits.extend(chunk_hits);
            }
            (rows, hits)
        } else {
            scan(0..t.len())
        };

        // Put the matched rows into `(t₀, T index)` order — a total order, so the
        // order the scan found them in is immaterial — and deal their hits out to the
        // probes in that order (a stable counting sort by probe): every probe's list
        // comes out in the defined order without being sorted itself.
        rows.sort_unstable_by(|a, b| a.t0.total_cmp(&b.t0).then(a.t.cmp(&b.t)));
        let mut offsets = vec![0usize; self.len() + 1];
        for &probe in &hits {
            offsets[probe as usize + 1] += 1;
        }
        for p in 0..self.len() {
            offsets[p + 1] += offsets[p];
        }
        let mut matched = vec![0u32; hits.len()];
        let mut cursor = offsets.clone();
        for row in &rows {
            for &probe in &hits[row.first_hit..][..row.hits as usize] {
                let at = &mut cursor[probe as usize];
                matched[*at] = row.t;
                *at += 1;
            }
        }
        MatchLists {
            offsets,
            t: matched,
        }
    }

    /// The T rows of `rows` that join a probe, in row order, with the probes they join.
    fn scan(
        &self,
        t: &Relation,
        exchanged: &BandCondition,
        kernel: JoinKernel,
        rows: Range<usize>,
    ) -> ScanOutput {
        let t_cols: Vec<&[f64]> = (0..t.dims()).map(|d| t.column(d)).collect();
        let mut t_key = vec![0.0; t_cols.len()];
        let (mut matched, mut hits) = (Vec::new(), Vec::new());
        // A block at a time: first every row's run (searches of consecutive rows are
        // independent and overlap as long as no data-dependent branch sits between
        // them), then the rows whose run is not empty.
        let mut runs = [(0u32, 0u32); 256];
        for block in rows.clone().step_by(runs.len()) {
            let values = &t_cols[0][block..rows.end.min(block + runs.len())];
            for (run, &t0) in runs.iter_mut().zip(values) {
                *run = self.runs[self.thresholds.partition_point(|&e| e <= t0)];
            }
            for (i, (&(start, end), &t0)) in (block..).zip(runs.iter().zip(values)) {
                if start == end {
                    continue;
                }
                for (k, col) in t_key.iter_mut().zip(&t_cols) {
                    *k = col[i];
                }
                let first_hit = hits.len();
                let run = start as usize..end as usize;
                band_window_collect(kernel, &t_key, &self.cols, run, exchanged, &mut hits);
                if hits.len() > first_hit {
                    for position in &mut hits[first_hit..] {
                        *position = self.draw_index[*position as usize];
                    }
                    matched.push(MatchedRow {
                        t0,
                        first_hit,
                        hits: (hits.len() - first_hit) as u32,
                        t: i as u32,
                    });
                }
            }
        }
        (matched, hits)
    }
}

/// The sampler this module's scan replaced, verbatim: the definition of "the
/// output sample" that [`OutputSample::draw`] is held to bit for bit. It sorts all
/// of T for every call, so it must never leave `#[cfg(test)]`.
#[cfg(test)]
mod reference {
    use super::*;

    /// The dense Fisher–Yates prefix [`sample_indices`] reproduces sparsely.
    pub(super) fn dense_sample_indices<R: Rng + ?Sized>(
        n: usize,
        k: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = rng.gen_range(i..n);
            indices.swap(i, j);
        }
        indices.truncate(k);
        indices
    }

    pub(super) fn draw<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        config: &SampleConfig,
        rng: &mut R,
    ) -> OutputSample {
        let dims = s.dims();
        if s.is_empty() || t.is_empty() {
            return OutputSample::empty(dims, 0.0);
        }

        // Sort T on dimension 0 once; probes binary-search the ε-range in that dimension
        // and verify the remaining dimensions exactly.
        let mut order: Vec<usize> = (0..t.len()).collect();
        order.sort_by(|&a, &b| t.value(a, 0).total_cmp(&t.value(b, 0)));
        let sorted_vals: Vec<f64> = order.iter().map(|&i| t.value(i, 0)).collect();

        let probe_count = config.output_probe_count.min(s.len()).max(1);
        let probe_indices = dense_sample_indices(s.len(), probe_count, rng);

        // For each probe, collect its matching T indices.
        let mut matches_per_probe: Vec<(usize, Vec<usize>)> = Vec::with_capacity(probe_count);
        let mut total_degree = 0usize;
        for &si in &probe_indices {
            let s_key = s.key(si);
            let (lo, hi) = band.range_around_s(0, s_key[0]);
            let start = sorted_vals.partition_point(|&v| v < lo);
            let end = sorted_vals.partition_point(|&v| v <= hi);
            let mut matched = Vec::new();
            for &ti in &order[start..end] {
                if band.matches(&s_key, &t.key(ti)) {
                    matched.push(ti);
                }
            }
            total_degree += matched.len();
            matches_per_probe.push((si, matched));
        }

        let estimated_output = total_degree as f64 * s.len() as f64 / probe_count as f64;

        // Draw output pairs proportional to degree: flatten all (probe, match) pairs and
        // sample uniformly from them.
        let mut pairs = Vec::new();
        if total_degree > 0 {
            let want = config.output_sample_size.min(total_degree);
            let mut cumulative: Vec<usize> = Vec::with_capacity(matches_per_probe.len() + 1);
            cumulative.push(0);
            for (_, m) in &matches_per_probe {
                cumulative.push(cumulative.last().unwrap() + m.len());
            }
            pairs.reserve(want * 2 * dims);
            for _ in 0..want {
                let r = rng.gen_range(0..total_degree);
                let probe_idx = cumulative.partition_point(|&c| c <= r) - 1;
                let (si, ref matched) = matches_per_probe[probe_idx];
                let within = r - cumulative[probe_idx];
                let ti = matched[within];
                pairs.extend_from_slice(&s.key(si));
                pairs.extend_from_slice(&t.key(ti));
            }
        }

        OutputSample {
            dims,
            pairs,
            estimated_output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_relation(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> Relation {
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

    #[test]
    fn input_sample_basic_properties() {
        let r = uniform_relation(1000, 2, 0.0, 100.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = InputSample::draw(&r, 100, &mut rng);
        assert_eq!(sample.len(), 100);
        assert_eq!(sample.dims(), 2);
        assert_eq!(sample.relation_len, 1000);
        assert!((sample.weight() - 10.0).abs() < 1e-12);
        for key in sample.iter() {
            assert!(key.iter().all(|v| (0.0..100.0).contains(v)));
        }
    }

    #[test]
    fn input_sample_larger_than_relation_takes_all() {
        let r = uniform_relation(50, 1, 0.0, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = InputSample::draw(&r, 500, &mut rng);
        assert_eq!(sample.len(), 50);
        assert!((sample.weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn input_sample_of_empty_relation() {
        let r = Relation::new(3);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = InputSample::draw(&r, 10, &mut rng);
        assert!(sample.is_empty());
        assert_eq!(sample.weight(), 0.0);
    }

    #[test]
    fn output_sample_pairs_satisfy_band_condition() {
        let s = uniform_relation(500, 2, 0.0, 10.0, 6);
        let t = uniform_relation(500, 2, 0.0, 10.0, 7);
        let band = BandCondition::symmetric(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = SampleConfig {
            input_sample_size: 100,
            output_sample_size: 200,
            output_probe_count: 200,
        };
        let sample = OutputSample::draw(&s, &t, &band, &cfg, &mut rng);
        assert!(!sample.is_empty(), "dense uniform data must produce output");
        for i in 0..sample.len() {
            assert!(
                band.matches(sample.s_key(i), sample.t_key(i)),
                "sampled output pair must satisfy the band condition"
            );
        }
    }

    #[test]
    fn output_size_estimate_close_to_truth_on_uniform_data() {
        let s = uniform_relation(800, 1, 0.0, 100.0, 10);
        let t = uniform_relation(800, 1, 0.0, 100.0, 11);
        let band = BandCondition::symmetric(&[1.0]);
        // Exact count.
        let mut exact = 0u64;
        for sk in s.iter() {
            for tk in t.iter() {
                if band.matches(&sk, &tk) {
                    exact += 1;
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = SampleConfig {
            input_sample_size: 400,
            output_sample_size: 400,
            output_probe_count: 400,
        };
        let sample = OutputSample::draw(&s, &t, &band, &cfg, &mut rng);
        let est = sample.estimated_output();
        let rel_err = (est - exact as f64).abs() / exact as f64;
        assert!(
            rel_err < 0.25,
            "output estimate {est} too far from exact {exact} (rel err {rel_err})"
        );
    }

    #[test]
    fn output_sample_empty_when_no_matches() {
        let s = uniform_relation(100, 1, 0.0, 1.0, 13);
        let t = uniform_relation(100, 1, 1000.0, 1001.0, 14);
        let band = BandCondition::symmetric(&[0.1]);
        let mut rng = StdRng::seed_from_u64(15);
        let sample = OutputSample::draw(&s, &t, &band, &SampleConfig::default(), &mut rng);
        assert!(sample.is_empty());
        assert_eq!(sample.estimated_output(), 0.0);
        assert_eq!(sample.weight(), 0.0);
    }

    #[test]
    fn output_sample_handles_empty_inputs() {
        let s = Relation::new(1);
        let t = uniform_relation(10, 1, 0.0, 1.0, 16);
        let band = BandCondition::symmetric(&[0.1]);
        let mut rng = StdRng::seed_from_u64(17);
        let sample = OutputSample::draw(&s, &t, &band, &SampleConfig::default(), &mut rng);
        assert!(sample.is_empty());
    }

    #[test]
    fn argsort_orders_each_dimension() {
        let r = uniform_relation(200, 2, 0.0, 50.0, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let sample = InputSample::draw(&r, 100, &mut rng);
        for dim in 0..2 {
            let order = sample.argsort_by_dim(dim);
            assert_eq!(order.len(), sample.len());
            for w in order.windows(2) {
                assert!(
                    sample.key(w[0] as usize)[dim] <= sample.key(w[1] as usize)[dim],
                    "dim {dim} not sorted"
                );
            }
        }
    }

    #[test]
    fn output_argsort_orders_both_sides() {
        let s = uniform_relation(300, 2, 0.0, 10.0, 22);
        let t = uniform_relation(300, 2, 0.0, 10.0, 23);
        let band = BandCondition::symmetric(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(24);
        let cfg = SampleConfig {
            input_sample_size: 100,
            output_sample_size: 150,
            output_probe_count: 150,
        };
        let sample = OutputSample::draw(&s, &t, &band, &cfg, &mut rng);
        assert!(!sample.is_empty());
        for dim in 0..2 {
            for w in sample.argsort_by_s_dim(dim).windows(2) {
                assert!(sample.s_key(w[0] as usize)[dim] <= sample.s_key(w[1] as usize)[dim]);
            }
            for w in sample.argsort_by_t_dim(dim).windows(2) {
                assert!(sample.t_key(w[0] as usize)[dim] <= sample.t_key(w[1] as usize)[dim]);
            }
        }
    }

    #[test]
    fn sample_config_scaled() {
        let cfg = SampleConfig::default();
        let half = cfg.scaled(0.5);
        assert_eq!(half.input_sample_size, cfg.input_sample_size / 2);
        let tiny = cfg.scaled(0.0);
        assert_eq!(tiny.input_sample_size, 1);
    }

    #[test]
    fn sample_indices_equal_the_dense_fisher_yates_prefix() {
        for n in [1usize, 2, 17, 100_000] {
            for k in [0, 1, n / 3, n.saturating_sub(1), n, n + 5] {
                let mut sparse_rng = StdRng::seed_from_u64(n as u64 ^ 0xF15E);
                let mut dense_rng = sparse_rng.clone();
                let sparse = sample_indices(n, k, &mut sparse_rng);
                let dense = reference::dense_sample_indices(n, k, &mut dense_rng);
                assert_eq!(sparse, dense, "n={n} k={k}");
                assert_eq!(
                    sparse_rng.gen::<u64>(),
                    dense_rng.gen::<u64>(),
                    "n={n} k={k}: RNG streams diverged"
                );
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// `n` tuples of `dims` attributes: continuous values (`grid == false`) or a
        /// five-value integer grid with both signed zeros (heavy ties), shifted by
        /// `offset`.
        fn relation(n: usize, dims: usize, grid: bool, offset: f64, seed: u64) -> Relation {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = Relation::with_capacity(dims, n);
            let mut key = vec![0.0; dims];
            for _ in 0..n {
                for k in key.iter_mut() {
                    *k = if grid {
                        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        offset + sign * rng.gen_range(0i32..3) as f64
                    } else {
                        offset + rng.gen_range(0.0..4.0)
                    };
                }
                r.push(&key);
            }
            r
        }

        /// Everything a caller can observe of a draw, with floats by bit pattern
        /// (`-0.0 == 0.0` would hide a swapped tie) and the RNG's next value.
        fn observe(sample: OutputSample, mut rng: StdRng) -> (Vec<u64>, u64, usize, u64) {
            (
                sample.pairs.iter().map(|v| v.to_bits()).collect(),
                sample.estimated_output.to_bits(),
                sample.dims,
                rng.gen::<u64>(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// The scan draws the reference's sample — pairs, order, estimate, RNG
            /// state after — at every parallelism, over 1–8 dimensions, symmetric and
            /// asymmetric bands with zero widths, continuous keys and heavy ties
            /// (±0.0 included), fewer S-tuples than probes, single-tuple sides,
            /// probes without candidates, and inputs with no output at all.
            #[test]
            fn scan_equals_reference(
                seed in 0u64..1_000_000,
                dims in 1usize..9,
                (s_len, t_len) in (
                    prop_oneof![1 => Just(1usize), 6 => 2usize..120],
                    prop_oneof![1 => Just(1usize), 6 => 2usize..700],
                ),
                grid in any::<bool>(),
                t_offset in prop_oneof![5 => Just(0.0f64), 1 => Just(0.5f64), 1 => Just(1000.0f64)],
                widths in prop::collection::vec(
                    prop_oneof![2 => Just(0.0f64), 2 => Just(1.0f64), 3 => 0.0f64..3.0],
                    16,
                ),
                symmetric in any::<bool>(),
                output_probe_count in prop_oneof![Just(0usize), Just(1usize), 2usize..64, Just(4096usize)],
                output_sample_size in prop_oneof![Just(0usize), 1usize..256, Just(100_000usize)],
            ) {
                let s = relation(s_len, dims, grid, 0.0, seed);
                let t = relation(t_len, dims, grid, t_offset, seed ^ 0x7);
                let low = &widths[..dims];
                let high = if symmetric { low } else { &widths[8..8 + dims] };
                let band = BandCondition::try_asymmetric(low, high).unwrap();
                let config = SampleConfig {
                    input_sample_size: 16,
                    output_sample_size,
                    output_probe_count,
                };

                let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
                let expected = {
                    let mut rng = rng.clone();
                    let sample = reference::draw(&s, &t, &band, &config, &mut rng);
                    observe(sample, rng)
                };

                let pool = |n: usize| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap();
                let (two, four) = (pool(2), pool(4));
                for par in [
                    Parallelism::Sequential,
                    Parallelism::Pool(&two),
                    Parallelism::Pool(&four),
                    Parallelism::Ambient,
                ] {
                    let mut rng = rng.clone();
                    let sample = OutputSample::draw_with(&s, &t, &band, &config, &mut rng, par);
                    prop_assert_eq!(&observe(sample, rng), &expected, "{:?}", par);
                }
                let sample = OutputSample::draw(&s, &t, &band, &config, &mut rng);
                prop_assert_eq!(observe(sample, rng), expected, "public draw");
            }
        }
    }
}
