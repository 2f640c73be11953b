//! The per-worker ("local") band-join.
//!
//! After the shuffle, every worker holds a subset `S_p`, `T_p` of the inputs and must
//! compute the band-join of exactly those tuples. The paper uses an index-nested-loop
//! scheme: range-partition `T_p` on the most selective dimension `A₁` into ranges of
//! width `ε₁`, then probe each `s ∈ S_p` against its range and the two neighbouring
//! ranges. This module implements the equivalent sorted-array formulation (binary
//! search for `s.A₁ − ε₁`, scan to `s.A₁ + ε₁`), which is also what the paper's Grid-ε
//! variant uses for its pre-sorted cells. It is the only local join the library ships;
//! the scalar per-probe loop and the quadratic nested loop it is held to are test code.
//!
//! The join reports the number of **candidate comparisons** it performed; the
//! synthetic machine model uses this to derive realistic per-worker compute times.
//!
//! # Join kernels
//!
//! Both sides of the index-nested-loop probe are columnar. [`SortedProbeSide`]
//! gathers **every** join dimension of the candidate side into per-dimension arrays in
//! sorted-by-dimension-0 order at build time, so evaluating the band condition over a
//! candidate window reads contiguous memory instead of gathering one cache-missing
//! tuple at a time. The probe side is gathered the same way, in its own dimension-0
//! order, before the sweep: [`sweep_in_key_order`] reads probe keys from contiguous
//! columns, never through a tuple id, so the key loads of consecutive probes overlap
//! instead of missing the cache one at a time. The evaluation of dimensions `1..`
//! runs through one [`WindowKernel`] per sweep, built from the [`JoinKernel`]
//! (branchless `portable` / `avx2` masked compares; override with `BAND_JOIN_KERNEL`),
//! the columns and the band widths — see [`recpart::simd`] for the kernel contract and
//! NaN policy. The sweep hands it a block of up to [`PROBE_BLOCK`] windows per call,
//! so the dispatch is paid once per block, not per probe. The kernels are specialized
//! to the number of dimensions they test, from one to four, with the probe key and
//! the band widths hoisted out of the candidate loop: a `d`-dimensional join runs the
//! `d − 1` arm, and a join of more than five dimensions runs the widest arm, which
//! tests its dimensions past the fifth in a runtime-length loop.
//!
//! Every local join is that one sweep over probes in dimension-0 order; they differ
//! only in how the order is had. The executor's reduce gets it for free: its
//! partitions are sorted once, by [`crate::join_ready`], so it gathers a whole
//! partition's keys and sweeps them with no sort at all. [`probe_sorted`], the one
//! public probe entry point, takes probes in arbitrary order: it sorts the list once on
//! `(dimension 0 total_cmp, arrival position)`, gathers its keys once and sweeps them
//! once. Pairs leave every sweep through one inverse permutation, [`Emit`], which puts
//! them back in the order the caller owes — ascending S id for the reduce, arrival
//! order for [`probe_sorted`], so its pair **order** stays bit-identical to the scalar
//! per-probe binary-search loop, the proptest oracle. The verifier
//! ([`crate::verify`]) sorts S once and sweeps runs of it directly.
//!
//! # The dimension-0 trim
//!
//! A dimension-0 window is cut from the sorted column by `v ≥ s₀ − ε_high` and
//! `v ≤ s₀ + ε_low`; [`BandCondition::matches`] tests `s₀ − v` instead, and the two
//! can round apart (`0.3 − 0.4 < −0.1` although `0.4 ≤ 0.3 + 0.1`), so a window member
//! is not yet a dimension-0 match. [`sweep_in_key_order`] settles that on the column
//! itself rather than per candidate: the rounded difference `s₀ − v` is monotone
//! non-increasing in `v` (correctly-rounded subtraction is monotone, and `−0.0`
//! subtracts like `0.0`), so the members that pass `matches`' own dimension-0 test
//! are one contiguous sub-range of the sorted window, found by stepping in from both
//! ends with that literal test — usually zero or one step. What is left needs only
//! dimensions `1..`: the [`JoinKernel`]s evaluate those, and a 1-d probe is answered
//! by the sub-range's length without a kernel, in time independent of its output.
//! A probe with an infinite dimension-0 key needs no case of its own: its window
//! `[s₀ − ε_high, s₀ + ε_low]` holds only keys equal to it, and `∞ − ∞` is NaN, which
//! the trim's reject test does not reject. No column holds NaN: [`Relation`] rejects
//! it at ingress. (DESIGN.md §7.)
//!
//! # Comparisons accounting
//!
//! [`LocalJoinResult::comparisons`] is the **size of every dimension-0 window** —
//! the candidates the index hands the probe, which is what the scalar per-candidate
//! loop tests one by one and what [`crate::machine::MachineModel`] charges compute
//! time for. It is *not* the number of per-candidate tests a vector path executed
//! (the trimmed sweep executes far fewer, none at all in 1-d): the count is
//! **exactly** the scalar count for every kernel, so model-derived compute times are
//! unchanged by kernel choice.

use recpart::{BandCondition, JoinKernel, Relation, WindowKernel};
use std::ops::Range;

#[cfg(test)]
mod kernel_tests;

/// Result of one local join: output size and work performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalJoinResult {
    /// Number of output pairs produced.
    pub output: u64,
    /// Candidate pairs the index handed the probes: the summed size of every
    /// dimension-0 window — not the number of per-candidate tests executed.
    /// Identical for every [`JoinKernel`] (see the module docs).
    pub comparisons: u64,
}

/// Probe windows per kernel call of [`sweep_in_key_order`], and the verifier's
/// interleave unit (its pieces take every `pieces`-th run of this many sorted probes).
/// Large enough to amortize the kernel dispatch, small enough that a block's windows
/// stay cache-resident.
pub(crate) const PROBE_BLOCK: usize = 1024;

/// The T side of an index-nested-loop band-join, sorted once on dimension 0 so that
/// several probe passes — e.g. the chunked parallel verification join — can share one
/// sort instead of re-sorting per pass.
///
/// The side is **SoA**: every join dimension is gathered into its own contiguous
/// array in sorted order at build time (`cols[0]` is the sort key), so the per-window
/// band evaluation of the vector [`JoinKernel`]s streams contiguous memory.
#[derive(Debug, Clone)]
pub struct SortedProbeSide {
    /// Selected tuple indices, sorted by their dimension-0 value (`total_cmp`), ties
    /// in input position ([`sort_ids_by_dim0`]).
    pub(crate) sorted: Vec<u32>,
    /// Per-dimension value columns in `sorted` order; `cols[0]` is the sort key.
    pub(crate) cols: Vec<Vec<f64>>,
}

/// `x`'s bits mapped so that unsigned integer order is `f64::total_cmp` order:
/// negative values (sign bit set) have every bit flipped, the rest get the sign bit.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Bits per radix digit of [`sort_ids_by_dim0`].
const RADIX_BITS: u32 = 8;
const RADIX: usize = 1 << RADIX_BITS;

/// Sort tuple ids in place on dimension 0 (`total_cmp`), **stably**: ties keep their
/// input position. This one sort is *the* order of every sorted id list — both sides
/// of the join-ready arenas ([`crate::join_ready`]), [`SortedProbeSide::build`] and
/// the verifier's S side — and since those are handed ascending ids (a shuffle's
/// slice, `0..n`), it leaves them in `(dimension 0 total_cmp, id)` order, a total
/// order that does not depend on the input order.
///
/// A stable LSD radix sort rather than a comparison sort, because a comparison reads
/// two keys through the column (DESIGN.md §4): each id's key is read once, as
/// [`total_order_bits`], and the keys are radixed in 8-bit digits over only the
/// `64 − leading_zeros(max − min)` bits in which the slice's keys differ (zero passes
/// when all are equal), with the ids permuted alongside. A digit that every key
/// shares costs no scatter. Scratch is a second key buffer and one id buffer —
/// 20 bytes per id — ping-ponged with `ids` itself.
pub(crate) fn sort_ids_by_dim0(rel: &Relation, ids: &mut [u32]) {
    let col = rel.column(0);
    radix_sort_by_key(ids, |i| col[i as usize]);
}

/// [`sort_ids_by_dim0`] with each element's key read through `key`, once: the sort of
/// a probe list's arrival positions by their probes' keys ([`probe_sorted_with`]).
fn radix_sort_by_key(ids: &mut [u32], key: impl Fn(u32) -> f64) {
    let n = ids.len();
    if n < 2 {
        return;
    }
    let mut keys: Vec<u64> = ids.iter().map(|&i| total_order_bits(key(i))).collect();
    let (min, max) = keys
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let passes = (64 - (max - min).leading_zeros()).div_ceil(RADIX_BITS) as usize;
    if passes == 0 {
        return;
    }
    // Keys relative to the minimum, so the high digits they all share are zero;
    // every pass's histogram is counted in the same read.
    let mut counts = vec![[0usize; RADIX]; passes];
    for k in &mut keys {
        *k -= min;
        for (pass, count) in counts.iter_mut().enumerate() {
            count[(*k >> (pass as u32 * RADIX_BITS)) as usize % RADIX] += 1;
        }
    }
    let mut keys_from = keys;
    let mut keys_to = vec![0u64; n];
    let mut ids_scratch = vec![0u32; n];
    let mut in_scratch = false;
    for (pass, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut next = [0usize; RADIX];
        let mut at = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = at;
            at += c;
        }
        let (ids_from, ids_to): (&[u32], &mut [u32]) = if in_scratch {
            (&ids_scratch[..], &mut *ids)
        } else {
            (&*ids, &mut ids_scratch[..])
        };
        let shift = pass as u32 * RADIX_BITS;
        for (&k, &id) in keys_from.iter().zip(ids_from) {
            let slot = &mut next[(k >> shift) as usize % RADIX];
            keys_to[*slot] = k;
            ids_to[*slot] = id;
            *slot += 1;
        }
        std::mem::swap(&mut keys_from, &mut keys_to);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        ids.copy_from_slice(&ids_scratch);
    }
}

/// Gather every join dimension of the tuples `sorted` (already in dimension-0 order)
/// into one contiguous column per dimension: T's candidate columns, or S's probe keys.
pub(crate) fn gather_columns(rel: &Relation, sorted: &[u32]) -> Vec<Vec<f64>> {
    (0..rel.dims())
        .map(|d| {
            let col = rel.column(d);
            sorted.iter().map(|&i| col[i as usize]).collect()
        })
        .collect()
}

impl SortedProbeSide {
    /// Sort the selected T-tuples on dimension 0 — stably, so ties keep their
    /// position in `t_idx` and an ascending `t_idx` comes out in `(dimension 0, id)`
    /// order — and gather all dimensions.
    pub fn build(t: &Relation, t_idx: &[u32]) -> SortedProbeSide {
        Self::from_ids(t, t_idx.to_vec())
    }

    /// [`SortedProbeSide::build`] over the entire relation, without materializing an
    /// identity index vector first (the sort permutation is the only allocation
    /// besides the gathered columns).
    pub(crate) fn build_full(t: &Relation) -> SortedProbeSide {
        Self::from_ids(t, (0..t.len() as u32).collect())
    }

    fn from_ids(t: &Relation, mut sorted: Vec<u32>) -> SortedProbeSide {
        sort_ids_by_dim0(t, &mut sorted);
        let cols = gather_columns(t, &sorted);
        SortedProbeSide { sorted, cols }
    }
}

/// Probe every S-tuple of `s_idx` (in the given order) against a pre-sorted T side
/// with the process-wide [`JoinKernel::active`] kernel: find the ε-range on dimension
/// 0, then evaluate the full band condition on each candidate — the paper's
/// index-nested-loop, with `side` built from `t`. Pairs are emitted in probe order, so
/// chunking `s_idx` and concatenating the chunk outputs in order reproduces the
/// unchunked result exactly — for every kernel.
pub fn probe_sorted(
    s: &Relation,
    t: &Relation,
    side: &SortedProbeSide,
    band: &BandCondition,
    s_idx: impl IntoIterator<Item = u32>,
    pairs: Option<&mut Vec<(u32, u32)>>,
) -> LocalJoinResult {
    debug_assert_eq!(side.cols.len(), t.dims(), "`side` not built from `t`");
    probe_sorted_with(JoinKernel::active(), s, side, band, s_idx, pairs)
}

/// Where a sweep's pairs go, and in which order: [`sweep_in_key_order`] appends
/// `(s_ids[k], t_ids[m])` for every match of its `k`-th probe with column position
/// `m`, probe by probe in ascending `order_by[k]` (one distinct key per probe, so this
/// undoes the dimension-0 sort into the order the caller owes), each probe's matches
/// in window order.
pub(crate) struct Emit<'a> {
    pub(crate) pairs: &'a mut Vec<(u32, u32)>,
    pub(crate) s_ids: &'a [u32],
    pub(crate) t_ids: &'a [u32],
    pub(crate) order_by: &'a [u32],
}

impl Emit<'_> {
    /// The one inverse permutation: `matched` holds every probe's matching column
    /// positions, probe after probe in sweep order, and `counts` one count per probe.
    fn pairs(self, matched: &[u32], counts: &[u32]) {
        // Where each probe's matches start in `matched`.
        let offsets: Vec<usize> = counts
            .iter()
            .scan(0, |at, &count| {
                let offset = *at;
                *at += count as usize;
                Some(offset)
            })
            .collect();
        let mut emit: Vec<u32> = (0..counts.len() as u32).collect();
        emit.sort_unstable_by_key(|&k| self.order_by[k as usize]);
        self.pairs.reserve(matched.len());
        for k in emit {
            let (k, s_id) = (k as usize, self.s_ids[k as usize]);
            let probe_matches = &matched[offsets[k]..offsets[k] + counts[k] as usize];
            let t_ids = self.t_ids;
            self.pairs
                .extend(probe_matches.iter().map(|&m| (s_id, t_ids[m as usize])));
        }
    }
}

/// The one probe loop: probe S-tuples in dimension-0 (`total_cmp`) order against the
/// gathered T columns `cols` (`cols[0]` sorted), advancing **one** monotone
/// dimension-0 window over the column instead of binary-searching per probe, trimming
/// each window to its dimension-0 matches on the column itself, and evaluating
/// dimensions `1..` of what is left with the kernel (module docs, "The dimension-0
/// trim").
///
/// `probes` is the probe side as columns, one per dimension, gathered in that order,
/// so the sweep reads contiguous keys only. It hands the kernel a block of up to
/// [`PROBE_BLOCK`] windows per call. With `emit`, the pairs are appended in the order
/// [`Emit`] sets; without, the kernel only counts.
///
/// Window equivalence with the scalar `partition_point`s: the window bounds
/// `lo`/`hi` are non-decreasing in key order (infinite keys included: their bounds are
/// the key itself), and the predicates `v < lo` / `v <= hi` are partitioned over the
/// NaN-free sorted column, so a forward scan from the previous boundary stops exactly
/// at the `partition_point`. The window *starts* at the first probe's own
/// `partition_point` rather than at 0, so a run of probes far into the column does not
/// pay a scan from the front.
pub(crate) fn sweep_in_key_order(
    kernel: JoinKernel,
    probes: &[Vec<f64>],
    cols: &[Vec<f64>],
    band: &BandCondition,
    emit: Option<Emit<'_>>,
) -> LocalJoinResult {
    let mut result = LocalJoinResult::default();
    let (keys0, vals) = (probes[0].as_slice(), cols[0].as_slice());
    let n = vals.len();
    let (eps_lo, eps_hi) = (band.eps_low_all(), band.eps_high_all());
    // The trim settles dimension 0, so the kernel tests dimensions `1..` (with one
    // dimension no kernel runs).
    let kernel = WindowKernel::new(kernel, &cols[1..], &eps_lo[1..], &eps_hi[1..]);
    let mut windows: Vec<Range<usize>> = Vec::with_capacity(keys0.len().min(PROBE_BLOCK));
    let mut keys: Vec<&[f64]> = Vec::with_capacity(probes.len());
    let (mut matched, mut counts) = (Vec::new(), Vec::new());
    let mut window: Option<(usize, usize)> = None;
    let mut first = 0;
    while first < keys0.len() {
        let end = keys0.len().min(first + PROBE_BLOCK);
        windows.clear();
        for &s0 in &keys0[first..end] {
            let (lo, hi) = band.range_around_s(0, s0);
            let (mut w_start, mut w_end) = window.unwrap_or_else(|| {
                let first = vals.partition_point(|&v| v < lo);
                (first, first)
            });
            while w_start < n && vals[w_start] < lo {
                w_start += 1;
            }
            if w_end < w_start {
                w_end = w_start;
            }
            while w_end < n && vals[w_end] <= hi {
                w_end += 1;
            }
            window = Some((w_start, w_end));
            // The exact trim: `BandCondition::matches`' own dimension-0 reject test,
            // inward from both ends (module docs, "The dimension-0 trim").
            let rejects = |v: f64| {
                let d = s0 - v;
                d < -eps_lo[0] || d > eps_hi[0]
            };
            let (mut a, mut b) = (w_start, w_end);
            while a < b && rejects(vals[a]) {
                a += 1;
            }
            while a < b && rejects(vals[b - 1]) {
                b -= 1;
            }
            // The dimension-0 window is what `comparisons` charges; the trimmed one
            // holds the candidates still to test.
            result.comparisons += (w_end - w_start) as u64;
            windows.push(a..b);
        }
        keys.clear();
        keys.extend(probes[1..].iter().map(|col| &col[first..end]));
        result.output += match emit {
            Some(_) => kernel.collect(&keys, &windows, &mut matched, &mut counts),
            None => kernel.count(&keys, &windows),
        };
        first = end;
    }
    if let Some(emit) = emit {
        emit.pairs(&matched, &counts);
    }
    result
}

/// [`probe_sorted`] with an explicit kernel, for probes in **arbitrary** order: sort
/// the probe list once on `(dimension 0 total_cmp, arrival position)`, gather its keys
/// in that order, sweep them once with [`sweep_in_key_order`], and emit the pairs in
/// arrival order — the scalar per-probe loop's. Every kernel takes this path and
/// produces bit-identical pairs, pair order, `output`, and `comparisons`.
pub(crate) fn probe_sorted_with(
    kernel: JoinKernel,
    s: &Relation,
    side: &SortedProbeSide,
    band: &BandCondition,
    s_idx: impl IntoIterator<Item = u32>,
    pairs: Option<&mut Vec<(u32, u32)>>,
) -> LocalJoinResult {
    let arrival: Vec<u32> = s_idx.into_iter().collect();
    let s_key = s.column(0);
    // Arrival positions, stably sorted by their probe's key: equal-key probes keep
    // arrival order, as in the scalar loop.
    let mut order: Vec<u32> = (0..arrival.len() as u32).collect();
    radix_sort_by_key(&mut order, |pos| s_key[arrival[pos as usize] as usize]);
    let s_sorted: Vec<u32> = order.iter().map(|&pos| arrival[pos as usize]).collect();
    let probes = gather_columns(s, &s_sorted);
    let emit = pairs.map(|pairs| Emit {
        pairs,
        s_ids: &s_sorted,
        t_ids: &side.sorted,
        order_by: &order,
    });
    sweep_in_key_order(kernel, &probes, &side.cols, band, emit)
}

/// The scalar per-probe loop: binary-search each probe's dimension-0 window and test
/// every candidate with [`BandCondition::matches`]. Test code — the bit-identity
/// oracle [`probe_sorted_with`] is held to for every kernel.
#[cfg(test)]
pub(crate) fn probe_scalar(
    s: &Relation,
    t: &Relation,
    side: &SortedProbeSide,
    band: &BandCondition,
    s_idx: impl IntoIterator<Item = u32>,
    mut pairs: Option<&mut Vec<(u32, u32)>>,
) -> LocalJoinResult {
    let mut result = LocalJoinResult::default();
    let vals = &side.cols[0];
    for si in s_idx {
        let sk = s.key(si as usize);
        let (lo, hi) = band.range_around_s(0, sk[0]);
        let start = vals.partition_point(|&v| v < lo);
        let end = vals.partition_point(|&v| v <= hi);
        for &ti in &side.sorted[start..end] {
            result.comparisons += 1;
            if band.matches(&sk, &t.key(ti as usize)) {
                result.output += 1;
                if let Some(p) = pairs.as_deref_mut() {
                    p.push((si, ti));
                }
            }
        }
    }
    result
}

/// The quadratic reference join over arbitrary index iterators (slices or ranges).
/// Test code — the pair-set oracle of every index path.
#[cfg(test)]
pub(crate) fn nested_loop(
    s: &Relation,
    t: &Relation,
    s_iter: impl Iterator<Item = u32>,
    t_iter: impl Iterator<Item = u32> + Clone,
    band: &BandCondition,
    mut pairs: Option<&mut Vec<(u32, u32)>>,
) -> LocalJoinResult {
    let mut result = LocalJoinResult::default();
    for si in s_iter {
        let sk = s.key(si as usize);
        for ti in t_iter.clone() {
            result.comparisons += 1;
            if band.matches(&sk, &t.key(ti as usize)) {
                result.output += 1;
                if let Some(p) = pairs.as_deref_mut() {
                    p.push((si, ti));
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recpart::{chunk_ranges, Parallelism};

    type Pairs<'a> = Option<&'a mut Vec<(u32, u32)>>;

    /// The production probe over whole relations with an explicit kernel.
    pub(super) fn index_join(
        kernel: JoinKernel,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        pairs: Pairs<'_>,
    ) -> LocalJoinResult {
        let side = SortedProbeSide::build_full(t);
        probe_sorted_with(kernel, s, &side, band, 0..s.len() as u32, pairs)
    }

    /// The scalar per-probe oracle over whole relations.
    pub(super) fn scalar_join(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        pairs: Pairs<'_>,
    ) -> LocalJoinResult {
        let side = SortedProbeSide::build_full(t);
        probe_scalar(s, t, &side, band, 0..s.len() as u32, pairs)
    }

    /// The quadratic oracle over whole relations.
    pub(super) fn quadratic_join(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        pairs: Pairs<'_>,
    ) -> LocalJoinResult {
        nested_loop(s, t, 0..s.len() as u32, 0..t.len() as u32, band, pairs)
    }

    type Join = fn(&Relation, &Relation, &BandCondition, Pairs<'_>) -> LocalJoinResult;

    /// The production probe with the process-wide kernel, and the quadratic oracle.
    pub(super) const JOINS: [(&str, Join); 2] = [
        ("index-nested-loop", |s, t, band, pairs| {
            index_join(JoinKernel::active(), s, t, band, pairs)
        }),
        ("nested-loop", quadratic_join),
    ];

    /// Both joins' output counts over the whole relations.
    fn output_counts(s: &Relation, t: &Relation, band: &BandCondition) -> [u64; 2] {
        JOINS.map(|(_, join)| join(s, t, band, None).output)
    }

    /// Both joins over the selected tuples only.
    fn subset_joins(
        s: &Relation,
        t: &Relation,
        s_idx: &[u32],
        t_idx: &[u32],
        band: &BandCondition,
    ) -> [LocalJoinResult; 2] {
        let side = SortedProbeSide::build(t, t_idx);
        let s_iter = s_idx.iter().copied();
        [
            probe_sorted(s, t, &side, band, s_iter.clone(), None),
            nested_loop(s, t, s_iter, t_idx.iter().copied(), band, None),
        ]
    }

    fn drawn_relation(
        n: usize,
        dims: usize,
        seed: u64,
        draw: impl Fn(&mut StdRng) -> f64,
    ) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        for _ in 0..n {
            let key: Vec<f64> = (0..dims).map(|_| draw(&mut rng)).collect();
            r.push(&key);
        }
        r
    }

    fn random_relation(n: usize, dims: usize, seed: u64) -> Relation {
        drawn_relation(n, dims, seed, |rng| rng.gen_range(0.0..50.0))
    }

    /// Pareto(1.5) on `[1, ∞)` by inverse transform: dense near 1, a heavy tail.
    fn pareto_relation(n: usize, dims: usize, seed: u64) -> Relation {
        drawn_relation(n, dims, seed, |rng| {
            (1.0 - rng.gen_range(0.0..1.0f64)).powf(-1.0 / 1.5)
        })
    }

    #[test]
    fn all_algorithms_agree_on_output_count_1d() {
        let s = random_relation(300, 1, 1);
        let t = random_relation(300, 1, 2);
        let band = BandCondition::symmetric(&[0.7]);
        let counts = output_counts(&s, &t, &band);
        assert!(counts[0] > 0, "test needs non-empty output");
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn all_algorithms_agree_on_output_count_3d() {
        let s = random_relation(200, 3, 3);
        let t = random_relation(200, 3, 4);
        let band = BandCondition::symmetric(&[2.0, 3.0, 4.0]);
        let counts = output_counts(&s, &t, &band);
        assert!(counts[0] > 0);
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn all_algorithms_agree_with_asymmetric_band() {
        let s = random_relation(150, 2, 5);
        let t = random_relation(150, 2, 6);
        let band = BandCondition::try_asymmetric(&[0.5, 3.0], &[2.0, 0.0]).unwrap();
        let counts = output_counts(&s, &t, &band);
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn materialized_pairs_match_count_and_condition() {
        let s = random_relation(100, 2, 7);
        let t = random_relation(100, 2, 8);
        let band = BandCondition::symmetric(&[1.5, 1.5]);
        for (name, join) in JOINS {
            let mut pairs = Vec::new();
            let res = join(&s, &t, &band, Some(&mut pairs));
            assert_eq!(pairs.len() as u64, res.output, "{name}");
            for (si, ti) in pairs {
                assert!(band.matches(&s.key(si as usize), &t.key(ti as usize)));
            }
        }
    }

    #[test]
    fn index_based_algorithms_do_less_work_than_nested_loop() {
        let s = random_relation(400, 1, 9);
        let t = random_relation(400, 1, 10);
        let band = BandCondition::symmetric(&[0.2]);
        let nl = quadratic_join(&s, &t, &band, None);
        let inl = index_join(JoinKernel::active(), &s, &t, &band, None);
        assert_eq!(nl.comparisons, 400 * 400);
        assert!(inl.comparisons < nl.comparisons / 10);
    }

    #[test]
    fn empty_partitions_produce_no_output() {
        let s = random_relation(10, 1, 11);
        let t = random_relation(10, 1, 12);
        let band = BandCondition::symmetric(&[1.0]);
        let empty = [LocalJoinResult::default(); 2];
        assert_eq!(subset_joins(&s, &t, &[], &[0, 1, 2], &band), empty);
        assert_eq!(subset_joins(&s, &t, &[0], &[], &band), empty);
    }

    #[test]
    fn subset_join_only_considers_selected_tuples() {
        let mut s = Relation::new(1);
        let mut t = Relation::new(1);
        for v in [1.0, 2.0, 3.0] {
            s.push(&[v]);
            t.push(&[v]);
        }
        let band = BandCondition::symmetric(&[0.1]);
        // Only S#0 and T#2 selected: values 1.0 vs 3.0 do not match.
        for res in subset_joins(&s, &t, &[0], &[2], &band) {
            assert_eq!(res.output, 0);
        }
        // S#1 and T#1 match exactly.
        for res in subset_joins(&s, &t, &[1], &[1], &band) {
            assert_eq!(res.output, 1);
        }
    }

    #[test]
    fn equi_join_band_zero() {
        let mut s = Relation::new(1);
        let mut t = Relation::new(1);
        for v in [1.0, 2.0, 2.0, 5.0] {
            s.push(&[v]);
        }
        for v in [2.0, 5.0, 7.0] {
            t.push(&[v]);
        }
        let band = BandCondition::equi(1);
        for (name, join) in JOINS {
            let res = join(&s, &t, &band, None);
            assert_eq!(res.output, 3, "{name}"); // (2,2), (2,2), (5,5)
        }
    }

    /// Probe S in `chunks` — concurrently under `par` — and concatenate the outputs
    /// in chunk order: the parallel verifier's shape.
    fn chunked_probe(
        par: Parallelism,
        kernel: JoinKernel,
        s: &Relation,
        side: &SortedProbeSide,
        band: &BandCondition,
        chunks: Vec<(usize, usize)>,
    ) -> (LocalJoinResult, Vec<(u32, u32)>) {
        let per_chunk = par.map(chunks, |(lo, hi)| {
            let mut pairs = Vec::new();
            let chunk = lo as u32..hi as u32;
            let r = probe_sorted_with(kernel, s, side, band, chunk, Some(&mut pairs));
            (r, pairs)
        });
        let mut total = LocalJoinResult::default();
        let mut pairs = Vec::new();
        for (r, chunk_pairs) in per_chunk {
            total.output += r.output;
            total.comparisons += r.comparisons;
            pairs.extend(chunk_pairs);
        }
        (total, pairs)
    }

    #[test]
    fn chunked_probes_concatenate_to_the_full_result() {
        let s = random_relation(500, 1, 20);
        let t = random_relation(400, 1, 21);
        let band = BandCondition::symmetric(&[0.4]);
        for kernel in JoinKernel::all_supported() {
            let mut full_pairs = Vec::new();
            let full = index_join(kernel, &s, &t, &band, Some(&mut full_pairs));

            let side = SortedProbeSide::build_full(&t);
            let chunks = vec![(0, 123), (123, 124), (124, 500)];
            let (chunked, chunked_pairs) =
                chunked_probe(Parallelism::new(0), kernel, &s, &side, &band, chunks);
            assert_eq!(chunked, full, "kernel {}", kernel.name());
            assert_eq!(
                chunked_pairs,
                full_pairs,
                "same pairs in the same order (kernel {})",
                kernel.name()
            );
        }
    }

    /// Every kernel's pairs, pair order and counters equal the scalar probe's, which
    /// this returns.
    fn assert_every_kernel_matches_the_scalar_probe(
        label: &str,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
    ) -> (LocalJoinResult, Vec<(u32, u32)>) {
        let mut scalar_pairs = Vec::new();
        let scalar = scalar_join(s, t, band, Some(&mut scalar_pairs));
        assert!(scalar.output > 0, "{label}: test needs non-empty output");
        for kernel in JoinKernel::all_supported() {
            let mut pairs = Vec::new();
            let res = index_join(kernel, s, t, band, Some(&mut pairs));
            assert_eq!(res, scalar, "{label} kernel {}", kernel.name());
            assert_eq!(
                pairs,
                scalar_pairs,
                "{label} kernel {}: same pairs in the same order",
                kernel.name()
            );
        }
        (scalar, scalar_pairs)
    }

    #[test]
    fn every_kernel_is_bit_identical_to_the_scalar_probe() {
        // Larger than PROBE_BLOCK so the sweep crosses kernel-block boundaries.
        let s = random_relation(2_500, 2, 30);
        let t = random_relation(1_800, 2, 31);
        let band = BandCondition::symmetric(&[0.8, 5.0]);
        assert_every_kernel_matches_the_scalar_probe("uniform 2-d", &s, &t, &band);

        // Candidate-heavy Pareto joins, 1-d (no kernel runs once dimension 0 is
        // settled) and 3-d (kernels test dimensions 1..), also probed in chunks on a
        // four threads and concatenated in chunk order — the verifier's shape.
        for dims in [1usize, 3] {
            let label = format!("pareto {dims}-d");
            let s = pareto_relation(2_500, dims, 40 + dims as u64);
            let t = pareto_relation(2_000, dims, 50 + dims as u64);
            let band = BandCondition::symmetric(&vec![0.05; dims]);
            let (scalar, scalar_pairs) =
                assert_every_kernel_matches_the_scalar_probe(&label, &s, &t, &band);
            assert!(
                scalar.comparisons >= 10 * s.len() as u64,
                "{label}: not candidate-heavy ({} comparisons)",
                scalar.comparisons
            );
            let side = SortedProbeSide::build_full(&t);
            for kernel in JoinKernel::all_supported() {
                let chunks = chunk_ranges(s.len(), 16);
                let (chunked, chunked_pairs) =
                    chunked_probe(Parallelism::new(4), kernel, &s, &side, &band, chunks);
                let label = format!("{label} kernel {} chunked", kernel.name());
                assert_eq!(chunked, scalar, "{label}");
                assert!(
                    chunked_pairs == scalar_pairs,
                    "{label}: pairs and pair order"
                );
            }
        }
    }

    #[test]
    fn indexed_and_full_joins_agree() {
        let s = random_relation(300, 2, 40);
        let t = random_relation(200, 2, 41);
        let band = BandCondition::symmetric(&[0.9, 3.0]);
        let s_idx: Vec<u32> = (0..s.len() as u32).collect();
        let t_idx: Vec<u32> = (0..t.len() as u32).collect();
        let side = SortedProbeSide::build(&t, &t_idx);
        for kernel in JoinKernel::all_supported() {
            let mut full_pairs = Vec::new();
            let full = index_join(kernel, &s, &t, &band, Some(&mut full_pairs));
            let mut idx_pairs = Vec::new();
            let s_iter = s_idx.iter().copied();
            let idx = probe_sorted_with(kernel, &s, &side, &band, s_iter, Some(&mut idx_pairs));
            assert_eq!(full, idx, "kernel {}", kernel.name());
            assert_eq!(full_pairs, idx_pairs, "kernel {}", kernel.name());
        }
    }

    #[test]
    fn probe_order_is_arrival_order_not_id_order() {
        // Dimension 0 from a pool of 25 keys, so equal keys form tie runs spread over
        // the ids; dimension 1 leaves the kernels candidates to reject.
        let n = 1_500u32;
        let mut rng = StdRng::seed_from_u64(70);
        let mut s = Relation::new(2);
        for i in 0..n {
            s.push(&[(i * 7 % 25) as f64 * 0.3, rng.gen_range(0.0..8.0)]);
        }
        let t = drawn_relation(1_000, 2, 71, |rng| rng.gen_range(0.0..8.0));
        let band = BandCondition::symmetric(&[0.4, 2.0]);
        // Reversed, then permuted, then an id repeated between others: longer than a
        // block, never ascending.
        let probes: Vec<u32> = (0..n)
            .rev()
            .chain((0..n).map(|i| i * 7_919 % n))
            .chain([5, 1_200, 5, 0, 5])
            .collect();
        assert!(probes.len() > PROBE_BLOCK);
        let side = SortedProbeSide::build_full(&t);
        let mut scalar_pairs = Vec::new();
        let scalar = probe_scalar(
            &s,
            &t,
            &side,
            &band,
            probes.clone(),
            Some(&mut scalar_pairs),
        );
        assert!(
            !scalar_pairs.is_sorted_by_key(|&(si, _)| si),
            "arrival order must differ from id order"
        );
        for kernel in JoinKernel::all_supported() {
            let mut pairs = Vec::new();
            let got = probe_sorted_with(kernel, &s, &side, &band, probes.clone(), Some(&mut pairs));
            assert_eq!(got, scalar, "kernel {}", kernel.name());
            assert!(
                pairs == scalar_pairs,
                "kernel {}: pairs and pair order",
                kernel.name()
            );
            let counted = probe_sorted_with(kernel, &s, &side, &band, probes.clone(), None);
            assert_eq!(counted, scalar, "kernel {} count-only", kernel.name());
        }
    }

    /// Radix bits [`sort_ids_by_dim0`] needs for `keys`: the span of their
    /// [`total_order_bits`].
    fn span_bits(keys: &[f64]) -> u32 {
        let bits: Vec<u64> = keys.iter().map(|&k| total_order_bits(k)).collect();
        let (min, max) = (bits.iter().min().unwrap(), bits.iter().max().unwrap());
        64 - (max - min).leading_zeros()
    }

    /// Sort `ids` (ascending, indexing `keys`) with [`sort_ids_by_dim0`] and hold the
    /// result to a comparison sort on `(dimension 0 total_cmp, id)`: in that order,
    /// and a permutation of the input.
    fn assert_dim0_sort_matches_the_oracle(label: &str, keys: &[f64], ids: &[u32]) {
        assert!(ids.is_sorted_by(|a, b| a < b), "{label}: ids not ascending");
        let rel = Relation::from_flat(1, keys.to_vec());
        let mut got = ids.to_vec();
        sort_ids_by_dim0(&rel, &mut got);
        let mut want = ids.to_vec();
        want.sort_unstable_by(|&a, &b| {
            keys[a as usize]
                .total_cmp(&keys[b as usize])
                .then(a.cmp(&b))
        });
        assert_eq!(got, want, "{label}: (dim-0 total_cmp, id) order");
        let mut members = got.clone();
        members.sort_unstable();
        assert_eq!(members, ids, "{label}: not a permutation of the input");
    }

    fn all_ids(keys: &[f64]) -> Vec<u32> {
        (0..keys.len() as u32).collect()
    }

    #[test]
    fn dim0_sort_pins_the_total_cmp_then_id_order() {
        let mut rng = StdRng::seed_from_u64(60);
        let uniform = |rng: &mut StdRng, n: usize| -> Vec<f64> {
            (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect()
        };
        // Lengths around nothing, one and two, one digit's fan-out, and thousands.
        for n in [0usize, 1, 2, 3, 255, 256, 257, 4_099] {
            let keys = uniform(&mut rng, n);
            assert_dim0_sort_matches_the_oracle(&format!("uniform n={n}"), &keys, &all_ids(&keys));
        }

        // Zero passes: every key equal, so the input (id) order is the answer.
        let equal = vec![2.5; 1_000];
        assert_eq!(span_bits(&equal), 0);
        assert_dim0_sort_matches_the_oracle("all equal", &equal, &all_ids(&equal));

        // One ulp apart across a carry in every digit, and −0.0 beside +0.0: adjacent in
        // total order, so the span is one bit although the raw bits differ in all 64
        // (−0.0) or the low 56 (the carry).
        let below = f64::from_bits(0x3FF0_FFFF_FFFF_FFFF);
        let above = below.next_up();
        let zeros = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0];
        for (label, pool) in [("one ulp", [below, above]), ("signed zeros", [0.0, -0.0])] {
            let keys: Vec<f64> = (0..3_000).map(|i| pool[(i * 7 / 3) % 2]).collect();
            assert_eq!(span_bits(&keys), 1, "{label}");
            assert_dim0_sort_matches_the_oracle(label, &keys, &all_ids(&keys));
        }
        assert_dim0_sort_matches_the_oracle("six zeros", &zeros, &all_ids(&zeros));

        // The full 64-bit span: both infinities among finite keys, every digit a pass.
        let mut inf_mixed = uniform(&mut rng, 2_000);
        for i in (0..inf_mixed.len()).step_by(17) {
            inf_mixed[i] = if i % 2 == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        assert_eq!(span_bits(&inf_mixed), 64);
        assert_dim0_sort_matches_the_oracle("±inf mixed", &inf_mixed, &all_ids(&inf_mixed));
        let ends = [f64::INFINITY, -1.0, f64::NEG_INFINITY, 1.0, -0.0, 0.0];
        assert_dim0_sort_matches_the_oracle("six ends", &ends, &all_ids(&ends));

        // Heavy ties: four distinct keys over thousands of ids.
        let pool = [0.3, -1.0, 0.3 + 0.1, 1e300];
        let tied: Vec<f64> = (0..4_000)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        assert_dim0_sort_matches_the_oracle("heavy ties", &tied, &all_ids(&tied));

        // Random ascending id subsets, as the shuffle hands a partition.
        let keys = uniform(&mut rng, 6_000);
        for keep in [0.01, 0.3, 0.9] {
            let ids: Vec<u32> = (0..keys.len() as u32)
                .filter(|_| rng.gen_bool(keep))
                .collect();
            assert_dim0_sort_matches_the_oracle(&format!("subset {keep}"), &keys, &ids);
        }
    }

    #[test]
    fn dim0_sort_keeps_ties_in_input_position() {
        // Not ascending: ids in descending order. A stable sort keeps equal keys in
        // that order, which `sort_by` (stable) on the key alone reproduces.
        let keys: Vec<f64> = (0..2_000).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let ids: Vec<u32> = (0..keys.len() as u32).rev().collect();
        let rel = Relation::from_flat(1, keys.clone());
        let mut got = ids.clone();
        sort_ids_by_dim0(&rel, &mut got);
        let mut want = ids;
        want.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
        assert_eq!(got, want);
    }

    /// Uniform keys, the carry and signed-zero neighbours, and both infinities.
    fn sort_key() -> impl Strategy<Value = f64> {
        prop_oneof![
            4 => -1e6f64..1e6,
            2 => prop_oneof![Just(0.0f64), Just(-0.0f64), Just(1.0f64), Just(1.0f64.next_up())],
            1 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dim0_sort_equals_the_oracle_on_generated_keys(
            keys in prop::collection::vec(sort_key(), 0..3_000),
            keep in prop::collection::vec(any::<bool>(), 3_000),
        ) {
            let ids: Vec<u32> = (0..keys.len() as u32).filter(|&i| keep[i as usize]).collect();
            assert_dim0_sort_matches_the_oracle("generated", &keys, &ids);
        }
    }
}
