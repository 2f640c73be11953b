//! The best split of one leaf (Algorithm 2 `best_split`): a 1-Bucket grid increment
//! for a small leaf, the best hyperplane over all allowed dimensions for a regular
//! leaf with enough sample support, nothing for one without.
//!
//! The sweep finds the best hyperplane: it **counts** by advancing monotone pointers
//! over the leaf's cached projections. Its test-only oracle, the binary-search
//! reference, counts in its own way — it re-sorts the leaf's points and answers every
//! candidate with `partition_point`s, which is what makes it independent — and both
//! hand their counts to the one **scoring** routine, [`OptimizerState::score_plane`],
//! so the arithmetic and the strict-`>` tie-break cannot drift apart.

use super::projections::DimProjection;
use super::{LeafWork, OptimizerState, Plane};
use crate::band::BandCondition;
use crate::geometry::Rect;
use crate::metrics::SplitSearchCounters;
use crate::scoring::{merge_dedup, partition_load, variance_term, SplitScore};
use crate::split_tree::{SplitKind, SplitTree};

/// The action chosen for a leaf by [`OptimizerState::refresh_best`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum SplitAction {
    /// Split the leaf by a hyperplane.
    Plane(Plane),
    /// Increment the leaf's internal 1-Bucket grid.
    Grid { add_row: bool },
    /// Nothing useful to do with this leaf.
    None,
}

/// Best split of a leaf together with its score and estimated duplication increase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct BestSplit {
    pub(super) score: SplitScore,
    pub(super) action: SplitAction,
    pub(super) dup_increase: f64,
}

impl BestSplit {
    pub(super) fn none() -> Self {
        BestSplit {
            score: SplitScore::NotSplittable,
            action: SplitAction::None,
            dup_increase: 0.0,
        }
    }
}

/// The fewest input-sample tuples (S and T together, duplicates included) a regular
/// leaf must hold to be scored for a plane split. Below it the sample no longer says
/// where a plane belongs: a split that looks free on a handful of points adds real
/// partitions and duplication on the full data. The rule is what ends growth on
/// narrow bands, where almost no split pays duplication and the cost-model window
/// never fills (DESIGN.md §11).
pub(super) const MIN_PLANE_SUPPORT: usize = 16;

/// The counters of a leaf visit before any of its dimensions is scanned.
const LEAF_SCORED: SplitSearchCounters = SplitSearchCounters {
    leaves_scored: 1,
    dims_scanned: 0,
    candidates_scored: 0,
};

/// What a scorer counts for one candidate plane under one role assignment, of the
/// leaf's sample points in the split dimension: `[partitioned side left of the plane,
/// duplicated side reaching the left child (v − ε < x), duplicated side **not**
/// reaching the right child (v + ε < x), output pairs left of the plane]`.
type RoleCounts = [usize; 4];

/// What every candidate plane of one leaf is scored against.
struct LeafTerms<'a> {
    region: &'a Rect,
    /// The leaf's own term of the load variance, which a split replaces.
    old_var: f64,
    /// The leaf's sample-point totals `(S, T, output)`, which a candidate's left
    /// counts complement.
    totals: (f64, f64, f64),
}

/// The four monotone pointers the sweep keeps for one role assignment over one
/// dimension's cached value columns — the partitioned side's, the duplicated side's
/// (twice: shifted down by `sub` and up by `add`, that side's band widths) and the
/// output's. Where they stand is exactly the [`RoleCounts`] of the current candidate.
/// The shifted pointers test `v − sub < x` and `v + add < x`, the very expressions
/// the reference scorer's `partition_point`s evaluate; shifting by a constant is
/// monotone under IEEE rounding, so a shifted sorted column is sorted too, and every
/// pointer only advances as the candidate values grow.
struct RoleSweep<'a> {
    partitioned: &'a [f64],
    duplicated: &'a [f64],
    output: &'a [f64],
    sub: f64,
    add: f64,
    at: RoleCounts,
}

impl<'a> RoleSweep<'a> {
    /// The pointers of a `kind` split in dimension `dim` of `p`, at the start of their
    /// columns; the first candidate moves them. A T-split partitions S and duplicates
    /// T (left iff `t − ε_lo < x`); an S-split partitions T and duplicates S (left iff
    /// `s − ε_hi < x`); output pairs follow the partitioned side's key.
    fn of(p: &'a DimProjection, band: &BandCondition, dim: usize, kind: SplitKind) -> Self {
        let (eps_lo, eps_hi) = (band.eps_low(dim), band.eps_high(dim));
        let (partitioned, duplicated, (sub, add), output) = match kind {
            SplitKind::TSplit => (&p.s, &p.t, (eps_lo, eps_hi), &p.o_s),
            SplitKind::SSplit => (&p.t, &p.s, (eps_hi, eps_lo), &p.o_t),
        };
        RoleSweep {
            partitioned: &partitioned.vals,
            duplicated: &duplicated.vals,
            output: &output.vals,
            sub,
            add,
            at: [0; 4],
        }
    }

    /// The role counts at candidate `x`, which must not be below the last one asked.
    #[inline]
    fn advance_to(&mut self, x: f64) -> RoleCounts {
        let (sub, add) = (self.sub, self.add);
        let [part_l, dup_l, dup_not_r, out_l] = &mut self.at;
        advance(self.partitioned, part_l, |v| v < x);
        advance(self.duplicated, dup_l, |v| v - sub < x);
        advance(self.duplicated, dup_not_r, |v| v + add < x);
        advance(self.output, out_l, |v| v < x);
        self.at
    }
}

/// Move `*p` past the leading entries of `col` that satisfy `below`, which must hold
/// on a prefix of `col` — so `*p` ends at `col.partition_point(below)`.
#[inline]
fn advance(col: &[f64], p: &mut usize, below: impl Fn(f64) -> bool) {
    while *p < col.len() && below(col[*p]) {
        *p += 1;
    }
}

impl OptimizerState<'_> {
    /// Recompute and cache the best split of one leaf, returning the scoring-work
    /// counters. A regular leaf below [`MIN_PLANE_SUPPORT`] is not scored at all.
    pub(super) fn refresh_best(
        &self,
        tree: &SplitTree,
        work: &mut LeafWork,
    ) -> SplitSearchCounters {
        let (best, counters) = if work.is_small {
            (self.best_grid_increment(work), LEAF_SCORED)
        } else if work.plane_candidate() {
            self.best_plane_split(tree, work)
        } else {
            (BestSplit::none(), SplitSearchCounters::default())
        };
        work.best = best;
        counters
    }

    /// Best 1-Bucket increment for a small leaf.
    fn best_grid_increment(&self, work: &LeafWork) -> BestSplit {
        let (s_in, t_in, out) = self.leaf_estimates(work);
        let lm = &self.cfg.load_model;
        let w = self.cfg.workers;
        let (row_score, row_dup) =
            work.grid
                .score_add_row(w, lm.beta_input, lm.beta_output, s_in, t_in, out);
        let (col_score, col_dup) =
            work.grid
                .score_add_col(w, lm.beta_input, lm.beta_output, s_in, t_in, out);
        let add_row = row_score >= col_score;
        let (score, dup_increase) = if add_row {
            (row_score, row_dup)
        } else {
            (col_score, col_dup)
        };
        BestSplit {
            score,
            action: SplitAction::Grid { add_row },
            dup_increase,
        }
    }

    /// Best hyperplane split of a regular leaf, swept over its cached projections
    /// (under the test-only `binary_search` oracle, found by the reference instead).
    fn best_plane_split(
        &self,
        tree: &SplitTree,
        work: &LeafWork,
    ) -> (BestSplit, SplitSearchCounters) {
        #[cfg(test)]
        if self.oracles.binary_search {
            return self.plane_split_by(tree, work, |dim, leaf| self.search_dim(work, dim, leaf));
        }
        let proj = work
            .proj
            .as_ref()
            .expect("a regular leaf carries projections");
        self.plane_split_by(tree, work, |dim, leaf| {
            self.sweep_dim(&proj.dims[dim], dim, leaf)
        })
    }

    /// The best plane of a regular leaf, given a scorer's `scan` of one dimension:
    /// the first maximum, in (dimension, candidate, T-split before S-split) order, of
    /// every candidate's score. The sweep and the reference return the same
    /// [`BestSplit`] and the same counters bit for bit.
    fn plane_split_by(
        &self,
        tree: &SplitTree,
        work: &LeafWork,
        mut scan: impl FnMut(usize, &LeafTerms<'_>) -> (usize, BestSplit),
    ) -> (BestSplit, SplitSearchCounters) {
        let lm = &self.cfg.load_model;
        let (s_in, t_in, out) = self.leaf_estimates(work);
        let old_load = partition_load(lm.beta_input, lm.beta_output, s_in + t_in, out);
        let leaf = LeafTerms {
            region: &tree.leaf(work.node).region,
            old_var: variance_term(self.cfg.workers, old_load),
            totals: (
                work.s_pts.len() as f64,
                work.t_pts.len() as f64,
                work.o_pts.len() as f64,
            ),
        };
        let mut best = BestSplit::none();
        let mut counters = LEAF_SCORED;
        for dim in 0..self.dims {
            // May the leaf still be split recursively in this dimension?
            let eps = self.band.eps(dim);
            if !(eps == 0.0 || leaf.region.clipped_extent(dim, &self.domain) >= 2.0 * eps) {
                continue;
            }
            counters.dims_scanned += 1;
            let (windows, cand) = scan(dim, &leaf);
            counters.candidates_scored += windows as u64;
            if cand.score > best.score {
                best = cand;
            }
        }
        (best, counters)
    }

    /// The sweep-line scorer's pass over one dimension's cached projections: the
    /// candidate boundaries are the distinct values of the combined input sample
    /// ([`merge_dedup`] of the two sorted value columns), and every left/right count
    /// is maintained by a pointer that advances monotonically with the
    /// (non-decreasing) candidate values, so the whole dimension costs
    /// O(windows + points) with zero per-candidate binary searches.
    fn sweep_dim(&self, p: &DimProjection, dim: usize, leaf: &LeafTerms<'_>) -> (usize, BestSplit) {
        let bounds = merge_dedup(&p.s.vals, &p.t.vals);
        let mut t_split = RoleSweep::of(p, self.band, dim, SplitKind::TSplit);
        // Under asymmetric partitioning only T-splits are scored: these pointers
        // never move, and `p.o_t` is empty.
        let mut s_split = RoleSweep::of(p, self.band, dim, SplitKind::SSplit);
        self.score_candidates(&bounds, dim, leaf, |kind, x| match kind {
            SplitKind::TSplit => t_split.advance_to(x),
            SplitKind::SSplit => s_split.advance_to(x),
        })
    }

    /// The reference scorer's pass over one dimension: re-collect and sort the leaf's
    /// points, derive the candidate boundaries — the distinct values of the combined
    /// input sample — and answer every candidate with `partition_point` searches.
    /// Touches no cached projection.
    #[cfg(test)]
    fn search_dim(&self, work: &LeafWork, dim: usize, leaf: &LeafTerms<'_>) -> (usize, BestSplit) {
        let sorted = |mut vals: Vec<f64>| {
            vals.sort_unstable_by(f64::total_cmp);
            vals
        };
        let s_key = |&i: &u32| self.s_sample.key(i as usize)[dim];
        let t_key = |&i: &u32| self.t_sample.key(i as usize)[dim];
        let o_s_key = |&i: &u32| self.o_sample.s_key(i as usize)[dim];
        let o_t_key = |&i: &u32| self.o_sample.t_key(i as usize)[dim];
        let s_vals = sorted(work.s_pts.iter().map(s_key).collect());
        let t_vals = sorted(work.t_pts.iter().map(t_key).collect());
        let o_s_vals = sorted(work.o_pts.iter().map(o_s_key).collect());
        let o_t_vals = sorted(work.o_pts.iter().map(o_t_key).collect());

        let mut combined: Vec<f64> = Vec::with_capacity(s_vals.len() + t_vals.len());
        combined.extend_from_slice(&s_vals);
        combined.extend_from_slice(&t_vals);
        combined.sort_unstable_by(f64::total_cmp);
        combined.dedup();

        let eps_lo = self.band.eps_low(dim);
        let eps_hi = self.band.eps_high(dim);
        // A duplicated point goes left iff `v − sub < x`, right iff `v + add ≥ x`.
        let count = |x: f64, part: &[f64], dup: &[f64], sub: f64, add: f64, out: &[f64]| {
            [
                part.partition_point(|&v| v < x),
                dup.partition_point(|&v| v - sub < x),
                dup.partition_point(|&v| v + add < x),
                out.partition_point(|&v| v < x),
            ]
        };
        self.score_candidates(&combined, dim, leaf, |kind, x| match kind {
            SplitKind::TSplit => count(x, &s_vals, &t_vals, eps_lo, eps_hi, &o_s_vals),
            SplitKind::SSplit => count(x, &t_vals, &s_vals, eps_hi, eps_lo, &o_t_vals),
        })
    }

    /// Score every candidate of one dimension — the midpoints of consecutive
    /// `bounds`, where they fall strictly inside the leaf's region and strictly
    /// between the two boundaries — asking the scorer's `count` for the role counts
    /// of each plane: the T-split first, then (under symmetric partitioning) the
    /// S-split at the same value. Returns the number of candidate windows and the
    /// first best-scoring plane.
    #[inline]
    fn score_candidates(
        &self,
        bounds: &[f64],
        dim: usize,
        leaf: &LeafTerms<'_>,
        mut count: impl FnMut(SplitKind, f64) -> RoleCounts,
    ) -> (usize, BestSplit) {
        let mut best = BestSplit::none();
        for pair in bounds.windows(2) {
            let (b_lo, b_hi) = (pair[0], pair[1]);
            let x = 0.5 * (b_lo + b_hi);
            if x <= leaf.region.lo(dim) || x >= leaf.region.hi(dim) || x <= b_lo || x >= b_hi {
                continue;
            }
            let mut consider = |kind| {
                let plane = Plane {
                    dim,
                    value: x,
                    kind,
                };
                self.score_plane(&mut best, leaf, plane, count(kind, x));
            };
            consider(SplitKind::TSplit);
            if self.cfg.symmetric {
                consider(SplitKind::SSplit);
            }
        }
        (bounds.len().saturating_sub(1), best)
    }

    /// Score one candidate plane from a scorer's counts and keep it in `best` iff it
    /// is strictly better — the only place a plane's child loads, variance reduction
    /// and score are computed. The role counts become the six child counts by the
    /// plane's kind: the partitioned side splits exactly (`right = total − left`), the
    /// duplicated side's children overlap, and the overlap — scaled by that side's
    /// sample weight — is the duplication the split adds.
    #[inline]
    fn score_plane(
        &self,
        best: &mut BestSplit,
        leaf: &LeafTerms<'_>,
        plane: Plane,
        counts: RoleCounts,
    ) {
        let (ns, nt, no) = leaf.totals;
        let (n_part, n_dup, w_dup) = match plane.kind {
            SplitKind::TSplit => (ns, nt, self.wt),
            SplitKind::SSplit => (nt, ns, self.ws),
        };
        let [part_l, dup_l, dup_not_r, nol] = counts.map(|c| c as f64);
        let part_r = n_part - part_l;
        let dup_r = n_dup - dup_not_r;
        let nor = no - nol;
        let dup = w_dup * (dup_l + dup_r - n_dup);
        let (nsl, nsr, ntl, ntr) = match plane.kind {
            SplitKind::TSplit => (part_l, part_r, dup_l, dup_r),
            SplitKind::SSplit => (dup_l, dup_r, part_l, part_r),
        };

        let lm = &self.cfg.load_model;
        let w = self.cfg.workers;
        let l1 = partition_load(
            lm.beta_input,
            lm.beta_output,
            self.ws * nsl + self.wt * ntl,
            self.wo * nol,
        );
        let l2 = partition_load(
            lm.beta_input,
            lm.beta_output,
            self.ws * nsr + self.wt * ntr,
            self.wo * nor,
        );
        let reduction = leaf.old_var - variance_term(w, l1) - variance_term(w, l2);
        let score = SplitScore::new(reduction, dup);
        if score > best.score {
            *best = BestSplit {
                score,
                action: SplitAction::Plane(plane),
                dup_increase: dup.max(0.0),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::grow::GrownState;
    use super::super::tests::{pareto_relation, uniform_relation};
    use super::*;
    use crate::config::RecPartConfig;
    use crate::relation::Relation;
    use crate::sample::{InputSample, OutputSample, SampleConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build an optimizer state over drawn samples and compare the sweep-line and
    /// binary-search scorers on the root leaf and (after applying the chosen
    /// split) on both children, exercising the incremental projection split. The
    /// split must also hand each child exactly the points the winning plane was
    /// scored with. Returns the root's chosen action.
    fn compare_scorers(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        symmetric: bool,
        sample_seed: u64,
    ) -> SplitAction {
        let mut cfg = RecPartConfig::new(6).with_sample(SampleConfig {
            input_sample_size: 400,
            output_sample_size: 200,
            output_probe_count: 200,
        });
        cfg.symmetric = symmetric;
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let s_sample = InputSample::draw(s, 200, &mut rng);
        let t_sample = InputSample::draw(t, 200, &mut rng);
        let o_sample = OutputSample::draw(s, t, band, &cfg.sample, &mut rng);
        let state = OptimizerState::new(
            &cfg,
            band,
            s.len(),
            t.len(),
            &s_sample,
            &t_sample,
            &o_sample,
        );

        let mut grown = GrownState::new(&state);
        let root = grown.tree.root();
        let work = grown.works[root as usize].as_ref().unwrap();
        if !work.plane_candidate() {
            return SplitAction::None;
        }

        let reference = |tree: &SplitTree, work: &LeafWork| {
            state.plane_split_by(tree, work, |dim, leaf| state.search_dim(work, dim, leaf))
        };
        let (sweep, sweep_counters) = state.best_plane_split(&grown.tree, work);
        let (reference_best, reference_counters) = reference(&grown.tree, work);
        prop_assert_eq!(sweep, reference_best, "root best split differs");
        prop_assert_eq!(sweep_counters, reference_counters, "root counters differ");

        // Apply the chosen split and compare the children, whose projections were
        // distributed incrementally rather than argsorted from scratch.
        if let SplitAction::Plane(plane) = sweep.action {
            // Point counts in role order: partitioned side, duplicated side, output.
            let sizes = |w: &LeafWork| match plane.kind {
                SplitKind::TSplit => [w.s_pts.len(), w.t_pts.len(), w.o_pts.len()],
                SplitKind::SSplit => [w.t_pts.len(), w.s_pts.len(), w.o_pts.len()],
            };
            let [part, dup, out] = sizes(work);
            let proj = &work.proj.as_ref().unwrap().dims[plane.dim];
            let scored = RoleSweep::of(proj, band, plane.dim, plane.kind).advance_to(plane.value);
            let (l, r) = grown.split_plane(&state, root, plane);
            let [part_l, dup_l, out_l] = sizes(grown.works[l as usize].as_ref().unwrap());
            let [part_r, dup_r, out_r] = sizes(grown.works[r as usize].as_ref().unwrap());
            prop_assert_eq!([part_l, dup_l, dup - dup_r, out_l], scored, "left child");
            prop_assert_eq!([part_r, out_r], [part - part_l, out - out_l], "right child");
            for child in [l, r] {
                let work = grown.works[child as usize].as_ref().unwrap();
                if !work.plane_candidate() {
                    continue;
                }
                let (sweep, _) = state.best_plane_split(&grown.tree, work);
                prop_assert_eq!(
                    sweep,
                    reference(&grown.tree, work).0,
                    "child best split differs"
                );
            }
        }
        sweep.action
    }

    /// Leaves whose points sit exactly on `x − ε` and `x + ε` of the plane `x = 1`
    /// they are split at, where the sweep's shifted pointers and
    /// `Plane::reached_children` decide by a strict `<` (and `≥`). The keys are
    /// dyadic, so `v − ε` and `v + ε` are exact. Each case names the plane it must
    /// win with, so the ties are what the scorers and the split are compared on.
    #[test]
    fn ties_at_the_band_edges_are_scored_and_split_alike() {
        let keys = |runs: &[(f64, usize)]| {
            let vals: Vec<f64> = runs
                .iter()
                .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
                .collect();
            Relation::from_values_1d(&vals)
        };
        let eps_1 = BandCondition::symmetric(&[1.0]);
        let cases = [
            // T-split: T at 2 has `t − ε = x`, T at 0 has `t + ε = x`.
            (
                keys(&[(0.0, 8), (2.0, 8)]),
                keys(&[(0.0, 4), (2.0, 4)]),
                eps_1.clone(),
                false,
                SplitKind::TSplit,
            ),
            // The same ties on S, whose duplication is cheaper than T's.
            (
                keys(&[(0.0, 2), (2.0, 14)]),
                keys(&[(0.0, 8), (2.0, 8)]),
                eps_1,
                true,
                SplitKind::SSplit,
            ),
            // Unequal widths: `t − ε_lo = x` at 2, `t + ε_hi = x` at 0.5.
            (
                keys(&[(0.5, 8), (1.5, 8)]),
                keys(&[(0.5, 4), (2.0, 4), (2.5, 1)]),
                BandCondition::try_asymmetric(&[1.0], &[0.5]).unwrap(),
                false,
                SplitKind::TSplit,
            ),
        ];
        for (s, t, band, symmetric, kind) in cases {
            let plane = Plane {
                dim: 0,
                value: 1.0,
                kind,
            };
            let action = compare_scorers(&s, &t, &band, symmetric, 7);
            assert_eq!(action, SplitAction::Plane(plane));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sweep-line scorer returns the exact `BestSplit` (same score bits,
        /// same action, same duplication estimate) as the binary-search scorer on
        /// random leaves — skewed and uniform data, 1–3 dimensions, symmetric and
        /// asymmetric-role configurations, varying band widths.
        #[test]
        fn sweep_equals_binary_search_on_random_leaves(
            seed in 0u64..5_000,
            dims in 1usize..4,
            eps in 0.02f64..6.0,
            skewed in 0u32..2,
            symmetric in 0u32..2,
        ) {
            let (s, t) = if skewed == 1 {
                (
                    pareto_relation(800, dims, 1.4, seed),
                    pareto_relation(800, dims, 1.4, seed ^ 0xA5),
                )
            } else {
                (
                    uniform_relation(800, dims, 0.0, 60.0, seed),
                    uniform_relation(800, dims, 0.0, 60.0, seed ^ 0xA5),
                )
            };
            let band = BandCondition::symmetric(&vec![eps; dims]);
            compare_scorers(&s, &t, &band, symmetric == 1, seed ^ 0x5EED);
        }
    }
}
