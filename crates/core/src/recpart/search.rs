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

use super::projections::{BandProj, DimProjection};
use super::{LeafWork, OptimizerState, Plane};
use crate::geometry::Rect;
use crate::metrics::SplitSearchCounters;
use crate::scoring::{advance, partition_load, variance_term, SplitScore};
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
/// dimension's cached columns — the partitioned side's values, the duplicated side's
/// `minus` and `plus` copies, the output values. Where they stand is exactly the
/// [`RoleCounts`] of the current candidate.
struct RoleSweep<'a> {
    columns: [&'a [f64]; 4],
    at: RoleCounts,
}

impl<'a> RoleSweep<'a> {
    /// Pointers initialized at the first candidate value `x0`; from there each only
    /// advances (candidate midpoints never decrease).
    fn new(
        partitioned: &'a BandProj,
        duplicated: &'a BandProj,
        output: &'a BandProj,
        x0: f64,
    ) -> Self {
        let columns = [
            &partitioned.vals[..],
            &duplicated.minus,
            &duplicated.plus,
            &output.vals,
        ];
        RoleSweep {
            columns,
            at: columns.map(|col| col.partition_point(|&v| v < x0)),
        }
    }

    #[inline]
    fn advance_to(&mut self, x: f64) -> RoleCounts {
        for (col, p) in self.columns.iter().zip(&mut self.at) {
            advance(col, p, x);
        }
        self.at
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

    /// The sweep-line scorer's pass over one dimension's cached projections: every
    /// left/right count is maintained by a pointer that advances monotonically with
    /// the (non-decreasing) candidate values, so the whole dimension costs
    /// O(windows + points) with zero per-candidate binary searches.
    fn sweep_dim(&self, p: &DimProjection, dim: usize, leaf: &LeafTerms<'_>) -> (usize, BestSplit) {
        if p.bounds.len() < 2 {
            return (0, BestSplit::none());
        }
        let x0 = 0.5 * (p.bounds[0] + p.bounds[1]);
        let mut t_split = RoleSweep::new(&p.s, &p.t, &p.o_s, x0);
        // Under asymmetric partitioning `p.s` carries no shifted copies and `p.o_t` is
        // empty; these pointers then never move.
        let mut s_split = RoleSweep::new(&p.t, &p.s, &p.o_t, x0);
        self.score_candidates(&p.bounds, dim, leaf, |kind, x| match kind {
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
    use crate::band::BandCondition;
    use crate::config::RecPartConfig;
    use crate::relation::Relation;
    use crate::sample::{InputSample, OutputSample, SampleConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build an optimizer state over drawn samples and compare the sweep-line and
    /// binary-search scorers on the root leaf and (after applying the chosen
    /// split) on both children, exercising the incremental projection split.
    fn compare_scorers(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        symmetric: bool,
        sample_seed: u64,
    ) {
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
            return;
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
            let (l, r) = grown.split_plane(&state, root, plane);
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
