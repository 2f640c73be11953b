//! A leaf's cached sorted projections, and how a plane split hands them to its
//! children.
//!
//! Built exactly once per leaf: at the root by argsorting the samples, at every plane
//! split by a stable linear partition of the parent's arrays — so no leaf visit ever
//! re-sorts, and the work per split is proportional to the leaf's sample size. The
//! sweep-line scorer reads them.

use super::{OptimizerState, Plane};
use crate::scoring::merge_dedup;

/// One sorted projection column: sample indices ordered ascending by the key value in
/// some dimension (`f64::total_cmp` order), **plus the projected values themselves**
/// in the same order — caching the values next to the indices lets the sweep scorer
/// read its per-visit value arrays straight out of the leaf instead of re-gathering
/// them from the samples, a deliberate memory-for-time trade.
///
/// A projection of an *input* side that some split kind duplicates also carries the
/// **band-shifted copies** of its value array: `minus[k] = vals[k] − ε` and
/// `plus[k] = vals[k] + ε` (with that side's duplication shifts). Shifting by a
/// constant is monotone under IEEE rounding, so the shifted copies of a sorted array
/// are sorted and let the sweep answer the reference scorer's shifted
/// `partition_point` predicates (`v − ε < x` etc.) with plain `< x` pointer advances.
/// The shifted arrays are pure elementwise functions of `vals`, so they are computed
/// once — at the root — and thereafter **split to children in lockstep** with the
/// values. `minus`/`plus` stay empty when nothing reads them: the output projections,
/// and the S side under asymmetric partitioning, where only T-splits are scored.
#[derive(Debug, Clone, Default)]
pub(super) struct BandProj {
    pub(super) idx: Vec<u32>,
    pub(super) vals: Vec<f64>,
    pub(super) minus: Vec<f64>,
    pub(super) plus: Vec<f64>,
}

impl BandProj {
    /// Materialize an argsorted index array's values plus, when `shifts` is
    /// `Some((sub, add))`, the band-shifted copies `vals − sub` / `vals + add`.
    fn gather(idx: Vec<u32>, value_of: impl Fn(u32) -> f64, shifts: Option<(f64, f64)>) -> Self {
        let vals: Vec<f64> = idx.iter().map(|&i| value_of(i)).collect();
        let (minus, plus) = match shifts {
            Some((sub, add)) => (
                vals.iter().map(|&v| v - sub).collect(),
                vals.iter().map(|&v| v + add).collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        BandProj {
            idx,
            vals,
            minus,
            plus,
        }
    }

    /// An empty projection shaped like `src` (shifted columns enabled iff `src`
    /// carries them), with capacity for `src`'s length.
    fn like(src: &BandProj) -> Self {
        BandProj {
            idx: Vec::with_capacity(src.idx.len()),
            vals: Vec::with_capacity(src.vals.len()),
            minus: Vec::with_capacity(src.minus.len()),
            plus: Vec::with_capacity(src.plus.len()),
        }
    }

    /// Copy entry `k` of `src` (index, value, and any shifted columns) to the end.
    #[inline]
    fn push_from(&mut self, src: &BandProj, k: usize) {
        self.idx.push(src.idx[k]);
        self.vals.push(src.vals[k]);
        if !src.minus.is_empty() {
            self.minus.push(src.minus[k]);
        }
        if !src.plus.is_empty() {
            self.plus.push(src.plus[k]);
        }
    }

    /// Stable partition over the two children of a split: every entry goes to each
    /// child `children` names for its sample index — exactly one for the partitioned
    /// side and the output pairs, one or both for the duplicated side. Relative order
    /// is preserved, so both outputs stay sorted by whatever key ordered the input,
    /// and the shifted columns travel with their entries (every output array is a
    /// subsequence of its input, so the children's shifted copies are bit-identical
    /// to recomputing them from the children's values).
    fn partition(&self, children: impl Fn(u32) -> (bool, bool)) -> (BandProj, BandProj) {
        let mut left = BandProj::like(self);
        let mut right = BandProj::like(self);
        for (k, &i) in self.idx.iter().enumerate() {
            let (l, r) = children(i);
            if l {
                left.push_from(self, k);
            }
            if r {
                right.push_from(self, k);
            }
        }
        (left, right)
    }
}

/// One dimension's cached sorted projections of a leaf's sample points: `s`/`t` index
/// the input samples, `o_s`/`o_t` index output pairs by their S-side / T-side key
/// (`o_t` stays empty unless symmetric partitioning is enabled — only S-splits score
/// against the T-side order).
///
/// `bounds` caches the candidate split boundaries — the distinct values of the
/// combined input sample ([`merge_dedup`] of `s.vals` and `t.vals`) — so a leaf visit
/// materializes nothing: the boundaries are derived once per leaf when its value
/// arrays are built (at the root, or from the freshly split child arrays).
#[derive(Debug, Clone, Default)]
pub(super) struct DimProjection {
    pub(super) s: BandProj,
    pub(super) t: BandProj,
    pub(super) o_s: BandProj,
    pub(super) o_t: BandProj,
    pub(super) bounds: Vec<f64>,
}

impl DimProjection {
    fn new(s: BandProj, t: BandProj, o_s: BandProj, o_t: BandProj) -> Self {
        let bounds = merge_dedup(&s.vals, &t.vals);
        DimProjection {
            s,
            t,
            o_s,
            o_t,
            bounds,
        }
    }
}

/// Cached per-dimension sorted projections of a leaf.
#[derive(Debug, Clone, Default)]
pub(super) struct LeafProjections {
    pub(super) dims: Vec<DimProjection>,
}

impl OptimizerState<'_> {
    /// The root leaf's projections, if the root is a plane candidate (no other leaf
    /// ever plane-splits): the samples argsorted once per dimension. The band-shifted
    /// copies and the candidate boundaries are computed here too — like the value
    /// arrays, they are built exactly once per leaf.
    pub(super) fn root_projections(&self, root_wanted: bool) -> Option<LeafProjections> {
        if !root_wanted {
            return None;
        }
        let build = |d: usize| {
            let eps_lo = self.band.eps_low(d);
            let eps_hi = self.band.eps_high(d);
            // T is duplicated by T-splits with tests `t − ε_lo < x` / `t + ε_hi ≥ x`;
            // S only needs its (role-swapped) shifts under symmetric partitioning.
            let s = BandProj::gather(
                self.s_sample.argsort_by_dim(d),
                |i| self.s_sample.key(i as usize)[d],
                self.cfg.symmetric.then_some((eps_hi, eps_lo)),
            );
            let t = BandProj::gather(
                self.t_sample.argsort_by_dim(d),
                |i| self.t_sample.key(i as usize)[d],
                Some((eps_lo, eps_hi)),
            );
            let o_s = BandProj::gather(
                self.o_sample.argsort_by_s_dim(d),
                |i| self.o_sample.s_key(i as usize)[d],
                None,
            );
            let o_t = if self.cfg.symmetric {
                BandProj::gather(
                    self.o_sample.argsort_by_t_dim(d),
                    |i| self.o_sample.t_key(i as usize)[d],
                    None,
                )
            } else {
                BandProj::default()
            };
            DimProjection::new(s, t, o_s, o_t)
        };
        Some(LeafProjections {
            dims: (0..self.dims).map(build).collect(),
        })
    }

    /// Distribute a split leaf's cached projections to the children that are plane
    /// candidates — no other leaf ever plane-splits, so their arrays would be dead
    /// weight. Every column of every dimension goes through [`BandProj::partition`]
    /// under the role `plane` gives its side, and each child's candidate boundaries
    /// are re-derived from its freshly split value arrays — so no later leaf visit
    /// materializes anything.
    pub(super) fn child_projections(
        &self,
        parent: Option<&LeafProjections>,
        plane: Plane,
        (left_wanted, right_wanted): (bool, bool),
    ) -> (Option<LeafProjections>, Option<LeafProjections>) {
        if !left_wanted && !right_wanted {
            return (None, None);
        }
        let parent = parent.expect("regular leaf has cached projections");
        let split_dim = |src: &DimProjection| {
            let (sl, sr) = src.s.partition(|i| self.s_children(plane, i));
            let (tl, tr) = src.t.partition(|i| self.t_children(plane, i));
            let (osl, osr) = src.o_s.partition(|i| self.o_children(plane, i));
            let (otl, otr) = src.o_t.partition(|i| self.o_children(plane, i));
            (
                DimProjection::new(sl, tl, osl, otl),
                DimProjection::new(sr, tr, osr, otr),
            )
        };
        let (left, right) = parent.dims.iter().map(split_dim).unzip();
        (
            left_wanted.then_some(LeafProjections { dims: left }),
            right_wanted.then_some(LeafProjections { dims: right }),
        )
    }
}
