//! A leaf's cached sorted projections, and how a plane split hands them to its
//! children.
//!
//! Built exactly once per leaf: at the root by argsorting the samples, at every plane
//! split by a stable linear partition of the parent's arrays — so no leaf visit ever
//! re-sorts, and the work per split is proportional to the leaf's sample size. The
//! projections hold only what the sort produced; where each point goes is decided
//! once per split, by the caller, and read here from a [`SplitRecord`]. The
//! sweep-line scorer reads them.

use super::OptimizerState;

/// One sorted projection column: sample indices ordered ascending by the key value in
/// some dimension (`f64::total_cmp` order), **plus the projected values themselves**
/// in the same order, so the sweep scorer reads its value arrays straight out of the
/// leaf instead of re-gathering them from the samples.
///
/// Nothing derived from the values is cached: each regular leaf is scored once, so a
/// band-shifted copy or a boundary list would be copied at every split and read once.
/// The sweep shifts the values as it compares them.
#[derive(Debug, Clone, Default)]
pub(super) struct BandProj {
    pub(super) idx: Vec<u32>,
    pub(super) vals: Vec<f64>,
}

impl BandProj {
    /// Materialize an argsorted index array's values.
    fn gather(idx: Vec<u32>, value_of: impl Fn(u32) -> f64) -> Self {
        let vals = idx.iter().map(|&i| value_of(i)).collect();
        BandProj { idx, vals }
    }

    /// Stable partition over the two children of a split, appended to `left` and
    /// `right`: every entry goes to each child `children[i]` names for its sample
    /// index `i` — exactly one for the partitioned side and the output pairs, one or
    /// both for the duplicated side. Relative order is preserved, so both outputs stay
    /// sorted by whatever key ordered the input.
    fn partition(&self, children: &[(bool, bool)], left: &mut BandProj, right: &mut BandProj) {
        for half in [&mut *left, &mut *right] {
            half.idx.reserve(self.idx.len());
            half.vals.reserve(self.vals.len());
        }
        for (&i, &v) in self.idx.iter().zip(&self.vals) {
            let (l, r) = children[i as usize];
            if l {
                left.idx.push(i);
                left.vals.push(v);
            }
            if r {
                right.idx.push(i);
                right.vals.push(v);
            }
        }
    }
}

/// One dimension's cached sorted projections of a leaf's sample points: `s`/`t` index
/// the input samples, `o_s`/`o_t` index output pairs by their S-side / T-side key
/// (`o_t` stays empty unless symmetric partitioning is enabled — only S-splits score
/// against the T-side order).
#[derive(Debug, Clone, Default)]
pub(super) struct DimProjection {
    pub(super) s: BandProj,
    pub(super) t: BandProj,
    pub(super) o_s: BandProj,
    pub(super) o_t: BandProj,
}

/// Cached per-dimension sorted projections of a leaf.
#[derive(Debug, Clone, Default)]
pub(super) struct LeafProjections {
    pub(super) dims: Vec<DimProjection>,
}

/// Where one plane split sends each sample point: the children `(left, right)` of
/// S-sample point `i` are `s[i]`, and likewise for T and the output sample. Each
/// vector spans its whole sample and is reused from split to split; only the entries
/// of the leaf being split are meaningful.
#[derive(Debug, Clone, Default)]
pub(super) struct SplitRecord {
    pub(super) s: Vec<(bool, bool)>,
    pub(super) t: Vec<(bool, bool)>,
    pub(super) o: Vec<(bool, bool)>,
}

impl OptimizerState<'_> {
    /// The root leaf's projections, if the root is a plane candidate (no other leaf
    /// ever plane-splits): the samples argsorted once per dimension.
    pub(super) fn root_projections(&self, root_wanted: bool) -> Option<LeafProjections> {
        if !root_wanted {
            return None;
        }
        let build = |d: usize| DimProjection {
            s: BandProj::gather(self.s_sample.argsort_by_dim(d), |i| {
                self.s_sample.key(i as usize)[d]
            }),
            t: BandProj::gather(self.t_sample.argsort_by_dim(d), |i| {
                self.t_sample.key(i as usize)[d]
            }),
            o_s: BandProj::gather(self.o_sample.argsort_by_s_dim(d), |i| {
                self.o_sample.s_key(i as usize)[d]
            }),
            o_t: if self.cfg.symmetric {
                BandProj::gather(self.o_sample.argsort_by_t_dim(d), |i| {
                    self.o_sample.t_key(i as usize)[d]
                })
            } else {
                BandProj::default()
            },
        };
        Some(LeafProjections {
            dims: (0..self.dims).map(build).collect(),
        })
    }
}

/// Distribute a split leaf's cached projections to the children that are plane
/// candidates — no other leaf ever plane-splits, so their arrays would be dead weight.
/// Every column of every dimension goes through [`BandProj::partition`] under the
/// decisions `record` holds for its sample.
pub(super) fn child_projections(
    parent: Option<&LeafProjections>,
    record: &SplitRecord,
    (left_wanted, right_wanted): (bool, bool),
) -> (Option<LeafProjections>, Option<LeafProjections>) {
    if !left_wanted && !right_wanted {
        return (None, None);
    }
    let parent = parent.expect("regular leaf has cached projections");
    let split_dim = |src: &DimProjection| {
        let (mut left, mut right) = (DimProjection::default(), DimProjection::default());
        src.s.partition(&record.s, &mut left.s, &mut right.s);
        src.t.partition(&record.t, &mut left.t, &mut right.t);
        src.o_s.partition(&record.o, &mut left.o_s, &mut right.o_s);
        src.o_t.partition(&record.o, &mut left.o_t, &mut right.o_t);
        (left, right)
    };
    let (left, right) = parent.dims.iter().map(split_dim).unzip();
    (
        left_wanted.then_some(LeafProjections { dims: left }),
        right_wanted.then_some(LeafProjections { dims: right }),
    )
}
