//! Columnar storage for relations participating in a band-join.
//!
//! A [`Relation`] stores, for each tuple, its vector of join-attribute values
//! (`d` values of type `f64`). Non-join attributes of the original relation are
//! irrelevant for partitioning decisions and are represented by the tuple's index,
//! which downstream code can use as a payload identifier.
//!
//! Storage is **column-major** (structure-of-arrays): one contiguous `Vec<f64>`
//! per join dimension. The hot paths — the compiled router's compare-mask descent,
//! split scoring, argsorts, min/max scans — each touch *one* dimension of *many*
//! tuples, so a column is the unit that streams through the cache (and through
//! SIMD lanes; see [`crate::simd`]). Reading the full key of one tuple becomes a
//! small gather across `d` columns ([`Relation::key`] returns an owned [`Key`]),
//! which is a constant-factor cost the per-tuple fallback paths pay — block
//! routing reads the columns directly and never gathers.
//!
//! # Non-finite keys
//!
//! NaN is rejected in every build: each constructor ([`Relation::from_flat`],
//! [`Relation::from_values_1d`], [`Relation::push`]) `assert!`s that no value is
//! NaN. A NaN key has no place on the band's number line — its every difference is
//! NaN, which *matches* its dimension (see
//! [`BandCondition::matches`](crate::BandCondition::matches)) — so a partitioner
//! that routes by comparisons cannot deliver its pairs exactly once, and the
//! output would be silently wrong. `±∞` is accepted: it orders below or above
//! every finite value, an infinite difference lies outside every finite band, and
//! `∞ − ∞` is NaN, so two equal infinities match like any two equal values. Every
//! ordering in this crate uses `f64::total_cmp`, which places `−∞` first and `+∞`
//! last.

use std::ops::Deref;

/// A relation restricted to its join attributes, stored one column per dimension.
///
/// Tuples are identified by their index in insertion order (`0..len`). See the
/// module docs for the storage layout and the non-finite-key policy.
#[derive(Debug, Clone)]
pub struct Relation {
    len: usize,
    /// Monotonically increasing mutation counter: bumped on every [`Relation::push`]
    /// and seeded with the tuple count by the bulk constructors. Plan caches key on
    /// it so a mutated dataset can never serve a stale cached arena.
    generation: u64,
    /// One contiguous value buffer per join dimension; all of length `len`.
    columns: Vec<Vec<f64>>,
}

/// Equality is over the *contents* (dimensionality and column values), not the
/// mutation history: a relation rebuilt tuple-by-tuple equals one built from a
/// flat buffer even though their [`Relation::generation`] counters differ.
/// Generation is an identity-over-time token for plan caching, not data.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.len == other.len && self.columns == other.columns
    }
}

/// An owned join-attribute vector gathered from the columns of a [`Relation`].
///
/// Keys up to 8 dimensions (every workload in the paper) live inline on the
/// stack; wider keys spill to a heap allocation. A `Key` derefs to `&[f64]`, so
/// call sites pass `&key` wherever a key slice is expected.
#[derive(Debug, Clone)]
pub struct Key {
    inline: [f64; Key::INLINE],
    len: usize,
    spill: Vec<f64>,
}

impl Key {
    /// Dimensions stored without a heap allocation.
    pub(crate) const INLINE: usize = 8;
}

impl Deref for Key {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        if self.len <= Key::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<[f64]> for Key {
    fn eq(&self, other: &[f64]) -> bool {
        self[..] == *other
    }
}

impl<const N: usize> PartialEq<[f64; N]> for Key {
    fn eq(&self, other: &[f64; N]) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[f64; N]> for Key {
    fn eq(&self, other: &&[f64; N]) -> bool {
        self[..] == other[..]
    }
}

impl Relation {
    /// Create an empty relation with `dims` join attributes.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "a relation needs at least one join attribute");
        Relation {
            len: 0,
            generation: 0,
            columns: vec![Vec::new(); dims],
        }
    }

    /// Create an empty relation with pre-allocated space for `capacity` tuples.
    pub fn with_capacity(dims: usize, capacity: usize) -> Self {
        assert!(dims > 0, "a relation needs at least one join attribute");
        Relation {
            len: 0,
            generation: 0,
            // Not `vec![..; dims]`: cloning an empty `Vec` drops its capacity.
            columns: (0..dims).map(|_| Vec::with_capacity(capacity)).collect(),
        }
    }

    /// Build a relation from a flat **row-major** buffer (the interchange format;
    /// the constructor transposes into columns).
    ///
    /// # Panics
    /// Panics if `dims == 0`, if the buffer length is not a multiple of `dims`, or
    /// if a value is NaN — see the module docs for the policy.
    pub fn from_flat(dims: usize, data: Vec<f64>) -> Self {
        assert!(dims > 0, "a relation needs at least one join attribute");
        assert!(
            data.len().is_multiple_of(dims),
            "flat buffer length {} is not a multiple of dims {}",
            data.len(),
            dims
        );
        assert_no_nan(&data);
        let len = data.len() / dims;
        let columns = (0..dims)
            .map(|d| data.iter().skip(d).step_by(dims).copied().collect())
            .collect();
        Relation {
            len,
            generation: len as u64,
            columns,
        }
    }

    /// Build a 1-dimensional relation from a slice of values.
    ///
    /// # Panics
    /// Panics if a value is NaN — see the module docs for the policy.
    pub fn from_values_1d(values: &[f64]) -> Self {
        assert_no_nan(values);
        Relation {
            len: values.len(),
            generation: values.len() as u64,
            columns: vec![values.to_vec()],
        }
    }

    /// Number of join attributes (the dimensionality `d` of the band-join).
    #[inline]
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mutation generation: a counter bumped on every [`Relation::push`]
    /// (and seeded with the tuple count by the bulk constructors), so any
    /// observable change to the data strictly increases it. Derived state
    /// computed against an earlier generation — a cached partitioning, a
    /// shuffled arena — is stale exactly when the generations differ.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Append one tuple.
    ///
    /// # Panics
    /// Panics if `key.len() != self.dims()`, or if a value is NaN — see the module
    /// docs for the policy.
    #[inline]
    pub fn push(&mut self, key: &[f64]) {
        assert_eq!(
            key.len(),
            self.dims(),
            "tuple has {} attributes, relation expects {}",
            key.len(),
            self.dims()
        );
        assert_no_nan(key);
        for (col, &v) in self.columns.iter_mut().zip(key) {
            col.push(v);
        }
        self.len += 1;
        self.generation += 1;
    }

    /// The join-attribute vector of tuple `i`, gathered across the columns.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn key(&self, i: usize) -> Key {
        assert!(i < self.len, "tuple index {i} out of range ({})", self.len);
        let dims = self.dims();
        let mut key = Key {
            inline: [0.0; Key::INLINE],
            len: dims,
            spill: Vec::new(),
        };
        if dims <= Key::INLINE {
            for (slot, col) in key.inline.iter_mut().zip(&self.columns) {
                *slot = col[i];
            }
        } else {
            key.spill = self.columns.iter().map(|col| col[i]).collect();
        }
        key
    }

    /// Value of attribute `dim` of tuple `i`.
    #[inline]
    pub fn value(&self, i: usize, dim: usize) -> f64 {
        self.columns[dim][i]
    }

    /// The contiguous value column of dimension `dim` (length [`Relation::len`]).
    #[inline]
    pub fn column(&self, dim: usize) -> &[f64] {
        &self.columns[dim]
    }

    /// Iterate over all tuple keys in insertion order (each an owned [`Key`]).
    pub fn iter(&self) -> Keys<'_> {
        Keys { rel: self, i: 0 }
    }

    /// Materialize the row-major interchange form of the relation.
    pub fn to_flat(&self) -> Vec<f64> {
        let dims = self.dims();
        let mut out = vec![0.0; self.len * dims];
        for (d, col) in self.columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                out[i * dims + d] = v;
            }
        }
        out
    }

    /// Per-dimension minimum over all tuples, or `None` if empty.
    pub fn min_per_dim(&self) -> Option<Vec<f64>> {
        self.fold_per_dim(f64::INFINITY, f64::min)
    }

    fn fold_per_dim(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> Option<Vec<f64>> {
        if self.is_empty() {
            return None;
        }
        Some(
            self.columns
                .iter()
                .map(|col| col.iter().fold(init, |a, &v| f(a, v)))
                .collect(),
        )
    }
}

/// Iterator over the keys of a [`Relation`] in insertion order.
pub struct Keys<'a> {
    rel: &'a Relation,
    i: usize,
}

impl Iterator for Keys<'_> {
    type Item = Key;

    #[inline]
    fn next(&mut self) -> Option<Key> {
        if self.i < self.rel.len {
            let key = self.rel.key(self.i);
            self.i += 1;
            Some(key)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rel.len - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Keys<'_> {}

impl<'a> IntoIterator for &'a Relation {
    type Item = Key;
    type IntoIter = Keys<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The constructors' one value check (module docs, "Non-finite keys").
#[inline]
fn assert_no_nan(values: &[f64]) {
    assert!(
        !values.iter().any(|v| v.is_nan()),
        "join-attribute values must not be NaN"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_relation() -> Relation {
        let mut r = Relation::new(3);
        r.push(&[1.0, 2.0, 3.0]);
        r.push(&[4.0, 5.0, 6.0]);
        r.push(&[-1.0, 0.5, 9.0]);
        r
    }

    #[test]
    fn push_and_access() {
        let r = sample_relation();
        assert_eq!(r.len(), 3);
        assert_eq!(r.dims(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.key(0), &[1.0, 2.0, 3.0]);
        assert_eq!(r.key(2), &[-1.0, 0.5, 9.0]);
        assert_eq!(r.value(1, 1), 5.0);
    }

    #[test]
    fn columns_are_contiguous_per_dimension() {
        let r = sample_relation();
        assert_eq!(r.column(0), &[1.0, 4.0, -1.0]);
        assert_eq!(r.column(1), &[2.0, 5.0, 0.5]);
        assert_eq!(r.column(2), &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn iteration_matches_indexing() {
        let r = sample_relation();
        let collected: Vec<Key> = r.iter().collect();
        assert_eq!(collected.len(), 3);
        for (i, key) in collected.iter().enumerate() {
            assert_eq!(*key, r.key(i));
        }
        let via_into: Vec<Key> = (&r).into_iter().collect();
        assert_eq!(via_into, collected);
    }

    /// The optimizer's argsort (`InputSample::argsort_by_dim`) over a full-size sample
    /// of `r`, which holds every key in relation order.
    fn argsort(r: &Relation, dim: usize) -> Vec<u32> {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        crate::InputSample::draw(r, r.len(), &mut rng).argsort_by_dim(dim)
    }

    #[test]
    fn wide_keys_spill_but_stay_correct() {
        let dims = Key::INLINE + 3;
        let mut r = Relation::new(dims);
        let row: Vec<f64> = (0..dims).map(|d| d as f64 * 1.5).collect();
        r.push(&row);
        assert_eq!(&r.key(0)[..], &row[..]);
    }

    #[test]
    fn min_max_per_dim() {
        let r = sample_relation();
        assert_eq!(r.min_per_dim().unwrap(), vec![-1.0, 0.5, 3.0]);
        let empty = Relation::new(2);
        assert!(empty.min_per_dim().is_none());
    }

    #[test]
    fn from_flat_and_to_flat_roundtrip() {
        let r = Relation::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.key(1), &[3.0, 4.0]);
        assert_eq!(r.column(0), &[1.0, 3.0]);
        assert_eq!(r.to_flat(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_values_1d() {
        let r = Relation::from_values_1d(&[5.0, 1.0, 3.0]);
        assert_eq!(r.dims(), 1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.value(2, 0), 3.0);
    }

    #[test]
    fn argsort_by_dim_orders_values() {
        let r = sample_relation();
        assert_eq!(argsort(&r, 0), vec![2, 0, 1]);
        assert_eq!(argsort(&r, 2), vec![0, 1, 2]);
    }

    /// The constructors keep NaN out, but the optimizer's argsort must not depend on
    /// that for its own soundness: it orders by `total_cmp` — NaN last, like the
    /// local-join sorts — instead of panicking on a `partial_cmp().expect()`. The
    /// relation is built field by field to get a NaN past the ingress check.
    #[test]
    fn argsort_orders_nan_last_instead_of_panicking() {
        let r = Relation {
            len: 4,
            generation: 4,
            columns: vec![vec![f64::NAN, 1.0, 5.0, -3.0]],
        };
        assert_eq!(argsort(&r, 0), vec![3, 1, 2, 0], "NaN must sort last");
    }

    /// A NaN key is rejected by `push` — in every build since the ingress check
    /// became an `assert!`, not only in debug builds.
    #[test]
    #[should_panic(expected = "NaN")]
    fn push_rejects_non_finite_keys_in_debug() {
        let mut r = Relation::new(1);
        r.push(&[f64::NAN]);
    }

    /// The ingress policy, identical in debug and release: NaN of either sign is
    /// rejected by every constructor, `±∞` is accepted and sorts by `total_cmp` in the
    /// optimizer's argsort (`InputSample::argsort_by_dim`, over a full-size sample).
    #[test]
    fn constructors_reject_nan_and_accept_infinities() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let rejects = |build: &dyn Fn()| {
            let err = catch_unwind(AssertUnwindSafe(build)).expect_err("NaN must be rejected");
            let msg = err
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("NaN"), "unexpected panic message {msg:?}");
        };
        for nan in [f64::NAN, -f64::NAN] {
            rejects(&|| drop(Relation::from_flat(2, vec![1.0, 2.0, nan, 3.0])));
            rejects(&|| drop(Relation::from_values_1d(&[0.0, nan])));
            rejects(&|| Relation::new(2).push(&[4.0, nan]));
        }

        let inf = f64::INFINITY;
        let flat = Relation::from_flat(2, vec![inf, 1.0, -inf, inf, 0.0, -inf]);
        assert_eq!(flat.len(), 3);
        assert_eq!(argsort(&flat, 0), vec![1, 2, 0]);
        assert_eq!(argsort(&flat, 1), vec![2, 0, 1]);
        let one_d = Relation::from_values_1d(&[inf, 1.0, -inf, -3.0]);
        assert_eq!(argsort(&one_d, 0), vec![2, 3, 1, 0]);
        let mut pushed = Relation::new(2);
        for key in flat.iter() {
            pushed.push(&key);
        }
        assert_eq!(pushed, flat);
    }

    #[test]
    #[should_panic(expected = "attributes")]
    fn push_wrong_arity_panics() {
        let mut r = Relation::new(2);
        r.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn from_flat_wrong_length_panics() {
        let _ = Relation::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let r = Relation::with_capacity(4, 100);
        assert!(r.is_empty());
        assert_eq!(r.dims(), 4);
    }

    /// Every mutation strictly increases the generation, bulk constructors seed
    /// it with the tuple count, and equality ignores it (a rebuilt relation with
    /// the same contents compares equal despite a different mutation history).
    #[test]
    fn generation_bumps_on_every_mutation_but_not_equality() {
        let mut r = Relation::new(2);
        assert_eq!(r.generation(), 0);
        r.push(&[1.0, 2.0]);
        r.push(&[3.0, 4.0]);
        assert_eq!(r.generation(), 2);

        let flat = Relation::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(flat.generation(), 2);
        assert_eq!(flat, r);

        let mut rebuilt = Relation::from_flat(2, vec![1.0, 2.0]);
        rebuilt.push(&[3.0, 4.0]);
        assert_eq!(rebuilt.generation(), 2);
        assert_eq!(rebuilt, r, "equality is over contents, not history");

        let before = r.generation();
        r.push(&[5.0, 6.0]);
        assert!(r.generation() > before, "push must advance the generation");
        assert_ne!(r, flat);

        // Clones carry the generation.
        assert_eq!(r.clone().generation(), r.generation());
    }
}
