//! Split scoring: the ratio of load-variance reduction to input-duplication increase.
//!
//! Section 4.2 of the paper: assign every split-tree leaf to a randomly selected worker;
//! per-worker load is then a random variable with variance
//! `V[P] = (w−1)/w² · Σ_p l_p²` where `l_p = β₂·I_p + β₃·O_p` is the load induced by
//! partition `p`. A candidate split replaces one term of the sum by the terms of the
//! resulting sub-partitions; its **score** is the ratio of the variance *reduction* to
//! the *increase* in input duplication it causes.
//!
//! Splits that cause no duplication are the most desirable; among them the paper ranks
//! by variance reduction. To keep the ratio well defined (and to prevent a trivial
//! zero-duplication split of an almost-empty leaf from starving the split of a heavily
//! loaded leaf that costs a handful of duplicates), the duplication denominator is
//! floored at **one input tuple**: a zero-duplication split therefore scores its full
//! variance reduction, and any split of a heavy partition still wins as soon as its
//! per-duplicate variance reduction is larger.

use std::cmp::Ordering;

/// The smallest duplication increase used as a ratio denominator (one input tuple).
pub(crate) const MIN_DUPLICATION_DENOMINATOR: f64 = 1.0;

/// Score of a candidate split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitScore {
    /// A useful split (positive variance reduction).
    Useful {
        /// `ΔVar / max(ΔDup, 1 tuple)` — higher is better.
        score: f64,
        /// Whether the split causes no input duplication at all.
        zero_duplication: bool,
    },
    /// The leaf has no useful split (no candidates, or none reduces variance).
    NotSplittable,
}

impl SplitScore {
    /// Build a score from a variance reduction and a duplication increase.
    /// Non-positive (or non-finite) variance reductions yield [`SplitScore::NotSplittable`].
    pub fn new(variance_reduction: f64, duplication_increase: f64) -> Self {
        if variance_reduction <= 0.0 || !variance_reduction.is_finite() {
            return SplitScore::NotSplittable;
        }
        let zero_duplication = duplication_increase <= 0.0;
        let denominator = duplication_increase.max(MIN_DUPLICATION_DENOMINATOR);
        SplitScore::Useful {
            score: variance_reduction / denominator,
            zero_duplication,
        }
    }

    /// The comparable value (−∞ for [`SplitScore::NotSplittable`]).
    fn value(&self) -> f64 {
        match self {
            SplitScore::Useful { score, .. } => *score,
            SplitScore::NotSplittable => f64::NEG_INFINITY,
        }
    }

    /// Is this a usable split?
    pub(crate) fn is_splittable(&self) -> bool {
        !matches!(self, SplitScore::NotSplittable)
    }
}

impl PartialOrd for SplitScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SplitScore {}

impl Ord for SplitScore {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value()
            .partial_cmp(&other.value())
            .unwrap_or(Ordering::Equal)
    }
}

/// The constant factor `(w−1)/w²` of the load-variance formula.
///
/// It is shared by every term of the variance sum, so it does not change the *relative*
/// ranking of splits, but we keep it for fidelity with the paper (and so that reported
/// variance values are meaningful).
#[inline]
pub(crate) fn variance_factor(workers: usize) -> f64 {
    assert!(workers > 0, "need at least one worker");
    let w = workers as f64;
    (w - 1.0) / (w * w)
}

/// Load `l_p = β₂·I_p + β₃·O_p` induced by a partition with estimated input `input` and
/// output `output`.
#[inline]
pub(crate) fn partition_load(beta_input: f64, beta_output: f64, input: f64, output: f64) -> f64 {
    beta_input * input + beta_output * output
}

/// Contribution `(w−1)/w² · l_p²` of one partition to the load variance.
#[inline]
pub(crate) fn variance_term(workers: usize, load: f64) -> f64 {
    variance_factor(workers) * load * load
}

/// Merge two individually sorted (by `f64::total_cmp`) value arrays into their sorted
/// sequence of *distinct* values, replicating `sort_unstable_by(total_cmp)` followed
/// by `dedup()` (which removes consecutive `==`-equal values) on the concatenation.
///
/// This is how the sweep scorer derives a dimension's candidate split boundaries from
/// the leaf's cached S and T value columns, once per scored leaf (see `recpart`'s
/// `sweep_dim`).
pub(crate) fn merge_dedup(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i].total_cmp(&b[j]).is_le());
        let v = if take_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        match out.last() {
            Some(&last) if last == v => {}
            _ => out.push(v),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duplication_wins_at_equal_variance_reduction() {
        let zero = SplitScore::new(100.0, 0.0);
        let with_dup = SplitScore::new(100.0, 5.0);
        assert!(zero > with_dup);
        let zero_dup = |score: &SplitScore| {
            matches!(
                score,
                SplitScore::Useful {
                    zero_duplication: true,
                    ..
                }
            )
        };
        assert!(zero_dup(&zero));
        assert!(!zero_dup(&with_dup));
    }

    #[test]
    fn heavy_leaf_split_beats_trivial_zero_dup_split() {
        // A split of a heavily loaded leaf (huge variance reduction, some duplication)
        // must outrank a zero-duplication split with negligible variance reduction —
        // otherwise the optimizer would starve the hot partition.
        let heavy = SplitScore::new(1e10, 300.0); // score ≈ 3.3e7
        let trivial_zero_dup = SplitScore::new(1e4, 0.0); // score = 1e4
        assert!(heavy > trivial_zero_dup);
    }

    #[test]
    fn ratios_compare_by_value() {
        let a = SplitScore::new(10.0, 2.0); // ratio 5
        let b = SplitScore::new(9.0, 1.0); // ratio 9
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn zero_dup_compare_by_variance_reduction() {
        let a = SplitScore::new(5.0, 0.0);
        let b = SplitScore::new(7.0, 0.0);
        assert!(b > a);
    }

    #[test]
    fn sub_tuple_duplication_is_floored() {
        // Duplication below one tuple cannot inflate the ratio.
        let tiny_dup = SplitScore::new(10.0, 0.001);
        let zero_dup = SplitScore::new(10.0, 0.0);
        assert_eq!(tiny_dup.cmp(&zero_dup), Ordering::Equal);
    }

    #[test]
    fn non_positive_variance_reduction_is_not_splittable() {
        assert_eq!(SplitScore::new(0.0, 1.0), SplitScore::NotSplittable);
        assert_eq!(SplitScore::new(-3.0, 0.0), SplitScore::NotSplittable);
        assert_eq!(SplitScore::new(f64::NAN, 1.0), SplitScore::NotSplittable);
        assert!(!SplitScore::NotSplittable.is_splittable());
        assert!(SplitScore::new(1.0, 1.0).is_splittable());
    }

    #[test]
    fn not_splittable_is_worst() {
        let worst = SplitScore::NotSplittable;
        assert!(worst < SplitScore::new(1e-12, 1e12));
        assert!(worst < SplitScore::new(1e-12, 0.0));
        assert_eq!(worst.cmp(&SplitScore::NotSplittable), Ordering::Equal);
    }

    #[test]
    fn variance_factor_matches_formula() {
        assert!((variance_factor(2) - 0.25).abs() < 1e-15);
        assert!((variance_factor(30) - 29.0 / 900.0).abs() < 1e-15);
        assert_eq!(variance_factor(1), 0.0);
    }

    #[test]
    fn variance_term_and_load() {
        let l = partition_load(4.0, 1.0, 10.0, 20.0); // 60
        assert_eq!(l, 60.0);
        let v = variance_term(2, l);
        assert!((v - 0.25 * 3600.0).abs() < 1e-12);
    }

    #[test]
    fn merge_dedup_replicates_sort_and_dedup() {
        let a = [1.0, 1.0, 2.5, 4.0];
        let b = [0.5, 2.5, 2.5, 7.0];
        let merged = merge_dedup(&a, &b);
        let mut reference: Vec<f64> = a.iter().chain(&b).copied().collect();
        reference.sort_unstable_by(f64::total_cmp);
        reference.dedup();
        assert_eq!(merged, reference);
        assert!(merge_dedup(&[], &[]).is_empty());
        assert_eq!(merge_dedup(&[3.0], &[]), vec![3.0]);
    }

    #[test]
    fn splitting_balanced_halves_reduces_variance() {
        // One partition of load 100 split into two of load 50 each:
        // variance drops from f·100² to f·2·50² = f·5000 < f·10000.
        let before = variance_term(4, 100.0);
        let after = 2.0 * variance_term(4, 50.0);
        assert!(after < before);
    }
}
