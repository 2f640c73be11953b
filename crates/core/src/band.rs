//! Band-join conditions.
//!
//! A band-join `S ⋈_B T` in `d` dimensions returns all pairs `(s, t)` with
//! `|s.A_i − t.A_i| ≤ ε_i` for every join attribute `A_i` (Section 2 of the paper).
//! The paper notes that all results generalize to *asymmetric* band conditions
//! `t.A_i − ε_i^L ≤ s.A_i ≤ t.A_i + ε_i^R`; [`BandCondition`] supports both forms.

use crate::error::RecPartError;

/// A (possibly asymmetric) band condition over `d` join attributes.
///
/// For the symmetric case, `eps_low[i] == eps_high[i] == ε_i`. A pair `(s, t)`
/// joins iff for every dimension `i`:
///
/// ```text
/// t.A_i − eps_low[i] ≤ s.A_i ≤ t.A_i + eps_high[i]
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandCondition {
    eps_low: Vec<f64>,
    eps_high: Vec<f64>,
}

impl BandCondition {
    /// Symmetric band condition: `|s.A_i − t.A_i| ≤ eps[i]`.
    ///
    /// # Panics
    /// Panics if any band width is negative or not finite (use
    /// [`BandCondition::try_symmetric`] for a fallible constructor).
    pub fn symmetric(eps: &[f64]) -> Self {
        Self::try_symmetric(eps).expect("invalid band width")
    }

    /// Fallible version of [`BandCondition::symmetric`].
    pub fn try_symmetric(eps: &[f64]) -> Result<Self, RecPartError> {
        Self::try_asymmetric(eps, eps)
    }

    /// Asymmetric band condition: `t.A_i − eps_low[i] ≤ s.A_i ≤ t.A_i + eps_high[i]`.
    pub fn try_asymmetric(eps_low: &[f64], eps_high: &[f64]) -> Result<Self, RecPartError> {
        if eps_low.len() != eps_high.len() {
            return Err(RecPartError::DimensionMismatch {
                expected: eps_low.len(),
                found: eps_high.len(),
            });
        }
        if eps_low.is_empty() {
            return Err(RecPartError::InvalidConfig {
                message: "band condition needs at least one dimension".into(),
            });
        }
        for (dim, &e) in eps_low.iter().chain(eps_high.iter()).enumerate() {
            if !e.is_finite() || e < 0.0 {
                return Err(RecPartError::InvalidBandWidth {
                    dimension: dim % eps_low.len(),
                    value: e,
                });
            }
        }
        Ok(BandCondition {
            eps_low: eps_low.to_vec(),
            eps_high: eps_high.to_vec(),
        })
    }

    /// A symmetric band condition with the same width in every one of `dims` dimensions.
    pub fn uniform(dims: usize, eps: f64) -> Self {
        Self::symmetric(&vec![eps; dims])
    }

    /// An equi-join condition (band width 0 in every dimension).
    pub fn equi(dims: usize) -> Self {
        Self::uniform(dims, 0.0)
    }

    /// Number of join attributes.
    #[inline]
    pub fn dims(&self) -> usize {
        self.eps_low.len()
    }

    /// Lower band width in dimension `dim` (`ε_i^L`).
    #[inline]
    pub fn eps_low(&self, dim: usize) -> f64 {
        self.eps_low[dim]
    }

    /// Upper band width in dimension `dim` (`ε_i^R`).
    #[inline]
    pub fn eps_high(&self, dim: usize) -> f64 {
        self.eps_high[dim]
    }

    /// For symmetric conditions, the band width in dimension `dim`; for asymmetric
    /// conditions, the maximum of the lower and upper width (a conservative radius).
    #[inline]
    pub fn eps(&self, dim: usize) -> f64 {
        self.eps_low[dim].max(self.eps_high[dim])
    }

    /// All symmetric band widths as a slice (only meaningful for symmetric conditions).
    pub fn eps_all(&self) -> &[f64] {
        &self.eps_low
    }

    /// All lower band widths (`ε_i^L`) as a slice, indexed by dimension.
    #[inline]
    pub fn eps_low_all(&self) -> &[f64] {
        &self.eps_low
    }

    /// All upper band widths (`ε_i^R`) as a slice, indexed by dimension.
    #[inline]
    pub fn eps_high_all(&self) -> &[f64] {
        &self.eps_high
    }

    /// Whether the condition is symmetric in every dimension.
    pub fn is_symmetric(&self) -> bool {
        self.eps_low
            .iter()
            .zip(&self.eps_high)
            .all(|(l, h)| (l - h).abs() == 0.0)
    }

    /// Whether this is an equi-join (zero band width everywhere).
    pub fn is_equi(&self) -> bool {
        self.eps_low.iter().all(|&e| e == 0.0) && self.eps_high.iter().all(|&e| e == 0.0)
    }

    /// Does the pair `(s, t)` satisfy the band condition?
    ///
    /// The test is written as its *reject* conditions, `s_i − t_i < −ε_low` or
    /// `s_i − t_i > ε_high`, and every comparison with NaN is false — so a
    /// dimension whose difference is NaN (a NaN coordinate, or `inf − inf`)
    /// **matches**; only the other dimensions can reject the pair.
    #[inline]
    pub fn matches(&self, s: &[f64], t: &[f64]) -> bool {
        debug_assert_eq!(s.len(), self.dims());
        debug_assert_eq!(t.len(), self.dims());
        for i in 0..self.dims() {
            let d = s[i] - t[i];
            if d < -self.eps_low[i] || d > self.eps_high[i] {
                return false;
            }
        }
        true
    }

    /// The ε-range around a **T**-tuple `t` in dimension `dim`: the interval of S-values
    /// that can join with `t` in that dimension, `[t − ε_low, t + ε_high]`.
    #[inline]
    pub fn range_around_t(&self, dim: usize, t_val: f64) -> (f64, f64) {
        (t_val - self.eps_low[dim], t_val + self.eps_high[dim])
    }

    /// The ε-range around an **S**-tuple `s` in dimension `dim`: the interval of T-values
    /// that can join with `s` in that dimension, `[s − ε_high, s + ε_low]`.
    #[inline]
    pub fn range_around_s(&self, dim: usize, s_val: f64) -> (f64, f64) {
        (s_val - self.eps_high[dim], s_val + self.eps_low[dim])
    }

    /// The same condition with the roles of S and T exchanged: `(s, t)` satisfies
    /// `self` exactly when `(t, s)` satisfies the result, bit for bit (`t − s` is the
    /// exact negation of `s − t`). Lets code written for an S-side probe key run with
    /// a T-side one.
    pub(crate) fn exchanged(&self) -> BandCondition {
        BandCondition {
            eps_low: self.eps_high.clone(),
            eps_high: self.eps_low.clone(),
        }
    }

    /// Check that the condition's dimensionality matches `dims`, returning an error
    /// otherwise.
    pub fn check_dims(&self, dims: usize) -> Result<(), RecPartError> {
        if self.dims() != dims {
            Err(RecPartError::DimensionMismatch {
                expected: dims,
                found: self.dims(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_matches() {
        let b = BandCondition::symmetric(&[1.0, 0.5]);
        assert_eq!(b.dims(), 2);
        assert!(b.is_symmetric());
        assert!(!b.is_equi());
        assert!(b.matches(&[1.0, 1.0], &[2.0, 1.5]));
        assert!(b.matches(&[2.0, 1.5], &[1.0, 1.0]));
        assert!(!b.matches(&[1.0, 1.0], &[2.1, 1.0]));
        assert!(!b.matches(&[1.0, 1.0], &[1.5, 1.6]));
        // A NaN difference matches its dimension; the others still decide.
        assert!(b.matches(&[f64::NAN, 1.0], &[2.0, 1.5]));
        assert!(b.matches(&[1.0, 1.0], &[f64::NAN, f64::NAN]));
        assert!(!b.matches(&[f64::NAN, 1.0], &[2.0, 3.0]));
        // An infinite difference is outside every finite band; inf − inf is NaN.
        assert!(!b.matches(&[f64::INFINITY, 1.0], &[2.0, 1.0]));
        assert!(!b.matches(&[f64::NEG_INFINITY, 1.0], &[2.0, 1.0]));
        assert!(!b.matches(&[1.0, 1.0], &[f64::INFINITY, 1.0]));
        assert!(b.matches(&[f64::INFINITY, 1.0], &[f64::INFINITY, 1.0]));
        assert!(b.matches(&[f64::NEG_INFINITY, 1.0], &[f64::NEG_INFINITY, 1.0]));
    }

    #[test]
    fn equi_join_condition() {
        let b = BandCondition::equi(3);
        assert!(b.is_equi());
        assert!(b.matches(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]));
        assert!(!b.matches(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0000001]));
    }

    #[test]
    fn asymmetric_matches_and_ranges() {
        // s must be within [t - 1, t + 3]
        let b = BandCondition::try_asymmetric(&[1.0], &[3.0]).unwrap();
        assert!(!b.is_symmetric());
        assert!(b.matches(&[4.0], &[5.0])); // s - t = -1
        assert!(b.matches(&[8.0], &[5.0])); // s - t = 3
        assert!(!b.matches(&[3.9], &[5.0]));
        assert!(!b.matches(&[8.1], &[5.0]));
        assert_eq!(b.range_around_t(0, 5.0), (4.0, 8.0));
        assert_eq!(b.range_around_s(0, 5.0), (2.0, 6.0));
    }

    #[test]
    fn symmetric_ranges_are_mirrors() {
        let b = BandCondition::symmetric(&[2.0]);
        assert_eq!(b.range_around_t(0, 10.0), (8.0, 12.0));
        assert_eq!(b.range_around_s(0, 10.0), (8.0, 12.0));
    }

    #[test]
    fn range_membership_is_equivalent_to_matches_1d() {
        let b = BandCondition::try_asymmetric(&[0.5], &[2.0]).unwrap();
        for s in [-1.0, 0.0, 0.4, 0.5, 1.0, 2.0, 2.5, 3.0] {
            for t in [-0.5, 0.0, 0.7, 1.0] {
                let (lo, hi) = b.range_around_t(0, t);
                assert_eq!(b.matches(&[s], &[t]), (lo..=hi).contains(&s));
                let (lo, hi) = b.range_around_s(0, s);
                assert_eq!(b.matches(&[s], &[t]), (lo..=hi).contains(&t));
            }
        }
    }

    #[test]
    fn invalid_band_widths_rejected() {
        assert!(matches!(
            BandCondition::try_symmetric(&[-1.0]),
            Err(RecPartError::InvalidBandWidth { .. })
        ));
        assert!(matches!(
            BandCondition::try_symmetric(&[f64::NAN]),
            Err(RecPartError::InvalidBandWidth { .. })
        ));
        assert!(matches!(
            BandCondition::try_symmetric(&[f64::INFINITY]),
            Err(RecPartError::InvalidBandWidth { .. })
        ));
        assert!(matches!(
            BandCondition::try_symmetric(&[]),
            Err(RecPartError::InvalidConfig { .. })
        ));
        assert!(matches!(
            BandCondition::try_asymmetric(&[1.0], &[1.0, 2.0]),
            Err(RecPartError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn uniform_builds_same_width_everywhere() {
        let b = BandCondition::uniform(4, 2.5);
        assert_eq!(b.dims(), 4);
        for d in 0..4 {
            assert_eq!(b.eps(d), 2.5);
            assert_eq!(b.eps_low(d), 2.5);
            assert_eq!(b.eps_high(d), 2.5);
        }
        assert_eq!(b.eps_all(), &[2.5; 4]);
    }

    #[test]
    fn check_dims_validates() {
        let b = BandCondition::uniform(2, 1.0);
        assert!(b.check_dims(2).is_ok());
        assert!(b.check_dims(3).is_err());
    }
}
