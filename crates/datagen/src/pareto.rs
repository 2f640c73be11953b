//! Pareto-distributed join attributes (`pareto-z` and `rv-pareto-z`).
//!
//! The paper: *"we use a Pareto distribution where join-attribute value x is drawn from
//! domain [1.0, ∞) of real numbers and follows PDF z/x^(z+1) (greater z creates more
//! skew) … pareto-z denotes a pair of tables, each with 200 million tuples, with
//! Pareto-distributed join attributes for skew z. High-frequency values in S are also
//! high-frequency values in T. rv-pareto-z is the same as pareto-z, but high-frequency
//! values in S have low frequency in T, and vice versa. Specifically, T follows a Pareto
//! distribution from 10⁶ down to −∞."*

use rand::Rng;
use recpart::Relation;

/// The reflection point used by the reverse-Pareto (`rv-pareto-z`) family: T-values are
/// generated as `10⁶ − y` with `y` Pareto-distributed.
pub(crate) const REVERSE_PARETO_OFFSET: f64 = 1.0e6;

/// Draw one value from a Pareto distribution with shape `z` on `[1, ∞)` via inverse
/// transform sampling: `x = (1 − u)^(−1/z)`.
#[inline]
pub fn pareto_value<R: Rng + ?Sized>(z: f64, rng: &mut R) -> f64 {
    debug_assert!(z > 0.0, "Pareto shape must be positive");
    let u: f64 = rng.gen_range(0.0..1.0);
    (1.0 - u).powf(-1.0 / z)
}

/// Generator for relations whose join attributes are i.i.d. Pareto(z) values.
#[derive(Debug, Clone, Copy)]
pub struct ParetoGenerator {
    /// Shape parameter `z` (the paper explores 0.5 … 2.0; `z = log₄5 ≈ 1.16` is the
    /// 80-20 rule).
    pub shape: f64,
    /// Number of join attributes per tuple.
    pub dims: usize,
    /// When `true`, values are reflected as `10⁶ − x` (the `rv-pareto` family).
    pub reversed: bool,
}

impl ParetoGenerator {
    /// A standard (non-reversed) generator.
    pub fn new(shape: f64, dims: usize) -> Self {
        assert!(shape > 0.0, "Pareto shape must be positive");
        assert!(dims > 0, "need at least one dimension");
        ParetoGenerator {
            shape,
            dims,
            reversed: false,
        }
    }

    /// A reversed generator (high-frequency values near `10⁶` instead of near 1).
    pub fn reversed(shape: f64, dims: usize) -> Self {
        ParetoGenerator {
            reversed: true,
            ..Self::new(shape, dims)
        }
    }

    /// Generate a relation with `n` tuples.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Relation {
        let mut relation = Relation::with_capacity(self.dims, n);
        let mut key = vec![0.0; self.dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                let v = pareto_value(self.shape, rng);
                *k = if self.reversed {
                    REVERSE_PARETO_OFFSET - v
                } else {
                    v
                };
            }
            relation.push(&key);
        }
        relation
    }
}

/// Convenience: generate one `pareto-z` relation (`n` tuples, `dims` attributes).
pub fn pareto_relation<R: Rng + ?Sized>(n: usize, dims: usize, z: f64, rng: &mut R) -> Relation {
    ParetoGenerator::new(z, dims).generate(n, rng)
}

/// Convenience: generate one reversed (`rv-pareto-z`) relation.
pub fn reverse_pareto_relation<R: Rng + ?Sized>(
    n: usize,
    dims: usize,
    z: f64,
    rng: &mut R,
) -> Relation {
    ParetoGenerator::reversed(z, dims).generate(n, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_values_are_at_least_one() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = pareto_value(1.5, &mut rng);
            assert!(v >= 1.0, "Pareto([1,∞)) value below 1: {v}");
            assert!(v.is_finite());
        }
    }

    #[test]
    fn higher_shape_means_less_skew_in_the_tail() {
        // With larger z the distribution concentrates near 1, so the empirical 99th
        // percentile should be smaller.
        let mut rng = StdRng::seed_from_u64(2);
        let p99 = |z: f64, rng: &mut StdRng| {
            let mut v: Vec<f64> = (0..20_000).map(|_| pareto_value(z, rng)).collect();
            v.sort_by(f64::total_cmp);
            v[(v.len() as f64 * 0.99) as usize]
        };
        let tail_heavy = p99(0.5, &mut rng);
        let tail_light = p99(2.0, &mut rng);
        assert!(
            tail_heavy > tail_light * 5.0,
            "z=0.5 tail ({tail_heavy}) should dwarf z=2.0 tail ({tail_light})"
        );
    }

    #[test]
    fn median_matches_theory() {
        // Median of Pareto(z) on [1, ∞) is 2^(1/z).
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<f64> = (0..40_000).map(|_| pareto_value(1.0, &mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        assert!(
            (median - 2.0).abs() < 0.1,
            "empirical median {median} too far from 2.0"
        );
    }

    #[test]
    fn generator_produces_requested_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let r = ParetoGenerator::new(1.5, 3).generate(500, &mut rng);
        assert_eq!(r.len(), 500);
        assert_eq!(r.dims(), 3);
        for key in r.iter() {
            assert!(key.iter().all(|&v| v >= 1.0));
        }
    }

    #[test]
    fn reversed_generator_reflects_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let r = reverse_pareto_relation(500, 2, 1.5, &mut rng);
        for key in r.iter() {
            for &v in key.iter() {
                assert!(v <= REVERSE_PARETO_OFFSET - 1.0);
            }
        }
        // Most mass should be close to the offset (the reflected mode).
        let near_offset = r
            .iter()
            .filter(|k| k[0] > REVERSE_PARETO_OFFSET - 10.0)
            .count();
        assert!(
            near_offset > r.len() / 2,
            "reverse Pareto should concentrate near {REVERSE_PARETO_OFFSET}"
        );
    }

    #[test]
    fn forward_and_reverse_are_anti_correlated_in_density() {
        // The dense region of the forward family ([1, 2]) should contain almost no
        // reverse-family values and vice versa.
        let mut rng = StdRng::seed_from_u64(6);
        let fwd = pareto_relation(2000, 1, 1.5, &mut rng);
        let rev = reverse_pareto_relation(2000, 1, 1.5, &mut rng);
        let fwd_low = fwd.iter().filter(|k| k[0] <= 2.0).count();
        let rev_low = rev.iter().filter(|k| k[0] <= 2.0).count();
        assert!(fwd_low > 1000);
        assert!(rev_low < 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = ParetoGenerator::new(1.2, 2);
        let a = gen.generate(100, &mut StdRng::seed_from_u64(7));
        let b = gen.generate(100, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_shape_panics() {
        let _ = ParetoGenerator::new(0.0, 1);
    }
}
