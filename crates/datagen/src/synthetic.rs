//! Basic synthetic distributions: uniform, adversarial corner-packed data, and the
//! standard-normal draw the spatial and sky generators share.
//!
//! These are used by unit and property tests across the workspace and by the analytical
//! experiments around Lemma 2 and Lemma 3 (grid partitioning behaviour under extreme
//! density concentration).

use rand::Rng;
use recpart::Relation;

/// A relation with `n` tuples whose `dims` attributes are i.i.d. uniform on `[lo, hi)`.
pub fn uniform_relation<R: Rng + ?Sized>(
    n: usize,
    dims: usize,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Relation {
    assert!(lo < hi, "need lo < hi");
    let mut relation = Relation::with_capacity(dims, n);
    let mut key = vec![0.0; dims];
    for _ in 0..n {
        for k in key.iter_mut() {
            *k = rng.gen_range(lo..hi);
        }
        relation.push(&key);
    }
    relation
}

/// One standard-normal draw via the Box–Muller transform (avoids an extra dependency on
/// `rand_distr`).
#[inline]
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The adversarial construction behind the grid-partitioning lower bound discussion
/// (Section 5.1): a `fraction` of all tuples is packed into a tiny box of side `width`
/// around `corner`, the rest is uniform on `[0, domain)` in every dimension.
///
/// Whatever the grid size, some grid cell (or pair of adjacent cells) must receive the
/// entire packed mass — Lemma 2.
pub fn corner_packed_relation<R: Rng + ?Sized>(
    n: usize,
    dims: usize,
    corner: f64,
    width: f64,
    fraction: f64,
    domain: f64,
    rng: &mut R,
) -> Relation {
    assert!((0.0..=1.0).contains(&fraction));
    assert!(width > 0.0 && domain > 0.0);
    let mut relation = Relation::with_capacity(dims, n);
    let mut key = vec![0.0; dims];
    for _ in 0..n {
        if rng.gen::<f64>() < fraction {
            for k in key.iter_mut() {
                *k = corner + rng.gen_range(0.0..width);
            }
        } else {
            for k in key.iter_mut() {
                *k = rng.gen_range(0.0..domain);
            }
        }
        relation.push(&key);
    }
    relation
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = uniform_relation(1000, 3, -5.0, 5.0, &mut rng);
        assert_eq!(r.len(), 1000);
        for key in r.iter() {
            assert!(key.iter().all(|v| (-5.0..5.0).contains(v)));
        }
    }

    #[test]
    fn gaussian_has_roughly_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..50_000).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn corner_packed_concentrates_requested_fraction() {
        let mut rng = StdRng::seed_from_u64(5);
        let r = corner_packed_relation(4000, 2, 50.0, 0.01, 0.5, 100.0, &mut rng);
        let packed = r
            .iter()
            .filter(|k| k.iter().all(|&v| (50.0..50.01).contains(&v)))
            .count();
        let frac = packed as f64 / 4000.0;
        assert!(
            (0.42..0.58).contains(&frac),
            "packed fraction {frac} too far from 0.5"
        );
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_invalid_range_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = uniform_relation(10, 1, 1.0, 1.0, &mut rng);
    }
}
