//! Synthetic stand-in for the Palomar Transient Factory (PTF) object catalog.
//!
//! Table 16 of the paper joins 1.198 billion PTF object records on right ascension and
//! declination with band widths of 1 and 3 arc seconds to find repeat observations of
//! the same celestial object. The defining structural features for partitioning are:
//!
//! * a 2-D attribute space `(ra, dec)` with `ra ∈ [0, 360)` degrees and
//!   `dec ∈ [−90, 90]` degrees;
//! * extremely clustered density: most detections lie in repeatedly imaged survey
//!   fields and near the galactic plane;
//! * the two join inputs are (near-)identically distributed — the query is effectively
//!   a self-join — so almost every tuple has at least one very close neighbour.
//!
//! [`SkySurveyGenerator`] reproduces exactly that shape: a set of survey fields with
//! Gaussian-distributed detections, a dense sinusoidal "galactic plane" band, and a thin
//! uniform background. Each generated object is additionally jittered copies of a
//! smaller set of true sources, so that arc-second-scale self-join output exists.

use crate::synthetic::gaussian;
use rand::Rng;
use recpart::Relation;

/// Configuration and state of the synthetic sky-survey generator.
#[derive(Debug, Clone)]
pub struct SkySurveyGenerator {
    /// Survey field centers `(ra, dec)` in degrees.
    fields: Vec<(f64, f64)>,
    /// Field radius (degrees) — PTF fields are ~3.5° wide.
    field_sigma: f64,
    /// Fraction of detections on the galactic-plane band.
    plane_fraction: f64,
    /// Fraction of uniform background detections.
    background_fraction: f64,
    /// Jitter applied to repeat detections of the same source, in degrees
    /// (1 arc second = 1/3600°).
    repeat_jitter: f64,
    /// Average number of detections per true source.
    detections_per_source: usize,
}

impl SkySurveyGenerator {
    /// Create a generator with `num_fields` randomly placed survey fields.
    pub fn new<R: Rng + ?Sized>(num_fields: usize, rng: &mut R) -> Self {
        assert!(num_fields > 0);
        let fields = (0..num_fields)
            .map(|_| (rng.gen_range(0.0..360.0), rng.gen_range(-30.0..60.0)))
            .collect();
        SkySurveyGenerator {
            fields,
            field_sigma: 1.8,
            plane_fraction: 0.3,
            background_fraction: 0.05,
            repeat_jitter: 0.8 / 3600.0,
            detections_per_source: 4,
        }
    }

    /// Generate `n` object detections as `(ra, dec)` tuples.
    ///
    /// Detections are produced in bursts around true sources so that a self-band-join
    /// with arc-second band widths has non-trivial output.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Relation {
        let mut relation = Relation::with_capacity(2, n);
        while relation.len() < n {
            let (ra, dec) = self.sample_source(rng);
            let detections = rng.gen_range(1..=self.detections_per_source * 2 - 1);
            for _ in 0..detections {
                if relation.len() >= n {
                    break;
                }
                let jra = (ra + gaussian(rng) * self.repeat_jitter).rem_euclid(360.0);
                let jdec = (dec + gaussian(rng) * self.repeat_jitter).clamp(-90.0, 90.0);
                relation.push(&[jra, jdec]);
            }
        }
        relation
    }

    fn sample_source<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let roll: f64 = rng.gen();
        if roll < self.background_fraction {
            (rng.gen_range(0.0..360.0), rng.gen_range(-90.0..90.0))
        } else if roll < self.background_fraction + self.plane_fraction {
            // Galactic plane approximated by a sinusoid in equatorial coordinates.
            let ra: f64 = rng.gen_range(0.0..360.0);
            let dec_center = 27.0 * (ra.to_radians() - 1.0).sin();
            let dec = (dec_center + gaussian(rng) * 2.0).clamp(-90.0, 90.0);
            (ra, dec)
        } else {
            let (cra, cdec) = self.fields[rng.gen_range(0..self.fields.len())];
            let ra = (cra + gaussian(rng) * self.field_sigma).rem_euclid(360.0);
            let dec = (cdec + gaussian(rng) * self.field_sigma).clamp(-90.0, 90.0);
            (ra, dec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recpart::BandCondition;

    #[test]
    fn coordinates_are_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = SkySurveyGenerator::new(20, &mut rng);
        let r = gen.generate(2000, &mut rng);
        assert_eq!(r.len(), 2000);
        assert_eq!(r.dims(), 2);
        for key in r.iter() {
            assert!(
                (0.0..360.0).contains(&key[0]),
                "ra out of range: {}",
                key[0]
            );
            assert!(
                (-90.0..=90.0).contains(&key[1]),
                "dec out of range: {}",
                key[1]
            );
        }
    }

    #[test]
    fn self_join_with_arcsecond_band_has_output() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen = SkySurveyGenerator::new(10, &mut rng);
        let r = gen.generate(1500, &mut rng);
        // 3 arc seconds, as in Table 16.
        let band = BandCondition::symmetric(&[8.33e-4, 8.33e-4]);
        let mut matches = 0u64;
        for (i, a) in r.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if i != j && band.matches(&a, &b) {
                    matches += 1;
                }
            }
        }
        assert!(
            matches > 100,
            "repeat detections should produce close pairs, got {matches}"
        );
    }

    #[test]
    fn detections_are_spatially_clustered() {
        let mut rng = StdRng::seed_from_u64(3);
        let gen = SkySurveyGenerator::new(15, &mut rng);
        let r = gen.generate(4000, &mut rng);
        // Count tuples within 3 degrees of any field center; uniform data would put
        // roughly (15 · π·3²)/(360·180) ≈ 0.65% there, clustered data far more.
        let near_field = r
            .iter()
            .filter(|k| {
                gen.fields
                    .iter()
                    .any(|(ra, dec)| (k[0] - ra).abs() < 3.0 && (k[1] - dec).abs() < 3.0)
            })
            .count();
        assert!(
            near_field > 1500,
            "only {near_field}/4000 detections near survey fields"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let make = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let gen = SkySurveyGenerator::new(5, &mut rng);
            gen.generate(200, &mut rng)
        };
        assert_eq!(make(7), make(7));
    }
}
