//! Synthetic stand-ins for the paper's real spatio-temporal datasets.
//!
//! The paper joins `ebird` (508 M bird sightings: time, latitude, longitude, …) with
//! `cloud` (382 M synoptic weather reports: time, latitude, longitude, …) on the three
//! attributes time/latitude/longitude with small band widths (Example 1, Tables 2c, 4b).
//! Neither dataset ships with this repository, so we generate data with the same
//! *partitioning-relevant* structure:
//!
//! * observations cluster around a set of geographic hot spots (cities, observatories,
//!   shipping lanes) — strong 2-D skew in latitude/longitude;
//! * reports accumulate over years with seasonal intensity — 1-D skew in time;
//! * the two relations share most hot spots (weather is reported where birds are
//!   watched), giving the correlated densities that make the join output non-trivial.
//!
//! The generators are deterministic given an RNG and a [`SpatialConfig`].

use crate::synthetic::gaussian;
use rand::Rng;
use recpart::Relation;

/// Common geometry of the synthetic observation region.
#[derive(Debug, Clone)]
pub struct SpatialConfig {
    /// Number of geographic hot spots.
    pub hotspots: usize,
    /// Standard deviation (degrees) of observations around a hot spot.
    pub hotspot_sigma: f64,
    /// Fraction of tuples drawn uniformly over the whole region instead of a hot spot.
    pub background: f64,
    /// Time range in days (e.g. 15 years ≈ 5475).
    pub time_span_days: f64,
    /// Latitude range covered (degrees).
    pub latitude_range: (f64, f64),
    /// Longitude range covered (degrees).
    pub longitude_range: (f64, f64),
}

impl Default for SpatialConfig {
    fn default() -> Self {
        SpatialConfig {
            hotspots: 40,
            hotspot_sigma: 0.8,
            background: 0.1,
            time_span_days: 5_475.0,
            latitude_range: (24.0, 50.0),
            longitude_range: (-125.0, -66.0),
        }
    }
}

impl SpatialConfig {
    /// Draw the shared hot-spot centers `(latitude, longitude)`.
    fn draw_hotspots<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<(f64, f64)> {
        (0..self.hotspots)
            .map(|_| {
                (
                    rng.gen_range(self.latitude_range.0..self.latitude_range.1),
                    rng.gen_range(self.longitude_range.0..self.longitude_range.1),
                )
            })
            .collect()
    }
}

/// Generates `ebird`-like observations: tuples `(time, latitude, longitude)` clustered
/// around birding hot spots with seasonal (spring/fall biased) time stamps.
#[derive(Debug, Clone)]
pub struct BirdObservationGenerator {
    config: SpatialConfig,
    hotspots: Vec<(f64, f64)>,
}

/// Generates `cloud`-like weather reports: the same hot spots as the paired
/// [`BirdObservationGenerator`] plus a station grid, with uniformly spread time stamps.
#[derive(Debug, Clone)]
pub struct WeatherReportGenerator {
    config: SpatialConfig,
    hotspots: Vec<(f64, f64)>,
}

impl BirdObservationGenerator {
    /// Create a generator with freshly drawn hot spots.
    pub fn new<R: Rng + ?Sized>(config: SpatialConfig, rng: &mut R) -> Self {
        let hotspots = config.draw_hotspots(rng);
        BirdObservationGenerator { config, hotspots }
    }

    /// Create the paired weather generator sharing (most of) this generator's hot spots,
    /// which is what produces the correlated density the real datasets exhibit.
    pub fn paired_weather_generator<R: Rng + ?Sized>(&self, rng: &mut R) -> WeatherReportGenerator {
        // Weather stations cover the birding hot spots plus a few locations of their own.
        let mut hotspots = self.hotspots.clone();
        let extra = (self.config.hotspots / 4).max(1);
        for _ in 0..extra {
            hotspots.push((
                rng.gen_range(self.config.latitude_range.0..self.config.latitude_range.1),
                rng.gen_range(self.config.longitude_range.0..self.config.longitude_range.1),
            ));
        }
        WeatherReportGenerator {
            config: self.config.clone(),
            hotspots,
        }
    }

    /// Generate `n` observations as `(time, latitude, longitude)` tuples.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Relation {
        let cfg = &self.config;
        let mut relation = Relation::with_capacity(3, n);
        for _ in 0..n {
            let (lat, lon) = sample_location(cfg, &self.hotspots, rng);
            // Seasonal time: pick a year uniformly, then a day biased towards spring and
            // fall migration (mixture of two in-year Gaussians).
            let years = (cfg.time_span_days / 365.0).max(1.0);
            let year = rng.gen_range(0.0..years).floor();
            let season_center = if rng.gen_bool(0.5) { 120.0 } else { 270.0 };
            let day_in_year = (season_center + gaussian(rng) * 25.0).rem_euclid(365.0);
            let time = (year * 365.0 + day_in_year).min(cfg.time_span_days);
            relation.push(&[time, lat, lon]);
        }
        relation
    }
}

impl WeatherReportGenerator {
    /// Generate `n` weather reports as `(time, latitude, longitude)` tuples.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Relation {
        let cfg = &self.config;
        let mut relation = Relation::with_capacity(3, n);
        for _ in 0..n {
            let (lat, lon) = sample_location(cfg, &self.hotspots, rng);
            // Weather reports arrive steadily over the whole span.
            let time = rng.gen_range(0.0..cfg.time_span_days);
            relation.push(&[time, lat, lon]);
        }
        relation
    }
}

fn sample_location<R: Rng + ?Sized>(
    cfg: &SpatialConfig,
    hotspots: &[(f64, f64)],
    rng: &mut R,
) -> (f64, f64) {
    if rng.gen::<f64>() < cfg.background {
        (
            rng.gen_range(cfg.latitude_range.0..cfg.latitude_range.1),
            rng.gen_range(cfg.longitude_range.0..cfg.longitude_range.1),
        )
    } else {
        let (clat, clon) = hotspots[rng.gen_range(0..hotspots.len())];
        let lat = (clat + gaussian(rng) * cfg.hotspot_sigma)
            .clamp(cfg.latitude_range.0, cfg.latitude_range.1);
        let lon = (clon + gaussian(rng) * cfg.hotspot_sigma)
            .clamp(cfg.longitude_range.0, cfg.longitude_range.1);
        (lat, lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recpart::BandCondition;

    fn generators(seed: u64) -> (BirdObservationGenerator, WeatherReportGenerator) {
        let mut rng = StdRng::seed_from_u64(seed);
        let birds = BirdObservationGenerator::new(SpatialConfig::default(), &mut rng);
        let weather = birds.paired_weather_generator(&mut rng);
        (birds, weather)
    }

    #[test]
    fn tuples_are_three_dimensional_and_in_range() {
        let (birds, weather) = generators(1);
        let mut rng = StdRng::seed_from_u64(2);
        let b = birds.generate(500, &mut rng);
        let w = weather.generate(500, &mut rng);
        let cfg = SpatialConfig::default();
        for r in [&b, &w] {
            assert_eq!(r.dims(), 3);
            for key in r.iter() {
                assert!((0.0..=cfg.time_span_days).contains(&key[0]));
                assert!((cfg.latitude_range.0..=cfg.latitude_range.1).contains(&key[1]));
                assert!((cfg.longitude_range.0..=cfg.longitude_range.1).contains(&key[2]));
            }
        }
    }

    #[test]
    fn paired_generators_share_hotspots() {
        let (birds, weather) = generators(3);
        for h in &birds.hotspots {
            assert!(weather.hotspots.contains(h));
        }
        assert!(weather.hotspots.len() > birds.hotspots.len());
    }

    #[test]
    fn data_is_spatially_skewed() {
        // A small lat/lon box around the densest hot spot should hold far more than its
        // uniform share of the data.
        let (birds, _) = generators(4);
        let mut rng = StdRng::seed_from_u64(5);
        let b = birds.generate(4000, &mut rng);
        let cfg = SpatialConfig::default();
        let area_share = (2.0 * 2.0)
            / ((cfg.latitude_range.1 - cfg.latitude_range.0)
                * (cfg.longitude_range.1 - cfg.longitude_range.0));
        let best_count = birds
            .hotspots
            .iter()
            .map(|(clat, clon)| {
                b.iter()
                    .filter(|k| (k[1] - clat).abs() < 1.0 && (k[2] - clon).abs() < 1.0)
                    .count()
            })
            .max()
            .unwrap();
        let expected_uniform = area_share * 4000.0;
        assert!(
            best_count as f64 > expected_uniform * 3.0,
            "hot spot holds {best_count} tuples, uniform share would be {expected_uniform:.1}"
        );
    }

    #[test]
    fn band_join_produces_output_with_small_bands() {
        // The correlated hot spots must make a (1, 1, 1)-band join non-empty even for
        // moderately sized inputs — this is what makes the ebird/cloud experiments
        // meaningful.
        let (birds, weather) = generators(6);
        let mut rng = StdRng::seed_from_u64(7);
        let b = birds.generate(800, &mut rng);
        let w = weather.generate(800, &mut rng);
        let band = BandCondition::symmetric(&[10.0, 1.0, 1.0]);
        let mut matches = 0u64;
        for bk in b.iter() {
            for wk in w.iter() {
                if band.matches(&bk, &wk) {
                    matches += 1;
                }
            }
        }
        assert!(matches > 0, "expected at least one joining pair");
    }

    #[test]
    fn generation_is_deterministic() {
        let (birds, _) = generators(8);
        let a = birds.generate(100, &mut StdRng::seed_from_u64(9));
        let b = birds.generate(100, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
