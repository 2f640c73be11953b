//! The experiment catalog: every dataset / band-width combination of Table 1 (Table 10
//! in the extended version) of the paper, plus helpers to instantiate them at a reduced
//! scale.
//!
//! ## Scaling rule
//!
//! The paper's inputs have 10⁸–10⁹ tuples. The catalog keeps the paper's *distributions*
//! and *band-width vectors* but generates `scale × paper size` tuples. Because band-join
//! output grows with the product of the input sizes, simply shrinking the inputs while
//! keeping the paper's band widths would collapse the output-to-input ratio (and with it
//! all output-balancing effects) to zero. [`ExperimentConfig::instantiate`] therefore
//! *calibrates* the band width: it scales the paper's band-width vector by a single
//! multiplier, chosen by bisection, so that the estimated output-to-input ratio of the
//! scaled workload matches the paper's ratio for that row. Rows with (near-)zero paper
//! output keep the paper's band widths unchanged. The substitution is documented in
//! `DESIGN.md` (section 2).

use crate::pareto::ParetoGenerator;
use crate::sky::SkySurveyGenerator;
use crate::spatial::{BirdObservationGenerator, SpatialConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recpart::{BandCondition, OutputSample, Relation, SampleConfig};

/// Identifier of an experiment configuration (table row), e.g. `"pareto-1.5/d3/eps2"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExperimentId(pub String);

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Which data family an experiment draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatasetSpec {
    /// `pareto-z`: both relations Pareto(z), correlated hot regions.
    Pareto {
        /// Skew parameter `z`.
        z: f64,
        /// Join dimensionality.
        dims: usize,
    },
    /// `rv-pareto-z`: S is Pareto(z) near 1, T is reflected (`10⁶ − x`), so the dense
    /// regions of the two inputs are anti-correlated.
    ReversePareto {
        /// Skew parameter `z`.
        z: f64,
        /// Join dimensionality.
        dims: usize,
    },
    /// `ebird ⋈ cloud`: 3-D spatio-temporal join of bird observations with weather
    /// reports (synthetic stand-ins, see [`crate::BirdObservationGenerator`]).
    EbirdCloud,
    /// `ptf_objects`: 2-D sky-survey self-join (synthetic stand-in, see [`crate::SkySurveyGenerator`]).
    PtfObjects,
}

impl DatasetSpec {
    /// Join dimensionality of the dataset.
    pub fn dims(&self) -> usize {
        match self {
            DatasetSpec::Pareto { dims, .. } | DatasetSpec::ReversePareto { dims, .. } => *dims,
            DatasetSpec::EbirdCloud => 3,
            DatasetSpec::PtfObjects => 2,
        }
    }

    /// Generate the two input relations with `s_len` and `t_len` tuples.
    pub fn generate(&self, s_len: usize, t_len: usize, seed: u64) -> (Relation, Relation) {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            DatasetSpec::Pareto { z, dims } => {
                let gen = ParetoGenerator::new(*z, *dims);
                (gen.generate(s_len, &mut rng), gen.generate(t_len, &mut rng))
            }
            DatasetSpec::ReversePareto { z, dims } => {
                let fwd = ParetoGenerator::new(*z, *dims);
                let rev = ParetoGenerator::reversed(*z, *dims);
                (fwd.generate(s_len, &mut rng), rev.generate(t_len, &mut rng))
            }
            DatasetSpec::EbirdCloud => {
                let birds = BirdObservationGenerator::new(SpatialConfig::default(), &mut rng);
                let weather = birds.paired_weather_generator(&mut rng);
                (
                    birds.generate(s_len, &mut rng),
                    weather.generate(t_len, &mut rng),
                )
            }
            DatasetSpec::PtfObjects => {
                let gen = SkySurveyGenerator::new(60, &mut rng);
                (gen.generate(s_len, &mut rng), gen.generate(t_len, &mut rng))
            }
        }
    }

    /// How the paper splits the total input between S and T for this dataset
    /// (fraction assigned to S).
    pub(crate) fn s_fraction(&self) -> f64 {
        match self {
            // Equal-sized synthetic pairs.
            DatasetSpec::Pareto { .. } | DatasetSpec::ReversePareto { .. } => 0.5,
            // ebird (508M) vs cloud (382M).
            DatasetSpec::EbirdCloud => 508.0 / (508.0 + 382.0),
            // Self-join: split the catalog in half.
            DatasetSpec::PtfObjects => 0.5,
        }
    }
}

/// One row of the experiment catalog (Table 1 / Table 10).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Identifier, e.g. `"pareto-1.5/d3/eps(2,2,2)"`.
    pub id: ExperimentId,
    /// Dataset family.
    pub dataset: DatasetSpec,
    /// The paper's band-width vector for this row.
    pub paper_band: Vec<f64>,
    /// Total input size reported by the paper, in millions of tuples (`|S| + |T|`).
    pub paper_input_millions: f64,
    /// Output size reported by the paper, in millions of tuples.
    pub paper_output_millions: f64,
}

/// A fully instantiated workload: concrete relations plus the calibrated band condition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The experiment this workload was instantiated from.
    pub id: ExperimentId,
    /// Outer relation S.
    pub s: Relation,
    /// Inner relation T.
    pub t: Relation,
    /// The (possibly calibrated) band condition.
    pub band: BandCondition,
    /// The paper's target output-to-input ratio for this row.
    pub target_output_ratio: f64,
}

impl ExperimentConfig {
    /// Create a catalog row.
    pub fn new(
        id: impl Into<String>,
        dataset: DatasetSpec,
        paper_band: Vec<f64>,
        paper_input_millions: f64,
        paper_output_millions: f64,
    ) -> Self {
        assert_eq!(
            paper_band.len(),
            dataset.dims(),
            "band width arity mismatch"
        );
        ExperimentConfig {
            id: ExperimentId(id.into()),
            dataset,
            paper_band,
            paper_input_millions,
            paper_output_millions,
        }
    }

    /// The paper's output-to-input ratio `|S ⋈ T| / (|S| + |T|)` for this row.
    pub fn paper_output_ratio(&self) -> f64 {
        if self.paper_input_millions <= 0.0 {
            0.0
        } else {
            self.paper_output_millions / self.paper_input_millions
        }
    }

    /// Instantiate the workload with `total_tuples = |S| + |T|` tuples and calibrate the
    /// band width to the paper's output-to-input ratio (see the module docs).
    pub fn instantiate(&self, total_tuples: usize, seed: u64) -> Workload {
        let s_len = ((total_tuples as f64) * self.dataset.s_fraction()).round() as usize;
        let s_len = s_len.clamp(1, total_tuples.saturating_sub(1).max(1));
        let t_len = total_tuples - s_len;
        let (s, t) = self.dataset.generate(s_len, t_len.max(1), seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD5EED);
        let target_ratio = self.paper_output_ratio();
        let band = calibrate_band(&s, &t, &self.paper_band, target_ratio, &mut rng);
        Workload {
            id: self.id.clone(),
            s,
            t,
            band,
            target_output_ratio: target_ratio,
        }
    }
}

/// Scale the base band-width vector by a single multiplier so that the estimated
/// output-to-input ratio of `S ⋈ T` matches `target_ratio`.
///
/// Rows with zero target ratio (or an all-zero base vector, i.e. equi-joins) keep the
/// base band widths unchanged. The estimate uses the crate-independent output sampler
/// from `recpart`, so calibration costs a few thousand index probes.
pub fn calibrate_band<R: Rng + ?Sized>(
    s: &Relation,
    t: &Relation,
    base: &[f64],
    target_ratio: f64,
    rng: &mut R,
) -> BandCondition {
    let base_band = BandCondition::symmetric(base);
    if target_ratio <= 0.0 || base.iter().all(|&e| e == 0.0) {
        return base_band;
    }
    let total_input = (s.len() + t.len()) as f64;
    let target_output = target_ratio * total_input;
    let sample_cfg = SampleConfig {
        input_sample_size: 2_048,
        output_sample_size: 512,
        output_probe_count: 1_024,
    };
    let estimate = |mult: f64, rng: &mut R| -> f64 {
        let scaled: Vec<f64> = base.iter().map(|&e| e * mult).collect();
        let band = BandCondition::symmetric(&scaled);
        OutputSample::draw(s, t, &band, &sample_cfg, rng).estimated_output()
    };

    // Bisection on the multiplier (output size is monotone in the band width).
    let mut lo = 1e-4;
    let mut hi = 1.0;
    // Grow `hi` until the output estimate exceeds the target (or a hard cap is reached).
    let mut out_hi = estimate(hi, rng);
    let mut guard = 0;
    while out_hi < target_output && guard < 24 {
        hi *= 2.0;
        out_hi = estimate(hi, rng);
        guard += 1;
    }
    if out_hi < target_output {
        // Even an enormous band cannot reach the target (tiny inputs); use the cap.
        return BandCondition::symmetric(&base.iter().map(|&e| e * hi).collect::<Vec<_>>());
    }
    for _ in 0..24 {
        let mid = (lo * hi).sqrt();
        let est = estimate(mid, rng);
        if est < target_output {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < 1.05 {
            break;
        }
    }
    let mult = (lo * hi).sqrt();
    BandCondition::symmetric(&base.iter().map(|&e| e * mult).collect::<Vec<_>>())
}

/// The full catalog of Table 1 / Table 10 of the paper.
///
/// Input and output sizes are the paper's, in millions of tuples; use
/// [`ExperimentConfig::instantiate`] to produce a scaled-down concrete workload.
pub fn table1_catalog() -> Vec<ExperimentConfig> {
    use DatasetSpec::*;
    vec![
        // pareto-1.5, d = 1, varying band width.
        ExperimentConfig::new(
            "pareto-1.5/d1/eps0",
            Pareto { z: 1.5, dims: 1 },
            vec![0.0],
            400.0,
            2430.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d1/eps1e-5",
            Pareto { z: 1.5, dims: 1 },
            vec![1e-5],
            400.0,
            4580.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d1/eps2e-5",
            Pareto { z: 1.5, dims: 1 },
            vec![2e-5],
            400.0,
            9120.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d1/eps3e-5",
            Pareto { z: 1.5, dims: 1 },
            vec![3e-5],
            400.0,
            11280.0,
        ),
        // pareto-1.5, d = 3, varying band width.
        ExperimentConfig::new(
            "pareto-1.5/d3/eps0",
            Pareto { z: 1.5, dims: 3 },
            vec![0.0; 3],
            400.0,
            0.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d3/eps2",
            Pareto { z: 1.5, dims: 3 },
            vec![2.0; 3],
            400.0,
            1120.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d3/eps4",
            Pareto { z: 1.5, dims: 3 },
            vec![4.0; 3],
            400.0,
            8740.0,
        ),
        // Skew sweep, d = 3, eps = (2,2,2).
        ExperimentConfig::new(
            "pareto-0.5/d3/eps2",
            Pareto { z: 0.5, dims: 3 },
            vec![2.0; 3],
            400.0,
            12.0,
        ),
        ExperimentConfig::new(
            "pareto-1.0/d3/eps2",
            Pareto { z: 1.0, dims: 3 },
            vec![2.0; 3],
            400.0,
            420.0,
        ),
        ExperimentConfig::new(
            "pareto-2.0/d3/eps2",
            Pareto { z: 2.0, dims: 3 },
            vec![2.0; 3],
            400.0,
            3200.0,
        ),
        // 8-dimensional scalability rows.
        ExperimentConfig::new(
            "pareto-1.5/d8/eps20/100M",
            Pareto { z: 1.5, dims: 8 },
            vec![20.0; 8],
            100.0,
            9.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d8/eps20/200M",
            Pareto { z: 1.5, dims: 8 },
            vec![20.0; 8],
            200.0,
            57.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d8/eps20/400M",
            Pareto { z: 1.5, dims: 8 },
            vec![20.0; 8],
            400.0,
            219.0,
        ),
        ExperimentConfig::new(
            "pareto-1.5/d8/eps20/800M",
            Pareto { z: 1.5, dims: 8 },
            vec![20.0; 8],
            800.0,
            857.0,
        ),
        // Reverse Pareto rows (zero output).
        ExperimentConfig::new(
            "rv-pareto-1.5/d1/eps2",
            ReversePareto { z: 1.5, dims: 1 },
            vec![2.0],
            400.0,
            0.0,
        ),
        ExperimentConfig::new(
            "rv-pareto-1.5/d1/eps1000",
            ReversePareto { z: 1.5, dims: 1 },
            vec![1000.0],
            400.0,
            0.0,
        ),
        ExperimentConfig::new(
            "rv-pareto-1.5/d3/eps1000",
            ReversePareto { z: 1.5, dims: 3 },
            vec![1000.0; 3],
            400.0,
            0.0,
        ),
        ExperimentConfig::new(
            "rv-pareto-1.5/d3/eps2000",
            ReversePareto { z: 1.5, dims: 3 },
            vec![2000.0; 3],
            400.0,
            0.0,
        ),
        // ebird ⋈ cloud rows.
        ExperimentConfig::new("ebird-cloud/eps0", EbirdCloud, vec![0.0; 3], 890.0, 0.0),
        ExperimentConfig::new("ebird-cloud/eps1", EbirdCloud, vec![1.0; 3], 890.0, 320.0),
        ExperimentConfig::new(
            "ebird-cloud/eps1-1-5",
            EbirdCloud,
            vec![1.0, 1.0, 5.0],
            890.0,
            1164.0,
        ),
        ExperimentConfig::new("ebird-cloud/eps2", EbirdCloud, vec![2.0; 3], 890.0, 2134.0),
        ExperimentConfig::new("ebird-cloud/eps4", EbirdCloud, vec![4.0; 3], 890.0, 16998.0),
        // PTF sky-survey rows (band widths of 1 and 3 arc seconds).
        ExperimentConfig::new(
            "ptf/eps1arcsec",
            PtfObjects,
            vec![2.78e-4; 2],
            1198.0,
            876.0,
        ),
        ExperimentConfig::new(
            "ptf/eps3arcsec",
            PtfObjects,
            vec![8.33e-4; 2],
            1198.0,
            1125.0,
        ),
    ]
}

/// Look up a catalog row by id; panics if it does not exist (catalog ids are static).
pub fn catalog_entry(id: &str) -> ExperimentConfig {
    table1_catalog()
        .into_iter()
        .find(|c| c.id.0 == id)
        .unwrap_or_else(|| panic!("unknown experiment id: {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_dataset_families() {
        let catalog = table1_catalog();
        assert!(catalog.len() >= 20);
        assert!(catalog
            .iter()
            .any(|c| matches!(c.dataset, DatasetSpec::Pareto { .. })));
        assert!(catalog
            .iter()
            .any(|c| matches!(c.dataset, DatasetSpec::ReversePareto { .. })));
        assert!(catalog.iter().any(|c| c.dataset == DatasetSpec::EbirdCloud));
        assert!(catalog.iter().any(|c| c.dataset == DatasetSpec::PtfObjects));
        // Ids are unique.
        let mut ids: Vec<&str> = catalog.iter().map(|c| c.id.0.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), catalog.len());
    }

    #[test]
    fn band_arity_matches_dims() {
        for c in table1_catalog() {
            assert_eq!(c.paper_band.len(), c.dataset.dims(), "row {}", c.id);
        }
    }

    #[test]
    fn catalog_entry_lookup() {
        let c = catalog_entry("pareto-1.5/d3/eps2");
        assert_eq!(c.dataset, DatasetSpec::Pareto { z: 1.5, dims: 3 });
        assert!((c.paper_output_ratio() - 2.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_entry_panics() {
        let _ = catalog_entry("no-such-experiment");
    }

    #[test]
    fn instantiate_generates_requested_sizes() {
        let c = catalog_entry("pareto-1.5/d3/eps0");
        let w = c.instantiate(2_000, 1);
        assert_eq!(w.s.len() + w.t.len(), 2_000);
        assert_eq!(w.s.dims(), 3);
        assert_eq!(w.band.dims(), 3);
        // Zero-output row keeps the paper's (zero) band widths.
        assert!(w.band.is_equi());
    }

    #[test]
    fn ebird_cloud_split_follows_paper_ratio() {
        let c = catalog_entry("ebird-cloud/eps0");
        let w = c.instantiate(890, 2);
        // 508 : 382 split.
        assert!((w.s.len() as f64 - 508.0).abs() <= 1.0);
        assert!((w.t.len() as f64 - 382.0).abs() <= 1.0);
    }

    #[test]
    fn calibration_hits_target_output_ratio_approximately() {
        let c = catalog_entry("pareto-1.5/d3/eps2");
        let w = c.instantiate(4_000, 3);
        // Count the exact output of the calibrated workload.
        let mut exact = 0u64;
        for sk in w.s.iter() {
            for tk in w.t.iter() {
                if w.band.matches(&sk, &tk) {
                    exact += 1;
                }
            }
        }
        let ratio = exact as f64 / 4_000.0;
        let target = w.target_output_ratio; // 2.8
        assert!(
            ratio > target * 0.3 && ratio < target * 3.0,
            "calibrated output ratio {ratio:.2} too far from target {target:.2}"
        );
    }

    #[test]
    fn reverse_pareto_rows_have_empty_output() {
        let c = catalog_entry("rv-pareto-1.5/d3/eps1000");
        let w = c.instantiate(1_000, 4);
        let mut exact = 0u64;
        for sk in w.s.iter() {
            for tk in w.t.iter() {
                if w.band.matches(&sk, &tk) {
                    exact += 1;
                }
            }
        }
        assert_eq!(
            exact, 0,
            "reverse Pareto with eps=1000 must produce no output"
        );
    }
}
