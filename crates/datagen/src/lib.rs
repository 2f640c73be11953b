//! # datagen — workloads for distributed band-join experiments
//!
//! This crate generates the synthetic datasets used throughout the evaluation of the
//! RecPart paper, plus synthetic stand-ins for the paper's real datasets (which are not
//! redistributable):
//!
//! * [`pareto`] — the `pareto-z` and `rv-pareto-z` families: heavy-tailed join
//!   attributes drawn from a Pareto distribution with shape `z` (the paper explores
//!   `z ∈ [0.5, 2.0]`), optionally reversed so that the high-density regions of `S` and
//!   `T` are anti-correlated.
//! * [`BirdObservationGenerator`] / [`WeatherReportGenerator`] — `ebird`-like bird
//!   observations and `cloud`-like weather reports: clustered latitude/longitude/time
//!   data with correlated hot spots.
//! * [`SkySurveyGenerator`] — `ptf`-like sky-survey objects (right ascension /
//!   declination) with a dense galactic band, for the self-join style queries of
//!   Table 16.
//! * [`uniform_relation`] / [`corner_packed_relation`] — uniform and adversarial
//!   corner-packed data used by unit tests and the Lemma 2/3 experiments.
//! * [`catalog`] — the experiment catalog mirroring Table 1/Table 10 of the paper, with
//!   a global scale factor so the multi-hundred-million tuple workloads shrink to
//!   laptop-sized inputs while keeping their distributional shape.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod pareto;
mod sky;
mod spatial;
mod synthetic;

pub use catalog::{DatasetSpec, ExperimentConfig, ExperimentId};
pub use pareto::{pareto_relation, reverse_pareto_relation, ParetoGenerator};
pub use sky::SkySurveyGenerator;
pub use spatial::{BirdObservationGenerator, SpatialConfig, WeatherReportGenerator};
pub use synthetic::{corner_packed_relation, uniform_relation};
