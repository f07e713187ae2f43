//! # flashp-sampling
//!
//! Samplers and estimators for approximate aggregation — the technical
//! core of FlashP (§4 of the paper).
//!
//! The star is **GSW (Generalized Smoothed Weighted) sampling**
//! ([`gsw`]): every row `i` enters the sample independently with
//! probability `w_i / (Δ + w_i)` for arbitrary positive weights `w`; the
//! Horvitz–Thompson-style calibrated measure `m̂_i = m_i (Δ + w_i)/w_i`
//! makes subset-sum estimates unbiased for *any* constraint chosen online.
//! Weight choices ([`weights`]):
//!
//! * `w = m` — the **optimal GSW sampler** (Corollary 4, RSTD ≤ √(1/E|S|));
//! * `w = arithmetic/geometric mean of several measures` — **compressed
//!   GSW** (Corollaries 5–6), one sample serving many measures;
//!
//! with error behaviour governed by the *(θ, θ̄)-consistency* of weights
//! and measures (Theorem 3, [`consistency`]).
//!
//! Baselines for the paper's experiments live alongside: uniform Bernoulli
//! ([`uniform`]), priority \[21\] ([`priority`]), threshold \[20\]
//! ([`threshold`]). [`GswSampler::absorb`] maintains a GSW sample under row
//! arrivals by raising Δ without touching unsampled rows (§4.1);
//! [`grouping`] partitions measures into compressed-sample groups via the
//! KCENTER greedy algorithm on normalized L1 distance (§4.2). The
//! multi-layer store of §5 (samples of several sizes for the
//! response-time/accuracy tradeoff) is `flashp_core::SampleCatalog`.

#![warn(missing_docs)]

pub mod consistency;
pub mod error;
pub mod estimator;
pub mod grouping;
pub mod gsw;
pub mod priority;
pub mod sample;
pub mod sampler;
pub mod threshold;
pub mod uniform;
pub mod weights;

pub use error::SamplingError;
pub use estimator::{
    estimate_agg, estimate_agg_with, estimate_components_with, estimate_components_with_kernels,
    Estimate, EstimateComponents,
};
pub use grouping::{group_measures, MeasureGroups};
pub use gsw::{delta_for_expected_size, GswCellState, GswSampler};
pub use priority::PrioritySampler;
pub use sample::Sample;
pub use sampler::{SampleSize, Sampler};
pub use threshold::ThresholdSampler;
pub use uniform::UniformSampler;
pub use weights::WeightStrategy;
