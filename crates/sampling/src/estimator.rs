//! Estimating aggregation queries from samples — the online half of §4.
//!
//! Given a sample and a compiled constraint `C`, the subset-sum estimator
//! is `M̂ = Σ_{i∈S∩C} m̂_i` with `m̂_i = m_i/π_i`; its variance is
//! estimated by the Horvitz–Thompson formula
//! `V̂ = Σ_{i∈S∩C} m_i² (1−π_i)/π_i²`, which for GSW has expectation
//! exactly `Σ_{i∈C} Δ m_i²/w_i` — Eq. (12) of the paper restricted to the
//! constraint's rows. The variance feeds §3's noise analysis (σ_ε²).

use crate::error::SamplingError;
use crate::sample::Sample;
use flashp_storage::{AggFunc, CompiledPredicate, MaskScratch};

/// An estimate of one aggregation query from one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated aggregate `M̂_t`.
    pub value: f64,
    /// HT variance estimate of the SUM/COUNT estimator (`None` for AVG,
    /// whose ratio form has no unbiased plug-in variance).
    pub variance: Option<f64>,
    /// Number of sampled rows that matched the constraint.
    pub matched_rows: usize,
}

impl Estimate {
    /// Standard deviation of the estimator, if the variance is known.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance.map(f64::sqrt)
    }
}

/// Estimate `agg(measure)` under `pred` from `sample`.
///
/// Estimates are unbiased for any measure (π's are valid inclusion
/// probabilities regardless of scope) but only in-scope measures carry the
/// error bounds of Theorem 3 / Corollaries 4–6; callers can check
/// [`Sample::scope`].
pub fn estimate_agg(
    sample: &Sample,
    measure_idx: usize,
    pred: &CompiledPredicate,
    agg: AggFunc,
) -> Result<Estimate, SamplingError> {
    estimate_agg_with(sample, measure_idx, pred, agg, &mut MaskScratch::new())
}

/// The raw Horvitz–Thompson accumulators of one estimation pass — every
/// aggregate finalizes from these, so a caller that needs several (e.g. a
/// range AVG built from total SUM and COUNT) pays for one scan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimateComponents {
    /// `Σ m_i/π_i` over matched sampled rows.
    pub sum_hat: f64,
    /// HT variance estimate of `sum_hat`.
    pub sum_var: f64,
    /// `Σ 1/π_i` over matched sampled rows.
    pub count_hat: f64,
    /// HT variance estimate of `count_hat`.
    pub count_var: f64,
    /// Number of sampled rows that matched the constraint.
    pub matched_rows: usize,
}

impl EstimateComponents {
    /// Merge accumulators from an independent sample (per-partition
    /// samples are drawn independently, so variances add).
    pub fn merge(&mut self, other: &EstimateComponents) {
        self.sum_hat += other.sum_hat;
        self.sum_var += other.sum_var;
        self.count_hat += other.count_hat;
        self.count_var += other.count_var;
        self.matched_rows += other.matched_rows;
    }

    /// Finalize into the requested aggregate.
    pub fn finalize(&self, agg: AggFunc) -> Estimate {
        match agg {
            AggFunc::Sum => Estimate {
                value: self.sum_hat,
                variance: Some(self.sum_var),
                matched_rows: self.matched_rows,
            },
            AggFunc::Count => Estimate {
                value: self.count_hat,
                variance: Some(self.count_var),
                matched_rows: self.matched_rows,
            },
            AggFunc::Avg => {
                let value =
                    if self.count_hat > 0.0 { self.sum_hat / self.count_hat } else { f64::NAN };
                // Ratio estimator: approximately unbiased; no plug-in
                // variance.
                Estimate { value, variance: None, matched_rows: self.matched_rows }
            }
        }
    }
}

/// One estimation pass producing the raw HT accumulators.
///
/// Constraint evaluation over the sampled rows runs on the
/// process-wide dispatched kernel tier ([`flashp_storage::simd::active`]);
/// the matched-row loop is word-at-a-time over the selection mask and uses
/// the sample's build-time precomputed `w = 1/π_i` (the HT variance weight
/// `(1−π)/π²` falls out as `w² − w`) — no division per matched row.
pub fn estimate_components_with(
    sample: &Sample,
    measure_idx: usize,
    pred: &CompiledPredicate,
    scratch: &mut MaskScratch,
) -> Result<EstimateComponents, SamplingError> {
    let num_measures = sample.rows().measures().len();
    if measure_idx >= num_measures {
        return Err(SamplingError::BadMeasure { index: measure_idx, num_measures });
    }
    let mask = pred.evaluate_into(sample.rows(), scratch);
    let values = sample.rows().measure(measure_idx);
    let inv_pi = sample.inverse_inclusion_probabilities();

    let mut c = EstimateComponents::default();
    mask.for_each_one(|i| {
        let w = inv_pi[i];
        let m = values[i];
        c.sum_hat += m * w;
        c.count_hat += w;
        let q = w * w - w; // (1−π)/π² expressed in the precomputed 1/π
        c.sum_var += m * m * q;
        c.count_var += q;
        c.matched_rows += 1;
    });
    scratch.release(mask);
    Ok(c)
}

/// [`estimate_agg`] drawing mask buffers from `scratch`, so a caller
/// estimating many timestamps (the Eq. 4 query batch) reuses one set of
/// buffers across all of them.
pub fn estimate_agg_with(
    sample: &Sample,
    measure_idx: usize,
    pred: &CompiledPredicate,
    agg: AggFunc,
    scratch: &mut MaskScratch,
) -> Result<Estimate, SamplingError> {
    Ok(estimate_components_with(sample, measure_idx, pred, scratch)?.finalize(agg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsw::GswSampler;
    use crate::sampler::{SampleSize, Sampler};
    use crate::uniform::UniformSampler;
    use crate::weights::WeightStrategy;
    use flashp_storage::{DataType, DimensionColumn, Partition, Predicate, Schema, SchemaRef};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (SchemaRef, Partition, CompiledPredicate, CompiledPredicate) {
        let schema = Schema::from_names(&[("k", DataType::Int64)], &["m"]).unwrap().into_shared();
        let p = Partition::from_columns(
            vec![DimensionColumn::Int64((0..n as i64).collect())],
            vec![(0..n).map(|i| 1.0 + (i % 97) as f64).collect()],
        )
        .unwrap();
        let half = Predicate::cmp("k", flashp_storage::CmpOp::Lt, (n / 2) as i64)
            .compile(&schema, &[None])
            .unwrap();
        let all = Predicate::True.compile(&schema, &[None]).unwrap();
        (schema, p, half, all)
    }

    #[test]
    fn full_sample_estimates_exactly() {
        let (schema, p, half, all) = setup(1000);
        let mut rng = StdRng::seed_from_u64(0);
        let s = UniformSampler::with_rate(1.0).sample(&schema, &p, &mut rng).unwrap();
        let truth_all: f64 = p.measure(0).iter().sum();
        let truth_half: f64 = p.measure(0)[..500].iter().sum();
        let e = estimate_agg(&s, 0, &all, AggFunc::Sum).unwrap();
        assert!((e.value - truth_all).abs() < 1e-9);
        assert_eq!(e.variance, Some(0.0)); // π = 1 ⇒ zero variance
        let e = estimate_agg(&s, 0, &half, AggFunc::Sum).unwrap();
        assert!((e.value - truth_half).abs() < 1e-9);
        let c = estimate_agg(&s, 0, &half, AggFunc::Count).unwrap();
        assert_eq!(c.value, 500.0);
        let a = estimate_agg(&s, 0, &half, AggFunc::Avg).unwrap();
        assert!((a.value - truth_half / 500.0).abs() < 1e-9);
        assert!(a.variance.is_none());
    }

    #[test]
    fn variance_estimate_matches_empirical_variance() {
        // Empirical Var(M̂) over many replications ≈ mean of HT variance
        // estimates.
        let (schema, p, half, _) = setup(4000);
        let sampler =
            GswSampler::with_size(WeightStrategy::SingleMeasure(0), SampleSize::Rate(0.05));
        let mut estimates = Vec::new();
        let mut var_estimates = Vec::new();
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = sampler.sample(&schema, &p, &mut rng).unwrap();
            let e = estimate_agg(&s, 0, &half, AggFunc::Sum).unwrap();
            estimates.push(e.value);
            var_estimates.push(e.variance.unwrap());
        }
        let mean: f64 = estimates.iter().sum::<f64>() / estimates.len() as f64;
        let emp_var: f64 = estimates.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / (estimates.len() - 1) as f64;
        let mean_ht: f64 = var_estimates.iter().sum::<f64>() / var_estimates.len() as f64;
        let ratio = mean_ht / emp_var;
        assert!(
            (0.7..1.4).contains(&ratio),
            "HT variance {mean_ht} vs empirical {emp_var} (ratio {ratio})"
        );
    }

    #[test]
    fn empty_match_gives_zero_sum_nan_avg() {
        let (schema, p, _, _) = setup(100);
        let never = Predicate::cmp("k", flashp_storage::CmpOp::Gt, 10_000)
            .compile(&schema, &[None])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = UniformSampler::with_rate(0.5).sample(&schema, &p, &mut rng).unwrap();
        let e = estimate_agg(&s, 0, &never, AggFunc::Sum).unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.matched_rows, 0);
        let a = estimate_agg(&s, 0, &never, AggFunc::Avg).unwrap();
        assert!(a.value.is_nan());
    }

    #[test]
    fn bad_measure_rejected() {
        let (schema, p, _, all) = setup(10);
        let mut rng = StdRng::seed_from_u64(2);
        let s = UniformSampler::with_rate(1.0).sample(&schema, &p, &mut rng).unwrap();
        assert!(estimate_agg(&s, 4, &all, AggFunc::Sum).is_err());
    }
}
