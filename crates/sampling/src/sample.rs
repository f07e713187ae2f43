//! Materialized samples: a mini-partition of sampled rows plus per-row
//! inclusion probabilities.
//!
//! Every sampler in this crate reduces to the same estimation interface:
//! row `i` was included with (possibly conditional) probability `π_i`, so
//! the calibrated measure is `m̂_i = m_i / π_i` and
//! `Σ_{i∈S∩C} m̂_i` unbiasedly estimates the subset sum over any
//! constraint `C`. For GSW, `π_i = w_i/(Δ+w_i)` recovers exactly Eq. (6)'s
//! `m̂_i = m_i (Δ+w_i)/w_i`; for priority/threshold sampling `π_i =
//! min(1, m_i/τ)` recovers `m̂_i = max(m_i, τ)`.

use flashp_storage::{CompiledPredicate, Partition, SchemaRef};

use crate::error::SamplingError;

/// Which measures a sample is *designed* for. Estimates for out-of-scope
/// measures are still unbiased (the π's are valid inclusion
/// probabilities) but carry no useful error bound — this is exactly the
/// open question of Alon et al. that Theorem 3 answers for GSW.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureScope {
    /// Weights independent of any measure (uniform, constant-weight GSW).
    All,
    /// Drawn for one specific measure (optimal GSW, priority, threshold).
    Single(usize),
    /// Drawn for a group of measures (compressed GSW).
    Group(Vec<usize>),
}

impl MeasureScope {
    /// Whether estimating `measure` is within this sample's design scope.
    pub fn covers(&self, measure: usize) -> bool {
        match self {
            MeasureScope::All => true,
            MeasureScope::Single(j) => *j == measure,
            MeasureScope::Group(g) => g.contains(&measure),
        }
    }
}

/// A materialized sample of one partition.
#[derive(Debug, Clone)]
pub struct Sample {
    schema: SchemaRef,
    rows: Partition,
    /// Per-sampled-row inclusion probability π ∈ (0, 1].
    pi: Vec<f64>,
    /// Precomputed `1/π_i`, so estimation multiplies instead of dividing
    /// per matched row per query. The HT variance weight `(1−π)/π²` is
    /// derived from this as `w² − w` at estimation time — one mul+sub,
    /// not worth a third per-row array.
    inv_pi: Vec<f64>,
    /// Number of rows in the population partition this was drawn from.
    population_rows: usize,
    /// Sampler that produced this sample (diagnostics).
    method: String,
    scope: MeasureScope,
}

impl Sample {
    /// Assemble a sample. `rows` holds the sampled rows; `pi[i]` is row
    /// `i`'s inclusion probability.
    pub fn new(
        schema: SchemaRef,
        rows: Partition,
        pi: Vec<f64>,
        population_rows: usize,
        method: impl Into<String>,
        scope: MeasureScope,
    ) -> Result<Self, SamplingError> {
        if pi.len() != rows.num_rows() {
            return Err(SamplingError::InvalidParam(format!(
                "pi length {} != sampled rows {}",
                pi.len(),
                rows.num_rows()
            )));
        }
        if let Some(i) = pi.iter().position(|p| !(*p > 0.0 && *p <= 1.0)) {
            return Err(SamplingError::InvalidParam(format!(
                "inclusion probability out of (0,1] at sampled row {i}: {}",
                pi[i]
            )));
        }
        // Build-time precomputation: estimation touches every matched row
        // of every query, so the per-row divisions are paid once here.
        let inv_pi: Vec<f64> = pi.iter().map(|&p| 1.0 / p).collect();
        Ok(Sample { schema, rows, pi, inv_pi, population_rows, method: method.into(), scope })
    }

    /// The schema shared with the source table.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The sampled rows as a partition (raw, uncalibrated measures).
    pub fn rows(&self) -> &Partition {
        &self.rows
    }

    /// Inclusion probabilities, aligned with [`Sample::rows`].
    pub fn inclusion_probabilities(&self) -> &[f64] {
        &self.pi
    }

    /// Precomputed `1/π_i`, aligned with [`Sample::rows`].
    pub fn inverse_inclusion_probabilities(&self) -> &[f64] {
        &self.inv_pi
    }

    /// Number of sampled rows.
    pub fn num_rows(&self) -> usize {
        self.rows.num_rows()
    }

    /// Size of the population partition this sample was drawn from.
    pub fn population_rows(&self) -> usize {
        self.population_rows
    }

    /// Realized sampling rate `|S| / n`.
    pub fn rate(&self) -> f64 {
        if self.population_rows == 0 {
            return 0.0;
        }
        self.num_rows() as f64 / self.population_rows as f64
    }

    /// Name of the producing sampler.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// Designed measure scope.
    pub fn scope(&self) -> &MeasureScope {
        &self.scope
    }

    /// Calibrated measure value `m̂_i = m_i / π_i` of sampled row `i`.
    #[inline]
    pub fn calibrated(&self, measure_idx: usize, row: usize) -> f64 {
        self.rows.measure(measure_idx)[row] * self.inv_pi[row]
    }

    /// Evaluate a compiled predicate over the sampled rows (diagnostic
    /// convenience; estimation goes through
    /// [`crate::estimator::estimate_components_with_kernels`], which
    /// evaluates against an explicit kernel tier and reuses mask
    /// buffers).
    pub fn evaluate(&self, pred: &CompiledPredicate) -> flashp_storage::Bitmask {
        pred.evaluate(&self.rows)
    }

    /// Approximate heap footprint in bytes (dimension columns + measures +
    /// probabilities and their precomputed inverses) — the quantity
    /// stacked in Fig. 15(a).
    pub fn byte_size(&self) -> usize {
        self.rows.byte_size() + (self.pi.len() + self.inv_pi.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashp_storage::{DataType, DimensionColumn, Schema};

    fn mini_sample(pi: Vec<f64>) -> Result<Sample, SamplingError> {
        let schema = Schema::from_names(&[("k", DataType::Int64)], &["m"]).unwrap().into_shared();
        let n = pi.len();
        let rows = Partition::from_columns(
            vec![DimensionColumn::Int64((0..n as i64).collect())],
            vec![(0..n).map(|i| (i + 1) as f64 * 10.0).collect()],
        )
        .unwrap();
        Sample::new(schema, rows, pi, 100, "test", MeasureScope::All)
    }

    #[test]
    fn calibration_divides_by_pi() {
        let s = mini_sample(vec![0.5, 0.25]).unwrap();
        assert_eq!(s.calibrated(0, 0), 20.0);
        assert_eq!(s.calibrated(0, 1), 80.0);
        assert_eq!(s.rate(), 0.02);
        assert!(s.byte_size() > 0);
    }

    #[test]
    fn rejects_invalid_pi() {
        assert!(mini_sample(vec![0.0]).is_err());
        assert!(mini_sample(vec![1.5]).is_err());
        assert!(mini_sample(vec![f64::NAN]).is_err());
        assert!(mini_sample(vec![1.0]).is_ok());
    }

    #[test]
    fn scope_covering() {
        assert!(MeasureScope::All.covers(3));
        assert!(MeasureScope::Single(2).covers(2));
        assert!(!MeasureScope::Single(2).covers(1));
        assert!(MeasureScope::Group(vec![0, 2]).covers(2));
        assert!(!MeasureScope::Group(vec![0, 2]).covers(1));
    }
}
