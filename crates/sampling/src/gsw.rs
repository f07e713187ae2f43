//! GSW (Generalized Smoothed Weighted) sampling — §4.1 of the paper.
//!
//! Parameterized by a positive constant Δ and positive weights `w`, each
//! row enters the sample independently with probability `w_i / (Δ + w_i)`
//! (Eq. 6). Larger Δ → smaller samples. Because inclusion is independent
//! per row, the sampler distributes/parallelizes trivially and supports
//! incremental maintenance (see [`GswCellState`]).

use crate::error::SamplingError;
use crate::sample::{MeasureScope, Sample};
use crate::sampler::{SampleSize, Sampler};
use crate::weights::WeightStrategy;
use flashp_storage::{Partition, SchemaRef};
use rand::rngs::StdRng;
use rand::Rng;

/// Solve for the Δ that makes the expected sample size
/// `E|S_Δ| = Σ_i w_i/(Δ + w_i)` equal `target` (binary search; the map is
/// strictly decreasing in Δ). Returns 0 when `target ≥ n` (keep
/// everything).
pub fn delta_for_expected_size(weights: &[f64], target: f64) -> Result<f64, SamplingError> {
    let n = weights.len() as f64;
    if target <= 0.0 {
        return Err(SamplingError::InvalidParam(format!(
            "target expected size must be positive, got {target}"
        )));
    }
    if target >= n {
        return Ok(0.0);
    }
    let expected = |delta: f64| -> f64 { weights.iter().map(|w| w / (delta + w)).sum() };
    // Bracket: E(0) = n > target; grow hi until E(hi) < target.
    let mut lo = 0.0f64;
    let mut hi = weights.iter().copied().fold(1.0, f64::max);
    while expected(hi) > target {
        hi *= 2.0;
        if !hi.is_finite() {
            return Err(SamplingError::InvalidParam(
                "could not bracket delta (weights degenerate)".to_string(),
            ));
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if expected(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-12 * hi.max(1.0) {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// The draw state of one GSW sample cell, retained so the cell can be
/// maintained *incrementally* when its source partition grows (§4.1).
///
/// Each row's uniform draw `u_i` determines membership through the key
/// `κ_i = (1/u_i − 1)·w_i`: row `i` is retained at threshold Δ iff
/// `κ_i ≥ Δ` ⇔ `u_i < w_i/(Δ+w_i)`. Storing `u_i` for the retained rows
/// (plus the RNG state after one draw per source row) lets a later,
/// larger Δ′ be applied by
///
/// 1. *evicting* retained rows whose key falls below Δ′ — a filter over
///    `|S|` stored draws, never touching the rows outside the sample
///    (rejected rows have `κ < Δ ≤ Δ′` and stay rejected for free); and
/// 2. *offering* only the newly appended rows, continuing the cell's
///    deterministic draw stream where it left off.
///
/// Because the stream position of every row's draw is preserved, the
/// absorbed sample is **bit-for-bit identical** to what a fresh
/// [`Sampler::sample`] of the same [`GswSampler`] over the grown
/// partition (with the same seed) would draw — the invariant the
/// catalog-delta layer's tests pin.
///
/// Produced by [`GswSampler::sample_recording`] and advanced by
/// [`GswSampler::absorb`].
#[derive(Debug, Clone)]
pub struct GswCellState {
    /// Δ the cell was last drawn at.
    pub(crate) delta: f64,
    /// Uniform draws `u_i` of the retained rows, in row order.
    pub(crate) draws: Vec<f64>,
    /// Source-partition row indices of the retained rows, ascending.
    pub(crate) indices: Vec<usize>,
    /// RNG state after consuming one draw per source-partition row.
    pub(crate) rng: StdRng,
    /// Source-partition rows drawn over so far.
    pub(crate) population: usize,
}

impl GswCellState {
    /// Δ the cell was last drawn at.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of retained rows the state tracks.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the cell retains no rows.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Source-partition rows drawn over so far.
    pub fn population_rows(&self) -> usize {
        self.population
    }

    /// Approximate heap footprint in bytes (draws + indices).
    pub fn byte_size(&self) -> usize {
        self.draws.len() * 8 + self.indices.len() * std::mem::size_of::<usize>()
    }
}

/// The GSW sampler: weight strategy + target size (resolved into Δ per
/// partition) or an explicit Δ.
#[derive(Debug, Clone)]
pub struct GswSampler {
    strategy: WeightStrategy,
    sizing: Sizing,
}

#[derive(Debug, Clone)]
enum Sizing {
    /// Calibrate Δ per partition to hit this expected size.
    Auto(SampleSize),
    /// Use this Δ everywhere.
    FixedDelta(f64),
}

impl GswSampler {
    /// GSW with Δ calibrated per partition so that the expected sample
    /// size matches `size`.
    pub fn with_size(strategy: WeightStrategy, size: SampleSize) -> Self {
        GswSampler { strategy, sizing: Sizing::Auto(size) }
    }

    /// GSW with an explicit Δ (the paper's native parameterization).
    pub fn with_delta(strategy: WeightStrategy, delta: f64) -> Self {
        GswSampler { strategy, sizing: Sizing::FixedDelta(delta) }
    }

    /// The optimal GSW sampler for `measure` (w = m, Corollary 4).
    pub fn optimal(measure: usize, size: SampleSize) -> Self {
        GswSampler::with_size(WeightStrategy::SingleMeasure(measure), size)
    }

    /// Arithmetic compressed GSW over a measure group (Eq. 9).
    pub fn arithmetic_compressed(measures: Vec<usize>, size: SampleSize) -> Self {
        GswSampler::with_size(WeightStrategy::ArithmeticMean(measures), size)
    }

    /// Geometric compressed GSW over a measure group (Eq. 7).
    pub fn geometric_compressed(measures: Vec<usize>, size: SampleSize) -> Self {
        GswSampler::with_size(WeightStrategy::GeometricMean(measures), size)
    }

    /// The weight strategy in use.
    pub fn strategy(&self) -> &WeightStrategy {
        &self.strategy
    }

    fn scope(&self) -> MeasureScope {
        match &self.strategy {
            WeightStrategy::SingleMeasure(j) => MeasureScope::Single(*j),
            WeightStrategy::ArithmeticMean(g) | WeightStrategy::GeometricMean(g) => {
                MeasureScope::Group(g.clone())
            }
            WeightStrategy::Constant => MeasureScope::All,
        }
    }

    /// Resolve the Δ this sampler uses for a partition with the given
    /// per-row weights.
    fn resolve_delta(&self, n: usize, weights: &[f64]) -> Result<f64, SamplingError> {
        match &self.sizing {
            Sizing::Auto(size) => {
                let target = size.resolve(n)?;
                delta_for_expected_size(weights, target)
            }
            Sizing::FixedDelta(d) => {
                if *d < 0.0 || !d.is_finite() {
                    return Err(SamplingError::InvalidParam(format!("invalid delta {d}")));
                }
                Ok(*d)
            }
        }
    }

    /// Like [`GswSampler::sample`] (bit-for-bit the same draw for the same
    /// RNG state), additionally recording the per-cell
    /// [`GswCellState`] that lets a later, grown version of the partition
    /// be absorbed incrementally via [`GswSampler::absorb`] (§4.1).
    pub fn sample_recording(
        &self,
        schema: &SchemaRef,
        partition: &Partition,
        rng: &mut StdRng,
    ) -> Result<(Sample, GswCellState), SamplingError> {
        let n = partition.num_rows();
        let weights = self.strategy.compute(partition)?;
        let delta = self.resolve_delta(n, &weights)?;
        let mut indices = Vec::new();
        let mut pi = Vec::new();
        let mut draws = Vec::new();
        if delta == 0.0 {
            // Keep everything; `sample` consumes no draws in this case.
            indices.extend(0..n);
            pi.resize(n, 1.0);
        } else {
            for (i, &w) in weights.iter().enumerate() {
                let p = w / (delta + w);
                let u = rng.gen::<f64>();
                if u < p {
                    indices.push(i);
                    pi.push(p);
                    draws.push(u);
                }
            }
        }
        let rows = gather_rows(partition, &indices);
        let sample = Sample::new(schema.clone(), rows, pi, n, self.name(), self.scope())?;
        let state = GswCellState { delta, draws, indices, rng: rng.clone(), population: n };
        Ok((sample, state))
    }

    /// Absorb a *grown* partition into a previously recorded cell — the
    /// incremental maintenance procedure of §4.1, "without touching any
    /// row in `[n] − S_Δ`":
    ///
    /// * retained rows are re-checked against the new Δ′ through their
    ///   stored keys (evicting those with `κ < Δ′`);
    /// * rejected rows are provably still rejected (Δ′ ≥ Δ) and are never
    ///   revisited;
    /// * only the `n′ − n` appended rows draw fresh inclusion decisions,
    ///   continuing the cell's deterministic RNG stream.
    ///
    /// The result is bit-for-bit what [`GswSampler::sample`] would draw
    /// over the grown partition from the cell's original seed. Returns
    /// `Ok(None)` when the preconditions fail — the partition shrank, Δ
    /// was 0 (everything retained, no draws recorded), or the recalibrated
    /// Δ′ is below Δ (previously rejected rows could re-qualify) — in
    /// which case the caller should fall back to a fresh
    /// [`GswSampler::sample_recording`].
    pub fn absorb(
        &self,
        state: &GswCellState,
        schema: &SchemaRef,
        partition: &Partition,
    ) -> Result<Option<(Sample, GswCellState)>, SamplingError> {
        let n_new = partition.num_rows();
        if state.delta == 0.0 || n_new < state.population {
            return Ok(None);
        }
        let weights = self.strategy.compute(partition)?;
        let new_delta = self.resolve_delta(n_new, &weights)?;
        if new_delta < state.delta || new_delta == 0.0 {
            return Ok(None);
        }
        let mut indices = Vec::with_capacity(state.indices.len());
        let mut draws = Vec::with_capacity(state.draws.len());
        let mut pi = Vec::with_capacity(state.indices.len());
        // Evict: retained rows whose key fell below Δ′. Old rows keep
        // their original weights (appends never rewrite existing rows).
        for (&i, &u) in state.indices.iter().zip(&state.draws) {
            let w = weights[i];
            let p = w / (new_delta + w);
            if u < p {
                indices.push(i);
                draws.push(u);
                pi.push(p);
            }
        }
        // Offer: only the appended rows, continuing the draw stream.
        let mut rng = state.rng.clone();
        for (i, &w) in weights.iter().enumerate().skip(state.population) {
            let p = w / (new_delta + w);
            let u = rng.gen::<f64>();
            if u < p {
                indices.push(i);
                draws.push(u);
                pi.push(p);
            }
        }
        let rows = gather_rows(partition, &indices);
        let sample = Sample::new(schema.clone(), rows, pi, n_new, self.name(), self.scope())?;
        let next = GswCellState { delta: new_delta, draws, indices, rng, population: n_new };
        Ok(Some((sample, next)))
    }
}

impl Sampler for GswSampler {
    fn name(&self) -> String {
        match &self.sizing {
            Sizing::Auto(SampleSize::Rate(r)) => format!("gsw[{}]@{r}", self.strategy.label()),
            Sizing::Auto(SampleSize::Expected(k)) => {
                format!("gsw[{}]#{k}", self.strategy.label())
            }
            Sizing::FixedDelta(d) => format!("gsw[{}]d{d}", self.strategy.label()),
        }
    }

    fn sample(
        &self,
        schema: &SchemaRef,
        partition: &Partition,
        rng: &mut StdRng,
    ) -> Result<Sample, SamplingError> {
        let n = partition.num_rows();
        let weights = self.strategy.compute(partition)?;
        let delta = self.resolve_delta(n, &weights)?;

        let mut indices = Vec::new();
        let mut pi = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            let p = w / (delta + w); // delta = 0 → p = 1: keep everything
            if delta == 0.0 || rng.gen::<f64>() < p {
                indices.push(i);
                pi.push(if delta == 0.0 { 1.0 } else { p });
            }
        }
        let rows = gather_rows(partition, &indices);
        Sample::new(schema.clone(), rows, pi, n, self.name(), self.scope())
    }
}

/// Materialize the rows at `indices` into a new partition.
pub(crate) fn gather_rows(partition: &Partition, indices: &[usize]) -> Partition {
    let dims = partition.dims().iter().map(|c| c.gather(indices)).collect();
    let measures =
        partition.measures().iter().map(|m| indices.iter().map(|&i| m[i]).collect()).collect();
    Partition::from_columns(dims, measures).expect("gathered columns have equal length")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashp_storage::DimensionColumn;
    use rand::SeedableRng;

    fn schema() -> SchemaRef {
        flashp_storage::Schema::from_names(&[("k", flashp_storage::DataType::Int64)], &["m1", "m2"])
            .unwrap()
            .into_shared()
    }

    fn partition(n: usize, value: impl Fn(usize) -> f64) -> Partition {
        Partition::from_columns(
            vec![DimensionColumn::Int64((0..n as i64).collect())],
            vec![(0..n).map(&value).collect(), (0..n).map(|i| (i % 5 + 1) as f64).collect()],
        )
        .unwrap()
    }

    #[test]
    fn delta_calibration_hits_target() {
        let weights: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let delta = delta_for_expected_size(&weights, 100.0).unwrap();
        let expected: f64 = weights.iter().map(|w| w / (delta + w)).sum();
        assert!((expected - 100.0).abs() < 0.01, "E|S| = {expected}");
    }

    #[test]
    fn delta_zero_when_target_exceeds_population() {
        let weights = vec![1.0; 10];
        assert_eq!(delta_for_expected_size(&weights, 10.0).unwrap(), 0.0);
        assert_eq!(delta_for_expected_size(&weights, 50.0).unwrap(), 0.0);
        assert!(delta_for_expected_size(&weights, 0.0).is_err());
    }

    #[test]
    fn full_rate_keeps_every_row() {
        let schema = schema();
        let p = partition(50, |i| (i + 1) as f64);
        let sampler = GswSampler::optimal(0, SampleSize::Rate(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        let s = sampler.sample(&schema, &p, &mut rng).unwrap();
        assert_eq!(s.num_rows(), 50);
        assert!(s.inclusion_probabilities().iter().all(|&p| p == 1.0));
    }

    #[test]
    fn expected_size_is_respected() {
        let schema = schema();
        let p = partition(20_000, |i| 1.0 + (i % 100) as f64);
        let sampler = GswSampler::optimal(0, SampleSize::Expected(500));
        let mut rng = StdRng::seed_from_u64(2);
        let s = sampler.sample(&schema, &p, &mut rng).unwrap();
        // |S| is a sum of independent Bernoullis with E = 500; 5σ ≈ 110.
        assert!((s.num_rows() as f64 - 500.0).abs() < 120.0, "sample size = {}", s.num_rows());
    }

    #[test]
    fn estimates_are_unbiased_over_replications() {
        let schema = schema();
        let p = partition(2000, |i| if i % 100 == 0 { 500.0 } else { 1.0 });
        let truth: f64 = p.measure(0).iter().sum();
        let sampler = GswSampler::optimal(0, SampleSize::Rate(0.05));
        let mut sum = 0.0;
        let reps = 400;
        for seed in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = sampler.sample(&schema, &p, &mut rng).unwrap();
            let est: f64 = (0..s.num_rows()).map(|r| s.calibrated(0, r)).sum();
            sum += est;
        }
        let mean_est = sum / reps as f64;
        assert!(
            (mean_est - truth).abs() / truth < 0.02,
            "mean estimate {mean_est} vs truth {truth}"
        );
    }

    #[test]
    fn optimal_weights_capture_heavy_rows() {
        // With w = m, heavy rows are (almost) always present.
        let schema = schema();
        let p = partition(1000, |i| if i == 7 { 1e6 } else { 1.0 });
        let sampler = GswSampler::optimal(0, SampleSize::Expected(50));
        let mut rng = StdRng::seed_from_u64(3);
        let s = sampler.sample(&schema, &p, &mut rng).unwrap();
        let has_heavy = (0..s.num_rows()).any(|r| s.rows().measure(0)[r] == 1e6);
        assert!(has_heavy, "heavy hitter missing from optimal GSW sample");
    }

    #[test]
    fn fixed_delta_matches_formula() {
        let schema = schema();
        let p = partition(5000, |_| 10.0);
        let sampler = GswSampler::with_delta(WeightStrategy::SingleMeasure(0), 90.0);
        let mut rng = StdRng::seed_from_u64(4);
        let s = sampler.sample(&schema, &p, &mut rng).unwrap();
        // p = 10/(90+10) = 0.1 → E|S| = 500.
        assert!((s.num_rows() as f64 - 500.0).abs() < 100.0);
        assert!(s.inclusion_probabilities().iter().all(|&p| (p - 0.1).abs() < 1e-12));
        assert!(GswSampler::with_delta(WeightStrategy::Constant, -1.0)
            .sample(&schema, &p, &mut rng)
            .is_err());
    }

    /// Concatenate two partitions (rows of `b` after rows of `a`).
    fn grown(a: &Partition, b: &Partition) -> Partition {
        let mut p = a.clone();
        p.extend(b).unwrap();
        p
    }

    fn assert_samples_identical(a: &Sample, b: &Sample) {
        assert_eq!(a.num_rows(), b.num_rows(), "sample sizes differ");
        assert_eq!(a.population_rows(), b.population_rows());
        assert_eq!(a.method(), b.method());
        assert_eq!(a.inclusion_probabilities(), b.inclusion_probabilities());
        for d in 0..a.rows().dims().len() {
            for r in 0..a.num_rows() {
                assert_eq!(a.rows().dim(d).get_i64(r), b.rows().dim(d).get_i64(r));
            }
        }
        for m in 0..a.rows().measures().len() {
            assert_eq!(a.rows().measure(m), b.rows().measure(m));
        }
    }

    #[test]
    fn sample_recording_matches_plain_sample() {
        let schema = schema();
        let p = partition(5000, |i| 1.0 + (i % 37) as f64);
        for sampler in [
            GswSampler::optimal(0, SampleSize::Rate(0.05)),
            GswSampler::arithmetic_compressed(vec![0, 1], SampleSize::Rate(0.1)),
            GswSampler::with_delta(WeightStrategy::SingleMeasure(0), 500.0),
            GswSampler::optimal(0, SampleSize::Rate(1.0)), // Δ = 0 path
        ] {
            let plain = sampler.sample(&schema, &p, &mut StdRng::seed_from_u64(11)).unwrap();
            let (recorded, state) =
                sampler.sample_recording(&schema, &p, &mut StdRng::seed_from_u64(11)).unwrap();
            assert_samples_identical(&plain, &recorded);
            assert_eq!(state.len(), plain.num_rows());
            assert_eq!(state.population_rows(), 5000);
        }
    }

    #[test]
    fn absorb_is_bit_for_bit_a_fresh_draw() {
        // Draw a cell over n rows, grow the partition, absorb — the result
        // must equal a fresh same-seed draw over the grown partition, and
        // the absorb must only have drawn for the appended rows.
        let schema = schema();
        let base = partition(4000, |i| 1.0 + (i % 23) as f64);
        // Heavier appended rows: E|S| at the old Δ grows faster than the
        // rate target, so the recalibrated Δ′ ≥ Δ and absorb applies.
        let extra = partition(1000, |i| 20.0 + (i % 17) as f64);
        let big = grown(&base, &extra);
        for sampler in [
            GswSampler::optimal(0, SampleSize::Rate(0.05)),
            GswSampler::arithmetic_compressed(vec![0, 1], SampleSize::Rate(0.02)),
            GswSampler::geometric_compressed(vec![0, 1], SampleSize::Rate(0.02)),
            GswSampler::with_delta(WeightStrategy::SingleMeasure(0), 300.0),
        ] {
            let (_, state) =
                sampler.sample_recording(&schema, &base, &mut StdRng::seed_from_u64(7)).unwrap();
            let (absorbed, next) = sampler
                .absorb(&state, &schema, &big)
                .unwrap()
                .expect("preconditions hold: Δ grows with the partition");
            let fresh = sampler.sample(&schema, &big, &mut StdRng::seed_from_u64(7)).unwrap();
            assert_samples_identical(&absorbed, &fresh);
            assert!(next.delta() >= state.delta());
            assert_eq!(next.population_rows(), 5000);
        }
    }

    #[test]
    fn chained_absorbs_stay_identical() {
        let schema = schema();
        let mut acc = partition(3000, |i| 1.0 + (i % 11) as f64);
        let sampler = GswSampler::optimal(0, SampleSize::Rate(0.04));
        let (_, mut state) =
            sampler.sample_recording(&schema, &acc, &mut StdRng::seed_from_u64(42)).unwrap();
        for round in 0..3 {
            let extra = partition(700 + round * 100, |i| 15.0 + ((i + round) % 13) as f64);
            acc = grown(&acc, &extra);
            let (absorbed, next) =
                sampler.absorb(&state, &schema, &acc).unwrap().expect("absorbable");
            let fresh = sampler.sample(&schema, &acc, &mut StdRng::seed_from_u64(42)).unwrap();
            assert_samples_identical(&absorbed, &fresh);
            state = next;
        }
    }

    #[test]
    fn absorb_refuses_when_preconditions_fail() {
        let schema = schema();
        let base = partition(2000, |i| 1.0 + (i % 9) as f64);
        // Rate 1 → Δ = 0: no draws recorded, nothing to absorb onto.
        let full = GswSampler::optimal(0, SampleSize::Rate(1.0));
        let (_, state) =
            full.sample_recording(&schema, &base, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(full.absorb(&state, &schema, &grown(&base, &base)).unwrap().is_none());

        // Appending many near-zero-weight rows leaves E|S| almost flat
        // while the target grows with n → Δ′ < Δ → refused (previously
        // rejected rows could re-qualify).
        let sampler = GswSampler::optimal(0, SampleSize::Rate(0.05));
        let (_, state) =
            sampler.sample_recording(&schema, &base, &mut StdRng::seed_from_u64(2)).unwrap();
        let tiny = partition(4000, |_| 1e-6);
        assert!(sampler.absorb(&state, &schema, &grown(&base, &tiny)).unwrap().is_none());

        // A shrunken partition can never be absorbed.
        let small = partition(100, |i| 1.0 + i as f64);
        assert!(sampler.absorb(&state, &schema, &small).unwrap().is_none());
    }

    #[test]
    fn compressed_scope_reflects_group() {
        let schema = schema();
        let p = partition(100, |i| (i + 1) as f64);
        let sampler = GswSampler::arithmetic_compressed(vec![0, 1], SampleSize::Rate(0.5));
        let mut rng = StdRng::seed_from_u64(5);
        let s = sampler.sample(&schema, &p, &mut rng).unwrap();
        assert!(s.scope().covers(0) && s.scope().covers(1));
    }
}
