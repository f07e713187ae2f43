//! Empirical verification of Proposition 1 (§3 / Appendix A.1):
//! for an ARMA(1,1) process observed through unbiased, independent
//! estimation noise ε with variance σ_ε²,
//!
//! ```text
//! Var[M̂_t] = a · σ_u² + σ_ε²,   a = (1 + 2α₁β₁ + β₁²)/(1 − α₁²)
//! ```
//!
//! and the consequences the paper draws from it: noisier estimates widen
//! forecast intervals, and once σ_ε² ≪ σ_u² the impact on forecasts is
//! negligible (Exp-IV's observation).

use flashp::forecast::model::ForecastModel;
use flashp::forecast::noise::{arma11_noisy_variance, arma11_variance_constant};
use flashp::forecast::simulate::{add_estimation_noise, simulate_arma, ArmaSpec};
use flashp::forecast::stats::sample_variance;
use flashp::forecast::ArmaModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALPHA: f64 = 0.6;
const BETA: f64 = 0.25;
const SIGMA_U: f64 = 1.0;

#[test]
fn stationary_variance_matches_formula() {
    let mut rng = StdRng::seed_from_u64(101);
    let spec = ArmaSpec { ar: vec![ALPHA], ma: vec![BETA], mean: 0.0, sigma: SIGMA_U };
    for sigma_eps in [0.0, 1.0, 2.5] {
        let clean = simulate_arma(&spec, 200_000, &mut rng);
        let noisy = add_estimation_noise(&clean, sigma_eps, &mut rng);
        let predicted =
            arma11_noisy_variance(ALPHA, BETA, SIGMA_U * SIGMA_U, sigma_eps * sigma_eps).unwrap();
        let observed = sample_variance(&noisy);
        let rel = (observed - predicted).abs() / predicted;
        assert!(rel < 0.05, "sigma_eps {sigma_eps}: observed {observed} vs predicted {predicted}");
    }
}

#[test]
fn variance_constant_is_the_proposition_constant() {
    // a = (1 + 2·0.6·0.25 + 0.0625)/(1 − 0.36)
    let a = arma11_variance_constant(ALPHA, BETA).unwrap();
    let expected = (1.0 + 2.0 * ALPHA * BETA + BETA * BETA) / (1.0 - ALPHA * ALPHA);
    assert!((a - expected).abs() < 1e-12);
}

#[test]
fn noise_widens_fitted_forecast_intervals() {
    // Fit ARMA(1,1) on clean vs noisy estimates of the same series: the
    // noisy fit must carry a larger innovation variance and wider
    // intervals — the mechanism behind Fig. 12(a).
    let mut rng = StdRng::seed_from_u64(102);
    let spec = ArmaSpec { ar: vec![ALPHA], ma: vec![BETA], mean: 100.0, sigma: SIGMA_U };
    let clean = simulate_arma(&spec, 2_000, &mut rng);
    let noisy = add_estimation_noise(&clean, 2.0, &mut rng);

    let mut m_clean = ArmaModel::new(1, 1);
    let mut m_noisy = ArmaModel::new(1, 1);
    m_clean.fit(&clean).unwrap();
    m_noisy.fit(&noisy).unwrap();
    assert!(
        m_noisy.sigma2() > m_clean.sigma2() * 1.5,
        "noisy sigma2 {} vs clean {}",
        m_noisy.sigma2(),
        m_clean.sigma2()
    );
    let f_clean = m_clean.forecast(7, 0.9).unwrap();
    let f_noisy = m_noisy.forecast(7, 0.9).unwrap();
    assert!(f_noisy.mean_interval_width() > f_clean.mean_interval_width());
}

#[test]
fn negligible_noise_has_negligible_impact() {
    // σ_ε = 0.05 σ_u: interval widths within a few percent of the clean
    // fit — "if ε's variance is negligible in comparison to u's, ε will
    // have little impact on the forecast error/interval".
    let mut rng = StdRng::seed_from_u64(103);
    let spec = ArmaSpec { ar: vec![ALPHA], ma: vec![BETA], mean: 100.0, sigma: SIGMA_U };
    let clean = simulate_arma(&spec, 2_000, &mut rng);
    let noisy = add_estimation_noise(&clean, 0.05, &mut rng);

    let mut m_clean = ArmaModel::new(1, 1);
    let mut m_noisy = ArmaModel::new(1, 1);
    m_clean.fit(&clean).unwrap();
    m_noisy.fit(&noisy).unwrap();
    let w_clean = m_clean.forecast(7, 0.9).unwrap().mean_interval_width();
    let w_noisy = m_noisy.forecast(7, 0.9).unwrap().mean_interval_width();
    assert!(
        (w_noisy - w_clean).abs() / w_clean < 0.05,
        "clean width {w_clean} vs noisy width {w_noisy}"
    );
}

#[test]
fn unbiasedness_and_independence_of_engine_estimates() {
    // The engine's per-day estimates satisfy §3's two required properties:
    // unbiasedness (mean of estimates ≈ truth) and independence across
    // days (estimates come from independently drawn per-partition
    // samples; verify via near-zero lag-1 autocorrelation of the error).
    use flashp::core::{EngineConfig, FlashPEngine, SampleCatalog, SamplerChoice};
    use flashp::data::{generate_dataset, DatasetConfig};
    use flashp::storage::{AggFunc, Predicate, Timestamp};

    let ds = generate_dataset(&DatasetConfig::new(2_000, 60, 55)).unwrap();
    let config = EngineConfig {
        sampler: SamplerChoice::OptimalGsw,
        layer_rates: vec![0.05],
        ..Default::default()
    };
    let catalog = SampleCatalog::build(&ds.table, &config).unwrap();
    let engine = FlashPEngine::with_catalog(ds.table, config, catalog);
    let pred = engine.table().compile_predicate(&Predicate::eq("gender", "F")).unwrap();
    let start = Timestamp::from_yyyymmdd(20200101).unwrap();
    let end = start + 59;
    let (exact, _, _) = engine.estimate_series(0, &pred, AggFunc::Sum, start, end, 1.0).unwrap();
    let (est, _, _) = engine.estimate_series(0, &pred, AggFunc::Sum, start, end, 0.05).unwrap();

    let errors: Vec<f64> =
        est.iter().zip(&exact).map(|(e, x)| (e.value - x.value) / x.value).collect();
    let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean_err.abs() < 0.05, "relative bias {mean_err}");

    let acf = flashp::forecast::stats::acf(&errors, 1);
    assert!(acf[1].abs() < 0.35, "lag-1 autocorrelation of errors = {}", acf[1]);
}
