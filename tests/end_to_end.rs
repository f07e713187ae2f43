//! End-to-end pipeline tests: dataset → engine → SQL → forecast, across
//! sampler families and models.

use flashp::core::{EngineConfig, FlashPEngine, SampleCatalog, SamplerChoice};
use flashp::data::{generate_dataset, DatasetConfig};
use flashp::forecast::metrics::mean_relative_error;
use std::sync::Arc;

fn dataset_table() -> Arc<flashp::storage::TimeSeriesTable> {
    let ds = generate_dataset(&DatasetConfig::new(1_500, 70, 424242)).unwrap();
    Arc::new(ds.table)
}

fn engine_with(
    table: Arc<flashp::storage::TimeSeriesTable>,
    sampler: SamplerChoice,
) -> FlashPEngine {
    let config = EngineConfig {
        sampler,
        layer_rates: vec![0.1, 0.02],
        default_rate: 0.02,
        ..Default::default()
    };
    let catalog = SampleCatalog::build(&table, &config).unwrap();
    FlashPEngine::with_catalog(table, config, catalog)
}

#[test]
fn forecast_via_sql_for_every_sampler() {
    let table = dataset_table();
    for sampler in [
        SamplerChoice::Uniform,
        SamplerChoice::OptimalGsw,
        SamplerChoice::Priority,
        SamplerChoice::Threshold,
        SamplerChoice::ArithmeticGsw,
        SamplerChoice::GeometricGsw,
    ] {
        let label = sampler.label();
        let engine = engine_with(table.clone(), sampler);
        let result = engine
            .forecast(
                "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
                 USING (20200101, 20200229) \
                 OPTION (MODEL = 'ar(7)', FORE_PERIOD = 7, SAMPLE_RATE = 0.1)",
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(result.estimates.len(), 60, "{label}");
        assert_eq!(result.forecasts.len(), 7, "{label}");
        assert_eq!(result.sampler, label);
        assert!(result.forecast_values().iter().all(|v| v.is_finite()), "{label}");
        assert!(
            result.forecasts.iter().all(|f| f.lo <= f.value && f.value <= f.hi),
            "{label}: intervals must bracket the point forecast"
        );
        // Estimated series should track the exact series.
        let exact = engine
            .forecast(
                "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
                 USING (20200101, 20200229) \
                 OPTION (MODEL = 'ar(7)', FORE_PERIOD = 7, SAMPLE_RATE = 1.0)",
            )
            .unwrap();
        let err = mean_relative_error(&result.estimate_values(), &exact.estimate_values()).unwrap();
        assert!(err < 0.35, "{label}: estimate error vs exact = {err}");
    }
}

#[test]
fn count_and_avg_forecasts() {
    let table = dataset_table();
    let engine = engine_with(table, SamplerChoice::Uniform);
    let count = engine
        .forecast(
            "FORECAST COUNT(*) FROM ads WHERE gender = 'F' \
             USING (20200101, 20200229) OPTION (MODEL = 'naive', SAMPLE_RATE = 0.1)",
        )
        .unwrap();
    // Roughly 46% of ~1.5k rows/day.
    for p in &count.estimates {
        assert!(p.value > 300.0 && p.value < 1400.0, "count estimate {}", p.value);
    }
    let avg = engine
        .forecast(
            "FORECAST AVG(ViewTimeless) FROM ads USING (20200101, 20200131)"
                .replace("ViewTimeless", "Impression")
                .as_str(),
        )
        .unwrap();
    assert!(avg.estimates.iter().all(|p| p.value > 0.0));
    // AVG has no unbiased plug-in variance: noise variance reported as 0.
    assert_eq!(avg.mean_noise_variance, 0.0);
}

#[test]
fn forecasts_are_in_a_sane_range() {
    // Not a strict accuracy test — just that the pipeline's forecasts are
    // the right order of magnitude vs held-out truth.
    let ds = generate_dataset(&DatasetConfig::new(1_500, 70, 7)).unwrap();
    let table = Arc::new(ds.table);
    let engine = engine_with(table, SamplerChoice::OptimalGsw);
    let result = engine
        .forecast(
            "FORECAST SUM(Impression) FROM ads WHERE device = 'mobile' \
             USING (20200101, 20200229) \
             OPTION (MODEL = 'arima', FORE_PERIOD = 7, SAMPLE_RATE = 0.1)",
        )
        .unwrap();
    let pred = engine
        .table()
        .compile_predicate(&flashp::storage::Predicate::eq("device", "mobile"))
        .unwrap();
    let t0 = flashp::storage::Timestamp::from_yyyymmdd(20200301).unwrap();
    let (truth, _, _) =
        engine.estimate_series(0, &pred, flashp::storage::AggFunc::Sum, t0, t0 + 6, 1.0).unwrap();
    let truth_vals: Vec<f64> = truth.iter().map(|p| p.value).collect();
    let err = mean_relative_error(&result.forecast_values(), &truth_vals).unwrap();
    assert!(err < 0.6, "forecast error vs held-out week = {err}");
}

#[test]
fn timing_breakdown_reported() {
    let table = dataset_table();
    let engine = engine_with(table, SamplerChoice::OptimalGsw);
    let sampled = engine
        .forecast(
            "FORECAST SUM(Click) FROM ads USING (20200101, 20200229) \
             OPTION (MODEL = 'naive', SAMPLE_RATE = 0.02)",
        )
        .unwrap();
    let exact = engine
        .forecast(
            "FORECAST SUM(Click) FROM ads USING (20200101, 20200229) \
             OPTION (MODEL = 'naive', SAMPLE_RATE = 1.0)",
        )
        .unwrap();
    assert!(
        sampled.timing.aggregation < exact.timing.aggregation,
        "sampled aggregation ({:?}) should beat the full scan ({:?})",
        sampled.timing.aggregation,
        exact.timing.aggregation
    );
    assert!(sampled.timing.total() > std::time::Duration::ZERO);
}

#[test]
fn select_statements_agree_with_forecast_training_series() {
    let table = dataset_table();
    let engine = engine_with(table, SamplerChoice::Uniform);
    let rows = engine
        .select(
            "SELECT SUM(Impression) FROM ads \
             WHERE age <= 30 AND t >= 20200101 AND t <= 20200110 GROUP BY t",
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 10);
    let exact = engine
        .forecast(
            "FORECAST SUM(Impression) FROM ads WHERE age <= 30 \
             USING (20200101, 20200110) OPTION (MODEL = 'naive', SAMPLE_RATE = 1.0)",
        )
        .unwrap();
    for (row, est) in rows.rows.iter().zip(&exact.estimates) {
        assert_eq!(row.0, est.t);
        assert!((row.1 - est.value).abs() < 1e-9);
    }
}
