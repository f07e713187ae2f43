//! # flashp-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the FlashP paper's evaluation (§6). Each experiment lives in
//! [`experiments`] as a library function, and the one binary `run_all`
//! runs them all on one shared dataset, or a subset by module name
//! (`cargo run -p flashp-bench --release --bin run_all -- --only
//! fig9_agg_error,prop1`).
//!
//! Scale knobs (environment variables):
//!
//! * `FLASHP_ROWS_PER_DAY` — rows per daily partition (default 20 000; the
//!   paper's production table has ~15 M),
//! * `FLASHP_DAYS` — number of days (default 200, as in the paper),
//! * `FLASHP_RUNS` — independent tasks per configuration (default 10; the
//!   paper averages 400),
//! * `FLASHP_QUICK=1` — tiny preset for smoke runs,
//! * `FLASHP_SEED` — dataset seed.
//!
//! Machine-readable results are written to `target/experiments/*.json`.

pub mod experiments;

use flashp_core::{build_model, EngineConfig, FlashPEngine, SampleCatalog, SamplerChoice};
use flashp_data::workload::{Task, WorkloadConfig, WorkloadGenerator};
use flashp_data::{generate_dataset, DatasetConfig};
use flashp_storage::{AggFunc, CompiledPredicate, TimeSeriesTable, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's sampling-rate grid (1 %, 0.1 %, 0.05 %, 0.02 %), relative
/// to a 15 M rows/day table. The estimation-error theory depends on the
/// *absolute* expected sample size `E|S|`, not the rate, so laptop-scale
/// runs scale this grid up by `FLASHP_RATE_SCALE` (default 10 at the
/// default 50 k rows/day) to keep per-day sample sizes in a regime where
/// the samplers are distinguishable. Set `FLASHP_RATE_SCALE=1` together
/// with a large `FLASHP_ROWS_PER_DAY` for paper-true rates.
pub const BASE_PAPER_RATES: [f64; 4] = [0.01, 0.001, 0.0005, 0.0002];

/// Rate-grid scale factor (`FLASHP_RATE_SCALE`, default 10).
pub fn rate_scale() -> f64 {
    std::env::var("FLASHP_RATE_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(10.0)
}

/// The scaled sampling-rate grid used by experiments.
pub fn paper_rates() -> Vec<f64> {
    let k = rate_scale();
    BASE_PAPER_RATES.iter().map(|r| (r * k).min(1.0)).collect()
}

/// Scaled rates including the exact scan, for experiment sweeps.
pub fn sweep_rates() -> Vec<f64> {
    let mut v = vec![1.0];
    v.extend(paper_rates());
    v.dedup();
    v
}

/// Measure names in schema order.
pub const MEASURES: [&str; 4] = ["Impression", "Click", "Favorite", "Cart"];

/// Pretty rate label matching the paper's axes.
pub fn rate_label(rate: f64) -> String {
    format!("{}%", rate * 100.0)
}

/// Number of independent tasks per configuration (`FLASHP_RUNS`).
pub fn runs() -> usize {
    std::env::var("FLASHP_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(10)
}

/// Shared experiment context: one synthetic dataset per process.
pub struct Harness {
    pub table: Arc<TimeSeriesTable>,
    pub start: Timestamp,
    pub num_days: usize,
}

impl Harness {
    /// Load the dataset per environment configuration.
    pub fn load() -> Self {
        let seed = std::env::var("FLASHP_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(2024);
        let config = if std::env::var("FLASHP_QUICK").is_ok() {
            DatasetConfig::new(2_000, 80, seed)
        } else {
            DatasetConfig::experiment(seed)
        };
        eprintln!(
            "[harness] generating dataset: {} rows/day x {} days (seed {seed})…",
            config.rows_per_day, config.num_days
        );
        let t0 = Instant::now();
        let ds = generate_dataset(&config).expect("dataset generation");
        eprintln!(
            "[harness] {} rows, {:.1} MiB, {:.1?}",
            ds.table.num_rows(),
            ds.table.byte_size() as f64 / (1024.0 * 1024.0),
            t0.elapsed()
        );
        let start = ds.start();
        Harness { table: Arc::new(ds.table), start, num_days: config.num_days }
    }

    /// Last day of the dataset.
    pub fn end(&self) -> Timestamp {
        self.start + (self.num_days as i64 - 1)
    }

    /// Training window of `len` days whose 7-day holdout still lies inside
    /// the dataset: `[end − 7 − len + 1, end − 7]`.
    pub fn train_range(&self, len: usize) -> (Timestamp, Timestamp) {
        let train_end = self.end() - 7;
        (train_end - (len as i64 - 1), train_end)
    }

    /// A workload generator referencing the dataset's middle day.
    pub fn workload(&self) -> WorkloadGenerator<'_> {
        let mid = self.start + (self.num_days as i64 / 2);
        WorkloadGenerator::for_table(&self.table, mid)
    }

    /// Generate `n` tasks for `measure` at the target selectivity.
    pub fn tasks(&self, measure: usize, selectivity: f64, n: usize, seed: u64) -> Vec<Task> {
        let workload = self.workload();
        let mut rng = StdRng::seed_from_u64(seed);
        let config = WorkloadConfig::new(selectivity);
        (0..n)
            .map(|_| workload.generate(measure, &config, &mut rng).expect("workload generation"))
            .collect()
    }

    /// An engine over the dataset with a freshly built `sampler` catalog
    /// at the given layer rates.
    pub fn engine(&self, sampler: SamplerChoice, rates: &[f64]) -> FlashPEngine {
        let t0 = Instant::now();
        let config = EngineConfig { sampler, layer_rates: rates.to_vec(), ..Default::default() };
        let catalog = SampleCatalog::build(&self.table, &config).expect("sample build");
        eprintln!(
            "[harness] built {} samples: {} KiB in {:.1?}",
            config.sampler.label(),
            catalog.stats().total_bytes / 1024,
            t0.elapsed()
        );
        FlashPEngine::with_catalog(self.table.clone(), config, catalog)
    }

    /// Exact per-day aggregates over `[t0, t1]`.
    pub fn truth(
        &self,
        measure: usize,
        pred: &CompiledPredicate,
        t0: Timestamp,
        t1: Timestamp,
    ) -> Vec<f64> {
        flashp_storage::aggregate_range(
            &self.table,
            measure,
            pred,
            AggFunc::Sum,
            t0,
            t1,
            flashp_storage::ScanOptions::default(),
        )
        .expect("exact scan")
        .into_iter()
        .map(|(_, v)| v)
        .collect()
    }
}

/// Mean relative aggregation error of `engine` at `rate` vs the exact
/// series over the window (the paper's *relative aggregation error*).
pub fn agg_error(
    engine: &FlashPEngine,
    measure: usize,
    pred: &CompiledPredicate,
    t0: Timestamp,
    t1: Timestamp,
    rate: f64,
) -> f64 {
    if rate >= 1.0 {
        return 0.0;
    }
    let (exact, _, _) =
        engine.estimate_series(measure, pred, AggFunc::Sum, t0, t1, 1.0).expect("exact series");
    let (est, _, _) =
        engine.estimate_series(measure, pred, AggFunc::Sum, t0, t1, rate).expect("estimate");
    let mut total = 0.0;
    let mut n = 0usize;
    for (e, x) in est.iter().zip(&exact) {
        if x.value != 0.0 {
            total += (e.value - x.value).abs() / x.value;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        total / n as f64
    }
}

/// Result of one end-to-end forecast evaluation.
#[derive(Debug, Clone)]
pub struct ForecastEval {
    /// Relative forecast error vs held-out truth, averaged over the
    /// horizon.
    pub forecast_error: f64,
    /// Mean forecast-interval width.
    pub interval_width: f64,
    /// Aggregation-phase wall clock.
    pub agg_time: Duration,
    /// Model fit + prediction wall clock.
    pub fit_time: Duration,
    /// The estimated training series.
    pub estimates: Vec<f64>,
    /// Point forecasts.
    pub forecasts: Vec<f64>,
    /// Interval bounds per horizon step.
    pub intervals: Vec<(f64, f64)>,
}

/// Run the two-phase pipeline programmatically (estimate series → fit
/// `model` → forecast over `truth.len()` steps) and score against `truth`.
pub fn forecast_eval(
    engine: &FlashPEngine,
    measure: usize,
    pred: &CompiledPredicate,
    train: (Timestamp, Timestamp),
    model_name: &str,
    rate: f64,
    truth: &[f64],
) -> Result<ForecastEval, Box<dyn std::error::Error>> {
    let horizon = truth.len();
    let t0 = Instant::now();
    let (points, _, _) =
        engine.estimate_series(measure, pred, AggFunc::Sum, train.0, train.1, rate)?;
    let agg_time = t0.elapsed();
    let estimates: Vec<f64> = points.iter().map(|p| p.value).collect();

    let t1 = Instant::now();
    let mut model = build_model(model_name)?;
    model.fit(&estimates)?;
    let fc = model.forecast(horizon, 0.9)?;
    let fit_time = t1.elapsed();

    let forecasts = fc.values();
    let forecast_error =
        flashp_forecast::metrics::mean_relative_error(&forecasts, truth).unwrap_or(f64::NAN);
    Ok(ForecastEval {
        forecast_error,
        interval_width: fc.mean_interval_width(),
        agg_time,
        fit_time,
        estimates,
        forecasts,
        intervals: fc.points.iter().map(|p| (p.lo, p.hi)).collect(),
    })
}

/// Mean and sample standard deviation of a slice (NaNs skipped).
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let clean: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    if clean.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = clean.iter().sum::<f64>() / clean.len() as f64;
    if clean.len() < 2 {
        return (mean, 0.0);
    }
    let var = clean.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (clean.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write a JSON result blob to `target/experiments/<name>.json`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(text) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, text);
        eprintln!("[harness] wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - 1.0).abs() < 1e-12);
        let (m, _) = mean_std(&[f64::NAN, 4.0]);
        assert_eq!(m, 4.0);
        assert!(mean_std(&[]).0.is_nan());
    }

    #[test]
    fn rate_labels() {
        assert_eq!(rate_label(1.0), "100%");
        assert_eq!(rate_label(0.001), "0.1%");
        assert_eq!(rate_label(0.0002), "0.02%");
    }

    #[test]
    fn harness_quick_pipeline() {
        std::env::set_var("FLASHP_QUICK", "1");
        let h = Harness::load();
        assert_eq!(h.num_days, 80);
        let (t0, t1) = h.train_range(30);
        assert_eq!(t1 - t0, 29);
        assert_eq!(h.end() - t1, 7);
        let tasks = h.tasks(0, 0.1, 2, 1);
        assert_eq!(tasks.len(), 2);
        let pred = h.table.compile_predicate(&tasks[0].predicate).unwrap();
        let truth = h.truth(0, &pred, t1 + 1, t1 + 7);
        assert_eq!(truth.len(), 7);
        assert!(truth.iter().all(|v| *v >= 0.0));
        std::env::remove_var("FLASHP_QUICK");
    }
}
