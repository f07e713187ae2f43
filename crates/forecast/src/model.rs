//! The common forecasting-model interface of Eq. (2):
//! `M_t = f_t(M_{t−1}, …, M_{t−K})`, fitted on historical points and used
//! to forecast `FORE_PERIOD` future values with confidence intervals.

use crate::error::ForecastError;

/// One forecast point: `h` steps ahead, with a `confidence`-level interval
/// `[lo, hi]` (the paper's forecast interval, Fig. 3's dashed lines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastPoint {
    /// Steps ahead of the last training point (1-based).
    pub step: usize,
    /// Point forecast `M̂_{t0+h|t0}`.
    pub value: f64,
    /// Lower bound of the forecast interval.
    pub lo: f64,
    /// Upper bound of the forecast interval.
    pub hi: f64,
    /// Standard error of the forecast at this horizon.
    pub std_err: f64,
}

/// A full forecast: points for `h = 1..=horizon` plus fit diagnostics.
#[derive(Debug, Clone)]
pub struct Forecast {
    pub points: Vec<ForecastPoint>,
    /// Confidence level used for the intervals (e.g. 0.9).
    pub confidence: f64,
    /// Estimated innovation variance of the fitted model (σ̂²).
    pub sigma2: f64,
}

impl Forecast {
    /// Just the point forecasts.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.value).collect()
    }

    /// Mean interval width (the quantity plotted in Fig. 12(a)).
    pub fn mean_interval_width(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.hi - p.lo).sum::<f64>() / self.points.len() as f64
    }
}

/// Summary statistics of a model fit.
#[derive(Debug, Clone, Default)]
pub struct FitSummary {
    /// Residual (innovation) variance estimate.
    pub sigma2: f64,
    /// Conditional Gaussian log-likelihood, if the model defines one.
    pub log_likelihood: Option<f64>,
    /// AIC (Akaike's information-theoretic model score), if defined.
    pub aic: Option<f64>,
    /// Number of free parameters.
    pub num_params: usize,
    /// Number of observations used after differencing/windowing.
    pub n_obs: usize,
}

/// A forecasting model in the class of Eq. (2). Implementations must be
/// fitted before forecasting and may be refitted on new data.
pub trait ForecastModel {
    /// Short human-readable name (e.g. `"arima(1,1,1)"`).
    fn name(&self) -> String;

    /// Fit on the historical metric values `M_1..M_t0`, in time order.
    fn fit(&mut self, series: &[f64]) -> Result<FitSummary, ForecastError>;

    /// Forecast `horizon` future values with `confidence`-level intervals.
    /// Must be called after a successful [`ForecastModel::fit`].
    fn forecast(&self, horizon: usize, confidence: f64) -> Result<Forecast, ForecastError>;
}

/// Validate the common arguments of [`ForecastModel::forecast`].
pub fn validate_forecast_args(horizon: usize, confidence: f64) -> Result<(), ForecastError> {
    if horizon == 0 {
        return Err(ForecastError::InvalidParam("horizon must be >= 1".to_string()));
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(ForecastError::InvalidParam(format!(
            "confidence must be in (0,1), got {confidence}"
        )));
    }
    Ok(())
}

/// Build interval-bearing forecast points from means and standard errors.
pub fn points_from_std_errs(
    means: &[f64],
    std_errs: &[f64],
    confidence: f64,
) -> Vec<ForecastPoint> {
    let z = crate::stats::z_for_confidence(confidence);
    means
        .iter()
        .zip(std_errs)
        .enumerate()
        .map(|(i, (m, se))| ForecastPoint {
            step: i + 1,
            value: *m,
            lo: m - z * se,
            hi: m + z * se,
            std_err: *se,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_width() {
        let points = points_from_std_errs(&[10.0, 20.0], &[1.0, 2.0], 0.9);
        let f = Forecast { points, confidence: 0.9, sigma2: 1.0 };
        assert_eq!(f.values(), vec![10.0, 20.0]);
        // width = 2 z σ; z(0.9) ≈ 1.645 → widths ≈ 3.29 and 6.58, mean 4.93.
        assert!((f.mean_interval_width() - 4.934).abs() < 0.01);
    }

    #[test]
    fn validation() {
        assert!(validate_forecast_args(0, 0.9).is_err());
        assert!(validate_forecast_args(5, 0.0).is_err());
        assert!(validate_forecast_args(5, 1.0).is_err());
        assert!(validate_forecast_args(5, 0.9).is_ok());
    }

    #[test]
    fn points_are_symmetric_around_mean() {
        let pts = points_from_std_errs(&[5.0], &[2.0], 0.95);
        let p = pts[0];
        assert!(((p.hi - p.value) - (p.value - p.lo)).abs() < 1e-12);
        assert_eq!(p.step, 1);
        assert_eq!(p.std_err, 2.0);
    }
}
