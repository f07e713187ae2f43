//! Exponential smoothing (ETS) models — simple, Holt linear-trend, and
//! additive Holt–Winters. These are "pluggable" extension models in the
//! sense of §5; smoothing parameters are fitted by minimizing the one-step
//! SSE with Nelder–Mead over a logistic parameterization that keeps them
//! in (0, 1).

use crate::error::{check_finite, ForecastError};
use crate::model::{
    points_from_std_errs, validate_forecast_args, FitSummary, Forecast, ForecastModel,
};
use crate::optimize::{nelder_mead, NelderMeadOptions};

/// Which ETS variant to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtsVariant {
    /// Simple exponential smoothing (level only).
    Simple,
    /// Holt's linear trend (level + trend).
    Holt,
    /// Additive Holt–Winters (level + trend + seasonal of the given period).
    HoltWinters { period: usize },
}

/// Fitted state of an ETS model.
#[derive(Debug, Clone, Default)]
struct EtsState {
    level: f64,
    trend: f64,
    seasonals: Vec<f64>,
    /// Training length: the first forecast step is time index `n`.
    n: usize,
}

/// An exponential smoothing forecaster.
#[derive(Debug, Clone)]
pub struct EtsModel {
    variant: EtsVariant,
    alpha: f64,
    beta: f64,
    gamma: f64,
    state: EtsState,
    sigma2: f64,
    fitted: bool,
}

fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    (p / (1.0 - p)).ln()
}

impl EtsModel {
    /// New unfitted model.
    pub fn new(variant: EtsVariant) -> Self {
        EtsModel {
            variant,
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.1,
            state: EtsState::default(),
            sigma2: 0.0,
            fitted: false,
        }
    }

    /// Fitted smoothing parameters `(alpha, beta, gamma)`; entries beyond
    /// the variant's needs are zero.
    pub fn params(&self) -> (f64, f64, f64) {
        match self.variant {
            EtsVariant::Simple => (self.alpha, 0.0, 0.0),
            EtsVariant::Holt => (self.alpha, self.beta, 0.0),
            EtsVariant::HoltWinters { .. } => (self.alpha, self.beta, self.gamma),
        }
    }

    fn period(&self) -> usize {
        match self.variant {
            EtsVariant::HoltWinters { period } => period,
            _ => 0,
        }
    }

    /// One smoothing pass: returns `(sse, n_pred, final_state)`.
    fn run(&self, series: &[f64], alpha: f64, beta: f64, gamma: f64) -> (f64, usize, EtsState) {
        let m = self.period();
        let mut state = EtsState { n: series.len(), ..EtsState::default() };
        // Initialization: level = first value (or first-season mean),
        // trend = mean first differences, seasonals = deviations from the
        // first season's mean.
        match self.variant {
            EtsVariant::Simple => {
                state.level = series[0];
            }
            EtsVariant::Holt => {
                state.level = series[0];
                state.trend = series[1] - series[0];
            }
            EtsVariant::HoltWinters { period } => {
                let season_mean: f64 = series[..period].iter().sum::<f64>() / period as f64;
                state.level = season_mean;
                state.trend = (series[period..2 * period].iter().sum::<f64>() / period as f64
                    - season_mean)
                    / period as f64;
                state.seasonals = series[..period].iter().map(|v| v - season_mean).collect();
            }
        }
        let start = match self.variant {
            EtsVariant::Simple => 1,
            EtsVariant::Holt => 2,
            EtsVariant::HoltWinters { period } => period,
        };
        let mut sse = 0.0;
        let mut n_pred = 0usize;
        for (t, y) in series.iter().enumerate().skip(start) {
            let seasonal = if m > 0 { state.seasonals[t % m] } else { 0.0 };
            let pred = state.level + state.trend + seasonal;
            let err = y - pred;
            sse += err * err;
            n_pred += 1;
            let prev_level = state.level;
            state.level = alpha * (y - seasonal) + (1.0 - alpha) * (state.level + state.trend);
            if !matches!(self.variant, EtsVariant::Simple) {
                state.trend = beta * (state.level - prev_level) + (1.0 - beta) * state.trend;
            }
            if m > 0 {
                state.seasonals[t % m] = gamma * (y - state.level) + (1.0 - gamma) * seasonal;
            }
        }
        (sse, n_pred, state)
    }

    fn min_len(&self) -> usize {
        match self.variant {
            EtsVariant::Simple => 3,
            EtsVariant::Holt => 4,
            EtsVariant::HoltWinters { period } => 2 * period + 1,
        }
    }
}

impl ForecastModel for EtsModel {
    fn name(&self) -> String {
        match self.variant {
            EtsVariant::Simple => "ets(simple)".to_string(),
            EtsVariant::Holt => "ets(holt)".to_string(),
            EtsVariant::HoltWinters { period } => format!("ets(holt_winters,{period})"),
        }
    }

    fn fit(&mut self, series: &[f64]) -> Result<FitSummary, ForecastError> {
        check_finite(series)?;
        if let EtsVariant::HoltWinters { period } = self.variant {
            if period < 2 {
                return Err(ForecastError::InvalidParam("period must be >= 2".to_string()));
            }
        }
        if series.len() < self.min_len() {
            return Err(ForecastError::TooShort { needed: self.min_len(), got: series.len() });
        }
        let dims = match self.variant {
            EtsVariant::Simple => 1,
            EtsVariant::Holt => 2,
            EtsVariant::HoltWinters { .. } => 3,
        };
        let x0: Vec<f64> = [logit(0.3), logit(0.1), logit(0.1)][..dims].to_vec();
        let objective = |x: &[f64]| {
            let alpha = logistic(x[0]);
            let beta = if dims > 1 { logistic(x[1]) } else { 0.0 };
            let gamma = if dims > 2 { logistic(x[2]) } else { 0.0 };
            self.run(series, alpha, beta, gamma).0
        };
        let result = nelder_mead(
            objective,
            &x0,
            NelderMeadOptions { max_evals: 1500, f_tol: 1e-10, initial_step: 0.5 },
        );
        self.alpha = logistic(result.x[0]);
        self.beta = if dims > 1 { logistic(result.x[1]) } else { 0.0 };
        self.gamma = if dims > 2 { logistic(result.x[2]) } else { 0.0 };
        let (sse, n_pred, state) = self.run(series, self.alpha, self.beta, self.gamma);
        self.state = state;
        self.sigma2 = sse / n_pred.max(1) as f64;
        self.fitted = true;
        Ok(FitSummary {
            sigma2: self.sigma2,
            log_likelihood: None,
            aic: None,
            num_params: dims,
            n_obs: n_pred,
        })
    }

    fn forecast(&self, horizon: usize, confidence: f64) -> Result<Forecast, ForecastError> {
        if !self.fitted {
            return Err(ForecastError::NotFitted);
        }
        validate_forecast_args(horizon, confidence)?;
        let m = self.period();
        let means: Vec<f64> = (1..=horizon)
            .map(|h| {
                let seasonal = if m > 0 {
                    // Step `h` is time index `n + h − 1`; the fit loop
                    // keeps time `t`'s seasonal in slot `t % m`.
                    self.state.seasonals[(self.state.n + h - 1) % m]
                } else {
                    0.0
                };
                self.state.level + self.state.trend * h as f64 + seasonal
            })
            .collect();
        // Standard error via the class-2 approximation: c_j = α(1 + jβ)
        // (+ γ at seasonal multiples); Var_h = σ²(1 + Σ_{j<h} c_j²).
        let mut cum = 0.0;
        let std_errs: Vec<f64> = (1..=horizon)
            .map(|h| {
                if h > 1 {
                    let j = (h - 1) as f64;
                    let mut c = self.alpha * (1.0 + j * self.beta);
                    if m > 0 && (h - 1) % m == 0 {
                        c += self.gamma * (1.0 - self.alpha);
                    }
                    cum += c * c;
                }
                (self.sigma2 * (1.0 + cum)).sqrt()
            })
            .collect();
        Ok(Forecast {
            points: points_from_std_errs(&means, &std_errs, confidence),
            confidence,
            sigma2: self.sigma2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::randn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simple_converges_to_level() {
        let mut rng = StdRng::seed_from_u64(30);
        let series: Vec<f64> = (0..200).map(|_| 50.0 + randn(&mut rng)).collect();
        let mut m = EtsModel::new(EtsVariant::Simple);
        m.fit(&series).unwrap();
        let f = m.forecast(5, 0.9).unwrap();
        for p in &f.points {
            assert!((p.value - 50.0).abs() < 2.0, "forecast = {}", p.value);
        }
        // Flat point forecasts for SES.
        assert!((f.points[0].value - f.points[4].value).abs() < 1e-9);
    }

    #[test]
    fn holt_follows_trend() {
        let mut rng = StdRng::seed_from_u64(31);
        let series: Vec<f64> = (0..150).map(|t| 2.0 * t as f64 + randn(&mut rng)).collect();
        let mut m = EtsModel::new(EtsVariant::Holt);
        m.fit(&series).unwrap();
        let f = m.forecast(5, 0.9).unwrap();
        for (h, p) in f.points.iter().enumerate() {
            let expected = 2.0 * (149 + h + 1) as f64;
            assert!((p.value - expected).abs() < 5.0, "h={h}: {} vs {expected}", p.value);
        }
    }

    #[test]
    fn holt_winters_reproduces_seasonality() {
        let mut rng = StdRng::seed_from_u64(32);
        let season = [10.0, -5.0, 0.0, -5.0];
        let series: Vec<f64> =
            (0..160).map(|t| 100.0 + season[t % 4] + 0.3 * randn(&mut rng)).collect();
        let mut m = EtsModel::new(EtsVariant::HoltWinters { period: 4 });
        m.fit(&series).unwrap();
        let f = m.forecast(8, 0.9).unwrap();
        // Next points continue the seasonal pattern (t = 160, 161, …).
        for (h, p) in f.points.iter().enumerate() {
            let expected = 100.0 + season[(160 + h) % 4];
            assert!((p.value - expected).abs() < 2.0, "h={h}: {} vs {expected}", p.value);
        }
    }

    #[test]
    fn holt_winters_forecast_phase_follows_training_length() {
        // A noiseless period-7 series is tracked exactly, so the forecast
        // must continue the season wherever the training window ends, not
        // only when its length is a multiple of the period.
        let season = [12.0, -3.0, 5.0, -9.0, 0.0, 4.0, -9.0];
        let value = |t: usize| 100.0 + season[t % 7];
        for n in 140..147 {
            let series: Vec<f64> = (0..n).map(value).collect();
            let mut m = EtsModel::new(EtsVariant::HoltWinters { period: 7 });
            m.fit(&series).unwrap();
            let f = m.forecast(14, 0.9).unwrap();
            for (h, p) in f.points.iter().enumerate() {
                let expected = value(n + h);
                let rel = (p.value - expected).abs() / expected;
                assert!(rel < 1e-9, "n={n} h={}: {} vs {expected}", h + 1, p.value);
            }
        }
    }

    #[test]
    fn interval_widths_nondecreasing() {
        let mut rng = StdRng::seed_from_u64(33);
        let series: Vec<f64> = (0..100).map(|t| t as f64 + randn(&mut rng)).collect();
        let mut m = EtsModel::new(EtsVariant::Holt);
        m.fit(&series).unwrap();
        let f = m.forecast(10, 0.9).unwrap();
        for w in f.points.windows(2) {
            assert!(w[1].std_err >= w[0].std_err);
        }
    }

    #[test]
    fn validation() {
        assert!(EtsModel::new(EtsVariant::Simple).fit(&[1.0]).is_err());
        assert!(EtsModel::new(EtsVariant::HoltWinters { period: 1 }).fit(&[1.0; 30]).is_err());
        assert!(EtsModel::new(EtsVariant::HoltWinters { period: 7 }).fit(&[1.0; 10]).is_err());
        assert!(EtsModel::new(EtsVariant::Simple).forecast(3, 0.9).is_err());
    }
}
