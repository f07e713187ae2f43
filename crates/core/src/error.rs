//! Engine-level error type, wrapping every layer of the pipeline.

use std::fmt;

/// Errors surfaced by the FlashP engine.
#[derive(Debug)]
pub enum EngineError {
    /// Query text failed to parse or bind.
    Parse(flashp_query::ParseError),
    /// Storage-level failure (unknown column, missing partition, …).
    Storage(flashp_storage::StorageError),
    /// Sampling failure.
    Sampling(flashp_sampling::SamplingError),
    /// Model fitting / forecasting failure.
    Forecast(flashp_forecast::ForecastError),
    /// Engine configuration or usage problem.
    Config(String),
    /// The engine has no sample catalog (build one with
    /// `SampleCatalog::build` and attach it with
    /// `FlashPEngine::with_catalog`), or its samples do not cover the
    /// requested range/measure.
    SamplesUnavailable(String),
    /// A `?` parameter problem: wrong arity, a parameter where none is
    /// allowed, or parameters supplied to a parameterless statement.
    Parameter(String),
    /// The statement was of the wrong kind for the API called.
    WrongStatement {
        /// The statement kind the API expected (e.g. `"FORECAST"`).
        expected: &'static str,
    },
}

impl EngineError {
    /// The shared "sampled query but no catalog" error.
    pub(crate) fn no_samples() -> Self {
        EngineError::SamplesUnavailable(
            "no sample layers built; attach a catalog (SampleCatalog::build + \
             FlashPEngine::with_catalog)"
                .to_string(),
        )
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "parse error: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Sampling(e) => write!(f, "sampling error: {e}"),
            EngineError::Forecast(e) => write!(f, "forecast error: {e}"),
            EngineError::Config(msg) => write!(f, "configuration error: {msg}"),
            EngineError::SamplesUnavailable(msg) => write!(f, "samples unavailable: {msg}"),
            EngineError::Parameter(msg) => write!(f, "parameter error: {msg}"),
            EngineError::WrongStatement { expected } => {
                write!(f, "wrong statement kind: expected {expected}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            EngineError::Sampling(e) => Some(e),
            EngineError::Forecast(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flashp_query::ParseError> for EngineError {
    fn from(e: flashp_query::ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<flashp_storage::StorageError> for EngineError {
    fn from(e: flashp_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<flashp_sampling::SamplingError> for EngineError {
    fn from(e: flashp_sampling::SamplingError) -> Self {
        EngineError::Sampling(e)
    }
}

impl From<flashp_forecast::ForecastError> for EngineError {
    fn from(e: flashp_forecast::ForecastError) -> Self {
        EngineError::Forecast(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = flashp_storage::StorageError::UnknownColumn("x".into()).into();
        assert!(e.to_string().contains("storage"));
        let e: EngineError = flashp_forecast::ForecastError::NotFitted.into();
        assert!(e.to_string().contains("forecast"));
        let e = EngineError::WrongStatement { expected: "FORECAST" };
        assert!(e.to_string().contains("FORECAST"));
    }
}
