//! Engine configuration: sampler family, layer rates, measure grouping.

use flashp_storage::parallel::default_threads;

/// Which sampler family the offline preprocessor uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplerChoice {
    /// Uniform Bernoulli — the baseline; one sample serves all measures.
    Uniform,
    /// Optimal GSW (w = m) — one sample per measure.
    OptimalGsw,
    /// Priority sampling — one sample per measure.
    Priority,
    /// Threshold sampling — one sample per measure.
    Threshold,
    /// Arithmetic compressed GSW — one sample per measure *group*.
    ArithmeticGsw,
    /// Geometric compressed GSW — one sample per measure group.
    GeometricGsw,
}

impl SamplerChoice {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SamplerChoice::Uniform => "Uniform",
            SamplerChoice::OptimalGsw => "Optimal GSW",
            SamplerChoice::Priority => "Priority",
            SamplerChoice::Threshold => "Threshold",
            SamplerChoice::ArithmeticGsw => "Arithmetic compressed GSW",
            SamplerChoice::GeometricGsw => "Geometric compressed GSW",
        }
    }

    /// Does this sampler need one sample per measure (vs shared)?
    pub fn per_measure(&self) -> bool {
        matches!(
            self,
            SamplerChoice::OptimalGsw | SamplerChoice::Priority | SamplerChoice::Threshold
        )
    }

    /// Does this sampler draw one sample per measure group?
    pub fn grouped(&self) -> bool {
        matches!(self, SamplerChoice::ArithmeticGsw | SamplerChoice::GeometricGsw)
    }
}

/// How measures are grouped for compressed samplers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupingPolicy {
    /// KCENTER on normalized-L1 distance over a reference partition
    /// (§4.2), producing `num_groups` groups.
    Auto {
        /// Number of groups (compressed samples) to produce.
        num_groups: usize,
    },
    /// Explicit groups of measure indices.
    Explicit(Vec<Vec<usize>>),
    /// One group holding every measure.
    Single,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Multi-layer sample rates built offline (§5's "samples of different
    /// sizes"). Must be in (0, 1].
    pub layer_rates: Vec<f64>,
    /// Sampler family for the offline preprocessor.
    pub sampler: SamplerChoice,
    /// Measure grouping for compressed samplers.
    pub grouping: GroupingPolicy,
    /// RNG seed for sample drawing (per-partition seeds derive from it).
    pub seed: u64,
    /// Default model when the query has no `MODEL` option.
    pub default_model: String,
    /// Default forecast horizon (`FORE_PERIOD`).
    pub default_horizon: usize,
    /// Default confidence level for forecast intervals.
    pub default_confidence: f64,
    /// Default sampling rate when the query has no `SAMPLE_RATE` option
    /// (1.0 = exact full scan).
    pub default_rate: f64,
    /// Worker threads for scans and sample builds.
    pub threads: usize,
    /// If set, SQL statements must reference this table name.
    pub table_name: Option<String>,
    /// Enable the versioned day-partial cache (on by default): memoized
    /// per-(cell, predicate, measure) HT components and exact day states,
    /// invalidated structurally by publish. Bit-identical to recomputation
    /// by construction; set `false` — or export `FLASHP_NO_PARTIAL_CACHE=1`,
    /// which overrides this flag — to force every execution cold.
    pub partial_cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            // The paper's evaluation grid: 1%, 0.1%, 0.05%, 0.02%.
            layer_rates: vec![0.01, 0.001, 0.0005, 0.0002],
            sampler: SamplerChoice::OptimalGsw,
            grouping: GroupingPolicy::Auto { num_groups: 2 },
            seed: 0x00F1_A54B,
            default_model: "arima".to_string(),
            default_horizon: 7,
            default_confidence: 0.9,
            default_rate: 0.001,
            threads: default_threads(),
            table_name: None,
            partial_cache: true,
        }
    }
}

impl EngineConfig {
    /// Validate rates and defaults.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.layer_rates {
            if !(*r > 0.0 && *r <= 1.0) {
                return Err(format!("layer rate {r} outside (0, 1]"));
            }
        }
        if !(self.default_confidence > 0.0 && self.default_confidence < 1.0) {
            return Err(format!("confidence {} outside (0, 1)", self.default_confidence));
        }
        if self.default_horizon == 0 {
            return Err("default horizon must be >= 1".to_string());
        }
        if !(self.default_rate > 0.0 && self.default_rate <= 1.0) {
            return Err(format!("default rate {} outside (0, 1]", self.default_rate));
        }
        if let GroupingPolicy::Auto { num_groups } = &self.grouping {
            if *num_groups == 0 {
                return Err("num_groups must be >= 1".to_string());
            }
        }
        Ok(())
    }

    /// Convenience: same config with a different sampler.
    pub fn with_sampler(mut self, sampler: SamplerChoice) -> Self {
        self.sampler = sampler;
        self
    }

    /// Convenience: same config with different layer rates.
    pub fn with_layers(mut self, rates: &[f64]) -> Self {
        self.layer_rates = rates.to_vec();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_caught() {
        let c = EngineConfig { layer_rates: vec![0.0], ..Default::default() };
        assert!(c.validate().is_err());
        let c = EngineConfig { default_confidence: 1.0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = EngineConfig { default_horizon: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c =
            EngineConfig { grouping: GroupingPolicy::Auto { num_groups: 0 }, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn sampler_classification() {
        assert!(SamplerChoice::OptimalGsw.per_measure());
        assert!(SamplerChoice::Priority.per_measure());
        assert!(!SamplerChoice::Uniform.per_measure());
        assert!(SamplerChoice::ArithmeticGsw.grouped());
        assert!(!SamplerChoice::OptimalGsw.grouped());
    }

    #[test]
    fn builder_helpers() {
        let c = EngineConfig::default().with_sampler(SamplerChoice::Uniform).with_layers(&[0.5]);
        assert_eq!(c.sampler, SamplerChoice::Uniform);
        assert_eq!(c.layer_rates, vec![0.5]);
    }
}
