//! # flashp-core
//!
//! The FlashP pipeline (§2.1 and §5 of the paper): an engine that owns a
//! time-series relation, runs the **offline sample preprocessor**
//! (multi-layer GSW/uniform/priority/threshold samples per partition) and
//! serves **online forecasting tasks**:
//!
//! 1. a `FORECAST` statement is rewritten into the per-timestamp
//!    aggregation queries of Eq. (4);
//! 2. each is estimated from the chosen sample layer (or answered exactly
//!    at `SAMPLE_RATE = 1.0`);
//! 3. the estimates train the requested forecasting model (ARIMA, LSTM,
//!    ETS, …) which predicts `FORE_PERIOD` future points with confidence
//!    intervals.
//!
//! The result carries the aggregation/forecasting wall-clock split
//! (Fig. 7), per-timestamp estimator variances (the σ_ε² of §3) and an
//! optional noise-aware interval widening per Proposition 1.
//!
//! ## The staged query pipeline
//!
//! Statements move through four explicit stages:
//!
//! 1. **parse** — [`flashp_query::parse`] produces a [`Statement`] AST;
//! 2. **plan** — a [`planner::Planner`] resolves names and options,
//!    constant-folds the predicate and picks the serving sample layer,
//!    yielding a typed [`planner::LogicalPlan`];
//! 3. **prepare** — [`FlashPEngine::prepare`] packages the plan into a
//!    `Send + Sync` [`PreparedQuery`] executable repeatedly via `&self`,
//!    with `?` placeholders bound per call;
//! 4. **execute** — runs the plan; `EXPLAIN <stmt>` instead renders it as
//!    a [`explain::PlanNode`] tree.
//!
//! The offline stage lives in [`catalog`]: [`SampleCatalog::build`] draws
//! every layer × bucket × partition sample without borrowing an engine,
//! and the resulting catalog is immutable and freely shareable.
//!
//! ## Live ingest and versioned catalogs
//!
//! Tables and catalogs are *versioned* ([`version`]): the engine serves
//! queries from an immutable [`CatalogVersion`] snapshot behind an
//! atomically swappable `Arc`. [`FlashPEngine::ingest`] stages new rows
//! invisibly; [`FlashPEngine::publish`] derives the next catalog version
//! incrementally — only changed (layer, bucket, partition) cells are
//! recomputed, and grown GSW cells are absorbed via the §4.1 key rule —
//! then swaps it in without blocking in-flight executions. See
//! `ARCHITECTURE.md` at the repository root for the full lifecycle.

#![warn(missing_docs)]

mod bounded;
pub mod catalog;
pub mod config;
pub mod engine;
pub mod error;
pub mod explain;
pub mod models;
pub mod partial_cache;
pub mod planner;
pub mod prepared;
pub mod result;
pub mod sharded;
pub mod version;

pub use catalog::{BuildStats, DeltaStats, LayerStats, SampleCatalog};
pub use config::{EngineConfig, GroupingPolicy, SamplerChoice};
pub use engine::{EngineStats, FlashPEngine, PlanCacheStats};
pub use error::EngineError;
pub use explain::PlanNode;
pub use models::build_model;
pub use partial_cache::{PartialCache, PartialCacheStats};
pub use planner::{LogicalPlan, Planner, ScanSource, SourceSlot, TimeRangeSlot};
pub use prepared::{DayPartial, PreparedQuery};
pub use result::{
    ExecOutput, ForecastOut, ForecastResult, SelectResult, SelectRow, SeriesPoint, Timing,
};
pub use sharded::{
    route_hash, ShardConfig, ShardResponse, ShardSnapshot, ShardStats, ShardedEngine,
    ShardedPrepared, ShardedStats,
};
pub use version::{CatalogDelta, CatalogVersion, IngestBatch, PublishStats};

// Re-exported so engine users can parse statements and bind parameters
// without depending on flashp-query directly.
pub use flashp_query::{parse, Literal, Statement};

#[cfg(test)]
pub(crate) mod test_support {
    use flashp_storage::{DataType, Schema, TimeSeriesTable, Timestamp, Value};

    /// Small deterministic table: 40 days, 400 rows/day, one heavy-tailed
    /// measure plus a proportional one.
    pub(crate) fn test_table() -> TimeSeriesTable {
        let schema = Schema::from_names(
            &[("seg", DataType::Int64), ("grp", DataType::Categorical)],
            &["m1", "m2"],
        )
        .unwrap()
        .into_shared();
        let mut table = TimeSeriesTable::new(schema);
        let start = Timestamp::from_yyyymmdd(20200101).unwrap();
        let mut state = 777u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for day in 0..40i64 {
            let level = 100.0 + day as f64 + 10.0 * ((day % 7) as f64);
            for row in 0..400i64 {
                let heavy = if row % 97 == 0 { 50.0 } else { 1.0 };
                let m1 = level * heavy * (0.5 + next());
                table
                    .append_row(
                        start + day,
                        &[Value::Int(row % 10), Value::from(if row % 2 == 0 { "a" } else { "b" })],
                        &[m1, m1 * 0.1],
                    )
                    .unwrap();
            }
        }
        table
    }
}
