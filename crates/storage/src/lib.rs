//! # flashp-storage
//!
//! Columnar, time-partitioned storage for time series of relational data —
//! the substrate FlashP (VLDB 2021) runs on.
//!
//! A [`TimeSeriesTable`] models the paper's relation
//! `T(a(1), …, a(da); m(1), …, m(dm); t)`: every row belongs to exactly one
//! time partition `t`, carries dimension values used for filtering and
//! measure values that are aggregated and forecast. Partitioning by time is
//! what lets the 91 per-day aggregation queries of Fig. 2 be answered with a
//! single pass, and what lets samples be drawn and maintained per partition.
//!
//! The crate provides:
//! * compact dimension columns ([`mod@column`]) with dictionary encoding for
//!   strings,
//! * a predicate language ([`predicate`]) matching the constraint class `C`
//!   of the paper (any logical expression over dimension values),
//! * vectorized predicate evaluation into [`bitmask::Bitmask`]es, running
//!   on runtime-dispatched kernel tiers ([`simd`]: AVX-512 → AVX2 → SSE2 →
//!   portable word-at-a-time, selected once at startup), including SIMD
//!   IN-list membership and `f64` comparison kernels,
//! * SUM / COUNT / AVG aggregation ([`aggregate`]) per partition and over
//!   time ranges, with parallel partition scans ([`scan`]),
//! * zone-map statistics ([`stats`]) for partition pruning,
//! * calendar-aware [`timestamp::Timestamp`]s (`YYYYMMDD` literal support).

pub mod aggregate;
pub mod bitmask;
pub mod column;
pub mod error;
pub mod parallel;
pub mod partition;
pub mod predicate;
pub mod scan;
pub mod schema;
pub mod simd;
pub mod stats;
pub mod table;
pub mod timestamp;
pub mod types;

pub use aggregate::{
    aggregate_filtered, aggregate_filtered_f64_with, aggregate_filtered_with, AggFunc, AggState,
};
pub use bitmask::Bitmask;
pub use column::{Dictionary, DimensionColumn};
pub use error::StorageError;
pub use partition::{Partition, PartitionBuilder};
pub use predicate::{CmpOp, CompiledPredicate, InLookup, MaskScratch, Predicate};
pub use scan::{aggregate_range, aggregate_states_range, ScanOptions, SumMode};
pub use schema::{DimensionDef, MeasureDef, Schema, SchemaRef};
pub use simd::{KernelSet, KernelTier};
pub use table::{eval_partition_with, TimeSeriesTable};
pub use timestamp::{Date, Timestamp};
pub use types::{DataType, Value};

// The scalar reference kernels are a test oracle and live with the tests;
// the unit tests include them under the crate's own name.
#[cfg(test)]
extern crate self as flashp_storage;
#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;
