//! Parallel time-range scans: the batched processing of the `t0`
//! aggregation queries of Eq. (4) "with one scan of the data".
//!
//! Per-partition evaluation routes through the runtime-dispatched kernel
//! tier ([`crate::simd::active`]): predicate leaves and the fused
//! single-comparison filter+aggregate run on AVX-512 / SSE2 / portable
//! word-at-a-time kernels, selected once at startup.

use crate::aggregate::{AggFunc, AggState};
use crate::error::StorageError;
use crate::parallel::{default_threads, parallel_map_with};
use crate::predicate::{CompiledPredicate, MaskScratch};
use crate::table::{eval_partition_with, TimeSeriesTable};
use crate::timestamp::Timestamp;

/// Float-sum accumulation contract for masked aggregation: sums run in
/// ascending row order, bit-identical to the scalar reference on every
/// kernel tier. It has one variant; it remains a type, and an argument
/// of [`eval_partition_with`], only because the wire benchmark's layer
/// probe (`benchmark/src/layers.rs`) passes `SumMode::Exact`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumMode {
    /// Sum matching rows in ascending row order.
    Exact,
}

/// Options controlling a range scan.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Worker threads; defaults to [`default_threads`].
    pub threads: usize,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions { threads: default_threads() }
    }
}

/// Compute the aggregate of `measure_idx` under `pred` for every timestamp
/// in `[start, end]` that has a partition, in parallel. This is the exact
/// ("Full", 100 % sampling rate) evaluation path of the paper, and the
/// performance bottleneck FlashP replaces with samples.
pub fn aggregate_range(
    table: &TimeSeriesTable,
    measure_idx: usize,
    pred: &CompiledPredicate,
    func: AggFunc,
    start: Timestamp,
    end: Timestamp,
    options: ScanOptions,
) -> Result<Vec<(Timestamp, f64)>, StorageError> {
    let (parts, states) = scan_states(table, measure_idx, pred, start, end, options)?;
    Ok(parts.iter().zip(states).map(|((t, _), s)| (*t, s.finalize(func))).collect())
}

/// Shared scan body: bounds-check the measure, collect the partitions in
/// range and evaluate each in parallel, one [`MaskScratch`] per worker so
/// every partition a worker scans reuses the same mask buffers.
#[allow(clippy::type_complexity)]
fn scan_states<'a>(
    table: &'a TimeSeriesTable,
    measure_idx: usize,
    pred: &CompiledPredicate,
    start: Timestamp,
    end: Timestamp,
    options: ScanOptions,
) -> Result<(Vec<(Timestamp, &'a crate::partition::Partition)>, Vec<AggState>), StorageError> {
    if measure_idx >= table.schema().num_measures() {
        return Err(StorageError::ColumnIndexOutOfRange {
            index: measure_idx,
            len: table.schema().num_measures(),
        });
    }
    let parts: Vec<(Timestamp, &crate::partition::Partition)> =
        table.partitions_in(start, end).collect();
    let states: Vec<AggState> =
        parallel_map_with(&parts, options.threads, MaskScratch::new, |scratch, (_, p)| {
            eval_partition_with(p, measure_idx, pred, scratch, SumMode::Exact)
        });
    Ok((parts, states))
}

/// Per-timestamp aggregate *states* (not finalized values) of
/// `measure_idx` under `pred` for every timestamp in `[start, end]` that
/// has a partition. This is the partial-aggregation entry point for
/// scatter-gather execution: a shard scans its own partitions into
/// [`AggState`]s, and a combiner merges states across shards before
/// finalizing — `AggState::merge` is exact for sums and counts, so
/// merged partials equal a single scan over the union of the rows.
pub fn aggregate_states_range(
    table: &TimeSeriesTable,
    measure_idx: usize,
    pred: &CompiledPredicate,
    start: Timestamp,
    end: Timestamp,
    options: ScanOptions,
) -> Result<Vec<(Timestamp, AggState)>, StorageError> {
    let (parts, states) = scan_states(table, measure_idx, pred, start, end, options)?;
    Ok(parts.iter().zip(states).map(|((t, _), s)| (*t, s)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::Schema;
    use crate::types::{DataType, Value};

    fn table(days: i64, rows_per_day: i64) -> TimeSeriesTable {
        let schema = Schema::from_names(&[("k", DataType::Int64)], &["m"]).unwrap().into_shared();
        let mut table = TimeSeriesTable::new(schema);
        let start = Timestamp::from_yyyymmdd(20200101).unwrap();
        for d in 0..days {
            for r in 0..rows_per_day {
                table.append_row(start + d, &[Value::Int(r)], &[(d + 1) as f64]).unwrap();
            }
        }
        table
    }

    #[test]
    fn range_scan_matches_per_day_queries() {
        let table = table(10, 20);
        let pred = table.compile_predicate(&Predicate::cmp("k", CmpOp::Lt, 5)).unwrap();
        let start = Timestamp::from_yyyymmdd(20200101).unwrap();
        let out = aggregate_range(
            &table,
            0,
            &pred,
            AggFunc::Sum,
            start,
            start + 9,
            ScanOptions { threads: 3 },
        )
        .unwrap();
        assert_eq!(out.len(), 10);
        for (i, (t, v)) in out.iter().enumerate() {
            assert_eq!(*t, start + i as i64);
            // 5 matching rows of value (day+1) each.
            assert_eq!(*v, 5.0 * (i as f64 + 1.0));
            assert_eq!(
                *v,
                table.aggregate_at(*t, 0, &pred, AggFunc::Sum).unwrap(),
                "range scan must equal per-day query"
            );
        }
    }

    #[test]
    fn sub_range_is_respected() {
        let table = table(10, 5);
        let pred = table.compile_predicate(&Predicate::True).unwrap();
        let start = Timestamp::from_yyyymmdd(20200103).unwrap();
        let out = aggregate_range(
            &table,
            0,
            &pred,
            AggFunc::Count,
            start,
            start + 2,
            ScanOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, v)| *v == 5.0));
    }

    #[test]
    fn bad_measure_index_errors() {
        let table = table(2, 2);
        let pred = table.compile_predicate(&Predicate::True).unwrap();
        let start = Timestamp::from_yyyymmdd(20200101).unwrap();
        assert!(aggregate_range(
            &table,
            7,
            &pred,
            AggFunc::Sum,
            start,
            start + 1,
            ScanOptions::default()
        )
        .is_err());
    }

    #[test]
    fn states_range_matches_finalized_range() {
        let table = table(10, 20);
        let pred = table.compile_predicate(&Predicate::cmp("k", CmpOp::Lt, 5)).unwrap();
        let start = Timestamp::from_yyyymmdd(20200101).unwrap();
        let options = ScanOptions { threads: 3 };
        let states = aggregate_states_range(&table, 0, &pred, start, start + 9, options).unwrap();
        let values =
            aggregate_range(&table, 0, &pred, AggFunc::Sum, start, start + 9, options).unwrap();
        assert_eq!(states.len(), values.len());
        for ((ts, state), (tv, v)) in states.iter().zip(&values) {
            assert_eq!(ts, tv);
            assert_eq!(state.finalize(AggFunc::Sum), *v);
            assert_eq!(state.count, 5);
        }
        assert!(aggregate_states_range(&table, 9, &pred, start, start + 9, options).is_err());
    }
}
