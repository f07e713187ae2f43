//! The time series of relation `T` — partitions keyed by timestamp plus
//! table-level dictionaries and schema.

use crate::aggregate::{aggregate_masked, AggFunc, AggState};
use crate::column::Dictionary;
use crate::error::StorageError;
use crate::partition::Partition;
use crate::predicate::{CompiledPredicate, MaskScratch, Predicate};
use crate::scan::SumMode;
use crate::schema::SchemaRef;
use crate::timestamp::Timestamp;
use crate::types::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A time series of relational data: the input of the FlashP pipeline
/// (Fig. 1 of the paper). Rows live in per-timestamp [`Partition`]s;
/// categorical dictionaries are shared table-wide so a predicate binds to
/// the same codes in every partition and in every sample drawn from the
/// table.
///
/// Partitions are held behind [`Arc`]s, so cloning a table is cheap —
/// O(#partitions) pointer copies, no row data — and mutation after a
/// clone is copy-on-write at partition granularity. This is what makes
/// versioned live ingest possible: the engine clones the active table,
/// appends a batch (touching only the affected days), and publishes the
/// clone as a new immutable version while readers keep scanning the old
/// one.
#[derive(Debug, Clone)]
pub struct TimeSeriesTable {
    schema: SchemaRef,
    dicts: Vec<Option<Dictionary>>,
    partitions: BTreeMap<Timestamp, Arc<Partition>>,
}

impl TimeSeriesTable {
    /// Create an empty table with the given schema.
    pub fn new(schema: SchemaRef) -> Self {
        let dims = schema.num_dimensions();
        TimeSeriesTable {
            schema,
            dicts: (0..dims).map(|_| None).collect(),
            partitions: BTreeMap::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Table-level dictionaries, indexed by dimension (non-categorical
    /// dimensions are `None`).
    pub fn dictionaries(&self) -> &[Option<Dictionary>] {
        &self.dicts
    }

    /// Intern a categorical value for dimension `dim` and return its code —
    /// used by bulk generators that build partitions columnar-fashion.
    pub fn intern(&mut self, dim: usize, value: &str) -> Result<u32, StorageError> {
        let def = self.schema.dimension(dim)?;
        if def.dtype != crate::types::DataType::Categorical {
            return Err(StorageError::TypeMismatch {
                column: def.name.clone(),
                expected: "categorical",
                got: value.to_string(),
            });
        }
        Ok(self.dicts[dim].get_or_insert_with(Dictionary::new).intern(value))
    }

    /// Insert (or replace) the partition at `t`.
    pub fn insert_partition(&mut self, t: Timestamp, partition: Partition) {
        self.partitions.insert(t, Arc::new(partition));
    }

    /// Append a single row at timestamp `t`, creating the partition if
    /// needed. This is the slow, convenient ingestion path.
    pub fn append_row(
        &mut self,
        t: Timestamp,
        dims: &[Value],
        measures: &[f64],
    ) -> Result<(), StorageError> {
        let schema = self.schema.clone();
        let partition =
            self.partitions.entry(t).or_insert_with(|| Arc::new(Partition::empty(&schema)));
        Arc::make_mut(partition).push_row(&schema, &mut self.dicts, dims, measures)
    }

    /// Append a batch of rows at timestamp `t`, creating the partition if
    /// needed. Categorical values are interned into the table's
    /// dictionaries. Returns the number of rows appended. Copy-on-write:
    /// if the partition is shared with an older table version (a clone),
    /// it is cloned once before the batch lands; older versions never
    /// observe the new rows.
    pub fn append_rows<'a>(
        &mut self,
        t: Timestamp,
        rows: impl IntoIterator<Item = (&'a [Value], &'a [f64])>,
    ) -> Result<usize, StorageError> {
        let schema = self.schema.clone();
        let partition =
            self.partitions.entry(t).or_insert_with(|| Arc::new(Partition::empty(&schema)));
        let partition = Arc::make_mut(partition);
        let mut appended = 0;
        for (dims, measures) in rows {
            partition.push_row(&schema, &mut self.dicts, dims, measures)?;
            appended += 1;
        }
        Ok(appended)
    }

    /// Append a pre-built columnar partition of rows at timestamp `t` —
    /// the fast ingest path for late-arriving days and streamed batches.
    /// If a partition already exists at `t`, the new rows are concatenated
    /// after the existing ones (copy-on-write when the existing partition
    /// is shared with an older table version); otherwise the partition is
    /// inserted as-is. Dictionary codes in categorical columns must have
    /// been interned against this table (see [`TimeSeriesTable::intern`]).
    /// Returns the number of rows appended.
    pub fn append_partition(
        &mut self,
        t: Timestamp,
        partition: Partition,
    ) -> Result<usize, StorageError> {
        self.check_partition_shape(&partition)?;
        let appended = partition.num_rows();
        match self.partitions.entry(t) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(Arc::new(partition));
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                Arc::make_mut(slot.get_mut()).extend(&partition)?;
            }
        }
        Ok(appended)
    }

    /// Validate that a partition's columns match this table's schema in
    /// count and type.
    fn check_partition_shape(&self, partition: &Partition) -> Result<(), StorageError> {
        if partition.dims().len() != self.schema.num_dimensions() {
            return Err(StorageError::LengthMismatch {
                expected: self.schema.num_dimensions(),
                got: partition.dims().len(),
            });
        }
        if partition.measures().len() != self.schema.num_measures() {
            return Err(StorageError::LengthMismatch {
                expected: self.schema.num_measures(),
                got: partition.measures().len(),
            });
        }
        for (def, col) in self.schema.dimensions().iter().zip(partition.dims()) {
            if col.dtype() != def.dtype {
                return Err(StorageError::TypeMismatch {
                    column: def.name.clone(),
                    expected: "schema column type",
                    got: col.dtype().to_string(),
                });
            }
        }
        Ok(())
    }

    /// The partition at `t`, if any.
    pub fn partition(&self, t: Timestamp) -> Option<&Partition> {
        self.partitions.get(&t).map(|p| p.as_ref())
    }

    /// Iterate `(timestamp, partition)` in time order.
    pub fn partitions(&self) -> impl Iterator<Item = (Timestamp, &Partition)> {
        self.partitions.iter().map(|(t, p)| (*t, p.as_ref()))
    }

    /// Iterate partitions restricted to `[start, end]` inclusive.
    pub fn partitions_in(
        &self,
        start: Timestamp,
        end: Timestamp,
    ) -> impl Iterator<Item = (Timestamp, &Partition)> {
        self.partitions.range(start..=end).map(|(t, p)| (*t, p.as_ref()))
    }

    /// Number of partitions (distinct timestamps).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of rows across all partitions.
    pub fn num_rows(&self) -> usize {
        self.partitions.values().map(|p| p.num_rows()).sum()
    }

    /// Earliest and latest timestamps, if the table is non-empty.
    pub fn time_bounds(&self) -> Option<(Timestamp, Timestamp)> {
        let first = *self.partitions.keys().next()?;
        let last = *self.partitions.keys().next_back()?;
        Some((first, last))
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.partitions.values().map(|p| p.byte_size()).sum()
    }

    /// Bind a predicate to this table (resolve names and dictionary codes).
    pub fn compile_predicate(&self, pred: &Predicate) -> Result<CompiledPredicate, StorageError> {
        pred.compile(&self.schema, &self.dicts)
    }

    /// Exact aggregate of `measure_idx` under `pred` at one timestamp —
    /// one query of the batch in Eq. (4).
    pub fn aggregate_at(
        &self,
        t: Timestamp,
        measure_idx: usize,
        pred: &CompiledPredicate,
        func: AggFunc,
    ) -> Result<f64, StorageError> {
        let p = self.partitions.get(&t).ok_or(StorageError::NoSuchPartition(t.0))?;
        Ok(eval_partition(p, measure_idx, pred).finalize(func))
    }

    /// Fraction of rows at `t` matching `pred` (the paper's *selectivity*).
    pub fn selectivity_at(
        &self,
        t: Timestamp,
        pred: &CompiledPredicate,
    ) -> Result<f64, StorageError> {
        let p = self.partitions.get(&t).ok_or(StorageError::NoSuchPartition(t.0))?;
        if p.num_rows() == 0 {
            return Ok(0.0);
        }
        Ok(pred.evaluate(p).count_ones() as f64 / p.num_rows() as f64)
    }
}

/// Evaluate one partition: zone-map prune, then mask + aggregate.
pub(crate) fn eval_partition(
    partition: &Partition,
    measure_idx: usize,
    pred: &CompiledPredicate,
) -> AggState {
    eval_partition_with(partition, measure_idx, pred, &mut MaskScratch::new(), SumMode::Exact)
}

/// Evaluate one partition (zone-map prune, then mask + aggregate),
/// drawing mask buffers from `scratch` so range scans reuse allocations
/// across partitions. Single-comparison predicates and constants skip
/// mask materialization entirely via the fused kernels.
///
/// Every float sum is accumulated in ascending row order, bit-identical
/// to the scalar reference on every kernel tier. `sum` has the single
/// value [`SumMode::Exact`]; it stays in the signature only because the
/// wire benchmark's layer probe (`benchmark/src/layers.rs`) passes it.
pub fn eval_partition_with(
    partition: &Partition,
    measure_idx: usize,
    pred: &CompiledPredicate,
    scratch: &mut MaskScratch,
    sum: SumMode,
) -> AggState {
    if !pred.may_match(partition.zone_maps()) {
        return AggState::default();
    }
    match (pred, sum) {
        (CompiledPredicate::Const(false), _) => AggState::default(),
        // All-rows aggregation is one ascending pass either way.
        (CompiledPredicate::Const(true), _) => {
            crate::aggregate::aggregate_all(partition, measure_idx)
        }
        (CompiledPredicate::Cmp { dim, op, value }, SumMode::Exact) => {
            crate::aggregate::aggregate_filtered(partition, measure_idx, *dim, *op, *value)
        }
        (CompiledPredicate::CmpF64 { dim, op, value }, SumMode::Exact) => {
            crate::aggregate::aggregate_filtered_f64_with(
                crate::simd::active(),
                partition,
                measure_idx,
                *dim,
                *op,
                *value,
            )
        }
        (_, SumMode::Exact) => {
            let mask = pred.evaluate_into(partition, scratch);
            let state = aggregate_masked(partition, measure_idx, &mask);
            scratch.release(mask);
            state
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionBuilder;
    use crate::predicate::CmpOp;
    use crate::schema::Schema;
    use crate::types::DataType;

    fn figure1_table() -> TimeSeriesTable {
        let schema = Schema::from_names(
            &[
                ("Age", DataType::UInt8),
                ("Gender", DataType::Categorical),
                ("Location", DataType::Categorical),
            ],
            &["Impression", "ViewTime"],
        )
        .unwrap()
        .into_shared();
        let mut table = TimeSeriesTable::new(schema);
        let d1 = Timestamp::from_yyyymmdd(20200301).unwrap();
        let d2 = Timestamp::from_yyyymmdd(20200302).unwrap();
        let rows = [
            (30, "F", "WA", 5.0, 1.6, d1),
            (60, "M", "WA", 1.0, 1.8, d1),
            (20, "F", "NY", 10.0, 3.2, d1),
            (40, "M", "NY", 20.0, 6.3, d2),
        ];
        for (age, g, loc, imp, vt, t) in rows {
            table
                .append_row(t, &[Value::Int(age), Value::from(g), Value::from(loc)], &[imp, vt])
                .unwrap();
        }
        table
    }

    #[test]
    fn figure2_aggregation() {
        // SELECT SUM(Impression) WHERE Age <= 30 AND Gender = 'F' AND t = 20200301
        let table = figure1_table();
        let pred = Predicate::cmp("Age", CmpOp::Le, 30).and(Predicate::eq("Gender", "F"));
        let compiled = table.compile_predicate(&pred).unwrap();
        let t = Timestamp::from_yyyymmdd(20200301).unwrap();
        let m = table.aggregate_at(t, 0, &compiled, AggFunc::Sum).unwrap();
        assert_eq!(m, 15.0);
        // Day 2 has no matching rows.
        let t2 = Timestamp::from_yyyymmdd(20200302).unwrap();
        assert_eq!(table.aggregate_at(t2, 0, &compiled, AggFunc::Sum).unwrap(), 0.0);
    }

    #[test]
    fn count_and_avg() {
        let table = figure1_table();
        let pred = table.compile_predicate(&Predicate::True).unwrap();
        let t = Timestamp::from_yyyymmdd(20200301).unwrap();
        assert_eq!(table.aggregate_at(t, 0, &pred, AggFunc::Count).unwrap(), 3.0);
        assert!((table.aggregate_at(t, 1, &pred, AggFunc::Avg).unwrap() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn selectivity() {
        let table = figure1_table();
        let pred = table.compile_predicate(&Predicate::eq("Gender", "F")).unwrap();
        let t = Timestamp::from_yyyymmdd(20200301).unwrap();
        assert!((table.selectivity_at(t, &pred).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_and_sizes() {
        let table = figure1_table();
        let (lo, hi) = table.time_bounds().unwrap();
        assert_eq!(lo.to_yyyymmdd(), 20200301);
        assert_eq!(hi.to_yyyymmdd(), 20200302);
        assert_eq!(table.num_partitions(), 2);
        assert_eq!(table.num_rows(), 4);
        assert!(table.byte_size() > 0);
    }

    #[test]
    fn missing_partition_errors() {
        let table = figure1_table();
        let pred = table.compile_predicate(&Predicate::True).unwrap();
        let t = Timestamp::from_yyyymmdd(20210101).unwrap();
        assert!(table.aggregate_at(t, 0, &pred, AggFunc::Sum).is_err());
    }

    #[test]
    fn append_rows_batches_into_one_partition() {
        let mut table = figure1_table();
        let t = Timestamp::from_yyyymmdd(20200302).unwrap();
        let rows = [
            (vec![Value::Int(25), Value::from("F"), Value::from("WA")], vec![3.0, 1.0]),
            (vec![Value::Int(35), Value::from("M"), Value::from("NY")], vec![4.0, 2.0]),
        ];
        let appended =
            table.append_rows(t, rows.iter().map(|(d, m)| (d.as_slice(), m.as_slice()))).unwrap();
        assert_eq!(appended, 2);
        assert_eq!(table.partition(t).unwrap().num_rows(), 3);
        assert_eq!(table.num_rows(), 6);
    }

    #[test]
    fn append_partition_merges_and_inserts() {
        let mut table = figure1_table();
        let schema = table.schema().clone();
        // Codes for the categorical dims must come from the table's dicts.
        let f = table.intern(1, "F").unwrap();
        let wa = table.intern(2, "WA").unwrap();
        let mut b = PartitionBuilder::with_capacity(&schema, 2);
        b.push_raw_row(&[22, f as i64, wa as i64], &[7.0, 2.0]).unwrap();
        b.push_raw_row(&[23, f as i64, wa as i64], &[8.0, 3.0]).unwrap();
        // Merge into the existing 20200301 partition…
        let t1 = Timestamp::from_yyyymmdd(20200301).unwrap();
        assert_eq!(table.append_partition(t1, b.finish()).unwrap(), 2);
        let p = table.partition(t1).unwrap();
        assert_eq!(p.num_rows(), 5);
        assert_eq!(p.zone_maps().range(0), Some((20, 60)), "zone maps merged");
        // …and insert a brand-new day.
        let mut b = PartitionBuilder::with_capacity(&schema, 1);
        b.push_raw_row(&[50, f as i64, wa as i64], &[9.0, 4.0]).unwrap();
        let t3 = Timestamp::from_yyyymmdd(20200303).unwrap();
        assert_eq!(table.append_partition(t3, b.finish()).unwrap(), 1);
        assert_eq!(table.num_partitions(), 3);
        // Aggregates see the merged rows.
        let pred = table.compile_predicate(&Predicate::eq("Gender", "F")).unwrap();
        assert_eq!(table.aggregate_at(t1, 0, &pred, AggFunc::Sum).unwrap(), 30.0);
    }

    #[test]
    fn append_partition_rejects_mismatched_shape() {
        let mut table = figure1_table();
        let t = Timestamp::from_yyyymmdd(20200301).unwrap();
        let bad = Partition::from_columns(
            vec![crate::column::DimensionColumn::Int64(vec![1])],
            vec![vec![1.0]],
        )
        .unwrap();
        assert!(table.append_partition(t, bad).is_err());
    }

    #[test]
    fn cloned_table_is_copy_on_write() {
        let table = figure1_table();
        let snapshot = table.clone();
        let mut live = table;
        let t = Timestamp::from_yyyymmdd(20200301).unwrap();
        live.append_row(t, &[Value::Int(99), Value::from("F"), Value::from("WA")], &[100.0, 1.0])
            .unwrap();
        // The clone still sees the old contents; the mutated table sees
        // the new row. Untouched partitions stay physically shared.
        assert_eq!(snapshot.partition(t).unwrap().num_rows(), 3);
        assert_eq!(live.partition(t).unwrap().num_rows(), 4);
        let t2 = Timestamp::from_yyyymmdd(20200302).unwrap();
        assert!(std::ptr::eq(snapshot.partition(t2).unwrap(), live.partition(t2).unwrap()));
        // New dictionary entries in the live table don't leak backwards.
        let mut live2 = snapshot.clone();
        live2
            .append_row(t, &[Value::Int(1), Value::from("X"), Value::from("ZZ")], &[1.0, 1.0])
            .unwrap();
        assert_eq!(snapshot.dictionaries()[1].as_ref().unwrap().lookup("X"), None);
        assert!(live2.dictionaries()[1].as_ref().unwrap().lookup("X").is_some());
    }

    #[test]
    fn intern_rejects_numeric_dims() {
        let mut table = figure1_table();
        assert!(table.intern(0, "x").is_err());
        let code = table.intern(1, "F").unwrap();
        // Already interned by append_row — must return the same code.
        assert_eq!(table.dictionaries()[1].as_ref().unwrap().lookup("F"), Some(code));
    }
}
