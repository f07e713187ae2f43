//! SUM / COUNT / AVG aggregation over (masked) partitions — the inner loop
//! of the per-timestamp aggregation queries in Eq. (4) of the paper.

use crate::bitmask::Bitmask;
use crate::column::DimensionColumn;
use crate::partition::Partition;
use crate::predicate::CmpOp;
use crate::simd::KernelSet;
use std::fmt;

/// Aggregate function of a forecasting task. The paper's primary target is
/// `SUM`; `COUNT` and `AVG` are also supported (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Count,
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
        }
    }

    /// Parse a (case-insensitive) SQL name.
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("SUM") {
            Some(AggFunc::Sum)
        } else if s.eq_ignore_ascii_case("COUNT") {
            Some(AggFunc::Count)
        } else if s.eq_ignore_ascii_case("AVG") {
            Some(AggFunc::Avg)
        } else {
            None
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Running sum + count, combinable across partitions/threads, finalized
/// into any [`AggFunc`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggState {
    pub sum: f64,
    pub count: u64,
}

impl AggState {
    /// Merge another partial state into this one.
    pub fn merge(&mut self, other: AggState) {
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Finalize into the requested aggregate. `AVG` of zero rows is `NaN`
    /// (there is no meaningful value), matching SQL's `NULL` semantics as
    /// closely as a float can.
    pub fn finalize(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            AggFunc::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
        }
    }
}

/// Aggregate measure `measure_idx` over the rows selected by `mask`,
/// walking the mask word-at-a-time via [`Bitmask::for_each_one`].
pub fn aggregate_masked(partition: &Partition, measure_idx: usize, mask: &Bitmask) -> AggState {
    let values = partition.measure(measure_idx);
    debug_assert_eq!(values.len(), mask.len());
    let mut sum = 0.0f64;
    let mut count = 0u64;
    mask.for_each_one(|i| {
        sum += values[i];
        count += 1;
    });
    AggState { sum, count }
}

/// Fused filter + aggregate for a single comparison predicate: per 64-row
/// chunk the comparison result is packed into one register word, so no
/// mask is ever materialized. This is the kernel behind single-comparison
/// constraints on the exact scan path; the comparison runs on the
/// process-wide dispatched kernel tier ([`crate::simd::active`]).
pub fn aggregate_filtered(
    partition: &Partition,
    measure_idx: usize,
    dim: usize,
    op: CmpOp,
    value: i64,
) -> AggState {
    aggregate_filtered_with(crate::simd::active(), partition, measure_idx, dim, op, value)
}

/// [`aggregate_filtered`] with an explicit kernel tier — the hook the
/// kernel-equivalence suite uses to pit tiers against each other on
/// identical inputs.
pub fn aggregate_filtered_with(
    kernels: &KernelSet,
    partition: &Partition,
    measure_idx: usize,
    dim: usize,
    op: CmpOp,
    value: i64,
) -> AggState {
    let values = partition.measure(measure_idx);
    let col = partition.dim(dim);
    macro_rules! narrow {
        ($v:expr, $t:ty, $fused:ident) => {{
            match <$t>::try_from(value) {
                Ok(rhs) => kernels.$fused($v, values, op, rhs),
                // Literal outside the representation's range: matches all
                // rows or none (see `out_of_range_matches_all`).
                Err(_) => {
                    if crate::predicate::out_of_range_matches_all(op, value > 0) {
                        aggregate_all(partition, measure_idx)
                    } else {
                        AggState::default()
                    }
                }
            }
        }};
    }
    match col {
        DimensionColumn::UInt8(v) => narrow!(v, u8, fused_u8),
        DimensionColumn::UInt16(v) => narrow!(v, u16, fused_u16),
        DimensionColumn::Dict(v) => narrow!(v, u32, fused_u32),
        DimensionColumn::Int64(v) => kernels.fused_i64(v, values, op, value),
        // Integer literal against a float dimension: promote (exact up to
        // 2^53) and run the float fused kernel.
        DimensionColumn::Float64(v) => kernels.fused_f64(v, values, op, value as f64),
    }
}

/// [`aggregate_filtered_with`] for a float literal against a float64
/// dimension — the fused path behind compiled `CmpF64` constraints.
pub fn aggregate_filtered_f64_with(
    kernels: &KernelSet,
    partition: &Partition,
    measure_idx: usize,
    dim: usize,
    op: CmpOp,
    value: f64,
) -> AggState {
    let values = partition.measure(measure_idx);
    match partition.dim(dim) {
        DimensionColumn::Float64(v) => kernels.fused_f64(v, values, op, value),
        // CmpF64 only compiles against float columns; widen defensively so
        // a hand-built plan still aggregates by value.
        col => {
            let mut state = AggState::default();
            for i in 0..col.len() {
                if op.apply_f64(col.get_f64(i), value) {
                    state.sum += values[i];
                    state.count += 1;
                }
            }
            state
        }
    }
}

/// Per 64-row chunk: pack the comparison results into one register word
/// (branchless, autovectorizable), then feed only the matching rows into
/// the sum via `trailing_zeros`. The word never touches memory — that is
/// the fusion — and matching rows are added in ascending order, so the
/// sum is bit-identical to mask-then-aggregate. This is the **portable**
/// tier of the fused kernel; the SIMD tiers in [`crate::simd`] build the
/// word with explicit compare+movemask and reuse the identical
/// accumulation order.
pub(crate) fn fused_kernel<T: Copy + PartialOrd>(
    dims: &[T],
    values: &[f64],
    op: CmpOp,
    rhs: T,
) -> AggState {
    debug_assert_eq!(dims.len(), values.len());
    macro_rules! run {
        ($f:expr) => {{
            let f = $f;
            let mut sum = 0.0f64;
            let mut count = 0u64;
            let mut chunks = dims.chunks_exact(64);
            let mut base = 0usize;
            for chunk in chunks.by_ref() {
                let mut word = 0u64;
                for (bit, &x) in chunk.iter().enumerate() {
                    word |= (f(x) as u64) << bit;
                }
                count += u64::from(word.count_ones());
                if word == u64::MAX {
                    for &m in &values[base..base + 64] {
                        sum += m;
                    }
                } else {
                    while word != 0 {
                        sum += values[base + word.trailing_zeros() as usize];
                        word &= word - 1;
                    }
                }
                base += 64;
            }
            for (&x, &m) in chunks.remainder().iter().zip(&values[base..]) {
                if f(x) {
                    sum += m;
                    count += 1;
                }
            }
            AggState { sum, count }
        }};
    }
    match op {
        CmpOp::Eq => run!(|x| x == rhs),
        CmpOp::Ne => run!(|x| x != rhs),
        CmpOp::Lt => run!(|x| x < rhs),
        CmpOp::Le => run!(|x| x <= rhs),
        CmpOp::Gt => run!(|x| x > rhs),
        CmpOp::Ge => run!(|x| x >= rhs),
    }
}

/// Aggregate measure `measure_idx` over all rows of the partition.
pub fn aggregate_all(partition: &Partition, measure_idx: usize) -> AggState {
    let values = partition.measure(measure_idx);
    AggState { sum: values.iter().sum(), count: values.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompiledPredicate;

    fn partition(measure: Vec<f64>) -> Partition {
        let n = measure.len();
        Partition::from_columns(
            vec![DimensionColumn::Int64((0..n as i64).collect())],
            vec![measure],
        )
        .unwrap()
    }

    #[test]
    fn masked_sum_and_count() {
        let p = partition(vec![5.0, 1.0, 10.0, 20.0]);
        let mut mask = Bitmask::zeros(4);
        mask.set(0);
        mask.set(2);
        let s = aggregate_masked(&p, 0, &mask);
        assert_eq!(s.finalize(AggFunc::Sum), 15.0);
        assert_eq!(s.finalize(AggFunc::Count), 2.0);
        assert_eq!(s.finalize(AggFunc::Avg), 7.5);
    }

    #[test]
    fn empty_avg_is_nan() {
        let p = partition(vec![5.0]);
        let mask = Bitmask::zeros(1);
        let s = aggregate_masked(&p, 0, &mask);
        assert_eq!(s.finalize(AggFunc::Sum), 0.0);
        assert!(s.finalize(AggFunc::Avg).is_nan());
    }

    #[test]
    fn merge_is_associative_enough() {
        let mut a = AggState { sum: 1.0, count: 2 };
        a.merge(AggState { sum: 3.0, count: 4 });
        assert_eq!(a, AggState { sum: 4.0, count: 6 });
    }

    #[test]
    fn aggregate_all_matches_full_mask() {
        let p = partition(vec![1.0, 2.0, 3.0]);
        let all = aggregate_all(&p, 0);
        let masked = aggregate_masked(&p, 0, &Bitmask::ones(3));
        assert_eq!(all, masked);
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("CoUnT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("median"), None);
        assert_eq!(AggFunc::parse(""), None);
    }

    #[test]
    fn word_walk_handles_dense_sparse_and_tail_words() {
        // 130 rows: word 0 all-ones (dense path), word 1 mixed, word 2 a
        // two-bit tail.
        let n = 130;
        let p = partition((0..n).map(|i| i as f64).collect());
        let mut mask = Bitmask::zeros(n);
        for i in 0..64 {
            mask.set(i);
        }
        for i in (64..128).step_by(3) {
            mask.set(i);
        }
        mask.set(129);
        let got = aggregate_masked(&p, 0, &mask);
        let want = crate::reference::aggregate_masked_scalar(&p, 0, &mask);
        assert_eq!(got, want);
        assert_eq!(got.count as usize, mask.count_ones());
    }

    #[test]
    fn fused_filter_matches_mask_then_aggregate() {
        let n = 200usize;
        let dims = DimensionColumn::Int64((0..n as i64).map(|i| i % 17).collect());
        let measures: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 100.0).collect();
        let p = Partition::from_columns(vec![dims], vec![measures]).unwrap();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for value in [-1i64, 0, 5, 16, 17, 100] {
                let fused = aggregate_filtered(&p, 0, 0, op, value);
                let pred = CompiledPredicate::Cmp { dim: 0, op, value };
                let exact = crate::reference::aggregate_masked_scalar(&p, 0, &pred.evaluate(&p));
                assert_eq!(fused, exact, "op {op:?} value {value}");
            }
        }
    }

    #[test]
    fn fused_filter_out_of_range_literal_on_narrow_column() {
        let mut c = DimensionColumn::new(crate::types::DataType::UInt8);
        for v in [10i64, 20, 30] {
            c.push_int("x", v).unwrap();
        }
        let p = Partition::from_columns(vec![c], vec![vec![1.0, 2.0, 4.0]]).unwrap();
        let all = aggregate_filtered(&p, 0, 0, CmpOp::Le, 1000);
        assert_eq!(all, AggState { sum: 7.0, count: 3 });
        let none = aggregate_filtered(&p, 0, 0, CmpOp::Ge, 1000);
        assert_eq!(none, AggState::default());
        let below = aggregate_filtered(&p, 0, 0, CmpOp::Ne, -5);
        assert_eq!(below, AggState { sum: 7.0, count: 3 });
    }
}
