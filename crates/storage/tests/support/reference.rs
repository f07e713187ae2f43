//! Scalar reference kernels: faithful reproductions of the predicate
//! evaluation and masked aggregation this crate shipped before the
//! word-at-a-time rewrite — per-leaf loops that test one row at a time and
//! set mask bits one by one, tree combining via whole-mask AND/OR/NOT with
//! a `count_ones()` short-circuit, and an index-at-a-time aggregation
//! gather.
//!
//! Test-only: the kernel-equivalence property tests
//! (`tests/kernel_equivalence.rs`) prove every kernel tier bit-for-bit and
//! sum-exact identical to these, and the crate's unit tests compare the
//! aggregation walks against them. Both include this file as a module
//! with `#[path]`, so it names the crate as `flashp_storage` (the library
//! aliases itself under that name in its test build).

use flashp_storage::{AggState, Bitmask, CmpOp, CompiledPredicate, DimensionColumn, Partition};

/// The pre-rewrite `CompiledPredicate::evaluate`: per-leaf scalar scans,
/// `count_ones()`-guarded AND short-circuit, binary-search IN-lists via
/// the widening `get_i64` accessor.
pub fn evaluate_scalar(pred: &CompiledPredicate, partition: &Partition) -> Bitmask {
    let n = partition.num_rows();
    match pred {
        CompiledPredicate::Const(true) => Bitmask::ones(n),
        CompiledPredicate::Const(false) => Bitmask::zeros(n),
        CompiledPredicate::Cmp { dim, op, value } => {
            eval_cmp_scalar(partition.dim(*dim), *op, *value)
        }
        CompiledPredicate::CmpF64 { dim, op, value } => match partition.dim(*dim) {
            DimensionColumn::Float64(v) => eval_cmp_f64_scalar(v, *op, *value),
            col => Bitmask::from_fn(n, |i| op.apply_f64(col.get_f64(i), *value)),
        },
        CompiledPredicate::InSet { dim, values, .. } => match partition.dim(*dim) {
            // By promoted value, mirroring the vectorized path — never the
            // `get_i64` bit pattern.
            DimensionColumn::Float64(v) => {
                Bitmask::from_fn(n, |i| values.iter().any(|&w| v[i] == w as f64))
            }
            col => Bitmask::from_fn(n, |i| values.binary_search(&col.get_i64(i)).is_ok()),
        },
        CompiledPredicate::And(children) => {
            let mut mask = evaluate_scalar(&children[0], partition);
            for c in &children[1..] {
                if mask.count_ones() == 0 {
                    break;
                }
                mask.and_inplace(&evaluate_scalar(c, partition));
            }
            mask
        }
        CompiledPredicate::Or(children) => {
            let mut mask = evaluate_scalar(&children[0], partition);
            for c in &children[1..] {
                mask.or_inplace(&evaluate_scalar(c, partition));
            }
            mask
        }
        CompiledPredicate::Not(child) => {
            let mut mask = evaluate_scalar(child, partition);
            mask.not_inplace();
            mask
        }
    }
}

/// One comparison with Rust's native operators — for `f64` that is IEEE
/// semantics: ordered compares and `==` are `false` against NaN, `!=` is
/// `true`.
fn cmp<T: PartialOrd>(op: CmpOp, lhs: T, rhs: T) -> bool {
    match op {
        CmpOp::Eq => lhs == rhs,
        CmpOp::Ne => lhs != rhs,
        CmpOp::Lt => lhs < rhs,
        CmpOp::Le => lhs <= rhs,
        CmpOp::Gt => lhs > rhs,
        CmpOp::Ge => lhs >= rhs,
    }
}

/// The pre-rewrite `eval_cmp`: monomorphized per column representation,
/// but testing one row and setting one bit at a time, with every
/// comparison widened to i64.
fn eval_cmp_scalar(col: &DimensionColumn, op: CmpOp, value: i64) -> Bitmask {
    macro_rules! scan {
        ($v:expr, $cast:ty) => {{
            let data = $v;
            let mut mask = Bitmask::zeros(data.len());
            match <$cast>::try_from(value) {
                Ok(rhs) => {
                    for (i, x) in data.iter().enumerate() {
                        if cmp(op, i64::from(*x), i64::from(rhs)) {
                            mask.set(i);
                        }
                    }
                }
                // Literal outside the column type's range: compare in i64
                // space (still correct, just not narrowed).
                Err(_) => {
                    for (i, x) in data.iter().enumerate() {
                        if cmp(op, i64::from(*x), value) {
                            mask.set(i);
                        }
                    }
                }
            }
            mask
        }};
    }
    match col {
        DimensionColumn::UInt8(v) => scan!(v, u8),
        DimensionColumn::UInt16(v) => scan!(v, u16),
        DimensionColumn::Dict(v) => scan!(v, u32),
        DimensionColumn::Int64(v) => {
            let mut mask = Bitmask::zeros(v.len());
            for (i, x) in v.iter().enumerate() {
                if cmp(op, *x, value) {
                    mask.set(i);
                }
            }
            mask
        }
        // Integer literal against a float column: promote and compare by
        // value, as the vectorized path does.
        DimensionColumn::Float64(v) => eval_cmp_f64_scalar(v, op, value as f64),
    }
}

/// Row-at-a-time `f64` comparison oracle with Rust's native IEEE
/// semantics (ordered compares and `==` are `false` against NaN, `!=` is
/// `true`). The SIMD `cmp_f64` kernels of `flashp_storage::simd` are proven
/// bit-for-bit identical to this, including NaN / ±∞ / −0.0 / extreme
/// literals.
pub fn eval_cmp_f64_scalar(data: &[f64], op: CmpOp, rhs: f64) -> Bitmask {
    let mut mask = Bitmask::zeros(data.len());
    for (i, &x) in data.iter().enumerate() {
        if cmp(op, x, rhs) {
            mask.set(i);
        }
    }
    mask
}

/// Index-at-a-time masked aggregation: gather each selected row through
/// the set-bit iterator, no word-level fast paths.
pub fn aggregate_masked_scalar(
    partition: &Partition,
    measure_idx: usize,
    mask: &Bitmask,
) -> AggState {
    let values = partition.measure(measure_idx);
    debug_assert_eq!(values.len(), mask.len());
    let mut state = AggState::default();
    for i in mask.iter_ones() {
        state.sum += values[i];
        state.count += 1;
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashp_storage::{DataType, Predicate, Schema};

    #[test]
    fn scalar_reference_on_known_rows() {
        let schema = Schema::from_names(&[("k", DataType::Int64)], &["m"]).unwrap();
        let p = Partition::from_columns(
            vec![DimensionColumn::Int64(vec![1, 2, 3, 4])],
            vec![vec![10.0, 20.0, 30.0, 40.0]],
        )
        .unwrap();
        let pred = Predicate::cmp("k", CmpOp::Ge, 3).compile(&schema, &[None]).unwrap();
        let mask = evaluate_scalar(&pred, &p);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![2, 3]);
        let s = aggregate_masked_scalar(&p, 0, &mask);
        assert_eq!(s.sum, 70.0);
        assert_eq!(s.count, 2);
    }
}
