//! The constraint language `C` of forecasting tasks.
//!
//! A [`Predicate`] is any logical expression over dimension values — the
//! exact class the paper allows in `FORECAST … WHERE C` (Eq. 1). Before
//! evaluation a predicate is *compiled* against a table: names resolve to
//! column indices, string literals resolve to dictionary codes, and
//! type/operator compatibility is checked once. The resulting
//! [`CompiledPredicate`] evaluates vectorized into a [`Bitmask`] and can be
//! shared across partitions and samples of the same table.

use crate::bitmask::Bitmask;
use crate::column::{Dictionary, DimensionColumn};
use crate::error::StorageError;
use crate::partition::Partition;
use crate::schema::Schema;
use crate::simd::KernelSet;
use crate::stats::ZoneMaps;
use crate::types::{DataType, Value};
use std::fmt;

/// Comparison operators supported in constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// IEEE-754 comparison, exactly Rust's `PartialOrd` on `f64`: every
    /// operator except `!=` is false when either side is NaN, `!=` is then
    /// true; `-0.0 == 0.0`.
    #[inline]
    pub fn apply_f64(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// An unbound constraint over dimension names, e.g.
/// `Age <= 30 AND Gender = 'F'`.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column op literal`.
    Cmp { column: String, op: CmpOp, value: Value },
    /// `column IN (v1, v2, …)`.
    In { column: String, values: Vec<Value> },
    /// Conjunction; empty conjunction is `TRUE`.
    And(Vec<Predicate>),
    /// Disjunction; empty disjunction is `FALSE`.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Always true (select everything).
    True,
}

impl Predicate {
    /// Convenience: `column op value`.
    pub fn cmp(column: &str, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp { column: column.to_string(), op, value: value.into() }
    }

    /// Convenience: equality.
    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        Predicate::cmp(column, CmpOp::Eq, value)
    }

    /// Convenience: conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Self {
        match self {
            Predicate::And(mut v) => {
                v.push(other);
                Predicate::And(v)
            }
            p => Predicate::And(vec![p, other]),
        }
    }

    /// Compile against a schema + dictionaries, resolving names and codes.
    pub fn compile(
        &self,
        schema: &Schema,
        dicts: &[Option<Dictionary>],
    ) -> Result<CompiledPredicate, StorageError> {
        match self {
            Predicate::True => Ok(CompiledPredicate::Const(true)),
            Predicate::And(children) => {
                let mut compiled = Vec::with_capacity(children.len());
                for c in children {
                    match c.compile(schema, dicts)? {
                        CompiledPredicate::Const(true) => {}
                        CompiledPredicate::Const(false) => {
                            return Ok(CompiledPredicate::Const(false))
                        }
                        other => compiled.push(other),
                    }
                }
                Ok(match compiled.len() {
                    0 => CompiledPredicate::Const(true),
                    1 => compiled.pop().expect("len checked"),
                    _ => CompiledPredicate::And(compiled),
                })
            }
            Predicate::Or(children) => {
                let mut compiled = Vec::with_capacity(children.len());
                for c in children {
                    match c.compile(schema, dicts)? {
                        CompiledPredicate::Const(false) => {}
                        CompiledPredicate::Const(true) => {
                            return Ok(CompiledPredicate::Const(true))
                        }
                        other => compiled.push(other),
                    }
                }
                Ok(match compiled.len() {
                    0 => CompiledPredicate::Const(false),
                    1 => compiled.pop().expect("len checked"),
                    _ => CompiledPredicate::Or(compiled),
                })
            }
            Predicate::Not(child) => Ok(match child.compile(schema, dicts)? {
                CompiledPredicate::Const(b) => CompiledPredicate::Const(!b),
                other => CompiledPredicate::Not(Box::new(other)),
            }),
            Predicate::Cmp { column, op, value } => {
                let dim = schema.dimension_index(column)?;
                let dtype = schema.dimensions()[dim].dtype;
                match (dtype, value) {
                    (DataType::Categorical, Value::Str(s)) => {
                        if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                            return Err(StorageError::UnsupportedOperation(format!(
                                "{} on categorical column {column}",
                                op.symbol()
                            )));
                        }
                        match dicts[dim].as_ref().and_then(|d| d.lookup(s)) {
                            Some(code) => {
                                Ok(CompiledPredicate::Cmp { dim, op: *op, value: i64::from(code) })
                            }
                            // Unseen string: Eq matches nothing, Ne everything.
                            None => Ok(CompiledPredicate::Const(*op == CmpOp::Ne)),
                        }
                    }
                    (DataType::Categorical, Value::Int(v)) => Err(StorageError::TypeMismatch {
                        column: column.clone(),
                        expected: "string literal",
                        got: v.to_string(),
                    }),
                    (DataType::Categorical, Value::Float(v)) => Err(StorageError::TypeMismatch {
                        column: column.clone(),
                        expected: "string literal",
                        got: v.to_string(),
                    }),
                    // Float columns never dictionary-fold: the literal stays
                    // an IEEE double (integers promote exactly up to 2^53)
                    // and comparison follows strict IEEE semantics — a NaN
                    // literal matches nothing except through `<>`.
                    (DataType::Float64, Value::Float(v)) => {
                        Ok(CompiledPredicate::CmpF64 { dim, op: *op, value: *v })
                    }
                    (DataType::Float64, Value::Int(v)) => {
                        Ok(CompiledPredicate::CmpF64 { dim, op: *op, value: *v as f64 })
                    }
                    (DataType::Float64, Value::Str(s)) => Err(StorageError::TypeMismatch {
                        column: column.clone(),
                        expected: "numeric literal",
                        got: format!("'{s}'"),
                    }),
                    (_, Value::Float(v)) => Err(StorageError::TypeMismatch {
                        column: column.clone(),
                        expected: "integer literal",
                        got: v.to_string(),
                    }),
                    (_, Value::Int(v)) => Ok(CompiledPredicate::Cmp { dim, op: *op, value: *v }),
                    (_, Value::Str(s)) => Err(StorageError::TypeMismatch {
                        column: column.clone(),
                        expected: "integer literal",
                        got: format!("'{s}'"),
                    }),
                }
            }
            Predicate::In { column, values } => {
                let dim = schema.dimension_index(column)?;
                let dtype = schema.dimensions()[dim].dtype;
                // Float equality is almost never what an IN-list means;
                // require explicit comparisons on float64 dimensions.
                if dtype == DataType::Float64 {
                    return Err(StorageError::UnsupportedOperation(format!(
                        "IN list on float64 column '{column}': exact equality on floating-point \
                         values is unreliable, so IN is rejected at bind time; use explicit \
                         comparisons instead (e.g. {column} >= lo AND {column} <= hi)"
                    )));
                }
                let mut resolved = Vec::with_capacity(values.len());
                for v in values {
                    match (dtype, v) {
                        (DataType::Categorical, Value::Str(s)) => {
                            // Unseen strings simply cannot match; drop them.
                            if let Some(code) = dicts[dim].as_ref().and_then(|d| d.lookup(s)) {
                                resolved.push(i64::from(code));
                            }
                        }
                        (DataType::Categorical, Value::Int(v)) => {
                            return Err(StorageError::TypeMismatch {
                                column: column.clone(),
                                expected: "string literal",
                                got: v.to_string(),
                            })
                        }
                        (DataType::Categorical, Value::Float(v)) => {
                            return Err(StorageError::TypeMismatch {
                                column: column.clone(),
                                expected: "string literal",
                                got: v.to_string(),
                            })
                        }
                        (_, Value::Int(v)) => resolved.push(*v),
                        (_, Value::Float(v)) => {
                            return Err(StorageError::TypeMismatch {
                                column: column.clone(),
                                expected: "integer literal",
                                got: v.to_string(),
                            })
                        }
                        (_, Value::Str(s)) => {
                            return Err(StorageError::TypeMismatch {
                                column: column.clone(),
                                expected: "integer literal",
                                got: format!("'{s}'"),
                            })
                        }
                    }
                }
                if resolved.is_empty() {
                    return Ok(CompiledPredicate::Const(false));
                }
                resolved.sort_unstable();
                resolved.dedup();
                let lookup = InLookup::build(&resolved);
                Ok(CompiledPredicate::InSet { dim, values: resolved, lookup })
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { column, op, value } => {
                write!(f, "{column} {} {value}", op.symbol())
            }
            Predicate::In { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::And(children) => {
                if children.is_empty() {
                    return write!(f, "TRUE");
                }
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "({c})")?;
                }
                Ok(())
            }
            Predicate::Or(children) => {
                if children.is_empty() {
                    return write!(f, "FALSE");
                }
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "({c})")?;
                }
                Ok(())
            }
            Predicate::Not(c) => write!(f, "NOT ({c})"),
            Predicate::True => write!(f, "TRUE"),
        }
    }
}

/// Small-domain membership bitset for IN-lists, precomputed once at
/// predicate compile time. Covers the contiguous value span
/// `[offset, offset + 64·bits.len())`; membership is two shifts and a
/// bounds check instead of a binary search per row.
#[derive(Debug, Clone, PartialEq)]
pub struct InLookup {
    offset: i64,
    bits: Vec<u64>,
}

impl InLookup {
    /// Largest value span worth materializing: 64 Ki values = 8 KiB of
    /// bits, small enough to stay L1/L2-resident during a scan. `UInt8`
    /// and dictionary-coded columns are always under this.
    const MAX_SPAN: i64 = 64 * 1024;

    /// Build from a sorted, deduplicated value list; `None` when the span
    /// is too wide (evaluation then falls back to binary search).
    pub(crate) fn build(values: &[i64]) -> Option<InLookup> {
        let (&lo, &hi) = (values.first()?, values.last()?);
        let span = hi.checked_sub(lo)?.checked_add(1)?;
        if span > Self::MAX_SPAN {
            return None;
        }
        let mut bits = vec![0u64; (span as usize).div_ceil(64)];
        for &v in values {
            let d = (v - lo) as usize;
            bits[d / 64] |= 1 << (d % 64);
        }
        Some(InLookup { offset: lo, bits })
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, x: i64) -> bool {
        // Wrapping keeps the true difference for any (x, offset) pair once
        // reinterpreted as u64; out-of-span values fail the range check.
        let d = x.wrapping_sub(self.offset) as u64;
        d < self.bits.len() as u64 * 64 && (self.bits[(d / 64) as usize] >> (d % 64)) & 1 == 1
    }

    /// First value of the covered span (the bit index of value `v` is
    /// `v - offset`). For the crate's SIMD membership kernels.
    #[inline]
    pub(crate) fn offset(&self) -> i64 {
        self.offset
    }

    /// The packed membership bitset, 64 values per word.
    #[inline]
    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }
}

/// Word-at-a-time IN-list membership through the lookup bitset: the
/// **portable** tier of the membership kernel dispatch in [`crate::simd`];
/// the AVX-512 tier replaces it with table-shuffle / gather probes, and
/// the SSE2 tier runs it as is.
pub(crate) fn in_lookup_kernel<T: Copy + Into<i64>>(
    data: &[T],
    lookup: &InLookup,
    mask: &mut Bitmask,
) {
    fill_mask(data, mask, |x| lookup.contains(x.into()))
}

/// Pool of reusable [`Bitmask`] buffers threaded through predicate
/// evaluation. AND/OR/NOT trees borrow child masks from the pool and
/// return them when combined, so evaluating a predicate over many
/// partitions of similar size performs no allocation after the first.
#[derive(Debug, Default)]
pub struct MaskScratch {
    pool: Vec<Bitmask>,
}

impl MaskScratch {
    pub fn new() -> Self {
        MaskScratch::default()
    }

    /// An all-zero mask over `len` rows, reusing a pooled buffer when one
    /// is available.
    pub fn acquire_zeros(&mut self, len: usize) -> Bitmask {
        match self.pool.pop() {
            Some(mut m) => {
                m.reset_zeros(len);
                m
            }
            None => Bitmask::zeros(len),
        }
    }

    /// A mask over `len` rows whose words are garbage until written — for
    /// kernels that overwrite every word, which would make the zeroing of
    /// [`MaskScratch::acquire_zeros`] a wasted memset.
    fn acquire_for_overwrite(&mut self, len: usize) -> Bitmask {
        match self.pool.pop() {
            Some(mut m) => {
                m.reset_for_overwrite(len);
                m
            }
            None => Bitmask::zeros(len),
        }
    }

    /// Return a mask's buffer to the pool for later reuse.
    pub fn release(&mut self, mask: Bitmask) {
        // A predicate tree holds at most depth-many masks live at once;
        // a small cap keeps pathological trees from hoarding memory.
        if self.pool.len() < 32 {
            self.pool.push(mask);
        }
    }
}

/// A predicate bound to a concrete table: names resolved to dimension
/// indices, strings resolved to dictionary codes.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledPredicate {
    Cmp {
        dim: usize,
        op: CmpOp,
        value: i64,
    },
    /// Comparison against a float64 dimension. Kept separate from `Cmp` so
    /// integer predicates never pay a float-path branch: the literal stays
    /// an IEEE double and evaluation follows strict IEEE semantics (NaN
    /// rows match only `<>`; `-0.0 = 0.0`).
    CmpF64 {
        dim: usize,
        op: CmpOp,
        value: f64,
    },
    InSet {
        dim: usize,
        values: Vec<i64>,
        lookup: Option<InLookup>,
    },
    And(Vec<CompiledPredicate>),
    Or(Vec<CompiledPredicate>),
    Not(Box<CompiledPredicate>),
    Const(bool),
}

impl CompiledPredicate {
    /// Evaluate over every row of `partition`, producing a selection mask.
    ///
    /// Convenience wrapper over [`CompiledPredicate::evaluate_into`] with a
    /// throwaway scratch; hot paths that visit many partitions should hold
    /// a [`MaskScratch`] and call `evaluate_into` to amortize allocations.
    pub fn evaluate(&self, partition: &Partition) -> Bitmask {
        self.evaluate_into(partition, &mut MaskScratch::new())
    }

    /// Evaluate over every row of `partition`, drawing all mask buffers
    /// (the result included) from `scratch`. Callers may hand the returned
    /// mask back via [`MaskScratch::release`] once consumed. Comparison
    /// leaves run on the process-wide dispatched kernel tier
    /// ([`crate::simd::active`]).
    pub fn evaluate_into(&self, partition: &Partition, scratch: &mut MaskScratch) -> Bitmask {
        self.evaluate_into_with(partition, scratch, crate::simd::active())
    }

    /// [`CompiledPredicate::evaluate_into`] with an explicit kernel tier —
    /// the hook the kernel-equivalence suite uses to pit tiers against each
    /// other on identical inputs.
    pub fn evaluate_into_with(
        &self,
        partition: &Partition,
        scratch: &mut MaskScratch,
        kernels: &KernelSet,
    ) -> Bitmask {
        let n = partition.num_rows();
        match self {
            CompiledPredicate::Const(true) => {
                let mut mask = scratch.acquire_for_overwrite(n);
                mask.fill_ones();
                mask
            }
            CompiledPredicate::Const(false) => scratch.acquire_zeros(n),
            CompiledPredicate::Cmp { dim, op, value } => {
                let mut mask = scratch.acquire_for_overwrite(n);
                eval_cmp_into(kernels, partition.dim(*dim), *op, *value, &mut mask);
                mask
            }
            CompiledPredicate::CmpF64 { dim, op, value } => {
                let mut mask = scratch.acquire_for_overwrite(n);
                eval_cmp_f64_into(kernels, partition.dim(*dim), *op, *value, &mut mask);
                mask
            }
            CompiledPredicate::InSet { dim, values, lookup } => {
                let mut mask = scratch.acquire_for_overwrite(n);
                eval_in_into(kernels, partition.dim(*dim), values, lookup.as_ref(), &mut mask);
                mask
            }
            CompiledPredicate::And(children) => {
                let mut mask = children[0].evaluate_into_with(partition, scratch, kernels);
                for c in &children[1..] {
                    if !mask.any_set() {
                        break;
                    }
                    let child = c.evaluate_into_with(partition, scratch, kernels);
                    mask.and_inplace(&child);
                    scratch.release(child);
                }
                mask
            }
            CompiledPredicate::Or(children) => {
                let mut mask = children[0].evaluate_into_with(partition, scratch, kernels);
                for c in &children[1..] {
                    let child = c.evaluate_into_with(partition, scratch, kernels);
                    mask.or_inplace(&child);
                    scratch.release(child);
                }
                mask
            }
            CompiledPredicate::Not(child) => {
                let mut mask = child.evaluate_into_with(partition, scratch, kernels);
                mask.not_inplace();
                mask
            }
        }
    }

    /// Conservative zone-map check: returns `false` only if the partition
    /// provably contains no matching row.
    pub fn may_match(&self, zone_maps: &ZoneMaps) -> bool {
        match self {
            CompiledPredicate::Const(b) => *b,
            CompiledPredicate::Cmp { dim, op, value } => match zone_maps.range(*dim) {
                None => true,
                Some((lo, hi)) => match op {
                    CmpOp::Eq => (lo..=hi).contains(value),
                    CmpOp::Ne => !(lo == hi && lo == *value),
                    CmpOp::Lt => lo < *value,
                    CmpOp::Le => lo <= *value,
                    CmpOp::Gt => hi > *value,
                    CmpOp::Ge => hi >= *value,
                },
            },
            CompiledPredicate::CmpF64 { dim, op, value } => match zone_maps.float_range(*dim) {
                None => true,
                Some((lo, hi, has_nan)) => {
                    if value.is_nan() {
                        // `x <> NaN` is true for every x; all other
                        // operators are false for every x.
                        *op == CmpOp::Ne
                    } else {
                        match op {
                            // `lo > hi` encodes an all-NaN column: Eq/range
                            // checks fail it naturally, Ne stays alive via
                            // `has_nan`.
                            CmpOp::Eq => (lo..=hi).contains(value),
                            CmpOp::Ne => has_nan || !(lo == hi && lo == *value),
                            CmpOp::Lt => lo < *value,
                            CmpOp::Le => lo <= *value,
                            CmpOp::Gt => hi > *value,
                            CmpOp::Ge => hi >= *value,
                        }
                    }
                }
            },
            CompiledPredicate::InSet { dim, values, .. } => match zone_maps.range(*dim) {
                None => true,
                Some((lo, hi)) => values.iter().any(|v| (lo..=hi).contains(v)),
            },
            CompiledPredicate::And(children) => children.iter().all(|c| c.may_match(zone_maps)),
            CompiledPredicate::Or(children) => children.iter().any(|c| c.may_match(zone_maps)),
            // NOT over an approximate summary cannot prove emptiness.
            CompiledPredicate::Not(_) => true,
        }
    }
}

/// Pack per-row predicate results into mask words 64 rows at a time:
/// `word |= (pred as u64) << bit`, no per-row branch and no per-row bounds
/// check, so comparisons over primitive slices autovectorize.
#[inline]
fn fill_mask<T: Copy>(data: &[T], mask: &mut Bitmask, f: impl Fn(T) -> bool) {
    debug_assert_eq!(data.len(), mask.len());
    let words = mask.words_mut();
    let mut chunks = data.chunks_exact(64);
    let mut wi = 0;
    for chunk in chunks.by_ref() {
        let mut w = 0u64;
        for (bit, &x) in chunk.iter().enumerate() {
            w |= (f(x) as u64) << bit;
        }
        words[wi] = w;
        wi += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = 0u64;
        for (bit, &x) in rem.iter().enumerate() {
            w |= (f(x) as u64) << bit;
        }
        words[wi] = w;
    }
}

/// Monomorphized word-at-a-time comparison kernel: the operator is
/// resolved once, then a single branchless [`fill_mask`] pass builds the
/// words. This is the **portable** tier of the kernel dispatch in
/// [`crate::simd`]; the SIMD tiers replace it with explicit
/// compare+movemask loops.
pub(crate) fn cmp_kernel<T: Copy + PartialOrd>(data: &[T], op: CmpOp, rhs: T, mask: &mut Bitmask) {
    match op {
        CmpOp::Eq => fill_mask(data, mask, |x| x == rhs),
        CmpOp::Ne => fill_mask(data, mask, |x| x != rhs),
        CmpOp::Lt => fill_mask(data, mask, |x| x < rhs),
        CmpOp::Le => fill_mask(data, mask, |x| x <= rhs),
        CmpOp::Gt => fill_mask(data, mask, |x| x > rhs),
        CmpOp::Ge => fill_mask(data, mask, |x| x >= rhs),
    }
}

/// Whether `col op value` matches every row when `value` is outside the
/// column representation's range (`above` = beyond its max, else below 0).
/// The alternative — per-row comparison in widened i64 space — would cost
/// the narrow types their vectorized loop for a literal that cannot
/// discriminate between rows anyway.
pub(crate) fn out_of_range_matches_all(op: CmpOp, above: bool) -> bool {
    match op {
        CmpOp::Eq => false,
        CmpOp::Ne => true,
        CmpOp::Lt | CmpOp::Le => above,
        CmpOp::Gt | CmpOp::Ge => !above,
    }
}

/// Evaluate `col op value` into `mask` through the given kernel tier, per
/// column representation. Every word of `mask` is written (the buffer may
/// arrive with garbage words).
fn eval_cmp_into(
    kernels: &KernelSet,
    col: &DimensionColumn,
    op: CmpOp,
    value: i64,
    mask: &mut Bitmask,
) {
    macro_rules! narrow {
        ($v:expr, $t:ty, $cmp:ident) => {{
            match <$t>::try_from(value) {
                Ok(rhs) => kernels.$cmp($v, op, rhs, mask),
                Err(_) => {
                    if out_of_range_matches_all(op, value > 0) {
                        mask.fill_ones();
                    } else {
                        mask.fill_zeros();
                    }
                }
            }
        }};
    }
    match col {
        DimensionColumn::UInt8(v) => narrow!(v, u8, cmp_u8),
        DimensionColumn::UInt16(v) => narrow!(v, u16, cmp_u16),
        DimensionColumn::Dict(v) => narrow!(v, u32, cmp_u32),
        DimensionColumn::Int64(v) => kernels.cmp_i64(v, op, value, mask),
        // Direct-constructed integer predicate against a float column:
        // promote the literal (exact up to 2^53) and compare by value.
        DimensionColumn::Float64(v) => kernels.cmp_f64(v, op, value as f64, mask),
    }
}

/// Evaluate `col op value` for a float literal. Compilation only ever
/// pairs `CmpF64` with float64 columns; for a hand-built predicate against
/// an integer column the rows widen to f64 (exact — every representable
/// narrow/dict value and every i64 up to 2^53 round-trips).
fn eval_cmp_f64_into(
    kernels: &KernelSet,
    col: &DimensionColumn,
    op: CmpOp,
    value: f64,
    mask: &mut Bitmask,
) {
    match col {
        DimensionColumn::Float64(v) => kernels.cmp_f64(v, op, value, mask),
        DimensionColumn::UInt8(v) => fill_mask(v, mask, |x| op.apply_f64(f64::from(x), value)),
        DimensionColumn::UInt16(v) => fill_mask(v, mask, |x| op.apply_f64(f64::from(x), value)),
        DimensionColumn::Dict(v) => fill_mask(v, mask, |x| op.apply_f64(f64::from(x), value)),
        DimensionColumn::Int64(v) => fill_mask(v, mask, |x| op.apply_f64(x as f64, value)),
    }
}

/// Evaluate `col IN (values)` into `mask`. With a compile-time lookup
/// bitset the membership probe dispatches through the kernel tier (table
/// shuffles / gathers on the SIMD tiers); the wide-span fallback is a
/// packed binary-search scan.
fn eval_in_into(
    kernels: &KernelSet,
    col: &DimensionColumn,
    values: &[i64],
    lookup: Option<&InLookup>,
    mask: &mut Bitmask,
) {
    macro_rules! scan {
        ($v:expr, $in_kernel:ident) => {{
            match lookup {
                Some(l) => kernels.$in_kernel($v, l, mask),
                None => fill_mask($v, mask, |x| values.binary_search(&i64::from(x)).is_ok()),
            }
        }};
    }
    match col {
        DimensionColumn::UInt8(v) => scan!(v, in_u8),
        DimensionColumn::UInt16(v) => scan!(v, in_u16),
        DimensionColumn::Dict(v) => scan!(v, in_u32),
        DimensionColumn::Int64(v) => scan!(v, in_i64),
        // Compilation rejects IN on float64; a hand-built set compares by
        // promoted value so the bit-pattern accessor never leaks through.
        DimensionColumn::Float64(v) => {
            fill_mask(v, mask, |x| values.iter().any(|&w| x == w as f64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::DataType;

    fn setup() -> (Schema, Vec<Option<Dictionary>>, Partition) {
        let schema = Schema::from_names(
            &[("Age", DataType::UInt8), ("Gender", DataType::Categorical)],
            &["Impression"],
        )
        .unwrap();
        let mut dicts: Vec<Option<Dictionary>> = vec![None, None];
        let mut p = Partition::empty(&schema);
        // Rows of Fig. 1 (minus Location).
        for (age, g, imp) in [(30, "F", 5.0), (60, "M", 1.0), (20, "F", 10.0), (40, "M", 20.0)] {
            p.push_row(&schema, &mut dicts, &[Value::Int(age), Value::from(g)], &[imp]).unwrap();
        }
        (schema, dicts, p)
    }

    #[test]
    fn paper_example_constraint() {
        // Age <= 30 AND Gender = 'F' matches rows 0 and 2 (Fig. 1 yellow).
        let (schema, dicts, p) = setup();
        let pred = Predicate::cmp("Age", CmpOp::Le, 30).and(Predicate::eq("Gender", "F"));
        let compiled = pred.compile(&schema, &dicts).unwrap();
        let mask = compiled.evaluate(&p);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn in_list_on_float64_names_column_and_reason() {
        let schema = Schema::from_names(&[("score", DataType::Float64)], &["Impression"]).unwrap();
        let dicts: Vec<Option<Dictionary>> = vec![None];
        let pred =
            Predicate::In { column: "score".into(), values: vec![Value::Int(1), Value::Int(2)] };
        let msg = pred.compile(&schema, &dicts).unwrap_err().to_string();
        assert_eq!(
            msg,
            "unsupported operation: IN list on float64 column 'score': exact equality on \
             floating-point values is unreliable, so IN is rejected at bind time; use explicit \
             comparisons instead (e.g. score >= lo AND score <= hi)"
        );
    }

    #[test]
    fn or_and_not() {
        let (schema, dicts, p) = setup();
        let pred = Predicate::Or(vec![
            Predicate::cmp("Age", CmpOp::Ge, 60),
            Predicate::cmp("Age", CmpOp::Lt, 25),
        ]);
        let mask = pred.compile(&schema, &dicts).unwrap().evaluate(&p);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![1, 2]);

        let pred = Predicate::Not(Box::new(Predicate::eq("Gender", "F")));
        let mask = pred.compile(&schema, &dicts).unwrap().evaluate(&p);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn in_set() {
        let (schema, dicts, p) = setup();
        let pred = Predicate::In {
            column: "Age".to_string(),
            values: vec![Value::Int(20), Value::Int(60), Value::Int(99)],
        };
        let mask = pred.compile(&schema, &dicts).unwrap().evaluate(&p);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn unseen_string_folds_to_constant() {
        let (schema, dicts, p) = setup();
        let pred = Predicate::eq("Gender", "X");
        let compiled = pred.compile(&schema, &dicts).unwrap();
        assert_eq!(compiled, CompiledPredicate::Const(false));
        assert_eq!(compiled.evaluate(&p).count_ones(), 0);

        let pred = Predicate::cmp("Gender", CmpOp::Ne, "X");
        let compiled = pred.compile(&schema, &dicts).unwrap();
        assert_eq!(compiled, CompiledPredicate::Const(true));
    }

    #[test]
    fn range_on_categorical_rejected() {
        let (schema, dicts, _) = setup();
        let pred = Predicate::cmp("Gender", CmpOp::Lt, "F");
        assert!(pred.compile(&schema, &dicts).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let (schema, dicts, _) = setup();
        assert!(Predicate::eq("Age", "thirty").compile(&schema, &dicts).is_err());
        assert!(Predicate::eq("Gender", 1).compile(&schema, &dicts).is_err());
        assert!(Predicate::eq("Nope", 1).compile(&schema, &dicts).is_err());
    }

    #[test]
    fn zone_map_pruning() {
        let (schema, dicts, p) = setup();
        // Ages span [20, 60]; Age > 100 cannot match.
        let pred = Predicate::cmp("Age", CmpOp::Gt, 100).compile(&schema, &dicts).unwrap();
        assert!(!pred.may_match(p.zone_maps()));
        let pred = Predicate::cmp("Age", CmpOp::Le, 30).compile(&schema, &dicts).unwrap();
        assert!(pred.may_match(p.zone_maps()));
        // NOT is conservative.
        let pred = Predicate::Not(Box::new(Predicate::cmp("Age", CmpOp::Le, 100)))
            .compile(&schema, &dicts)
            .unwrap();
        assert!(pred.may_match(p.zone_maps()));
    }

    #[test]
    fn literal_outside_narrow_type_range() {
        let (schema, dicts, p) = setup();
        // 1000 does not fit u8 but `Age <= 1000` must still select all rows.
        let pred = Predicate::cmp("Age", CmpOp::Le, 1000).compile(&schema, &dicts).unwrap();
        assert_eq!(pred.evaluate(&p).count_ones(), 4);
        let pred = Predicate::cmp("Age", CmpOp::Ge, -5).compile(&schema, &dicts).unwrap();
        assert_eq!(pred.evaluate(&p).count_ones(), 4);
    }

    #[test]
    fn scratch_reuse_matches_fresh_evaluate() {
        let (schema, dicts, p) = setup();
        let pred = Predicate::Or(vec![
            Predicate::cmp("Age", CmpOp::Le, 30).and(Predicate::eq("Gender", "F")),
            Predicate::Not(Box::new(Predicate::cmp("Age", CmpOp::Lt, 60))),
        ])
        .compile(&schema, &dicts)
        .unwrap();
        let mut scratch = MaskScratch::new();
        for _ in 0..3 {
            let mask = pred.evaluate_into(&p, &mut scratch);
            assert_eq!(mask, pred.evaluate(&p));
            scratch.release(mask);
        }
    }

    #[test]
    fn in_lookup_small_and_wide_domains() {
        let small = InLookup::build(&[-3, 0, 7]).unwrap();
        assert!(small.contains(-3) && small.contains(0) && small.contains(7));
        assert!(!small.contains(-4) && !small.contains(1) && !small.contains(8));
        assert!(!small.contains(i64::MIN) && !small.contains(i64::MAX));
        // Span too wide (or overflowing) falls back to binary search.
        assert!(InLookup::build(&[0, InLookup::MAX_SPAN]).is_none());
        assert!(InLookup::build(&[i64::MIN, i64::MAX]).is_none());
        // Compiled IN over a narrow column gets a lookup.
        let (schema, dicts, p) = setup();
        let pred = Predicate::In {
            column: "Age".to_string(),
            values: vec![Value::Int(20), Value::Int(60)],
        }
        .compile(&schema, &dicts)
        .unwrap();
        match &pred {
            CompiledPredicate::InSet { lookup, .. } => assert!(lookup.is_some()),
            other => panic!("expected InSet, got {other:?}"),
        }
        assert_eq!(pred.evaluate(&p).iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn display_round_trips_structure() {
        let pred = Predicate::cmp("Age", CmpOp::Le, 30).and(Predicate::eq("Gender", "F"));
        assert_eq!(pred.to_string(), "(Age <= 30) AND (Gender = 'F')");
    }
}
