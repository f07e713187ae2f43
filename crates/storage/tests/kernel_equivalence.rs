//! Kernel-equivalence properties: **every** kernel tier — the portable
//! word-at-a-time kernels plus each SIMD tier this machine supports
//! (SSE2, AVX2) — must be bit-for-bit (masks) and sum-exact (aggregates)
//! identical to the scalar reference implementations in
//! `support/reference.rs`, over random schemas, column types, row
//! counts (including `len % 64` and SIMD-lane `len % 4` tails), masks,
//! and predicate trees. The `f64` comparison kernels are additionally
//! proven against the scalar oracle under NaN, ±∞, −0.0 and extreme
//! literals.

use flashp_storage::{
    aggregate_filtered_f64_with, aggregate_filtered_with, AggFunc, Bitmask, CmpOp,
    CompiledPredicate, DataType, Dictionary, DimensionColumn, KernelSet, MaskScratch, Partition,
    Predicate, Schema, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/reference.rs"]
mod reference;
use reference::{aggregate_masked_scalar, eval_cmp_f64_scalar, evaluate_scalar};

const DTYPES: [DataType; 5] =
    [DataType::UInt8, DataType::UInt16, DataType::Int64, DataType::Categorical, DataType::Float64];

const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// Dictionary value pool for categorical dimensions; predicates may also
/// reference strings outside this pool (unseen values).
const CAT_POOL: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

struct Fixture {
    schema: Schema,
    dicts: Vec<Option<Dictionary>>,
    partition: Partition,
}

/// Random schema (1–3 dimensions of random types, 1 measure) and a random
/// partition. Row counts concentrate on word-boundary (`% 64`) and
/// SIMD-lane (`% 4`, `% 8`, `% 32`) neighborhoods so every tier's tail
/// path is exercised every run.
fn random_fixture(rng: &mut StdRng) -> Fixture {
    let num_dims = rng.gen_range(1..=3usize);
    let dtypes: Vec<DataType> =
        (0..num_dims).map(|_| DTYPES[rng.gen_range(0..DTYPES.len())]).collect();
    let names = ["d0", "d1", "d2"];
    let dims_def: Vec<(&str, DataType)> =
        dtypes.iter().enumerate().map(|(i, &t)| (names[i], t)).collect();
    let schema = Schema::from_names(&dims_def, &["m"]).unwrap();

    let n = match rng.gen_range(0..8u32) {
        0 => rng.gen_range(0..4usize),      // tiny, incl. empty
        1 => 64 * rng.gen_range(1..3usize), // exact word multiples
        2 => 64 * rng.gen_range(1..3usize) + rng.gen_range(1..64usize), // word tails
        3 => 64 * rng.gen_range(1..3usize) + rng.gen_range(1..4usize), // %4 lane tails
        4 => 32 * rng.gen_range(1..6usize) + rng.gen_range(0..8usize), // %8/%32 lane tails
        _ => rng.gen_range(1..200usize),
    };

    let mut dicts: Vec<Option<Dictionary>> = Vec::new();
    let mut columns: Vec<DimensionColumn> = Vec::new();
    for &dtype in &dtypes {
        match dtype {
            DataType::UInt8 => {
                columns.push(DimensionColumn::UInt8(
                    (0..n).map(|_| rng.gen_range(0..=255u8)).collect(),
                ));
                dicts.push(None);
            }
            DataType::UInt16 => {
                // Narrow value range so comparisons and IN-lists match rows.
                columns.push(DimensionColumn::UInt16(
                    (0..n).map(|_| rng.gen_range(0..300u16)).collect(),
                ));
                dicts.push(None);
            }
            DataType::Int64 => {
                // Mix small values with i64 extremes.
                columns.push(DimensionColumn::Int64(
                    (0..n)
                        .map(|_| match rng.gen_range(0..10u32) {
                            0 => i64::MIN,
                            1 => i64::MAX,
                            _ => rng.gen_range(-50..50i64),
                        })
                        .collect(),
                ));
                dicts.push(None);
            }
            DataType::Categorical => {
                let mut dict = Dictionary::new();
                let codes: Vec<u32> = (0..n)
                    .map(|_| dict.intern(CAT_POOL[rng.gen_range(0..CAT_POOL.len())]))
                    .collect();
                columns.push(DimensionColumn::Dict(codes));
                dicts.push(Some(dict));
            }
            DataType::Float64 => {
                // Seed IEEE specials among the ordinary values so every
                // comparison op meets NaN/±∞/−0.0/subnormal rows.
                columns.push(DimensionColumn::Float64(
                    (0..n)
                        .map(|_| match rng.gen_range(0..10u32) {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            3 => -0.0,
                            4 => 5e-324,
                            _ => rng.gen_range(-50.0..50.0),
                        })
                        .collect(),
                ));
                dicts.push(None);
            }
        }
    }
    let measure: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
    let partition = Partition::from_columns(columns, vec![measure]).unwrap();
    Fixture { schema, dicts, partition }
}

/// Random literal for a numeric dimension, deliberately spanning in-range,
/// boundary, and out-of-representation values.
fn random_literal(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..8u32) {
        0 => -1,
        1 => 256,    // just beyond u8
        2 => 65_536, // just beyond u16
        3 => i64::MIN,
        4 => i64::MAX,
        _ => rng.gen_range(-60..310),
    }
}

/// Random float literal for a float64 dimension: IEEE specials mixed with
/// in-range values.
fn random_float_literal(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 5e-324,
        5 => f64::MAX,
        _ => rng.gen_range(-60.0..60.0),
    }
}

/// Random predicate tree over the fixture's dimensions.
fn random_predicate(rng: &mut StdRng, schema: &Schema, depth: usize) -> Predicate {
    let num_dims = schema.num_dimensions();
    let leaf = depth == 0 || rng.gen_range(0..3u32) == 0;
    if leaf {
        let dim = rng.gen_range(0..num_dims);
        let def = &schema.dimensions()[dim];
        let categorical = def.dtype == DataType::Categorical;
        let float = def.dtype == DataType::Float64;
        match rng.gen_range(0..3u32) {
            0 if categorical => {
                // Eq/Ne on a pool value or an unseen string.
                let s = if rng.gen_range(0..4u32) == 0 {
                    "unseen"
                } else {
                    CAT_POOL[rng.gen_range(0..CAT_POOL.len())]
                };
                let op = if rng.gen::<bool>() { CmpOp::Eq } else { CmpOp::Ne };
                Predicate::cmp(&def.name, op, s)
            }
            0 | 1 if float => {
                // Float or promoted-integer literal; IN is rejected on
                // float64 so this leaf replaces the IN case too.
                let op = OPS[rng.gen_range(0..6usize)];
                if rng.gen::<bool>() {
                    Predicate::cmp(&def.name, op, Value::Float(random_float_literal(rng)))
                } else {
                    Predicate::cmp(&def.name, op, random_literal(rng))
                }
            }
            0 => {
                let op = OPS[rng.gen_range(0..6usize)];
                Predicate::cmp(&def.name, op, random_literal(rng))
            }
            1 => {
                let k = rng.gen_range(1..6usize);
                let values: Vec<Value> = (0..k)
                    .map(|_| {
                        if categorical {
                            Value::from(CAT_POOL[rng.gen_range(0..CAT_POOL.len())])
                        } else {
                            Value::Int(random_literal(rng))
                        }
                    })
                    .collect();
                Predicate::In { column: def.name.clone(), values }
            }
            _ => Predicate::True,
        }
    } else {
        match rng.gen_range(0..3u32) {
            0 => Predicate::And(
                (0..rng.gen_range(1..4usize))
                    .map(|_| random_predicate(rng, schema, depth - 1))
                    .collect(),
            ),
            1 => Predicate::Or(
                (0..rng.gen_range(1..4usize))
                    .map(|_| random_predicate(rng, schema, depth - 1))
                    .collect(),
            ),
            _ => Predicate::Not(Box::new(random_predicate(rng, schema, depth - 1))),
        }
    }
}

proptest! {
    /// Predicate evaluation on every supported kernel tier (fresh and
    /// scratch-reusing) is bit-for-bit identical to the row-at-a-time
    /// reference over random schemas and predicate trees.
    #[test]
    fn predicate_kernels_match_scalar_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fx = random_fixture(&mut rng);
        let tiers = KernelSet::supported();
        let mut scratch = MaskScratch::new();
        for _ in 0..4 {
            let pred = random_predicate(&mut rng, &fx.schema, 3);
            let compiled = pred.compile(&fx.schema, &fx.dicts).unwrap();
            let reference = evaluate_scalar(&compiled, &fx.partition);
            // The dispatched tier through the public entry points…
            let fresh = compiled.evaluate(&fx.partition);
            prop_assert_eq!(&fresh, &reference);
            // …and every tier explicitly, sharing one scratch in sequence
            // — buffer reuse must never leak bits between evaluations or
            // between tiers.
            for ks in &tiers {
                let got = compiled.evaluate_into_with(&fx.partition, &mut scratch, ks);
                prop_assert_eq!(&got, &reference, "tier {}", ks.tier());
                scratch.release(got);
            }
        }
    }

    /// Word-walk masked aggregation is sum-exact against the
    /// index-at-a-time reference over random masks (incl. dense words and
    /// ragged tails).
    #[test]
    fn masked_aggregation_matches_scalar_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fx = random_fixture(&mut rng);
        let n = fx.partition.num_rows();
        // Random mask with block structure: runs of all-ones words, all-
        // zero words, and uniform bits, to hit all three word paths.
        let mut mask = Bitmask::zeros(n);
        let mut i = 0;
        while i < n {
            match rng.gen_range(0..3u32) {
                0 => i += 64,                                  // zero word
                1 => {
                    let end = (i + 64).min(n);
                    for j in i..end {
                        mask.set(j);
                    }
                    i = end;
                }
                _ => {
                    let end = (i + 64).min(n);
                    for j in i..end {
                        if rng.gen::<bool>() {
                            mask.set(j);
                        }
                    }
                    i = end;
                }
            }
        }
        let got = flashp_storage::aggregate::aggregate_masked(&fx.partition, 0, &mask);
        let want = aggregate_masked_scalar(&fx.partition, 0, &mask);
        prop_assert_eq!(got.count, want.count);
        prop_assert!(
            got.sum == want.sum,
            "sum mismatch: vectorized {} vs scalar {}", got.sum, want.sum
        );
    }

    /// The fused filter+aggregate kernel on every supported tier equals
    /// scalar-mask-then-scalar-aggregate for every comparison op over
    /// every column type — count-exact and bit-exact on the float sum
    /// (every tier adds matching rows in ascending order).
    #[test]
    fn fused_filter_aggregate_matches_scalar_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fx = random_fixture(&mut rng);
        let tiers = KernelSet::supported();
        for dim in 0..fx.schema.num_dimensions() {
            for _ in 0..3 {
                let op = OPS[rng.gen_range(0..6usize)];
                let value = random_literal(&mut rng);
                let compiled = CompiledPredicate::Cmp { dim, op, value };
                let reference =
                    aggregate_masked_scalar(&fx.partition, 0, &evaluate_scalar(&compiled, &fx.partition));
                for ks in &tiers {
                    let fused = aggregate_filtered_with(ks, &fx.partition, 0, dim, op, value);
                    prop_assert_eq!(
                        fused.count, reference.count,
                        "tier {} op {:?} value {}", ks.tier(), op, value
                    );
                    prop_assert!(
                        fused.finalize(AggFunc::Sum) == reference.finalize(AggFunc::Sum),
                        "tier {} op {:?} value {}: fused {} vs scalar {}",
                        ks.tier(), op, value, fused.sum, reference.sum
                    );
                }
            }
            // Float literals take the dedicated f64 fused slot.
            if fx.schema.dimensions()[dim].dtype == DataType::Float64 {
                for _ in 0..3 {
                    let op = OPS[rng.gen_range(0..6usize)];
                    let value = random_float_literal(&mut rng);
                    let compiled = CompiledPredicate::CmpF64 { dim, op, value };
                    let reference = aggregate_masked_scalar(
                        &fx.partition, 0, &evaluate_scalar(&compiled, &fx.partition));
                    for ks in &tiers {
                        let fused = aggregate_filtered_f64_with(ks, &fx.partition, 0, dim, op, value);
                        prop_assert_eq!(
                            fused.count, reference.count,
                            "tier {} op {:?} value {}", ks.tier(), op, value
                        );
                        prop_assert!(
                            fused.finalize(AggFunc::Sum) == reference.finalize(AggFunc::Sum),
                            "tier {} op {:?} value {}: fused {} vs scalar {}",
                            ks.tier(), op, value, fused.sum, reference.sum
                        );
                    }
                }
            }
        }
    }

    /// The `f64` comparison kernels of every tier match the scalar IEEE
    /// oracle bit for bit, including NaN, ±∞, −0.0, subnormals and
    /// extreme literals on both sides of the comparison.
    #[test]
    fn f64_compare_kernels_match_scalar_reference(seed in any::<u64>()) {
        const SPECIALS: [f64; 9] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let n = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..4usize),
            1 => 64 * rng.gen_range(1..3usize),
            2 => 64 * rng.gen_range(1..3usize) + rng.gen_range(1..4usize),
            _ => rng.gen_range(1..200usize),
        };
        let data: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_range(0..3u32) == 0 {
                    SPECIALS[rng.gen_range(0..SPECIALS.len())]
                } else {
                    rng.gen_range(-10.0..10.0)
                }
            })
            .collect();
        let rhs = if rng.gen_range(0..2u32) == 0 {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-10.0..10.0)
        };
        for ks in KernelSet::supported() {
            for op in OPS {
                let reference = eval_cmp_f64_scalar(&data, op, rhs);
                let mut mask = Bitmask::zeros(n);
                ks.cmp_f64(&data, op, rhs, &mut mask);
                prop_assert_eq!(&mask, &reference, "tier {} op {:?} rhs {}", ks.tier(), op, rhs);
            }
        }
    }
}
