//! Scan-kernel throughput report, tracked in-tree.
//!
//! Measures the scan kernels on a fixed-seed 1 M-row partition — the
//! scalar (pre-vectorization) reference loops plus every kernel tier the
//! host CPU supports (portable word-at-a-time, SSE2, AVX2, AVX-512) —
//! across exact masked aggregation, predicate evaluation (the conjunction
//! and the pure-u8 comparison), SIMD IN-list membership, the fused
//! single-comparison scan, and sampled estimation, and writes
//! `BENCH_scan.json` at the repo root so every PR records per-tier
//! rows/sec, the tier-over-tier speedups (including avx512-vs-avx2 where
//! both exist), the dispatched kernel tier (`kernel_tier`) and the host's
//! core count (`host_cores`).
//!
//! End-to-end numbers (wire round trips at table scale) come from the
//! standalone benchmark under `benchmark/`, not from this report.
//!
//! Run with `cargo run -p flashp-bench --release --bin bench_report`.

use flashp_sampling::{estimate_components_with_kernels, GswSampler, SampleSize, Sampler};
use flashp_storage::reference::{aggregate_masked_scalar, evaluate_scalar};
use flashp_storage::{
    aggregate::aggregate_masked, aggregate_filtered_with, simd, AggFunc, Bitmask, CmpOp,
    CompiledPredicate, DataType, DimensionColumn, KernelSet, KernelTier, MaskScratch, Partition,
    Predicate, Schema, SchemaRef, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 1_000_000;
const SEED: u64 = 3;
const REPS: usize = 15;

fn setup() -> (SchemaRef, Partition) {
    let schema = Schema::from_names(&[("age", DataType::UInt8), ("seg", DataType::UInt16)], &["m"])
        .unwrap()
        .into_shared();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut age = DimensionColumn::new(DataType::UInt8);
    let mut seg = DimensionColumn::new(DataType::UInt16);
    let mut m = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        age.push_int("age", rng.gen_range(18..=70)).unwrap();
        seg.push_int("seg", rng.gen_range(0..500)).unwrap();
        m.push(if rng.gen::<f64>() < 0.01 { 300.0 } else { 1.0 + rng.gen::<f64>() });
    }
    (schema, Partition::from_columns(vec![age, seg], vec![m]).unwrap())
}

/// Median seconds per call over `REPS` timed calls (after warmup).
fn time_median<R>(mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..2 {
        black_box(f());
    }
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

struct Bench {
    name: &'static str,
    rows: usize,
    /// Pre-vectorization scalar reference loops.
    scalar_secs: f64,
    /// Median seconds per supported tier, worst-first
    /// (portable → best the CPU has).
    tier_secs: Vec<(&'static str, f64)>,
}

impl Bench {
    fn secs_for(&self, tier: &str) -> Option<f64> {
        self.tier_secs.iter().find(|(name, _)| *name == tier).map(|&(_, s)| s)
    }

    fn report(&self, dispatched: &str) -> serde_json::Value {
        let rps = |secs: f64| self.rows as f64 / secs;
        let scalar = rps(self.scalar_secs);
        let word = rps(self.secs_for("portable").expect("portable tier always measured"));
        // The dispatched tier is always in the supported set, so the
        // legacy `simd` column keeps meaning "what a default run uses".
        let simd = rps(self.secs_for(dispatched).expect("dispatched tier measured"));
        let mut line = format!("{:<26} scalar {:>11.0} r/s", self.name, scalar);
        let mut tiers = serde_json::Map::new();
        for &(name, secs) in &self.tier_secs {
            line.push_str(&format!("   {} {:>11.0} r/s", name, rps(secs)));
            tiers.insert(format!("{name}_rows_per_sec"), json!(rps(secs)));
        }
        line.push_str(&format!("   simd/scalar {:>5.2}x", simd / scalar));
        let avx512_vs_avx2 = match (self.secs_for("avx512"), self.secs_for("avx2")) {
            (Some(a512), Some(a2)) => {
                let r = rps(a512) / rps(a2);
                line.push_str(&format!("   avx512/avx2 {r:>5.2}x"));
                Some(r)
            }
            _ => None,
        };
        println!("{line}");
        json!({
            "name": self.name,
            "rows": self.rows,
            "scalar_rows_per_sec": scalar,
            "word_rows_per_sec": word,
            "simd_rows_per_sec": simd,
            "tiers": tiers,
            "word_vs_scalar_speedup": word / scalar,
            "simd_vs_word_speedup": simd / word,
            "simd_vs_scalar_speedup": simd / scalar,
            "avx512_vs_avx2_speedup": avx512_vs_avx2,
        })
    }
}

/// Median seconds per call of `body` for every tier in `tiers`.
fn per_tier_secs<R>(
    tiers: &[KernelSet],
    mut body: impl FnMut(&KernelSet) -> R,
) -> Vec<(&'static str, f64)> {
    tiers.iter().map(|ks| (ks.tier().name(), time_median(|| body(ks)))).collect()
}

fn main() {
    let (schema, partition) = setup();
    let conj = Predicate::cmp("age", CmpOp::Le, 30)
        .and(Predicate::cmp("seg", CmpOp::Lt, 100))
        .compile(&schema, &[None, None])
        .unwrap();
    let single = CompiledPredicate::Cmp { dim: 0, op: CmpOp::Le, value: 30 };
    // A 12-value IN list over the u8 age column: compiles to an InSet
    // backed by the InLookup bitset, so the per-tier membership kernels
    // (vpshufb table probe on AVX-512) carry the whole evaluation.
    let in_list = Predicate::In {
        column: "age".to_string(),
        values: [18i64, 19, 21, 24, 27, 30, 33, 36, 40, 45, 50, 55]
            .into_iter()
            .map(Value::Int)
            .collect(),
    }
    .compile(&schema, &[None, None])
    .unwrap();
    let tiers: Vec<KernelSet> =
        KernelTier::ALL.iter().rev().filter_map(|&t| KernelSet::for_tier(t)).collect();
    let dispatched = *simd::active();
    let mut scratch = MaskScratch::new();
    let mut benches = Vec::new();

    println!("dispatched kernel tier: {}", dispatched.tier());
    println!(
        "supported tiers: {}",
        tiers.iter().map(|k| k.tier().name()).collect::<Vec<_>>().join(", ")
    );

    // Exact masked aggregation (the paper's "Full" bottleneck): predicate
    // evaluation + masked SUM over 1 M rows.
    benches.push(Bench {
        name: "exact_masked_aggregation",
        rows: ROWS,
        scalar_secs: time_median(|| {
            let mask = evaluate_scalar(&conj, &partition);
            aggregate_masked_scalar(&partition, 0, &mask).finalize(AggFunc::Sum)
        }),
        tier_secs: per_tier_secs(&tiers, |ks| {
            let mask = conj.evaluate_into_with(&partition, &mut scratch, ks);
            let state = aggregate_masked(&partition, 0, &mask);
            scratch.release(mask);
            state.finalize(AggFunc::Sum)
        }),
    });

    // Predicate evaluation alone (mask construction throughput) for the
    // u8+u16 conjunction.
    benches.push(Bench {
        name: "predicate_eval",
        rows: ROWS,
        scalar_secs: time_median(|| evaluate_scalar(&conj, &partition).count_ones()),
        tier_secs: per_tier_secs(&tiers, |ks| {
            let mask = conj.evaluate_into_with(&partition, &mut scratch, ks);
            let ones = mask.count_ones();
            scratch.release(mask);
            ones
        }),
    });

    // Kernel-throughput framing for the two pure-u8 benches: an
    // L1-resident 32 Ki-row slice swept repeatedly into a preallocated
    // mask. A full-partition sweep is memory-bandwidth-bound at every
    // vector width, so it cannot show the compare throughput the wider
    // tiers buy; the hot-slice sweep can.
    const HOT_ROWS: usize = 32 * 1024;
    const HOT_SWEEPS: usize = 32;
    let age_data: &[u8] = match partition.dim(0) {
        DimensionColumn::UInt8(v) => v,
        _ => unreachable!("age is declared UInt8"),
    };
    let hot = &age_data[..HOT_ROWS];
    let hot_partition = Partition::from_columns(
        vec![DimensionColumn::UInt8(hot.to_vec())],
        vec![partition.measure(0)[..HOT_ROWS].to_vec()],
    )
    .unwrap();
    let mut hot_mask = Bitmask::zeros(HOT_ROWS);

    // Pure-u8 predicate evaluation: the compare kernel alone (64 rows per
    // AVX-512 `vpcmpub`).
    benches.push(Bench {
        name: "predicate_eval_u8",
        rows: HOT_ROWS * HOT_SWEEPS,
        scalar_secs: time_median(|| {
            for _ in 0..HOT_SWEEPS {
                black_box(evaluate_scalar(&single, &hot_partition));
            }
        }),
        tier_secs: per_tier_secs(&tiers, |ks| {
            for _ in 0..HOT_SWEEPS {
                ks.cmp_u8(hot, CmpOp::Le, 30, &mut hot_mask);
            }
            black_box(&hot_mask);
        }),
    });

    // SIMD IN-list membership over the u8 age column, same framing: the
    // membership kernel (vpshufb bitset probe on AVX-512/AVX2).
    let in_lookup = match &in_list {
        CompiledPredicate::InSet { lookup: Some(l), .. } => l.clone(),
        _ => unreachable!("a u8 IN list always materializes an InLookup"),
    };
    benches.push(Bench {
        name: "in_list_membership_u8",
        rows: HOT_ROWS * HOT_SWEEPS,
        scalar_secs: time_median(|| {
            for _ in 0..HOT_SWEEPS {
                black_box(evaluate_scalar(&in_list, &hot_partition));
            }
        }),
        tier_secs: per_tier_secs(&tiers, |ks| {
            for _ in 0..HOT_SWEEPS {
                ks.in_u8(hot, &in_lookup, &mut hot_mask);
            }
            black_box(&hot_mask);
        }),
    });

    // Fused single-comparison scan: no mask materialized at all.
    benches.push(Bench {
        name: "fused_single_cmp_scan",
        rows: ROWS,
        scalar_secs: time_median(|| {
            let mask = evaluate_scalar(&single, &partition);
            aggregate_masked_scalar(&partition, 0, &mask).finalize(AggFunc::Sum)
        }),
        tier_secs: per_tier_secs(&tiers, |ks| {
            aggregate_filtered_with(ks, &partition, 0, 0, CmpOp::Le, 30).finalize(AggFunc::Sum)
        }),
    });

    // Sampled estimation (FlashP's online path) on a 1 % GSW sample:
    // scalar = the pre-change estimate_agg loop — scalar predicate
    // evaluation, then per matched row a division by π plus the full HT
    // sum/count/variance accumulation.
    let sampler = GswSampler::optimal(0, SampleSize::Rate(0.01));
    let mut rng = StdRng::seed_from_u64(1);
    let sample = sampler.sample(&schema, &partition, &mut rng).unwrap();
    let sample_rows = sample.num_rows();
    benches.push(Bench {
        name: "sampled_estimation",
        rows: sample_rows,
        scalar_secs: time_median(|| {
            let mask = evaluate_scalar(&conj, sample.rows());
            let values = sample.rows().measure(0);
            let pi = sample.inclusion_probabilities();
            let mut sum_hat = 0.0;
            let mut sum_var = 0.0;
            let mut count_hat = 0.0;
            let mut count_var = 0.0;
            let mut matched = 0usize;
            for i in mask.iter_ones() {
                let p = pi[i];
                let m = values[i];
                sum_hat += m / p;
                count_hat += 1.0 / p;
                let q = (1.0 - p) / (p * p);
                sum_var += m * m * q;
                count_var += q;
                matched += 1;
            }
            (sum_hat, sum_var, count_hat, count_var, matched)
        }),
        tier_secs: per_tier_secs(&tiers, |ks| {
            estimate_components_with_kernels(&sample, 0, &conj, &mut scratch, ks)
                .unwrap()
                .finalize(AggFunc::Sum)
                .value
        }),
    });

    let tier_name = dispatched.tier().name();
    let reports: Vec<serde_json::Value> = benches.iter().map(|b| b.report(tier_name)).collect();
    let doc = json!({
        "bench": "BENCH_scan",
        "rows": ROWS,
        "seed": SEED,
        "reps": REPS,
        "unit": "rows_per_sec",
        "kernel_tier": tier_name,
        "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "tiers_measured": tiers.iter().map(|k| k.tier().name()).collect::<Vec<_>>(),
        "benches": reports,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n").unwrap();
    println!("wrote {path}");
}
