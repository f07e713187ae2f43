//! The headline empirical claim of the paper (Exp-IV, Figs. 9–11):
//! on heavy-tailed measures,
//!
//! * uniform sampling has the largest aggregation error,
//! * optimal GSW and priority sampling are the best (and close to each
//!   other),
//! * compressed GSW sits in between — while using one sample for all
//!   measures.
//!
//! Verified here at laptop scale by averaging relative aggregation errors
//! over tasks × days.

use flashp::core::{EngineConfig, FlashPEngine, SampleCatalog, SamplerChoice};
use flashp::data::{generate_dataset, DatasetConfig, WorkloadConfig, WorkloadGenerator};
use flashp::storage::{AggFunc, Predicate, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Mean relative aggregation error of `sampler` on the given tasks.
fn mean_error(
    engine: &FlashPEngine,
    tasks: &[(Predicate, usize)],
    start: Timestamp,
    end: Timestamp,
    rate: f64,
) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (pred, measure) in tasks {
        let compiled = engine.table().compile_predicate(pred).unwrap();
        let (exact, _, _) =
            engine.estimate_series(*measure, &compiled, AggFunc::Sum, start, end, 1.0).unwrap();
        let (est, _, _) =
            engine.estimate_series(*measure, &compiled, AggFunc::Sum, start, end, rate).unwrap();
        for (e, x) in est.iter().zip(&exact) {
            if x.value > 0.0 {
                total += (e.value - x.value).abs() / x.value;
                n += 1;
            }
        }
    }
    total / n as f64
}

#[test]
fn aggregation_error_ordering_matches_the_paper() {
    let ds = generate_dataset(&DatasetConfig::new(3_000, 40, 99)).unwrap();
    let workload = WorkloadGenerator::new(&ds);
    let mut rng = StdRng::seed_from_u64(5);
    // Medium selectivity, Impression (heavy-tailed), several tasks.
    let tasks: Vec<(Predicate, usize)> = (0..6)
        .map(|_| {
            let t = workload.generate(0, &WorkloadConfig::new(0.2), &mut rng).unwrap();
            (t.predicate, t.measure)
        })
        .collect();
    let table = Arc::new(ds.table);
    let start = Timestamp::from_yyyymmdd(20200101).unwrap();
    let end = start + 39;
    let rate = 0.02;

    let mut errors: HashMap<&'static str, f64> = HashMap::new();
    for sampler in [
        SamplerChoice::Uniform,
        SamplerChoice::OptimalGsw,
        SamplerChoice::Priority,
        SamplerChoice::ArithmeticGsw,
        SamplerChoice::GeometricGsw,
    ] {
        let label = sampler.label();
        let config = EngineConfig { sampler, layer_rates: vec![rate], ..Default::default() };
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        let engine = FlashPEngine::with_catalog(table.clone(), config, catalog);
        errors.insert(label, mean_error(&engine, &tasks, start, end, rate));
    }

    let uniform = errors["Uniform"];
    let opt = errors["Optimal GSW"];
    let priority = errors["Priority"];
    let arith = errors["Arithmetic compressed GSW"];
    let geo = errors["Geometric compressed GSW"];
    println!("errors: {errors:?}");

    // Weighted samplers decisively beat uniform on heavy-tailed measures.
    assert!(opt < uniform * 0.75, "optimal GSW {opt} vs uniform {uniform}");
    assert!(priority < uniform * 0.75, "priority {priority} vs uniform {uniform}");
    // Optimal GSW and priority are comparable (within 50% of each other).
    assert!(
        opt / priority < 1.5 && priority / opt < 1.5,
        "opt {opt} vs priority {priority} should be close"
    );
    // Compressed GSW is no worse than uniform (it should be better or
    // comparable while serving every measure from one sample).
    assert!(arith < uniform * 1.1, "arithmetic compressed {arith} vs uniform {uniform}");
    assert!(geo < uniform * 1.1, "geometric compressed {geo} vs uniform {uniform}");
}

#[test]
fn error_decreases_with_rate_and_selectivity() {
    // Exp-IV's other two observations: every sampler improves with larger
    // sampling rate and with larger selectivity.
    let ds = generate_dataset(&DatasetConfig::new(3_000, 30, 17)).unwrap();
    let workload = WorkloadGenerator::new(&ds);
    let mut rng = StdRng::seed_from_u64(6);
    let narrow = workload.generate(0, &WorkloadConfig::new(0.05), &mut rng).unwrap();
    let broad = workload.generate(0, &WorkloadConfig::new(0.4), &mut rng).unwrap();
    let table = Arc::new(ds.table);
    let start = Timestamp::from_yyyymmdd(20200101).unwrap();
    let end = start + 29;

    let config = EngineConfig {
        sampler: SamplerChoice::OptimalGsw,
        layer_rates: vec![0.1, 0.01],
        ..Default::default()
    };
    let catalog = SampleCatalog::build(&table, &config).unwrap();
    let engine = FlashPEngine::with_catalog(table, config, catalog);

    let tasks_narrow = vec![(narrow.predicate, 0usize)];
    let tasks_broad = vec![(broad.predicate, 0usize)];
    let err_narrow_lo = mean_error(&engine, &tasks_narrow, start, end, 0.01);
    let err_narrow_hi = mean_error(&engine, &tasks_narrow, start, end, 0.1);
    let err_broad_lo = mean_error(&engine, &tasks_broad, start, end, 0.01);
    println!("narrow@1%={err_narrow_lo} narrow@10%={err_narrow_hi} broad@1%={err_broad_lo}");

    assert!(
        err_narrow_hi < err_narrow_lo,
        "higher rate must reduce error: {err_narrow_hi} vs {err_narrow_lo}"
    );
    assert!(
        err_broad_lo < err_narrow_lo,
        "larger selectivity must reduce error: {err_broad_lo} vs {err_narrow_lo}"
    );
}
