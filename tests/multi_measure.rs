//! Multi-measure space/accuracy tradeoffs (§4.2, Figs. 5 & 15): one
//! compressed sample serves every measure at a fraction of the space of
//! per-measure weighted samples, and grouping by L1 distance matters.

use flashp::core::{EngineConfig, FlashPEngine, GroupingPolicy, SampleCatalog, SamplerChoice};
use flashp::data::dimensions::measure;
use flashp::data::{generate_dataset, DatasetConfig};
use flashp::sampling::consistency::normalized_l1;
use flashp::sampling::group_measures;
use flashp::storage::{AggFunc, Predicate, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn compressed_samples_use_a_fraction_of_the_space() {
    let ds = generate_dataset(&DatasetConfig::new(2_000, 20, 31)).unwrap();
    let table = Arc::new(ds.table);
    let per_measure = SampleCatalog::build(
        &table,
        &EngineConfig {
            sampler: SamplerChoice::OptimalGsw,
            layer_rates: vec![0.02],
            ..Default::default()
        },
    )
    .unwrap();
    let compressed = SampleCatalog::build(
        &table,
        &EngineConfig {
            sampler: SamplerChoice::ArithmeticGsw,
            grouping: GroupingPolicy::Single,
            layer_rates: vec![0.02],
            ..Default::default()
        },
    )
    .unwrap();
    // 4 measures per-measure vs 1 shared sample: ~4x space difference.
    let ratio = per_measure.stats().total_bytes as f64 / compressed.stats().total_bytes as f64;
    assert!(
        ratio > 3.0 && ratio < 5.0,
        "space ratio {ratio} should be near 4 (four per-measure samples vs one)"
    );
}

#[test]
fn every_measure_estimable_from_one_compressed_sample() {
    let ds = generate_dataset(&DatasetConfig::new(2_000, 20, 32)).unwrap();
    let table = Arc::new(ds.table);
    let config = EngineConfig {
        sampler: SamplerChoice::ArithmeticGsw,
        grouping: GroupingPolicy::Auto { num_groups: 2 },
        layer_rates: vec![0.05],
        ..Default::default()
    };
    let catalog = SampleCatalog::build(&table, &config).unwrap();
    assert_eq!(catalog.stats().groups.iter().map(Vec::len).sum::<usize>(), 4);
    let engine = FlashPEngine::with_catalog(table.clone(), config, catalog);

    let pred = table.compile_predicate(&Predicate::eq("gender", "F")).unwrap();
    let start = Timestamp::from_yyyymmdd(20200101).unwrap();
    let end = start + 19;
    for m in 0..4 {
        let (exact, _, _) =
            engine.estimate_series(m, &pred, AggFunc::Sum, start, end, 1.0).unwrap();
        let (est, _, _) = engine.estimate_series(m, &pred, AggFunc::Sum, start, end, 0.05).unwrap();
        let exact_v: Vec<f64> = exact.iter().map(|p| p.value).collect();
        let est_v: Vec<f64> = est.iter().map(|p| p.value).collect();
        let err = flashp::forecast::metrics::mean_relative_error(&est_v, &exact_v).unwrap();
        assert!(err < 0.5, "measure {m}: error {err}");
    }
}

#[test]
fn grouping_reflects_funnel_structure() {
    // Impression/Click are tightly coupled by construction (CTR ratios);
    // their L1 distance must be smaller than Impression↔Cart (Cart has
    // per-row lognormal noise with σ = 0.9).
    let ds = generate_dataset(&DatasetConfig::new(4_000, 3, 33)).unwrap();
    let t0 = Timestamp::from_yyyymmdd(20200101).unwrap();
    let p = ds.table.partition(t0).unwrap();
    let d_imp_click = normalized_l1(p.measure(measure::IMPRESSION), p.measure(measure::CLICK));
    let d_imp_cart = normalized_l1(p.measure(measure::IMPRESSION), p.measure(measure::CART));
    assert!(
        d_imp_click < d_imp_cart,
        "imp↔click {d_imp_click} should be below imp↔cart {d_imp_cart}"
    );

    // KCENTER grouping into 2 groups keeps Impression and Click together.
    let mut rng = StdRng::seed_from_u64(0);
    let groups = group_measures(p, &[0, 1, 2, 3], 2, 50_000, &mut rng).unwrap();
    let find = |m: usize| groups.groups.iter().position(|g| g.contains(&m)).unwrap();
    assert_eq!(
        find(measure::IMPRESSION),
        find(measure::CLICK),
        "groups {:?} should keep the funnel neighbours together",
        groups.groups
    );
}

#[test]
fn better_grouping_gives_better_estimates() {
    // Fig. 5's point: grouping similar measures together (low L1 radius)
    // beats grouping dissimilar ones. Compare the auto (KCENTER) grouping
    // against the deliberately bad pairing for the noisiest measure.
    let ds = generate_dataset(&DatasetConfig::new(3_000, 15, 34)).unwrap();
    let table = Arc::new(ds.table);
    let pred = table.compile_predicate(&Predicate::True).unwrap();
    let start = Timestamp::from_yyyymmdd(20200101).unwrap();
    let end = start + 14;
    let rate = 0.01;

    let mean_err = |grouping: GroupingPolicy| {
        let config = EngineConfig {
            sampler: SamplerChoice::ArithmeticGsw,
            grouping,
            layer_rates: vec![rate],
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        let engine = FlashPEngine::with_catalog(table.clone(), config, catalog);
        // Average error across all four measures.
        let mut total = 0.0;
        for m in 0..4 {
            let (exact, _, _) =
                engine.estimate_series(m, &pred, AggFunc::Sum, start, end, 1.0).unwrap();
            let (est, _, _) =
                engine.estimate_series(m, &pred, AggFunc::Sum, start, end, rate).unwrap();
            for (e, x) in est.iter().zip(&exact) {
                total += (e.value - x.value).abs() / x.value;
            }
        }
        total / (4.0 * 15.0)
    };

    // Good: funnel neighbours together. Bad: split the funnel apart.
    let good = mean_err(GroupingPolicy::Explicit(vec![
        vec![measure::IMPRESSION, measure::CLICK],
        vec![measure::FAVORITE, measure::CART],
    ]));
    let bad = mean_err(GroupingPolicy::Explicit(vec![
        vec![measure::IMPRESSION, measure::CART],
        vec![measure::CLICK, measure::FAVORITE],
    ]));
    println!("good grouping err {good}, bad grouping err {bad}");
    // The good grouping should not lose; allow noise slack.
    assert!(good < bad * 1.15, "good {good} vs bad {bad}");
}
