//! SQL surface tests against the engine: options plumbing, error paths,
//! and semantic agreement between SELECT and direct computation.

use flashp::core::{
    EngineConfig, EngineError, ExecOutput, FlashPEngine, SampleCatalog, SamplerChoice, ShardConfig,
    ShardedEngine,
};
use flashp::data::{generate_dataset, DatasetConfig};
use std::sync::Arc;

fn config() -> EngineConfig {
    EngineConfig {
        sampler: SamplerChoice::OptimalGsw,
        layer_rates: vec![0.1],
        default_rate: 0.1,
        table_name: Some("ads".to_string()),
        ..Default::default()
    }
}

fn engine() -> FlashPEngine {
    let ds = generate_dataset(&DatasetConfig::new(1_000, 40, 77)).unwrap();
    let config = config();
    let catalog = SampleCatalog::build(&ds.table, &config).unwrap();
    FlashPEngine::with_catalog(Arc::new(ds.table), config, catalog)
}

#[test]
fn options_control_the_pipeline() {
    let e = engine();
    let base = "FORECAST SUM(Impression) FROM ads WHERE gender = 'F' USING (20200101, 20200209)";
    // FORE_PERIOD.
    let r = e.forecast(&format!("{base} OPTION (MODEL = 'naive', FORE_PERIOD = 3)")).unwrap();
    assert_eq!(r.forecasts.len(), 3);
    // Default horizon is 7.
    let r = e.forecast(&format!("{base} OPTION (MODEL = 'naive')")).unwrap();
    assert_eq!(r.forecasts.len(), 7);
    // CONFIDENCE: wider at 0.99 than 0.5.
    let lo = e.forecast(&format!("{base} OPTION (MODEL = 'naive', CONFIDENCE = 0.5)")).unwrap();
    let hi = e.forecast(&format!("{base} OPTION (MODEL = 'naive', CONFIDENCE = 0.99)")).unwrap();
    assert!(hi.mean_interval_width() > lo.mean_interval_width());
    assert_eq!(hi.confidence, 0.99);
    // MODEL flows into the result name.
    let r = e.forecast(&format!("{base} OPTION (MODEL = 'seasonal_naive(7)')")).unwrap();
    assert_eq!(r.model, "seasonal_naive(7)");
}

#[test]
fn option_validation_errors() {
    let e = engine();
    let base = "FORECAST SUM(Impression) FROM ads USING (20200101, 20200131)";
    for bad in [
        "OPTION (SAMPLE_RATE = 'high')",
        "OPTION (SAMPLE_RATE = 0)",
        "OPTION (MODEL = 7)",
        "OPTION (FORE_PERIOD = 'week')",
        "OPTION (CONFIDENCE = 'high')",
        "OPTION (MODEL = 'unknown_model')",
    ] {
        assert!(e.forecast(&format!("{base} {bad}")).is_err(), "{bad} should fail");
    }
}

/// `OPTION (…)` is a declarative contract: a key the statement kind does
/// not accept (a typo, or an option that no longer exists) or a key given
/// twice is a typed plan-time error naming the key — never silently
/// ignored — on both engines, which plan through the same `Planner`.
#[test]
fn unknown_option_keys_are_rejected_on_both_engines() {
    let single = engine();
    let ds = generate_dataset(&DatasetConfig::new(1_000, 40, 77)).unwrap();
    let sharded =
        ShardedEngine::with_catalogs(&ds.table, config(), ShardConfig::with_shards(2)).unwrap();
    let forecast = "FORECAST SUM(Impression) FROM ads USING (20200101, 20200131)";
    let select = "SELECT SUM(Impression) FROM ads WHERE t = 20200105";
    let cases = [
        (format!("{forecast} OPTION (SAMPL_RATE = 0.01)"), "SAMPL_RATE"),
        (format!("{select} OPTION (SAMPL_RATE = 0.01)"), "SAMPL_RATE"),
        (format!("{forecast} OPTION (MODEL = 'naive', FAST_SUM = 1)"), "FAST_SUM"),
        (format!("{select} OPTION (FAST_SUM = 1)"), "FAST_SUM"),
        (format!("{select} OPTION (MODEL = 'naive')"), "MODEL"),
        (format!("{forecast} OPTION (MODEL = 'naive', NOISE_AWARE = 'yes')"), "NOISE_AWARE"),
        // A repeated key, in any case, is refused rather than keeping one
        // of its values.
        (format!("{forecast} OPTION (MODEL = 'naive', model = 'ets')"), "model"),
        (format!("{select} OPTION (SAMPLE_RATE = 1.0, SAMPLE_RATE = 0.1)"), "SAMPLE_RATE"),
    ];
    for (sql, key) in &cases {
        let errors = [
            ("single execute", single.execute(sql).err()),
            ("single prepare", single.prepare(sql).err()),
            ("sharded execute", sharded.execute(sql).err()),
            ("sharded prepare", sharded.prepare(sql).err()),
        ];
        for (path, err) in errors {
            match err {
                Some(EngineError::Config(msg)) => {
                    assert!(msg.contains(key), "{path}: {sql}: message {msg:?} must name {key}")
                }
                other => panic!("{path}: {sql}: expected a Config error, got {other:?}"),
            }
        }
    }
    // Accepted keys still plan, case-insensitively.
    for sql in [
        format!("{forecast} OPTION (model = 'naive', NOISE_AWARE = 1, confidence = 0.8)"),
        format!("{select} OPTION (sample_rate = 1.0)"),
    ] {
        single.execute(&sql).unwrap();
        sharded.execute(&sql).unwrap();
    }
}

#[test]
fn unknown_names_error_cleanly() {
    let e = engine();
    assert!(e.forecast("FORECAST SUM(Impression) FROM typo USING (20200101, 20200131)").is_err());
    assert!(e.forecast("FORECAST SUM(Revenue) FROM ads USING (20200101, 20200131)").is_err());
    assert!(e
        .forecast("FORECAST SUM(Impression) FROM ads WHERE nocolumn = 1 USING (20200101, 20200131)")
        .is_err());
    // Range predicate on a categorical column.
    assert!(e
        .forecast("FORECAST SUM(Impression) FROM ads WHERE gender < 'F' USING (20200101, 20200131)")
        .is_err());
}

#[test]
fn execute_round_trips_statement_kinds() {
    let e = engine();
    let out = e.execute("SELECT COUNT(*) FROM ads WHERE t = 20200102").unwrap();
    match out {
        ExecOutput::Select(s) => {
            assert_eq!(s.rows.len(), 1);
            assert!(s.rows[0].1 > 0.0);
        }
        _ => panic!("expected select"),
    }
    let out = e
        .execute("FORECAST AVG(Click) FROM ads USING (20200101, 20200131) OPTION (MODEL = 'naive')")
        .unwrap();
    match out {
        ExecOutput::Forecast(f) => assert_eq!(f.forecasts.len(), 7),
        _ => panic!("expected forecast"),
    }
}

#[test]
fn select_semantics_match_manual_aggregation() {
    let e = engine();
    // Manual: sum over three specific days of female impressions.
    let pred = e.table().compile_predicate(&flashp::storage::Predicate::eq("gender", "F")).unwrap();
    let mut manual = 0.0;
    for d in 0..3 {
        let t = flashp::storage::Timestamp::from_yyyymmdd(20200105).unwrap() + d;
        manual += e.table().aggregate_at(t, 0, &pred, flashp::storage::AggFunc::Sum).unwrap();
    }
    let sql = e
        .select(
            "SELECT SUM(Impression) FROM ads \
             WHERE gender = 'F' AND t BETWEEN 20200105 AND 20200107",
        )
        .unwrap();
    assert!((sql.rows[0].1 - manual).abs() < 1e-9);

    // AVG across a range = total sum / total count.
    let avg = e
        .select(
            "SELECT AVG(Impression) FROM ads \
             WHERE gender = 'F' AND t BETWEEN 20200105 AND 20200107",
        )
        .unwrap();
    let count = e
        .select(
            "SELECT COUNT(*) FROM ads \
             WHERE gender = 'F' AND t BETWEEN 20200105 AND 20200107",
        )
        .unwrap();
    assert!((avg.rows[0].1 - manual / count.rows[0].1).abs() < 1e-9);
}

#[test]
fn figure2_style_rewrite_equivalence() {
    // The FORECAST training series must equal the per-day SELECT answers —
    // the rewrite of Fig. 2 / Eq. (4).
    let e = engine();
    let r = e
        .forecast(
            "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
             USING (20200110, 20200119) OPTION (MODEL = 'naive', SAMPLE_RATE = 1.0)",
        )
        .unwrap();
    for point in &r.estimates {
        let day = point.t.to_yyyymmdd();
        let s = e
            .select(&format!(
                "SELECT SUM(Impression) FROM ads \
                 WHERE age <= 30 AND gender = 'F' AND t = {day}"
            ))
            .unwrap();
        assert!(
            (s.rows[0].1 - point.value).abs() < 1e-9,
            "day {day}: select {} vs forecast estimate {}",
            s.rows[0].1,
            point.value
        );
    }
}
