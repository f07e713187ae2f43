//! Lifecycle tests for the staged query pipeline:
//! parse → plan → prepare → execute, plus EXPLAIN and the plan cache.
//!
//! The invariants under test: preparing a statement changes *when* work
//! happens, never *what* is computed — prepared re-execution, `?`
//! rebinding, and plan-cache hits are all bit-identical to fresh one-shot
//! execution — and EXPLAIN describes exactly what the executor then does.

use flashp::core::{
    EngineConfig, EngineError, ExecOutput, FlashPEngine, IngestBatch, Literal, SampleCatalog,
    SamplerChoice,
};
use flashp::data::{generate_dataset, BatchStream, DatasetConfig, StreamConfig};
use flashp::storage::KernelTier;
use std::sync::Arc;

fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig::new(800, 45, seed)
}

fn engine_for(sampler: SamplerChoice, seed: u64) -> FlashPEngine {
    let ds = generate_dataset(&dataset_config(seed)).unwrap();
    let config = EngineConfig {
        sampler,
        layer_rates: vec![0.2, 0.05],
        default_rate: 0.05,
        ..Default::default()
    };
    let catalog = SampleCatalog::build(&ds.table, &config).unwrap();
    FlashPEngine::with_catalog(ds.table, config, catalog)
}

const FORECAST: &str = "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
     USING (20200101, 20200210) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)";

/// Every statement shape the language supports, including the quickstart
/// statement of the forecast_roundtrip corpus (crates/query/tests).
const CORPUS: &[&str] = &[
    "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
     USING (20200101, 20200229) OPTION (MODEL = 'arima', FORE_PERIOD = 7)",
    "FORECAST AVG(Click) FROM ads WHERE age = 1 USING (20200101, 20200131) \
     OPTION (MODEL = 'ets', FORE_PERIOD = 3, SAMPLE_RATE = 0.05)",
    "FORECAST COUNT(*) FROM ads USING (20200101, 20200131) \
     OPTION (MODEL = 'naive', SAMPLE_RATE = 1.0)",
    "SELECT SUM(Impression) FROM ads WHERE age <= 30 AND t = 20200105",
    "SELECT COUNT(Click) FROM ads WHERE age <= 30 GROUP BY t",
    "SELECT SUM(Impression) FROM ads WHERE t BETWEEN 20200101 AND 20200107 \
     GROUP BY t OPTION (SAMPLE_RATE = 0.05)",
];

#[test]
fn prepared_reexecution_is_bit_identical_across_samplers_and_seeds() {
    for sampler in [SamplerChoice::Uniform, SamplerChoice::OptimalGsw, SamplerChoice::Priority] {
        for seed in [7u64, 4242] {
            let label = format!("{sampler:?}/seed {seed}");
            let engine = engine_for(sampler.clone(), seed);
            let one_shot = engine.forecast(FORECAST).unwrap();
            let prepared = engine.prepare(FORECAST).unwrap();
            for round in 0..3 {
                let r = prepared.forecast_with(&[]).unwrap();
                assert_eq!(
                    r.estimate_values(),
                    one_shot.estimate_values(),
                    "{label}: estimates diverged on round {round}"
                );
                assert_eq!(
                    r.forecast_values(),
                    one_shot.forecast_values(),
                    "{label}: forecasts diverged on round {round}"
                );
                assert_eq!(r.sampler, one_shot.sampler, "{label}");
                assert_eq!(r.rate_used, one_shot.rate_used, "{label}");
            }
        }
    }
}

#[test]
fn parameter_rebinding_matches_fresh_parse() {
    let engine = engine_for(SamplerChoice::OptimalGsw, 99);
    let template = engine
        .prepare(
            "FORECAST SUM(Impression) FROM ads WHERE age <= ? AND gender = ? \
             USING (20200101, 20200210) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
        )
        .unwrap();
    assert_eq!(template.num_params(), 2);
    for (age, gender) in [(20i64, "F"), (35, "M"), (50, "F")] {
        let bound =
            template.forecast_with(&[Literal::Int(age), Literal::Str(gender.to_string())]).unwrap();
        let fresh = engine
            .forecast(&format!(
                "FORECAST SUM(Impression) FROM ads WHERE age <= {age} AND gender = '{gender}' \
                 USING (20200101, 20200210) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)"
            ))
            .unwrap();
        assert_eq!(bound.estimate_values(), fresh.estimate_values(), "age {age} {gender}");
        assert_eq!(bound.forecast_values(), fresh.forecast_values(), "age {age} {gender}");
    }
    // Parameterized SELECT templates rebind too.
    let select =
        engine.prepare("SELECT SUM(Impression) FROM ads WHERE age <= ? AND t = 20200105").unwrap();
    for age in [20i64, 40] {
        let bound = select.select_with(&[Literal::Int(age)]).unwrap();
        let fresh = engine
            .select(&format!("SELECT SUM(Impression) FROM ads WHERE age <= {age} AND t = 20200105"))
            .unwrap();
        assert_eq!(bound, fresh, "age {age}");
    }
}

/// Tentpole acceptance oracle: ONE prepared `USING (?, ?)` handle,
/// re-bound across many distinct ranges, must be bit-identical to a
/// fresh one-shot parse of each literal statement — and keep being so
/// after an ingest + publish swaps the catalog version under it (the
/// handle re-plans and re-selects its layer per binding, never serving a
/// stale clamp or stale est_rows).
#[test]
fn rebound_using_ranges_match_fresh_parses_across_a_publish() {
    let seed = 31;
    let engine = engine_for(SamplerChoice::OptimalGsw, seed);
    let template = engine
        .prepare(
            "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
             USING (?, ?) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
        )
        .unwrap();
    assert_eq!(template.num_params(), 2);

    let check = |lo: i64, hi: i64, label: &str| {
        let bound = template.forecast_with(&[Literal::Int(lo), Literal::Int(hi)]).unwrap();
        let fresh = engine
            .forecast(&format!(
                "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
                 USING ({lo}, {hi}) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)"
            ))
            .unwrap();
        assert_eq!(bound.estimate_values(), fresh.estimate_values(), "{label}: {lo}..{hi}");
        assert_eq!(bound.forecast_values(), fresh.forecast_values(), "{label}: {lo}..{hi}");
        assert_eq!(bound.sampler, fresh.sampler, "{label}: {lo}..{hi}");
        assert_eq!(bound.rate_used, fresh.rate_used, "{label}: {lo}..{hi}");
    };

    // ≥ 3 distinct ranges before the publish.
    let ranges = [(20200101, 20200210), (20200108, 20200131), (20200105, 20200214)];
    for (lo, hi) in ranges {
        check(lo, hi, "v0");
    }

    // Ingest + publish: two more days continuing the dataset timeline.
    let mut stream = BatchStream::continuing(&dataset_config(seed), StreamConfig::new(400, 77));
    let mut batch = IngestBatch::new();
    for _ in 0..2 {
        let b = stream.next().unwrap();
        batch.push_partition(b.t, b.partition);
    }
    engine.ingest(batch).unwrap();
    engine.publish().unwrap();

    // Same handle, same ranges, new version — still bit-identical, and a
    // range covering the freshly published days works too.
    for (lo, hi) in ranges {
        check(lo, hi, "v1");
    }
    check(20200110, 20200216, "v1 extended into published days");

    // EXPLAIN for a binding names the exact plan the literal statement
    // gets: same clamped range, layer, rate and estimated rows.
    let bound = template.explain_with(&[Literal::Int(20200101), Literal::Int(20200210)]).unwrap();
    let literal = engine
        .explain(
            "FORECAST SUM(Impression) FROM ads WHERE age <= 30 AND gender = 'F' \
             USING (20200101, 20200210) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
        )
        .unwrap();
    assert_eq!(bound, literal, "bound EXPLAIN must equal the literal statement's EXPLAIN");
}

/// `USING LAST n DAYS` anchors at the table's newest day per binding:
/// bit-identical to the absolute statement for the same trailing window,
/// and the window moves when a publish appends days — no client-side date
/// math, no re-prepare.
#[test]
fn last_days_window_tracks_publishes() {
    let seed = 63;
    let engine = engine_for(SamplerChoice::OptimalGsw, seed);
    const OPTS: &str = "OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)";
    let relative = engine
        .prepare(&format!(
            "FORECAST SUM(Impression) FROM ads WHERE age <= 30 USING LAST 20 DAYS {OPTS}"
        ))
        .unwrap();
    assert_eq!(relative.num_params(), 0, "a literal day count needs no parameters");

    // Dataset timeline: 45 days from 20200101, newest = 20200214.
    let check = |lo: i64, hi: i64, got: &flashp::core::ForecastResult, label: &str| {
        let fresh = engine
            .forecast(&format!(
                "FORECAST SUM(Impression) FROM ads WHERE age <= 30 USING ({lo}, {hi}) {OPTS}"
            ))
            .unwrap();
        assert_eq!(got.estimate_values(), fresh.estimate_values(), "{label}");
        assert_eq!(got.forecast_values(), fresh.forecast_values(), "{label}");
        assert_eq!(got.rate_used, fresh.rate_used, "{label}");
    };
    let before = relative.forecast_with(&[]).unwrap();
    check(20200126, 20200214, &before, "v0: trailing 20 days");

    // EXPLAIN renders the relative form, not a baked-in range.
    let node = engine
        .explain(&format!("FORECAST SUM(Impression) FROM ads USING LAST 20 DAYS {OPTS}"))
        .unwrap();
    assert_eq!(node.find_prop("range"), Some("dynamic"));
    assert_eq!(node.find_prop("window"), Some("last 20 days"));

    // Publish two more days: the same handle's window slides forward.
    let mut stream = BatchStream::continuing(&dataset_config(seed), StreamConfig::new(400, 21));
    let mut batch = IngestBatch::new();
    for _ in 0..2 {
        let b = stream.next().unwrap();
        batch.push_partition(b.t, b.partition);
    }
    engine.ingest(batch).unwrap();
    engine.publish().unwrap();
    let after = relative.forecast_with(&[]).unwrap();
    check(20200128, 20200216, &after, "v1: window slid with the publish");
    assert_ne!(
        before.estimate_values(),
        after.estimate_values(),
        "the trailing window must move when days are published"
    );

    // Parameterized day count: one handle, any dashboard width.
    let param = engine
        .prepare(&format!(
            "FORECAST SUM(Impression) FROM ads WHERE age <= 30 USING LAST ? DAYS {OPTS}"
        ))
        .unwrap();
    assert_eq!(param.num_params(), 1);
    let twenty = param.forecast_with(&[Literal::Int(20)]).unwrap();
    assert_eq!(twenty.estimate_values(), after.estimate_values(), "LAST ? DAYS bound to 20");
    let narrower = param.forecast_with(&[Literal::Int(18)]).unwrap();
    check(20200130, 20200216, &narrower, "v1: trailing 18 days");
    // A count longer than the table clamps to the whole table.
    let all = param.forecast_with(&[Literal::Int(100_000)]).unwrap();
    check(20200101, 20200216, &all, "v1: oversized count = whole table");
    // Invalid day counts are typed bind-time errors naming the parameter.
    let err = param.forecast_with(&[Literal::Int(0)]).unwrap_err();
    assert!(matches!(&err, EngineError::Parameter(m) if m.contains("?0")), "{err}");
    assert!(matches!(
        param.forecast_with(&[Literal::Str("week".into())]),
        Err(EngineError::Parameter(_))
    ));
}

/// The same prepared dynamic-range handle serves concurrent re-binders
/// while ingest + publish swaps versions under it: every thread's answer
/// for a range must equal a fresh one-shot of the literal statement
/// against whatever version it snapshotted.
#[test]
fn concurrent_rebinding_survives_publish_swaps() {
    let seed = 57;
    let engine = engine_for(SamplerChoice::OptimalGsw, seed);
    let template = Arc::new(
        engine
            .prepare(
                "FORECAST SUM(Impression) FROM ads WHERE age <= ? USING (?, ?) \
                 OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
            )
            .unwrap(),
    );
    assert_eq!(template.num_params(), 3);
    let ranges: &[(i64, i64, i64)] =
        &[(30, 20200101, 20200210), (40, 20200105, 20200131), (25, 20200110, 20200214)];

    let mut stream = BatchStream::continuing(&dataset_config(seed), StreamConfig::new(200, 13));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let template = template.clone();
            let engine = &engine;
            scope.spawn(move || {
                for round in 0..4 {
                    for &(age, lo, hi) in ranges {
                        let bound = template
                            .forecast_with(&[Literal::Int(age), Literal::Int(lo), Literal::Int(hi)])
                            .unwrap();
                        // One-shot against the engine's *current* version;
                        // both paths snapshot, and versions only move
                        // between executions, so values must come from
                        // one published version — re-run once to absorb a
                        // swap racing between the two calls.
                        let fresh_sql = format!(
                            "FORECAST SUM(Impression) FROM ads WHERE age <= {age} \
                             USING ({lo}, {hi}) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)"
                        );
                        let fresh = engine.forecast(&fresh_sql).unwrap();
                        if bound.estimate_values() != fresh.estimate_values() {
                            let again = template
                                .forecast_with(&[
                                    Literal::Int(age),
                                    Literal::Int(lo),
                                    Literal::Int(hi),
                                ])
                                .unwrap();
                            let fresh_again = engine.forecast(&fresh_sql).unwrap();
                            assert_eq!(
                                again.estimate_values(),
                                fresh_again.estimate_values(),
                                "round {round}: rebound diverged from fresh parse even \
                                 without a racing publish"
                            );
                        }
                    }
                }
            });
        }
        // Publisher: two ingest+publish swaps while the binders run.
        for _ in 0..2 {
            let b = stream.next().unwrap();
            let mut batch = IngestBatch::new();
            batch.push_partition(b.t, b.partition);
            engine.ingest(batch).unwrap();
            engine.publish().unwrap();
        }
    });
}

/// EXPLAIN of a parameterized range shows the deferred form; binding it
/// through a prepared handle shows the concrete per-binding choice.
#[test]
fn explain_renders_dynamic_ranges() {
    let engine = engine_for(SamplerChoice::OptimalGsw, 3);
    let sql = "FORECAST SUM(Impression) FROM ads WHERE age <= ? USING (?, ?) \
               OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)";
    let node = engine.explain(sql).unwrap();
    assert_eq!(node.find_prop("range"), Some("dynamic"));
    assert_eq!(node.find_prop("window"), Some("?1..?2"));
    let deferred = node.find("BindTimeSource").expect("dynamic plan defers its source");
    assert_eq!(deferred.prop("selection"), Some("deferred"));

    let template = engine.prepare(sql).unwrap();
    let bound = template
        .explain_with(&[Literal::Int(30), Literal::Int(20200101), Literal::Int(20200210)])
        .unwrap();
    assert_eq!(bound.find_prop("range"), Some("20200101..20200210"));
    let est = bound.find("SampleEstimate").expect("bound plan names its layer");
    assert!(est.prop("rationale").is_some());
    assert!(est.prop("est_rows").unwrap().parse::<usize>().unwrap() > 0);
}

#[test]
fn parameter_arity_is_enforced() {
    let engine = engine_for(SamplerChoice::Uniform, 1);
    let template =
        engine.prepare("SELECT SUM(Impression) FROM ads WHERE age <= ? AND t = 20200105").unwrap();
    assert!(matches!(template.select_with(&[]), Err(EngineError::Parameter(_))));
    assert!(matches!(
        template.select_with(&[Literal::Int(1), Literal::Int(2)]),
        Err(EngineError::Parameter(_))
    ));
    // One-shot APIs refuse parameterized statements outright.
    assert!(engine.select("SELECT SUM(Impression) FROM ads WHERE age <= ?").is_err());
}

#[test]
fn plan_cache_hits_return_identical_results() {
    let engine = engine_for(SamplerChoice::OptimalGsw, 11);
    let first = engine.forecast(FORECAST).unwrap();
    let miss_stats = engine.plan_cache_stats();
    assert!(miss_stats.misses > 0);
    // Re-issue with scrambled whitespace: normalization makes it a hit.
    let respaced = FORECAST.replace(' ', "   ");
    let second = engine.forecast(&respaced).unwrap();
    let hit_stats = engine.plan_cache_stats();
    assert!(hit_stats.hits > miss_stats.hits, "whitespace variant should hit the cache");
    assert_eq!(first.estimate_values(), second.estimate_values());
    assert_eq!(first.forecast_values(), second.forecast_values());
    // A cloned handle shares the cache and gets the same answer.
    let clone = engine.clone();
    let third = clone.forecast(FORECAST).unwrap();
    assert!(clone.plan_cache_stats().hits > hit_stats.hits);
    assert_eq!(first.forecast_values(), third.forecast_values());
}

#[test]
fn explain_round_trips_for_the_corpus() {
    let engine = engine_for(SamplerChoice::OptimalGsw, 3);
    for sql in CORPUS {
        // Textual round-trip: EXPLAIN <stmt> parses, displays, re-parses.
        let explain_sql = format!("EXPLAIN {sql}");
        let parsed = flashp::query::parse(&explain_sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(matches!(parsed, flashp::query::Statement::Explain(_)));
        let reparsed = flashp::query::parse(&parsed.to_string()).unwrap();
        assert_eq!(parsed, reparsed, "EXPLAIN display must re-parse: {sql}");

        // Engine round-trip: the rendered plan parses back as a tree with
        // a scan source, and executing the EXPLAIN never runs the query.
        let node = engine.explain(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let source = node
            .find("SampleEstimate")
            .or_else(|| node.find("FullScan"))
            .unwrap_or_else(|| panic!("{sql}: plan has no scan source:\n{node}"));
        assert!(source.prop("est_rows").unwrap().parse::<usize>().is_ok());
        // Every scan source names the dispatched scan-kernel tier.
        let simd = source.prop("simd").unwrap_or_else(|| panic!("{sql}: no simd prop:\n{node}"));
        assert!(
            KernelTier::ALL.map(KernelTier::name).contains(&simd),
            "{sql}: unknown tier {simd}"
        );
        match engine.execute(&explain_sql).unwrap() {
            ExecOutput::Plan(executed) => assert_eq!(executed, node, "{sql}"),
            other => panic!("{sql}: EXPLAIN produced {other:?}"),
        }
    }
}

#[test]
fn explain_names_what_the_executor_uses() {
    // Acceptance: EXPLAIN on a sampled FORECAST names the layer, rate and
    // sampler that the executor then actually uses.
    for sampler in [SamplerChoice::Uniform, SamplerChoice::OptimalGsw] {
        let engine = engine_for(sampler, 17);
        let node = engine.explain(FORECAST).unwrap();
        let est = node.find("SampleEstimate").expect("sampled forecast must use a layer");
        let planned_sampler = est.prop("sampler").unwrap().to_string();
        let planned_rate: f64 = est.prop("rate").unwrap().parse().unwrap();
        let planned_layer: usize = est.prop("layer").unwrap().parse().unwrap();

        let result = engine.forecast(FORECAST).unwrap();
        assert_eq!(result.sampler, planned_sampler, "executor used a different sampler");
        assert_eq!(result.rate_used, planned_rate, "executor used a different rate");
        // The planned layer is the one select_layer picks for this rate.
        assert_eq!(planned_layer, 1, "rate 0.05 is served by the second (sparser) layer");
    }
}

#[test]
fn prepared_queries_share_one_engine_across_threads() {
    let engine = engine_for(SamplerChoice::OptimalGsw, 23);
    let prepared = Arc::new(
        engine
            .prepare(
                "FORECAST SUM(Impression) FROM ads WHERE age <= ? \
                 USING (20200101, 20200210) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
            )
            .unwrap(),
    );
    let ages: Vec<i64> = vec![20, 30, 40, 50];
    let reference: Vec<Vec<f64>> = ages
        .iter()
        .map(|&a| prepared.forecast_with(&[Literal::Int(a)]).unwrap().forecast_values())
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let prepared = prepared.clone();
            let ages = &ages;
            let reference = &reference;
            scope.spawn(move || {
                for (i, &a) in ages.iter().enumerate() {
                    let r = prepared.forecast_with(&[Literal::Int(a)]).unwrap();
                    assert_eq!(r.forecast_values(), reference[i]);
                }
            });
        }
    });
}

/// A `Float64` dimension column works end-to-end: schema, ingest, float
/// literals in SQL, NaN-exact predicate semantics, EXPLAIN rendering.
#[test]
fn float64_dimension_columns_flow_end_to_end() {
    use flashp::storage::{DataType, Schema, TimeSeriesTable, Timestamp, Value};
    let schema =
        Schema::from_names(&[("score", DataType::Float64), ("seg", DataType::UInt8)], &["m"])
            .unwrap()
            .into_shared();
    let mut table = TimeSeriesTable::new(schema);
    let start = Timestamp::from_yyyymmdd(20200101).unwrap();
    for day in 0..3i64 {
        for row in 0..64i64 {
            // Row 7 is NaN: matched by <> only, never by ordered compares.
            let score = if row == 7 { f64::NAN } else { row as f64 / 8.0 };
            table
                .append_row(start + day, &[Value::Float(score), Value::Int(row % 4)], &[1.0])
                .unwrap();
        }
    }
    let engine = FlashPEngine::new(table, EngineConfig::default());

    // score < 0.5 ⇔ row/8 < 0.5 ⇔ rows 0..4 (the NaN row never matches).
    let r = engine.select("SELECT COUNT(*) FROM T WHERE score < 0.5 AND t = 20200101").unwrap();
    assert_eq!(r.rows[0].1, 4.0);
    // <> is NaN-inclusive: everything except the single 0.5 row matches.
    let r = engine.select("SELECT COUNT(*) FROM T WHERE score <> 0.5 AND t = 20200101").unwrap();
    assert_eq!(r.rows[0].1, 63.0);
    // Mixed float/int predicate, over all three days.
    let r = engine.select("SELECT COUNT(*) FROM T WHERE score >= 6.0 AND seg = 1").unwrap();
    assert_eq!(r.rows[0].1, 3.0 * 4.0);
    // An integer literal promotes against a Float64 column.
    let r = engine.select("SELECT COUNT(*) FROM T WHERE score >= 6 AND seg = 1").unwrap();
    assert_eq!(r.rows[0].1, 12.0);
    // EXPLAIN renders the folded float comparison with the decimal point.
    let node = engine.explain("SELECT SUM(m) FROM T WHERE score < 0.5 AND t = 20200101").unwrap();
    assert_eq!(node.find("Predicate").unwrap().prop("folded"), Some("score < 0.5"));
    // IN on a float column is a typed error, not a silent wrong answer.
    let err = engine.select("SELECT COUNT(*) FROM T WHERE score IN (0.5) AND t = 20200101");
    assert!(err.is_err());
}

/// Re-runs this test in a subprocess once per supported `FLASHP_KERNEL_TIER`
/// pin: the pinned tier must become the active tier, EXPLAIN must report
/// it, and an exact-scan answer must be bit-identical across every tier.
#[test]
fn pinned_kernel_tiers_report_in_explain_and_agree() {
    const CHILD_VAR: &str = "FLASHP_TIER_TEST_CHILD";
    const QUERY: &str = "SELECT SUM(Impression) FROM ads WHERE age <= 30 AND t = 20200105";
    if let Ok(expected) = std::env::var(CHILD_VAR) {
        assert_eq!(flashp::storage::simd::active_tier().name(), expected, "pin was not honored");
        let engine = engine_for(SamplerChoice::OptimalGsw, 3);
        let node = engine.explain(QUERY).unwrap();
        assert_eq!(node.find("FullScan").unwrap().prop("simd"), Some(expected.as_str()));
        let r = engine.select(QUERY).unwrap();
        println!("TIER_RESULT {}", r.rows[0].1.to_bits());
        return;
    }
    // Every tier at or below the auto-detected one is supported here;
    // `ALL` is best first, so walk it from the portable end.
    let order: Vec<&str> = KernelTier::ALL.iter().rev().map(|t| t.name()).collect();
    let active = flashp::storage::simd::active_tier().name();
    let best = order.iter().position(|t| *t == active).expect("active tier is a known name");
    let exe = std::env::current_exe().unwrap();
    let mut results = Vec::new();
    for tier in &order[..=best] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "pinned_kernel_tiers_report_in_explain_and_agree", "--nocapture"])
            .env(CHILD_VAR, tier)
            .env("FLASHP_KERNEL_TIER", tier)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "tier {tier} child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The harness may print its own "test … ." prefix on the same
        // line, so search within lines rather than anchoring at the start.
        let bits: u64 = stdout
            .lines()
            .find_map(|l| l.split("TIER_RESULT ").nth(1))
            .unwrap_or_else(|| panic!("tier {tier}: no result line in\n{stdout}"))
            .trim()
            .parse()
            .unwrap();
        results.push((tier, bits));
    }
    let (_, first) = results[0];
    for (tier, bits) in &results {
        assert_eq!(*bits, first, "tier {tier} disagrees with {}", results[0].0);
    }
}

#[test]
fn approximate_select_surfaces_std_err() {
    let engine = engine_for(SamplerChoice::OptimalGsw, 5);
    let exact = engine
        .select("SELECT SUM(Impression) FROM ads WHERE t BETWEEN 20200101 AND 20200105 GROUP BY t")
        .unwrap();
    assert!(!exact.approximate);
    assert!(exact.rows.iter().all(|(_, _, se)| se.is_none()));
    let approx = engine
        .select(
            "SELECT SUM(Impression) FROM ads WHERE t BETWEEN 20200101 AND 20200105 \
             GROUP BY t OPTION (SAMPLE_RATE = 0.05)",
        )
        .unwrap();
    assert!(approx.approximate);
    assert_eq!(approx.rows.len(), exact.rows.len());
    for ((t_e, v_e, _), (t_a, v_a, se)) in exact.rows.iter().zip(&approx.rows) {
        assert_eq!(t_e, t_a);
        let se = se.expect("approximate SUM rows carry a standard error");
        assert!(se > 0.0);
        // The estimate should be within a few standard errors of truth.
        assert!((v_a - v_e).abs() < 6.0 * se, "estimate {v_a} too far from exact {v_e} (se {se})");
    }
}
