//! The day-partial cache oracle suite — the headline contract of the
//! versioned partial cache.
//!
//! The cache memoizes per-day sample partials (`EstimateComponents`) and
//! exact per-partition aggregate states keyed on the **identity** of the
//! catalog cell / partition that produced them. The contract under test:
//! caching changes *when* work happens, never *what* is computed —
//! every answer served warm must be **bit-for-bit identical** to the
//! cache-disabled engine's answer, across `USING (?, ?)` re-bindings,
//! ingest→publish version swaps, shard counts, and the exact
//! (full-scan) path.
//!
//! Counter assertions (hits/misses actually moving) are guarded by
//! [`cache_active`]: the CI matrix re-runs this suite with
//! `FLASHP_NO_PARTIAL_CACHE=1`, where the bit-equality oracle still
//! holds but no cache exists to count against.

use flashp_core::{
    EngineConfig, EngineError, FlashPEngine, ForecastResult, IngestBatch, Literal, SampleCatalog,
    SamplerChoice, SelectResult, ShardConfig, ShardedEngine,
};
use flashp_data::{generate_dataset, DatasetConfig};
use flashp_sampling::{estimate_components_with, EstimateComponents, SamplingError};
use flashp_storage::{
    aggregate_states_range, AggFunc, AggState, CmpOp, DataType, MaskScratch, Predicate,
    ScanOptions, Schema, StorageError, TimeSeriesTable, Timestamp, Value,
};
use std::sync::Arc;

const FORECAST_TEMPLATE: &str = "FORECAST SUM(Impression) FROM ads \
     WHERE age <= 30 AND gender = 'F' USING (?, ?) \
     OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5, SAMPLE_RATE = 0.2)";

const SELECT_TEMPLATE: &str = "SELECT SUM(Click) FROM ads WHERE age <= 40 AND t BETWEEN ? AND ? \
     GROUP BY t OPTION (SAMPLE_RATE = 0.2)";

/// Overlapping re-bindings: the second and third windows share most of
/// their days with the first, so a working cache serves them mostly warm.
const WINDOWS: [(i64, i64); 3] = [(20200101, 20200125), (20200105, 20200128), (20200103, 20200126)];

/// Whether the engine-level cache can actually be observed: the config
/// default enables it, but the `FLASHP_NO_PARTIAL_CACHE` kill switch
/// (used by the CI cache-disabled job) overrides the config.
fn cache_active() -> bool {
    !std::env::var("FLASHP_NO_PARTIAL_CACHE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn config(partial_cache: bool) -> EngineConfig {
    EngineConfig {
        sampler: SamplerChoice::OptimalGsw,
        layer_rates: vec![0.2, 0.05],
        default_rate: 0.05,
        partial_cache,
        ..Default::default()
    }
}

fn table(seed: u64) -> TimeSeriesTable {
    generate_dataset(&DatasetConfig::new(400, 30, seed)).unwrap().table
}

/// An engine over the 30-day ads dataset. Catalog construction is
/// deterministic in `(table, config)`, so two engines built from the
/// same seed answer bit-identically — the cache-off engine is a valid
/// oracle for the cache-on engine.
fn engine(seed: u64, partial_cache: bool) -> FlashPEngine {
    let table = table(seed);
    let config = config(partial_cache);
    let catalog = SampleCatalog::build(&table, &config).unwrap();
    FlashPEngine::with_catalog(table, config, catalog)
}

fn assert_forecast_bits_eq(a: &ForecastResult, b: &ForecastResult, label: &str) {
    assert_eq!(a.sampler, b.sampler, "{label}: sampler");
    assert_eq!(a.rate_used.to_bits(), b.rate_used.to_bits(), "{label}: rate_used");
    assert_eq!(a.sigma2.to_bits(), b.sigma2.to_bits(), "{label}: sigma2");
    assert_eq!(a.estimates.len(), b.estimates.len(), "{label}: estimate count");
    for (pa, pb) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!(pa.t, pb.t, "{label}: estimate timestamp");
        assert_eq!(pa.value.to_bits(), pb.value.to_bits(), "{label}: estimate at {}", pa.t);
        assert_eq!(
            pa.variance.map(f64::to_bits),
            pb.variance.map(f64::to_bits),
            "{label}: variance at {}",
            pa.t
        );
    }
    assert_eq!(a.forecasts.len(), b.forecasts.len(), "{label}: forecast count");
    for (pa, pb) in a.forecasts.iter().zip(&b.forecasts) {
        for (va, vb, field) in
            [(pa.value, pb.value, "value"), (pa.lo, pb.lo, "lo"), (pa.hi, pb.hi, "hi")]
        {
            assert_eq!(va.to_bits(), vb.to_bits(), "{label}: forecast {field} at {}", pa.t);
        }
    }
}

fn assert_select_bits_eq(a: &SelectResult, b: &SelectResult, label: &str) {
    assert_eq!(a.approximate, b.approximate, "{label}: approximate flag");
    assert_eq!(a.rows.len(), b.rows.len(), "{label}: row count");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.0, rb.0, "{label}: timestamp");
        assert_eq!(ra.1.to_bits(), rb.1.to_bits(), "{label}: value at {}", ra.0);
        assert_eq!(ra.2.map(f64::to_bits), rb.2.map(f64::to_bits), "{label}: std_err at {}", ra.0);
    }
}

/// Cold and warm executions of re-bound windows are bit-identical to the
/// cache-disabled oracle engine — FORECAST and SELECT, every window run
/// twice so the second pass is served from memoized day partials.
#[test]
fn warm_rebindings_match_the_uncached_oracle_bit_for_bit() {
    let cached = engine(17, true);
    let oracle = engine(17, false);
    let f = cached.prepare(FORECAST_TEMPLATE).unwrap();
    let s = cached.prepare(SELECT_TEMPLATE).unwrap();
    let f_oracle = oracle.prepare(FORECAST_TEMPLATE).unwrap();
    let s_oracle = oracle.prepare(SELECT_TEMPLATE).unwrap();

    for (round, temp) in ["cold", "warm"].into_iter().enumerate() {
        for (lo, hi) in WINDOWS {
            let label = format!("{temp} USING ({lo}, {hi})");
            let params = [Literal::Int(lo), Literal::Int(hi)];
            let want_f = f_oracle.forecast_with(&params).unwrap();
            let want_s = s_oracle.select_with(&params).unwrap();
            assert_forecast_bits_eq(&want_f, &f.forecast_with(&params).unwrap(), &label);
            assert_select_bits_eq(&want_s, &s.select_with(&params).unwrap(), &label);
        }
        if round == 0 && cache_active() {
            let stats = cached.partial_cache_stats().expect("cache on");
            assert!(stats.misses > 0, "cold pass must populate the cache: {stats:?}");
        }
    }
    if cache_active() {
        let stats = cached.partial_cache_stats().expect("cache on");
        assert!(stats.hits > 0, "warm pass must be served from the cache: {stats:?}");
        assert!(cached.stats().partial_cache.is_some(), "EngineStats must surface the cache");
    } else {
        assert_eq!(cached.partial_cache_stats(), None, "kill switch must disable the cache");
    }
    assert_eq!(oracle.partial_cache_stats(), None, "config off must disable the cache");
}

/// One synthetic ads row for the generated schema (11 dims, 4 measures).
fn ads_row(batch: &mut IngestBatch, t: i64, row: i64) {
    let dims = [
        Value::Int(20 + (row % 40)),
        Value::Str(if row % 2 == 0 { "F" } else { "M" }.to_string()),
        Value::Str(format!("city_{:02}", row % 20)),
        Value::Str("mobile".to_string()),
        Value::Str("ios".to_string()),
        Value::Int(row % 5),
        Value::Int(row % 3),
        Value::Int(row % 7),
        Value::Str("search".to_string()),
        Value::Int(row % 4),
        Value::Int(row % 2),
    ];
    let measures = [150.0 + row as f64, 12.0 + (row % 9) as f64, 3.0, 1.0];
    let t = flashp_storage::Timestamp::from_yyyymmdd(t).unwrap();
    batch.push_row(t, &dims, &measures);
}

/// Publish invalidation is structural and exact: growing one day inside
/// the window gives that day's cells fresh identities while every
/// untouched day keeps its Arc-shared cell — so a warm re-run after the
/// publish recomputes **only** the changed day, and still answers
/// bit-identically to a fresh engine built over the post-publish table.
#[test]
fn publish_invalidates_exactly_the_changed_days() {
    let cached = engine(23, true);
    let f = cached.prepare(FORECAST_TEMPLATE).unwrap();
    let (lo, hi) = (20200102, 20200127);
    let window_days = 26u64;
    let params = [Literal::Int(lo), Literal::Int(hi)];

    // Two runs: populate, then fully warm.
    f.forecast_with(&params).unwrap();
    f.forecast_with(&params).unwrap();
    let before = cached.partial_cache_stats();

    // Grow one existing day inside the window.
    let mut batch = IngestBatch::new();
    for row in 0..120 {
        ads_row(&mut batch, 20200110, row);
    }
    cached.ingest(batch).unwrap();
    cached.publish().unwrap();

    let got = f.forecast_with(&params).unwrap();
    if cache_active() {
        let (before, after) = (before.expect("cache on"), cached.partial_cache_stats().unwrap());
        let new_misses = after.misses - before.misses;
        let new_hits = after.hits - before.hits;
        assert_eq!(new_misses, 1, "only the republished day's cell may miss: {after:?}");
        assert_eq!(new_hits, window_days - 1, "every untouched day must stay warm: {after:?}");
    }

    // Oracle: a fresh cache-disabled engine over the same post-publish
    // table (snapshots share the table Arc, so this is the exact relation
    // the cached engine now serves).
    let snapshot_table = cached.table();
    let oracle_config = config(false);
    let catalog = SampleCatalog::build(&snapshot_table, &oracle_config).unwrap();
    let oracle = FlashPEngine::with_catalog(snapshot_table, oracle_config, catalog);
    let want = oracle.prepare(FORECAST_TEMPLATE).unwrap().forecast_with(&params).unwrap();
    assert_forecast_bits_eq(&want, &got, "post-publish warm re-run");
}

/// The concurrent form of the test above: one cached prepared handle
/// keeps replaying every window while a publisher thread grows days
/// inside them and publishes. Once the publisher is done, the handle
/// that lived through the version swaps answers every window
/// bit-identically to a fresh cache-disabled engine over the final
/// table, and a second replay is served entirely warm.
#[test]
fn warm_handle_matches_the_oracle_after_concurrent_publishes() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let cached = engine(29, true);
    let f = cached.prepare(FORECAST_TEMPLATE).unwrap();
    let replay = || {
        for (lo, hi) in WINDOWS {
            f.forecast_with(&[Literal::Int(lo), Literal::Int(hi)]).unwrap();
        }
    };
    replay();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for day in [20200108, 20200111, 20200114] {
                let mut batch = IngestBatch::new();
                for row in 0..60 {
                    ads_row(&mut batch, day, row);
                }
                cached.ingest(batch).unwrap();
                assert_eq!(cached.publish().unwrap().changed_partitions, 1, "grow {day}");
            }
            done.store(true, Ordering::Release);
        });
        loop {
            replay();
            if done.load(Ordering::Acquire) {
                break;
            }
        }
    });

    let final_table = cached.table();
    let oracle_config = config(false);
    let catalog = SampleCatalog::build(&final_table, &oracle_config).unwrap();
    let oracle = FlashPEngine::with_catalog(final_table, oracle_config, catalog);
    let f_oracle = oracle.prepare(FORECAST_TEMPLATE).unwrap();
    for (lo, hi) in WINDOWS {
        let params = [Literal::Int(lo), Literal::Int(hi)];
        let want = f_oracle.forecast_with(&params).unwrap();
        let got = f.forecast_with(&params).unwrap();
        assert_forecast_bits_eq(&want, &got, &format!("post-publish USING ({lo}, {hi})"));
    }

    if cache_active() {
        let before = cached.partial_cache_stats().expect("cache on");
        assert!(before.hits > 0 && before.misses > 0, "replays must use the cache: {before:?}");
        replay();
        let after = cached.partial_cache_stats().unwrap();
        // Every window lies inside January, so YYYYMMDD differences are day counts.
        let window_days: u64 = WINDOWS.iter().map(|(lo, hi)| (hi - lo + 1) as u64).sum();
        assert_eq!(after.misses, before.misses, "a settled handle must not miss: {after:?}");
        assert_eq!(after.hits - before.hits, window_days, "every day must be warm: {after:?}");
    }
}

/// The cache lives per slot under sharding, so a warm sharded engine
/// stays shard-count invariant: every binding is run twice at N = 1, 2,
/// and 8 shards and the warm answers compared bit-for-bit against the
/// N = 1 baseline.
#[test]
fn warm_answers_are_shard_count_invariant() {
    let table = table(17);
    let engines: Vec<(usize, ShardedEngine)> = [1usize, 2, 8]
        .into_iter()
        .map(|n| {
            let engine =
                ShardedEngine::with_catalogs(&table, config(true), ShardConfig::with_shards(n))
                    .unwrap();
            (n, engine)
        })
        .collect();
    let prepared: Vec<_> = engines
        .iter()
        .map(|(n, e)| {
            (*n, e.prepare(FORECAST_TEMPLATE).unwrap(), e.prepare(SELECT_TEMPLATE).unwrap())
        })
        .collect();
    for temp in ["cold", "warm"] {
        for (lo, hi) in WINDOWS {
            let params = [Literal::Int(lo), Literal::Int(hi)];
            let (_, f0, s0) = &prepared[0];
            let want_f = f0.forecast_with(&params).unwrap();
            let want_s = s0.select_with(&params).unwrap();
            for (n, f, s) in &prepared[1..] {
                let label = format!("N={n}: {temp} USING ({lo}, {hi})");
                assert_forecast_bits_eq(&want_f, &f.forecast_with(&params).unwrap(), &label);
                assert_select_bits_eq(&want_s, &s.select_with(&params).unwrap(), &label);
            }
        }
    }
    if cache_active() {
        for (n, engine) in &engines {
            let stats = engine.stats();
            let mut total = flashp_core::PartialCacheStats::default();
            for shard in &stats.shards {
                let pc = shard.partial_cache.expect("shard stats must aggregate its slot caches");
                total.add(&pc);
            }
            assert!(total.hits > 0, "N={n}: warm pass must hit the per-slot caches: {total:?}");
        }
    }
}

/// The exact (full-scan) path memoizes per-partition aggregate states
/// keyed on partition identity: warm exact answers are bit-identical to
/// the cache-disabled oracle, for plain SELECT and `SAMPLE_RATE = 1.0`.
#[test]
fn exact_path_warm_matches_the_uncached_oracle() {
    let cached = engine(41, true);
    let oracle = engine(41, false);
    for sql in [
        "SELECT SUM(Impression) FROM ads WHERE age <= 30 AND t BETWEEN 20200105 AND 20200120 \
         GROUP BY t",
        "SELECT AVG(Click) FROM ads WHERE gender = 'F' AND t BETWEEN 20200101 AND 20200128 \
         GROUP BY t",
        "FORECAST COUNT(*) FROM ads USING (20200101, 20200126) \
         OPTION (MODEL = 'naive', SAMPLE_RATE = 1.0)",
        "SELECT SUM(Impression) FROM ads WHERE age <= 30 AND t = 20200105 OPTION (FAST_SUM = 1)",
    ] {
        let want = oracle.execute(sql).unwrap();
        for temp in ["cold", "warm"] {
            let got = cached.execute(sql).unwrap();
            match (&want, &got) {
                (flashp_core::ExecOutput::Select(a), flashp_core::ExecOutput::Select(b)) => {
                    assert_select_bits_eq(a, b, &format!("{temp}: {sql}"));
                }
                (flashp_core::ExecOutput::Forecast(a), flashp_core::ExecOutput::Forecast(b)) => {
                    assert_forecast_bits_eq(a, b, &format!("{temp}: {sql}"));
                }
                _ => panic!("{sql}: mismatched output shapes"),
            }
        }
    }
    if cache_active() {
        let stats = cached.partial_cache_stats().expect("cache on");
        assert!(stats.hits > 0, "warm exact re-runs must hit the cache: {stats:?}");
    }
}

/// First day of the gap-day fixture; [`GAP_DAY`] is missing from it.
const GAP_START: i64 = 20200101;
const GAP_DAY: i64 = 20200111;
const GAP_DAYS: i64 = 21;

fn ts(yyyymmdd: i64) -> Timestamp {
    Timestamp::from_yyyymmdd(yyyymmdd).unwrap()
}

/// 21 days from 2020-01-01 with 2020-01-11 absent, 240 rows a day: one
/// heavy-tailed measure and a proportional one, xorshift-deterministic.
fn gap_table() -> TimeSeriesTable {
    let schema = Schema::from_names(
        &[("seg", DataType::Int64), ("grp", DataType::Categorical)],
        &["m1", "m2"],
    )
    .unwrap()
    .into_shared();
    let mut table = TimeSeriesTable::new(schema);
    let mut state = 4_242u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for day in 0..GAP_DAYS {
        let t = ts(GAP_START) + day;
        if t == ts(GAP_DAY) {
            continue;
        }
        for row in 0..240i64 {
            let heavy = if row % 53 == 0 { 40.0 } else { 1.0 };
            let m1 = (100.0 + day as f64) * heavy * (0.5 + next());
            let dims = [Value::Int(row % 10), Value::from(if row % 3 == 0 { "a" } else { "b" })];
            table.append_row(t, &dims, &[m1, m1 * 0.1]).unwrap();
        }
    }
    table
}

fn gap_config(partial_cache: bool) -> EngineConfig {
    EngineConfig {
        sampler: SamplerChoice::OptimalGsw,
        layer_rates: vec![0.2],
        default_rate: 0.2,
        partial_cache,
        ..Default::default()
    }
}

/// A cache-on and a cache-off engine over one gap table and one shared
/// catalog, so the reference below can read the very samples both serve.
fn gap_engines() -> (FlashPEngine, FlashPEngine, Arc<SampleCatalog>) {
    let table = Arc::new(gap_table());
    let catalog = Arc::new(SampleCatalog::build(&table, &gap_config(true)).unwrap());
    let cached = FlashPEngine::with_catalog(table.clone(), gap_config(true), catalog.clone());
    let uncached = FlashPEngine::with_catalog(table, gap_config(false), catalog.clone());
    (cached, uncached, catalog)
}

/// Per-day sampled components for `[lo, hi]` from the catalog's only
/// layer, absent days omitted, in day order.
fn reference_components(
    catalog: &SampleCatalog,
    pred: &flashp_storage::CompiledPredicate,
    lo: i64,
    hi: i64,
) -> Vec<(Timestamp, EstimateComponents)> {
    let mut scratch = MaskScratch::new();
    ts(lo)
        .range_inclusive(ts(hi))
        .filter_map(|t| {
            let sample = catalog.sample_for(0, 0, t)?;
            Some((t, estimate_components_with(sample, 0, pred, &mut scratch).unwrap()))
        })
        .collect()
}

/// One SELECT row: `(t, value, std_err)`.
type Row = (Timestamp, f64, Option<f64>);

fn assert_rows_bits_eq(got: &SelectResult, want: &[Row], label: &str) {
    assert_eq!(got.rows.len(), want.len(), "{label}: row count");
    for (g, w) in got.rows.iter().zip(want) {
        assert_eq!(g.0, w.0, "{label}: timestamp");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{label}: value at {}", g.0);
        assert_eq!(g.2.map(f64::to_bits), w.2.map(f64::to_bits), "{label}: std_err at {}", g.0);
    }
}

/// A window spanning an absent day: sampled scalar SUM/COUNT/AVG, sampled
/// `GROUP BY t`, and their exact counterparts all equal, to the bit, a
/// reference assembled from public calls — the per-cell estimator merged
/// over the present days only, and the storage range scan — cache on
/// (cold and warm) and off. The scalar sampled rows pin that skipping an
/// absent day's merge changes no bit.
#[test]
fn gap_day_answers_match_a_public_reference_bit_for_bit() {
    let (cached, uncached, catalog) = gap_engines();
    let table = cached.table();
    let pred = table.compile_predicate(&Predicate::cmp("seg", CmpOp::Le, 5)).unwrap();
    let (lo, hi) = (20200105, 20200118);
    let window = format!("seg <= 5 AND t BETWEEN {lo} AND {hi}");

    let comps = reference_components(&catalog, &pred, lo, hi);
    assert_eq!(comps.len(), (hi - lo) as usize, "exactly the gap day is absent");
    let options = ScanOptions { threads: 2, ..Default::default() };
    let states = aggregate_states_range(&table, 0, &pred, ts(lo), ts(hi), options).unwrap();
    assert_eq!(states.len(), comps.len());

    for agg in [AggFunc::Sum, AggFunc::Count, AggFunc::Avg] {
        let name = match agg {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
        };
        let mut total = EstimateComponents::default();
        for (_, c) in &comps {
            total.merge(c);
        }
        let est = total.finalize(agg);
        let sampled_scalar = [(ts(lo), est.value, est.variance.map(f64::sqrt))];
        let sampled_grouped: Vec<_> = comps
            .iter()
            .map(|(t, c)| {
                let e = c.finalize(agg);
                (*t, e.value, e.variance.map(f64::sqrt))
            })
            .collect();
        let mut exact_total = AggState::default();
        for (_, s) in &states {
            exact_total.merge(*s);
        }
        let exact_scalar = [(ts(lo), exact_total.finalize(agg), None)];
        let exact_grouped: Vec<_> =
            states.iter().map(|(t, s)| (*t, s.finalize(agg), None)).collect();

        let cases: [(String, &[Row]); 4] = [
            (
                format!("SELECT {name}(m1) FROM T WHERE {window} OPTION (SAMPLE_RATE = 0.2)"),
                &sampled_scalar,
            ),
            (
                format!(
                    "SELECT {name}(m1) FROM T WHERE {window} GROUP BY t \
                     OPTION (SAMPLE_RATE = 0.2)"
                ),
                &sampled_grouped,
            ),
            (format!("SELECT {name}(m1) FROM T WHERE {window}"), &exact_scalar),
            (format!("SELECT {name}(m1) FROM T WHERE {window} GROUP BY t"), &exact_grouped),
        ];
        for (sql, want) in cases {
            for (engine, label) in [(&cached, "cold"), (&cached, "warm"), (&uncached, "uncached")] {
                assert_rows_bits_eq(
                    &engine.select(&sql).unwrap(),
                    want,
                    &format!("{label}: {sql}"),
                );
            }
        }
    }
}

/// A FORECAST whose window holds the absent day fails with the same
/// `SamplesUnavailable` message on one engine and on 1- and 4-shard
/// engines, sampled and at `SAMPLE_RATE = 1.0`.
#[test]
fn gap_day_forecast_errors_match_across_engines() {
    let (single, _, _) = gap_engines();
    let table = single.table();
    let sharded: Vec<ShardedEngine> = [1, 4]
        .into_iter()
        .map(|n| {
            ShardedEngine::with_catalogs(&table, gap_config(true), ShardConfig::with_shards(n))
                .unwrap()
        })
        .collect();
    let window = format!("USING ({GAP_START}, {})", GAP_START + GAP_DAYS - 1);
    for (rate, message) in [
        ("0.2", format!("no sample for timestamp {GAP_DAY}")),
        ("1.0", format!("table covers {} of {GAP_DAYS} requested timestamps", GAP_DAYS - 1)),
    ] {
        let sql = format!(
            "FORECAST SUM(m1) FROM T WHERE seg <= 5 {window} \
             OPTION (MODEL = 'naive', SAMPLE_RATE = {rate})"
        );
        let errors = std::iter::once(single.forecast(&sql).unwrap_err())
            .chain(sharded.iter().map(|e| e.forecast(&sql).unwrap_err()));
        for (i, err) in errors.enumerate() {
            match err {
                EngineError::SamplesUnavailable(m) => assert_eq!(m, message, "engine {i}: {sql}"),
                other => panic!("engine {i}: {sql}: expected SamplesUnavailable, got {other:?}"),
            }
        }
    }
}

/// `estimate_series` with an out-of-range measure reports each source's
/// own bounds error: the range scan's column-index error at rate 1, the
/// sample estimator's bad-measure error on a sample layer.
#[test]
fn estimate_series_rejects_an_out_of_range_measure() {
    let (engine, _, _) = gap_engines();
    let pred = engine.table().compile_predicate(&Predicate::True).unwrap();
    let (lo, hi) = (ts(GAP_START), ts(GAP_START) + 5);
    match engine.estimate_series(2, &pred, AggFunc::Sum, lo, hi, 1.0) {
        Err(EngineError::Storage(StorageError::ColumnIndexOutOfRange { index: 2, len: 2 })) => {}
        other => panic!("exact source: {other:?}"),
    }
    match engine.estimate_series(2, &pred, AggFunc::Sum, lo, hi, 0.2) {
        Err(EngineError::Sampling(SamplingError::BadMeasure { index: 2, num_measures: 2 })) => {}
        other => panic!("sampled source: {other:?}"),
    }
}
