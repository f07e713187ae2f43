//! The traced run: per-layer numbers measured from outside the program.
//!
//! 1. **Wire passes.** The same number of statements once untraced and
//!    once with a `client.roundtrip` span per statement; their ratio is
//!    the tracing overhead.
//! 2. **Re-enactment.** The traced statements are replayed in-process:
//!    one real `core.execute` (or `sharded.execute`) span, then a `stmt`
//!    span whose children call each layer's public function in the order
//!    the server does — `server.decode` → `query.parse` → `core.plan` →
//!    `core.estimate` → `forecast.fit` → `forecast.predict` →
//!    `server.encode`.
//! 3. **Probes and counters.** One day cell and one day partition are
//!    timed per statement; accuracy is read off a fixed subset; the rest
//!    comes from the public stats.
//!
//! Spans inside the program (`ExecProfile`) are the ROADMAP's next item
//! and will replace the re-enactment, keeping these names.

use crate::run::{self, WriterResult};
use crate::setup::{self, Env};
use crate::stats::{median, median_of};
use crate::streams::{self, Pacer, Shape, Stmt, Workload};
use crate::trace::{self, Span, Tracer};
use flashp_core::planner::PredicateSlot;
use flashp_core::{
    build_model, EngineConfig, ExecOutput, FlashPEngine, IngestBatch, LogicalPlan, PreparedQuery,
    ScanSource, ShardConfig, ShardedEngine, ShardedPrepared,
};
use flashp_forecast::metrics::mean_relative_error;
use flashp_sampling::estimate_components_with;
use flashp_server::harness::is_ok;
use flashp_server::{parse_command, protocol, Backend, Command};
use flashp_storage::{
    eval_partition_with, AggFunc, CompiledPredicate, MaskScratch, SumMode, Timestamp,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Traced statements of a wire pass (as many again go untraced). A count,
/// not a time, so that every counter of a single-client traced run repeats
/// exactly; `fit_heavy`, at 50 ms a statement, sends five rotations.
fn pass_statements(workload: Workload) -> usize {
    match workload {
        Workload::FitHeavy => 5 * streams::rotation_len(workload),
        _ => 300,
    }
}

/// Share of the run's seconds the `publish_live` wire pass takes: its
/// length is set by the writer's schedule, not by a statement count.
const LIVE_PASS_SHARE: f64 = 0.4;
/// Statements of the in-process single-vs-sharded comparison.
const RATIO_STATEMENTS: u64 = 300;

/// What the traced run hands back to `main`.
pub struct LayerReport {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// One statement of the wire pass.
struct WireRecord {
    /// Position in the stream; the statement's `stmt_id` in every span.
    id: u32,
    stmt: Stmt,
    reply_bytes: usize,
    us: f64,
    traced: bool,
}

/// The wire pass: statements of stream 0, in blocks that are alternately
/// untraced and inside `client.roundtrip` spans, so both halves meet the
/// same host and cache conditions and differ by the recording alone. A
/// block is one rotation of the workload (every tile on every window, or
/// every predicate shape), so both halves also send the same mix. Ends
/// after twice [`pass_statements`], or when `live_for` has passed on
/// `publish_live`.
fn wire_pass(
    env: &mut Env,
    live_for: Option<Duration>,
    tracer: &mut Tracer,
    failed: &mut u64,
) -> Vec<WireRecord> {
    let mut records = Vec::new();
    let start = Instant::now();
    let block = streams::rotation_len(env.workload) as u32;
    let mut k = 0u32;
    let limit = 2 * pass_statements(env.workload);
    while live_for.map_or((k as usize) < limit, |budget| start.elapsed() < budget) {
        let stmt = streams::stmt(env.workload, env.seed, 0, u64::from(k));
        let traced = k / block % 2 == 1;
        tracer.set_enabled(traced);
        let sent = Instant::now();
        let reply =
            tracer.span("client.roundtrip", None, k, || env.clients[0].roundtrip(&stmt.line));
        let us = sent.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok(reply) if is_ok(&reply) => {
                records.push(WireRecord { id: k, stmt, reply_bytes: reply.len(), us, traced })
            }
            other => {
                *failed += 1;
                eprintln!("wire pass: {} -> {other:?}", stmt.line);
            }
        }
        k += 1;
    }
    tracer.set_enabled(true);
    records
}

/// What planning a statement's literal text says about it.
struct PlanInfo {
    measure: usize,
    agg: AggFunc,
    pred: CompiledPredicate,
    start: Timestamp,
    end: Timestamp,
    /// Layer index and rate of a sampled plan; `None` for a full scan.
    layer: Option<(usize, f64)>,
    est_rows: usize,
    forecast: bool,
}

fn plan_info(plan: &LogicalPlan) -> Result<PlanInfo, String> {
    let (measure, agg, predicate, range, source, forecast) = match plan {
        LogicalPlan::Forecast(p) => (
            p.measure,
            p.agg,
            &p.predicate,
            Some(p.window().map_err(|e| e.to_string())?),
            &p.source,
            true,
        ),
        LogicalPlan::Select(p) => (
            p.measure,
            p.agg,
            &p.predicate,
            p.static_range().map_err(|e| e.to_string())?,
            &p.source,
            false,
        ),
    };
    let PredicateSlot::Compiled(pred) = predicate else {
        return Err("statement text still has parameters".to_string());
    };
    let (start, end) = range.ok_or("empty time range")?;
    let source = source.planned().map_err(|e| e.to_string())?;
    let layer = match source {
        ScanSource::SampleLayer { layer, rate, .. } => Some((*layer, *rate)),
        ScanSource::FullScan { .. } => None,
    };
    Ok(PlanInfo {
        measure,
        agg,
        pred: pred.clone(),
        start,
        end,
        layer,
        est_rows: source.est_rows(),
        forecast,
    })
}

/// Per-statement readings that do not come from spans.
#[derive(Default)]
struct Probe {
    shape: Option<Shape>,
    sampled: bool,
    /// Share of `core.estimate` spent computing cold days (the rest is
    /// cache probes and assembly).
    cold_share: f64,
    est_rows: f64,
    rate_used: f64,
    series_len: f64,
    sample_day_us: f64,
    sample_rows: f64,
    sample_bytes: f64,
    scan_day_us: f64,
    scan_rows: f64,
    scan_bytes: f64,
}

/// Median over three days of the window of one timed call each, in
/// microseconds. One try per day on purpose: a second try would find the
/// day in the CPU's cache, which a statement walking 150 days never does.
fn median_over_days_us(info: &PlanInfo, mut work: impl FnMut(Timestamp) -> bool) -> f64 {
    let len = info.end - info.start;
    let mut us = Vec::new();
    for quarter in 1..=3 {
        let t = Instant::now();
        if work(info.start + len * quarter / 4) {
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&mut us)
}

fn predicate_dims(pred: &CompiledPredicate, out: &mut Vec<usize>) {
    match pred {
        CompiledPredicate::Cmp { dim, .. }
        | CompiledPredicate::CmpF64 { dim, .. }
        | CompiledPredicate::InSet { dim, .. } => {
            if !out.contains(dim) {
                out.push(*dim);
            }
        }
        CompiledPredicate::And(items) | CompiledPredicate::Or(items) => {
            items.iter().for_each(|p| predicate_dims(p, out))
        }
        CompiledPredicate::Not(inner) => predicate_dims(inner, out),
        CompiledPredicate::Const(_) => {}
    }
}

/// Time the statement's predicate on one day of the sample layer it reads
/// (layer 0 for an exact statement) and on one day of the base table.
fn probe_day(env: &Env, info: &PlanInfo, probe: &mut Probe) {
    let day = info.start + (info.end - info.start) / 2;
    let mut scratch = MaskScratch::new();
    let layer = info.layer.map_or(0, |(idx, _)| idx);
    if let Some(catalog) = env.catalog() {
        probe.sample_day_us = median_over_days_us(info, |t| {
            catalog.sample_for(layer, info.measure, t).is_some_and(|sample| {
                std::hint::black_box(
                    estimate_components_with(sample, info.measure, &info.pred, &mut scratch).ok(),
                );
                true
            })
        });
        if let Some(sample) = catalog.sample_for(layer, info.measure, day) {
            probe.sample_rows = sample.num_rows() as f64;
            probe.sample_bytes = sample.byte_size() as f64;
        }
    }
    probe.scan_day_us = median_over_days_us(info, |t| {
        env.table.partition(t).is_some_and(|partition| {
            std::hint::black_box(eval_partition_with(
                partition,
                info.measure,
                &info.pred,
                &mut scratch,
                SumMode::Exact,
            ));
            true
        })
    });
    if let Some(partition) = env.table.partition(day) {
        let rows = partition.num_rows();
        let mut dims = Vec::new();
        predicate_dims(&info.pred, &mut dims);
        // Bytes of the columns the predicate and the measure read.
        let column_bytes: usize = dims.iter().map(|d| partition.dim(*d).byte_size()).sum();
        probe.scan_rows = rows as f64;
        probe.scan_bytes = (column_bytes + rows * std::mem::size_of::<f64>()) as f64;
    }
}

/// Training values of a reply (the SELECT rows' values for a SELECT).
fn series_values(out: &ExecOutput) -> Vec<f64> {
    match out {
        ExecOutput::Forecast(r) => r.estimate_values(),
        ExecOutput::Select(r) => r.rows.iter().map(|row| row.1).collect(),
        ExecOutput::Plan(_) => Vec::new(),
    }
}

/// Fit and predict inside spans, as `execute_forecast` does after its
/// estimation phase.
fn reenact_model(
    tracer: &mut Tracer,
    root: usize,
    id: u32,
    workload: Workload,
    values: &[f64],
    confidence: f64,
) -> Result<(), String> {
    let mut model = build_model(streams::model(workload)).map_err(|e| e.to_string())?;
    tracer.span("forecast.fit", Some(root), id, || model.fit(values)).map_err(|e| e.to_string())?;
    tracer
        .span("forecast.predict", Some(root), id, || {
            model.forecast(streams::FORE_PERIOD, confidence)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The engines a re-enactment runs on.
enum Stage {
    /// The server's own engine, so a replayed statement meets the caches
    /// in the state the wire statements met them; `uncached` serves the
    /// same table without a day-partial cache, where estimating is the
    /// scan alone.
    Single {
        engine: FlashPEngine,
        handles: Vec<PreparedQuery>,
        uncached: FlashPEngine,
    },
    Sharded {
        handles: Vec<ShardedPrepared>,
    },
}

/// One replayed statement: what ran, what it answered, what was probed.
struct Replayed {
    /// The statement the real execute ran (see [`replay`]).
    stmt: Stmt,
    out: ExecOutput,
    probe: Probe,
    info: Option<PlanInfo>,
}

/// Replay traced statement `id` in-process: one real execute, then the
/// layer calls under a `stmt` span.
///
/// A warm statement is replayed as it was sent. A cold one cannot be — its
/// day partials are cached now — so the real execute runs the same
/// position of client stream 1 and the layer calls that of stream 2: fresh
/// predicates of the same shape, which neither the wire pass nor the other
/// call has touched.
fn replay(
    tracer: &mut Tracer,
    env: &Env,
    stage: &Stage,
    id: u32,
    sent: &Stmt,
) -> Result<Replayed, String> {
    let workload = env.workload;
    let confidence = setup::engine_config().default_confidence;
    let (whole_stmt, parts_stmt) = if workload.is_cold() {
        let at = |stream| streams::stmt(workload, env.seed, stream, u64::from(id));
        (at(1), at(2))
    } else {
        (sent.clone(), sent.clone())
    };
    let args = match parse_command(&whole_stmt.line) {
        Ok(Command::Execute { args, .. }) => args,
        _ => Vec::new(),
    };
    let mut probe = Probe { shape: Some(sent.shape), ..Default::default() };

    let (engine, handles, uncached) = match stage {
        Stage::Sharded { handles } => {
            let tile = sent.tile.ok_or("sharded workload sends EXECUTEs only")?;
            let out = tracer
                .span("sharded.execute", None, id, || handles[tile].execute_with(&args))
                .map_err(|e| e.to_string())?;
            let values = series_values(&out);
            probe.series_len = values.len() as f64;
            let root = tracer.open("stmt", None, id);
            let _ = tracer.span("server.decode", Some(root), id, || parse_command(&sent.line));
            reenact_model(tracer, root, id, workload, &values, confidence)?;
            let _ = tracer.span("server.encode", Some(root), id, || protocol::encode_output(&out));
            tracer.close(root);
            return Ok(Replayed { stmt: whole_stmt, out, probe, info: None });
        }
        Stage::Single { engine, handles, uncached } => (engine, handles, uncached),
    };

    let out = tracer
        .span("core.execute", None, id, || match whole_stmt.tile {
            Some(tile) => handles[tile].execute_with(&args),
            None => engine.execute(&whole_stmt.sql),
        })
        .map_err(|e| e.to_string())?;

    // A prepared statement neither parses nor plans on its EXECUTE path;
    // its plan is only needed here to know what to estimate.
    let prepared_plan = match parts_stmt.tile {
        Some(tile) => {
            // A trailing window resolves at bind time; write it out against
            // the table this engine serves.
            let sql = match (workload, engine.table().time_bounds()) {
                (Workload::PublishLive, Some((_, last))) => streams::live_sql_at(tile, last),
                _ => parts_stmt.sql.clone(),
            };
            let ast = flashp_query::parse(&sql).map_err(|e| e.to_string())?;
            Some(engine.plan(&ast).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let root = tracer.open("stmt", None, id);
    let _ = tracer.span("server.decode", Some(root), id, || parse_command(&parts_stmt.line));
    let plan = match prepared_plan {
        Some(plan) => plan,
        None => {
            let ast = tracer
                .span("query.parse", Some(root), id, || flashp_query::parse(&parts_stmt.sql))
                .map_err(|e| e.to_string())?;
            tracer
                .span("core.plan", Some(root), id, || engine.plan(&ast))
                .map_err(|e| e.to_string())?
        }
    };
    let info = plan_info(&plan)?;
    let rate = info.layer.map_or(1.0, |(_, rate)| rate);
    let before = engine.partial_cache_stats().unwrap_or_default();
    let estimate_started = Instant::now();
    let points = tracer
        .span("core.estimate", Some(root), id, || {
            engine.estimate_series(info.measure, &info.pred, info.agg, info.start, info.end, rate)
        })
        .map_err(|e| e.to_string())?
        .0;
    let estimate_us = estimate_started.elapsed().as_secs_f64() * 1e6;
    let after = engine.partial_cache_stats().unwrap_or_default();
    if info.forecast {
        let values: Vec<f64> = points.iter().map(|p| p.value).collect();
        reenact_model(tracer, root, id, workload, &values, confidence)?;
    }
    let _ = tracer.span("server.encode", Some(root), id, || protocol::encode_output(&out));
    tracer.close(root);

    probe.sampled = info.layer.is_some();
    probe.est_rows = info.est_rows as f64;
    probe.rate_used = rate;
    probe.series_len = points.len() as f64;
    probe_day(env, &info, &mut probe);
    // How much of the estimate was computing days, not probing and
    // filling the cache: with no hit at all, what the same call takes on
    // an engine without the cache; else the cold days at one day's cost.
    let computing_us = if after.hits == before.hits {
        let t = Instant::now();
        let series = uncached.estimate_series(
            info.measure,
            &info.pred,
            info.agg,
            info.start,
            info.end,
            rate,
        );
        std::hint::black_box(series.ok());
        t.elapsed().as_secs_f64() * 1e6
    } else {
        let day_us = if probe.sampled { probe.sample_day_us } else { probe.scan_day_us };
        (after.misses - before.misses) as f64 * day_us
    };
    probe.cold_share = (computing_us / estimate_us).min(1.0);
    Ok(Replayed { stmt: whole_stmt, out, probe, info: Some(info) })
}

/// One traced statement's times in microseconds, read off its spans.
#[derive(Default)]
struct Row {
    round_trip: f64,
    /// `core.execute` or `sharded.execute`.
    execute: f64,
    sharded: bool,
    parse: f64,
    plan: f64,
    estimate: f64,
    /// `forecast.fit` + `forecast.predict`.
    model: f64,
    encode: f64,
    /// Share of `estimate` spent computing days, and on which path.
    cold_share: f64,
    sampled: bool,
}

impl Row {
    /// Bind, merge and result assembly: what the single engine's execute
    /// spent outside the calls re-enacted beside it.
    fn unattributed(&self) -> f64 {
        if self.sharded {
            0.0
        } else {
            self.execute - self.parse - self.plan - self.estimate - self.model
        }
    }

    /// Fan-out, per-slot planning, per-slot estimation and merge.
    fn fanout(&self) -> f64 {
        if self.sharded {
            self.execute - self.model
        } else {
            0.0
        }
    }

    fn computing(&self, sampled: bool) -> f64 {
        if self.sampled == sampled {
            self.estimate * self.cold_share
        } else {
            0.0
        }
    }
}

fn rows(spans: &[Span], replayed: &BTreeMap<u32, Replayed>) -> Vec<Row> {
    let mut by_id: BTreeMap<u32, Row> = BTreeMap::new();
    for span in spans.iter().filter(|s| replayed.contains_key(&s.stmt_id)) {
        let row = by_id.entry(span.stmt_id).or_default();
        let us = span.duration_ns() as f64 / 1e3;
        match span.name {
            "client.roundtrip" => row.round_trip = us,
            "core.execute" => row.execute = us,
            "sharded.execute" => (row.execute, row.sharded) = (us, true),
            "query.parse" => row.parse = us,
            "core.plan" => row.plan = us,
            "core.estimate" => row.estimate = us,
            "forecast.fit" | "forecast.predict" => row.model += us,
            "server.encode" => row.encode = us,
            _ => {}
        }
    }
    for (id, row) in by_id.iter_mut() {
        (row.cold_share, row.sampled) = (replayed[id].probe.cold_share, replayed[id].probe.sampled);
    }
    by_id.into_values().collect()
}

/// Accuracy of the sampled replies on a fixed subset: the reply's
/// training series and forecast against the same statement answered from
/// the full table. `(agg_rel_err, fcst_rel_dev)`; zeros when every
/// statement of the workload is exact already.
fn accuracy(env: &Env, replayed: &BTreeMap<u32, Replayed>) -> Result<(f64, f64), String> {
    let exact_engine = env.uncached_engine();
    let mut seen = std::collections::BTreeSet::new();
    let (mut agg, mut fcst) = (Vec::new(), Vec::new());
    for Replayed { stmt, out, .. } in replayed.values().take(run::ORACLE_STATEMENTS as usize) {
        let ExecOutput::Forecast(sampled) = out else { continue };
        if sampled.rate_used >= 1.0 || !seen.insert(&stmt.sql) {
            continue;
        }
        let exact = exact_engine
            .forecast(&streams::exact_variant(&stmt.sql))
            .map_err(|e| format!("exact reference for {}: {e}", stmt.sql))?;
        let pairs = [
            (sampled.estimate_values(), exact.estimate_values(), &mut agg),
            (sampled.forecast_values(), exact.forecast_values(), &mut fcst),
        ];
        for (got, want, sink) in pairs {
            if got.len() != want.len() {
                return Err(format!("sampled and exact series differ in length: {}", stmt.sql));
            }
            sink.extend(mean_relative_error(&got, &want));
        }
    }
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    Ok((mean(&agg), mean(&fcst)))
}

/// Exact ÷ sampled estimation time for the same predicate and window, on
/// an engine without the day-partial cache so both sides are cold.
fn sampled_vs_exact_speedup(engine: &FlashPEngine, replayed: &BTreeMap<u32, Replayed>) -> f64 {
    let (mut sampled, mut exact) = (Vec::new(), Vec::new());
    let plans = replayed.values().filter_map(|r| r.info.as_ref());
    for info in plans.take(run::ORACLE_STATEMENTS as usize) {
        let rate = info.layer.map_or(setup::LAYER_RATES[0], |(_, rate)| rate);
        for (rate, sink) in [(rate, &mut sampled), (1.0, &mut exact)] {
            let t = Instant::now();
            let series = engine.estimate_series(
                info.measure,
                &info.pred,
                info.agg,
                info.start,
                info.end,
                rate,
            );
            sink.push(t.elapsed().as_secs_f64());
            std::hint::black_box(series.ok());
        }
    }
    let (s, e) = (median(&mut sampled), median(&mut exact));
    if s > 0.0 {
        e / s
    } else {
        0.0
    }
}

/// In-process time per statement of the `dash_sharded` rotation on a
/// single engine and on sharded engines with one and two shards over the
/// same table, all warm: `(single ÷ sharded₁, single ÷ sharded₂)`.
fn sharded_ratios(env: &Env) -> Result<(f64, f64), String> {
    let Backend::Sharded(two) = env.backend() else { return Ok((0.0, 0.0)) };
    let config: EngineConfig = setup::engine_config();
    let single = {
        let catalog =
            flashp_core::SampleCatalog::build(&env.table, &config).map_err(|e| e.to_string())?;
        FlashPEngine::with_catalog(env.table.clone(), config.clone(), catalog)
    };
    let one = ShardedEngine::with_catalogs(
        &env.table,
        config,
        ShardConfig { shards: 1, ..setup::SHARD_LAYOUT },
    )
    .map_err(|e| e.to_string())?;

    let time = |execute: &dyn Fn(usize, &[flashp_core::Literal]) -> bool| -> Result<f64, String> {
        let mut us = Vec::new();
        // One untimed rotation first, so every engine is measured warm.
        let warmup = streams::rotation_len(env.workload) as u64;
        for k in 0..warmup + RATIO_STATEMENTS {
            let stmt = streams::stmt(env.workload, env.seed, 0, k);
            let Ok(Command::Execute { args, .. }) = parse_command(&stmt.line) else {
                return Err(format!("not an EXECUTE: {}", stmt.line));
            };
            let t = Instant::now();
            if !execute(stmt.tile.unwrap_or(0), &args) {
                return Err(format!("in-process execute failed: {}", stmt.line));
            }
            if k >= warmup {
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(median(&mut us))
    };
    let tiles = streams::tiles(env.workload);
    let prepare_sharded = |engine: &ShardedEngine| -> Result<Vec<ShardedPrepared>, String> {
        tiles.iter().map(|t| engine.prepare(&t.sql).map_err(|e| e.to_string())).collect()
    };
    let single_handles: Vec<PreparedQuery> = tiles
        .iter()
        .map(|t| single.prepare(&t.sql).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let one_handles = prepare_sharded(&one)?;
    let two_handles = prepare_sharded(two)?;
    let single_us = time(&|tile, args| single_handles[tile].execute_with(args).is_ok())?;
    let one_us = time(&|tile, args| one_handles[tile].execute_with(args).is_ok())?;
    let two_us = time(&|tile, args| two_handles[tile].execute_with(args).is_ok())?;
    Ok((single_us / one_us, single_us / two_us))
}

/// `publish_live`: a day of in-process ingest + publish cycles on the
/// quiesced engine — `(apply_delta_ms, ingest_rows_per_s)` medians.
fn ingest_cycles(env: &Env, first_batch: usize) -> Result<(f64, f64), String> {
    let Backend::Single(engine) = env.backend() else { return Ok((0.0, 0.0)) };
    let (mut delta_ms, mut rows_per_s) = (Vec::new(), Vec::new());
    for (t, rows) in run::batch_rows(env, first_batch, run::BATCHES_PER_DAY) {
        let mut batch = IngestBatch::new();
        for (dims, measures) in &rows {
            batch.push_row(t, dims, measures);
        }
        let started = Instant::now();
        let staged = engine.ingest(batch).map_err(|e| e.to_string())?;
        rows_per_s.push(staged as f64 / started.elapsed().as_secs_f64());
        let stats = engine.publish().map_err(|e| e.to_string())?;
        delta_ms.push(stats.duration.as_secs_f64() * 1e3);
    }
    Ok((median(&mut delta_ms), median(&mut rows_per_s)))
}

pub fn run_traced(env: &mut Env, seconds: f64, spin_ns: f64) -> LayerReport {
    let workload = env.workload;
    let live = workload == Workload::PublishLive;
    let budget = Duration::from_secs_f64(seconds * LIVE_PASS_SHARE);
    let mut failed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut tracer = Tracer::new(true);

    // 1. The wire pass; on publish_live the paced writer runs beside it.
    let misses_before = run::cache_stats(env).misses;
    let writer_batches = if live {
        let count = Pacer { period_ns: run::WRITER_PERIOD.as_nanos() as u64 }
            .batches_before(budget.as_nanos() as u64) as usize;
        run::render_batches(env, 0, count)
    } else {
        Vec::new()
    };
    let mut writer = WriterResult::default();
    let records = {
        let mut writer_client = live.then(|| env.clients.pop().expect("writer connection"));
        let records = std::thread::scope(|scope| {
            let writer_thread = writer_client.as_mut().map(|client| {
                let (batches, out) = (&writer_batches, &mut writer);
                scope.spawn(move || run::paced_writer(client, batches, out))
            });
            let records = wire_pass(env, live.then_some(budget), &mut tracer, &mut failed);
            if let Some(handle) = writer_thread {
                handle.join().expect("writer thread");
            }
            records
        });
        env.clients.extend(writer_client);
        records
    };
    let mut live_misses = 0;
    if live {
        for k in 0..streams::rotation_len(workload) as u64 {
            setup::must(&mut env.clients[0], &streams::stmt(workload, env.seed, 0, k).line);
        }
        live_misses = run::cache_stats(env).misses - misses_before;
        failures.extend(run::verify_live(env, &writer, live_misses, writer_batches.len() as u64));
    }
    let mut attempted = records.len() as u64 + failed + writer.attempted;
    failed += writer.failed;

    // Each traced statement against the untraced one at the same position
    // of the block before: the same statement on a warm workload, the same
    // predicate shape on a cold one.
    let block = streams::rotation_len(workload) as u32;
    let sent_us: BTreeMap<u32, f64> = records.iter().map(|r| (r.id, r.us)).collect();
    let mut ratios: Vec<f64> = records
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| Some(r.us / sent_us.get(&r.id.checked_sub(block)?)?))
        .collect();
    let overhead_ratio = median(&mut ratios);
    let traced: Vec<&WireRecord> = records.iter().filter(|r| r.traced).collect();

    // 2. Replay of the traced statements.
    let tiles = streams::tiles(workload);
    let mut prepare_us = Vec::new();
    let stage = match env.backend() {
        Backend::Sharded(engine) => Stage::Sharded {
            handles: tiles
                .iter()
                .map(|t| engine.prepare(&t.sql).expect("in-process sharded prepare"))
                .collect(),
        },
        Backend::Single(engine) => {
            let handles = tiles
                .iter()
                .map(|t| {
                    let started = Instant::now();
                    let handle = engine.prepare(&t.sql).expect("in-process prepare");
                    prepare_us.push(started.elapsed().as_secs_f64() * 1e6);
                    handle
                })
                .collect();
            Stage::Single { engine: engine.clone(), handles, uncached: env.uncached_engine() }
        }
    };
    let mut replayed: BTreeMap<u32, Replayed> = BTreeMap::new();
    for record in traced.iter().take(pass_statements(workload)) {
        match replay(&mut tracer, env, &stage, record.id, &record.stmt) {
            Ok(done) => {
                replayed.insert(record.id, done);
            }
            Err(e) => failures.push(format!("replay of {}: {e}", record.stmt.line)),
        }
    }

    // 3. Per-layer medians from the spans.
    let spans = tracer.spans().to_vec();
    let layer_us = trace::medians_us(&spans);
    let self_us = |name: &str| layer_us.get(name).map_or(0.0, |m| m.1);
    let rows = rows(&spans, &replayed);
    let over_rows = |f: &dyn Fn(&Row) -> f64| median_of(&rows.iter().map(f).collect::<Vec<f64>>());
    // A layer's share is the median over statements of its part of that
    // statement's own round trip.
    let share = |f: &dyn Fn(&Row) -> f64| over_rows(&|r| f(r) / r.round_trip);
    let over_probes = |f: &dyn Fn(&Probe) -> f64, keep: &dyn Fn(&Probe) -> bool| {
        let kept = replayed.values().map(|r| &r.probe).filter(|p| keep(p));
        median_of(&kept.map(f).collect::<Vec<f64>>())
    };
    let any = |_: &Probe| true;
    let scan_shape = |wanted: &[Shape]| {
        over_probes(&|p| p.scan_day_us, &|p| p.shape.is_some_and(|s| wanted.contains(&s)))
    };
    let per_s = |amount: f64, us: f64| if us > 0.0 { amount / (us / 1e6) } else { 0.0 };
    let sample_day_us = over_probes(&|p| p.sample_day_us, &any);
    let scan_day_us = over_probes(&|p| p.scan_day_us, &any);
    let over_traced = |f: &dyn Fn(&WireRecord) -> f64| {
        median_of(&traced.iter().map(|r| f(r)).collect::<Vec<f64>>())
    };

    // 4. Counters and the fixed-subset readings.
    let cache = run::cache_stats(env);
    let (plan_cache_hit_ratio, specializations, speedup) = match (env.backend(), &stage) {
        (Backend::Single(engine), Stage::Single { handles, uncached, .. }) => {
            let plans = engine.plan_cache_stats();
            let specs: usize = handles.iter().map(PreparedQuery::specialization_count).sum();
            (
                plans.hits as f64 / (plans.hits + plans.misses).max(1) as f64,
                specs as f64,
                sampled_vs_exact_speedup(uncached, &replayed),
            )
        }
        _ => (0.0, 0.0, 0.0),
    };
    let (agg_rel_err, fcst_rel_dev) = accuracy(env, &replayed).unwrap_or_else(|e| {
        failures.push(e);
        (0.0, 0.0)
    });
    let (ratio_n1, ratio_n2) = sharded_ratios(env).unwrap_or_else(|e| {
        failures.push(e);
        (0.0, 0.0)
    });
    drop(stage);

    let (oracle_checked, oracle_failures) = run::verify_oracle(env);
    attempted += oracle_checked;
    failures.extend(oracle_failures);

    // Last, because it publishes: a day of in-process ingest cycles.
    let (apply_delta_ms, ingest_in_process) = if live {
        ingest_cycles(env, writer_batches.len()).unwrap_or_else(|e| {
            failures.push(e);
            (0.0, 0.0)
        })
    } else {
        (0.0, 0.0)
    };
    let publishes = writer.publishes.max(1) as f64;
    failed += failures.len() as u64;
    let server_stats = env.server.stats();
    let class = if tiles.is_empty() { "statement" } else { "execute" };
    let counter =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;

    let metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("server.decode_us", self_us("server.decode")),
        ("server.encode_us", self_us("server.encode")),
        ("server.reply_bytes", over_traced(&|r| r.reply_bytes as f64)),
        ("server.overhead_us", over_rows(&|r| r.round_trip - r.execute - r.encode)),
        ("server.worker_p50_us", server_stats.histogram(class).quantile_us(0.5) as f64),
        ("server.busy_rejections", counter(&server_stats.busy_rejections)),
        ("server.reply_timeouts", counter(&server_stats.reply_timeouts)),
        ("query.parse_us", self_us("query.parse")),
        ("query.stmt_bytes", over_traced(&|r| r.stmt.line.len() as f64)),
        ("core.plan_us", self_us("core.plan")),
        ("core.prepare_us", median(&mut prepare_us)),
        ("core.plan_cache_hit_ratio", plan_cache_hit_ratio),
        ("core.execute_us", self_us("core.execute")),
        ("core.estimate_us", self_us("core.estimate")),
        ("core.unattributed_us", over_rows(&Row::unattributed)),
        ("core.specializations", specializations),
        ("core.est_rows", over_probes(&|p| p.est_rows, &any)),
        ("core.rate_used", over_probes(&|p| p.rate_used, &any)),
        ("core.sampled_vs_exact_speedup", speedup),
        ("cache.hit_ratio", cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64),
        ("cache.evictions", cache.evictions as f64),
        ("cache.entries", cache.entries as f64),
        ("cache.misses_per_publish", if live { live_misses as f64 / publishes } else { 0.0 }),
        ("sampling.estimate_day_us", sample_day_us),
        ("sampling.sample_rows_per_s", per_s(over_probes(&|p| p.sample_rows, &any), sample_day_us)),
        ("sampling.sample_bytes", over_probes(&|p| p.sample_bytes, &any)),
        ("storage.scan_day_us", scan_day_us),
        ("storage.rows_per_s", per_s(over_probes(&|p| p.scan_rows, &any), scan_day_us)),
        ("storage.bytes_per_s", per_s(over_probes(&|p| p.scan_bytes, &any), scan_day_us)),
        ("storage.scan_fused_us", scan_shape(&[Shape::Single])),
        ("storage.scan_conj_us", scan_shape(&[Shape::Conj, Shape::Range])),
        ("storage.scan_in_us", scan_shape(&[Shape::In])),
        ("forecast.fit_us", self_us("forecast.fit")),
        ("forecast.predict_us", self_us("forecast.predict")),
        ("forecast.series_len", over_probes(&|p| p.series_len, &any)),
        ("catalog.build_s", env.catalog_build_s),
        ("catalog.apply_delta_ms", apply_delta_ms),
        ("catalog.cells_absorbed", writer.absorbed_cells as f64 / publishes),
        ("catalog.cells_rebuilt", writer.rebuilt_cells as f64 / publishes),
        ("catalog.ingest_rows_per_s", ingest_in_process),
        ("sharded.execute_us", self_us("sharded.execute")),
        ("sharded.vs_single_ratio_n1", ratio_n1),
        ("sharded.vs_single_ratio_n2", ratio_n2),
        ("data.generate_s", env.generate_s),
        ("host.spin_ns", spin_ns),
        ("trace.overhead_ratio", overhead_ratio),
        ("share.server", share(&|r| r.round_trip - r.execute)),
        ("share.query", share(&|r| r.parse)),
        ("share.core_planner", share(&|r| r.plan)),
        ("share.core_prepared", share(&Row::unattributed)),
        (
            "share.core_partial_cache",
            share(&|r| r.estimate - r.computing(true) - r.computing(false)),
        ),
        ("share.core_sharded", share(&Row::fanout)),
        ("share.sampling", share(&|r| r.computing(true))),
        ("share.storage", share(&|r| r.computing(false))),
        ("share.forecast", share(&|r| r.model)),
        (
            "ingest_rows_per_s",
            per_s(writer.rows_acked as f64, writer.ingest_busy.as_secs_f64() * 1e6),
        ),
        ("publish_p50_ms", median_of(&writer.publish_ms)),
        ("agg_rel_err", agg_rel_err),
        ("fcst_rel_dev", fcst_rel_dev),
        ("fail_share", failed as f64 / attempted.max(1) as f64),
    ]);
    LayerReport { metrics, attempted, failures, failed, spans }
}
