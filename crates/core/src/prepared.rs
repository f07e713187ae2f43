//! Prepared statements and plan execution.
//!
//! A [`PreparedQuery`] owns a typed [`LogicalPlan`] plus a handle to the
//! engine's shared version slot. It is `Send + Sync` and executes through
//! `&self` — many threads can run the same prepared statement
//! concurrently; each call snapshots the engine's active
//! [`crate::CatalogVersion`] exactly once and then runs lock-free against
//! it, drawing fresh [`MaskScratch`] buffers that are reused across the
//! whole Eq. (4) per-timestamp batch of that call. Because the snapshot
//! is per-execution, the same prepared handle serves newly published
//! data after every [`crate::FlashPEngine::publish`], and no execution
//! can ever straddle two versions.

use crate::bounded::BoundedMap;
use crate::catalog::{CatalogCell, SampleCatalog};
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::explain::{explain_plan, PlanNode};
use crate::models::build_model;
use crate::partial_cache::{predicate_fingerprint, PartialCache, KIND_EXACT, KIND_SAMPLED};
use crate::planner::{
    resolve_forecast_window, resolve_select_range, specialize_forecast, specialize_plan,
    specialize_select, ForecastPlan, LogicalPlan, PredicateSlot, ScanSource, SelectPlan,
    TimeRangeSlot,
};
use crate::result::{ExecOutput, ForecastOut, ForecastResult, SelectResult, SeriesPoint, Timing};
use flashp_query::{bind_expr, substitute_params, Literal, Statement};
use flashp_sampling::{estimate_components_with, EstimateComponents, SamplingError};
use flashp_storage::parallel::parallel_map_with;
use flashp_storage::{
    eval_partition_with, AggFunc, AggState, CompiledPredicate, MaskScratch, Partition,
    StorageError, SumMode, TimeSeriesTable, Timestamp,
};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Total bind-time range specializations the engine-level [`SpecCache`]
/// retains across every prepared handle (a rotating-dashboard workload
/// re-binds a small set of windows per statement; an adversarial one
/// shouldn't grow the engine without bound). Replaces the old per-handle
/// 64-entry cap.
pub(crate) const SPEC_CACHE_CAPACITY: usize = 1024;

/// Key of one cached specialization: statement identity (FNV of the
/// normalized text), the engine version it was specialized against, and
/// the resolved (clamped) range — `None` = empty SELECT range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SpecKey {
    stmt: u64,
    version: u64,
    range: Option<(i64, i64)>,
}

/// Engine-level bind-time specialization cache, shared by every prepared
/// handle of one engine: `USING (?, ?)` plans specialized per
/// (statement, version, resolved range), so two handles prepared from the
/// same text share each window's specialization. Eviction follows the
/// guarantee in `bounded.rs`. Entries are version-scoped like one-shot
/// plans; `FlashPEngine::publish` purges the replaced version's entries
/// eagerly.
pub(crate) struct SpecCache(Mutex<BoundedMap<SpecKey, Arc<LogicalPlan>>>);

impl SpecCache {
    pub(crate) fn new(capacity: usize) -> Self {
        SpecCache(Mutex::new(BoundedMap::new(capacity)))
    }

    fn map(&self) -> MutexGuard<'_, BoundedMap<SpecKey, Arc<LogicalPlan>>> {
        self.0.lock().expect("spec cache poisoned")
    }

    /// Drop every specialization of a replaced engine version.
    pub(crate) fn purge_version(&self, version: u64) {
        self.map().retain(|k, _| k.version != version);
    }

    /// Resident specializations of one statement at one version.
    fn count_for(&self, stmt: u64, version: u64) -> usize {
        self.map().keys().filter(|k| k.stmt == stmt && k.version == version).count()
    }
}

/// Typed arity check shared by every parameterized execution entry.
pub(crate) fn check_arity(num_params: usize, params: &[Literal]) -> Result<(), EngineError> {
    if params.len() == num_params {
        return Ok(());
    }
    Err(EngineError::Parameter(if num_params == 0 {
        format!("statement takes no parameters, {} supplied", params.len())
    } else {
        format!("statement takes {num_params} parameter(s), {} supplied", params.len())
    }))
}

/// Everything plan execution needs, borrowed for the duration of one call.
///
/// Every statement answers in the two phases of §2.1: phase 1 is
/// [`ExecCtx::day_partials`], the one place a day's partial is probed,
/// computed and memoized; phase 2 is [`assemble_forecast`] or
/// [`assemble_select`], which turn the ascending run of day partials into
/// the answer. The sharded engine feeds the same two assemblers its
/// slot-order-merged days; this engine is the one-slot case, unmerged.
pub(crate) struct ExecCtx<'a> {
    pub table: &'a TimeSeriesTable,
    pub config: &'a EngineConfig,
    pub catalog: Option<&'a SampleCatalog>,
    /// The engine's day-partial cache; `None` when disabled, in which
    /// case every probe misses (the CI oracle mode).
    pub partial: Option<&'a PartialCache>,
}

/// One day's partial aggregate — from one sampled cell or one partition —
/// and the unit the day-partial cache memoizes and the sharded combiner
/// merges in slot order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DayPartial {
    /// Exact per-day aggregate state from a full scan; merging adds sums
    /// and counts exactly.
    Exact(AggState),
    /// Horvitz–Thompson components from a sample layer; sums, counts and
    /// their variance components all add across independent per-slot
    /// samples.
    Sampled(EstimateComponents),
}

impl DayPartial {
    /// Merge another partial into this one (another slot's partial for
    /// the same day, or the next day of a scalar fold). Errors if the two
    /// came from different execution modes (cannot happen for partials
    /// produced by one planned statement — the exact/sampled decision is
    /// plan-level and uniform across slots).
    pub fn merge(&mut self, other: &DayPartial) -> Result<(), EngineError> {
        match (self, other) {
            (DayPartial::Exact(a), DayPartial::Exact(b)) => {
                a.merge(*b);
                Ok(())
            }
            (DayPartial::Sampled(a), DayPartial::Sampled(b)) => {
                a.merge(b);
                Ok(())
            }
            _ => Err(EngineError::Config(
                "cannot merge exact and sampled shard partials".to_string(),
            )),
        }
    }

    /// Finalize into `(value, variance)`; exact partials have no
    /// estimator variance.
    pub fn finalize(&self, agg: AggFunc) -> (f64, Option<f64>) {
        match self {
            DayPartial::Exact(s) => (s.finalize(agg), None),
            DayPartial::Sampled(c) => {
                let e = c.finalize(agg);
                (e.value, e.variance)
            }
        }
    }
}

/// Result metadata of the source a run of day partials came from.
pub(crate) struct SourceMeta {
    pub(crate) sampled: bool,
    pub(crate) sampler: String,
    pub(crate) rate_used: f64,
}

impl SourceMeta {
    pub(crate) fn of(source: &ScanSource) -> Self {
        SourceMeta {
            sampled: matches!(source, ScanSource::SampleLayer { .. }),
            sampler: source.sampler_label().to_string(),
            rate_used: source.rate_used(),
        }
    }
}

/// What one present day's partial is computed from.
#[derive(Clone, Copy)]
enum DaySource<'a> {
    Exact(&'a Partition),
    Sampled(&'a CatalogCell),
}

impl DaySource<'_> {
    /// Structural identity, the day's partial-cache key.
    fn id(self) -> u64 {
        match self {
            DaySource::Exact(part) => part.id(),
            DaySource::Sampled(cell) => cell.id,
        }
    }
}

impl ExecCtx<'_> {
    /// Resolve a plan's predicate slot against the call's parameters.
    /// Arity was already checked at the statement level (`?` indices are
    /// statement-global, shared with the time window), so substitution
    /// just picks the indices the constraint uses.
    pub(crate) fn resolve_predicate<'p>(
        &self,
        slot: &'p PredicateSlot,
        params: &[Literal],
    ) -> Result<Cow<'p, CompiledPredicate>, EngineError> {
        match slot {
            PredicateSlot::Compiled(pred) => Ok(Cow::Borrowed(pred)),
            PredicateSlot::Template { constraint, .. } => {
                let bound = substitute_params(constraint, params)?;
                let predicate = bind_expr(&bound)?;
                Ok(Cow::Owned(self.table.compile_predicate(&predicate)?))
            }
        }
    }

    /// The catalog layer a plan's source references.
    pub(crate) fn layer(
        &self,
        source: &ScanSource,
    ) -> Result<&crate::catalog::CatalogLayer, EngineError> {
        let ScanSource::SampleLayer { layer, .. } = source else {
            unreachable!("layer() is only called for sampled sources")
        };
        let catalog = self.catalog.ok_or_else(|| {
            EngineError::SamplesUnavailable(
                "plan references a sample catalog the engine no longer holds".to_string(),
            )
        })?;
        Ok(catalog.layer(*layer))
    }

    /// Phase 1 (Eq. 4): the days `source` holds in `[lo, hi]`, ascending,
    /// each with its [`DayPartial`] — HT components per sampled cell of
    /// the source's bucket, or the exact state per table partition. Days
    /// without a cell or partition are absent.
    ///
    /// Each day is probed in the partial cache by `(cell or partition id,
    /// predicate fingerprint, measure, kind)`; the misses are computed in
    /// parallel, one [`MaskScratch`] per worker, and memoized. With the
    /// cache off every probe misses. Per-day results are independent of
    /// thread count and of which days ran, so assembling hits with fresh
    /// misses is bit-identical to computing every day. Sampled days run
    /// sequentially below 200 k layer rows — thread spawn costs dwarf the
    /// estimation work on small layers.
    pub(crate) fn day_partials(
        &self,
        source: &ScanSource,
        measure: usize,
        pred: &CompiledPredicate,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Result<Vec<(Timestamp, DayPartial)>, EngineError> {
        let num_measures = self.table.schema().num_measures();
        if measure >= num_measures {
            return Err(match source {
                ScanSource::FullScan { .. } => {
                    StorageError::ColumnIndexOutOfRange { index: measure, len: num_measures }.into()
                }
                ScanSource::SampleLayer { .. } => {
                    SamplingError::BadMeasure { index: measure, num_measures }.into()
                }
            });
        }
        // `estimate_series` takes any range; an inverted one holds no day.
        if hi < lo {
            return Ok(Vec::new());
        }
        let (days, kind, threads): (Vec<(Timestamp, DaySource<'_>)>, u8, usize) = match source {
            ScanSource::FullScan { .. } => {
                let parts = self.table.partitions_in(lo, hi).map(|(t, p)| (t, DaySource::Exact(p)));
                (parts.collect(), KIND_EXACT, self.config.threads)
            }
            ScanSource::SampleLayer { bucket, .. } => {
                let layer = self.layer(source)?;
                let cells = layer.buckets[*bucket].range(lo..=hi);
                let threads = if layer.total_rows < 200_000 { 1 } else { self.config.threads };
                (cells.map(|(t, c)| (*t, DaySource::Sampled(c))).collect(), KIND_SAMPLED, threads)
            }
        };
        let fp = predicate_fingerprint(pred);
        let mut out: Vec<Option<DayPartial>> = days
            .iter()
            .map(|(_, day)| self.partial.and_then(|cache| cache.get(day.id(), fp, measure, kind)))
            .collect();
        let missing: Vec<usize> = (0..days.len()).filter(|&i| out[i].is_none()).collect();
        let computed =
            parallel_map_with(&missing, threads, MaskScratch::new, |scratch, &i| match days[i].1 {
                DaySource::Exact(part) => DayPartial::Exact(eval_partition_with(
                    part,
                    measure,
                    pred,
                    scratch,
                    SumMode::Exact,
                )),
                DaySource::Sampled(cell) => DayPartial::Sampled(
                    estimate_components_with(&cell.sample, measure, pred, scratch)
                        .expect("measure index checked against the schema"),
                ),
            });
        for (&i, partial) in missing.iter().zip(computed) {
            if let Some(cache) = self.partial {
                cache.put(days[i].1.id(), fp, measure, kind, partial);
            }
            out[i] = Some(partial);
        }
        Ok(days
            .iter()
            .zip(out)
            .map(|((t, _), p)| (*t, p.expect("every day resolved above")))
            .collect())
    }

    /// The expected warm/cold day split the partial cache would serve for
    /// one execution of `plan` with `params`: `(warm, cold)` over the
    /// plan's bound window, counting only days the layer's bucket stores a
    /// sample for. `None` when the cache is off, the source is not a
    /// sample layer, or the bound range is empty. Probes with `peek`, so
    /// rendering an EXPLAIN never skews hit/miss counters or moves an
    /// entry.
    pub(crate) fn day_split(
        &self,
        plan: &LogicalPlan,
        params: &[Literal],
    ) -> Result<Option<(usize, usize)>, EngineError> {
        let Some(cache) = self.partial else { return Ok(None) };
        let (source, predicate, measure, range) = match plan {
            LogicalPlan::Forecast(p) => {
                (p.source.planned()?, &p.predicate, p.measure, Some(p.window()?))
            }
            LogicalPlan::Select(p) => {
                (p.source.planned()?, &p.predicate, p.measure, p.static_range()?)
            }
        };
        let Some((lo, hi)) = range else { return Ok(None) };
        let ScanSource::SampleLayer { bucket, .. } = source else { return Ok(None) };
        let layer = self.layer(source)?;
        let pred = self.resolve_predicate(predicate, params)?;
        let fp = predicate_fingerprint(&pred);
        let bucket = &layer.buckets[*bucket];
        let (mut warm, mut cold) = (0usize, 0usize);
        for t in lo.range_inclusive(hi) {
            if let Some(cell) = bucket.get(&t) {
                if cache.peek_components(cell.id, fp, measure) {
                    warm += 1;
                } else {
                    cold += 1;
                }
            }
        }
        Ok(Some((warm, cold)))
    }

    /// Execute any plan.
    pub(crate) fn execute_plan(
        &self,
        plan: &LogicalPlan,
        params: &[Literal],
    ) -> Result<ExecOutput, EngineError> {
        match plan {
            LogicalPlan::Forecast(p) => {
                Ok(ExecOutput::Forecast(Box::new(self.execute_forecast(p, params)?)))
            }
            LogicalPlan::Select(p) => Ok(ExecOutput::Select(self.execute_select(p, params)?)),
        }
    }

    /// Execute a FORECAST plan — the two-phase pipeline of §2.1: the
    /// window's day partials (Eq. 4), then [`assemble_forecast`].
    ///
    /// A plan whose `USING` window is parameterized is specialized here
    /// first (resolve + validate the window, re-select the layer), so
    /// execution is correct even when the caller bypassed
    /// [`PreparedQuery`]'s specialization cache.
    pub(crate) fn execute_forecast(
        &self,
        plan: &ForecastPlan,
        params: &[Literal],
    ) -> Result<ForecastResult, EngineError> {
        check_arity(plan.num_params, params)?;
        let plan: Cow<'_, ForecastPlan> = match &plan.range {
            TimeRangeSlot::Dynamic(window) => {
                let range = resolve_forecast_window(window, params, self.table)?;
                Cow::Owned(specialize_forecast(plan, range, self.table, self.catalog)?)
            }
            TimeRangeSlot::Static(_) => Cow::Borrowed(plan),
        };
        let (t_start, t_end) = plan.window()?;
        let source = plan.source.planned()?;
        let pred = self.resolve_predicate(&plan.predicate, params)?;
        let agg_start = Instant::now();
        let days = self.day_partials(source, plan.measure, &pred, t_start, t_end)?;
        let aggregation = agg_start.elapsed();
        assemble_forecast(&plan, (t_start, t_end), &days, SourceMeta::of(source), aggregation)
    }

    /// Execute a SELECT plan (exact scan or sampled estimation) through
    /// [`assemble_select`]. A parameterized time window is resolved and
    /// clamped here first — an inverted or fully out-of-table binding
    /// yields the empty result, exactly like its literal counterpart at
    /// plan time.
    pub(crate) fn execute_select(
        &self,
        plan: &SelectPlan,
        params: &[Literal],
    ) -> Result<SelectResult, EngineError> {
        check_arity(plan.num_params, params)?;
        let plan: Cow<'_, SelectPlan> = match &plan.range {
            TimeRangeSlot::Dynamic(window) => {
                let range = resolve_select_range(window, params, self.table)?;
                Cow::Owned(specialize_select(plan, range, self.table, self.catalog)?)
            }
            TimeRangeSlot::Static(_) => Cow::Borrowed(plan),
        };
        let pred = self.resolve_predicate(&plan.predicate, params)?;
        let Some((lo, hi)) = plan.static_range()? else {
            return Ok(SelectResult { rows: Vec::new(), approximate: false });
        };
        let source = plan.source.planned()?;
        let days = self.day_partials(source, plan.measure, &pred, lo, hi)?;
        assemble_select(&plan, lo, &days, matches!(source, ScanSource::SampleLayer { .. }))
    }
}

/// Finalize a FORECAST window's ascending day partials into its training
/// series. The series must be contiguous: a sampled source names the
/// first day without a sample, an exact one how many days the table
/// covers.
pub(crate) fn training_series(
    days: &[(Timestamp, DayPartial)],
    (t_start, t_end): (Timestamp, Timestamp),
    agg: AggFunc,
    sampled: bool,
) -> Result<Vec<SeriesPoint>, EngineError> {
    let expected = (t_end - t_start + 1) as usize;
    if days.len() != expected {
        if !sampled {
            return Err(EngineError::SamplesUnavailable(format!(
                "table covers {} of {} requested timestamps",
                days.len(),
                expected
            )));
        }
        let present = |t: &Timestamp| days.binary_search_by_key(t, |(d, _)| *d).is_ok();
        if let Some(t) = t_start.range_inclusive(t_end).find(|t| !present(t)) {
            return Err(EngineError::SamplesUnavailable(format!("no sample for timestamp {t}")));
        }
    }
    Ok(days
        .iter()
        .map(|(t, p)| {
            let (value, variance) = p.finalize(agg);
            SeriesPoint { t: *t, value, variance }
        })
        .collect())
}

/// Phase 2 of a FORECAST (§2.1): the training series from the window's
/// ascending day partials, one model fit, and the forecast with
/// intervals — widened by the mean estimator variance when the plan is
/// noise-aware (Proposition 1).
pub(crate) fn assemble_forecast(
    plan: &ForecastPlan,
    window: (Timestamp, Timestamp),
    days: &[(Timestamp, DayPartial)],
    meta: SourceMeta,
    aggregation: Duration,
) -> Result<ForecastResult, EngineError> {
    let estimates = training_series(days, window, plan.agg, meta.sampled)?;
    let fit_start = Instant::now();
    let values: Vec<f64> = estimates.iter().map(|p| p.value).collect();
    let mut model = build_model(&plan.model)?;
    let summary = model.fit(&values)?;
    let mut fc = model.forecast(plan.horizon, plan.confidence)?;
    let mean_noise_variance = {
        let vars: Vec<f64> = estimates.iter().filter_map(|p| p.variance).collect();
        if vars.is_empty() {
            0.0
        } else {
            vars.iter().sum::<f64>() / vars.len() as f64
        }
    };
    if plan.noise_aware && mean_noise_variance > 0.0 {
        fc = flashp_forecast::noise::widen_with_noise(&fc, mean_noise_variance)?;
    }
    let forecasting = fit_start.elapsed();

    let forecasts: Vec<ForecastOut> = fc
        .points
        .iter()
        .map(|p| ForecastOut {
            t: window.1 + p.step as i64,
            value: p.value,
            lo: p.lo,
            hi: p.hi,
            std_err: p.std_err,
        })
        .collect();
    Ok(ForecastResult {
        estimates,
        forecasts,
        model: model.name(),
        sampler: meta.sampler,
        rate_used: meta.rate_used,
        confidence: plan.confidence,
        sigma2: summary.sigma2,
        mean_noise_variance,
        timing: Timing { aggregation, forecasting },
    })
}

/// Finalize a SELECT from its ascending day partials: `GROUP BY t` emits
/// one row per present day; a scalar SELECT folds the days in time order
/// and finalizes once into one row labelled `lo` — SUM/COUNT variances
/// add across independent per-day samples, AVG is the ratio of the two
/// totals.
pub(crate) fn assemble_select(
    plan: &SelectPlan,
    lo: Timestamp,
    days: &[(Timestamp, DayPartial)],
    sampled: bool,
) -> Result<SelectResult, EngineError> {
    let row = |t: Timestamp, partial: &DayPartial| {
        let (value, variance) = partial.finalize(plan.agg);
        (t, value, variance.map(f64::sqrt))
    };
    if plan.group_by_time {
        let rows = days.iter().map(|(t, p)| row(*t, p)).collect();
        return Ok(SelectResult { rows, approximate: sampled });
    }
    let mut total = if sampled {
        DayPartial::Sampled(EstimateComponents::default())
    } else {
        DayPartial::Exact(AggState::default())
    };
    for (_, p) in days {
        total.merge(p)?;
    }
    Ok(SelectResult { rows: vec![row(lo, &total)], approximate: sampled })
}

/// A planned, repeatedly executable statement.
///
/// Created by [`crate::FlashPEngine::prepare`]. The query's names are
/// bound, its options validated, its predicate constant-folded (unless it
/// has `?` placeholders) and its serving sample layer chosen — once per
/// engine version. Execution through [`PreparedQuery::execute`] /
/// [`execute_with`] repeats none of that work while the engine version is
/// unchanged; the first execution after a
/// [`crate::FlashPEngine::publish`] re-plans against the new version, so
/// version-dependent plan constants (the clamped time range, dictionary
/// codes folded into the predicate, the layer's estimated row counts)
/// never go stale — a prepared `SELECT` whose statement covers a
/// newly published day includes it, exactly like a fresh one-shot of the
/// same text.
///
/// `PreparedQuery` is `Send + Sync` and cheap to share: wrap it in an
/// [`Arc`] (or just reference it from scoped threads) and execute from as
/// many threads as you like. The only synchronization on the execution
/// path is the per-execution snapshot of the engine's active version (a
/// read-lock held just long enough to clone an `Arc`) and a same-version
/// check on the handle's internal plan slot; estimation and forecasting
/// themselves run lock-free against the snapshot.
///
/// [`execute_with`]: PreparedQuery::execute_with
pub struct PreparedQuery {
    shared: Arc<crate::engine::EngineShared>,
    config: Arc<EngineConfig>,
    statement: Statement,
    /// Statement identity in the engine's shared [`SpecCache`] (FNV of
    /// the normalized text, computed at prepare time).
    stmt_key: u64,
    /// The plan for `cached.version`; re-planned lazily when the engine
    /// version moves.
    cached: Mutex<CachedPlan>,
}

struct CachedPlan {
    version: u64,
    plan: Arc<LogicalPlan>,
}

impl PreparedQuery {
    pub(crate) fn new(
        shared: Arc<crate::engine::EngineShared>,
        config: Arc<EngineConfig>,
        statement: Statement,
        stmt_key: u64,
        version: u64,
        plan: LogicalPlan,
    ) -> Self {
        PreparedQuery {
            shared,
            config,
            statement,
            stmt_key,
            cached: Mutex::new(CachedPlan { version, plan: Arc::new(plan) }),
        }
    }

    /// The parsed statement this query was prepared from.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// The plan the executor would run against the engine's current
    /// version (re-planning first if a publish happened since the last
    /// execution).
    pub fn plan(&self) -> Result<Arc<LogicalPlan>, EngineError> {
        self.current_plan(&self.shared.snapshot())
    }

    /// Number of `?` parameters [`PreparedQuery::execute_with`] expects.
    /// Fixed by the statement text, independent of re-planning.
    pub fn num_params(&self) -> usize {
        self.cached.lock().expect("prepared plan poisoned").plan.num_params()
    }

    /// Render the current plan as an `EXPLAIN` tree without executing.
    /// Sampled plans name the catalog version the next execution will
    /// answer from.
    pub fn explain(&self) -> Result<PlanNode, EngineError> {
        let snapshot = self.shared.snapshot();
        let plan = self.current_plan(&snapshot)?;
        let mut node =
            explain_plan(&plan, snapshot.table().schema(), self.shared.partial().is_some());
        annotate_day_split(&self.ctx(&snapshot), &plan, &[], &mut node);
        Ok(node)
    }

    /// Render the plan one execution of `params` would run: a dynamic
    /// `USING (?, ?)` range is resolved, clamped, and its serving layer
    /// re-selected exactly as [`PreparedQuery::execute_with`] would, so
    /// the tree shows the concrete range and per-binding layer choice
    /// instead of `range=dynamic`. When the day-partial cache is on, the
    /// sampled source additionally reports the `warm_days` / `cold_days`
    /// split this binding's window would currently hit.
    pub fn explain_with(&self, params: &[Literal]) -> Result<PlanNode, EngineError> {
        let snapshot = self.shared.snapshot();
        let plan = self.current_plan(&snapshot)?;
        let plan = self.bound_plan(&snapshot, plan, params)?;
        let mut node =
            explain_plan(&plan, snapshot.table().schema(), self.shared.partial().is_some());
        annotate_day_split(&self.ctx(&snapshot), &plan, params, &mut node);
        Ok(node)
    }

    /// The plan for `snapshot`'s version: the cached one when the version
    /// is unchanged, otherwise a fresh plan (planning runs outside the
    /// slot lock; the statement was validated at prepare time, so
    /// re-planning only fails if the engine state regressed, e.g. a
    /// handle whose catalog was never attached).
    fn current_plan(
        &self,
        snapshot: &crate::version::CatalogVersion,
    ) -> Result<Arc<LogicalPlan>, EngineError> {
        {
            let cached = self.cached.lock().expect("prepared plan poisoned");
            if cached.version == snapshot.version() {
                return Ok(cached.plan.clone());
            }
        }
        let planner = crate::planner::Planner::new(
            snapshot.table(),
            &self.config,
            snapshot.catalog().map(|c| c.as_ref()),
        );
        let plan = Arc::new(planner.plan(&self.statement)?);
        let mut cached = self.cached.lock().expect("prepared plan poisoned");
        cached.version = snapshot.version();
        cached.plan = plan.clone();
        // Range specializations are version-keyed in the engine's shared
        // cache; nothing to drop here — stale versions are purged at
        // publish, and lookups below never match them.
        Ok(plan)
    }

    /// The plan one execution runs: the prepared plan itself when its
    /// range is static, otherwise a specialization for this binding's
    /// resolved (clamped) range — served from the engine's shared
    /// [`SpecCache`] keyed on `(statement, version, range)`, so a
    /// dashboard cycling a handful of windows re-plans each at most once
    /// per publish, across every handle prepared from the same text.
    fn bound_plan(
        &self,
        snapshot: &crate::version::CatalogVersion,
        plan: Arc<LogicalPlan>,
        params: &[Literal],
    ) -> Result<Arc<LogicalPlan>, EngineError> {
        let window = match plan.range() {
            TimeRangeSlot::Dynamic(w) => w,
            TimeRangeSlot::Static(_) => return Ok(plan),
        };
        check_arity(plan.num_params(), params)?;
        let range = match &*plan {
            LogicalPlan::Forecast(_) => {
                Some(resolve_forecast_window(window, params, snapshot.table())?)
            }
            LogicalPlan::Select(_) => resolve_select_range(window, params, snapshot.table())?,
        };
        let key = SpecKey {
            stmt: self.stmt_key,
            version: snapshot.version(),
            range: range.map(|(a, b)| (a.0, b.0)),
        };
        if let Some(hit) = self.shared.spec().map().get(&key) {
            return Ok(hit);
        }
        // Specialize outside the lock: layer re-selection walks catalog
        // indexes, and concurrent executions of distinct ranges shouldn't
        // serialize on it. A racing duplicate insert is harmless — both
        // specializations are identical by construction.
        let specialized = Arc::new(specialize_plan(
            &plan,
            range,
            snapshot.table(),
            snapshot.catalog().map(|c| c.as_ref()),
        )?);
        self.shared.spec().map().insert(key, specialized.clone());
        Ok(specialized)
    }

    /// Number of bind-time range specializations cached for this
    /// statement at the current engine version (always 0 for statements
    /// with a literal range).
    pub fn specialization_count(&self) -> usize {
        self.shared.spec().count_for(self.stmt_key, self.shared.snapshot().version())
    }

    /// Execute a parameterless prepared statement.
    pub fn execute(&self) -> Result<ExecOutput, EngineError> {
        self.execute_with(&[])
    }

    /// Execute, binding `?` placeholder `i` to `params[i]`. Snapshots the
    /// engine's active version once; the whole execution answers from
    /// exactly that version.
    pub fn execute_with(&self, params: &[Literal]) -> Result<ExecOutput, EngineError> {
        let snapshot = self.shared.snapshot();
        let plan = self.current_plan(&snapshot)?;
        let plan = self.bound_plan(&snapshot, plan, params)?;
        self.ctx(&snapshot).execute_plan(&plan, params)
    }

    /// Execute a prepared FORECAST (errors on SELECT).
    pub fn forecast_with(&self, params: &[Literal]) -> Result<ForecastResult, EngineError> {
        let snapshot = self.shared.snapshot();
        let plan = self.current_plan(&snapshot)?;
        let plan = self.bound_plan(&snapshot, plan, params)?;
        match &*plan {
            LogicalPlan::Forecast(p) => self.ctx(&snapshot).execute_forecast(p, params),
            LogicalPlan::Select(_) => Err(EngineError::WrongStatement { expected: "FORECAST" }),
        }
    }

    /// Execute a prepared SELECT (errors on FORECAST).
    pub fn select_with(&self, params: &[Literal]) -> Result<SelectResult, EngineError> {
        let snapshot = self.shared.snapshot();
        let plan = self.current_plan(&snapshot)?;
        let plan = self.bound_plan(&snapshot, plan, params)?;
        match &*plan {
            LogicalPlan::Select(p) => self.ctx(&snapshot).execute_select(p, params),
            LogicalPlan::Forecast(_) => Err(EngineError::WrongStatement { expected: "SELECT" }),
        }
    }

    fn ctx<'a>(&'a self, snapshot: &'a crate::version::CatalogVersion) -> ExecCtx<'a> {
        ExecCtx {
            table: snapshot.table(),
            config: &self.config,
            catalog: snapshot.catalog().map(|c| c.as_ref()),
            partial: self.shared.partial(),
        }
    }
}

/// Append `props` to the first node named `name` (depth-first). Returns
/// whether a node was found.
fn annotate_node(node: &mut PlanNode, name: &str, props: &[(&'static str, String)]) -> bool {
    if node.name == name {
        for (k, v) in props {
            node.props.push(((*k).to_string(), v.clone()));
        }
        return true;
    }
    node.children.iter_mut().any(|c| annotate_node(c, name, props))
}

/// Best-effort `warm_days` / `cold_days` annotation on the sampled
/// source of an EXPLAIN tree. Every rendering path — one-shot
/// `EXPLAIN <stmt>`, [`PreparedQuery::explain`], and
/// [`PreparedQuery::explain_with`] — goes through this helper so a bound
/// template's tree stays bit-identical to the literal statement's. A
/// split that cannot be computed (cache off, unbound `?` parameters,
/// full-scan source) leaves the tree untouched rather than erroring.
pub(crate) fn annotate_day_split(
    ctx: &ExecCtx<'_>,
    plan: &LogicalPlan,
    params: &[Literal],
    node: &mut PlanNode,
) {
    if let Ok(Some((warm, cold))) = ctx.day_split(plan, params) {
        annotate_node(
            node,
            "SampleEstimate",
            &[("warm_days", warm.to_string()), ("cold_days", cold.to_string())],
        );
    }
}
