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
use crate::catalog::SampleCatalog;
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::explain::{explain_plan, PlanNode};
use crate::models::build_model;
use crate::partial_cache::{predicate_fingerprint, PartialCache};
use crate::planner::{
    resolve_forecast_window, resolve_select_range, specialize_forecast, specialize_plan,
    specialize_select, ForecastPlan, LogicalPlan, PredicateSlot, ScanSource, SelectPlan,
    TimeRangeSlot,
};
use crate::result::{ExecOutput, ForecastOut, ForecastResult, SelectResult, SeriesPoint, Timing};
use flashp_query::{bind_expr, substitute_params, Literal, Statement};
use flashp_sampling::{estimate_components_with, EstimateComponents, Sample};
use flashp_storage::parallel::parallel_map_with;
use flashp_storage::{
    AggFunc, CompiledPredicate, MaskScratch, ScanOptions, SumMode, TimeSeriesTable, Timestamp,
};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

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

/// How per-timestamp estimation treats a timestamp with no stored sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Missing {
    /// Fail: the caller needs a contiguous series (FORECAST training).
    Error,
    /// Skip the day: the caller aggregates whatever exists (SELECT).
    Skip,
}

/// Everything plan execution needs, borrowed for the duration of one call.
pub(crate) struct ExecCtx<'a> {
    pub table: &'a TimeSeriesTable,
    pub config: &'a EngineConfig,
    pub catalog: Option<&'a SampleCatalog>,
    /// The engine's day-partial cache; `None` when disabled, in which
    /// case every day executes cold (the CI oracle mode).
    pub partial: Option<&'a PartialCache>,
}

/// What one timestamp of a per-day estimation batch produced. Keeping the
/// three cases distinct lets each caller apply its own missing-day policy
/// *in timestamp order*, so the first failing day surfaces identically to
/// the pre-cache code paths, cached or not.
enum DayOutcome {
    /// The bucket stores no sample for this timestamp.
    Absent,
    /// HT components (from the cache, or freshly computed and cached).
    Value(EstimateComponents),
    /// Estimation failed; never cached.
    Failed(EngineError),
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

    /// Exact per-timestamp aggregates over `[start, end]`.
    pub(crate) fn estimate_exact(
        &self,
        measure: usize,
        pred: &CompiledPredicate,
        agg: AggFunc,
        start: Timestamp,
        end: Timestamp,
        sum: SumMode,
    ) -> Result<Vec<SeriesPoint>, EngineError> {
        let expected_points = (end - start + 1) as usize;
        let rows = self.day_states_exact(measure, pred, start, end, sum)?;
        if rows.len() != expected_points {
            return Err(EngineError::SamplesUnavailable(format!(
                "table covers {} of {} requested timestamps",
                rows.len(),
                expected_points
            )));
        }
        Ok(rows
            .into_iter()
            .map(|(t, state)| SeriesPoint { t, value: state.finalize(agg), variance: None })
            .collect())
    }

    /// The shared per-day estimation driver: one [`DayOutcome`] per
    /// timestamp in `[start, end]` from one catalog layer/bucket.
    ///
    /// With the day-partial cache attached, only days whose
    /// (cell, predicate, measure) entry is cold are computed — in
    /// parallel, one [`MaskScratch`] per worker — and their components are
    /// memoized for the next window that covers them. Per-day results are
    /// independent of thread count and of *which* days ran, so assembling
    /// hits with fresh misses in timestamp order is bit-identical to
    /// computing every day. Sequential below 200 k sampled rows — thread
    /// spawn costs dwarf the estimation work on small layers.
    fn day_outcomes(
        &self,
        layer: &crate::catalog::CatalogLayer,
        bucket: usize,
        measure: usize,
        pred: &CompiledPredicate,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<DayOutcome> {
        let bucket = &layer.buckets[bucket];
        let ts: Vec<Timestamp> = start.range_inclusive(end).collect();
        let threads = if layer.total_rows < 200_000 { 1 } else { self.config.threads };
        let estimate = |scratch: &mut MaskScratch, sample: &Sample| match estimate_components_with(
            sample, measure, pred, scratch,
        ) {
            Ok(c) => DayOutcome::Value(c),
            Err(e) => DayOutcome::Failed(e.into()),
        };
        let Some(cache) = self.partial else {
            // Cold mode: compute every present day, exactly as before the
            // cache existed.
            return parallel_map_with(&ts, threads, MaskScratch::new, |scratch, &t| {
                match bucket.get(&t) {
                    None => DayOutcome::Absent,
                    Some(cell) => estimate(scratch, cell.sample.as_ref()),
                }
            });
        };
        let fp = predicate_fingerprint(pred);
        let mut out: Vec<DayOutcome> = Vec::with_capacity(ts.len());
        let mut missing: Vec<(usize, Timestamp)> = Vec::new();
        for (i, &t) in ts.iter().enumerate() {
            match bucket.get(&t) {
                None => out.push(DayOutcome::Absent),
                Some(cell) => match cache.get_components(cell.id, fp, measure) {
                    Some(c) => out.push(DayOutcome::Value(c)),
                    None => {
                        missing.push((i, t));
                        out.push(DayOutcome::Absent); // placeholder, filled below
                    }
                },
            }
        }
        if !missing.is_empty() {
            let computed =
                parallel_map_with(&missing, threads, MaskScratch::new, |scratch, &(_, t)| {
                    let cell = bucket.get(&t).expect("probed present above");
                    estimate(scratch, cell.sample.as_ref())
                });
            for (&(i, t), outcome) in missing.iter().zip(computed) {
                if let DayOutcome::Value(c) = outcome {
                    let cell = bucket.get(&t).expect("probed present above");
                    cache.put_components(cell.id, fp, measure, c);
                }
                out[i] = outcome;
            }
        }
        out
    }

    /// Per-timestamp estimates from one catalog layer/bucket.
    ///
    /// `missing` controls timestamps with no stored sample: a FORECAST
    /// training series must be contiguous ([`Missing::Error`]), while a
    /// SELECT aggregate skips absent days ([`Missing::Skip`]) exactly as
    /// the exact path iterates only existing partitions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn estimate_from_layer(
        &self,
        layer: &crate::catalog::CatalogLayer,
        bucket: usize,
        measure: usize,
        pred: &CompiledPredicate,
        agg: AggFunc,
        start: Timestamp,
        end: Timestamp,
        missing: Missing,
    ) -> Result<Vec<SeriesPoint>, EngineError> {
        let outcomes = self.day_outcomes(layer, bucket, measure, pred, start, end);
        let mut points = Vec::with_capacity(outcomes.len());
        for (t, outcome) in start.range_inclusive(end).zip(outcomes) {
            match outcome {
                DayOutcome::Absent => match missing {
                    Missing::Skip => {}
                    Missing::Error => {
                        return Err(EngineError::SamplesUnavailable(format!(
                            "no sample for timestamp {t}"
                        )))
                    }
                },
                DayOutcome::Failed(e) => return Err(e),
                DayOutcome::Value(c) => {
                    // Finalizing cached components per aggregate is
                    // bit-identical to `estimate_agg_with`, which is
                    // defined as components + finalize.
                    let e = c.finalize(agg);
                    points.push(SeriesPoint { t, value: e.value, variance: e.variance });
                }
            }
        }
        Ok(points)
    }

    /// Raw HT accumulators for `[start, end]` from one catalog
    /// layer/bucket, merged across timestamps: per-partition samples are
    /// independent, so sums and variances add. One pass serves any
    /// aggregate (a range AVG finalizes as total SUM / total COUNT).
    /// Absent timestamps contribute nothing, mirroring the exact scalar
    /// path over existing partitions.
    fn components_from_layer(
        &self,
        layer: &crate::catalog::CatalogLayer,
        bucket: usize,
        measure: usize,
        pred: &CompiledPredicate,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<EstimateComponents, EngineError> {
        let outcomes = self.day_outcomes(layer, bucket, measure, pred, start, end);
        let mut total = EstimateComponents::default();
        for outcome in outcomes {
            match outcome {
                // Merge a default for absent days, exactly as the
                // pre-cache path did (x + 0.0 is not a bitwise no-op when
                // x is -0.0, so skipping the merge would not be
                // bit-identical).
                DayOutcome::Absent => total.merge(&EstimateComponents::default()),
                DayOutcome::Failed(e) => return Err(e),
                DayOutcome::Value(c) => total.merge(&c),
            }
        }
        Ok(total)
    }

    /// Per-timestamp HT components for `[start, end]` from one catalog
    /// layer/bucket, **unmerged**: element `i` is timestamp `start + i`,
    /// `None` when the bucket stores no sample for that day. This is the
    /// sampled partial-aggregation entry point for scatter-gather
    /// execution — a shard emits its own per-day components and a
    /// combiner merges day-by-day across shards in a fixed shard order,
    /// keeping f64 accumulation order independent of fan-out width.
    pub(crate) fn day_components_from_layer(
        &self,
        layer: &crate::catalog::CatalogLayer,
        bucket: usize,
        measure: usize,
        pred: &CompiledPredicate,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Option<EstimateComponents>>, EngineError> {
        self.day_outcomes(layer, bucket, measure, pred, start, end)
            .into_iter()
            .map(|outcome| match outcome {
                DayOutcome::Absent => Ok(None),
                DayOutcome::Value(c) => Ok(Some(c)),
                DayOutcome::Failed(e) => Err(e),
            })
            .collect()
    }

    /// Exact per-timestamp aggregate states for the partitions this
    /// table holds in `[start, end]` — the exact-path counterpart of
    /// [`ExecCtx::day_components_from_layer`]: only present days are
    /// returned, and the states merge exactly across shards.
    ///
    /// With the day-partial cache attached, cold partitions are evaluated
    /// through the same fused-kernel `eval_partition_with` the range scan
    /// uses and memoized against the partition's structural id (fresh on
    /// every copy-on-write clone, so a published append to a day retires
    /// that day's entries and no others).
    pub(crate) fn day_states_exact(
        &self,
        measure: usize,
        pred: &CompiledPredicate,
        start: Timestamp,
        end: Timestamp,
        sum: SumMode,
    ) -> Result<Vec<(Timestamp, flashp_storage::AggState)>, EngineError> {
        let options = ScanOptions { threads: self.config.threads, sum };
        // Delegate to the plain range scan when the cache is off — and on
        // a bad measure index, for the identical bounds error.
        let uncached = self.partial.is_none() || measure >= self.table.schema().num_measures();
        if uncached {
            return Ok(flashp_storage::aggregate_states_range(
                self.table, measure, pred, start, end, options,
            )?);
        }
        let cache = self.partial.expect("checked above");
        let fp = predicate_fingerprint(pred);
        let parts: Vec<(Timestamp, &flashp_storage::Partition)> =
            self.table.partitions_in(start, end).collect();
        let mut out: Vec<Option<flashp_storage::AggState>> = vec![None; parts.len()];
        let mut missing: Vec<usize> = Vec::new();
        for (i, (_, p)) in parts.iter().enumerate() {
            match cache.get_exact(p.id(), fp, measure, sum) {
                Some(s) => out[i] = Some(s),
                None => missing.push(i),
            }
        }
        if !missing.is_empty() {
            let computed =
                parallel_map_with(&missing, options.threads, MaskScratch::new, |scratch, &i| {
                    flashp_storage::eval_partition_with(parts[i].1, measure, pred, scratch, sum)
                });
            for (&i, s) in missing.iter().zip(computed) {
                cache.put_exact(parts[i].1.id(), fp, measure, sum, s);
                out[i] = Some(s);
            }
        }
        Ok(parts
            .iter()
            .zip(out)
            .map(|((t, _), s)| (*t, s.expect("every partition resolved above")))
            .collect())
    }

    /// Per-timestamp series for a plan's scan source. `sum` only affects
    /// the exact full-scan path; sampled estimation keeps its own
    /// accumulation order.
    #[allow(clippy::too_many_arguments)]
    fn estimate_series_for(
        &self,
        source: &ScanSource,
        measure: usize,
        pred: &CompiledPredicate,
        agg: AggFunc,
        start: Timestamp,
        end: Timestamp,
        sum: SumMode,
    ) -> Result<Vec<SeriesPoint>, EngineError> {
        match source {
            ScanSource::FullScan { .. } => self.estimate_exact(measure, pred, agg, start, end, sum),
            ScanSource::SampleLayer { bucket, .. } => {
                let layer = self.layer(source)?;
                self.estimate_from_layer(
                    layer,
                    *bucket,
                    measure,
                    pred,
                    agg,
                    start,
                    end,
                    Missing::Error,
                )
            }
        }
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

    /// Execute a FORECAST plan: estimate the training series (Eq. 4), fit
    /// the model, forecast with intervals — the two-phase pipeline of §2.1.
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

        // Phase 1: estimate the training series (Eq. 4).
        let agg_start = Instant::now();
        let sum = if plan.fast_sum { SumMode::Fast } else { SumMode::Exact };
        let estimates =
            self.estimate_series_for(source, plan.measure, &pred, plan.agg, t_start, t_end, sum)?;
        let aggregation = agg_start.elapsed();

        // Phase 2: fit + forecast.
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
                t: t_end + p.step as i64,
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
            sampler: source.sampler_label().to_string(),
            rate_used: source.rate_used(),
            confidence: plan.confidence,
            sigma2: summary.sigma2,
            mean_noise_variance,
            timing: Timing { aggregation, forecasting },
        })
    }

    /// Execute a SELECT plan (exact scan or sampled estimation). A
    /// parameterized time window is resolved and clamped here first — an
    /// inverted or fully out-of-table binding yields the empty result,
    /// exactly like its literal counterpart at plan time.
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
        let sum = if plan.fast_sum { SumMode::Fast } else { SumMode::Exact };
        match plan.source.planned()? {
            ScanSource::FullScan { .. } => {
                // Both shapes route through the day-state driver: per-day
                // states come from the same fused / scratch-reusing
                // kernels in partition order, so finalizing (grouped) or
                // merging (scalar) them is bit-identical to the plain
                // range scan — and warm days are served from the cache.
                let states = self.day_states_exact(plan.measure, &pred, lo, hi, sum)?;
                if plan.group_by_time {
                    let rows =
                        states.into_iter().map(|(t, s)| (t, s.finalize(plan.agg), None)).collect();
                    return Ok(SelectResult { rows, approximate: false });
                }
                let mut total = flashp_storage::AggState::default();
                for (_, s) in states {
                    total.merge(s);
                }
                Ok(SelectResult {
                    rows: vec![(lo, total.finalize(plan.agg), None)],
                    approximate: false,
                })
            }
            source @ ScanSource::SampleLayer { bucket, .. } => {
                let layer = self.layer(source)?;
                if plan.group_by_time {
                    let points = self.estimate_from_layer(
                        layer,
                        *bucket,
                        plan.measure,
                        &pred,
                        plan.agg,
                        lo,
                        hi,
                        Missing::Skip,
                    )?;
                    let rows = points
                        .into_iter()
                        .map(|p| (p.t, p.value, p.variance.map(f64::sqrt)))
                        .collect();
                    return Ok(SelectResult { rows, approximate: true });
                }
                // Scalar estimate across the range: one pass accumulates
                // the HT components over every day, then finalizes into
                // the requested aggregate — SUM/COUNT variances add across
                // independent per-partition samples; AVG is the ratio of
                // the two totals (no plug-in variance).
                let total =
                    self.components_from_layer(layer, *bucket, plan.measure, &pred, lo, hi)?;
                let est = total.finalize(plan.agg);
                Ok(SelectResult {
                    rows: vec![(lo, est.value, est.variance.map(f64::sqrt))],
                    approximate: true,
                })
            }
        }
    }
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
