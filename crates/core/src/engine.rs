//! The FlashP engine: a cheap, concurrently shareable handle over a
//! versioned table + sample catalog, fronting the staged query pipeline
//! `parse → plan → prepare → execute`.
//!
//! Mirrors the deployment of §5: the *Offline Sample Preprocessor*
//! ([`crate::SampleCatalog::build`]) draws multi-layer samples per
//! partition once; the *Online Forecasting Service* — this engine — then
//! serves many concurrent FORECAST/SELECT tasks against it. The engine is
//! `Clone + Send + Sync`: every field sits behind an [`Arc`], so handing a
//! handle to each worker thread copies pointers, not samples.
//!
//! The engine serves queries from an **active [`CatalogVersion`]** — an
//! immutable `(table, catalog)` snapshot behind an atomically swappable
//! `Arc`. [`FlashPEngine::ingest`] stages new rows invisibly;
//! [`FlashPEngine::publish`] derives a new catalog version incrementally
//! (only changed cells recomputed, §4.1) and swaps it in. Every
//! execution snapshots the active version exactly once, so answers are
//! never torn across versions and in-flight executions are never blocked
//! by a swap. All clones of a handle observe publishes; prepared queries
//! re-snapshot per execution, so the same prepared handle serves fresh
//! data after each publish.
//!
//! One-shot [`FlashPEngine::execute`] keeps a bounded plan cache keyed on
//! the normalized statement text and the version it was planned against
//! (eviction follows the guarantee in `bounded.rs`); a publish
//! invalidates the replaced version's entries.
//! [`FlashPEngine::prepare`] goes further and returns a
//! [`PreparedQuery`] that owns its plan and compiled predicate — the hot
//! path for a service loop, with no lock on the execution path.

use crate::bounded::BoundedMap;
use crate::catalog::SampleCatalog;
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::explain::{explain_plan, PlanNode};
use crate::partial_cache::{self, PartialCache, PartialCacheStats, PARTIAL_CACHE_CAPACITY};
use crate::planner::{LogicalPlan, Planner, ScanSource};
use crate::prepared::{training_series, ExecCtx, PreparedQuery, SpecCache, SPEC_CACHE_CAPACITY};
use crate::result::{ExecOutput, ForecastResult, SelectResult, SeriesPoint};
use crate::version::{CatalogDelta, CatalogVersion, IngestBatch, PublishStats};
use flashp_query::{parse, Statement};
use flashp_storage::{AggFunc, CompiledPredicate, TimeSeriesTable, Timestamp};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Default number of plans the statement cache retains.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Counters describing plan-cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// A point-in-time snapshot of engine-level counters, cheap enough to
/// poll from a service loop (one read lock + one mutex, no scans).
/// Fields are sampled one after another, so under concurrent writers the
/// snapshot is only approximately consistent — good enough for the
/// observability endpoints it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// The active [`CatalogVersion::version`].
    pub version: u64,
    /// The active sample catalog's version, if a catalog is attached.
    pub catalog_version: Option<u64>,
    /// Plan-cache effectiveness for this engine's shared cache.
    pub plan_cache: PlanCacheStats,
    /// Day-partial cache counters; `None` when the cache is disabled
    /// (config or `FLASHP_NO_PARTIAL_CACHE=1`).
    pub partial_cache: Option<PartialCacheStats>,
    /// Rows staged by [`FlashPEngine::ingest`] awaiting the next publish.
    pub pending_rows: usize,
    /// Partitions the pending rows touch (cells the next publish rebuilds).
    pub pending_partitions: usize,
}

/// Plan cache keyed on `(normalized statement text, version)`, bounded by
/// the two-generation policy of `bounded.rs`. Lives in [`EngineShared`],
/// so every clone of an engine handle shares it. Only the one-shot string
/// APIs touch it; prepared queries bypass it entirely.
///
/// The version is the [`CatalogVersion::version`] a plan was made
/// against: plans embed layer indices, clamped time ranges and
/// dictionary-folded predicates, all of which a publish may invalidate,
/// so a lookup only hits when the engine's active version matches.
/// [`PlanCache::purge_version`] drops a replaced version's entries
/// eagerly after a swap.
struct PlanCache(Mutex<BoundedMap<(String, u64), Arc<LogicalPlan>>>);

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache(Mutex::new(BoundedMap::new(capacity)))
    }

    fn map(&self) -> MutexGuard<'_, BoundedMap<(String, u64), Arc<LogicalPlan>>> {
        self.0.lock().expect("plan cache poisoned")
    }

    /// Drop every entry scoped to `version` — called after a publish
    /// replaces that version, whose entries can never hit again (version
    /// numbers are process-unique and never reused).
    fn purge_version(&self, version: u64) {
        self.map().retain(|(_, v), _| *v != version);
    }

    fn stats(&self) -> PlanCacheStats {
        let map = self.map();
        let (hits, misses, _) = map.counters();
        PlanCacheStats { hits, misses, entries: map.len() }
    }
}

/// Normalize statement text for plan-cache keying: collapse whitespace
/// runs outside string literals into single spaces and trim the ends.
/// Identifier and literal case is preserved (only whitespace differs
/// between equivalent spellings this cheap pass can prove equal).
fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut quote: Option<char> = None;
    let mut pending_space = false;
    for c in sql.chars() {
        match quote {
            Some(q) => {
                out.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '\'' || c == '"' {
                    if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.push(c);
                    quote = Some(c);
                } else if c.is_whitespace() {
                    pending_space = true;
                } else {
                    if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.push(c);
                }
            }
        }
    }
    out
}

/// The shared, swappable state behind every clone of an engine handle
/// (and behind every [`PreparedQuery`] prepared from it).
pub(crate) struct EngineShared {
    /// The active version. Readers briefly take the read lock to clone
    /// the `Arc` (one snapshot per execution); a publish takes the write
    /// lock only for the pointer swap.
    active: RwLock<Arc<CatalogVersion>>,
    /// Rows ingested but not yet published, plus the delta of changed
    /// partitions. Writers (ingest/publish) serialize on this lock;
    /// readers never touch it.
    pending: Mutex<PendingIngest>,
    /// The day-partial cache shared by every handle and prepared query
    /// over this engine; `None` when disabled by configuration or the
    /// `FLASHP_NO_PARTIAL_CACHE=1` override. Scoped to this shared state:
    /// cells and partitions observed through it can only come from
    /// versions this engine published, so their ids are unambiguous.
    partial: Option<Arc<PartialCache>>,
    /// Shared bind-time specialization cache: `USING (?, ?)` plans
    /// specialized per (statement, version, bound range), visible to every
    /// prepared handle of this engine.
    spec: SpecCache,
    /// The one-shot statement plan cache.
    plans: PlanCache,
}

#[derive(Default)]
struct PendingIngest {
    /// Copy-on-write working table, lazily cloned from the active
    /// version at the first ingest after a publish.
    table: Option<TimeSeriesTable>,
    delta: CatalogDelta,
}

impl EngineShared {
    pub(crate) fn new(version: CatalogVersion, config: &EngineConfig) -> Self {
        EngineShared {
            active: RwLock::new(Arc::new(version)),
            pending: Mutex::new(PendingIngest::default()),
            partial: partial_cache::enabled(config)
                .then(|| Arc::new(PartialCache::new(PARTIAL_CACHE_CAPACITY))),
            spec: SpecCache::new(SPEC_CACHE_CAPACITY),
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
        }
    }

    /// Snapshot the active version (a brief read lock to clone the Arc).
    pub(crate) fn snapshot(&self) -> Arc<CatalogVersion> {
        self.active.read().expect("engine version lock poisoned").clone()
    }

    /// The day-partial cache, if enabled.
    pub(crate) fn partial(&self) -> Option<&PartialCache> {
        self.partial.as_deref()
    }

    /// The shared bind-time specialization cache.
    pub(crate) fn spec(&self) -> &SpecCache {
        &self.spec
    }
}

/// The resolution of a one-shot statement string.
enum Resolved {
    Plan(Arc<LogicalPlan>),
    Explain(PlanNode),
}

/// The FlashP engine handle. See the [module docs](self) for the
/// pipeline; see [`SampleCatalog::build`] for the offline stage.
#[derive(Clone)]
pub struct FlashPEngine {
    shared: Arc<EngineShared>,
    config: Arc<EngineConfig>,
}

impl FlashPEngine {
    /// Wrap a table with the given configuration and no sample catalog.
    /// The table is shared via [`Arc`], so several engines can serve the
    /// same data without copying it. Only exact (rate = 1) queries can be
    /// answered; use [`FlashPEngine::with_catalog`] for sampled queries.
    pub fn new(table: impl Into<Arc<TimeSeriesTable>>, config: EngineConfig) -> Self {
        Self::from_version(CatalogVersion::new(table.into(), None), config)
    }

    /// An engine over a pre-built sample catalog: build the catalog once
    /// with [`SampleCatalog::build`] (the offline stage), then hand it to
    /// any number of engines.
    ///
    /// The catalog must have been built from this `table` (planning
    /// validates the schemas match and returns a configuration error for
    /// a mismatched catalog; a same-schema table with different contents
    /// cannot be detected).
    pub fn with_catalog(
        table: impl Into<Arc<TimeSeriesTable>>,
        config: EngineConfig,
        catalog: impl Into<Arc<SampleCatalog>>,
    ) -> Self {
        Self::from_version(CatalogVersion::new(table.into(), Some(catalog.into())), config)
    }

    fn from_version(version: CatalogVersion, config: EngineConfig) -> Self {
        FlashPEngine {
            shared: Arc::new(EngineShared::new(version, &config)),
            config: Arc::new(config),
        }
    }

    /// Snapshot the active [`CatalogVersion`]: the immutable `(table,
    /// catalog)` pair queries issued *now* would execute against.
    /// Everything reachable from the snapshot stays valid (and unchanged)
    /// for as long as the `Arc` is held, regardless of later publishes.
    pub fn snapshot(&self) -> Arc<CatalogVersion> {
        self.shared.snapshot()
    }

    /// The version number of the active snapshot; bumps on every
    /// [`FlashPEngine::publish`].
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// The active version's table.
    pub fn table(&self) -> Arc<TimeSeriesTable> {
        self.snapshot().table().clone()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active version's sample catalog, if any.
    pub fn catalog(&self) -> Option<Arc<SampleCatalog>> {
        self.snapshot().catalog().cloned()
    }

    /// Resolved measure groups (populated when a catalog built with a
    /// compressed sampler is attached).
    pub fn groups(&self) -> Vec<Vec<usize>> {
        self.snapshot().catalog().map(|c| c.groups().to_vec()).unwrap_or_default()
    }

    /// Plan-cache hit/miss counters for this engine's shared cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.shared.plans.stats()
    }

    /// Day-partial cache counters, or `None` when the cache is disabled
    /// (configuration or `FLASHP_NO_PARTIAL_CACHE=1`).
    pub fn partial_cache_stats(&self) -> Option<PartialCacheStats> {
        self.shared.partial().map(|c| c.stats())
    }

    /// Whether the day-partial cache is active for this engine.
    pub(crate) fn partial_enabled(&self) -> bool {
        self.shared.partial().is_some()
    }

    /// Snapshot the engine-level counters: active version numbers,
    /// plan-cache effectiveness, and the size of the staged-but-unpublished
    /// ingest backlog. See [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        let snapshot = self.snapshot();
        let (pending_rows, pending_partitions) = {
            let pending = self.shared.pending.lock().expect("ingest lock poisoned");
            (pending.delta.appended_rows(), pending.delta.num_changed())
        };
        EngineStats {
            version: snapshot.version(),
            catalog_version: snapshot.catalog().map(|c| c.version()),
            plan_cache: self.shared.plans.stats(),
            partial_cache: self.partial_cache_stats(),
            pending_rows,
            pending_partitions,
        }
    }

    /// Stage a batch of rows for ingestion. The rows are applied to a
    /// pending copy-on-write table and are **invisible to queries** until
    /// the next [`FlashPEngine::publish`]; several batches may accumulate
    /// into one publish. Returns the number of rows staged. Staging is
    /// all-or-nothing: a batch that fails partway (e.g. a type mismatch
    /// in its third item) leaves the pending state exactly as it was.
    /// Concurrent ingests (and an ingest racing a publish) serialize on
    /// an internal lock; queries are never blocked.
    pub fn ingest(&self, batch: IngestBatch) -> Result<usize, EngineError> {
        if batch.is_empty() {
            return Ok(0);
        }
        let mut pending = self.shared.pending.lock().expect("ingest lock poisoned");
        if pending.table.is_none() {
            pending.table = Some(self.shared.snapshot().table().as_ref().clone());
        }
        // Apply to a copy-on-write scratch clone so a mid-batch error
        // cannot leave the pending state half-staged (cloning shares
        // every partition via `Arc`; only the days the batch touches are
        // physically copied, and on the scratch, not the original).
        let mut table = pending.table.clone().expect("just initialized");
        let mut delta = pending.delta.clone();
        let appended = batch.apply(&mut table, &mut delta)?;
        pending.table = Some(table);
        pending.delta = delta;
        Ok(appended)
    }

    /// Publish everything staged since the last publish as a new
    /// [`CatalogVersion`]: derive the new sample catalog incrementally
    /// ([`SampleCatalog::apply_delta`] — only changed cells recomputed,
    /// grown GSW cells absorbed per §4.1), swap the active version
    /// atomically, and invalidate the replaced version's plan-cache
    /// entries.
    ///
    /// In-flight executions keep running, lock-free, against whichever
    /// version they snapshotted; new executions (including new calls on
    /// existing [`PreparedQuery`] handles) see the published version. A
    /// publish with nothing staged is a no-op that reports the current
    /// version.
    pub fn publish(&self) -> Result<PublishStats, EngineError> {
        let start = Instant::now();
        let mut pending = self.shared.pending.lock().expect("ingest lock poisoned");
        let old = self.shared.snapshot();
        if pending.table.is_none() || pending.delta.is_empty() {
            return Ok(PublishStats {
                version: old.version(),
                catalog_version: old.catalog().map(|c| c.version()),
                appended_rows: 0,
                changed_partitions: 0,
                delta: Default::default(),
                duration: start.elapsed(),
            });
        }
        // Derive the new catalog while still serving the old version —
        // the expensive part happens outside the swap lock and *before*
        // the pending state is consumed, so a derivation error leaves
        // every staged row in place for a later retry.
        let staged = pending.table.as_ref().expect("checked above");
        let (catalog, delta_stats) = match old.catalog() {
            Some(catalog) => {
                let (derived, stats) = catalog.apply_delta(staged, &self.config, &pending.delta)?;
                (Some(Arc::new(derived)), stats)
            }
            None => (None, Default::default()),
        };
        let table = pending.table.take().expect("checked above");
        let delta = std::mem::take(&mut pending.delta);
        let next = Arc::new(CatalogVersion::new(Arc::new(table), catalog));
        let stats = PublishStats {
            version: next.version(),
            catalog_version: next.catalog().map(|c| c.version()),
            appended_rows: delta.appended_rows(),
            changed_partitions: delta.num_changed(),
            delta: delta_stats,
            duration: start.elapsed(),
        };
        // The swap: a brief write lock — readers only ever hold this lock
        // long enough to clone the Arc, so no execution waits on another.
        *self.shared.active.write().expect("engine version lock poisoned") = next;
        self.shared.plans.purge_version(old.version());
        // Specialized plans are version-scoped like one-shot plans; the
        // day-partial cache needs no purge — its entries key on cell
        // identities, which the publish already retired structurally.
        self.shared.spec().purge_version(old.version());
        Ok(stats)
    }

    fn planner<'a>(&'a self, snapshot: &'a CatalogVersion) -> Planner<'a> {
        Planner::new(snapshot.table(), &self.config, snapshot.catalog().map(|c| c.as_ref()))
    }

    pub(crate) fn ctx<'a>(&'a self, snapshot: &'a CatalogVersion) -> ExecCtx<'a> {
        ExecCtx {
            table: snapshot.table(),
            config: &self.config,
            catalog: snapshot.catalog().map(|c| c.as_ref()),
            partial: self.shared.partial(),
        }
    }

    /// Plan a parsed statement (the `plan` stage, exposed for callers that
    /// parse or build statements themselves). Plans against the active
    /// version at the time of the call.
    pub fn plan(&self, stmt: &Statement) -> Result<LogicalPlan, EngineError> {
        self.planner(&self.snapshot()).plan(stmt)
    }

    /// Prepare a statement: parse, plan, and package into a `Send + Sync`
    /// [`PreparedQuery`] executable repeatedly (and concurrently) through
    /// `&self`. `?` placeholders in the constraint become parameters of
    /// [`PreparedQuery::execute_with`]. Each execution snapshots the
    /// engine's *then-active* version (re-planning lazily when a publish
    /// moved it), so the same prepared handle serves newly published
    /// data — including days outside the range the plan originally
    /// clamped to.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery, EngineError> {
        let stmt = parse(sql)?;
        if matches!(stmt, Statement::Explain(_)) {
            return Err(EngineError::WrongStatement { expected: "FORECAST or SELECT" });
        }
        let snapshot = self.snapshot();
        let plan = self.planner(&snapshot).plan(&stmt)?;
        // Key the shared specialization cache on the normalized statement
        // text, so equivalent prepares from any handle share entries.
        let stmt_key = crate::partial_cache::fnv64(normalize_sql(sql).as_bytes());
        Ok(PreparedQuery::new(
            self.shared.clone(),
            self.config.clone(),
            stmt,
            stmt_key,
            snapshot.version(),
            plan,
        ))
    }

    /// Plan a statement and render it as an `EXPLAIN` tree without
    /// executing. Accepts the statement with or without a leading
    /// `EXPLAIN` keyword. Sampled plans name the catalog version they
    /// were planned against.
    pub fn explain(&self, sql: &str) -> Result<PlanNode, EngineError> {
        let stmt = match parse(sql)? {
            Statement::Explain(inner) => *inner,
            other => other,
        };
        let snapshot = self.snapshot();
        let plan = self.planner(&snapshot).plan(&stmt)?;
        let mut node = explain_plan(&plan, snapshot.table().schema(), self.partial_enabled());
        crate::prepared::annotate_day_split(&self.ctx(&snapshot), &plan, &[], &mut node);
        Ok(node)
    }

    /// Resolve a one-shot statement string against `snapshot`: serve the
    /// plan from the plan cache when the normalized text matches and was
    /// planned against the same version, otherwise parse + plan and
    /// cache. `EXPLAIN` statements plan but render instead of executing
    /// (and are never cached — their output *is* the plan).
    fn resolve(&self, snapshot: &CatalogVersion, sql: &str) -> Result<Resolved, EngineError> {
        let key = (normalize_sql(sql), snapshot.version());
        // EXPLAIN statements bypass the cache outright — they are never
        // inserted, so probing would charge a phantom miss per call and
        // skew the hit-rate the stats report.
        let cacheable = !key.0.get(..8).is_some_and(|p| p.eq_ignore_ascii_case("EXPLAIN "));
        if cacheable {
            if let Some(plan) = self.shared.plans.map().get(&key) {
                return Ok(Resolved::Plan(plan));
            }
        }
        match parse(sql)? {
            Statement::Explain(inner) => {
                let plan = self.planner(snapshot).plan(&inner)?;
                let mut node =
                    explain_plan(&plan, snapshot.table().schema(), self.partial_enabled());
                crate::prepared::annotate_day_split(&self.ctx(snapshot), &plan, &[], &mut node);
                Ok(Resolved::Explain(node))
            }
            stmt => {
                let plan = Arc::new(self.planner(snapshot).plan(&stmt)?);
                self.shared.plans.map().insert(key, plan.clone());
                Ok(Resolved::Plan(plan))
            }
        }
    }

    /// Execute any statement. `EXPLAIN <stmt>` returns the rendered plan.
    pub fn execute(&self, sql: &str) -> Result<ExecOutput, EngineError> {
        let snapshot = self.snapshot();
        match self.resolve(&snapshot, sql)? {
            Resolved::Plan(plan) => self.ctx(&snapshot).execute_plan(&plan, &[]),
            Resolved::Explain(node) => Ok(ExecOutput::Plan(node)),
        }
    }

    /// Execute a FORECAST statement (errors on SELECT/EXPLAIN).
    pub fn forecast(&self, sql: &str) -> Result<ForecastResult, EngineError> {
        let snapshot = self.snapshot();
        match self.resolve(&snapshot, sql)? {
            Resolved::Plan(plan) => match &*plan {
                LogicalPlan::Forecast(p) => self.ctx(&snapshot).execute_forecast(p, &[]),
                LogicalPlan::Select(_) => Err(EngineError::WrongStatement { expected: "FORECAST" }),
            },
            Resolved::Explain(_) => Err(EngineError::WrongStatement { expected: "FORECAST" }),
        }
    }

    /// Execute a SELECT statement (errors on FORECAST/EXPLAIN).
    pub fn select(&self, sql: &str) -> Result<SelectResult, EngineError> {
        let snapshot = self.snapshot();
        match self.resolve(&snapshot, sql)? {
            Resolved::Plan(plan) => match &*plan {
                LogicalPlan::Select(p) => self.ctx(&snapshot).execute_select(p, &[]),
                LogicalPlan::Forecast(_) => Err(EngineError::WrongStatement { expected: "SELECT" }),
            },
            Resolved::Explain(_) => Err(EngineError::WrongStatement { expected: "SELECT" }),
        }
    }

    /// Estimate the per-timestamp aggregates over `[start, end]`. Rate 1
    /// runs the exact parallel scan; otherwise the cheapest adequate
    /// sample layer answers. Returns the points, the sampler label, and
    /// the rate actually used.
    pub fn estimate_series(
        &self,
        measure: usize,
        pred: &CompiledPredicate,
        agg: AggFunc,
        start: Timestamp,
        end: Timestamp,
        rate: f64,
    ) -> Result<(Vec<SeriesPoint>, String, f64), EngineError> {
        let snapshot = self.snapshot();
        let source = if rate >= 1.0 {
            ScanSource::FullScan { est_rows: 0 }
        } else {
            let catalog = snapshot.catalog().ok_or_else(EngineError::no_samples)?;
            catalog.check_schema(snapshot.table())?;
            let (layer_idx, layer) =
                catalog.select_layer(rate).ok_or_else(EngineError::no_samples)?;
            ScanSource::SampleLayer {
                layer: layer_idx,
                rate: layer.rate,
                sampler: layer.sampler_label.clone(),
                // `day_partials` rejects an out-of-range measure before it
                // reads the bucket.
                bucket: layer.measure_bucket.get(measure).copied().unwrap_or_default(),
                est_rows: 0,
                rationale: String::new(),
                catalog_version: catalog.version(),
            }
        };
        let days = self.ctx(&snapshot).day_partials(&source, measure, pred, start, end)?;
        let sampled = matches!(source, ScanSource::SampleLayer { .. });
        let points = training_series(&days, (start, end), agg, sampled)?;
        Ok((points, source.sampler_label().to_string(), source.rate_used()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GroupingPolicy, SamplerChoice};
    use crate::test_support::test_table;
    use flashp_storage::Value;

    /// An engine over `table` with a catalog built from it.
    fn built(table: TimeSeriesTable, config: EngineConfig) -> FlashPEngine {
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        FlashPEngine::with_catalog(table, config, catalog)
    }

    fn engine(sampler: SamplerChoice) -> FlashPEngine {
        let config = EngineConfig {
            layer_rates: vec![0.2, 0.05],
            sampler,
            default_rate: 0.05,
            ..Default::default()
        };
        built(test_table(), config)
    }

    const FORECAST_SQL: &str = "FORECAST SUM(m1) FROM T WHERE seg <= 5 \
         USING (20200101, 20200202) OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)";

    #[test]
    fn full_rate_pipeline_end_to_end() {
        let e = engine(SamplerChoice::Uniform);
        let sql = "FORECAST SUM(m1) FROM T WHERE seg <= 5 USING (20200101, 20200202) \
                   OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5, SAMPLE_RATE = 1.0)";
        let r = e.forecast(sql).unwrap();
        assert_eq!(r.estimates.len(), 33);
        assert_eq!(r.forecasts.len(), 5);
        assert_eq!(r.rate_used, 1.0);
        assert_eq!(r.sampler, "full scan");
        assert_eq!(r.mean_noise_variance, 0.0);
        assert!(r.forecasts.iter().all(|f| f.lo <= f.value && f.value <= f.hi));
        // Forecast timestamps continue the training range.
        assert_eq!(r.forecasts[0].t.to_yyyymmdd(), 20200203);
    }

    #[test]
    fn sampled_estimates_track_exact_series() {
        for sampler in [
            SamplerChoice::Uniform,
            SamplerChoice::OptimalGsw,
            SamplerChoice::Priority,
            SamplerChoice::Threshold,
            SamplerChoice::ArithmeticGsw,
            SamplerChoice::GeometricGsw,
        ] {
            let e = engine(sampler.clone());
            let pred = e
                .table()
                .compile_predicate(&flashp_storage::Predicate::cmp(
                    "seg",
                    flashp_storage::CmpOp::Le,
                    5,
                ))
                .unwrap();
            let start = Timestamp::from_yyyymmdd(20200101).unwrap();
            let end = start + 32;
            let (exact_points, _, _) =
                e.estimate_series(0, &pred, AggFunc::Sum, start, end, 1.0).unwrap();
            let (approx_points, label, rate) =
                e.estimate_series(0, &pred, AggFunc::Sum, start, end, 0.2).unwrap();
            assert_eq!(rate, 0.2);
            assert_eq!(label, sampler.label());
            let exact_vals: Vec<f64> = exact_points.iter().map(|p| p.value).collect();
            let approx_vals: Vec<f64> = approx_points.iter().map(|p| p.value).collect();
            let err =
                flashp_forecast::metrics::mean_relative_error(&approx_vals, &exact_vals).unwrap();
            assert!(err < 0.5, "{}: mean relative error {err}", sampler.label());
        }
    }

    #[test]
    fn forecast_on_samples_works() {
        let e = engine(SamplerChoice::OptimalGsw);
        let r = e.forecast(FORECAST_SQL).unwrap();
        assert_eq!(r.rate_used, 0.05);
        assert!(r.mean_noise_variance > 0.0);
        assert!(r.estimates.iter().all(|p| p.variance.is_some()));
        assert!(r.forecast_values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn noise_aware_widen() {
        let e = engine(SamplerChoice::OptimalGsw);
        let base = e.forecast(FORECAST_SQL).unwrap();
        let wide = e
            .forecast(&FORECAST_SQL.replace("FORE_PERIOD = 5", "FORE_PERIOD = 5, NOISE_AWARE = 1"))
            .unwrap();
        assert!(wide.mean_interval_width() > base.mean_interval_width());
    }

    #[test]
    fn select_group_by_time() {
        let e = engine(SamplerChoice::Uniform);
        let r = e
            .select(
                "SELECT SUM(m1) FROM T WHERE seg <= 5 AND t >= 20200101 AND t <= 20200105 GROUP BY t",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        assert!(!r.approximate);
        // Matches the per-day engine estimate at rate 1.
        let table = e.table();
        let pred = table
            .compile_predicate(&flashp_storage::Predicate::cmp("seg", flashp_storage::CmpOp::Le, 5))
            .unwrap();
        let t0 = Timestamp::from_yyyymmdd(20200101).unwrap();
        let exact = table.aggregate_at(t0, 0, &pred, AggFunc::Sum).unwrap();
        assert_eq!(r.rows[0].1, exact);
    }

    #[test]
    fn select_scalar_and_point() {
        let e = engine(SamplerChoice::Uniform);
        let one = e.select("SELECT COUNT(*) FROM T WHERE t = 20200101").unwrap();
        assert_eq!(one.rows.len(), 1);
        assert_eq!(one.rows[0].1, 400.0);
        let range =
            e.select("SELECT COUNT(*) FROM T WHERE t BETWEEN 20200101 AND 20200103").unwrap();
        assert_eq!(range.rows[0].1, 1200.0);
        // Out-of-table range clamps to empty.
        let empty = e.select("SELECT SUM(m1) FROM T WHERE t >= 20300101").unwrap();
        assert!(empty.rows.is_empty());
    }

    #[test]
    fn approximate_select_carries_std_err() {
        let e = engine(SamplerChoice::OptimalGsw);
        let r = e
            .select(
                "SELECT SUM(m1) FROM T WHERE seg <= 5 AND t BETWEEN 20200101 AND 20200105 \
                 GROUP BY t OPTION (SAMPLE_RATE = 0.2)",
            )
            .unwrap();
        assert!(r.approximate);
        assert_eq!(r.rows.len(), 5);
        assert!(r.rows.iter().all(|(_, v, se)| *v > 0.0 && se.unwrap() > 0.0));
        // Scalar approximate SUM: std_err adds in quadrature over days.
        let scalar = e
            .select(
                "SELECT SUM(m1) FROM T WHERE seg <= 5 AND t BETWEEN 20200101 AND 20200105 \
                 OPTION (SAMPLE_RATE = 0.2)",
            )
            .unwrap();
        assert!(scalar.approximate);
        assert_eq!(scalar.rows.len(), 1);
        let (_, value, std_err) = scalar.rows[0];
        assert_eq!(value, r.rows.iter().map(|(_, v, _)| v).sum::<f64>());
        let var_sum: f64 = r.rows.iter().map(|(_, _, se)| se.unwrap().powi(2)).sum();
        assert!((std_err.unwrap() - var_sum.sqrt()).abs() < 1e-9);
        // AVG has no plug-in variance but still estimates.
        let avg = e
            .select(
                "SELECT AVG(m1) FROM T WHERE t BETWEEN 20200101 AND 20200105 \
                 OPTION (SAMPLE_RATE = 0.2)",
            )
            .unwrap();
        assert!(avg.approximate);
        assert!(avg.rows[0].1 > 0.0);
        assert!(avg.rows[0].2.is_none());
    }

    #[test]
    fn mismatched_catalog_is_a_typed_error() {
        use flashp_storage::{DataType, Schema};
        // Catalog built from a 1-measure table…
        let schema = Schema::from_names(&[("seg", DataType::Int64)], &["m"]).unwrap().into_shared();
        let mut small = flashp_storage::TimeSeriesTable::new(schema);
        let t0 = Timestamp::from_yyyymmdd(20200101).unwrap();
        for day in 0..5i64 {
            for row in 0..100i64 {
                small.append_row(t0 + day, &[Value::Int(row % 10)], &[1.0]).unwrap();
            }
        }
        let config = EngineConfig {
            layer_rates: vec![0.5],
            sampler: SamplerChoice::OptimalGsw,
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&small, &config).unwrap();
        // …attached to a 2-measure table: sampled queries on the second
        // measure must error cleanly, not index out of bounds.
        let e = FlashPEngine::with_catalog(test_table(), config, catalog);
        let err = e.forecast("FORECAST SUM(m2) FROM T USING (20200101, 20200105)").unwrap_err();
        assert!(
            matches!(err, EngineError::Config(ref msg) if msg.contains("different schema")),
            "got: {err}"
        );
        // Exact queries never touch the catalog and still work.
        assert!(e
            .forecast(
                "FORECAST SUM(m2) FROM T USING (20200101, 20200105) \
                 OPTION (SAMPLE_RATE = 1.0, MODEL = 'naive')"
            )
            .is_ok());
    }

    #[test]
    fn approximate_select_tolerates_partition_gaps() {
        // A table with a hole (no rows on day 2): the sampled SELECT must
        // answer wherever the exact SELECT answers, skipping absent days.
        use flashp_storage::{DataType, Schema};
        let schema = Schema::from_names(&[("seg", DataType::Int64)], &["m"]).unwrap().into_shared();
        let mut table = flashp_storage::TimeSeriesTable::new(schema);
        let t0 = Timestamp::from_yyyymmdd(20200101).unwrap();
        for day in [0i64, 2, 3] {
            for row in 0..200i64 {
                table.append_row(t0 + day, &[Value::Int(row % 10)], &[1.0 + row as f64]).unwrap();
            }
        }
        let config = EngineConfig {
            layer_rates: vec![0.5],
            sampler: SamplerChoice::Uniform,
            ..Default::default()
        };
        let e = built(table, config);
        let sql = "SELECT SUM(m) FROM T WHERE t BETWEEN 20200101 AND 20200104 GROUP BY t";
        let exact = e.select(sql).unwrap();
        assert_eq!(exact.rows.len(), 3, "exact path skips the missing day");
        let approx = e.select(&format!("{sql} OPTION (SAMPLE_RATE = 0.5)")).unwrap();
        assert_eq!(approx.rows.len(), 3, "sampled path must skip it too");
        assert_eq!(
            exact.rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            approx.rows.iter().map(|r| r.0).collect::<Vec<_>>()
        );
        // Scalar form too.
        let scalar = e
            .select(
                "SELECT SUM(m) FROM T WHERE t BETWEEN 20200101 AND 20200104 \
                 OPTION (SAMPLE_RATE = 0.5)",
            )
            .unwrap();
        assert_eq!(scalar.rows.len(), 1);
        assert!(scalar.rows[0].1 > 0.0);
        // FORECAST still requires a contiguous training series.
        let fc = e
            .forecast("FORECAST SUM(m) FROM T USING (20200101, 20200104) OPTION (MODEL = 'naive')");
        assert!(matches!(fc, Err(EngineError::SamplesUnavailable(_))));
    }

    #[test]
    fn execute_dispatches() {
        let e = engine(SamplerChoice::Uniform);
        match e.execute(FORECAST_SQL).unwrap() {
            ExecOutput::Forecast(f) => assert_eq!(f.forecasts.len(), 5),
            _ => panic!("expected forecast output"),
        }
        match e.execute("SELECT SUM(m1) FROM T WHERE t = 20200101").unwrap() {
            ExecOutput::Select(s) => assert_eq!(s.rows.len(), 1),
            _ => panic!("expected select output"),
        }
        match e.execute(&format!("EXPLAIN {FORECAST_SQL}")).unwrap() {
            ExecOutput::Plan(node) => assert_eq!(node.name, "Forecast"),
            _ => panic!("expected a plan"),
        }
        assert!(matches!(e.select(FORECAST_SQL), Err(EngineError::WrongStatement { .. })));
    }

    #[test]
    fn plan_cache_hits_and_results_are_identical() {
        let e = engine(SamplerChoice::OptimalGsw);
        let first = e.forecast(FORECAST_SQL).unwrap();
        let before = e.plan_cache_stats();
        // Same statement, different whitespace: normalization still hits.
        let respaced = FORECAST_SQL.replace(' ', "  ");
        let second = e.forecast(&respaced).unwrap();
        let after = e.plan_cache_stats();
        assert!(after.hits > before.hits, "expected a plan-cache hit");
        assert_eq!(first.estimate_values(), second.estimate_values());
        assert_eq!(first.forecast_values(), second.forecast_values());
        // Clones share the cache.
        let clone = e.clone();
        let third = clone.forecast(FORECAST_SQL).unwrap();
        assert!(clone.plan_cache_stats().hits > after.hits);
        assert_eq!(first.forecast_values(), third.forecast_values());
    }

    #[test]
    fn prepared_query_matches_one_shot() {
        let e = engine(SamplerChoice::OptimalGsw);
        let prepared = e.prepare(FORECAST_SQL).unwrap();
        assert_eq!(prepared.num_params(), 0);
        let one_shot = e.forecast(FORECAST_SQL).unwrap();
        for _ in 0..3 {
            let r = prepared.forecast_with(&[]).unwrap();
            assert_eq!(r.estimate_values(), one_shot.estimate_values());
            assert_eq!(r.forecast_values(), one_shot.forecast_values());
            assert_eq!(r.sampler, one_shot.sampler);
            assert_eq!(r.rate_used, one_shot.rate_used);
        }
    }

    #[test]
    fn prepared_parameters_rebind() {
        use flashp_query::Literal;
        let e = engine(SamplerChoice::OptimalGsw);
        let template = e
            .prepare(
                "FORECAST SUM(m1) FROM T WHERE seg <= ? USING (20200101, 20200202) \
                 OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
            )
            .unwrap();
        assert_eq!(template.num_params(), 1);
        for bound in [3i64, 5, 7] {
            let from_template = template.forecast_with(&[Literal::Int(bound)]).unwrap();
            let fresh =
                e.forecast(&FORECAST_SQL.replace("seg <= 5", &format!("seg <= {bound}"))).unwrap();
            assert_eq!(from_template.estimate_values(), fresh.estimate_values());
            assert_eq!(from_template.forecast_values(), fresh.forecast_values());
        }
        // Wrong arity errors cleanly.
        assert!(matches!(template.forecast_with(&[]), Err(EngineError::Parameter(_))));
        assert!(matches!(
            template.forecast_with(&[Literal::Int(1), Literal::Int(2)]),
            Err(EngineError::Parameter(_))
        ));
        // One-shot execution of a parameterized statement is an error.
        assert!(e
            .forecast("FORECAST SUM(m1) FROM T WHERE seg <= ? USING (20200101, 20200202)")
            .is_err());
    }

    #[test]
    fn prepared_using_parameters_match_literal_statements() {
        use flashp_query::Literal;
        let e = engine(SamplerChoice::OptimalGsw);
        let template = e
            .prepare(
                "FORECAST SUM(m1) FROM T WHERE seg <= 5 USING (?, ?) \
                 OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
            )
            .unwrap();
        assert_eq!(template.num_params(), 2);
        assert_eq!(template.specialization_count(), 0);
        for (lo, hi) in [(20200101, 20200202), (20200105, 20200131), (20200103, 20200207)] {
            let bound = template.forecast_with(&[Literal::Int(lo), Literal::Int(hi)]).unwrap();
            let fresh = e
                .forecast(&FORECAST_SQL.replace("(20200101, 20200202)", &format!("({lo}, {hi})")))
                .unwrap();
            assert_eq!(bound.estimate_values(), fresh.estimate_values());
            assert_eq!(bound.forecast_values(), fresh.forecast_values());
            assert_eq!(bound.sampler, fresh.sampler);
            assert_eq!(bound.rate_used, fresh.rate_used);
        }
        assert_eq!(template.specialization_count(), 3);
        // Re-binding an already-seen range reuses its specialization.
        template.forecast_with(&[Literal::Int(20200101), Literal::Int(20200202)]).unwrap();
        assert_eq!(template.specialization_count(), 3);

        // The unbound EXPLAIN shows a deferred source; binding shows the
        // concrete per-binding range and layer choice.
        let unbound = template.explain().unwrap();
        assert_eq!(unbound.find_prop("range"), Some("dynamic"));
        assert!(unbound.find("BindTimeSource").is_some());
        let bound =
            template.explain_with(&[Literal::Int(20200101), Literal::Int(20200202)]).unwrap();
        assert_eq!(bound.find_prop("range"), Some("20200101..20200202"));
        assert!(bound.find("SampleEstimate").is_some());
        assert!(bound.find_prop("rationale").is_some());
    }

    #[test]
    fn prepared_using_parameter_errors_are_typed() {
        use flashp_query::Literal;
        let e = engine(SamplerChoice::OptimalGsw);
        let fc =
            e.prepare("FORECAST SUM(m1) FROM T USING (?, ?) OPTION (MODEL = 'naive')").unwrap();
        // Reversed window: a typed Config error, not a panic.
        let err = fc.forecast_with(&[Literal::Int(20200202), Literal::Int(20200101)]).unwrap_err();
        assert!(matches!(err, EngineError::Config(ref m) if m.contains("reversed")), "{err}");
        // Impossible calendar date names the offending placeholder.
        let err = fc.forecast_with(&[Literal::Int(20200230), Literal::Int(20200301)]).unwrap_err();
        assert!(matches!(err, EngineError::Parameter(ref m) if m.contains("?0")), "{err}");
        // Wrong type, missing values.
        let err =
            fc.forecast_with(&[Literal::Str("x".into()), Literal::Int(20200201)]).unwrap_err();
        assert!(matches!(err, EngineError::Parameter(_)), "{err}");
        assert!(matches!(fc.forecast_with(&[]), Err(EngineError::Parameter(_))));

        // SELECT: inverted or fully out-of-table bindings are the empty
        // result — same as their literal counterparts — never a panic.
        let sel = e.prepare("SELECT SUM(m1) FROM T WHERE t BETWEEN ? AND ? GROUP BY t").unwrap();
        let inverted = sel.select_with(&[Literal::Int(20200210), Literal::Int(20200105)]).unwrap();
        assert!(inverted.rows.is_empty());
        let outside = sel.select_with(&[Literal::Int(20300101), Literal::Int(20300131)]).unwrap();
        assert!(outside.rows.is_empty());
        // A partially overlapping binding clamps to the table bounds.
        let clamped = sel.select_with(&[Literal::Int(20191201), Literal::Int(20200103)]).unwrap();
        assert_eq!(clamped.rows.len(), 3);
        assert!(matches!(
            sel.select_with(&[Literal::Int(20200230), Literal::Int(20200301)]),
            Err(EngineError::Parameter(_))
        ));
    }

    #[test]
    fn engine_handle_is_cheap_and_shareable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<FlashPEngine>();
        assert_send_sync::<std::sync::Arc<PreparedQuery>>();

        let e = engine(SamplerChoice::Uniform);
        let prepared = std::sync::Arc::new(e.prepare(FORECAST_SQL).unwrap());
        let baseline = prepared.forecast_with(&[]).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let prepared = prepared.clone();
                let baseline = baseline.forecast_values();
                scope.spawn(move || {
                    let r = prepared.forecast_with(&[]).unwrap();
                    assert_eq!(r.forecast_values(), baseline);
                });
            }
        });
    }

    #[test]
    fn explain_reports_what_executes() {
        let e = engine(SamplerChoice::OptimalGsw);
        let node = e.explain(FORECAST_SQL).unwrap();
        let est = node.find("SampleEstimate").expect("sampled plan");
        let planned_rate: f64 = est.prop("rate").unwrap().parse().unwrap();
        let planned_sampler = est.prop("sampler").unwrap().to_string();
        // The catalog version in the plan is the active catalog's.
        let planned_version: u64 = est.prop("catalog_version").unwrap().parse().unwrap();
        assert_eq!(planned_version, e.catalog().unwrap().version());
        let r = e.forecast(FORECAST_SQL).unwrap();
        assert_eq!(r.rate_used, planned_rate);
        assert_eq!(r.sampler, planned_sampler);
    }

    #[test]
    fn errors_for_misuse() {
        let e = engine(SamplerChoice::Uniform);
        // Unknown measure.
        assert!(e.forecast("FORECAST SUM(nope) FROM T USING (20200101, 20200110)").is_err());
        // Reversed range.
        assert!(e.forecast("FORECAST SUM(m1) FROM T USING (20200110, 20200101)").is_err());
        // COUNT(*) with SUM.
        assert!(e.forecast("FORECAST SUM(*) FROM T USING (20200101, 20200110)").is_err());
        // Bad sample rate.
        assert!(e
            .forecast(
                "FORECAST SUM(m1) FROM T USING (20200101, 20200131) OPTION (SAMPLE_RATE = 3.0)"
            )
            .is_err());
        // Non-positive horizon must not wrap through `as usize`.
        assert!(e
            .forecast(
                "FORECAST SUM(m1) FROM T USING (20200101, 20200131) OPTION (FORE_PERIOD = -1)"
            )
            .is_err());
        assert!(e
            .forecast("FORECAST SUM(m1) FROM T USING (20200101, 20200131) OPTION (FORE_PERIOD = 0)")
            .is_err());
        // A template referencing an unknown column fails at prepare, not
        // at first execution.
        assert!(e
            .prepare("FORECAST SUM(m1) FROM T WHERE no_such_col <= ? USING (20200101, 20200131)")
            .is_err());
        // Range beyond the table at full rate.
        assert!(e
            .forecast(
                "FORECAST SUM(m1) FROM T USING (20200101, 20300101) OPTION (SAMPLE_RATE = 1.0)"
            )
            .is_err());
    }

    #[test]
    fn unbuilt_engine_rejects_sampled_queries_but_allows_exact() {
        let e = FlashPEngine::new(test_table(), EngineConfig::default());
        let sampled = e.forecast(FORECAST_SQL);
        assert!(matches!(sampled, Err(EngineError::SamplesUnavailable(_))));
        let exact = e.forecast(
            "FORECAST SUM(m1) FROM T USING (20200101, 20200202) \
             OPTION (MODEL = 'naive', SAMPLE_RATE = 1.0)",
        );
        assert!(exact.is_ok());
    }

    #[test]
    fn table_name_validation() {
        let config = EngineConfig { table_name: Some("ads".to_string()), ..Default::default() };
        let e = FlashPEngine::new(test_table(), config);
        assert!(e
            .forecast(
                "FORECAST SUM(m1) FROM wrong USING (20200101, 20200131) OPTION (SAMPLE_RATE = 1.0)"
            )
            .is_err());
        assert!(e
            .forecast(
                "FORECAST SUM(m1) FROM ADS USING (20200101, 20200202) OPTION (SAMPLE_RATE = 1.0, MODEL = 'naive')"
            )
            .is_ok());
    }

    #[test]
    fn grouping_policies() {
        // Auto grouping with 2 groups on 2 proportional measures collapses
        // to nearly zero radius; explicit grouping validates coverage.
        let config = EngineConfig {
            sampler: SamplerChoice::ArithmeticGsw,
            grouping: GroupingPolicy::Auto { num_groups: 2 },
            layer_rates: vec![0.1],
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&test_table(), &config).unwrap();
        let stats = catalog.stats();
        assert!(!stats.groups.is_empty());
        let total: usize = stats.groups.iter().map(Vec::len).sum();
        assert_eq!(total, 2);

        let bad = EngineConfig {
            sampler: SamplerChoice::ArithmeticGsw,
            grouping: GroupingPolicy::Explicit(vec![vec![0]]),
            ..Default::default()
        };
        assert!(
            SampleCatalog::build(&test_table(), &bad).is_err(),
            "groups must cover every measure"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let mk = || {
            let config = EngineConfig {
                layer_rates: vec![0.1],
                sampler: SamplerChoice::OptimalGsw,
                ..Default::default()
            };
            let e = built(test_table(), config);
            let pred = e.table().compile_predicate(&flashp_storage::Predicate::True).unwrap();
            let start = Timestamp::from_yyyymmdd(20200101).unwrap();
            let (points, _, _) =
                e.estimate_series(0, &pred, AggFunc::Sum, start, start + 10, 0.1).unwrap();
            points.iter().map(|p| p.value).collect::<Vec<f64>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn normalize_sql_collapses_whitespace_outside_strings() {
        assert_eq!(normalize_sql("  SELECT   SUM(m)\n FROM  T "), "SELECT SUM(m) FROM T");
        assert_eq!(normalize_sql("x = 'a  b'  AND y = 1"), "x = 'a  b' AND y = 1");
        assert_eq!(normalize_sql("x = \"a  b\""), "x = \"a  b\"");
    }

    #[test]
    fn plan_cache_keeps_touched_plans_and_scopes_versions() {
        let cache = PlanCache::new(2);
        let plan = || {
            Arc::new(LogicalPlan::Select(crate::planner::SelectPlan {
                agg: AggFunc::Sum,
                measure: 0,
                measure_name: "m".to_string(),
                predicate: crate::planner::PredicateSlot::Compiled(
                    flashp_storage::CompiledPredicate::Const(true),
                ),
                range: crate::planner::TimeRangeSlot::Static(None),
                rate: 1.0,
                group_by_time: false,
                num_params: 0,
                source: crate::planner::SourceSlot::Planned(crate::planner::ScanSource::FullScan {
                    est_rows: 0,
                }),
            }))
        };
        let insert = |sql: &str, version| cache.map().insert((sql.to_string(), version), plan());
        let hit = |sql: &str, version| cache.map().get(&(sql.to_string(), version)).is_some();
        insert("a", 1);
        insert("b", 1);
        assert!(hit("a", 1)); // touch a
        insert("c", 1);
        // a was touched within the last capacity / 2 inserts, so the
        // bound keeps it; c is the newest; that leaves no room for b.
        assert!(hit("a", 1));
        assert!(!hit("b", 1));
        assert!(hit("c", 1));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!((cache.stats().hits, cache.stats().misses), (3, 1));
        // A different version never sees another version's plans, but the
        // entry survives for handles still serving its version.
        assert!(!hit("a", 2));
        assert!(hit("a", 1));
        // Purging a replaced version drops exactly its entries.
        insert("d", 2);
        cache.purge_version(1);
        assert!(!hit("a", 1));
        assert!(hit("d", 2));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn ingest_is_invisible_until_publish() {
        let e = engine(SamplerChoice::OptimalGsw);
        let v0 = e.version();
        let count_sql = "SELECT COUNT(*) FROM T WHERE t = 20200101";
        assert_eq!(e.select(count_sql).unwrap().rows[0].1, 400.0);

        let mut batch = IngestBatch::new();
        let t = Timestamp::from_yyyymmdd(20200101).unwrap();
        for row in 0..50i64 {
            batch.push_row(t, &[Value::Int(row % 10), Value::from("a")], &[500.0, 50.0]);
        }
        assert_eq!(e.ingest(batch).unwrap(), 50);
        // Still invisible: same version, same answer.
        assert_eq!(e.version(), v0);
        assert_eq!(e.select(count_sql).unwrap().rows[0].1, 400.0);

        let stats = e.publish().unwrap();
        assert!(stats.version > v0);
        assert_eq!(stats.appended_rows, 50);
        assert_eq!(stats.changed_partitions, 1);
        assert_eq!(e.version(), stats.version);
        assert_eq!(e.select(count_sql).unwrap().rows[0].1, 450.0);
        // Clones observe the publish (same shared slot).
        assert_eq!(e.clone().select(count_sql).unwrap().rows[0].1, 450.0);

        // Publishing with nothing staged is a no-op.
        let idle = e.publish().unwrap();
        assert_eq!(idle.version, stats.version);
        assert_eq!(idle.appended_rows, 0);
    }

    #[test]
    fn prepared_handle_serves_published_data() {
        let e = engine(SamplerChoice::Uniform);
        let prepared = e.prepare("SELECT SUM(m1) FROM T WHERE t = 20200102").unwrap();
        let before = prepared.select_with(&[]).unwrap().rows[0].1;

        let mut batch = IngestBatch::new();
        let t = Timestamp::from_yyyymmdd(20200102).unwrap();
        batch.push_row(t, &[Value::Int(0), Value::from("a")], &[1000.0, 100.0]);
        e.ingest(batch).unwrap();
        // Unpublished: the prepared handle still answers from the old
        // version.
        assert_eq!(prepared.select_with(&[]).unwrap().rows[0].1, before);
        e.publish().unwrap();
        // Published: the *same* prepared handle sees the new rows.
        let after = prepared.select_with(&[]).unwrap().rows[0].1;
        assert!((after - (before + 1000.0)).abs() < 1e-6, "{after} vs {before}");
    }

    #[test]
    fn publish_scopes_plan_cache_to_the_new_version() {
        let e = engine(SamplerChoice::OptimalGsw);
        e.forecast(FORECAST_SQL).unwrap(); // plan cached at v0
        let hits0 = e.plan_cache_stats().hits;
        e.forecast(FORECAST_SQL).unwrap(); // hits at v0
        assert!(e.plan_cache_stats().hits > hits0);

        let mut batch = IngestBatch::new();
        let t = Timestamp::from_yyyymmdd(20200103).unwrap();
        batch.push_row(t, &[Value::Int(1), Value::from("b")], &[900.0, 90.0]);
        e.ingest(batch).unwrap();
        e.publish().unwrap();

        // The v0-scoped entry was purged; the first post-publish execution
        // re-plans (miss), the second hits at the new version.
        let (hits1, misses1) = {
            let s = e.plan_cache_stats();
            (s.hits, s.misses)
        };
        e.forecast(FORECAST_SQL).unwrap();
        let s = e.plan_cache_stats();
        assert_eq!(s.hits, hits1, "stale plan must not be served");
        assert!(s.misses > misses1);
        e.forecast(FORECAST_SQL).unwrap();
        assert!(e.plan_cache_stats().hits > hits1);
    }

    #[test]
    fn explain_does_not_inflate_plan_cache_misses() {
        let e = engine(SamplerChoice::OptimalGsw);
        let s0 = e.plan_cache_stats();
        for _ in 0..3 {
            e.execute(&format!("EXPLAIN {FORECAST_SQL}")).unwrap();
        }
        let s1 = e.plan_cache_stats();
        assert_eq!(s1.misses, s0.misses, "EXPLAIN must not count as a cache miss");
        assert_eq!(s1.hits, s0.hits);
        assert_eq!(s1.entries, s0.entries, "EXPLAIN output is never cached");
    }

    #[test]
    fn stats_snapshot_tracks_ingest_and_publish() {
        let e = engine(SamplerChoice::OptimalGsw);
        let s0 = e.stats();
        assert_eq!(s0.version, e.version());
        assert_eq!(s0.catalog_version, e.catalog().map(|c| c.version()));
        assert_eq!((s0.pending_rows, s0.pending_partitions), (0, 0));

        let mut batch = IngestBatch::new();
        let t = Timestamp::from_yyyymmdd(20200103).unwrap();
        for row in 0..30i64 {
            batch.push_row(t, &[Value::Int(row % 10), Value::from("b")], &[900.0, 90.0]);
        }
        e.ingest(batch).unwrap();
        let staged = e.stats();
        assert_eq!(staged.version, s0.version, "staging does not bump the version");
        assert_eq!((staged.pending_rows, staged.pending_partitions), (30, 1));

        e.publish().unwrap();
        let published = e.stats();
        assert!(published.version > s0.version);
        assert_eq!((published.pending_rows, published.pending_partitions), (0, 0));

        // Plan-cache counters ride along; clones see the same stats.
        e.forecast(FORECAST_SQL).unwrap();
        e.forecast(FORECAST_SQL).unwrap();
        let s = e.clone().stats();
        assert_eq!(s.plan_cache, e.plan_cache_stats());
        assert!(s.plan_cache.hits >= 1);
    }

    #[test]
    fn plan_cache_counters_track_parameterized_statements_across_publishes() {
        let e = engine(SamplerChoice::OptimalGsw);
        // A parameterized statement plans (and caches) fine; one-shot
        // execution then fails arity because no parameters can be bound.
        let sql = "SELECT SUM(m1) FROM T WHERE seg <= ? AND t BETWEEN ? AND ? GROUP BY t";
        let s0 = e.plan_cache_stats();
        assert!(matches!(e.execute(sql), Err(EngineError::Parameter(_))));
        let s1 = e.plan_cache_stats();
        assert_eq!(s1.misses, s0.misses + 1, "first resolve is exactly one miss");
        assert_eq!(s1.entries, s0.entries + 1, "the template plan is cached");
        assert!(matches!(e.execute(sql), Err(EngineError::Parameter(_))));
        let s2 = e.plan_cache_stats();
        assert_eq!((s2.hits, s2.misses), (s1.hits + 1, s1.misses), "second resolve hits");

        // Publishing purges the replaced version's entries: the next
        // resolve is a miss again, and the entry count never double-counts.
        let mut batch = IngestBatch::new();
        let t = Timestamp::from_yyyymmdd(20200103).unwrap();
        batch.push_row(t, &[Value::Int(1), Value::from("b")], &[900.0, 90.0]);
        e.ingest(batch).unwrap();
        e.publish().unwrap();
        assert!(matches!(e.execute(sql), Err(EngineError::Parameter(_))));
        let s3 = e.plan_cache_stats();
        assert_eq!(s3.misses, s2.misses + 1, "purged entry cannot be served");
        assert_eq!(s3.entries, s2.entries, "purge then re-insert is net zero entries");
    }
}
