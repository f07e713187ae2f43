//! The planning stage of the staged query pipeline:
//! `parse → plan → prepare → execute`.
//!
//! A [`Planner`] turns a parsed [`Statement`] into a typed [`LogicalPlan`]
//! with every name resolved, every option defaulted and validated, the
//! predicate constant-folded against the table's dictionaries, and —
//! for sampled queries — the serving sample layer chosen up front, with
//! its selection rationale recorded. Executing a plan performs no further
//! binding, so a plan (or a [`crate::PreparedQuery`] wrapping one) can run
//! repeatedly and concurrently.

use crate::catalog::SampleCatalog;
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::models::build_model;
use flashp_query::{
    bind_expr, split_select_constraint, Expr, ForecastStmt, Literal, OptionValue, SelectStmt,
    Statement, TimeBound, TimeEndpoint, TimeWindow, UsingClause,
};
use flashp_storage::{AggFunc, CompiledPredicate, TimeSeriesTable, Timestamp};

/// The `OPTION (…)` keys a FORECAST statement accepts.
const FORECAST_OPTIONS: [&str; 5] =
    ["SAMPLE_RATE", "MODEL", "FORE_PERIOD", "CONFIDENCE", "NOISE_AWARE"];

/// The `OPTION (…)` keys a SELECT statement accepts.
const SELECT_OPTIONS: [&str; 1] = ["SAMPLE_RATE"];

/// Reject the first `OPTION (…)` key outside `accepted` (compared
/// case-insensitively, like option lookup). The clause is a declarative
/// contract, so a misspelt key must fail the plan rather than leave its
/// setting at the default.
fn check_option_keys(
    kind: &str,
    options: &[(String, OptionValue)],
    accepted: &[&str],
) -> Result<(), EngineError> {
    match options.iter().find(|(k, _)| !accepted.iter().any(|a| k.eq_ignore_ascii_case(a))) {
        Some((key, _)) => Err(EngineError::Config(format!(
            "unknown {kind} option {key} (accepted: {})",
            accepted.join(", ")
        ))),
        None => Ok(()),
    }
}

/// Resolve and validate a `SAMPLE_RATE` option (shared by FORECAST and
/// SELECT planning).
fn sample_rate_option(option: Option<&OptionValue>, default: f64) -> Result<f64, EngineError> {
    let rate = match option {
        Some(v) => v
            .as_float()
            .ok_or_else(|| EngineError::Config("SAMPLE_RATE must be numeric".to_string()))?,
        None => default,
    };
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(EngineError::Config(format!("SAMPLE_RATE {rate} outside (0, 1]")));
    }
    Ok(rate)
}

/// Where a plan reads its rows from.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanSource {
    /// Exact scan over the base table partitions in range.
    FullScan {
        /// Base-table rows inside the scan range.
        est_rows: usize,
    },
    /// Estimation from one sample-catalog layer.
    SampleLayer {
        /// Index into the catalog's layer list.
        layer: usize,
        /// The layer's sampling rate.
        rate: f64,
        /// Sampler family label (e.g. `"Optimal GSW"`).
        sampler: String,
        /// Bucket index serving the plan's measure.
        bucket: usize,
        /// Sampled rows inside the scan range (the rows estimation scans).
        est_rows: usize,
        /// Why this layer was chosen over the others.
        rationale: String,
        /// [`SampleCatalog::version`] of the catalog the plan was made
        /// against — reported by `EXPLAIN`. Catalog versions derived via
        /// [`SampleCatalog::apply_delta`] keep the same layer/bucket
        /// structure, so the plan stays executable after a publish; the
        /// version records which samples sized its estimates.
        catalog_version: u64,
    },
}

impl ScanSource {
    /// Sampler label as reported in results (`"full scan"` for exact).
    pub fn sampler_label(&self) -> &str {
        match self {
            ScanSource::FullScan { .. } => "full scan",
            ScanSource::SampleLayer { sampler, .. } => sampler,
        }
    }

    /// Effective rate (`1.0` for exact scans).
    pub fn rate_used(&self) -> f64 {
        match self {
            ScanSource::FullScan { .. } => 1.0,
            ScanSource::SampleLayer { rate, .. } => *rate,
        }
    }

    /// Estimated rows scanned per execution.
    pub fn est_rows(&self) -> usize {
        match self {
            ScanSource::FullScan { est_rows } | ScanSource::SampleLayer { est_rows, .. } => {
                *est_rows
            }
        }
    }
}

/// A plan's scan time range: fixed at plan time when every endpoint is a
/// literal, or a parameterized [`TimeWindow`] resolved (date-validated,
/// clamped) per binding. Everything range-independent — predicate
/// compilation, dictionary-code folding, model/option validation — stays
/// static either way; only the clamp and the scan-source row counts wait
/// for the parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeRangeSlot {
    /// Resolved at plan time; `None` when the clamped range is provably
    /// empty (the plan returns zero rows).
    Static(Option<(Timestamp, Timestamp)>),
    /// Depends on `?` parameters; executors specialize the plan per
    /// binding (see [`crate::PreparedQuery`]).
    Dynamic(TimeWindow),
}

impl TimeRangeSlot {
    /// Does the range wait on `?` parameters?
    pub fn is_dynamic(&self) -> bool {
        matches!(self, TimeRangeSlot::Dynamic(_))
    }
}

/// Where a plan reads rows from: chosen at plan time for static ranges,
/// deferred to bind time when the range is parameterized (layer row
/// counts and full-scan sizes depend on the bound window).
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSlot {
    /// Scan source chosen at plan (or specialization) time.
    Planned(ScanSource),
    /// Selection deferred until the range parameters are bound.
    Deferred,
}

impl SourceSlot {
    /// The chosen scan source; errors when selection is still deferred.
    pub fn planned(&self) -> Result<&ScanSource, EngineError> {
        match self {
            SourceSlot::Planned(s) => Ok(s),
            SourceSlot::Deferred => Err(EngineError::Parameter(
                "plan's scan source is unresolved: bind the range parameters first".to_string(),
            )),
        }
    }
}

/// The predicate of a plan: compiled once at plan time when the statement
/// has no parameters, or kept as a template to be bound per execution.
#[derive(Debug, Clone)]
pub enum PredicateSlot {
    /// Fully compiled (constant-folded, dictionary codes resolved).
    Compiled(CompiledPredicate),
    /// Dimension constraint with `?` placeholders; compiled per binding.
    Template {
        /// The dimension-only constraint, placeholders intact.
        constraint: Expr,
        /// Number of `?` placeholders.
        num_params: usize,
    },
}

impl PredicateSlot {
    /// Number of `?` placeholders this slot needs bound.
    pub fn num_params(&self) -> usize {
        match self {
            PredicateSlot::Compiled(_) => 0,
            PredicateSlot::Template { num_params, .. } => *num_params,
        }
    }
}

/// A fully planned FORECAST task (the two-phase pipeline of §2.1: the
/// per-timestamp aggregation batch of Eq. 4, then model fit + predict).
#[derive(Debug, Clone)]
pub struct ForecastPlan {
    /// Bound aggregate function.
    pub agg: AggFunc,
    /// Resolved measure column index.
    pub measure: usize,
    /// Measure name as written in the statement.
    pub measure_name: String,
    /// Compiled (or templated) dimension constraint `C`.
    pub predicate: PredicateSlot,
    /// Training window (inclusive): static, or parameterized via `USING
    /// (?, ?)` and resolved per binding.
    pub range: TimeRangeSlot,
    /// Requested sampling rate (after defaulting).
    pub rate: f64,
    /// Resolved model name.
    pub model: String,
    /// Forecast horizon (`FORE_PERIOD`).
    pub horizon: usize,
    /// Confidence level for intervals.
    pub confidence: f64,
    /// Noise-aware interval widening (Proposition 1).
    pub noise_aware: bool,
    /// Total `?` placeholders in the statement (constraint + window).
    pub num_params: usize,
    /// Where the training estimates come from (full scan vs sample layer;
    /// deferred while the window is parameterized).
    pub source: SourceSlot,
}

impl ForecastPlan {
    /// The resolved training window (inclusive). Errors when the range is
    /// still parameterized — executors specialize dynamic plans before
    /// running them.
    pub fn window(&self) -> Result<(Timestamp, Timestamp), EngineError> {
        match &self.range {
            TimeRangeSlot::Static(Some(r)) => Ok(*r),
            TimeRangeSlot::Static(None) => {
                Err(EngineError::Config("FORECAST window is empty".to_string()))
            }
            TimeRangeSlot::Dynamic(_) => Err(EngineError::Parameter(
                "FORECAST window is unresolved: bind the range parameters first".to_string(),
            )),
        }
    }
}

/// A fully planned SELECT query.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// Bound aggregate function.
    pub agg: AggFunc,
    /// Resolved measure column index.
    pub measure: usize,
    /// Measure name as written in the statement.
    pub measure_name: String,
    /// Compiled (or templated) dimension constraint.
    pub predicate: PredicateSlot,
    /// Scan range clamped to the table's bounds (`Static(None)` when the
    /// clamped range is empty — the plan returns zero rows), or a
    /// parameterized window clamped per binding.
    pub range: TimeRangeSlot,
    /// Requested sampling rate (1.0 = exact; kept for bind-time
    /// re-selection of the serving layer).
    pub rate: f64,
    /// One row per timestamp (`GROUP BY t`) vs a single scalar row.
    pub group_by_time: bool,
    /// Total `?` placeholders in the statement (constraint + window).
    pub num_params: usize,
    /// Where the answer comes from (full scan vs sample layer; deferred
    /// while the window is parameterized).
    pub source: SourceSlot,
}

impl SelectPlan {
    /// The resolved scan range (`None` = provably empty). Errors when the
    /// range is still parameterized — executors specialize dynamic plans
    /// before running them.
    pub fn static_range(&self) -> Result<Option<(Timestamp, Timestamp)>, EngineError> {
        match &self.range {
            TimeRangeSlot::Static(r) => Ok(*r),
            TimeRangeSlot::Dynamic(_) => Err(EngineError::Parameter(
                "SELECT range is unresolved: bind the range parameters first".to_string(),
            )),
        }
    }
}

/// A typed, executable plan.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// A planned FORECAST task.
    Forecast(ForecastPlan),
    /// A planned SELECT query.
    Select(SelectPlan),
}

impl LogicalPlan {
    /// Number of `?` placeholders the plan needs bound at execution
    /// (dimension constraint plus time-window parameters).
    pub fn num_params(&self) -> usize {
        match self {
            LogicalPlan::Forecast(p) => p.num_params,
            LogicalPlan::Select(p) => p.num_params,
        }
    }

    /// The plan's scan-source slot.
    pub fn source(&self) -> &SourceSlot {
        match self {
            LogicalPlan::Forecast(p) => &p.source,
            LogicalPlan::Select(p) => &p.source,
        }
    }

    /// The plan's time-range slot.
    pub fn range(&self) -> &TimeRangeSlot {
        match self {
            LogicalPlan::Forecast(p) => &p.range,
            LogicalPlan::Select(p) => &p.range,
        }
    }
}

/// Resolve a dynamic FORECAST window against bound parameters and the
/// current table snapshot (relative `USING LAST n DAYS` windows anchor at
/// the table's newest timestamp). Errors are typed, never panics: a
/// missing/ill-typed/impossible-date parameter is
/// [`EngineError::Parameter`]; a reversed window is
/// [`EngineError::Config`], exactly like its literal counterpart at plan
/// time.
pub(crate) fn resolve_forecast_window(
    window: &TimeWindow,
    params: &[Literal],
    table: &TimeSeriesTable,
) -> Result<(Timestamp, Timestamp), EngineError> {
    resolve_forecast_window_bounds(window, params, table.time_bounds())
}

/// [`resolve_forecast_window`] against explicit table bounds — the entry
/// point for scatter-gather executors, which must resolve a window once
/// against the *union* of per-shard bounds so every shard sees the same
/// range regardless of which days landed where.
pub(crate) fn resolve_forecast_window_bounds(
    window: &TimeWindow,
    params: &[Literal],
    bounds: Option<(Timestamp, Timestamp)>,
) -> Result<(Timestamp, Timestamp), EngineError> {
    let latest = bounds.map(|(_, hi)| hi);
    let (lo, hi) = window.resolve(params, latest).map_err(|e| EngineError::Parameter(e.message))?;
    let (Some(mut s), Some(e)) = (lo, hi) else {
        return Err(EngineError::Config("FORECAST window must bound both ends".to_string()));
    };
    // "LAST n DAYS" means the trailing n days *of the table*: a count
    // longer than the table clamps to its first day instead of asking the
    // executor for days that never existed.
    if window.is_relative() {
        if let Some((table_lo, _)) = bounds {
            s = s.max(table_lo);
        }
    }
    if e < s {
        return Err(EngineError::Config(format!("USING range is reversed: {s} > {e}")));
    }
    Ok((s, e))
}

/// Resolve and clamp a dynamic SELECT window against bound parameters:
/// `None` when the clamped range is empty (inverted bounds or a window
/// entirely outside the table), so the executor returns zero rows instead
/// of attempting a negative-length scan.
pub(crate) fn resolve_select_range(
    window: &TimeWindow,
    params: &[Literal],
    table: &TimeSeriesTable,
) -> Result<Option<(Timestamp, Timestamp)>, EngineError> {
    resolve_select_range_bounds(window, params, table.time_bounds())
}

/// [`resolve_select_range`] against explicit table bounds — see
/// [`resolve_forecast_window_bounds`] for why scatter-gather executors
/// resolve once against union bounds instead of per-shard tables.
pub(crate) fn resolve_select_range_bounds(
    window: &TimeWindow,
    params: &[Literal],
    bounds: Option<(Timestamp, Timestamp)>,
) -> Result<Option<(Timestamp, Timestamp)>, EngineError> {
    let (table_lo, table_hi) =
        bounds.ok_or_else(|| EngineError::Config("empty table".to_string()))?;
    let (lo, hi) =
        window.resolve(params, Some(table_hi)).map_err(|e| EngineError::Parameter(e.message))?;
    let lo = lo.map_or(table_lo, |t| t.max(table_lo));
    let hi = hi.map_or(table_hi, |t| t.min(table_hi));
    Ok(if hi < lo { None } else { Some((lo, hi)) })
}

/// Specialize a dynamic-range plan to a resolved range: re-run
/// scan-source selection (layer/bucket/est_rows) for the bound window via
/// the same [`choose_source`] path as plan time, and return a fully
/// static clone. The result executes exactly like a plan whose statement
/// spelled the range out in literals.
pub(crate) fn specialize_plan(
    plan: &LogicalPlan,
    range: Option<(Timestamp, Timestamp)>,
    table: &TimeSeriesTable,
    catalog: Option<&SampleCatalog>,
) -> Result<LogicalPlan, EngineError> {
    match plan {
        LogicalPlan::Forecast(p) => {
            let range = range.ok_or_else(|| {
                EngineError::Config("FORECAST window must bound both ends".to_string())
            })?;
            Ok(LogicalPlan::Forecast(specialize_forecast(p, range, table, catalog)?))
        }
        LogicalPlan::Select(p) => {
            Ok(LogicalPlan::Select(specialize_select(p, range, table, catalog)?))
        }
    }
}

/// [`specialize_plan`] for a FORECAST plan and a resolved window.
pub(crate) fn specialize_forecast(
    plan: &ForecastPlan,
    (s, e): (Timestamp, Timestamp),
    table: &TimeSeriesTable,
    catalog: Option<&SampleCatalog>,
) -> Result<ForecastPlan, EngineError> {
    Ok(ForecastPlan {
        range: TimeRangeSlot::Static(Some((s, e))),
        source: SourceSlot::Planned(choose_source(table, catalog, plan.measure, s, e, plan.rate)?),
        ..plan.clone()
    })
}

/// [`specialize_plan`] for a SELECT plan and a resolved, clamped range.
pub(crate) fn specialize_select(
    plan: &SelectPlan,
    range: Option<(Timestamp, Timestamp)>,
    table: &TimeSeriesTable,
    catalog: Option<&SampleCatalog>,
) -> Result<SelectPlan, EngineError> {
    let (range, source) = match range {
        // Empty clamped range: the same degenerate zero-row full scan the
        // planner emits for literal out-of-table bounds.
        None => {
            (TimeRangeSlot::Static(None), SourceSlot::Planned(ScanSource::FullScan { est_rows: 0 }))
        }
        Some((lo, hi)) => (
            TimeRangeSlot::Static(Some((lo, hi))),
            SourceSlot::Planned(choose_source(table, catalog, plan.measure, lo, hi, plan.rate)?),
        ),
    };
    Ok(SelectPlan { range, source, ..plan.clone() })
}

/// Choose the scan source for a query over `[start, end]` at `rate` —
/// shared by plan-time selection and bind-time specialization of
/// parameterized ranges.
pub(crate) fn choose_source(
    table: &TimeSeriesTable,
    catalog: Option<&SampleCatalog>,
    measure: usize,
    start: Timestamp,
    end: Timestamp,
    rate: f64,
) -> Result<ScanSource, EngineError> {
    if rate >= 1.0 {
        let est_rows = table.partitions_in(start, end).map(|(_, p)| p.num_rows()).sum();
        return Ok(ScanSource::FullScan { est_rows });
    }
    let catalog = catalog.ok_or_else(EngineError::no_samples)?;
    catalog.check_schema(table)?;
    let (layer_idx, layer) = catalog.select_layer(rate).ok_or_else(EngineError::no_samples)?;
    let rationale = if layer.rate >= rate {
        format!("cheapest layer with rate >= requested {rate}")
    } else {
        format!("densest available layer (no layer covers requested rate {rate})")
    };
    Ok(ScanSource::SampleLayer {
        layer: layer_idx,
        rate: layer.rate,
        sampler: layer.sampler_label.clone(),
        bucket: layer.bucket_for(measure),
        est_rows: layer.rows_in_range(measure, start, end),
        rationale,
        catalog_version: catalog.version(),
    })
}

/// Plans statements against a table + configuration + optional catalog.
pub struct Planner<'a> {
    table: &'a TimeSeriesTable,
    config: &'a EngineConfig,
    catalog: Option<&'a SampleCatalog>,
}

impl<'a> Planner<'a> {
    /// A planner over one table + configuration + optional catalog
    /// snapshot (everything borrowed for the planning call only).
    pub fn new(
        table: &'a TimeSeriesTable,
        config: &'a EngineConfig,
        catalog: Option<&'a SampleCatalog>,
    ) -> Self {
        Planner { table, config, catalog }
    }

    /// Plan any statement. `EXPLAIN` plans its inner statement (rendering
    /// is the caller's concern).
    pub fn plan(&self, stmt: &Statement) -> Result<LogicalPlan, EngineError> {
        match stmt {
            Statement::Forecast(s) => Ok(LogicalPlan::Forecast(self.plan_forecast(s)?)),
            Statement::Select(s) => Ok(LogicalPlan::Select(self.plan_select(s)?)),
            Statement::Explain(inner) => self.plan(inner),
        }
    }

    fn check_table(&self, name: &str) -> Result<(), EngineError> {
        if let Some(expected) = &self.config.table_name {
            if !expected.eq_ignore_ascii_case(name) {
                return Err(EngineError::Config(format!(
                    "unknown table '{name}' (registered: '{expected}')"
                )));
            }
        }
        Ok(())
    }

    fn resolve_measure(&self, name: &str, agg: AggFunc) -> Result<usize, EngineError> {
        if name == "*" {
            if agg != AggFunc::Count {
                return Err(EngineError::Config("'*' is only valid in COUNT(*)".to_string()));
            }
            // COUNT(*) needs no measure values; use column 0 for masking.
            return Ok(0);
        }
        Ok(self.table.schema().measure_index(name)?)
    }

    /// Compile a (time-free) constraint now, or keep it as a template when
    /// it contains `?` placeholders.
    fn predicate_slot(&self, constraint: &Expr) -> Result<PredicateSlot, EngineError> {
        let num_params = constraint.num_params();
        if num_params > 0 {
            // Literal types (and thus full compilation) depend on the
            // values bound later, but column names can — and must — be
            // validated now so prepare() rejects typos before traffic.
            self.check_template_columns(constraint)?;
            return Ok(PredicateSlot::Template { constraint: constraint.clone(), num_params });
        }
        let predicate = bind_expr(constraint)?;
        Ok(PredicateSlot::Compiled(self.table.compile_predicate(&predicate)?))
    }

    /// Every column a template constraint references must exist in the
    /// schema (type checks happen per binding, where literal types are
    /// known).
    fn check_template_columns(&self, constraint: &Expr) -> Result<(), EngineError> {
        match constraint {
            Expr::Cmp { column, .. } | Expr::In { column, .. } | Expr::Between { column, .. } => {
                self.table.schema().dimension_index(column)?;
                Ok(())
            }
            Expr::And(children) | Expr::Or(children) => {
                children.iter().try_for_each(|c| self.check_template_columns(c))
            }
            Expr::Not(child) => self.check_template_columns(child),
            Expr::True => Ok(()),
        }
    }

    /// Plan-time validation for a parameterized window: everything that
    /// does not depend on the bound range — catalog presence, schema
    /// compatibility, layer availability, table non-emptiness — fails at
    /// prepare time, not on the first binding.
    fn check_dynamic_source(&self, rate: f64) -> Result<(), EngineError> {
        if rate < 1.0 {
            let catalog = self.catalog.ok_or_else(EngineError::no_samples)?;
            catalog.check_schema(self.table)?;
            catalog.select_layer(rate).ok_or_else(EngineError::no_samples)?;
        }
        self.table.time_bounds().ok_or_else(|| EngineError::Config("empty table".to_string()))?;
        Ok(())
    }

    /// Plan a FORECAST statement: resolve names and options, validate the
    /// window and model, choose the serving layer. With `USING (?, ?)`
    /// the window (and hence the range clamp + layer row counts) stays
    /// dynamic; every other plan constant is still resolved here.
    pub fn plan_forecast(&self, stmt: &ForecastStmt) -> Result<ForecastPlan, EngineError> {
        self.check_table(&stmt.table)?;
        check_option_keys("FORECAST", &stmt.options, &FORECAST_OPTIONS)?;
        let measure = self.resolve_measure(&stmt.measure, stmt.agg)?;
        let predicate = self.predicate_slot(&stmt.constraint)?;
        // Options.
        let rate = sample_rate_option(stmt.option("SAMPLE_RATE"), self.config.default_rate)?;
        let model = match stmt.option("MODEL") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| EngineError::Config("MODEL must be a string".to_string()))?
                .to_string(),
            None => self.config.default_model.clone(),
        };
        // Validate the model name at plan time so prepare/EXPLAIN surface
        // typos before any execution.
        build_model(&model)?;
        let horizon = match stmt.option("FORE_PERIOD") {
            Some(v) => {
                let n = v.as_int().ok_or_else(|| {
                    EngineError::Config("FORE_PERIOD must be an integer".to_string())
                })?;
                if n < 1 {
                    return Err(EngineError::Config(format!("FORE_PERIOD {n} must be >= 1")));
                }
                n as usize
            }
            None => self.config.default_horizon,
        };
        let confidence = match stmt.option("CONFIDENCE") {
            Some(v) => v
                .as_float()
                .ok_or_else(|| EngineError::Config("CONFIDENCE must be numeric".to_string()))?,
            None => self.config.default_confidence,
        };
        let noise_aware = match stmt.option("NOISE_AWARE") {
            Some(v) => {
                v.as_int().ok_or_else(|| {
                    EngineError::Config("NOISE_AWARE must be an integer".to_string())
                })? != 0
            }
            None => false,
        };

        // Literal endpoints are calendar-validated now; `?` endpoints when
        // bound.
        let endpoint = |b: TimeBound| -> Result<TimeEndpoint, EngineError> {
            match b {
                TimeBound::Lit(v) => Ok(TimeEndpoint::Lit(Timestamp::from_yyyymmdd(v)?)),
                TimeBound::Param(i) => Ok(TimeEndpoint::Param { index: i, offset: 0 }),
            }
        };
        let (range, source) = match stmt.using {
            UsingClause::Window { start, end } => match (endpoint(start)?, endpoint(end)?) {
                (TimeEndpoint::Lit(s), TimeEndpoint::Lit(e)) => {
                    if e < s {
                        return Err(EngineError::Config(format!(
                            "USING range is reversed: {s} > {e}"
                        )));
                    }
                    (
                        TimeRangeSlot::Static(Some((s, e))),
                        SourceSlot::Planned(choose_source(
                            self.table,
                            self.catalog,
                            measure,
                            s,
                            e,
                            rate,
                        )?),
                    )
                }
                (s, e) => {
                    self.check_dynamic_source(rate)?;
                    let window = TimeWindow { lower: vec![s], upper: vec![e] };
                    (TimeRangeSlot::Dynamic(window), SourceSlot::Deferred)
                }
            },
            // Relative windows stay dynamic even with a literal day count:
            // the anchor is the table's newest timestamp, which moves on
            // every publish, so range clamp + layer selection re-run per
            // binding against the execution snapshot.
            UsingClause::LastDays(d) => {
                self.check_dynamic_source(rate)?;
                let window = TimeWindow {
                    lower: vec![TimeEndpoint::LastDays(d)],
                    upper: vec![TimeEndpoint::Latest],
                };
                (TimeRangeSlot::Dynamic(window), SourceSlot::Deferred)
            }
        };
        Ok(ForecastPlan {
            agg: stmt.agg,
            measure,
            measure_name: stmt.measure.clone(),
            predicate,
            range,
            rate,
            model,
            horizon,
            confidence,
            noise_aware,
            num_params: stmt.num_params(),
            source,
        })
    }

    /// Plan a SELECT query: split the time range out of the constraint,
    /// clamp it to the table, and choose exact scan vs sample layer from
    /// the `SAMPLE_RATE` option (default exact).
    pub fn plan_select(&self, stmt: &SelectStmt) -> Result<SelectPlan, EngineError> {
        self.check_table(&stmt.table)?;
        check_option_keys("SELECT", &stmt.options, &SELECT_OPTIONS)?;
        let measure = self.resolve_measure(&stmt.measure, stmt.agg)?;
        let split = split_select_constraint(stmt)?;
        let predicate = self.predicate_slot(&split.dims)?;
        // SELECT is exact unless a rate is requested.
        let rate = sample_rate_option(stmt.option("SAMPLE_RATE"), 1.0)?;
        let num_params = stmt.num_params();
        let make = |range, source| SelectPlan {
            agg: stmt.agg,
            measure,
            measure_name: stmt.measure.clone(),
            predicate: predicate.clone(),
            range,
            rate,
            group_by_time: stmt.group_by_time,
            num_params,
            source,
        };
        if split.window.has_params() {
            // `t` compared to `?`: clamp and layer row counts wait for the
            // binding; the range-independent checks still run now.
            self.check_dynamic_source(rate)?;
            return Ok(make(TimeRangeSlot::Dynamic(split.window), SourceSlot::Deferred));
        }
        let (table_lo, table_hi) = self
            .table
            .time_bounds()
            .ok_or_else(|| EngineError::Config("empty table".to_string()))?;
        let (lo, hi) = match split.window.resolve_range(&[], Some(table_hi))? {
            Some((a, b)) => (a.max(table_lo), b.min(table_hi)),
            None => (table_lo, table_hi),
        };
        if hi < lo {
            // Empty range: a degenerate full scan of zero rows.
            return Ok(make(
                TimeRangeSlot::Static(None),
                SourceSlot::Planned(ScanSource::FullScan { est_rows: 0 }),
            ));
        }
        let source = choose_source(self.table, self.catalog, measure, lo, hi, rate)?;
        Ok(make(TimeRangeSlot::Static(Some((lo, hi))), SourceSlot::Planned(source)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplerChoice;
    use crate::test_support::test_table;
    use flashp_query::parse;

    fn planned(sql: &str, rates: &[f64]) -> LogicalPlan {
        let table = test_table();
        let config = EngineConfig {
            layer_rates: rates.to_vec(),
            sampler: SamplerChoice::OptimalGsw,
            default_rate: 0.05,
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        let planner = Planner::new(&table, &config, Some(&catalog));
        planner.plan(&parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn forecast_plan_resolves_everything() {
        let plan = planned(
            "FORECAST SUM(m2) FROM T WHERE seg <= 5 USING (20200101, 20200202) \
             OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5)",
            &[0.2, 0.05],
        );
        let LogicalPlan::Forecast(p) = plan else { panic!("expected forecast plan") };
        assert_eq!(p.measure, 1);
        assert_eq!(p.model, "ar(7)");
        assert_eq!(p.horizon, 5);
        assert_eq!(p.rate, 0.05);
        assert!(matches!(p.predicate, PredicateSlot::Compiled(_)));
        let SourceSlot::Planned(ScanSource::SampleLayer { rate, bucket, est_rows, .. }) = &p.source
        else {
            panic!("expected a sample layer source")
        };
        assert_eq!(*rate, 0.05);
        assert_eq!(*bucket, 1, "per-measure sampler serves m2 from bucket 1");
        assert!(*est_rows > 0);
    }

    #[test]
    fn parameterized_plan_keeps_template() {
        let plan =
            planned("FORECAST SUM(m1) FROM T WHERE seg <= ? USING (20200101, 20200202)", &[0.2]);
        assert_eq!(plan.num_params(), 1);
        let LogicalPlan::Forecast(p) = plan else { panic!() };
        assert!(matches!(p.predicate, PredicateSlot::Template { num_params: 1, .. }));
    }

    #[test]
    fn select_plan_clamps_range() {
        let plan = planned(
            "SELECT SUM(m1) FROM T WHERE t >= 20191201 AND t <= 20200103 GROUP BY t",
            &[0.2],
        );
        let LogicalPlan::Select(p) = plan else { panic!() };
        let TimeRangeSlot::Static(Some((lo, hi))) = p.range else {
            panic!("expected static range")
        };
        assert_eq!(lo.to_yyyymmdd(), 20200101, "clamped to the table start");
        assert_eq!(hi.to_yyyymmdd(), 20200103);
        assert!(matches!(
            p.source,
            SourceSlot::Planned(ScanSource::FullScan { est_rows }) if est_rows == 1200
        ));
    }

    #[test]
    fn select_sample_rate_option_plans_a_layer() {
        let plan = planned("SELECT SUM(m1) FROM T GROUP BY t OPTION (SAMPLE_RATE = 0.2)", &[0.2]);
        let LogicalPlan::Select(p) = plan else { panic!() };
        assert!(matches!(
            p.source,
            SourceSlot::Planned(ScanSource::SampleLayer { rate, .. }) if rate == 0.2
        ));
    }

    #[test]
    fn parameterized_window_defers_range_and_source() {
        let plan = planned("FORECAST SUM(m1) FROM T WHERE seg <= ? USING (?, ?)", &[0.2, 0.05]);
        assert_eq!(plan.num_params(), 3, "constraint + two window params");
        let LogicalPlan::Forecast(p) = &plan else { panic!() };
        assert!(p.range.is_dynamic());
        assert_eq!(p.source, SourceSlot::Deferred);
        assert!(p.source.planned().is_err(), "deferred source is a typed error, not a panic");
        assert!(p.window().is_err(), "unresolved window is a typed error");
        // Model/option validation still happened at plan time.
        assert_eq!(p.model, "arima");
    }

    #[test]
    fn specializing_matches_the_literal_plan() {
        let table = test_table();
        let config = EngineConfig {
            layer_rates: vec![0.2, 0.05],
            sampler: SamplerChoice::OptimalGsw,
            default_rate: 0.05,
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        let planner = Planner::new(&table, &config, Some(&catalog));
        let dynamic = planner
            .plan(&parse("FORECAST SUM(m2) FROM T WHERE seg <= 5 USING (?, ?)").unwrap())
            .unwrap();
        let LogicalPlan::Forecast(d) = &dynamic else { panic!() };
        let TimeRangeSlot::Dynamic(window) = &d.range else { panic!() };
        let params = [Literal::Int(20200101), Literal::Int(20200202)];
        let range = resolve_forecast_window(window, &params, &table).unwrap();
        let specialized = specialize_plan(&dynamic, Some(range), &table, Some(&catalog)).unwrap();
        let literal = planner
            .plan(
                &parse("FORECAST SUM(m2) FROM T WHERE seg <= 5 USING (20200101, 20200202)")
                    .unwrap(),
            )
            .unwrap();
        let (LogicalPlan::Forecast(s), LogicalPlan::Forecast(l)) = (&specialized, &literal) else {
            panic!()
        };
        assert_eq!(s.range, l.range);
        assert_eq!(s.source, l.source, "bind-time layer re-selection matches plan time");
    }

    #[test]
    fn last_days_plans_dynamic_and_resolves_to_the_trailing_window() {
        let table = test_table(); // 40 days: 20200101..20200209
        let config = EngineConfig {
            layer_rates: vec![0.2, 0.05],
            sampler: SamplerChoice::OptimalGsw,
            default_rate: 0.05,
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        let planner = Planner::new(&table, &config, Some(&catalog));

        let dynamic = planner
            .plan(&parse("FORECAST SUM(m2) FROM T WHERE seg <= 5 USING LAST 10 DAYS").unwrap())
            .unwrap();
        let LogicalPlan::Forecast(d) = &dynamic else { panic!() };
        let TimeRangeSlot::Dynamic(window) = &d.range else {
            panic!("relative windows must defer even with a literal day count")
        };
        assert_eq!(window.to_string(), "last 10 days");
        assert_eq!(d.source, SourceSlot::Deferred);
        let range = resolve_forecast_window(window, &[], &table).unwrap();
        assert_eq!(range.0.to_yyyymmdd(), 20200131);
        assert_eq!(range.1.to_yyyymmdd(), 20200209);

        // Specializing to the resolved range matches the literal plan.
        let specialized = specialize_plan(&dynamic, Some(range), &table, Some(&catalog)).unwrap();
        let literal = planner
            .plan(
                &parse("FORECAST SUM(m2) FROM T WHERE seg <= 5 USING (20200131, 20200209)")
                    .unwrap(),
            )
            .unwrap();
        let (LogicalPlan::Forecast(s), LogicalPlan::Forecast(l)) = (&specialized, &literal) else {
            panic!()
        };
        assert_eq!(s.range, l.range);
        assert_eq!(s.source, l.source);

        // A count longer than the table clamps to the table's first day.
        let long = planner.plan(&parse("FORECAST SUM(m2) FROM T USING LAST 1000 DAYS").unwrap());
        let LogicalPlan::Forecast(p) = long.unwrap() else { panic!() };
        let TimeRangeSlot::Dynamic(w) = &p.range else { panic!() };
        let range = resolve_forecast_window(w, &[], &table).unwrap();
        assert_eq!(range.0.to_yyyymmdd(), 20200101);

        // Parameterized day count resolves per binding with typed errors.
        let pd = planner.plan(&parse("FORECAST SUM(m2) FROM T USING LAST ? DAYS").unwrap());
        let plan = pd.unwrap();
        assert_eq!(plan.num_params(), 1);
        let LogicalPlan::Forecast(p) = &plan else { panic!() };
        let TimeRangeSlot::Dynamic(w) = &p.range else { panic!() };
        assert_eq!(w.to_string(), "last ?0 days");
        let r = resolve_forecast_window(w, &[Literal::Int(1)], &table).unwrap();
        assert_eq!(r.0, r.1, "LAST 1 DAYS is just the newest day");
        assert!(matches!(
            resolve_forecast_window(w, &[Literal::Int(-3)], &table),
            Err(EngineError::Parameter(m)) if m.contains("positive")
        ));
    }

    #[test]
    fn dynamic_window_binding_errors_are_typed() {
        let table = test_table();
        let window = TimeWindow {
            lower: vec![TimeEndpoint::Param { index: 0, offset: 0 }],
            upper: vec![TimeEndpoint::Param { index: 1, offset: 0 }],
        };
        // Reversed window.
        let params = [Literal::Int(20200301), Literal::Int(20200101)];
        let Err(EngineError::Config(msg)) = resolve_forecast_window(&window, &params, &table)
        else {
            panic!("reversed range must be a Config error")
        };
        assert!(msg.contains("reversed"));
        // Impossible date.
        let params = [Literal::Int(20200230), Literal::Int(20200301)];
        assert!(matches!(
            resolve_forecast_window(&window, &params, &table),
            Err(EngineError::Parameter(m)) if m.contains("?0")
        ));
        // SELECT: inverted bounds clamp to an empty (None) range.
        let params = [Literal::Int(20200301), Literal::Int(20200101)];
        assert_eq!(resolve_select_range(&window, &params, &table).unwrap(), None);
        // SELECT: a window entirely past the table clamps empty too.
        let params = [Literal::Int(20300101), Literal::Int(20300131)];
        assert_eq!(resolve_select_range(&window, &params, &table).unwrap(), None);
    }

    #[test]
    fn missing_catalog_fails_at_plan_time() {
        let table = test_table();
        let config = EngineConfig::default();
        let planner = Planner::new(&table, &config, None);
        let stmt = parse("FORECAST SUM(m1) FROM T USING (20200101, 20200110)").unwrap();
        assert!(matches!(planner.plan(&stmt), Err(EngineError::SamplesUnavailable(_))));
        // Exact queries plan fine without a catalog.
        let stmt =
            parse("FORECAST SUM(m1) FROM T USING (20200101, 20200110) OPTION (SAMPLE_RATE = 1.0)")
                .unwrap();
        assert!(planner.plan(&stmt).is_ok());
    }

    #[test]
    fn bad_model_caught_at_plan_time() {
        let table = test_table();
        let config = EngineConfig::default();
        let planner = Planner::new(&table, &config, None);
        let stmt = parse(
            "FORECAST SUM(m1) FROM T USING (20200101, 20200110) \
             OPTION (SAMPLE_RATE = 1.0, MODEL = 'unknown_model')",
        )
        .unwrap();
        assert!(planner.plan(&stmt).is_err());
    }
}
