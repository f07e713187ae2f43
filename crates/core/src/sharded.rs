//! Sharded scatter-gather execution: hash-partitioned `FlashPEngine`
//! shards behind one engine-shaped facade, returning the same answers at
//! any shard count.
//!
//! ## Virtual slots, physical shards
//!
//! Naive "N engines for N shards" sharding cannot be shard-count
//! invariant: regrouping rows reassociates f64 sums, and per-shard RNG
//! seeds would draw different samples at different N. [`ShardedEngine`]
//! therefore fixes the *data layout* independently of the fan-out width:
//! rows are hash-routed across a constant number of **virtual slots**
//! ([`ShardConfig::slots`], default 16), each an inner [`FlashPEngine`]
//! with a deterministic per-slot RNG seed derived from the base seed.
//! The configured **shard count** N only groups contiguous slots into
//! physical shards: each shard owns `slots/N` slot engines, executes
//! their partials on its own worker thread, and the combiner always
//! merges partials in global slot order. Estimates therefore depend on
//! `(data, seed, slots)` and never on N — `N=1 ≡ N=2 ≡ N=4 ≡ N=8`
//! bit for bit, which the shard-invariance oracle suite asserts.
//!
//! ## Scatter-gather
//!
//! A statement is planned **per slot** (dictionary codes folded into a
//! predicate are slot-local), its time range is resolved **once** against
//! the union of slot bounds, and every slot plan is specialized to that
//! one global range. Each slot then produces a [`ShardResponse`] of
//! per-day [`DayPartial`]s — exact aggregate states from a full scan, or
//! Horvitz–Thompson components from its sample layer — through the same
//! driver a single engine runs, and the combiner merges them day by day
//! in slot order: sums and counts add, variance components add per HT
//! algebra. The merged days go to the single engine's assemblers, so AVG
//! finalizes as the ratio of the merged totals and FORECAST model fitting
//! runs once on the merged training series. The partials type is
//! transport-agnostic (plain data, no wire coupling) so a service
//! frontend can later move shards behind sockets without changing the
//! merge layer.
//!
//! ## Consistency under ingest/publish
//!
//! [`ShardedEngine::ingest`] routes rows to their slot's staged cycle;
//! [`ShardedEngine::publish`] publishes every slot and then swaps one
//! outer [`ShardSnapshot`] — an immutable vector of per-slot
//! [`CatalogVersion`]s under a single outer version number. Executions
//! snapshot the outer version exactly once, so a query can never observe
//! some slots before a publish and others after it, even while a
//! concurrent publisher is mid-swap.

use crate::catalog::{mix, next_version_id, DeltaStats, SampleCatalog};
use crate::config::EngineConfig;
use crate::engine::FlashPEngine;
use crate::error::EngineError;
use crate::explain::{explain_plan, PlanNode};
use crate::partial_cache::{fnv, FNV_OFFSET};
use crate::planner::{
    resolve_forecast_window_bounds, resolve_select_range_bounds, specialize_forecast,
    specialize_select, LogicalPlan, Planner, ScanSource, SourceSlot, TimeRangeSlot,
};
use crate::prepared::{assemble_forecast, assemble_select, check_arity, DayPartial, SourceMeta};
use crate::result::{ExecOutput, ForecastResult, SelectResult};
use crate::version::{CatalogVersion, IngestBatch, IngestItem, PublishStats};
use flashp_query::{parse, split_select_constraint, Literal, Statement};
use flashp_storage::{TimeSeriesTable, Timestamp, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Salt for per-slot seed derivation: `slot_seed = mix(base_seed, slot,
/// SHARD_SEED_SALT)`. Changing it re-seeds every slot, so it is part of
/// the layout contract documented in ARCHITECTURE.md.
const SHARD_SEED_SALT: u64 = 0x5AAD_ED5E;

/// Stable routing hash of a row's dimension key + timestamp (FNV-1a over
/// a type-tagged byte encoding — independent of platform hashers, process
/// randomization, and dictionary code assignment, so the same row routes
/// to the same slot in every run). Strings hash their bytes (with a
/// terminator so `("ab","c")` ≠ `("a","bc")`), floats their IEEE bits.
pub fn route_hash(dims: &[Value], t: Timestamp) -> u64 {
    let mut h = FNV_OFFSET;
    for v in dims {
        match v {
            Value::Int(i) => {
                fnv(&mut h, &[0u8]);
                fnv(&mut h, &i.to_le_bytes());
            }
            Value::Float(f) => {
                fnv(&mut h, &[1u8]);
                fnv(&mut h, &f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                fnv(&mut h, &[2u8]);
                fnv(&mut h, s.as_bytes());
                fnv(&mut h, &[0xFF]);
            }
        }
    }
    fnv(&mut h, &t.0.to_le_bytes());
    h
}

/// Shard layout: how many physical shards fan out over how many virtual
/// slots. See the [module docs](self) for why the two are separate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Physical shards (fan-out worker groups), `1 ..= slots`.
    pub shards: usize,
    /// Virtual slots (inner engines). Fixed per deployment: answers
    /// depend on the slot count, not the shard count.
    pub slots: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1, slots: 16 }
    }
}

impl ShardConfig {
    /// The default slot layout with `shards` physical shards.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig { shards, ..Default::default() }
    }

    fn validate(&self) -> Result<(), EngineError> {
        if self.slots == 0 {
            return Err(EngineError::Config("shard layout needs at least one slot".to_string()));
        }
        if self.shards == 0 || self.shards > self.slots {
            return Err(EngineError::Config(format!(
                "shard count {} must be between 1 and the slot count {}",
                self.shards, self.slots
            )));
        }
        Ok(())
    }

    /// The contiguous slot range physical shard `shard` owns.
    pub fn slot_range(&self, shard: usize) -> std::ops::Range<usize> {
        (shard * self.slots / self.shards)..((shard + 1) * self.slots / self.shards)
    }

    /// The physical shard owning `slot`.
    pub fn shard_of_slot(&self, slot: usize) -> usize {
        (0..self.shards).find(|&k| self.slot_range(k).contains(&slot)).expect("slot in layout")
    }
}

/// One immutable cross-shard snapshot: the per-slot [`CatalogVersion`]s a
/// sharded execution answers from, under a single outer version number.
pub struct ShardSnapshot {
    version: u64,
    slots: Vec<Arc<CatalogVersion>>,
}

impl ShardSnapshot {
    fn new(slots: Vec<Arc<CatalogVersion>>) -> Self {
        ShardSnapshot { version: next_version_id(), slots }
    }

    /// The outer version number; bumps on every effective
    /// [`ShardedEngine::publish`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The per-slot versions, in slot order.
    pub fn slots(&self) -> &[Arc<CatalogVersion>] {
        &self.slots
    }

    /// Union of the slot tables' time bounds — the bounds the whole
    /// logical table would report, used to resolve time ranges once,
    /// globally, instead of per slot.
    pub fn union_bounds(&self) -> Option<(Timestamp, Timestamp)> {
        let mut out: Option<(Timestamp, Timestamp)> = None;
        for v in &self.slots {
            if let Some((lo, hi)) = v.table().time_bounds() {
                out = Some(match out {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
        }
        out
    }
}

/// One shard's (or slot's) contribution to a scatter-gather execution.
///
/// Deliberately transport-agnostic: plain owned data with no references
/// into the engine and no wire format, so the same combiner serves
/// in-process slots today and socket-remote shards later.
#[derive(Debug, Clone, Default)]
pub struct ShardResponse {
    /// Per-day partials for the days this shard holds, ascending in time.
    /// Days the shard has no partition (or stored sample) for are absent.
    pub days: Vec<(Timestamp, DayPartial)>,
    /// Planner-estimated rows backing this response (EXPLAIN's
    /// per-shard `est_rows`).
    pub est_rows: usize,
    /// The resolved scan range the partials cover (`None` when the global
    /// clamped range was empty — the response carries nothing).
    pub range: Option<(Timestamp, Timestamp)>,
    /// Whether the partials came from a sample layer.
    pub sampled: bool,
    /// Serving sampler label (result metadata; identical across slots).
    pub sampler: String,
    /// Serving sampling rate (result metadata; identical across slots).
    pub rate_used: f64,
}

/// Merged partials plus result metadata, ready to finalize.
struct Merged {
    /// Per-day merged partials, ascending; each day was merged in slot
    /// order.
    days: Vec<(Timestamp, DayPartial)>,
    range: Option<(Timestamp, Timestamp)>,
    meta: SourceMeta,
}

/// Merge shard responses in the order given (callers pass slot order —
/// that fixed order is what makes the f64 result independent of the
/// physical shard count).
fn merge_responses(responses: &[ShardResponse]) -> Result<Merged, EngineError> {
    let mut days: BTreeMap<Timestamp, DayPartial> = BTreeMap::new();
    let mut range: Option<(Timestamp, Timestamp)> = None;
    let mut sampled = false;
    let mut sampler = String::new();
    let mut rate_used = 1.0;
    for r in responses {
        if let Some((lo, hi)) = r.range {
            range = Some(match range {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
            if sampler.is_empty() {
                sampler = r.sampler.clone();
                rate_used = r.rate_used;
            }
            sampled |= r.sampled;
        }
        for (t, partial) in &r.days {
            match days.entry(*t) {
                Entry::Vacant(e) => {
                    e.insert(*partial);
                }
                Entry::Occupied(mut e) => e.get_mut().merge(partial)?,
            }
        }
    }
    if sampler.is_empty() {
        sampler = "full".to_string();
    }
    let meta = SourceMeta { sampled, sampler, rate_used };
    Ok(Merged { days: days.into_iter().collect(), range, meta })
}

/// Compute one slot's [`ShardResponse`] for a specialized (static-range)
/// plan against one slot version. Execution borrows the slot *engine's*
/// context, so each slot answers through its own day-partial cache — one
/// cache per virtual slot, preserving bit-for-bit shard-count invariance
/// (cell identities and day partials never cross slot boundaries).
fn slot_response(
    engine: &FlashPEngine,
    version: &CatalogVersion,
    plan: &LogicalPlan,
    params: &[Literal],
) -> Result<ShardResponse, EngineError> {
    let ctx = engine.ctx(version);
    let (predicate, source, measure, range) = match plan {
        LogicalPlan::Forecast(p) => {
            (&p.predicate, p.source.planned()?, p.measure, Some(p.window()?))
        }
        LogicalPlan::Select(p) => (&p.predicate, p.source.planned()?, p.measure, p.static_range()?),
    };
    let Some((lo, hi)) = range else {
        return Ok(ShardResponse {
            sampler: "full".to_string(),
            rate_used: 1.0,
            ..Default::default()
        });
    };
    let pred = ctx.resolve_predicate(predicate, params)?;
    Ok(ShardResponse {
        days: ctx.day_partials(source, measure, &pred, lo, hi)?,
        est_rows: source.est_rows(),
        range: Some((lo, hi)),
        sampled: matches!(source, ScanSource::SampleLayer { .. }),
        sampler: source.sampler_label().to_string(),
        rate_used: source.rate_used(),
    })
}

/// The shared, swappable state behind every clone of a sharded engine
/// (and behind every [`ShardedPrepared`]).
struct ShardedShared {
    /// The slot engines, in slot order. Their own ingest/publish cycles
    /// run under the outer `cycle` lock so the outer snapshot swap sees
    /// a consistent set of slot versions.
    slots: Vec<FlashPEngine>,
    /// The active outer snapshot; executions clone the `Arc` once.
    active: RwLock<Arc<ShardSnapshot>>,
    /// Serializes ingest routing and publish across slots.
    cycle: Mutex<()>,
}

impl ShardedShared {
    fn snapshot(&self) -> Arc<ShardSnapshot> {
        self.active.read().expect("shard snapshot lock poisoned").clone()
    }

    /// Whether the slot engines carry day-partial caches (every slot is
    /// built from the same base configuration, so one answers for all).
    fn partial_enabled(&self) -> bool {
        self.slots.first().is_some_and(|e| e.partial_enabled())
    }
}

/// Plan a statement per slot (each slot folds its own dictionary codes).
/// Slots with empty tables are skipped — they hold no partials and, for
/// SELECT, would reject planning outright; when *every* slot is empty,
/// slot 0 is planned anyway so the caller surfaces the same "empty
/// table" behavior a single engine would.
fn plan_slots(
    shared: &ShardedShared,
    snapshot: &ShardSnapshot,
    stmt: &Statement,
) -> Result<Vec<(usize, Arc<LogicalPlan>)>, EngineError> {
    let mut planned = Vec::new();
    for (i, version) in snapshot.slots().iter().enumerate() {
        if version.table().time_bounds().is_none() {
            continue;
        }
        let planner = Planner::new(
            version.table(),
            shared.slots[i].config(),
            version.catalog().map(|c| c.as_ref()),
        );
        planned.push((i, Arc::new(planner.plan(stmt)?)));
    }
    if planned.is_empty() {
        let version = &snapshot.slots()[0];
        let planner = Planner::new(
            version.table(),
            shared.slots[0].config(),
            version.catalog().map(|c| c.as_ref()),
        );
        planned.push((0, Arc::new(planner.plan(stmt)?)));
    }
    Ok(planned)
}

/// Specialize every slot plan to one globally resolved range, fan the
/// partial computations out across the physical shards, merge in slot
/// order, and finalize. The heart of scatter-gather execution.
fn execute_planned(
    shared: &ShardedShared,
    shard_config: &ShardConfig,
    snapshot: &ShardSnapshot,
    stmt: &Statement,
    planned: &[(usize, Arc<LogicalPlan>)],
    params: &[Literal],
) -> Result<ExecOutput, EngineError> {
    let first = &planned[0].1;
    check_arity(first.num_params(), params)?;
    let bounds = snapshot.union_bounds();

    match &**first {
        LogicalPlan::Forecast(fp) => {
            // The window is global by construction: a literal window is
            // never clamped at plan time (identical in every slot plan),
            // and a dynamic one resolves here, once, against the union
            // bounds.
            let range = match &fp.range {
                TimeRangeSlot::Static(Some(r)) => *r,
                TimeRangeSlot::Static(None) => {
                    return Err(EngineError::Config(
                        "FORECAST window must bound both ends".to_string(),
                    ))
                }
                TimeRangeSlot::Dynamic(w) => resolve_forecast_window_bounds(w, params, bounds)?,
            };
            let specialized = specialize_slots(snapshot, planned, |p, version| {
                let LogicalPlan::Forecast(p) = p else {
                    return Err(EngineError::WrongStatement { expected: "FORECAST" });
                };
                Ok(LogicalPlan::Forecast(specialize_forecast(
                    p,
                    range,
                    version.table(),
                    version.catalog().map(|c| c.as_ref()),
                )?))
            })?;
            let agg_start = Instant::now();
            let responses = gather(shared, shard_config, snapshot, &specialized, params)?;
            let merged = merge_responses(&responses)?;
            let aggregation = agg_start.elapsed();
            let result = assemble_forecast(fp, range, &merged.days, merged.meta, aggregation)?;
            Ok(ExecOutput::Forecast(Box::new(result)))
        }
        LogicalPlan::Select(sp) => {
            // Resolve the global clamped range once. A static plan's
            // per-slot ranges were clamped to *slot* bounds at plan time,
            // so re-derive the clamp from the statement's window against
            // the union bounds — that is what one engine over the whole
            // table would have planned.
            let range = match &sp.range {
                TimeRangeSlot::Dynamic(w) => resolve_select_range_bounds(w, params, bounds)?,
                TimeRangeSlot::Static(_) => {
                    let Statement::Select(s) = stmt else {
                        return Err(EngineError::WrongStatement { expected: "SELECT" });
                    };
                    let (ulo, uhi) =
                        bounds.ok_or_else(|| EngineError::Config("empty table".to_string()))?;
                    let (lo, hi) =
                        match split_select_constraint(s)?.window.resolve_range(&[], Some(uhi))? {
                            Some((a, b)) => (a.max(ulo), b.min(uhi)),
                            None => (ulo, uhi),
                        };
                    if hi < lo {
                        None
                    } else {
                        Some((lo, hi))
                    }
                }
            };
            let specialized = specialize_slots(snapshot, planned, |p, version| {
                let LogicalPlan::Select(p) = p else {
                    return Err(EngineError::WrongStatement { expected: "SELECT" });
                };
                Ok(LogicalPlan::Select(specialize_select(
                    p,
                    range,
                    version.table(),
                    version.catalog().map(|c| c.as_ref()),
                )?))
            })?;
            let responses = gather(shared, shard_config, snapshot, &specialized, params)?;
            let merged = merge_responses(&responses)?;
            let Some((lo, _)) = merged.range else {
                return Ok(ExecOutput::Select(SelectResult {
                    rows: Vec::new(),
                    approximate: false,
                }));
            };
            Ok(ExecOutput::Select(assemble_select(sp, lo, &merged.days, merged.meta.sampled)?))
        }
    }
}

/// Apply `f` to every planned slot plan, keeping slot indices.
fn specialize_slots(
    snapshot: &ShardSnapshot,
    planned: &[(usize, Arc<LogicalPlan>)],
    f: impl Fn(&LogicalPlan, &CatalogVersion) -> Result<LogicalPlan, EngineError>,
) -> Result<Vec<(usize, Arc<LogicalPlan>)>, EngineError> {
    planned.iter().map(|(i, plan)| Ok((*i, Arc::new(f(plan, &snapshot.slots()[*i])?)))).collect()
}

/// Scatter: run every planned slot's partial computation on its owning
/// physical shard's worker thread, then gather the responses back **in
/// slot order** (and report the slot-order-first error on failure, so
/// error surfaces are as deterministic as results).
fn gather(
    shared: &ShardedShared,
    shard_config: &ShardConfig,
    snapshot: &ShardSnapshot,
    specialized: &[(usize, Arc<LogicalPlan>)],
    params: &[Literal],
) -> Result<Vec<ShardResponse>, EngineError> {
    let mut results: Vec<Option<Result<ShardResponse, EngineError>>> =
        (0..specialized.len()).map(|_| None).collect();
    if shard_config.shards <= 1 || specialized.len() <= 1 {
        for (pos, (slot, plan)) in specialized.iter().enumerate() {
            let version = &snapshot.slots()[*slot];
            results[pos] = Some(slot_response(&shared.slots[*slot], version, plan, params));
        }
    } else {
        // One worker per physical shard, each executing the planned slots
        // it owns; results land back in slot-order positions.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shard_config.shards];
        for (pos, (slot, _)) in specialized.iter().enumerate() {
            groups[shard_config.shard_of_slot(*slot)].push(pos);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .filter(|g| !g.is_empty())
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .iter()
                            .map(|&pos| {
                                let (slot, plan) = &specialized[pos];
                                let version = &snapshot.slots()[*slot];
                                (pos, slot_response(&shared.slots[*slot], version, plan, params))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (pos, result) in handle.join().expect("shard worker panicked") {
                    results[pos] = Some(result);
                }
            }
        });
    }
    // Surface errors in slot order, then unwrap the successes.
    results
        .into_iter()
        .map(|r| r.expect("every planned slot produced a result"))
        .collect::<Result<Vec<_>, _>>()
}

/// Render the scatter-gather EXPLAIN tree: a `ScatterGather` root
/// (`shards`, `slots`, total `est_rows`), one `Shard` child per physical
/// shard with its slot range and estimated rows, and the first planned
/// slot's plan as a representative subtree.
fn scatter_explain(
    shard_config: &ShardConfig,
    snapshot: &ShardSnapshot,
    planned: &[(usize, Arc<LogicalPlan>)],
    partial_cache: bool,
) -> PlanNode {
    let est = |plan: &LogicalPlan| match plan.source() {
        SourceSlot::Planned(s) => s.est_rows(),
        SourceSlot::Deferred => 0,
    };
    let total: usize = planned.iter().map(|(_, p)| est(p)).sum();
    let mut children: Vec<PlanNode> = (0..shard_config.shards)
        .map(|shard| {
            let range = shard_config.slot_range(shard);
            let rows: usize =
                planned.iter().filter(|(i, _)| range.contains(i)).map(|(_, p)| est(p)).sum();
            PlanNode {
                name: "Shard".to_string(),
                props: vec![
                    ("id".to_string(), shard.to_string()),
                    ("slots".to_string(), format!("{}..{}", range.start, range.end)),
                    ("est_rows".to_string(), rows.to_string()),
                ],
                children: Vec::new(),
            }
        })
        .collect();
    let (slot0, plan0) = &planned[0];
    children.push(explain_plan(plan0, snapshot.slots()[*slot0].table().schema(), partial_cache));
    PlanNode {
        name: "ScatterGather".to_string(),
        props: vec![
            ("shards".to_string(), shard_config.shards.to_string()),
            ("slots".to_string(), shard_config.slots.to_string()),
            ("est_rows".to_string(), total.to_string()),
        ],
        children,
    }
}

/// Hash-partition a table's rows into per-slot tables. Dimension values
/// are decoded to logical [`Value`]s first, so routing is independent of
/// the source table's dictionary code assignment, and each slot table
/// re-interns its own dictionaries.
fn split_table(table: &TimeSeriesTable, slots: usize) -> Result<Vec<TimeSeriesTable>, EngineError> {
    let schema = table.schema().clone();
    let mut out: Vec<TimeSeriesTable> =
        (0..slots).map(|_| TimeSeriesTable::new(schema.clone())).collect();
    let dicts = table.dictionaries();
    let num_dims = schema.dimensions().len();
    let num_measures = schema.num_measures();
    let mut dims: Vec<Value> = Vec::with_capacity(num_dims);
    let mut measures: Vec<f64> = Vec::with_capacity(num_measures);
    for (t, partition) in table.partitions() {
        for i in 0..partition.num_rows() {
            dims.clear();
            for d in 0..num_dims {
                dims.push(partition.dim(d).display_value(i, dicts[d].as_ref()));
            }
            measures.clear();
            for m in 0..num_measures {
                measures.push(partition.measure(m)[i]);
            }
            let slot = (route_hash(&dims, t) % slots as u64) as usize;
            out[slot].append_row(t, &dims, &measures)?;
        }
    }
    Ok(out)
}

/// Per-physical-shard counters, surfaced by [`ShardedEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Physical shard index.
    pub shard: usize,
    /// The contiguous slot range this shard owns, `[start, end)`.
    pub slots: (usize, usize),
    /// Rows visible in this shard's active slot versions.
    pub rows: usize,
    /// Rows staged for ingest across this shard's slots.
    pub pending_rows: usize,
    /// Partitions the staged rows touch across this shard's slots.
    pub pending_partitions: usize,
    /// Day-partial cache counters summed over this shard's slots (each
    /// slot engine owns its own cache); `None` when the cache is
    /// disabled.
    pub partial_cache: Option<crate::partial_cache::PartialCacheStats>,
}

/// A point-in-time snapshot of sharded-engine counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// The active outer [`ShardSnapshot::version`].
    pub version: u64,
    /// Highest slot catalog version, if catalogs are attached.
    pub catalog_version: Option<u64>,
    /// Per-physical-shard counters, in shard order.
    pub shards: Vec<ShardStats>,
}

impl ShardedStats {
    /// Total visible rows across shards.
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(|s| s.rows).sum()
    }

    /// Total staged-but-unpublished rows across shards.
    pub fn pending_rows(&self) -> usize {
        self.shards.iter().map(|s| s.pending_rows).sum()
    }

    /// Total partitions the staged rows touch across shards.
    pub fn pending_partitions(&self) -> usize {
        self.shards.iter().map(|s| s.pending_partitions).sum()
    }
}

/// A sharded FlashP engine: hash-partitioned slot engines behind the
/// same execute/prepare/ingest/publish surface as [`FlashPEngine`]. See
/// the [module docs](self) for the layout and invariance contract.
#[derive(Clone)]
pub struct ShardedEngine {
    shared: Arc<ShardedShared>,
    config: Arc<EngineConfig>,
    shard_config: ShardConfig,
}

impl ShardedEngine {
    /// Shard a table's rows across the layout's slots, exact queries
    /// only (no sample catalogs). Slot `s` gets the engine configuration
    /// with seed `mix(config.seed, s, SHARD_SEED_SALT)`.
    pub fn new(
        table: &TimeSeriesTable,
        config: EngineConfig,
        shard_config: ShardConfig,
    ) -> Result<Self, EngineError> {
        Self::build(table, config, shard_config, false)
    }

    /// Shard a table and run the offline sample preprocessor per slot, so
    /// sampled queries serve from per-slot catalogs. Per-slot draws use
    /// the derived slot seeds — deterministic for a given `(base seed,
    /// slot layout)` and independent of the shard count.
    pub fn with_catalogs(
        table: &TimeSeriesTable,
        config: EngineConfig,
        shard_config: ShardConfig,
    ) -> Result<Self, EngineError> {
        Self::build(table, config, shard_config, true)
    }

    fn build(
        table: &TimeSeriesTable,
        config: EngineConfig,
        shard_config: ShardConfig,
        sampled: bool,
    ) -> Result<Self, EngineError> {
        shard_config.validate()?;
        let slot_tables = split_table(table, shard_config.slots)?;
        let mut slots = Vec::with_capacity(shard_config.slots);
        for (slot, slot_table) in slot_tables.into_iter().enumerate() {
            let slot_config = EngineConfig {
                seed: mix(config.seed, slot as u64, SHARD_SEED_SALT),
                ..config.clone()
            };
            let engine = if sampled {
                let catalog = SampleCatalog::build(&slot_table, &slot_config)?;
                FlashPEngine::with_catalog(slot_table, slot_config, catalog)
            } else {
                FlashPEngine::new(slot_table, slot_config)
            };
            slots.push(engine);
        }
        let snapshot = ShardSnapshot::new(slots.iter().map(|e| e.snapshot()).collect());
        Ok(ShardedEngine {
            shared: Arc::new(ShardedShared {
                slots,
                active: RwLock::new(Arc::new(snapshot)),
                cycle: Mutex::new(()),
            }),
            config: Arc::new(config),
            shard_config,
        })
    }

    /// The shard layout.
    pub fn shard_config(&self) -> ShardConfig {
        self.shard_config
    }

    /// The base engine configuration (slot engines run seed-derived
    /// copies of it).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot the active outer [`ShardSnapshot`].
    pub fn snapshot(&self) -> Arc<ShardSnapshot> {
        self.shared.snapshot()
    }

    /// The active outer version; bumps on every effective
    /// [`ShardedEngine::publish`].
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Per-physical-shard counters (rows, staged ingest backlog), plus
    /// the outer version — the sharded counterpart of
    /// [`FlashPEngine::stats`].
    pub fn stats(&self) -> ShardedStats {
        let snapshot = self.snapshot();
        let mut catalog_version: Option<u64> = None;
        let shards = (0..self.shard_config.shards)
            .map(|shard| {
                let range = self.shard_config.slot_range(shard);
                let mut rows = 0;
                let mut pending_rows = 0;
                let mut pending_partitions = 0;
                let mut partial_cache: Option<crate::partial_cache::PartialCacheStats> = None;
                for slot in range.clone() {
                    rows += snapshot.slots()[slot].table().num_rows();
                    let stats = self.shared.slots[slot].stats();
                    pending_rows += stats.pending_rows;
                    pending_partitions += stats.pending_partitions;
                    catalog_version = catalog_version.max(stats.catalog_version);
                    if let Some(pc) = stats.partial_cache {
                        partial_cache.get_or_insert_with(Default::default).add(&pc);
                    }
                }
                ShardStats {
                    shard,
                    slots: (range.start, range.end),
                    rows,
                    pending_rows,
                    pending_partitions,
                    partial_cache,
                }
            })
            .collect();
        ShardedStats { version: snapshot.version(), catalog_version, shards }
    }

    /// Stage a batch of rows, each routed to its slot by
    /// [`route_hash`]`(dims, t) % slots`. Rows are invisible to queries
    /// until the next [`ShardedEngine::publish`]. Pre-built partition
    /// items are rejected up front (their dictionary codes are interned
    /// against a single table and cannot be re-routed row-wise) — the
    /// batch stages nothing in that case. Staging is atomic per slot:
    /// a mid-batch type error can leave earlier slots staged (the next
    /// publish simply includes them).
    pub fn ingest(&self, batch: IngestBatch) -> Result<usize, EngineError> {
        if batch.is_empty() {
            return Ok(0);
        }
        let items = batch.into_items();
        if items.iter().any(|i| matches!(i, IngestItem::Partition { .. })) {
            return Err(EngineError::Config(
                "sharded ingest accepts row items only: pre-built partitions are interned \
                 against a single table's dictionaries"
                    .to_string(),
            ));
        }
        let slots = self.shard_config.slots;
        let mut per_slot: Vec<IngestBatch> = (0..slots).map(|_| IngestBatch::new()).collect();
        for item in items {
            let IngestItem::Rows { t, rows } = item else { unreachable!("partitions rejected") };
            for (dims, measures) in rows {
                let slot = (route_hash(&dims, t) % slots as u64) as usize;
                per_slot[slot].push_row(t, &dims, &measures);
            }
        }
        let _cycle = self.shared.cycle.lock().expect("shard cycle lock poisoned");
        let mut staged = 0;
        for (slot, batch) in per_slot.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            staged += self.shared.slots[slot].ingest(batch)?;
        }
        Ok(staged)
    }

    /// Publish every slot's staged rows, then swap one new outer
    /// [`ShardSnapshot`] over the freshly published slot versions —
    /// executions either see the whole publish or none of it. A publish
    /// with nothing staged anywhere is a no-op that keeps the outer
    /// version. Returns slot-merged [`PublishStats`] (cell counters sum;
    /// the catalog version reports the highest slot catalog).
    pub fn publish(&self) -> Result<PublishStats, EngineError> {
        let start = Instant::now();
        let _cycle = self.shared.cycle.lock().expect("shard cycle lock poisoned");
        let mut appended = 0;
        let mut changed = 0;
        let mut delta = DeltaStats::default();
        let mut catalog_version: Option<u64> = None;
        for engine in &self.shared.slots {
            let stats = engine.publish()?;
            appended += stats.appended_rows;
            changed += stats.changed_partitions;
            delta.add(&stats.delta);
            catalog_version = catalog_version.max(stats.catalog_version);
        }
        if appended == 0 {
            let snapshot = self.snapshot();
            return Ok(PublishStats {
                version: snapshot.version(),
                catalog_version,
                appended_rows: 0,
                changed_partitions: 0,
                delta: DeltaStats::default(),
                duration: start.elapsed(),
            });
        }
        let next =
            Arc::new(ShardSnapshot::new(self.shared.slots.iter().map(|e| e.snapshot()).collect()));
        let stats = PublishStats {
            version: next.version(),
            catalog_version,
            appended_rows: appended,
            changed_partitions: changed,
            delta,
            duration: start.elapsed(),
        };
        *self.shared.active.write().expect("shard snapshot lock poisoned") = next;
        Ok(stats)
    }

    /// Execute any statement with scatter-gather. `EXPLAIN <stmt>`
    /// renders the `ScatterGather` plan tree.
    pub fn execute(&self, sql: &str) -> Result<ExecOutput, EngineError> {
        let stmt = parse(sql)?;
        if let Statement::Explain(inner) = &stmt {
            let snapshot = self.snapshot();
            let planned = plan_slots(&self.shared, &snapshot, inner)?;
            return Ok(ExecOutput::Plan(scatter_explain(
                &self.shard_config,
                &snapshot,
                &planned,
                self.shared.partial_enabled(),
            )));
        }
        let snapshot = self.snapshot();
        let planned = plan_slots(&self.shared, &snapshot, &stmt)?;
        execute_planned(&self.shared, &self.shard_config, &snapshot, &stmt, &planned, &[])
    }

    /// Execute a FORECAST statement (errors on SELECT/EXPLAIN).
    pub fn forecast(&self, sql: &str) -> Result<ForecastResult, EngineError> {
        match self.execute(sql)? {
            ExecOutput::Forecast(r) => Ok(*r),
            _ => Err(EngineError::WrongStatement { expected: "FORECAST" }),
        }
    }

    /// Execute a SELECT statement (errors on FORECAST/EXPLAIN).
    pub fn select(&self, sql: &str) -> Result<SelectResult, EngineError> {
        match self.execute(sql)? {
            ExecOutput::Select(r) => Ok(r),
            _ => Err(EngineError::WrongStatement { expected: "SELECT" }),
        }
    }

    /// Render the scatter-gather plan without executing. Accepts the
    /// statement with or without a leading `EXPLAIN`.
    pub fn explain(&self, sql: &str) -> Result<PlanNode, EngineError> {
        let stmt = match parse(sql)? {
            Statement::Explain(inner) => *inner,
            other => other,
        };
        let snapshot = self.snapshot();
        let planned = plan_slots(&self.shared, &snapshot, &stmt)?;
        Ok(scatter_explain(&self.shard_config, &snapshot, &planned, self.shared.partial_enabled()))
    }

    /// Prepare a statement for repeated sharded execution: per-slot plans
    /// are cached against the outer version and re-planned lazily after a
    /// publish, exactly like [`crate::PreparedQuery`] over one engine.
    pub fn prepare(&self, sql: &str) -> Result<ShardedPrepared, EngineError> {
        let stmt = parse(sql)?;
        if matches!(stmt, Statement::Explain(_)) {
            return Err(EngineError::WrongStatement { expected: "FORECAST or SELECT" });
        }
        let snapshot = self.snapshot();
        let planned = plan_slots(&self.shared, &snapshot, &stmt)?;
        let num_params = planned[0].1.num_params();
        Ok(ShardedPrepared {
            shared: self.shared.clone(),
            shard_config: self.shard_config,
            statement: stmt,
            num_params,
            cached: Mutex::new(ShardedPlanCache { version: snapshot.version(), planned }),
        })
    }
}

struct ShardedPlanCache {
    /// Outer [`ShardSnapshot::version`] the plans were made against.
    version: u64,
    planned: Vec<(usize, Arc<LogicalPlan>)>,
}

/// A prepared statement over a [`ShardedEngine`]: `Send + Sync`,
/// executable repeatedly (and concurrently) through `&self`. Every
/// execution snapshots the outer [`ShardSnapshot`] exactly once and runs
/// all slot partials against it, so no execution straddles a concurrent
/// sharded publish; the first execution after a publish re-plans every
/// slot against the new outer version.
pub struct ShardedPrepared {
    shared: Arc<ShardedShared>,
    shard_config: ShardConfig,
    statement: Statement,
    num_params: usize,
    cached: Mutex<ShardedPlanCache>,
}

impl ShardedPrepared {
    /// The parsed statement this query was prepared from.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// Number of `?` parameters [`ShardedPrepared::execute_with`]
    /// expects.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    fn plans_for(
        &self,
        snapshot: &ShardSnapshot,
    ) -> Result<Vec<(usize, Arc<LogicalPlan>)>, EngineError> {
        {
            let cached = self.cached.lock().expect("sharded plan lock poisoned");
            if cached.version == snapshot.version() {
                return Ok(cached.planned.clone());
            }
        }
        let planned = plan_slots(&self.shared, snapshot, &self.statement)?;
        let mut cached = self.cached.lock().expect("sharded plan lock poisoned");
        cached.version = snapshot.version();
        cached.planned = planned.clone();
        Ok(planned)
    }

    /// Execute a parameterless prepared statement.
    pub fn execute(&self) -> Result<ExecOutput, EngineError> {
        self.execute_with(&[])
    }

    /// Execute, binding `?` placeholder `i` to `params[i]`. Snapshots the
    /// outer version once; the whole scatter-gather answers from exactly
    /// that set of slot versions.
    pub fn execute_with(&self, params: &[Literal]) -> Result<ExecOutput, EngineError> {
        let snapshot = self.shared.snapshot();
        let planned = self.plans_for(&snapshot)?;
        execute_planned(
            &self.shared,
            &self.shard_config,
            &snapshot,
            &self.statement,
            &planned,
            params,
        )
    }

    /// Execute a prepared FORECAST (errors on SELECT).
    pub fn forecast_with(&self, params: &[Literal]) -> Result<ForecastResult, EngineError> {
        match self.execute_with(params)? {
            ExecOutput::Forecast(r) => Ok(*r),
            _ => Err(EngineError::WrongStatement { expected: "FORECAST" }),
        }
    }

    /// Execute a prepared SELECT (errors on FORECAST).
    pub fn select_with(&self, params: &[Literal]) -> Result<SelectResult, EngineError> {
        match self.execute_with(params)? {
            ExecOutput::Select(r) => Ok(r),
            _ => Err(EngineError::WrongStatement { expected: "SELECT" }),
        }
    }

    /// Render the scatter-gather plan for the current outer version.
    pub fn explain(&self) -> Result<PlanNode, EngineError> {
        let snapshot = self.shared.snapshot();
        let planned = self.plans_for(&snapshot)?;
        Ok(scatter_explain(&self.shard_config, &snapshot, &planned, self.shared.partial_enabled()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_table;

    #[test]
    fn shard_config_validates_layout() {
        assert!(ShardConfig::default().validate().is_ok());
        assert!(ShardConfig { shards: 16, slots: 16 }.validate().is_ok());
        assert!(ShardConfig { shards: 0, slots: 16 }.validate().is_err());
        assert!(ShardConfig { shards: 17, slots: 16 }.validate().is_err());
        assert!(ShardConfig { shards: 1, slots: 0 }.validate().is_err());
    }

    #[test]
    fn slot_ranges_partition_the_slots() {
        for shards in 1..=16 {
            let config = ShardConfig { shards, slots: 16 };
            let mut covered = Vec::new();
            for shard in 0..shards {
                let range = config.slot_range(shard);
                assert!(!range.is_empty(), "shard {shard} of {shards} owns no slots");
                for slot in range {
                    assert_eq!(config.shard_of_slot(slot), shard);
                    covered.push(slot);
                }
            }
            assert_eq!(covered, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn route_hash_is_stable_and_type_tagged() {
        let t = Timestamp::from_yyyymmdd(20200101).unwrap();
        let a = route_hash(&[Value::Int(3), Value::Str("ab".to_string())], t);
        assert_eq!(a, route_hash(&[Value::Int(3), Value::Str("ab".to_string())], t));
        // Distinguishes string splits and value types.
        assert_ne!(
            route_hash(&[Value::Str("ab".to_string()), Value::Str("c".to_string())], t),
            route_hash(&[Value::Str("a".to_string()), Value::Str("bc".to_string())], t)
        );
        assert_ne!(route_hash(&[Value::Int(1)], t), route_hash(&[Value::Float(1.0)], t));
        assert_ne!(a, route_hash(&[Value::Int(3), Value::Str("ab".to_string())], t + 1));
    }

    #[test]
    fn split_preserves_rows_and_routes_deterministically() {
        let table = test_table();
        let a = split_table(&table, 8).unwrap();
        let b = split_table(&table, 8).unwrap();
        assert_eq!(a.iter().map(|t| t.num_rows()).sum::<usize>(), table.num_rows());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.num_rows(), y.num_rows());
        }
        // A spread-out dimension key should touch most slots.
        assert!(a.iter().filter(|t| t.num_rows() > 0).count() >= 4);
    }

    #[test]
    fn sharded_ingest_rejects_partition_items() {
        let engine =
            ShardedEngine::new(&test_table(), EngineConfig::default(), ShardConfig::default())
                .unwrap();
        let mut batch = IngestBatch::new();
        let t = Timestamp::from_yyyymmdd(20200301).unwrap();
        let schema = test_table().schema().clone();
        let mut table = TimeSeriesTable::new(schema);
        table.append_row(t, &[Value::Int(1), Value::Str("a".to_string())], &[1.0, 2.0]).unwrap();
        let partition = table.partition(t).unwrap().clone();
        batch.push_partition(t, partition);
        let err = engine.ingest(batch).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "got {err:?}");
    }

    #[test]
    fn exact_select_matches_single_engine() {
        let table = test_table();
        let single = FlashPEngine::new(table.clone(), EngineConfig::default());
        let one = ShardedEngine::new(&table, EngineConfig::default(), ShardConfig::with_shards(1))
            .unwrap();
        let four = ShardedEngine::new(&table, EngineConfig::default(), ShardConfig::with_shards(4))
            .unwrap();
        for sql in [
            "SELECT SUM(m1) FROM T WHERE seg <= 5 AND t BETWEEN 20200105 AND 20200120 GROUP BY t",
            "SELECT AVG(m2) FROM T WHERE grp = 'a' AND t BETWEEN 20200101 AND 20200209",
            "SELECT COUNT(*) FROM T GROUP BY t",
        ] {
            let reference = single.select(sql).unwrap();
            let a = one.select(sql).unwrap();
            let b = four.select(sql).unwrap();
            // Shard-count invariance is bit-for-bit: same slots, same
            // slot-order merge, regardless of physical fan-out.
            assert_eq!(a, b, "sharded result depends on shard count for {sql}");
            // Against one engine over the unpartitioned table, the f64
            // sum is reassociated by hash routing: equal to tolerance.
            assert_eq!(reference.rows.len(), a.rows.len(), "row count diverged for {sql}");
            assert_eq!(reference.approximate, a.approximate);
            for ((t0, v0, _), (t1, v1, _)) in reference.rows.iter().zip(&a.rows) {
                assert_eq!(t0, t1);
                assert!(
                    (v0 - v1).abs() <= 1e-9 * v0.abs().max(1.0),
                    "value diverged for {sql}: {v0} vs {v1}"
                );
            }
        }
    }

    #[test]
    fn explain_renders_scatter_gather() {
        let table = test_table();
        let sharded =
            ShardedEngine::new(&table, EngineConfig::default(), ShardConfig::with_shards(4))
                .unwrap();
        let node = sharded
            .explain("SELECT SUM(m1) FROM T WHERE t BETWEEN 20200101 AND 20200110 GROUP BY t")
            .unwrap();
        assert_eq!(node.name, "ScatterGather");
        assert_eq!(node.prop("shards"), Some("4"));
        assert_eq!(node.prop("slots"), Some("16"));
        let shard_nodes: Vec<_> = node.children.iter().filter(|c| c.name == "Shard").collect();
        assert_eq!(shard_nodes.len(), 4);
        let est: usize =
            shard_nodes.iter().map(|s| s.prop("est_rows").unwrap().parse::<usize>().unwrap()).sum();
        assert_eq!(Some(est.to_string().as_str()), node.prop("est_rows"));
    }
}
