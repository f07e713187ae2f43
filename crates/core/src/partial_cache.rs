//! Versioned day-partial cache: memoized Horvitz–Thompson day partials
//! that survive re-bindings, publishes, and scatter-gather sharding.
//!
//! FlashP's dashboard workload is repeated FORECAST/SELECT over sliding
//! time windows. Execution already factors into independent per-day
//! units — one [`DayPartial`] per sampled cell or exact partition, all
//! computed by the one probe→fill driver `ExecCtx::day_partials` — and
//! `apply_delta` Arc-shares unchanged cells across publishes. This module
//! memoizes those day partials so a re-bound `USING (?, ?)` window only
//! computes days it has never seen.
//!
//! # Key derivation
//!
//! Entries are keyed on `(cell identity, predicate fingerprint, measure,
//! kind)`:
//!
//! * **cell identity** — a process-unique id minted on construction of
//!   each `CatalogCell` (sampled path) or `flashp_storage::Partition`
//!   (exact path) and never reused.
//!   `apply_delta` Arc-shares untouched cells, so their ids survive a
//!   publish; the cells a delta absorbs or redraws are *new* objects with
//!   new ids. Invalidation is therefore structural, not temporal: a
//!   publish invalidates exactly the changed (layer, bucket, day) cells,
//!   and warm days stay warm across version swaps with no purge pass.
//! * **predicate fingerprint** — `predicate_fingerprint`, a type-tagged
//!   FNV-1a walk of the compiled predicate tree (float comparisons hash
//!   their bit patterns; derived lookup structures are excluded).
//! * **measure** — the measure column index.
//! * **kind** — [`DayPartial::Sampled`] vs [`DayPartial::Exact`]
//!   (further split by [`SumMode`], whose fast path is reassociated and so
//!   not interchangeable with exact sums).
//!
//! The aggregate function is deliberately **not** part of the key:
//! `estimate_agg_with` is defined as `estimate_components_with(..)?
//! .finalize(agg)`, so cached components finalize to bit-identical
//! estimates for every aggregate.
//!
//! # Bit-identity
//!
//! The cache-on and cache-off paths are one driver: with the cache off
//! every probe misses. Day partials are computed by
//! `estimate_components_with` per sampled cell and
//! `flashp_storage::eval_partition_with` per partition, and per-day
//! results are independent of thread count, so assembling cache hits with
//! freshly computed misses in timestamp order is bit-identical to
//! recomputing every day. `crates/core/tests/partial_cache.rs` proves
//! this against the cache-off oracle (`FLASHP_NO_PARTIAL_CACHE=1`).
//!
//! # Placement
//!
//! One cache per engine, owned by the engine's shared state and visible
//! to every handle and prepared query. Under scatter-gather sharding each
//! virtual slot is its own engine and therefore gets its own cache, so
//! cached execution remains bit-for-bit invariant in the shard count.
//!
//! # Eviction
//!
//! Each lock shard is a two-generation `BoundedMap`, so eviction follows
//! the guarantee stated in `bounded.rs`, per shard.

use crate::bounded::BoundedMap;
use crate::config::EngineConfig;
use crate::prepared::DayPartial;
use flashp_storage::{CmpOp, CompiledPredicate, SumMode};
use std::sync::{Mutex, MutexGuard};

/// Total entry capacity of a [`PartialCache`] (across its internal lock
/// shards). Each entry is a few dozen bytes, so the default bounds the
/// cache at a handful of megabytes while holding years of daily partials
/// for dozens of distinct (predicate, measure) workloads.
pub(crate) const PARTIAL_CACHE_CAPACITY: usize = 65_536;

/// Internal lock shards; probes hash to one shard so concurrent handles
/// rarely contend.
const LOCK_SHARDS: usize = 8;

/// FNV-1a 64-bit offset basis: the starting state of every hash built
/// with `fnv`, here and in the shard router's `route_hash`.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `h`.
#[inline]
pub(crate) fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// One-shot FNV-1a of `bytes` (used for statement keys in the shared
/// specialization cache).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, bytes);
    h
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

fn op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn hash_pred(h: &mut u64, pred: &CompiledPredicate) {
    match pred {
        CompiledPredicate::Cmp { dim, op, value } => {
            fnv(h, &[0, op_tag(*op)]);
            fnv_u64(h, *dim as u64);
            fnv_u64(h, *value as u64);
        }
        CompiledPredicate::CmpF64 { dim, op, value } => {
            fnv(h, &[1, op_tag(*op)]);
            fnv_u64(h, *dim as u64);
            fnv_u64(h, value.to_bits());
        }
        // The derived lookup structure is a pure function of `values`, so
        // it is excluded from the fingerprint.
        CompiledPredicate::InSet { dim, values, .. } => {
            fnv(h, &[2]);
            fnv_u64(h, *dim as u64);
            fnv_u64(h, values.len() as u64);
            for v in values {
                fnv_u64(h, *v as u64);
            }
        }
        CompiledPredicate::And(children) => {
            fnv(h, &[3]);
            fnv_u64(h, children.len() as u64);
            for c in children {
                hash_pred(h, c);
            }
        }
        CompiledPredicate::Or(children) => {
            fnv(h, &[4]);
            fnv_u64(h, children.len() as u64);
            for c in children {
                hash_pred(h, c);
            }
        }
        CompiledPredicate::Not(inner) => {
            fnv(h, &[5]);
            hash_pred(h, inner);
        }
        CompiledPredicate::Const(b) => {
            fnv(h, &[6, u8::from(*b)]);
        }
    }
}

/// Type-tagged FNV-1a fingerprint of a compiled predicate tree. Two
/// predicates with equal fingerprints select the same rows (modulo the
/// 64-bit collision probability); structurally distinct trees get
/// distinct tags so `And([x])` and `Or([x])` cannot collide by layout.
pub(crate) fn predicate_fingerprint(pred: &CompiledPredicate) -> u64 {
    let mut h = FNV_OFFSET;
    hash_pred(&mut h, pred);
    h
}

/// Cache-key `kind` discriminants: sampled components vs exact states per
/// [`SumMode`]. Exact and fast sums are distinct contracts (fast is
/// reassociated), so they never share entries.
pub(crate) const KIND_SAMPLED: u8 = 0;

pub(crate) fn exact_kind(sum: SumMode) -> u8 {
    match sum {
        SumMode::Exact => 1,
        SumMode::Fast => 2,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    cell: u64,
    pred: u64,
    measure: u32,
    kind: u8,
}

impl Key {
    fn shard(&self) -> usize {
        // Cell ids are sequential; fold the other fields in and spread
        // with an FNV round so neighbours land on different locks.
        let mut h = FNV_OFFSET ^ self.pred;
        fnv_u64(&mut h, self.cell);
        fnv(&mut h, &[self.kind]);
        fnv_u64(&mut h, u64::from(self.measure));
        (h as usize) % LOCK_SHARDS
    }
}

/// Counter snapshot of a [`PartialCache`] (or a sum over several — see
/// [`PartialCacheStats::add`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialCacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that required computing the day partial.
    pub misses: u64,
    /// Entries dropped by the capacity bound (see the module docs).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl PartialCacheStats {
    /// Accumulate another snapshot into this one (used to aggregate a
    /// shard's per-slot caches into one wire-visible counter set).
    pub fn add(&mut self, other: &PartialCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
    }
}

/// Sharded, bounded cache of day partials. See the module docs for key
/// derivation, invalidation and eviction; construction and placement live
/// in the engine (`EngineShared`).
pub struct PartialCache {
    shards: Vec<Mutex<BoundedMap<Key, DayPartial>>>,
}

impl std::fmt::Debug for PartialCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartialCache").field("stats", &self.stats()).finish()
    }
}

impl PartialCache {
    /// A cache bounded at `capacity` total entries (at least two per lock
    /// shard).
    pub(crate) fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(LOCK_SHARDS).max(2);
        PartialCache {
            shards: (0..LOCK_SHARDS).map(|_| Mutex::new(BoundedMap::new(per_shard))).collect(),
        }
    }

    fn shard(&self, key: &Key) -> MutexGuard<'_, BoundedMap<Key, DayPartial>> {
        self.shards[key.shard()].lock().expect("partial cache poisoned")
    }

    /// Look up the memoized partial of cell or partition `cell` under
    /// predicate fingerprint `pred` for `measure` and cache `kind`. Counts
    /// a hit or miss.
    pub(crate) fn get(&self, cell: u64, pred: u64, measure: usize, kind: u8) -> Option<DayPartial> {
        let key = Key { cell, pred, measure: measure as u32, kind };
        self.shard(&key).get(&key)
    }

    /// Memoize the partial of cell or partition `cell`.
    pub(crate) fn put(&self, cell: u64, pred: u64, measure: usize, kind: u8, value: DayPartial) {
        let key = Key { cell, pred, measure: measure as u32, kind };
        self.shard(&key).insert(key, value);
    }

    /// Whether the sampled-component entry for `(cell, pred, measure)` is
    /// resident, without bumping any counter or moving the entry. EXPLAIN
    /// uses this to render the warm/cold day split of a bound window.
    pub(crate) fn peek_components(&self, cell: u64, pred: u64, measure: usize) -> bool {
        let key = Key { cell, pred, measure: measure as u32, kind: KIND_SAMPLED };
        self.shard(&key).contains(&key)
    }

    /// Counter snapshot, summed over the lock shards.
    pub fn stats(&self) -> PartialCacheStats {
        let mut stats = PartialCacheStats::default();
        for shard in &self.shards {
            let map = shard.lock().expect("partial cache poisoned");
            let (hits, misses, evictions) = map.counters();
            stats.add(&PartialCacheStats { hits, misses, evictions, entries: map.len() });
        }
        stats
    }
}

/// Whether the day-partial cache is active for `config`: on by default,
/// disabled by `partial_cache: false` or the `FLASHP_NO_PARTIAL_CACHE=1`
/// environment override (the CI cache-off oracle).
pub(crate) fn enabled(config: &EngineConfig) -> bool {
    config.partial_cache
        && !matches!(
            std::env::var("FLASHP_NO_PARTIAL_CACHE").ok().as_deref(),
            Some(v) if !v.is_empty() && v != "0"
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashp_sampling::EstimateComponents;
    use flashp_storage::AggState;

    #[test]
    fn fingerprint_distinguishes_structure() {
        // Built directly (the planner would fold single-child AND/OR
        // away): structurally distinct trees must not collide by layout.
        let cmp = CompiledPredicate::Cmp { dim: 0, op: CmpOp::Lt, value: 5 };
        let a = cmp.clone();
        let b = CompiledPredicate::Cmp { dim: 0, op: CmpOp::Le, value: 5 };
        let c = CompiledPredicate::Cmp { dim: 1, op: CmpOp::Lt, value: 5 };
        let and = CompiledPredicate::And(vec![cmp.clone()]);
        let or = CompiledPredicate::Or(vec![cmp]);
        let fps = [&a, &b, &c, &and, &or].map(predicate_fingerprint);
        for i in 0..fps.len() {
            for j in 0..fps.len() {
                if i != j {
                    assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
                }
            }
        }
        assert_eq!(predicate_fingerprint(&a), predicate_fingerprint(&a));
    }

    #[test]
    fn bounded_eviction_counts_and_keeps_the_newest() {
        let capacity = 2 * LOCK_SHARDS; // two entries per lock shard
        let cache = PartialCache::new(capacity);
        let c = DayPartial::Sampled(EstimateComponents { sum_hat: 1.0, ..Default::default() });
        for cell in 0..64u64 {
            assert!(cache.get(cell, 7, 0, KIND_SAMPLED).is_none());
            cache.put(cell, 7, 0, KIND_SAMPLED, c);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 64);
        // Every lock shard saw more than two keys, so each holds its full
        // two and dropped the rest.
        assert_eq!(stats.entries, capacity);
        assert_eq!(stats.evictions as usize, 64 - capacity);
        // The newest insert is resident, and peeking sees exactly the
        // resident set.
        assert!(cache.peek_components(63, 7, 0));
        let resident = (0..64u64).filter(|&cell| cache.peek_components(cell, 7, 0)).count();
        assert_eq!(resident, capacity);
        assert_eq!(cache.stats().hits, 0, "peek must not count");
    }

    #[test]
    fn full_default_cache_inserts_in_constant_time() {
        let cache = PartialCache::new(PARTIAL_CACHE_CAPACITY);
        let c = DayPartial::Sampled(EstimateComponents::default());
        let inserts = 200_000u64;
        let start = std::time::Instant::now();
        for cell in 0..inserts {
            cache.put(cell, 7, 0, KIND_SAMPLED, c);
        }
        let elapsed = start.elapsed();
        let stats = cache.stats();
        assert!(stats.entries <= PARTIAL_CACHE_CAPACITY);
        assert_eq!(stats.evictions + stats.entries as u64, inserts);
        assert!(elapsed < std::time::Duration::from_secs(2), "{inserts} inserts took {elapsed:?}");
    }

    #[test]
    fn evicting_cache_assembles_answers_bit_identical_to_uncached() {
        use crate::catalog::SampleCatalog;
        use crate::config::SamplerChoice;
        use crate::planner::{LogicalPlan, Planner};
        use crate::prepared::ExecCtx;

        let table = crate::test_support::test_table();
        let config = EngineConfig {
            layer_rates: vec![0.2],
            sampler: SamplerChoice::OptimalGsw,
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        let planner = Planner::new(&table, &config, Some(&catalog));
        let cache = PartialCache::new(16);
        let cached = ExecCtx {
            table: &table,
            config: &config,
            catalog: Some(&catalog),
            partial: Some(&cache),
        };
        let uncached = ExecCtx { partial: None, ..cached };
        let plan = |sql: &str| planner.plan(&flashp_query::parse(sql).unwrap()).unwrap();

        // Overlapping windows, the first one twice, so hits and evictions
        // interleave within one assembly.
        for (lo, hi) in [(20200101, 20200131), (20200105, 20200204), (20200110, 20200209)]
            .into_iter()
            .cycle()
            .take(4)
        {
            let LogicalPlan::Forecast(p) = plan(&format!(
                "FORECAST SUM(m1) FROM T WHERE seg <= 5 USING ({lo}, {hi}) \
                 OPTION (MODEL = 'ar(7)', FORE_PERIOD = 5, SAMPLE_RATE = 0.2)"
            )) else {
                panic!("expected a forecast plan")
            };
            let (a, b) = (
                cached.execute_forecast(&p, &[]).unwrap(),
                uncached.execute_forecast(&p, &[]).unwrap(),
            );
            assert_eq!(a.estimates.len(), b.estimates.len());
            for (x, y) in a.estimates.iter().zip(&b.estimates) {
                assert_eq!(x.t, y.t);
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "estimate at {}", x.t);
                assert_eq!(x.variance.map(f64::to_bits), y.variance.map(f64::to_bits));
            }
            assert_eq!(a.forecasts.len(), b.forecasts.len());
            for (x, y) in a.forecasts.iter().zip(&b.forecasts) {
                for (u, v) in
                    [(x.value, y.value), (x.lo, y.lo), (x.hi, y.hi), (x.std_err, y.std_err)]
                {
                    assert_eq!(u.to_bits(), v.to_bits(), "forecast at {}", x.t);
                }
            }
        }
        let LogicalPlan::Select(p) = plan(
            "SELECT SUM(m1) FROM T WHERE seg <= 5 AND t BETWEEN 20200101 AND 20200209 GROUP BY t",
        ) else {
            panic!("expected a select plan")
        };
        for _ in 0..2 {
            let (a, b) = (
                cached.execute_select(&p, &[]).unwrap(),
                uncached.execute_select(&p, &[]).unwrap(),
            );
            assert_eq!(a.rows.len(), 40);
            assert_eq!(a.rows.len(), b.rows.len());
            for (x, y) in a.rows.iter().zip(&b.rows) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "exact SUM at {}", x.0);
                assert_eq!(x.2.map(f64::to_bits), y.2.map(f64::to_bits));
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.hits > 0, "{stats:?}");
    }

    #[test]
    fn kinds_do_not_alias() {
        let cache = PartialCache::new(16);
        let (exact, fast) = (exact_kind(SumMode::Exact), exact_kind(SumMode::Fast));
        let state = DayPartial::Exact(AggState { sum: 5.0, count: 2 });
        cache.put(1, 2, 3, KIND_SAMPLED, DayPartial::Sampled(EstimateComponents::default()));
        assert!(cache.get(1, 2, 3, exact).is_none());
        cache.put(1, 2, 3, exact, state);
        assert!(cache.get(1, 2, 3, fast).is_none());
        assert_eq!(cache.get(1, 2, 3, exact), Some(state));
        assert!(cache.get(1, 2, 3, KIND_SAMPLED).is_some());
    }
}
