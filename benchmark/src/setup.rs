//! The fixed set-up every workload runs on, and the run header that
//! records it. Nothing here is derived from the host: thread, worker and
//! client counts are constants so runs compare across machines.

use crate::streams::{self, Workload};
use flashp_core::{
    EngineConfig, FlashPEngine, SampleCatalog, SamplerChoice, ShardConfig, ShardedEngine,
};
use flashp_data::{generate_dataset, DatasetConfig};
use flashp_server::harness::is_ok;
use flashp_server::{serve_backend, Backend, Client, ServerConfig, ServerHandle};
use flashp_storage::TimeSeriesTable;
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

pub const ROWS_PER_DAY: usize = 20_000;
pub const LAYER_RATES: [f64; 2] = [0.1, 0.01];
pub const DEFAULT_RATE: f64 = 0.01;
pub const ENGINE_THREADS: usize = 2;
pub const SERVER_WORKERS: usize = 2;
pub const QUEUE_DEPTH: usize = 64;
pub const SHARD_LAYOUT: ShardConfig = ShardConfig { shards: 2, slots: 16 };
/// Connections a run opens; the host has two cores, so never more.
pub const CONNECTIONS: usize = 2;
/// Cold statements each warm-up sends on the first connection (a quarter
/// of that on the second) so code paths and allocator are warm.
pub const COLD_WARMUP: u64 = 16;
/// Statements that fill the day-partial cache before a cold workload is
/// timed: 480 × 150 days is past its 65 536 entries, so every timed
/// statement meets a full cache that has to evict, the steady state of a
/// workload larger than the cache.
pub const CACHE_FILL: u64 = 480;

/// Seed of the generated table. The table is the same fixture on every
/// run; `--seed` draws the statement streams and the writer's batches.
/// What a statement costs depends on the data it meets (the auto-ARIMA
/// search of `fit_heavy` took 49 to 74 ms across ten table seeds), so a
/// table that changed with the seed would make two seeds two benchmarks.
pub const DATASET_SEED: u64 = 20_210_514;

pub fn dataset_config() -> DatasetConfig {
    DatasetConfig::new(ROWS_PER_DAY, streams::TABLE_DAYS as usize, DATASET_SEED)
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        sampler: SamplerChoice::OptimalGsw,
        layer_rates: LAYER_RATES.to_vec(),
        default_rate: DEFAULT_RATE,
        threads: ENGINE_THREADS,
        partial_cache: true,
        ..Default::default()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig { workers: SERVER_WORKERS, queue_depth: QUEUE_DEPTH, ..Default::default() }
}

/// A served table with its connections open, tiles prepared and caches
/// warm: the state the first timed statement meets.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    /// The generated table (the server's own copy grows on `publish_live`).
    pub table: Arc<TimeSeriesTable>,
    pub server: ServerHandle,
    pub clients: Vec<Client>,
    pub generate_s: f64,
    pub catalog_build_s: f64,
}

impl Env {
    pub fn backend(&self) -> &Backend {
        self.server.backend()
    }

    /// The single engine's current catalog; `None` behind the sharded
    /// backend, whose slots each hold their own.
    pub fn catalog(&self) -> Option<Arc<SampleCatalog>> {
        match self.backend() {
            Backend::Single(engine) => engine.catalog(),
            Backend::Sharded(_) => None,
        }
    }

    /// Another engine over what the server serves right now — the same
    /// table and catalog, shared by `Arc` — without a day-partial cache, so
    /// every call computes. Behind the sharded backend: the generated
    /// table, exact scans only.
    pub fn uncached_engine(&self) -> FlashPEngine {
        let config = EngineConfig { partial_cache: false, ..engine_config() };
        match self.backend() {
            Backend::Single(engine) => {
                let snapshot = engine.snapshot();
                match snapshot.catalog() {
                    Some(catalog) => FlashPEngine::with_catalog(
                        snapshot.table().clone(),
                        config,
                        catalog.clone(),
                    ),
                    None => FlashPEngine::new(snapshot.table().clone(), config),
                }
            }
            Backend::Sharded(_) => FlashPEngine::new(self.table.clone(), config),
        }
    }
}

/// Send `line`, panicking on a transport failure or a refusal: set-up and
/// warm-up statements are not part of the measurement and must all work.
pub fn must(client: &mut Client, line: &str) -> String {
    let reply = client.roundtrip(line).unwrap_or_else(|e| panic!("set-up: {line}: {e}"));
    assert!(is_ok(&reply), "set-up: {line} -> {reply}");
    reply
}

/// Generate, build the catalog(s), serve, connect, PREPARE and warm up.
pub fn setup(workload: Workload, seed: u64) -> Env {
    let t = Instant::now();
    let dataset = generate_dataset(&dataset_config()).expect("dataset generation");
    let generate_s = t.elapsed().as_secs_f64();
    let table = Arc::new(dataset.table);

    let t = Instant::now();
    let backend = if workload.is_sharded() {
        let engine = ShardedEngine::with_catalogs(&table, engine_config(), SHARD_LAYOUT)
            .expect("sharded catalogs");
        Backend::from(engine)
    } else {
        let catalog = SampleCatalog::build(&table, &engine_config()).expect("catalog");
        Backend::from(FlashPEngine::with_catalog(table.clone(), engine_config(), catalog))
    };
    let catalog_build_s = t.elapsed().as_secs_f64();

    let server = serve_backend(backend, server_config()).expect("server start");
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).expect("client connect"))
        .collect();

    // The publish_live writer (connection 1) prepares and warms nothing.
    let readers = if workload == Workload::PublishLive { 1 } else { CONNECTIONS };
    for client in clients.iter_mut().take(readers) {
        for tile in streams::tiles(workload) {
            must(client, &format!("PREPARE {} AS {}", tile.name, tile.sql));
        }
    }
    // Warm-up: the first connection walks one full rotation (every day
    // partial the prepared workloads will touch is warm afterwards); the
    // second touches each of its handles once.
    let rotation = streams::rotation_len(workload) as u64;
    let tiles = streams::tiles(workload).len() as u64;
    let (first, second) =
        if workload.is_cold() { (COLD_WARMUP, COLD_WARMUP / 4) } else { (rotation, tiles) };
    let mut k = 0;
    if workload.is_cold() {
        for _ in 0..CACHE_FILL {
            must(&mut clients[0], &streams::cache_fill_stmt(seed, k));
            k += 1;
        }
    }
    for (client, count) in clients.iter_mut().take(readers).zip([first, second]) {
        for _ in 0..count {
            must(client, &streams::stmt(workload, seed, streams::CLIENT_STREAMS - 1, k).line);
            k += 1;
        }
    }

    Env { workload, seed, table, server, clients, generate_s, catalog_build_s }
}

/// A fixed pure-CPU loop, timed: the minimum of five tries in
/// nanoseconds. Read before and after the phases, it tells a run on a
/// disturbed host from a quiet one.
pub fn host_spin_ns() -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..4_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set (`VmHWM`) in MB; 0 where `/proc` has no such line.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run header: everything needed to repeat the run and to judge
/// whether two runs are comparable.
pub fn header(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Value {
    json!({
        "benchmark": "flashp-benchmark",
        "workload": workload.name(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "command": std::env::args().collect::<Vec<String>>().join(" "),
        "git_rev": git_rev(),
        "host_cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "kernel_tier": flashp_storage::simd::active_tier().name(),
        "dataset": {
            "seed": DATASET_SEED,
            "rows_per_day": ROWS_PER_DAY,
            "days": streams::TABLE_DAYS,
            "generator_threads": flashp_storage::parallel::default_threads(),
        },
        "engine": {
            "sampler": "OptimalGsw",
            "layer_rates": LAYER_RATES.to_vec(),
            "default_rate": DEFAULT_RATE,
            "threads": ENGINE_THREADS,
            "partial_cache": true,
            "shards": if workload.is_sharded() { SHARD_LAYOUT.shards } else { 0 },
            "slots": if workload.is_sharded() { SHARD_LAYOUT.slots } else { 0 },
        },
        "server": {"workers": SERVER_WORKERS, "queue_depth": QUEUE_DEPTH},
        "window_days": streams::WINDOW_DAYS,
        "fore_period": streams::FORE_PERIOD,
        "connections": CONNECTIONS,
    })
}
