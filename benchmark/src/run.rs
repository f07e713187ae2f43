//! The measured phases of one workload run, the paced `publish_live`
//! writer, and the verification that runs on the quiesced server.

use crate::setup::{self, Env};
use crate::streams::{self, Pacer, Workload};
use flashp_data::{BatchStream, StreamConfig};
use flashp_server::harness::is_ok;
use flashp_server::{protocol, Client};
use flashp_storage::Value as Cell;
use std::time::{Duration, Instant};

/// Rows of one writer batch: a quarter of a day.
pub const BATCH_ROWS: usize = 5_000;
pub const BATCHES_PER_DAY: usize = 4;
/// Rows per `INGEST` line.
const ROWS_PER_LINE: usize = 250;
/// The writer's open schedule: one batch and one `PUBLISH` per period.
pub const WRITER_PERIOD: Duration = Duration::from_millis(500);
/// Statements of stream 0 whose wire bytes are checked against the
/// in-process result after the phases.
pub const ORACLE_STATEMENTS: u64 = 32;

/// What one closed-loop client saw.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Round trips of `ok` replies, nanoseconds, in send order.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Phase start to this client's last reply.
    pub busy: Duration,
}

impl LoopResult {
    pub fn ok_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.busy.as_secs_f64().max(1e-9)
    }
}

/// Closed loop: send the stream's next statement when the previous reply
/// has landed, until `duration` has passed. `next_k` is the stream cursor
/// and is advanced, so a repeated phase continues with fresh statements.
pub fn closed_loop(
    client: &mut Client,
    workload: Workload,
    seed: u64,
    stream: u64,
    next_k: &mut u64,
    duration: Duration,
) -> LoopResult {
    let mut out = LoopResult::default();
    let start = Instant::now();
    while start.elapsed() < duration {
        let stmt = streams::stmt(workload, seed, stream, *next_k);
        *next_k += 1;
        out.attempted += 1;
        let sent = Instant::now();
        match client.roundtrip(&stmt.line) {
            Ok(reply) if is_ok(&reply) => {
                out.latencies_ns.push(sent.elapsed().as_nanos() as u64);
            }
            Ok(reply) => {
                out.failed += 1;
                eprintln!("refused: {} -> {reply}", stmt.line);
            }
            Err(e) => {
                // The connection is gone; nothing more can be measured on it.
                out.failed += 1;
                eprintln!("transport error on {}: {e}", stmt.line);
                break;
            }
        }
        out.busy = start.elapsed();
    }
    out
}

fn cell_text(cell: &Cell) -> String {
    match cell {
        Cell::Int(v) => v.to_string(),
        Cell::Float(v) => v.to_string(),
        Cell::Str(s) => format!("'{s}'"),
    }
}

/// One batch's rows as the engine's ingest API takes them.
pub type BatchRows = Vec<(Vec<Cell>, Vec<f64>)>;

/// Batches `from..from + count` of the seeded stream continuing the
/// table's timeline, as `(timestamp, rows)`.
pub fn batch_rows(
    env: &Env,
    from: usize,
    count: usize,
) -> Vec<(flashp_storage::Timestamp, BatchRows)> {
    let config = StreamConfig::new(BATCH_ROWS, env.seed).with_batches_per_day(BATCHES_PER_DAY);
    let dictionaries = env.table.dictionaries();
    BatchStream::continuing(&setup::dataset_config(), config)
        .skip(from)
        .take(count)
        .map(|batch| {
            let p = &batch.partition;
            let rows = (0..p.num_rows())
                .map(|r| {
                    let dims = (0..p.dims().len())
                        .map(|d| p.dim(d).display_value(r, dictionaries[d].as_ref()))
                        .collect();
                    let measures = p.measures().iter().map(|m| m[r]).collect();
                    (dims, measures)
                })
                .collect();
            (batch.t, rows)
        })
        .collect()
}

/// The same batches as text: each batch's `INGEST` lines.
pub fn render_batches(env: &Env, from: usize, count: usize) -> Vec<Vec<String>> {
    batch_rows(env, from, count)
        .into_iter()
        .map(|(t, rows)| {
            rows.chunks(ROWS_PER_LINE)
                .map(|chunk| {
                    let mut line = String::from("INGEST");
                    for (dims, measures) in chunk {
                        let cells: Vec<String> = std::iter::once(t.to_yyyymmdd().to_string())
                            .chain(dims.iter().map(cell_text))
                            .chain(measures.iter().map(f64::to_string))
                            .collect();
                        line.push_str(&format!(" ({})", cells.join(", ")));
                    }
                    line
                })
                .collect()
        })
        .collect()
}

/// What the paced writer did.
#[derive(Debug, Default)]
pub struct WriterResult {
    pub publishes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub rows_acked: u64,
    /// Time spent inside `INGEST` round trips.
    pub ingest_busy: Duration,
    pub publish_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    /// `version` of every `PUBLISH` reply, in order.
    pub versions: Vec<u64>,
    pub absorbed_cells: u64,
    pub rebuilt_cells: u64,
}

fn reply_u64(reply: &str, key: &str) -> u64 {
    serde_json::from_str(reply).ok().and_then(|v| v.get(key)?.as_u64()).unwrap_or(0)
}

/// Open loop: batch `k` goes out at `k × period` whatever the replies
/// took; a late batch goes out at once and its lateness is recorded.
pub fn paced_writer(client: &mut Client, batches: &[Vec<String>], out: &mut WriterResult) {
    let pacer = Pacer { period_ns: WRITER_PERIOD.as_nanos() as u64 };
    let start = Instant::now();
    for (k, batch) in batches.iter().enumerate() {
        let (wait, late) = pacer.wait_and_lateness_ns(k as u64, start.elapsed().as_nanos() as u64);
        std::thread::sleep(Duration::from_nanos(wait));
        out.lateness_ms.push(late as f64 / 1e6);
        for line in batch {
            out.attempted += 1;
            let sent = Instant::now();
            match client.roundtrip(line) {
                Ok(reply) if is_ok(&reply) => {
                    out.ingest_busy += sent.elapsed();
                    out.rows_acked += reply_u64(&reply, "staged_rows");
                }
                other => {
                    out.failed += 1;
                    eprintln!("INGEST failed: {other:?}");
                }
            }
        }
        out.attempted += 1;
        let sent = Instant::now();
        match client.roundtrip("PUBLISH") {
            Ok(reply) if is_ok(&reply) => {
                out.publish_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                out.publishes += 1;
                out.versions.push(reply_u64(&reply, "version"));
                out.absorbed_cells += reply_u64(&reply, "absorbed_cells");
                out.rebuilt_cells += reply_u64(&reply, "rebuilt_cells");
            }
            other => {
                out.failed += 1;
                eprintln!("PUBLISH failed: {other:?}");
            }
        }
    }
}

/// Day-partial cache counters so far, summed over shards behind a sharded
/// backend; zeros with the cache off.
pub fn cache_stats(env: &Env) -> flashp_core::PartialCacheStats {
    match env.backend() {
        flashp_server::Backend::Single(e) => e.partial_cache_stats().unwrap_or_default(),
        flashp_server::Backend::Sharded(e) => {
            let mut total = flashp_core::PartialCacheStats::default();
            for shard in e.stats().shards {
                if let Some(c) = shard.partial_cache {
                    total.add(&c);
                }
            }
            total
        }
    }
}

/// Everything the measured phases of one attempt produced.
#[derive(Debug, Default)]
pub struct Phases {
    pub a: LoopResult,
    pub b: Vec<LoopResult>,
    pub writer: WriterResult,
    /// Cache misses per publish seen by the live reader (publish_live).
    pub misses: u64,
}

/// Stream cursors and writer position carried across a repeated attempt.
#[derive(Debug, Default)]
pub struct Cursor {
    pub next_k: [u64; streams::CLIENT_STREAMS as usize],
    pub next_batch: usize,
}

/// Phase A share of the run's seconds; phase B takes the rest.
/// `fit_heavy` gives A more, so its ~73 ms statements still reach a
/// three-digit sample count.
pub fn phase_split(workload: Workload, seconds: f64) -> (Duration, Duration) {
    let share = match workload {
        Workload::PublishLive => 1.0,
        Workload::FitHeavy => 0.75,
        _ => 0.6,
    };
    (Duration::from_secs_f64(seconds * share), Duration::from_secs_f64(seconds * (1.0 - share)))
}

/// Phase A (one connection, latency) then phase B (two connections,
/// throughput). `publish_live` instead runs its reader beside the paced
/// writer for the whole time and ends with one quiesced rotation, so the
/// last publish's cold days are counted too.
pub fn measure(env: &mut Env, seconds: f64, cursor: &mut Cursor) -> Phases {
    let (workload, seed) = (env.workload, env.seed);
    let (a_len, b_len) = phase_split(workload, seconds);
    let mut phases = Phases::default();
    let [k0, k1, k2, _] = &mut cursor.next_k;

    if workload == Workload::PublishLive {
        let count = Pacer { period_ns: WRITER_PERIOD.as_nanos() as u64 }
            .batches_before(a_len.as_nanos() as u64) as usize;
        let batches = render_batches(env, cursor.next_batch, count);
        cursor.next_batch += count;
        let misses_before = cache_stats(env).misses;
        let (reader, writer) = env.clients.split_at_mut(1);
        std::thread::scope(|scope| {
            let w = scope.spawn(|| {
                let mut out = WriterResult::default();
                paced_writer(&mut writer[0], &batches, &mut out);
                out
            });
            phases.a = closed_loop(&mut reader[0], workload, seed, 0, k0, a_len);
            phases.writer = w.join().expect("writer thread");
        });
        for _ in 0..streams::rotation_len(workload) {
            setup::must(&mut env.clients[0], &streams::stmt(workload, seed, 0, *k0).line);
            *k0 += 1;
        }
        phases.misses = cache_stats(env).misses - misses_before;
        return phases;
    }

    phases.a = closed_loop(&mut env.clients[0], workload, seed, 0, k0, a_len);
    let (first, second) = env.clients.split_at_mut(1);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| closed_loop(&mut second[0], workload, seed, 2, k2, b_len));
        let mine = closed_loop(&mut first[0], workload, seed, 1, k1, b_len);
        phases.b = vec![mine, other.join().expect("phase B client")];
    });
    phases
}

/// One failed check, worded for the run's output.
pub type Failure = String;

/// Wire ≡ in-process: on the quiesced server, the first statements of
/// stream 0 must come back over the socket with exactly the bytes
/// `encode_output(backend.execute(sql))` gives in-process. Returns the
/// statements checked and the failures.
pub fn verify_oracle(env: &mut Env) -> (u64, Vec<Failure>) {
    let mut seen = std::collections::BTreeSet::new();
    let mut failures = Vec::new();
    for k in 0..ORACLE_STATEMENTS {
        let stmt = streams::stmt(env.workload, env.seed, 0, k);
        if !seen.insert(stmt.line.clone()) {
            continue;
        }
        let wire = env.clients[0].roundtrip(&stmt.line).unwrap_or_else(|e| format!("<{e}>"));
        let local = match env.backend().execute(&stmt.sql) {
            Ok(out) => protocol::encode_output(&out),
            Err(e) => protocol::engine_error_line(&e),
        };
        if !is_ok(&wire) || wire != local {
            failures.push(format!("wire != in-process for {}", stmt.line));
        }
    }
    (seen.len() as u64, failures)
}

/// `publish_live` only: every publish produced a new, larger version, the
/// engine now serves the last of them, and each publish cost the reader
/// exactly one cold day per tile (each tile owns one `(predicate,
/// measure)` pair and every batch changes exactly one day).
pub fn verify_live(env: &Env, writer: &WriterResult, misses: u64, batches: u64) -> Vec<Failure> {
    let mut failures = Vec::new();
    if writer.publishes != batches {
        failures.push(format!("{} publishes acknowledged, {batches} sent", writer.publishes));
    }
    if !writer.versions.windows(2).all(|w| w[0] < w[1]) {
        failures.push("publish versions are not strictly increasing".to_string());
    }
    if writer.versions.last().is_some_and(|v| *v != env.backend().version()) {
        failures.push("engine does not serve the last published version".to_string());
    }
    if writer.rows_acked != batches * BATCH_ROWS as u64 {
        failures.push(format!(
            "{} rows acknowledged of {}",
            writer.rows_acked,
            batches * BATCH_ROWS as u64
        ));
    }
    let expected = writer.publishes * streams::tiles(env.workload).len() as u64;
    if misses != expected {
        failures.push(format!(
            "{misses} cache misses for {} publishes, expected {expected}",
            writer.publishes
        ));
    }
    failures
}

/// Round trips in milliseconds, in send order.
pub fn in_order_ms(latencies_ns: &[u64]) -> Vec<f64> {
    latencies_ns.iter().map(|ns| *ns as f64 / 1e6).collect()
}

/// `stmts_per_s`: the sum of the phase-B clients' own rates (each over
/// the time to its last reply, so a statement cut off by the deadline
/// does not quantize the rate); the reader's phase-A rate on
/// `publish_live`, which has no phase B.
pub fn stmts_per_s(phases: &Phases) -> f64 {
    if phases.b.is_empty() {
        phases.a.ok_per_s()
    } else {
        phases.b.iter().map(LoopResult::ok_per_s).sum()
    }
}
