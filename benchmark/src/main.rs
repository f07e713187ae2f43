//! Wire-level benchmark of the FlashP service.
//!
//! ```text
//! flashp_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! flashp_benchmark --suite <out.json> [--seed <n>] [--seconds <s>] [--repeats <n>]
//! flashp_benchmark --compare <a.json> <b.json>
//! ```
//!
//! One process runs one workload: it starts the real server in-process on
//! a loopback port, drives it with a seeded statement stream over
//! `flashp_server::Client`, checks every reply, and prints one JSON result
//! as its last line. `--trace 0` reports the end-to-end metrics; `--trace
//! 1` replaces the phases with a traced pass and reports the per-layer
//! metrics. See `benchmark/README.md`.

mod compare;
mod layers;
mod metrics;
mod run;
mod setup;
mod stats;
mod streams;
mod trace;

use serde_json::{json, Map, Value};
use streams::Workload;

/// Full set-ups per untraced run; `setup_s` is their median. The first
/// serves the measurement.
const SETUP_REPEATS: usize = 3;
/// A spin reading this far above the quietest one marks the phases next to
/// it as disturbed; they are repeated once.
const NOISY_SPIN_SHIFT: f64 = 0.10;

const USAGE: &str = "usage:
  flashp_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  flashp_benchmark --suite <out.json> [--seed <n>] [--seconds <s>] [--repeats <n>]
  flashp_benchmark --compare <a.json> <b.json>
workloads: dash_warm explore_cold scan_exact fit_heavy publish_live dash_sharded";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

/// `--key value` pairs; `--compare` takes two values.
fn parse_args() -> std::collections::BTreeMap<String, Vec<String>> {
    let mut out = std::collections::BTreeMap::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(key) = args.next() {
        let Some(name) = key.strip_prefix("--") else {
            fail(&format!("unexpected argument {key}"))
        };
        let mut values = Vec::new();
        while let Some(value) = args.next_if(|a| !a.starts_with("--")) {
            values.push(value);
        }
        out.insert(name.to_string(), values);
    }
    out
}

fn number<T: std::str::FromStr>(
    args: &std::collections::BTreeMap<String, Vec<String>>,
    key: &str,
    default: Option<T>,
) -> T {
    match args.get(key).and_then(|v| v.first()) {
        Some(text) => text.parse().unwrap_or_else(|_| fail(&format!("--{key}: bad value {text}"))),
        None => default.unwrap_or_else(|| fail(&format!("--{key} is required"))),
    }
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn metrics_json(values: &[(&str, &str, f64)]) -> Value {
    let mut map = Map::new();
    for (name, unit, value) in values {
        map.insert(name.to_string(), json!({"value": finite(*value), "unit": *unit}));
    }
    Value::Object(map)
}

/// Print the run: header, one line per metric, the failures, and last the
/// one-line result the driver reads. Returns the process exit code.
fn report(
    header: Value,
    values: &[(&str, &str, f64)],
    notes: &[String],
    attempted: u64,
    failed: u64,
    failures: &[String],
) -> i32 {
    println!("{}", json!({"header": header}));
    for (name, unit, value) in values {
        println!("{name:<32} {:>16.4} {unit}", finite(*value));
    }
    for note in notes {
        println!("{note}");
    }
    for failure in failures.iter().take(10) {
        println!("FAILED: {failure}");
    }
    if failures.len() > 10 {
        println!("FAILED: ... and {} more", failures.len() - 10);
    }
    let correct = failed == 0 && failures.is_empty();
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": attempted.max(1),
            "failed": failed,
            "metrics": metrics_json(values),
        })
    );
    i32::from(!correct)
}

/// Whether the phases between two spin readings ran on a disturbed host:
/// either reading stands more than [`NOISY_SPIN_SHIFT`] above the quietest
/// reading this process has seen (the first is taken before the set-up).
/// Interference only ever slows the loop, so the quietest reading is the
/// host's own speed and any reading far above it is stolen time.
fn disturbed(quietest: f64, before: f64, after: f64) -> bool {
    before.max(after) > quietest * (1.0 + NOISY_SPIN_SHIFT)
}

fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> i32 {
    let mut header = setup::header(workload, seed, seconds, false);
    let spin_at_start = setup::host_spin_ns();
    let started = std::time::Instant::now();
    let mut env = setup::setup(workload, seed);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    let mut cursor = run::Cursor::default();
    let mut spin = (setup::host_spin_ns(), 0.0);
    let mut phases = run::measure(&mut env, seconds, &mut cursor);
    spin.1 = setup::host_spin_ns();
    let mut quietest = spin_at_start.min(spin.0).min(spin.1);
    let retried = disturbed(quietest, spin.0, spin.1);
    if retried {
        spin.0 = setup::host_spin_ns();
        phases = run::measure(&mut env, seconds, &mut cursor);
        spin.1 = setup::host_spin_ns();
        quietest = quietest.min(spin.0).min(spin.1);
    }
    let noisy = disturbed(quietest, spin.0, spin.1);

    let (oracle_checked, mut failures) = run::verify_oracle(&mut env);
    if workload == Workload::PublishLive {
        let batches = phases.writer.lateness_ms.len() as u64;
        failures.extend(run::verify_live(&env, &phases.writer, phases.misses, batches));
    }
    let loops = std::iter::once(&phases.a).chain(&phases.b);
    let (mut attempted, mut failed) =
        (oracle_checked + phases.writer.attempted, phases.writer.failed);
    for client in loops {
        attempted += client.attempted;
        failed += client.failed;
    }
    failed += failures.len() as u64;

    // The remaining set-ups run after the measurement, each torn down
    // before the next: set up before the phases, they would leave the
    // allocator in a state that differs from run to run and shifts every
    // latency with it (p50 of dash_warm: ±0.8 % after one set-up, ±6 %
    // after three).
    let rss_peak_mb = setup::rss_peak_mb();
    drop(env);
    while setup_s.len() < SETUP_REPEATS {
        let started = std::time::Instant::now();
        let again = setup::setup(workload, seed);
        setup_s.push(started.elapsed().as_secs_f64());
        drop(again);
    }

    let a_ms = run::in_order_ms(&phases.a.latencies_ns);
    let (a_len, b_len) = run::phase_split(workload, seconds);
    let values = [
        stats::median_of(&setup_s),
        stats::quiet_percentile(&a_ms, 0.50),
        stats::quiet_percentile(&a_ms, 0.95),
        run::stmts_per_s(&phases),
        rss_peak_mb,
    ];
    let values: Vec<(&str, &str, f64)> =
        metrics::END_TO_END.iter().zip(values).map(|(m, v)| (m.0, m.1, v)).collect();

    let windows = stats::window_count(a_ms.len());
    let mut notes = vec![format!(
        "phase A: {} statements in {windows} window(s), {} beyond each p95; \
         phase B: {} statements from {} clients",
        a_ms.len(),
        stats::samples_beyond(a_ms.len() / windows, 0.95),
        phases.b.iter().map(|c| c.latencies_ns.len()).sum::<usize>(),
        phases.b.len(),
    )];
    // Drift and bursts inside the phase show across its windows.
    for (name, q) in [("p50", 0.50), ("p95", 0.95)] {
        let per_window: Vec<String> =
            stats::window_percentiles(&a_ms, q).iter().map(|ms| format!("{ms:.4}")).collect();
        notes.push(format!("phase A {name} by window (ms): {}", per_window.join(" ")));
    }
    if workload == Workload::PublishLive {
        notes.push(format!(
            "writer: {} publishes, max lateness {:.1} ms",
            phases.writer.publishes,
            phases.writer.lateness_ms.iter().copied().fold(0.0, f64::max),
        ));
    }
    if let Value::Object(map) = &mut header {
        map.insert("setup_s_each".to_string(), json!(setup_s));
        map.insert("phase_a_s".to_string(), json!(a_len.as_secs_f64()));
        map.insert("phase_b_s".to_string(), json!(b_len.as_secs_f64()));
        map.insert("host_spin_ns".to_string(), json!([spin.0, spin.1]));
        map.insert("retried".to_string(), json!(retried));
        map.insert("noisy".to_string(), json!(noisy));
    }
    report(header, &values, &notes, attempted, failed, &failures)
}

fn run_traced(workload: Workload, seed: u64, seconds: f64) -> i32 {
    let mut header = setup::header(workload, seed, seconds, true);
    let mut env = setup::setup(workload, seed);
    let spin_before = setup::host_spin_ns();
    let report_in = layers::run_traced(&mut env, seconds, spin_before);
    let spin_after = setup::host_spin_ns();
    if let Value::Object(map) = &mut header {
        let noisy = disturbed(spin_before.min(spin_after), spin_before, spin_after);
        map.insert("host_spin_ns".to_string(), json!([spin_before, spin_after]));
        map.insert("noisy".to_string(), json!(noisy));
    }

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    let body = json!({"header": header.clone(), "spans": trace::to_json(&report_in.spans)});
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, serde_json::to_string(&body).expect("json") + "\n"));
    let mut notes = vec![match written {
        Ok(()) => format!("trace: {} spans in {}", report_in.spans.len(), path.display()),
        Err(e) => format!("trace not written to {}: {e}", path.display()),
    }];
    notes.push("shares of the traced round trip:".to_string());
    for (name, value) in &report_in.metrics {
        if let Some(layer) = name.strip_prefix("share.") {
            notes.push(format!("  {layer:<20} {:>6.1} %", 100.0 * value));
        }
    }

    let values: Vec<(&str, &str, f64)> =
        metrics::PER_LAYER.iter().map(|m| (m.0, m.1, report_in.metrics[m.0])).collect();
    report(header, &values, &notes, report_in.attempted, report_in.failed, &report_in.failures)
}

fn main() {
    // Dataset generation sizes its pool from this variable; pin it so the
    // set-up does the same work on every host. Nothing has spawned yet.
    if std::env::var_os("FLASHP_THREADS").is_none() {
        std::env::set_var("FLASHP_THREADS", setup::ENGINE_THREADS.to_string());
    }
    let args = parse_args();
    let code = if let Some(files) = args.get("compare") {
        let [a, b] = files.as_slice() else { fail("--compare takes two result files") };
        compare::compare(a, b)
    } else if let Some(out) = args.get("suite") {
        let [out] = out.as_slice() else { fail("--suite takes the output file") };
        compare::suite(
            out,
            number(&args, "seed", Some(1)),
            number(&args, "seconds", Some(10.0)),
            number(&args, "repeats", Some(5)),
        )
    } else {
        let name: String = number(&args, "workload", None);
        let workload =
            Workload::parse(&name).unwrap_or_else(|| fail(&format!("unknown workload {name}")));
        let seed: u64 = number(&args, "seed", None);
        let seconds: f64 = number(&args, "seconds", None);
        if !(seconds > 0.0 && seconds <= 60.0) {
            fail("--seconds must be in (0, 60]");
        }
        match number::<u8>(&args, "trace", Some(0)) {
            0 => run_untraced(workload, seed, seconds),
            1 => run_traced(workload, seed, seconds),
            other => fail(&format!("--trace takes 0 or 1, got {other}")),
        }
    };
    std::process::exit(code);
}
