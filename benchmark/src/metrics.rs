//! The metric names, units and directions this benchmark fixes. They are
//! mirrored in `BENCHMARK.json` (a unit test holds the two together);
//! later PRs compare against these names, so they do not change.

/// `(name, unit, better, bound)`: what a user of the service sees.
/// Measured with tracing off, reported by every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("stmt_p50_ms", "ms", "lower", 0.25),
    ("stmt_p95_ms", "ms", "lower", 0.25),
    ("stmts_per_s", "1/s", "higher", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.10),
];

/// `(name, unit, better)`: single layers, measured from outside in the
/// traced run. A metric a workload cannot reach reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 60] = [
    // server
    ("server.decode_us", "us", "lower"),
    ("server.encode_us", "us", "lower"),
    ("server.reply_bytes", "B", "lower"),
    ("server.overhead_us", "us", "lower"),
    ("server.worker_p50_us", "us", "lower"),
    ("server.busy_rejections", "count", "lower"),
    ("server.reply_timeouts", "count", "lower"),
    // query
    ("query.parse_us", "us", "lower"),
    ("query.stmt_bytes", "B", "lower"),
    // core.planner
    ("core.plan_us", "us", "lower"),
    ("core.prepare_us", "us", "lower"),
    ("core.plan_cache_hit_ratio", "ratio", "higher"),
    // core.prepared
    ("core.execute_us", "us", "lower"),
    ("core.estimate_us", "us", "lower"),
    ("core.unattributed_us", "us", "lower"),
    ("core.specializations", "count", "lower"),
    ("core.est_rows", "count", "lower"),
    ("core.rate_used", "ratio", "lower"),
    ("core.sampled_vs_exact_speedup", "ratio", "higher"),
    // core.partial_cache
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.entries", "count", "lower"),
    ("cache.misses_per_publish", "count", "lower"),
    // sampling
    ("sampling.estimate_day_us", "us", "lower"),
    ("sampling.sample_rows_per_s", "1/s", "higher"),
    ("sampling.sample_bytes", "B", "lower"),
    // storage
    ("storage.scan_day_us", "us", "lower"),
    ("storage.rows_per_s", "1/s", "higher"),
    ("storage.bytes_per_s", "B/s", "higher"),
    ("storage.scan_fused_us", "us", "lower"),
    ("storage.scan_conj_us", "us", "lower"),
    ("storage.scan_in_us", "us", "lower"),
    // forecast
    ("forecast.fit_us", "us", "lower"),
    ("forecast.predict_us", "us", "lower"),
    ("forecast.series_len", "count", "lower"),
    // core.catalog
    ("catalog.build_s", "s", "lower"),
    ("catalog.apply_delta_ms", "ms", "lower"),
    ("catalog.cells_absorbed", "count", "higher"),
    ("catalog.cells_rebuilt", "count", "lower"),
    ("catalog.ingest_rows_per_s", "1/s", "higher"),
    // core.sharded
    ("sharded.execute_us", "us", "lower"),
    ("sharded.vs_single_ratio_n1", "ratio", "higher"),
    ("sharded.vs_single_ratio_n2", "ratio", "higher"),
    // data / host / tracing
    ("data.generate_s", "s", "lower"),
    ("host.spin_ns", "ns", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    // Each layer's share of the traced round trip (the dominance table).
    ("share.server", "ratio", "lower"),
    ("share.query", "ratio", "lower"),
    ("share.core_planner", "ratio", "lower"),
    ("share.core_prepared", "ratio", "lower"),
    ("share.core_partial_cache", "ratio", "lower"),
    ("share.core_sharded", "ratio", "lower"),
    ("share.sampling", "ratio", "lower"),
    ("share.storage", "ratio", "lower"),
    ("share.forecast", "ratio", "lower"),
    // End-to-end in the issue, demoted: only some workloads produce them,
    // or they read 0 on a healthy run (see README).
    ("ingest_rows_per_s", "1/s", "higher"),
    ("publish_p50_ms", "ms", "lower"),
    ("agg_rel_err", "ratio", "lower"),
    ("fcst_rel_dev", "ratio", "lower"),
    ("fail_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::Workload;

    fn manifest() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json")
    }

    fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a str {
        v.get(key).and_then(|f| f.as_str()).unwrap_or("")
    }

    #[test]
    fn manifest_lists_exactly_these_metrics_and_workloads() {
        let m = manifest();
        let e2e = m.get("end_to_end").and_then(|v| v.as_array()).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), better);
            assert_eq!(entry.get("bound").and_then(|b| b.as_f64()), Some(bound));
        }
        let layers = m.get("per_layer").and_then(|v| v.as_array()).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), better);
        }
        let workloads = m.get("workloads").and_then(|v| v.as_array()).unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
