//! Server-side observability: lock-free latency histograms per command
//! class plus admission/queue counters, all cheap enough to bump on every
//! request and to snapshot from the out-of-band `STATS` path while the
//! admission queue is saturated.

use serde_json::{json, Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket count: bucket `i` holds latencies in
/// `[2^i, 2^(i+1)) µs`, except bucket 0 (`< 2 µs`) and the last bucket,
/// which absorbs everything above `2^(BUCKETS-1) µs` (~9 minutes).
const BUCKETS: usize = 30;

/// A fixed power-of-two latency histogram in microseconds.
///
/// Recording is a single relaxed fetch-add; quantiles are read by the
/// `STATS` path. Quantile answers are upper bucket bounds, so they are
/// conservative within a factor of two — plenty for p50/p99 service
/// dashboards.
#[derive(Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    fn bucket(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Record one observation, in microseconds.
    pub fn record(&self, us: u64) {
        self.counts[Self::bucket(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as an upper bucket bound in
    /// microseconds; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }

    fn to_json(&self) -> Value {
        json!({
            "count": self.count(),
            "mean_us": self.mean_us(),
            "p50_us": self.quantile_us(0.50),
            "p99_us": self.quantile_us(0.99),
        })
    }
}

/// Command classes that get their own latency histogram.
pub const COMMAND_CLASSES: &[&str] =
    &["prepare", "execute", "deallocate", "statement", "ingest", "publish", "sleep"];

/// Shared server counters, updated by connection and worker threads.
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: AtomicU64,
    /// Connections currently open.
    pub connections_active: AtomicU64,
    /// Requests currently admitted but not yet completed (queued or
    /// executing) — the queue depth the admission bound limits.
    pub queue_depth: AtomicU64,
    /// Requests rejected with `busy` because the queue was full.
    pub busy_rejections: AtomicU64,
    /// Requests rejected because a session exceeded its statement limit.
    pub limit_rejections: AtomicU64,
    /// Requests whose reply timed out (admitted, no answer in time).
    pub reply_timeouts: AtomicU64,
    /// Requests completed by workers (ok or error).
    pub completed: AtomicU64,
    /// Per-class latency histograms, indexed like [`COMMAND_CLASSES`].
    histograms: [LatencyHistogram; 7],
}

impl ServerStats {
    /// The latency histogram for a command label (unknown labels map to
    /// `statement`).
    pub fn histogram(&self, label: &str) -> &LatencyHistogram {
        let idx = COMMAND_CLASSES.iter().position(|c| *c == label).unwrap_or(3);
        &self.histograms[idx]
    }

    /// Render every counter as a JSON object for the `STATS` response.
    pub fn to_json(&self) -> Value {
        let mut latency = Map::new();
        for (i, class) in COMMAND_CLASSES.iter().enumerate() {
            if self.histograms[i].count() > 0 {
                latency.insert(class.to_string(), self.histograms[i].to_json());
            }
        }
        json!({
            "connections_accepted": self.connections_accepted.load(Ordering::Relaxed),
            "connections_active": self.connections_active.load(Ordering::Relaxed),
            "queue_depth": self.queue_depth.load(Ordering::Relaxed),
            "busy_rejections": self.busy_rejections.load(Ordering::Relaxed),
            "limit_rejections": self.limit_rejections.load(Ordering::Relaxed),
            "reply_timeouts": self.reply_timeouts.load(Ordering::Relaxed),
            "completed": self.completed.load(Ordering::Relaxed),
            "latency": latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(1024), 11);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_us(0.5);
        // The 5th observation is 50 µs; its bucket's upper bound is 64.
        assert!((50..=64).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 5000, "p99 = {p99}");
        assert!(h.mean_us() > 0.0);
        // Empty histogram answers zeros.
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_us(0.99), 0);
        assert_eq!(empty.mean_us(), 0.0);
    }

    #[test]
    fn stats_render_histograms_by_label() {
        let s = ServerStats::default();
        s.histogram("execute").record(100);
        s.histogram("no_such_class").record(7); // falls back to statement
        let v = s.to_json();
        let latency = v.get("latency").unwrap();
        assert!(latency.get("execute").is_some());
        assert!(latency.get("statement").is_some());
        assert!(latency.get("publish").is_none(), "empty classes are omitted");
    }
}
