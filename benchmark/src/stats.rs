//! Order statistics for the benchmark's own reporting: nearest-rank
//! percentiles with the sample-count rule beside them, and the quartile
//! spread `--compare` and the self-agreement check use.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q`-quantile's rank. A percentile is only
/// reported as trustworthy when at least ten samples lie beyond it (200
/// samples for p95), so this count is printed beside every `p95`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Samples per window of [`quiet_percentile`]: ten lie beyond a window's
/// p95, the least a percentile is trusted with.
pub const WINDOW_SAMPLES: usize = 200;
/// Most windows a phase is cut into.
pub const MAX_WINDOWS: usize = 12;

/// Windows `n` samples are cut into: as many as hold [`WINDOW_SAMPLES`]
/// each, at least one, at most [`MAX_WINDOWS`].
pub fn window_count(n: usize) -> usize {
    (n / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS)
}

/// Nearest-rank `q`-quantile of each window of a phase, in phase order.
/// `in_order` holds the samples in the order they were taken; they are cut
/// into [`window_count`] windows of equal count.
pub fn window_percentiles(in_order: &[f64], q: f64) -> Vec<f64> {
    let n = in_order.len();
    let windows = window_count(n);
    (0..windows)
        .map(|w| {
            let mut window = in_order[w * n / windows..(w + 1) * n / windows].to_vec();
            window.sort_by(f64::total_cmp);
            percentile(&window, q)
        })
        .collect()
}

/// The `q`-quantile of the quieter part of a phase: the lower quartile of
/// its [`window_percentiles`].
///
/// A shared host disturbs a phase in bursts that last from a fraction of a
/// second to a few seconds. A percentile over the whole phase moves with
/// however many bursts the phase happened to meet (p95 of `dash_warm`:
/// 14 % quartile spread over ten quiet runs); the lower quartile over
/// windows reads the statements the bursts left alone (5 %), and still
/// moves when the program slows, because that slows every window.
pub fn quiet_percentile(in_order: &[f64], q: f64) -> f64 {
    let mut per_window = window_percentiles(in_order, q);
    per_window.sort_by(f64::total_cmp);
    percentile(&per_window, 0.25)
}

/// Sort in place and return the median (mean of the two middle samples
/// for an even count). 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median without reordering the caller's data.
pub fn median_of(values: &[f64]) -> f64 {
    median(&mut values.to_vec())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here equals the
/// one the driver computes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread a bound is compared against. `None`
/// below two samples or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median_of(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn sample_count_rule_needs_200_for_p95() {
        // Ten samples beyond p95 is exactly what 200 samples give.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(20, 0.50), 10);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn quiet_percentile_reads_the_undisturbed_windows() {
        assert_eq!(window_count(0), 1);
        assert_eq!(window_count(399), 1);
        assert_eq!(window_count(400), 2);
        assert_eq!(window_count(100_000), MAX_WINDOWS);
        // Too few samples for two windows: the plain percentile.
        let few: Vec<f64> = (1..=150).rev().map(f64::from).collect();
        assert_eq!(quiet_percentile(&few, 0.95), 143.0);
        assert_eq!(quiet_percentile(&[], 0.95), 0.0);
        // Twelve windows of 1..=200; a burst adds 1000 to nine of them. The
        // lower quartile is the third lowest window, one the burst spared.
        let mut samples = Vec::new();
        for window in 0..12 {
            let shift = if window % 4 == 1 { 0.0 } else { 1000.0 };
            samples.extend((1..=200).map(|v| f64::from(v) + shift));
        }
        assert_eq!(quiet_percentile(&samples, 0.95), 190.0);
        assert_eq!(quiet_percentile(&samples, 0.50), 100.0);
        // Slow every window and the reading moves with them.
        let slowed: Vec<f64> = samples.iter().map(|v| v + 50.0).collect();
        assert_eq!(quiet_percentile(&slowed, 0.95), 240.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        assert!(quartiles(&[1.0]).is_none());
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }
}
