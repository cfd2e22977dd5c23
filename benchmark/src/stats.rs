//! Exact statistics over raw samples.
//!
//! Every latency the benchmark reports comes from the sorted samples
//! themselves — never from `tempo_instrument`'s 65-bucket log2 histogram,
//! whose quantiles are bucket edges good to a factor of two.

use std::time::{Duration, Instant};

/// Samples a percentile needs beyond it before the benchmark reports it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts samples ascending (NaN-free by construction: all are durations,
/// counts or ratios of positive numbers).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of ascending samples (mean of the two middle ones for even n).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of samples in any order.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec()))
}

/// Nearest-rank percentile of ascending samples: the smallest sample with
/// at least `p` of the samples at or below it. `p` is in (0, 1].
///
/// # Panics
/// Panics on an empty slice or `p` outside (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// [`percentile`], refused (`None`) when fewer than [`MIN_TAIL_SAMPLES`]
/// samples lie beyond it: with 120 samples p90 has 12 beyond and is
/// reported, p99 has 1 and is not.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    (sorted.len() - rank(sorted.len(), p) >= MIN_TAIL_SAMPLES).then(|| percentile(sorted, p))
}

/// Geometric mean of positive values; `None` for an empty slice.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Geometric mean over request templates of each template's median: the
/// benchmark's latency figure. A percentile of the mixed stream sits on
/// the cliff between cheap and expensive query classes and jumps when
/// their proportion shifts by a request; the per-template medians do not.
/// Templates without samples are skipped; `None` if none has any.
pub fn geomean_of_medians<'a, I>(per_template: I) -> Option<f64>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let medians: Vec<f64> = per_template
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(median_of)
        .collect();
    geomean(&medians)
}

/// Per template, the lowest of the segments' medians (`[segment][template]`,
/// `None` where a segment has no sample of a template). Interference only
/// ever adds to a latency, so the lowest of a few medians is the one least
/// disturbed. `None` if no segment measured some template.
pub fn lowest_per_template(segments: &[Vec<Option<f64>>]) -> Option<Vec<f64>> {
    let templates = segments.first()?.len();
    (0..templates)
        .map(|t| segments.iter().filter_map(|s| s[t]).reduce(f64::min))
        .collect()
}

/// Schedule of an open-loop generator: request `i` is due at
/// `start + i / rate`, whatever happened to the requests before it.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_hz` requests per second from `start`.
    pub fn new(start: Instant, rate_hz: f64) -> Self {
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_hz),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Latency of request `i` from its due time, which charges a stalled
    /// request's delay to the requests queued behind it.
    pub fn latency(&self, i: usize, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }

    /// How late the generator itself sent request `i`.
    pub fn lateness(&self, i: usize, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), 3.0);
        assert_eq!(median_of(&[10.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank_not_a_bucket_edge() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        // 1500 µs and 1900 µs share a log2 bucket; exact samples keep them apart
        assert_eq!(percentile(&[1500.0, 1900.0], 0.5), 1500.0);
        assert_eq!(percentile(&[1500.0, 1900.0], 0.51), 1900.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.9), Some(108.0)); // 12 beyond
        assert_eq!(supported_percentile(&s, 0.99), None); // 1 beyond
        let s: Vec<f64> = (1..=109).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.9), Some(99.0)); // exactly 10 beyond
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.9), None); // 9 beyond
        assert_eq!(supported_percentile(&[], 0.5), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.99), Some(990.0));
    }

    #[test]
    fn geomean_of_template_medians() {
        let a = [1.0, 100.0, 1.0]; // median 1
        let b = [100.0, 100.0, 1.0]; // median 100
        let empty: [f64; 0] = [];
        let g = geomean_of_medians([&a[..], &b[..], &empty[..]]).expect("two templates");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean_of_medians([&empty[..]]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn lowest_median_per_template_across_segments() {
        let segments = vec![
            vec![Some(2.0), Some(9.0), None],
            vec![Some(3.0), Some(5.0), Some(7.0)],
        ];
        assert_eq!(lowest_per_template(&segments), Some(vec![2.0, 5.0, 7.0]));
        // a template no segment measured leaves the metric out
        assert_eq!(lowest_per_template(&[vec![Some(1.0), None]]), None);
        assert_eq!(lowest_per_template(&[]), None);
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let start = Instant::now();
        let ol = OpenLoop::new(start, 4.0);
        assert_eq!(ol.due(0), start);
        assert_eq!(ol.due(4), start + Duration::from_secs(1));
        // request 2 was due at 500 ms, sent at 700 ms behind a stall, done at 720 ms
        let sent = start + Duration::from_millis(700);
        let done = start + Duration::from_millis(720);
        assert_eq!(ol.lateness(2, sent), Duration::from_millis(200));
        assert_eq!(ol.latency(2, done), Duration::from_millis(220));
        // sent early (never happens, but must not underflow)
        assert_eq!(ol.lateness(2, start), Duration::ZERO);
    }
}
