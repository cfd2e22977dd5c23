//! Timing and reporting helpers for the experiment binaries.

use std::time::{Duration, Instant};

/// Times one invocation of `f`, returning its result and wall-clock time.
#[allow(clippy::disallowed_methods)] // the measurement driver times whole phases around the instrumented region
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times `reps` invocations of `f` and returns the last result with the
/// *minimum* wall-clock time — the usual noise-resistant statistic for
/// comparing two arms on a shared machine.
pub fn timed_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(reps > 0, "timed_min needs at least one repetition");
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (o, d) = timed(&mut f);
        if d < best {
            best = d;
        }
        out = o;
    }
    (out, best)
}

/// Seconds as the paper's figures report them.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A named series of (x-label, seconds) points, printed as an aligned
/// table — the textual form of one line in a paper figure.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Line label (e.g. the attribute combination).
    pub label: String,
    /// Points in x order.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: &str) -> Self {
        Series {
            label: label.to_owned(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: &str, y: f64) {
        self.points.push((x.to_owned(), y));
    }
}

/// Prints several series sharing an x axis as one aligned table.
pub fn print_series(title: &str, series: &[Series]) {
    println!("\n== {title} ==");
    if series.is_empty() {
        return;
    }
    let xs: Vec<&str> = series[0].points.iter().map(|(x, _)| x.as_str()).collect();
    let label_w = series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut header = format!("{:<label_w$}", "series");
    for x in &xs {
        header.push_str(&format!(" {x:>9}"));
    }
    println!("{header}");
    for s in series {
        let mut line = format!("{:<label_w$}", s.label);
        for (_, y) in &s.points {
            line.push_str(&format!(" {y:>9.4}"));
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_and_returns() {
        let (v, d) = timed(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(4));
        assert!(secs(d) > 0.0);
    }

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("gender");
        s.push("2000", 0.1);
        s.push("2001", 0.2);
        assert_eq!(s.points.len(), 2);
        print_series("smoke", &[s]);
    }

    #[test]
    fn timed_min_takes_best_of_reps() {
        let mut calls = 0;
        let (v, d) = timed_min(3, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 3);
        assert_eq!(v, 3);
        assert!(d <= Duration::from_secs(1));
    }
}
