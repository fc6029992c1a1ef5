//! Order statistics for every timing the benchmark reports.
//!
//! Percentiles use the nearest-rank rule on integer percents, so the
//! same samples always give the same answer. A tail percentile counts
//! only when at least [`MIN_TAIL`] samples lie beyond it.

use crate::host::{StealTrace, TICK_S};
use std::time::Instant;

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    let r = (pct as usize * n).div_ceil(100);
    r.clamp(1, n)
}

/// The nearest-rank `pct` percentile of an ascending-sorted, non-empty
/// slice.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie strictly beyond the `pct` percentile.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The fewest samples for which the `pct` percentile has at least
/// [`MIN_TAIL`] samples beyond it.
pub fn min_samples(pct: u32) -> usize {
    assert!(pct < 100, "no samples lie beyond the maximum");
    (1..)
        .find(|&n| samples_beyond(n, pct) >= MIN_TAIL)
        .expect("a large enough sample count exists")
}

/// Sort a sample vector ascending (timings are finite).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `v`; all zeros for an empty set (a layer that did no
    /// work on this workload).
    pub fn of(v: Vec<f64>) -> Summary {
        if v.is_empty() {
            return Summary {
                n: 0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            };
        }
        let s = sorted(v);
        Summary {
            n: s.len(),
            q1: percentile(&s, 25),
            median: percentile(&s, 50),
            q3: percentile(&s, 75),
        }
    }
}

/// Median of a sample set (0 when empty).
pub fn median(v: Vec<f64>) -> f64 {
    Summary::of(v).median
}

/// Samples per window: the fewest for which a window's p99 has
/// [`MIN_TAIL`] samples beyond it.
pub fn window_samples() -> usize {
    min_samples(99)
}

/// The fewest windows a run is cut into.
pub const MIN_WINDOWS: usize = 10;

/// The fewest samples a run takes.
pub fn min_run_samples() -> usize {
    MIN_WINDOWS * window_samples()
}

fn shown(values: impl IntoIterator<Item = String>) -> String {
    values.into_iter().collect::<Vec<_>>().join(" ")
}

/// A run's samples cut into contiguous windows of at least
/// [`window_samples`] each, in time order, and the windows its figures
/// are taken from.
///
/// On a shared virtual machine the hypervisor takes this machine's CPUs
/// away for stretches of milliseconds to seconds, and every request in
/// flight or queued then waits: one 10 ms stall can set a window's p99.
/// How much it takes swings from run to run, and latency follows it. So
/// each figure is the median of its values over the windows during which
/// the hypervisor took at most [`CLEAN_STEAL`] of the machine's CPU
/// time, or, when fewer than a quarter of the windows are that clean,
/// over the least-stolen quarter (with every window that ties the last
/// of them). The choice rests on the host's own counter, never on the
/// figures.
pub struct Windows {
    ranges: Vec<std::ops::Range<usize>>,
    /// Share of the machine's CPU time stolen during each window.
    stolen: Vec<f64>,
    chosen: Vec<usize>,
}

/// The stolen share of CPU time up to which a window counts as clean.
pub const CLEAN_STEAL: f64 = 0.01;

impl Windows {
    /// Cut `n` samples into windows; `span(range)` gives the time from
    /// the start of a window's first sample to the end of its last, and
    /// the machine has `cpus` CPUs.
    pub fn new(
        n: usize,
        span: impl Fn(std::ops::Range<usize>) -> (Instant, Instant),
        steal: &StealTrace,
        cpus: usize,
    ) -> Windows {
        let count = (n / window_samples()).max(1);
        let ranges: Vec<_> = (0..count)
            .map(|w| w * n / count..(w + 1) * n / count)
            .collect();
        let stolen: Vec<f64> = ranges
            .iter()
            .map(|r| {
                let (from, to) = span(r.clone());
                let capacity_s = (to - from).as_secs_f64() * cpus.max(1) as f64;
                steal.stolen(from, to) as f64 * TICK_S / capacity_s.max(TICK_S)
            })
            .collect();
        let by_steal = sorted(stolen.clone());
        let limit = by_steal[count.div_ceil(4) - 1].max(CLEAN_STEAL);
        let chosen = (0..count).filter(|&w| stolen[w] <= limit).collect();
        Windows {
            ranges,
            stolen,
            chosen,
        }
    }

    /// Print the windows' sizes, stolen shares, and which windows count.
    pub fn print(&self, workload: &str) {
        let smallest = self.ranges.iter().map(|r| r.len()).min().unwrap_or(0);
        println!(
            "windows {workload}: {} of at least {smallest} samples ({} beyond p99 each); \
             stolen % {}; figures from windows {}",
            self.ranges.len(),
            samples_beyond(smallest, 99),
            shown(self.stolen.iter().map(|s| format!("{:.1}", s * 100.0))),
            shown(self.chosen.iter().map(usize::to_string))
        );
    }

    /// The median of `f` over the chosen windows of `samples`; prints
    /// the value of every window.
    pub fn figure<T>(
        &self,
        workload: &str,
        name: &str,
        samples: &[T],
        f: impl Fn(&[T]) -> f64,
    ) -> f64 {
        let values: Vec<f64> = self.ranges.iter().map(|r| f(&samples[r.clone()])).collect();
        println!(
            "windows {workload} {name}: {}",
            shown(values.iter().map(|v| format!("{v:.4}")))
        );
        median(self.chosen.iter().map(|&w| values[w]).collect())
    }
}

/// The `pct` percentile of an unsorted window of latencies.
pub fn window_percentile(window: &[f64], pct: u32) -> f64 {
    percentile(&sorted(window.to_vec()), pct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
    }

    #[test]
    fn tail_rule_holds_at_every_size_from_the_minimum() {
        for pct in [50, 90, 95, 99] {
            let m = min_samples(pct);
            assert!(samples_beyond(m - 1, pct) < MIN_TAIL);
            for n in m..m + 500 {
                assert!(samples_beyond(n, pct) >= MIN_TAIL, "n={n} p{pct}");
            }
        }
    }

    /// One sample per millisecond on two CPUs; the host stole
    /// `stolen[w]` ticks during window `w` (one tick is 0.5% of its CPU
    /// time).
    fn windows_with_steal(stolen: &[u64]) -> Windows {
        let t0 = Instant::now();
        let ms = |k: usize| t0 + Duration::from_millis(k as u64);
        let mut ticks = 0;
        let mut points = vec![(ms(0), 0)];
        for (w, s) in stolen.iter().enumerate() {
            ticks += s;
            points.push((ms((w + 1) * 1000 - 1), ticks));
        }
        Windows::new(
            10000,
            |r| (ms(r.start), ms(r.end)),
            &StealTrace::from_points(points),
            2,
        )
    }

    #[test]
    fn windows_with_the_most_steal_do_not_set_the_figure() {
        assert_eq!((window_samples(), min_run_samples()), (1000, 10000));
        let mut v: Vec<f64> = (0..10000).map(|k| f64::from(k % 1000)).collect();
        let p50 = |w: &[f64]| window_percentile(w, 50);
        let p99 = |w: &[f64]| window_percentile(w, 99);
        let calm = windows_with_steal(&[0; MIN_WINDOWS]);
        assert_eq!(calm.chosen, (0..MIN_WINDOWS).collect::<Vec<_>>());
        assert_eq!(calm.figure("test", "n", &v, |w| w.len() as f64), 1000.0);
        assert_eq!(calm.figure("test", "p99_ms", &v, p99), 989.0);
        // The host steals during windows 1, 3 and 5..=9: a stall delays
        // 200 requests in window 3, and every latency of windows 5..9
        // doubles. The whole-run p99 jumps; the figures do not move.
        for x in &mut v[3000..3200] {
            *x = 1e6;
        }
        for x in &mut v[5000..9000] {
            *x *= 2.0;
        }
        assert_eq!(percentile(&sorted(v.clone()), 99), 1e6);
        let stormy = windows_with_steal(&[0, 1, 0, 40, 0, 30, 30, 30, 30, 2]);
        assert_eq!(stormy.chosen, vec![0, 1, 2, 4, 9]);
        assert_eq!(stormy.figure("test", "p99_ms", &v, p99), 989.0);
        assert_eq!(stormy.figure("test", "p50_ms", &v, p50), 499.0);
        // With steal everywhere, the least-stolen quarter counts.
        let storm = windows_with_steal(&[9, 8, 3, 40, 5, 30, 30, 30, 30, 3]);
        assert_eq!(storm.chosen, vec![2, 4, 9]);
        assert_eq!(storm.figure("test", "p99_ms", &v, p99), 989.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        let s = Summary::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(Vec::new()).n, 0);
    }
}
