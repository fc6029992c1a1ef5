//! The hypervisor's steal counter: CPU time the host gave to other
//! guests while this machine had work to run. It is sampled in the
//! background while a workload runs, so each figure can be taken from
//! the stretches of the run in which the host took the least.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the background sampler reads the counter. The kernel
/// counts steal in 10 ms ticks per CPU.
const PERIOD: Duration = Duration::from_millis(10);

/// Ticks of steal summed over CPUs since boot: the `steal` column of
/// the first line of `/proc/stat`. `None` where it is not reported.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Seconds per tick of [`steal_ticks`]: the kernel's user-visible tick.
pub const TICK_S: f64 = 0.01;

/// Seconds of CPU time stolen since boot (0 where not reported).
pub fn steal_s() -> f64 {
    steal_ticks().unwrap_or(0) as f64 * TICK_S
}

/// CPUs this machine runs on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A background thread reading [`steal_ticks`] every [`PERIOD`].
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, u64)>>,
}

impl StealSampler {
    /// Start sampling.
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut points = Vec::new();
            // `Relaxed`: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                if let Some(t) = steal_ticks() {
                    points.push((Instant::now(), t));
                }
                std::thread::sleep(PERIOD);
            }
            if let Some(t) = steal_ticks() {
                points.push((Instant::now(), t));
            }
            points
        });
        StealSampler { stop, handle }
    }

    /// Stop sampling and return what was read.
    pub fn finish(self) -> StealTrace {
        self.stop.store(true, Ordering::Relaxed);
        StealTrace {
            points: self.handle.join().expect("steal sampler panicked"),
        }
    }
}

/// The steal counter over time, in sampling order.
#[derive(Debug, Clone, Default)]
pub struct StealTrace {
    points: Vec<(Instant, u64)>,
}

impl StealTrace {
    /// The counter as last read at or before `t` (the first reading
    /// for earlier times; 0 with no readings).
    fn at(&self, t: Instant) -> u64 {
        let after = self.points.partition_point(|(at, _)| *at <= t);
        self.points
            .get(after.saturating_sub(1))
            .map_or(0, |&(_, ticks)| ticks)
    }

    /// Ticks stolen between `from` and `to`.
    pub fn stolen(&self, from: Instant, to: Instant) -> u64 {
        self.at(to).saturating_sub(self.at(from))
    }

    #[cfg(test)]
    pub fn from_points(points: Vec<(Instant, u64)>) -> StealTrace {
        StealTrace { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_between_two_times_uses_the_last_reading_before_each() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let trace =
            StealTrace::from_points(vec![(at(0), 5), (at(10), 5), (at(20), 9), (at(30), 12)]);
        assert_eq!(trace.stolen(at(0), at(30)), 7);
        assert_eq!(trace.stolen(at(5), at(15)), 0);
        assert_eq!(trace.stolen(at(15), at(25)), 4);
        assert_eq!(trace.stolen(at(25), at(99)), 3);
        assert_eq!(StealTrace::default().stolen(at(0), at(99)), 0);
    }

    #[test]
    fn the_sampler_reads_until_finished() {
        let s = StealSampler::start();
        std::thread::sleep(Duration::from_millis(30));
        let trace = s.finish();
        if steal_ticks().is_some() {
            assert!(trace.points.len() >= 2);
            assert!(trace.points.windows(2).all(|p| p[0].1 <= p[1].1));
        }
    }
}
