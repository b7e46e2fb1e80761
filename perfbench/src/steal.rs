//! The host's steal time during the measured phases.
//!
//! On a virtual machine whose host is shared, the hypervisor now and then
//! takes the CPUs away for tens to hundreds of milliseconds; the guest
//! sees that as steal time in `/proc/stat`. Latency and throughput
//! measured across such a burst describe the host, not the program. A
//! sampler thread reads the steal counter every [`EVERY`]; every interval
//! whose steal crosses a threshold, and the interval after it (while the
//! backlog drains), is *stolen*. The end-to-end figures are taken over
//! the clean intervals only, and the table prints how much was left out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the sampler reads the counter.
pub const EVERY: Duration = Duration::from_millis(100);
/// Length of a `/proc/stat` tick (`USER_HZ` is 100 on Linux).
const TICK_S: f64 = 0.01;
/// An interval is stolen when it shows any steal at all, except that at
/// least this share of the intervals is always kept: under steal that
/// never lets up the least-stolen quarter stands for the phase.
const MIN_CLEAN_SHARE: f64 = 0.25;

/// Steal ticks of all CPUs since boot; `None` where `/proc/stat` is
/// unreadable (the log then marks nothing as stolen).
fn read_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal ...
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The counter as read every [`EVERY`] until stopped.
#[derive(Default)]
pub struct StealLog {
    reads: Vec<(Instant, u64)>,
}

impl StealLog {
    /// Reads the counter every [`EVERY`] until `stop` is set.
    pub fn sample(stop: &AtomicBool) -> Self {
        let mut log = Self::default();
        let mut next = Instant::now();
        loop {
            if let Some(ticks) = read_ticks() {
                log.reads.push((Instant::now(), ticks));
            }
            if stop.load(Ordering::Relaxed) {
                return log;
            }
            next += EVERY;
            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
    }

    /// The stolen intervals between `from` and `to`.
    pub fn clean(&self, from: Instant, to: Instant) -> Clean {
        let steps: Vec<(Instant, Instant, u64)> = self
            .reads
            .windows(2)
            .filter(|w| w[1].0 > from && w[0].0 < to)
            .map(|w| (w[0].0, w[1].0, w[1].1.saturating_sub(w[0].1)))
            .collect();
        let mut ticks: Vec<u64> = steps.iter().map(|s| s.2).collect();
        ticks.sort_unstable();
        let limit = ticks
            .get((ticks.len() as f64 * MIN_CLEAN_SHARE) as usize)
            .copied()
            .unwrap_or(0);
        let mut stolen: Vec<(Instant, Instant)> = Vec::new();
        let mut after_stolen = false;
        for &(a, b, t) in &steps {
            let hit = t > limit;
            if hit || after_stolen {
                match stolen.last_mut() {
                    Some(last) if last.1 >= a => last.1 = b,
                    _ => stolen.push((a, b)),
                }
            }
            after_stolen = hit;
        }
        let span = to.saturating_duration_since(from).as_secs_f64();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let stolen_s: f64 = stolen
            .iter()
            .map(|(a, b)| {
                b.min(&to)
                    .saturating_duration_since(*a.max(&from))
                    .as_secs_f64()
            })
            // Not `sum`, whose empty sum is -0.
            .fold(0.0, |a, b| a + b);
        Clean {
            steal_frac: ticks.iter().sum::<u64>() as f64 * TICK_S / (span * cpus).max(1e-9),
            stolen_frac: stolen_s / span.max(1e-9),
            stolen,
        }
    }
}

/// The stolen intervals of one phase.
pub struct Clean {
    stolen: Vec<(Instant, Instant)>,
    /// Steal time over CPU time in the phase.
    pub steal_frac: f64,
    /// Share of the phase inside stolen intervals.
    pub stolen_frac: f64,
}

impl Clean {
    /// Whether `[from, to]` overlaps no stolen interval.
    pub fn is_clean(&self, from: Instant, to: Instant) -> bool {
        let i = self.stolen.partition_point(|s| s.1 <= from);
        self.stolen.get(i).is_none_or(|s| s.0 >= to)
    }
}
