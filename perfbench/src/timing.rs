//! Sample statistics and the calibrated timing loop used by the layer
//! replays.

use std::hint::black_box;
use std::time::Instant;

/// Exact quantile of `sorted` (ascending) by the nearest-rank rule.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a float slice (sorts a copy); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result of one calibrated timing: nanoseconds per iteration over
/// `reps` repetitions of `iters` iterations each.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median_ns: f64,
    pub min_ns: f64,
    /// Median absolute deviation of the per-repetition means.
    pub mad_ns: f64,
    pub iters: u64,
    pub reps: usize,
}

/// Wall time one repetition should take once calibrated.
const TARGET_REP_NS: u128 = 2_000_000;
/// Repetitions per timing; the median of these is reported.
const REPS: usize = 11;

/// Times `f` (called with the iteration index, so it can cycle through
/// its inputs): doubles the iteration count until one repetition takes
/// about [`TARGET_REP_NS`], then runs [`REPS`] repetitions and reports
/// the median, minimum and MAD of the per-iteration time.
pub fn measure<R>(mut f: impl FnMut(u64) -> R) -> Timing {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for i in 0..iters {
            black_box(f(black_box(i)));
        }
        if t.elapsed().as_nanos() >= TARGET_REP_NS || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let mut per_iter = Vec::with_capacity(REPS);
    let mut base = 0u64;
    for _ in 0..REPS {
        let t = Instant::now();
        for i in base..base + iters {
            black_box(f(black_box(i)));
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        base += iters;
    }
    let med = median(&per_iter);
    let devs: Vec<f64> = per_iter.iter().map(|x| (x - med).abs()).collect();
    Timing {
        median_ns: med,
        min_ns: per_iter.iter().copied().fold(f64::INFINITY, f64::min),
        mad_ns: median(&devs),
        iters,
        reps: REPS,
    }
}
