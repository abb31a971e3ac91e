//! Exact order statistics over raw samples, per-class operation
//! tallies, and the process's peak resident set.

use std::time::Instant;

/// Raw latency samples in nanoseconds. Percentiles are exact
/// (nearest-rank over the sorted samples), never bucketed.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn since(&mut self, start: Instant) {
        self.push(start.elapsed().as_nanos() as u64);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sum_ns() as f64 / self.ns.len() as f64 / 1e3
    }

    /// The nearest-rank `q`-quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64 / 1e3
    }
}

/// The first and third quartiles of per-round figures, by the same rule
/// as Python's `statistics.quantiles(values, n=4)` (exclusive method).
/// A single figure is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The slow side of per-round figures: the first quartile of a rate,
/// the third of a time. A host whose speed comes in bursts lifts some
/// rounds; the slow-side quartile is the figure three rounds in four
/// meet, and it moves far less from run to run than the median.
pub fn slow_side(values: &[f64], higher_is_better: bool) -> f64 {
    let (q1, q3) = quartiles(values);
    if higher_is_better {
        q1
    } else {
        q3
    }
}

/// The median of a non-empty list of per-round figures.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Attempted and failed operations of one class (reads, write batches,
/// replica syncs, recoveries, fg-dist replays).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// the kernel does not expose it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
