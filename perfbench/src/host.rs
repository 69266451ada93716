//! The host stamp of a run: what the machine was doing, measured without
//! calling the program, so a uniform shift across every metric reads as
//! host drift rather than a regression. Never used to normalise a metric.

use std::time::Instant;

use nvm::SplitMix64;

use crate::stats::median;

/// CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters now (zeros where `/proc/stat` is unavailable).
    pub fn now() -> CpuTicks {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Percentage of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Cores the process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The kernel's current clocksource, which sets the cost of every
/// `Instant::now()` the benchmark takes.
pub fn clocksource() -> String {
    std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU+memory kernel that never calls the program: a dependent
/// walk of 2^20 steps through a random cycle over a 4 MiB array, with
/// integer mixing at every step.
pub struct RefKernel {
    next: Vec<u32>,
    times_ns: Vec<f64>,
}

impl RefKernel {
    /// Builds the cycle (Sattolo's shuffle with a fixed seed).
    pub fn new() -> RefKernel {
        let n = 1usize << 20;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut rng = SplitMix64::new(0x00C0_FFEE);
        for i in (1..n).rev() {
            let j = rng.next_below(i as u64) as usize;
            next.swap(i, j);
        }
        RefKernel {
            next,
            times_ns: Vec::new(),
        }
    }

    /// Times `reps` walks.
    pub fn sample(&mut self, reps: usize) {
        for _ in 0..reps {
            let t = Instant::now();
            let (mut at, mut acc) = (0u32, 0u64);
            for _ in 0..self.next.len() {
                at = self.next[at as usize];
                acc = (acc ^ u64::from(at))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17);
            }
            std::hint::black_box(acc);
            self.times_ns.push(t.elapsed().as_nanos() as f64);
        }
    }

    /// Median walk time over every sample so far.
    pub fn median_ns(&self) -> f64 {
        median(&self.times_ns)
    }
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}
