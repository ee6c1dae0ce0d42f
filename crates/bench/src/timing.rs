//! Minimal wall-clock timing harness — the in-tree replacement for the
//! criterion micro-benchmarks, with no external dependencies.
//!
//! Measurement protocol: a warmup phase (discarded), then a fixed number
//! of timed samples of `iters` iterations each. We report the **minimum**
//! and **median** per-iteration time. The minimum is the least noisy
//! estimator for a deterministic workload (any deviation above it is
//! scheduler/cache interference, never the code being faster); the median
//! shows how repeatable the run was.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark label as printed.
    pub name: String,
    /// Fastest observed per-iteration time.
    pub min: Duration,
    /// Median per-iteration time across samples.
    pub median: Duration,
    /// Iterations per timed sample.
    pub iters: u32,
    /// Number of timed samples taken.
    pub samples: u32,
}

impl Sample {
    /// Render as a fixed-width report row.
    pub fn row(&self) -> String {
        format!(
            "{:<28} min {:>12}  median {:>12}  ({} x {} iters)",
            self.name,
            fmt_duration(self.min),
            fmt_duration(self.median),
            self.samples,
            self.iters,
        )
    }
}

/// Human-scale duration formatting (ns/µs/ms/s with 2 decimals).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Bencher {
    /// Timed samples per benchmark.
    pub samples: u32,
    /// Warmup iterations (discarded).
    pub warmup: u32,
    /// Target time per sample; iteration count is calibrated to hit it.
    pub sample_target: Duration,
}

impl Default for Bencher {
    fn default() -> Self {
        Bencher { samples: 10, warmup: 2, sample_target: Duration::from_millis(100) }
    }
}

impl Bencher {
    /// Time `f`, returning the summary (and printing nothing).
    pub fn measure<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Sample {
        for _ in 0..self.warmup.max(1) {
            black_box(f());
        }
        // Calibrate: how many iterations fit in one sample_target?
        let t0 = Instant::now();
        black_box(f());
        let one = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.sample_target.as_nanos() / one.as_nanos()).clamp(1, 10_000) as u32;

        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples.max(1) {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t.elapsed() / iters);
        }
        per_iter.sort();
        Sample {
            name: name.to_string(),
            min: per_iter[0],
            median: per_iter[per_iter.len() / 2],
            iters,
            samples: self.samples.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_is_sane() {
        let b = Bencher { samples: 3, warmup: 1, sample_target: Duration::from_micros(200) };
        let mut n = 0u64;
        // A thousand dependent adds: one call takes far more than the
        // nanosecond that `elapsed / iters` truncates to, in any profile.
        let s = b.measure("spin", || {
            for _ in 0..1000 {
                n = black_box(n.wrapping_add(1));
            }
            n
        });
        assert!(s.min <= s.median, "min must not exceed median");
        assert!(s.min > Duration::ZERO);
        assert_eq!(s.samples, 3);
        assert!(s.iters >= 1);
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }

    #[test]
    fn row_mentions_name() {
        let b = Bencher { samples: 1, warmup: 1, sample_target: Duration::from_micros(50) };
        let s = b.measure("roundtrip", || 1 + 1);
        assert!(s.row().contains("roundtrip"));
    }
}
