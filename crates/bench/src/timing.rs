//! Minimal in-tree timing harness for the microbenchmarks.
//!
//! Replaces the external benchmark framework with a dependency-free
//! warmup-then-measure loop: each benchmark runs until a wall-clock budget
//! is spent, and we report mean/min/median nanoseconds per iteration.

use std::time::{Duration, Instant};

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark group (e.g. `"gemm"`).
    pub group: String,
    /// Case label within the group (e.g. `"2708x1433x64"`).
    pub name: String,
    /// Iterations actually measured.
    pub iters: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest iteration in nanoseconds.
    pub min_ns: f64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
}

impl Sample {
    /// Human-readable `mean ± spread` line.
    pub fn pretty(&self) -> String {
        format!(
            "{:<28} {:>12}  (min {:>12}, median {:>12}, {} iters)",
            format!("{}/{}", self.group, self.name),
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.median_ns),
            self.iters,
        )
    }
}

/// Format nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Benchmark runner with a per-case wall-clock budget.
pub struct Bencher {
    warmup: Duration,
    budget: Duration,
    max_iters: u64,
}

impl Default for Bencher {
    fn default() -> Self {
        Self::new(Duration::from_millis(300), Duration::from_secs(2))
    }
}

impl Bencher {
    /// Runner with explicit warmup and measurement budgets.
    pub fn new(warmup: Duration, budget: Duration) -> Self {
        Self {
            warmup,
            budget,
            max_iters: 10_000,
        }
    }

    /// Run one benchmark case and print its summary; the routine's result
    /// is black-boxed.
    pub fn run<T, F: FnMut() -> T>(&self, group: &str, name: &str, mut f: F) -> Sample {
        // Warmup until the budget is spent (at least once).
        let start = Instant::now();
        loop {
            std::hint::black_box(f());
            if start.elapsed() >= self.warmup {
                break;
            }
        }
        // Measure individual iterations until the budget is spent.
        let mut times_ns: Vec<f64> = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.budget && (times_ns.len() as u64) < self.max_iters {
            let t = Instant::now();
            std::hint::black_box(f());
            times_ns.push(t.elapsed().as_nanos() as f64);
        }
        let iters = times_ns.len() as u64;
        let mean = times_ns.iter().sum::<f64>() / iters as f64;
        let min = times_ns.iter().cloned().fold(f64::INFINITY, f64::min);
        times_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times_ns[times_ns.len() / 2];
        let sample = Sample {
            group: group.to_string(),
            name: name.to_string(),
            iters,
            mean_ns: mean,
            min_ns: min,
            median_ns: median,
        };
        println!("{}", sample.pretty());
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_a_sample() {
        let b = Bencher::new(Duration::from_millis(1), Duration::from_millis(5));
        let mut x = 0u64;
        let s = b.run("smoke", "incr", || {
            x = x.wrapping_add(1);
            x
        });
        assert!(s.iters > 0);
        assert!(s.mean_ns >= 0.0 && s.min_ns <= s.mean_ns);
        assert_eq!(s.group, "smoke");
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1.5e3), "1.500 µs");
        assert_eq!(fmt_ns(2.5e6), "2.500 ms");
        assert_eq!(fmt_ns(3.0e9), "3.000 s");
    }
}
