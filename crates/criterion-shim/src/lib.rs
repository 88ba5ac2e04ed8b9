//! A small, dependency-free stand-in for the subset of `criterion` used
//! by the workspace's benches (`Criterion::benchmark_group`,
//! `BenchmarkGroup::{sample_size, bench_function, finish}`,
//! `Bencher::iter`, `criterion_group!` / `criterion_main!`). The build
//! environment has no registry access, so the workspace routes
//! `criterion` to this shim via a path dependency.
//!
//! Measurement is deliberately simple: each bench function is warmed up
//! once, then timed over `max(sample_size, 10)` batches whose batch size
//! is auto-scaled so one batch takes ≳100 µs. Mean, min and max per-batch
//! iteration times are printed in a criterion-like one-line format.
//! No statistics files are written.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group; benches inside it print as `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 20,
        }
    }

    /// A one-off bench outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        run_bench(name.as_ref(), 20, f);
        self
    }
}

/// A named group of related benches.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per bench.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Registers and immediately runs one bench. Accepts `&str` or
    /// `String` ids like upstream's `impl Into<BenchmarkId>`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        run_bench(
            &format!("{}/{}", self.name, name.as_ref()),
            self.sample_size,
            f,
        );
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Passed to the bench closure; `iter` does the timing.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, auto-scaling the batch size.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + batch-size calibration: grow until a batch ≥ ~100 µs.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_micros(100) || batch >= 1 << 20 {
                break;
            }
            batch *= 4;
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            self.samples.push(t.elapsed() / batch as u32);
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<40} (no samples)");
        return;
    }
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    let min = *b.samples.iter().min().unwrap();
    let max = *b.samples.iter().max().unwrap();
    println!(
        "{label:<40} time: [{} {} {}]",
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max)
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// `criterion_group!(benches, f1, f2, ...)` — bundles bench functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// `criterion_main!(group1, ...)` — the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_prints() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut ran = false;
        g.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
    }
}
