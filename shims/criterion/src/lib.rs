//! Offline shim for [criterion](https://docs.rs/criterion): the bench
//! targets compile and run against this, each benchmark executing a small
//! fixed number of timed iterations and printing the minimum and median
//! wall-clock time per iteration, plus GB/s when the group declares
//! [`Throughput::Bytes`]. There is no statistical analysis, warm-up, or
//! HTML report — this shim exists so `cargo bench` works offline and bench
//! code stays honest (compiled and exercised), not to produce publishable
//! numbers.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Iterations per benchmark. Real criterion samples adaptively; the shim
/// keeps runs short and deterministic in count.
const ITERS: u32 = 3;

/// Benchmark identifier: `function_name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Compose an id from a function name and a parameter display value.
    pub fn new<P: Display>(function: &str, parameter: P) -> Self {
        Self { id: format!("{function}/{parameter}") }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        Self { id: id.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Declared throughput of a benchmark: bytes are turned into GB/s at the
/// median time, elements are printed only.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// How batched setup output is sized (ignored by the shim).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Timing driver handed to each benchmark closure; collects one duration
/// per iteration.
#[derive(Default)]
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `routine` over the shim's fixed iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..ITERS {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Time `routine` on fresh `setup()` output each iteration; setup time
    /// is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..ITERS {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    /// Print min and median per iteration, and GB/s at the median for a
    /// byte throughput.
    fn report(mut self, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            return;
        }
        self.samples.sort_unstable();
        let (min, median) = (self.samples[0], self.samples[self.samples.len() / 2]);
        let n = self.samples.len();
        match throughput {
            Some(Throughput::Bytes(b)) => {
                let gbps = b as f64 / median.as_secs_f64() / 1e9;
                println!("    time: min {min:?} median {median:?} ({n} iters), {gbps:.3} GB/s");
            }
            _ => println!("    time: min {min:?} median {median:?} ({n} iters)"),
        }
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Set the per-benchmark sample count (accepted, ignored: the shim's
    /// iteration count is fixed).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declare group throughput (printed alongside results).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark. Accepts a [`BenchmarkId`] or a plain string,
    /// like real criterion's `IntoBenchmarkId` bound.
    pub fn bench_function<ID: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: ID,
        mut f: F,
    ) -> &mut Self {
        self.announce(&id.into());
        let mut b = Bencher::default();
        f(&mut b);
        b.report(self.throughput);
        self
    }

    /// Run one benchmark with a borrowed input.
    pub fn bench_with_input<ID: Into<BenchmarkId>, I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: ID,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        self.announce(&id);
        let mut b = Bencher::default();
        f(&mut b, input);
        b.report(self.throughput);
        self
    }

    /// Finish the group (prints nothing extra; exists for API parity).
    pub fn finish(&mut self) {}

    fn announce(&self, id: &BenchmarkId) {
        match self.throughput {
            Some(Throughput::Bytes(b)) => println!("{}/{id}  [{b} B/iter]", self.name),
            Some(Throughput::Elements(e)) => println!("{}/{id}  [{e} elems/iter]", self.name),
            None => println!("{}/{id}", self.name),
        }
    }
}

/// Top-level benchmark context (criterion's `Criterion`).
#[derive(Default)]
pub struct Criterion;

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("group: {name}");
        BenchmarkGroup { name: name.to_string(), throughput: None }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        println!("bench: {name}");
        let mut b = Bencher::default();
        f(&mut b);
        b.report(None);
        self
    }
}

/// Re-export of `std::hint::black_box` for call sites that import it from
/// criterion.
pub use std::hint::black_box;

/// Collect benchmark functions into a runner (criterion's macro, minus
/// configuration arms the workspace doesn't use).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim-smoke");
        g.sample_size(10);
        g.throughput(Throughput::Bytes(64));
        g.bench_function(BenchmarkId::new("iter", 1), |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("with-input", "x"), &41, |b, &n| {
            b.iter(|| n + 1)
        });
        g.bench_function(BenchmarkId::new("batched", 2), |b| {
            b.iter_batched(|| vec![0u8; 16], |v| v.len(), BatchSize::LargeInput)
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }
}
