//! Offline stand-in for `criterion` (see `shims/README.md`).
//!
//! Provides the group/bench/iter API surface the workspace benches use, with
//! a simple measurement loop: warm-up, then `sample_size` timed samples of
//! an adaptively-chosen iteration count, reporting median and spread to
//! stdout. As upstream, the first command-line argument that is not a flag
//! (`cargo bench -- <filter>`) selects the benches whose id contains it. No
//! statistical regression analysis, plots or saved baselines.

use std::time::{Duration, Instant};

/// Re-export position matches upstream (`criterion::black_box`).
pub use std::hint::black_box;

#[derive(Debug, Clone)]
pub struct BenchmarkId {
    group: String,
    param: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            group: function_name.to_string(),
            param: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.group, self.param)
    }
}

/// Per-iteration work declared for a group, so the report can show a rate
/// (upstream `criterion::Throughput`). Only the variants the workspace
/// benches use are provided.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Passed to the measured closure; `iter` runs and times the payload.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // warm-up and iteration-count calibration: aim for ≥ 1 ms per sample
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(1) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push(t0.elapsed() / iters as u32);
        }
    }

    fn report(&self, label: &str, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            println!("{label:<40} (no samples)");
            return;
        }
        let mut s = self.samples.clone();
        s.sort_unstable();
        let med = s[s.len() / 2];
        let lo = s[0];
        let hi = s[s.len() - 1];
        let rate = throughput
            .map(|t| {
                let (n, unit) = match t {
                    Throughput::Elements(n) => (n, "elem/s"),
                    Throughput::Bytes(n) => (n, "B/s"),
                };
                format!("   thrpt {:>12.0} {unit}", n as f64 / med.as_secs_f64())
            })
            .unwrap_or_default();
        println!(
            "{label:<40} median {:>12?}   range [{:?} .. {:?}]{rate}",
            med, lo, hi
        );
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declare per-iteration work; subsequent benches also report a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl std::fmt::Display, mut f: F) {
        self.bench_with_input(id, &(), |b, ()| f(b));
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl std::fmt::Display,
        input: &I,
        mut f: F,
    ) {
        let label = format!("{}/{}", self.name, id);
        if !self.criterion.selects(&label) {
            return;
        }
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        b.report(&label, self.throughput);
    }

    pub fn finish(self) {}
}

#[derive(Default)]
pub struct Criterion {
    /// Run only the benches whose id contains this.
    filter: Option<String>,
}

/// The bench filter of a command line: its first argument that is not a
/// flag.
fn filter_of(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

impl Criterion {
    /// Take the bench filter from the process arguments (see the crate
    /// docs).
    pub fn configure_from_args(self) -> Self {
        Criterion {
            filter: filter_of(std::env::args().skip(1)),
        }
    }

    fn selects(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
            criterion: self,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl std::fmt::Display, mut f: F) {
        let id = id.to_string();
        if !self.selects(&id) {
            return;
        }
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 10,
        };
        f(&mut b);
        b.report(&id, None);
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("n", 5), &5u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>())
        });
        g.finish();
    }

    criterion_group!(benches, tiny_bench);

    #[test]
    fn harness_runs() {
        benches();
    }

    #[test]
    fn filter_runs_only_matching_ids() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            filter_of(args(&["--bench", "subset_build"])),
            Some("subset_build".to_string())
        );
        assert_eq!(filter_of(args(&["--bench"])), None);

        let mut ran = Vec::new();
        let mut c = Criterion {
            filter: Some("g/su".to_string()),
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("sum", |b| {
            ran.push("sum");
            b.iter(|| 1)
        });
        g.bench_function("product", |b| {
            ran.push("product");
            b.iter(|| 1)
        });
        g.finish();
        c.bench_function("g/sub", |b| {
            ran.push("sub");
            b.iter(|| 1)
        });
        c.bench_function("other", |b| {
            ran.push("other");
            b.iter(|| 1)
        });
        assert_eq!(ran, ["sum", "sub"]);
    }
}
