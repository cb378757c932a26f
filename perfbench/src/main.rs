//! Time-to-solution benchmark of the LTS stepping paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--rounds R]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest
//! ```
//!
//! One workload: repeat its solve for `--seconds`, check every output, print
//! a table of every metric (median, quartiles, sample count) and, as the
//! last line, one JSON object. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `--workload all` runs every workload as
//! its own process, interleaved over `--rounds` rounds with seeds `N`,
//! `N+1`, ..., and summarises them. See `perfbench/README.md`.

mod ceilings;
mod host;
mod measure;
mod metrics;
mod stats;
mod timed_op;
mod workload;

use lts_obs::Json;
use measure::{Outcome, Value};
use std::process::ExitCode;
use workload::{Inputs, Workload};

#[derive(Debug, Clone, PartialEq)]
enum Target {
    One(Workload),
    All,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    target: Option<Target>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
    write_manifest: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <trench-p4-serial|trench-p4-r2|trench-big-p2-r2|all> \
[--seed N] [--seconds S] [--trace 0|1] [--rounds R] | --write-manifest";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        target: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        rounds: 3,
        write_manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.target = Some(match v {
                    "all" => Target::All,
                    _ => Target::One(Workload::parse(v).ok_or_else(|| bad(v))?),
                });
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--rounds" => {
                let v = value()?;
                args.rounds = v.parse().ok().filter(|&r| r > 0).ok_or_else(|| bad(v))?;
            }
            "--write-manifest" => args.write_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.target.is_none() && !args.write_manifest {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let malloc_pinned = host::pin_malloc_policy();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = metrics::validate() {
        eprintln!("perfbench: metric catalogue: {e}");
        return ExitCode::FAILURE;
    }
    if args.write_manifest {
        if let Err(e) = std::fs::write("BENCHMARK.json", metrics::manifest().render_pretty()) {
            eprintln!("perfbench: could not write BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote BENCHMARK.json");
    }
    match args.target {
        Some(Target::One(w)) => run_one(w, &args, malloc_pinned),
        Some(Target::All) => run_all(&args),
        None => ExitCode::SUCCESS,
    }
}

fn run_one(w: Workload, args: &Args, malloc_pinned: bool) -> ExitCode {
    for warning in host::override_warnings() {
        eprintln!("{warning}");
        println!("# {warning}");
    }
    let spec = w.spec();
    println!(
        "# perfbench {} ({} run), {} elements target, order {}, {} steps, {} rank(s), {:.0} s",
        w.name(),
        if args.trace { "traced" } else { "untraced" },
        spec.elements,
        spec.order,
        spec.steps,
        spec.ranks,
        args.seconds
    );
    for (k, v) in host::provenance(args.seed, malloc_pinned) {
        println!("# {k}: {v}");
    }
    let inputs = Inputs::generate(&spec, args.seed);
    let outcome = if args.trace {
        measure::traced(&spec, &inputs, args.seconds)
    } else {
        measure::untraced(&spec, &inputs, args.seconds)
    };
    for p in &outcome.problems {
        println!("# CHECK FAILED: {p}");
    }
    print_table(&outcome.values);
    print_error_rate(outcome.attempted, outcome.failed);
    if !args.trace {
        let rss_mb = outcome.values.iter().find(|v| v.name == "peak_rss_mb");
        if let (Some(rss_mb), Some(llc)) = (rss_mb, host::llc_bytes()) {
            let llc_mb = llc as f64 / 1e6;
            let fits = if rss_mb.value() <= llc_mb {
                "fits in"
            } else {
                "exceeds"
            };
            println!(
                "# working set: peak RSS {:.0} MB {fits} the {llc_mb:.0} MB LLC",
                rss_mb.value()
            );
        }
        for v in &outcome.values {
            let xs: Vec<String> = v.samples.iter().map(|x| format!("{x:.6}")).collect();
            println!("# samples {}: {}", v.name, xs.join(" "));
        }
    }
    println!("{}", result_json(&outcome).render());
    ExitCode::SUCCESS
}

/// Every workload in its own process (so peak memory is that workload's
/// alone), interleaved: round `r` runs each workload once with seed
/// `seed + r`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: Vec<(Workload, Result<Json, String>)> = Vec::new();
    for round in 0..args.rounds {
        for w in Workload::ALL {
            let seed = args.seed + round as u64;
            eprintln!("# round {round}: {} seed {seed}", w.name());
            let result = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())
                .and_then(|out| {
                    let text = String::from_utf8_lossy(&out.stdout);
                    text.lines()
                        .last()
                        .ok_or_else(|| format!("no output, {}", out.status))
                        .and_then(Json::parse)
                });
            runs.push((w, result));
        }
    }
    let mut total = (0usize, 0usize);
    let mut summary = Vec::new();
    for w in Workload::ALL {
        let mine: Vec<&Result<Json, String>> = runs
            .iter()
            .filter(|(x, _)| *x == w)
            .map(|(_, r)| r)
            .collect();
        let (mut attempted, mut failed) = (0usize, 0usize);
        let mut values: Vec<Value> = Vec::new();
        for r in &mine {
            let doc = match r {
                Ok(doc) => doc,
                Err(e) => {
                    println!("# {}: run failed: {e}", w.name());
                    attempted += 1;
                    failed += 1;
                    continue;
                }
            };
            let count = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
            attempted += count("attempted");
            failed += count("failed");
            if let Some(Json::Obj(ms)) = doc.get("metrics") {
                for (name, m) in ms {
                    let x = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = unit_of(name);
                    match values.iter_mut().find(|v| &v.name == name) {
                        Some(v) => v.samples.push(x),
                        None => values.push(Value {
                            name: name.clone(),
                            unit,
                            samples: vec![x],
                            fastest: false,
                        }),
                    }
                }
            }
        }
        println!(
            "\n## {} ({} runs; each sample is one run's reported value)",
            w.name(),
            mine.len()
        );
        print_table(&values);
        print_error_rate(attempted, failed);
        total.0 += attempted;
        total.1 += failed;
        summary.extend(values.into_iter().map(|v| Value {
            name: format!("{}.{}", w.name(), v.name),
            ..v
        }));
    }
    let outcome = Outcome {
        attempted: total.0,
        failed: total.1,
        problems: Vec::new(),
        values: summary,
    };
    println!("{}", result_json(&outcome).render());
    ExitCode::SUCCESS
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            metrics::per_layer()
                .into_iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
        .unwrap_or("?")
}

fn print_table(values: &[Value]) {
    println!(
        "# {:<34} {:>8} {:>14} {:>14} {:>14} {:>14} {:>4}  tail",
        "metric", "unit", "reported", "median", "q1", "q3", "n"
    );
    for v in values {
        let med = stats::median(&v.samples).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(&v.samples).unwrap_or((f64::NAN, f64::NAN));
        let tail = match stats::highest_reportable(v.samples.len()) {
            Some(p) => format!(
                "p{:.0}={:.6}",
                p * 100.0,
                stats::tail_percentile(&v.samples, p).unwrap_or(f64::NAN)
            ),
            None => "-".to_string(),
        };
        println!(
            "# {:<34} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {tail}",
            v.name,
            v.unit,
            v.value(),
            med,
            q1,
            q3,
            v.samples.len()
        );
    }
}

fn print_error_rate(a: usize, f: usize) {
    println!(
        "# {:<34} {:>8} {:>14.6}   ({f} failed of {a} attempted)",
        "error_rate",
        "fraction",
        f as f64 / a.max(1) as f64
    );
}

/// The last line of output: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(o: &Outcome) -> Json {
    let metrics = o
        .values
        .iter()
        .map(|v| {
            (
                v.name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(v.value())),
                    ("unit".to_string(), Json::str(v.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(o.failed == 0)),
        ("attempted".to_string(), Json::UInt(o.attempted as u64)),
        ("failed".to_string(), Json::UInt(o.failed as u64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn harness_arguments_parse() {
        let a = parse_args(&argv(
            "--workload trench-p4-r2 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.target, Some(Target::One(Workload::TrenchP4R2)));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(
            parse_args(&argv("--workload all")).unwrap().target,
            Some(Target::All)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seed x",
            "--workload all --seconds -1",
            "--workload all --rounds 0",
            "--workload all --bogus",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
