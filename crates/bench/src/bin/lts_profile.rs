//! `lts-profile` — the performance-regression harness (see
//! `lts_bench::profile` and DESIGN.md §"Performance regression workflow").
//!
//! Modes (`--mode`):
//!
//! * `run` (default) — execute the scenario matrix and write a BENCH
//!   document. `--smoke true` runs the CI subset; `--out` picks the path
//!   (default `BENCH_lts.json`).
//! * `validate` — structural check of `--file <path>`; exit 1 on failure.
//! * `compare` — the `bench-compare` gate: `--baseline` vs `--current`.
//!   Counters must match exactly; wall-clock may regress up to `--tol`
//!   (relative, default 0.5) unless `--timings false` skips timing checks
//!   (use on CI, where hosts differ). Exit 1 on any failure.

use lts_bench::profile::{
    compare_bench, host_mismatch, kernel_variant_mismatch, run_suite, validate_bench,
};
use lts_bench::{Args, Table};
use lts_obs::Json;
use lts_sem::simd;

fn read_doc(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("lts-profile: cannot read {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("lts-profile: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args = Args::parse(&[
        "mode", "smoke", "out", "file", "baseline", "current", "timings", "tol",
    ]);
    let mode: String = args.get("mode", "run".to_string());
    match mode.as_str() {
        "run" => {
            let smoke: bool = args.get("smoke", false);
            let out: String = args.get("out", "BENCH_lts.json".to_string());
            let doc = run_suite(smoke);
            validate_bench(&doc).expect("generated document must validate");
            println!(
                "kernel: {} (features: {})",
                simd::active().name(),
                simd::cpu_features()
            );
            let mut table = Table::new(&[
                "scenario",
                "kernel",
                "elem_ops",
                "dofs_sent",
                "wall_s",
                "elem_ops/s",
                "λ_wm",
                "windows",
            ]);
            if let Some(scenarios) = doc.get("scenarios").and_then(|s| s.as_arr()) {
                for sc in scenarios {
                    let get_u = |path: &str, key: &str| {
                        sc.get(path)
                            .and_then(|o| o.get(key))
                            .and_then(|v| v.as_u64())
                            .unwrap_or(0)
                    };
                    // worst per-level λ watermark the stall monitor saw
                    let lambda_wm = sc
                        .get("stall")
                        .and_then(|s| s.get("lambda_wm"))
                        .and_then(|v| v.as_arr())
                        .map(|arr| {
                            arr.iter()
                                .filter_map(|e| e.get("lambda_wm").and_then(|v| v.as_f64()))
                                .fold(0.0f64, f64::max)
                        })
                        .unwrap_or(0.0);
                    table.row(vec![
                        sc.get("id")
                            .and_then(|v| v.as_str())
                            .unwrap_or("?")
                            .to_string(),
                        simd::active().name().to_string(),
                        get_u("counters", "elem_ops").to_string(),
                        get_u("counters", "dofs_sent").to_string(),
                        format!(
                            "{:.4}",
                            sc.get("timings")
                                .and_then(|t| t.get("wall_s"))
                                .and_then(|v| v.as_f64())
                                .unwrap_or(0.0)
                        ),
                        format!(
                            "{:.0}",
                            sc.get("timings")
                                .and_then(|t| t.get("elem_ops_per_sec"))
                                .and_then(|v| v.as_f64())
                                .unwrap_or(0.0)
                        ),
                        format!("{lambda_wm:.2}"),
                        get_u("stall", "windows").to_string(),
                    ]);
                }
            }
            table.print();
            match std::fs::write(&out, doc.render_pretty()) {
                Ok(()) => println!("wrote {out}"),
                Err(e) => {
                    eprintln!("lts-profile: cannot write {out}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "validate" => {
            let file: String = args.get("file", "BENCH_lts.json".to_string());
            match validate_bench(&read_doc(&file)) {
                Ok(n) => println!("{file}: valid ({n} scenarios)"),
                Err(e) => {
                    eprintln!("lts-profile: {file} invalid: {e}");
                    std::process::exit(1);
                }
            }
        }
        "compare" => {
            let baseline: String = args.get("baseline", "BENCH_lts.json".to_string());
            let current: String = args.get("current", "BENCH_lts.json".to_string());
            let timings: bool = args.get("timings", true);
            let tol: f64 = args.get("tol", 0.5);
            let base_doc = read_doc(&baseline);
            let cur_doc = read_doc(&current);
            if timings {
                if let Some(m) = host_mismatch(&base_doc, &cur_doc) {
                    eprintln!(
                        "bench-compare: warning: {m}; wall-clock gates are \
                         meaningless across hosts (use --timings false)"
                    );
                }
                if let Some(m) = kernel_variant_mismatch(&base_doc, &cur_doc) {
                    eprintln!(
                        "bench-compare: warning: {m}; timings were produced \
                         by different SIMD kernels (regenerate the baseline \
                         or use --timings false)"
                    );
                }
            }
            let failures = compare_bench(&base_doc, &cur_doc, tol, timings);
            if failures.is_empty() {
                println!("bench-compare: OK ({current} vs {baseline}, counters exact)");
            } else {
                for f in &failures {
                    eprintln!("bench-compare: FAIL {f}");
                }
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("lts-profile: unknown --mode {other:?} (run | validate | compare)");
            std::process::exit(2);
        }
    }
}
