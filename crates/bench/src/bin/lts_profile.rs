//! `lts-profile` — the deterministic-counter regression gate (see
//! `lts_bench::profile` and DESIGN.md §"Counter-regression workflow").
//!
//! Modes (`--mode`):
//!
//! * `run` (default) — execute the scenario matrix and write a BENCH
//!   document. `--smoke true` runs the CI subset; `--out` picks the path
//!   (default `BENCH_lts.json`).
//! * `validate` — structural check of `--file <path>`; exit 1 on failure.
//! * `compare` — the `bench-compare` gate: `--baseline` vs `--current`.
//!   Scenario parameters and counters must match exactly. Exit 1 on any
//!   failure.
//!
//! Wall time is not recorded here; perfbench is the timing instrument.

use lts_bench::profile::{compare_bench, run_suite, validate_bench, COUNTERS};
use lts_bench::{Args, Table};
use lts_obs::Json;

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
    let args = Args::parse(&["mode", "smoke", "out", "file", "baseline", "current"]);
    let mode: String = args.get("mode", "run".to_string());
    match mode.as_str() {
        "run" => {
            let smoke: bool = args.get("smoke", false);
            let out: String = args.get("out", "BENCH_lts.json".to_string());
            let doc = run_suite(smoke);
            validate_bench(&doc).expect("generated document must validate");
            let mut header = vec!["scenario", "n_levels"];
            header.extend(COUNTERS.map(|(key, _)| key));
            let mut table = Table::new(&header);
            for sc in doc.get("scenarios").and_then(|s| s.as_arr()).unwrap_or(&[]) {
                let show = |v: Option<&Json>| v.map_or("?".to_string(), Json::render);
                let id = sc.get("id").and_then(|v| v.as_str()).unwrap_or("?");
                let mut row = vec![id.to_string(), show(sc.get("n_levels"))];
                let counters = sc.get("counters");
                row.extend(COUNTERS.map(|(key, _)| show(counters.and_then(|o| o.get(key)))));
                table.row(row);
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
            let failures = compare_bench(&read_doc(&baseline), &read_doc(&current));
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
