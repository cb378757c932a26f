//! The metric catalogue: every name the benchmark reports, with its unit,
//! and the `BENCHMARK.json` manifest generated from it.

use crate::stats::valid_name;
use crate::workload::Workload;
use lts_obs::Json;

/// Per-level metrics cover levels `0..LEVELS` (the deepest workload has 6);
/// levels a workload does not have read 0.
pub const LEVELS: usize = 6;

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "time_to_solution_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.1,
    },
];

/// A per-layer metric of the traced run.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

/// Every per-layer metric of the traced run, in report order.
pub fn per_layer() -> Vec<Layer> {
    const HI: bool = true;
    const LO: bool = false;
    let mut out: Vec<Layer> = Vec::new();
    let mut one = |name: String, unit: &'static str, higher_is_better: bool| {
        out.push(Layer {
            name,
            unit,
            higher_is_better,
        })
    };
    for (name, unit, better) in [
        ("mesh.build_s", "s", LO),
        ("mesh.elements", "count", LO),
        ("mesh.ndof", "count", LO),
        ("mesh.n_levels", "count", LO),
        ("partition.s", "s", LO),
        ("partition.mpi_volume", "count", LO),
        ("partition.edge_cut", "count", LO),
        ("sem.operator_build_s", "s", LO),
        ("sem.kernel_elem_per_s", "1/s", HI),
        ("sem.kernel_peak_elem_per_s", "1/s", HI),
        ("sem.kernel_in_situ_frac", "fraction", HI),
        ("sem.flops_per_elem", "flop", LO),
        ("sem.bytes_per_elem", "B", LO),
        ("sem.ops_per_byte", "flop/B", HI),
        ("core.setup_s", "s", LO),
        ("core.step_self_ms", "ms", LO),
        ("core.step_unattributed_ms", "ms", LO),
        ("core.elem_ops_per_step", "count", LO),
        ("core.newmark_fine_ms_per_dt", "ms", LO),
        ("core.eq9_efficiency", "fraction", HI),
        ("runtime.build_plans_s", "s", LO),
        ("runtime.decompose_s", "s", LO),
        ("runtime.wait_frac", "fraction", LO),
        ("runtime.partials_ready_frac", "fraction", HI),
        ("runtime.msgs_per_step", "count", LO),
        ("runtime.dofs_sent_per_step", "count", LO),
        ("runtime.exchanges_per_step", "count", LO),
        ("runtime.rank_elem_per_busy_s", "1/s", HI),
        ("runtime.rank_vs_serial", "fraction", HI),
        ("obs.trace_overhead_frac", "fraction", LO),
        ("obs.flight_events", "count", LO),
        ("ceiling.triad_gb_per_s", "GB/s", HI),
        ("ceiling.triad_array_mb", "MB", HI),
        ("ceiling.llc_mb", "MB", HI),
        ("ceiling.triad_beyond_llc", "bool", HI),
        ("ceiling.step_vs_kernel", "fraction", HI),
    ] {
        one(name.to_string(), unit, better);
    }
    for (stem, unit) in [
        ("partition.imbalance", "%"),
        ("sem.kernel_s", "s"),
        ("sem.kernel_calls", "count"),
        ("runtime.busy_s", "s"),
        ("runtime.wait_s", "s"),
        ("runtime.lambda", "fraction"),
    ] {
        for l in 0..LEVELS {
            one(format!("{stem}.l{l}"), unit, LO);
        }
    }
    out
}

/// The `BENCHMARK.json` document describing this benchmark.
pub fn manifest() -> Json {
    let s = |v: &str| Json::str(v);
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".into(), s(w.name())),
                ("why".into(), s(w.why())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s("lower")),
                ("bound".into(), Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .into_iter()
        .map(|m| {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(better)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(COMMAND.iter().map(|a| s(a)).collect()),
        ),
        ("paths".into(), Json::Arr(vec![s("perfbench")])),
        ("run_seconds".into(), Json::UInt(RUN_SECONDS)),
        ("workloads".into(), Json::Arr(workloads)),
        ("end_to_end".into(), Json::Arr(end_to_end)),
        ("per_layer".into(), Json::Arr(layers)),
    ])
}

/// How a harness starts the benchmark, from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path=perfbench/Cargo.toml",
    "--",
];

/// Check names and units against the manifest rules.
pub fn validate() -> Result<(), String> {
    let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    names.extend(per_layer().into_iter().map(|m| m.name));
    names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
    for n in &names {
        if !valid_name(n) {
            return Err(format!("invalid metric or workload name {n:?}"));
        }
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    if sorted.len() != names.len() {
        return Err("duplicate metric or workload name".to_string());
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(per_layer().into_iter().map(|m| m.unit));
    for u in units {
        let ok = !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        if !ok {
            return Err(format!("invalid unit {u:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_valid_and_within_limits() {
        validate().unwrap();
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = Json::parse(&committed).expect("BENCHMARK.json parses");
        assert_eq!(
            committed.render(),
            manifest().render(),
            "regenerate with `--write-manifest`"
        );
    }
}
