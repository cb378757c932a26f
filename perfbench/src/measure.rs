//! One invocation on one workload: the untraced run, which measures the
//! end-to-end metrics, or the traced run, which measures the per-layer
//! metrics and the same-run ceilings.

use crate::ceilings;
use crate::host::{peak_rss_bytes, CpuRotation};
use crate::metrics::{per_layer, END_TO_END, LEVELS};
use crate::stats::median;
use crate::workload::{bit_equal, run_rep, serial_rep, Inputs, OutputCheck, Rep, Spec};
use lts_core::{LtsSetup, Operator};
use lts_partition::{edge_cut, load_imbalance, mpi_volume, partition_mesh};
use lts_runtime::exchange::build_plans;
use lts_runtime::stats::{lambda_from_stats, names};
use lts_runtime::RankStats;
use lts_sem::AcousticOperator;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed repetitions per run, whatever the time budget.
const MIN_REPS: usize = 3;

/// Share of a traced run spent on interleaved untraced/traced repetitions;
/// the rest goes to the ceilings (half to the isolated kernel, a quarter
/// each to fine-step Newmark and the triad) and the reference solves.
const TRACED_REP_SHARE: f64 = 0.6;

/// A reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    /// Report the smallest sample instead of the median (see `untraced`).
    pub fastest: bool,
}

impl Value {
    /// The reported value: the median of the samples, or the smallest.
    pub fn value(&self) -> f64 {
        if self.fastest {
            self.samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
        } else {
            median(&self.samples).unwrap_or(0.0)
        }
    }
}

/// What one invocation measured and whether its outputs were right.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub values: Vec<Value>,
}

/// Run `spec` repeatedly for `seconds` with tracing off; report setup,
/// stepping and whole-solve time per repetition, and the peak memory.
///
/// Each metric reports its fastest solve. The host's CPUs see contention
/// bursts from other tenants lasting seconds to a minute, which put the
/// median of a run anywhere between the uncontended time and 1.5× it,
/// while the fastest of a run's 20-40 solves stays put; the median and
/// quartiles are still printed with every table.
pub fn untraced(spec: &Spec, inputs: &Inputs, seconds: f64) -> Outcome {
    let rotation = spec.is_serial().then(CpuRotation::new);
    let pin = |i: usize| rotation.iter().for_each(|r| r.pin(i));
    let mut check = OutputCheck::new(spec.is_serial());
    // warm-up: checked, not timed
    check.record(&run_rep(spec, inputs, false));
    let (mut setup, mut step, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut timed = 0;
    while timed < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        pin(timed);
        let rep = run_rep(spec, inputs, false);
        timed += 1;
        if let Ok(r) = &rep {
            setup.push(r.setup_s);
            step.push(r.step_ms(spec.steps));
            total.push(r.total_s);
        }
        check.record(&rep);
    }
    drop(rotation);
    // read before the reference solve, which this workload does not include
    let rss_mb = peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6);
    let reference = serial_rep(&spec.serial(), inputs, false);
    let (failed, problems) = check.verdict(&reference);
    let samples = [setup, step, total, vec![rss_mb]];
    Outcome {
        attempted: check.attempted(),
        failed,
        problems,
        values: END_TO_END
            .iter()
            .zip(samples)
            .map(|(m, samples)| Value {
                name: m.name.to_string(),
                unit: m.unit,
                samples,
                fastest: true,
            })
            .collect(),
    }
}

/// Samples per metric name; a metric with none reads 0 (the layer does no
/// work on this workload, or the level does not exist).
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, x: f64) {
        self.0.entry(name.into()).or_default().push(x);
    }

    fn extend(&mut self, name: &str, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(name, x);
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).and_then(|xs| median(xs)).unwrap_or(0.0)
    }
}

/// Interleave untraced and traced repetitions, then measure the serial
/// reference with the kernel timing wrapper and the same-run ceilings.
pub fn traced(spec: &Spec, inputs: &Inputs, seconds: f64) -> Outcome {
    let steps = spec.steps as f64;
    let rotation = spec.is_serial().then(CpuRotation::new);
    let mut check = OutputCheck::new(spec.is_serial());
    check.record(&run_rep(spec, inputs, false));
    let mut plain_ms = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < TRACED_REP_SHARE * seconds {
        // an untraced/traced pair shares a CPU, so the overhead compares like with like
        rotation.iter().for_each(|r| r.pin(reps.len()));
        let plain = run_rep(spec, inputs, false);
        if let Ok(r) = &plain {
            plain_ms.push(r.step_ms(spec.steps));
        }
        check.record(&plain);
        let traced = run_rep(spec, inputs, true);
        check.record(&traced);
        if let Ok(mut r) = traced {
            (r.u, r.v) = (Vec::new(), Vec::new());
            reps.push(r);
        }
    }
    drop(rotation);
    let reference = serial_rep(&spec.serial(), inputs, false);
    let (mut failed, mut problems) = check.verdict(&reference);

    // serial-path repetitions: the workload's own, or bare/wrapped pairs of
    // the reference solve
    let mut reference_reps: Vec<Rep> = Vec::new();
    let (serial_plain_ms, serial_traced): (Vec<f64>, Vec<&Rep>) = if spec.is_serial() {
        (plain_ms.clone(), reps.iter().collect())
    } else {
        for _ in 0..MIN_REPS {
            let bare = serial_rep(&spec.serial(), inputs, false);
            let mut wrapped = serial_rep(&spec.serial(), inputs, true);
            if !(bit_equal(&wrapped.u, &reference.u) && bit_equal(&wrapped.v, &reference.v)) {
                failed += 1;
                problems.push("the kernel timing wrapper changed the serial fields".to_string());
            }
            (wrapped.u, wrapped.v) = (Vec::new(), Vec::new());
            reference_reps.push(Rep {
                u: Vec::new(),
                v: Vec::new(),
                ..bare
            });
            reference_reps.push(wrapped);
        }
        let bare_ms = reference_reps
            .iter()
            .filter(|r| r.tally.is_none())
            .map(|r| r.step_ms(spec.steps))
            .collect();
        (bare_ms, reference_reps.iter().collect())
    };

    let b = spec.build_mesh();
    let op = AcousticOperator::new(&b.mesh, spec.order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let mut s = Samples::default();

    s.extend("mesh.build_s", reps.iter().map(|r| r.phases.mesh_s));
    s.push("mesh.elements", b.mesh.n_elems() as f64);
    s.push("mesh.ndof", op.ndof() as f64);
    s.push("mesh.n_levels", b.levels.n_levels as f64);

    // sem and core, from the serial path
    s.extend(
        "sem.operator_build_s",
        serial_traced.iter().map(|r| r.phases.operator_s),
    );
    s.extend(
        "core.setup_s",
        serial_traced.iter().map(|r| r.phases.lts_setup_s),
    );
    let mut traced_step_ms = Vec::new();
    for (rep, tally) in serial_traced
        .iter()
        .filter_map(|r| r.tally.as_ref().map(|t| (r, t)))
    {
        for (l, (secs, calls)) in tally.seconds.iter().zip(&tally.calls).enumerate() {
            s.push(format!("sem.kernel_s.l{l}"), secs / steps);
            s.push(format!("sem.kernel_calls.l{l}"), *calls as f64 / steps);
        }
        s.push(
            "sem.kernel_elem_per_s",
            tally.total_elems() as f64 / tally.total_seconds(),
        );
        s.push(
            "core.step_self_ms",
            (rep.step_s - tally.total_seconds()) * 1e3 / steps,
        );
        traced_step_ms.push(rep.step_ms(spec.steps));
    }
    let serial_ms = median(&serial_plain_ms).unwrap_or(f64::NAN);
    s.push(
        "core.step_unattributed_ms",
        serial_ms - median(&traced_step_ms).unwrap_or(f64::NAN),
    );
    let extra_s = (1.0 - TRACED_REP_SHARE) * seconds;
    let peak = ceilings::kernel_peak_elem_per_s(&op, &setup, &inputs.u0, 0.5 * extra_s);
    s.push("sem.kernel_peak_elem_per_s", peak);
    s.push(
        "sem.kernel_in_situ_frac",
        s.median("sem.kernel_elem_per_s") / peak,
    );
    let (flops, bytes) = (
        ceilings::flops_per_elem(spec.order),
        ceilings::bytes_per_elem(spec.order),
    );
    s.push("sem.flops_per_elem", flops);
    s.push("sem.bytes_per_elem", bytes);
    s.push("sem.ops_per_byte", flops / bytes);
    s.push("core.elem_ops_per_step", setup.lts_elem_ops() as f64);
    let dt = spec.dt(&b);
    let fine =
        ceilings::newmark_fine_ms_per_dt(&op, dt, b.levels.p_max(), &inputs.u0, 0.25 * extra_s);
    s.push("core.newmark_fine_ms_per_dt", fine);
    s.push(
        "core.eq9_efficiency",
        fine / serial_ms / b.levels.speedup_model().speedup(),
    );

    // partition and runtime, on the distributed workloads
    if !spec.is_serial() {
        let part = partition_mesh(
            &b.mesh,
            &b.levels,
            spec.ranks,
            spec.strategy,
            crate::workload::PARTITION_SEED,
        );
        s.extend("partition.s", reps.iter().map(|r| r.phases.partition_s));
        let imbalance = load_imbalance(&b.levels, &part, spec.ranks);
        for (l, pct) in imbalance.per_level_pct.iter().enumerate() {
            s.push(format!("partition.imbalance.l{l}"), *pct);
        }
        s.push(
            "partition.mpi_volume",
            mpi_volume(&b.mesh, &b.levels, &part) as f64,
        );
        s.push(
            "partition.edge_cut",
            edge_cut(&b.mesh, &b.levels, &part) as f64,
        );
        for _ in 0..MIN_REPS {
            let t = Instant::now();
            std::hint::black_box(build_plans(&op, &setup, &part, spec.ranks));
            s.push("runtime.build_plans_s", t.elapsed().as_secs_f64());
        }
        s.extend(
            "runtime.decompose_s",
            reps.iter().map(|r| r.phases.decompose_s),
        );
        for r in &reps {
            runtime_samples(&mut s, &r.ranks, steps);
        }
        s.push(
            "runtime.rank_vs_serial",
            s.median("runtime.rank_elem_per_busy_s") / s.median("sem.kernel_elem_per_s"),
        );
        s.extend(
            "obs.flight_events",
            reps.iter().map(|r| r.flight_events as f64),
        );
    }

    let all_traced_ms: Vec<f64> = reps.iter().map(|r| r.step_ms(spec.steps)).collect();
    let plain = median(&plain_ms).unwrap_or(f64::NAN);
    s.push(
        "obs.trace_overhead_frac",
        median(&all_traced_ms).unwrap_or(f64::NAN) / plain - 1.0,
    );

    let triad = ceilings::triad(0.25 * extra_s);
    s.push("ceiling.triad_gb_per_s", triad.gb_per_s);
    s.push("ceiling.triad_array_mb", triad.array_bytes as f64 / 1e6);
    s.push(
        "ceiling.llc_mb",
        triad.llc_bytes.map_or(0.0, |b| b as f64 / 1e6),
    );
    s.push(
        "ceiling.triad_beyond_llc",
        f64::from(u8::from(triad.beyond_llc())),
    );
    s.push(
        "ceiling.step_vs_kernel",
        setup.lts_elem_ops() as f64 / (plain / 1e3) / peak,
    );

    Outcome {
        attempted: check.attempted() + if spec.is_serial() { 0 } else { MIN_REPS },
        failed,
        problems,
        values: per_layer()
            .into_iter()
            .map(|m| Value {
                samples: s.0.remove(&m.name).unwrap_or_else(|| vec![0.0]),
                name: m.name,
                unit: m.unit,
                fastest: false,
            })
            .collect(),
    }
}

/// Per-level busy and wait (mean over ranks, per global step), measured
/// λ, and the exchange counts of one distributed repetition.
fn runtime_samples(s: &mut Samples, ranks: &[RankStats], steps: f64) {
    let n = ranks.len() as f64;
    let per_level: Vec<_> = ranks.iter().map(|r| r.per_level()).collect();
    for l in 0..LEVELS as u8 {
        let level = |f: fn(&lts_runtime::LevelStats) -> f64| -> f64 {
            per_level
                .iter()
                .flatten()
                .filter(|x| x.level == l)
                .map(f)
                .sum::<f64>()
                / n
                / steps
        };
        if per_level.iter().flatten().any(|x| x.level == l) {
            s.push(format!("runtime.busy_s.l{l}"), level(|x| x.busy_s));
            s.push(format!("runtime.wait_s.l{l}"), level(|x| x.wait_s));
        }
    }
    for (l, lambda) in lambda_from_stats(ranks) {
        s.push(format!("runtime.lambda.l{l}"), lambda);
    }
    let busy: f64 = ranks.iter().map(|r| r.busy_s).sum();
    let wait: f64 = ranks.iter().map(|r| r.wait_s).sum();
    s.push("runtime.wait_frac", wait / (busy + wait));
    let sent: u64 = ranks.iter().map(|r| r.msgs_sent).sum();
    let ready: u64 = ranks
        .iter()
        .map(|r| r.registry.counter_total(names::EXCHANGE_READY))
        .sum();
    s.push(
        "runtime.partials_ready_frac",
        ready as f64 / sent.max(1) as f64,
    );
    s.push("runtime.msgs_per_step", sent as f64 / steps);
    s.push(
        "runtime.dofs_sent_per_step",
        ranks.iter().map(|r| r.dofs_sent).sum::<u64>() as f64 / steps,
    );
    s.push(
        "runtime.exchanges_per_step",
        ranks.iter().map(|r| r.n_exchanges).sum::<u64>() as f64 / steps,
    );
    let elem_ops: u64 = ranks.iter().map(|r| r.elem_ops).sum();
    s.push("runtime.rank_elem_per_busy_s", elem_ops as f64 / busy);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let spec = Workload::TrenchBigP2R2.spec().tiny();
        let o = untraced(&spec, &Inputs::generate(&spec, 9), 0.0);
        assert_eq!(
            (o.attempted, o.failed),
            (1 + MIN_REPS, 0),
            "{:?}",
            o.problems
        );
        let names: Vec<&str> = o.values.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        for v in &o.values {
            assert!(v.value() > 0.0 && v.value().is_finite(), "{v:?}");
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        for w in [Workload::TrenchP4Serial, Workload::TrenchP4R2] {
            let spec = w.spec().tiny();
            let o = traced(&spec, &Inputs::generate(&spec, 9), 0.0);
            assert_eq!(o.failed, 0, "{:?}", o.problems);
            let names: Vec<String> = o.values.iter().map(|v| v.name.clone()).collect();
            let expected: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            let get = |n: &str| o.values.iter().find(|v| v.name == n).unwrap().value();
            assert!(get("core.elem_ops_per_step") > get("mesh.elements"));
            assert!(get("sem.kernel_peak_elem_per_s") > 0.0);
            assert!(get("sem.kernel_calls.l3") == 8.0);
            assert_eq!(get("runtime.msgs_per_step") > 0.0, !spec.is_serial());
        }
    }
}
