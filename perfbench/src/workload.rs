//! The workloads, their seeded inputs, one timed repetition of each, and
//! the output check every repetition must pass.
//!
//! A repetition is one whole solve, from the generated inputs to the final
//! fields: mesh and levels, partition (distributed only), operator and
//! `LtsSetup` or the runtime's decomposition, then the global steps.

use crate::timed_op::{KernelTally, TimedOp};
use lts_core::{LtsNewmark, LtsSetup, Operator, Source};
use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_obs::{FlightRecorder, MetricsRegistry};
use lts_partition::{partition_mesh, Strategy};
use lts_runtime::{
    run_distributed_local_acoustic_flight, run_distributed_local_acoustic_observed,
    DistributedConfig, RankStats, TransportKind,
};
use lts_sem::gll::cfl_dt_scale;
use lts_sem::AcousticOperator;
use std::time::Instant;

/// Partitioner seed. Fixed, not taken from the workload seed, so the
/// partition — and with it every exchange count — is the same for every
/// seed of a workload.
pub const PARTITION_SEED: u64 = 1;

/// Relative max-norm by which a distributed result may differ from the
/// serial stepper on the same inputs.
pub const DISTRIBUTED_TOLERANCE: f64 = 1e-10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrenchP4Serial,
    TrenchP4R2,
    TrenchBigP2R2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TrenchP4Serial,
        Workload::TrenchP4R2,
        Workload::TrenchBigP2R2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrenchP4Serial => "trench-p4-serial",
            Workload::TrenchP4R2 => "trench-p4-r2",
            Workload::TrenchBigP2R2 => "trench-big-p2-r2",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::TrenchP4Serial => {
                "serial order-4 stepping: sem kernel and core recursion do nearly all work, \
                 partition and runtime none"
            }
            Workload::TrenchP4R2 => {
                "same mesh and inputs on 2 ranks: kernel work equals the serial one, so the gap \
                 is the runtime layer"
            }
            Workload::TrenchBigP2R2 => {
                "6-level order-2 mesh on 2 ranks, 2 steps: mesh, partition and decomposition \
                 dominate; many small exchanges"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::TrenchP4Serial => Spec {
                kind: MeshKind::Trench,
                elements: 8_788,
                order: 4,
                steps: 20,
                ranks: 1,
                strategy: Strategy::ScotchP,
            },
            Workload::TrenchP4R2 => Spec {
                ranks: 2,
                ..Workload::TrenchP4Serial.spec()
            },
            Workload::TrenchBigP2R2 => Spec {
                kind: MeshKind::TrenchBig,
                elements: 42_592,
                order: 2,
                steps: 2,
                ranks: 2,
                strategy: Strategy::MetisMc,
            },
        }
    }
}

/// The problem a workload solves. `ranks == 1` runs the serial stepper.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: MeshKind,
    /// Target element count (`BenchmarkMesh::build`).
    pub elements: usize,
    pub order: usize,
    /// Global steps per repetition.
    pub steps: usize,
    pub ranks: usize,
    /// Partitioner of the distributed runs.
    pub strategy: Strategy,
}

impl Spec {
    /// The same workload at a size that runs in well under a second.
    #[cfg(test)]
    pub fn tiny(self) -> Spec {
        let elements = match self.kind {
            MeshKind::TrenchBig => 864,
            _ => 500,
        };
        Spec {
            elements,
            steps: 2,
            ..self
        }
    }

    pub fn is_serial(&self) -> bool {
        self.ranks == 1
    }

    /// The serial stepper on the same mesh, order and steps: the reference
    /// of every workload.
    pub fn serial(self) -> Spec {
        Spec { ranks: 1, ..self }
    }

    pub fn build_mesh(&self) -> BenchmarkMesh {
        BenchmarkMesh::build(self.kind, self.elements)
    }

    /// The global step: the levels' `Δt` scaled by the order's CFL factor.
    pub fn dt(&self, mesh: &BenchmarkMesh) -> f64 {
        mesh.levels.dt_global * cfl_dt_scale(self.order, 3)
    }
}

/// A workload's inputs, generated from the seed: a smooth initial
/// displacement, zero velocity, and one Ricker source at a level-0 DOF.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub u0: Vec<f64>,
    pub v0: Vec<f64>,
    pub source_dof: u32,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let b = spec.build_mesh();
        let op = AcousticOperator::new(&b.mesh, spec.order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let mut rng = SplitMix64(seed);
        let amplitude = 0.5 + 0.5 * rng.unit();
        // one low mode per axis: wavenumber 1..=3 half-waves, random phase
        let modes: Vec<(f64, f64)> = (0..3)
            .map(|_| {
                let k = 1.0 + rng.below(3) as f64;
                (std::f64::consts::PI * k, std::f64::consts::TAU * rng.unit())
            })
            .collect();
        let (gx, gy, gz) = (op.dofmap.gx, op.dofmap.gy, op.dofmap.gz);
        let axis = |n: usize, (k, phase): (f64, f64)| -> Vec<f64> {
            (0..n)
                .map(|i| (k * i as f64 / (n - 1) as f64 + phase).sin())
                .collect()
        };
        let (sx, sy, sz) = (axis(gx, modes[0]), axis(gy, modes[1]), axis(gz, modes[2]));
        let mut u0 = Vec::with_capacity(gx * gy * gz);
        for z in &sz {
            for y in &sy {
                u0.extend(sx.iter().map(|x| amplitude * x * y * z));
            }
        }
        assert_eq!(u0.len(), Operator::ndof(&op), "lattice numbering");
        let leaf0 = &setup.leaf[0];
        let source_dof = leaf0[rng.below(leaf0.len())];
        Inputs {
            v0: vec![0.0; u0.len()],
            u0,
            source_dof,
        }
    }

    pub fn sources(&self) -> Vec<Source> {
        vec![Source::ricker(self.source_dof, 0.3, 1.0, 1.0)]
    }
}

/// Deterministic counters of one repetition, summed over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub elem_ops: u64,
    pub msgs_sent: u64,
    pub dofs_sent: u64,
    pub exchanges: u64,
}

/// Wall time of the set-up phases of one repetition (0 where a workload has
/// no such phase).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub mesh_s: f64,
    pub partition_s: f64,
    /// Serial: `AcousticOperator::new`.
    pub operator_s: f64,
    /// Serial: `LtsSetup::new`.
    pub lts_setup_s: f64,
    /// Distributed: the returned `decompose.*` spans.
    pub decompose_s: f64,
}

/// One timed repetition and what it returned.
#[derive(Debug)]
pub struct Rep {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    /// From the generated inputs to the first step.
    pub setup_s: f64,
    /// Stepping wall time over all global steps.
    pub step_s: f64,
    /// From the generated inputs to the assembled fields.
    pub total_s: f64,
    pub counters: Counters,
    /// `steps × LtsSetup::lts_elem_ops()`; serial repetitions only.
    pub expected_elem_ops: Option<u64>,
    pub phases: Phases,
    /// Per-level kernel time; traced serial repetitions only.
    pub tally: Option<KernelTally>,
    /// Per-rank statistics; distributed repetitions only.
    pub ranks: Vec<RankStats>,
    /// Events the flight recorders captured (including evicted ones).
    pub flight_events: u64,
}

impl Rep {
    pub fn step_ms(&self, steps: usize) -> f64 {
        self.step_s * 1e3 / steps as f64
    }
}

/// Run one repetition. `traced` wraps the serial operator in [`TimedOp`] and
/// turns the distributed flight recorder on; otherwise the recorder is off
/// explicitly, whatever `LTS_FLIGHT` says.
pub fn run_rep(spec: &Spec, inputs: &Inputs, traced: bool) -> Result<Rep, String> {
    if spec.is_serial() {
        Ok(serial_rep(spec, inputs, traced))
    } else {
        distributed_rep(spec, inputs, traced)
    }
}

/// The serial `LtsNewmark` solve; also the reference of every workload.
pub fn serial_rep(spec: &Spec, inputs: &Inputs, traced: bool) -> Rep {
    let t0 = Instant::now();
    let b = spec.build_mesh();
    let mesh_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let op = AcousticOperator::new(&b.mesh, spec.order);
    let operator_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let lts_setup_s = t.elapsed().as_secs_f64();
    let dt = spec.dt(&b);
    let sources = inputs.sources();
    let (stepped, tally) = if traced {
        let timed = TimedOp::new(&op);
        let s = serial_steps(&timed, &setup, dt, inputs, spec.steps, &sources);
        (s, Some(timed.tally(setup.n_levels)))
    } else {
        (
            serial_steps(&op, &setup, dt, inputs, spec.steps, &sources),
            None,
        )
    };
    Rep {
        setup_s: mesh_s + operator_s + lts_setup_s + stepped.prep_s,
        step_s: stepped.step_s,
        total_s: t0.elapsed().as_secs_f64(),
        counters: Counters {
            elem_ops: stepped.elem_ops,
            ..Counters::default()
        },
        expected_elem_ops: Some(spec.steps as u64 * setup.lts_elem_ops()),
        phases: Phases {
            mesh_s,
            operator_s,
            lts_setup_s,
            ..Phases::default()
        },
        tally,
        ranks: Vec::new(),
        flight_events: 0,
        u: stepped.u,
        v: stepped.v,
    }
}

struct Stepped {
    u: Vec<f64>,
    v: Vec<f64>,
    /// Copying the inputs and allocating the stepper.
    prep_s: f64,
    step_s: f64,
    elem_ops: u64,
}

fn serial_steps<O: Operator>(
    op: &O,
    setup: &LtsSetup,
    dt: f64,
    inputs: &Inputs,
    steps: usize,
    sources: &[Source],
) -> Stepped {
    let t = Instant::now();
    let mut u = inputs.u0.clone();
    let mut v = inputs.v0.clone();
    let mut lts = LtsNewmark::new(op, setup, dt);
    let prep_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    lts.run(&mut u, &mut v, 0.0, steps, sources);
    let step_s = t.elapsed().as_secs_f64();
    Stepped {
        u,
        v,
        prep_s,
        step_s,
        elem_ops: lts.stats.elem_ops,
    }
}

/// The runtime configuration of the distributed workloads: channel
/// transport, one thread per rank, no overlap, no stall monitor, and the
/// flight recorder on only when traced.
pub fn runtime_config(spec: &Spec, traced: bool) -> DistributedConfig {
    DistributedConfig {
        overlap: false,
        stall_monitor: None,
        threads_per_rank: 1,
        transport: TransportKind::Channel,
        flight_capacity: if traced {
            FlightRecorder::DEFAULT_CAPACITY
        } else {
            0
        },
        ..DistributedConfig::new(spec.ranks)
    }
}

fn distributed_rep(spec: &Spec, inputs: &Inputs, traced: bool) -> Result<Rep, String> {
    let t0 = Instant::now();
    let b = spec.build_mesh();
    let mesh_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let part = partition_mesh(
        &b.mesh,
        &b.levels,
        spec.ranks,
        spec.strategy,
        PARTITION_SEED,
    );
    let partition_s = t.elapsed().as_secs_f64();
    let cfg = runtime_config(spec, traced);
    let dt = spec.dt(&b);
    let sources = inputs.sources();
    let mut host = MetricsRegistry::new();
    let t = Instant::now();
    let (result, recordings) = if traced {
        run_distributed_local_acoustic_flight(
            &b.mesh, &b.levels, spec.order, &part, dt, &inputs.u0, &inputs.v0, spec.steps, &cfg,
            &sources, &mut host,
        )
    } else {
        let r = run_distributed_local_acoustic_observed(
            &b.mesh, &b.levels, spec.order, &part, dt, &inputs.u0, &inputs.v0, spec.steps, &cfg,
            &sources, &mut host,
        );
        (r, Vec::new())
    };
    let call_s = t.elapsed().as_secs_f64();
    let (u, v, ranks) = result.map_err(|e| format!("runtime error: {e}"))?;
    let total_s = t0.elapsed().as_secs_f64();
    let span = |name: &str| host.histogram(name, None).map_or(0.0, |h| h.sum);
    let step_s = span("run.steps");
    let counters = Counters {
        elem_ops: ranks.iter().map(|s| s.elem_ops).sum(),
        msgs_sent: ranks.iter().map(|s| s.msgs_sent).sum(),
        dofs_sent: ranks.iter().map(|s| s.dofs_sent).sum(),
        exchanges: ranks.iter().map(|s| s.n_exchanges).sum(),
    };
    Ok(Rep {
        u,
        v,
        setup_s: mesh_s + partition_s + (call_s - step_s),
        step_s,
        total_s,
        counters,
        expected_elem_ops: None,
        phases: Phases {
            mesh_s,
            partition_s,
            decompose_s: span("decompose.discretize") + span("decompose.build_worlds"),
            ..Phases::default()
        },
        tally: None,
        ranks,
        flight_events: recordings
            .iter()
            .map(|r| r.events.len() as u64 + r.dropped)
            .sum(),
    })
}

/// Checks every repetition of one invocation against the serial reference,
/// computed once after the timed repetitions. Repetitions are compared with
/// the first one as they finish, so only the first one's fields are kept
/// while timing.
pub struct OutputCheck {
    exact: bool,
    first: Option<First>,
    /// Per successful repetition: counters and distance to the first one.
    seen: Vec<Seen>,
    errors: usize,
}

struct First {
    u: Vec<f64>,
    v: Vec<f64>,
    counters: Counters,
}

struct Seen {
    counters: Counters,
    /// Max-norm distance of `u` and `v` to the first repetition's; exactly
    /// 0 when bit-equal.
    du: f64,
    dv: f64,
    bit_equal: bool,
}

impl OutputCheck {
    /// `exact`: fields must equal the reference bit for bit (the serial
    /// workload); otherwise within [`DISTRIBUTED_TOLERANCE`].
    pub fn new(exact: bool) -> Self {
        OutputCheck {
            exact,
            first: None,
            seen: Vec::new(),
            errors: 0,
        }
    }

    /// Record one repetition's outcome; only its summary is kept.
    pub fn record(&mut self, rep: &Result<Rep, String>) {
        let rep = match rep {
            Ok(r) => r,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        let first = self.first.get_or_insert_with(|| First {
            u: rep.u.clone(),
            v: rep.v.clone(),
            counters: rep.counters,
        });
        let du = max_abs_diff(&rep.u, &first.u);
        let dv = max_abs_diff(&rep.v, &first.v);
        self.seen.push(Seen {
            counters: rep.counters,
            du,
            dv,
            bit_equal: bit_equal(&rep.u, &first.u) && bit_equal(&rep.v, &first.v),
        });
    }

    pub fn attempted(&self) -> usize {
        self.errors + self.seen.len()
    }

    /// Compare with `reference` (a serial repetition on the same inputs).
    /// Returns the failed-repetition count and one message per distinct
    /// failure.
    pub fn verdict(&self, reference: &Rep) -> (usize, Vec<String>) {
        let mut failed = self.errors;
        let mut why: Vec<String> = Vec::new();
        if self.errors > 0 {
            why.push(format!("{} repetition(s) returned an error", self.errors));
        }
        let Some(first) = &self.first else {
            return (failed, why);
        };
        let mut note = |msg: String| {
            if !why.contains(&msg) {
                why.push(msg);
            }
        };
        let expected_ops = reference.expected_elem_ops;
        if expected_ops != Some(reference.counters.elem_ops) {
            note(format!(
                "reference elem_ops {} != steps x lts_elem_ops {:?}",
                reference.counters.elem_ops, expected_ops
            ));
        }
        let (eu, ev) = (
            max_abs_diff(&first.u, &reference.u),
            max_abs_diff(&first.v, &reference.v),
        );
        let (su, sv) = (max_abs(&reference.u), max_abs(&reference.v));
        let first_exact = bit_equal(&first.u, &reference.u) && bit_equal(&first.v, &reference.v);
        for s in &self.seen {
            let mut ok = expected_ops == Some(reference.counters.elem_ops);
            if Some(s.counters.elem_ops) != expected_ops {
                ok = false;
                note(format!(
                    "elem_ops {} != expected {:?}",
                    s.counters.elem_ops, expected_ops
                ));
            }
            if s.counters != first.counters {
                ok = false;
                note(format!(
                    "deterministic counters drifted: {:?} vs {:?}",
                    s.counters, first.counters
                ));
            }
            if self.exact {
                if !(s.bit_equal && first_exact) {
                    ok = false;
                    note("serial fields are not bit-equal to the reference".to_string());
                }
            } else {
                // triangle inequality through the first repetition: an
                // upper bound on this repetition's distance to the reference
                let ru = (eu + s.du) / su.max(f64::MIN_POSITIVE);
                let rv = (ev + s.dv) / sv.max(f64::MIN_POSITIVE);
                if !(ru <= DISTRIBUTED_TOLERANCE && rv <= DISTRIBUTED_TOLERANCE) {
                    ok = false;
                    note(format!(
                        "relative max-norm error u {ru:.3e} v {rv:.3e} > {DISTRIBUTED_TOLERANCE:e}"
                    ));
                }
            }
            if !ok {
                failed += 1;
            }
        }
        (failed, why)
    }
}

pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn max_abs(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Max-norm of `a − b`; infinite when the lengths differ or a value is NaN.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).fold(0.0, |m, (x, y)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            m.max(d)
        }
    })
}

/// A tiny deterministic generator (SplitMix64): the inputs must be the same
/// for the same seed on every host and toolchain.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(w: Workload) -> Spec {
        w.spec().tiny()
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let spec = tiny(Workload::TrenchP4Serial);
        let a = Inputs::generate(&spec, 11);
        assert_eq!(a, Inputs::generate(&spec, 11));
        assert_ne!(a, Inputs::generate(&spec, 12));
        assert!(a.u0.iter().all(|x| x.is_finite()) && a.u0.iter().any(|&x| x != 0.0));
        assert!(a.v0.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn timing_wrapper_is_bitwise_neutral() {
        let spec = tiny(Workload::TrenchP4Serial);
        let inputs = Inputs::generate(&spec, 3);
        let bare = serial_rep(&spec, &inputs, false);
        let wrapped = serial_rep(&spec, &inputs, true);
        assert!(bit_equal(&bare.u, &wrapped.u) && bit_equal(&bare.v, &wrapped.v));
        assert_eq!(bare.counters, wrapped.counters);
        let tally = wrapped
            .tally
            .expect("traced serial repetitions carry a tally");
        // level k runs 2^k masked products per global step
        for (k, &calls) in tally.calls.iter().enumerate() {
            assert_eq!(calls, (spec.steps as u64) << k, "level {k}");
        }
        assert_eq!(tally.total_elems(), wrapped.counters.elem_ops);
    }

    /// Each workload at tiny size: two repetitions against the serial
    /// reference, with exact and repeatable counters.
    #[test]
    fn tiny_workloads_pass_the_output_check() {
        for w in Workload::ALL {
            let spec = tiny(w);
            let inputs = Inputs::generate(&spec, 5);
            let mut check = OutputCheck::new(spec.is_serial());
            let reps: Vec<_> = (0..2).map(|_| run_rep(&spec, &inputs, false)).collect();
            for r in &reps {
                check.record(r);
            }
            let reference = serial_rep(&spec.serial(), &inputs, false);
            let (failed, why) = check.verdict(&reference);
            assert_eq!((check.attempted(), failed), (2, 0), "{}: {why:?}", w.name());
            let rep = reps[0].as_ref().unwrap();
            assert_eq!(Some(rep.counters.elem_ops), reference.expected_elem_ops);
            if !spec.is_serial() {
                assert!(rep.counters.msgs_sent > 0 && rep.counters.exchanges > 0);
                // same size, other seed: the exchange counts repeat exactly
                let other = run_rep(&spec, &Inputs::generate(&spec, 6), false).unwrap();
                assert_eq!(other.counters, rep.counters, "{}", w.name());
            }
        }
    }

    /// A seeded failing case: repetitions on seed 1 checked against the
    /// reference of seed 2 must all count as failed.
    #[test]
    fn output_check_counts_a_seeded_failure() {
        for w in [Workload::TrenchP4Serial, Workload::TrenchP4R2] {
            let spec = tiny(w);
            let mut check = OutputCheck::new(spec.is_serial());
            let inputs = Inputs::generate(&spec, 1);
            for _ in 0..2 {
                check.record(&run_rep(&spec, &inputs, false));
            }
            check.record(&Err("injected error".to_string()));
            let wrong = serial_rep(&spec.serial(), &Inputs::generate(&spec, 2), false);
            let (failed, why) = check.verdict(&wrong);
            assert_eq!((check.attempted(), failed), (3, 3), "{}: {why:?}", w.name());
            assert!(why.len() >= 2, "{why:?}");
        }
    }

    #[test]
    fn serial_check_demands_bit_equality() {
        let spec = tiny(Workload::TrenchP4Serial);
        let inputs = Inputs::generate(&spec, 4);
        let mut reference = serial_rep(&spec, &inputs, false);
        let mut check = OutputCheck::new(true);
        check.record(&run_rep(&spec, &inputs, false));
        assert_eq!(check.verdict(&reference).0, 0);
        // one ulp in one DOF fails the exact check
        let i = reference.u.len() / 2;
        reference.u[i] = f64::from_bits(reference.u[i].to_bits() + 1);
        assert_eq!(check.verdict(&reference).0, 1);
        // ... while the distributed tolerance accepts it
        let mut loose = OutputCheck::new(false);
        loose.record(&run_rep(&spec, &inputs, false));
        assert_eq!(loose.verdict(&reference).0, 0);
    }
}
