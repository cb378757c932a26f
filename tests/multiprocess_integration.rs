//! The multi-process backend against the in-process reference: real
//! `wave-lts worker` OS processes, spawned through the coordinator, must
//! reproduce the in-process channel-transport run's fields **bitwise** and
//! its deterministic counters **exactly** — each worker builds the same
//! rank-local world as the in-process rank threads and steps it through
//! the same rank body, and payload `f64`s cross the wire as raw bit
//! patterns, so nothing may differ. Both run the stall monitor, whose
//! window count follows the exchange count. A failed fleet must report the
//! same typed error as the in-process run: each worker ships its own.

#![cfg(unix)]

use std::time::Duration;
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::process::{run_coordinator, ProcSpec};
use wave_lts::runtime::stats::names;
use wave_lts::runtime::{
    run, Acoustic, DistributedConfig, FaultPlan, MonitorConfig, RankStats, RunOutput, RunSpec,
};
use wave_lts::sem::gll::cfl_dt_scale;

const ELEMENTS: usize = 600;
const ORDER: usize = 2;
const STEPS: usize = 3;

fn worker_args(dt: f64, overlap: bool) -> Vec<String> {
    [
        "worker",
        "--mesh",
        "trench",
        "--elements",
        &ELEMENTS.to_string(),
        "--order",
        &ORDER.to_string(),
        "--steps",
        &STEPS.to_string(),
        "--strategy",
        "scotch-p",
        "--seed",
        "1",
        "--overlap",
        &overlap.to_string(),
        "--dt-bits",
        &dt.to_bits().to_string(),
        "--u0-bits",
        &0.003f64.to_bits().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn worker_processes_match_in_process_bitwise() {
    let b = BenchmarkMesh::build(MeshKind::Trench, ELEMENTS);
    let ndof = b.mesh.n_gll_nodes(ORDER);
    let dt = b.levels.dt_global * cfl_dt_scale(ORDER, 3);
    // must match the worker's --u0-bits initial condition
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.003).sin()).collect();
    let v0 = vec![0.0; ndof];

    for (ranks, overlap) in [(2usize, false), (3, true)] {
        let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
        let spec = RunSpec {
            elem_level: &b.levels.elem_level,
            partition: &part,
            dt,
            u0: &u0,
            v0: &v0,
            n_steps: STEPS,
            sources: &[],
            cfg: DistributedConfig {
                overlap,
                stall_monitor: Some(MonitorConfig),
                ..DistributedConfig::new(ranks)
            },
        };
        let problem = Acoustic {
            mesh: &b.mesh,
            order: ORDER,
        };
        let (u_ref, v_ref, stats_ref) = run(&problem, &spec, None, &mut MetricsRegistry::new())
            .into_result()
            .unwrap();

        let fleet = ProcSpec {
            bin: env!("CARGO_BIN_EXE_wave-lts").into(),
            args: worker_args(dt, overlap),
            n_ranks: ranks,
            timeout: Duration::from_secs(300),
        };
        let (u, v, stats) = run_coordinator(&fleet)
            .into_result()
            .unwrap_or_else(|e| panic!("{ranks} ranks overlap={overlap}: {e}"));

        assert_eq!(u.len(), ndof, "{ranks} ranks: assembled field size");
        for i in 0..ndof {
            assert_eq!(
                u_ref[i].to_bits(),
                u[i].to_bits(),
                "{ranks} ranks overlap={overlap}: u[{i}]"
            );
            assert_eq!(
                v_ref[i].to_bits(),
                v[i].to_bits(),
                "{ranks} ranks overlap={overlap}: v[{i}]"
            );
        }
        assert_eq!(stats.len(), ranks);
        for (a, b) in stats_ref.iter().zip(&stats) {
            assert_eq!(a.elem_ops, b.elem_ops, "elem_ops rank {}", a.rank);
            assert_eq!(a.n_exchanges, b.n_exchanges, "n_exchanges rank {}", a.rank);
            assert_eq!(a.msgs_sent, b.msgs_sent, "msgs_sent rank {}", a.rank);
            assert_eq!(a.dofs_sent, b.dofs_sent, "dofs_sent rank {}", a.rank);
            let windows = |s: &RankStats| s.registry.counter(names::STALL_WINDOWS, None);
            assert!(windows(a) > 0, "no monitor window on rank {}", a.rank);
            assert_eq!(windows(a), windows(b), "stall.windows rank {}", a.rank);
        }
    }
}

#[test]
fn coordinator_reports_worker_failure_cleanly() {
    // a worker launched with an unknown mesh exits nonzero before dialling
    // in; the coordinator must return an error, not hang
    let spec = ProcSpec {
        bin: env!("CARGO_BIN_EXE_wave-lts").into(),
        args: vec!["worker".into(), "--mesh".into(), "bogus".into()],
        n_ranks: 2,
        timeout: Duration::from_secs(60),
    };
    assert!(run_coordinator(&spec).into_result().is_err());
}

/// The ranks whose own outcome is a failure.
fn failed_ranks(out: &RunOutput) -> Vec<usize> {
    (0..out.ranks.len())
        .filter(|&r| out.ranks[r].is_err())
        .collect()
}

#[test]
fn worker_fault_reports_the_in_process_error() {
    let ranks = 3;
    let b = BenchmarkMesh::build(MeshKind::Trench, ELEMENTS);
    let ndof = b.mesh.n_gll_nodes(ORDER);
    let dt = b.levels.dt_global * cfl_dt_scale(ORDER, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.003).sin()).collect();
    let v0 = vec![0.0; ndof];
    let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
    let plan = FaultPlan {
        die_on_send_at_level: Some(1),
        ..FaultPlan::default()
    };
    let spec = RunSpec {
        elem_level: &b.levels.elem_level,
        partition: &part,
        dt,
        u0: &u0,
        v0: &v0,
        n_steps: STEPS,
        sources: &[],
        cfg: DistributedConfig {
            stall_monitor: Some(MonitorConfig),
            fault: Some((1, plan)),
            ..DistributedConfig::new(ranks)
        },
    };
    let problem = Acoustic {
        mesh: &b.mesh,
        order: ORDER,
    };
    let in_process = run(&problem, &spec, None, &mut MetricsRegistry::new());

    let mut args = worker_args(dt, false);
    args.extend(["--fault-rank", "1", "--fault-die-at-level", "1"].map(String::from));
    let fleet = run_coordinator(&ProcSpec {
        bin: env!("CARGO_BIN_EXE_wave-lts").into(),
        args,
        n_ranks: ranks,
        timeout: Duration::from_secs(300),
    });

    assert_eq!(failed_ranks(&fleet), failed_ranks(&in_process));
    let want = in_process.into_result().expect_err("the fault fires");
    assert_eq!(fleet.into_result().expect_err("the fault fires"), want);
}
