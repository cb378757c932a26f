//! The threaded message-passing runtime must agree with the serial stepper
//! on the real 3-D SEM, across partitioning strategies.

use wave_lts::lts::{LtsNewmark, LtsSetup, Source};
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::{run, Acoustic, DistributedConfig, RunResult, RunSpec};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::AcousticOperator;

/// The acoustic SEM of `b` on the in-process runtime from `u0` and zero
/// velocity.
#[allow(clippy::too_many_arguments)] // one knob per axis of the cases below
fn run_ranks(
    b: &BenchmarkMesh,
    order: usize,
    part: &[u32],
    dt: f64,
    u0: &[f64],
    steps: usize,
    cfg: DistributedConfig,
    sources: &[Source],
) -> RunResult {
    let spec = RunSpec {
        elem_level: &b.levels.elem_level,
        partition: part,
        dt,
        u0,
        v0: &vec![0.0; u0.len()],
        n_steps: steps,
        sources,
        cfg,
    };
    let problem = Acoustic {
        mesh: &b.mesh,
        order,
    };
    run(&problem, &spec, None, &mut MetricsRegistry::new()).into_result()
}

fn serial_run(
    op: &AcousticOperator,
    setup: &LtsSetup,
    dt: f64,
    u0: &[f64],
    steps: usize,
) -> Vec<f64> {
    let mut u = u0.to_vec();
    let mut v = vec![0.0; u0.len()];
    let mut lts = LtsNewmark::new(op, setup, dt);
    lts.run(&mut u, &mut v, 0.0, steps, &[]);
    u
}

#[test]
fn distributed_sem_matches_serial_all_strategies() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 600);
    let order = 2;
    let op = AcousticOperator::new(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = op.dofmap.n_nodes();
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
    let reference = serial_run(&op, &setup, dt, &u0, 4);

    for strategy in [
        Strategy::ScotchBaseline,
        Strategy::ScotchP,
        Strategy::MetisMc,
    ] {
        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, strategy, 1);
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, stats) = run_ranks(&b, order, &part, dt, &u0, 4, cfg, &[]).unwrap();
        let scale = reference.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - reference[i]).abs() < 1e-12 * scale,
                "{}: dof {i}: {} vs {}",
                strategy.name(),
                u[i],
                reference[i]
            );
        }
        assert!(stats.iter().all(|s| s.elem_ops > 0));
    }
}

#[test]
fn distributed_scales_to_many_ranks() {
    let b = BenchmarkMesh::build(MeshKind::Embedding, 600);
    let order = 2;
    let op = AcousticOperator::new(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = op.dofmap.n_nodes();
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.03).cos()).collect();
    let reference = serial_run(&op, &setup, dt, &u0, 3);

    for n_ranks in [2usize, 6, 8] {
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, _) = run_ranks(&b, order, &part, dt, &u0, 3, cfg, &[]).unwrap();
        let scale = reference.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        let max_dev = (0..ndof)
            .map(|i| (u[i] - reference[i]).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_dev < 1e-12 * scale,
            "{n_ranks} ranks: deviation {max_dev}"
        );
    }
}

#[test]
fn distributed_with_sources_matches_serial() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 600);
    let order = 2;
    let op = AcousticOperator::new(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = op.dofmap.n_nodes();
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    // one source in the coarse region (leaf level 0), one at the finest level
    let coarse_dof = setup.leaf[0][setup.leaf[0].len() / 2];
    let fine_dof = *setup.leaf.last().unwrap().first().unwrap();
    let mk = || {
        vec![
            Source::ricker(coarse_dof, 0.2, 2.0, 1.0),
            Source::ricker(fine_dof, 0.2, 2.0, 0.5),
        ]
    };
    let steps = 5;
    let mut u_ref = vec![0.0; ndof];
    let mut v_ref = vec![0.0; ndof];
    let mut lts = LtsNewmark::new(&op, &setup, dt);
    lts.run(&mut u_ref, &mut v_ref, 0.0, steps, &mk());

    let n_ranks = 3;
    let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
    let cfg = DistributedConfig::new(n_ranks);
    let srcs = mk();
    let (u, _, _) = run_ranks(&b, order, &part, dt, &vec![0.0; ndof], steps, cfg, &srcs).unwrap();
    let scale = u_ref.iter().fold(1e-30f64, |m, &x| m.max(x.abs()));
    for i in 0..ndof {
        assert!(
            (u[i] - u_ref[i]).abs() <= 1e-12 * scale,
            "dof {i}: {} vs {}",
            u[i],
            u_ref[i]
        );
    }
}

// ---- fault injection ------------------------------------------------------
//
// The PR-4 claim "a dead rank surfaces as RuntimeError everywhere, no
// deadlock" becomes a tested property here: a FaultyTransport kills one
// rank at a chosen LTS level, and every rank must come back with an error
// before a wall-clock deadline.

use std::time::Duration;
use wave_lts::lts::Chain1d;
use wave_lts::runtime::transport::{self, faulty, TransportKind};
use wave_lts::runtime::RuntimeError;

/// [`run`] of the chain world on caller-built `endpoints`: each rank's own
/// outcome and its flight recording.
fn run_chain_on(
    endpoints: Vec<Box<dyn transport::Transport>>,
    cfg: DistributedConfig,
) -> (
    Vec<Result<wave_lts::runtime::RankStats, RuntimeError>>,
    Vec<wave_lts::obs::RankRecording>,
) {
    let (c, lv, part, dt) = chain_world();
    let ndof = 25;
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.37).sin()).collect();
    let spec = RunSpec {
        elem_level: &lv,
        partition: &part,
        dt,
        u0: &u0,
        v0: &vec![0.0; ndof],
        n_steps: 10,
        sources: &[],
        cfg,
    };
    let out = run(&c, &spec, Some(endpoints), &mut MetricsRegistry::new());
    (out.ranks, out.recordings)
}

/// A 3-level chain with an interleaved partition: every rank owns elements
/// at every level and talks to every other rank, so a victim has sends to
/// die on at any level.
fn chain_world() -> (Chain1d, Vec<u8>, Vec<u32>, f64) {
    let mut vel = vec![1.0; 24];
    for (i, v) in vel.iter_mut().enumerate() {
        if i >= 20 {
            *v = 4.0;
        } else if i >= 17 {
            *v = 2.0;
        }
    }
    let c = Chain1d::with_velocities(vel, 1.0);
    let (lv, dt) = c.assign_levels(0.5, 3);
    assert_eq!(LtsSetup::new(&c, &lv).n_levels, 3);
    let part: Vec<u32> = (0..24).map(|e| (e % 3) as u32).collect();
    (c, lv, part, dt)
}

/// Run a 3-rank chain with rank 1's endpoint wrapped in the given fault
/// plan (every endpoint additionally gets `base` applied), on a watchdog
/// thread so a deadlock fails the test instead of hanging it.
fn run_with_faults(
    kind: TransportKind,
    overlap: bool,
    victim_plan: faulty::FaultPlan,
    all_plan: Option<faulty::FaultPlan>,
) -> Vec<Result<wave_lts::runtime::RankStats, RuntimeError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut endpoints = transport::make_cluster(kind, 3).unwrap();
        if let Some(plan) = all_plan {
            endpoints = endpoints
                .into_iter()
                .map(|ep| faulty::wrap(ep, plan))
                .collect();
        }
        let ep = endpoints.remove(1);
        endpoints.insert(1, faulty::wrap(ep, victim_plan));
        let cfg = DistributedConfig {
            overlap,
            ..DistributedConfig::new(3)
        };
        let _ = tx.send(run_chain_on(endpoints, cfg).0);
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{kind:?} overlap={overlap}: runtime deadlocked"))
}

#[test]
fn killed_rank_cascades_error_to_every_rank_at_every_level() {
    // full level sweep on the channel backend in both comm modes; one level
    // on the socket backend to keep the suite fast
    let scenarios: [(TransportKind, bool, std::ops::Range<usize>); 3] = [
        (TransportKind::Channel, false, 0..3),
        (TransportKind::Channel, true, 0..3),
        (TransportKind::UnixSocket, false, 1..2),
    ];
    for (kind, overlap, levels) in scenarios {
        for level in levels {
            let outcomes = run_with_faults(
                kind,
                overlap,
                faulty::FaultPlan {
                    die_on_send_at_level: Some(level as u8),
                    ..Default::default()
                },
                None,
            );
            assert_eq!(outcomes.len(), 3);
            for (rank, o) in outcomes.iter().enumerate() {
                let err = match o {
                    Err(e) => e,
                    Ok(_) => panic!(
                        "{kind:?} overlap={overlap} die@{level}: rank {rank} finished cleanly"
                    ),
                };
                assert!(
                    !matches!(err, RuntimeError::RankPanicked { .. }),
                    "{kind:?} die@{level}: rank {rank} panicked instead of erroring: {err}"
                );
            }
            // the victim reports the injected fault at the right level...
            match &outcomes[1] {
                Err(RuntimeError::FaultInjected { rank, level: l }) => {
                    assert_eq!((*rank, *l), (1, level));
                }
                other => panic!("{kind:?} die@{level}: victim outcome {other:?}"),
            }
            // ...and the survivors observe the disconnect, not the fault
            for rank in [0usize, 2] {
                match &outcomes[rank] {
                    Err(
                        RuntimeError::PeerDisconnected { .. } | RuntimeError::ChannelClosed { .. },
                    ) => {}
                    other => panic!("{kind:?} die@{level}: rank {rank} outcome {other:?}"),
                }
            }
        }
    }
}

#[test]
fn dropped_messages_with_recv_timeout_error_instead_of_hanging() {
    // rank 1 silently drops every 5th send; every rank's receives time out
    // rather than block forever — the lossy-network failure mode
    let outcomes = run_with_faults(
        TransportKind::Channel,
        false,
        faulty::FaultPlan {
            drop_every: Some(5),
            ..Default::default()
        },
        Some(faulty::FaultPlan {
            recv_timeout_ms: Some(1_000),
            ..Default::default()
        }),
    );
    for (rank, o) in outcomes.iter().enumerate() {
        let err = match o {
            Err(e) => e,
            Ok(_) => panic!("rank {rank} finished despite dropped partials"),
        };
        // a drop either times out the receiver or — when a later message
        // from the same peer arrives first — desyncs the per-sender FIFO,
        // which the level tag detects as a malformed partial
        assert!(
            matches!(
                err,
                RuntimeError::ExchangeTimeout { .. }
                    | RuntimeError::PeerDisconnected { .. }
                    | RuntimeError::ChannelClosed { .. }
                    | RuntimeError::FaultInjected { .. }
                    | RuntimeError::BadPayload { .. }
            ),
            "rank {rank}: unexpected failure mode {err}"
        );
    }
}

// ---- crash reports --------------------------------------------------------
//
// The flight recorder's acceptance contract: every injected failure mode
// (die-at-level, die-after-k, forced timeout) on every transport backend
// must yield a crash report whose per-rank recordings merge into one
// causally-ordered event stream and survive a JSON round trip.

mod crash_reports {
    use super::run_chain_on;
    use std::time::Duration;
    use wave_lts::obs::{merge_recordings, EventKind, Json, RankRecording};
    use wave_lts::runtime::postmortem::{reason_for, CrashReport};
    use wave_lts::runtime::transport::{self, faulty, TransportKind};
    use wave_lts::runtime::{DistributedConfig, RankStats, RuntimeError};

    /// `run_with_faults`, keeping the drained flight rings that come back
    /// alongside the outcomes.
    fn run_recorded(
        kind: TransportKind,
        victim_plan: faulty::FaultPlan,
        all_plan: Option<faulty::FaultPlan>,
    ) -> (Vec<Result<RankStats, RuntimeError>>, Vec<RankRecording>) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut endpoints = transport::make_cluster(kind, 3).unwrap();
            if let Some(plan) = all_plan {
                endpoints = endpoints
                    .into_iter()
                    .map(|ep| faulty::wrap(ep, plan))
                    .collect();
            }
            let ep = endpoints.remove(1);
            endpoints.insert(1, faulty::wrap(ep, victim_plan));
            let cfg = DistributedConfig {
                flight_capacity: 512,
                ..DistributedConfig::new(3)
            };
            let _ = tx.send(run_chain_on(endpoints, cfg));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{kind:?}: runtime deadlocked"))
    }

    fn assert_crash_report(
        kind: TransportKind,
        name: &str,
        victim: faulty::FaultPlan,
        all: Option<faulty::FaultPlan>,
    ) {
        let (outcomes, recordings) = run_recorded(kind, victim, all);
        assert_eq!(
            recordings.len(),
            3,
            "{kind:?} {name}: expected a recording per rank"
        );
        let err = outcomes
            .iter()
            .find_map(|o| o.as_ref().err())
            .unwrap_or_else(|| panic!("{kind:?} {name}: no rank failed"));
        let report = CrashReport::new(reason_for(err), err.to_string(), recordings);

        // merged and causally ordered: the merge is a linear extension of
        // happens-before — program order per rank is preserved, and every
        // matched recv comes after (and lamport-above) its send
        let merged = merge_recordings(&report.recordings)
            .unwrap_or_else(|e| panic!("{kind:?} {name}: causal merge failed: {e}"));
        assert!(!merged.is_empty(), "{kind:?} {name}: empty merge");
        let mut last_t = std::collections::BTreeMap::new();
        for m in &merged {
            if let Some(&prev) = last_t.get(&m.rank) {
                assert!(
                    m.ev.t_ns >= prev,
                    "{kind:?} {name}: rank {} program order violated in merge",
                    m.rank
                );
            }
            last_t.insert(m.rank, m.ev.t_ns);
        }
        for (ri, r) in merged
            .iter()
            .enumerate()
            .filter(|(_, m)| m.ev.kind == EventKind::Recv)
        {
            let send = merged.iter().enumerate().find(|(_, m)| {
                m.ev.kind == EventKind::Send
                    && m.rank == r.ev.peer
                    && m.ev.peer == r.rank
                    && m.ev.seq == r.ev.seq
            });
            if let Some((si, s)) = send {
                assert!(
                    si < ri && s.lamport < r.lamport,
                    "{kind:?} {name}: recv seq {} from rank {} not after its send",
                    r.ev.seq,
                    r.ev.peer
                );
            }
        }

        // at least one rank's ring ends on the fault marker — the recorder
        // stamps it as the final event before the error propagates out
        let faulted = report
            .recordings
            .iter()
            .filter(|r| r.events.last().map(|e| e.kind) == Some(EventKind::Fault))
            .count();
        assert!(
            faulted >= 1,
            "{kind:?} {name}: no rank recorded a terminal fault event"
        );

        // the document round-trips losslessly and renders a merge verdict
        let parsed = Json::parse(&report.to_json().render_pretty())
            .unwrap_or_else(|e| panic!("{kind:?} {name}: report JSON unparseable: {e}"));
        let back = CrashReport::from_json(&parsed)
            .unwrap_or_else(|e| panic!("{kind:?} {name}: report rejected: {e}"));
        assert_eq!(back, report, "{kind:?} {name}: round trip changed report");
        let text = report.render_text();
        assert!(
            text.contains("causal merge : OK"),
            "{kind:?} {name}: {text}"
        );
        assert!(text.contains(&report.reason), "{kind:?} {name}: {text}");
    }

    fn all_scenarios(kind: TransportKind) {
        assert_crash_report(
            kind,
            "die-at-level",
            faulty::FaultPlan {
                die_on_send_at_level: Some(1),
                ..Default::default()
            },
            None,
        );
        assert_crash_report(
            kind,
            "die-after-k",
            faulty::FaultPlan {
                die_after_sends: Some(7),
                ..Default::default()
            },
            None,
        );
        assert_crash_report(
            kind,
            "forced-timeout",
            faulty::FaultPlan {
                drop_every: Some(4),
                ..Default::default()
            },
            Some(faulty::FaultPlan {
                recv_timeout_ms: Some(1_000),
                ..Default::default()
            }),
        );
    }

    #[test]
    fn channel_faults_produce_causal_crash_reports() {
        all_scenarios(TransportKind::Channel);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_faults_produce_causal_crash_reports() {
        all_scenarios(TransportKind::UnixSocket);
    }
}

#[test]
fn work_accounting_matches_partition() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 600);
    let op = AcousticOperator::new(&b.mesh, 2);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = op.dofmap.n_nodes();
    let dt = b.levels.dt_global * cfl_dt_scale(2, 3);
    let u0 = vec![0.0; ndof];
    let n_ranks = 2;
    let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
    let cfg = DistributedConfig::new(n_ranks);
    let steps = 2;
    let (_, _, stats) = run_ranks(&b, 2, &part, dt, &u0, steps, cfg, &[]).unwrap();
    // total distributed element-ops = serial masked ops
    let total: u64 = stats.iter().map(|s| s.elem_ops).sum();
    assert_eq!(total, steps as u64 * setup.lts_elem_ops());
}
