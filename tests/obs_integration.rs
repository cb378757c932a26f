//! Integration tests of the deterministic observability counters.
//!
//! The runtime's per-rank `elem_ops` / `msgs_sent` / `dofs_sent` counters are
//! exact integers independent of timing, so they can be asserted *exactly*
//! against two independent oracles:
//!
//! * the [`PartitionShape`] extracted from the mesh, the level assignment
//!   and the partition alone (no execution) — per rank and per level, and
//!   through its per-level totals — which is also what the cluster model
//!   reads, and
//! * the serial [`LtsNewmark`] stepper's own operation count.
//!
//! Exactness requires DOFs ≡ corner nodes, i.e. SEM order 1.

use wave_lts::lts::{LtsNewmark, LtsSetup, Operator};
use wave_lts::mesh::{BenchmarkMesh, HexMesh, Levels, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, PartitionShape, Strategy};
use wave_lts::runtime::stats::names;
use wave_lts::runtime::{run_distributed_local_acoustic_observed, DistributedConfig, RankStats};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::AcousticOperator;

const ORDER: usize = 1; // oracle is exact only when DOFs are corner nodes

struct Fixture {
    mesh: HexMesh,
    levels: Levels,
    dt: f64,
    u0: Vec<f64>,
    ndof: usize,
}

fn fixture() -> Fixture {
    // 6×4×2 box with a fast slab on the left third → two CFL levels
    let mut mesh = HexMesh::uniform(6, 4, 2, 1.0, 1.0);
    mesh.paint_box((0, 2), (0, 4), (0, 2), 2.0, 1.0);
    let levels = Levels::assign(&mesh, 0.5, 3);
    fixture_of(mesh, levels)
}

fn fixture_of(mesh: HexMesh, levels: Levels) -> Fixture {
    assert!(
        levels.n_levels >= 2,
        "fixture must exercise multiple levels"
    );
    let op = AcousticOperator::new(&mesh, ORDER);
    let ndof = Operator::ndof(&op);
    assert_eq!(
        ndof,
        mesh.n_corner_nodes(),
        "order-1 DOFs must be corner nodes"
    );
    let dt = levels.dt_global * cfl_dt_scale(ORDER, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.13).sin()).collect();
    Fixture {
        mesh,
        levels,
        dt,
        u0,
        ndof,
    }
}

fn serial_elem_ops(f: &Fixture, steps: usize) -> u64 {
    let op = AcousticOperator::new(&f.mesh, ORDER);
    let setup = LtsSetup::new(&op, &f.levels.elem_level);
    let mut u = f.u0.clone();
    let mut v = vec![0.0; f.ndof];
    let mut lts = LtsNewmark::new(&op, &setup, f.dt);
    lts.run(&mut u, &mut v, 0.0, steps, &[]);
    lts.stats.elem_ops
}

/// Run the distributed-memory runtime and return the merged host registry.
fn run_observed(f: &Fixture, part: &[u32], n_ranks: usize, steps: usize) -> MetricsRegistry {
    run_observed_threads(f, part, n_ranks, steps, 1).0
}

/// As [`run_observed`], with `threads` intra-rank workers per rank.
fn run_observed_threads(
    f: &Fixture,
    part: &[u32],
    n_ranks: usize,
    steps: usize,
    threads: usize,
) -> (MetricsRegistry, Vec<RankStats>) {
    let cfg = DistributedConfig {
        threads_per_rank: threads,
        ..DistributedConfig::new(n_ranks)
    };
    let v0 = vec![0.0; f.ndof];
    let mut host = MetricsRegistry::new();
    let (_, _, stats) = run_distributed_local_acoustic_observed(
        &f.mesh,
        &f.levels,
        ORDER,
        part,
        f.dt,
        &f.u0,
        &v0,
        steps,
        &cfg,
        &[],
        &mut host,
    )
    .unwrap();
    // the RankStats view must agree with the merged registry
    let by_view: u64 = stats.iter().map(|s| s.elem_ops).sum();
    assert_eq!(by_view, host.counter_total(names::ELEM_OPS));
    let by_view: u64 = stats.iter().map(|s| s.dofs_sent).sum();
    assert_eq!(by_view, host.counter_total(names::DOFS_SENT));
    let by_view: u64 = stats.iter().map(|s| s.msgs_sent).sum();
    assert_eq!(by_view, host.counter_total(names::MSGS_SENT));
    (host, stats)
}

#[test]
fn distributed_counters_match_closed_form_oracle_exactly() {
    let f = fixture();
    let steps = 3;
    let n_ranks = 3;
    let part = partition_mesh(&f.mesh, &f.levels, n_ranks, Strategy::ScotchP, 1);
    let host = run_observed(&f, &part, n_ranks, steps);
    let o = PartitionShape::new(&f.mesh, &f.levels, &part, n_ranks);
    let (elem_ops, dofs_sent, msgs_sent) = (o.elem_ops(), o.dofs_sent(), o.msgs_sent());
    assert!(
        dofs_sent.iter().sum::<u64>() > 0,
        "fixture partition must cut the mesh"
    );

    for l in 0..f.levels.n_levels {
        let per_step_elem = elem_ops[l];
        let per_step_dofs = dofs_sent[l];
        let per_step_msgs = msgs_sent[l];
        let s = steps as u64;
        assert_eq!(
            host.counter(names::ELEM_OPS, Some(l as u8)),
            per_step_elem * s,
            "elem_ops at level {l}"
        );
        assert_eq!(
            host.counter(names::DOFS_SENT, Some(l as u8)),
            per_step_dofs * s,
            "dofs_sent at level {l}"
        );
        assert_eq!(
            host.counter(names::MSGS_SENT, Some(l as u8)),
            per_step_msgs * s,
            "msgs_sent at level {l}"
        );
    }
    assert_eq!(
        host.counter_total(names::DOFS_SENT),
        dofs_sent.iter().sum::<u64>() * steps as u64
    );
    assert_eq!(
        host.counter_total(names::MSGS_SENT),
        msgs_sent.iter().sum::<u64>() * steps as u64
    );
}

/// Assert each rank's level-`l` counters against
/// `steps · 2^l · {ops, vol, peers}[r][l]` of the partition shape.
fn assert_per_rank(f: &Fixture, part: &[u32], n_ranks: usize, steps: usize, what: &str) {
    let o = PartitionShape::new(&f.mesh, &f.levels, part, n_ranks);
    let (_, stats) = run_observed_threads(f, part, n_ranks, steps, 1);
    assert_eq!(stats.len(), n_ranks);
    for st in &stats {
        let r = st.rank;
        for l in 0..f.levels.n_levels {
            let calls = steps as u64 * (1u64 << l);
            let reg = &st.registry;
            let level = Some(l as u8);
            let at = format!("{what}: rank {r}, level {l}");
            assert_eq!(
                reg.counter(names::ELEM_OPS, level),
                calls * o.ops[r][l],
                "elem_ops, {at}"
            );
            assert_eq!(
                reg.counter(names::DOFS_SENT, level),
                calls * o.vol[r][l],
                "dofs_sent, {at}"
            );
            assert_eq!(
                reg.counter(names::MSGS_SENT, level),
                calls * o.peers[r][l],
                "msgs_sent, {at}"
            );
        }
    }
}

#[test]
fn per_rank_counters_match_partition_shape() {
    let f = fixture();
    for n_ranks in [2usize, 3] {
        let part = partition_mesh(&f.mesh, &f.levels, n_ranks, Strategy::ScotchP, 1);
        assert_per_rank(&f, &part, n_ranks, 3, &format!("fixture, {n_ranks} ranks"));
    }
    // a graded trench: several levels, interfaces crossing level boundaries
    let b = BenchmarkMesh::build(MeshKind::Trench, 1_500);
    let f = fixture_of(b.mesh, b.levels);
    for n_ranks in [2usize, 4] {
        for strategy in [Strategy::ScotchP, Strategy::ScotchBaseline] {
            let part = partition_mesh(&f.mesh, &f.levels, n_ranks, strategy, 1);
            let what = format!("trench, {}, {n_ranks} ranks", strategy.name());
            assert_per_rank(&f, &part, n_ranks, 2, &what);
        }
    }
}

/// `threads_per_rank > 1` must be invisible to observability: the colored
/// scatter keeps fields bitwise identical, so every deterministic counter
/// still matches the closed-form oracle exactly — and the computed solution
/// matches the serial run bit for bit.
#[test]
fn threaded_ranks_keep_counters_and_fields_exact() {
    let f = fixture();
    let steps = 3;
    let n_ranks = 2;
    let part = partition_mesh(&f.mesh, &f.levels, n_ranks, Strategy::ScotchP, 1);
    let o = PartitionShape::new(&f.mesh, &f.levels, &part, n_ranks);

    let (host, _) = run_observed_threads(&f, &part, n_ranks, steps, 2);
    for (l, &ops) in o.elem_ops().iter().enumerate() {
        assert_eq!(
            host.counter(names::ELEM_OPS, Some(l as u8)),
            ops * steps as u64,
            "elem_ops at level {l} with 2 worker threads"
        );
    }
    assert_eq!(
        host.counter_total(names::DOFS_SENT),
        o.dofs_sent().iter().sum::<u64>() * steps as u64
    );
    assert_eq!(
        host.counter_total(names::MSGS_SENT),
        o.msgs_sent().iter().sum::<u64>() * steps as u64
    );

    // fields: serial vs threaded runs agree bit for bit
    let v0 = vec![0.0; f.ndof];
    let run = |threads: usize| {
        let cfg = DistributedConfig {
            threads_per_rank: threads,
            ..DistributedConfig::new(n_ranks)
        };
        let mut host = MetricsRegistry::new();
        run_distributed_local_acoustic_observed(
            &f.mesh,
            &f.levels,
            ORDER,
            &part,
            f.dt,
            &f.u0,
            &v0,
            steps,
            &cfg,
            &[],
            &mut host,
        )
        .unwrap()
    };
    let (u1, v1, _) = run(1);
    let (u2, v2, _) = run(2);
    for i in 0..f.ndof {
        assert_eq!(u1[i].to_bits(), u2[i].to_bits(), "u[{i}]");
        assert_eq!(v1[i].to_bits(), v2[i].to_bits(), "v[{i}]");
    }
}

#[test]
fn distributed_elem_ops_sum_to_serial_count() {
    let f = fixture();
    let steps = 4;
    for n_ranks in [2usize, 3] {
        let part: Vec<u32> = (0..f.mesh.n_elems())
            .map(|e| (e % n_ranks) as u32)
            .collect();
        let host = run_observed(&f, &part, n_ranks, steps);
        let serial = serial_elem_ops(&f, steps);
        assert_eq!(
            host.counter_total(names::ELEM_OPS),
            serial,
            "{n_ranks} ranks: distributed element work must equal serial"
        );
        let o = PartitionShape::new(&f.mesh, &f.levels, &part, n_ranks);
        assert_eq!(
            o.elem_ops().iter().sum::<u64>() * steps as u64,
            serial,
            "partition shape vs serial stepper"
        );
    }
}

#[test]
fn single_rank_sends_nothing() {
    let f = fixture();
    let steps = 2;
    let part = vec![0u32; f.mesh.n_elems()];
    let host = run_observed(&f, &part, 1, steps);
    assert_eq!(host.counter_total(names::DOFS_SENT), 0);
    assert_eq!(host.counter_total(names::MSGS_SENT), 0);
    assert_eq!(
        host.counter_total(names::ELEM_OPS),
        serial_elem_ops(&f, steps)
    );
}

#[test]
fn deterministic_counters_are_run_to_run_identical() {
    let f = fixture();
    let steps = 2;
    let n_ranks = 2;
    let part: Vec<u32> = (0..f.mesh.n_elems())
        .map(|e| (e % n_ranks) as u32)
        .collect();
    let a = run_observed(&f, &part, n_ranks, steps);
    let b = run_observed(&f, &part, n_ranks, steps);
    for name in [
        names::ELEM_OPS,
        names::EXCHANGES,
        names::MSGS_SENT,
        names::DOFS_SENT,
    ] {
        assert_eq!(a.counter_by_level(name), b.counter_by_level(name), "{name}");
        assert_eq!(a.counter_total(name), b.counter_total(name), "{name}");
    }
}

/// The flight exporter renders exactly what the run did: one `wait` slice
/// per awaited exchange and one `send` marker per posted message, on the
/// right rank's track, and one pid per labelled run.
#[test]
fn chrome_trace_round_trips_and_matches_timeline() {
    use wave_lts::obs::{flight_chrome_trace, validate_trace, Json};
    use wave_lts::runtime::run_distributed_local_acoustic_flight;

    let f = fixture();
    let n_ranks = 2;
    let part = partition_mesh(&f.mesh, &f.levels, n_ranks, Strategy::ScotchP, 1);
    let cfg = DistributedConfig {
        flight_capacity: 4096,
        ..DistributedConfig::new(n_ranks)
    };
    let v0 = vec![0.0; f.ndof];
    let mut host = MetricsRegistry::new();
    let (result, recordings) = run_distributed_local_acoustic_flight(
        &f.mesh,
        &f.levels,
        ORDER,
        &part,
        f.dt,
        &f.u0,
        &v0,
        2,
        &cfg,
        &[],
        &mut host,
    );
    let (_, _, stats) = result.unwrap();
    assert!(recordings.iter().all(|r| r.dropped == 0), "ring evicted");
    let rendered = flight_chrome_trace(&[("integration", &recordings)]).render();
    // the exporter's own parser/validator must accept its output
    let n_events = validate_trace(&rendered).expect("structurally valid trace");
    let doc = Json::parse(&rendered).expect("round-trip");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), n_events);
    let on_track = |rank: usize, name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("tid").and_then(|t| t.as_u64()) == Some(rank as u64)
                    && e.get("name").and_then(|n| n.as_str()) == Some(name)
            })
            .count() as u64
    };
    for s in &stats {
        assert!(s.n_exchanges > 0, "rank {} never exchanged", s.rank);
        assert_eq!(on_track(s.rank, "wait"), s.n_exchanges, "rank {}", s.rank);
        assert_eq!(on_track(s.rank, "send"), s.msgs_sent, "rank {}", s.rank);
    }
    // two labelled runs render as two pids, each with the whole run
    let two = flight_chrome_trace(&[("a", &recordings), ("b", &recordings)]).render();
    assert_eq!(validate_trace(&two), Ok(2 * n_events));
    let doc = Json::parse(&two).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    for pid in [1, 2] {
        let n = events
            .iter()
            .filter(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid))
            .count();
        assert_eq!(n, n_events, "pid {pid}");
    }
}
