//! The pluggable-transport contract on the real 3-D SEM: every backend, in
//! both communication modes, must reproduce the channel/blocking reference
//! **bit for bit** — fields via `to_bits`, deterministic counters exactly.
//! Anything weaker would let a backend silently reorder the interface
//! assembly.

use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::{run, Acoustic, DistributedConfig, RankStats, RunSpec, TransportKind};
use wave_lts::sem::gll::cfl_dt_scale;

const BACKENDS: [TransportKind; 2] = [TransportKind::Channel, TransportKind::UnixSocket];

#[allow(clippy::too_many_arguments)] // a test harness knob per axis beats a one-use config struct
fn run_case(
    b: &BenchmarkMesh,
    order: usize,
    part: &[u32],
    dt: f64,
    u0: &[f64],
    steps: usize,
    ranks: usize,
    kind: TransportKind,
    overlap: bool,
) -> (Vec<f64>, Vec<f64>, Vec<RankStats>) {
    let spec = RunSpec {
        elem_level: &b.levels.elem_level,
        partition: part,
        dt,
        u0,
        v0: &vec![0.0; u0.len()],
        n_steps: steps,
        sources: &[],
        cfg: DistributedConfig {
            transport: kind,
            overlap,
            ..DistributedConfig::new(ranks)
        },
    };
    let problem = Acoustic {
        mesh: &b.mesh,
        order,
    };
    run(&problem, &spec, None, &mut MetricsRegistry::new())
        .into_result()
        .unwrap_or_else(|e| panic!("{kind:?} overlap={overlap} ranks={ranks}: {e}"))
}

fn assert_identical(
    label: &str,
    reference: &(Vec<f64>, Vec<f64>, Vec<RankStats>),
    got: &(Vec<f64>, Vec<f64>, Vec<RankStats>),
) {
    let (ur, vr, sr) = reference;
    let (u, v, s) = got;
    for i in 0..ur.len() {
        assert_eq!(ur[i].to_bits(), u[i].to_bits(), "{label}: u[{i}]");
        assert_eq!(vr[i].to_bits(), v[i].to_bits(), "{label}: v[{i}]");
    }
    for (a, b) in sr.iter().zip(s) {
        assert_eq!(a.elem_ops, b.elem_ops, "{label}: elem_ops rank {}", a.rank);
        assert_eq!(
            a.n_exchanges, b.n_exchanges,
            "{label}: n_exchanges rank {}",
            a.rank
        );
        assert_eq!(
            a.msgs_sent, b.msgs_sent,
            "{label}: msgs_sent rank {}",
            a.rank
        );
        assert_eq!(
            a.dofs_sent, b.dofs_sent,
            "{label}: dofs_sent rank {}",
            a.rank
        );
    }
}

fn sweep(elements: usize, order: usize, rank_counts: &[usize], steps: usize) {
    let b = BenchmarkMesh::build(MeshKind::Trench, elements);
    let ndof = b.mesh.n_gll_nodes(order);
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
    for &ranks in rank_counts {
        let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
        let reference = run_case(
            &b,
            order,
            &part,
            dt,
            &u0,
            steps,
            ranks,
            TransportKind::Channel,
            false,
        );
        assert!(reference.2.iter().any(|s| s.n_exchanges > 0));
        for kind in BACKENDS {
            for overlap in [false, true] {
                if kind == TransportKind::Channel && !overlap {
                    continue; // that's the reference itself
                }
                let got = run_case(&b, order, &part, dt, &u0, steps, ranks, kind, overlap);
                assert_identical(
                    &format!("order {order}, {ranks} ranks, {kind:?}, overlap={overlap}"),
                    &reference,
                    &got,
                );
            }
        }
    }
}

#[test]
fn order2_all_transports_all_rank_counts_bitwise() {
    sweep(600, 2, &[2, 4, 8], 2);
}

#[test]
fn order3_all_transports_bitwise() {
    sweep(200, 3, &[4], 2);
}

#[test]
fn order4_all_transports_bitwise() {
    sweep(80, 4, &[4], 2);
}
