//! The p-level DOF grouping (Sec. IV-D) is the internal numbering of every
//! LTS stepper, and a pure renumbering: fields enter and leave in the
//! caller's numbering, so a run on a scrambled numbering returns the
//! unscrambled fields, permuted, bit for bit; and under the grouped order
//! every level set is a prefix or a range.

use wave_lts::lts::setup::level_order;
use wave_lts::lts::{Chain1d, DofTopology, LtsNewmark, LtsSetup, Operator};
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::unstructured::UNMAPPED;
use wave_lts::sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

/// A scrambling "level" key for the sub-operator builders: grouping by it
/// renumbers the nodes far from their natural order.
fn scramble(g: u32) -> u8 {
    (g.wrapping_mul(2_654_435_761) >> 13) as u8 % 7
}

/// Run `steps` LTS steps of `op` from `u0` (zero velocity) and return the
/// final `(u, v)` and the element-operations done.
fn run<O: Operator + DofTopology>(
    op: &O,
    elem_level: &[u8],
    dt: f64,
    u0: Vec<f64>,
    steps: usize,
) -> (Vec<f64>, Vec<f64>, u64) {
    let setup = LtsSetup::new(op, elem_level);
    let mut u = u0;
    let mut v = vec![0.0; u.len()];
    let mut lts = LtsNewmark::new(op, &setup, dt);
    lts.run(&mut u, &mut v, 0.0, steps, &[]);
    (u, v, lts.stats.elem_ops)
}

/// `natural` at the scrambled positions: entry `k` holds `natural[dof(k)]`.
fn scrambled(natural: &[f64], dof: impl Fn(usize) -> usize) -> Vec<f64> {
    (0..natural.len()).map(|k| natural[dof(k)]).collect()
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} dof {k}: {a} vs {b}");
    }
}

#[test]
fn grouped_sets_are_contiguous_runs() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 1_000);
    let op = AcousticOperator::new(&b.mesh, 3);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    assert!(setup.n_levels >= 3);
    let (pos, sets) = level_order(&setup.leaf_level, setup.n_levels);
    let grouped = |set: &[u32]| {
        let mut r: Vec<usize> = set.iter().map(|&d| pos[d as usize] as usize).collect();
        r.sort_unstable();
        r
    };
    // the DOFs of `elems[j]` for `j` in `levels`, ascending
    let dofs_of = |levels: &[Vec<u32>]| -> Vec<u32> {
        let (mut buf, mut out) = (Vec::new(), Vec::new());
        for &e in levels.iter().flatten() {
            op.elem_dofs(e, &mut buf);
            out.extend_from_slice(&buf);
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    assert_eq!(sets.end(0), op.dofmap.n_nodes());
    for l in 0..setup.n_levels {
        assert_eq!(grouped(&setup.leaf[l]), sets.leaf(l).collect::<Vec<_>>());
        if l >= 1 {
            // the active set of l is a prefix of the grouped DOF range
            assert_eq!(
                grouped(&dofs_of(&setup.elems[l..])),
                sets.active(l).collect::<Vec<_>>()
            );
        }
        // every DOF a level-l product writes lies in its prefix
        let touched = dofs_of(&setup.elems[l..=l]);
        assert!(grouped(&touched).iter().all(|&d| d < sets.end(l)));
    }
}

#[test]
fn grouped_acoustic_run_matches_ungrouped() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 800);
    let order = 2;
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let lv = &b.levels.elem_level;
    let op = AcousticOperator::new(&b.mesh, order);
    let ndof = op.dofmap.n_nodes();
    let u_init: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.31).sin()).collect();
    let (u0, v0, ops0) = run(&op, lv, dt, u_init.clone(), 3);

    // the same discretization, its nodes numbered by a scrambling key
    let all: Vec<u32> = (0..b.mesh.n_elems() as u32).collect();
    let mass = |g: u32| op.mass()[g as usize];
    let mut map = vec![UNMAPPED; ndof];
    let (sc, node, _) = UnstructuredAcoustic::from_subset_in(
        &b.mesh,
        order,
        &all,
        Some(&mass),
        &scramble,
        &mut map,
    );
    assert!(node.iter().enumerate().any(|(k, &g)| k != g as usize));
    let dof = |k: usize| node[k] as usize;
    let (u1, v1, ops1) = run(&sc, lv, dt, scrambled(&u_init, dof), 3);
    assert_bitwise(&u1, &scrambled(&u0, dof), "u");
    assert_bitwise(&v1, &scrambled(&v0, dof), "v");
    assert_eq!(ops0, ops1);
}

#[test]
fn grouped_elastic_run_matches_ungrouped() {
    let b = BenchmarkMesh::build(MeshKind::Embedding, 400);
    let order = 2;
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let lv = &b.levels.elem_level;
    let op = ElasticOperator::poisson(&b.mesh, order);
    let ndof = 3 * op.dofmap.n_nodes();
    let u_init: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.17).cos()).collect();
    let (u0, v0, _) = run(&op, lv, dt, u_init.clone(), 2);

    let all: Vec<u32> = (0..b.mesh.n_elems() as u32).collect();
    let mass = |g: u32| op.mass()[3 * g as usize];
    let mut map = vec![UNMAPPED; op.dofmap.n_nodes()];
    let (sc, node, _) =
        UnstructuredElastic::from_subset_in(&b.mesh, order, &all, Some(&mass), &scramble, &mut map);
    let dof = |k: usize| 3 * node[k / 3] as usize + k % 3;
    let (u1, v1, _) = run(&sc, lv, dt, scrambled(&u_init, dof), 2);
    assert_bitwise(&u1, &scrambled(&u0, dof), "u");
    assert_bitwise(&v1, &scrambled(&v0, dof), "v");
}

#[test]
fn grouped_chain_matches_ungrouped() {
    let mut vel = vec![1.0; 20];
    for v in vel.iter_mut().skip(14) {
        *v = 4.0;
    }
    let c = Chain1d::with_velocities(vel, 1.0);
    let (lv, dt) = c.assign_levels(0.5, 3);
    let n = 21;
    let u_init: Vec<f64> = (0..n)
        .map(|i| (-((i as f64 - 7.0) / 2.0f64).powi(2)).exp())
        .collect();
    let (u0, v0, ops0) = run(&c, &lv, dt, u_init.clone(), 25);

    let all: Vec<u32> = (0..20).collect();
    let mut map = vec![u32::MAX; n];
    let (sc, node, _) = c.subset(&all, &scramble, &mut map);
    assert!(node.iter().enumerate().any(|(k, &g)| k != g as usize));
    let dof = |k: usize| node[k] as usize;
    let (u1, v1, ops1) = run(&sc, &lv, dt, scrambled(&u_init, dof), 25);
    assert_bitwise(&u1, &scrambled(&u0, dof), "u");
    assert_bitwise(&v1, &scrambled(&v0, dof), "v");
    assert_eq!(ops0, ops1);
}
