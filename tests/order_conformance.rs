//! Order conformance of every `Operator`: a product through a workspace
//! carrying the level-grouped order (`Workspace::with_order`) equals the
//! caller-numbered product, permuted, bit for bit — at every level, at one
//! and two threads, with level `l` handed only the `..a[l]` prefixes of its
//! input and output.

use wave_lts::lts::setup::level_order;
use wave_lts::lts::{Chain1d, DofTopology, LtsSetup, Operator, Workspace};
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

/// `x` in the order: entry `pos[d]` holds `x[d]`.
fn permuted<T: Copy + Default>(x: &[T], pos: &[u32]) -> Vec<T> {
    let mut out = vec![T::default(); x.len()];
    for (d, &p) in pos.iter().enumerate() {
        out[p as usize] = x[d];
    }
    out
}

fn check<O: Operator + DofTopology>(op: &O, elem_level: &[u8], what: &str) {
    let setup = LtsSetup::new(op, elem_level);
    assert!(setup.n_levels >= 3, "{what}: {} levels", setup.n_levels);
    let (pos, sets) = level_order(&setup.leaf_level, setup.n_levels);
    let n = op.ndof();
    assert!(pos.iter().enumerate().any(|(d, &p)| d != p as usize));
    let u: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + 0.25).collect();
    let (u_ord, level_ord) = (permuted(&u, &pos), permuted(&setup.dof_level, &pos));
    for threads in [1, 2] {
        let mut plain = Workspace::new();
        let mut ordered = Workspace::with_order(pos.clone());
        for l in 0..setup.n_levels {
            let (elems, a) = (&setup.elems[l], sets.end(l));
            let mut want = vec![0.0; n];
            let lv = &setup.dof_level;
            op.apply_masked_threads(&u, &mut want, elems, lv, l as u8, &mut plain, threads);
            let mut got = vec![0.0; a];
            let (u_a, ws) = (&u_ord[..a], &mut ordered);
            op.apply_masked_threads(u_a, &mut got, elems, &level_ord, l as u8, ws, threads);
            for (d, &p) in pos.iter().enumerate() {
                let p = p as usize;
                if p < a {
                    assert_eq!(
                        got[p].to_bits(),
                        want[d].to_bits(),
                        "{what}: level {l}, {threads} threads, dof {d}"
                    );
                } else {
                    assert_eq!(want[d], 0.0, "{what}: level {l} writes dof {d} past a[l]");
                }
            }
        }
        let mut want = vec![0.0; n];
        op.apply_ws(&u, &mut want, &mut plain);
        let mut got = vec![0.0; n];
        op.apply_ws(&u_ord, &mut got, &mut ordered);
        let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&permuted(&want, &pos)),
            "{what}: full product"
        );
    }
}

#[test]
fn sem_operators_conform_to_the_workspace_order() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 500);
    let lv = &b.levels.elem_level;
    for order in [2, 4] {
        check(&AcousticOperator::new(&b.mesh, order), lv, "acoustic");
        check(
            &UnstructuredAcoustic::from_mesh(&b.mesh, order),
            lv,
            "unstructured acoustic",
        );
    }
    check(&ElasticOperator::poisson(&b.mesh, 2), lv, "elastic");
    check(
        &UnstructuredElastic::from_mesh(&b.mesh, 3),
        lv,
        "unstructured elastic",
    );
}

#[test]
fn chain_conforms_to_the_workspace_order() {
    let c = Chain1d::with_velocities(
        (0..24)
            .map(|i| match i {
                20.. => 4.0,
                17.. => 2.0,
                8..=10 => 4.0,
                _ => 1.0,
            })
            .collect(),
        1.0,
    );
    let (lv, _) = c.assign_levels(0.5, 3);
    check(&c, &lv, "chain");
}
