//! The compiled gather lists colour each element over its eight corner ids
//! (`ElementColoring::greedy_corners`) instead of all `(order+1)³` gathered
//! ids. On a conforming hex mesh two elements share a gathered id iff they
//! share a corner, so first-fit must give exactly the classes, in the same
//! order, as colouring over every id. These tests check that on every
//! level list the steppers compile: the four benchmark meshes at orders
//! 1–4, for the structured acoustic and elastic operators and for the
//! rank-local gather-list operators of a 2-rank decomposition (boundary and
//! interior lists).

use wave_lts::lts::{DofTopology, LtsSetup, Operator};
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::exchange::build_plans;
use wave_lts::runtime::{Acoustic, Decompose, Elastic};
use wave_lts::sem::unstructured::UNMAPPED;
use wave_lts::sem::ElementColoring;

const MESHES: [MeshKind; 4] = [
    MeshKind::Trench,
    MeshKind::TrenchBig,
    MeshKind::Embedding,
    MeshKind::Crust,
];

/// Assert that corner colouring of `elems` equals all-id colouring, where
/// `ids_of` yields an element's `np³` ids in lattice order.
fn assert_corner_classes(
    what: &str,
    elems: &[u32],
    n_ids: usize,
    np: usize,
    ids_of: &dyn Fn(u32, &mut Vec<u32>),
) {
    let all = ElementColoring::greedy(elems, n_ids, &mut |e, out| ids_of(e, out));
    let corners = ElementColoring::greedy_corners(elems, n_ids, np, &mut |e, out| ids_of(e, out));
    assert_eq!(corners.classes, all.classes, "{what}");
}

#[test]
fn corner_classes_equal_all_id_classes_on_structured_operators() {
    for kind in MESHES {
        let b = BenchmarkMesh::build(kind, 700);
        for order in 1..=4usize {
            let np = order + 1;
            let acoustic = Acoustic {
                mesh: &b.mesh,
                order,
            }
            .global();
            let elastic = Elastic {
                mesh: &b.mesh,
                order,
            }
            .global();
            for (name, dofmap, setup) in [
                (
                    "acoustic",
                    &acoustic.dofmap,
                    LtsSetup::new(&acoustic, &b.levels.elem_level),
                ),
                (
                    "elastic",
                    &elastic.dofmap,
                    LtsSetup::new(&elastic, &b.levels.elem_level),
                ),
            ] {
                let ids_of = |e: u32, out: &mut Vec<u32>| dofmap.elem_nodes(e, out);
                for (l, elems) in setup.elems.iter().enumerate() {
                    let what = format!("{kind:?} order {order} {name} level {l}");
                    assert_corner_classes(&what, elems, dofmap.n_nodes(), np, &ids_of);
                }
            }
        }
    }
}

/// Every rank's local operator of a 2-rank decomposition, with its boundary
/// and interior lists in local element ids.
fn check_ranks<P: Decompose>(
    kind: MeshKind,
    problem: &P,
    mesh_levels: &[u8],
    part: &[u32],
    np: usize,
) where
    P::Local: DofTopology,
{
    let global = problem.global();
    let setup = LtsSetup::new(&global, mesh_levels);
    let plans = build_plans(&global, &setup, part, 2);
    let c = P::COMPONENTS;
    let mut node_map = vec![UNMAPPED; global.n_dofs() / c as usize];
    for (rank, plan) in plans.iter().enumerate() {
        let mine: Vec<u32> = (0..part.len() as u32)
            .filter(|&e| part[e as usize] == rank as u32)
            .collect();
        let leaf_of = |g: u32| setup.leaf_level[(c * g) as usize];
        let (local, node_of_local, _) = problem.local(&global, &mine, &leaf_of, &mut node_map);
        // the map comes back loaded with this rank's nodes: clear it for
        // the next rank
        for &g in &node_of_local {
            node_map[g as usize] = UNMAPPED;
        }
        let n_ids = Operator::ndof(&local) / c as usize;
        // the local operator's DOF lists, one id per node
        let ids_of = |e: u32, out: &mut Vec<u32>| {
            local.elem_dofs(e, out);
            let nodes: Vec<u32> = out.iter().step_by(c as usize).map(|&d| d / c).collect();
            *out = nodes;
        };
        let to_local = |list: &[u32]| -> Vec<u32> {
            list.iter()
                .map(|e| mine.binary_search(e).expect("plan names own elements") as u32)
                .collect()
        };
        for l in 0..setup.n_levels {
            for (side, list) in [
                ("boundary", &plan.my_boundary_elems[l]),
                ("interior", &plan.my_interior_elems[l]),
            ] {
                let what = format!("{kind:?} c={c} np={np} rank {rank} level {l} {side}");
                assert_corner_classes(&what, &to_local(list), n_ids, np, &ids_of);
            }
        }
    }
}

#[test]
fn corner_classes_equal_all_id_classes_on_rank_local_operators() {
    for kind in MESHES {
        let b = BenchmarkMesh::build(kind, 700);
        let part = partition_mesh(&b.mesh, &b.levels, 2, Strategy::ScotchP, 1);
        for order in 1..=4usize {
            let mesh = &b.mesh;
            let levels = &b.levels.elem_level;
            check_ranks(kind, &Acoustic { mesh, order }, levels, &part, order + 1);
            check_ranks(kind, &Elastic { mesh, order }, levels, &part, order + 1);
        }
    }
}
