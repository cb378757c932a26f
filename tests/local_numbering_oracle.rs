//! The rank-local numbering every sub-operator builder shares
//! (`lts_core::setup::local_numbering`) against the sort + dedup + group
//! reference it replaced: for random element subsets of trench meshes
//! (acoustic and elastic) and of a 3-level chain, under the real leaf levels
//! and under a scrambling key, `global_of_local`, every element's local
//! node list and the per-level node counts equal the reference's exactly,
//! and the shared node map comes back holding exactly the subset's local
//! ids, for the caller to clear.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wave_lts::lts::setup::level_order;
use wave_lts::lts::{Chain1d, DofTopology, LtsSetup};
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::sem::unstructured::UNMAPPED;
use wave_lts::sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

/// A scrambling "level" key: grouping by it renumbers the nodes far from
/// their natural order.
fn scramble(g: u32) -> u8 {
    (g.wrapping_mul(2_654_435_761) >> 13) as u8 % 7
}

/// The reference numbering of the global node lists `nodes` (one list per
/// element, flattened): the distinct nodes sorted ascending, then grouped by
/// `leaf_of` finest level first, stable within a level; the lists
/// translated into it; the distinct nodes per leaf level, up to the finest
/// level present. Returns `(elem_nodes, global_of_local, level_counts)`.
fn reference(nodes: &[u32], leaf_of: &dyn Fn(u32) -> u8) -> (Vec<u32>, Vec<u32>, Vec<usize>) {
    let mut ids = nodes.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let levels: Vec<u8> = ids.iter().map(|&g| leaf_of(g)).collect();
    let n_present = levels.iter().max().map_or(0, |&m| m as usize + 1);
    let (pos, _) = level_order(&levels, n_present.max(1));
    let mut global_of_local = vec![0u32; ids.len()];
    for (&p, &g) in pos.iter().zip(&ids) {
        global_of_local[p as usize] = g;
    }
    let mut level_counts = vec![0usize; n_present];
    for &l in &levels {
        level_counts[l as usize] += 1;
    }
    let local = |g: &u32| pos[ids.binary_search(g).unwrap()];
    (
        nodes.iter().map(local).collect(),
        global_of_local,
        level_counts,
    )
}

/// The global node lists of `elems`, flattened.
fn nodes_of(elems: &[u32], fill: impl Fn(u32, &mut Vec<u32>)) -> Vec<u32> {
    let (mut buf, mut out) = (Vec::new(), Vec::new());
    for &e in elems {
        fill(e, &mut buf);
        out.extend_from_slice(&buf);
    }
    out
}

/// Element subsets of `0..n`: empty, one element, all, a random contiguous
/// run, and random ones of several densities (each ascending).
fn subsets(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let all: Vec<u32> = (0..n as u32).collect();
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(a..=n);
    let mut out = vec![
        Vec::new(),
        vec![rng.gen_range(0..n as u32)],
        all.clone(),
        all[a..b].to_vec(),
    ];
    for percent in [5, 50, 90] {
        out.push(
            all.iter()
                .copied()
                .filter(|_| rng.gen_range(0..100) < percent)
                .collect(),
        );
    }
    out
}

/// The map contract: on return the map holds `l` at `global_of_local[l]`
/// and nothing else. Clears it for the next subset, as a caller does.
fn assert_loaded_then_clear(map: &mut [u32], global_of_local: &[u32], what: &str) {
    for (l, &g) in global_of_local.iter().enumerate() {
        assert_eq!(map[g as usize], l as u32, "{what}: node {g}");
        map[g as usize] = UNMAPPED;
    }
    assert!(
        map.iter().all(|&x| x == UNMAPPED),
        "{what}: map holds nodes outside the subset"
    );
}

#[test]
fn acoustic_numbering_matches_sorted_reference() {
    for (n_elems, order) in [(600, 2), (1_000, 1)] {
        let b = BenchmarkMesh::build(MeshKind::Trench, n_elems);
        let op = AcousticOperator::new(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        assert!(setup.n_levels >= 3);
        let real = |g: u32| setup.leaf_level[g as usize];
        let mut map = vec![UNMAPPED; op.dofmap.n_nodes()];
        for (i, elems) in subsets(b.mesh.n_elems(), n_elems as u64).iter().enumerate() {
            let nodes = nodes_of(elems, |e, buf| op.dofmap.elem_nodes(e, buf));
            let keys: [(&dyn Fn(u32) -> u8, &str); 2] = [(&real, "leaf"), (&scramble, "scramble")];
            for (leaf_of, key) in keys {
                let what = format!("trench {n_elems} p{order} subset {i} {key}");
                let (sub, global_of_local, level_counts) = UnstructuredAcoustic::from_subset_in(
                    &b.mesh, order, elems, None, leaf_of, &mut map,
                );
                let (elem_nodes, want, want_counts) = reference(&nodes, leaf_of);
                assert_eq!(global_of_local, want, "{what}");
                assert_eq!(sub.elem_dofs, elem_nodes, "{what}");
                assert_eq!(level_counts, want_counts, "{what}");
                assert_loaded_then_clear(&mut map, &global_of_local, &what);
            }
        }
    }
}

#[test]
fn elastic_numbering_matches_sorted_reference() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 600);
    let order = 2;
    let op = ElasticOperator::poisson(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let real = |g: u32| setup.leaf_level[3 * g as usize];
    let mut map = vec![UNMAPPED; op.dofmap.n_nodes()];
    for (i, elems) in subsets(b.mesh.n_elems(), 7).iter().enumerate() {
        let nodes = nodes_of(elems, |e, buf| op.dofmap.elem_nodes(e, buf));
        let keys: [(&dyn Fn(u32) -> u8, &str); 2] = [(&real, "leaf"), (&scramble, "scramble")];
        for (leaf_of, key) in keys {
            let what = format!("elastic subset {i} {key}");
            let (sub, global_of_local, level_counts) =
                UnstructuredElastic::from_subset_in(&b.mesh, order, elems, None, leaf_of, &mut map);
            let (elem_nodes, want, want_counts) = reference(&nodes, leaf_of);
            assert_eq!(global_of_local, want, "{what}");
            assert_eq!(sub.elem_nodes, elem_nodes, "{what}");
            assert_eq!(level_counts, want_counts, "{what}");
            assert_loaded_then_clear(&mut map, &global_of_local, &what);
        }
    }
}

#[test]
fn chain_numbering_matches_sorted_reference() {
    let c = Chain1d::uniform(150, 1.0, 1.0);
    let lv: Vec<u8> = (0..150).map(|e| (e / 50) as u8).collect();
    let setup = LtsSetup::new(&c, &lv);
    assert_eq!(setup.n_levels, 3);
    let real = |g: u32| setup.leaf_level[g as usize];
    let mut map = vec![UNMAPPED; c.n_dofs()];
    for (i, elems) in subsets(c.n_elems(), 3).iter().enumerate() {
        let nodes = nodes_of(elems, |e, buf| c.elem_dofs(e, buf));
        let keys: [(&dyn Fn(u32) -> u8, &str); 2] = [(&real, "leaf"), (&scramble, "scramble")];
        for (leaf_of, key) in keys {
            let what = format!("chain subset {i} {key}");
            let (sub, global_of_local, level_counts) = c.subset(elems, leaf_of, &mut map);
            let (elem_nodes, want, want_counts) = reference(&nodes, leaf_of);
            assert_eq!(global_of_local, want, "{what}");
            assert_eq!(level_counts, want_counts, "{what}");
            let local: Vec<u32> = (0..elems.len() as u32)
                .flat_map(|e| {
                    let mut buf = Vec::new();
                    sub.elem_dofs(e, &mut buf);
                    buf
                })
                .collect();
            assert_eq!(local, elem_nodes, "{what}");
            assert_loaded_then_clear(&mut map, &global_of_local, &what);
        }
    }
}
