//! Coarse-restricted partitioning — the Gödel et al. two-level strategy the
//! paper discusses and *rejects* (Sec. III): the partitioner may only cut
//! across coarse (p = 1) elements, so MPI synchronization happens once per
//! `Δt` and never inside sub-steps. Each connected cluster of refined
//! elements is contracted into one indivisible super-vertex before
//! partitioning.
//!
//! The paper's objection, reproducible with
//! `cargo run -p lts-bench --bin ablation_coarse_restricted`: the refined
//! clusters put a floor on the smallest achievable partition, so the load
//! imbalance explodes once `K` approaches (total work)/(largest cluster
//! work) — "an artificially high lower limit on the number of elements per
//! partition".

use crate::graph::Graph;
use crate::multilevel::{contract, partition_kway, CutModel, PartitionConfig};
use lts_mesh::{DualGraph, HexMesh, Levels};
use lts_obs::MetricsRegistry;

/// Partition with cuts restricted to coarse elements. Returns the element →
/// part map.
pub fn partition_coarse_restricted(
    mesh: &HexMesh,
    levels: &Levels,
    k: usize,
    seed: u64,
) -> Vec<u32> {
    let ne = mesh.n_elems();
    assert!(k >= 1 && k <= ne);
    let fine = Graph::scotch_baseline(mesh, levels);

    // connected components of fine (level ≥ 1) elements
    let mut cmap = vec![u32::MAX; ne];
    let mut next = 0u32;
    for e in 0..ne as u32 {
        if levels.elem_level[e as usize] == 0 || cmap[e as usize] != u32::MAX {
            continue;
        }
        // BFS one fine cluster
        let cluster = next;
        next += 1;
        let mut queue = vec![e];
        cmap[e as usize] = cluster;
        while let Some(v) = queue.pop() {
            for &nb in fine.neighbors(v) {
                if levels.elem_level[nb as usize] >= 1 && cmap[nb as usize] == u32::MAX {
                    cmap[nb as usize] = cluster;
                    queue.push(nb);
                }
            }
        }
    }
    // coarse elements become their own vertices
    for e in 0..ne as u32 {
        if cmap[e as usize] == u32::MAX {
            cmap[e as usize] = next;
            next += 1;
        }
    }
    // contracted graph: vertex weight = Σ p over constituents
    let g = contract(&fine, &cmap, next as usize);
    let cfg = PartitionConfig {
        eps: 0.05,
        seed,
        active_rebalance: true,
        adjust_eps: true,
    };
    let k_eff = k.min(g.n_vertices());
    let cpart = partition_kway(&g, k_eff, &cfg, &mut MetricsRegistry::new());
    (0..ne).map(|e| cpart[cmap[e] as usize]).collect()
}

/// The smallest number of elements any partition can reach under the
/// restriction: the work of the largest fine cluster bounds `max load` from
/// below, hence bounds achievable K (the paper's scalability objection).
pub fn largest_cluster_work(mesh: &HexMesh, levels: &Levels) -> u64 {
    let dual = DualGraph::build_weighted(mesh, levels);
    let ne = mesh.n_elems();
    let mut seen = vec![false; ne];
    let mut largest = 0u64;
    for e in 0..ne as u32 {
        if levels.elem_level[e as usize] == 0 || seen[e as usize] {
            continue;
        }
        let mut work = 0u64;
        let mut queue = vec![e];
        seen[e as usize] = true;
        while let Some(v) = queue.pop() {
            work += levels.p_of(v);
            let start = dual.xadj[v as usize] as usize;
            let end = dual.xadj[v as usize + 1] as usize;
            for &nb in &dual.adj[start..end] {
                if levels.elem_level[nb as usize] >= 1 && !seen[nb as usize] {
                    seen[nb as usize] = true;
                    queue.push(nb);
                }
            }
        }
        largest = largest.max(work);
    }
    largest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::load_imbalance;
    use lts_mesh::{BenchmarkMesh, MeshKind};

    #[test]
    fn fine_clusters_are_never_cut() {
        let b = BenchmarkMesh::build(MeshKind::Embedding, 4_000);
        let part = partition_coarse_restricted(&b.mesh, &b.levels, 8, 1);
        // any dual edge between two fine elements must be internal
        for e in 0..b.mesh.n_elems() as u32 {
            if b.levels.elem_level[e as usize] == 0 {
                continue;
            }
            for nb in b.mesh.face_neighbors(e) {
                if b.levels.elem_level[nb as usize] >= 1 {
                    assert_eq!(part[e as usize], part[nb as usize], "fine cut {e}–{nb}");
                }
            }
        }
    }

    #[test]
    fn valid_partition_at_small_k() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 4_000);
        let k = 4;
        let part = partition_coarse_restricted(&b.mesh, &b.levels, k, 1);
        let mut counts = vec![0usize; k];
        for &p in &part {
            assert!((p as usize) < k);
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn imbalance_explodes_at_high_k() {
        // the paper's scalability objection: once K exceeds
        // total_work / largest_cluster_work, balance is unachievable
        let b = BenchmarkMesh::build(MeshKind::Trench, 4_000);
        let total: u64 = (0..b.mesh.n_elems() as u32).map(|e| b.levels.p_of(e)).sum();
        let cluster = largest_cluster_work(&b.mesh, &b.levels);
        let k_limit = (total / cluster.max(1)) as usize;
        let k_over = (2 * k_limit).max(8).min(b.mesh.n_elems() / 4);
        let part = partition_coarse_restricted(&b.mesh, &b.levels, k_over, 1);
        let rep = load_imbalance(&b.levels, &part, k_over);
        assert!(
            rep.total_pct > 40.0,
            "expected imbalance beyond K ≈ {k_limit}; got {:.0}% at K = {k_over}",
            rep.total_pct
        );
    }

    #[test]
    fn cluster_work_positive_when_fine_exists() {
        let b = BenchmarkMesh::build(MeshKind::Crust, 3_000);
        assert!(largest_cluster_work(&b.mesh, &b.levels) > 0);
        let u = BenchmarkMesh::build(MeshKind::Trench, 1_000);
        assert!(largest_cluster_work(&u.mesh, &u.levels) > 0);
    }
}
