//! SCOTCH-P (Sec. III-B-b): partition each p-level separately into K parts
//! with the standard single-constraint partitioner, then greedily couple one
//! part from every level onto each processor, maximising the dual-graph
//! connectivity between co-located parts to keep communication local.

use crate::assignment::{auction_assignment, greedy_assignment};
use crate::graph::Graph;
use crate::multilevel::{partition_kway, CutModel, PartitionConfig};
use lts_mesh::{DualGraph, HexMesh, Levels};
use lts_obs::MetricsRegistry;

/// How the per-level parts are coupled onto processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingMethod {
    /// The paper's greedy max-affinity coupling.
    Greedy,
    /// Optimal weighted matching (auction algorithm) — the paper's stated
    /// future work.
    Auction,
}

/// Partition `mesh` into `k` parts, balancing every p-level exactly by
/// construction (greedy coupling, as in the paper).
pub(crate) fn partition_scotch_p(mesh: &HexMesh, levels: &Levels, k: usize, seed: u64) -> Vec<u32> {
    partition_scotch_p_with(mesh, levels, k, seed, MappingMethod::Greedy)
}

/// `partition_scotch_p` with a selectable part-to-processor coupling.
pub fn partition_scotch_p_with(
    mesh: &HexMesh,
    levels: &Levels,
    k: usize,
    seed: u64,
    mapping: MappingMethod,
) -> Vec<u32> {
    assert!(k >= 1);
    let ne = mesh.n_elems();
    assert!(k <= ne);
    let dual = DualGraph::build_weighted(mesh, levels);
    let full = Graph {
        xadj: dual.xadj.clone(),
        adj: dual.adj.clone(),
        ewgt: dual.ewgt.clone(),
        ncon: 1,
        vwgt: vec![1; ne],
    };

    let mut assignment = vec![u32::MAX; ne];
    for level in 0..levels.n_levels as u8 {
        let members: Vec<u32> = (0..ne as u32)
            .filter(|&e| levels.elem_level[e as usize] == level)
            .collect();
        if members.is_empty() {
            continue;
        }
        // per-level partition into k parts (round-robin when tiny)
        let level_part: Vec<u32> = if members.len() <= k {
            (0..members.len() as u32).collect()
        } else {
            let cfg = PartitionConfig {
                eps: 0.03,
                seed: seed.wrapping_add(level as u64),
                active_rebalance: true,
                adjust_eps: true,
            };
            partition_kway(
                &full.induced(&members),
                k,
                &cfg,
                &mut MetricsRegistry::new(),
            )
        };

        if level == 0 && members.len() > k {
            // identity mapping for the coarsest level
            for (i, &e) in members.iter().enumerate() {
                assignment[e as usize] = level_part[i];
            }
            continue;
        }

        // affinity[part][proc] = dual edge weight between this level's part
        // and elements already assigned to proc; padded to a square k×k
        // matrix (dummy parts have zero affinity everywhere)
        let nparts = level_part
            .iter()
            .map(|&p| p as usize + 1)
            .max()
            .unwrap_or(0)
            .max(1);
        assert!(nparts <= k);
        let mut affinity = vec![0i64; k * k];
        for (i, &e) in members.iter().enumerate() {
            let p = level_part[i] as usize;
            for (idx, &nb) in dual_neighbors(&dual, e).iter().enumerate() {
                let proc = assignment[nb as usize];
                if proc != u32::MAX {
                    let w = dual_weights(&dual, e)[idx] as i64;
                    affinity[p * k + proc as usize] += w;
                }
            }
        }
        let part_to_proc = match mapping {
            MappingMethod::Greedy => greedy_assignment(&affinity, k),
            MappingMethod::Auction => auction_assignment(&affinity, k),
        };
        for (i, &e) in members.iter().enumerate() {
            assignment[e as usize] = part_to_proc[level_part[i] as usize];
        }
    }
    debug_assert!(assignment.iter().all(|&a| a != u32::MAX));
    assignment
}

fn dual_neighbors(d: &DualGraph, v: u32) -> &[u32] {
    &d.adj[d.xadj[v as usize] as usize..d.xadj[v as usize + 1] as usize]
}

fn dual_weights(d: &DualGraph, v: u32) -> &[u32] {
    &d.ewgt[d.xadj[v as usize] as usize..d.xadj[v as usize + 1] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::load_imbalance;
    use lts_mesh::{BenchmarkMesh, MeshKind};

    #[test]
    fn every_level_balanced() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 4_000);
        let k = 8;
        let part = partition_scotch_p(&b.mesh, &b.levels, k, 1);
        let rep = load_imbalance(&b.levels, &part, k);
        // per-construction balance: every level within a loose envelope
        for (lvl, &imb) in rep.per_level_pct.iter().enumerate() {
            let count = b.levels.histogram()[lvl];
            if count >= 4 * k {
                assert!(imb < 35.0, "level {lvl} imbalance {imb}% (count {count})");
            }
        }
    }

    #[test]
    fn all_parts_used() {
        let b = BenchmarkMesh::build(MeshKind::Embedding, 3_000);
        let k = 4;
        let part = partition_scotch_p(&b.mesh, &b.levels, k, 2);
        let mut counts = vec![0usize; k];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn deterministic() {
        let b = BenchmarkMesh::build(MeshKind::Crust, 2_000);
        let a = partition_scotch_p(&b.mesh, &b.levels, 4, 7);
        let c = partition_scotch_p(&b.mesh, &b.levels, 4, 7);
        assert_eq!(a, c);
    }

    #[test]
    fn tiny_levels_spread_across_procs() {
        // fewer fine elements than parts: they must land on distinct procs
        let b = BenchmarkMesh::build(MeshKind::Embedding, 1_000);
        let hist = b.levels.histogram();
        let k = 8;
        let part = partition_scotch_p(&b.mesh, &b.levels, k, 3);
        let finest = (b.levels.n_levels - 1) as u8;
        if hist[finest as usize] <= k {
            let mut procs: Vec<u32> = (0..b.mesh.n_elems())
                .filter(|&e| b.levels.elem_level[e] == finest)
                .map(|e| part[e])
                .collect();
            let n = procs.len();
            procs.sort_unstable();
            procs.dedup();
            assert_eq!(procs.len(), n, "finest-level elements share a proc");
        }
    }
}
