//! Partition quality metrics of Sec. IV-B: the load imbalance of Eq. 21
//! (total and per p-level), the weighted dual-graph edge cut, and the exact
//! MPI communication volume per LTS cycle (hypergraph connectivity-1 cut),
//! and the per-rank, per-level [`PartitionShape`] the runtime's exchange and
//! the cluster model both follow.

use lts_mesh::{DualGraph, HexMesh, Levels, NodalHypergraph};
use std::collections::BTreeSet;

/// Load-imbalance report (Eq. 21): `(max − min) / max × 100` where the load
/// of a part is the sum of its elements' `p`-weights.
#[derive(Debug, Clone)]
pub struct ImbalanceReport {
    /// Total work-load imbalance, in percent.
    pub total_pct: f64,
    /// Per-level imbalance (element counts per level), in percent.
    pub per_level_pct: Vec<f64>,
    /// Total p-weighted load per part.
    pub part_load: Vec<u64>,
    /// Element counts per (level, part), row-major by level.
    pub level_counts: Vec<Vec<u64>>,
}

/// Compute Eq. 21 for a K-way element partition.
pub fn load_imbalance(levels: &Levels, part: &[u32], k: usize) -> ImbalanceReport {
    assert_eq!(part.len(), levels.elem_level.len());
    let nl = levels.n_levels;
    let mut part_load = vec![0u64; k];
    let mut level_counts = vec![vec![0u64; k]; nl];
    for (e, &p) in part.iter().enumerate() {
        assert!((p as usize) < k, "part id {p} out of range");
        let lvl = levels.elem_level[e] as usize;
        part_load[p as usize] += 1u64 << lvl;
        level_counts[lvl][p as usize] += 1;
    }
    let pct = |vals: &[u64]| -> f64 {
        let max = *vals.iter().max().unwrap_or(&0);
        let min = *vals.iter().min().unwrap_or(&0);
        if max == 0 {
            0.0
        } else {
            (max - min) as f64 / max as f64 * 100.0
        }
    };
    let total_pct = pct(&part_load);
    let per_level_pct = level_counts.iter().map(|lc| pct(lc)).collect();
    ImbalanceReport {
        total_pct,
        per_level_pct,
        part_load,
        level_counts,
    }
}

/// Weighted dual-graph edge cut (the "graph cut" column of Fig. 8).
pub fn edge_cut(mesh: &HexMesh, levels: &Levels, part: &[u32]) -> u64 {
    let dual = DualGraph::build_weighted(mesh, levels);
    let mut cut = 0u64;
    for v in 0..dual.n_vertices() as u32 {
        let start = dual.xadj[v as usize] as usize;
        for (off, &u) in dual.neighbors(v).iter().enumerate() {
            if u > v && part[u as usize] != part[v as usize] {
                cut += dual.ewgt[start + off] as u64;
            }
        }
    }
    cut
}

/// Total MPI communication volume per LTS cycle (the "MPI volume" column of
/// Fig. 8): the connectivity-1 cut of the nodal hypergraph with
/// `Σ p` net costs — exact by Sec. III-A2.
pub fn mpi_volume(mesh: &HexMesh, levels: &Levels, part: &[u32]) -> u64 {
    NodalHypergraph::build(mesh, Some(levels)).cut_size(part)
}

/// Per-rank, per-level shape of a K-way partition: what each rank does in
/// one level-`l` force evaluation (`LevelForce::force`), replayed on the
/// corner nodes from the mesh, the levels and the partition alone.
///
/// It follows the set definitions of `LtsSetup` and the runtime's
/// `build_plans`: a node's level is the max level of its adjacent elements,
/// `elems[l]` holds the elements with a corner node of level exactly `l`,
/// `touched[l]` the nodes of those elements, and λ is the number of ranks
/// holding a node. In each level-`l` call a rank applies its part of
/// `elems[l]` and sends, for every shared `touched[l]` node it holds, one
/// partial to each of the other λ−1 ranks: a redundant-assembly volume,
/// deliberately *not* the connectivity-1 cut of [`mpi_volume`].
///
/// Exact when the DOFs are the mesh corner nodes (polynomial order 1):
/// after `steps` global steps rank `r`'s level-`l` runtime counters read
/// `steps · 2^l · {ops, vol, peers}[r][l]`. The cluster model
/// (`lts-perfmodel`) reads the same values as its work and exchange terms.
#[derive(Debug, Clone)]
pub struct PartitionShape {
    pub k: usize,
    pub n_levels: usize,
    /// `ops[r][l]`: elements of rank `r` in `elems[l]`.
    pub ops: Vec<Vec<u64>>,
    /// `boundary_ops[r][l]`: the subset of `ops[r][l]` with a node another
    /// rank holds (computed before the sends when overlapping).
    pub boundary_ops: Vec<Vec<u64>>,
    /// `vol[r][l]`: values rank `r` sends per level-`l` call,
    /// `Σ (λ−1)` over the shared `touched[l]` nodes it holds.
    pub vol: Vec<Vec<u64>>,
    /// `peers[r][l]`: ranks sharing a `touched[l]` node with rank `r`, one
    /// message to each per level-`l` call.
    pub peers: Vec<Vec<u64>>,
    /// Elements per rank.
    pub elems: Vec<u64>,
    /// Elements of rank `r` with a node another rank holds: what a step of
    /// the whole mesh computes before its sends when overlapping. It lies
    /// between `max_l boundary_ops[r][l]` and `Σ_l boundary_ops[r][l]`.
    pub boundary_elems: Vec<u64>,
    /// `Σ (λ−1)` over every shared node of rank `r`: what one step sends
    /// when the whole interface is exchanged (the non-LTS reference).
    pub all_vol: Vec<u64>,
    /// Ranks sharing any node with rank `r`.
    pub all_peers: Vec<u64>,
}

impl PartitionShape {
    pub fn new(mesh: &HexMesh, levels: &Levels, part: &[u32], k: usize) -> Self {
        assert_eq!(part.len(), mesh.n_elems());
        assert_eq!(part.len(), levels.elem_level.len());
        let nl = levels.n_levels;
        assert!(nl <= 32, "{nl} levels do not fit the level bit masks");
        let nn = mesh.n_corner_nodes();
        let mut node_level = vec![0u8; nn];
        let mut node_ranks: Vec<Vec<u32>> = vec![Vec::new(); nn];
        for (e, &r) in part.iter().enumerate() {
            for n in mesh.elem_corners(e as u32) {
                let n = n as usize;
                node_level[n] = node_level[n].max(levels.elem_level[e]);
                if !node_ranks[n].contains(&r) {
                    node_ranks[n].push(r);
                }
            }
        }

        // An element lies in elems[l] for each level l of its corners, and
        // its nodes lie in touched[l] for the same levels: bit l of `touched`.
        let mut ops = vec![vec![0u64; nl]; k];
        let mut boundary_ops = vec![vec![0u64; nl]; k];
        let mut elems = vec![0u64; k];
        let mut boundary_elems = vec![0u64; k];
        let mut touched = vec![0u32; nn];
        for (e, &r) in part.iter().enumerate() {
            let corners = mesh.elem_corners(e as u32);
            let mask = corners
                .iter()
                .fold(0u32, |m, &n| m | 1 << node_level[n as usize]);
            let boundary = corners.iter().any(|&n| node_ranks[n as usize].len() >= 2);
            let r = r as usize;
            elems[r] += 1;
            boundary_elems[r] += u64::from(boundary);
            for l in (0..nl).filter(|&l| mask >> l & 1 == 1) {
                ops[r][l] += 1;
                boundary_ops[r][l] += u64::from(boundary);
            }
            for n in corners {
                touched[n as usize] |= mask;
            }
        }

        let mut vol = vec![vec![0u64; nl]; k];
        let mut all_vol = vec![0u64; k];
        let mut peer_sets = vec![vec![BTreeSet::new(); nl]; k];
        let mut all_peer_sets = vec![BTreeSet::new(); k];
        for (n, ranks) in node_ranks.iter().enumerate() {
            if ranks.len() < 2 {
                continue;
            }
            let sent = ranks.len() as u64 - 1;
            for &r in ranks {
                let others = ranks.iter().filter(|&&p| p != r);
                let r = r as usize;
                all_vol[r] += sent;
                all_peer_sets[r].extend(others.clone());
                for l in (0..nl).filter(|&l| touched[n] >> l & 1 == 1) {
                    vol[r][l] += sent;
                    peer_sets[r][l].extend(others.clone());
                }
            }
        }
        let count = |s: &BTreeSet<u32>| s.len() as u64;
        PartitionShape {
            k,
            n_levels: nl,
            ops,
            boundary_ops,
            vol,
            peers: peer_sets
                .iter()
                .map(|per_level| per_level.iter().map(count).collect())
                .collect(),
            elems,
            boundary_elems,
            all_vol,
            all_peers: all_peer_sets.iter().map(count).collect(),
        }
    }

    /// Masked element products per global step, per level:
    /// `2^l · Σ_r ops[r][l]`.
    pub fn elem_ops(&self) -> Vec<u64> {
        self.per_step(&self.ops)
    }

    /// DOF values sent per global step, per level: `2^l · Σ_r vol[r][l]`.
    pub fn dofs_sent(&self) -> Vec<u64> {
        self.per_step(&self.vol)
    }

    /// Point-to-point messages per global step, per level:
    /// `2^l · Σ_r peers[r][l]`.
    pub fn msgs_sent(&self) -> Vec<u64> {
        self.per_step(&self.peers)
    }

    fn per_step(&self, per_rank: &[Vec<u64>]) -> Vec<u64> {
        (0..self.n_levels)
            .map(|l| (1u64 << l) * per_rank.iter().map(|v| v[l]).sum::<u64>())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_mesh::HexMesh;

    fn two_level_row() -> (HexMesh, Levels) {
        let mut m = HexMesh::uniform(8, 1, 1, 1.0, 1.0);
        m.paint_box((6, 8), (0, 1), (0, 1), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        (m, lv)
    }

    #[test]
    fn perfect_balance_is_zero() {
        let (_, lv) = two_level_row();
        // parts: {0,1,2,6},{3,4,5,7}: each has 3 coarse + 1 fine
        let part = vec![0, 0, 0, 1, 1, 1, 0, 1];
        let rep = load_imbalance(&lv, &part, 2);
        assert_eq!(rep.total_pct, 0.0);
        assert!(rep.per_level_pct.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn fig1_style_imbalance() {
        let (_, lv) = two_level_row();
        // naive split: left part all coarse, right part coarse+all fine
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let rep = load_imbalance(&lv, &part, 2);
        // loads: part0 = 4, part1 = 2 + 2·2 = 6 → (6−4)/6 ≈ 33 %
        assert!((rep.total_pct - 100.0 * 2.0 / 6.0).abs() < 1e-9);
        // fine level entirely on part 1 → 100 % imbalance at that level
        assert_eq!(rep.per_level_pct[1], 100.0);
    }

    #[test]
    fn edge_cut_counts_weighted_faces() {
        let (m, lv) = two_level_row();
        // cut between elements 5 (level ≥... ) and 6
        let part = vec![0, 0, 0, 0, 0, 0, 1, 1];
        let cut = edge_cut(&m, &lv, &part);
        // edge (5,6): weight max(p5, p6) = 2 (element 5 was raised by
        // smoothing to level 1? check: smoothing raises neighbours of level-1
        // to ≥ 0 — here levels are 0 and 1 only, so no raise; p6 = 2)
        assert_eq!(cut, lv.p_of(5).max(lv.p_of(6)));
    }

    #[test]
    fn mpi_volume_matches_manual_count() {
        let (m, lv) = two_level_row();
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        // interface between elements 3|4 (both level 0 after paint at 6..8):
        // 4 shared corner nodes, each with cost p3 + p4
        let expect: u64 = 4 * (lv.p_of(3) + lv.p_of(4));
        assert_eq!(mpi_volume(&m, &lv, &part), expect);
    }

    #[test]
    fn volume_zero_when_unsplit() {
        let (m, lv) = two_level_row();
        let part = vec![0u32; 8];
        assert_eq!(mpi_volume(&m, &lv, &part), 0);
        assert_eq!(edge_cut(&m, &lv, &part), 0);
    }

    #[test]
    fn imbalance_report_hand_computed() {
        let (_, lv) = two_level_row();
        // 2 parts, 2 levels: part 0 = elems 0–3 (all coarse), part 1 =
        // elems 4,5 (coarse) + 6,7 (fine, p = 2)
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let rep = load_imbalance(&lv, &part, 2);
        assert_eq!(rep.part_load, vec![4, 2 + 2 * 2]);
        assert_eq!(rep.level_counts, vec![vec![4, 2], vec![0, 2]]);
        // level 0: (4 − 2)/4 → 50 %; level 1: all on part 1 → 100 %
        assert!((rep.per_level_pct[0] - 50.0).abs() < 1e-12);
        assert_eq!(rep.per_level_pct[1], 100.0);
        assert!((rep.total_pct - 100.0 * 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_zero_for_identical_parts() {
        // Synthetic levels whose two parts are element-for-element identical.
        let lv = Levels {
            elem_level: vec![0, 1, 1, 2, 0, 1, 1, 2],
            n_levels: 3,
            dt_global: 1.0,
        };
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let rep = load_imbalance(&lv, &part, 2);
        assert_eq!(rep.total_pct, 0.0);
        assert!(rep.per_level_pct.iter().all(|&p| p == 0.0));
        assert_eq!(rep.part_load[0], rep.part_load[1]);
    }

    // --- PartitionShape totals ------------------------------------------
    //
    // two_level_row geometry: 8 elements in a row, elems 6,7 at level 1.
    // Corner-node slices i = 0..=8 hold 4 nodes each; slice i touches elems
    // i−1 and i. Node level = max adjacent elem level, so slices 6,7,8 are
    // level 1. elems[0] = {0..5} (elem 5's slice-5 nodes are level 0),
    // elems[1] = {5,6,7}; touched[0] = slices 0..=6, touched[1] = slices
    // 5..=8. Level-l calls per step: 2^l = [1, 2].

    fn shape(m: &HexMesh, lv: &Levels, part: &[u32]) -> PartitionShape {
        let k = *part.iter().max().unwrap() as usize + 1;
        PartitionShape::new(m, lv, part, k)
    }

    #[test]
    fn oracle_structure_on_two_level_row() {
        let (m, lv) = two_level_row();
        let part = vec![0u32; 8];
        let o = shape(&m, &lv, &part);
        assert_eq!(o.n_levels, 2);
        assert_eq!(o.ops, vec![vec![6, 3]]);
        assert_eq!(o.elem_ops(), vec![6, 6]);
        // single part → nothing crosses
        assert_eq!(o.dofs_sent(), vec![0, 0]);
        assert_eq!(o.msgs_sent(), vec![0, 0]);
    }

    #[test]
    fn oracle_cut_in_coarse_region() {
        let (m, lv) = two_level_row();
        // cut between elems 3 | 4: the 4 shared slice-4 nodes are level 0
        // and lie only in touched[0]
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let o = shape(&m, &lv, &part);
        // 4 nodes × λ(λ−1) = 2, 1 call at level 0
        assert_eq!(o.dofs_sent(), vec![8, 0]);
        // one rank pair → 2 messages per call
        assert_eq!(o.msgs_sent(), vec![2, 0]);
    }

    #[test]
    fn oracle_cut_in_fine_region_pays_per_call() {
        let (m, lv) = two_level_row();
        // cut between elems 6 | 7: the 4 shared slice-7 nodes are level 1
        // and lie only in touched[1], exchanged on each of the 2 calls
        let part = vec![0, 0, 0, 0, 0, 0, 0, 1];
        let o = shape(&m, &lv, &part);
        assert_eq!(o.dofs_sent(), vec![0, 16]);
        assert_eq!(o.msgs_sent(), vec![0, 4]);
    }

    #[test]
    fn boundary_elems_lie_between_max_and_sum_of_levels() {
        let (m, lv) = two_level_row();
        // rank 0 = {0, 1, 2, 4, 5, 6}, rank 1 = {3, 7}: rank 0's boundary
        // elements 2 and 4 lie in elems[0] only and 6 in elems[1] only, so
        // max_l boundary_ops[0][l] = 2 undercounts its 3
        let part = vec![0, 0, 0, 1, 0, 0, 0, 1];
        let o = shape(&m, &lv, &part);
        // brute force: elements sharing a corner with another rank's element
        let shares = |e: u32, f: u32| {
            let cf = m.elem_corners(f);
            m.elem_corners(e).iter().any(|n| cf.contains(n))
        };
        let brute: Vec<u64> = (0..2u32)
            .map(|r| {
                let on_r = |e: &u32| part[*e as usize] == r;
                (0..8u32)
                    .filter(on_r)
                    .filter(|&e| (0..8u32).any(|f| !on_r(&f) && shares(e, f)))
                    .count() as u64
            })
            .collect();
        assert_eq!(brute, vec![3, 2]);
        assert_eq!(o.boundary_elems, brute);
        assert_eq!(o.boundary_ops[0], vec![2, 1]);
        for r in 0..2 {
            let b = &o.boundary_ops[r];
            assert!(*b.iter().max().unwrap() <= o.boundary_elems[r]);
            assert!(o.boundary_elems[r] <= b.iter().sum());
        }
    }

    #[test]
    fn oracle_counts_multi_rank_corners() {
        // 2×2×1 uniform mesh, one element per part: the 2 centre nodes are
        // shared by all 4 ranks (λ = 4 → 12 values each), the 8 edge-mid
        // nodes by 2 ranks (2 values each)
        let m = HexMesh::uniform(2, 2, 1, 1.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        assert_eq!(lv.n_levels, 1);
        let part = vec![0, 1, 2, 3];
        let o = shape(&m, &lv, &part);
        assert_eq!(o.dofs_sent(), vec![2 * 12 + 8 * 2]);
        // all 6 unordered rank pairs share a centre node
        assert_eq!(o.msgs_sent(), vec![2 * 6]);
        assert_eq!(o.elem_ops(), vec![4]);
    }
}
