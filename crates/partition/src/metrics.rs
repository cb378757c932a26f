//! Partition quality metrics of Sec. IV-B: the load imbalance of Eq. 21
//! (total and per p-level), the weighted dual-graph edge cut, and the exact
//! MPI communication volume per LTS cycle (hypergraph connectivity-1 cut).

use lts_mesh::{DualGraph, HexMesh, Levels, NodalHypergraph};

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

/// Closed-form per-level prediction of what the runtime's deterministic
/// counters must read after one global step, computed from mesh topology,
/// levels and the element partition alone.
///
/// The runtime's exchange (`lts-runtime/src/exchange.rs`) sends, for every
/// level-`l` force evaluation (`LevelForce::force`) and every interface DOF
/// in `touched[l]` shared by `λ ≥ 2` ranks, one partial value along each
/// *ordered* rank pair — so a single shared DOF contributes `λ(λ−1)` sent
/// values per call. That is a redundant-assembly volume, deliberately *not*
/// the connectivity-1 cut of [`mpi_volume`] (which counts `λ−1` per DOF
/// with `Σ p` net costs).
///
/// Exact when the discretisation's DOFs coincide with the mesh corner nodes,
/// i.e. polynomial order 1 — the integration tests run at that order and
/// assert bitwise equality with the runtime registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeOracle {
    /// Level-`l` force evaluations per global step: `2^l`.
    pub calls: Vec<u64>,
    /// `|elems[l]|` — elements applied per level-`l` force evaluation.
    pub elems: Vec<u64>,
    /// Masked element applications per global step: `calls[l] · |elems[l]|`.
    pub elem_ops: Vec<u64>,
    /// DOF values sent per global step at level `l`:
    /// `calls[l] · Σ_{d ∈ touched[l], λ_d ≥ 2} λ_d(λ_d − 1)`.
    pub dofs_sent: Vec<u64>,
    /// Point-to-point messages per global step at level `l`:
    /// `calls[l] · 2 · #{unordered rank pairs sharing a touched[l] DOF}`.
    pub msgs_sent: Vec<u64>,
}

impl ExchangeOracle {
    pub fn total_elem_ops(&self) -> u64 {
        self.elem_ops.iter().sum()
    }

    pub fn total_dofs_sent(&self) -> u64 {
        self.dofs_sent.iter().sum()
    }

    pub fn total_msgs_sent(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }
}

/// Predict the runtime's per-level exchange counters for one global step.
///
/// Replays `LtsSetup`'s set definitions on the corner nodes: a node's level
/// is the max level of its adjacent elements, `elems[k]` are the elements
/// containing at least one node of level exactly `k`, and `touched[k]` is
/// the union of those elements' nodes.
pub fn exchange_oracle(mesh: &HexMesh, levels: &Levels, part: &[u32]) -> ExchangeOracle {
    assert_eq!(part.len(), mesh.n_elems());
    assert_eq!(part.len(), levels.elem_level.len());
    let nl = levels.n_levels;
    let n_nodes = mesh.n_corner_nodes();

    // Node adjacency, node levels, and the inverse element → node lists.
    let mut node_level = vec![0u8; n_nodes];
    let mut node_elems: Vec<Vec<u32>> = Vec::with_capacity(n_nodes);
    let mut elem_nodes: Vec<Vec<u32>> = vec![Vec::new(); mesh.n_elems()];
    for n in 0..n_nodes as u32 {
        let es = mesh.node_elems(n);
        node_level[n as usize] = es
            .iter()
            .map(|&e| levels.elem_level[e as usize])
            .max()
            .expect("corner node adjacent to no element");
        for &e in &es {
            elem_nodes[e as usize].push(n);
        }
        node_elems.push(es);
    }

    // The set of ranks owning each node, sorted and deduplicated once.
    let node_ranks: Vec<Vec<u32>> = node_elems
        .iter()
        .map(|es| {
            let mut rs: Vec<u32> = es.iter().map(|&e| part[e as usize]).collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        })
        .collect();

    // elems[k]: elements containing ≥ 1 node of level exactly k.
    let mut elems_k: Vec<Vec<u32>> = vec![Vec::new(); nl];
    let mut level_seen = vec![false; nl];
    for (e, ns) in elem_nodes.iter().enumerate() {
        level_seen.iter_mut().for_each(|s| *s = false);
        for &n in ns {
            level_seen[node_level[n as usize] as usize] = true;
        }
        for (k, &seen) in level_seen.iter().enumerate() {
            if seen {
                elems_k[k].push(e as u32);
            }
        }
    }

    let mut calls = vec![0u64; nl];
    let mut elems = vec![0u64; nl];
    let mut elem_ops = vec![0u64; nl];
    let mut dofs_sent = vec![0u64; nl];
    let mut msgs_sent = vec![0u64; nl];
    // Stamp array dedups touched[k] node traversal without re-allocating.
    let mut stamp = vec![usize::MAX; n_nodes];
    for k in 0..nl {
        calls[k] = 1u64 << k;
        elems[k] = elems_k[k].len() as u64;
        elem_ops[k] = calls[k] * elems[k];
        let mut lambda_sum = 0u64;
        let mut pairs = std::collections::BTreeSet::new();
        for &e in &elems_k[k] {
            for &n in &elem_nodes[e as usize] {
                if stamp[n as usize] == k {
                    continue;
                }
                stamp[n as usize] = k;
                let rs = &node_ranks[n as usize];
                let lambda = rs.len() as u64;
                if lambda >= 2 {
                    lambda_sum += lambda * (lambda - 1);
                    for i in 0..rs.len() {
                        for j in i + 1..rs.len() {
                            pairs.insert((rs[i], rs[j]));
                        }
                    }
                }
            }
        }
        dofs_sent[k] = calls[k] * lambda_sum;
        msgs_sent[k] = calls[k] * 2 * pairs.len() as u64;
    }
    ExchangeOracle {
        calls,
        elems,
        elem_ops,
        dofs_sent,
        msgs_sent,
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

    // --- exchange_oracle -------------------------------------------------
    //
    // two_level_row geometry: 8 elements in a row, elems 6,7 at level 1.
    // Corner-node slices i = 0..=8 hold 4 nodes each; slice i touches elems
    // i−1 and i. Node level = max adjacent elem level, so slices 6,7,8 are
    // level 1. elems[0] = {0..5} (elem 5's slice-5 nodes are level 0),
    // elems[1] = {5,6,7}; touched[0] = slices 0..=6, touched[1] = slices
    // 5..=8. calls = [1, 2].

    #[test]
    fn oracle_structure_on_two_level_row() {
        let (m, lv) = two_level_row();
        let part = vec![0u32; 8];
        let o = exchange_oracle(&m, &lv, &part);
        assert_eq!(o.calls, vec![1, 2]);
        assert_eq!(o.elems, vec![6, 3]);
        assert_eq!(o.elem_ops, vec![6, 6]);
        // single part → nothing crosses
        assert_eq!(o.total_dofs_sent(), 0);
        assert_eq!(o.total_msgs_sent(), 0);
    }

    #[test]
    fn oracle_cut_in_coarse_region() {
        let (m, lv) = two_level_row();
        // cut between elems 3 | 4: the 4 shared slice-4 nodes are level 0
        // and lie only in touched[0]
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let o = exchange_oracle(&m, &lv, &part);
        // 4 nodes × λ(λ−1) = 2, 1 call at level 0
        assert_eq!(o.dofs_sent, vec![8, 0]);
        // one rank pair → 2 messages per call
        assert_eq!(o.msgs_sent, vec![2, 0]);
    }

    #[test]
    fn oracle_cut_in_fine_region_pays_per_call() {
        let (m, lv) = two_level_row();
        // cut between elems 6 | 7: the 4 shared slice-7 nodes are level 1
        // and lie only in touched[1], exchanged on each of the 2 calls
        let part = vec![0, 0, 0, 0, 0, 0, 0, 1];
        let o = exchange_oracle(&m, &lv, &part);
        assert_eq!(o.dofs_sent, vec![0, 16]);
        assert_eq!(o.msgs_sent, vec![0, 4]);
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
        let o = exchange_oracle(&m, &lv, &part);
        assert_eq!(o.dofs_sent, vec![2 * 12 + 8 * 2]);
        // all 6 unordered rank pairs share a centre node
        assert_eq!(o.msgs_sent, vec![2 * 6]);
        assert_eq!(o.elem_ops, vec![4]);
    }
}
