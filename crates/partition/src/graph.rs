//! CSR graphs with multi-constraint vertex weights.
//!
//! The multi-constraint formulation follows Sec. III-A: each vertex carries a
//! weight *vector* `w[v, i]`, `i = 1..P`, and a K-way partition must satisfy
//! the balance criterion (Eq. 19) for every `i` simultaneously. For LTS the
//! constraints are the p-levels: a level-`k` element has weight 1 in slot `k`
//! and 0 elsewhere, so per-slot balance is per-sub-step balance.

use crate::multilevel::CutModel;
use lts_mesh::{DualGraph, HexMesh, Levels};

/// An undirected graph in CSR form with `ncon` weights per vertex and
/// weighted edges.
#[derive(Debug, Clone)]
pub(crate) struct Graph {
    pub(crate) xadj: Vec<u32>,
    pub(crate) adj: Vec<u32>,
    /// Edge weights aligned with `adj`.
    pub(crate) ewgt: Vec<u32>,
    /// Number of balance constraints.
    pub(crate) ncon: usize,
    /// Vertex weights, `ncon` consecutive entries per vertex.
    pub(crate) vwgt: Vec<u32>,
}

impl Graph {
    #[inline]
    pub(crate) fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize]
    }

    #[inline]
    pub(crate) fn edge_weights(&self, v: u32) -> &[u32] {
        &self.ewgt[self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize]
    }

    #[inline]
    pub(crate) fn weight_of(&self, v: u32) -> &[u32] {
        &self.vwgt[v as usize * self.ncon..(v as usize + 1) * self.ncon]
    }

    /// `(neighbour, edge weight)` pairs of `v`.
    fn edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Single-constraint graph for the SCOTCH baseline: vertex weight is the
    /// element's work per LTS cycle (`p_e`), edges weighted `max(p_u, p_v)`.
    pub(crate) fn scotch_baseline(mesh: &HexMesh, levels: &Levels) -> Self {
        let dual = DualGraph::build_weighted(mesh, levels);
        let vwgt = (0..mesh.n_elems() as u32)
            .map(|e| levels.p_of(e) as u32)
            .collect();
        Graph {
            xadj: dual.xadj,
            adj: dual.adj,
            ewgt: dual.ewgt,
            ncon: 1,
            vwgt,
        }
    }

    /// Multi-constraint graph for the MeTiS strategy: one unit-weight slot
    /// per level (Sec. III-A1), `max(p_u, p_v)` edge weights.
    pub(crate) fn multi_constraint(mesh: &HexMesh, levels: &Levels) -> Self {
        let dual = DualGraph::build_weighted(mesh, levels);
        let ncon = levels.n_levels;
        let mut vwgt = vec![0u32; mesh.n_elems() * ncon];
        for e in 0..mesh.n_elems() {
            vwgt[e * ncon + levels.elem_level[e] as usize] = 1;
        }
        Graph {
            xadj: dual.xadj,
            adj: dual.adj,
            ewgt: dual.ewgt,
            ncon,
            vwgt,
        }
    }
}

/// The weighted edge cut: FM gain is external minus internal edge weight.
impl CutModel for Graph {
    type Sides = ();
    type Parts = ();
    const VCYCLE_SEED: (u64, u64) = (0x9E37_79B9_7F4A_7C15, 0x5bd1_e995);
    const KWAY_SEED: u64 = 0;

    fn n_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    fn ncon(&self) -> usize {
        self.ncon
    }

    fn vwgt(&self) -> &[u32] {
        &self.vwgt
    }

    fn for_each_adjacent(&self, v: u32, f: impl FnMut(u32)) {
        self.neighbors(v).iter().copied().for_each(f);
    }

    fn sides(&self, _: &[u8]) {}

    fn move_sides(&self, _: u32, _: usize, _: &mut ()) {}

    fn gain(&self, v: u32, side: &[u8], _: &()) -> i64 {
        let s = side[v as usize];
        self.edges(v)
            .map(|(u, w)| {
                if side[u as usize] == s {
                    -(w as i64)
                } else {
                    w as i64
                }
            })
            .sum()
    }

    fn is_boundary(&self, v: u32, side: &[u8], _: &()) -> bool {
        self.neighbors(v)
            .iter()
            .any(|&u| side[u as usize] != side[v as usize])
    }

    /// Heavy-edge matching: the edge weight of every unmatched neighbour.
    fn match_scores(&self, v: u32, matched: &[bool], _: &mut Vec<u64>, out: &mut Vec<(u64, u32)>) {
        for (u, w) in self.edges(v) {
            if !matched[u as usize] && u != v {
                out.push((w as u64, u));
            }
        }
    }

    fn contract(&self, cmap: &[u32], n_coarse: usize, vwgt: Vec<u32>) -> Graph {
        // accumulate coarse adjacency with a timestamped scatter array
        let mut xadj = Vec::with_capacity(n_coarse + 1);
        let mut adj: Vec<u32> = Vec::with_capacity(self.adj.len() / 2);
        let mut ewgt: Vec<u32> = Vec::with_capacity(self.adj.len() / 2);
        let mut stamp = vec![u32::MAX; n_coarse];
        let mut slot = vec![0u32; n_coarse];
        xadj.push(0u32);
        // iterate coarse vertices in id order; find their constituents,
        // counted then filled in ascending fine-vertex order
        let mut first = vec![0u32; n_coarse + 1];
        for &cv in cmap {
            first[cv as usize + 1] += 1;
        }
        for c in 0..n_coarse {
            first[c + 1] += first[c];
        }
        let mut fill = first.clone();
        let mut members = vec![0u32; cmap.len()];
        for (v, &cv) in cmap.iter().enumerate() {
            members[fill[cv as usize] as usize] = v as u32;
            fill[cv as usize] += 1;
        }
        for cv in 0..n_coarse as u32 {
            let (lo, hi) = (first[cv as usize], first[cv as usize + 1]);
            for &v in &members[lo as usize..hi as usize] {
                for (u, w) in self.edges(v) {
                    let cu = cmap[u as usize];
                    if cu == cv {
                        continue;
                    }
                    if stamp[cu as usize] == cv {
                        ewgt[slot[cu as usize] as usize] += w;
                    } else {
                        stamp[cu as usize] = cv;
                        slot[cu as usize] = adj.len() as u32;
                        adj.push(cu);
                        ewgt.push(w);
                    }
                }
            }
            xadj.push(adj.len() as u32);
        }
        Graph {
            xadj,
            adj,
            ewgt,
            ncon: self.ncon,
            vwgt,
        }
    }

    fn cut(&self, part: &[u32]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.n_vertices() as u32 {
            for (u, w) in self.edges(v) {
                if u > v && part[u as usize] != part[v as usize] {
                    cut += w as u64;
                }
            }
        }
        cut
    }

    fn induced(&self, keep: &[u32]) -> Graph {
        let mut global_to_local = vec![u32::MAX; self.n_vertices()];
        for (local, &g) in keep.iter().enumerate() {
            global_to_local[g as usize] = local as u32;
        }
        let mut xadj = Vec::with_capacity(keep.len() + 1);
        let mut adj = Vec::new();
        let mut ewgt = Vec::new();
        let mut vwgt = Vec::with_capacity(keep.len() * self.ncon);
        xadj.push(0u32);
        for &g in keep {
            for (u, w) in self.edges(g) {
                let lu = global_to_local[u as usize];
                if lu != u32::MAX {
                    adj.push(lu);
                    ewgt.push(w);
                }
            }
            xadj.push(adj.len() as u32);
            vwgt.extend_from_slice(self.weight_of(g));
        }
        Graph {
            xadj,
            adj,
            ewgt,
            ncon: self.ncon,
            vwgt,
        }
    }

    fn parts(&self, _: &[u32]) {}

    /// Edge weight to each neighbouring part minus the weight kept inside.
    fn kway_gains(&self, v: u32, part: &[u32], _: &(), out: &mut Vec<(u32, i64)>) {
        let p = part[v as usize];
        let mut w_own = 0i64;
        for (u, w) in self.edges(v) {
            let q = part[u as usize];
            if q == p {
                w_own += w as i64;
            } else {
                match out.iter_mut().find(|(qq, _)| *qq == q) {
                    Some((_, acc)) => *acc += w as i64,
                    None => out.push((q, w as i64)),
                }
            }
        }
        for (_, gain) in out.iter_mut() {
            *gain -= w_own;
        }
    }

    fn move_parts(&self, _: u32, _: u32, _: u32, _: &mut ()) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut xadj = vec![0u32];
        let mut adj = Vec::new();
        for v in 0..n as u32 {
            if v > 0 {
                adj.push(v - 1);
            }
            if (v as usize) + 1 < n {
                adj.push(v + 1);
            }
            xadj.push(adj.len() as u32);
        }
        let ewgt = vec![1; adj.len()];
        Graph {
            xadj,
            adj,
            ewgt,
            ncon: 1,
            vwgt: vec![1; n],
        }
    }

    #[test]
    fn cut_of_path_split() {
        let g = path_graph(6);
        let part = vec![0, 0, 0, 1, 1, 1];
        assert_eq!(g.cut(&part), 1);
        let part2 = vec![0, 1, 0, 1, 0, 1];
        assert_eq!(g.cut(&part2), 5);
    }

    #[test]
    fn scotch_baseline_weights_are_p() {
        let mut m = HexMesh::uniform(4, 1, 1, 1.0, 1.0);
        m.paint_box((3, 4), (0, 1), (0, 1), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let g = Graph::scotch_baseline(&m, &lv);
        assert_eq!(g.ncon, 1);
        assert_eq!(g.weight_of(0), &[1]);
        assert_eq!(g.weight_of(3), &[2]);
    }

    #[test]
    fn multi_constraint_one_hot() {
        let mut m = HexMesh::uniform(4, 1, 1, 1.0, 1.0);
        m.paint_box((3, 4), (0, 1), (0, 1), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let g = Graph::multi_constraint(&m, &lv);
        assert_eq!(g.ncon, 2);
        assert_eq!(g.weight_of(0), &[1, 0]);
        assert_eq!(g.weight_of(3), &[0, 1]);
        let tot = g.total_weights();
        assert_eq!(tot.iter().sum::<u64>(), 4);
    }

    #[test]
    fn induced_subgraph_of_path() {
        let g = path_graph(6);
        // keep vertices 1,2,3: path of 3 with 2 edges
        let sub = g.induced(&[1, 2, 3]);
        assert_eq!(sub.n_vertices(), 3);
        assert_eq!(sub.adj.len(), 4); // 2 undirected edges
        assert_eq!(sub.neighbors(1), &[0, 2]);
    }

    #[test]
    fn part_weights_sum_to_totals() {
        let m = HexMesh::uniform(3, 3, 1, 1.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let g = Graph::multi_constraint(&m, &lv);
        let part: Vec<u32> = (0..9).map(|v| (v % 3) as u32).collect();
        let pw = g.part_weights(&part, 3);
        let tot = g.total_weights();
        for c in 0..g.ncon {
            let s: u64 = (0..3).map(|p| pw[p * g.ncon + c]).sum();
            assert_eq!(s, tot[c]);
        }
    }
}
