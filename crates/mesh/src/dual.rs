//! The element dual graph (Sec. III-A1).
//!
//! Vertices are mesh elements; edges connect elements sharing a *face*. This
//! is what SCOTCH/MeTiS-style graph partitioners consume. Following the
//! paper, when LTS levels are attached the edge weight is
//! `max(p_u, p_v)` — an approximation of the per-cut communication cost of
//! Fig. 2 (the exact cost needs the hypergraph model).

use crate::hex::HexMesh;
use crate::levels::Levels;

/// Compressed-sparse-row dual graph of a mesh.
#[derive(Debug, Clone)]
pub struct DualGraph {
    /// `xadj[v]..xadj[v+1]` indexes `adj`/`ewgt` for vertex `v`.
    pub xadj: Vec<u32>,
    pub adj: Vec<u32>,
    /// Edge weights, aligned with `adj`.
    pub ewgt: Vec<u32>,
}

impl DualGraph {
    pub fn n_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize]
    }

    /// Build with LTS-aware edge weights `max(p_u, p_v)` (Sec. III-A1).
    pub fn build_weighted(mesh: &HexMesh, levels: &Levels) -> Self {
        let ne = mesh.n_elems();
        let mut xadj = Vec::with_capacity(ne + 1);
        let mut adj = Vec::new();
        let mut ewgt = Vec::new();
        xadj.push(0u32);
        for e in 0..ne as u32 {
            for nb in mesh.face_neighbors(e) {
                adj.push(nb);
                ewgt.push(levels.p_of(e).max(levels.p_of(nb)) as u32);
            }
            xadj.push(adj.len() as u32);
        }
        DualGraph { xadj, adj, ewgt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(m: &HexMesh) -> DualGraph {
        DualGraph::build_weighted(m, &Levels::assign(m, 0.5, 1))
    }

    #[test]
    fn single_row_is_a_path() {
        let m = HexMesh::uniform(4, 1, 1, 1.0, 1.0);
        let g = build(&m);
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.adj.len() / 2, 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn edge_count_matches_grid_formula() {
        let (nx, ny, nz) = (3usize, 4usize, 5usize);
        let m = HexMesh::uniform(nx, ny, nz, 1.0, 1.0);
        let g = build(&m);
        let expect = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1);
        assert_eq!(g.adj.len() / 2, expect);
    }

    #[test]
    fn graph_is_symmetric() {
        let m = HexMesh::uniform(3, 3, 2, 1.0, 1.0);
        let g = build(&m);
        for v in 0..g.n_vertices() as u32 {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn lts_edge_weights_take_finer_level() {
        let mut m = HexMesh::uniform(4, 1, 1, 1.0, 1.0);
        m.paint_box((3, 4), (0, 1), (0, 1), 2.0, 1.0); // last element level 1
        let lv = Levels::assign(&m, 0.5, 4);
        let g = DualGraph::build_weighted(&m, &lv);
        // edge between elements 2 (level 0) and 3 (level 1) has weight 2
        let pos = g.neighbors(2).iter().position(|&x| x == 3).unwrap();
        assert_eq!(g.ewgt[g.xadj[2] as usize + pos], 2);
        // edge between elements 0 and 1 (both coarse) has weight 1
        let pos01 = g.neighbors(0).iter().position(|&x| x == 1).unwrap();
        assert_eq!(g.ewgt[g.xadj[0] as usize + pos01], 1);
    }
}
