//! Minimal 2-D structured quadrilateral meshes.
//!
//! Only used to reproduce the paper's didactic figures: the per-cut
//! communication costs of Fig. 2 (a higher-order 2-D mesh with a p = 2
//! column) and the dual-graph vs. hypergraph comparison of Fig. 3 (a 2×2
//! quad mesh).

/// A structured `nx × ny` quadrilateral mesh.
#[derive(Debug, Clone)]
pub struct QuadMesh {
    pub(crate) nx: usize,
    pub ny: usize,
}

impl QuadMesh {
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx >= 1 && ny >= 1);
        QuadMesh { nx, ny }
    }

    pub fn n_elems(&self) -> usize {
        self.nx * self.ny
    }

    pub(crate) fn n_nodes(&self) -> usize {
        (self.nx + 1) * (self.ny + 1)
    }

    #[inline]
    pub(crate) fn elem_id(&self, i: usize, j: usize) -> u32 {
        debug_assert!(i < self.nx && j < self.ny);
        (i + self.nx * j) as u32
    }

    #[inline]
    pub fn node_id(&self, i: usize, j: usize) -> u32 {
        debug_assert!(i <= self.nx && j <= self.ny);
        (i + (self.nx + 1) * j) as u32
    }

    pub(crate) fn elem_ij(&self, e: u32) -> (usize, usize) {
        ((e as usize) % self.nx, (e as usize) / self.nx)
    }

    pub(crate) fn node_ij(&self, n: u32) -> (usize, usize) {
        ((n as usize) % (self.nx + 1), (n as usize) / (self.nx + 1))
    }

    /// Elements incident to node `n` (1–4 of them).
    pub(crate) fn node_elems(&self, n: u32) -> Vec<u32> {
        let (i, j) = self.node_ij(n);
        let mut out = Vec::with_capacity(4);
        for dj in 0..2usize {
            if dj > j || j - dj >= self.ny {
                continue;
            }
            for di in 0..2usize {
                if di > i || i - di >= self.nx {
                    continue;
                }
                out.push(self.elem_id(i - di, j - dj));
            }
        }
        out
    }

    /// Edge-adjacent neighbours (dual-graph edges).
    pub fn edge_neighbors(&self, e: u32) -> Vec<u32> {
        let (i, j) = self.elem_ij(e);
        let mut out = Vec::with_capacity(4);
        if i > 0 {
            out.push(self.elem_id(i - 1, j));
        }
        if i + 1 < self.nx {
            out.push(self.elem_id(i + 1, j));
        }
        if j > 0 {
            out.push(self.elem_id(i, j - 1));
        }
        if j + 1 < self.ny {
            out.push(self.elem_id(i, j + 1));
        }
        out
    }

    /// Fig. 2 cost of a vertical cut between element columns `col-1` and
    /// `col`, for a higher-order mesh with `order+1` nodes per edge and
    /// per-element sub-step counts `elem_p`: every shared interface node is
    /// exchanged `max(p_left, p_right)` times per LTS cycle.
    pub fn vertical_cut_cost(&self, col: usize, order: usize, elem_p: &[u64]) -> u64 {
        assert!(col >= 1 && col < self.nx);
        assert_eq!(elem_p.len(), self.n_elems());
        // nodes on the shared vertical line: order*ny + 1 of them
        let shared_nodes = (order * self.ny + 1) as u64;
        let mut per_node_steps = 0u64;
        for j in 0..self.ny {
            let l = elem_p[self.elem_id(col - 1, j) as usize];
            let r = elem_p[self.elem_id(col, j) as usize];
            per_node_steps = per_node_steps.max(l.max(r));
        }
        shared_nodes * per_node_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_dual_graph_edges() {
        // 2×2 mesh: dual graph is a 4-cycle (4 edges), exactly Fig. 3 left.
        let m = QuadMesh::new(2, 2);
        let mut edges = 0;
        for e in 0..m.n_elems() as u32 {
            edges += m.edge_neighbors(e).len();
        }
        assert_eq!(edges / 2, 4);
    }

    #[test]
    fn node_elems_center() {
        let m = QuadMesh::new(2, 2);
        assert_eq!(m.node_elems(m.node_id(1, 1)).len(), 4);
        assert_eq!(m.node_elems(m.node_id(0, 0)), vec![0]);
    }

    #[test]
    fn fig2_cut_costs() {
        // Fig. 2: 3-element-tall columns, 9-node (order-2) elements.
        // A cut inside/at the p=2 region costs 2 syncs per ∆t on each of the
        // (2·3+1)=7 shared nodes; a cut in the p=1 region costs 1.
        let m = QuadMesh::new(4, 3);
        let mut p = vec![1u64; m.n_elems()];
        for j in 0..3 {
            p[m.elem_id(2, j) as usize] = 2; // p=2 column
            p[m.elem_id(3, j) as usize] = 2;
        }
        let order = 2;
        // cut between columns 2 and 3 (both p=2): 7 nodes × 2 steps
        assert_eq!(m.vertical_cut_cost(3, order, &p), 14);
        // cut between columns 1 (p=1) and 2 (p=2): halo still updates twice
        assert_eq!(m.vertical_cut_cost(2, order, &p), 14);
        // cut between columns 0 and 1 (both p=1): 7 nodes × 1 step
        assert_eq!(m.vertical_cut_cost(1, order, &p), 7);
    }
}
