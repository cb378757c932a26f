//! The nodal hypergraph model (Sec. III-A2).
//!
//! Vertices are elements; each *corner node* of the mesh defines one
//! hyperedge (net) connecting every element that touches it. With the
//! paper's per-element-copy cost folded into a single net
//! (`c[h'_n] = Σ_{e ∋ n} p_e`), the connectivity-1 cut size
//! `Σ_n c[h'_n] (λ_n − 1)` equals the total MPI communication volume per LTS
//! cycle exactly.

use crate::hex::HexMesh;
use crate::levels::Levels;
use crate::quad::QuadMesh;

/// CSR hypergraph: nets → pins, plus net costs and per-vertex (element)
/// weight vectors handled by the partitioner crate.
#[derive(Debug, Clone)]
pub struct NodalHypergraph {
    /// `xpins[n]..xpins[n+1]` indexes `pins` for net `n`.
    pub(crate) xpins: Vec<u32>,
    /// Element ids touching each net.
    pub(crate) pins: Vec<u32>,
    /// Net costs `c[h'_n]`; unit per pin when built without levels, else
    /// `Σ_{e ∋ n} p_e`.
    pub netcost: Vec<u64>,
    pub(crate) n_vertices: usize,
}

impl NodalHypergraph {
    pub fn n_nets(&self) -> usize {
        self.xpins.len() - 1
    }

    pub fn pins_of(&self, net: u32) -> &[u32] {
        &self.pins[self.xpins[net as usize] as usize..self.xpins[net as usize + 1] as usize]
    }

    /// Build from a hex mesh; each corner node is a net.
    pub fn build(mesh: &HexMesh, levels: Option<&Levels>) -> Self {
        let nn = mesh.n_corner_nodes();
        let mut xpins = Vec::with_capacity(nn + 1);
        let mut pins = Vec::new();
        let mut netcost = Vec::with_capacity(nn);
        xpins.push(0u32);
        for n in 0..nn as u32 {
            let elems = mesh.node_elems(n);
            let mut cost = 0u64;
            for &e in &elems {
                cost += levels.map_or(1, |lv| lv.p_of(e));
                pins.push(e);
            }
            netcost.push(cost);
            xpins.push(pins.len() as u32);
        }
        NodalHypergraph {
            xpins,
            pins,
            netcost,
            n_vertices: mesh.n_elems(),
        }
    }

    /// Build from a 2-D quad mesh (for the Fig. 2/3 demonstrations).
    pub fn build_quad(mesh: &QuadMesh, elem_p: Option<&[u64]>) -> Self {
        let nn = mesh.n_nodes();
        let mut xpins = Vec::with_capacity(nn + 1);
        let mut pins = Vec::new();
        let mut netcost = Vec::with_capacity(nn);
        xpins.push(0u32);
        for n in 0..nn as u32 {
            let elems = mesh.node_elems(n);
            let mut cost = 0u64;
            for &e in &elems {
                cost += elem_p.map_or(1, |p| p[e as usize]);
                pins.push(e);
            }
            netcost.push(cost);
            xpins.push(pins.len() as u32);
        }
        NodalHypergraph {
            xpins,
            pins,
            netcost,
            n_vertices: mesh.n_elems(),
        }
    }

    /// Connectivity-1 cut size (Eq. 20) of a vertex partition: the exact MPI
    /// volume per LTS cycle when net costs carry p-levels.
    pub fn cut_size(&self, part: &[u32]) -> u64 {
        assert_eq!(part.len(), self.n_vertices);
        let mut seen: Vec<u32> = Vec::with_capacity(8);
        let mut total = 0u64;
        for net in 0..self.n_nets() as u32 {
            seen.clear();
            for &p in self.pins_of(net) {
                let pp = part[p as usize];
                if !seen.contains(&pp) {
                    seen.push(pp);
                }
            }
            if seen.len() > 1 {
                total += self.netcost[net as usize] * (seen.len() as u64 - 1);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_net_pin_counts() {
        let m = HexMesh::uniform(2, 2, 2, 1.0, 1.0);
        let h = NodalHypergraph::build(&m, None);
        assert_eq!(h.n_nets(), 27);
        // center node connects all 8 elements
        let center = m.node_id(1, 1, 1);
        assert_eq!(h.pins_of(center).len(), 8);
        // mesh corner connects exactly 1
        assert_eq!(h.pins_of(m.node_id(0, 0, 0)).len(), 1);
    }

    #[test]
    fn fig3_quad_example() {
        // The paper's Fig. 3: 2×2 quad mesh; the central node's net has all
        // four elements; with all four elements in distinct parts the dual
        // graph sees 4 cut edges but the hypergraph adds the λ−1 = 3 central
        // contributions.
        let m = QuadMesh::new(2, 2);
        let h = NodalHypergraph::build_quad(&m, None);
        assert_eq!(h.n_nets(), 9);
        let center = m.node_id(1, 1);
        assert_eq!(h.pins_of(center).len(), 4);
        let part = vec![0u32, 1, 2, 3];
        // 4 edge-midside nets each cut once (λ=2 → cost 2·1 each as each has
        // 2 pins with unit cost per pin) + center net cost 4 × (4−1)
        // midside nets: pins=2, cost=2, (λ−1)=1 → 2 each → 8 total
        // corner nets: single pin, uncut. center: cost 4 × 3 = 12.
        assert_eq!(h.cut_size(&part), 8 + 12);
    }

    #[test]
    fn cut_size_zero_for_single_part() {
        let m = HexMesh::uniform(3, 2, 2, 1.0, 1.0);
        let h = NodalHypergraph::build(&m, None);
        let part = vec![0u32; m.n_elems()];
        assert_eq!(h.cut_size(&part), 0);
    }

    #[test]
    fn lts_net_costs_sum_p() {
        let mut m = HexMesh::uniform(2, 1, 1, 1.0, 1.0);
        m.paint_box((1, 2), (0, 1), (0, 1), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let h = NodalHypergraph::build(&m, Some(&lv));
        // shared face nodes touch elements with p = 1 and p = 2 → cost 3
        let shared = m.node_id(1, 0, 0);
        assert_eq!(h.netcost[shared as usize], 3);
        // the fig-2 statement: cutting between the two elements costs each
        // shared node its full Σp, i.e. communication twice per Δt for the
        // fine side and once for the coarse side.
        let part = vec![0u32, 1];
        // 4 shared nodes, each cost 3 and λ=2 → 12
        assert_eq!(h.cut_size(&part), 12);
    }
}
