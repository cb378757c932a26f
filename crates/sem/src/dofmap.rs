//! Global GLL node numbering on structured hexahedral meshes.
//!
//! For a `nx × ny × nz` mesh at polynomial order `p` the global GLL grid has
//! `(p·nx+1) × (p·ny+1) × (p·nz+1)` nodes; element `(i,j,k)`'s local node
//! `(a,b,c)` is global `(p·i+a, p·j+b, p·k+c)`. Shared faces/edges/corners
//! thus alias the same global node — the *continuous* Galerkin sharing that
//! makes LTS on SEM delicate (Sec. II-C).

use lts_mesh::HexMesh;

/// Node numbering for one mesh at one polynomial order.
#[derive(Debug, Clone)]
pub struct DofMap {
    pub(crate) order: usize,
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) nz: usize,
    /// Global GLL grid dimensions.
    pub gx: usize,
    pub gy: usize,
    pub gz: usize,
}

impl DofMap {
    pub fn new(mesh: &HexMesh, order: usize) -> Self {
        assert!(order >= 1);
        DofMap {
            order,
            nx: mesh.nx,
            ny: mesh.ny,
            nz: mesh.nz,
            gx: order * mesh.nx + 1,
            gy: order * mesh.ny + 1,
            gz: order * mesh.nz + 1,
        }
    }

    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.gx * self.gy * self.gz
    }

    pub fn n_elems(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Nodes per element per axis.
    #[inline]
    pub(crate) fn np(&self) -> usize {
        self.order + 1
    }

    /// Nodes per element, `(order+1)³` (125 at order 4).
    #[inline]
    pub fn nodes_per_elem(&self) -> usize {
        let np = self.np();
        np * np * np
    }

    #[inline]
    pub(crate) fn global_node(&self, ix: usize, iy: usize, iz: usize) -> u32 {
        debug_assert!(ix < self.gx && iy < self.gy && iz < self.gz);
        (ix + self.gx * (iy + self.gy * iz)) as u32
    }

    /// Global node of element `(ei,ej,ek)`'s local GLL node `(a,b,c)`.
    #[inline]
    pub(crate) fn elem_node(
        &self,
        ei: usize,
        ej: usize,
        ek: usize,
        a: usize,
        b: usize,
        c: usize,
    ) -> u32 {
        self.global_node(
            self.order * ei + a,
            self.order * ej + b,
            self.order * ek + c,
        )
    }

    #[inline]
    pub(crate) fn elem_ijk(&self, e: u32) -> (usize, usize, usize) {
        let e = e as usize;
        (
            e % self.nx,
            (e / self.nx) % self.ny,
            e / (self.nx * self.ny),
        )
    }

    /// Append all global nodes of element `e` to `out` (cleared first),
    /// in local lexicographic `(a fastest)` order.
    pub fn elem_nodes(&self, e: u32, out: &mut Vec<u32>) {
        out.clear();
        let (ei, ej, ek) = self.elem_ijk(e);
        let np = self.np();
        let (x0, y0, z0) = (self.order * ei, self.order * ej, self.order * ek);
        for c in 0..np {
            for b in 0..np {
                for a in 0..np {
                    out.push(self.global_node(x0 + a, y0 + b, z0 + c));
                }
            }
        }
    }

    /// Nearest global node to a physical point (for source/receiver
    /// placement) on mesh `mesh`.
    pub fn nearest_node(&self, mesh: &HexMesh, x: f64, y: f64, z: f64, gll_points: &[f64]) -> u32 {
        // physical coordinates of global GLL planes per axis
        let planes = |coords: &[f64], n: usize| -> Vec<f64> {
            let mut out = Vec::with_capacity(self.order * n + 1);
            for e in 0..n {
                let (lo, hi) = (coords[e], coords[e + 1]);
                for (a, &xi) in gll_points.iter().enumerate() {
                    if e > 0 && a == 0 {
                        continue; // shared with previous element
                    }
                    out.push(lo + 0.5 * (xi + 1.0) * (hi - lo));
                }
            }
            out
        };
        let px = planes(&mesh.xs, self.nx);
        let py = planes(&mesh.ys, self.ny);
        let pz = planes(&mesh.zs, self.nz);
        let nearest = |p: &[f64], v: f64| -> usize {
            // GLL planes are never empty, so the fold always visits at least
            // one candidate; total_cmp keeps this panic-free even for NaNs.
            p.iter()
                .enumerate()
                .min_by(|a, b| (a.1 - v).abs().total_cmp(&(b.1 - v).abs()))
                .map_or(0, |(i, _)| i)
        };
        self.global_node(nearest(&px, x), nearest(&py, y), nearest(&pz, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formula() {
        let m = HexMesh::uniform(3, 2, 2, 1.0, 1.0);
        let d = DofMap::new(&m, 4);
        assert_eq!(d.n_nodes(), 13 * 9 * 9);
        assert_eq!(d.nodes_per_elem(), 125);
    }

    #[test]
    fn neighbors_share_a_face_of_nodes() {
        let m = HexMesh::uniform(2, 1, 1, 1.0, 1.0);
        let d = DofMap::new(&m, 2);
        let mut n0 = Vec::new();
        let mut n1 = Vec::new();
        d.elem_nodes(0, &mut n0);
        d.elem_nodes(1, &mut n1);
        let shared: Vec<u32> = n0.iter().filter(|n| n1.contains(n)).copied().collect();
        assert_eq!(shared.len(), 9); // 3×3 face at order 2
    }

    #[test]
    fn all_nodes_covered_exactly() {
        let m = HexMesh::uniform(2, 2, 2, 1.0, 1.0);
        let d = DofMap::new(&m, 3);
        let mut seen = vec![false; d.n_nodes()];
        let mut buf = Vec::new();
        for e in 0..d.n_elems() as u32 {
            d.elem_nodes(e, &mut buf);
            assert_eq!(buf.len(), d.nodes_per_elem());
            for &n in &buf {
                seen[n as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn paper_dof_counts() {
        // Fig. 5: 4th-order elements have ~64.5 unique GLL nodes per element
        // at scale (2.5M elements → 170M DOF)
        let m = HexMesh::uniform(40, 40, 40, 1.0, 1.0);
        let d = DofMap::new(&m, 4);
        let per_elem = d.n_nodes() as f64 / d.n_elems() as f64;
        assert!((64.0..70.0).contains(&per_elem), "{per_elem}");
    }

    #[test]
    fn nearest_node_center() {
        let m = HexMesh::uniform(2, 2, 2, 1.0, 1.0);
        let d = DofMap::new(&m, 2);
        let b = crate::gll::GllBasis::new(2);
        let n = d.nearest_node(&m, 1.0, 1.0, 1.0, &b.points);
        assert_eq!(n, d.global_node(2, 2, 2)); // grid center
    }
}
