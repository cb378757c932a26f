//! Structured hexahedral meshes with graded coordinate planes.
//!
//! The paper's application meshes honor topography and small-scale features
//! by *squeezing* hexahedra; combined with material (wave-speed) contrasts
//! this produces the small `h_i / c_i` ratios that force small time steps
//! (Eq. 7). A structured tensor-product grid with graded planes and
//! per-element material reproduces both mechanisms while keeping exact
//! element/node indexing, which the SEM discretization and the partitioners
//! build on.

/// A structured hexahedral mesh: `nx × ny × nz` axis-aligned brick cells.
///
/// Coordinate planes (`xs`, `ys`, `zs`) may be arbitrarily graded, so element
/// dimensions vary per axis slab. Material (`velocity`, `density`) is stored
/// per element.
///
/// Element `(i, j, k)` occupies `[xs[i], xs[i+1]] × [ys[j], ys[j+1]] ×
/// [zs[k], zs[k+1]]` and has linear id `i + nx*(j + ny*k)`. Corner node
/// `(i, j, k)` (with `i ≤ nx` etc.) has linear id `i + (nx+1)*(j + (ny+1)*k)`.
#[derive(Debug, Clone)]
pub struct HexMesh {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Coordinate planes per axis; `xs.len() == nx + 1`, strictly increasing.
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub zs: Vec<f64>,
    /// Per-element compressional wave speed `c_e > 0`.
    pub velocity: Vec<f64>,
    /// Per-element density `ρ_e > 0`.
    pub density: Vec<f64>,
}

impl HexMesh {
    /// Uniform unit-spacing mesh with constant material.
    pub fn uniform(nx: usize, ny: usize, nz: usize, velocity: f64, density: f64) -> Self {
        Self::graded(
            (0..=nx).map(|i| i as f64).collect(),
            (0..=ny).map(|j| j as f64).collect(),
            (0..=nz).map(|k| k as f64).collect(),
            velocity,
            density,
        )
    }

    /// Mesh from explicit coordinate planes with constant material.
    pub(crate) fn graded(
        xs: Vec<f64>,
        ys: Vec<f64>,
        zs: Vec<f64>,
        velocity: f64,
        density: f64,
    ) -> Self {
        assert!(
            xs.len() >= 2 && ys.len() >= 2 && zs.len() >= 2,
            "need at least one cell per axis"
        );
        for planes in [&xs, &ys, &zs] {
            assert!(
                planes.windows(2).all(|w| w[1] > w[0]),
                "coordinate planes must be strictly increasing"
            );
        }
        assert!(velocity > 0.0 && density > 0.0);
        let (nx, ny, nz) = (xs.len() - 1, ys.len() - 1, zs.len() - 1);
        let ne = nx * ny * nz;
        HexMesh {
            nx,
            ny,
            nz,
            xs,
            ys,
            zs,
            velocity: vec![velocity; ne],
            density: vec![density; ne],
        }
    }

    #[inline]
    pub fn n_elems(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    pub fn n_corner_nodes(&self) -> usize {
        (self.nx + 1) * (self.ny + 1) * (self.nz + 1)
    }

    /// Number of global Gauss–Legendre–Lobatto points for polynomial order
    /// `order` — the paper's "degrees of freedom" count (its 2.5M-element
    /// meshes at order 4 report ≈ 64.5 unique GLL nodes per element).
    pub fn n_gll_nodes(&self, order: usize) -> usize {
        (order * self.nx + 1) * (order * self.ny + 1) * (order * self.nz + 1)
    }

    #[inline]
    pub fn elem_id(&self, i: usize, j: usize, k: usize) -> u32 {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        (i + self.nx * (j + self.ny * k)) as u32
    }

    #[inline]
    pub fn elem_ijk(&self, e: u32) -> (usize, usize, usize) {
        let e = e as usize;
        let i = e % self.nx;
        let j = (e / self.nx) % self.ny;
        let k = e / (self.nx * self.ny);
        (i, j, k)
    }

    #[inline]
    pub(crate) fn node_id(&self, i: usize, j: usize, k: usize) -> u32 {
        debug_assert!(i <= self.nx && j <= self.ny && k <= self.nz);
        (i + (self.nx + 1) * (j + (self.ny + 1) * k)) as u32
    }

    #[inline]
    pub(crate) fn node_ijk(&self, n: u32) -> (usize, usize, usize) {
        let n = n as usize;
        let i = n % (self.nx + 1);
        let j = (n / (self.nx + 1)) % (self.ny + 1);
        let k = n / ((self.nx + 1) * (self.ny + 1));
        (i, j, k)
    }

    /// The eight corner node ids of element `e`, in lexicographic order.
    pub fn elem_corners(&self, e: u32) -> [u32; 8] {
        let (i, j, k) = self.elem_ijk(e);
        [
            self.node_id(i, j, k),
            self.node_id(i + 1, j, k),
            self.node_id(i, j + 1, k),
            self.node_id(i + 1, j + 1, k),
            self.node_id(i, j, k + 1),
            self.node_id(i + 1, j, k + 1),
            self.node_id(i, j + 1, k + 1),
            self.node_id(i + 1, j + 1, k + 1),
        ]
    }

    /// Element box dimensions `(hx, hy, hz)`.
    #[inline]
    pub fn elem_dims(&self, e: u32) -> (f64, f64, f64) {
        let (i, j, k) = self.elem_ijk(e);
        (
            self.xs[i + 1] - self.xs[i],
            self.ys[j + 1] - self.ys[j],
            self.zs[k + 1] - self.zs[k],
        )
    }

    /// Characteristic element size `h_e`: the smallest box dimension, which
    /// controls the CFL bound for axis-aligned bricks.
    #[inline]
    pub(crate) fn elem_char_size(&self, e: u32) -> f64 {
        let (hx, hy, hz) = self.elem_dims(e);
        hx.min(hy).min(hz)
    }

    /// CFL ratio `h_e / c_e` of Eq. 7; the stable step is `C_CFL · h_e/c_e`.
    #[inline]
    pub fn elem_cfl_ratio(&self, e: u32) -> f64 {
        self.elem_char_size(e) / self.velocity[e as usize]
    }

    /// Domain bounding box `((x0, x1), (y0, y1), (z0, z1))`. The coordinate
    /// plane arrays always hold `n + 1 ≥ 2` entries (asserted at
    /// construction), so the extents are total.
    pub fn domain_extent(&self) -> ((f64, f64), (f64, f64), (f64, f64)) {
        (
            (self.xs[0], self.xs[self.nx]),
            (self.ys[0], self.ys[self.ny]),
            (self.zs[0], self.zs[self.nz]),
        )
    }

    /// Element centroid.
    pub(crate) fn elem_center(&self, e: u32) -> (f64, f64, f64) {
        let (i, j, k) = self.elem_ijk(e);
        (
            0.5 * (self.xs[i] + self.xs[i + 1]),
            0.5 * (self.ys[j] + self.ys[j + 1]),
            0.5 * (self.zs[k] + self.zs[k + 1]),
        )
    }

    /// Face-adjacent neighbours of `e` (up to six), the edges of the dual graph.
    pub fn face_neighbors(&self, e: u32) -> impl Iterator<Item = u32> + '_ {
        let (i, j, k) = self.elem_ijk(e);
        let mut out = [0u32; 6];
        let mut n = 0;
        if i > 0 {
            out[n] = self.elem_id(i - 1, j, k);
            n += 1;
        }
        if i + 1 < self.nx {
            out[n] = self.elem_id(i + 1, j, k);
            n += 1;
        }
        if j > 0 {
            out[n] = self.elem_id(i, j - 1, k);
            n += 1;
        }
        if j + 1 < self.ny {
            out[n] = self.elem_id(i, j + 1, k);
            n += 1;
        }
        if k > 0 {
            out[n] = self.elem_id(i, j, k - 1);
            n += 1;
        }
        if k + 1 < self.nz {
            out[n] = self.elem_id(i, j, k + 1);
            n += 1;
        }
        out.into_iter().take(n)
    }

    /// Elements incident to corner node `n` (1–8 of them).
    pub fn node_elems(&self, n: u32) -> Vec<u32> {
        let (i, j, k) = self.node_ijk(n);
        let mut out = Vec::with_capacity(8);
        for dk in 0..2usize {
            if dk > k || k - dk >= self.nz {
                continue;
            }
            for dj in 0..2usize {
                if dj > j || j - dj >= self.ny {
                    continue;
                }
                for di in 0..2usize {
                    if di > i || i - di >= self.nx {
                        continue;
                    }
                    out.push(self.elem_id(i - di, j - dj, k - dk));
                }
            }
        }
        out
    }

    /// Set material in the axis-aligned element-index box
    /// `[i0, i1) × [j0, j1) × [k0, k1)` (clamped to the mesh).
    pub fn paint_box(
        &mut self,
        (i0, i1): (usize, usize),
        (j0, j1): (usize, usize),
        (k0, k1): (usize, usize),
        velocity: f64,
        density: f64,
    ) {
        let (i1, j1, k1) = (i1.min(self.nx), j1.min(self.ny), k1.min(self.nz));
        for k in k0..k1 {
            for j in j0..j1 {
                for i in i0..i1 {
                    let e = self.elem_id(i, j, k) as usize;
                    self.velocity[e] = velocity;
                    self.density[e] = density;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts() {
        let m = HexMesh::uniform(3, 4, 5, 1.0, 1.0);
        assert_eq!(m.n_elems(), 60);
        assert_eq!(m.n_corner_nodes(), 4 * 5 * 6);
        assert_eq!(m.n_gll_nodes(4), 13 * 17 * 21);
    }

    #[test]
    fn elem_id_roundtrip() {
        let m = HexMesh::uniform(3, 4, 5, 1.0, 1.0);
        for e in 0..m.n_elems() as u32 {
            let (i, j, k) = m.elem_ijk(e);
            assert_eq!(m.elem_id(i, j, k), e);
        }
    }

    #[test]
    fn node_id_roundtrip() {
        let m = HexMesh::uniform(2, 3, 4, 1.0, 1.0);
        for n in 0..m.n_corner_nodes() as u32 {
            let (i, j, k) = m.node_ijk(n);
            assert_eq!(m.node_id(i, j, k), n);
        }
    }

    #[test]
    fn corners_are_distinct_and_valid() {
        let m = HexMesh::uniform(2, 2, 2, 1.0, 1.0);
        for e in 0..m.n_elems() as u32 {
            let c = m.elem_corners(e);
            let mut s = c.to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 8);
            assert!(c.iter().all(|&n| (n as usize) < m.n_corner_nodes()));
        }
    }

    #[test]
    fn interior_element_has_six_neighbors() {
        let m = HexMesh::uniform(3, 3, 3, 1.0, 1.0);
        let e = m.elem_id(1, 1, 1);
        assert_eq!(m.face_neighbors(e).count(), 6);
        let corner = m.elem_id(0, 0, 0);
        assert_eq!(m.face_neighbors(corner).count(), 3);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let m = HexMesh::uniform(4, 3, 2, 1.0, 1.0);
        for e in 0..m.n_elems() as u32 {
            for nb in m.face_neighbors(e) {
                assert!(m.face_neighbors(nb).any(|x| x == e));
            }
        }
    }

    #[test]
    fn node_elems_counts() {
        let m = HexMesh::uniform(3, 3, 3, 1.0, 1.0);
        // interior node touches 8 elements, mesh corner node touches 1
        assert_eq!(m.node_elems(m.node_id(1, 1, 1)).len(), 8);
        assert_eq!(m.node_elems(m.node_id(0, 0, 0)).len(), 1);
        assert_eq!(m.node_elems(m.node_id(3, 3, 3)).len(), 1);
        // face-centered node on boundary touches 4
        assert_eq!(m.node_elems(m.node_id(0, 1, 1)).len(), 4);
    }

    #[test]
    fn node_elems_inverse_of_corners() {
        let m = HexMesh::uniform(3, 2, 2, 1.0, 1.0);
        for n in 0..m.n_corner_nodes() as u32 {
            for e in m.node_elems(n) {
                assert!(m.elem_corners(e).contains(&n), "node {n} claims elem {e}");
            }
        }
        for e in 0..m.n_elems() as u32 {
            for n in m.elem_corners(e) {
                assert!(m.node_elems(n).contains(&e));
            }
        }
    }

    #[test]
    fn graded_dims() {
        let m = HexMesh::graded(
            vec![0.0, 1.0, 3.0],
            vec![0.0, 0.5, 1.0],
            vec![0.0, 2.0],
            1.5,
            1.0,
        );
        let (hx, hy, hz) = m.elem_dims(m.elem_id(1, 0, 0));
        assert_eq!((hx, hy, hz), (2.0, 0.5, 2.0));
        assert_eq!(m.elem_char_size(m.elem_id(1, 0, 0)), 0.5);
        assert!((m.elem_cfl_ratio(m.elem_id(0, 0, 0)) - 0.5 / 1.5).abs() < 1e-15);
    }

    #[test]
    fn paint_box_sets_material() {
        let mut m = HexMesh::uniform(4, 4, 4, 1.0, 1.0);
        m.paint_box((1, 3), (1, 3), (1, 3), 4.0, 2.0);
        assert_eq!(m.velocity[m.elem_id(1, 1, 1) as usize], 4.0);
        assert_eq!(m.density[m.elem_id(2, 2, 2) as usize], 2.0);
        assert_eq!(m.velocity[m.elem_id(0, 0, 0) as usize], 1.0);
        assert_eq!(m.velocity[m.elem_id(3, 3, 3) as usize], 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_nonmonotone_planes() {
        HexMesh::graded(
            vec![0.0, 1.0, 0.5],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            1.0,
            1.0,
        );
    }
}
