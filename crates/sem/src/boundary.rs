//! Absorbing boundaries.
//!
//! The paper imposes absorbing conditions on the vertical and lower
//! boundaries (free surface on top). The cheapest scheme compatible with the
//! staggered Newmark update — and with LTS sub-stepping, where the taper is
//! applied once per global step — is a sponge layer: velocities are damped by
//! a smooth exponential profile in a shell near the absorbing faces.

use crate::dofmap::DofMap;
use lts_mesh::HexMesh;

/// Which faces absorb (the paper's setup: all but the top `z` face).
#[derive(Debug, Clone, Copy)]
pub struct AbsorbingFaces {
    pub(crate) x_lo: bool,
    pub(crate) x_hi: bool,
    pub(crate) y_lo: bool,
    pub(crate) y_hi: bool,
    pub(crate) z_lo: bool,
    pub(crate) z_hi: bool,
}

impl AbsorbingFaces {
    /// Free surface on top, absorbing everywhere else (the paper's setup).
    pub fn seismic() -> Self {
        AbsorbingFaces {
            x_lo: true,
            x_hi: true,
            y_lo: true,
            y_hi: true,
            z_lo: true,
            z_hi: false,
        }
    }
}

/// Per-DOF exponential velocity damping factors.
#[derive(Debug, Clone)]
pub struct Sponge {
    /// Multiplier applied to `v` once per global step; 1.0 outside the layer.
    pub(crate) factor: Vec<f64>,
}

impl Sponge {
    /// Build a sponge of physical `width` and peak damping rate `gamma`
    /// (per unit time) for a scalar field; `dt` is the step at which the
    /// taper will be applied.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mesh: &HexMesh,
        dofmap: &DofMap,
        gll_points: &[f64],
        faces: AbsorbingFaces,
        width: f64,
        gamma: f64,
        dt: f64,
        dofs_per_node: usize,
    ) -> Self {
        assert!(width > 0.0 && gamma >= 0.0 && dt > 0.0);
        let planes = |coords: &[f64], n: usize| -> Vec<f64> {
            let mut out = Vec::new();
            for e in 0..n {
                let (lo, hi) = (coords[e], coords[e + 1]);
                for (a, &xi) in gll_points.iter().enumerate() {
                    if e > 0 && a == 0 {
                        continue;
                    }
                    out.push(lo + 0.5 * (xi + 1.0) * (hi - lo));
                }
            }
            out
        };
        let px = planes(&mesh.xs, mesh.nx);
        let py = planes(&mesh.ys, mesh.ny);
        let pz = planes(&mesh.zs, mesh.nz);
        let ((x0, x1), (y0, y1), (z0, z1)) = mesh.domain_extent();

        // smooth ramp: 0 at the layer's inner edge, 1 at the face
        let ramp = |d: f64| -> f64 {
            if d >= width {
                0.0
            } else {
                let s = 1.0 - d / width;
                s * s
            }
        };
        let mut factor = Vec::with_capacity(dofmap.n_nodes() * dofs_per_node);
        for iz in 0..dofmap.gz {
            for iy in 0..dofmap.gy {
                for ix in 0..dofmap.gx {
                    let (x, y, z) = (px[ix], py[iy], pz[iz]);
                    let mut r = 0.0f64;
                    if faces.x_lo {
                        r = r.max(ramp(x - x0));
                    }
                    if faces.x_hi {
                        r = r.max(ramp(x1 - x));
                    }
                    if faces.y_lo {
                        r = r.max(ramp(y - y0));
                    }
                    if faces.y_hi {
                        r = r.max(ramp(y1 - y));
                    }
                    if faces.z_lo {
                        r = r.max(ramp(z - z0));
                    }
                    if faces.z_hi {
                        r = r.max(ramp(z1 - z));
                    }
                    let f = (-gamma * r * dt).exp();
                    for _ in 0..dofs_per_node {
                        factor.push(f);
                    }
                }
            }
        }
        Sponge { factor }
    }

    /// Apply the taper to a velocity field (call once per global step).
    pub fn apply(&self, v: &mut [f64]) {
        assert_eq!(v.len(), self.factor.len());
        for (vi, f) in v.iter_mut().zip(&self.factor) {
            *vi *= f;
        }
    }

    /// Restrict the taper to DOFs integrated at the coarsest level
    /// (`leaf_level == 0`). **Required when stepping with LTS**: the
    /// velocity-recovery formula (Eq. 14) relies on the time-reversibility
    /// of the undamped auxiliary system, and externally damping `v` on
    /// sub-stepped DOFs injects energy instead of removing it (measured: a
    /// 0.97 per-step taper on fine DOFs grows ~10^18× over 300 steps, while
    /// plain Newmark damps benignly). Physically the restriction is
    /// harmless — absorbing boundaries sit on the outer/lower faces, which
    /// are coarse; waves entering the sponge still decay in the coarse part.
    pub fn restrict_to_coarse(&mut self, leaf_level: &[u8]) {
        assert_eq!(leaf_level.len(), self.factor.len());
        for (f, &l) in self.factor.iter_mut().zip(leaf_level) {
            if l != 0 {
                *f = 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gll::GllBasis;

    fn setup() -> (HexMesh, DofMap, GllBasis) {
        let m = HexMesh::uniform(4, 4, 4, 1.0, 1.0);
        let d = DofMap::new(&m, 2);
        let b = GllBasis::new(2);
        (m, d, b)
    }

    #[test]
    fn interior_is_untouched() {
        let (m, d, b) = setup();
        let sp = Sponge::new(
            &m,
            &d,
            &b.points,
            AbsorbingFaces::seismic(),
            1.0,
            2.0,
            0.1,
            1,
        );
        let center = d.global_node(d.gx / 2, d.gy / 2, d.gz / 2) as usize;
        assert_eq!(sp.factor[center], 1.0);
    }

    #[test]
    fn free_surface_untouched_boundaries_damped() {
        let (m, d, b) = setup();
        let sp = Sponge::new(
            &m,
            &d,
            &b.points,
            AbsorbingFaces::seismic(),
            1.0,
            2.0,
            0.1,
            1,
        );
        // top face (z_hi) is free
        let top = d.global_node(d.gx / 2, d.gy / 2, d.gz - 1) as usize;
        assert_eq!(sp.factor[top], 1.0);
        // bottom face absorbs
        let bottom = d.global_node(d.gx / 2, d.gy / 2, 0) as usize;
        assert!(sp.factor[bottom] < 1.0);
        // vertical faces absorb
        let side = d.global_node(0, d.gy / 2, d.gz / 2) as usize;
        assert!(sp.factor[side] < 1.0);
    }

    #[test]
    fn apply_damps_velocity() {
        let (m, d, b) = setup();
        let sp = Sponge::new(
            &m,
            &d,
            &b.points,
            AbsorbingFaces::seismic(),
            1.0,
            5.0,
            0.5,
            1,
        );
        let mut v = vec![1.0; d.n_nodes()];
        sp.apply(&mut v);
        let bottom = d.global_node(0, 0, 0) as usize;
        assert!(v[bottom] < 0.3);
        let center = d.global_node(d.gx / 2, d.gy / 2, d.gz / 2) as usize;
        assert_eq!(v[center], 1.0);
    }

    #[test]
    fn vector_fields_replicate_factors() {
        let (m, d, b) = setup();
        let sp = Sponge::new(
            &m,
            &d,
            &b.points,
            AbsorbingFaces::seismic(),
            1.0,
            2.0,
            0.1,
            3,
        );
        assert_eq!(sp.factor.len(), 3 * d.n_nodes());
        for g in 0..d.n_nodes() {
            assert_eq!(sp.factor[3 * g], sp.factor[3 * g + 1]);
            assert_eq!(sp.factor[3 * g], sp.factor[3 * g + 2]);
        }
    }
}
