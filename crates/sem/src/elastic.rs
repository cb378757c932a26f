//! The isotropic elastic wave operator (Eqs. 1–2): `ρ ü_i = ∂_j σ_ij`,
//! `σ = λ tr(ε) I + 2μ ε`, discretized by SEM on axis-aligned hexahedra.
//!
//! Three displacement components per GLL node, interleaved
//! (`dof = 3·node + comp`), so the LTS level machinery applies per-DOF with
//! no special cases.

use crate::compiled::{self, CompiledOp, ElasticEngine, EngineScratch, LevelMask, OpWs};
use crate::dofmap::DofMap;
use crate::gll::GllBasis;
use lts_core::DofTopology;
use lts_mesh::HexMesh;

/// Matrix-free SEM operator for the elastic wave equation.
pub struct ElasticOperator {
    pub dofmap: DofMap,
    pub basis: GllBasis,
    hx: Vec<f64>,
    hy: Vec<f64>,
    hz: Vec<f64>,
    lambda: Vec<f64>,
    mu: Vec<f64>,
    /// Diagonal mass, one entry per *DOF* (3 per node).
    mass: Vec<f64>,
    /// Reciprocal mass, so the scatter multiplies instead of divides.
    inv_mass: Vec<f64>,
}

/// `out[a,b,c] = Σ_m D[a][m] f[m,b,c]` (ξ-derivative).
fn deriv_x(d: &[f64], np: usize, f: &[f64], out: &mut [f64]) {
    for c in 0..np {
        for b in 0..np {
            let base = np * (b + np * c);
            for a in 0..np {
                let mut s = 0.0;
                for m in 0..np {
                    s += d[a * np + m] * f[base + m];
                }
                out[base + a] = s;
            }
        }
    }
}

fn deriv_y(d: &[f64], np: usize, f: &[f64], out: &mut [f64]) {
    for c in 0..np {
        for b in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for m in 0..np {
                    s += d[b * np + m] * f[a + np * (m + np * c)];
                }
                out[a + np * (b + np * c)] = s;
            }
        }
    }
}

fn deriv_z(d: &[f64], np: usize, f: &[f64], out: &mut [f64]) {
    for c in 0..np {
        for b in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for m in 0..np {
                    s += d[c * np + m] * f[a + np * (b + np * m)];
                }
                out[a + np * (b + np * c)] = s;
            }
        }
    }
}

/// `out[i,b,c] += Σ_a D[a][i] f[a,b,c]` (transposed ξ-contraction).
fn deriv_x_t_add(d: &[f64], np: usize, f: &[f64], out: &mut [f64]) {
    for c in 0..np {
        for b in 0..np {
            let base = np * (b + np * c);
            for i in 0..np {
                let mut s = 0.0;
                for a in 0..np {
                    s += d[a * np + i] * f[base + a];
                }
                out[base + i] += s;
            }
        }
    }
}

fn deriv_y_t_add(d: &[f64], np: usize, f: &[f64], out: &mut [f64]) {
    for c in 0..np {
        for i in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for b in 0..np {
                    s += d[b * np + i] * f[a + np * (b + np * c)];
                }
                out[a + np * (i + np * c)] += s;
            }
        }
    }
}

fn deriv_z_t_add(d: &[f64], np: usize, f: &[f64], out: &mut [f64]) {
    for i in 0..np {
        for b in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for c in 0..np {
                    s += d[c * np + i] * f[a + np * (b + np * c)];
                }
                out[a + np * (b + np * i)] += s;
            }
        }
    }
}

/// `s.out = K_e · s.u` for one brick element of the isotropic elastic
/// operator (shared by the structured and unstructured variants).
pub(crate) fn elastic_stiffness(
    basis: &GllBasis,
    hx: f64,
    hy: f64,
    hz: f64,
    lam: f64,
    mu: f64,
    s: &mut Scratch,
) {
    let np = basis.n_points();
    let npe = np * np * np;
    let d = &basis.d;
    let jac = 0.125 * hx * hy * hz;
    let g = [2.0 / hx, 2.0 / hy, 2.0 / hz];

    // gradients G[comp][axis] = g[axis] · D_axis u_comp
    for comp in 0..3 {
        deriv_x(d, np, &s.u[comp], &mut s.grad[3 * comp]);
        deriv_y(d, np, &s.u[comp], &mut s.grad[3 * comp + 1]);
        deriv_z(d, np, &s.u[comp], &mut s.grad[3 * comp + 2]);
        for axis in 0..3 {
            for v in s.grad[3 * comp + axis].iter_mut() {
                *v *= g[axis];
            }
        }
    }

    for o in s.out.iter_mut() {
        o.fill(0.0);
    }

    // quadrature weight field, from the fused 3-D weight table
    let wq = |i: usize| -> f64 { basis.wgll3[i] * jac };

    // σ components on the fly; out_i += Σ_j D_jᵀ (wJ g_j σ_ij)
    // diagonal stresses
    for comp in 0..3 {
        for q in 0..npe {
            let tr = s.grad[0][q] + s.grad[4][q] + s.grad[8][q];
            let sii = lam * tr + 2.0 * mu * s.grad[3 * comp + comp][q];
            s.flux[q] = wq(q) * g[comp] * sii;
        }
        match comp {
            0 => deriv_x_t_add(d, np, &s.flux, &mut s.out[0]),
            1 => deriv_y_t_add(d, np, &s.flux, &mut s.out[1]),
            _ => deriv_z_t_add(d, np, &s.flux, &mut s.out[2]),
        }
    }
    // shear stresses σ_ij = μ (∂u_i/∂x_j + ∂u_j/∂x_i), i ≠ j:
    // contributes to out_i along axis j and out_j along axis i
    for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
        for q in 0..npe {
            let sij = mu * (s.grad[3 * i + j][q] + s.grad[3 * j + i][q]);
            s.flux[q] = wq(q) * g[j] * sij;
        }
        match j {
            1 => deriv_y_t_add(d, np, &s.flux, &mut s.out[i]),
            _ => deriv_z_t_add(d, np, &s.flux, &mut s.out[i]),
        }
        for q in 0..npe {
            let sij = mu * (s.grad[3 * i + j][q] + s.grad[3 * j + i][q]);
            s.flux[q] = wq(q) * g[i] * sij;
        }
        match i {
            0 => deriv_x_t_add(d, np, &s.flux, &mut s.out[j]),
            _ => deriv_y_t_add(d, np, &s.flux, &mut s.out[j]),
        }
    }
}

pub(crate) struct Scratch {
    pub(crate) u: [Vec<f64>; 3],
    grad: [Vec<f64>; 9], // grad[3*comp + axis]
    flux: Vec<f64>,
    pub(crate) out: [Vec<f64>; 3],
    /// SoA batch buffers of the SIMD path (`npe · lanes` doubles per field,
    /// lane-minor; `vu`/`vout` component-major, `vgrad` `(3·comp+axis)`-major).
    pub(crate) vu: Vec<f64>,
    pub(crate) vgrad: Vec<f64>,
    pub(crate) vflux: Vec<f64>,
    pub(crate) vout: Vec<f64>,
}

impl EngineScratch for Scratch {
    fn new(npe: usize) -> Self {
        let z = || vec![0.0; npe];
        Scratch {
            u: [z(), z(), z()],
            grad: [z(), z(), z(), z(), z(), z(), z(), z(), z()],
            flux: z(),
            out: [z(), z(), z()],
            vu: Vec::new(),
            vgrad: Vec::new(),
            vflux: Vec::new(),
            vout: Vec::new(),
        }
    }

    fn ensure_lanes(&mut self, npe: usize, lanes: usize) {
        let n = npe * lanes;
        if lanes > 1 && self.vflux.len() < n {
            self.vu.resize(3 * n, 0.0);
            self.vgrad.resize(9 * n, 0.0);
            self.vflux.resize(n, 0.0);
            self.vout.resize(3 * n, 0.0);
        }
    }
}

impl ElasticOperator {
    /// `vs_over_vp` sets the shear speed; the default Poisson solid
    /// (λ = μ) has `vs/vp = 1/√3`.
    pub(crate) fn new(mesh: &HexMesh, order: usize, vs_over_vp: f64) -> Self {
        assert!(
            vs_over_vp > 0.0 && vs_over_vp < std::f64::consts::FRAC_1_SQRT_2,
            "vs/vp must lie in (0, 1/√2) for positive λ"
        );
        let dofmap = DofMap::new(mesh, order);
        let basis = GllBasis::new(order);
        let hx: Vec<f64> = mesh.xs.windows(2).map(|w| w[1] - w[0]).collect();
        let hy: Vec<f64> = mesh.ys.windows(2).map(|w| w[1] - w[0]).collect();
        let hz: Vec<f64> = mesh.zs.windows(2).map(|w| w[1] - w[0]).collect();
        let ne = mesh.n_elems();
        let mut lambda = Vec::with_capacity(ne);
        let mut mu = Vec::with_capacity(ne);
        for e in 0..ne {
            let rho = mesh.density[e];
            let vp = mesh.velocity[e];
            let vs = vp * vs_over_vp;
            let m = rho * vs * vs;
            mu.push(m);
            lambda.push(rho * vp * vp - 2.0 * m);
        }
        let np = basis.n_points();
        let mut mass = vec![0.0; 3 * dofmap.n_nodes()];
        for e in 0..ne as u32 {
            let (ei, ej, ek) = dofmap.elem_ijk(e);
            let jac = 0.125 * hx[ei] * hy[ej] * hz[ek];
            let rho = mesh.density[e as usize];
            for c in 0..np {
                for b in 0..np {
                    let wbc = basis.weights[b] * basis.weights[c];
                    for a in 0..np {
                        let g = dofmap.elem_node(ei, ej, ek, a, b, c) as usize;
                        let m = rho * basis.weights[a] * wbc * jac;
                        mass[3 * g] += m;
                        mass[3 * g + 1] += m;
                        mass[3 * g + 2] += m;
                    }
                }
            }
        }
        let inv_mass = mass.iter().map(|&m| 1.0 / m).collect();
        ElasticOperator {
            dofmap,
            basis,
            hx,
            hy,
            hz,
            lambda,
            mu,
            mass,
            inv_mass,
        }
    }

    /// The Poisson-solid default (`λ = μ`).
    pub fn poisson(mesh: &HexMesh, order: usize) -> Self {
        Self::new(mesh, order, 1.0 / 3.0f64.sqrt())
    }
}

impl CompiledOp for ElasticOperator {
    type Scratch = Scratch;
    const COMPS: usize = 3;

    fn np(&self) -> usize {
        self.basis.n_points()
    }

    fn ids_of(&self, e: u32, out: &mut Vec<u32>) {
        self.dofmap.elem_nodes(e, out);
    }

    fn inv_mass(&self) -> &[f64] {
        &self.inv_mass
    }

    fn run_compiled(
        &self,
        st: &mut OpWs<Scratch>,
        i: usize,
        threads: usize,
        mask: Option<LevelMask>,
        u: &[f64],
        out: &mut [f64],
    ) {
        let engine = |inv_mass: Option<_>| ElasticEngine {
            mask,
            basis: &self.basis,
            inv_mass: inv_mass.unwrap_or(&self.inv_mass),
            npe: self.dofmap.nodes_per_elem(),
            geom: move |e: u32| {
                let (ei, ej, ek) = self.dofmap.elem_ijk(e);
                let (lam, mu) = (self.lambda[e as usize], self.mu[e as usize]);
                (self.hx[ei], self.hy[ej], self.hz[ek], lam, mu)
            },
        };
        st.run_entry(i, threads, engine, u, out);
    }
}

impl DofTopology for ElasticOperator {
    fn n_dofs(&self) -> usize {
        3 * self.dofmap.n_nodes()
    }

    fn n_elems(&self) -> usize {
        self.dofmap.n_elems()
    }

    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
        out.clear();
        let np = self.basis.n_points();
        let (ei, ej, ek) = self.dofmap.elem_ijk(e);
        for c in 0..np {
            for b in 0..np {
                for a in 0..np {
                    let gn = self.dofmap.elem_node(ei, ej, ek, a, b, c);
                    out.push(3 * gn);
                    out.push(3 * gn + 1);
                    out.push(3 * gn + 2);
                }
            }
        }
    }
}

compiled::compiled_operator!(ElasticOperator);

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::Operator;

    fn op() -> ElasticOperator {
        let m = HexMesh::uniform(2, 2, 2, 2.0, 1.3);
        ElasticOperator::poisson(&m, 3)
    }

    fn node_coords(o: &ElasticOperator) -> Vec<(f64, f64, f64)> {
        // uniform unit cells: physical coordinate of each global GLL plane
        let planes = |n: usize| -> Vec<f64> {
            let mut out = Vec::new();
            for e in 0..n {
                for (a, &xi) in o.basis.points.iter().enumerate() {
                    if e > 0 && a == 0 {
                        continue;
                    }
                    out.push(e as f64 + 0.5 * (xi + 1.0));
                }
            }
            out
        };
        let (px, py, pz) = (
            planes(o.dofmap.nx),
            planes(o.dofmap.ny),
            planes(o.dofmap.nz),
        );
        let mut out = Vec::with_capacity(o.dofmap.n_nodes());
        for iz in 0..o.dofmap.gz {
            for iy in 0..o.dofmap.gy {
                for ix in 0..o.dofmap.gx {
                    out.push((px[ix], py[iy], pz[iz]));
                }
            }
        }
        out
    }

    #[test]
    fn rigid_translation_is_nullspace() {
        let o = op();
        let n = o.ndof();
        for comp in 0..3 {
            let mut u = vec![0.0; n];
            for g in 0..o.dofmap.n_nodes() {
                u[3 * g + comp] = 1.0;
            }
            let mut out = vec![0.0; n];
            o.apply(&u, &mut out);
            let max = out.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            assert!(max < 1e-10, "translation {comp}: residual {max}");
        }
    }

    #[test]
    fn rigid_rotation_is_nullspace() {
        // u = ω × x has zero strain; the rotation field is (bi)linear, inside
        // the SEM space, so K·u = 0 to round-off.
        let o = op();
        let coords = node_coords(&o);
        let n = o.ndof();
        let omega = [0.3, -0.7, 0.5];
        let mut u = vec![0.0; n];
        for (g, &(x, y, z)) in coords.iter().enumerate() {
            u[3 * g] = omega[1] * z - omega[2] * y;
            u[3 * g + 1] = omega[2] * x - omega[0] * z;
            u[3 * g + 2] = omega[0] * y - omega[1] * x;
        }
        let mut out = vec![0.0; n];
        o.apply(&u, &mut out);
        let max = out.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(max < 1e-9, "rotation residual {max}");
    }

    #[test]
    fn symmetric_and_psd() {
        let o = op();
        let n = o.ndof();
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 83 % 17) as f64) / 17.0 - 0.5)
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|i| ((i * 29 % 13) as f64) / 13.0 - 0.5)
            .collect();
        let mut au = vec![0.0; n];
        let mut aw = vec![0.0; n];
        o.apply(&u, &mut au);
        o.apply(&w, &mut aw);
        let lhs: f64 = (0..n).map(|i| o.mass[i] * au[i] * w[i]).sum();
        let rhs: f64 = (0..n).map(|i| o.mass[i] * aw[i] * u[i]).sum();
        assert!(
            (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
        let q: f64 = (0..n).map(|i| o.mass[i] * au[i] * u[i]).sum();
        assert!(q > -1e-10, "uᵀKu = {q}");
    }

    #[test]
    fn p_and_s_wave_speeds() {
        // plane waves u = ê f(x): longitudinal (ê = x̂) sees (λ+2μ)/ρ = c_p²;
        // transverse (ê = ŷ) sees μ/ρ = c_s². Use the smooth mode
        // f = cos(πx/L) and check the residual against the exact eigenvalue.
        let m = HexMesh::uniform(4, 1, 1, 2.0, 1.3);
        let o = ElasticOperator::poisson(&m, 6);
        let coords = node_coords(&o);
        let n = o.ndof();
        let l = 4.0;
        let kx = std::f64::consts::PI / l;
        let cp2 = 4.0; // velocity² = 2²
        let cs2 = cp2 / 3.0;
        for (comp, c2) in [(0usize, cp2), (1usize, cs2)] {
            let mut u = vec![0.0; n];
            for (g, &(x, _, _)) in coords.iter().enumerate() {
                u[3 * g + comp] = (kx * x).cos();
            }
            let mut au = vec![0.0; n];
            o.apply(&u, &mut au);
            let expect = c2 * kx * kx;
            // compare on interior nodes in the driven component
            let mut max_rel = 0.0f64;
            for (g, &(x, _, _)) in coords.iter().enumerate() {
                if x < 0.5 || x > l - 0.5 {
                    continue;
                }
                let r = (au[3 * g + comp] - expect * u[3 * g + comp]).abs() / expect;
                max_rel = max_rel.max(r);
            }
            assert!(max_rel < 1e-4, "comp {comp}: relative residual {max_rel}");
        }
    }

    #[test]
    fn masked_sum_equals_full_apply() {
        use lts_core::LtsSetup;
        use lts_mesh::Levels;
        let mut m = HexMesh::uniform(3, 2, 2, 1.0, 1.0);
        m.paint_box((2, 3), (0, 2), (0, 2), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let o = ElasticOperator::poisson(&m, 2);
        let setup = LtsSetup::new(&o, &lv.elem_level);
        let n = o.ndof();
        let u: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let mut full = vec![0.0; n];
        o.apply(&u, &mut full);
        let mut sum = vec![0.0; n];
        for k in 0..setup.n_levels {
            o.apply_masked(&u, &mut sum, &setup.elems[k], &setup.dof_level, k as u8);
        }
        for i in 0..n {
            assert!(
                (full[i] - sum[i]).abs() < 1e-10 * (1.0 + full[i].abs()),
                "dof {i}: {} vs {}",
                full[i],
                sum[i]
            );
        }
    }

    #[test]
    fn mass_accounts_all_density() {
        let o = op();
        let total: f64 = o.mass.iter().sum();
        assert!((total - 3.0 * 1.3 * 8.0).abs() < 1e-9);
    }
}
