//! The scalar (acoustic) wave operator: `ρ ü = ∇·(μ ∇u)` with `μ = ρc²`,
//! discretized by SEM on axis-aligned hexahedra.
//!
//! `A = M⁻¹K` is applied matrix-free per element with sum-factorised
//! tensor-product contractions; the mass matrix is diagonal by GLL
//! quadrature. Implements [`lts_core::Operator`] (full and *masked* products)
//! and [`lts_core::DofTopology`] so both Newmark and LTS-Newmark drive it
//! directly.

use crate::compiled::{self, AcousticEngine, CompiledOp, LevelMask, OpWs, ScalarScratch};
use crate::dofmap::DofMap;
use crate::gll::GllBasis;
use lts_core::DofTopology;
use lts_mesh::HexMesh;

/// Matrix-free SEM operator for the scalar wave equation.
pub struct AcousticOperator {
    pub dofmap: DofMap,
    pub basis: GllBasis,
    /// Per-axis cell sizes.
    hx: Vec<f64>,
    hy: Vec<f64>,
    hz: Vec<f64>,
    /// Per-element stiffness coefficient `μ_e = ρ_e c_e²`.
    mu: Vec<f64>,
    /// Global diagonal mass.
    mass: Vec<f64>,
    /// Reciprocal mass, so the scatter multiplies instead of divides.
    inv_mass: Vec<f64>,
}

impl AcousticOperator {
    pub fn new(mesh: &HexMesh, order: usize) -> Self {
        let dofmap = DofMap::new(mesh, order);
        let basis = GllBasis::new(order);
        let hx: Vec<f64> = mesh.xs.windows(2).map(|w| w[1] - w[0]).collect();
        let hy: Vec<f64> = mesh.ys.windows(2).map(|w| w[1] - w[0]).collect();
        let hz: Vec<f64> = mesh.zs.windows(2).map(|w| w[1] - w[0]).collect();
        let ne = mesh.n_elems();
        let mu: Vec<f64> = (0..ne)
            .map(|e| mesh.density[e] * mesh.velocity[e] * mesh.velocity[e])
            .collect();

        // diagonal mass: M_g = Σ_e ρ_e w_a w_b w_c J_e
        let mut mass = vec![0.0; dofmap.n_nodes()];
        let np = basis.n_points();
        for e in 0..ne as u32 {
            let (ei, ej, ek) = dofmap.elem_ijk(e);
            let jac = 0.125 * hx[ei] * hy[ej] * hz[ek];
            let rho = mesh.density[e as usize];
            for c in 0..np {
                for b in 0..np {
                    let wbc = basis.weights[b] * basis.weights[c];
                    for a in 0..np {
                        let g = dofmap.elem_node(ei, ej, ek, a, b, c) as usize;
                        mass[g] += rho * basis.weights[a] * wbc * jac;
                    }
                }
            }
        }
        let inv_mass = mass.iter().map(|&m| 1.0 / m).collect();
        AcousticOperator {
            dofmap,
            basis,
            hx,
            hy,
            hz,
            mu,
            mass,
            inv_mass,
        }
    }
}

impl CompiledOp for AcousticOperator {
    type Scratch = ScalarScratch;
    const COMPS: usize = 1;

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
        st: &mut OpWs<ScalarScratch>,
        i: usize,
        threads: usize,
        mask: Option<LevelMask>,
        u: &[f64],
        out: &mut [f64],
    ) {
        let engine = |inv_mass: Option<_>| AcousticEngine {
            mask,
            basis: &self.basis,
            inv_mass: inv_mass.unwrap_or(&self.inv_mass),
            npe: self.dofmap.nodes_per_elem(),
            geom: move |e: u32| {
                let (ei, ej, ek) = self.dofmap.elem_ijk(e);
                (self.hx[ei], self.hy[ej], self.hz[ek], self.mu[e as usize])
            },
        };
        st.run_entry(i, threads, engine, u, out);
    }
}

impl DofTopology for AcousticOperator {
    fn n_dofs(&self) -> usize {
        self.dofmap.n_nodes()
    }

    fn n_elems(&self) -> usize {
        self.dofmap.n_elems()
    }

    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
        self.dofmap.elem_nodes(e, out);
    }
}

compiled::compiled_operator!(AcousticOperator);

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::{Operator, Workspace};

    fn small_op(order: usize) -> (HexMesh, AcousticOperator) {
        let m = HexMesh::uniform(2, 2, 2, 1.5, 1.2);
        let op = AcousticOperator::new(&m, order);
        (m, op)
    }

    #[test]
    fn total_mass_is_density_times_volume() {
        let (_m, op) = small_op(4);
        let total: f64 = op.mass.iter().sum();
        let volume = 2.0 * 2.0 * 2.0;
        assert!((total - 1.2 * volume).abs() < 1e-10, "{total}");
        assert!(op.mass.iter().all(|&mg| mg > 0.0));
    }

    #[test]
    fn constant_field_in_kernel() {
        // K·const = 0 (pure Neumann operator annihilates constants)
        let (_, op) = small_op(4);
        let u = vec![3.7; op.dofmap.n_nodes()];
        let mut out = vec![0.0; op.dofmap.n_nodes()];
        op.apply(&u, &mut out);
        for (i, &o) in out.iter().enumerate() {
            assert!(o.abs() < 1e-10, "dof {i}: {o}");
        }
    }

    #[test]
    fn linear_field_interior_residual_zero() {
        // u = x is in the SEM space; K·x has only (free-)boundary rows
        // nonzero... with natural BC, ∫μ∇φ·∇u = boundary flux term which is
        // nonzero only for boundary basis functions on x-faces.
        let m = HexMesh::uniform(3, 2, 2, 1.0, 1.0);
        let op = AcousticOperator::new(&m, 3);
        let b = GllBasis::new(3);
        let d = &op.dofmap;
        let mut u = vec![0.0; d.n_nodes()];
        // physical x of global plane index
        let mut px = Vec::new();
        for e in 0..3 {
            for (a, &xi) in b.points.iter().enumerate() {
                if e > 0 && a == 0 {
                    continue;
                }
                px.push(e as f64 + 0.5 * (xi + 1.0));
            }
        }
        for iz in 0..d.gz {
            for iy in 0..d.gy {
                for ix in 0..d.gx {
                    u[d.global_node(ix, iy, iz) as usize] = px[ix];
                }
            }
        }
        let mut out = vec![0.0; d.n_nodes()];
        op.apply(&u, &mut out);
        for iz in 0..d.gz {
            for iy in 0..d.gy {
                for ix in 1..d.gx - 1 {
                    let g = d.global_node(ix, iy, iz) as usize;
                    assert!(out[g].abs() < 1e-9, "interior ({ix},{iy},{iz}): {}", out[g]);
                }
            }
        }
        // boundary x-faces see the flux
        let g0 = d.global_node(0, 1, 1) as usize;
        assert!(out[g0].abs() > 1e-6);
    }

    #[test]
    fn operator_is_symmetric_in_m_inner_product() {
        // (M A u)·w = (M A w)·u since K is symmetric
        let (_, op) = small_op(3);
        let n = op.dofmap.n_nodes();
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 83 % 17) as f64) / 17.0 - 0.5)
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|i| ((i * 29 % 13) as f64) / 13.0 - 0.5)
            .collect();
        let mut au = vec![0.0; n];
        let mut aw = vec![0.0; n];
        op.apply(&u, &mut au);
        op.apply(&w, &mut aw);
        let lhs: f64 = (0..n).map(|i| op.mass[i] * au[i] * w[i]).sum();
        let rhs: f64 = (0..n).map(|i| op.mass[i] * aw[i] * u[i]).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn operator_is_positive_semidefinite() {
        let (_, op) = small_op(2);
        let n = op.dofmap.n_nodes();
        for seed in 0..5u64 {
            let u: Vec<f64> = (0..n)
                .map(|i| {
                    (((i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(seed)
                        >> 33) as f64
                        / 2.0_f64.powi(31))
                        - 0.5
                })
                .collect();
            let mut au = vec![0.0; n];
            op.apply(&u, &mut au);
            let q: f64 = (0..n).map(|i| op.mass[i] * au[i] * u[i]).sum();
            assert!(q > -1e-10, "uᵀKu = {q}");
        }
    }

    #[test]
    fn masked_sum_equals_full_apply() {
        use lts_core::LtsSetup;
        use lts_mesh::Levels;
        let mut m = HexMesh::uniform(4, 2, 2, 1.0, 1.0);
        m.paint_box((3, 4), (0, 2), (0, 2), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let op = AcousticOperator::new(&m, 3);
        let setup = LtsSetup::new(&op, &lv.elem_level);
        let n = op.dofmap.n_nodes();
        let u: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
        let mut full = vec![0.0; n];
        op.apply(&u, &mut full);
        let mut sum = vec![0.0; n];
        for k in 0..setup.n_levels {
            op.apply_masked(&u, &mut sum, &setup.elems[k], &setup.dof_level, k as u8);
        }
        for i in 0..n {
            assert!(
                (full[i] - sum[i]).abs() < 1e-11 * (1.0 + full[i].abs()),
                "dof {i}: {} vs {}",
                full[i],
                sum[i]
            );
        }
    }

    /// A compiled masked entry stores no f64 per gathered node: its heap is
    /// one `u32` per gathered node-lane of its one id table, the `u32`
    /// key, order and unit offsets, and one pure-flag byte per unit.
    #[test]
    fn compiled_masked_entry_holds_no_f64_per_gathered_node() {
        use crate::simd::ForceVariant;
        use lts_core::LtsSetup;
        use lts_mesh::Levels;
        let mut m = HexMesh::uniform(6, 3, 3, 1.0, 1.0);
        m.paint_box((4, 6), (0, 3), (0, 3), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let op = AcousticOperator::new(&m, 3);
        let setup = LtsSetup::new(&op, &lv.elem_level);
        assert!(setup.n_levels > 1);
        let npe = op.dofmap.nodes_per_elem();
        for variant in crate::simd::supported_variants() {
            let _force = ForceVariant::new(variant);
            for l in 0..setup.n_levels {
                let mut ws = Workspace::new();
                op.precompile_masked(&setup.elems[l], &setup.dof_level, l as u8, &mut ws);
                let (st, _) = compiled::op_state(&op, &mut ws);
                let en = st.cache.entry(0);
                let n_elems = setup.elems[l].len();
                let units = en.n_units();
                assert_eq!(en.lanes, crate::simd::batch_lanes(variant, 4));
                assert!(units >= n_elems.div_ceil(en.lanes));
                if en.lanes == 1 {
                    assert_eq!(units, n_elems);
                }
                let node_lanes = units * npe * en.lanes;
                assert_eq!(en.tidx.len(), node_lanes);
                assert_eq!(en.unit_pure.len(), units);
                // key + order, unit offsets and the id table as u32; one
                // flag per unit
                let want = 4 * (2 * n_elems + en.unit_off.len() + units + 1 + node_lanes) + units;
                assert_eq!(en.heap_bytes(), want, "level {l}, {variant:?}");
            }
        }
    }

    /// Switching the kernel variant on one workspace rebuilds the entry's
    /// table in place at the new width, and the fields stay bitwise equal.
    #[test]
    fn variant_switch_rebuilds_the_table_and_keeps_fields() {
        use crate::simd::{ForceVariant, KernelVariant};
        use lts_core::LtsSetup;
        use lts_mesh::Levels;
        let mut m = HexMesh::uniform(6, 3, 3, 1.0, 1.0);
        m.paint_box((4, 6), (0, 3), (0, 3), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let op = AcousticOperator::new(&m, 4);
        let setup = LtsSetup::new(&op, &lv.elem_level);
        let n = op.dofmap.n_nodes();
        let u: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let level = setup.n_levels - 1;
        let elems = &setup.elems[level];
        let mut ws = Workspace::new();
        let mut fields = Vec::new();
        for v in [
            KernelVariant::Avx512,
            KernelVariant::Scalar,
            KernelVariant::Avx512,
        ] {
            let _force = ForceVariant::new(v);
            let mut out = vec![0.0; n];
            op.apply_masked_ws(&u, &mut out, elems, &setup.dof_level, level as u8, &mut ws);
            let (st, _) = compiled::op_state(&op, &mut ws);
            let en = st.cache.entry(0);
            assert_eq!(en.variant, crate::simd::active());
            assert_eq!(en.lanes, crate::simd::batch_lanes(en.variant, 5));
            assert_eq!(
                en.tidx.len(),
                en.n_units() * op.dofmap.nodes_per_elem() * en.lanes
            );
            assert!(st.cache.find(level as u16, elems) == Some(0));
            fields.push(out.iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
        }
        assert!(fields.iter().all(|f| *f == fields[0]));
    }

    #[test]
    fn eigenmode_residual_shrinks_with_order() {
        // u = cos(πx/L) is an approximate eigenfunction with eigenvalue
        // (π/L)²c²; the SEM residual must fall rapidly with order.
        let mut prev = f64::MAX;
        for order in [2usize, 4, 6] {
            let m = HexMesh::uniform(3, 1, 1, 1.0, 1.0);
            let op = AcousticOperator::new(&m, order);
            let b = GllBasis::new(order);
            let d = &op.dofmap;
            let l = 3.0;
            let kx = std::f64::consts::PI / l;
            let mut px = Vec::new();
            for e in 0..3 {
                for (a, &xi) in b.points.iter().enumerate() {
                    if e > 0 && a == 0 {
                        continue;
                    }
                    px.push(e as f64 + 0.5 * (xi + 1.0));
                }
            }
            let n = d.n_nodes();
            let mut u = vec![0.0; n];
            for iz in 0..d.gz {
                for iy in 0..d.gy {
                    for ix in 0..d.gx {
                        u[d.global_node(ix, iy, iz) as usize] = (kx * px[ix]).cos();
                    }
                }
            }
            let mut au = vec![0.0; n];
            op.apply(&u, &mut au);
            let resid: f64 = (0..n)
                .map(|i| (au[i] - kx * kx * u[i]).abs())
                .fold(0.0, f64::max);
            assert!(resid < prev, "order {order}: residual {resid} vs {prev}");
            prev = resid;
        }
        assert!(prev < 1e-6, "order-6 residual {prev}");
    }
}
