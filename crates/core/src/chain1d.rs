//! A 1-D wave chain: linear (P1) finite elements for `ρ ü = ∂x(μ ∂x u)`.
//!
//! This is the setting of the paper's Fig. 1 (a 1-D mesh with a fine and a
//! coarse region split across two processors). It implements the
//! [`Operator`]/[`DofTopology`] traits with exactly the structure of the SEM
//! operator — diagonal mass, element-local stiffness, shared nodes between
//! neighbouring elements — so every LTS code path is exercised by cheap,
//! exactly checkable problems.

use crate::operator::{DofTopology, Operator};

/// Interval elements, each coupling the two DOFs of its node pair: `n`
/// elements and `n+1` DOFs, element `e` on DOFs `e`, `e+1`, until a
/// sub-chain changes the pairs.
#[derive(Debug, Clone)]
pub struct Chain1d {
    /// Element lengths.
    pub h: Vec<f64>,
    /// Element stiffness coefficient `μ_e = ρ_e c_e²`.
    pub(crate) mu: Vec<f64>,
    /// Element density.
    pub(crate) rho: Vec<f64>,
    /// Lumped diagonal mass per DOF (in the external numbering).
    mass: Vec<f64>,
    /// The left and right DOF of each element (in the external numbering).
    nodes: Vec<[u32; 2]>,
}

impl Chain1d {
    pub(crate) fn new(h: Vec<f64>, velocity: Vec<f64>, rho: Vec<f64>) -> Self {
        let n = h.len();
        assert!(n >= 1 && velocity.len() == n && rho.len() == n);
        assert!(h.iter().all(|&x| x > 0.0));
        let mu: Vec<f64> = (0..n).map(|e| rho[e] * velocity[e] * velocity[e]).collect();
        let mut mass = vec![0.0; n + 1];
        for e in 0..n {
            let m = 0.5 * rho[e] * h[e];
            mass[e] += m;
            mass[e + 1] += m;
        }
        Chain1d {
            h,
            mu,
            rho,
            mass,
            nodes: (0..n as u32).map(|e| [e, e + 1]).collect(),
        }
    }

    /// Uniform chain: unit spacing, constant velocity and density.
    pub fn uniform(n: usize, velocity: f64, rho: f64) -> Self {
        Self::new(vec![1.0; n], vec![velocity; n], vec![rho; n])
    }

    /// Chain with per-element velocities on a unit grid.
    pub fn with_velocities(velocity: Vec<f64>, rho: f64) -> Self {
        let n = velocity.len();
        Self::new(vec![1.0; n], velocity, vec![rho; n])
    }

    pub(crate) fn n_elems(&self) -> usize {
        self.h.len()
    }

    /// The sub-chain over `elems` (ascending), with its DOFs numbered
    /// compactly by [`crate::setup::local_numbering`] (level-grouped over
    /// the leaf levels `leaf_of(g)`, ascending global DOF within a level),
    /// the global DOF of each local one, and the local DOFs per leaf level.
    /// Masses are this chain's, so the sub-chain's masked product does the
    /// same arithmetic on the DOFs it holds. `local_of_global` is a dense
    /// map over this chain's DOFs, every entry [`crate::setup::UNMAPPED`] on
    /// entry; on return it maps the sub-chain's DOFs to their local ids, for
    /// the caller to use and clear, as [`crate::setup::local_numbering`]
    /// leaves it.
    pub fn subset(
        &self,
        elems: &[u32],
        leaf_of: &dyn Fn(u32) -> u8,
        local_of_global: &mut [u32],
    ) -> (Chain1d, Vec<u32>, Vec<usize>) {
        let pair = |e: u32, buf: &mut Vec<u32>| {
            buf.clear();
            buf.extend_from_slice(&self.nodes[e as usize]);
        };
        let (elem_nodes, global_of_local, level_counts) =
            crate::setup::local_numbering(elems, 2, pair, leaf_of, local_of_global);
        let pick = |x: &[f64]| elems.iter().map(|&e| x[e as usize]).collect();
        let sub = Chain1d {
            h: pick(&self.h),
            mu: pick(&self.mu),
            rho: pick(&self.rho),
            mass: global_of_local
                .iter()
                .map(|&g| self.mass[g as usize])
                .collect(),
            nodes: elem_nodes.chunks_exact(2).map(|p| [p[0], p[1]]).collect(),
        };
        (sub, global_of_local, level_counts)
    }

    /// Stable step bound for element `e` (`h_e / c_e`).
    pub(crate) fn elem_cfl_ratio(&self, e: usize) -> f64 {
        self.h[e] / (self.mu[e] / self.rho[e]).sqrt()
    }

    /// Assign power-of-two levels from the CFL ratios, smoothing so
    /// neighbouring elements differ by at most one level. Returns
    /// `(elem_level, dt_global)` for the given CFL constant.
    pub fn assign_levels(&self, cfl: f64, max_levels: usize) -> (Vec<u8>, f64) {
        let n = self.n_elems();
        let ratios: Vec<f64> = (0..n).map(|e| self.elem_cfl_ratio(e)).collect();
        let rmax = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let dt = cfl * rmax;
        let mut level: Vec<u8> = ratios
            .iter()
            .map(|&r| {
                let need = dt / (cfl * r);
                let k = if need <= 1.0 {
                    0
                } else {
                    need.log2().ceil() as usize
                };
                k.min(max_levels - 1) as u8
            })
            .collect();
        // smooth (raise coarse neighbours)
        loop {
            let mut changed = false;
            for e in 0..n {
                for nb in [e.wrapping_sub(1), e + 1] {
                    if nb < n && level[nb] + 1 < level[e] {
                        level[nb] = level[e] - 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        (level, dt)
    }
}

impl DofTopology for Chain1d {
    fn n_dofs(&self) -> usize {
        self.mass.len()
    }

    fn n_elems(&self) -> usize {
        self.h.len()
    }

    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.nodes[e as usize]);
    }
}

impl Operator for Chain1d {
    fn ndof(&self) -> usize {
        self.mass.len()
    }

    fn apply_ws(&self, u: &[f64], out: &mut [f64], ws: &mut crate::Workspace) {
        debug_assert_eq!(u.len(), self.mass.len());
        let at = internal(ws.order());
        out.fill(0.0);
        for (e, &[l, r]) in self.nodes.iter().enumerate() {
            let (l, r) = (at(l), at(r));
            let k = self.mu[e] / self.h[e];
            let d = k * (u[l] - u[r]);
            out[l] += d;
            out[r] -= d;
        }
        for (g, m) in self.mass.iter().enumerate() {
            out[at(g as u32)] /= m;
        }
    }

    fn apply_masked_ws(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut crate::Workspace,
    ) {
        let at = internal(ws.order());
        for &e in elems {
            let e = e as usize;
            let [gl, gr] = self.nodes[e];
            let (l, r) = (at(gl), at(gr));
            let ul = if dof_level[l] == level { u[l] } else { 0.0 };
            let ur = if dof_level[r] == level { u[r] } else { 0.0 };
            let k = self.mu[e] / self.h[e];
            let d = k * (ul - ur);
            out[l] += d / self.mass[gl as usize];
            out[r] -= d / self.mass[gr as usize];
        }
    }

    fn mass(&self) -> &[f64] {
        &self.mass
    }
}

/// Where caller DOF `d` sits under the workspace order `pos`.
fn internal(pos: Option<&[u32]>) -> impl Fn(u32) -> usize + '_ {
    move |d| pos.map_or(d, |p| p[d as usize]) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_is_row_sum_of_elements() {
        let c = Chain1d::uniform(4, 1.0, 2.0);
        assert_eq!(c.mass(), &[1.0, 2.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn apply_is_discrete_laplacian() {
        // uniform chain: A u = −(c²/h²)·tridiag(1, −2, 1) scaled by lumped mass
        let c = Chain1d::uniform(4, 1.0, 1.0);
        let u = vec![0.0, 1.0, 0.0, 0.0, 0.0];
        let mut out = vec![0.0; 5];
        c.apply(&u, &mut out);
        // K row for dof 1: 2·u1 − u0 − u2 = 2; M_1 = 1 → 2
        assert!((out[1] - 2.0).abs() < 1e-14);
        // boundary dof 0 has half mass (0.5): (u0 − u1)/M_0 = −1/0.5 = −2
        assert!((out[0] + 2.0).abs() < 1e-14);
        assert!((out[2] + 1.0).abs() < 1e-14);
        assert_eq!(out[3], 0.0);
    }

    #[test]
    fn masked_sum_equals_full_apply() {
        // Σ_k A P_k u = A u when element lists cover each level's support
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 2.0, 2.0], 1.0);
        let (lv, _) = c.assign_levels(0.5, 4);
        let setup = crate::setup::LtsSetup::new(&c, &lv);
        let u: Vec<f64> = (0..5).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut full = vec![0.0; 5];
        c.apply(&u, &mut full);
        let mut sum = vec![0.0; 5];
        for k in 0..setup.n_levels {
            c.apply_masked(&u, &mut sum, &setup.elems[k], &setup.dof_level, k as u8);
        }
        for i in 0..5 {
            assert!(
                (full[i] - sum[i]).abs() < 1e-13,
                "dof {i}: {} vs {}",
                full[i],
                sum[i]
            );
        }
    }

    #[test]
    fn levels_follow_velocity() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 4.0, 4.0], 1.0);
        let (lv, dt) = c.assign_levels(0.5, 8);
        assert_eq!(lv, vec![0, 0, 1, 2, 2]); // smoothing inserts the 1
        assert!((dt - 0.5).abs() < 1e-14);
    }

    #[test]
    fn a_is_positive_semidefinite_in_m_inner_product() {
        let c = Chain1d::with_velocities(vec![1.0, 2.0, 3.0], 1.5);
        let u: Vec<f64> = vec![0.3, -0.2, 0.9, 0.1];
        let mut au = vec![0.0; 4];
        c.apply(&u, &mut au);
        let quad: f64 = (0..4).map(|i| u[i] * c.mass()[i] * au[i]).sum();
        assert!(quad >= -1e-13, "uᵀKu = {quad}");
    }
}
