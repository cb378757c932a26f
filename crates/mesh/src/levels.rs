//! CFL bounds (Eq. 7), p-level assignment (Sec. II-B) and the LTS speed-up
//! model (Eq. 9).
//!
//! Levels are numbered from the coarsest: level `0` steps with the global
//! `Δt`, level `k` with `Δt / 2^k` (the paper's `P_{k+1}` with
//! `p_{k+1} = 2^k`). An element's level is the smallest `k` such that
//! `Δt / 2^k ≤ C_CFL · h_e / c_e`.

use crate::hex::HexMesh;

/// Default CFL constant used throughout; explicit Newmark on GLL grids is
/// stable for Courant numbers well below this against the *corner-node*
/// `h/c` ratio once the order-dependent GLL spacing factor is folded in.
pub const DEFAULT_CFL: f64 = 0.5;

/// Per-element LTS levels for a mesh.
#[derive(Debug, Clone)]
pub struct Levels {
    /// Level per element; `0` = coarsest.
    pub elem_level: Vec<u8>,
    /// Number of distinct levels `N` (`max(elem_level) + 1`).
    pub n_levels: usize,
    /// The global (coarsest) step `Δt`.
    pub dt_global: f64,
}

impl Levels {
    /// Assign levels from the element CFL ratios of `mesh`.
    ///
    /// `Δt` is chosen as the largest stable step (`C_CFL · max_e h_e/c_e`);
    /// elements with smaller ratios descend to finer levels, capped at
    /// `max_levels`. Elements that would need a level beyond the cap keep the
    /// finest level and the global step is *reduced* so that the finest level
    /// remains stable — mirroring how production codes cap level counts.
    pub fn assign(mesh: &HexMesh, cfl: f64, max_levels: usize) -> Self {
        assert!((1..=16).contains(&max_levels));
        let ne = mesh.n_elems();
        assert!(ne > 0);
        let ratios: Vec<f64> = (0..ne as u32).map(|e| mesh.elem_cfl_ratio(e)).collect();
        let rmax = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let rmin = ratios.iter().cloned().fold(f64::MAX, f64::min);
        // Deepest level needed if Δt = cfl * rmax:
        let needed = (rmax / rmin).log2().ceil().max(0.0) as usize;
        let n_levels_uncapped = needed + 1;
        let (dt_global, depth) = if n_levels_uncapped <= max_levels {
            (cfl * rmax, n_levels_uncapped)
        } else {
            // Cap levels: finest level must still satisfy CFL for the
            // smallest element: Δt / 2^(max_levels-1) ≤ cfl·rmin.
            (cfl * rmin * (1u64 << (max_levels - 1)) as f64, max_levels)
        };
        let mut elem_level = vec![0u8; ne];
        let mut max_seen = 0u8;
        for (e, &r) in ratios.iter().enumerate() {
            // smallest k with Δt/2^k ≤ cfl·r
            let need = dt_global / (cfl * r);
            let k = if need <= 1.0 {
                0
            } else {
                need.log2().ceil() as usize
            };
            let k = k.min(depth - 1) as u8;
            elem_level[e] = k;
            max_seen = max_seen.max(k);
        }
        let mut lv = Levels {
            elem_level,
            n_levels: max_seen as usize + 1,
            dt_global,
        };
        lv.smooth(mesh);
        lv
    }

    /// Build from an explicit per-element level map (used by the benchmark
    /// mesh painters and by tests).
    pub fn from_levels(mesh: &HexMesh, elem_level: Vec<u8>, dt_global: f64) -> Self {
        assert_eq!(elem_level.len(), mesh.n_elems());
        let n_levels = elem_level.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut lv = Levels {
            elem_level,
            n_levels,
            dt_global,
        };
        lv.smooth(mesh);
        lv
    }

    /// Enforce that face-adjacent elements differ by at most one level by
    /// *raising* coarse neighbours (raising is always stable). Iterates to a
    /// fixed point.
    fn smooth(&mut self, mesh: &HexMesh) {
        loop {
            let mut changed = false;
            for e in 0..mesh.n_elems() as u32 {
                let le = self.elem_level[e as usize];
                for nb in mesh.face_neighbors(e) {
                    let ln = self.elem_level[nb as usize];
                    if ln + 1 < le {
                        self.elem_level[nb as usize] = le - 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.n_levels = self.elem_level.iter().copied().max().unwrap_or(0) as usize + 1;
    }

    /// Sub-step multiplier `p = 2^level` for element `e`.
    #[inline]
    pub fn p_of(&self, e: u32) -> u64 {
        1u64 << self.elem_level[e as usize]
    }

    /// `p_max = 2^(N-1)`: the number of fine steps a non-LTS scheme must take
    /// per global `Δt`.
    #[inline]
    pub fn p_max(&self) -> u64 {
        1u64 << (self.n_levels - 1)
    }

    /// Element counts per level, coarsest first.
    pub fn histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.n_levels];
        for &l in &self.elem_level {
            h[l as usize] += 1;
        }
        h
    }

    /// The speed-up model of Eq. 9, generalised to multiple levels:
    /// `p_max · E / Σ_e p_e`. For two levels this reduces exactly to
    /// `p·E / (p·E_fine + E_coarse)`.
    pub fn speedup_model(&self) -> SpeedupModel {
        let e = self.elem_level.len() as f64;
        let lts_cost: u64 = self.elem_level.iter().map(|&l| 1u64 << l).sum();
        SpeedupModel {
            global_cost: self.p_max() as f64 * e,
            lts_cost: lts_cost as f64,
        }
    }
}

/// The work model behind Eq. 9: element at level `k` costs `2^k`
/// element-updates per global `Δt`; a non-LTS scheme pays `p_max` for every
/// element.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupModel {
    /// `p_max · E` — element-updates per `Δt` without LTS.
    pub(crate) global_cost: f64,
    /// `Σ_e p_e` — element-updates per `Δt` with LTS.
    pub(crate) lts_cost: f64,
}

impl SpeedupModel {
    /// Theoretical LTS speed-up (Eq. 9).
    pub fn speedup(&self) -> f64 {
        self.global_cost / self.lts_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_mesh() -> HexMesh {
        // 8×2×2 cells; right half has 4× the wave speed → 4× smaller stable dt
        let mut m = HexMesh::uniform(8, 2, 2, 1.0, 1.0);
        m.paint_box((4, 8), (0, 2), (0, 2), 4.0, 1.0);
        m
    }

    #[test]
    fn two_levels_detected() {
        let m = two_region_mesh();
        let lv = Levels::assign(&m, 0.5, 8);
        // ratio 4 → levels 0 and 2, but smoothing inserts level-1 neighbours
        assert_eq!(lv.n_levels, 3);
        assert_eq!(lv.elem_level[m.elem_id(0, 0, 0) as usize], 0);
        assert_eq!(lv.elem_level[m.elem_id(7, 0, 0) as usize], 2);
        // boundary column of the coarse side got raised to 1 by smoothing
        assert_eq!(lv.elem_level[m.elem_id(3, 0, 0) as usize], 1);
    }

    #[test]
    fn uniform_mesh_single_level() {
        let m = HexMesh::uniform(4, 4, 4, 1.5, 1.0);
        let lv = Levels::assign(&m, 0.5, 8);
        assert_eq!(lv.n_levels, 1);
        assert!(lv.elem_level.iter().all(|&l| l == 0));
        assert!((lv.dt_global - 0.5 * (1.0 / 1.5)).abs() < 1e-12);
        assert!((lv.speedup_model().speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dt_global_stable_everywhere() {
        let m = two_region_mesh();
        let lv = Levels::assign(&m, 0.5, 8);
        for e in 0..m.n_elems() as u32 {
            let dt_e = lv.dt_global / lv.p_of(e) as f64;
            assert!(
                dt_e <= 0.5 * m.elem_cfl_ratio(e) + 1e-12,
                "element {e} stepped unstably"
            );
        }
    }

    #[test]
    fn level_cap_reduces_global_dt() {
        let mut m = HexMesh::uniform(8, 1, 1, 1.0, 1.0);
        m.paint_box((7, 8), (0, 1), (0, 1), 100.0, 1.0); // needs 7 levels
        let lv = Levels::assign(&m, 0.5, 3);
        assert!(lv.n_levels <= 3);
        for e in 0..m.n_elems() as u32 {
            let dt_e = lv.dt_global / lv.p_of(e) as f64;
            assert!(dt_e <= 0.5 * m.elem_cfl_ratio(e) + 1e-12);
        }
    }

    #[test]
    fn smoothing_bounds_level_jumps() {
        let m = two_region_mesh();
        let lv = Levels::assign(&m, 0.5, 8);
        for e in 0..m.n_elems() as u32 {
            for nb in m.face_neighbors(e) {
                let d =
                    (lv.elem_level[e as usize] as i32 - lv.elem_level[nb as usize] as i32).abs();
                assert!(d <= 1, "level jump {d} between {e} and {nb}");
            }
        }
    }

    #[test]
    fn eq9_two_level_form() {
        // 100 elements, 10 fine at p=2: Eq. 9 gives 2*100/(2*10+90) = 1.818…
        let mut m = HexMesh::uniform(100, 1, 1, 1.0, 1.0);
        m.paint_box((0, 10), (0, 1), (0, 1), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 8);
        assert_eq!(lv.n_levels, 2);
        let hist = lv.histogram();
        let e = 100.0;
        let expect = 2.0 * e / (2.0 * hist[1] as f64 + hist[0] as f64);
        assert!((lv.speedup_model().speedup() - expect).abs() < 1e-12);
    }

    #[test]
    fn histogram_sums_to_elements() {
        let m = two_region_mesh();
        let lv = Levels::assign(&m, 0.5, 8);
        assert_eq!(lv.histogram().iter().sum::<usize>(), m.n_elems());
    }
}
