//! Random heterogeneous media: smooth, seeded velocity fields for stress
//! tests and workload generation.
//!
//! Real crustal models have continuously varying wave speed; LTS levels then
//! come from the *combination* of geometry and material. This generator
//! synthesises a band-limited random field (a sum of random Fourier modes —
//! the classic von-Kármán-style synthetic media of computational
//! seismology), scaled into `[c_min, c_max]` and sampled per element.
//!
//! Deterministic given the seed; no external RNG dependency (SplitMix64).

use crate::hex::HexMesh;

/// SplitMix64 — tiny, high-quality, reproducible.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parameters of the synthetic medium.
#[derive(Debug, Clone, Copy)]
pub struct MediumConfig {
    pub c_min: f64,
    pub c_max: f64,
    /// Number of random Fourier modes.
    pub n_modes: usize,
    /// Largest wavenumber (cycles per domain extent) — controls the
    /// correlation length (smaller = smoother).
    pub max_wavenumber: f64,
    pub seed: u64,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            c_min: 1.0,
            c_max: 3.0,
            n_modes: 24,
            max_wavenumber: 3.0,
            seed: 1,
        }
    }
}

/// Overwrite `mesh.velocity` with a smooth random field.
pub(crate) fn randomize_velocity(mesh: &mut HexMesh, cfg: &MediumConfig) {
    assert!(cfg.c_max >= cfg.c_min && cfg.c_min > 0.0);
    assert!(cfg.n_modes >= 1);
    let mut rng = SplitMix64(cfg.seed ^ 0xC0FFEE);
    // random modes: amplitude ~ 1/|k| (red spectrum → smooth field)
    let two_pi = std::f64::consts::TAU;
    let (lx, ly, lz) = (
        mesh.xs[mesh.nx] - mesh.xs[0],
        mesh.ys[mesh.ny] - mesh.ys[0],
        mesh.zs[mesh.nz] - mesh.zs[0],
    );
    let modes: Vec<(f64, f64, f64, f64, f64)> = (0..cfg.n_modes)
        .map(|_| {
            let kx = (rng.next_f64() * 2.0 - 1.0) * cfg.max_wavenumber;
            let ky = (rng.next_f64() * 2.0 - 1.0) * cfg.max_wavenumber;
            let kz = (rng.next_f64() * 2.0 - 1.0) * cfg.max_wavenumber;
            let phase = rng.next_f64() * two_pi;
            let knorm = (kx * kx + ky * ky + kz * kz).sqrt().max(0.5);
            (kx, ky, kz, phase, 1.0 / knorm)
        })
        .collect();
    let mut raw = Vec::with_capacity(mesh.n_elems());
    for e in 0..mesh.n_elems() as u32 {
        let (x, y, z) = mesh.elem_center(e);
        let (fx, fy, fz) = (x / lx, y / ly, z / lz);
        let mut s = 0.0;
        for &(kx, ky, kz, phase, amp) in &modes {
            s += amp * (two_pi * (kx * fx + ky * fy + kz * fz) + phase).sin();
        }
        raw.push(s);
    }
    let lo = raw.iter().cloned().fold(f64::MAX, f64::min);
    let hi = raw.iter().cloned().fold(f64::MIN, f64::max);
    let span = (hi - lo).max(1e-300);
    for (v, r) in mesh.velocity.iter_mut().zip(&raw) {
        *v = cfg.c_min + (cfg.c_max - cfg.c_min) * (r - lo) / span;
    }
}

/// Build a random-media cube mesh with ~`target_elems` elements.
pub fn random_media_cube(target_elems: usize, cfg: &MediumConfig) -> HexMesh {
    let n = (target_elems as f64).cbrt().round().max(4.0) as usize;
    let mut mesh = HexMesh::uniform(n, n, n, cfg.c_min, 1.0);
    randomize_velocity(&mut mesh, cfg);
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::Levels;

    #[test]
    fn velocities_within_bounds() {
        let cfg = MediumConfig {
            c_min: 1.5,
            c_max: 4.0,
            ..Default::default()
        };
        let m = random_media_cube(2_000, &cfg);
        for &c in &m.velocity {
            assert!((1.5..=4.0).contains(&c), "c = {c}");
        }
        // the full range is actually used (min/max achieved)
        let lo = m.velocity.iter().cloned().fold(f64::MAX, f64::min);
        let hi = m.velocity.iter().cloned().fold(f64::MIN, f64::max);
        assert!((lo - 1.5).abs() < 1e-12);
        assert!((hi - 4.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MediumConfig::default();
        let a = random_media_cube(1_000, &cfg);
        let b = random_media_cube(1_000, &cfg);
        assert_eq!(a.velocity, b.velocity);
        let c = random_media_cube(1_000, &MediumConfig { seed: 2, ..cfg });
        assert_ne!(a.velocity, c.velocity);
    }

    #[test]
    fn field_is_smooth() {
        // neighbouring elements should differ by far less than the range
        let cfg = MediumConfig {
            max_wavenumber: 2.0,
            ..Default::default()
        };
        let m = random_media_cube(8_000, &cfg);
        let mut max_jump = 0.0f64;
        for e in 0..m.n_elems() as u32 {
            for nb in m.face_neighbors(e) {
                max_jump = max_jump.max((m.velocity[e as usize] - m.velocity[nb as usize]).abs());
            }
        }
        assert!(max_jump < 0.5 * (cfg.c_max - cfg.c_min), "jump {max_jump}");
    }

    #[test]
    fn induces_multiple_lts_levels() {
        let cfg = MediumConfig {
            c_min: 1.0,
            c_max: 4.5,
            ..Default::default()
        };
        let m = random_media_cube(4_000, &cfg);
        let lv = Levels::assign(&m, 0.5, 4);
        assert!(lv.n_levels >= 3, "levels {}", lv.n_levels);
        assert!(lv.speedup_model().speedup() > 1.0);
        // smooth media → conforming levels come out naturally
        for e in 0..m.n_elems() as u32 {
            for nb in m.face_neighbors(e) {
                let d =
                    (lv.elem_level[e as usize] as i32 - lv.elem_level[nb as usize] as i32).abs();
                assert!(d <= 1);
            }
        }
    }
}
