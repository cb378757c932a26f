//! Spectral utilities for stability analysis.
//!
//! Explicit Newmark/leap-frog on `ü = −A u` is stable iff
//! `Δt ≤ 2/√λ_max(A)`; the CFL heuristics (Eq. 7) are proxies for this. For
//! small systems the exact bound is computable by power iteration on the
//! matrix-free operator, which lets tests verify both the sharpness of the
//! mesh-level CFL constants and the LTS stability region (each level stable
//! iff its `Δt/2^k` respects the level's own spectral bound).

use crate::operator::Operator;

/// Largest eigenvalue of `A` (`= M⁻¹K`, symmetric in the M-inner product,
/// non-negative spectrum) by power iteration. Deterministic start vector.
pub(crate) fn spectral_radius<O: Operator>(op: &O, iters: usize) -> f64 {
    let n = op.ndof();
    assert!(n > 0);
    let mut x: Vec<f64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 + 0.1)
        .collect();
    let mut y = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        op.apply(&x, &mut y);
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        // A bitwise-zero iterate means the operator annihilated x.
        if norm == 0.0 {
            return 0.0;
        }
        // Rayleigh quotient in the M-inner product: xᵀM A x / xᵀM x
        let mass = op.mass();
        let num: f64 = (0..n).map(|i| x[i] * mass[i] * y[i]).sum();
        let den: f64 = (0..n).map(|i| x[i] * mass[i] * x[i]).sum();
        lambda = num / den;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    lambda
}

/// The exact explicit-Newmark stability bound `Δt_max = 2/√λ_max`.
pub fn exact_stable_dt<O: Operator>(op: &O, iters: usize) -> f64 {
    let lambda = spectral_radius(op, iters);
    if lambda <= 0.0 {
        f64::INFINITY
    } else {
        2.0 / lambda.sqrt()
    }
}

/// Empirically probe stability: run `steps` leap-frog steps from a rough
/// state and report whether the norm stayed bounded by `limit`.
pub fn is_stable_at<O: Operator>(op: &O, dt: f64, steps: usize, limit: f64) -> bool {
    let n = op.ndof();
    let mut u: Vec<f64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(6364136223846793005) % 997) as f64 / 997.0 - 0.5)
        .collect();
    let mut v = vec![0.0; n];
    let mut nm = crate::newmark::Newmark::new(op, dt);
    for s in 0..steps {
        nm.step(&mut u, &mut v, s as f64 * dt, &[]);
        if !u.iter().all(|x| x.is_finite()) {
            return false;
        }
    }
    u.iter().map(|x| x * x).sum::<f64>().sqrt() < limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain1d::Chain1d;

    #[test]
    fn uniform_chain_spectrum_known() {
        // interior-dominated lumped P1 chain: λ_max → 4c²/h² as n → ∞;
        // for finite free chains λ_max = (4/h²)·... bounded by 4
        let c = Chain1d::uniform(40, 1.0, 1.0);
        let lam = spectral_radius(&c, 300);
        assert!((3.8..=4.0 + 1e-9).contains(&lam), "λ_max = {lam}");
        let dt_max = exact_stable_dt(&c, 300);
        assert!((0.99..=1.03).contains(&dt_max), "dt_max = {dt_max}");
    }

    #[test]
    fn stability_boundary_is_sharp() {
        let c = Chain1d::uniform(24, 1.0, 1.0);
        let dt_max = exact_stable_dt(&c, 400);
        assert!(is_stable_at(&c, 0.98 * dt_max, 2_000, 1e3));
        assert!(!is_stable_at(&c, 1.05 * dt_max, 2_000, 1e3));
    }

    #[test]
    fn cfl_heuristic_is_conservative() {
        // the mesh-level bound 0.5·h/c must sit inside the true region
        let c = Chain1d::with_velocities(vec![1.0, 2.0, 1.0, 3.0, 1.5], 1.0);
        let heuristic = 0.5 * (0..5).map(|e| c.elem_cfl_ratio(e)).fold(f64::MAX, f64::min);
        let exact = exact_stable_dt(&c, 400);
        assert!(heuristic < exact, "heuristic {heuristic} vs exact {exact}");
    }

    #[test]
    fn spectral_radius_scales_with_velocity() {
        let slow = Chain1d::uniform(16, 1.0, 1.0);
        let fast = Chain1d::uniform(16, 3.0, 1.0);
        let r = spectral_radius(&fast, 200) / spectral_radius(&slow, 200);
        assert!((r - 9.0).abs() < 0.2, "λ ratio {r} (expected c² = 9)");
    }

    #[test]
    fn lts_extends_the_stability_region() {
        use crate::lts::LtsNewmark;
        use crate::setup::LtsSetup;
        // chain with a 4× fast tail: global Newmark must shrink dt by 4;
        // LTS runs at the coarse bound
        let mut vel = vec![1.0; 20];
        for v in vel.iter_mut().skip(15) {
            *v = 4.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let exact = exact_stable_dt(&c, 400); // ≈ 0.25 (fine-limited)
        assert!(exact < 0.3);
        let (lv, dt) = c.assign_levels(0.5, 3);
        assert!(
            dt > exact,
            "LTS coarse step {dt} exceeds the global bound {exact}"
        );
        let setup = LtsSetup::new(&c, &lv);
        let mut u: Vec<f64> = (0..21).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut v = vec![0.0; 21];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.run(&mut u, &mut v, 0.0, 1_000, &[]);
        let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm.is_finite() && norm < 1e3, "LTS unstable: {norm}");
    }
}
