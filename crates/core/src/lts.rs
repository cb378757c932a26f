//! The production multi-level LTS-Newmark stepper (Algorithm 1 generalised
//! recursively), performing only *masked* work.
//!
//! One global step of size `Δt`:
//!
//! ```text
//! f₀ = A P₀ uⁿ                               (frozen over the step)
//! ũ  = aux(1, uⁿ)                            (advance levels ≥ 1 by Δt)
//! vⁿ⁺¹ᐟ² = vⁿ⁻¹ᐟ² + 2(ũ − uⁿ)/Δt             on active(1)
//! vⁿ⁺¹ᐟ² = vⁿ⁻¹ᐟ² − Δt·f₀                    on leaf(0)   (≡ plain Newmark)
//! uⁿ⁺¹   = uⁿ + Δt vⁿ⁺¹ᐟ²
//! ```
//!
//! where `aux(k, ·)` integrates the level-`k` auxiliary system (Eq. 11/17)
//! with `ṽ(0) = 0` over two sub-steps of `Δt_k = Δt/2^k`, recomputing its own
//! contribution `f_k = A P_k ũ_m` each sub-step, delegating the finer levels
//! recursively, and recovering velocities from displacement differences.
//! DOFs whose force is constant during a child's integration (the
//! `leaf` sets) take plain leap-frog sub-steps — analytically identical to
//! the recovery (validated against [`crate::reference`] to round-off).

use crate::operator::{Operator, Source, Workspace};
use crate::setup::LtsSetup;

/// Work counters for the Eq. 9 efficiency accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct LtsStats {
    /// Element-operations performed (one per element per masked product).
    pub elem_ops: u64,
    /// Global steps taken.
    pub n_steps: u64,
}

/// Multi-level LTS-Newmark stepper.
pub struct LtsNewmark<'a, O: Operator> {
    pub op: &'a O,
    pub setup: &'a LtsSetup,
    /// The global (coarsest) step `Δt`.
    pub dt: f64,
    /// Auxiliary displacement/velocity per level. Level 0 steps `u`/`v`
    /// directly, so `uts[0]`/`vts[0]` stay unallocated.
    uts: Vec<Vec<f64>>,
    vts: Vec<Vec<f64>>,
    fs: Vec<Vec<f64>>,
    ws: Workspace,
    /// Intra-rank worker threads for the masked products (1 = serial; the
    /// threaded path is bitwise-identical to serial by construction).
    pub threads: usize,
    pub stats: LtsStats,
}

impl<'a, O: Operator> LtsNewmark<'a, O> {
    pub fn new(op: &'a O, setup: &'a LtsSetup, dt: f64) -> Self {
        assert!(dt > 0.0);
        let n = op.ndof();
        assert_eq!(n, setup.dof_level.len());
        let levels = setup.n_levels;
        LtsNewmark {
            op,
            setup,
            dt,
            uts: aux_levels(n, levels),
            vts: aux_levels(n, levels),
            fs: vec![vec![0.0; n]; levels],
            ws: Workspace::new(),
            threads: 1,
            stats: LtsStats::default(),
        }
    }

    /// Staggered start, as in [`crate::newmark::Newmark::stagger_velocity`].
    pub fn stagger_velocity(op: &O, dt: f64, u0: &[f64], v0: &mut [f64], sources: &[Source]) {
        crate::newmark::Newmark::stagger_velocity(op, dt, u0, v0, sources);
    }

    /// Advance one global step from time `t` (`u = uⁿ`, `v = vⁿ⁻¹ᐟ²`).
    pub fn step(&mut self, u: &mut [f64], v: &mut [f64], t: f64, sources: &[Source]) {
        let s = self.setup;
        let levels = s.n_levels;
        let dt = self.dt;

        // f₀ = A P₀ uⁿ
        for &i in &s.touched[0] {
            self.fs[0][i as usize] = 0.0;
        }
        self.op.apply_masked_threads(
            u,
            &mut self.fs[0],
            &s.elems[0],
            &s.dof_level,
            0,
            &mut self.ws,
            self.threads,
        );
        self.stats.elem_ops += s.elems[0].len() as u64;

        if levels == 1 {
            for (vi, f) in v.iter_mut().zip(&self.fs[0]) {
                *vi -= dt * f;
            }
            inject_sources(self.op, sources, &s.leaf_level, 0, v, dt, t, 1.0);
            for (ui, vi) in u.iter_mut().zip(v.iter()) {
                *ui += dt * vi;
            }
            self.stats.n_steps += 1;
            return;
        }

        // child initial state
        for &i in &s.active[1] {
            self.uts[1][i as usize] = u[i as usize];
        }
        aux_advance(
            self.op,
            s,
            1,
            &mut self.uts,
            &mut self.vts,
            &mut self.fs,
            dt,
            t,
            sources,
            &mut self.stats,
            &mut self.ws,
            self.threads,
        );
        // velocity recovery on active(1)
        for &i in &s.active[1] {
            let i = i as usize;
            v[i] += 2.0 * (self.uts[1][i] - u[i]) / dt;
        }
        // plain Newmark on leaf(0)
        for &i in &s.leaf[0] {
            let i = i as usize;
            v[i] -= dt * self.fs[0][i];
        }
        inject_sources(self.op, sources, &s.leaf_level, 0, v, dt, t, 1.0);
        for (ui, vi) in u.iter_mut().zip(v.iter()) {
            *ui += dt * vi;
        }
        self.stats.n_steps += 1;
    }

    /// Run `n` global steps starting at `t0`; returns the end time.
    pub fn run(
        &mut self,
        u: &mut [f64],
        v: &mut [f64],
        t0: f64,
        n: usize,
        sources: &[Source],
    ) -> f64 {
        let mut t = t0;
        for _ in 0..n {
            self.step(u, v, t, sources);
            t += self.dt;
        }
        t
    }
}

/// Per-level auxiliary buffers of length `n` for levels `1..levels`; level 0
/// gets an empty, unallocated slot (it steps the global `u`/`v`).
pub fn aux_levels(n: usize, levels: usize) -> Vec<Vec<f64>> {
    (0..levels)
        .map(|l| if l == 0 { Vec::new() } else { vec![0.0; n] })
        .collect()
}

/// Add `Δ·F(t)/M` at every source whose DOF's leaf level is `level`; `half`
/// scales the first leap-frog half-step.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn inject_sources<O: Operator>(
    op: &O,
    sources: &[Source],
    leaf_level: &[u8],
    level: u8,
    v: &mut [f64],
    dt: f64,
    t: f64,
    half: f64,
) {
    for src in sources {
        let d = src.dof as usize;
        if leaf_level[d] == level {
            v[d] += half * dt * (src.amplitude)(t) / op.mass()[d];
        }
    }
}

/// Integrate the level-`l` auxiliary system over `Δt_{l−1}` (two sub-steps of
/// `Δt_l`), starting from the state already copied into `uts[l]` with zero
/// auxiliary velocity.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn aux_advance<O: Operator>(
    op: &O,
    s: &LtsSetup,
    l: usize,
    uts: &mut [Vec<f64>],
    vts: &mut [Vec<f64>],
    fs: &mut [Vec<f64>],
    dt: f64,
    t0: f64,
    sources: &[Source],
    stats: &mut LtsStats,
    ws: &mut Workspace,
    threads: usize,
) {
    let levels = s.n_levels;
    let dt_l = dt / (1u64 << l) as f64;
    let innermost = l == levels - 1;

    for m in 0..2usize {
        let tm = t0 + m as f64 * dt_l;

        // f_l = A P_l ũ_m
        for &i in &s.touched[l] {
            fs[l][i as usize] = 0.0;
        }
        {
            let (fs_lo, fs_hi) = fs.split_at_mut(l);
            let _ = fs_lo;
            op.apply_masked_threads(
                &uts[l],
                &mut fs_hi[0],
                &s.elems[l],
                &s.dof_level,
                l as u8,
                ws,
                threads,
            );
        }
        stats.elem_ops += s.elems[l].len() as u64;

        if innermost {
            // leap-frog on all active(l) with force Σ_{j≤l} f_j
            for &i in &s.active[l] {
                let i = i as usize;
                let mut f = 0.0;
                for fj in fs[..=l].iter() {
                    f += fj[i];
                }
                if m == 0 {
                    vts[l][i] = -0.5 * dt_l * f;
                } else {
                    vts[l][i] -= dt_l * f;
                }
            }
            inject_sources(
                op,
                sources,
                &s.leaf_level,
                l as u8,
                &mut vts[l],
                dt_l,
                tm,
                if m == 0 { 0.5 } else { 1.0 },
            );
            for &i in &s.active[l] {
                let i = i as usize;
                uts[l][i] += dt_l * vts[l][i];
            }
        } else {
            // child initial state and recursion
            {
                let (cur, rest) = uts.split_at_mut(l + 1);
                let src = &cur[l];
                let dst = &mut rest[0];
                for &i in &s.active[l + 1] {
                    dst[i as usize] = src[i as usize];
                }
            }
            aux_advance(
                op,
                s,
                l + 1,
                uts,
                vts,
                fs,
                dt,
                tm,
                sources,
                stats,
                ws,
                threads,
            );

            // leaf(l): plain leap-frog with the (constant-in-child) force
            for &i in &s.leaf[l] {
                let i = i as usize;
                let mut f = 0.0;
                for fj in fs[..=l].iter() {
                    f += fj[i];
                }
                if m == 0 {
                    vts[l][i] = -0.5 * dt_l * f;
                } else {
                    vts[l][i] -= dt_l * f;
                }
            }
            inject_sources(
                op,
                sources,
                &s.leaf_level,
                l as u8,
                &mut vts[l],
                dt_l,
                tm,
                if m == 0 { 0.5 } else { 1.0 },
            );
            // active(l+1): velocity recovery from the child's displacement
            for &i in &s.active[l + 1] {
                let i = i as usize;
                let d = (uts[l + 1][i] - uts[l][i]) / dt_l;
                if m == 0 {
                    vts[l][i] = d;
                } else {
                    vts[l][i] += 2.0 * d;
                }
            }
            for &i in &s.active[l] {
                let i = i as usize;
                uts[l][i] += dt_l * vts[l][i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain1d::Chain1d;
    use crate::newmark::Newmark;
    use crate::setup::LtsSetup;

    /// LTS on a single-level mesh must equal plain Newmark bit-for-bit.
    #[test]
    fn single_level_equals_newmark() {
        let c = Chain1d::uniform(12, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 12]);
        let dt = 0.5;
        let mut u1: Vec<f64> = (0..13).map(|i| (i as f64 * 0.5).sin()).collect();
        let mut v1 = vec![0.0; 13];
        let mut u2 = u1.clone();
        let mut v2 = v1.clone();
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        let mut nm = Newmark::new(&c, dt);
        for step in 0..20 {
            let t = step as f64 * dt;
            lts.step(&mut u1, &mut v1, t, &[]);
            nm.step(&mut u2, &mut v2, t, &[]);
        }
        for i in 0..13 {
            assert_eq!(u1[i], u2[i], "dof {i}");
            assert_eq!(v1[i], v2[i], "dof {i}");
        }
    }

    /// Level 0 steps `u`/`v` in place, so its auxiliary buffers are never
    /// allocated, before or after stepping.
    #[test]
    fn level0_aux_buffers_have_zero_capacity() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 2.0, 4.0], 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        assert_eq!(setup.n_levels, 3);
        let mut u: Vec<f64> = (0..6).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut v = vec![0.0; 6];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.run(&mut u, &mut v, 0.0, 4, &[]);
        assert_eq!(lts.uts[0].capacity(), 0);
        assert_eq!(lts.vts[0].capacity(), 0);
        for l in 1..3 {
            assert_eq!(lts.uts[l].len(), 6);
            assert_eq!(lts.vts[l].len(), 6);
        }
    }

    /// Two-level LTS must match the hand-derived Diaz–Grote two-level
    /// scheme (Eqs. 11–14 with p = 2) computed with dense selection matrices.
    #[test]
    fn two_level_matches_hand_derivation() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 2.0, 2.0], 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        assert_eq!(lv, vec![0, 0, 0, 1, 1]);
        let setup = LtsSetup::new(&c, &lv);
        let n = 6;

        let u0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
        let v0 = vec![0.0; n];

        // hand-coded two-level step with full vectors
        let p = 2usize;
        let dtau = dt / p as f64;
        let sel = |x: &[f64], lvl: u8| -> Vec<f64> {
            (0..n)
                .map(|i| if setup.dof_level[i] == lvl { x[i] } else { 0.0 })
                .collect()
        };
        let apply = |x: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; n];
            c.apply(x, &mut out);
            out
        };
        let w = apply(&sel(&u0, 0)); // A(I−P)uⁿ
        let mut ut = u0.clone();
        let mut vt = vec![0.0; n];
        for m in 0..p {
            let z = apply(&sel(&ut, 1)); // A P ũ_m
            for i in 0..n {
                let f = w[i] + z[i];
                if m == 0 {
                    vt[i] = -0.5 * dtau * f;
                } else {
                    vt[i] -= dtau * f;
                }
            }
            for i in 0..n {
                ut[i] += dtau * vt[i];
            }
        }
        let mut v_expect = v0.clone();
        let mut u_expect = u0.clone();
        for i in 0..n {
            v_expect[i] += 2.0 * (ut[i] - u0[i]) / dt;
            u_expect[i] += dt * v_expect[i];
        }

        // masked implementation
        let mut u = u0.clone();
        let mut v = v0.clone();
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.step(&mut u, &mut v, 0.0, &[]);

        for i in 0..n {
            assert!(
                (u[i] - u_expect[i]).abs() < 1e-13,
                "u[{i}]: {} vs {}",
                u[i],
                u_expect[i]
            );
            assert!((v[i] - v_expect[i]).abs() < 1e-13, "v[{i}]");
        }
    }

    /// LTS stays stable over long runs on a three-level chain at the coarse
    /// CFL step, where plain Newmark at the same Δt explodes.
    #[test]
    fn stable_where_global_newmark_is_not() {
        let mut vel = vec![1.0; 24];
        for v in vel.iter_mut().take(24).skip(18) {
            *v = 4.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.9, 4);
        assert!(lv.iter().copied().max().unwrap() == 2);
        let setup = LtsSetup::new(&c, &lv);

        let init = |u: &mut Vec<f64>| {
            for (i, x) in u.iter_mut().enumerate() {
                *x = (-((i as f64 - 8.0) / 2.0).powi(2)).exp();
            }
            u[0] = 0.0;
            *u.last_mut().unwrap() = 0.0;
        };
        let mut u = vec![0.0; 25];
        init(&mut u);
        let mut v = vec![0.0; 25];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.run(&mut u, &mut v, 0.0, 400, &[]);
        let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm.is_finite() && norm < 50.0, "LTS norm {norm}");

        // plain Newmark at the same coarse dt blows up
        let mut u2 = vec![0.0; 25];
        init(&mut u2);
        let mut v2 = vec![0.0; 25];
        let mut nm = Newmark::new(&c, dt);
        nm.run(&mut u2, &mut v2, 0.0, 400, &[]);
        let norm2: f64 = u2.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            norm2.is_nan() || norm2 >= 1e3,
            "global Newmark should be unstable, norm {norm2}"
        );
    }

    /// LTS converges to the fine-step Newmark solution as both are refined
    /// consistently (2nd-order agreement at matching times).
    #[test]
    fn agrees_with_fine_newmark() {
        let mut vel = vec![1.0; 16];
        for v in vel.iter_mut().take(16).skip(12) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.25, 2);
        let setup = LtsSetup::new(&c, &lv);
        let n = 17;
        let init: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 5.0) / 1.5).powi(2)).exp())
            .collect();

        let steps = 16usize;
        let mut u_lts = init.clone();
        let mut v_lts = vec![0.0; n];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.run(&mut u_lts, &mut v_lts, 0.0, steps, &[]);

        // reference: plain Newmark at dt/8 (well resolved)
        let fine = 8usize;
        let mut u_ref = init.clone();
        let mut v_ref = vec![0.0; n];
        let mut nm = Newmark::new(&c, dt / fine as f64);
        nm.run(&mut u_ref, &mut v_ref, 0.0, steps * fine, &[]);

        let err: f64 = (0..n)
            .map(|i| (u_lts[i] - u_ref[i]).abs())
            .fold(0.0, f64::max);
        // both are O(Δt²) discretizations of the same semi-discrete system;
        // at CFL 0.25 they agree to a few percent (the convergence-order
        // integration test quantifies the rate)
        assert!(err < 0.1, "LTS vs fine Newmark deviation {err}");
    }

    #[test]
    fn stats_count_masked_work() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 2.0, 2.0], 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let mut u = vec![0.0; 6];
        let mut v = vec![0.0; 6];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.step(&mut u, &mut v, 0.0, &[]);
        // elems[0] = {0,1,2} (level-0 dofs 0..=2? dof 3 is level 1) → 3 elems
        // elems[1] = {2,3,4} → applied twice
        assert_eq!(lts.stats.elem_ops, 3 + 2 * 3);
        assert_eq!(lts.stats.n_steps, 1);
    }
}
