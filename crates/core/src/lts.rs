//! The production multi-level LTS-Newmark stepper (Algorithm 1 generalised
//! recursively), performing only *masked* work.
//!
//! One global step of size `Δt`:
//!
//! ```text
//! f₀ = A P₀ uⁿ                               (frozen over the step)
//! ũ  = aux(1, uⁿ)                            (advance levels ≥ 1 by Δt)
//! vⁿ⁺¹ᐟ² = vⁿ⁻¹ᐟ² − Δt·f₀                    on leaf(0)   (≡ plain Newmark)
//! vⁿ⁺¹ᐟ² = vⁿ⁻¹ᐟ² + 2(ũ − uⁿ)/Δt             on active(1)
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
//!
//! The recursion is written once, in [`LevelState::step`], over a
//! [`LevelForce`] hook that evaluates one level's force. [`LtsNewmark`] is
//! the serial instance; each distributed rank of `lts-runtime` is the other,
//! adding the assembly exchange of interface DOFs after its masked product.

use crate::operator::{Operator, Source, Workspace};
use crate::setup::LtsSetup;
use std::convert::Infallible;

/// Work counters for the Eq. 9 efficiency accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct LtsStats {
    /// Element-operations performed (one per element per masked product).
    pub elem_ops: u64,
    /// Global steps taken.
    pub n_steps: u64,
}

/// One level's force evaluation: everything the serial stepper and a
/// distributed rank do differently.
pub trait LevelForce {
    type Error;
    /// `f = A P_l state` on this stepper's entries of `f`: zero them, apply
    /// the level's masked product, and (distributed) assemble the totals of
    /// interface DOFs.
    fn force(&mut self, l: usize, state: &[f64], f: &mut [f64]) -> Result<(), Self::Error>;
    /// Add `half·Δ·F(t)/M` at every source whose DOF's leaf level is `l`.
    fn inject(&self, l: usize, target: &mut [f64], dt: f64, t: f64, half: f64);
}

/// The DOF sets the recursion walks: an [`LtsSetup`]'s, or a rank's share
/// of them in its own numbering. Level 0 integrates the whole vector.
#[derive(Debug, Clone, Copy)]
pub struct LevelSets<'s> {
    /// `active[l]` for every level `l ≥ 1` (`active[0]` is not read).
    pub active: &'s [Vec<u32>],
    /// `leaf[l]` for every level.
    pub leaf: &'s [Vec<u32>],
}

/// A DOF set of the recursion: the whole vector, or a list.
#[derive(Clone, Copy)]
enum Dofs<'s> {
    All,
    List(&'s [u32]),
}

impl Dofs<'_> {
    #[inline]
    fn each(self, n: usize, mut f: impl FnMut(usize)) {
        match self {
            Dofs::All => (0..n).for_each(f),
            Dofs::List(ds) => ds.iter().for_each(|&i| f(i as usize)),
        }
    }
}

/// The per-level buffers of the recursion: auxiliary displacement and
/// velocity of every level ≥ 1 (level 0 steps `u`/`v` directly, so
/// `uts[0]`/`vts[0]` stay unallocated) and every level's force.
pub struct LevelState {
    uts: Vec<Vec<f64>>,
    vts: Vec<Vec<f64>>,
    fs: Vec<Vec<f64>>,
}

impl LevelState {
    /// Buffers for `levels` levels over `n` DOFs.
    pub fn new(n: usize, levels: usize) -> Self {
        LevelState {
            uts: aux_levels(n, levels),
            vts: aux_levels(n, levels),
            fs: vec![vec![0.0; n]; levels],
        }
    }

    /// Advance one global step `dt` from time `t` (`u = uⁿ`, `v = vⁿ⁻¹ᐟ²`),
    /// evaluating every force through `hook`.
    pub fn step<F: LevelForce>(
        &mut self,
        hook: &mut F,
        sets: LevelSets<'_>,
        dt: f64,
        u: &mut [f64],
        v: &mut [f64],
        t: f64,
    ) -> Result<(), F::Error> {
        let (uts, vts) = (&mut self.uts[1..], &mut self.vts[1..]);
        advance(hook, sets, &mut self.fs, 0, dt, t, (u, v), (uts, vts))
    }
}

/// Per-level auxiliary buffers of length `n` for levels `1..levels`; level 0
/// gets an empty, unallocated slot (it steps the global `u`/`v`).
fn aux_levels(n: usize, levels: usize) -> Vec<Vec<f64>> {
    (0..levels)
        .map(|l| if l == 0 { Vec::new() } else { vec![0.0; n] })
        .collect()
}

/// Integrate level `l`: at level 0, one step of `Δt` continuing `(u, v)`;
/// at level `l ≥ 1`, the auxiliary system over `Δt_{l−1}` — two sub-steps
/// of `Δt_l` from the state already copied into `u_l`, with zero velocity.
/// `finer_u`/`finer_v` hold the buffers of levels `l+1..`.
#[allow(clippy::too_many_arguments)]
fn advance<F: LevelForce>(
    hook: &mut F,
    sets: LevelSets<'_>,
    fs: &mut [Vec<f64>],
    l: usize,
    dt: f64,
    t0: f64,
    (u_l, v_l): (&mut [f64], &mut [f64]),
    (finer_u, finer_v): (&mut [Vec<f64>], &mut [Vec<f64>]),
) -> Result<(), F::Error> {
    let dt_l = dt / (1u64 << l) as f64;
    let n = u_l.len();
    let active = if l == 0 {
        Dofs::All
    } else {
        Dofs::List(&sets.active[l])
    };
    // DOFs this level steps itself: all of its active ones at the innermost
    // level, otherwise those whose force stays constant while the child runs
    let own = if finer_u.is_empty() {
        active
    } else {
        Dofs::List(&sets.leaf[l])
    };
    for m in 0..if l == 0 { 1 } else { 2 } {
        // level 0 continues vⁿ⁻¹ᐟ²; an auxiliary level starts from rest
        let first = l > 0 && m == 0;
        let tm = t0 + m as f64 * dt_l;

        // f_l = A P_l ũ_m
        hook.force(l, u_l, &mut fs[l])?;
        if let (Some((child_u, deeper_u)), Some((child_v, deeper_v))) =
            (finer_u.split_first_mut(), finer_v.split_first_mut())
        {
            for &i in &sets.active[l + 1] {
                child_u[i as usize] = u_l[i as usize];
            }
            advance(
                hook,
                sets,
                fs,
                l + 1,
                dt,
                tm,
                (child_u, child_v),
                (deeper_u, deeper_v),
            )?;
        }
        // leap-frog with force Σ_{j≤l} f_j
        own.each(n, |i| {
            let mut f = 0.0;
            for fj in fs[..=l].iter() {
                f += fj[i];
            }
            if first {
                v_l[i] = -0.5 * dt_l * f;
            } else {
                v_l[i] -= dt_l * f;
            }
        });
        hook.inject(l, v_l, dt_l, tm, if first { 0.5 } else { 1.0 });
        // active(l+1): velocity recovery from the child's displacement
        if let Some(child_u) = finer_u.first() {
            for &i in &sets.active[l + 1] {
                let i = i as usize;
                let d = (child_u[i] - u_l[i]) / dt_l;
                if first {
                    v_l[i] = d;
                } else {
                    v_l[i] += 2.0 * d;
                }
            }
        }
        active.each(n, |i| u_l[i] += dt_l * v_l[i]);
    }
    Ok(())
}

/// Multi-level LTS-Newmark stepper: the serial instance of the recursion.
pub struct LtsNewmark<'a, O: Operator> {
    pub op: &'a O,
    pub setup: &'a LtsSetup,
    /// The global (coarsest) step `Δt`.
    pub dt: f64,
    levels: LevelState,
    ws: Workspace,
    /// Intra-rank worker threads for the masked products (1 = serial; the
    /// threaded path is bitwise-identical to serial by construction).
    pub threads: usize,
    pub stats: LtsStats,
}

/// The serial [`LevelForce`]: the masked product over `elems[l]`, no
/// exchange.
struct SerialForce<'a, 'w, O: Operator> {
    op: &'a O,
    setup: &'a LtsSetup,
    sources: &'w [Source],
    ws: &'w mut Workspace,
    threads: usize,
    stats: &'w mut LtsStats,
}

impl<O: Operator> LevelForce for SerialForce<'_, '_, O> {
    type Error = Infallible;

    fn force(&mut self, l: usize, state: &[f64], f: &mut [f64]) -> Result<(), Infallible> {
        let s = self.setup;
        for &i in &s.touched[l] {
            f[i as usize] = 0.0;
        }
        self.op.apply_masked_threads(
            state,
            f,
            &s.elems[l],
            &s.dof_level,
            l as u8,
            self.ws,
            self.threads,
        );
        self.stats.elem_ops += s.elems[l].len() as u64;
        Ok(())
    }

    fn inject(&self, l: usize, target: &mut [f64], dt: f64, t: f64, half: f64) {
        for src in self.sources {
            let d = src.dof as usize;
            if self.setup.leaf_level[d] as usize == l {
                target[d] += half * dt * (src.amplitude)(t) / self.op.mass()[d];
            }
        }
    }
}

impl<'a, O: Operator> LtsNewmark<'a, O> {
    pub fn new(op: &'a O, setup: &'a LtsSetup, dt: f64) -> Self {
        assert!(dt > 0.0);
        let n = op.ndof();
        assert_eq!(n, setup.dof_level.len());
        LtsNewmark {
            op,
            setup,
            dt,
            levels: LevelState::new(n, setup.n_levels),
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
        let mut hook = SerialForce {
            op: self.op,
            setup: s,
            sources,
            ws: &mut self.ws,
            threads: self.threads,
            stats: &mut self.stats,
        };
        let sets = LevelSets {
            active: &s.active,
            leaf: &s.leaf,
        };
        // qualified, so the call graph of `crates/lint` links this `step` only
        let Ok(()) = LevelState::step(&mut self.levels, &mut hook, sets, self.dt, u, v, t);
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
        assert_eq!(lts.levels.uts[0].capacity(), 0);
        assert_eq!(lts.levels.vts[0].capacity(), 0);
        for l in 1..3 {
            assert_eq!(lts.levels.uts[l].len(), 6);
            assert_eq!(lts.levels.vts[l].len(), 6);
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
