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
//! with `ṽ(0) = 0` over `p` sub-steps of `Δt_k = Δt/p^k`, recomputing its own
//! contribution `f_k = A P_k ũ_m` each sub-step, delegating the finer levels
//! recursively, and recovering velocities from displacement differences.
//! DOFs whose force is constant during a child's integration (the
//! `leaf` sets) take plain leap-frog sub-steps — analytically identical to
//! the recovery (validated against [`crate::reference`] to round-off).
//!
//! The sub-step ratio `p` is 2 at every level, the nested ratio the CFL
//! level assignment builds. On at most two levels it may be any `p ≥ 1`
//! ([`LtsNewmark::with_ratio`]): that is the two-level scheme of Sec. II-A
//! (Eqs. 10–14) for a general `p`, so a refinement ratio of 3 steps at
//! `p = 3` instead of over-stepping at 4.
//!
//! The recursion is written once, in [`LevelState::step`], over a
//! [`LevelForce`] hook that evaluates one level's force. [`LtsNewmark`] is
//! the serial instance; each distributed rank of `lts-runtime` is the other,
//! adding the assembly exchange of interface DOFs after its masked product.
//!
//! Both step DOFs in the level-grouped numbering of
//! [`crate::setup::level_order`] (the paper's Sec. IV-D): finest leaf
//! level first, so every level's active set is a prefix of the vector, its
//! leaf set a range, and its buffers hold that prefix alone. A rank is
//! numbered this way when it is built; the serial stepper keeps the
//! caller's numbering and installs the order in its [`Workspace`].

use crate::operator::{Operator, Source, Workspace};
use crate::setup::{level_order, LtsSetup};
use std::convert::Infallible;
use std::ops::Range;

/// Work counters for the Eq. 9 efficiency accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct LtsStats {
    /// Element-operations performed (one per element per masked product).
    pub elem_ops: u64,
    /// Global steps taken.
    pub(crate) n_steps: u64,
}

/// One level's force evaluation: everything the serial stepper and a
/// distributed rank do differently.
pub trait LevelForce {
    type Error;
    /// `f = A P_l state` over the level's active prefix: zero `f`, apply
    /// the level's masked product, and (distributed) assemble the totals of
    /// interface DOFs.
    fn force(&mut self, l: usize, state: &[f64], f: &mut [f64]) -> Result<(), Self::Error>;
    /// Add `half·Δ·F(t)/M` at every source whose DOF's leaf level is `l`.
    fn inject(&self, l: usize, target: &mut [f64], dt: f64, t: f64, half: f64);
}

/// The DOF sets the recursion walks, in a level-grouped numbering:
/// `active(l) = 0..a[l]` and `leaf(l) = a[l+1]..a[l]`, where `a[l]` counts
/// the DOFs of leaf level `≥ l` (so `a[0]` is every DOF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSets {
    /// `a[l]` for every level, then a closing 0.
    ends: Vec<usize>,
}

impl LevelSets {
    /// The prefix ends of items with leaf levels `leaf`, over `n_levels`
    /// levels.
    pub(crate) fn of_leaf_levels(leaf: impl IntoIterator<Item = u8>, n_levels: usize) -> Self {
        let mut counts = vec![0usize; n_levels];
        for l in leaf {
            counts[l as usize] += 1;
        }
        Self::of_level_counts(counts, n_levels)
    }

    /// The prefix ends of `counts[l]` items at leaf level `l` (absent
    /// trailing levels count 0), over `n_levels` levels.
    pub fn of_level_counts(counts: impl IntoIterator<Item = usize>, n_levels: usize) -> Self {
        let mut ends = vec![0usize; n_levels + 1];
        for (l, n) in counts.into_iter().enumerate() {
            ends[l] = n;
        }
        for l in (0..n_levels).rev() {
            ends[l] += ends[l + 1];
        }
        LevelSets { ends }
    }

    pub fn n_levels(&self) -> usize {
        self.ends.len() - 1
    }

    /// `a[l]`, the length of level `l`'s active prefix.
    pub fn end(&self, l: usize) -> usize {
        self.ends[l]
    }

    /// DOFs integrated by level `l`'s auxiliary system (`l = 0`: all).
    pub fn active(&self, l: usize) -> Range<usize> {
        0..self.ends[l]
    }

    /// DOFs whose own sub-stepping happens at level `l`.
    pub fn leaf(&self, l: usize) -> Range<usize> {
        self.ends[l + 1]..self.ends[l]
    }
}

/// The per-level buffers of the recursion, each level's holding its active
/// prefix alone: auxiliary displacement and velocity of every level ≥ 1
/// (level 0 steps `u`/`v` directly, so `uts[0]`/`vts[0]` stay unallocated)
/// and every level's force.
pub struct LevelState {
    sets: LevelSets,
    /// Sub-steps of level `l ≥ 1` per step of level `l − 1`.
    ratio: usize,
    uts: Vec<Vec<f64>>,
    vts: Vec<Vec<f64>>,
    fs: Vec<Vec<f64>>,
}

impl LevelState {
    /// Buffers for the levels of `sets`, the auxiliary ones from level 1,
    /// at sub-step ratio 2.
    pub fn new(sets: LevelSets) -> Self {
        let bufs = |from: usize| -> Vec<Vec<f64>> {
            let len = |l: usize| if l < from { 0 } else { sets.end(l) };
            (0..sets.n_levels()).map(|l| vec![0.0; len(l)]).collect()
        };
        LevelState {
            uts: bufs(1),
            vts: bufs(1),
            fs: bufs(0),
            sets,
            ratio: 2,
        }
    }

    /// Values the level buffers hold (their total capacity).
    pub fn buffer_len(&self) -> usize {
        let bufs = self.uts.iter().chain(&self.vts).chain(&self.fs);
        bufs.map(Vec::capacity).sum()
    }

    /// Advance one global step `dt` from time `t` (`u = uⁿ`, `v = vⁿ⁻¹ᐟ²`,
    /// both in the grouped numbering), evaluating every force through
    /// `hook`.
    pub fn step<F: LevelForce>(
        &mut self,
        hook: &mut F,
        dt: f64,
        u: &mut [f64],
        v: &mut [f64],
        t: f64,
    ) -> Result<(), F::Error> {
        let (uts, vts) = (&mut self.uts[1..], &mut self.vts[1..]);
        let ends = &self.sets.ends;
        let (ratio, fs) = (self.ratio, &mut self.fs);
        advance(hook, ends, ratio, fs, 0, dt, t, (u, v), (uts, vts))
    }
}

/// Integrate level `l`: at level 0, one step of `Δt` continuing `(u, v)`;
/// at level `l ≥ 1`, the auxiliary system over `Δt_{l−1}` — `ratio`
/// sub-steps of `Δt_l = Δt/ratio^l` from the state already copied into
/// `u_l`, with zero velocity.
/// `u_l`/`v_l` hold the active prefix `0..a[l]`; `finer_u`/`finer_v` hold
/// the buffers of levels `l+1..`.
#[allow(clippy::too_many_arguments)]
fn advance<F: LevelForce>(
    hook: &mut F,
    ends: &[usize],
    ratio: usize,
    fs: &mut [Vec<f64>],
    l: usize,
    dt: f64,
    t0: f64,
    (u_l, v_l): (&mut [f64], &mut [f64]),
    (finer_u, finer_v): (&mut [Vec<f64>], &mut [Vec<f64>]),
) -> Result<(), F::Error> {
    let dt_l = dt / (ratio as u64).pow(l as u32) as f64;
    // active(l) = 0..n and active(l+1) = 0..inner: this level steps
    // inner..n itself (all of its active DOFs at the innermost level, where
    // inner = 0), the finer levels the rest
    let (n, inner) = (ends[l], ends[l + 1]);
    for m in 0..if l == 0 { 1 } else { ratio } {
        // level 0 continues vⁿ⁻¹ᐟ²; an auxiliary level starts from rest
        let first = l > 0 && m == 0;
        let tm = t0 + m as f64 * dt_l;

        // f_l = A P_l ũ_m
        hook.force(l, u_l, &mut fs[l])?;
        if let (Some((child_u, deeper_u)), Some((child_v, deeper_v))) =
            (finer_u.split_first_mut(), finer_v.split_first_mut())
        {
            child_u.copy_from_slice(&u_l[..inner]);
            advance(
                hook,
                ends,
                ratio,
                fs,
                l + 1,
                dt,
                tm,
                (child_u, child_v),
                (deeper_u, deeper_v),
            )?;
        }
        // leap-frog with force Σ_{j≤l} f_j
        for i in inner..n {
            let mut f = 0.0;
            for fj in fs[..=l].iter() {
                f += fj[i];
            }
            if first {
                v_l[i] = -0.5 * dt_l * f;
            } else {
                v_l[i] -= dt_l * f;
            }
        }
        hook.inject(l, v_l, dt_l, tm, if first { 0.5 } else { 1.0 });
        // active(l+1): velocity recovery from the child's displacement
        if let Some(child_u) = finer_u.first() {
            for (v, (&c, &u)) in v_l.iter_mut().zip(child_u.iter().zip(&*u_l)) {
                let d = (c - u) / dt_l;
                if first {
                    *v = d;
                } else {
                    *v += 2.0 * d;
                }
            }
        }
        for (u, &v) in u_l.iter_mut().zip(&*v_l) {
            *u += dt_l * v;
        }
    }
    Ok(())
}

/// Multi-level LTS-Newmark stepper: the serial instance of the recursion.
///
/// Fields enter and leave in the caller's numbering. Inside, the stepper
/// runs in the level-grouped numbering: `run` and `step` permute `u`/`v`
/// into it in place and back at the end, and the operator sees the order
/// through the stepper's [`Workspace`] (see [`Operator`]). When the
/// caller's numbering already is grouped, no order is installed.
pub struct LtsNewmark<'a, O: Operator> {
    pub(crate) op: &'a O,
    pub(crate) setup: &'a LtsSetup,
    /// The global (coarsest) step `Δt`.
    pub(crate) dt: f64,
    levels: LevelState,
    /// Operator scratch, carrying the order `pos[caller DOF] = grouped DOF`.
    ws: Workspace,
    /// `setup.dof_level` in the grouped numbering (empty without an order).
    dof_level: Vec<u8>,
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
    dof_level: &'w [u8],
    sources: &'w [Source],
    ws: &'w mut Workspace,
    threads: usize,
    stats: &'w mut LtsStats,
}

impl<O: Operator> LevelForce for SerialForce<'_, '_, O> {
    type Error = Infallible;

    fn force(&mut self, l: usize, state: &[f64], f: &mut [f64]) -> Result<(), Infallible> {
        // entries no `elems[l]` element holds are never written, so
        // already 0.0
        f.fill(0.0);
        let elems = &self.setup.elems[l];
        self.op.apply_masked_threads(
            state,
            f,
            elems,
            self.dof_level,
            l as u8,
            self.ws,
            self.threads,
        );
        self.stats.elem_ops += elems.len() as u64;
        Ok(())
    }

    fn inject(&self, l: usize, target: &mut [f64], dt: f64, t: f64, half: f64) {
        let pos = self.ws.order();
        for src in self.sources {
            let d = src.dof as usize;
            if self.setup.leaf_level[d] as usize == l {
                let i = pos.map_or(d, |p| p[d] as usize);
                target[i] += half * dt * (src.amplitude)(t) / self.op.mass()[d];
            }
        }
    }
}

impl<'a, O: Operator> LtsNewmark<'a, O> {
    pub fn new(op: &'a O, setup: &'a LtsSetup, dt: f64) -> Self {
        Self::with_ratio(op, setup, dt, 2)
    }

    /// A stepper taking `p` sub-steps of the finer level per step of the
    /// coarser one (Sec. II-A's general `p`); `p` other than 2 needs a
    /// setup of at most two levels.
    pub fn with_ratio(op: &'a O, setup: &'a LtsSetup, dt: f64, p: usize) -> Self {
        assert!(p >= 1, "sub-step ratio must be at least 1, got {p}");
        assert!(
            p == 2 || setup.n_levels <= 2,
            "sub-step ratio {p} needs at most 2 levels, the setup has {}",
            setup.n_levels
        );
        assert!(dt > 0.0);
        let n = op.ndof();
        assert_eq!(n, setup.dof_level.len());
        let (pos, sets) = level_order(&setup.leaf_level, setup.n_levels);
        let (ws, dof_level) = if pos.iter().enumerate().all(|(i, &p)| i == p as usize) {
            (Workspace::new(), Vec::new())
        } else {
            let mut grouped = vec![0u8; n];
            for (&p, &l) in pos.iter().zip(&setup.dof_level) {
                grouped[p as usize] = l;
            }
            (Workspace::with_order(pos), grouped)
        };
        LtsNewmark {
            op,
            setup,
            dt,
            levels: LevelState {
                ratio: p,
                ..LevelState::new(sets)
            },
            ws,
            dof_level,
            threads: 1,
            stats: LtsStats::default(),
        }
    }

    /// Advance one global step from time `t` (`u = uⁿ`, `v = vⁿ⁻¹ᐟ²`).
    pub fn step(&mut self, u: &mut [f64], v: &mut [f64], t: f64, sources: &[Source]) {
        self.permute(u, v, true);
        self.step_grouped(u, v, t, sources);
        self.permute(u, v, false);
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
        self.permute(u, v, true);
        let mut t = t0;
        for _ in 0..n {
            self.step_grouped(u, v, t, sources);
            t += self.dt;
        }
        self.permute(u, v, false);
        t
    }

    /// One global step on fields in the grouped numbering.
    fn step_grouped(&mut self, u: &mut [f64], v: &mut [f64], t: f64, sources: &[Source]) {
        let dof_level = if self.ws.order().is_some() {
            &self.dof_level
        } else {
            &self.setup.dof_level
        };
        let mut hook = SerialForce {
            op: self.op,
            setup: self.setup,
            dof_level,
            sources,
            ws: &mut self.ws,
            threads: self.threads,
            stats: &mut self.stats,
        };
        // qualified, so the call graph of `crates/lint` links this `step` only
        let Ok(()) = LevelState::step(&mut self.levels, &mut hook, self.dt, u, v, t);
        self.stats.n_steps += 1;
    }

    /// Move `u` and `v` into the grouped numbering (`into`) or back out of
    /// it, through level 0's force buffer: it holds `n` values and is
    /// rewritten before it is read at every step.
    fn permute(&mut self, u: &mut [f64], v: &mut [f64], into: bool) {
        let Some(pos) = self.ws.order() else { return };
        let scratch = &mut self.levels.fs[0];
        for x in [u, v] {
            scratch.copy_from_slice(x);
            for (i, &p) in pos.iter().enumerate() {
                if into {
                    x[p as usize] = scratch[i];
                } else {
                    x[i] = scratch[p as usize];
                }
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

    /// Level `l`'s buffers hold its active prefix alone: length and
    /// capacity `a[l]`, before and after stepping; level 0 steps `u`/`v` in
    /// place, so its auxiliary buffers are never allocated.
    #[test]
    fn level_buffers_hold_their_prefix() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 2.0, 4.0], 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        assert_eq!(setup.n_levels, 3);
        let mut u: Vec<f64> = (0..6).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut v = vec![0.0; 6];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        for stepped in [false, true] {
            let st = &lts.levels;
            let a = |l: usize| st.sets.end(l);
            assert_eq!(a(0), 6);
            assert!(a(1) < 6 && a(2) < a(1), "{:?}", st.sets);
            assert_eq!(st.uts[0].capacity(), 0);
            assert_eq!(st.vts[0].capacity(), 0);
            for l in 0..3 {
                assert_eq!(st.fs[l].len(), a(l), "stepped {stepped}");
                assert_eq!(st.fs[l].capacity(), a(l), "stepped {stepped}");
                if l > 0 {
                    for buf in [&st.uts[l], &st.vts[l]] {
                        assert_eq!(buf.len(), a(l), "stepped {stepped}");
                        assert_eq!(buf.capacity(), a(l), "stepped {stepped}");
                    }
                }
            }
            lts.run(&mut u, &mut v, 0.0, 4, &[]);
        }
    }

    /// `run`/`step` move the fields into the grouped numbering and back.
    #[test]
    fn permutations_round_trip() {
        let mut vel = vec![1.0; 12];
        vel[8] = 4.0;
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        let pos = lts.ws.order().expect("a fine region inside needs an order");
        let pos = pos.to_vec();
        assert_eq!(&pos[6..12], &[4, 0, 1, 2, 3, 5]);
        let x0: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let (mut x, mut y) = (x0.clone(), x0.clone());
        lts.permute(&mut x, &mut y, true);
        for i in 0..13 {
            assert_eq!(x[pos[i] as usize], x0[i]);
            assert_eq!(y[pos[i] as usize], x0[i]);
        }
        lts.permute(&mut x, &mut y, false);
        assert_eq!(x, x0);
        assert_eq!(y, x0);
        let single = LtsSetup::new(&c, &[0u8; 12]);
        let lts = LtsNewmark::new(&c, &single, dt);
        assert!(lts.ws.order().is_none(), "single level needs no order");
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

    /// Two levels: velocity 1, and `ratio` from element `fine_from` on.
    fn fine_tail_chain(ratio: f64, n: usize, fine_from: usize) -> (Chain1d, Vec<u8>) {
        let mut vel = vec![1.0; n];
        for v in vel.iter_mut().skip(fine_from) {
            *v = ratio;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let lv: Vec<u8> = (0..n).map(|e| u8::from(e >= fine_from)).collect();
        (c, lv)
    }

    /// At `p = 1` the fine level steps with `Δt` too: plain Newmark, bit
    /// for bit on one level and to round-off on two, where the fine DOFs
    /// take their step through the velocity recovery.
    #[test]
    fn ratio_one_equals_newmark() {
        let dt = 0.5;
        let u0: Vec<f64> = (0..11).map(|i| (i as f64 * 0.6).sin()).collect();
        for fine_from in [10, 7] {
            let (c, lv) = fine_tail_chain(1.0, 10, fine_from);
            let setup = LtsSetup::new(&c, &lv);
            assert_eq!(setup.n_levels, if fine_from < 10 { 2 } else { 1 });
            let (mut u1, mut v1) = (u0.clone(), vec![0.0; 11]);
            let (mut u2, mut v2) = (u0.clone(), vec![0.0; 11]);
            let mut lts = LtsNewmark::with_ratio(&c, &setup, dt, 1);
            let mut nm = Newmark::new(&c, dt);
            for s in 0..15 {
                lts.step(&mut u1, &mut v1, s as f64 * dt, &[]);
                nm.step(&mut u2, &mut v2, s as f64 * dt, &[]);
            }
            for i in 0..11 {
                if setup.n_levels == 1 {
                    assert_eq!(u1[i].to_bits(), u2[i].to_bits(), "u dof {i}");
                    assert_eq!(v1[i].to_bits(), v2[i].to_bits(), "v dof {i}");
                } else {
                    assert!((u1[i] - u2[i]).abs() < 1e-12, "u dof {i}");
                    assert!((v1[i] - v2[i]).abs() < 1e-12, "v dof {i}");
                }
            }
        }
    }

    /// Velocity ratio 3: `p = 2` under-steps the fine region, `p = 3` is
    /// exactly right.
    #[test]
    fn ratio_three_is_stable_where_two_is_not() {
        let (c, lv) = fine_tail_chain(3.0, 16, 11);
        let setup = LtsSetup::new(&c, &lv);
        // the lumped P1 limit of the coarse region is Δt = h/c = 1
        let dt = 0.85;
        let norm_after = |p: usize| -> f64 {
            let mut u: Vec<f64> = (0..17)
                .map(|i| (-((i as f64 - 5.0) / 2.0f64).powi(2)).exp())
                .collect();
            let mut v = vec![0.0; 17];
            LtsNewmark::with_ratio(&c, &setup, dt, p).run(&mut u, &mut v, 0.0, 400, &[]);
            u.iter().map(|x| x * x).sum::<f64>().sqrt()
        };
        let (with_p2, with_p3) = (norm_after(2), norm_after(3));
        assert!(
            with_p3.is_finite() && with_p3 < 100.0,
            "p = 3 should be stable: {with_p3}"
        );
        assert!(
            with_p2.is_nan() || with_p2 >= 1e3,
            "p = 2 should be unstable at ratio 3: {with_p2}"
        );
    }

    /// At an odd ratio the scheme still converges at second order.
    #[test]
    fn odd_ratio_converges_second_order() {
        let (c, lv) = fine_tail_chain(3.0, 12, 8);
        let setup = LtsSetup::new(&c, &lv);
        let n = 13;
        let u0: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 4.0) / 1.5f64).powi(2)).exp())
            .collect();
        let fine_dt = 0.4 / 64.0;
        let mut u_ref = u0.clone();
        let mut v_ref = vec![0.0; n];
        Newmark::stagger_velocity(&c, fine_dt, &u_ref, &mut v_ref, &[]);
        Newmark::new(&c, fine_dt).run(&mut u_ref, &mut v_ref, 0.0, 8 * 64, &[]);

        let mut errs = Vec::new();
        for halvings in 0..3 {
            let dt = 0.4 / (1 << halvings) as f64;
            let mut u = u0.clone();
            let mut v = vec![0.0; n];
            Newmark::stagger_velocity(&c, dt, &u, &mut v, &[]);
            let mut lts = LtsNewmark::with_ratio(&c, &setup, dt, 3);
            lts.run(&mut u, &mut v, 0.0, 8 << halvings, &[]);
            let err: f64 = (0..n).map(|i| (u[i] - u_ref[i]).abs()).fold(0.0, f64::max);
            errs.push(err);
        }
        assert!(errs[0] / errs[1] > 3.0, "errors {errs:?}");
        assert!(errs[1] / errs[2] > 2.5, "errors {errs:?}");
    }

    /// A step at ratio `p` runs the fine product `p` times, still less work
    /// than stepping every element at the fine step.
    #[test]
    fn ratio_sets_fine_products_per_step() {
        let (c, lv) = fine_tail_chain(5.0, 12, 9);
        let setup = LtsSetup::new(&c, &lv);
        let mut lts = LtsNewmark::with_ratio(&c, &setup, 0.2, 5);
        let (mut u, mut v) = (vec![0.0; 13], vec![0.0; 13]);
        lts.step(&mut u, &mut v, 0.0, &[]);
        let want = setup.elems[0].len() + 5 * setup.elems[1].len();
        assert_eq!(lts.stats.elem_ops, want as u64);
        assert!(want < 12 * 5);
    }

    #[test]
    #[should_panic(expected = "sub-step ratio 3 needs at most 2 levels")]
    fn ratio_other_than_two_needs_two_levels() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 2.0, 4.0], 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        assert_eq!(setup.n_levels, 3);
        LtsNewmark::with_ratio(&c, &setup, dt, 3);
    }

    #[test]
    #[should_panic(expected = "sub-step ratio must be at least 1")]
    fn ratio_zero_is_refused() {
        let c = Chain1d::uniform(4, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 4]);
        LtsNewmark::with_ratio(&c, &setup, 0.5, 0);
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
