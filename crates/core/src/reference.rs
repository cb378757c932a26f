//! A literal, full-vector transcription of multi-level LTS-Newmark
//! (Algorithm 1), used as the ground truth for the masked production stepper.
//!
//! Every selection `P_k u` is materialised as a dense vector and fed to the
//! *full* operator; every auxiliary state spans all DOFs; middle levels use
//! the velocity-recovery formula for the whole vector, exactly as written in
//! the paper. This is O(levels × ndof × E) per step — only usable on small
//! problems, which is the point: [`crate::lts::LtsNewmark`] must reproduce it
//! to round-off (the masked leap-frog on constant-force rows is analytically
//! identical to the recovery).

use crate::operator::{Operator, Source};
use crate::setup::LtsSetup;

/// Full-vector reference stepper.
pub struct ReferenceLts<'a, O: Operator> {
    pub(crate) op: &'a O,
    pub(crate) setup: &'a LtsSetup,
    pub(crate) dt: f64,
}

impl<'a, O: Operator> ReferenceLts<'a, O> {
    pub fn new(op: &'a O, setup: &'a LtsSetup, dt: f64) -> Self {
        ReferenceLts { op, setup, dt }
    }

    fn apply_selected(&self, u: &[f64], level: u8) -> Vec<f64> {
        let masked: Vec<f64> = u
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if self.setup.dof_level[i] == level {
                    x
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = vec![0.0; u.len()];
        self.op.apply(&masked, &mut out);
        out
    }

    /// One global step (same state convention as the production stepper).
    pub fn step(&self, u: &mut [f64], v: &mut [f64], t: f64, sources: &[Source]) {
        let n = u.len();
        let dt = self.dt;
        let f0 = self.apply_selected(u, 0);
        if self.setup.n_levels == 1 {
            for i in 0..n {
                v[i] -= dt * f0[i];
            }
            self.sources_at(sources, 0, v, dt, t, 1.0);
            for i in 0..n {
                u[i] += dt * v[i];
            }
            return;
        }
        let frozen = vec![f0];
        let ut_end = self.aux(1, u.to_vec(), &frozen, t, sources);
        for i in 0..n {
            v[i] += 2.0 * (ut_end[i] - u[i]) / dt;
        }
        self.sources_at(sources, 0, v, dt, t, 1.0);
        for i in 0..n {
            u[i] += dt * v[i];
        }
    }

    fn sources_at(&self, sources: &[Source], level: u8, v: &mut [f64], dt: f64, t: f64, half: f64) {
        for s in sources {
            let d = s.dof as usize;
            if self.setup.leaf_level[d] == level {
                v[d] += half * dt * (s.amplitude)(t) / self.op.mass()[d];
            }
        }
    }

    /// Integrate the level-`l` auxiliary system over `Δt_{l−1}` starting from
    /// `u0` with zero auxiliary velocity; returns the full end state.
    fn aux(
        &self,
        l: usize,
        u0: Vec<f64>,
        frozen: &[Vec<f64>],
        t0: f64,
        sources: &[Source],
    ) -> Vec<f64> {
        let n = u0.len();
        let levels = self.setup.n_levels;
        let dt_l = self.dt / (1u64 << l) as f64;
        let mut ut = u0;
        let mut vt = vec![0.0; n];
        for m in 0..2usize {
            let tm = t0 + m as f64 * dt_l;
            let fl = self.apply_selected(&ut, l as u8);
            if l == levels - 1 {
                for i in 0..n {
                    let mut f = fl[i];
                    for fj in frozen {
                        f += fj[i];
                    }
                    if m == 0 {
                        vt[i] = -0.5 * dt_l * f;
                    } else {
                        vt[i] -= dt_l * f;
                    }
                }
                self.sources_at(
                    sources,
                    l as u8,
                    &mut vt,
                    dt_l,
                    tm,
                    if m == 0 { 0.5 } else { 1.0 },
                );
            } else {
                let mut frozen2 = frozen.to_vec();
                frozen2.push(fl);
                let u_end = self.aux(l + 1, ut.clone(), &frozen2, tm, sources);
                for i in 0..n {
                    let d = (u_end[i] - ut[i]) / dt_l;
                    if m == 0 {
                        vt[i] = d;
                    } else {
                        vt[i] += 2.0 * d;
                    }
                }
                self.sources_at(
                    sources,
                    l as u8,
                    &mut vt,
                    dt_l,
                    tm,
                    if m == 0 { 0.5 } else { 1.0 },
                );
            }
            for i in 0..n {
                ut[i] += dt_l * vt[i];
            }
        }
        ut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain1d::Chain1d;
    use crate::lts::LtsNewmark;
    use crate::setup::LtsSetup;

    fn compare_masked_vs_reference(vel: Vec<f64>, max_levels: usize, steps: usize) {
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.4, max_levels);
        let setup = LtsSetup::new(&c, &lv);
        let n = c.h.len() + 1;
        let mut u1: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 4.0) / 2.0).powi(2)).exp())
            .collect();
        let mut v1 = vec![0.0; n];
        let mut u2 = u1.clone();
        let mut v2 = v1.clone();
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        let rf = ReferenceLts::new(&c, &setup, dt);
        for s in 0..steps {
            let t = s as f64 * dt;
            lts.step(&mut u1, &mut v1, t, &[]);
            rf.step(&mut u2, &mut v2, t, &[]);
        }
        let scale: f64 = u2.iter().map(|x| x.abs()).fold(1.0, f64::max);
        for i in 0..n {
            assert!(
                (u1[i] - u2[i]).abs() < 1e-11 * scale,
                "u[{i}]: masked {} vs reference {} (levels {})",
                u1[i],
                u2[i],
                setup.n_levels
            );
            assert!(
                (v1[i] - v2[i]).abs() < 1e-10 * scale.max(v2[i].abs()),
                "v[{i}]"
            );
        }
    }

    #[test]
    fn masked_equals_reference_two_levels() {
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        compare_masked_vs_reference(vel, 2, 25);
    }

    #[test]
    fn masked_equals_reference_three_levels() {
        let mut vel = vec![1.0; 16];
        for (i, v) in vel.iter_mut().enumerate() {
            if i >= 12 {
                *v = 4.0;
            } else if i >= 9 {
                *v = 2.0;
            }
        }
        compare_masked_vs_reference(vel, 3, 15);
    }

    #[test]
    fn masked_equals_reference_four_levels() {
        let mut vel = vec![1.0; 24];
        for (i, v) in vel.iter_mut().enumerate() {
            if i >= 20 {
                *v = 8.0;
            } else if i >= 17 {
                *v = 4.0;
            } else if i >= 14 {
                *v = 2.0;
            }
        }
        compare_masked_vs_reference(vel, 4, 9);
    }

    #[test]
    fn masked_equals_reference_with_source() {
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.4, 2);
        let setup = LtsSetup::new(&c, &lv);
        let n = 13;
        let mut u1 = vec![0.0; n];
        let mut v1 = vec![0.0; n];
        let mut u2 = u1.clone();
        let mut v2 = v1.clone();
        // one source in the coarse region, one in the fine region
        let mk = || {
            vec![
                crate::operator::Source::ricker(2, 0.8, 0.5, 1.0),
                crate::operator::Source::ricker(10, 0.8, 0.5, 1.0),
            ]
        };
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        let rf = ReferenceLts::new(&c, &setup, dt);
        for s in 0..20 {
            let t = s as f64 * dt;
            lts.step(&mut u1, &mut v1, t, &mk());
            rf.step(&mut u2, &mut v2, t, &mk());
        }
        for i in 0..n {
            assert!(
                (u1[i] - u2[i]).abs() < 1e-11,
                "u[{i}]: {} vs {}",
                u1[i],
                u2[i]
            );
        }
    }
}
