//! The classic explicit Newmark scheme (Eqs. 5–6), staggered in time:
//!
//! ```text
//! v^{n+1/2} = v^{n-1/2} − Δt (A u^n − M⁻¹F(t_n))
//! u^{n+1}   = u^n + Δt v^{n+1/2}
//! ```
//!
//! Subject to the CFL bound (Eq. 7), a non-LTS run of a mesh with levels must
//! take the *globally* smallest step `Δt / p_max` — the bottleneck LTS
//! removes.

use crate::operator::{Operator, Source, Workspace};

/// Explicit Newmark / leap-frog stepper.
pub struct Newmark<'a, O: Operator> {
    pub(crate) op: &'a O,
    pub(crate) dt: f64,
    accel: Vec<f64>,
    ws: Workspace,
    /// Steps taken so far.
    pub(crate) n_steps: u64,
}

impl<'a, O: Operator> Newmark<'a, O> {
    pub fn new(op: &'a O, dt: f64) -> Self {
        assert!(dt > 0.0);
        let n = op.ndof();
        Newmark {
            op,
            dt,
            accel: vec![0.0; n],
            ws: Workspace::new(),
            n_steps: 0,
        }
    }

    /// Convert a nodal velocity at `t = 0` into the staggered `v^{-1/2}`
    /// needed by the scheme: `v^{-1/2} = v⁰ + (Δt/2)(A u⁰ − M⁻¹F(0))`.
    pub fn stagger_velocity(op: &O, dt: f64, u0: &[f64], v0: &mut [f64], sources: &[Source]) {
        let mut au = vec![0.0; op.ndof()];
        op.apply(u0, &mut au);
        for (v, a) in v0.iter_mut().zip(&au) {
            *v += 0.5 * dt * a;
        }
        for s in sources {
            v0[s.dof as usize] -= 0.5 * dt * (s.amplitude)(0.0) / op.mass()[s.dof as usize];
        }
    }

    /// Advance one step from time `t` (`u = u^n`, `v = v^{n-1/2}` on entry;
    /// `u^{n+1}`, `v^{n+1/2}` on exit).
    pub fn step(&mut self, u: &mut [f64], v: &mut [f64], t: f64, sources: &[Source]) {
        self.op.apply_ws(u, &mut self.accel, &mut self.ws);
        let dt = self.dt;
        for (vi, a) in v.iter_mut().zip(&self.accel) {
            *vi -= dt * a;
        }
        for s in sources {
            v[s.dof as usize] += dt * (s.amplitude)(t) / self.op.mass()[s.dof as usize];
        }
        for (ui, vi) in u.iter_mut().zip(v.iter()) {
            *ui += dt * vi;
        }
        self.n_steps += 1;
    }

    /// Run `n` steps starting at time `t0`; returns the end time.
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

    /// Free-end (Neumann) standing wave: the lumped P1 chain with half-mass
    /// end rows has exact cosine eigenmodes, u_i(t) = cos(k i h)·cos(ω_h t)
    /// with ω_h = (2c/h)·sin(kh/2) — so the only error is temporal and the
    /// leap-frog convergence order is observable cleanly.
    #[test]
    fn standing_wave_second_order_in_time() {
        let n = 16;
        let c = Chain1d::uniform(n, 1.0, 1.0);
        let l = n as f64;
        let kx = std::f64::consts::PI / l;
        let omega_h = 2.0 * (kx / 2.0).sin(); // h = c = 1
        let exact = |x: f64, t: f64| (kx * x).cos() * (omega_h * t).cos();

        let mut errs = Vec::new();
        for &dt in &[0.2f64, 0.1, 0.05] {
            let steps = (8.0 / dt).round() as usize;
            let t_end = steps as f64 * dt;
            let mut u: Vec<f64> = (0..=n).map(|i| exact(i as f64, 0.0)).collect();
            let mut v = vec![0.0; n + 1];
            // pin the ends by zeroing their mass-normalized updates: for the
            // eigenmode the ends stay 0 automatically (sin(0)=sin(π)=0).
            Newmark::stagger_velocity(&c, dt, &u, &mut v, &[]);
            let mut nm = Newmark::new(&c, dt);
            nm.run(&mut u, &mut v, 0.0, steps, &[]);
            let err: f64 = (0..=n)
                .map(|i| (u[i] - exact(i as f64, t_end)).abs())
                .fold(0.0, f64::max);
            errs.push(err);
        }
        // halving dt should reduce the error ~4× (second order)
        let r1 = errs[0] / errs[1];
        let r2 = errs[1] / errs[2];
        assert!(r1 > 3.0 && r1 < 5.0, "rates {errs:?}");
        assert!(r2 > 3.0 && r2 < 5.0, "rates {errs:?}");
    }

    #[test]
    fn unstable_beyond_cfl() {
        let n = 16;
        let c = Chain1d::uniform(n, 1.0, 1.0);
        // lumped P1 chain stability limit is dt = h/c = 1.0
        let mut u: Vec<f64> = (0..=n)
            .map(|i| ((i * 37) % 11) as f64 / 11.0 - 0.5)
            .collect();
        let mut v = vec![0.0; n + 1];
        let mut nm = Newmark::new(&c, 1.4);
        nm.run(&mut u, &mut v, 0.0, 200, &[]);
        let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm > 1e6, "expected blow-up, norm = {norm}");
    }

    #[test]
    fn stable_within_cfl() {
        let n = 16;
        let c = Chain1d::uniform(n, 1.0, 1.0);
        let mut u: Vec<f64> = (0..=n)
            .map(|i| ((i * 37) % 11) as f64 / 11.0 - 0.5)
            .collect();
        u[0] = 0.0;
        u[n] = 0.0;
        let mut v = vec![0.0; n + 1];
        let mut nm = Newmark::new(&c, 0.9);
        nm.run(&mut u, &mut v, 0.0, 500, &[]);
        let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm < 100.0, "unexpected growth, norm = {norm}");
    }

    #[test]
    fn source_injects_momentum() {
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let mut u = vec![0.0; 9];
        let mut v = vec![0.0; 9];
        let src = Source::new(4, |_| 1.0);
        let mut nm = Newmark::new(&c, 0.1);
        nm.step(&mut u, &mut v, 0.0, &[src]);
        assert!(v[4] > 0.0);
        assert!(u[4] > 0.0);
        assert_eq!(u[0], 0.0);
    }
}
