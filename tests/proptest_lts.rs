//! Property-based tests of the LTS core invariants on randomised problems.

use proptest::prelude::*;
use wave_lts::lts::reference::ReferenceLts;
use wave_lts::lts::{Chain1d, LtsNewmark, LtsSetup, Newmark};

/// Random piecewise velocity profiles (1–8×) on chains of 8–40 elements.
fn chain_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (8usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(
                prop_oneof![Just(1.0f64), Just(2.0), Just(4.0), Just(8.0)],
                n,
            ),
            prop::collection::vec(-1.0f64..1.0, n + 1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The masked production stepper always matches the literal full-vector
    /// Algorithm 1 — whatever the level layout.
    #[test]
    fn masked_matches_reference((vel, u0) in chain_strategy()) {
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.4, 4);
        let setup = LtsSetup::new(&c, &lv);
        let n = u0.len();
        let mut u1 = u0.clone();
        let mut v1 = vec![0.0; n];
        let mut u2 = u0;
        let mut v2 = vec![0.0; n];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        let rf = ReferenceLts::new(&c, &setup, dt);
        for s in 0..6 {
            let t = s as f64 * dt;
            lts.step(&mut u1, &mut v1, t, &[]);
            rf.step(&mut u2, &mut v2, t, &[]);
        }
        let scale = u2.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..n {
            prop_assert!((u1[i] - u2[i]).abs() < 1e-9 * scale,
                "dof {}: {} vs {}", i, u1[i], u2[i]);
        }
    }

    /// LTS at the CFL-safe coarse step stays bounded on any profile
    /// (stability), for hundreds of steps.
    #[test]
    fn lts_stays_bounded((vel, u0) in chain_strategy()) {
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 4);
        let setup = LtsSetup::new(&c, &lv);
        let n = u0.len();
        let mut u = u0;
        let mut v = vec![0.0; n];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.run(&mut u, &mut v, 0.0, 300, &[]);
        let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(norm.is_finite() && norm < 1e4, "norm {}", norm);
    }

    /// A single-level problem steps identically through the LTS and the
    /// plain Newmark code paths.
    #[test]
    fn single_level_is_newmark(u0 in prop::collection::vec(-1.0f64..1.0, 9..30)) {
        let n = u0.len() - 1;
        let c = Chain1d::uniform(n, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &vec![0u8; n]);
        let dt = 0.5;
        let mut u1 = u0.clone();
        let mut v1 = vec![0.0; n + 1];
        let mut u2 = u0;
        let mut v2 = vec![0.0; n + 1];
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        let mut nm = Newmark::new(&c, dt);
        for s in 0..10 {
            lts.step(&mut u1, &mut v1, s as f64 * dt, &[]);
            nm.step(&mut u2, &mut v2, s as f64 * dt, &[]);
        }
        prop_assert_eq!(u1, u2);
        prop_assert_eq!(v1, v2);
    }

    /// Leaf sets always partition the DOFs and active sets nest.
    #[test]
    fn setup_sets_are_consistent((vel, _) in chain_strategy()) {
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, _) = c.assign_levels(0.5, 5);
        let setup = LtsSetup::new(&c, &lv);
        let n = c.h.len() + 1;
        // leaf sets partition all DOFs
        let mut seen = vec![0usize; n];
        for leaf in &setup.leaf {
            for &d in leaf {
                seen[d as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1), "leaf sets not a partition: {:?}", seen);
        // active sets nest: the active set of `k` is every DOF of
        // `elems[j]`, `j ≥ k`
        let active = |k: usize| -> Vec<u32> {
            let (mut dofs, mut out) = (Vec::new(), Vec::new());
            for &e in setup.elems[k..].iter().flatten() {
                wave_lts::lts::DofTopology::elem_dofs(&c, e, &mut dofs);
                out.extend_from_slice(&dofs);
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        for k in 2..setup.n_levels {
            let outer = active(k - 1);
            for d in &active(k) {
                prop_assert!(outer.contains(d));
            }
        }
        // masked products sum to the full apply
        let u: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) / 17.0 - 0.5).collect();
        let mut full = vec![0.0; n];
        wave_lts::lts::Operator::apply(&c, &u, &mut full);
        let mut sum = vec![0.0; n];
        for k in 0..setup.n_levels {
            wave_lts::lts::Operator::apply_masked(&c, &u, &mut sum, &setup.elems[k], &setup.dof_level, k as u8);
        }
        for i in 0..n {
            prop_assert!((full[i] - sum[i]).abs() < 1e-11, "dof {}", i);
        }
    }
}

// ---- cross-transport identity --------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On any random chain and interleaved partition, every transport
    /// backend in both communication modes reproduces the channel/blocking
    /// run bit for bit, with identical deterministic counters.
    #[test]
    fn transports_agree_bitwise_on_random_chains((vel, u0) in chain_strategy()) {
        use wave_lts::obs::MetricsRegistry;
        use wave_lts::runtime::{run, DistributedConfig, RunSpec, TransportKind};
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.4, 3);
        let nelem = c.h.len();
        let n = u0.len();
        let n_ranks = 2 + nelem % 2; // 2 or 3 ranks, interleaved ownership
        let part: Vec<u32> = (0..nelem).map(|e| (e % n_ranks) as u32).collect();
        let run = |kind: TransportKind, overlap: bool| {
            let cfg = DistributedConfig { transport: kind, overlap,
                ..DistributedConfig::new(n_ranks) };
            let spec = RunSpec { elem_level: &lv, partition: &part, dt, u0: &u0,
                v0: &vec![0.0; n], n_steps: 6, sources: &[], cfg };
            run(&c, &spec, None, &mut MetricsRegistry::new())
                .into_result()
                .expect("distributed run")
        };
        let (ur, vr, sr) = run(TransportKind::Channel, false);
        for kind in [TransportKind::Channel, TransportKind::UnixSocket] {
            for overlap in [false, true] {
                if kind == TransportKind::Channel && !overlap { continue; }
                let (u, v, s) = run(kind, overlap);
                for i in 0..n {
                    prop_assert_eq!(ur[i].to_bits(), u[i].to_bits(),
                        "{:?} overlap={} u[{}]", kind, overlap, i);
                    prop_assert_eq!(vr[i].to_bits(), v[i].to_bits(),
                        "{:?} overlap={} v[{}]", kind, overlap, i);
                }
                for (a, b) in sr.iter().zip(&s) {
                    prop_assert_eq!(a.elem_ops, b.elem_ops);
                    prop_assert_eq!(a.n_exchanges, b.n_exchanges);
                    prop_assert_eq!(a.msgs_sent, b.msgs_sent);
                    prop_assert_eq!(a.dofs_sent, b.dofs_sent);
                }
            }
        }
    }
}
