//! Property-based tests of the observability counters: for random small
//! meshes, level paintings and partitions, every rank's deterministic
//! counters must equal the [`PartitionShape`] per level, and their sum the
//! serial stepper's element-operation count, *exactly*.
//!
//! SEM order 1 throughout — the shape counts corner nodes.

use proptest::prelude::*;
use wave_lts::lts::{LtsNewmark, LtsSetup, Operator};
use wave_lts::mesh::{HexMesh, Levels};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::PartitionShape;
use wave_lts::runtime::stats::names;
use wave_lts::runtime::{run_distributed_local_acoustic_observed, DistributedConfig};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::AcousticOperator;

const ORDER: usize = 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each rank's per-level element work, exchange volume and message
    /// count in a real distributed run equal `steps · 2^l ·` its
    /// no-execution partition shape; summed element work equals the serial
    /// stepper's count.
    #[test]
    fn distributed_counters_equal_oracle_and_serial(
        nx in 2usize..5, ny in 2usize..4, nz in 1usize..3,
        paint in 0usize..3, k in 2usize..4, steps in 1usize..4,
    ) {
        let mut mesh = HexMesh::uniform(nx, ny, nz, 1.0, 1.0);
        if paint > 0 {
            mesh.paint_box((0, paint.min(nx)), (0, ny), (0, nz), 2.0, 1.0);
        }
        let levels = Levels::assign(&mesh, 0.5, 3);
        let part: Vec<u32> = (0..mesh.n_elems()).map(|e| (e % k) as u32).collect();

        let op = AcousticOperator::new(&mesh, ORDER);
        let setup = LtsSetup::new(&op, &levels.elem_level);
        let ndof = Operator::ndof(&op);
        prop_assert_eq!(ndof, mesh.n_corner_nodes());
        let dt = levels.dt_global * cfl_dt_scale(ORDER, 3);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.13).sin()).collect();
        let v0 = vec![0.0; ndof];

        // serial reference operation count
        let mut u_ref = u0.clone();
        let mut v_ref = v0.clone();
        let mut lts = LtsNewmark::new(&op, &setup, dt);
        lts.run(&mut u_ref, &mut v_ref, 0.0, steps, &[]);

        // distributed run with merged host registry
        let cfg = DistributedConfig::new(k);
        let mut host = MetricsRegistry::new();
        let (u, _, stats) = run_distributed_local_acoustic_observed(
            &mesh, &levels, ORDER, &part, dt, &u0, &v0, steps, &cfg, &[], &mut host,
        )
        .unwrap();

        let o = PartitionShape::new(&mesh, &levels, &part, k);
        prop_assert_eq!(stats.len(), k);
        for st in &stats {
            let r = st.rank;
            for l in 0..levels.n_levels {
                let calls = steps as u64 * (1u64 << l);
                let level = Some(l as u8);
                prop_assert_eq!(
                    st.registry.counter(names::DOFS_SENT, level), calls * o.vol[r][l],
                    "dofs_sent at rank {} level {}", r, l
                );
                prop_assert_eq!(
                    st.registry.counter(names::MSGS_SENT, level), calls * o.peers[r][l],
                    "msgs_sent at rank {} level {}", r, l
                );
                prop_assert_eq!(
                    st.registry.counter(names::ELEM_OPS, level), calls * o.ops[r][l],
                    "elem_ops at rank {} level {}", r, l
                );
            }
        }
        prop_assert_eq!(host.counter_total(names::ELEM_OPS), lts.stats.elem_ops);
        prop_assert_eq!(o.elem_ops().iter().sum::<u64>() * steps as u64, lts.stats.elem_ops);
        let rank_sum: u64 = stats.iter().map(|r| r.elem_ops).sum();
        prop_assert_eq!(rank_sum, lts.stats.elem_ops);

        // the physics must agree too (the counters are not a side theory)
        let scale = u_ref.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            prop_assert!((u[i] - u_ref[i]).abs() <= 1e-12 * scale, "dof {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging histograms is lossless: observation count and sum add,
    /// min/max take the extremes — so post-join registry merging equals
    /// observing everything in one histogram.
    #[test]
    fn histogram_merge_is_lossless(
        xs in prop::collection::vec(1e-9f64..10.0, 0..40),
        ys in prop::collection::vec(1e-9f64..10.0, 0..40),
    ) {
        use wave_lts::obs::Histogram;
        let mut a = Histogram::default();
        for &x in &xs { a.observe(x); }
        let mut b = Histogram::default();
        for &y in &ys { b.observe(y); }
        let mut joint = Histogram::default();
        for &z in xs.iter().chain(&ys) { joint.observe(z); }

        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.count, joint.count);
        prop_assert!((merged.sum - joint.sum).abs() <= 1e-9 * joint.sum.abs().max(1.0));
        if joint.count > 0 {
            prop_assert_eq!(merged.min, joint.min);
            prop_assert_eq!(merged.max, joint.max);
        }
    }
}
