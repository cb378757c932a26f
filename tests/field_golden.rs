//! Golden fields: FNV-1a hashes of the final `u`/`v` bits of LTS-Newmark
//! runs, serial (`LtsNewmark`) and on the rank runtime at two ranks, for
//! both physics at orders 1–5 on small trench and trench-big meshes with
//! one Ricker source. Further cases pin the serial stepper with two
//! threads, a source on the finest leaf level, the runtime with
//! comm/compute overlap and two threads per rank, single-level runs (every
//! element on level 0), 1-D chain runs, serial and on ranks, and
//! two-level chains at sub-step ratios 1–5. The runtime at one rank (every
//! element on rank 0, with one and two threads) carries the serial rows'
//! hashes, so a one-rank world steps bit for bit as the serial stepper
//! does. A memory or speed change to the gather, kernel or stepping code
//! must leave every bit of every field as it is, so any drift here is a
//! behaviour change.
//!
//! The two benchmark-size cases are `#[ignore]`d to keep the debug test run
//! fast; run them with
//! `cargo test --release --test field_golden -- --include-ignored`.

use wave_lts::lts::{Chain1d, LtsNewmark, LtsSetup, Operator, Source};
use wave_lts::mesh::{BenchmarkMesh, Levels, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::{run, Acoustic, Decompose, DistributedConfig, Elastic, RunSpec};
use wave_lts::sem::gll::cfl_dt_scale;

/// FNV-1a (64-bit) over the bytes of `u` then `v`, via `to_bits`.
fn fnv1a(u: &[f64], v: &[f64]) -> u64 {
    u.iter()
        .chain(v)
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[derive(Clone, Copy, Debug)]
enum Physics {
    Acoustic,
    Elastic,
}

#[derive(Clone, Copy, Debug)]
enum Path {
    Serial,
    /// [`Serial`](Path::Serial) with two worker threads.
    SerialT2,
    /// The rank runtime at two ranks (SCOTCH-P partition).
    LocalR2,
    /// [`LocalR2`](Path::LocalR2) with comm/compute overlap and two worker
    /// threads per rank.
    LocalR2OverlapT2,
    /// The rank runtime at one rank, every element on rank 0: a one-rank
    /// world, which must reproduce the [`Serial`](Path::Serial) hashes.
    LocalR1,
    /// [`LocalR1`](Path::LocalR1) with two worker threads, against
    /// [`SerialT2`](Path::SerialT2).
    LocalR1T2,
}

/// Where the one Ricker source sits.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// DOF `ndof / 3`.
    Third,
    /// The middle DOF of `setup.leaf[L − 1]`, the finest leaf level.
    Finest,
}

/// Run `steps` global steps from a smooth initial displacement, zero
/// velocity and one Ricker source at `src`; return the hash of the final
/// fields. With `single_level`, every element is put on
/// level 0 and the global step shrinks to the mesh's finest one,
/// `dt_global / 2^(n_levels − 1)`.
#[allow(clippy::too_many_arguments)]
fn run_case(
    physics: Physics,
    path: Path,
    kind: MeshKind,
    elements: usize,
    order: usize,
    steps: usize,
    single_level: bool,
    src: Src,
) -> u64 {
    let b = BenchmarkMesh::build(kind, elements);
    assert!(
        b.levels.n_levels > 1,
        "{kind:?} {elements}: single-level mesh"
    );
    let levels = if single_level {
        Levels {
            elem_level: vec![0; b.mesh.n_elems()],
            n_levels: 1,
            dt_global: b.levels.dt_global / (1u64 << (b.levels.n_levels - 1)) as f64,
        }
    } else {
        b.levels.clone()
    };
    let dt = levels.dt_global * cfl_dt_scale(order, 3);
    let mesh = &b.mesh;
    match physics {
        Physics::Acoustic => solve(&Acoustic { mesh, order }, &b, &levels, path, dt, steps, src),
        Physics::Elastic => solve(&Elastic { mesh, order }, &b, &levels, path, dt, steps, src),
    }
}

fn solve<P: Decompose>(
    problem: &P,
    b: &BenchmarkMesh,
    levels: &Levels,
    path: Path,
    dt: f64,
    steps: usize,
    src: Src,
) -> u64 {
    let op = problem.global();
    let setup = LtsSetup::new(&op, &levels.elem_level);
    let ndof = Operator::ndof(&op);
    let mut u: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
    let mut v = vec![0.0; ndof];
    let src_dof = match src {
        Src::Third => (ndof / 3) as u32,
        Src::Finest => {
            let finest = &setup.leaf[setup.n_levels - 1];
            finest[finest.len() / 2]
        }
    };
    let sources = [Source::ricker(src_dof, 0.3, 1.0, 1.0)];
    match path {
        Path::Serial | Path::SerialT2 => {
            let mut lts = LtsNewmark::new(&op, &setup, dt);
            if matches!(path, Path::SerialT2) {
                lts.threads = 2;
            }
            lts.run(&mut u, &mut v, 0.0, steps, &sources);
            fnv1a(&u, &v)
        }
        Path::LocalR2 | Path::LocalR2OverlapT2 | Path::LocalR1 | Path::LocalR1T2 => {
            let cfg = match path {
                Path::LocalR1 => DistributedConfig::new(1),
                Path::LocalR1T2 => DistributedConfig {
                    threads_per_rank: 2,
                    ..DistributedConfig::new(1)
                },
                Path::LocalR2OverlapT2 => DistributedConfig {
                    overlap: true,
                    threads_per_rank: 2,
                    ..DistributedConfig::new(2)
                },
                _ => DistributedConfig::new(2),
            };
            let part = if cfg.n_ranks == 1 {
                vec![0; b.mesh.n_elems()]
            } else {
                partition_mesh(&b.mesh, levels, 2, Strategy::ScotchP, 1)
            };
            let spec = RunSpec {
                elem_level: &levels.elem_level,
                partition: &part,
                dt,
                u0: &u,
                v0: &v,
                n_steps: steps,
                sources: &sources,
                cfg,
            };
            let (u, v, _) = run(problem, &spec, None, &mut MetricsRegistry::new())
                .into_result()
                .expect("rank runtime");
            fnv1a(&u, &v)
        }
    }
}

/// `(physics, path, mesh, elements, order, steps, hash)`.
type Golden = (Physics, Path, MeshKind, usize, usize, usize, u64);

/// Recorded before the compiled gathers lost their stored level masks.
#[rustfmt::skip]
const SMALL: &[Golden] = &[
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 2, 2, 0xb117_031e_6413_2fb2),
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 3, 2, 0xb68e_73c3_b2fc_a814),
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 4, 2, 0x01a5_bb97_085e_de63),
    (Physics::Acoustic, Path::Serial, MeshKind::TrenchBig, 864, 2, 2, 0xdb5d_83d7_3013_5e42),
    (Physics::Acoustic, Path::Serial, MeshKind::TrenchBig, 864, 3, 2, 0xaed7_17af_4a9a_263d),
    (Physics::Acoustic, Path::Serial, MeshKind::TrenchBig, 864, 4, 2, 0xb740_2246_2fab_75b3),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 2, 2, 0xb117_031e_6413_2fb2),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 3, 2, 0xb68e_73c3_b2fc_a814),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 4, 2, 0x01a5_bb97_085e_de63),
    (Physics::Acoustic, Path::LocalR1, MeshKind::TrenchBig, 864, 2, 2, 0xdb5d_83d7_3013_5e42),
    (Physics::Acoustic, Path::LocalR1, MeshKind::TrenchBig, 864, 3, 2, 0xaed7_17af_4a9a_263d),
    (Physics::Acoustic, Path::LocalR1, MeshKind::TrenchBig, 864, 4, 2, 0xb740_2246_2fab_75b3),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 2, 2, 0xd0e9_7af4_b341_a71e),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 3, 2, 0xce7a_a461_a665_8352),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 4, 2, 0x0fdd_f0d4_e091_16ec),
    (Physics::Acoustic, Path::LocalR2, MeshKind::TrenchBig, 864, 2, 2, 0xcafb_4c6b_a423_8f12),
    (Physics::Acoustic, Path::LocalR2, MeshKind::TrenchBig, 864, 3, 2, 0x8eb7_4c9c_bf19_7a04),
    (Physics::Acoustic, Path::LocalR2, MeshKind::TrenchBig, 864, 4, 2, 0x2195_2f96_786c_377f),
    (Physics::Elastic, Path::Serial, MeshKind::Trench, 300, 2, 2, 0x4a62_9a09_c7a2_51e5),
    (Physics::Elastic, Path::Serial, MeshKind::Trench, 300, 3, 2, 0x6cbc_6260_5f12_26b6),
    (Physics::Elastic, Path::Serial, MeshKind::Trench, 300, 4, 2, 0xea9d_e50f_d0a5_3229),
    (Physics::Elastic, Path::Serial, MeshKind::TrenchBig, 864, 2, 2, 0x0bcb_ec38_bef9_48e7),
    (Physics::Elastic, Path::Serial, MeshKind::TrenchBig, 864, 3, 2, 0x05ca_ddea_ad62_f843),
    (Physics::Elastic, Path::Serial, MeshKind::TrenchBig, 864, 4, 2, 0x917c_1aaa_06bd_8788),
    (Physics::Elastic, Path::LocalR1, MeshKind::Trench, 300, 2, 2, 0x4a62_9a09_c7a2_51e5),
    (Physics::Elastic, Path::LocalR1, MeshKind::Trench, 300, 3, 2, 0x6cbc_6260_5f12_26b6),
    (Physics::Elastic, Path::LocalR1, MeshKind::Trench, 300, 4, 2, 0xea9d_e50f_d0a5_3229),
    (Physics::Elastic, Path::LocalR1, MeshKind::TrenchBig, 864, 2, 2, 0x0bcb_ec38_bef9_48e7),
    (Physics::Elastic, Path::LocalR1, MeshKind::TrenchBig, 864, 3, 2, 0x05ca_ddea_ad62_f843),
    (Physics::Elastic, Path::LocalR1, MeshKind::TrenchBig, 864, 4, 2, 0x917c_1aaa_06bd_8788),
    (Physics::Elastic, Path::LocalR2, MeshKind::Trench, 300, 2, 2, 0xa61c_be75_b72e_1e33),
    (Physics::Elastic, Path::LocalR2, MeshKind::Trench, 300, 3, 2, 0x8d27_24e5_ba3d_52ac),
    (Physics::Elastic, Path::LocalR2, MeshKind::Trench, 300, 4, 2, 0x874e_4942_70ff_d3df),
    (Physics::Elastic, Path::LocalR2, MeshKind::TrenchBig, 864, 2, 2, 0x4689_4fef_2c63_d2ab),
    (Physics::Elastic, Path::LocalR2, MeshKind::TrenchBig, 864, 3, 2, 0x5fce_bd24_6d36_ee21),
    (Physics::Elastic, Path::LocalR2, MeshKind::TrenchBig, 864, 4, 2, 0x0873_0d13_1fee_4a3d),
];

/// The benchmark's trench order-4 mesh, serial and at two ranks.
#[rustfmt::skip]
const BENCH_SIZE: &[Golden] = &[
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 8_788, 4, 2, 0xd97b_7cb2_3578_7bf6),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 8_788, 4, 2, 0xd97b_7cb2_3578_7bf6),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 8_788, 4, 2, 0x12c0_53b7_dc79_4c7b),
];

/// The runtime with overlap and two threads per rank; recorded before the
/// serial and rank steppers shared one recursion.
#[rustfmt::skip]
const RUNTIME_VARIANTS: &[Golden] = &[
    (Physics::Acoustic, Path::LocalR2OverlapT2, MeshKind::Trench, 300, 2, 2, 0xd0e9_7af4_b341_a71e),
    (Physics::Acoustic, Path::LocalR2OverlapT2, MeshKind::Trench, 300, 4, 2, 0x0fdd_f0d4_e091_16ec),
    (Physics::Acoustic, Path::LocalR2OverlapT2, MeshKind::TrenchBig, 864, 2, 2, 0xcafb_4c6b_a423_8f12),
    (Physics::Elastic, Path::LocalR2OverlapT2, MeshKind::Trench, 300, 3, 2, 0x8d27_24e5_ba3d_52ac),
];

/// Every element on level 0 at the mesh's finest step; recorded before the
/// serial and rank steppers shared one recursion.
#[rustfmt::skip]
const SINGLE_LEVEL: &[Golden] = &[
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 2, 3, 0x80ed_5dde_6cb5_cf63),
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 4, 3, 0x2bf1_af8e_008e_524e),
    (Physics::Elastic, Path::Serial, MeshKind::Trench, 300, 3, 3, 0x654f_596c_370b_58e3),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 2, 3, 0x80ed_5dde_6cb5_cf63),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 4, 3, 0x2bf1_af8e_008e_524e),
    (Physics::Elastic, Path::LocalR1, MeshKind::Trench, 300, 3, 3, 0x654f_596c_370b_58e3),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 2, 3, 0x7442_4120_568e_b055),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 4, 3, 0xfbc9_93a8_8eef_ff64),
    (Physics::Elastic, Path::LocalR2, MeshKind::Trench, 300, 3, 3, 0x6369_6637_f287_6f0b),
];

/// The serial stepper with two worker threads; recorded before the steppers
/// numbered their DOFs by level.
#[rustfmt::skip]
const SERIAL_THREADS: &[Golden] = &[
    (Physics::Acoustic, Path::SerialT2, MeshKind::Trench, 300, 2, 2, 0xb117_031e_6413_2fb2),
    (Physics::Acoustic, Path::SerialT2, MeshKind::Trench, 300, 4, 2, 0x01a5_bb97_085e_de63),
    (Physics::Acoustic, Path::SerialT2, MeshKind::TrenchBig, 864, 3, 2, 0xaed7_17af_4a9a_263d),
    (Physics::Acoustic, Path::LocalR1T2, MeshKind::Trench, 300, 2, 2, 0xb117_031e_6413_2fb2),
    (Physics::Acoustic, Path::LocalR1T2, MeshKind::Trench, 300, 4, 2, 0x01a5_bb97_085e_de63),
    (Physics::Acoustic, Path::LocalR1T2, MeshKind::TrenchBig, 864, 3, 2, 0xaed7_17af_4a9a_263d),
];

/// The source on a DOF of the finest leaf level; recorded before the
/// steppers numbered their DOFs by level.
#[rustfmt::skip]
const FINEST_SOURCE: &[Golden] = &[
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 2, 2, 0x8ad2_4b2e_b987_1def),
    (Physics::Acoustic, Path::Serial, MeshKind::TrenchBig, 864, 3, 2, 0xf0d7_558f_34c4_c41b),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 2, 2, 0x8ad2_4b2e_b987_1def),
    (Physics::Acoustic, Path::LocalR1, MeshKind::TrenchBig, 864, 3, 2, 0xf0d7_558f_34c4_c41b),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 2, 2, 0x7f40_6614_e2e9_75e0),
    (Physics::Acoustic, Path::LocalR2, MeshKind::TrenchBig, 864, 3, 2, 0x53b3_ec1e_0a6f_d3bd),
    (Physics::Elastic, Path::Serial, MeshKind::Trench, 300, 3, 2, 0x72f2_67e1_9c14_3a0f),
    (Physics::Elastic, Path::LocalR1, MeshKind::Trench, 300, 3, 2, 0x72f2_67e1_9c14_3a0f),
    (Physics::Elastic, Path::LocalR2, MeshKind::Trench, 300, 3, 2, 0xf166_b566_6de4_589f),
];

/// Orders 1 and 5, each its own instantiation of the batched kernels;
/// recorded before the kernels were specialised per order.
#[rustfmt::skip]
const ORDERS_1_5: &[Golden] = &[
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 1, 2, 0xbe27_e443_0ca4_8ab5),
    (Physics::Acoustic, Path::Serial, MeshKind::Trench, 300, 5, 2, 0x0095_88c3_5cff_6f9a),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 1, 2, 0xbe27_e443_0ca4_8ab5),
    (Physics::Acoustic, Path::LocalR1, MeshKind::Trench, 300, 5, 2, 0x0095_88c3_5cff_6f9a),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 1, 2, 0x0c8b_96be_f4de_dfe5),
    (Physics::Acoustic, Path::LocalR2, MeshKind::Trench, 300, 5, 2, 0x7412_df26_6d67_b396),
    (Physics::Elastic, Path::Serial, MeshKind::Trench, 300, 1, 2, 0xd335_713e_d477_5170),
    (Physics::Elastic, Path::Serial, MeshKind::Trench, 300, 5, 2, 0xa3e1_0175_ab77_b6e9),
    (Physics::Elastic, Path::LocalR1, MeshKind::Trench, 300, 1, 2, 0xd335_713e_d477_5170),
    (Physics::Elastic, Path::LocalR1, MeshKind::Trench, 300, 5, 2, 0xa3e1_0175_ab77_b6e9),
    (Physics::Elastic, Path::LocalR2, MeshKind::Trench, 300, 1, 2, 0xdb2a_648c_0051_cffd),
    (Physics::Elastic, Path::LocalR2, MeshKind::Trench, 300, 5, 2, 0x314d_2b89_fd93_c03a),
];

fn check(cases: &[Golden], single_level: bool, src: Src) {
    let mut drift = Vec::new();
    for &(physics, path, kind, elements, order, steps, want) in cases {
        let got = run_case(
            physics,
            path,
            kind,
            elements,
            order,
            steps,
            single_level,
            src,
        );
        if got != want {
            drift.push(format!(
                "{physics:?} {path:?} {kind:?} {elements} p{order} {steps} steps: \
                 {got:#018x}, golden {want:#018x}"
            ));
        }
    }
    assert!(drift.is_empty(), "field drift:\n{}", drift.join("\n"));
}

#[test]
fn small_fields_match_golden_hashes() {
    check(SMALL, false, Src::Third);
}

#[test]
fn order_1_and_5_fields_match_golden_hashes() {
    check(ORDERS_1_5, false, Src::Third);
}

#[test]
fn runtime_variant_fields_match_golden_hashes() {
    check(RUNTIME_VARIANTS, false, Src::Third);
}

#[test]
fn serial_thread_fields_match_golden_hashes() {
    check(SERIAL_THREADS, false, Src::Third);
}

#[test]
fn finest_source_fields_match_golden_hashes() {
    check(FINEST_SOURCE, false, Src::Finest);
}

#[test]
fn single_level_fields_match_golden_hashes() {
    check(SINGLE_LEVEL, true, Src::Third);
}

#[test]
#[ignore = "benchmark-size; run in release with --include-ignored"]
fn benchmark_size_fields_match_golden_hashes() {
    check(BENCH_SIZE, false, Src::Third);
}

/// A 1-D chain run at `ranks` ranks on `part`: the 3-level 24-element
/// chain with an interleaved `e % 3` partition (every rank owns elements at
/// every level), or the paper's Fig. 1 chain on two ranks.
#[derive(Clone, Copy, Debug)]
enum ChainCase {
    /// Three levels, `e % 3` at three ranks, one Ricker source on the
    /// finest level; `overlap` toggles comm/compute overlap.
    Interleaved { overlap: bool },
    /// The chain, source and steps of `Interleaved`, on the serial
    /// `LtsNewmark`.
    Serial,
    /// Fig. 1: eight fine elements in a 16-element chain; `balanced`
    /// splits each level evenly, otherwise the geometric split at 10.
    Fig1 { balanced: bool },
}

fn chain_case(case: ChainCase) -> u64 {
    let (vel, max_levels, steps, ranks) = match case {
        ChainCase::Interleaved { .. } | ChainCase::Serial => {
            let vel: Vec<f64> = (0..24)
                .map(|i| match i {
                    20.. => 4.0,
                    17.. => 2.0,
                    _ => 1.0,
                })
                .collect();
            (vel, 3, 20, 3)
        }
        ChainCase::Fig1 { .. } => {
            let vel: Vec<f64> = (0..16)
                .map(|i| if (4..12).contains(&i) { 2.0 } else { 1.0 })
                .collect();
            (vel, 2, 60, 2)
        }
    };
    let ne = vel.len();
    let c = Chain1d::with_velocities(vel, 1.0);
    let (lv, dt) = c.assign_levels(0.5, max_levels);
    let n = ne + 1;
    let (u0, sources, part, overlap) = match case {
        ChainCase::Interleaved { .. } | ChainCase::Serial => {
            let u0: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
            let sources = vec![Source::ricker(21, 0.3, 1.0, 1.0)];
            let part: Vec<u32> = (0..ne).map(|e| (e % 3) as u32).collect();
            let overlap = matches!(case, ChainCase::Interleaved { overlap: true });
            (u0, sources, part, overlap)
        }
        ChainCase::Fig1 { balanced } => {
            let u0: Vec<f64> = (0..n)
                .map(|i| (-((i as f64 - 8.0) / 2.0f64).powi(2)).exp())
                .collect();
            let part: Vec<u32> = if balanced {
                (0..ne)
                    .map(|e| {
                        let peers: Vec<usize> = (0..ne).filter(|&x| lv[x] == lv[e]).collect();
                        let pos = peers.iter().position(|&x| x == e).unwrap();
                        u32::from(pos >= peers.len() / 2)
                    })
                    .collect()
            } else {
                (0..ne).map(|e| u32::from(e >= 10)).collect()
            };
            (u0, Vec::new(), part, false)
        }
    };
    if let ChainCase::Serial = case {
        let setup = LtsSetup::new(&c, &lv);
        let (mut u, mut v) = (u0, vec![0.0; n]);
        LtsNewmark::new(&c, &setup, dt).run(&mut u, &mut v, 0.0, steps, &sources);
        return fnv1a(&u, &v);
    }
    let spec = RunSpec {
        elem_level: &lv,
        partition: &part,
        dt,
        u0: &u0,
        v0: &vec![0.0; n],
        n_steps: steps,
        sources: &sources,
        cfg: DistributedConfig {
            overlap,
            ..DistributedConfig::new(ranks)
        },
    };
    let (u, v, _) = run(&c, &spec, None, &mut MetricsRegistry::new())
        .into_result()
        .expect("chain runtime");
    fnv1a(&u, &v)
}

/// Recorded on the globally replicated runtime, before the chain ran
/// through the rank-local builder; the serial row was recorded before the
/// steppers numbered their DOFs by level.
const CHAINS: &[(ChainCase, u64)] = &[
    (
        ChainCase::Interleaved { overlap: false },
        0xb79f_bb6a_8405_5f07,
    ),
    (
        ChainCase::Interleaved { overlap: true },
        0xb79f_bb6a_8405_5f07,
    ),
    (ChainCase::Serial, 0xb79f_bb6a_8405_5f07),
    (ChainCase::Fig1 { balanced: false }, 0xda93_7523_15c5_457b),
    (ChainCase::Fig1 { balanced: true }, 0xda93_7523_15c5_457b),
];

#[test]
fn chain_fields_match_golden_hashes() {
    let mut drift = Vec::new();
    for &(case, want) in CHAINS {
        let got = chain_case(case);
        if got != want {
            drift.push(format!("{case:?}: {got:#018x}, golden {want:#018x}"));
        }
    }
    assert!(drift.is_empty(), "field drift:\n{}", drift.join("\n"));
}

/// A two-level chain stepped with `p` fine sub-steps per global step.
#[derive(Clone, Copy, Debug)]
enum RatioCase {
    /// The `verification` binary's p-sweep chain: 20 elements, velocity 3
    /// from element 14, `Δt = 0.85`, 500 steps, no source (blows up at
    /// p < 3).
    Sweep,
    /// 16 elements, velocity 3 from element 10, `Δt = 0.3`, 40 steps, one
    /// Ricker source on a coarse and one on a fine DOF.
    Sourced,
}

fn ratio_case(case: RatioCase, p: usize) -> u64 {
    let (ne, fine_from, dt, steps) = match case {
        RatioCase::Sweep => (20, 14, 0.85, 500),
        RatioCase::Sourced => (16, 10, 0.3, 40),
    };
    let vel: Vec<f64> = (0..ne)
        .map(|e| if e >= fine_from { 3.0 } else { 1.0 })
        .collect();
    let c = Chain1d::with_velocities(vel, 1.0);
    let lv: Vec<u8> = (0..ne).map(|e| u8::from(e >= fine_from)).collect();
    let setup = LtsSetup::new(&c, &lv);
    let n = ne + 1;
    let (mut u, sources): (Vec<f64>, Vec<Source>) = match case {
        RatioCase::Sweep => (
            (0..n)
                .map(|i| (-((i as f64 - 7.0) / 2.0f64).powi(2)).exp())
                .collect(),
            Vec::new(),
        ),
        RatioCase::Sourced => (
            (0..n).map(|i| ((i as f64) * 0.37).sin()).collect(),
            vec![
                Source::ricker(4, 0.3, 1.0, 1.0),
                Source::ricker(13, 0.5, 2.0, 0.5),
            ],
        ),
    };
    let mut v = vec![0.0; n];
    LtsNewmark::with_ratio(&c, &setup, dt, p).run(&mut u, &mut v, 0.0, steps, &sources);
    fnv1a(&u, &v)
}

/// `(case, p, hash)`; recorded on a hand-written two-level stepper, before
/// the one recursion took a sub-step ratio.
#[rustfmt::skip]
const RATIOS: &[(RatioCase, usize, u64)] = &[
    (RatioCase::Sweep, 1, 0x7cf3_5372_8be9_0915),
    (RatioCase::Sweep, 2, 0x7cf3_5372_8be9_0915),
    (RatioCase::Sweep, 3, 0xb2da_3327_f203_7783),
    (RatioCase::Sweep, 4, 0xb94f_4e3b_c2dd_4fa5),
    (RatioCase::Sourced, 1, 0x635a_6170_3d9d_1568),
    (RatioCase::Sourced, 2, 0xd794_95f9_bd1a_8802),
    (RatioCase::Sourced, 3, 0x7dc9_7453_fab5_4f01),
    (RatioCase::Sourced, 4, 0xdc59_2ecd_2009_e920),
    (RatioCase::Sourced, 5, 0x8a77_cc89_dc58_cf6a),
];

#[test]
fn ratio_fields_match_golden_hashes() {
    let mut drift = Vec::new();
    for &(case, p, want) in RATIOS {
        let got = ratio_case(case, p);
        if got != want {
            drift.push(format!(
                "{case:?} p = {p}: {got:#018x}, golden {want:#018x}"
            ));
        }
    }
    assert!(drift.is_empty(), "field drift:\n{}", drift.join("\n"));
}
