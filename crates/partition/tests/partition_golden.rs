//! Golden partitions: FNV-1a hashes of `partition_mesh` output for every
//! strategy on the four benchmark meshes. A speed-up of the partitioners
//! (such as FM's incremental side counts) must not change a single
//! assignment, so any drift here is a behaviour change, not noise.
//!
//! The three benchmark-size cases are `#[ignore]`d to keep the debug test run
//! fast; run them with
//! `cargo test --release -p lts-partition --test partition_golden -- --include-ignored`.

use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_partition::{partition_mesh, Strategy};

/// FNV-1a (64-bit) over the part map, one part id per round.
fn fnv1a(part: &[u32]) -> u64 {
    part.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &p| {
        (h ^ p as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn strategies() -> [Strategy; 5] {
    [
        Strategy::MetisMc,
        Strategy::Patoh { final_imbal: 0.05 },
        Strategy::Patoh { final_imbal: 0.01 },
        Strategy::ScotchP,
        Strategy::ScotchBaseline,
    ]
}

/// `(mesh, target elements, strategy index, k, hash)`.
type Golden = (MeshKind, usize, usize, usize, u64);

/// Recorded from the partitioners before the near-linear FM/rebalance
/// rewrite; strategy index into [`strategies`].
const SMALL: &[Golden] = &[
    (MeshKind::Trench, 2_000, 0, 2, 0xcd59_e554_15aa_3dc5), // MeTiS
    (MeshKind::Trench, 2_000, 0, 3, 0x8dcb_32fe_7b31_d305), // MeTiS
    (MeshKind::Trench, 2_000, 0, 8, 0xb57f_0c34_07c8_d055), // MeTiS
    (MeshKind::Trench, 2_000, 1, 2, 0x9f91_50bf_179f_6025), // PaToH 0.05
    (MeshKind::Trench, 2_000, 1, 3, 0x7213_e907_a290_9fb5), // PaToH 0.05
    (MeshKind::Trench, 2_000, 1, 8, 0x2e0d_6705_bfbc_9b25), // PaToH 0.05
    (MeshKind::Trench, 2_000, 2, 2, 0xe29d_851a_af95_c725), // PaToH 0.01
    (MeshKind::Trench, 2_000, 2, 3, 0x7282_602d_492c_9e2b), // PaToH 0.01
    (MeshKind::Trench, 2_000, 2, 8, 0x38d0_bb21_344b_5e2b), // PaToH 0.01
    (MeshKind::Trench, 2_000, 3, 2, 0x9d26_7ea5_5be7_83af), // SCOTCH-P
    (MeshKind::Trench, 2_000, 3, 3, 0xef5a_1061_47a8_398a), // SCOTCH-P
    (MeshKind::Trench, 2_000, 3, 8, 0x5302_8855_099d_792e), // SCOTCH-P
    (MeshKind::Trench, 2_000, 4, 2, 0x94f4_ac0f_c6ca_fde5), // SCOTCH
    (MeshKind::Trench, 2_000, 4, 3, 0x9b6a_bc83_d50f_fba5), // SCOTCH
    (MeshKind::Trench, 2_000, 4, 8, 0x3b78_f7a9_ab2f_f425), // SCOTCH
    (MeshKind::TrenchBig, 4_000, 0, 2, 0x1ed3_5954_b661_28e5), // MeTiS
    (MeshKind::TrenchBig, 4_000, 0, 3, 0x5754_07af_7253_71b9), // MeTiS
    (MeshKind::TrenchBig, 4_000, 0, 8, 0x1f5a_6e61_d90f_2d9f), // MeTiS
    (MeshKind::TrenchBig, 4_000, 1, 2, 0x7ffc_71e6_0b54_20f5), // PaToH 0.05
    (MeshKind::TrenchBig, 4_000, 1, 3, 0xb429_e2a7_3d6f_8aed), // PaToH 0.05
    (MeshKind::TrenchBig, 4_000, 1, 8, 0xa29e_acb7_d5f3_f654), // PaToH 0.05
    (MeshKind::TrenchBig, 4_000, 2, 2, 0x7ffc_71e6_0b54_20f5), // PaToH 0.01
    (MeshKind::TrenchBig, 4_000, 2, 3, 0xac23_71a0_2938_8fa9), // PaToH 0.01
    (MeshKind::TrenchBig, 4_000, 2, 8, 0x56a8_9b42_5a1d_9e4c), // PaToH 0.01
    (MeshKind::TrenchBig, 4_000, 3, 2, 0x0a23_4960_ed24_dac0), // SCOTCH-P
    (MeshKind::TrenchBig, 4_000, 3, 3, 0x73dd_2736_8063_a0a3), // SCOTCH-P
    (MeshKind::TrenchBig, 4_000, 3, 8, 0x3ba2_bee8_8bde_48a6), // SCOTCH-P
    (MeshKind::TrenchBig, 4_000, 4, 2, 0xbf00_df79_b4ea_3665), // SCOTCH
    (MeshKind::TrenchBig, 4_000, 4, 3, 0x0033_3b59_149b_47a1), // SCOTCH
    (MeshKind::TrenchBig, 4_000, 4, 8, 0x4e4d_e6fd_f9aa_2276), // SCOTCH
    (MeshKind::Embedding, 1_000, 0, 2, 0x1416_07bb_509f_08d9), // MeTiS
    (MeshKind::Embedding, 1_000, 0, 3, 0xc22b_2d34_f282_dff4), // MeTiS
    (MeshKind::Embedding, 1_000, 0, 8, 0x473d_af2a_d72e_6ce7), // MeTiS
    (MeshKind::Embedding, 1_000, 1, 2, 0x7760_a1c8_e48e_c4a9), // PaToH 0.05
    (MeshKind::Embedding, 1_000, 1, 3, 0x771e_4732_d551_e42e), // PaToH 0.05
    (MeshKind::Embedding, 1_000, 1, 8, 0x5b15_829d_1aca_5675), // PaToH 0.05
    (MeshKind::Embedding, 1_000, 2, 2, 0xaec1_ba04_f692_6414), // PaToH 0.01
    (MeshKind::Embedding, 1_000, 2, 3, 0xf316_0af7_2a1d_f776), // PaToH 0.01
    (MeshKind::Embedding, 1_000, 2, 8, 0xc583_3685_b3cb_6b6b), // PaToH 0.01
    (MeshKind::Embedding, 1_000, 3, 2, 0x70b3_fc08_fb4f_0d3d), // SCOTCH-P
    (MeshKind::Embedding, 1_000, 3, 3, 0x60b3_2d19_645e_1693), // SCOTCH-P
    (MeshKind::Embedding, 1_000, 3, 8, 0x80e1_adca_9224_bd89), // SCOTCH-P
    (MeshKind::Embedding, 1_000, 4, 2, 0xd731_3a15_2a91_6719), // SCOTCH
    (MeshKind::Embedding, 1_000, 4, 3, 0x20a5_90b1_cd40_4150), // SCOTCH
    (MeshKind::Embedding, 1_000, 4, 8, 0x2693_15ac_0343_a361), // SCOTCH
    (MeshKind::Crust, 2_000, 0, 2, 0xfa6e_54f7_bcb6_d0b9),  // MeTiS
    (MeshKind::Crust, 2_000, 0, 3, 0xa44f_1ff4_88c3_9697),  // MeTiS
    (MeshKind::Crust, 2_000, 0, 8, 0xc6f3_b0d8_73c2_9ffb),  // MeTiS
    (MeshKind::Crust, 2_000, 1, 2, 0x0d2c_40a1_dbd6_35bc),  // PaToH 0.05
    (MeshKind::Crust, 2_000, 1, 3, 0x045d_a2c0_7eff_31bb),  // PaToH 0.05
    (MeshKind::Crust, 2_000, 1, 8, 0x1877_e2da_63a1_e13d),  // PaToH 0.05
    (MeshKind::Crust, 2_000, 2, 2, 0xcb0e_bb66_8042_c6dc),  // PaToH 0.01
    (MeshKind::Crust, 2_000, 2, 3, 0x1e5b_d86a_7f93_a042),  // PaToH 0.01
    (MeshKind::Crust, 2_000, 2, 8, 0xa731_8736_f4f5_d663),  // PaToH 0.01
    (MeshKind::Crust, 2_000, 3, 2, 0x6ab8_cac5_15e2_9303),  // SCOTCH-P
    (MeshKind::Crust, 2_000, 3, 3, 0xa939_53bc_d877_4ed7),  // SCOTCH-P
    (MeshKind::Crust, 2_000, 3, 8, 0xd2d9_336e_865d_c5b0),  // SCOTCH-P
    (MeshKind::Crust, 2_000, 4, 2, 0xae8f_0928_2eb0_f5a5),  // SCOTCH
    (MeshKind::Crust, 2_000, 4, 3, 0x38aa_6874_ec78_0105),  // SCOTCH
    (MeshKind::Crust, 2_000, 4, 8, 0x9db8_a61b_54ff_df6d),  // SCOTCH
];

fn check(cases: &[Golden]) {
    let mut failures = Vec::new();
    let mut built: Option<(MeshKind, usize, BenchmarkMesh)> = None;
    for &(kind, elems, s, k, want) in cases {
        if built
            .as_ref()
            .is_none_or(|(bk, be, _)| (*bk, *be) != (kind, elems))
        {
            built = Some((kind, elems, BenchmarkMesh::build(kind, elems)));
        }
        let b = &built.as_ref().unwrap().2;
        let strategy = strategies()[s];
        let got = fnv1a(&partition_mesh(&b.mesh, &b.levels, k, strategy, 1));
        if got != want {
            failures.push(format!(
                "(MeshKind::{kind:?}, {elems}, {s}, {k}, 0x{got:016x}), // {} (want 0x{want:016x})",
                strategy.name()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "partition drift:\n{}",
        failures.join("\n")
    );
}

fn check_mesh(kind: MeshKind) {
    let cases: Vec<Golden> = SMALL.iter().copied().filter(|c| c.0 == kind).collect();
    assert_eq!(cases.len(), 5 * 3, "one case per strategy x k");
    check(&cases);
}

#[test]
fn trench_matches_golden_hashes() {
    check_mesh(MeshKind::Trench);
}

#[test]
fn trench_big_matches_golden_hashes() {
    check_mesh(MeshKind::TrenchBig);
}

#[test]
fn embedding_matches_golden_hashes() {
    check_mesh(MeshKind::Embedding);
}

#[test]
fn crust_matches_golden_hashes() {
    check_mesh(MeshKind::Crust);
}

#[test]
#[ignore = "benchmark size; run in release with --include-ignored"]
fn trench_big_metis_k2_matches_golden_hash() {
    check(&[(MeshKind::TrenchBig, 42_592, 0, 2, 0xc51f_2afb_c31e_ffcd)]);
}

#[test]
#[ignore = "benchmark size; run in release with --include-ignored"]
fn trench_scotch_p_k2_matches_golden_hash() {
    check(&[(MeshKind::Trench, 8_788, 3, 2, 0x759d_bc2d_e74f_e52b)]);
}

#[test]
#[ignore = "benchmark size; run in release with --include-ignored"]
fn trench_patoh_k8_matches_golden_hash() {
    check(&[(MeshKind::Trench, 8_788, 1, 8, 0xe299_0d71_24ac_52b1)]);
}
