//! Property-based tests of the partition quality metrics (Eq. 21) and the
//! per-level totals of the partition shape.

use lts_mesh::{HexMesh, Levels};
use lts_partition::{load_imbalance, PartitionShape};
use proptest::prelude::*;

/// Random synthetic level assignments (no mesh needed: Eq. 21 only reads
/// `elem_level`).
fn levels_strategy() -> impl Strategy<Value = Levels> {
    prop::collection::vec(0u8..4, 4..64).prop_map(|elem_level| {
        let n_levels = *elem_level.iter().max().unwrap() as usize + 1;
        Levels {
            elem_level,
            n_levels,
            dt_global: 1.0,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 21 is a percentage: always within [0, 100], total and per level.
    #[test]
    fn imbalance_is_a_percentage(lv in levels_strategy(), seed in 0u64..1000) {
        let k = 2 + (seed as usize % 3);
        let part: Vec<u32> = (0..lv.elem_level.len())
            .map(|e| (((e as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed) % k as u64) as u32)
            .collect();
        let rep = load_imbalance(&lv, &part, k);
        prop_assert!((0.0..=100.0).contains(&rep.total_pct), "{}", rep.total_pct);
        for (l, &pct) in rep.per_level_pct.iter().enumerate() {
            prop_assert!((0.0..=100.0).contains(&pct), "level {}: {}", l, pct);
        }
    }

    /// Parts with element-for-element identical level multisets have exactly
    /// zero imbalance, total and per level.
    #[test]
    fn imbalance_zero_for_identical_parts(base in prop::collection::vec(0u8..4, 2..24),
                                          k in 2usize..5) {
        let mut elem_level = Vec::new();
        let mut part = Vec::new();
        for p in 0..k {
            elem_level.extend_from_slice(&base);
            part.extend(std::iter::repeat_n(p as u32, base.len()));
        }
        let n_levels = *base.iter().max().unwrap() as usize + 1;
        let lv = Levels { elem_level, n_levels, dt_global: 1.0 };
        let rep = load_imbalance(&lv, &part, k);
        prop_assert_eq!(rep.total_pct, 0.0);
        prop_assert!(rep.per_level_pct.iter().all(|&p| p == 0.0),
                     "{:?}", rep.per_level_pct);
        prop_assert!(rep.part_load.windows(2).all(|w| w[0] == w[1]));
    }

    /// The partition shape reports no traffic for an unsplit mesh, and its
    /// work terms match the LTS closed form of `2^l` calls per step.
    #[test]
    fn oracle_consistent_on_random_meshes(nx in 2usize..6, ny in 2usize..5, nz in 1usize..4,
                                          paint in 0usize..3) {
        let mut m = HexMesh::uniform(nx, ny, nz, 1.0, 1.0);
        if paint > 0 {
            let i1 = (paint).min(nx);
            m.paint_box((0, i1), (0, ny), (0, nz), 2.0, 1.0);
        }
        let lv = Levels::assign(&m, 0.5, 4);
        let single = vec![0u32; m.n_elems()];
        let o = PartitionShape::new(&m, &lv, &single, 1);
        prop_assert!(o.dofs_sent().iter().all(|&d| d == 0));
        prop_assert!(o.msgs_sent().iter().all(|&n| n == 0));
        for (l, &ops) in o.elem_ops().iter().enumerate() {
            prop_assert_eq!(ops, (1u64 << l) * o.ops[0][l]);
        }
        // splitting in two can only add traffic, never element work
        let split: Vec<u32> = (0..m.n_elems() as u32).map(|e| e % 2).collect();
        let o2 = PartitionShape::new(&m, &lv, &split, 2);
        prop_assert!(o2.dofs_sent().iter().sum::<u64>() > 0);
        prop_assert_eq!(o2.elem_ops(), o.elem_ops());
    }
}
