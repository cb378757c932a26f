//! Per-level DOF sets of the LTS scheme (Sec. II-C).
//!
//! Node (DOF) level = the finest level of any element containing it (the
//! paper's `P_k` selections, with interface nodes owned by the finer side).
//! For every level `k` the scheme needs:
//!
//! * `elems[k]` — elements containing at least one level-`k` DOF: the
//!   element list over which `A·P_k·u` must be assembled (level-`k` elements
//!   plus their coarser neighbours);
//! * the *active* set of `k` — DOFs integrated by the level-`k` auxiliary
//!   system: DOFs of level ≥ `k` plus the "gray" halo (DOFs sharing an
//!   element with one), i.e. every DOF of `elems[j]` for `j ≥ k`;
//! * `leaf[k]` — DOFs whose *own* sub-stepping happens at level `k` (active
//!   at `k` but not at `k + 1`); every DOF is in exactly one leaf set.
//!
//! The steppers hold no active list: a DOF's leaf level alone places it,
//! and in the level-grouped order of [`level_order`] every active set is a
//! prefix ([`LevelSets`]) that holds every DOF a level's product writes.

use crate::lts::LevelSets;
use crate::operator::DofTopology;

/// Precomputed level structure for a discretization + element level map.
#[derive(Debug, Clone)]
pub struct LtsSetup {
    /// Number of levels `L` (coarsest = 0).
    pub n_levels: usize,
    /// Level of every DOF: the max level of any element containing it.
    pub dof_level: Vec<u8>,
    /// Level of every element (as given).
    pub elem_level: Vec<u8>,
    /// `elems[k]`: elements containing ≥ 1 DOF of level exactly `k`.
    pub elems: Vec<Vec<u32>>,
    /// `leaf[k]`: the DOFs of leaf level `k`, ascending.
    pub leaf: Vec<Vec<u32>>,
    /// Per-DOF leaf level: the level whose sub-stepping integrates this DOF
    /// (the largest `k` with the DOF active at `k`).
    pub leaf_level: Vec<u8>,
}

impl LtsSetup {
    pub fn new<T: DofTopology>(topo: &T, elem_level: &[u8]) -> Self {
        assert_eq!(elem_level.len(), topo.n_elems());
        let ndof = topo.n_dofs();
        let n_levels = elem_level.iter().copied().max().unwrap_or(0) as usize + 1;
        assert!(n_levels <= 16, "more than 16 LTS levels is never useful");
        let mut dof_level = vec![0u8; ndof];
        let mut dofs = Vec::new();

        // DOF level = max adjacent element level
        for e in 0..topo.n_elems() as u32 {
            let le = elem_level[e as usize];
            if le == 0 {
                continue;
            }
            topo.elem_dofs(e, &mut dofs);
            for &d in &dofs {
                if dof_level[d as usize] < le {
                    dof_level[d as usize] = le;
                }
            }
        }

        // elems[k] from the DOF levels present in each element; a DOF's
        // leaf level is the largest max DOF level of any element holding it
        let mut elems: Vec<Vec<u32>> = vec![Vec::new(); n_levels];
        let mut leaf_level = vec![0u8; ndof];
        for e in 0..topo.n_elems() as u32 {
            topo.elem_dofs(e, &mut dofs);
            let mut present = [false; 16];
            let mut maxl = 0u8;
            for &d in &dofs {
                let l = dof_level[d as usize];
                present[l as usize] = true;
                maxl = maxl.max(l);
            }
            for (k, elems_k) in elems.iter_mut().enumerate() {
                if present[k] {
                    elems_k.push(e);
                }
            }
            for &d in &dofs {
                leaf_level[d as usize] = leaf_level[d as usize].max(maxl);
            }
        }
        let mut leaf: Vec<Vec<u32>> = vec![Vec::new(); n_levels];
        for (d, &l) in leaf_level.iter().enumerate() {
            leaf[l as usize].push(d as u32);
        }

        LtsSetup {
            n_levels,
            dof_level,
            elem_level: elem_level.to_vec(),
            elems,
            leaf,
            leaf_level,
        }
    }

    /// Element-operations per global `Δt` performed by the masked LTS
    /// stepper at ratio 2: level `k`'s product runs `2^k` times over
    /// `elems[k]`.
    pub fn lts_elem_ops(&self) -> u64 {
        self.elems
            .iter()
            .enumerate()
            .map(|(k, e)| (1u64 << k) * e.len() as u64)
            .sum()
    }

    /// Element-operations per `Δt` of the non-LTS scheme (`E · 2^(L−1)`).
    pub fn global_elem_ops(&self) -> u64 {
        (self.elem_level.len() as u64) << (self.n_levels - 1)
    }
}

/// The level-grouped numbering (Sec. IV-D: "the nodal degrees of freedom
/// are grouped by p-level"): items ordered by leaf level, finest first,
/// stable within a level, so each level keeps the order its items already
/// had. Returns each item's position in that order (`pos[old] = new`) and
/// the order's prefix ends, over which every level's active and leaf set is
/// a range.
pub fn level_order(leaf_level: &[u8], n_levels: usize) -> (Vec<u32>, LevelSets) {
    let sets = LevelSets::of_leaf_levels(leaf_level.iter().copied(), n_levels);
    let mut next: Vec<u32> = (1..=n_levels).map(|l| sets.end(l) as u32).collect();
    let mut pos = Vec::with_capacity(leaf_level.len());
    for &l in leaf_level {
        pos.push(next[l as usize]);
        next[l as usize] += 1;
    }
    (pos, sets)
}

/// Entry of an idle global → local node map (see [`local_numbering`]).
pub const UNMAPPED: u32 = u32::MAX;

/// Compact local numbering of the nodes of `elems`, the rank-local order of
/// every sub-operator builder: the level-grouped order of [`level_order`]
/// over the leaf levels `leaf_of(g)`, finest first, ascending global id
/// within a level. `nodes_of(e, buf)` fills `buf` with element `e`'s `npe`
/// global nodes. Returns each element's nodes in local ids, `npe` per
/// element, `global_of_local`, and the local nodes per leaf level
/// (`level_counts[l]`, up to the finest level present).
///
/// `local_of_global` is a dense map over all global nodes. Every entry must
/// be [`UNMAPPED`] on entry; on return the subset's nodes map to their
/// local ids (`local_of_global[global_of_local[l]] == l`) and every other
/// entry is still [`UNMAPPED`], so the caller can use the map as its
/// global → local index and clears it (through `global_of_local`) before
/// the next subset. Linear in the subset, with no sort: one pass over the
/// elements marks each first touch in the map with its leaf level, counts
/// it, and sets its bit in a bitset over the global range; a word-skipping
/// scan of the bitset then meets the nodes in ascending order and puts each
/// at its level's next slot. O(elems·npe + N/64) for N global nodes.
pub fn local_numbering(
    elems: &[u32],
    npe: usize,
    nodes_of: impl Fn(u32, &mut Vec<u32>),
    leaf_of: &dyn Fn(u32) -> u8,
    local_of_global: &mut [u32],
) -> (Vec<u32>, Vec<u32>, Vec<usize>) {
    let mut elem_nodes = Vec::with_capacity(elems.len() * npe);
    let mut seen = vec![0u64; local_of_global.len().div_ceil(64)];
    let mut count = [0u32; 256];
    let mut buf = Vec::with_capacity(npe);
    for &e in elems {
        nodes_of(e, &mut buf);
        debug_assert_eq!(buf.len(), npe);
        for &g in &buf {
            let entry = &mut local_of_global[g as usize];
            if *entry == UNMAPPED {
                let l = leaf_of(g);
                *entry = l as u32;
                count[l as usize] += 1;
                seen[g as usize / 64] |= 1 << (g % 64);
            }
        }
        elem_nodes.extend_from_slice(&buf);
    }
    // each level's first slot, finest level first
    let mut next = [0u32; 256];
    let mut n = 0;
    for l in (0..256).rev() {
        next[l] = n;
        n += count[l];
    }
    let mut global_of_local = vec![0u32; n as usize];
    for (w, &word) in seen.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let g = 64 * w as u32 + bits.trailing_zeros();
            bits &= bits - 1;
            let entry = &mut local_of_global[g as usize];
            let slot = &mut next[*entry as usize];
            global_of_local[*slot as usize] = g;
            *entry = *slot;
            *slot += 1;
        }
    }
    for g in &mut elem_nodes {
        *g = local_of_global[*g as usize];
    }
    let n_levels = count.iter().rposition(|&c| c > 0).map_or(0, |l| l + 1);
    let level_counts = count[..n_levels].iter().map(|&c| c as usize).collect();
    (elem_nodes, global_of_local, level_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain1d::Chain1d;

    /// The active set of level `k` from the element lists: every DOF of
    /// `elems[j]` for `j ≥ k`, ascending.
    fn active(s: &LtsSetup, topo: &impl DofTopology, k: usize) -> Vec<u32> {
        let (mut dofs, mut out) = (Vec::new(), Vec::new());
        for &e in s.elems[k..].iter().flatten() {
            topo.elem_dofs(e, &mut dofs);
            out.extend_from_slice(&dofs);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// 8-element chain, elements 5..8 at level 1.
    fn chain() -> (Chain1d, Vec<u8>) {
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let lv = vec![0, 0, 0, 0, 0, 1, 1, 1];
        (c, lv)
    }

    #[test]
    fn dof_levels_take_finer_side() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        // dofs 0..=4 level 0; dof 5 shared between elem 4 (l0) and 5 (l1) → 1
        assert_eq!(&s.dof_level[..5], &[0, 0, 0, 0, 0]);
        assert_eq!(&s.dof_level[5..], &[1, 1, 1, 1]);
    }

    #[test]
    fn elems_k_include_coarse_neighbors() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        // level-1 dofs are 5..=8; elements containing them: 4 (coarse
        // neighbour), 5, 6, 7
        assert_eq!(s.elems[1], vec![4, 5, 6, 7]);
        // level-0 dofs are 0..=4; elements containing them: 0..=4
        assert_eq!(s.elems[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn active_includes_halo() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        // active at 1: dofs of elements with a level-1 dof = dofs 4..=8
        assert_eq!(active(&s, &c, 1), vec![4, 5, 6, 7, 8]);
        // the leaf level is the finest level a DOF is active at
        for k in 0..s.n_levels {
            let by_leaf: Vec<u32> = (0..9)
                .filter(|&d| s.leaf_level[d as usize] as usize >= k)
                .collect();
            assert_eq!(active(&s, &c, k), by_leaf, "level {k}");
        }
    }

    #[test]
    fn leaf_sets_partition_dofs() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        let mut all: Vec<u32> = s.leaf.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<u32>>());
        assert_eq!(s.leaf[0], vec![0, 1, 2, 3]);
        assert_eq!(s.leaf[1], vec![4, 5, 6, 7, 8]);
    }

    #[test]
    fn three_level_nesting() {
        let c = Chain1d::uniform(9, 1.0, 1.0);
        let lv = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let s = LtsSetup::new(&c, &lv);
        assert_eq!(s.n_levels, 3);
        // active sets are nested
        let (a1, a2) = (active(&s, &c, 1), active(&s, &c, 2));
        for d in &a2 {
            assert!(a1.contains(d));
        }
        // element lists: level 2 dofs are 6..=9 → elements 5..=8
        assert_eq!(s.elems[2], vec![5, 6, 7, 8]);
        // level-1 dofs: 3..=5 (6 is level 2) → elements 2,3,4,5
        assert_eq!(s.elems[1], vec![2, 3, 4, 5]);
    }

    #[test]
    fn op_counters_bound_model() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        // the ideal Eq. 9 model: Σ_e 2^l_e
        let model: u64 = s.elem_level.iter().map(|&l| 1u64 << l).sum();
        assert!(s.lts_elem_ops() >= model);
        assert!(s.lts_elem_ops() <= s.global_elem_ops());
        // 8 elems: model = 5 + 3·2 = 11; lts = 5 + 2·4 = 13; global = 16
        assert_eq!(model, 11);
        assert_eq!(s.lts_elem_ops(), 13);
        assert_eq!(s.global_elem_ops(), 16);
    }

    #[test]
    fn level_order_groups_finest_first_and_stable() {
        let leaf = [0u8, 2, 1, 0, 2, 1, 1];
        let (pos, sets) = level_order(&leaf, 3);
        assert_eq!(pos, vec![5, 0, 2, 6, 1, 3, 4]);
        assert_eq!(sets.n_levels(), 3);
        assert_eq!(sets.active(0), 0..7);
        assert_eq!(sets.active(1), 0..5);
        assert_eq!(sets.active(2), 0..2);
        assert_eq!(sets.leaf(0), 5..7);
        assert_eq!(sets.leaf(1), 2..5);
        assert_eq!(sets.leaf(2), 0..2);
    }

    #[test]
    fn local_numbering_groups_finest_first_ascending() {
        // nodes on three bitset words, leaf level = parity
        let nodes = [[129u32, 4], [4, 67], [2, 129]];
        let mut map = vec![UNMAPPED; 130];
        let fill = |e: u32, buf: &mut Vec<u32>| {
            buf.clear();
            buf.extend_from_slice(&nodes[e as usize]);
        };
        let (elem_nodes, global_of_local, level_counts) =
            local_numbering(&[0, 1, 2], 2, fill, &|g| (g % 2) as u8, &mut map);
        assert_eq!(global_of_local, vec![67, 129, 2, 4]);
        assert_eq!(elem_nodes, vec![1, 3, 3, 0, 2, 1]);
        assert_eq!(level_counts, vec![2, 2]);
        for (g, &l) in map.iter().enumerate() {
            let want = global_of_local.iter().position(|&x| x == g as u32);
            assert_eq!(l, want.map_or(UNMAPPED, |p| p as u32), "node {g}");
        }
    }

    #[test]
    fn uniform_single_level() {
        let c = Chain1d::uniform(4, 1.0, 1.0);
        let s = LtsSetup::new(&c, &[0, 0, 0, 0]);
        assert_eq!(s.n_levels, 1);
        assert_eq!(s.leaf[0].len(), 5);
        assert_eq!(s.elems[0].len(), 4);
    }
}
