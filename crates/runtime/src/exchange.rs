//! Exchange plans: which DOFs' partial forces must be assembled across which
//! rank pairs at each LTS level.
//!
//! A DOF's *rank set* is every rank owning an element containing it. After a
//! masked product at level `l`, each `elems[l]` DOF with two or more ranks
//! exchanges partials among them and re-assembles the total in ascending-rank
//! order — making every rank's copy bitwise identical. Per level, shared
//! DOFs come in *first-touch* order: the order in which a walk over
//! `setup.elems[l]` through `elem_dofs` first meets them (not ascending on a
//! hex mesh).

use lts_core::{DofTopology, LtsSetup};

/// Exchange plan of one rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankPlan {
    /// Elements this rank owns, intersected with `setup.elems[l]`.
    pub(crate) my_elems: Vec<Vec<u32>>,
    /// `my_elems[l]` split for communication overlap: elements touching a
    /// shared DOF (their contributions must be computed before the sends)…
    pub my_boundary_elems: Vec<Vec<u32>>,
    /// …and the rest, computable while messages are in flight.
    pub my_interior_elems: Vec<Vec<u32>>,
    /// Per level: peers this rank exchanges with (sorted).
    pub(crate) peers: Vec<Vec<usize>>,
    /// Per level, aligned with `peers`: the DOFs sent to (and received
    /// from) that peer, in first-touch order.
    pub(crate) pair_dofs: Vec<Vec<Vec<u32>>>,
    /// Per level: all shared DOFs of this rank, in first-touch order, with
    /// their full ascending rank sets.
    pub(crate) shared: Vec<SharedDofs>,
}

/// Shared DOFs of one level with their rank sets, stored flat:
/// `ranks[offsets[i]..offsets[i + 1]]` is the ascending rank set of
/// `dofs[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SharedDofs {
    pub(crate) dofs: Vec<u32>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) ranks: Vec<u32>,
}

impl Default for SharedDofs {
    fn default() -> Self {
        SharedDofs {
            dofs: Vec::new(),
            offsets: vec![0],
            ranks: Vec::new(),
        }
    }
}

impl SharedDofs {
    pub(crate) fn push(&mut self, dof: u32, ranks: &[u32]) {
        self.dofs.push(dof);
        self.ranks.extend_from_slice(ranks);
        self.offsets.push(self.ranks.len() as u32);
    }

    /// `(dof, ascending rank set)` in the stored (first-touch) order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        self.dofs
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&d, w)| (d, &self.ranks[w[0] as usize..w[1] as usize]))
    }
}

/// Owned elements of every rank, each list ascending: one pass over the
/// partition.
pub(crate) fn elems_by_rank(partition: &[u32], n_ranks: usize) -> Vec<Vec<u32>> {
    assert!(n_ranks >= 1);
    assert!(partition.iter().all(|&p| (p as usize) < n_ranks));
    let mut count = vec![0usize; n_ranks];
    for &r in partition {
        count[r as usize] += 1;
    }
    let mut out: Vec<Vec<u32>> = count.into_iter().map(Vec::with_capacity).collect();
    for (e, &r) in partition.iter().enumerate() {
        out[r as usize].push(e as u32);
    }
    out
}

/// Every DOF's rank set — the ranks owning an element containing it — as
/// one flat table: `ranks[offsets[d]..offsets[d + 1]]`, ascending.
struct RankSets {
    offsets: Vec<u32>,
    ranks: Vec<u32>,
}

impl RankSets {
    /// Count, then fill. Elements are visited rank by rank, so each DOF meets
    /// its ranks in ascending order and a last-rank stamp removes repeats.
    fn build<T: DofTopology>(topo: &T, by_rank: &[Vec<u32>]) -> Self {
        let ndof = topo.n_dofs();
        let mut dofs = Vec::new();
        let mut last = vec![u32::MAX; ndof];
        let mut offsets = vec![0u32; ndof + 1];
        for (r, elems) in by_rank.iter().enumerate() {
            for &e in elems {
                topo.elem_dofs(e, &mut dofs);
                for &d in &dofs {
                    if last[d as usize] != r as u32 {
                        last[d as usize] = r as u32;
                        offsets[d as usize + 1] += 1;
                    }
                }
            }
        }
        for d in 0..ndof {
            offsets[d + 1] += offsets[d];
        }
        let mut ranks = vec![0u32; offsets[ndof] as usize];
        let mut cursor = offsets[..ndof].to_vec();
        last.fill(u32::MAX);
        for (r, elems) in by_rank.iter().enumerate() {
            for &e in elems {
                topo.elem_dofs(e, &mut dofs);
                for &d in &dofs {
                    let d = d as usize;
                    if last[d] != r as u32 {
                        last[d] = r as u32;
                        ranks[cursor[d] as usize] = r as u32;
                        cursor[d] += 1;
                    }
                }
            }
        }
        RankSets { offsets, ranks }
    }

    #[inline]
    fn of(&self, d: u32) -> &[u32] {
        &self.ranks[self.offsets[d as usize] as usize..self.offsets[d as usize + 1] as usize]
    }
}

fn empty_plans(n_ranks: usize, nl: usize) -> Vec<RankPlan> {
    (0..n_ranks)
        .map(|_| RankPlan {
            my_elems: vec![Vec::new(); nl],
            my_boundary_elems: vec![Vec::new(); nl],
            my_interior_elems: vec![Vec::new(); nl],
            peers: vec![Vec::new(); nl],
            pair_dofs: vec![Vec::new(); nl],
            shared: vec![SharedDofs::default(); nl],
        })
        .collect()
}

/// Append `d` to `plan`'s pair list with `peer` at level `l`, inserting the
/// peer in sorted position on first contact.
fn push_pair_dof(plan: &mut RankPlan, l: usize, peer: usize, d: u32) {
    let pos = match plan.peers[l].binary_search(&peer) {
        Ok(i) => i,
        Err(i) => {
            plan.peers[l].insert(i, peer);
            plan.pair_dofs[l].insert(i, Vec::new());
            i
        }
    };
    plan.pair_dofs[l][pos].push(d);
}

/// Build the per-rank plans for a partition.
pub fn build_plans<T: DofTopology>(
    topo: &T,
    setup: &LtsSetup,
    partition: &[u32],
    n_ranks: usize,
) -> Vec<RankPlan> {
    plans_of(topo, setup, partition, &elems_by_rank(partition, n_ranks))
}

/// [`build_plans`] from the partition's [`elems_by_rank`], for a caller
/// that keeps the lists.
pub(crate) fn plans_of<T: DofTopology>(
    topo: &T,
    setup: &LtsSetup,
    partition: &[u32],
    by_rank: &[Vec<u32>],
) -> Vec<RankPlan> {
    assert_eq!(partition.len(), topo.n_elems());
    let nl = setup.n_levels;
    let sets = RankSets::build(topo, by_rank);
    let mut plans = empty_plans(by_rank.len(), nl);
    let mut dofs = Vec::new();
    // the level each DOF was last met at, so each is listed once per level
    let mut stamp = vec![u8::MAX; topo.n_dofs()];
    for (l, elems_l) in setup.elems.iter().enumerate() {
        for &e in elems_l {
            // per-level element lists, split boundary/interior for overlap
            let plan = &mut plans[partition[e as usize] as usize];
            plan.my_elems[l].push(e);
            topo.elem_dofs(e, &mut dofs);
            if dofs.iter().any(|&d| sets.of(d).len() >= 2) {
                plan.my_boundary_elems[l].push(e);
            } else {
                plan.my_interior_elems[l].push(e);
            }
            // shared DOFs and pair lists, in first-touch order
            for &d in &dofs {
                if stamp[d as usize] == l as u8 {
                    continue;
                }
                stamp[d as usize] = l as u8;
                let ranks = sets.of(d);
                if ranks.len() < 2 {
                    continue;
                }
                for &r in ranks {
                    let plan = &mut plans[r as usize];
                    plan.shared[l].push(d, ranks);
                    for &p in ranks {
                        if p != r {
                            push_pair_dof(plan, l, p as usize, d);
                        }
                    }
                }
            }
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::Chain1d;

    /// The DOFs of `setup.elems[l]` in first-touch order.
    fn first_touch<T: DofTopology>(topo: &T, setup: &LtsSetup, l: usize) -> Vec<u32> {
        let mut seen = vec![false; topo.n_dofs()];
        let (mut dofs, mut out) = (Vec::new(), Vec::new());
        for &e in &setup.elems[l] {
            topo.elem_dofs(e, &mut dofs);
            for &d in &dofs {
                if !std::mem::replace(&mut seen[d as usize], true) {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Reference plan builder with one `Vec` rank set per DOF: the oracle of
    /// [`build_plans`].
    fn build_plans_reference<T: DofTopology>(
        topo: &T,
        setup: &LtsSetup,
        partition: &[u32],
        n_ranks: usize,
    ) -> Vec<RankPlan> {
        let ndof = topo.n_dofs();
        let nl = setup.n_levels;
        let mut dof_ranks: Vec<Vec<u32>> = vec![Vec::new(); ndof];
        let mut dofs = Vec::new();
        for e in 0..topo.n_elems() as u32 {
            let r = partition[e as usize];
            topo.elem_dofs(e, &mut dofs);
            for &d in &dofs {
                let v = &mut dof_ranks[d as usize];
                if !v.contains(&r) {
                    v.push(r);
                }
            }
        }
        for v in dof_ranks.iter_mut() {
            v.sort_unstable();
        }
        let mut plans = empty_plans(n_ranks, nl);
        for (l, elems_l) in setup.elems.iter().enumerate() {
            for &e in elems_l {
                plans[partition[e as usize] as usize].my_elems[l].push(e);
            }
        }
        for (l, elems_l) in setup.elems.iter().enumerate() {
            for &e in elems_l {
                let r = partition[e as usize] as usize;
                topo.elem_dofs(e, &mut dofs);
                let boundary = dofs.iter().any(|&d| dof_ranks[d as usize].len() >= 2);
                if boundary {
                    plans[r].my_boundary_elems[l].push(e);
                } else {
                    plans[r].my_interior_elems[l].push(e);
                }
            }
        }
        for l in 0..nl {
            for d in first_touch(topo, setup, l) {
                let ranks = &dof_ranks[d as usize];
                if ranks.len() < 2 {
                    continue;
                }
                for &r in ranks {
                    plans[r as usize].shared[l].push(d, ranks);
                    for &p in ranks {
                        if p != r {
                            push_pair_dof(&mut plans[r as usize], l, p as usize, d);
                        }
                    }
                }
            }
        }
        plans
    }

    fn assert_plans_match_reference<T: DofTopology>(
        topo: &T,
        setup: &LtsSetup,
        part: &[u32],
        k: usize,
    ) {
        let got = build_plans(topo, setup, part, k);
        let want = build_plans_reference(topo, setup, part, k);
        assert_eq!(got.len(), k);
        for (r, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "rank {r} of {k}");
        }
    }

    #[test]
    fn plans_match_reference_on_chains() {
        let c = Chain1d::with_velocities(
            (0..24)
                .map(|i| if (8..14).contains(&i) { 4.0 } else { 1.0 })
                .collect(),
            1.0,
        );
        let (lv, _) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        assert!(setup.n_levels >= 2);
        for k in [1usize, 2, 3, 8] {
            let blocks: Vec<u32> = (0..24).map(|e| (e * k / 24) as u32).collect();
            assert_plans_match_reference(&c, &setup, &blocks, k);
            // scrambled: every rank owns scattered elements
            let scrambled: Vec<u32> = (0..24u32).map(|e| (e * 7 + e / 5) % k as u32).collect();
            assert_plans_match_reference(&c, &setup, &scrambled, k);
        }
    }

    #[test]
    fn plans_match_reference_on_hex_meshes() {
        use lts_mesh::{BenchmarkMesh, MeshKind};
        use lts_partition::{partition_mesh, Strategy};
        use lts_sem::AcousticOperator;
        let b = BenchmarkMesh::build(MeshKind::Trench, 500);
        let op = AcousticOperator::new(&b.mesh, 2);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        assert!(setup.n_levels >= 2);
        let n = b.mesh.n_elems() as u32;
        for k in [1usize, 2, 3, 8] {
            let part = partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchP, 1);
            assert_plans_match_reference(&op, &setup, &part, k);
            let scrambled: Vec<u32> = (0..n)
                .map(|e| (e.wrapping_mul(2_654_435_761) >> 7) % k as u32)
                .collect();
            assert_plans_match_reference(&op, &setup, &scrambled, k);
        }
    }

    /// A topology given by its element DOF lists.
    struct Lists(Vec<Vec<u32>>, usize);

    impl DofTopology for Lists {
        fn n_dofs(&self) -> usize {
            self.1
        }
        fn n_elems(&self) -> usize {
            self.0.len()
        }
        fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
            out.clear();
            out.extend_from_slice(&self.0[e as usize]);
        }
    }

    /// Shared DOFs and pair lists come in the order a walk over
    /// `elems[l]` first meets them, not ascending.
    #[test]
    fn shared_dofs_come_in_first_touch_order() {
        let topo = Lists(vec![vec![5, 2], vec![2, 7, 0], vec![0, 9, 5]], 10);
        let setup = LtsSetup::new(&topo, &[0, 0, 0]);
        let plans = build_plans(&topo, &setup, &[0, 1, 0], 2);
        // first touch meets 5, 2, 7, 0, 9; DOFs 2 and 0 lie on both ranks
        for (r, plan) in plans.iter().enumerate() {
            let shared: Vec<(u32, &[u32])> = plan.shared[0].entries().collect();
            assert_eq!(
                shared,
                vec![(2, &[0u32, 1][..]), (0, &[0, 1][..])],
                "rank {r}"
            );
            assert_eq!(plan.pair_dofs[0], vec![vec![2, 0]], "rank {r}");
        }
    }

    #[test]
    fn chain_two_ranks_share_one_dof_per_level_interface() {
        // 8 elements, uniform (single level), split 4|4 → dof 4 shared
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 8]);
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let plans = build_plans(&c, &setup, &part, 2);
        assert_eq!(plans[0].peers[0], vec![1]);
        assert_eq!(plans[1].peers[0], vec![0]);
        assert_eq!(plans[0].pair_dofs[0][0], vec![4]);
        assert_eq!(plans[1].pair_dofs[0][0], vec![4]);
        let shared: Vec<(u32, &[u32])> = plans[0].shared[0].entries().collect();
        assert_eq!(shared, vec![(4, &[0u32, 1][..])]);
    }

    #[test]
    fn pair_lists_are_mirror_images() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 1.0);
        let (lv, _) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let part = vec![0, 0, 1, 1, 0, 0, 1, 1]; // deliberately scrambled
        let plans = build_plans(&c, &setup, &part, 2);
        for l in 0..setup.n_levels {
            for (pi, &peer) in plans[0].peers[l].iter().enumerate() {
                let back = plans[peer].peers[l].iter().position(|&x| x == 0).unwrap();
                assert_eq!(
                    plans[0].pair_dofs[l][pi], plans[peer].pair_dofs[l][back],
                    "level {l} pair lists differ"
                );
            }
        }
    }

    #[test]
    fn my_sets_partition_global_sets() {
        let c = Chain1d::uniform(10, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 10]);
        let part: Vec<u32> = (0..10).map(|e| (e / 4) as u32).collect(); // 3 ranks
        let plans = build_plans(&c, &setup, &part, 3);
        // every dof is a dof of at least one rank's elements; shared dofs
        // of several
        let mut coverage = [0usize; 11];
        let mut dofs = Vec::new();
        for p in &plans {
            let mut mine: Vec<u32> = Vec::new();
            for &e in &p.my_elems[0] {
                c.elem_dofs(e, &mut dofs);
                mine.extend_from_slice(&dofs);
            }
            mine.sort_unstable();
            mine.dedup();
            for d in mine {
                coverage[d as usize] += 1;
            }
        }
        assert!(coverage.iter().all(|&c| c >= 1));
        assert_eq!(coverage[4], 2); // interface dof owned by ranks 0 and 1
        let shared: Vec<(u32, &[u32])> = plans[0].shared[0].entries().collect();
        assert_eq!(shared, vec![(4, &[0u32, 1][..])]);
    }

    #[test]
    fn single_rank_has_no_peers() {
        let c = Chain1d::uniform(6, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 6]);
        let plans = build_plans(&c, &setup, &[0; 6], 1);
        assert!(plans[0].peers[0].is_empty());
        assert_eq!(plans[0].my_elems[0].len(), 6);
        assert!(plans[0].shared[0].dofs.is_empty());
    }
}
