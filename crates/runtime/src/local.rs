//! Rank decomposition: the decomposer discretizes a problem once (mass,
//! DOF topology, level sets, exchange plans) and cuts it into rank-local
//! worlds. Each rank's world holds its own elements' operator — a compact
//! sub-operator such as [`lts_sem::UnstructuredAcoustic`] or a sub-chain —
//! with its plan, level metadata, state and sources translated to
//! rank-local numbering, so per-rank state scales with the partition size
//! instead of the mesh: the memory model of an MPI code like SPECFEM3D.
//!
//! The rank-local numbering is level-grouped
//! ([`lts_core::setup::level_order`]): local nodes finest leaf level first,
//! ascending global id within a level. Every level's active set is then a
//! prefix of the rank's vectors ([`LevelSets`]), with no per-rank lists.
//! Every [`Decompose::local`] builds it with
//! [`lts_core::setup::local_numbering`], linear in the rank's elements and
//! with no sort, so decomposing costs O(E + ndof + Σ_r local_r).
//!
//! `local_worlds` builds every rank's world, calling the per-rank builder
//! `rank_world` with one shared `LocalIndex`; a `wave-lts worker`
//! process calls `rank_world` for its own rank alone. Verified bitwise
//! against the serial stepper.

use crate::distributed::{LocalRank, RunSpec};
use crate::exchange::{elems_by_rank, plans_of, RankPlan, SharedDofs};
use lts_core::{Chain1d, DofTopology, LevelSets, LtsSetup, Operator};
use lts_mesh::HexMesh;
use lts_sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

/// A problem the decomposer can cut into rank-local worlds: discretized
/// once globally, then rebuilt per rank over that rank's elements.
pub trait Decompose: Sync {
    /// The global discretization (mass, DOF topology, level sets).
    type Global: Operator + DofTopology;
    /// One rank's operator over its own elements, in local numbering.
    type Local: Operator + Send;
    /// DOF components per node (global DOF = components·node + comp).
    const COMPONENTS: u32;
    fn global(&self) -> Self::Global;
    /// The local operator over `elems` (ascending) with masses gathered
    /// from `global`, the global node of each local node, and the local
    /// nodes per leaf level. Local nodes are grouped by the leaf level
    /// `leaf_of(g)` of each global node, finest first (ascending global node
    /// within a level), as [`lts_core::setup::local_numbering`] numbers
    /// them. `node_map` is a dense global→local node array, every entry
    /// [`lts_sem::unstructured::UNMAPPED`] on entry; on return it maps the
    /// rank's nodes to their local ids, and the caller, which uses it as
    /// the rank's node index, clears them.
    fn local(
        &self,
        global: &Self::Global,
        elems: &[u32],
        leaf_of: &dyn Fn(u32) -> u8,
        node_map: &mut [u32],
    ) -> (Self::Local, Vec<u32>, Vec<usize>);
}

/// The acoustic SEM of `mesh` at polynomial `order`.
#[derive(Clone, Copy)]
pub struct Acoustic<'m> {
    pub mesh: &'m HexMesh,
    pub order: usize,
}

/// The elastic (Poisson solid) SEM of `mesh` at polynomial `order`.
#[derive(Clone, Copy)]
pub struct Elastic<'m> {
    pub mesh: &'m HexMesh,
    pub order: usize,
}

impl Decompose for Acoustic<'_> {
    type Global = AcousticOperator;
    type Local = UnstructuredAcoustic;
    const COMPONENTS: u32 = 1;
    fn global(&self) -> AcousticOperator {
        AcousticOperator::new(self.mesh, self.order)
    }
    fn local(
        &self,
        global: &AcousticOperator,
        elems: &[u32],
        leaf_of: &dyn Fn(u32) -> u8,
        node_map: &mut [u32],
    ) -> (UnstructuredAcoustic, Vec<u32>, Vec<usize>) {
        let mass = |g: u32| global.mass()[g as usize];
        let (mesh, order) = (self.mesh, self.order);
        UnstructuredAcoustic::from_subset_in(mesh, order, elems, Some(&mass), leaf_of, node_map)
    }
}

impl Decompose for Elastic<'_> {
    type Global = ElasticOperator;
    type Local = UnstructuredElastic;
    const COMPONENTS: u32 = 3;
    fn global(&self) -> ElasticOperator {
        ElasticOperator::poisson(self.mesh, self.order)
    }
    fn local(
        &self,
        global: &ElasticOperator,
        elems: &[u32],
        leaf_of: &dyn Fn(u32) -> u8,
        node_map: &mut [u32],
    ) -> (UnstructuredElastic, Vec<u32>, Vec<usize>) {
        let mass = |g: u32| global.mass()[3 * g as usize];
        let (mesh, order) = (self.mesh, self.order);
        UnstructuredElastic::from_subset_in(mesh, order, elems, Some(&mass), leaf_of, node_map)
    }
}

impl Decompose for Chain1d {
    type Global = Chain1d;
    type Local = Chain1d;
    const COMPONENTS: u32 = 1;
    fn global(&self) -> Chain1d {
        self.clone()
    }
    fn local(
        &self,
        global: &Chain1d,
        elems: &[u32],
        leaf_of: &dyn Fn(u32) -> u8,
        node_map: &mut [u32],
    ) -> (Chain1d, Vec<u32>, Vec<usize>) {
        global.subset(elems, leaf_of, node_map)
    }
}

/// The decomposer's output: the global discretization and every rank's
/// plan and elements (ascending).
pub(crate) struct Decomposition<G> {
    global: G,
    setup: LtsSetup,
    plans: Vec<RankPlan>,
    by_rank: Vec<Vec<u32>>,
}

/// Discretize `problem` globally and plan every rank's exchanges.
pub(crate) fn decompose<P: Decompose>(problem: &P, spec: &RunSpec<'_>) -> Decomposition<P::Global> {
    let global = problem.global();
    let setup = LtsSetup::new(&global, spec.elem_level);
    assert_eq!(spec.u0.len(), Operator::ndof(&global));
    let by_rank = elems_by_rank(spec.partition, spec.cfg.n_ranks);
    let plans = plans_of(&global, &setup, spec.partition, &by_rank);
    Decomposition {
        global,
        setup,
        plans,
        by_rank,
    }
}

/// Global → rank-local index, one rank at a time: a dense array over the
/// global range, loaded with the current rank's ids and cleared after it.
/// Localizing every rank costs O(global + Σ local), with no hashing and no
/// search per lookup. The node index is loaded by [`Decompose::local`],
/// which numbers the rank's nodes in it.
struct LocalIndex {
    local: Vec<u32>,
}

impl LocalIndex {
    const NONE: u32 = lts_sem::unstructured::UNMAPPED;

    fn new(n_global: usize) -> Self {
        LocalIndex {
            local: vec![Self::NONE; n_global],
        }
    }

    /// Map `global_of_local[l] → l`.
    fn load(&mut self, global_of_local: &[u32]) {
        for (l, &g) in global_of_local.iter().enumerate() {
            self.local[g as usize] = l as u32;
        }
    }

    /// Undo [`LocalIndex::load`] for the same list.
    fn unload(&mut self, global_of_local: &[u32]) {
        for &g in global_of_local {
            self.local[g as usize] = Self::NONE;
        }
    }

    fn owned(&self, g: u32) -> Option<u32> {
        Some(self.local[g as usize]).filter(|&l| l != Self::NONE)
    }

    /// The local id of `g`, which the rank must own: plans only name this
    /// rank's elements and DOFs, so a miss is a plan-construction bug.
    fn of(&self, g: u32) -> u32 {
        self.owned(g).expect("not owned by rank") // lint: allow(no-panic) — plan-construction invariant, not a runtime condition
    }
}

/// `plan` in rank-local numbering: elements through `elem`, DOFs through
/// `dof`.
fn localize_plan(plan: &RankPlan, elem: impl Fn(u32) -> u32, dof: impl Fn(u32) -> u32) -> RankPlan {
    let elems = |lists: &[Vec<u32>]| -> Vec<Vec<u32>> {
        lists
            .iter()
            .map(|l| l.iter().map(|&e| elem(e)).collect())
            .collect()
    };
    let dofs = |lists: &[Vec<u32>]| -> Vec<Vec<u32>> {
        lists
            .iter()
            .map(|l| l.iter().map(|&d| dof(d)).collect())
            .collect()
    };
    RankPlan {
        my_elems: elems(&plan.my_elems),
        my_boundary_elems: elems(&plan.my_boundary_elems),
        my_interior_elems: elems(&plan.my_interior_elems),
        peers: plan.peers.clone(),
        pair_dofs: plan.pair_dofs.iter().map(|pp| dofs(pp)).collect(),
        shared: plan
            .shared
            .iter()
            .map(|s| SharedDofs {
                dofs: s.dofs.iter().map(|&d| dof(d)).collect(),
                ..s.clone()
            })
            .collect(),
    }
}

/// `global[g]` for each `g` of `idx`.
fn gather<T: Copy>(global: &[T], idx: &[u32]) -> Vec<T> {
    idx.iter().map(|&g| global[g as usize]).collect()
}

/// The dense element and node indices the per-rank builder localizes
/// through, sized to the global mesh once and shared by every rank.
struct Indices {
    elem: LocalIndex,
    node: LocalIndex,
}

impl Indices {
    fn new<P: Decompose>(d: &Decomposition<P::Global>) -> Self {
        Indices {
            elem: LocalIndex::new(d.global.n_elems()),
            node: LocalIndex::new(d.global.n_dofs() / P::COMPONENTS as usize),
        }
    }
}

/// Every rank's world, in rank order. Consumes the decomposition, so the
/// global operator is gone before any rank steps.
pub(crate) fn local_worlds<P: Decompose>(
    problem: &P,
    spec: &RunSpec<'_>,
    d: Decomposition<P::Global>,
) -> Vec<LocalRank<P::Local>> {
    let mut index = Indices::new::<P>(&d);
    (0..d.plans.len())
        .map(|rank| build_world(problem, spec, &d, rank, &mut index))
        .collect()
}

/// Rank `rank`'s world alone, as a `wave-lts worker` builds it.
pub(crate) fn rank_world<P: Decompose>(
    problem: &P,
    spec: &RunSpec<'_>,
    d: &Decomposition<P::Global>,
    rank: usize,
) -> LocalRank<P::Local> {
    build_world(problem, spec, d, rank, &mut Indices::new::<P>(d))
}

/// The per-rank builder: rank `rank`'s local operator over its own
/// elements, its plan, level sets and metadata, initial fields and sources
/// in the grouped local numbering. Local DOFs interleave `P::COMPONENTS`
/// components per local node. `index` is left unloaded for the next rank.
fn build_world<P: Decompose>(
    problem: &P,
    spec: &RunSpec<'_>,
    d: &Decomposition<P::Global>,
    rank: usize,
    index: &mut Indices,
) -> LocalRank<P::Local> {
    let c = P::COMPONENTS;
    let nl = d.setup.n_levels;
    let my_elems = &d.by_rank[rank];
    let leaf_level = &d.setup.leaf_level;
    let leaf_of = |g: u32| leaf_level[(c * g) as usize];
    let (op, node_of_local, node_counts) =
        problem.local(&d.global, my_elems, &leaf_of, &mut index.node.local);
    index.elem.load(my_elems);
    let (elem_index, node_index) = (&index.elem, &index.node);
    let local_dof = |g: u32| c * node_index.of(g / c) + g % c;
    let n_local_dofs = c as usize * node_of_local.len();
    let plan = localize_plan(&d.plans[rank], |e| elem_index.of(e), local_dof);
    let mut my_sources: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nl];
    for (si, src) in spec.sources.iter().enumerate() {
        if let Some(ln) = node_index.owned(src.dof / c) {
            let ld = c * ln + src.dof % c;
            my_sources[d.setup.leaf_level[src.dof as usize] as usize].push((si, ld));
        }
    }
    index.elem.unload(my_elems);
    index.node.unload(&node_of_local);
    let global_of_local: Vec<u32> = (0..n_local_dofs as u32)
        .map(|ld| c * node_of_local[(ld / c) as usize] + ld % c)
        .collect();
    let sets = LevelSets::of_level_counts(node_counts.iter().map(|&n| c as usize * n), nl);
    LocalRank {
        op,
        sets,
        dof_level: gather(&d.setup.dof_level, &global_of_local),
        plan,
        u: gather(spec.u0, &global_of_local),
        v: gather(spec.v0, &global_of_local),
        my_sources,
        global_of_local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{run, DistributedConfig, RunResult};
    use crate::exchange::build_plans;
    use lts_core::{LevelState, LtsNewmark, Source};
    use lts_mesh::{BenchmarkMesh, Levels, MeshKind};
    use lts_obs::MetricsRegistry;
    use lts_partition::{partition_mesh, Strategy};
    use lts_sem::gll::cfl_dt_scale;

    fn serial(
        mesh: &HexMesh,
        levels: &Levels,
        order: usize,
        dt: f64,
        u0: &[f64],
        steps: usize,
        sources: &[Source],
    ) -> Vec<f64> {
        let op = AcousticOperator::new(mesh, order);
        let setup = LtsSetup::new(&op, &levels.elem_level);
        let mut u = u0.to_vec();
        let mut v = vec![0.0; u0.len()];
        let mut lts = LtsNewmark::new(&op, &setup, dt);
        lts.run(&mut u, &mut v, 0.0, steps, sources);
        u
    }

    /// A spec from zero initial velocity, with `cfg`.
    fn spec<'a>(
        levels: &'a Levels,
        partition: &'a [u32],
        dt: f64,
        (u0, v0): (&'a [f64], &'a [f64]),
        n_steps: usize,
        sources: &'a [Source],
        cfg: DistributedConfig,
    ) -> RunSpec<'a> {
        RunSpec {
            elem_level: &levels.elem_level,
            partition,
            dt,
            u0,
            v0,
            n_steps,
            sources,
            cfg,
        }
    }

    fn run_local<P: Decompose>(problem: &P, spec: &RunSpec<'_>) -> RunResult {
        assert_level_buffers_fit(problem, spec);
        run(problem, spec, None, &mut MetricsRegistry::new()).into_result()
    }

    /// Every rank's level buffers hold at most `n_local + 3·Σ_{l≥1} a[l]`
    /// values — level 0's force and three prefix buffers per finer level —
    /// which is below the `n_local` per buffer a full-length layout needs.
    fn assert_level_buffers_fit<P: Decompose>(problem: &P, spec: &RunSpec<'_>) {
        for (r, w) in local_worlds(problem, spec, decompose(problem, spec))
            .into_iter()
            .enumerate()
        {
            let n_local = w.u.len();
            let nl = w.sets.n_levels();
            assert_eq!(w.sets.end(0), n_local, "rank {r}");
            let finer: usize = (1..nl).map(|l| w.sets.end(l)).sum();
            let held = LevelState::new(w.sets).buffer_len();
            assert!(held <= n_local + 3 * finer, "rank {r}: {held} values");
            if nl > 1 {
                assert!(held < n_local * (1 + 3 * (nl - 1)), "rank {r}");
            }
        }
    }

    #[test]
    fn local_memory_matches_serial() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 600);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = AcousticOperator::new(&b.mesh, order);
        let ndof = Operator::ndof(&op);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
        let reference = serial(&b.mesh, &b.levels, order, dt, &u0, 4, &[]);

        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let v0 = vec![0.0; ndof];
        let cfg = DistributedConfig::new(n_ranks);
        let spec = spec(&b.levels, &part, dt, (&u0, &v0), 4, &[], cfg);
        let mesh = &b.mesh;
        let (u, _, stats) = run_local(&Acoustic { mesh, order }, &spec).unwrap();
        let scale = reference.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - reference[i]).abs() <= 1e-12 * scale,
                "dof {i}: {} vs {}",
                u[i],
                reference[i]
            );
        }
        assert_eq!(stats.len(), n_ranks);
    }

    #[test]
    fn local_memory_with_sources_and_overlap() {
        let b = BenchmarkMesh::build(MeshKind::Embedding, 500);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = AcousticOperator::new(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let ndof = Operator::ndof(&op);
        let src_dof = setup.leaf[0][setup.leaf[0].len() / 3];
        let mk = || vec![Source::ricker(src_dof, 0.3, 1.0, 1.0)];
        let reference = serial(&b.mesh, &b.levels, order, dt, &vec![0.0; ndof], 5, &mk());

        let n_ranks = 4;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchBaseline, 2);
        let cfg = DistributedConfig {
            overlap: true,
            ..DistributedConfig::new(n_ranks)
        };
        let srcs = mk();
        let zero = vec![0.0; ndof];
        let spec = spec(&b.levels, &part, dt, (&zero, &zero), 5, &srcs, cfg);
        let mesh = &b.mesh;
        let (u, _, _) = run_local(&Acoustic { mesh, order }, &spec).unwrap();
        let scale = reference.iter().fold(1e-30f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - reference[i]).abs() <= 1e-11 * scale,
                "dof {i}: {} vs {}",
                u[i],
                reference[i]
            );
        }
    }

    #[test]
    fn local_memory_elastic_matches_serial() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 400);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = ElasticOperator::poisson(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let ndof = Operator::ndof(&op);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.05).sin()).collect();
        let mut u_ref = u0.clone();
        let mut v_ref = vec![0.0; ndof];
        let mut lts = LtsNewmark::new(&op, &setup, dt);
        lts.run(&mut u_ref, &mut v_ref, 0.0, 3, &[]);

        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let v0 = vec![0.0; ndof];
        let cfg = DistributedConfig::new(n_ranks);
        let spec = spec(&b.levels, &part, dt, (&u0, &v0), 3, &[], cfg);
        let mesh = &b.mesh;
        let (u, _, _) = run_local(&Elastic { mesh, order }, &spec).unwrap();
        let scale = u_ref.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - u_ref[i]).abs() <= 1e-12 * scale,
                "dof {i}: {} vs {}",
                u[i],
                u_ref[i]
            );
        }
    }

    /// Initial fields `u0 = v0 = DOF index` and five sources on DOFs
    /// `src_dof(i, ndof)`, for localization checks.
    fn inputs<P: Decompose>(
        problem: &P,
        src_dof: impl Fn(usize, usize) -> u32,
    ) -> (Vec<f64>, Vec<Source>) {
        let ndof = Operator::ndof(&problem.global());
        let u0: Vec<f64> = (0..ndof).map(|i| i as f64).collect();
        let sources = (0..5)
            .map(|i| Source::ricker(src_dof(i, ndof), 0.3, 1.0, 1.0))
            .collect();
        (u0, sources)
    }

    /// Maps every localized list of every rank back to global ids — elements
    /// through the rank's ascending element list, DOFs through
    /// `global_of_local` — and checks the result is the global plan, along
    /// with the rank's DOF set (every DOF of its elements, ascending), the
    /// gathered level metadata, fields and sources.
    fn assert_worlds_match_plans<P: Decompose>(
        problem: &P,
        elem_level: &[u8],
        part: &[u32],
        k: usize,
        src_dof: impl Fn(usize, usize) -> u32,
    ) {
        let (u0, sources) = inputs(problem, src_dof);
        let spec = RunSpec {
            elem_level,
            partition: part,
            dt: 1.0,
            u0: &u0,
            v0: &u0,
            n_steps: 0,
            sources: &sources,
            cfg: DistributedConfig::new(k),
        };
        let global = problem.global();
        let setup = LtsSetup::new(&global, elem_level);
        let plans = build_plans(&global, &setup, part, k);
        let worlds = local_worlds(problem, &spec, decompose(problem, &spec));
        let by_rank = elems_by_rank(part, k);
        assert_eq!(worlds.len(), plans.len());
        let mut buf = Vec::new();
        for (r, (w, plan)) in worlds.iter().zip(&plans).enumerate() {
            let g = &w.global_of_local;
            let elems = &by_rank[r];
            let back_elems = |lists: &[Vec<u32>]| -> Vec<Vec<u32>> {
                lists
                    .iter()
                    .map(|l| l.iter().map(|&e| elems[e as usize]).collect())
                    .collect()
            };
            let back_dofs = |lists: &[Vec<u32>]| -> Vec<Vec<u32>> {
                lists
                    .iter()
                    .map(|l| l.iter().map(|&d| g[d as usize]).collect())
                    .collect()
            };
            let back = RankPlan {
                my_elems: back_elems(&w.plan.my_elems),
                my_boundary_elems: back_elems(&w.plan.my_boundary_elems),
                my_interior_elems: back_elems(&w.plan.my_interior_elems),
                peers: w.plan.peers.clone(),
                pair_dofs: w.plan.pair_dofs.iter().map(|pp| back_dofs(pp)).collect(),
                shared: w
                    .plan
                    .shared
                    .iter()
                    .map(|sh| SharedDofs {
                        dofs: sh.dofs.iter().map(|&d| g[d as usize]).collect(),
                        offsets: sh.offsets.clone(),
                        ranks: sh.ranks.clone(),
                    })
                    .collect(),
            };
            assert_eq!(&back, plan, "rank {r}");
            let mut my_dofs = Vec::new();
            for &e in elems {
                global.elem_dofs(e, &mut buf);
                my_dofs.extend_from_slice(&buf);
            }
            my_dofs.sort_unstable();
            my_dofs.dedup();
            let mut sorted = g.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, my_dofs, "rank {r}");
            // grouped: finest leaf level first, ascending within a level
            let key = |d: u32| (std::cmp::Reverse(setup.leaf_level[d as usize]), d);
            assert!(g.windows(2).all(|p| key(p[0]) < key(p[1])), "rank {r}");
            // every level set is the rank's share of the global one, as a
            // prefix or range
            let mine = |set: &[u32]| -> Vec<u32> {
                set.iter()
                    .copied()
                    .filter(|d| my_dofs.binary_search(d).is_ok())
                    .collect()
            };
            let back = |range: std::ops::Range<usize>| -> Vec<u32> {
                let mut v: Vec<u32> = g[range].to_vec();
                v.sort_unstable();
                v
            };
            // the DOFs of the global `elems[j]` for `j` in `levels`, ascending
            let dofs_of = |levels: &[Vec<u32>]| -> Vec<u32> {
                let (mut buf, mut out) = (Vec::new(), Vec::new());
                for &e in levels.iter().flatten() {
                    global.elem_dofs(e, &mut buf);
                    out.extend_from_slice(&buf);
                }
                out.sort_unstable();
                out.dedup();
                out
            };
            assert_eq!(w.sets.n_levels(), setup.n_levels, "rank {r}");
            for l in 0..setup.n_levels {
                assert_eq!(
                    back(w.sets.leaf(l)),
                    mine(&setup.leaf[l]),
                    "rank {r} leaf {l}"
                );
                if l > 0 {
                    let active = back(w.sets.active(l));
                    let want = mine(&dofs_of(&setup.elems[l..]));
                    assert_eq!(active, want, "rank {r} active {l}");
                }
                let touched = mine(&dofs_of(&setup.elems[l..=l]));
                let prefix = back(w.sets.active(l));
                assert!(touched.iter().all(|d| prefix.binary_search(d).is_ok()));
            }
            assert_eq!(Operator::ndof(&w.op), g.len(), "rank {r}");
            let levels: Vec<u8> = g.iter().map(|&d| setup.dof_level[d as usize]).collect();
            assert_eq!(w.dof_level, levels, "rank {r}");
            let u: Vec<f64> = g.iter().map(|&d| u0[d as usize]).collect();
            assert_eq!(w.u, u, "rank {r}");
            let mut mine = Vec::new();
            for per_level in &w.my_sources {
                for &(si, ld) in per_level {
                    assert_eq!(g[ld as usize], sources[si].dof, "rank {r}");
                    mine.push(si);
                }
            }
            mine.sort_unstable();
            let owned: Vec<usize> = (0..sources.len())
                .filter(|&si| my_dofs.binary_search(&sources[si].dof).is_ok())
                .collect();
            assert_eq!(mine, owned, "rank {r}");
        }
    }

    /// The 3-level 24-element chain.
    fn three_level_chain() -> (Chain1d, Vec<u8>) {
        let c = Chain1d::with_velocities(
            (0..24)
                .map(|i| match i {
                    20.. => 4.0,
                    17.. => 2.0,
                    _ => 1.0,
                })
                .collect(),
            1.0,
        );
        let (lv, _) = c.assign_levels(0.5, 3);
        (c, lv)
    }

    #[test]
    fn localized_worlds_map_back_to_global_plans() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 500);
        let (mesh, order) = (&b.mesh, 2);
        let lv = &b.levels.elem_level;
        let (chain, chain_lv) = three_level_chain();
        for k in [1usize, 3, 8] {
            let part = partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchP, 1);
            let acoustic = Acoustic { mesh, order };
            assert_worlds_match_plans(&acoustic, lv, &part, k, |i, n| (i * n / 5) as u32);
            let elastic = Elastic { mesh, order };
            assert_worlds_match_plans(&elastic, lv, &part, k, |i, n| (i * n / 5 + i) as u32);
            // scrambled: every rank owns scattered elements
            let scrambled: Vec<u32> = (0..24u32).map(|e| (e * 7 + e / 5) % k as u32).collect();
            assert_worlds_match_plans(&chain, &chain_lv, &scrambled, k, |i, n| (i * n / 5) as u32);
        }
    }

    /// The per-rank builder a worker runs gives rank `r` the same world as
    /// entry `r` of the all-ranks builder: plan, metadata, fields, sources,
    /// and an operator with the same mass and product bits.
    fn assert_rank_world_is_entry<P: Decompose>(
        problem: &P,
        elem_level: &[u8],
        part: &[u32],
        k: usize,
    ) {
        let (u0, sources) = inputs(problem, |i, n| ((i * n / 5 + i) % n) as u32);
        let spec = RunSpec {
            elem_level,
            partition: part,
            dt: 1.0,
            u0: &u0,
            v0: &u0,
            n_steps: 0,
            sources: &sources,
            cfg: DistributedConfig::new(k),
        };
        let worlds = local_worlds(problem, &spec, decompose(problem, &spec));
        for (r, all) in worlds.iter().enumerate() {
            let alone = rank_world(problem, &spec, &decompose(problem, &spec), r);
            assert_eq!(alone.sets, all.sets, "rank {r}");
            assert_eq!(alone.plan, all.plan, "rank {r}");
            assert_eq!(alone.dof_level, all.dof_level, "rank {r}");
            assert_eq!(alone.u, all.u, "rank {r}");
            assert_eq!(alone.v, all.v, "rank {r}");
            assert_eq!(alone.my_sources, all.my_sources, "rank {r}");
            assert_eq!(alone.global_of_local, all.global_of_local, "rank {r}");
            let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(alone.op.mass()), bits(all.op.mass()), "rank {r}");
            let n = Operator::ndof(&all.op);
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).sin()).collect();
            let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
            alone.op.apply(&x, &mut a);
            all.op.apply(&x, &mut b);
            assert_eq!(bits(&a), bits(&b), "rank {r}");
        }
    }

    #[test]
    fn rank_world_equals_entry_of_all_ranks_builder() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 400);
        let (mesh, order) = (&b.mesh, 2);
        let lv = &b.levels.elem_level;
        let part = partition_mesh(&b.mesh, &b.levels, 3, Strategy::ScotchP, 1);
        assert_rank_world_is_entry(&Acoustic { mesh, order }, lv, &part, 3);
        assert_rank_world_is_entry(&Elastic { mesh, order }, lv, &part, 3);
        let (chain, chain_lv) = three_level_chain();
        let interleaved: Vec<u32> = (0..24).map(|e| (e % 3) as u32).collect();
        assert_rank_world_is_entry(&chain, &chain_lv, &interleaved, 3);
    }

    #[test]
    fn rank_memory_is_local() {
        // the per-rank DOF count must be ≈ ndof/k + surface, far below ndof
        let b = BenchmarkMesh::build(MeshKind::Crust, 1_500);
        let order = 2;
        let op = AcousticOperator::new(&b.mesh, order);
        let ndof = Operator::ndof(&op);
        let n_ranks = 8;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        for rank in 0..n_ranks as u32 {
            let mine: Vec<u32> = (0..b.mesh.n_elems() as u32)
                .filter(|&e| part[e as usize] == rank)
                .collect();
            let (local, map) = UnstructuredAcoustic::from_subset(&b.mesh, order, &mine, None);
            assert!(
                lts_core::DofTopology::n_dofs(&local) < ndof / 4,
                "rank {rank}: {} local dofs of {} global",
                map.len(),
                ndof
            );
        }
    }
}
