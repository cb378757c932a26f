//! Distributed-*memory* execution: each rank builds a compact local
//! sub-operator over its own elements ([`lts_sem::UnstructuredAcoustic`]),
//! so per-rank state scales with the partition size instead of the mesh —
//! the actual memory model of an MPI code like SPECFEM3D.
//!
//! The stepping and exchange logic is the shared [`crate::distributed`]
//! rank context; only the index spaces change (everything is translated to
//! rank-local DOF/element numbering up front). Verified bitwise against the
//! serial stepper.

use crate::distributed::{
    run_rank_contexts_recorded, DistributedConfig, LocalRank, RankContextRun, RankResult, RunResult,
};
use crate::exchange::{build_plans, elems_by_rank, RankPlan, SharedDofs};
use crate::stats::RankStats;
use crate::RuntimeError;
use lts_core::{DofTopology, LtsSetup, Operator, Source};
use lts_mesh::{HexMesh, Levels};
use lts_obs::{MetricsRegistry, RankRecording};
use lts_sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

/// A SEM operator a rank builds over its own elements, paired with the
/// global operator the decomposer discretizes first.
trait LocalOperator: Operator + Send + Sized {
    /// The global discretization (mass and level sets).
    type Global: Operator + DofTopology;
    /// DOF components per GLL node (global DOF = components·node + comp).
    const COMPONENTS: u32;
    fn global(mesh: &HexMesh, order: usize) -> Self::Global;
    /// The local operator over `elems` and its local→global node map,
    /// numbered through `node_map` (see
    /// [`UnstructuredAcoustic::from_subset_in`]).
    fn from_subset_in(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        node_mass: &dyn Fn(u32) -> f64,
        node_map: &mut [u32],
    ) -> (Self, Vec<u32>);
}

impl LocalOperator for UnstructuredAcoustic {
    type Global = AcousticOperator;
    const COMPONENTS: u32 = 1;
    fn global(mesh: &HexMesh, order: usize) -> AcousticOperator {
        AcousticOperator::new(mesh, order)
    }
    fn from_subset_in(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        node_mass: &dyn Fn(u32) -> f64,
        node_map: &mut [u32],
    ) -> (Self, Vec<u32>) {
        UnstructuredAcoustic::from_subset_in(mesh, order, elems, Some(node_mass), node_map)
    }
}

impl LocalOperator for UnstructuredElastic {
    type Global = ElasticOperator;
    const COMPONENTS: u32 = 3;
    fn global(mesh: &HexMesh, order: usize) -> ElasticOperator {
        ElasticOperator::poisson(mesh, order)
    }
    fn from_subset_in(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        node_mass: &dyn Fn(u32) -> f64,
        node_map: &mut [u32],
    ) -> (Self, Vec<u32>) {
        UnstructuredElastic::from_subset_in(mesh, order, elems, Some(node_mass), node_map)
    }
}

/// Run partitioned LTS with per-rank local memory on the acoustic SEM.
///
/// Builds the global setup and mass once (as a real code would during its
/// mesher/decomposer phase), then hands each rank only its own slice of the
/// world. Returns the assembled global `(u, v)` and per-rank statistics.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
) -> RunResult {
    let host = &mut MetricsRegistry::new();
    run_local::<UnstructuredAcoustic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
    .0
}

/// [`run_distributed_local_acoustic`] recording the decomposer phases
/// (`decompose.discretize`, `decompose.build_worlds`, `run.steps`) as spans
/// in `host`, and folding every rank's registry into it so `host` ends with
/// the global counter totals.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic_observed(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> RunResult {
    run_local::<UnstructuredAcoustic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
    .0
}

/// [`run_distributed_local_acoustic_observed`] that additionally returns
/// every rank's drained flight-recorder ring. Recordings come back on the
/// `Err` side too — that is the whole point: they are the crash-report
/// material when a rank dies mid-run (the error is the lowest failed
/// rank's, matching the non-flight variants).
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic_flight(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    run_local::<UnstructuredAcoustic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
}

/// [`run_distributed_local_acoustic`] for the elastic operator: local node
/// numbering with three interleaved components per node.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_elastic(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
) -> RunResult {
    let host = &mut MetricsRegistry::new();
    run_local::<UnstructuredElastic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
    .0
}

/// [`run_distributed_local_elastic`] with decomposer-phase spans and global
/// counter totals recorded into `host` (see the acoustic observed variant).
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_elastic_observed(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> RunResult {
    run_local::<UnstructuredElastic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
    .0
}

/// [`run_distributed_local_elastic_observed`] returning the flight-recorder
/// rings alongside the result (see the acoustic flight variant).
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_elastic_flight(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    run_local::<UnstructuredElastic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
}

/// The one body behind the six `run_distributed_local_*` entry points:
/// discretize globally, build plans and rank worlds, run the ranks, and
/// assemble the global fields from each DOF's lowest owning rank.
#[allow(clippy::too_many_arguments)]
fn run_local<L: LocalOperator>(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    let n_ranks = cfg.n_ranks;
    // global discretization (mass + level sets), as the decomposer computes
    let discretize = host.start_span("decompose.discretize", None);
    let global_op = L::global(mesh, order);
    let setup = LtsSetup::new(&global_op, &levels.elem_level);
    let ndof = Operator::ndof(&global_op);
    assert_eq!(u0.len(), ndof);
    let plans = build_plans(&global_op, &setup, partition, n_ranks);
    drop(discretize);
    host.set_gauge("ndof", ndof as f64);
    host.set_gauge("n_ranks", n_ranks as f64);

    // per-rank local worlds
    let worlds_span = host.start_span("decompose.build_worlds", None);
    let ranks = local_worlds::<L>(
        mesh,
        order,
        partition,
        &setup,
        &plans,
        global_op.mass(),
        (u0, v0),
        sources,
    );
    drop(worlds_span);

    let run_span = host.start_span("run.steps", None);
    let (outcomes, recordings) = run_rank_contexts_recorded(ranks, dt, n_steps, cfg, sources);
    drop(run_span);
    let (results, stats) = match split_outcomes(outcomes) {
        Ok(pair) => pair,
        Err(e) => return (Err(e), recordings),
    };
    for s in &stats {
        host.merge_from(&s.registry);
    }

    // assemble: lowest owning rank provides each dof
    let mut owner = vec![u32::MAX; ndof];
    for (rank, plan) in plans.iter().enumerate() {
        for &d in &plan.my_dofs {
            owner[d as usize] = owner[d as usize].min(rank as u32);
        }
    }
    let mut u = vec![0.0; ndof];
    let mut v = vec![0.0; ndof];
    for (rank, (u_local, v_local, global_of_local)) in results.into_iter().enumerate() {
        for (l, &g) in global_of_local.iter().enumerate() {
            if owner[g as usize] == rank as u32 {
                u[g as usize] = u_local[l];
                v[g as usize] = v_local[l];
            }
        }
    }
    (Ok((u, v, stats)), recordings)
}

/// Flatten per-rank outcomes: all `Ok` → `(results, stats)`, otherwise the
/// lowest failed rank's error (ID order — deterministic across runs).
fn split_outcomes(
    outcomes: Vec<RankContextRun>,
) -> Result<(Vec<RankResult>, Vec<RankStats>), RuntimeError> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut stats = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        let (res, st) = o?;
        results.push(res);
        stats.push(st);
    }
    Ok((results, stats))
}

/// Global → rank-local index, one rank at a time: a dense array over the
/// global range, loaded with the current rank's ids and cleared after it.
/// Localizing every rank costs O(global + Σ local), with no hashing and no
/// search per lookup. While unloaded, the array also serves `from_subset_in`
/// as its node map.
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
/// `dof`; the rank's DOFs are `0..n_local_dofs`.
fn localize_plan(
    plan: &RankPlan,
    n_local_dofs: usize,
    elem: impl Fn(u32) -> u32,
    dof: impl Fn(u32) -> u32,
) -> RankPlan {
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
        my_zero: dofs(&plan.my_zero),
        my_active: dofs(&plan.my_active),
        my_leaf: dofs(&plan.my_leaf),
        my_dofs: (0..n_local_dofs as u32).collect(),
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

/// Each rank's world: its local operator over its own elements, its plan,
/// level metadata, initial fields and sources in local numbering. Local
/// DOFs interleave `L::COMPONENTS` components per local node.
#[allow(clippy::too_many_arguments)]
fn local_worlds<L: LocalOperator>(
    mesh: &HexMesh,
    order: usize,
    partition: &[u32],
    setup: &LtsSetup,
    plans: &[RankPlan],
    global_mass: &[f64],
    (u0, v0): (&[f64], &[f64]),
    sources: &[Source],
) -> Vec<LocalRank<L>> {
    let c = L::COMPONENTS;
    let nl = setup.n_levels;
    let by_rank = elems_by_rank(partition, plans.len());
    let mut elem_index = LocalIndex::new(mesh.n_elems());
    let mut node_index = LocalIndex::new(u0.len() / c as usize);
    let mut ranks = Vec::with_capacity(plans.len());
    for (plan, my_elems_global) in plans.iter().zip(&by_rank) {
        let (local_op, node_of_local) = L::from_subset_in(
            mesh,
            order,
            my_elems_global,
            &|g| global_mass[(c * g) as usize],
            &mut node_index.local,
        );
        elem_index.load(my_elems_global);
        node_index.load(&node_of_local);
        let local_dof = |g: u32| c * node_index.of(g / c) + g % c;
        let n_local_dofs = c as usize * node_of_local.len();
        let localized = localize_plan(plan, n_local_dofs, |e| elem_index.of(e), local_dof);
        let mut my_sources: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nl];
        for (si, src) in sources.iter().enumerate() {
            if let Some(ln) = node_index.owned(src.dof / c) {
                let ld = c * ln + src.dof % c;
                my_sources[setup.leaf_level[src.dof as usize] as usize].push((si, ld));
            }
        }
        elem_index.unload(my_elems_global);
        node_index.unload(&node_of_local);
        let global_of_local: Vec<u32> = (0..n_local_dofs as u32)
            .map(|ld| c * node_of_local[(ld / c) as usize] + ld % c)
            .collect();
        ranks.push(LocalRank {
            op: local_op,
            n_levels: nl,
            dof_level: gather(&setup.dof_level, &global_of_local),
            plan: localized,
            u: gather(u0, &global_of_local),
            v: gather(v0, &global_of_local),
            my_sources,
            global_of_local,
        });
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::LtsNewmark;
    use lts_mesh::BenchmarkMesh;
    use lts_mesh::MeshKind;
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
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, stats) = run_distributed_local_acoustic(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &vec![0.0; ndof],
            4,
            &cfg,
            &[],
        )
        .unwrap();
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
        let (u, _, _) = run_distributed_local_acoustic(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &vec![0.0; ndof],
            &vec![0.0; ndof],
            5,
            &cfg,
            &srcs,
        )
        .unwrap();
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
        let op = lts_sem::ElasticOperator::poisson(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let ndof = Operator::ndof(&op);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.05).sin()).collect();
        let mut u_ref = u0.clone();
        let mut v_ref = vec![0.0; ndof];
        let mut lts = LtsNewmark::new(&op, &setup, dt);
        lts.run(&mut u_ref, &mut v_ref, 0.0, 3, &[]);

        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, _) = run_distributed_local_elastic(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &vec![0.0; ndof],
            3,
            &cfg,
            &[],
        )
        .unwrap();
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

    /// Maps every localized list of every rank back to global ids — elements
    /// through the rank's ascending element list, DOFs through
    /// `global_of_local` — and checks the result is the global plan, along
    /// with the gathered level metadata, fields and sources.
    fn assert_worlds_match_plans<O: Operator>(
        worlds: &[LocalRank<O>],
        plans: &[RankPlan],
        partition: &[u32],
        setup: &LtsSetup,
        u0: &[f64],
        sources: &[Source],
    ) {
        let by_rank = elems_by_rank(partition, plans.len());
        assert_eq!(worlds.len(), plans.len());
        for (r, (w, plan)) in worlds.iter().zip(plans).enumerate() {
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
                my_zero: back_dofs(&w.plan.my_zero),
                my_active: back_dofs(&w.plan.my_active),
                my_leaf: back_dofs(&w.plan.my_leaf),
                my_dofs: w.plan.my_dofs.iter().map(|&d| g[d as usize]).collect(),
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
                .filter(|&si| plan.my_dofs.binary_search(&sources[si].dof).is_ok())
                .collect();
            assert_eq!(mine, owned, "rank {r}");
        }
    }

    #[test]
    fn localized_worlds_map_back_to_global_plans() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 500);
        let order = 2;
        let acoustic = AcousticOperator::new(&b.mesh, order);
        let elastic = ElasticOperator::poisson(&b.mesh, order);
        for k in [1usize, 3, 8] {
            let part = partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchP, 1);

            let setup = LtsSetup::new(&acoustic, &b.levels.elem_level);
            let ndof = Operator::ndof(&acoustic);
            let u0: Vec<f64> = (0..ndof).map(|i| i as f64).collect();
            let sources: Vec<Source> = (0..5)
                .map(|i| Source::ricker((i * ndof / 5) as u32, 0.3, 1.0, 1.0))
                .collect();
            let plans = build_plans(&acoustic, &setup, &part, k);
            let worlds = local_worlds::<UnstructuredAcoustic>(
                &b.mesh,
                order,
                &part,
                &setup,
                &plans,
                acoustic.mass(),
                (&u0, &u0),
                &sources,
            );
            assert_worlds_match_plans(&worlds, &plans, &part, &setup, &u0, &sources);

            let setup = LtsSetup::new(&elastic, &b.levels.elem_level);
            let ndof = Operator::ndof(&elastic);
            let u0: Vec<f64> = (0..ndof).map(|i| i as f64).collect();
            let sources: Vec<Source> = (0..5)
                .map(|i| Source::ricker((i * ndof / 5 + i) as u32, 0.3, 1.0, 1.0))
                .collect();
            let plans = build_plans(&elastic, &setup, &part, k);
            let worlds = local_worlds::<UnstructuredElastic>(
                &b.mesh,
                order,
                &part,
                &setup,
                &plans,
                elastic.mass(),
                (&u0, &u0),
                &sources,
            );
            assert_worlds_match_plans(&worlds, &plans, &part, &setup, &u0, &sources);
        }
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
