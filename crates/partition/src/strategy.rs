//! The four partitioning strategies compared in the paper (Sec. III-B) behind
//! one entry point, [`partition_mesh`].

use crate::graph::Graph;
use crate::hgraph::HGraph;
use crate::kway::kway_refine;
use crate::metrics::load_imbalance;
use crate::multilevel::{partition_kway, PartitionConfig};
use crate::scotch_p::partition_scotch_p;
use lts_mesh::{HexMesh, Levels};
use lts_obs::MetricsRegistry;

/// Metric names of the strategy dispatch layer.
pub mod names {
    /// Histogram: time building the graph/hypergraph model.
    pub(crate) const BUILD_MODEL: &str = "strategy.build_model";
    /// Histogram: time in the core multilevel engine.
    pub(crate) const PARTITION: &str = "strategy.partition";
    /// Histogram: time in the direct K-way refinement pass.
    pub(crate) const KWAY_REFINE: &str = "strategy.kway_refine";
    /// Gauge: Eq. 21 imbalance of the produced partition, percent
    /// (level-less = total, per level = that level's element-count balance).
    pub(crate) const IMBALANCE_PCT: &str = "imbalance_pct";
}

/// Which partitioner to run (paper names in quotes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// "SCOTCH": single-constraint graph partition with `p_e` vertex
    /// weights — balanced per LTS cycle, unbalanced per level.
    ScotchBaseline,
    /// "SCOTCH-P": per-level partitions greedily coupled onto processors.
    ScotchP,
    /// "MeTiS": multi-constraint graph partition with weighted edges.
    MetisMc,
    /// "PaToH": multi-constraint hypergraph partition minimising the exact
    /// MPI volume, with the `final_imbal` balance tolerance.
    Patoh { final_imbal: f64 },
}

impl Strategy {
    pub fn name(&self) -> String {
        match self {
            Strategy::ScotchBaseline => "SCOTCH".into(),
            Strategy::ScotchP => "SCOTCH-P".into(),
            Strategy::MetisMc => "MeTiS".into(),
            Strategy::Patoh { final_imbal } => format!("PaToH {final_imbal}"),
        }
    }

    /// The four configurations compared in Figs. 7–11.
    pub fn paper_set() -> Vec<Strategy> {
        vec![
            Strategy::MetisMc,
            Strategy::Patoh { final_imbal: 0.05 },
            Strategy::Patoh { final_imbal: 0.01 },
            Strategy::ScotchP,
        ]
    }
}

/// Partition `mesh` into `k` parts with `strategy`. Returns the element →
/// part map.
pub fn partition_mesh(
    mesh: &HexMesh,
    levels: &Levels,
    k: usize,
    strategy: Strategy,
    seed: u64,
) -> Vec<u32> {
    partition_mesh_observed(mesh, levels, k, strategy, seed, &mut MetricsRegistry::new())
}

/// [`partition_mesh`], recording phase timers, the engines' V-cycle/FM
/// metrics, and the resulting Eq. 21 imbalance gauges into `reg`.
pub fn partition_mesh_observed(
    mesh: &HexMesh,
    levels: &Levels,
    k: usize,
    strategy: Strategy,
    seed: u64,
    reg: &mut MetricsRegistry,
) -> Vec<u32> {
    let part = match strategy {
        Strategy::ScotchBaseline => {
            let build = reg.start_span(names::BUILD_MODEL, None);
            let g = Graph::scotch_baseline(mesh, levels);
            drop(build);
            let cfg = PartitionConfig {
                eps: 0.03,
                seed,
                active_rebalance: true,
                adjust_eps: true,
            };
            let mut span = reg.start_span(names::PARTITION, None);
            let mut part = partition_kway(&g, k, &cfg, span.registry());
            drop(span);
            let refine = reg.start_span(names::KWAY_REFINE, None);
            kway_refine(&g, &mut part, k, 0.03, 3, seed);
            drop(refine);
            part
        }
        Strategy::ScotchP => {
            let span = reg.start_span(names::PARTITION, None);
            let part = partition_scotch_p(mesh, levels, k, seed);
            drop(span);
            part
        }
        Strategy::MetisMc => {
            let build = reg.start_span(names::BUILD_MODEL, None);
            let g = Graph::multi_constraint(mesh, levels);
            drop(build);
            // MeTiS only *constrains* balance during refinement (no explicit
            // rebalancing phase) and compounds its tolerance across the
            // recursive bisections — the source of its imbalance in Fig. 7.
            let cfg = PartitionConfig {
                eps: 0.05,
                seed,
                active_rebalance: false,
                adjust_eps: false,
            };
            let mut span = reg.start_span(names::PARTITION, None);
            let mut part = partition_kway(&g, k, &cfg, span.registry());
            drop(span);
            // MeTiS does k-way refinement too — under its own (compounded)
            // tolerance, so the imbalance it arrived with persists
            let refine = reg.start_span(names::KWAY_REFINE, None);
            kway_refine(
                &g,
                &mut part,
                k,
                0.05_f64 * k.ilog2().max(1) as f64,
                3,
                seed,
            );
            drop(refine);
            part
        }
        Strategy::Patoh { final_imbal } => {
            let build = reg.start_span(names::BUILD_MODEL, None);
            let h = HGraph::lts_model(mesh, levels);
            drop(build);
            // PaToH enforces `final_imbal` with an explicit rebalancing phase
            let cfg = PartitionConfig {
                eps: final_imbal,
                seed,
                active_rebalance: true,
                adjust_eps: true,
            };
            let mut span = reg.start_span(names::PARTITION, None);
            let mut part = partition_kway(&h, k, &cfg, span.registry());
            drop(span);
            let refine = reg.start_span(names::KWAY_REFINE, None);
            kway_refine(&h, &mut part, k, final_imbal, 3, seed);
            drop(refine);
            part
        }
    };
    let rep = load_imbalance(levels, &part, k);
    reg.set_gauge(names::IMBALANCE_PCT, rep.total_pct);
    for (l, &pct) in rep.per_level_pct.iter().enumerate() {
        reg.set_gauge_level(names::IMBALANCE_PCT, l as u8, pct);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{load_imbalance, mpi_volume};
    use lts_mesh::{BenchmarkMesh, MeshKind};

    #[test]
    fn all_strategies_produce_valid_partitions() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 4_000);
        let k = 4;
        let mut strategies = Strategy::paper_set();
        strategies.push(Strategy::ScotchBaseline);
        for s in strategies {
            let part = partition_mesh(&b.mesh, &b.levels, k, s, 1);
            assert_eq!(part.len(), b.mesh.n_elems());
            let mut counts = vec![0usize; k];
            for &p in &part {
                assert!((p as usize) < k, "{}: part {p}", s.name());
                counts[p as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c > 0), "{}: {counts:?}", s.name());
        }
    }

    #[test]
    fn level_aware_strategies_beat_baseline_on_level_balance() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 6_000);
        let k = 8;
        let base = partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchBaseline, 1);
        let sp = partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchP, 1);
        let rb = load_imbalance(&b.levels, &base, k);
        let rs = load_imbalance(&b.levels, &sp, k);
        // the baseline leaves the finest level essentially unbalanced
        let finest = b.levels.n_levels - 1;
        assert!(
            rs.per_level_pct[finest] < rb.per_level_pct[finest] + 1e-9,
            "SCOTCH-P {}% vs baseline {}% at finest level",
            rs.per_level_pct[finest],
            rb.per_level_pct[finest]
        );
    }

    #[test]
    fn patoh_tightens_balance_with_smaller_imbal() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 6_000);
        let k = 8;
        let p05 = partition_mesh(
            &b.mesh,
            &b.levels,
            k,
            Strategy::Patoh { final_imbal: 0.05 },
            1,
        );
        let p01 = partition_mesh(
            &b.mesh,
            &b.levels,
            k,
            Strategy::Patoh { final_imbal: 0.01 },
            1,
        );
        let r05 = load_imbalance(&b.levels, &p05, k);
        let r01 = load_imbalance(&b.levels, &p01, k);
        // tighter knob → no worse total balance (paper Fig. 7), cut may grow
        assert!(
            r01.total_pct <= r05.total_pct + 10.0,
            "PaToH .01 {}% vs .05 {}%",
            r01.total_pct,
            r05.total_pct
        );
        let _ = (
            mpi_volume(&b.mesh, &b.levels, &p05),
            mpi_volume(&b.mesh, &b.levels, &p01),
        );
    }
}
