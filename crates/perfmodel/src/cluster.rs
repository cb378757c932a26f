//! The bulk-synchronous cluster model.
//!
//! For a K-way element partition the model reads, per rank and per level,
//! the [`PartitionShape`] of `lts-partition`: (a) the masked-product element
//! counts (work), (b) the partial values one level-`l` call sends
//! (communication volume), and (c) the neighbour count (message latency) —
//! the same extraction the runtime's deterministic counters equal exactly
//! at order 1. One LTS cycle then costs
//!
//! ```text
//! T_cycle = Σ_l 2^l · max_r [ launch + ops_l(r)·t_elem(r) + α·peers_l(r) + β·vol_l(r) ]
//! ```
//!
//! and the non-LTS reference costs `p_max · max_r[...]` with every element
//! stepped at the finest rate. Performance is reported as simulated seconds
//! per wall second (`Δt / T_cycle`), normalised by the caller.

use lts_partition::PartitionShape;

/// First-order machine model of one rank (a CPU node or a GPU).
#[derive(Debug, Clone, Copy)]
pub struct MachineModel {
    /// Seconds per element per sub-step (out-of-cache).
    pub(crate) t_elem: f64,
    /// Seconds per masked-product invocation (kernel setup + launch).
    pub(crate) kernel_launch: f64,
    /// Seconds per message (latency).
    pub(crate) alpha: f64,
    /// Seconds per interface corner-node value exchanged.
    pub(crate) beta: f64,
    /// Speed multiplier once the rank's working set fits in cache (< 1);
    /// 1.0 disables the effect.
    pub(crate) cache_factor: f64,
    /// Working-set size, in elements, at which half the cache benefit is
    /// realised.
    pub(crate) cache_elems: f64,
    /// Overlap communication with interior computation (the SPECFEM3D
    /// asynchronous pattern): per level,
    /// `T = launch + boundary·t + max(interior·t, α·peers + β·vol)`.
    pub(crate) overlap: bool,
}

impl MachineModel {
    /// One 8-core CPU node of the paper's cluster (the 8 MPI ranks per node
    /// are absorbed into the per-node element throughput). Calibrated so the
    /// shapes of Figs. 9–11 are reproduced: visible cache super-linearity
    /// between 16 and 128 nodes on ~2.5M-element meshes.
    pub fn cpu_node() -> Self {
        MachineModel {
            t_elem: 2.0e-6,
            kernel_launch: 4.0e-6,
            alpha: 3.0e-6,
            beta: 2.0e-8,
            cache_factor: 0.60,
            cache_elems: 22_000.0,
            overlap: false,
        }
    }

    /// Enable communication/computation overlap.
    pub fn with_overlap(self) -> Self {
        MachineModel {
            overlap: true,
            ..self
        }
    }

    /// One K20X GPU: ~7× the node throughput, but tens of microseconds of
    /// kernel setup/launch per masked product and no cache super-linearity.
    pub fn gpu_node() -> Self {
        MachineModel {
            t_elem: 2.0e-6 / 7.2,
            kernel_launch: 45.0e-6,
            alpha: 5.0e-6,
            beta: 2.0e-8,
            cache_factor: 1.0,
            cache_elems: 1.0,
            overlap: false,
        }
    }

    /// Rescale the fixed overheads (launch, latency, bandwidth, cache size)
    /// for a mesh `mesh_elems` large when the paper ran `paper_elems`: the
    /// per-node work shrinks with the mesh, so shrinking the overheads by the
    /// same factor preserves the work/overhead ratio at every node count —
    /// letting laptop-scale meshes reproduce the paper-scale curves.
    pub fn scaled(self, mesh_elems: usize, paper_elems: usize) -> Self {
        let s = mesh_elems as f64 / paper_elems as f64;
        MachineModel {
            kernel_launch: self.kernel_launch * s,
            alpha: self.alpha * s,
            beta: self.beta * s,
            cache_elems: (self.cache_elems * s).max(1.0),
            ..self
        }
    }

    /// Effective per-element time for a rank holding `elems` elements.
    pub(crate) fn t_elem_eff(&self, elems: f64) -> f64 {
        if self.cache_factor >= 1.0 {
            return self.t_elem;
        }
        // logistic blend between cached and uncached throughput
        let x = (elems / self.cache_elems).ln();
        let s = 1.0 / (1.0 + (-1.6 * x).exp()); // 0 → cached, 1 → uncached
        self.t_elem * (self.cache_factor + (1.0 - self.cache_factor) * s)
    }
}

/// Cycle cost breakdown.
#[derive(Debug, Clone)]
pub struct CycleBreakdown {
    /// Total seconds per global `Δt` (LTS).
    pub lts_cycle: f64,
    /// Total seconds per global `Δt` for the non-LTS scheme (`p_max` fine
    /// steps of the full mesh).
    pub global_cycle: f64,
}

/// Evaluate the model for one partition shape.
pub fn simulate(shape: &PartitionShape, m: &MachineModel) -> CycleBreakdown {
    let nl = shape.n_levels;
    let mut level_max = vec![0.0f64; nl];
    for l in 0..nl {
        let mut worst = 0.0f64;
        for r in 0..shape.k {
            let t_el = m.t_elem_eff(shape.elems[r] as f64);
            let comm = m.alpha * shape.peers[r][l] as f64 + m.beta * shape.vol[r][l] as f64;
            let t = if m.overlap {
                let boundary = shape.boundary_ops[r][l] as f64 * t_el;
                let interior = (shape.ops[r][l] - shape.boundary_ops[r][l]) as f64 * t_el;
                m.kernel_launch + boundary + interior.max(comm)
            } else {
                m.kernel_launch + shape.ops[r][l] as f64 * t_el + comm
            };
            worst = worst.max(t);
        }
        level_max[l] = worst;
    }
    let lts_cycle: f64 = level_max
        .iter()
        .enumerate()
        .map(|(l, &t)| (1u64 << l) as f64 * t)
        .sum();

    // non-LTS: p_max fine steps; every rank steps all its elements and
    // exchanges all its interface nodes each fine step
    let p_max = 1u64 << (nl - 1);
    let mut worst = 0.0f64;
    for r in 0..shape.k {
        let t_el = m.t_elem_eff(shape.elems[r] as f64);
        let comm = m.alpha * shape.all_peers[r] as f64 + m.beta * shape.all_vol[r] as f64;
        let t = if m.overlap {
            let boundary = shape.boundary_elems[r];
            let interior = (shape.elems[r] - boundary) as f64 * t_el;
            m.kernel_launch + boundary as f64 * t_el + interior.max(comm)
        } else {
            m.kernel_launch + shape.elems[r] as f64 * t_el + comm
        };
        worst = worst.max(t);
    }
    let global_cycle = p_max as f64 * worst;
    CycleBreakdown {
        lts_cycle,
        global_cycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_mesh::{BenchmarkMesh, MeshKind};
    use lts_partition::{partition_mesh, Strategy};

    fn trench_shape(k: usize, strategy: Strategy) -> (BenchmarkMesh, PartitionShape) {
        let b = BenchmarkMesh::build(MeshKind::Trench, 6_000);
        let part = partition_mesh(&b.mesh, &b.levels, k, strategy, 1);
        let shape = PartitionShape::new(&b.mesh, &b.levels, &part, k);
        (b, shape)
    }

    #[test]
    fn ops_cover_all_elements_at_level0() {
        let (b, shape) = trench_shape(4, Strategy::ScotchP);
        // level-0 ops should count most elements exactly once across ranks
        let total0: u64 = shape.ops.iter().map(|o| o[0]).sum();
        let hist = b.levels.histogram();
        assert!(total0 >= hist[0] as u64);
        let total_elems: u64 = shape.elems.iter().sum();
        assert_eq!(total_elems, b.mesh.n_elems() as u64);
    }

    #[test]
    fn lts_cycle_beats_global_cycle() {
        let (_, shape) = trench_shape(8, Strategy::ScotchP);
        let m = MachineModel::cpu_node();
        let r = simulate(&shape, &m);
        assert!(
            r.lts_cycle < r.global_cycle,
            "LTS {} vs global {}",
            r.lts_cycle,
            r.global_cycle
        );
    }

    #[test]
    fn level_balanced_partition_beats_baseline() {
        let (_, sp) = trench_shape(8, Strategy::ScotchP);
        let (_, base) = trench_shape(8, Strategy::ScotchBaseline);
        let m = MachineModel::cpu_node();
        let t_sp = simulate(&sp, &m).lts_cycle;
        let t_base = simulate(&base, &m).lts_cycle;
        assert!(
            t_sp < t_base,
            "SCOTCH-P {t_sp} should beat level-oblivious baseline {t_base}"
        );
    }

    #[test]
    fn gpu_suffers_at_high_rank_counts() {
        // with tiny per-rank fine levels, GPU launch overhead dominates and
        // LTS efficiency falls — the Fig. 9 (bottom) falloff
        let b = BenchmarkMesh::build(MeshKind::Trench, 6_000);
        let gpu = MachineModel::gpu_node();
        let mut eff = Vec::new();
        for k in [2usize, 16] {
            let part = partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchP, 1);
            let shape = PartitionShape::new(&b.mesh, &b.levels, &part, k);
            let r = simulate(&shape, &gpu);
            // per-rank efficiency: speedup vs k × single-rank-share
            let t1 = r.global_cycle; // same-machine non-LTS
            eff.push((t1 / r.lts_cycle) / 1.0);
            let _ = t1;
        }
        // LTS speedup factor shrinks as k grows (launch-bound fine levels)
        assert!(eff[1] < eff[0] * 1.02, "{eff:?}");
    }

    #[test]
    fn cache_effect_speeds_small_partitions() {
        let m = MachineModel::cpu_node();
        assert!(m.t_elem_eff(1_000.0) < m.t_elem_eff(1_000_000.0));
        assert!(m.t_elem_eff(1_000.0) >= m.t_elem * m.cache_factor * 0.99);
        let g = MachineModel::gpu_node();
        assert_eq!(g.t_elem_eff(10.0), g.t_elem);
    }

    #[test]
    fn volumes_symmetric_across_ranks() {
        let (_, shape) = trench_shape(2, Strategy::ScotchBaseline);
        // with two ranks every interface node contributes 1 to each side
        for l in 0..shape.n_levels {
            assert_eq!(shape.vol[0][l], shape.vol[1][l], "level {l}");
        }
    }
}
