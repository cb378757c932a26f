//! Shared driver for the strong-scaling figures (Figs. 9, 10, 11, 13).
//!
//! For each node count the mesh is partitioned per strategy, the cluster
//! model evaluates the LTS cycle time, and performance is normalised to the
//! non-LTS run at the first node count — exactly the paper's presentation
//! ("normalized performance" = total speed-up over the reference code).

use lts_mesh::BenchmarkMesh;
use lts_partition::{partition_mesh, PartitionShape, Strategy};
use lts_perfmodel::cluster::{simulate, MachineModel};

/// One scaling curve: normalized performance per node count.
#[derive(Debug, Clone)]
pub struct Curve {
    pub(crate) label: String,
    pub values: Vec<f64>,
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct ScalingFigure {
    pub nodes: Vec<usize>,
    pub curves: Vec<Curve>,
}

/// Run the experiment. `machine` evaluates the strategies; the baseline for
/// normalisation is always the **CPU** non-LTS run at `nodes[0]` (as in the
/// paper, where even GPU results are shown relative to the CPU reference).
pub fn run(
    b: &BenchmarkMesh,
    nodes: &[usize],
    strategies: &[Strategy],
    machine: &MachineModel,
    seed: u64,
) -> ScalingFigure {
    // the CPU reference is scaled to the same mesh as `machine`
    let cpu = MachineModel::cpu_node().scaled(b.mesh.n_elems(), b.kind.paper_elements());
    // baseline: non-LTS CPU at the first node count with the work-balanced
    // (SCOTCH) partition
    let base_part = partition_mesh(&b.mesh, &b.levels, nodes[0], Strategy::ScotchBaseline, seed);
    let base_shape = PartitionShape::new(&b.mesh, &b.levels, &base_part, nodes[0]);
    let baseline_cycle = simulate(&base_shape, &cpu).global_cycle;

    let mut curves: Vec<Curve> = Vec::new();
    // ideal LTS: model speed-up × linear scaling, anchored at this machine's
    // own non-LTS performance at the first node count (as in the paper's GPU
    // panel, where the ideal curve starts at the GPU reference)
    let speedup = b.levels.speedup_model().speedup();
    let anchor_part = partition_mesh(&b.mesh, &b.levels, nodes[0], Strategy::ScotchBaseline, seed);
    let anchor_shape = PartitionShape::new(&b.mesh, &b.levels, &anchor_part, nodes[0]);
    let anchor = baseline_cycle / simulate(&anchor_shape, machine).global_cycle;
    curves.push(Curve {
        label: "LTS ideal".into(),
        values: nodes
            .iter()
            .map(|&n| anchor * speedup * n as f64 / nodes[0] as f64)
            .collect(),
    });
    for &s in strategies {
        let mut values = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let part = partition_mesh(&b.mesh, &b.levels, n, s, seed);
            let shape = PartitionShape::new(&b.mesh, &b.levels, &part, n);
            let r = simulate(&shape, machine);
            values.push(baseline_cycle / r.lts_cycle);
        }
        curves.push(Curve {
            label: s.name(),
            values,
        });
    }
    // non-LTS curve on the same machine
    let mut values = Vec::with_capacity(nodes.len());
    for &n in nodes {
        let part = partition_mesh(&b.mesh, &b.levels, n, Strategy::ScotchBaseline, seed);
        let shape = PartitionShape::new(&b.mesh, &b.levels, &part, n);
        let r = simulate(&shape, machine);
        values.push(baseline_cycle / r.global_cycle);
    }
    curves.push(Curve {
        label: "non-LTS".into(),
        values,
    });
    ScalingFigure {
        nodes: nodes.to_vec(),
        curves,
    }
}

/// Print the figure as a table plus scaling efficiencies.
pub fn print(fig: &ScalingFigure, title: &str) {
    println!("{title}");
    let mut header = vec!["nodes".to_string()];
    header.extend(fig.curves.iter().map(|c| c.label.clone()));
    let mut widths: Vec<usize> = header.iter().map(|h| h.len().max(9)).collect();
    let line = |cells: &[String], widths: &[usize]| {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(widths) {
            s.push_str(&format!("{:>width$}  ", c, width = w));
        }
        println!("{}", s.trim_end());
    };
    line(&header, &widths);
    for (i, &n) in fig.nodes.iter().enumerate() {
        let mut row = vec![n.to_string()];
        row.extend(fig.curves.iter().map(|c| format!("{:.1}", c.values[i])));
        line(&row, &widths);
        let _ = &mut widths;
    }
    // scaling efficiency: value at last node count vs linear scaling of the
    // first point (and vs LTS-ideal for LTS curves)
    println!(
        "\nscaling efficiencies ({} → {} nodes):",
        fig.nodes[0],
        *fig.nodes.last().unwrap()
    );
    let factor = *fig.nodes.last().unwrap() as f64 / fig.nodes[0] as f64;
    let ideal_last = fig.curves[0].values.last().unwrap();
    for c in &fig.curves {
        let first = c.values[0];
        let last = *c.values.last().unwrap();
        if c.label == "LTS ideal" {
            continue;
        }
        let self_eff = 100.0 * last / (first * factor);
        let vs_ideal = 100.0 * last / ideal_last;
        println!(
            "  {:<12} self-relative {:>5.0}%   vs LTS-ideal {:>5.0}%",
            c.label, self_eff, vs_ideal
        );
    }
}
