//! Compare the paper's four partitioning strategies on one mesh: per-level
//! balance, edge cut, exact MPI volume, and the modelled LTS cycle time on
//! the CPU cluster.
//!
//! ```sh
//! cargo run --release --example partition_compare -- [elements] [parts]
//! ```

use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::partition::{
    edge_cut, load_imbalance, mpi_volume, partition_mesh, PartitionShape, Strategy,
};
use wave_lts::perfmodel::cluster::{simulate, MachineModel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let elements: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let k: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);

    let b = BenchmarkMesh::build(MeshKind::Trench, elements);
    println!(
        "trench mesh: {} elements, {} levels, model speed-up {:.2}x, K = {k}\n",
        b.mesh.n_elems(),
        b.levels.n_levels,
        b.speedup()
    );

    let machine =
        MachineModel::cpu_node().scaled(b.mesh.n_elems(), MeshKind::Trench.paper_elements());
    let mut strategies = Strategy::paper_set();
    strategies.insert(0, Strategy::ScotchBaseline);

    println!(
        "{:<12} {:>10} {:>14} {:>10} {:>12} {:>12}",
        "strategy", "imbalance", "finest-level", "edge cut", "MPI volume", "cycle (ms)"
    );
    for s in strategies {
        let part = partition_mesh(&b.mesh, &b.levels, k, s, 1);
        let rep = load_imbalance(&b.levels, &part, k);
        let cut = edge_cut(&b.mesh, &b.levels, &part);
        let vol = mpi_volume(&b.mesh, &b.levels, &part);
        let shape = PartitionShape::new(&b.mesh, &b.levels, &part, k);
        let cycle = simulate(&shape, &machine).lts_cycle;
        println!(
            "{:<12} {:>9.1}% {:>13.1}% {:>10} {:>12} {:>12.3}",
            s.name(),
            rep.total_pct,
            rep.per_level_pct.last().unwrap(),
            cut,
            vol,
            1e3 * cycle
        );
    }
    println!(
        "\nthe level-oblivious SCOTCH baseline balances the *total* but leaves the finest level"
    );
    println!("on few ranks — the modelled cycle time shows the resulting stall (Fig. 1).");
}
