//! Fig. 10 — CPU strong scaling on the embedding mesh (7.9× theoretical
//! speed-up), 16 → 128 nodes: LTS ideal, SCOTCH-P, PaToH 0.01/0.05, non-LTS.
//!
//! Paper shape: SCOTCH-P reaches ~95 % of the 7.9× model speed-up at 16
//! nodes and scales at 93 %; the reference code scales super-linearly
//! (123 %) from improving cache locality.

use lts_bench::{build_mesh, scaling, Args};
use lts_mesh::MeshKind;
use lts_partition::Strategy;
use lts_perfmodel::cluster::MachineModel;

fn main() {
    let args = Args::parse(&["elements", "seed", "nodes"]);
    let elements: usize = args.get("elements", 100_000);
    let seed: u64 = args.get("seed", 1);
    let nodes = args.get_list("nodes", &[16, 32, 64, 128]);
    let b = build_mesh(MeshKind::Embedding, elements);
    let paper = MeshKind::Embedding.paper_elements();
    let strategies = [
        Strategy::ScotchP,
        Strategy::Patoh { final_imbal: 0.01 },
        Strategy::Patoh { final_imbal: 0.05 },
    ];
    let cpu = scaling::run(
        &b,
        &nodes,
        &strategies,
        &MachineModel::cpu_node().scaled(b.mesh.n_elems(), paper),
        seed,
    );
    scaling::print(&cpu, "Fig. 10 — CPU performance, embedding mesh");
    println!("\npaper: SCOTCH-P 93% of LTS ideal; non-LTS CPU 123% (super-linear, cache)");
}
