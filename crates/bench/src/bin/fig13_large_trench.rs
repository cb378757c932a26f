//! Fig. 13 — the 26M-element trench-big mesh (6 levels, 21.7× theoretical
//! speed-up) from 128 to 1024 nodes with SCOTCH-P.
//!
//! Paper shape: LTS scaling starts near 100 % of ideal and holds to 512
//! nodes, dropping to 67 % at 1024 nodes (8192 processors) as the finest
//! levels starve; non-LTS scales at 93 %.

use lts_bench::{build_mesh, scaling, Args};
use lts_mesh::MeshKind;
use lts_partition::Strategy;
use lts_perfmodel::cluster::MachineModel;

fn main() {
    let args = Args::parse(&["elements", "seed", "nodes"]);
    // 1/50th of paper scale by default; --elements 26000000 for full size
    let elements: usize = args.get("elements", 520_000);
    let seed: u64 = args.get("seed", 1);
    let nodes = args.get_list("nodes", &[128, 256, 512, 1024]);
    let b = build_mesh(MeshKind::TrenchBig, elements);
    let paper = MeshKind::TrenchBig.paper_elements();
    let strategies = [Strategy::ScotchP];
    let cpu = scaling::run(
        &b,
        &nodes,
        &strategies,
        &MachineModel::cpu_node().scaled(b.mesh.n_elems(), paper),
        seed,
    );
    scaling::print(
        &cpu,
        "Fig. 13 — CPU performance, large trench mesh, SCOTCH-P",
    );
    println!("\npaper: SCOTCH-P holds ~100% of ideal to 512 nodes, 67% at 1024; non-LTS 93%");
}
