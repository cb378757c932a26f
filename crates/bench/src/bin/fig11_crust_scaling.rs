//! Fig. 11 — CPU strong scaling on the crust mesh, whose surface refinement
//! caps the theoretical LTS speed-up at 1.9×. The paper's point: even with
//! little headroom, the level-balanced partitions (SCOTCH-P / PaToH 0.01)
//! scale at 96 % and deliver the full 1.9×.

use lts_bench::{build_mesh, scaling, Args};
use lts_mesh::MeshKind;
use lts_partition::Strategy;
use lts_perfmodel::cluster::MachineModel;

fn main() {
    let args = Args::parse(&["elements", "seed", "nodes"]);
    let elements: usize = args.get("elements", 120_000);
    let seed: u64 = args.get("seed", 1);
    let nodes = args.get_list("nodes", &[16, 32, 64, 128]);
    let b = build_mesh(MeshKind::Crust, elements);
    let paper = MeshKind::Crust.paper_elements();
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
    scaling::print(&cpu, "Fig. 11 — CPU performance, crust mesh (1.9x ceiling)");
    println!("\npaper: SCOTCH-P / PaToH 0.01 at 96% scaling efficiency; non-LTS 101%");
}
