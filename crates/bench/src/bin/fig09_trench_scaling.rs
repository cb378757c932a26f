//! Fig. 9 — CPU (top) and GPU (bottom) strong scaling on the trench mesh,
//! 16 → 128 nodes: LTS ideal, SCOTCH-P, PaToH 0.01, PaToH 0.05, non-LTS.
//! All values normalised to the non-LTS **CPU** run at the first node count.
//!
//! Paper shape: CPU LTS starts at ~6.7× and scales at ~97 % of LTS-ideal
//! (slightly super-linear from cache effects); GPU non-LTS is 6.9× the CPU
//! reference and scales at 94 %, while GPU LTS starts at ~84 % LTS
//! efficiency and falls toward 45 % as kernel-launch overhead dominates the
//! shrinking fine levels.

use lts_bench::{build_mesh, scaling, Args};
use lts_mesh::MeshKind;
use lts_partition::Strategy;
use lts_perfmodel::cluster::MachineModel;

fn main() {
    let args = Args::parse(&["elements", "seed", "nodes"]);
    let elements: usize = args.get("elements", 100_000);
    let seed: u64 = args.get("seed", 1);
    let nodes = args.get_list("nodes", &[16, 32, 64, 128]);
    let b = build_mesh(MeshKind::Trench, elements);
    let paper = MeshKind::Trench.paper_elements();
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
    scaling::print(
        &cpu,
        "Fig. 9 (top) — CPU performance, trench mesh (normalized to non-LTS CPU at first point)",
    );

    println!();
    let gpu = scaling::run(
        &b,
        &nodes,
        &strategies,
        &MachineModel::gpu_node().scaled(b.mesh.n_elems(), paper),
        seed,
    );
    scaling::print(
        &gpu,
        "Fig. 9 (bottom) — GPU performance, trench mesh (same normalization)",
    );
    println!("\npaper: CPU LTS 97% of ideal; GPU non-LTS 6.9x reference at 94%; GPU LTS (SCOTCH-P) falls to 45%");
}
