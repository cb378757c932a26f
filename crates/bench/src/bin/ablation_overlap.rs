//! Ablation: blocking vs. overlapped communication (the paper's SPECFEM3D
//! baseline uses asynchronous MPI overlapping; this quantifies how much of
//! the LTS scaling depends on it).

use lts_bench::{build_mesh, scaling, Args};
use lts_mesh::MeshKind;
use lts_partition::Strategy;
use lts_perfmodel::cluster::MachineModel;

fn main() {
    let args = Args::parse(&["elements", "seed", "nodes"]);
    let elements: usize = args.get("elements", 60_000);
    let seed: u64 = args.get("seed", 1);
    let nodes = args.get_list("nodes", &[16, 32, 64, 128, 256]);
    let b = build_mesh(MeshKind::Trench, elements);
    let paper = MeshKind::Trench.paper_elements();
    let strategies = [Strategy::ScotchP];

    let blocking = MachineModel::cpu_node().scaled(b.mesh.n_elems(), paper);
    let overlapped = blocking.with_overlap();

    let f1 = scaling::run(&b, &nodes, &strategies, &blocking, seed);
    scaling::print(&f1, "Ablation — blocking communication (SCOTCH-P, trench)");
    println!();
    let f2 = scaling::run(&b, &nodes, &strategies, &overlapped, seed);
    scaling::print(
        &f2,
        "Ablation — overlapped communication (compute interior while messages fly)",
    );

    println!("\nrelative gain from overlapping at each node count:");
    for (i, &n) in f1.nodes.iter().enumerate() {
        // curve 1 is SCOTCH-P in both figures (curve 0 is the ideal)
        let a = f1.curves[1].values[i];
        let o = f2.curves[1].values[i];
        println!("  {n:>5} nodes: {:+.1}%", 100.0 * (o / a - 1.0));
    }
    println!("\nexpected shape: the gain grows with node count — at strong-scaling limits the");
    println!("exchange latency is a growing share of each sub-step, and overlap hides it.");
}
