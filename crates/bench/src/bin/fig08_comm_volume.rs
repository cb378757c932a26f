//! Fig. 8 — weighted graph cut and total MPI communication volume per LTS
//! cycle for MeTiS, PaToH (0.05 / 0.01) and SCOTCH-P on the trench mesh,
//! K = 16 / 32 / 64.
//!
//! Paper values (2.5M): e.g. K = 64: MeTiS cut 3.5e6 / vol 3.0e7,
//! PaToH.05 4.2e6 / 2.6e7, SCOTCH-P 4.7e6 / 3.3e7, PaToH.01 3.4e6 / 2.3e7.

use lts_bench::{build_mesh, sci, Args, Table};
use lts_mesh::MeshKind;
use lts_partition::{edge_cut, mpi_volume, partition_mesh, Strategy};

fn main() {
    let args = Args::parse(&["elements", "seed", "parts"]);
    let elements: usize = args.get("elements", 100_000);
    let seed: u64 = args.get("seed", 1);
    let parts = args.get_list("parts", &[16, 32, 64]);
    let b = build_mesh(MeshKind::Trench, elements);

    let strategies = [
        Strategy::MetisMc,
        Strategy::Patoh { final_imbal: 0.05 },
        Strategy::ScotchP,
        Strategy::Patoh { final_imbal: 0.01 },
    ];
    let mut t = Table::new(&["# of parts", "strategy", "Graph cut", "MPI volume"]);
    for &k in &parts {
        for s in strategies {
            let part = partition_mesh(&b.mesh, &b.levels, k, s, seed);
            t.row(vec![
                k.to_string(),
                s.name(),
                sci(edge_cut(&b.mesh, &b.levels, &part) as f64),
                sci(mpi_volume(&b.mesh, &b.levels, &part) as f64),
            ]);
        }
    }
    println!("Fig. 8 — communication cost metrics, trench mesh");
    t.print();
    println!(
        "\npaper (2.5M, K=64): MeTiS 3.5e6/3.0e7  PaToH.05 4.2e6/2.6e7  SCOTCH-P 4.7e6/3.3e7  PaToH.01 3.4e6/2.3e7"
    );
    println!("(hypergraph cut = exact MPI volume per LTS cycle; graph partitioners optimise only the edge-cut upper bound)");
}
