//! Ablation: the rejected alternative. Gödel et al. (paper ref. \[7\])
//! restrict partition cuts to coarse elements so sub-steps need no MPI at
//! all; the paper rejects this because refined clusters bound the smallest
//! partition from below ("an artificially high lower limit on the number of
//! elements per partition"). This binary shows that limit happening.

use lts_bench::{build_mesh, Args, Table};
use lts_mesh::MeshKind;
use lts_partition::metrics::load_imbalance;
use lts_partition::restricted::{largest_cluster_work, partition_coarse_restricted};
use lts_partition::{partition_mesh, Strategy};

fn main() {
    let args = Args::parse(&["elements", "seed", "parts"]);
    let elements: usize = args.get("elements", 30_000);
    let seed: u64 = args.get("seed", 1);
    let parts = args.get_list("parts", &[4, 16, 64, 256]);
    let b = build_mesh(MeshKind::Trench, elements);

    let total: u64 = (0..b.mesh.n_elems() as u32).map(|e| b.levels.p_of(e)).sum();
    let cluster = largest_cluster_work(&b.mesh, &b.levels);
    println!(
        "largest refined cluster carries {cluster} work units of {total} total → balance impossible beyond K ≈ {}\n",
        total / cluster.max(1)
    );

    let mut t = Table::new(&[
        "K",
        "coarse-restricted imbalance",
        "SCOTCH-P imbalance",
        "lower bound",
    ]);
    for &k in &parts {
        let pr = partition_coarse_restricted(&b.mesh, &b.levels, k, seed);
        let ps = partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchP, seed);
        let rr = load_imbalance(&b.levels, &pr, k);
        let rs = load_imbalance(&b.levels, &ps, k);
        // analytic lower bound: max load ≥ max(cluster, total/K)
        let ideal = total as f64 / k as f64;
        let bound = if (cluster as f64) > ideal {
            100.0 * (1.0 - ideal / cluster as f64)
        } else {
            0.0
        };
        t.row(vec![
            k.to_string(),
            format!("{:.0}%", rr.total_pct),
            format!("{:.0}%", rs.total_pct),
            format!("{bound:.0}%"),
        ]);
    }
    println!("Ablation — coarse-restricted partitioning (ref. [7]) vs SCOTCH-P");
    t.print();
    println!(
        "\nthe restricted scheme needs zero sub-step communication but stops scaling once the"
    );
    println!("refined clusters dominate — the paper's reason for the p-level balanced approach.");
}
