//! Ablation: SCOTCH-P part-to-processor coupling — the paper's greedy
//! max-affinity rule vs. optimal weighted matching (auction algorithm),
//! the improvement the paper leaves as future work.

use lts_bench::{build_mesh, Args, Table};
use lts_mesh::MeshKind;
use lts_partition::metrics::{edge_cut, load_imbalance, mpi_volume};
use lts_partition::scotch_p::{partition_scotch_p_with, MappingMethod};

fn main() {
    let args = Args::parse(&["elements", "seed", "parts"]);
    let elements: usize = args.get("elements", 40_000);
    let seed: u64 = args.get("seed", 1);
    let parts = args.get_list("parts", &[8, 16, 32, 64]);
    let b = build_mesh(MeshKind::Trench, elements);

    let mut t = Table::new(&[
        "K",
        "greedy cut",
        "auction cut",
        "greedy volume",
        "auction volume",
        "Δ volume",
    ]);
    for &k in &parts {
        let g = partition_scotch_p_with(&b.mesh, &b.levels, k, seed, MappingMethod::Greedy);
        let a = partition_scotch_p_with(&b.mesh, &b.levels, k, seed, MappingMethod::Auction);
        let (vg, va) = (
            mpi_volume(&b.mesh, &b.levels, &g),
            mpi_volume(&b.mesh, &b.levels, &a),
        );
        // per-level balance identical by construction (same per-level parts,
        // mappings only permute them); totals may differ slightly
        let (rg, ra) = (
            load_imbalance(&b.levels, &g, k),
            load_imbalance(&b.levels, &a, k),
        );
        for (lg, la) in rg.per_level_pct.iter().zip(&ra.per_level_pct) {
            assert!((lg - la).abs() < 1e-9, "per-level balance changed");
        }
        t.row(vec![
            k.to_string(),
            edge_cut(&b.mesh, &b.levels, &g).to_string(),
            edge_cut(&b.mesh, &b.levels, &a).to_string(),
            vg.to_string(),
            va.to_string(),
            format!("{:+.1}%", 100.0 * (va as f64 / vg as f64 - 1.0)),
        ]);
    }
    println!(
        "Ablation — SCOTCH-P coupling: greedy (paper) vs auction matching (paper's future work)"
    );
    t.print();
    println!(
        "\nthe matching maximises per-level affinity exactly; the volume gain is typically a few"
    );
    println!("percent — consistent with the paper's remark that the simple greedy already 'works");
    println!("extremely well' on these meshes.");
}
