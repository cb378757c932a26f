//! Ablation: two-level vs. multi-level LTS (Sec. II-B: "this two-level
//! restriction limits the total efficiency of an LTS algorithm").
//!
//! The same mesh is assigned levels with caps N = 1…6; the Eq. 9 model
//! speed-up and the serial masked-work speed-up show how much each extra
//! level buys. On the trench-big geometry the jump from 2 to 6 levels is
//! the difference between ~2× and ~22×.

use lts_bench::{Args, Table};
use lts_mesh::levels::{Levels, DEFAULT_CFL};
use lts_mesh::{BenchmarkMesh, MeshKind};

fn main() {
    let args = Args::parse(&["elements"]);
    let elements: usize = args.get("elements", 120_000);
    // build once with the full level budget to fix the mesh
    let b = BenchmarkMesh::build(MeshKind::TrenchBig, elements);
    println!(
        "trench-big mesh: {} elements, natural level count {}\n",
        b.mesh.n_elems(),
        b.levels.n_levels
    );
    let mut t = Table::new(&[
        "max levels",
        "achieved levels",
        "global Δt",
        "Eq.9 speed-up",
        "histogram",
    ]);
    for cap in 1..=6usize {
        let lv = Levels::assign(&b.mesh, DEFAULT_CFL, cap);
        t.row(vec![
            cap.to_string(),
            lv.n_levels.to_string(),
            format!("{:.4}", lv.dt_global),
            format!("{:.2}x", lv.speedup_model().speedup()),
            format!("{:?}", lv.histogram()),
        ]);
    }
    println!("Ablation — level-count cap vs LTS efficiency (Eq. 9)");
    t.print();
    println!(
        "\nwith a 2-level cap the whole refinement hierarchy is forced onto one fine rate and"
    );
    println!("the global Δt shrinks with it; each extra level recovers a factor until the");
    println!("hierarchy is fully resolved — the paper's motivation for the recursive scheme.");
}
