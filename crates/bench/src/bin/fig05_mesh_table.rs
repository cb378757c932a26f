//! Fig. 5 — benchmark meshes in detail: elements, DOF (global GLL nodes at
//! order 4), theoretical LTS speed-up (Eq. 9), number of levels.
//!
//! `--scale f` multiplies every mesh's default element count (1.0 ≈ 1/25th
//! of paper scale; `--scale 25` regenerates the paper sizes, which needs a
//! few GB of RAM for trench-big).

use lts_bench::{Args, Table};
use lts_mesh::{BenchmarkMesh, MeshKind};

fn main() {
    let args = Args::parse(&["scale"]);
    let scale: f64 = args.get("scale", 1.0);
    let kinds = [
        MeshKind::Trench,
        MeshKind::TrenchBig,
        MeshKind::Embedding,
        MeshKind::Crust,
    ];
    let mut t = Table::new(&[
        "Mesh",
        "# elements",
        "# DOF",
        "Theor. LTS speedup",
        "# of levels",
        "paper speedup",
    ]);
    for kind in kinds {
        let target = ((kind.paper_elements() as f64 / 25.0) * scale) as usize;
        let b = BenchmarkMesh::build(kind, target);
        let dof = b.mesh.n_gll_nodes(4);
        t.row(vec![
            kind.name().to_string(),
            format!("{:.1}M", b.mesh.n_elems() as f64 / 1e6),
            format!("{:.0}M", dof as f64 / 1e6),
            format!("{:.1}", b.speedup()),
            format!("{}", b.levels.n_levels),
            format!("{:.1}", kind.paper_speedup()),
        ]);
    }
    println!("Fig. 5 — benchmark meshes in detail (scale {scale}, paper sizes / 25 by default)");
    t.print();
    println!("\nlevel histograms (coarsest first):");
    for kind in kinds {
        let target = ((kind.paper_elements() as f64 / 25.0) * scale) as usize;
        let b = BenchmarkMesh::build(kind, target);
        println!("  {:<11} {:?}", kind.name(), b.levels.histogram());
    }
}
