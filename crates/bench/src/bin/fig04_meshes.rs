//! Fig. 4 — the benchmark meshes with their p-levels, rendered as ASCII
//! cross-sections (the paper colours the smallest elements red, mid gray,
//! largest blue; here digits are the level, '.' is the coarsest).

use lts_bench::{build_mesh, Args};
use lts_mesh::{BenchmarkMesh, MeshKind};

fn slice_y(b: &BenchmarkMesh) -> String {
    // vertical (x–z) slice through the mesh centre: shows trench depth
    let j = b.mesh.ny / 2;
    let mut s = String::new();
    for k in (0..b.mesh.nz).rev() {
        for i in 0..b.mesh.nx.min(100) {
            let e = b.mesh.elem_id(i, j, k) as usize;
            let l = b.levels.elem_level[e];
            s.push(if l == 0 {
                '.'
            } else {
                char::from_digit(l as u32, 10).unwrap()
            });
        }
        s.push('\n');
    }
    s
}

fn slice_x(b: &BenchmarkMesh) -> String {
    // cross-section (y–z) at mid-x: shows the strip / block / sheet shape
    let i = b.mesh.nx / 2;
    let mut s = String::new();
    for k in (0..b.mesh.nz).rev() {
        for j in 0..b.mesh.ny.min(100) {
            let e = b.mesh.elem_id(i, j, k) as usize;
            let l = b.levels.elem_level[e];
            s.push(if l == 0 {
                '.'
            } else {
                char::from_digit(l as u32, 10).unwrap()
            });
        }
        s.push('\n');
    }
    s
}

fn main() {
    let args = Args::parse(&["elements"]);
    let elements: usize = args.get("elements", 30_000);
    for kind in [MeshKind::Trench, MeshKind::Embedding, MeshKind::Crust] {
        let b = build_mesh(kind, elements);
        println!(
            "\n=== {} === (digits = p-level, '.' = coarsest)",
            kind.name()
        );
        println!("cross-section (y–z) at mid-x:");
        print!("{}", slice_x(&b));
        if kind == MeshKind::Trench {
            println!("vertical slice (x–z) at mid-y (strip runs the full length):");
            print!("{}", slice_y(&b));
        }
        println!("level histogram: {:?}", b.levels.histogram());
        println!("model speed-up (Eq. 9): {:.2}x", b.speedup());
    }
}
