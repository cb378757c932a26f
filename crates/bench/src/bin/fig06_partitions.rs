//! Fig. 6 — all four partitioners on the trench mesh with 4 parts.
//!
//! The paper's point: SCOTCH (single-constraint) balances only the work per
//! LTS cycle, while SCOTCH-P / MeTiS / PaToH balance each level. The
//! per-part-per-level table and an ASCII surface view make the difference
//! visible.

use lts_bench::{build_mesh, Args, Table};
use lts_mesh::MeshKind;
use lts_partition::{load_imbalance, partition_mesh, Strategy};

/// Write a coloured PPM of the top-surface partition (the paper colours each
/// part; digits only go so far). Files land in `target/fig06/`.
fn write_partition_ppm(b: &lts_mesh::BenchmarkMesh, part: &[u32], name: &str) {
    use std::io::Write;
    let palette: [(u8, u8, u8); 8] = [
        (230, 80, 60),
        (70, 130, 200),
        (90, 180, 90),
        (240, 200, 60),
        (160, 90, 200),
        (80, 200, 200),
        (230, 140, 50),
        (140, 140, 140),
    ];
    let dir = std::path::Path::new("target/fig06");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let fname = dir.join(format!("{}.ppm", name.replace([' ', '.'], "_")));
    let Ok(mut f) = std::fs::File::create(&fname) else {
        return;
    };
    let (w, h) = (b.mesh.nx, b.mesh.ny);
    let kz = b.mesh.nz - 1;
    let _ = writeln!(f, "P6\n{w} {h}\n255");
    let mut buf = Vec::with_capacity(3 * w * h);
    for j in (0..h).rev() {
        for i in 0..w {
            let e = b.mesh.elem_id(i, j, kz) as usize;
            let (r, g, bl) = palette[(part[e] as usize) % palette.len()];
            // darken by level so the refinement strip shows through
            let lvl = b.levels.elem_level[e] as u16;
            let dim = |c: u8| ((c as u16 * (4 + 4u16.saturating_sub(lvl))) / 8) as u8;
            buf.extend_from_slice(&[dim(r), dim(g), dim(bl)]);
        }
    }
    let _ = f.write_all(&buf);
    println!("(wrote {})", fname.display());
}

fn main() {
    let args = Args::parse(&["elements", "parts", "seed"]);
    let elements: usize = args.get("elements", 20_000);
    let k: usize = args.get("parts", 4);
    let seed: u64 = args.get("seed", 1);
    let b = build_mesh(MeshKind::Trench, elements);

    let strategies = [
        Strategy::Patoh { final_imbal: 0.01 },
        Strategy::MetisMc,
        Strategy::ScotchBaseline,
        Strategy::ScotchP,
    ];
    for s in strategies {
        let part = partition_mesh(&b.mesh, &b.levels, k, s, seed);
        let rep = load_imbalance(&b.levels, &part, k);
        println!("\n=== {} ===", s.name());
        let mut t = Table::new(&["part", "total load", "lvl0", "lvl1", "lvl2", "lvl3"]);
        for p in 0..k {
            let mut row = vec![p.to_string(), rep.part_load[p].to_string()];
            for l in 0..4 {
                row.push(
                    rep.level_counts
                        .get(l)
                        .map(|lc| lc[p].to_string())
                        .unwrap_or_else(|| "-".into()),
                );
            }
            t.row(row);
        }
        t.print();
        println!(
            "total imbalance {:.0}%, per-level {:?}",
            rep.total_pct,
            rep.per_level_pct
                .iter()
                .map(|p| format!("{p:.0}%"))
                .collect::<Vec<_>>()
        );
        // surface view (top layer, part id per element)
        println!("surface view (top z-layer, one char per element = part id):");
        let kz = b.mesh.nz - 1;
        for j in (0..b.mesh.ny).rev() {
            let mut line = String::new();
            for i in 0..b.mesh.nx.min(100) {
                let e = b.mesh.elem_id(i, j, kz) as usize;
                line.push(char::from_digit(part[e] % 36, 36).unwrap());
            }
            println!("{line}");
        }
        write_partition_ppm(&b, &part, &s.name());
    }
    println!(
        "\npaper: SCOTCH (incorrectly) balances only the cycle total; the rest balance every level"
    );
}
