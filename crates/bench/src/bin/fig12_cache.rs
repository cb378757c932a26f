//! Fig. 12 — D1+D2 cache hits for the non-LTS and LTS versions on the
//! trench mesh, 16 → 128 nodes.
//!
//! The paper's craypat measurement shows hits *per node* growing as
//! partitions shrink (driving the super-linear CPU scaling) and the LTS
//! version utilising cache even better (fine levels revisited while
//! resident, DOFs grouped by p-level). Here the trace-driven cache
//! simulator replays rank 0's actual gather/scatter stream for one cycle of
//! each scheme.

use lts_bench::{build_mesh, Args, Table};
use lts_mesh::MeshKind;
use lts_partition::{partition_mesh, Strategy};
use lts_perfmodel::cache::{simulate_global_cycle, simulate_lts_cycle, TraceConfig};

fn main() {
    let args = Args::parse(&["elements", "seed", "nodes"]);
    let elements: usize = args.get("elements", 60_000);
    let seed: u64 = args.get("seed", 1);
    let nodes = args.get_list("nodes", &[16, 32, 64, 128]);
    let b = build_mesh(MeshKind::Trench, elements);
    let cfg = TraceConfig::default();

    let mut t = Table::new(&[
        "nodes",
        "elems/rank",
        "non-LTS hit-rate",
        "LTS hit-rate",
        "non-LTS hits/miss",
        "LTS hits/miss",
    ]);
    for &n in &nodes {
        let part = partition_mesh(&b.mesh, &b.levels, n, Strategy::ScotchP, seed);
        // rank 0's elements, in mesh order (the traversal order of the code)
        let mine: Vec<u32> = (0..b.mesh.n_elems() as u32)
            .filter(|&e| part[e as usize] == 0)
            .collect();
        let global = simulate_global_cycle(&b.mesh, &b.levels, &mine, &cfg);
        let lts = simulate_lts_cycle(&b.mesh, &b.levels, &mine, &cfg);
        let ratio = |r: f64| r / (1.0 - r).max(1e-9);
        t.row(vec![
            n.to_string(),
            mine.len().to_string(),
            format!("{:.3}", global.hit_rate()),
            format!("{:.3}", lts.hit_rate()),
            format!("{:.0}", ratio(global.hit_rate())),
            format!("{:.0}", ratio(lts.hit_rate())),
        ]);
    }
    println!("Fig. 12 — D1+D2 cache utilisation (trace-driven simulation, rank 0, one cycle)");
    t.print();
    println!("\npaper (craypat, hits metric): non-LTS grows 22→60 from 16→128 nodes; LTS higher still (→115)");
    println!(
        "shape to check: utilisation grows as partitions shrink; in the plotted 16–128-node range"
    );
    println!("LTS sits above non-LTS (the revisited fine levels stay resident). Far deeper in the");
    println!(
        "strong-scaling regime (≥ 256 nodes here) the non-LTS working set itself drops into D2"
    );
    println!("and its whole-sweep reuse overtakes — outside the paper's plotted range.");
}
