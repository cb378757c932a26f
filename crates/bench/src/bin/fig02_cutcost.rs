//! Figs. 2 and 3 — the didactic communication-cost examples.
//!
//! Fig. 2: a 2-D higher-order mesh with a p = 2 column; a cut across black
//! (p = 2) or gray (halo) nodes costs 2 synchronizations per ∆t on every
//! shared node, a cut in the p = 1 region costs 1.
//!
//! Fig. 3: the 2×2 quad mesh whose dual graph under-counts the 4-way corner
//! split while the nodal hypergraph charges it exactly.

use lts_mesh::hypergraph::NodalHypergraph;
use lts_mesh::quad::QuadMesh;

fn main() {
    lts_bench::Args::parse(&[]);
    // ---- Fig. 2: 4 columns × 1 row, order-2 (9-node) elements; the right
    // two columns are p = 2.
    let m = QuadMesh::new(4, 1);
    let mut p = vec![1u64; m.n_elems()];
    p[2] = 2;
    p[3] = 2;
    let order = 2;
    println!("Fig. 2 — per-cut communication cost (order-2 elements, right half p = 2):");
    for col in 1..4 {
        let cost = m.vertical_cut_cost(col, order, &p);
        let side = if col <= 1 {
            "p=1 region"
        } else if col == 2 {
            "p=1 | p=2 interface (gray halo)"
        } else {
            "p=2 region"
        };
        println!(
            "  cut between columns {} and {}: cost = {}  ({} shared nodes × {} steps/∆t)  [{}]",
            col - 1,
            col,
            cost,
            order * m.ny + 1,
            cost / (order as u64 * m.ny as u64 + 1),
            side
        );
    }
    println!("  paper: cost 6 / 6 / 3 — cuts touching p=2 or halo nodes pay double\n");

    // ---- Fig. 3: 2×2 mesh, dual graph vs hypergraph
    let q = QuadMesh::new(2, 2);
    let mut dual_edges = 0;
    for e in 0..q.n_elems() as u32 {
        dual_edges += q.edge_neighbors(e).len();
    }
    dual_edges /= 2;
    let h = NodalHypergraph::build_quad(&q, None);
    let four_way = vec![0u32, 1, 2, 3];
    println!("Fig. 3 — dual graph vs hypergraph on the 2×2 quad mesh:");
    println!(
        "  dual graph: {} vertices, {} edges (the 4-cycle)",
        q.n_elems(),
        dual_edges
    );
    println!(
        "  hypergraph: {} vertices, {} nets (one per mesh node)",
        q.n_elems(),
        h.n_nets()
    );
    let center = q.node_id(1, 1);
    println!(
        "  central node's net connects {} elements; all-4-way split: dual counts {} cut edges, hypergraph cut = {} (λ−1 on every net)",
        h.pins_of(center).len(),
        dual_edges,
        h.cut_size(&four_way)
    );
    println!("  → the hypergraph charges the 4-way corner exchange the dual graph misses");
}
