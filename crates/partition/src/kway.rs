//! Direct K-way refinement: greedy boundary moves after recursive bisection,
//! crossing bisection boundaries that RB alone can never fix.
//!
//! Both production libraries the paper compares do this (MeTiS's k-way
//! refinement, PaToH's boundary FM); here a greedy positive-gain pass with
//! per-constraint balance limits is run a few times to a fixed point.

use crate::graph::Graph;
use crate::hgraph::HGraph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-part per-constraint upper bounds `(1+ε)·W_c/K`.
fn limits(tot: &[u64], k: usize, eps: f64) -> Vec<u64> {
    tot.iter()
        .map(|&t| (((1.0 + eps) * t as f64 / k as f64).ceil() as u64).max(1))
        .collect()
}

/// Greedy K-way cut refinement on a graph partition (in place). Returns the
/// number of moves applied.
pub fn kway_refine_graph(
    g: &Graph,
    part: &mut [u32],
    k: usize,
    eps: f64,
    passes: usize,
    seed: u64,
) -> usize {
    let tot = g.total_weights();
    let lim = limits(&tot, k, eps);
    let mut pw = g.part_weights(part, k);
    let mut part_count = vec![0u64; k];
    for &p in part.iter() {
        part_count[p as usize] += 1;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut moves = 0usize;
    let mut order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    // connectivity to each neighbouring part, reused across vertices
    let mut w_to: Vec<(u32, i64)> = Vec::with_capacity(6);
    for _ in 0..passes {
        order.shuffle(&mut rng);
        let mut moved_this_pass = 0usize;
        for &v in &order {
            let vi = v as usize;
            let p = part[vi] as usize;
            if part_count[p] <= 1 {
                continue;
            }
            w_to.clear();
            let mut w_own = 0i64;
            for (idx, &u) in g.neighbors(v).iter().enumerate() {
                let q = part[u as usize];
                let w = g.edge_weights(v)[idx] as i64;
                if q as usize == p {
                    w_own += w;
                } else {
                    match w_to.iter_mut().find(|(qq, _)| *qq == q) {
                        Some((_, acc)) => *acc += w,
                        None => w_to.push((q, w)),
                    }
                }
            }
            let mut best: Option<(i64, u32)> = None;
            for &(q, wq) in &w_to {
                let gain = wq - w_own;
                if gain <= 0 {
                    continue;
                }
                let fits = (0..g.ncon).all(|c| {
                    let w = g.vwgt[vi * g.ncon + c] as u64;
                    w == 0 || pw[q as usize * g.ncon + c] + w <= lim[c]
                });
                if fits && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, q));
                }
            }
            if let Some((_, q)) = best {
                for c in 0..g.ncon {
                    let w = g.vwgt[vi * g.ncon + c] as u64;
                    pw[p * g.ncon + c] -= w;
                    pw[q as usize * g.ncon + c] += w;
                }
                part_count[p] -= 1;
                part_count[q as usize] += 1;
                part[vi] = q;
                moved_this_pass += 1;
            }
        }
        moves += moved_this_pass;
        if moved_this_pass == 0 {
            break;
        }
    }
    moves
}

/// Greedy K-way connectivity-1 refinement on a hypergraph partition
/// (in place). Returns the number of moves applied.
pub fn kway_refine_hgraph(
    h: &HGraph,
    part: &mut [u32],
    k: usize,
    eps: f64,
    passes: usize,
    seed: u64,
) -> usize {
    let tot = h.total_weights();
    let lim = limits(&tot, k, eps);
    let mut pw = h.part_weights(part, k);
    let mut part_count = vec![0u64; k];
    for &p in part.iter() {
        part_count[p as usize] += 1;
    }
    // per-net pin counts per part, stored sparsely: net → Vec<(part, count)>
    let mut net_parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h.n_nets()];
    for net in 0..h.n_nets() as u32 {
        for &pin in h.pins_of(net) {
            let p = part[pin as usize];
            let list = &mut net_parts[net as usize];
            match list.iter_mut().find(|(q, _)| *q == p) {
                Some((_, c)) => *c += 1,
                None => list.push((p, 1)),
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
    let mut order: Vec<u32> = (0..h.n_vertices() as u32).collect();
    let mut moves = 0usize;
    // candidate parts of one vertex, reused across vertices
    let mut cands: Vec<u32> = Vec::new();
    for _ in 0..passes {
        order.shuffle(&mut rng);
        let mut moved_this_pass = 0usize;
        for &v in &order {
            let vi = v as usize;
            let p = part[vi];
            if part_count[p as usize] <= 1 {
                continue;
            }
            // candidate parts: those sharing a net with v
            cands.clear();
            for &net in h.nets_of(v) {
                for &(q, _) in &net_parts[net as usize] {
                    if q != p && !cands.contains(&q) {
                        cands.push(q);
                    }
                }
            }
            let mut best: Option<(i64, u32)> = None;
            for &q in &cands {
                let mut gain = 0i64;
                for &net in h.nets_of(v) {
                    let list = &net_parts[net as usize];
                    let cp = list.iter().find(|(r, _)| *r == p).map_or(0, |(_, c)| *c);
                    let cq = list.iter().find(|(r, _)| *r == q).map_or(0, |(_, c)| *c);
                    let cost = h.netcost[net as usize] as i64;
                    if cp == 1 {
                        gain += cost; // net leaves part p entirely
                    }
                    if cq == 0 {
                        gain -= cost; // net newly spreads into q
                    }
                }
                if gain <= 0 {
                    continue;
                }
                let fits = (0..h.ncon).all(|c| {
                    let w = h.vwgt[vi * h.ncon + c] as u64;
                    w == 0 || pw[q as usize * h.ncon + c] + w <= lim[c]
                });
                if fits && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, q));
                }
            }
            if let Some((_, q)) = best {
                for c in 0..h.ncon {
                    let w = h.vwgt[vi * h.ncon + c] as u64;
                    pw[p as usize * h.ncon + c] -= w;
                    pw[q as usize * h.ncon + c] += w;
                }
                part_count[p as usize] -= 1;
                part_count[q as usize] += 1;
                for &net in h.nets_of(v) {
                    let list = &mut net_parts[net as usize];
                    if let Some(pos) = list.iter().position(|(r, _)| *r == p) {
                        list[pos].1 -= 1;
                        if list[pos].1 == 0 {
                            list.swap_remove(pos);
                        }
                    }
                    match list.iter_mut().find(|(r, _)| *r == q) {
                        Some((_, c)) => *c += 1,
                        None => list.push((q, 1)),
                    }
                }
                part[vi] = q;
                moved_this_pass += 1;
            }
        }
        moves += moved_this_pass;
        if moved_this_pass == 0 {
            break;
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_mesh::{HexMesh, Levels};

    fn grid_graph() -> Graph {
        let m = HexMesh::uniform(8, 8, 1, 1.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 2);
        Graph::scotch_baseline(&m, &lv)
    }

    #[test]
    fn graph_refinement_reduces_cut() {
        let g = grid_graph();
        // a deliberately bad partition: checkerboard-ish by vertex parity
        let mut part: Vec<u32> = (0..g.n_vertices() as u32).map(|v| v % 2).collect();
        let before = g.cut(&part);
        let moves = kway_refine_graph(&g, &mut part, 2, 0.10, 8, 1);
        let after = g.cut(&part);
        assert!(moves > 0);
        assert!(after < before, "cut {before} → {after}");
        // balance held
        let pw = g.part_weights(&part, 2);
        let tot = g.total_weights()[0] as f64;
        assert!(pw[0] as f64 <= 1.10 * tot / 2.0 + 1.0);
        assert!(pw[1] as f64 <= 1.10 * tot / 2.0 + 1.0);
    }

    #[test]
    fn graph_refinement_never_increases_cut() {
        let g = grid_graph();
        let mut part: Vec<u32> = (0..g.n_vertices() as u32)
            .map(|v| u32::from(v >= 32))
            .collect();
        let before = g.cut(&part);
        kway_refine_graph(&g, &mut part, 2, 0.05, 4, 7);
        assert!(g.cut(&part) <= before);
    }

    #[test]
    fn hgraph_refinement_fixes_stray_elements() {
        // left/right split with two stray elements deep inside the wrong
        // half: moving them back is a clear positive-gain move
        let m = HexMesh::uniform(6, 6, 1, 1.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 2);
        let h = HGraph::lts_model(&m, &lv);
        let mut part: Vec<u32> = (0..m.n_elems() as u32)
            .map(|e| u32::from(m.elem_ijk(e).0 >= 3))
            .collect();
        part[m.elem_id(1, 1, 0) as usize] = 1; // stray
        part[m.elem_id(4, 4, 0) as usize] = 0; // stray
        let before = h.cut(&part);
        let moves = kway_refine_hgraph(&h, &mut part, 2, 0.25, 8, 1);
        let after = h.cut(&part);
        assert!(moves >= 2, "strays not fixed ({moves} moves)");
        assert!(after < before, "cut {before} → {after}");
        assert_eq!(part[m.elem_id(1, 1, 0) as usize], 0);
        assert_eq!(part[m.elem_id(4, 4, 0) as usize], 1);
    }

    #[test]
    fn refinement_keeps_parts_nonempty() {
        let g = grid_graph();
        let mut part: Vec<u32> = vec![0; g.n_vertices()];
        part[0] = 1; // almost everything on part 0
        kway_refine_graph(&g, &mut part, 2, 0.05, 4, 3);
        assert!(part.contains(&1), "part 1 emptied");
    }

    #[test]
    fn hgraph_gain_bookkeeping_consistent() {
        // after refinement, rebuilding net_parts from scratch matches the
        // incremental state (indirectly: cut recomputed == claimed decrease)
        let m = HexMesh::uniform(5, 5, 2, 1.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 2);
        let h = HGraph::lts_model(&m, &lv);
        let mut part: Vec<u32> = (0..h.n_vertices() as u32).map(|v| (v * 7) % 4).collect();
        for _ in 0..3 {
            let before = h.cut(&part);
            kway_refine_hgraph(&h, &mut part, 4, 0.30, 1, 11);
            assert!(h.cut(&part) <= before);
        }
    }
}
