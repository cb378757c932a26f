//! Direct K-way refinement: greedy boundary moves after recursive bisection,
//! crossing bisection boundaries that RB alone can never fix.
//!
//! Both production libraries the paper compares do this (MeTiS's k-way
//! refinement, PaToH's boundary FM); here a greedy positive-gain pass with
//! per-constraint balance limits is run a few times to a fixed point, over
//! either `CutModel`.

use crate::multilevel::CutModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Greedy K-way cut refinement of `part` (in place): in shuffled vertex
/// order, move each vertex to the candidate part with the first highest
/// positive gain that keeps every constraint within `(1+ε)·W_c/K` and its
/// own part non-empty. Returns the number of moves applied.
pub(crate) fn kway_refine<M: CutModel>(
    m: &M,
    part: &mut [u32],
    k: usize,
    eps: f64,
    passes: usize,
    seed: u64,
) -> usize {
    let (ncon, vwgt) = (m.ncon(), m.vwgt());
    let lim: Vec<u64> = m
        .total_weights()
        .iter()
        .map(|&t| (((1.0 + eps) * t as f64 / k as f64).ceil() as u64).max(1))
        .collect();
    let mut pw = m.part_weights(part, k);
    let mut part_count = vec![0u64; k];
    for &p in part.iter() {
        part_count[p as usize] += 1;
    }
    let mut parts = m.parts(part);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ M::KWAY_SEED);
    let mut order: Vec<u32> = (0..m.n_vertices() as u32).collect();
    let mut moves = 0usize;
    // candidate parts of one vertex with their gains, reused across vertices
    let mut cands: Vec<(u32, i64)> = Vec::new();
    for _ in 0..passes {
        order.shuffle(&mut rng);
        let mut moved_this_pass = 0usize;
        for &v in &order {
            let vi = v as usize;
            let p = part[vi] as usize;
            if part_count[p] <= 1 {
                continue;
            }
            cands.clear();
            m.kway_gains(v, part, &parts, &mut cands);
            let mut best: Option<(i64, u32)> = None;
            for &(q, gain) in &cands {
                if gain <= 0 {
                    continue;
                }
                let fits = (0..ncon).all(|c| {
                    let w = vwgt[vi * ncon + c] as u64;
                    w == 0 || pw[q as usize * ncon + c] + w <= lim[c]
                });
                if fits && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, q));
                }
            }
            if let Some((_, q)) = best {
                for c in 0..ncon {
                    let w = vwgt[vi * ncon + c] as u64;
                    pw[p * ncon + c] -= w;
                    pw[q as usize * ncon + c] += w;
                }
                part_count[p] -= 1;
                part_count[q as usize] += 1;
                m.move_parts(v, p as u32, q, &mut parts);
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
    use crate::graph::Graph;
    use crate::hgraph::HGraph;
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
        let moves = kway_refine(&g, &mut part, 2, 0.10, 8, 1);
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
        kway_refine(&g, &mut part, 2, 0.05, 4, 7);
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
        let moves = kway_refine(&h, &mut part, 2, 0.25, 8, 1);
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
        kway_refine(&g, &mut part, 2, 0.05, 4, 3);
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
            kway_refine(&h, &mut part, 4, 0.30, 1, 11);
            assert!(h.cut(&part) <= before);
        }
    }
}
