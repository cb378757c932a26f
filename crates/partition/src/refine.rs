//! Bisection machinery of the multilevel engine, generic over the
//! `CutModel`: balance bookkeeping (Eq. 19), greedy-growing initial
//! bisections, Fiduccia–Mattheyses boundary refinement with rollback, and an
//! explicit rebalancing pass.

use crate::multilevel::CutModel;
use lts_obs::MetricsRegistry;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;

/// Metric names recorded by the refinement machinery (level = V-cycle depth).
pub mod names {
    /// Counter: FM passes executed.
    pub(crate) const FM_PASSES: &str = "fm.passes";
    /// Counter: total cut improvement kept across FM passes.
    pub(crate) const FM_GAIN: &str = "fm.gain";
    /// Counter: vertex moves applied during FM passes (before rollback).
    pub(crate) const FM_MOVES: &str = "fm.moves";
    /// Counter: moves undone when rolling back to the best prefix.
    pub(crate) const FM_ROLLBACK: &str = "fm.rollback";
}

/// Target of one bisection step: side 0 should receive the fraction
/// `f_left` of every constraint, within relative tolerance `eps`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BisectTarget {
    pub(crate) f_left: f64,
    pub(crate) eps: f64,
}

impl BisectTarget {
    /// Per-side, per-constraint weight limits `(1+ε) f_side Σw`.
    pub(crate) fn limits(&self, tot: &[u64]) -> Vec<[u64; 2]> {
        tot.iter()
            .map(|&t| {
                let l = ((1.0 + self.eps) * self.f_left * t as f64).ceil() as u64;
                let r = ((1.0 + self.eps) * (1.0 - self.f_left) * t as f64).ceil() as u64;
                // always allow at least one unit of headroom so single-vertex
                // constraints are placeable
                [l.max(1), r.max(1)]
            })
            .collect()
    }
}

/// Side weights: `sw[c][side]`.
pub(crate) fn side_weights<M: CutModel>(m: &M, side: &[u8]) -> Vec<[u64; 2]> {
    let mut sw = vec![[0u64; 2]; m.ncon()];
    for (w, &s) in m.vwgt().chunks_exact(m.ncon()).zip(side) {
        for (c, &x) in w.iter().enumerate() {
            sw[c][s as usize] += x as u64;
        }
    }
    sw
}

/// Worst normalized overload of any (constraint, side) against `limits`,
/// as a ratio (0 = feasible).
pub(crate) fn violation(sw: &[[u64; 2]], limits: &[[u64; 2]]) -> f64 {
    worst_violation(sw, limits).map_or(0.0, |(over, _, _)| over)
}

/// The most overloaded (constraint, side) against `limits` with its
/// normalized overload, if any: the first strictly worst in (constraint,
/// side) order.
fn worst_violation(sw: &[[u64; 2]], limits: &[[u64; 2]]) -> Option<(f64, usize, usize)> {
    let mut worst: Option<(f64, usize, usize)> = None;
    for (c, s) in sw.iter().enumerate() {
        for side in 0..2 {
            if s[side] > limits[c][side] {
                let over = (s[side] - limits[c][side]) as f64 / limits[c][side].max(1) as f64;
                if worst.is_none_or(|(w, _, _)| over > w) {
                    worst = Some((over, c, side));
                }
            }
        }
    }
    worst
}

#[inline]
fn move_feasible<M: CutModel>(
    m: &M,
    v: usize,
    to: usize,
    sw: &[[u64; 2]],
    limits: &[[u64; 2]],
) -> bool {
    let ncon = m.ncon();
    let w = &m.vwgt()[v * ncon..][..ncon];
    (0..ncon).all(|c| w[c] == 0 || sw[c][to] + w[c] as u64 <= limits[c][to])
}

fn apply_move<M: CutModel>(
    m: &M,
    v: usize,
    side: &mut [u8],
    sw: &mut [[u64; 2]],
    sides: &mut M::Sides,
) {
    let from = side[v] as usize;
    let to = 1 - from;
    let ncon = m.ncon();
    for (c, &w) in m.vwgt()[v * ncon..][..ncon].iter().enumerate() {
        sw[c][from] -= w as u64;
        sw[c][to] += w as u64;
    }
    m.move_sides(v as u32, from, sides);
    side[v] = to as u8;
}

/// Greedy-growing initial bisection: BFS from a random seed fills side 0
/// until every constraint reaches its target, with adaptively loosened caps,
/// then a forced fill guarantees no constraint is left starved.
pub(crate) fn grow_initial<M: CutModel>(
    m: &M,
    target: &BisectTarget,
    rng: &mut ChaCha8Rng,
) -> Vec<u8> {
    let (n, ncon, vwgt) = (m.n_vertices(), m.ncon(), m.vwgt());
    let goals: Vec<u64> = m
        .total_weights()
        .iter()
        .map(|&t| (target.f_left * t as f64).round() as u64)
        .collect();
    let mut side = vec![1u8; n];
    let mut w0 = vec![0u64; ncon];

    // BFS order from a random seed (deterministic given the rng).
    let seed = rng.gen_range(0..n) as u32;
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(seed);
    seen[seed as usize] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        m.for_each_adjacent(v, |u| {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        });
    }
    // disconnected leftovers, in random order
    let mut rest: Vec<u32> = (0..n as u32).filter(|&v| !seen[v as usize]).collect();
    rest.shuffle(rng);
    order.extend(rest);

    // Pass 1..: add along BFS order while any constraint is under target and
    // the vertex does not overshoot a cap; loosen caps if stuck.
    let mut slack = 1.0 + target.eps;
    for _attempt in 0..4 {
        for &v in &order {
            if side[v as usize] == 0 {
                continue;
            }
            if (0..ncon).all(|c| w0[c] >= goals[c]) {
                break;
            }
            let vi = v as usize;
            let helps = (0..ncon).any(|c| vwgt[vi * ncon + c] > 0 && w0[c] < goals[c]);
            if !helps {
                continue;
            }
            let ok = (0..ncon).all(|c| {
                let w = vwgt[vi * ncon + c] as u64;
                w == 0 || w0[c] + w <= (slack * goals[c] as f64).ceil() as u64 + 1
            });
            if ok {
                side[vi] = 0;
                for c in 0..ncon {
                    w0[c] += vwgt[vi * ncon + c] as u64;
                }
            }
        }
        if (0..ncon).all(|c| w0[c] >= goals[c]) {
            break;
        }
        slack *= 1.5;
    }
    // Forced fill for any constraint still starved (overshoot permitted; the
    // rebalance/FM phases clean it up).
    for c in 0..ncon {
        if w0[c] >= goals[c] {
            continue;
        }
        for &v in &order {
            let vi = v as usize;
            if side[vi] == 1 && vwgt[vi * ncon + c] > 0 {
                side[vi] = 0;
                for cc in 0..ncon {
                    w0[cc] += vwgt[vi * ncon + cc] as u64;
                }
                if w0[c] >= goals[c] {
                    break;
                }
            }
        }
    }
    side
}

/// What one FM pass did: the kept cut improvement, the moves it tried, and
/// how many of those were rolled back past the best prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FmPassOutcome {
    pub(crate) gain: u64,
    pub(crate) moves: u64,
    pub(crate) rolled_back: u64,
}

/// One FM pass with rollback: vertices move at most once, the best prefix of
/// the move sequence is kept.
pub(crate) fn fm_pass<M: CutModel>(
    m: &M,
    side: &mut [u8],
    sw: &mut [[u64; 2]],
    limits: &[[u64; 2]],
) -> FmPassOutcome {
    let n = m.n_vertices();
    let mut sides = m.sides(side);
    let mut gain = vec![0i64; n];
    let mut heap: BinaryHeap<(i64, u32)> = BinaryHeap::new();
    // per vertex: MOVED once it moved, else the number of the last move
    // that refreshed its gain (0: none yet); a hypergraph pin is visited
    // once per net it shares with the moved vertex and refreshed once
    const MOVED: u32 = u32::MAX;
    let mut mark = vec![0u32; n];
    for v in 0..n as u32 {
        if m.is_boundary(v, side, &sides) {
            gain[v as usize] = m.gain(v, side, &sides);
            heap.push((gain[v as usize], v));
        }
    }
    let mut count = [0usize; 2];
    for &s in side.iter() {
        count[s as usize] += 1;
    }
    let mut seq: Vec<u32> = Vec::new();
    let mut delta = 0i64; // cumulative cut change (negative = better)
    let mut best_delta = 0i64;
    let mut best_len = 0usize;
    let negative_allowance = (n / 8).max(8);
    let mut since_best = 0usize;

    while let Some((gv, v)) = heap.pop() {
        let vi = v as usize;
        if mark[vi] == MOVED || gv != gain[vi] {
            continue; // stale entry
        }
        let from = side[vi] as usize;
        let to = 1 - from;
        // never empty a side
        if count[from] <= 1 || !move_feasible(m, vi, to, sw, limits) {
            continue;
        }
        apply_move(m, vi, side, sw, &mut sides);
        count[from] -= 1;
        count[to] += 1;
        mark[vi] = MOVED;
        seq.push(v);
        delta -= gv;
        if delta < best_delta {
            best_delta = delta;
            best_len = seq.len();
            since_best = 0;
        } else {
            since_best += 1;
            if since_best > negative_allowance {
                break;
            }
        }
        // refresh neighbour gains
        let mv = seq.len() as u32;
        m.for_each_adjacent(v, |u| {
            let ui = u as usize;
            if mark[ui] < mv {
                mark[ui] = mv;
                gain[ui] = m.gain(u, side, &sides);
                heap.push((gain[ui], u));
            }
        });
    }
    // roll back past the best prefix
    for &v in seq[best_len..].iter().rev() {
        apply_move(m, v as usize, side, sw, &mut sides);
    }
    FmPassOutcome {
        gain: (-best_delta) as u64,
        moves: seq.len() as u64,
        rolled_back: (seq.len() - best_len) as u64,
    }
}

/// Explicit rebalancing: while a (constraint, side) exceeds its limit, move
/// the overloaded-side vertex with the least cut damage that reduces the
/// violation (the PaToH-style `final_imbal` enforcement; it also makes
/// infeasible coarse solutions feasible).
pub(crate) fn rebalance<M: CutModel>(
    m: &M,
    side: &mut [u8],
    sw: &mut [[u64; 2]],
    limits: &[[u64; 2]],
) {
    let (n, ncon, vwgt) = (m.n_vertices(), m.ncon(), m.vwgt());
    let mut sides = m.sides(side);
    for _ in 0..4 * n {
        let Some((_, c, s)) = worst_violation(sw, limits) else {
            break;
        };
        // best vertex to evict: carries weight in c, on side s, max gain
        // (lowest id on ties)
        let mut best: Option<(i64, u32)> = None;
        for v in 0..n as u32 {
            let vi = v as usize;
            if side[vi] as usize != s || vwgt[vi * ncon + c] == 0 {
                continue;
            }
            let gv = m.gain(v, side, &sides);
            if best.is_none_or(|(bg, _)| gv > bg) {
                best = Some((gv, v));
            }
        }
        let Some((_, v)) = best else { break };
        apply_move(m, v as usize, side, sw, &mut sides);
    }
}

/// Bisection refinement: rebalance (if `active_rebalance`), FM passes to a
/// fixed point (≤ `max_passes`), rebalance again; pass/gain/move/rollback
/// counters go to `reg` under `vcycle_level`.
pub(crate) fn refine_bisection<M: CutModel>(
    m: &M,
    side: &mut [u8],
    target: &BisectTarget,
    max_passes: usize,
    active_rebalance: bool,
    vcycle_level: Option<u8>,
    reg: &mut MetricsRegistry,
) {
    let limits = target.limits(&m.total_weights());
    let mut sw = side_weights(m, side);
    if active_rebalance {
        rebalance(m, side, &mut sw, &limits);
    }
    let key = |name| lts_obs::Key {
        name,
        level: vcycle_level,
        label: None,
    };
    for _ in 0..max_passes {
        let out = fm_pass(m, side, &mut sw, &limits);
        reg.inc_key(key(names::FM_PASSES), 1);
        reg.inc_key(key(names::FM_GAIN), out.gain);
        reg.inc_key(key(names::FM_MOVES), out.moves);
        reg.inc_key(key(names::FM_ROLLBACK), out.rolled_back);
        if out.gain == 0 {
            break;
        }
    }
    if active_rebalance {
        rebalance(m, side, &mut sw, &limits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::SeedableRng;

    fn even(eps: f64) -> BisectTarget {
        BisectTarget { f_left: 0.5, eps }
    }

    fn refine(g: &Graph, side: &mut [u8], t: &BisectTarget) {
        refine_bisection(g, side, t, 10, true, None, &mut MetricsRegistry::new());
    }

    /// 2×n grid graph, unit weights.
    fn grid_graph(nx: usize, ny: usize) -> Graph {
        let id = |i: usize, j: usize| (i + nx * j) as u32;
        let n = nx * ny;
        let mut xadj = vec![0u32];
        let mut adj = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                if i > 0 {
                    adj.push(id(i - 1, j));
                }
                if i + 1 < nx {
                    adj.push(id(i + 1, j));
                }
                if j > 0 {
                    adj.push(id(i, j - 1));
                }
                if j + 1 < ny {
                    adj.push(id(i, j + 1));
                }
                xadj.push(adj.len() as u32);
            }
        }
        let ewgt = vec![1; adj.len()];
        Graph {
            xadj,
            adj,
            ewgt,
            ncon: 1,
            vwgt: vec![1; n],
        }
    }

    #[test]
    fn grow_initial_hits_target() {
        let g = grid_graph(8, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let t = even(0.05);
        let side = grow_initial(&g, &t, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((24..=40).contains(&w0), "side0 = {w0}");
    }

    #[test]
    fn fm_finds_straight_cut_on_grid() {
        // an 8×8 grid bisected optimally has cut 8
        let g = grid_graph(8, 8);
        let t = even(0.05);
        let mut best = u64::MAX;
        for seed in 0..5 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut side = grow_initial(&g, &t, &mut rng);
            refine(&g, &mut side, &t);
            let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
            best = best.min(g.cut(&part));
        }
        assert!(best <= 10, "grid cut {best} far from optimal 8");
    }

    #[test]
    fn refinement_never_breaks_balance() {
        let g = grid_graph(10, 6);
        let t = even(0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut side = grow_initial(&g, &t, &mut rng);
        refine(&g, &mut side, &t);
        let sw = side_weights(&g, &side);
        let limits = t.limits(&g.total_weights());
        assert_eq!(violation(&sw, &limits), 0.0, "sw {:?}", sw);
    }

    #[test]
    fn multiconstraint_bisection_balances_each_slot() {
        // 8×4 grid with two one-hot constraints: left half slot 0, right half slot 1
        let mut g = grid_graph(8, 4);
        g.ncon = 2;
        let mut vwgt = vec![0u32; g.n_vertices() * 2];
        for j in 0..4 {
            for i in 0..8 {
                let v = i + 8 * j;
                vwgt[v * 2 + usize::from(i >= 4)] = 1;
            }
        }
        g.vwgt = vwgt;
        let t = even(0.10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut side = grow_initial(&g, &t, &mut rng);
        refine(&g, &mut side, &t);
        let sw = side_weights(&g, &side);
        for c in 0..2 {
            assert!(
                (sw[c][0] as i64 - sw[c][1] as i64).abs() <= 2,
                "constraint {c} unbalanced: {:?}",
                sw
            );
        }
    }

    #[test]
    fn rebalance_fixes_overload() {
        let g = grid_graph(6, 6);
        let mut side = vec![0u8; 36];
        side[35] = 1; // everything on side 0
        let t = even(0.05);
        let limits = t.limits(&g.total_weights());
        let mut sw = side_weights(&g, &side);
        rebalance(&g, &mut side, &mut sw, &limits);
        assert_eq!(violation(&sw, &limits), 0.0);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((12..=24).contains(&w0));
    }
}
