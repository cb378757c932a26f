//! Bisection machinery shared by the multilevel graph partitioner:
//! balance bookkeeping (Eq. 19), greedy-growing initial bisections,
//! Fiduccia–Mattheyses boundary refinement with rollback, and an explicit
//! rebalancing pass.

use crate::graph::Graph;
use lts_obs::MetricsRegistry;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;

/// Metric names recorded by the refinement machinery (level = V-cycle depth).
pub mod names {
    /// Counter: FM passes executed.
    pub const FM_PASSES: &str = "fm.passes";
    /// Counter: total cut improvement kept across FM passes.
    pub const FM_GAIN: &str = "fm.gain";
    /// Counter: vertex moves applied during FM passes (before rollback).
    pub const FM_MOVES: &str = "fm.moves";
    /// Counter: moves undone when rolling back to the best prefix.
    pub const FM_ROLLBACK: &str = "fm.rollback";
}

/// Target of one bisection step: side 0 should receive the fraction
/// `f_left` of every constraint, within relative tolerance `eps`.
#[derive(Debug, Clone, Copy)]
pub struct BisectTarget {
    pub f_left: f64,
    pub eps: f64,
}

impl BisectTarget {
    pub fn even(eps: f64) -> Self {
        BisectTarget { f_left: 0.5, eps }
    }

    /// Per-side, per-constraint weight limits `(1+ε) f_side Σw`.
    pub fn limits(&self, tot: &[u64]) -> Vec<[u64; 2]> {
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
pub fn side_weights(g: &Graph, side: &[u8]) -> Vec<[u64; 2]> {
    let mut sw = vec![[0u64; 2]; g.ncon];
    for v in 0..g.n_vertices() {
        let s = side[v] as usize;
        for c in 0..g.ncon {
            sw[c][s] += g.vwgt[v * g.ncon + c] as u64;
        }
    }
    sw
}

/// Worst normalized overload of any (constraint, side) against `limits`,
/// as a ratio (0 = feasible).
pub fn violation(sw: &[[u64; 2]], limits: &[[u64; 2]]) -> f64 {
    let mut worst = 0.0f64;
    for (c, s) in sw.iter().enumerate() {
        for side in 0..2 {
            if s[side] > limits[c][side] {
                let over = (s[side] - limits[c][side]) as f64 / limits[c][side].max(1) as f64;
                worst = worst.max(over);
            }
        }
    }
    worst
}

/// The most overloaded (constraint, side) against `limits`, if any: the
/// first strictly worst in (constraint, side) order.
pub(crate) fn worst_violation(sw: &[[u64; 2]], limits: &[[u64; 2]]) -> Option<(usize, usize)> {
    let mut worst = None;
    let mut worst_over = 0.0f64;
    for (c, s) in sw.iter().enumerate() {
        for side in 0..2 {
            if s[side] > limits[c][side] {
                let over = (s[side] - limits[c][side]) as f64 / limits[c][side].max(1) as f64;
                if over > worst_over {
                    worst_over = over;
                    worst = Some((c, side));
                }
            }
        }
    }
    worst
}

#[inline]
fn move_feasible(g: &Graph, v: usize, to: usize, sw: &[[u64; 2]], limits: &[[u64; 2]]) -> bool {
    for c in 0..g.ncon {
        let w = g.vwgt[v * g.ncon + c] as u64;
        if w > 0 && sw[c][to] + w > limits[c][to] {
            return false;
        }
    }
    true
}

fn apply_move(g: &Graph, v: usize, side: &mut [u8], sw: &mut [[u64; 2]]) {
    let from = side[v] as usize;
    let to = 1 - from;
    for c in 0..g.ncon {
        let w = g.vwgt[v * g.ncon + c] as u64;
        sw[c][from] -= w;
        sw[c][to] += w;
    }
    side[v] = to as u8;
}

/// FM gain of moving `v` to the other side: (external − internal) edge weight.
fn gain_of(g: &Graph, v: u32, side: &[u8]) -> i64 {
    let mut gain = 0i64;
    let s = side[v as usize];
    for (idx, &u) in g.neighbors(v).iter().enumerate() {
        let w = g.edge_weights(v)[idx] as i64;
        if side[u as usize] == s {
            gain -= w;
        } else {
            gain += w;
        }
    }
    gain
}

/// Greedy-growing initial bisection: BFS from a random seed fills side 0
/// until every constraint reaches its target, with adaptively loosened caps,
/// then a forced fill guarantees no constraint is left starved.
pub fn grow_initial(g: &Graph, target: &BisectTarget, rng: &mut ChaCha8Rng) -> Vec<u8> {
    let n = g.n_vertices();
    let tot = g.total_weights();
    let goals: Vec<u64> = tot
        .iter()
        .map(|&t| (target.f_left * t as f64).round() as u64)
        .collect();
    let mut side = vec![1u8; n];
    let mut w0 = vec![0u64; g.ncon];

    // BFS order from a random seed (deterministic given the rng).
    let seed = rng.gen_range(0..n) as u32;
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(seed);
    seen[seed as usize] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &u in g.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
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
            if (0..g.ncon).all(|c| w0[c] >= goals[c]) {
                break;
            }
            let vi = v as usize;
            let helps = (0..g.ncon).any(|c| g.vwgt[vi * g.ncon + c] > 0 && w0[c] < goals[c]);
            if !helps {
                continue;
            }
            let ok = (0..g.ncon).all(|c| {
                let w = g.vwgt[vi * g.ncon + c] as u64;
                w == 0 || w0[c] + w <= (slack * goals[c] as f64).ceil() as u64 + 1
            });
            if ok {
                side[vi] = 0;
                for c in 0..g.ncon {
                    w0[c] += g.vwgt[vi * g.ncon + c] as u64;
                }
            }
        }
        if (0..g.ncon).all(|c| w0[c] >= goals[c]) {
            break;
        }
        slack *= 1.5;
    }
    // Forced fill for any constraint still starved (overshoot permitted; the
    // rebalance/FM phases clean it up).
    for c in 0..g.ncon {
        if w0[c] >= goals[c] {
            continue;
        }
        for &v in &order {
            let vi = v as usize;
            if side[vi] == 1 && g.vwgt[vi * g.ncon + c] > 0 {
                side[vi] = 0;
                for cc in 0..g.ncon {
                    w0[cc] += g.vwgt[vi * g.ncon + cc] as u64;
                }
                if w0[c] >= goals[c] {
                    break;
                }
            }
        }
    }
    side
}

/// Record one FM pass outcome under `vcycle_level` (shared by the graph and
/// hypergraph engines).
pub fn record_fm_pass(reg: &mut MetricsRegistry, vcycle_level: Option<u8>, out: FmPassOutcome) {
    let key = |name| lts_obs::Key {
        name,
        level: vcycle_level,
        label: None,
    };
    reg.inc_key(key(names::FM_PASSES), 1);
    reg.inc_key(key(names::FM_GAIN), out.gain);
    reg.inc_key(key(names::FM_MOVES), out.moves);
    reg.inc_key(key(names::FM_ROLLBACK), out.rolled_back);
}

/// What one FM pass did: the kept cut improvement, the moves it tried, and
/// how many of those were rolled back past the best prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmPassOutcome {
    pub gain: u64,
    pub moves: u64,
    pub rolled_back: u64,
}

/// One FM pass with rollback: vertices move at most once, the best prefix of
/// the move sequence is kept. Returns the cut improvement (≥ 0).
pub fn fm_pass(g: &Graph, side: &mut [u8], sw: &mut [[u64; 2]], limits: &[[u64; 2]]) -> u64 {
    fm_pass_observed(g, side, sw, limits).gain
}

/// [`fm_pass`], reporting its move accounting for the observability layer.
pub fn fm_pass_observed(
    g: &Graph,
    side: &mut [u8],
    sw: &mut [[u64; 2]],
    limits: &[[u64; 2]],
) -> FmPassOutcome {
    let n = g.n_vertices();
    let mut gain = vec![0i64; n];
    let mut heap: BinaryHeap<(i64, u32)> = BinaryHeap::new();
    let mut moved = vec![false; n];
    for v in 0..n as u32 {
        let is_boundary = g
            .neighbors(v)
            .iter()
            .any(|&u| side[u as usize] != side[v as usize]);
        if is_boundary {
            gain[v as usize] = gain_of(g, v, side);
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
        if moved[vi] || gv != gain[vi] {
            continue; // stale entry
        }
        let from = side[vi] as usize;
        let to = 1 - from;
        // never empty a side
        if count[from] <= 1 {
            continue;
        }
        if !move_feasible(g, vi, to, sw, limits) {
            continue;
        }
        apply_move(g, vi, side, sw);
        count[from] -= 1;
        count[to] += 1;
        moved[vi] = true;
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
        for &u in g.neighbors(v) {
            let ui = u as usize;
            if !moved[ui] {
                gain[ui] = gain_of(g, u, side);
                heap.push((gain[ui], u));
            }
        }
    }
    // roll back past the best prefix
    for &v in seq[best_len..].iter().rev() {
        apply_move(g, v as usize, side, sw);
    }
    FmPassOutcome {
        gain: (-best_delta) as u64,
        moves: seq.len() as u64,
        rolled_back: (seq.len() - best_len) as u64,
    }
}

/// Explicit rebalancing: while a (constraint, side) exceeds its limit, move
/// the overloaded-side vertex with the least cut damage that reduces the
/// violation. Used by the hypergraph-style engines and to make infeasible
/// coarse solutions feasible.
pub fn rebalance(g: &Graph, side: &mut [u8], sw: &mut [[u64; 2]], limits: &[[u64; 2]]) {
    for _ in 0..4 * g.n_vertices() {
        let Some((c, s)) = worst_violation(sw, limits) else {
            break;
        };
        // best vertex to evict: carries weight in c, on side s, max gain
        // (lowest id on ties)
        let mut best: Option<(i64, u32)> = None;
        for v in 0..g.n_vertices() as u32 {
            let vi = v as usize;
            if side[vi] as usize != s || g.vwgt[vi * g.ncon + c] == 0 {
                continue;
            }
            let gv = gain_of(g, v, side);
            if best.is_none_or(|(bg, _)| gv > bg) {
                best = Some((gv, v));
            }
        }
        let Some((_, v)) = best else { break };
        apply_move(g, v as usize, side, sw);
    }
}

/// Full bisection refinement: FM passes to a fixed point (≤ `max_passes`).
pub fn refine_bisection(
    g: &Graph,
    side: &mut [u8],
    target: &BisectTarget,
    max_passes: usize,
    active_rebalance: bool,
) {
    refine_bisection_observed(
        g,
        side,
        target,
        max_passes,
        active_rebalance,
        None,
        &mut MetricsRegistry::new(),
    );
}

/// [`refine_bisection`], recording pass/gain/move/rollback counters under
/// `vcycle_level` into `reg`.
pub fn refine_bisection_observed(
    g: &Graph,
    side: &mut [u8],
    target: &BisectTarget,
    max_passes: usize,
    active_rebalance: bool,
    vcycle_level: Option<u8>,
    reg: &mut MetricsRegistry,
) {
    let tot = g.total_weights();
    let limits = target.limits(&tot);
    let mut sw = side_weights(g, side);
    if active_rebalance {
        rebalance(g, side, &mut sw, &limits);
    }
    for _ in 0..max_passes {
        let out = fm_pass_observed(g, side, &mut sw, &limits);
        record_fm_pass(reg, vcycle_level, out);
        if out.gain == 0 {
            break;
        }
    }
    if active_rebalance {
        rebalance(g, side, &mut sw, &limits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
        let t = BisectTarget::even(0.05);
        let side = grow_initial(&g, &t, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((24..=40).contains(&w0), "side0 = {w0}");
    }

    #[test]
    fn fm_finds_straight_cut_on_grid() {
        // an 8×8 grid bisected optimally has cut 8
        let g = grid_graph(8, 8);
        let t = BisectTarget::even(0.05);
        let mut best = u64::MAX;
        for seed in 0..5 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut side = grow_initial(&g, &t, &mut rng);
            refine_bisection(&g, &mut side, &t, 10, true);
            let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
            best = best.min(g.cut(&part));
        }
        assert!(best <= 10, "grid cut {best} far from optimal 8");
    }

    #[test]
    fn refinement_never_breaks_balance() {
        let g = grid_graph(10, 6);
        let t = BisectTarget::even(0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut side = grow_initial(&g, &t, &mut rng);
        refine_bisection(&g, &mut side, &t, 10, true);
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
        let t = BisectTarget::even(0.10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut side = grow_initial(&g, &t, &mut rng);
        refine_bisection(&g, &mut side, &t, 10, true);
        let sw = side_weights(&g, &side);
        for c in 0..2 {
            assert!(
                (sw[c][0] as i64 - sw[c][1] as i64).abs() <= 2,
                "constraint {c} unbalanced: {:?}",
                sw
            );
        }
    }

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut nbrs = vec![Vec::new(); n];
        for &(a, b) in edges {
            nbrs[a as usize].push(b);
            nbrs[b as usize].push(a);
        }
        let mut xadj = vec![0u32];
        let mut adj = Vec::new();
        for l in nbrs {
            adj.extend(l);
            xadj.push(adj.len() as u32);
        }
        Graph {
            ewgt: vec![1; adj.len()],
            xadj,
            adj,
            ncon: 1,
            vwgt: vec![1; n],
        }
    }

    #[test]
    fn fm_refuses_the_only_gain_that_empties_a_side() {
        // vertex 3 is alone on side 1 and adjacent to everything (gain +3);
        // side 1 is full, so no other move is feasible
        let g = graph_from_edges(4, &[(0, 3), (1, 3), (2, 3), (0, 1), (1, 2)]);
        let mut side = vec![0, 0, 0, 1];
        assert_eq!(gain_of(&g, 3, &side), 3);
        let limits = vec![[4, 1]];
        let mut sw = side_weights(&g, &side);
        let out = fm_pass_observed(&g, &mut side, &mut sw, &limits);
        assert_eq!((out.gain, out.moves), (0, 0));
        assert_eq!(side, vec![0, 0, 0, 1], "side 1 emptied");
    }

    #[test]
    fn fm_side_count_follows_the_moves() {
        // side 1 = {3, 4}, both with positive gain (3 and 2). Moving 3
        // leaves 4 alone, so 4 must then be refused
        let g = graph_from_edges(5, &[(0, 3), (1, 3), (2, 3), (0, 4), (1, 4)]);
        let mut side = vec![0, 0, 0, 1, 1];
        assert_eq!((gain_of(&g, 3, &side), gain_of(&g, 4, &side)), (3, 2));
        let limits = vec![[5, 2]];
        let mut sw = side_weights(&g, &side);
        let out = fm_pass_observed(&g, &mut side, &mut sw, &limits);
        assert_eq!((out.gain, out.moves - out.rolled_back), (3, 1));
        assert_eq!(side, vec![0, 0, 0, 0, 1], "side 1 emptied");
        assert_eq!(sw, side_weights(&g, &side));
    }

    #[test]
    fn rebalance_breaks_gain_ties_by_lowest_vertex() {
        // 6×6 grid, all but vertex 35 on side 0: vertices 29 and 34 tie on
        // the best gain (−1); the lower id, 29, must be the one evicted
        let g = grid_graph(6, 6);
        let mut side = vec![0u8; 36];
        side[35] = 1;
        assert_eq!(gain_of(&g, 29, &side), -1);
        assert_eq!(gain_of(&g, 34, &side), -1);
        // a limit one unit under side 0's weight forces exactly one eviction
        let limits = vec![[34, 36]];
        let mut sw = side_weights(&g, &side);
        rebalance(&g, &mut side, &mut sw, &limits);
        let moved: Vec<usize> = (0..35).filter(|&v| side[v] == 1).collect();
        assert_eq!(moved, vec![29]);
    }

    #[test]
    fn rebalance_fixes_overload() {
        let g = grid_graph(6, 6);
        let mut side = vec![0u8; 36];
        side[35] = 1; // everything on side 0
        let t = BisectTarget::even(0.05);
        let limits = t.limits(&g.total_weights());
        let mut sw = side_weights(&g, &side);
        rebalance(&g, &mut side, &mut sw, &limits);
        assert_eq!(violation(&sw, &limits), 0.0);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((12..=24).contains(&w0));
    }
}
