//! The multilevel K-way graph partitioner: heavy-edge matching coarsening,
//! greedy initial bisections at the coarsest level, FM refinement during
//! uncoarsening, and recursive bisection for K parts.
//!
//! With `ncon = 1` and `p_e` vertex weights this reproduces the paper's
//! SCOTCH baseline; with one constraint per p-level it reproduces the MeTiS
//! multi-constraint strategy.

use crate::graph::Graph;
use crate::refine::{
    grow_initial, refine_bisection_observed, side_weights, violation, BisectTarget,
};
use lts_obs::MetricsRegistry;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Metric names of the multilevel V-cycle (level = coarsening depth).
pub mod names {
    /// Histogram: time coarsening one V-cycle level (matching + contraction).
    pub const VCYCLE_COARSEN: &str = "vcycle.coarsen";
    /// Histogram: time solving the coarsest-level initial bisection.
    pub const VCYCLE_INITIAL: &str = "vcycle.initial";
    /// Histogram: time refining after projection back to one V-cycle level.
    pub const VCYCLE_REFINE: &str = "vcycle.refine";
    /// Counter: bisections performed (one per recursive split).
    pub const BISECTIONS: &str = "vcycle.bisections";
    /// Counter: coarsening attempts abandoned for shrinking too slowly.
    pub const COARSEN_STALLS: &str = "vcycle.coarsen_stalls";
}

/// Tuning knobs of the multilevel engine.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Allowed relative imbalance ε of Eq. 19 (per bisection).
    pub eps: f64,
    /// RNG seed; identical seeds give identical partitions.
    pub seed: u64,
    /// Run the explicit rebalancing pass around FM (the PaToH-style
    /// "final_imbal enforcement"); `false` mimics MeTiS, which only
    /// *constrains* balance during refinement.
    pub active_rebalance: bool,
    /// Initial bisections tried at the coarsest level.
    pub n_inits: usize,
    /// Split `eps` across the ~log2(K) nested bisections so the compounded
    /// K-way imbalance stays within `eps`. Modern practice; 2015-era MeTiS
    /// multi-constraint effectively compounded the tolerance instead, which
    /// is the behaviour the paper's Fig. 7 exposes — set `false` to mimic it.
    pub adjust_eps: bool,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            eps: 0.05,
            seed: 1,
            active_rebalance: true,
            n_inits: 4,
            adjust_eps: true,
        }
    }
}

const COARSEST_N: usize = 240;
const MIN_SHRINK: f64 = 0.92;

/// Partition `g` into `k` parts. Returns `part[v] ∈ 0..k`.
pub fn partition_kway(g: &Graph, k: usize, cfg: &PartitionConfig) -> Vec<u32> {
    partition_kway_observed(g, k, cfg, &mut MetricsRegistry::new())
}

/// [`partition_kway`], recording V-cycle phase timers and FM counters into
/// `reg` (metric level = V-cycle coarsening depth).
pub fn partition_kway_observed(
    g: &Graph,
    k: usize,
    cfg: &PartitionConfig,
    reg: &mut MetricsRegistry,
) -> Vec<u32> {
    assert!(k >= 1);
    assert!(
        k <= g.n_vertices(),
        "cannot split {} vertices into {k} parts",
        g.n_vertices()
    );
    let mut part = vec![0u32; g.n_vertices()];
    let ids: Vec<u32> = (0..g.n_vertices() as u32).collect();
    // split the K-way tolerance across the ~log2(k) nested bisections so the
    // compounded imbalance stays within cfg.eps
    let depth_levels = (k as f64).log2().ceil().max(1.0);
    let eps_b = if cfg.adjust_eps {
        (1.0 + cfg.eps).powf(1.0 / depth_levels) - 1.0
    } else {
        cfg.eps
    };
    let cfg_b = PartitionConfig { eps: eps_b, ..*cfg };
    recurse(g, &ids, k, 0, &cfg_b, 0, &mut part, reg);
    part
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    g: &Graph,
    global_ids: &[u32],
    k: usize,
    first_part: u32,
    cfg: &PartitionConfig,
    depth: u64,
    out: &mut [u32],
    reg: &mut MetricsRegistry,
) {
    if k == 1 {
        for &v in global_ids {
            out[v as usize] = first_part;
        }
        return;
    }
    let k_left = k / 2;
    let target = BisectTarget {
        f_left: k_left as f64 / k as f64,
        eps: cfg.eps,
    };
    reg.inc(names::BISECTIONS, 1);
    let side = bisect_inner(g, &target, cfg, depth, 0, reg);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (v, &s) in side.iter().enumerate() {
        if s == 0 {
            left.push(v as u32);
        } else {
            right.push(v as u32);
        }
    }
    // guard against degenerate sides (can only happen on pathological graphs)
    if left.is_empty() || right.is_empty() {
        let all: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let (l, r) = all.split_at(k_left.max(1).min(all.len() - 1));
        left = l.to_vec();
        right = r.to_vec();
    }
    let (g_left, map_left) = g.induced_subgraph(&left);
    let (g_right, map_right) = g.induced_subgraph(&right);
    let gl_ids: Vec<u32> = map_left.iter().map(|&l| global_ids[l as usize]).collect();
    let gr_ids: Vec<u32> = map_right.iter().map(|&l| global_ids[l as usize]).collect();
    recurse(
        &g_left,
        &gl_ids,
        k_left,
        first_part,
        cfg,
        2 * depth + 1,
        out,
        reg,
    );
    recurse(
        &g_right,
        &gr_ids,
        k - k_left,
        first_part + k_left as u32,
        cfg,
        2 * depth + 2,
        out,
        reg,
    );
}

/// Multilevel bisection of `g`.
pub fn bisect_multilevel(
    g: &Graph,
    target: &BisectTarget,
    cfg: &PartitionConfig,
    depth: u64,
) -> Vec<u8> {
    bisect_inner(g, target, cfg, depth, 0, &mut MetricsRegistry::new())
}

fn bisect_inner(
    g: &Graph,
    target: &BisectTarget,
    cfg: &PartitionConfig,
    depth: u64,
    vdepth: u8,
    reg: &mut MetricsRegistry,
) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_mul(0x9E3779B97F4A7C15) ^ depth);
    if g.n_vertices() <= COARSEST_N {
        let mut span = reg.start_span(names::VCYCLE_INITIAL, Some(vdepth));
        return initial_bisection(g, target, cfg, &mut rng, span.registry());
    }
    let coarsen = reg.start_span(names::VCYCLE_COARSEN, Some(vdepth));
    let (matched, n_coarse) = heavy_edge_matching(g, &mut rng);
    if n_coarse as f64 > MIN_SHRINK * g.n_vertices() as f64 {
        // coarsening stalled — solve directly
        coarsen.cancel();
        reg.inc(names::COARSEN_STALLS, 1);
        let mut span = reg.start_span(names::VCYCLE_INITIAL, Some(vdepth));
        return initial_bisection(g, target, cfg, &mut rng, span.registry());
    }
    let (coarse, cmap) = contract(g, &matched, n_coarse);
    drop(coarsen);
    let coarse_side = bisect_inner(
        &coarse,
        target,
        cfg,
        depth.wrapping_add(0x5bd1e995),
        vdepth.saturating_add(1),
        reg,
    );
    // project and refine
    let mut side = vec![0u8; g.n_vertices()];
    for v in 0..g.n_vertices() {
        side[v] = coarse_side[cmap[v] as usize];
    }
    let mut refine = reg.start_span(names::VCYCLE_REFINE, Some(vdepth));
    refine_bisection_observed(
        g,
        &mut side,
        target,
        4,
        cfg.active_rebalance,
        Some(vdepth),
        refine.registry(),
    );
    side
}

fn initial_bisection(
    g: &Graph,
    target: &BisectTarget,
    cfg: &PartitionConfig,
    rng: &mut ChaCha8Rng,
    reg: &mut MetricsRegistry,
) -> Vec<u8> {
    let tot = g.total_weights();
    let limits = target.limits(&tot);
    let mut best: Option<(f64, u64, Vec<u8>)> = None;
    for _ in 0..cfg.n_inits.max(1) {
        let mut side = grow_initial(g, target, rng);
        refine_bisection_observed(g, &mut side, target, 8, true, None, reg);
        let sw = side_weights(g, &side);
        let viol = violation(&sw, &limits);
        let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        let cut = g.cut(&part);
        let better = match &best {
            None => true,
            Some((bv, bc, _)) => (viol, cut) < (*bv, *bc),
        };
        if better {
            best = Some((viol, cut, side));
        }
    }
    best.unwrap().2
}

/// Heavy-edge matching. Returns `match_of[v]` (partner or self) and the
/// number of coarse vertices.
fn heavy_edge_matching(g: &Graph, rng: &mut ChaCha8Rng) -> (Vec<u32>, usize) {
    let n = g.n_vertices();
    let tot = g.total_weights();
    // cap coarse vertex weights so constraints stay spreadable
    let cap: Vec<u64> = tot
        .iter()
        .map(|&t| ((1.5 * t as f64 / COARSEST_N as f64).ceil() as u64).max(4))
        .collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut match_of: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let mut n_coarse = 0usize;
    for &v in &order {
        let vi = v as usize;
        if matched[vi] {
            continue;
        }
        let mut best: Option<(u32, u32)> = None; // (ewgt, u)
        for (idx, &u) in g.neighbors(v).iter().enumerate() {
            let ui = u as usize;
            if matched[ui] || u == v {
                continue;
            }
            let w = g.edge_weights(v)[idx];
            let fits = (0..g.ncon)
                .all(|c| g.vwgt[vi * g.ncon + c] as u64 + g.vwgt[ui * g.ncon + c] as u64 <= cap[c]);
            if fits && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, u));
            }
        }
        matched[vi] = true;
        if let Some((_, u)) = best {
            matched[u as usize] = true;
            match_of[vi] = u;
            match_of[u as usize] = v;
        }
        n_coarse += 1;
    }
    (match_of, n_coarse)
}

/// Contract matched pairs into a coarse graph. Returns the coarse graph and
/// the fine→coarse vertex map.
fn contract(g: &Graph, match_of: &[u32], n_coarse: usize) -> (Graph, Vec<u32>) {
    let n = g.n_vertices();
    let mut cmap = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        let vi = v as usize;
        if cmap[vi] != u32::MAX {
            continue;
        }
        cmap[vi] = next;
        let u = match_of[vi];
        if u != v {
            cmap[u as usize] = next;
        }
        next += 1;
    }
    debug_assert_eq!(next as usize, n_coarse);

    let mut vwgt = vec![0u32; n_coarse * g.ncon];
    for v in 0..n {
        let cv = cmap[v] as usize;
        for c in 0..g.ncon {
            vwgt[cv * g.ncon + c] += g.vwgt[v * g.ncon + c];
        }
    }

    // accumulate coarse adjacency with a timestamped scatter array
    let mut xadj = Vec::with_capacity(n_coarse + 1);
    let mut adj: Vec<u32> = Vec::with_capacity(g.adj.len() / 2);
    let mut ewgt: Vec<u32> = Vec::with_capacity(g.adj.len() / 2);
    let mut stamp = vec![u32::MAX; n_coarse];
    let mut slot = vec![0u32; n_coarse];
    xadj.push(0u32);
    // iterate coarse vertices in id order; find their constituents
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_coarse];
    for v in 0..n as u32 {
        members[cmap[v as usize] as usize].push(v);
    }
    for cv in 0..n_coarse as u32 {
        for &v in &members[cv as usize] {
            for (idx, &u) in g.neighbors(v).iter().enumerate() {
                let cu = cmap[u as usize];
                if cu == cv {
                    continue;
                }
                let w = g.edge_weights(v)[idx];
                if stamp[cu as usize] == cv {
                    ewgt[slot[cu as usize] as usize] += w;
                } else {
                    stamp[cu as usize] = cv;
                    slot[cu as usize] = adj.len() as u32;
                    adj.push(cu);
                    ewgt.push(w);
                }
            }
        }
        xadj.push(adj.len() as u32);
    }
    (
        Graph {
            xadj,
            adj,
            ewgt,
            ncon: g.ncon,
            vwgt,
        },
        cmap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_mesh::{HexMesh, Levels};

    fn mesh_graph(nx: usize, ny: usize, nz: usize) -> Graph {
        let m = HexMesh::uniform(nx, ny, nz, 1.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        Graph::scotch_baseline(&m, &lv)
    }

    #[test]
    fn kway_covers_all_parts() {
        let g = mesh_graph(8, 8, 4);
        let cfg = PartitionConfig::default();
        for k in [2usize, 3, 4, 7, 8, 16] {
            let part = partition_kway(&g, k, &cfg);
            let mut counts = vec![0usize; k];
            for &p in &part {
                assert!((p as usize) < k);
                counts[p as usize] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "k={k}: empty part {counts:?}"
            );
        }
    }

    #[test]
    fn kway_balanced_single_constraint() {
        let g = mesh_graph(8, 8, 8);
        let cfg = PartitionConfig::default();
        let k = 8;
        let part = partition_kway(&g, k, &cfg);
        let pw = g.part_weights(&part, k);
        let tot: u64 = g.total_weights()[0];
        let target = tot as f64 / k as f64;
        for p in 0..k {
            let w = pw[p] as f64;
            assert!(
                (w / target - 1.0).abs() < 0.25,
                "part {p} weight {w} vs target {target}"
            );
        }
    }

    #[test]
    fn kway_cut_reasonable_on_cube() {
        // 8³ cube into 8 parts: ideal cut = 3 internal planes of 64 faces
        // each × ... recursive bisection should stay within a small factor.
        let g = mesh_graph(8, 8, 8);
        let cfg = PartitionConfig::default();
        let part = partition_kway(&g, 8, &cfg);
        let cut = g.cut(&part);
        // perfect: 3 × 64 = 192 cut faces (each unit weight)
        assert!(cut <= 192 * 2, "cut {cut} too far from optimal 192");
    }

    #[test]
    fn contraction_preserves_totals() {
        let g = mesh_graph(6, 6, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (m, nc) = heavy_edge_matching(&g, &mut rng);
        let (coarse, cmap) = contract(&g, &m, nc);
        assert_eq!(coarse.total_weights(), g.total_weights());
        assert!(coarse.n_vertices() < g.n_vertices());
        assert_eq!(cmap.len(), g.n_vertices());
        // coarse graph is symmetric
        for v in 0..coarse.n_vertices() as u32 {
            for &u in coarse.neighbors(v) {
                assert!(coarse.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn multiconstraint_kway_balances_levels() {
        let mut m = HexMesh::uniform(12, 12, 2, 1.0, 1.0);
        m.paint_box((4, 8), (4, 8), (0, 2), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let g = Graph::multi_constraint(&m, &lv);
        let cfg = PartitionConfig {
            eps: 0.15,
            ..Default::default()
        };
        let k = 4;
        let part = partition_kway(&g, k, &cfg);
        let pw = g.part_weights(&part, k);
        let tot = g.total_weights();
        for c in 0..g.ncon {
            let target = tot[c] as f64 / k as f64;
            for p in 0..k {
                let w = pw[p * g.ncon + c] as f64;
                assert!(
                    w <= 2.0 * target + 2.0,
                    "level {c} part {p}: {w} vs {target} ({pw:?})"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = mesh_graph(6, 6, 6);
        let cfg = PartitionConfig::default();
        let a = partition_kway(&g, 4, &cfg);
        let b = partition_kway(&g, 4, &cfg);
        assert_eq!(a, b);
    }
}
