//! Hypergraphs for partitioning (Sec. III-A2).
//!
//! Vertices are mesh elements with multi-constraint weights; nets are mesh
//! nodes with costs `c[h'_n] = Σ_{e ∋ n} p_e`, so the connectivity-1 cut
//! size (Eq. 20) of a partition equals the exact MPI communication volume
//! per LTS cycle.

use crate::multilevel::CutModel;
use lts_mesh::{HexMesh, Levels, NodalHypergraph};

/// A hypergraph in dual CSR form (net→pins and vertex→nets) with net costs
/// and `ncon` weights per vertex.
#[derive(Debug, Clone)]
pub(crate) struct HGraph {
    pub(crate) xpins: Vec<u32>,
    pub(crate) pins: Vec<u32>,
    pub(crate) xnets: Vec<u32>,
    pub(crate) vnets: Vec<u32>,
    pub(crate) netcost: Vec<u64>,
    pub(crate) ncon: usize,
    pub(crate) vwgt: Vec<u32>,
}

impl HGraph {
    pub(crate) fn n_nets(&self) -> usize {
        self.xpins.len() - 1
    }

    #[inline]
    pub(crate) fn pins_of(&self, net: u32) -> &[u32] {
        &self.pins[self.xpins[net as usize] as usize..self.xpins[net as usize + 1] as usize]
    }

    #[inline]
    pub(crate) fn nets_of(&self, v: u32) -> &[u32] {
        &self.vnets[self.xnets[v as usize] as usize..self.xnets[v as usize + 1] as usize]
    }

    #[inline]
    pub(crate) fn weight_of(&self, v: u32) -> &[u32] {
        &self.vwgt[v as usize * self.ncon..(v as usize + 1) * self.ncon]
    }

    /// Build from parallel arrays of nets (pins per net) and weights; nets
    /// with fewer than two pins are dropped (they can never be cut) and
    /// *identical* nets are merged with summed costs (the standard PaToH
    /// simplification — Sec. III-A2 notes the same collapse for the
    /// per-element-copy hyperedges).
    pub(crate) fn from_nets(
        n_vertices: usize,
        nets: impl IntoIterator<Item = (Vec<u32>, u64)>,
        ncon: usize,
        vwgt: Vec<u32>,
    ) -> Self {
        assert_eq!(vwgt.len(), n_vertices * ncon);
        let mut merged: std::collections::HashMap<Vec<u32>, u64> = std::collections::HashMap::new();
        let mut order: Vec<Vec<u32>> = Vec::new();
        for (mut p, cost) in nets {
            p.sort_unstable();
            p.dedup();
            if p.len() < 2 {
                continue;
            }
            assert!(p.iter().all(|&v| (v as usize) < n_vertices));
            match merged.entry(p) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() += cost;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(cost);
                }
            }
        }
        let mut xpins = vec![0u32];
        let mut pins: Vec<u32> = Vec::new();
        let mut netcost = Vec::new();
        for p in order {
            let cost = merged[&p];
            pins.extend_from_slice(&p);
            xpins.push(pins.len() as u32);
            netcost.push(cost);
        }
        let (xnets, vnets) = invert_pins(n_vertices, &xpins, &pins);
        HGraph {
            xpins,
            pins,
            xnets,
            vnets,
            netcost,
            ncon,
            vwgt,
        }
    }

    /// The paper's LTS hypergraph: one net per mesh corner node with cost
    /// `Σ_{e ∋ n} p_e`, one-hot per-level vertex weights.
    pub(crate) fn lts_model(mesh: &HexMesh, levels: &Levels) -> Self {
        let nh = NodalHypergraph::build(mesh, Some(levels));
        let ncon = levels.n_levels;
        let mut vwgt = vec![0u32; mesh.n_elems() * ncon];
        for e in 0..mesh.n_elems() {
            vwgt[e * ncon + levels.elem_level[e] as usize] = 1;
        }
        let nets =
            (0..nh.n_nets() as u32).map(|n| (nh.pins_of(n).to_vec(), nh.netcost[n as usize]));
        Self::from_nets(mesh.n_elems(), nets, ncon, vwgt)
    }
}

/// The connectivity-1 cut (Eq. 20): gains come from per-net pin counts on
/// each side (per part in k-way refinement).
impl CutModel for HGraph {
    type Sides = Vec<[u32; 2]>;
    type Parts = Vec<Vec<(u32, u32)>>;
    const VCYCLE_SEED: (u64, u64) = (0xD1B5_4A32_D192_ED03, 0x2545_F491);
    const KWAY_SEED: u64 = 0xABCD;

    fn n_vertices(&self) -> usize {
        self.xnets.len() - 1
    }

    fn ncon(&self) -> usize {
        self.ncon
    }

    fn vwgt(&self) -> &[u32] {
        &self.vwgt
    }

    fn for_each_adjacent(&self, v: u32, mut f: impl FnMut(u32)) {
        for &net in self.nets_of(v) {
            for &u in self.pins_of(net) {
                f(u);
            }
        }
    }

    fn sides(&self, side: &[u8]) -> Vec<[u32; 2]> {
        let mut ns = vec![[0u32; 2]; self.n_nets()];
        for net in 0..self.n_nets() as u32 {
            for &p in self.pins_of(net) {
                ns[net as usize][side[p as usize] as usize] += 1;
            }
        }
        ns
    }

    fn move_sides(&self, v: u32, from: usize, sides: &mut Vec<[u32; 2]>) {
        for &net in self.nets_of(v) {
            sides[net as usize][from] -= 1;
            sides[net as usize][1 - from] += 1;
        }
    }

    /// Nets where `v` is the sole pin on its side become internal (+cost);
    /// nets entirely on `v`'s side become cut (−cost).
    fn gain(&self, v: u32, side: &[u8], sides: &Vec<[u32; 2]>) -> i64 {
        let s = side[v as usize] as usize;
        let mut g = 0i64;
        for &net in self.nets_of(v) {
            let [a, b] = sides[net as usize];
            let (mine, other) = if s == 0 { (a, b) } else { (b, a) };
            if mine == 1 {
                g += self.netcost[net as usize] as i64;
            }
            if other == 0 {
                g -= self.netcost[net as usize] as i64;
            }
        }
        g
    }

    fn is_boundary(&self, v: u32, _: &[u8], sides: &Vec<[u32; 2]>) -> bool {
        self.nets_of(v).iter().any(|&net| {
            let [a, b] = sides[net as usize];
            a > 0 && b > 0
        })
    }

    /// Heavy-connectivity matching: each shared net of at most 16 pins adds
    /// `cost / (pins − 1)` (at least 1) to the score of its unmatched pins.
    fn match_scores(
        &self,
        v: u32,
        matched: &[bool],
        score: &mut Vec<u64>,
        out: &mut Vec<(u64, u32)>,
    ) {
        score.resize(self.n_vertices(), 0);
        for &net in self.nets_of(v) {
            let pins = self.pins_of(net);
            if pins.len() > 16 {
                continue; // skip huge nets for matching speed
            }
            let w = self.netcost[net as usize] / (pins.len() as u64 - 1).max(1);
            for &u in pins {
                if u == v || matched[u as usize] {
                    continue;
                }
                if score[u as usize] == 0 {
                    out.push((0, u));
                }
                score[u as usize] += w.max(1);
            }
        }
        for (s, u) in out.iter_mut() {
            *s = std::mem::take(&mut score[*u as usize]);
        }
    }

    fn contract(&self, cmap: &[u32], n_coarse: usize, vwgt: Vec<u32>) -> HGraph {
        let nets = (0..self.n_nets() as u32).map(|net| {
            let p: Vec<u32> = self
                .pins_of(net)
                .iter()
                .map(|&v| cmap[v as usize])
                .collect();
            (p, self.netcost[net as usize])
        });
        HGraph::from_nets(n_coarse, nets, self.ncon, vwgt)
    }

    fn cut(&self, part: &[u32]) -> u64 {
        let mut seen: Vec<u32> = Vec::with_capacity(8);
        let mut total = 0u64;
        for net in 0..self.n_nets() as u32 {
            seen.clear();
            for &p in self.pins_of(net) {
                let pp = part[p as usize];
                if !seen.contains(&pp) {
                    seen.push(pp);
                }
            }
            if seen.len() > 1 {
                total += self.netcost[net as usize] * (seen.len() as u64 - 1);
            }
        }
        total
    }

    /// Net splitting: nets keep only surviving pins and are dropped when
    /// fewer than two remain.
    fn induced(&self, keep: &[u32]) -> HGraph {
        let mut g2l = vec![u32::MAX; self.n_vertices()];
        for (l, &g) in keep.iter().enumerate() {
            g2l[g as usize] = l as u32;
        }
        let mut vwgt = Vec::with_capacity(keep.len() * self.ncon);
        for &g in keep {
            vwgt.extend_from_slice(self.weight_of(g));
        }
        let nets = (0..self.n_nets() as u32).filter_map(|n| {
            let p: Vec<u32> = self
                .pins_of(n)
                .iter()
                .filter_map(|&v| {
                    let l = g2l[v as usize];
                    (l != u32::MAX).then_some(l)
                })
                .collect();
            (p.len() >= 2).then_some((p, self.netcost[n as usize]))
        });
        HGraph::from_nets(keep.len(), nets, self.ncon, vwgt)
    }

    /// Per-net pin counts per part, stored sparsely: `(part, count)` pairs.
    fn parts(&self, part: &[u32]) -> Vec<Vec<(u32, u32)>> {
        let mut net_parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.n_nets()];
        for net in 0..self.n_nets() as u32 {
            for &pin in self.pins_of(net) {
                let p = part[pin as usize];
                let list = &mut net_parts[net as usize];
                match list.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, c)) => *c += 1,
                    None => list.push((p, 1)),
                }
            }
        }
        net_parts
    }

    /// Candidates are the parts sharing a net with `v`; moving to `q` frees
    /// the nets where `v` is the last pin in its part and spreads the nets
    /// with no pin in `q` yet.
    fn kway_gains(&self, v: u32, part: &[u32], parts: &Self::Parts, out: &mut Vec<(u32, i64)>) {
        let p = part[v as usize];
        for &net in self.nets_of(v) {
            for &(q, _) in &parts[net as usize] {
                if q != p && !out.iter().any(|&(c, _)| c == q) {
                    out.push((q, 0));
                }
            }
        }
        for (q, gain) in out.iter_mut() {
            for &net in self.nets_of(v) {
                let list = &parts[net as usize];
                let cp = list.iter().find(|(r, _)| *r == p).map_or(0, |(_, c)| *c);
                let cq = list.iter().find(|(r, _)| r == q).map_or(0, |(_, c)| *c);
                let cost = self.netcost[net as usize] as i64;
                if cp == 1 {
                    *gain += cost; // net leaves part p entirely
                }
                if cq == 0 {
                    *gain -= cost; // net newly spreads into q
                }
            }
        }
    }

    fn move_parts(&self, v: u32, p: u32, q: u32, parts: &mut Self::Parts) {
        for &net in self.nets_of(v) {
            let list = &mut parts[net as usize];
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
    }
}

fn invert_pins(n_vertices: usize, xpins: &[u32], pins: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut deg = vec![0u32; n_vertices];
    for &p in pins {
        deg[p as usize] += 1;
    }
    let mut xnets = vec![0u32; n_vertices + 1];
    for v in 0..n_vertices {
        xnets[v + 1] = xnets[v] + deg[v];
    }
    let mut cursor = xnets[..n_vertices].to_vec();
    let mut vnets = vec![0u32; pins.len()];
    for net in 0..xpins.len() - 1 {
        for i in xpins[net]..xpins[net + 1] {
            let v = pins[i as usize] as usize;
            vnets[cursor[v] as usize] = net as u32;
            cursor[v] += 1;
        }
    }
    (xnets, vnets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HGraph {
        // 4 vertices; nets: {0,1} cost 2, {1,2,3} cost 3, {0,3} cost 1
        HGraph::from_nets(
            4,
            vec![(vec![0, 1], 2), (vec![1, 2, 3], 3), (vec![0, 3], 1)],
            1,
            vec![1; 4],
        )
    }

    #[test]
    fn inversion_consistent() {
        let h = tiny();
        assert_eq!(h.n_nets(), 3);
        for v in 0..h.n_vertices() as u32 {
            for &n in h.nets_of(v) {
                assert!(h.pins_of(n).contains(&v));
            }
        }
        for n in 0..h.n_nets() as u32 {
            for &v in h.pins_of(n) {
                assert!(h.nets_of(v).contains(&n));
            }
        }
    }

    #[test]
    fn cut_connectivity_minus_one() {
        let h = tiny();
        // part {0,1 | 2,3}: net0 internal, net1 spans both (λ=2 → 3),
        // net2 spans both (λ=2 → 1) → 4
        assert_eq!(h.cut(&[0, 0, 1, 1]), 4);
        // all separate: net0 λ=2 → 2; net1 λ=3 → 6; net2 λ=2 → 1 → 9
        assert_eq!(h.cut(&[0, 1, 2, 3]), 9);
        assert_eq!(h.cut(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn single_pin_nets_dropped() {
        let h = HGraph::from_nets(3, vec![(vec![0], 5), (vec![1, 2], 1)], 1, vec![1; 3]);
        assert_eq!(h.n_nets(), 1);
    }

    #[test]
    fn induced_splits_nets() {
        let h = tiny();
        let sub = h.induced(&[1, 2, 3]);
        // net {0,1} → {1} dropped; net {1,2,3} → {0,1,2} kept; {0,3} → {3}→ dropped
        assert_eq!(sub.n_nets(), 1);
        assert_eq!(sub.pins_of(0), &[0, 1, 2]);
        assert_eq!(sub.netcost[0], 3);
    }

    #[test]
    fn lts_model_matches_mesh_volume() {
        let mut m = HexMesh::uniform(4, 2, 2, 1.0, 1.0);
        m.paint_box((3, 4), (0, 2), (0, 2), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let h = HGraph::lts_model(&m, &lv);
        let nh = NodalHypergraph::build(&m, Some(&lv));
        // cut sizes agree with the mesh-level model for a column split
        let part: Vec<u32> = (0..m.n_elems() as u32)
            .map(|e| u32::from(m.elem_ijk(e).0 >= 2))
            .collect();
        assert_eq!(h.cut(&part), nh.cut_size(&part));
    }

    #[test]
    fn duplicate_pins_removed() {
        let h = HGraph::from_nets(2, vec![(vec![0, 1, 1, 0], 1)], 1, vec![1; 2]);
        assert_eq!(h.pins_of(0), &[0, 1]);
    }

    #[test]
    fn identical_nets_merged_with_summed_costs() {
        let h = HGraph::from_nets(
            3,
            vec![(vec![0, 1], 2), (vec![1, 0], 3), (vec![1, 2], 1)],
            1,
            vec![1; 3],
        );
        assert_eq!(h.n_nets(), 2);
        assert_eq!(h.netcost[0], 5); // merged {0,1}
                                     // cut semantics unchanged: splitting 0|1 costs the summed 5
        assert_eq!(h.cut(&[0, 1, 1]), 5);
    }
}
