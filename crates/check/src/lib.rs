//! Standalone verifier for the structural invariants the LTS machinery
//! relies on — the `lts-check` companion to the in-process `debug_assert!`
//! hooks of `lts-sem` and the lexical gates of `lts-lint`.
//!
//! Five invariant families, each with its own [`Violation`] variant family
//! so a failed run says *which* contract broke, not just that one did:
//!
//! 1. **Colouring conflict-freedom** — within every colour class of every
//!    level's masked element list, no two elements share a scatter target
//!    (the soundness condition of the threaded executor's disjoint scatter),
//!    and the classes exactly cover the level's list.
//! 2. **DOF-level consistency** — `dof_level[d]` equals the max level of any
//!    element containing `d`, recomputed here from the topology rather than
//!    trusted from [`LtsSetup`]'s own construction.
//! 3. **p-nesting** — the per-level step multipliers `p_k` are powers of two
//!    with no gaps (`p_{k+1} = 2 p_k`, Sec. II), and no level is empty.
//! 4. **Eq. 19 balance** — the Eq. 21 imbalance of a partition stays under a
//!    tolerance, totalled and per level.
//! 5. **Eq. 20 volume** — the hypergraph connectivity-1 cut equals the MPI
//!    volume per LTS cycle, recounted here directly from node rank-sets.

#![forbid(unsafe_code)]

use lts_core::setup::LtsSetup;
use lts_mesh::{HexMesh, Levels};
use lts_sem::verify::{complete_cover, conflict_free};
use lts_sem::ElementColoring;
use std::fmt;

/// One broken invariant, with enough context to locate it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two same-colour elements of one level share a scatter target.
    ColoringConflict {
        level: usize,
        color: usize,
        first: u32,
        second: u32,
        target: u32,
    },
    /// A level's colour classes do not exactly cover its element list.
    ColoringCover { level: usize, detail: String },
    /// A stored DOF level disagrees with the topology-recomputed one.
    DofLevelMismatch {
        dof: u32,
        stored: u8,
        recomputed: u8,
    },
    /// A per-level step multiplier is not a power of two.
    PNotPowerOfTwo { level: usize, p: u64 },
    /// Consecutive multipliers are not nested by exactly a factor of two.
    PNestingGap { level: usize, p: u64, expected: u64 },
    /// A level in `0..n_levels` contains no element.
    EmptyLevel { level: usize },
    /// Eq. 21 imbalance exceeds the tolerance (level `None` = total).
    Imbalance {
        level: Option<usize>,
        pct: f64,
        tolerance_pct: f64,
    },
    /// Hypergraph cut and directly-counted MPI volume disagree.
    VolumeMismatch { hypergraph_cut: u64, direct: u64 },
}

impl Violation {
    /// Stable short code, one per diagnostic kind (used by the CLI and by
    /// the fixture tests to assert *distinct* failures).
    pub fn code(&self) -> &'static str {
        match self {
            Violation::ColoringConflict { .. } => "coloring-conflict",
            Violation::ColoringCover { .. } => "coloring-cover",
            Violation::DofLevelMismatch { .. } => "dof-level",
            Violation::PNotPowerOfTwo { .. } => "p-not-pow2",
            Violation::PNestingGap { .. } => "p-nesting-gap",
            Violation::EmptyLevel { .. } => "empty-level",
            Violation::Imbalance { .. } => "imbalance",
            Violation::VolumeMismatch { .. } => "volume-mismatch",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ColoringConflict {
                level,
                color,
                first,
                second,
                target,
            } => write!(
                f,
                "level {level}, colour {color}: elements {first} and {second} \
                 both scatter to target {target}"
            ),
            Violation::ColoringCover { level, detail } => {
                write!(f, "level {level}: colour classes are not a cover: {detail}")
            }
            Violation::DofLevelMismatch {
                dof,
                stored,
                recomputed,
            } => write!(
                f,
                "dof {dof}: stored level {stored}, but max adjacent element \
                 level is {recomputed}"
            ),
            Violation::PNotPowerOfTwo { level, p } => {
                write!(f, "level {level}: p = {p} is not a power of two")
            }
            Violation::PNestingGap { level, p, expected } => write!(
                f,
                "level {level}: p = {p} breaks the 2x nesting (expected {expected})"
            ),
            Violation::EmptyLevel { level } => write!(f, "level {level} has no elements"),
            Violation::Imbalance {
                level,
                pct,
                tolerance_pct,
            } => match level {
                Some(l) => write!(
                    f,
                    "level {l} imbalance {pct:.1}% exceeds tolerance {tolerance_pct:.1}%"
                ),
                None => write!(
                    f,
                    "total imbalance {pct:.1}% exceeds tolerance {tolerance_pct:.1}%"
                ),
            },
            Violation::VolumeMismatch {
                hypergraph_cut,
                direct,
            } => write!(
                f,
                "Eq. 20 mismatch: hypergraph cut {hypergraph_cut} != directly \
                 counted MPI volume {direct}"
            ),
        }
    }
}

/// Check one level's colour classes against the disjoint-scatter contract:
/// conflict-freedom within every class and exact cover of `elems`.
///
/// Exposed separately from `check_level_colorings` so seeded-broken
/// colourings (fixtures, fuzzers) can be fed directly.
pub fn check_coloring(
    classes: &[Vec<u32>],
    elems: &[u32],
    n_targets: usize,
    targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
    level: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(c) = conflict_free(classes, n_targets, targets_of) {
        out.push(Violation::ColoringConflict {
            level,
            color: c.color,
            first: c.first,
            second: c.second,
            target: c.target,
        });
    }
    if let Err(v) = complete_cover(classes, elems) {
        out.push(Violation::ColoringCover {
            level,
            detail: v.to_string(),
        });
    }
    out
}

/// Colour every level's masked element list through the executor's own
/// corner path ([`ElementColoring::greedy_corners`] over the `np³` ids
/// `targets_of` yields in lattice order) and verify the result over all
/// gathered ids — end-to-end over the exact lists [`LtsSetup`] hands the
/// threaded scatter.
pub(crate) fn check_level_colorings(
    setup: &LtsSetup,
    n_targets: usize,
    np: usize,
    targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (level, elems) in setup.elems.iter().enumerate() {
        let coloring = ElementColoring::greedy_corners(elems, n_targets, np, targets_of);
        out.extend(check_coloring(
            &coloring.classes,
            elems,
            n_targets,
            targets_of,
            level,
        ));
    }
    out
}

/// Recompute every DOF's level as the max level of its containing elements
/// (straight from the element lists, independent of `LtsSetup::new`'s
/// incremental construction) and compare with the stored `dof_level`.
pub(crate) fn check_dof_levels(
    setup: &LtsSetup,
    n_elems: usize,
    targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
) -> Vec<Violation> {
    let mut recomputed = vec![0u8; setup.dof_level.len()];
    let mut buf = Vec::new();
    for e in 0..n_elems as u32 {
        targets_of(e, &mut buf);
        let le = setup.elem_level[e as usize];
        for &d in &buf {
            let r = &mut recomputed[d as usize];
            *r = (*r).max(le);
        }
    }
    setup
        .dof_level
        .iter()
        .zip(&recomputed)
        .enumerate()
        .filter(|(_, (s, r))| s != r)
        .map(|(d, (&s, &r))| Violation::DofLevelMismatch {
            dof: d as u32,
            stored: s,
            recomputed: r,
        })
        .collect()
}

/// Check the per-level step multipliers: every `p_k` a power of two and
/// `p_{k+1} = 2 p_k` starting from `p_0 = 1` (Sec. II's nesting, which the
/// LTS cycle's recursion depth and Eq. 19/20 weights all assume).
pub fn check_p_nesting(p: &[u64]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut expected = 1u64;
    for (level, &pk) in p.iter().enumerate() {
        if !pk.is_power_of_two() {
            out.push(Violation::PNotPowerOfTwo { level, p: pk });
        } else if pk != expected {
            out.push(Violation::PNestingGap {
                level,
                p: pk,
                expected,
            });
        }
        expected = expected.saturating_mul(2);
    }
    out
}

/// Level sanity for a [`Levels`] assignment: every level in `0..n_levels`
/// populated (an empty level is a nesting gap in disguise: some `p` is paid
/// for by the cycle structure but never earns speed-up) plus the
/// [`check_p_nesting`] contract on the distinct multipliers present.
pub(crate) fn check_levels(levels: &Levels) -> Vec<Violation> {
    let mut out = Vec::new();
    for (level, &count) in levels.histogram().iter().enumerate() {
        if count == 0 {
            out.push(Violation::EmptyLevel { level });
        }
    }
    let p: Vec<u64> = (0..levels.n_levels as u8).map(|k| 1u64 << k).collect();
    out.extend(check_p_nesting(&p));
    out
}

/// Eq. 19/21 balance gate: total and per-level imbalance of `part` must stay
/// under `tolerance_pct` percent.
///
/// Per level the gate is granularity-aware: a level with `c` elements over
/// `k` ranks can do no better than `ceil(c/k)` vs `floor(c/k)` loads, so
/// that one-element floor is added to the tolerance before comparing — a
/// sparse level is judged against what a perfect partitioner could achieve,
/// not against zero.
pub fn check_balance(
    levels: &Levels,
    part: &[u32],
    k: usize,
    tolerance_pct: f64,
) -> Vec<Violation> {
    let rep = lts_partition::load_imbalance(levels, part, k);
    let mut out = Vec::new();
    if rep.total_pct > tolerance_pct {
        out.push(Violation::Imbalance {
            level: None,
            pct: rep.total_pct,
            tolerance_pct,
        });
    }
    for (level, &pct) in rep.per_level_pct.iter().enumerate() {
        let count: u64 = rep.level_counts[level].iter().sum();
        let ceil = count.div_ceil(k as u64);
        let floor_pct = if ceil == 0 {
            0.0
        } else {
            (ceil - count / k as u64) as f64 / ceil as f64 * 100.0
        };
        let allowed = tolerance_pct + floor_pct;
        if pct > allowed {
            out.push(Violation::Imbalance {
                level: Some(level),
                pct,
                tolerance_pct: allowed,
            });
        }
    }
    out
}

/// Eq. 20 cross-check: the nodal hypergraph's connectivity-1 cut (what the
/// PaToH-style objective minimises) must equal the MPI volume counted
/// directly — per corner node, `(λ − 1) · Σ p` over its adjacent elements
/// whenever `λ ≥ 2` distinct ranks touch it.
pub(crate) fn check_volume(mesh: &HexMesh, levels: &Levels, part: &[u32]) -> Vec<Violation> {
    let hypergraph_cut = lts_partition::mpi_volume(mesh, levels, part);
    let mut direct = 0u64;
    for n in 0..mesh.n_corner_nodes() as u32 {
        let es = mesh.node_elems(n);
        let mut ranks: Vec<u32> = es.iter().map(|&e| part[e as usize]).collect();
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.len() >= 2 {
            let cost: u64 = es.iter().map(|&e| levels.p_of(e)).sum();
            direct += cost * (ranks.len() as u64 - 1);
        }
    }
    if hypergraph_cut != direct {
        vec![Violation::VolumeMismatch {
            hypergraph_cut,
            direct,
        }]
    } else {
        Vec::new()
    }
}

/// [`LtsSetup`] needs a `DofTopology`; for whole-mesh checks the GLL node
/// map alone is one — no operator assembly required.
pub(crate) struct DofMapTopology<'a>(pub &'a lts_sem::DofMap);

impl lts_core::operator::DofTopology for DofMapTopology<'_> {
    fn n_dofs(&self) -> usize {
        self.0.n_nodes()
    }

    fn n_elems(&self) -> usize {
        self.0.n_elems()
    }

    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
        self.0.elem_nodes(e, out);
    }
}

/// Everything at once over a mesh + levels + partition, as the CLI runs it.
pub fn check_all(
    mesh: &HexMesh,
    levels: &Levels,
    part: &[u32],
    k: usize,
    order: usize,
    tolerance_pct: f64,
) -> Vec<Violation> {
    let dofmap = lts_sem::DofMap::new(mesh, order);
    let topo = DofMapTopology(&dofmap);
    let setup = LtsSetup::new(&topo, &levels.elem_level);
    let n_targets = dofmap.n_nodes();
    let mut targets = |e: u32, out: &mut Vec<u32>| dofmap.elem_nodes(e, out);

    let mut out = Vec::new();
    out.extend(check_levels(levels));
    out.extend(check_level_colorings(
        &setup,
        n_targets,
        order + 1,
        &mut targets,
    ));
    out.extend(check_dof_levels(&setup, mesh.n_elems(), &mut targets));
    out.extend(check_balance(levels, part, k, tolerance_pct));
    out.extend(check_volume(mesh, levels, part));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_row() -> (HexMesh, Levels) {
        let mut m = HexMesh::uniform(8, 1, 1, 1.0, 1.0);
        m.paint_box((6, 8), (0, 1), (0, 1), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        (m, lv)
    }

    #[test]
    fn clean_mesh_passes_everything() {
        let (m, lv) = two_level_row();
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let v = check_all(&m, &lv, &part, 2, 1, 100.0);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn p_nesting_accepts_powers() {
        assert!(check_p_nesting(&[1, 2, 4, 8]).is_empty());
        assert!(check_p_nesting(&[1]).is_empty());
        assert!(check_p_nesting(&[]).is_empty());
    }

    #[test]
    fn p_nesting_rejects_non_power() {
        let v = check_p_nesting(&[1, 3]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code(), "p-not-pow2");
    }

    #[test]
    fn p_nesting_rejects_gap() {
        let v = check_p_nesting(&[1, 2, 8]);
        assert_eq!(
            v,
            vec![Violation::PNestingGap {
                level: 2,
                p: 8,
                expected: 4
            }]
        );
    }

    #[test]
    fn volume_cross_check_agrees_on_row() {
        let (m, lv) = two_level_row();
        for part in [vec![0, 0, 0, 0, 1, 1, 1, 1], vec![0, 1, 0, 1, 0, 1, 0, 1]] {
            assert!(check_volume(&m, &lv, &part).is_empty());
        }
    }

    #[test]
    fn dof_level_mismatch_detected() {
        let (m, lv) = two_level_row();
        let dofmap = lts_sem::DofMap::new(&m, 1);
        let topo = DofMapTopology(&dofmap);
        let mut setup = LtsSetup::new(&topo, &lv.elem_level);
        setup.dof_level[5] ^= 1; // corrupt one entry
        let mut targets = |e: u32, out: &mut Vec<u32>| dofmap.elem_nodes(e, out);
        let v = check_dof_levels(&setup, m.n_elems(), &mut targets);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code(), "dof-level");
    }
}
