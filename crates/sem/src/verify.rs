//! Machine-checkable statements of the structural invariants the threaded
//! executor relies on.
//!
//! `crate::parallel::par_colored`'s disjoint scatter is sound iff within
//! one colour no two elements share a scatter target. This module states
//! that invariant as a total function over an explicit colouring so it can
//! be (a) re-asserted by a `debug_assert!` every time a
//! `crate::compiled::CompiledGather` is built, (b) exercised against
//! deliberately broken colourings by tests, and (c) run over the benchmark
//! meshes by the standalone `lts-check` binary.

use std::fmt;

/// Witness of a colouring violation: two same-colour elements sharing a
/// scatter target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringConflict {
    /// Colour class both elements belong to.
    pub color: usize,
    /// The element that first claimed the target within the colour.
    pub first: u32,
    /// The element that re-claimed it.
    pub second: u32,
    /// The shared scatter target (global node or DOF id).
    pub target: u32,
}

impl fmt::Display for ColoringConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "colour {}: elements {} and {} both scatter to target {}",
            self.color, self.first, self.second, self.target
        )
    }
}

/// Witness of an incomplete or duplicated colour-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverViolation {
    /// An element appears in more than one class (or twice in one).
    Duplicated(u32),
    /// An element of the input list appears in no class.
    Missing(u32),
    /// A coloured element was never in the input list.
    Foreign(u32),
}

impl fmt::Display for CoverViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverViolation::Duplicated(e) => write!(f, "element {e} coloured more than once"),
            CoverViolation::Missing(e) => write!(f, "element {e} missing from every colour"),
            CoverViolation::Foreign(e) => write!(f, "element {e} coloured but never requested"),
        }
    }
}

/// Check that no two elements of the same class share a scatter target —
/// the exact invariant the concurrent scatter of `par_colored` relies on.
///
/// `targets_of` must yield each element's scatter targets (clearing the
/// buffer first), exactly as handed to [`crate::ElementColoring::greedy`];
/// `n_targets` bounds the target id space. Runs in
/// `O(Σ targets + n_targets)`.
pub fn conflict_free(
    classes: &[Vec<u32>],
    n_targets: usize,
    targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
) -> Result<(), ColoringConflict> {
    // Per target: (stamp of the colour that last claimed it, claiming elem).
    let mut stamp = vec![(usize::MAX, 0u32); n_targets];
    let mut buf = Vec::new();
    for (color, class) in classes.iter().enumerate() {
        for &e in class {
            targets_of(e, &mut buf);
            for &t in &buf {
                let (s, first) = stamp[t as usize];
                if s == color {
                    return Err(ColoringConflict {
                        color,
                        first,
                        second: e,
                        target: t,
                    });
                }
                stamp[t as usize] = (color, e);
            }
        }
    }
    Ok(())
}

/// Check that the classes partition exactly the input element list: every
/// element coloured once, nothing foreign, nothing missing.
pub fn complete_cover(classes: &[Vec<u32>], elems: &[u32]) -> Result<(), CoverViolation> {
    let max_id = elems
        .iter()
        .chain(classes.iter().flatten())
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut want = vec![false; max_id];
    for &e in elems {
        want[e as usize] = true;
    }
    let mut seen = vec![false; max_id];
    for &e in classes.iter().flatten() {
        if !want[e as usize] {
            return Err(CoverViolation::Foreign(e));
        }
        if seen[e as usize] {
            return Err(CoverViolation::Duplicated(e));
        }
        seen[e as usize] = true;
    }
    for &e in elems {
        if !seen[e as usize] {
            return Err(CoverViolation::Missing(e));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy chain adjacency: element `e` scatters to `{e, e+1}`.
    fn chain_targets(e: u32, out: &mut Vec<u32>) {
        out.clear();
        out.push(e);
        out.push(e + 1);
    }

    #[test]
    fn accepts_valid_chain_coloring() {
        // evens and odds never share a target in the chain
        let classes = vec![vec![0, 2, 4], vec![1, 3, 5]];
        assert_eq!(conflict_free(&classes, 7, &mut chain_targets), Ok(()));
    }

    #[test]
    fn rejects_adjacent_same_color() {
        // 2 and 3 share target 3
        let classes = vec![vec![0, 2, 3], vec![1]];
        let err = conflict_free(&classes, 5, &mut chain_targets).unwrap_err();
        assert_eq!(
            err,
            ColoringConflict {
                color: 0,
                first: 2,
                second: 3,
                target: 3
            }
        );
        assert!(err.to_string().contains("elements 2 and 3"));
    }

    #[test]
    fn same_target_in_different_colors_is_fine() {
        let classes = vec![vec![0], vec![1]];
        assert_eq!(conflict_free(&classes, 3, &mut chain_targets), Ok(()));
    }

    #[test]
    fn cover_detects_all_three_violations() {
        let elems = vec![0u32, 1, 2];
        assert_eq!(complete_cover(&[vec![0, 1], vec![2]], &elems), Ok(()));
        assert_eq!(
            complete_cover(&[vec![0, 1], vec![1, 2]], &elems),
            Err(CoverViolation::Duplicated(1))
        );
        assert_eq!(
            complete_cover(&[vec![0, 1]], &elems),
            Err(CoverViolation::Missing(2))
        );
        assert_eq!(
            complete_cover(&[vec![0, 1, 2, 3]], &elems),
            Err(CoverViolation::Foreign(3))
        );
    }
}
