//! Shared-memory parallel operator application via element colouring.
//!
//! A greedy colouring of an element list splits it into independent sets:
//! two elements of the same colour never share a scatter target, so their
//! stiffness scatters touch disjoint DOFs and can run on worker threads
//! without synchronization. Colours are processed one after another — the
//! result is deterministic (within a colour every DOF receives
//! contributions from exactly one element). The compiled masked products
//! (`compiled.rs`) run the units of their colour-major element order
//! through `par_colored`, serial runs included.
//!
//! This is the per-node parallelism of the paper's platform (8 cores per
//! node under MPI); combined with `lts-runtime` it gives the familiar
//! MPI × threads hybrid.
//!
//! The executor's entire `unsafe` surface is the `DisjointOut` primitive
//! (see `disjoint.rs` for the soundness argument); single-threaded calls
//! take a fully safe path that never constructs the shared view at all. The
//! colour/barrier protocol itself is model-checked across all interleavings
//! in `tests/loom_model.rs`, which drives the same [`chunk_range`] split
//! used here.

use crate::disjoint::DisjointOut;

/// The colour classes of an element list.
#[derive(Debug, Clone)]
pub struct ElementColoring {
    /// `classes[c]` = element ids of colour `c`.
    pub classes: Vec<Vec<u32>>,
}

impl ElementColoring {
    /// Greedy first-fit colouring of an arbitrary element list: walk the
    /// list in order and give each element the smallest colour not yet used
    /// by any element sharing one of its scatter targets. Deterministic —
    /// the classes depend only on the list order and the sharing pattern, so
    /// two operators with the same connectivity (e.g. a structured mesh and
    /// its gather-list re-representation, under any DOF relabelling) colour
    /// identically. Capped at 128 colours (a hex element has ≤ 26 sharing
    /// neighbours, so first-fit never needs more than 27).
    ///
    /// The 16-byte colour masks are kept per distinct target the list
    /// touches, found through a zeroed 4-byte slot map over `n_targets`.
    pub fn greedy(
        elems: &[u32],
        n_targets: usize,
        targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
    ) -> ElementColoring {
        // slot[t] = 1 + index into `used`; 0 = not yet touched
        let mut slot = vec![0u32; n_targets];
        let mut used: Vec<u128> = Vec::new();
        let mut classes: Vec<Vec<u32>> = Vec::new();
        let mut buf = Vec::new();
        for &e in elems {
            targets_of(e, &mut buf);
            let mut occupied: u128 = 0;
            for t in buf.iter_mut() {
                let s = &mut slot[*t as usize];
                if *s == 0 {
                    used.push(0);
                    *s = used.len() as u32;
                }
                *t = *s - 1;
                occupied |= used[*t as usize];
            }
            let c = (!occupied).trailing_zeros() as usize;
            assert!(c < 128, "greedy colouring needs more than 128 colours");
            if c == classes.len() {
                classes.push(Vec::new());
            }
            let bit = 1u128 << c;
            for &s in &buf {
                used[s as usize] |= bit;
            }
            classes[c].push(e);
        }
        ElementColoring { classes }
    }

    /// [`Self::greedy`] over the eight corner ids of hexahedral elements
    /// whose `np³` ids `ids_of` yields in lattice order (`a + np·(b + np·c)`).
    /// On a conforming hex mesh two elements share an id iff they share a
    /// corner, so first-fit meets the same conflicts and gives exactly the
    /// classes of colouring over all ids.
    pub fn greedy_corners(
        elems: &[u32],
        n_targets: usize,
        np: usize,
        ids_of: &mut dyn FnMut(u32, &mut Vec<u32>),
    ) -> ElementColoring {
        let m = np.saturating_sub(1);
        let corners: Vec<usize> = (0..8)
            .map(|k| (k & 1) * m + (k >> 1 & 1) * m * np + (k >> 2) * m * np * np)
            .collect();
        let mut ids = Vec::new();
        Self::greedy(elems, n_targets, &mut |e, out| {
            ids_of(e, &mut ids);
            out.clear();
            out.extend(corners.iter().map(|&q| ids[q]));
        })
    }

    /// Flatten into the colour-major `(order, color_off)` representation the
    /// executor consumes: `order` lists all elements colour by colour,
    /// `color_off[c]..color_off[c+1]` is colour `c`'s span.
    pub fn flatten(&self) -> (Vec<u32>, Vec<u32>) {
        let total: usize = self.classes.iter().map(|c| c.len()).sum();
        let mut order = Vec::with_capacity(total);
        let mut color_off = Vec::with_capacity(self.classes.len() + 1);
        color_off.push(0u32);
        for class in &self.classes {
            order.extend_from_slice(class);
            color_off.push(order.len() as u32);
        }
        (order, color_off)
    }
}

/// The contiguous position range thread `tid` of `threads` owns within a
/// colour span `lo..hi`: ceil-divided chunks, clamped to the span. Shared
/// with the interleaving model checker (`tests/loom_model.rs`) so the model
/// verifies the exact split the executor runs.
#[doc(hidden)]
pub fn chunk_range(lo: usize, hi: usize, threads: usize, tid: usize) -> (usize, usize) {
    let chunk = (hi - lo).div_ceil(threads);
    let start = (lo + tid * chunk).min(hi);
    let end = (start + chunk).min(hi);
    (start, end)
}

/// Run a colour-major compiled order on `scratch.len()` OS threads.
///
/// `f(k, scratch, out)` processes work item `k` of the compiled order (a
/// unit of elements). Each colour span `color_off[c]..color_off[c+1]` of
/// items is split into one contiguous chunk per thread ([`chunk_range`]); a
/// barrier separates colours. Within a colour no two elements share a
/// scatter target, and every DOF receives at most one contribution per
/// colour, so the accumulation order per DOF is exactly the colour order —
/// the result is bitwise identical to a serial walk of the same compiled
/// order, at any thread count.
pub(crate) fn par_colored<S: Send>(
    out: &mut [f64],
    color_off: &[u32],
    scratch: &mut [S],
    f: impl Fn(usize, &mut S, &mut [f64]) + Sync,
) {
    let threads = scratch.len();
    if threads <= 1 {
        // Fully safe single-threaded path: the exclusive borrow is used
        // directly, no shared view is ever constructed.
        if let Some(sc) = scratch.first_mut() {
            for w in color_off.windows(2) {
                for pos in w[0] as usize..w[1] as usize {
                    f(pos, sc, out);
                }
            }
        }
        return;
    }
    let shared = &DisjointOut::new(out);
    let barrier = &std::sync::Barrier::new(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (tid, sc) in scratch.iter_mut().enumerate() {
            scope.spawn(move || {
                for w in color_off.windows(2) {
                    let (start, end) = chunk_range(w[0] as usize, w[1] as usize, threads, tid);
                    // SAFETY: threads take disjoint position ranges of this
                    // colour span and same-colour elements share no scatter
                    // targets (the compiled-colouring invariant, re-checked
                    // at build time), so concurrent writes through the
                    // claimed view never alias until the barrier.
                    let out = unsafe { shared.claim() };
                    for pos in start..end {
                        f(pos, sc, out);
                    }
                    // lint: allow(lock-block) — colour barrier over in-process
                    // scoped threads; no peer can be lost
                    barrier.wait();
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acoustic::AcousticOperator;
    use lts_mesh::HexMesh;

    #[test]
    fn greedy_coloring_is_conflict_free_and_list_invariant() {
        let mut m = HexMesh::uniform(4, 3, 2, 1.0, 1.0);
        m.paint_box((0, 2), (0, 3), (0, 2), 2.0, 1.0);
        let op = AcousticOperator::new(&m, 2);
        let elems: Vec<u32> = (0..m.n_elems() as u32).collect();
        let mut targets = |e: u32, out: &mut Vec<u32>| op.dofmap.elem_nodes(e, out);
        let coloring = ElementColoring::greedy(&elems, op.dofmap.n_nodes(), &mut targets);
        // conflict-free within every class
        let mut a = Vec::new();
        let mut b = Vec::new();
        for class in &coloring.classes {
            for (i, &e1) in class.iter().enumerate() {
                for &e2 in class.iter().skip(i + 1) {
                    op.dofmap.elem_nodes(e1, &mut a);
                    op.dofmap.elem_nodes(e2, &mut b);
                    assert!(a.iter().all(|d| !b.contains(d)), "{e1} vs {e2}");
                }
            }
        }
        let total: usize = coloring.classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, m.n_elems());
        // relabelling the targets does not change the classes: shift every
        // node id by a constant (same sharing pattern, different labels)
        let nn = op.dofmap.n_nodes();
        let mut shifted = |e: u32, out: &mut Vec<u32>| {
            op.dofmap.elem_nodes(e, out);
            for t in out.iter_mut() {
                *t = nn as u32 - 1 - *t;
            }
        };
        let relabelled = ElementColoring::greedy(&elems, nn, &mut shifted);
        assert_eq!(coloring.classes, relabelled.classes);
        // the corner path colours exactly like all ids
        let corners = ElementColoring::greedy_corners(&elems, nn, 3, &mut targets);
        assert_eq!(coloring.classes, corners.classes);
    }

    #[test]
    fn par_colored_partitions_every_colour_span() {
        // record which positions each thread count visits; all must see the
        // full range exactly once
        let color_off = [0u32, 5, 5, 12];
        for threads in [1usize, 2, 3, 7] {
            let mut hits = vec![0u32; 12];
            let mut out = vec![0.0; 12];
            let mut scratch = vec![(); threads];
            let cell = std::sync::Mutex::new(&mut hits);
            par_colored(&mut out, &color_off, &mut scratch, |pos, _sc, _out| {
                cell.lock().unwrap()[pos] += 1;
            });
            assert!(hits.iter().all(|&h| h == 1), "{threads} threads: {hits:?}");
        }
    }

    #[test]
    fn chunk_ranges_tile_span_without_overlap() {
        for (lo, hi) in [(0usize, 12usize), (3, 3), (5, 6), (0, 97)] {
            for threads in 1..=9usize {
                let mut seen = vec![0u32; hi];
                for tid in 0..threads {
                    let (s, e) = chunk_range(lo, hi, threads, tid);
                    assert!(lo <= s && s <= e && e <= hi);
                    for p in s..e {
                        seen[p] += 1;
                    }
                }
                for p in lo..hi {
                    assert_eq!(seen[p], 1, "pos {p} for {threads} threads on {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn flatten_is_colour_major() {
        let coloring = ElementColoring {
            classes: vec![vec![4, 2], vec![], vec![1, 3, 0]],
        };
        let (order, color_off) = coloring.flatten();
        assert_eq!(order, vec![4, 2, 1, 3, 0]);
        assert_eq!(color_off, vec![0, 2, 2, 5]);
    }
}
