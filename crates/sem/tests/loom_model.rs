//! Exhaustive interleaving model of the `par_colored` executor protocol.
//!
//! The executor's soundness rests on one claim: *given a conflict-free
//! colouring, the chunked colour-major walk with a barrier between colours
//! never lets two threads write the same DOF without an intervening
//! synchronisation*. The crates.io `loom` model checker is the usual tool
//! for this; it is not available offline, so this test implements the same
//! idea directly — an explicit-state DFS over **all** thread interleavings
//! of an abstracted thread program.
//!
//! The abstraction keeps exactly the events that matter for the data-race
//! argument and drops everything else:
//!
//! * `Write(loc)` — a scatter store to global DOF `loc`;
//! * `Barrier`   — one `Barrier::wait()` call (the end-of-colour barrier).
//!
//! Crucially, the programs are built from the **real** building blocks the
//! executor uses: the colour-major `(order, color_off)` flattening of a real
//! [`ElementColoring`] and the exact [`chunk_range`] split `par_colored`
//! runs. The model is therefore not a re-implementation of the protocol but
//! a projection of it — if the split or the colouring were wrong, the model
//! would catch it (see the negative tests, which feed a deliberately
//! conflicting colouring and a mismatched barrier count).
//!
//! Race detection uses barrier *epochs*: two writes to the same location by
//! different threads race iff they happen in the same epoch (no barrier
//! between them). A write's epoch is the number of barriers preceding it in
//! its own program, which is schedule-independent — but the DFS still
//! enumerates every interleaving to prove the stronger properties that no
//! schedule deadlocks and every schedule executes every write exactly once.

use std::collections::BTreeSet;

use lts_mesh::HexMesh;
use lts_sem::parallel::{chunk_range, ElementColoring};
use lts_sem::DofMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Write(u32),
    Barrier,
}

/// What the exploration found across all interleavings.
#[derive(Debug, Default)]
struct Outcome {
    /// Distinct global states (program-counter vectors) visited.
    states: usize,
    /// `(loc, thread_a, thread_b)` same-epoch writes by different threads.
    races: Vec<(u32, usize, usize)>,
    /// Locations written twice by the *same* thread within one epoch
    /// (violates the one-contribution-per-DOF-per-colour invariant).
    duplicates: Vec<u32>,
    /// Some schedule reached a state with no enabled transition while a
    /// thread was still unfinished.
    deadlock: bool,
}

/// Build each thread's program exactly as `par_colored` would execute it:
/// per colour span, the `chunk_range` chunk of positions, each position
/// expanding to writes of its element's scatter targets, then one barrier.
fn build_programs(
    order: &[u32],
    color_off: &[u32],
    threads: usize,
    targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
) -> Vec<Vec<Op>> {
    let mut progs = vec![Vec::new(); threads];
    let mut buf = Vec::new();
    for (tid, prog) in progs.iter_mut().enumerate() {
        for w in color_off.windows(2) {
            let (s, e) = chunk_range(w[0] as usize, w[1] as usize, threads, tid);
            for &elem in &order[s..e] {
                targets_of(elem, &mut buf);
                for &t in &buf {
                    prog.push(Op::Write(t));
                }
            }
            prog.push(Op::Barrier);
        }
    }
    progs
}

/// DFS over every interleaving, memoised on the program-counter vector.
///
/// Memoisation is sound for race detection because the set of executed
/// writes — and each write's epoch — is a function of the pc vector alone,
/// so re-entering a visited state can reveal nothing new. Every write is
/// still *checked* at least once: the first complete path is never pruned.
fn explore(progs: &[Vec<Op>], n_locs: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut pcs = vec![0usize; progs.len()];
    let mut written: Vec<Option<(usize, usize)>> = vec![None; n_locs];
    let mut visited: BTreeSet<Vec<usize>> = BTreeSet::new();
    dfs(progs, &mut pcs, 0, &mut written, &mut visited, &mut out);
    out.states = visited.len();
    out
}

fn dfs(
    progs: &[Vec<Op>],
    pcs: &mut Vec<usize>,
    epoch: usize,
    written: &mut [Option<(usize, usize)>],
    visited: &mut BTreeSet<Vec<usize>>,
    out: &mut Outcome,
) {
    if !visited.insert(pcs.clone()) {
        return;
    }
    let mut moved = false;
    // Independent transitions: any thread whose next op is a write.
    for t in 0..progs.len() {
        if let Some(&Op::Write(loc)) = progs[t].get(pcs[t]) {
            moved = true;
            let prev = written[loc as usize];
            if let Some((e, t2)) = prev {
                if e == epoch {
                    if t2 != t {
                        out.races.push((loc, t2, t));
                    } else {
                        out.duplicates.push(loc);
                    }
                }
            }
            written[loc as usize] = Some((epoch, t));
            pcs[t] += 1;
            dfs(progs, pcs, epoch, written, visited, out);
            pcs[t] -= 1;
            written[loc as usize] = prev;
        }
    }
    // Barrier transition: `Barrier::new(threads)` releases only when every
    // thread calls `wait()`, so it is enabled only when *all* threads sit
    // at a barrier; it advances them together and opens a new epoch.
    if !moved {
        let all_at_barrier = (0..progs.len()).all(|t| progs[t].get(pcs[t]) == Some(&Op::Barrier));
        if all_at_barrier {
            for pc in pcs.iter_mut() {
                *pc += 1;
            }
            dfs(progs, pcs, epoch + 1, written, visited, out);
            for pc in pcs.iter_mut() {
                *pc -= 1;
            }
        } else if (0..progs.len()).any(|t| pcs[t] < progs[t].len()) {
            // No write enabled, not all at a barrier, someone unfinished:
            // a thread waits on a barrier that can never fill.
            out.deadlock = true;
        }
    }
}

/// Greedy-colour a full structured mesh over its element corners, as the
/// compiled gather lists do, and flatten it, returning the model inputs
/// plus the scatter-target closure's backing dofmap.
fn colored_mesh(nx: usize, ny: usize, nz: usize, order: usize) -> (DofMap, Vec<u32>, Vec<u32>) {
    let m = HexMesh::uniform(nx, ny, nz, 1.0, 1.0);
    let d = DofMap::new(&m, order);
    let elems: Vec<u32> = (0..d.n_elems() as u32).collect();
    let n_nodes = d.n_nodes();
    let mut targets = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
    let coloring = ElementColoring::greedy_corners(&elems, n_nodes, order + 1, &mut targets);
    let (order_list, color_off) = coloring.flatten();
    (d, order_list, color_off)
}

#[test]
fn real_coloring_two_threads_race_free() {
    let (d, order, color_off) = colored_mesh(3, 1, 1, 1);
    let mut targets = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
    let progs = build_programs(&order, &color_off, 2, &mut targets);
    let res = explore(&progs, d.n_nodes());
    assert!(res.races.is_empty(), "races: {:?}", res.races);
    assert!(
        res.duplicates.is_empty(),
        "duplicates: {:?}",
        res.duplicates
    );
    assert!(!res.deadlock);
    assert!(res.states > 1, "exploration degenerated to one state");
}

#[test]
fn real_coloring_three_threads_race_free() {
    // 2×2×1 at order 1: four elements all sharing the centre node — the
    // densest sharing a structured mesh produces. Three threads exercise
    // uneven chunking (spans of width 1 and 2 against 3 threads).
    let (d, order, color_off) = colored_mesh(2, 2, 1, 1);
    let mut targets = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
    let progs = build_programs(&order, &color_off, 3, &mut targets);
    let res = explore(&progs, d.n_nodes());
    assert!(res.races.is_empty(), "races: {:?}", res.races);
    assert!(
        res.duplicates.is_empty(),
        "duplicates: {:?}",
        res.duplicates
    );
    assert!(!res.deadlock);
}

#[test]
fn every_schedule_executes_every_write_once() {
    // The union of all chunk ranges is the full order, so across one run
    // each element is processed exactly once: total writes == Σ targets.
    let (d, order, color_off) = colored_mesh(2, 2, 1, 1);
    let mut targets = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
    for threads in 1..=4 {
        let progs = build_programs(&order, &color_off, threads, &mut targets);
        let writes: usize = progs
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Write(_)))
            .count();
        assert_eq!(
            writes,
            order.len() * d.nodes_per_elem(),
            "{threads} threads"
        );
        let barriers_per_thread: Vec<usize> = progs
            .iter()
            .map(|p| p.iter().filter(|op| **op == Op::Barrier).count())
            .collect();
        // one barrier per colour on every thread — the lock-step invariant
        assert!(barriers_per_thread
            .iter()
            .all(|&b| b == color_off.len() - 1));
    }
}

#[test]
fn conflicting_coloring_is_caught_as_a_race() {
    // Deliberately break the invariant: two face-adjacent elements (which
    // share a 2×2 node face at order 1) forced into the same colour. The
    // model must observe a same-epoch cross-thread write.
    let m = HexMesh::uniform(2, 1, 1, 1.0, 1.0);
    let d = DofMap::new(&m, 1);
    let broken = ElementColoring {
        classes: vec![vec![0, 1]],
    };
    let (order, color_off) = broken.flatten();
    let mut targets = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
    let progs = build_programs(&order, &color_off, 2, &mut targets);
    let res = explore(&progs, d.n_nodes());
    assert!(
        !res.races.is_empty(),
        "model failed to detect the seeded colouring conflict"
    );
    // the shared face has 4 nodes at order 1; each appears in some race
    let mut raced: Vec<u32> = res.races.iter().map(|r| r.0).collect();
    raced.sort_unstable();
    raced.dedup();
    assert_eq!(raced.len(), 4, "raced locations: {raced:?}");
}

#[test]
fn mismatched_barrier_counts_deadlock() {
    // A thread that skips its end-of-colour barrier starves the others:
    // `Barrier::new(threads)` never fills. The model reports deadlock.
    let progs = vec![
        vec![Op::Write(0), Op::Barrier],
        vec![Op::Write(1)], // missing barrier
    ];
    let res = explore(&progs, 2);
    assert!(res.deadlock);
    assert!(res.races.is_empty());
}
