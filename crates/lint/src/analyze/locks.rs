//! Lock-and-block analysis over `crates/runtime/src/transport/`.
//!
//! Locks are identified structurally by the field name of the locked place
//! (`buf`, `bells`, …) — one name per lock *class*, which is exactly the
//! granularity a lock-order discipline is stated at. Two findings:
//!
//! * **lock-order**: a directed graph lock A → lock B is built from every
//!   "B acquired while A is held" site, both intra-function and through
//!   calls made with a guard live (using each callee's transitive
//!   acquisition set). Any cycle — including A → A re-entry — is a
//!   potential deadlock and is rejected.
//! * **lock-block**: an unbounded blocking site (`Condvar::wait` with no
//!   timeout, `recv`/`recv_into` with no deadline) reachable from a hot
//!   root turns a lost peer into a silent hang instead of a classified
//!   error; each one must be bounded or carry a justified allow.

use crate::graph::{BlameHop, FnId, Workspace};
use crate::parse::ParsedFile;
use crate::rules::{Diagnostic, RULE_LOCK_BLOCK, RULE_LOCK_ORDER};
use std::collections::{BTreeMap, BTreeSet};

const SCOPE: &str = "crates/runtime/src/transport/";

/// One witnessed lock-order edge: `from` was held when `to` was acquired.
struct Witness {
    file: String,
    line: usize,
    desc: String,
}

pub(crate) fn check(
    ws: &Workspace,
    files: &BTreeMap<String, ParsedFile>,
    hot_parents: &BTreeMap<FnId, Option<(FnId, usize)>>,
    diags: &mut Vec<Diagnostic>,
) {
    let in_scope: Vec<FnId> = (0..ws.fns.len())
        .filter(|&id| ws.fns[id].file.starts_with(SCOPE))
        .collect();
    let scoped: BTreeSet<FnId> = in_scope.iter().copied().collect();

    // transitive lock-acquisition set per scoped function (fixpoint)
    let mut acq: BTreeMap<FnId, BTreeSet<String>> = in_scope
        .iter()
        .map(|&id| {
            (
                id,
                ws.fns[id].f.locks.iter().map(|l| l.lock.clone()).collect(),
            )
        })
        .collect();
    loop {
        let mut changed = false;
        for e in &ws.edges {
            if !scoped.contains(&e.caller) || !scoped.contains(&e.callee) {
                continue;
            }
            let add: Vec<String> = acq[&e.callee].iter().cloned().collect();
            let set = acq.get_mut(&e.caller).expect("scoped caller");
            for l in add {
                changed |= set.insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // lock-order edges with a first witness each
    let mut order: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let mut witness = |from: &str, to: &str, file: &str, line: usize, desc: String| {
        order
            .entry((from.to_string(), to.to_string()))
            .or_insert(Witness {
                file: file.to_string(),
                line,
                desc,
            });
    };
    for &id in &in_scope {
        let n = &ws.fns[id];
        for (held, _held_line, acquired, acq_line) in &n.f.lock_edges {
            witness(
                held,
                acquired,
                n.file,
                *acq_line,
                format!(
                    "`{}` acquires `{acquired}` while holding `{held}`",
                    ws.qualified(id)
                ),
            );
        }
        for call in &n.f.calls {
            if call.holding.is_empty() {
                continue;
            }
            for e in ws
                .edges
                .iter()
                .filter(|e| e.caller == id && e.line == call.line && scoped.contains(&e.callee))
            {
                for held in &call.holding {
                    for inner in &acq[&e.callee] {
                        witness(
                            held,
                            inner,
                            n.file,
                            call.line,
                            format!(
                                "`{}` calls `{}` (which acquires `{inner}`) while holding `{held}`",
                                ws.qualified(id),
                                ws.qualified(e.callee)
                            ),
                        );
                    }
                }
            }
        }
    }

    // cycle detection: for each edge a→b, BFS b→…→a over the order graph
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (a, b) in order.keys().cloned().collect::<Vec<_>>() {
        let Some(path) = shortest_path(&order, &b, &a) else {
            continue;
        };
        // cycle nodes: a, then the b→…→a path
        let mut nodes: Vec<String> = vec![a.clone()];
        nodes.extend(path.iter().cloned());
        let mut canon: Vec<String> = nodes.clone();
        canon.sort();
        canon.dedup();
        if !reported.insert(canon) {
            continue;
        }
        let w = &order[&(a.clone(), b.clone())];
        let pf = files.get(&w.file);
        if pf.is_some_and(|pf| super::allowed(pf, w.line, RULE_LOCK_ORDER)) {
            continue;
        }
        // chain: one hop per edge of the cycle
        let mut chain = Vec::new();
        let mut prev = a.clone();
        for next in nodes.iter().skip(1) {
            if let Some(w) = order.get(&(prev.clone(), next.clone())) {
                chain.push(BlameHop {
                    file: w.file.clone(),
                    line: w.line,
                    what: w.desc.clone(),
                });
            }
            prev = next.clone();
        }
        let cycle_str = nodes.join(" -> ");
        let mut d = Diagnostic::new(
            &w.file,
            w.line,
            RULE_LOCK_ORDER,
            format!("lock-order cycle: {cycle_str} (potential deadlock)"),
        );
        d.chain = chain;
        diags.push(d);
    }

    // unbounded blocking reachable from the hot roots (the exchange loop)
    for &id in hot_parents.keys() {
        let n = &ws.fns[id];
        let Some(pf) = files.get(n.file) else {
            continue;
        };
        for w in &n.f.waits {
            if super::allowed(pf, w.line, RULE_LOCK_BLOCK) {
                continue;
            }
            let mut chain = ws.blame_chain(hot_parents, id);
            let root = chain.first().map_or_else(String::new, |r| r.what.clone());
            chain.push(BlameHop {
                file: n.file.to_string(),
                line: w.line,
                what: format!("`{}`", w.what),
            });
            let mut d = Diagnostic::new(
                n.file,
                w.line,
                RULE_LOCK_BLOCK,
                format!(
                    "`{}` blocks unboundedly in `{}`, reachable from hot root `{root}` — a lost peer hangs here instead of surfacing an error",
                    w.what,
                    ws.qualified(id)
                ),
            );
            d.chain = chain;
            diags.push(d);
        }
    }
}

/// Shortest node path `from → … → to` over the order graph (inclusive of
/// both endpoints), or `None`.
fn shortest_path(
    order: &BTreeMap<(String, String), Witness>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    let mut parent: BTreeMap<String, String> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    parent.insert(from.to_string(), String::new());
    queue.push_back(from.to_string());
    while let Some(u) = queue.pop_front() {
        if u == to {
            let mut path = vec![u.clone()];
            let mut cur = u;
            while let Some(p) = parent.get(&cur) {
                if p.is_empty() {
                    break;
                }
                path.push(p.clone());
                cur = p.clone();
            }
            path.reverse();
            return Some(path);
        }
        for (a, b) in order.keys() {
            if *a == u && !parent.contains_key(b) {
                parent.insert(b.clone(), u.clone());
                queue.push_back(b.clone());
            }
        }
    }
    None
}
