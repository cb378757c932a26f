//! Determinism lint: constructs whose result depends on hash order, wall
//! clock, thread identity, or contracted floating-point (FMA / horizontal
//! reductions) must not be reachable from the counter-gated kernels — they
//! would break the bitwise SIMD/threads/transport reproducibility contract
//! the BENCH gates rely on.

use crate::graph::{BlameHop, FnId, Workspace};
use crate::parse::{HitKind, ParsedFile};
use crate::rules::{Diagnostic, RULE_DETERMINISM};
use std::collections::BTreeMap;

pub(crate) fn check(
    ws: &Workspace,
    files: &BTreeMap<String, ParsedFile>,
    parents: &BTreeMap<FnId, Option<(FnId, usize)>>,
    diags: &mut Vec<Diagnostic>,
) {
    for &id in parents.keys() {
        let n = &ws.fns[id];
        let Some(pf) = files.get(n.file) else {
            continue;
        };
        for h in &n.f.hits {
            if h.kind != HitKind::Det {
                continue;
            }
            if super::allowed(pf, h.line, RULE_DETERMINISM) {
                continue;
            }
            let mut chain = ws.blame_chain(parents, id);
            let root = chain.first().map_or_else(String::new, |r| r.what.clone());
            chain.push(BlameHop {
                file: n.file.to_string(),
                line: h.line,
                what: format!("`{}`", h.token),
            });
            let mut d = Diagnostic::new(
                n.file,
                h.line,
                RULE_DETERMINISM,
                format!(
                    "`{}` is run-nondeterministic in `{}`, reachable from kernel root `{root}`",
                    h.token,
                    ws.qualified(id)
                ),
            );
            d.chain = chain;
            diags.push(d);
        }
    }
}
