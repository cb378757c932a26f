//! Transitive hot-path purity: any allocation or panic-capable construct
//! inside a function reachable from a hot root is a violation, no matter
//! how many calls deep.

use crate::graph::{BlameHop, FnId, Workspace};
use crate::parse::HitKind;
use crate::rules::{Diagnostic, RULE_HOT_PANIC, RULE_HOT_PATH};
use std::collections::BTreeMap;

pub(crate) fn check(
    ws: &Workspace,
    parents: &BTreeMap<FnId, Option<(FnId, usize)>>,
    diags: &mut Vec<Diagnostic>,
) {
    for &id in parents.keys() {
        let n = &ws.fns[id];
        for h in &n.f.hits {
            let (rule, verb) = match h.kind {
                HitKind::Alloc => (RULE_HOT_PATH, "allocates"),
                HitKind::Panic => (RULE_HOT_PANIC, "can panic"),
            };
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
                rule,
                format!(
                    "`{}` {verb} in `{}`, reachable from hot root `{root}`",
                    h.token,
                    ws.qualified(id)
                ),
            );
            d.chain = chain;
            diags.push(d);
        }
    }
}
