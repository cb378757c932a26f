//! The semantic analyses over the workspace model: root-set validation,
//! transitive hot-path purity, determinism, and lock-and-block. Each
//! produces [`Diagnostic`]s carrying a blame chain
//! (root → … → offending construct) where a chain exists.

pub mod determinism;
pub mod hotpath;
pub mod locks;

use crate::config::LintConfig;
use crate::graph::{FnId, Workspace};
use crate::parse::ParsedFile;
use crate::rules::{Diagnostic, RULE_CONFIG};
use std::collections::{BTreeMap, BTreeSet};

/// Policy file path, workspace-relative (where stale-entry blame points).
pub(crate) const CONFIG_REL: &str = "lint/hotpaths.toml";

/// The resolved root sets after config validation.
#[derive(Debug, Default)]
pub(crate) struct Roots {
    pub(crate) hot: Vec<FnId>,
    pub(crate) kernels: Vec<FnId>,
    /// Traversal stops: `#[cold]` functions plus `[[exclude]]` entries.
    pub(crate) stops: BTreeSet<FnId>,
}

/// Is there an `// lint: allow(rule)` escape covering `line` in this file?
/// An escape covers the line it trails, or — written on its own comment
/// line(s) — the next line carrying code.
pub(crate) fn allowed(pf: &ParsedFile, line: usize, rule: &str) -> bool {
    pf.allows.iter().any(|a| a.rule == rule && a.covers == line)
}

/// Validate every `hotpaths.toml` entry against the symbol table and build
/// the root sets. A stale entry (no such function anymore) is an error —
/// today it would silently un-gate a hot path.
pub(crate) fn validate_config(
    ws: &Workspace,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) -> Roots {
    let mut roots = Roots::default();
    let mut resolve_list = |entries: &[(String, String)],
                            lines: &[usize],
                            what: &str|
     -> Vec<FnId> {
        let mut ids = Vec::new();
        for (i, (file, func)) in entries.iter().enumerate() {
            let found = ws.lookup(file, func);
            if found.is_empty() {
                diags.push(Diagnostic::new(
                    CONFIG_REL,
                    lines.get(i).copied().unwrap_or(1),
                    RULE_CONFIG,
                    format!("stale {what} entry: no function `{func}` in `{file}` (renamed or removed?)"),
                ));
            }
            ids.extend(found);
        }
        ids
    };
    roots.hot = resolve_list(&cfg.hot, &cfg.hot_lines, "[[hotpath]]");
    roots.kernels = resolve_list(&cfg.kernels, &cfg.kernel_lines, "[[kernel]]");
    let excl_entries: Vec<(String, String)> = cfg
        .excludes
        .iter()
        .map(|(f, g, _)| (f.clone(), g.clone()))
        .collect();
    let excl_ids = resolve_list(&excl_entries, &cfg.exclude_lines, "[[exclude]]");
    roots.stops.extend(excl_ids);
    roots
        .stops
        .extend((0..ws.fns.len()).filter(|&id| ws.fns[id].f.is_cold));
    roots.hot.sort_unstable();
    roots.hot.dedup();
    roots
}

/// Run every call-graph analysis. Returns the diagnostics plus the reached
/// sets (for `--verbose` reporting).
pub(crate) struct SemanticRun {
    pub(crate) diags: Vec<Diagnostic>,
    pub(crate) roots: Roots,
    pub(crate) hot_reached: usize,
    pub(crate) kernel_reached: usize,
}

pub(crate) fn run_semantic(
    ws: &Workspace,
    cfg: &LintConfig,
    files: &BTreeMap<String, ParsedFile>,
) -> SemanticRun {
    let mut diags = Vec::new();
    let roots = validate_config(ws, cfg, &mut diags);
    let hot_parents = ws.reach(&roots.hot, &roots.stops);
    hotpath::check(ws, files, &hot_parents, &mut diags);
    let kernel_parents = ws.reach(&roots.kernels, &roots.stops);
    determinism::check(ws, files, &kernel_parents, &mut diags);
    locks::check(ws, files, &hot_parents, &mut diags);
    SemanticRun {
        diags,
        roots,
        hot_reached: hot_parents.len(),
        kernel_reached: kernel_parents.len(),
    }
}
