//! Hand-rolled workspace lint for the wave-LTS codebase: the properties
//! that need a call graph (see `DESIGN.md` §11 Semantic analysis).
//!
//! One pass over one parsed model: every governed file is scrubbed and
//! parsed once ([`parse`]), the parses become a symbol table and a
//! conservative call graph over every crate ([`graph`]), and the roots come
//! from one list, `lint/hotpaths.toml`. Every finding is an error. The
//! call-graph analyses report a blame chain (root → … → offending call):
//!
//! 1. **hot-path-alloc / hot-path-panic** — transitive purity: no
//!    allocation or panic-capable construct *reachable* from a hot root;
//! 2. **lock-order / lock-block** — the transport's Mutex/condvar pairs
//!    must be cycle-free and must not block unboundedly on the exchange
//!    path.
//!
//! What one file decides is the compiler's business: clippy carries the
//! no-panic, unsafe-documentation, float-compare and determinism rules
//! (`#![deny]` in the runtime and sem `lib.rs`, `crates/sem/clippy.toml`,
//! the `scripts/check.sh` legs), and the codec
//! (`crates/runtime/src/transport/codec.rs`) carries the wire contract in
//! exhaustive matches and its own tests.
//!
//! Per-line escape: `// lint: allow(<rule>) — <justification>`; the
//! justification is mandatory, an escape that suppresses no finding is
//! stale, and either is itself an error (`allow-audit`). Every allow is
//! counted in the summary.
//!
//! Run as `cargo xtask lint` (alias in `.cargo/config.toml`); CI runs it
//! from `scripts/check.sh`. Every run parses every governed file and
//! reports to the terminal only; it writes no file.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod cli;
pub mod config;
pub mod graph;
pub mod parse;
pub mod rules;
pub mod source;

use config::LintConfig;
use rules::Diagnostic;
use source::Scrubbed;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Driver options (what the CLI flags map to).
#[derive(Debug, Clone)]
pub struct Options {
    pub(crate) root: PathBuf,
    pub(crate) verbose: bool,
}

impl Options {
    pub fn new(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            verbose: false,
        }
    }
}

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub(crate) n_files: usize,
    pub n_fns: usize,
    pub n_edges: usize,
    /// `(rule, count)` of `// lint: allow(rule)` escapes in force.
    pub allows: BTreeMap<String, usize>,
    /// Every finding, sorted by (file, line, rule).
    pub diags: Vec<Diagnostic>,
    /// `--verbose` lines: resolved root sets, reach sizes.
    pub(crate) verbose_lines: Vec<String>,
}

/// Recursively collect the `.rs` files the lint governs: the root package's
/// `src/` and every `crates/*/src/`. `shims/` (offline stand-ins for
/// registry crates, not our code), `tests/`, `benches/` and `examples/`
/// trees are out of scope by construction.
pub(crate) fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path().join("src"))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        dirs.extend(members);
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Transitive workspace dependency map, crate key → crate keys it may call
/// into, from a line-oriented read of each `crates/*/Cargo.toml`. Only
/// `[dependencies]` count — test modules are already blanked, so
/// dev-dependency edges would only add noise.
pub(crate) fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    // package name -> crate key, and crate key -> direct dep package names
    let mut key_of: BTreeMap<String, String> = BTreeMap::new();
    let mut direct: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let crates = root.join("crates");
    let Ok(rd) = std::fs::read_dir(&crates) else {
        return BTreeMap::new();
    };
    for entry in rd.filter_map(|e| e.ok()) {
        let manifest = entry.path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let key = format!("crates/{}", entry.file_name().to_string_lossy());
        let mut section = String::new();
        let mut pkg_name = String::new();
        let mut deps = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(s) = line.strip_prefix('[') {
                section = s.trim_end_matches(']').to_string();
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                continue;
            };
            let k = k.trim();
            if section == "package" && k == "name" {
                pkg_name = v.trim().trim_matches('"').to_string();
            } else if section == "dependencies" {
                // `lts-core.workspace = true` or `lts-core = { path = … }`
                deps.push(k.split('.').next().unwrap_or(k).to_string());
            }
        }
        if !pkg_name.is_empty() {
            key_of.insert(pkg_name, key.clone());
        }
        direct.insert(key, deps);
    }
    // resolve package names to keys, then take the transitive closure
    let mut out: BTreeMap<String, BTreeSet<String>> = direct
        .iter()
        .map(|(key, deps)| {
            let set: BTreeSet<String> =
                deps.iter().filter_map(|d| key_of.get(d).cloned()).collect();
            (key.clone(), set)
        })
        .collect();
    loop {
        let mut grew = false;
        for key in out.keys().cloned().collect::<Vec<_>>() {
            let reach: BTreeSet<String> = out[&key]
                .iter()
                .flat_map(|d| out.get(d).cloned().unwrap_or_default())
                .collect();
            let set = out.get_mut(&key).unwrap();
            for r in reach {
                grew |= set.insert(r);
            }
        }
        if !grew {
            break;
        }
    }
    out
}

/// The parsed workspace: per-file facts and the crate dependencies the call
/// graph is built along ([`graph::Workspace::build_with_deps`], which
/// borrows every parsed function from `files`).
pub(crate) struct Model {
    pub(crate) cfg: LintConfig,
    /// Every governed file's parse, keyed by its root-relative path.
    pub(crate) files: BTreeMap<String, parse::ParsedFile>,
    /// Crate key → transitive workspace dependencies.
    pub(crate) deps: BTreeMap<String, BTreeSet<String>>,
}

/// Read, scrub and parse every workspace file, and read the crate
/// dependencies.
pub(crate) fn build_model(root: &Path) -> std::io::Result<Model> {
    let cfg_path = root.join(analyze::CONFIG_REL);
    let cfg_text = if cfg_path.is_file() {
        std::fs::read_to_string(&cfg_path)?
    } else {
        String::new()
    };
    let cfg = LintConfig::parse(&cfg_text).map_err(std::io::Error::other)?;
    let mut files = BTreeMap::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let s = Scrubbed::new(&std::fs::read_to_string(&file)?);
        files.insert(rel, parse::parse_file(&s));
    }
    Ok(Model {
        cfg,
        files,
        deps: crate_deps(root),
    })
}

/// Run the lint: every analysis, then the escapes and their audit.
pub fn run(opts: &Options) -> std::io::Result<Report> {
    let Model { cfg, files, deps } = build_model(&opts.root)?;
    let ws = graph::Workspace::build_with_deps(&files, deps);
    let mut report = Report {
        n_files: files.len(),
        n_fns: ws.fns.len(),
        n_edges: ws.edges.len(),
        ..Report::default()
    };

    let sem = analyze::run_semantic(&ws, &cfg);
    if opts.verbose {
        let roots: Vec<String> = sem
            .roots
            .hot
            .iter()
            .map(|&id| {
                let n = &ws.fns[id];
                format!("{} ({}:{})", ws.qualified(id), n.file, n.f.line)
            })
            .collect();
        report
            .verbose_lines
            .push(format!("hot roots: {}", roots.join(", ")));
        report.verbose_lines.push(format!(
            "reach: {} fns from hot roots; {} stops",
            sem.hot_reached,
            sem.roots.stops.len()
        ));
    }

    // escapes: an allow of a finding's rule that covers its line drops it
    let mut diags = sem.diags;
    let mut used: BTreeSet<(String, usize, &str)> = BTreeSet::new();
    diags.retain(|d| {
        let rel = d.file.to_string_lossy();
        let escape = files.get(rel.as_ref()).and_then(|pf| {
            pf.allows
                .iter()
                .find(|a| a.rule == d.rule && a.covers == d.line)
        });
        if let Some(a) = escape {
            used.insert((rel.into_owned(), a.line, d.rule));
        }
        escape.is_none()
    });

    // allow audit: count escapes, reject unknown-rule, unjustified and
    // stale ones
    for (rel, parsed) in &files {
        for a in &parsed.allows {
            *report.allows.entry(a.rule.clone()).or_default() += 1;
            let msg = if !rules::ALL_RULES.contains(&a.rule.as_str()) {
                format!("allow names unknown rule `{}`", a.rule)
            } else if !a.justified {
                format!(
                    "unjustified escape: `allow({})` needs a one-line reason after the closing paren",
                    a.rule
                )
            } else if !used.contains(&(rel.clone(), a.line, a.rule.as_str())) {
                format!(
                    "stale escape: `allow({})` suppresses no finding on line {}",
                    a.rule, a.covers
                )
            } else {
                continue;
            };
            diags.push(Diagnostic::new(rel, a.line, rules::RULE_ALLOW_AUDIT, msg));
        }
    }

    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags.dedup();
    report.diags = diags;

    Ok(report)
}
