//! Hand-rolled workspace lint for the wave-LTS codebase, motivated by
//! production incidents waiting to happen in a numerical hot loop (see
//! `DESIGN.md` §11 Semantic analysis).
//!
//! One pass over one parsed model: every governed file is scrubbed and
//! parsed once ([`parse`]), the parses become a symbol table and a
//! conservative call graph over every crate ([`graph`]), and the roots come
//! from one list, `lint/hotpaths.toml`. Every finding is an error. The
//! call-graph analyses report a blame chain (root → … → offending call):
//!
//! 1. **hot-path-alloc / hot-path-panic** — transitive purity: no
//!    allocation or panic-capable construct *reachable* from a hot root;
//! 2. **determinism** — no hash-order iteration, wall-clock reads, thread
//!    identity, or FMA/horizontal-reduction intrinsics reachable from the
//!    counter-gated kernels (the bitwise reproducibility contract);
//! 3. **lock-order / lock-block** — the transport's Mutex/condvar pairs
//!    must be cycle-free and must not block unboundedly on the exchange
//!    path;
//! 4. **protocol** — every `Frame`/`EventKind`/metric-id variant has
//!    encode+decode arms, and wire-shape changes bump `codec::VERSION`
//!    (checked against the committed fingerprint).
//!
//! Three rules are decided per file in the same pass ([`rules`]):
//! `no-panic` in runtime/sem (catches panics the call graph cannot prove
//! reachable), `unsafe-safety` and `float-eq`.
//!
//! Per-line escape: `// lint: allow(<rule>) — <justification>`; the
//! justification is mandatory (an unjustified allow is itself an error)
//! and every allow is counted in the summary.
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

/// FNV-1a 64-bit — content hashing for the wire fingerprint.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Driver options (what the CLI flags map to).
#[derive(Debug, Clone)]
pub struct Options {
    pub root: PathBuf,
    pub verbose: bool,
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
    pub n_files: usize,
    pub n_fns: usize,
    pub n_edges: usize,
    /// `(rule, count)` of `// lint: allow(rule)` escapes in force.
    pub allows: BTreeMap<String, usize>,
    /// Every finding, sorted by (file, line, rule).
    pub diags: Vec<Diagnostic>,
    /// `--verbose` lines: resolved root sets, reach sizes.
    pub verbose_lines: Vec<String>,
}

/// Recursively collect the `.rs` files the lint governs: the root package's
/// `src/` and every `crates/*/src/`. `shims/` (offline stand-ins for
/// registry crates, not our code), `tests/`, `benches/` and `examples/`
/// trees are out of scope by construction.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
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
pub fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
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

/// The parsed workspace: per-file facts plus the assembled call graph.
pub struct Model {
    pub cfg: LintConfig,
    /// Every governed file's parse, keyed by its root-relative path.
    pub files: BTreeMap<String, parse::ParsedFile>,
    /// Findings of the per-file rules ([`rules::check_file`]).
    pub file_diags: Vec<Diagnostic>,
    pub ws: graph::Workspace,
}

/// Read, scrub and parse every workspace file, run the per-file rules on
/// each, and build the call graph.
pub fn build_model(root: &Path) -> std::io::Result<Model> {
    let cfg_path = root.join(analyze::CONFIG_REL);
    let cfg_text = if cfg_path.is_file() {
        std::fs::read_to_string(&cfg_path)?
    } else {
        String::new()
    };
    let cfg = LintConfig::parse(&cfg_text).map_err(std::io::Error::other)?;
    let mut files = BTreeMap::new();
    let mut file_diags = Vec::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let s = Scrubbed::new(&std::fs::read_to_string(&file)?);
        let parsed = parse::parse_file(&s);
        file_diags.extend(rules::check_file(&rel, &s, &parsed));
        files.insert(rel, parsed);
    }
    let ws = graph::Workspace::build_with_deps(&files, crate_deps(root));
    Ok(Model {
        cfg,
        files,
        file_diags,
        ws,
    })
}

/// Run the lint: every analysis and every per-file rule, in one pass.
pub fn run(opts: &Options) -> std::io::Result<Report> {
    let model = build_model(&opts.root)?;
    let mut report = Report {
        n_files: model.files.len(),
        n_fns: model.ws.fns.len(),
        n_edges: model.ws.edges.len(),
        ..Report::default()
    };

    let sem = analyze::run_semantic(&opts.root, &model.ws, &model.cfg, &model.files);
    if opts.verbose {
        let names = |ids: &[graph::FnId]| -> Vec<String> {
            ids.iter()
                .map(|&id| {
                    format!(
                        "{} ({}:{})",
                        model.ws.qualified(id),
                        model.ws.fns[id].file,
                        model.ws.fns[id].f.line
                    )
                })
                .collect()
        };
        report
            .verbose_lines
            .push(format!("hot roots: {}", names(&sem.roots.hot).join(", ")));
        report.verbose_lines.push(format!(
            "kernel roots: {}",
            names(&sem.roots.kernels).join(", ")
        ));
        report.verbose_lines.push(format!(
            "reach: {} fns from hot roots, {} from kernel roots; {} stops",
            sem.hot_reached,
            sem.kernel_reached,
            sem.roots.stops.len()
        ));
    }
    // a `no-panic` site the reachability rule already reported with a
    // chain is not reported twice
    let hot_panics: BTreeSet<(PathBuf, usize)> = sem
        .diags
        .iter()
        .filter(|d| d.rule == rules::RULE_HOT_PANIC)
        .map(|d| (d.file.clone(), d.line))
        .collect();
    let mut diags = sem.diags;
    diags.extend(model.file_diags.into_iter().filter(|d| {
        d.rule != rules::RULE_NO_PANIC || !hot_panics.contains(&(d.file.clone(), d.line))
    }));

    // allow audit: count escapes, reject unjustified or unknown-rule ones
    for (rel, parsed) in &model.files {
        for a in &parsed.allows {
            *report.allows.entry(a.rule.clone()).or_default() += 1;
            if !rules::ALL_RULES.contains(&a.rule.as_str()) {
                diags.push(Diagnostic::new(
                    rel,
                    a.line,
                    rules::RULE_ALLOW_AUDIT,
                    format!("allow names unknown rule `{}`", a.rule),
                ));
            } else if !a.justified {
                diags.push(Diagnostic::new(
                    rel,
                    a.line,
                    rules::RULE_ALLOW_AUDIT,
                    format!(
                        "unjustified escape: `allow({})` needs a one-line reason after the closing paren",
                        a.rule
                    ),
                ));
            }
        }
    }

    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags.dedup();
    report.diags = diags;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_stable() {
        // pinned: the wire fingerprint depends on these values
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
