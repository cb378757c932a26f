//! Shared command-line driver for the `lts-lint` binary and the
//! `cargo xtask lint` alias. Parses flags, runs the requested mode, prints
//! the human report, and returns the process exit code.

use crate::{build_model, run, Options};
use std::path::PathBuf;

pub(crate) const HELP: &str = "\
lts-lint — call-graph lint for the wave-LTS workspace

One pass over one parsed model of the workspace: the call-graph analyses
(hot-path-alloc, hot-path-panic, lock-order, lock-block) from the roots
in lint/hotpaths.toml. Every finding is an error. Panics outside the hot
paths, unsafe documentation, float compares and determinism are clippy's
(see scripts/check.sh).

USAGE:
    lts-lint [FLAGS]
    cargo xtask lint [FLAGS]

FLAGS:
    --root <dir>        workspace root (default: this source tree's root)
    --mode <mode>       check            run the lint (default)
                        graph-dump       print the call graph and verify it
                                         round-trips through its own parser
    --verbose           print resolved root sets and reachability sizes
    --help              this text

EXIT STATUS:
    0 no findings; 1 any finding, or the lint could not run;
    2 usage error (unknown flag or mode, missing value).

ESCAPES:
    // lint: allow(<rule>) — <one-line justification>
    trailing the offending line, or on the comment lines directly above it.
    The justification is mandatory, an escape that suppresses no finding
    is an error (allow-audit), and every allow is counted in the summary.
    Roots and traversal stops live only in lint/hotpaths.toml
    ([[hotpath]], [[exclude]] + reason).
";

/// Default root: two levels above this crate's manifest.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Parse `args` (without the program/task name) and run. Returns the exit
/// code.
pub fn main(args: &[String]) -> i32 {
    let mut opts = Options::new(default_root());
    let mut mode = "check".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> {
            inline.clone().or_else(|| it.next().cloned())
        };
        match flag {
            "--help" | "-h" => {
                print!("{HELP}");
                return 0;
            }
            "--root" => match value(&mut it) {
                Some(v) => opts.root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--mode" => match value(&mut it) {
                Some(v) => mode = v,
                None => return usage_error("--mode needs a value"),
            },
            "--verbose" | "-v" => opts.verbose = true,
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    match mode.as_str() {
        "check" => run_check(&opts),
        "graph-dump" => run_graph_dump(&opts),
        other => usage_error(&format!("unknown mode `{other}` (check|graph-dump)")),
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("lts-lint: {msg}\n\n{HELP}");
    2
}

fn run_check(opts: &Options) -> i32 {
    match run(opts) {
        Ok(report) => {
            for line in &report.verbose_lines {
                eprintln!("lint: {line}");
            }
            for d in &report.diags {
                eprintln!("{d}");
                let chain = d.render_chain();
                if !chain.is_empty() {
                    eprintln!("{chain}");
                }
            }
            let n_allows: usize = report.allows.values().sum();
            let allow_detail = if n_allows == 0 {
                String::new()
            } else {
                let per: Vec<String> = report
                    .allows
                    .iter()
                    .map(|(r, n)| format!("{r}×{n}"))
                    .collect();
                format!(" ({})", per.join(", "))
            };
            eprintln!(
                "lint: {} files, {} fns, {} call edges; {} finding(s), {} allow(s){}",
                report.n_files,
                report.n_fns,
                report.n_edges,
                report.diags.len(),
                n_allows,
                allow_detail
            );
            i32::from(!report.diags.is_empty())
        }
        Err(e) => {
            eprintln!("lint: {e}");
            1
        }
    }
}

/// `print!` panics on EPIPE (e.g. `lts-lint --mode graph-dump | head`);
/// a closed downstream reader is a normal way to consume a dump.
fn print_ignoring_pipe(text: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn run_graph_dump(opts: &Options) -> i32 {
    match build_model(&opts.root) {
        Ok(model) => {
            let ws = crate::graph::Workspace::build_with_deps(&model.files, model.deps);
            print_ignoring_pipe(&ws.dump());
            match ws.dump_round_trips() {
                Ok(()) => {
                    eprintln!(
                        "graph-dump: {} nodes, {} edges, round-trip ok",
                        ws.fns.len(),
                        ws.edges.len()
                    );
                    0
                }
                Err(e) => {
                    eprintln!("graph-dump: round-trip FAILED: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("graph-dump: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(main(&args(&["--tier", "lexer"])), 2);
        assert_eq!(main(&args(&["--root"])), 2);
        assert_eq!(main(&args(&["--mode", "nope"])), 2);
        assert_eq!(main(&args(&["--mode", "wire-fingerprint"])), 2);
        assert_eq!(main(&args(&["--no-cache"])), 2);
        assert_eq!(main(&args(&["--sarif", "x"])), 2);
    }
}
