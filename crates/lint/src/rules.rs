//! The rule names and the diagnostic every analysis reports through.

use std::fmt;
use std::path::PathBuf;

pub(crate) const RULE_HOT_PATH: &str = "hot-path-alloc";
pub(crate) const RULE_HOT_PANIC: &str = "hot-path-panic";
pub(crate) const RULE_LOCK_ORDER: &str = "lock-order";
pub(crate) const RULE_LOCK_BLOCK: &str = "lock-block";
pub(crate) const RULE_CONFIG: &str = "config";
pub(crate) const RULE_ALLOW_AUDIT: &str = "allow-audit";

/// Every rule an `// lint: allow(<rule>)` escape may name.
pub(crate) const ALL_RULES: &[&str] = &[
    RULE_HOT_PATH,
    RULE_HOT_PANIC,
    RULE_LOCK_ORDER,
    RULE_LOCK_BLOCK,
    RULE_CONFIG,
    RULE_ALLOW_AUDIT,
];

/// One violation, printable as `path:line: [rule] message`. Call-graph
/// diagnostics additionally carry a blame chain (root -> ... -> offender).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
    pub chain: Vec<crate::graph::BlameHop>,
}

impl Diagnostic {
    pub(crate) fn new(
        file: impl Into<PathBuf>,
        line: usize,
        rule: &'static str,
        msg: String,
    ) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            msg,
            chain: Vec::new(),
        }
    }

    /// Render the blame chain as indented continuation lines.
    pub(crate) fn render_chain(&self) -> String {
        if self.chain.is_empty() {
            return String::new();
        }
        let hops: Vec<String> = self
            .chain
            .iter()
            .map(|h| format!("{} ({}:{})", h.what, h.file, h.line))
            .collect();
        format!("    blame: {}", hops.join(" -> "))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}
