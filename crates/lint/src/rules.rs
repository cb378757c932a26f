//! The diagnostic every analysis reports through, and the three rules
//! decided file by file.
//!
//! The per-file rules run in the same pass that parses a file for the call
//! graph: `no-panic` reads the parsed function bodies
//! (`ParsedFn::hits`), while
//! `unsafe-safety` and `float-eq` are token patterns over the `Scrubbed`
//! code view. All three honour the parser's one escape matcher,
//! `analyze::allowed`: a `// lint: allow(<rule>) — <reason>` comment
//! trailing the flagged line, or on the comment lines directly above it.

use crate::analyze;
use crate::parse::{is_ident, word_positions, HitKind, ParsedFile};
use crate::source::{line_of, Scrubbed};
use std::fmt;
use std::path::PathBuf;

pub(crate) const RULE_HOT_PATH: &str = "hot-path-alloc";
pub(crate) const RULE_NO_PANIC: &str = "no-panic";
pub(crate) const RULE_UNSAFE: &str = "unsafe-safety";
pub(crate) const RULE_FLOAT_EQ: &str = "float-eq";
pub(crate) const RULE_HOT_PANIC: &str = "hot-path-panic";
pub(crate) const RULE_DETERMINISM: &str = "determinism";
pub(crate) const RULE_LOCK_ORDER: &str = "lock-order";
pub(crate) const RULE_LOCK_BLOCK: &str = "lock-block";
pub(crate) const RULE_CONFIG: &str = "config";
pub(crate) const RULE_ALLOW_AUDIT: &str = "allow-audit";

/// Every rule an `// lint: allow(<rule>)` escape may name.
pub(crate) const ALL_RULES: &[&str] = &[
    RULE_HOT_PATH,
    RULE_NO_PANIC,
    RULE_UNSAFE,
    RULE_FLOAT_EQ,
    RULE_HOT_PANIC,
    RULE_DETERMINISM,
    RULE_LOCK_ORDER,
    RULE_LOCK_BLOCK,
    RULE_CONFIG,
    RULE_ALLOW_AUDIT,
];

/// Crates whose non-test code falls under the `no-panic` rule.
const NO_PANIC_SCOPES: &[&str] = &["crates/runtime/src", "crates/sem/src"];

/// The panic hits `no-panic` flags. The parser also records `assert!`,
/// `assert_eq!` and `assert_ne!` as panics (for `hot-path-panic`), but a
/// stated invariant is out of this rule's scope.
const NO_PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect()",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
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

/// Run the per-file rules over one file: `rel` is its workspace-relative
/// path (it scopes `no-panic`), `s` its scrubbed views and `pf` its parse.
pub(crate) fn check_file(rel: &str, s: &Scrubbed, pf: &ParsedFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if NO_PANIC_SCOPES.iter().any(|p| rel.starts_with(p)) {
        no_panic(rel, pf, &mut diags);
    }
    unsafe_safety(rel, s, pf, &mut diags);
    float_eq(rel, s, pf, &mut diags);
    diags
}

/// `no-panic`: no `unwrap`/`expect`/`panic!` family in the non-test code
/// of the scoped crates, reachable from a hot root or not.
fn no_panic(rel: &str, pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    for f in &pf.fns {
        for h in &f.hits {
            if h.kind == HitKind::Panic
                && NO_PANIC_TOKENS.contains(&h.token.as_str())
                && !analyze::allowed(pf, h.line, RULE_NO_PANIC)
            {
                diags.push(Diagnostic::new(
                    rel,
                    h.line,
                    RULE_NO_PANIC,
                    format!("`{}` in non-test code (return a Result instead)", h.token),
                ));
            }
        }
    }
}

/// Does the contiguous comment/attribute block directly above line
/// `line0` mention any of `markers`?
fn block_above_contains(
    code_lines: &[&str],
    comment_lines: &[&str],
    line0: usize,
    markers: &[&str],
) -> bool {
    let mut l = line0;
    while l > 0 {
        l -= 1;
        let code_t = code_lines.get(l).map_or("", |s| s.trim());
        let com_t = comment_lines.get(l).map_or("", |s| s.trim());
        if markers.iter().any(|m| com_t.contains(m)) {
            return true;
        }
        let is_attr = code_t.starts_with("#[") || code_t.starts_with("#![");
        let is_comment_only = code_t.is_empty() && !com_t.is_empty();
        if !(is_attr || is_comment_only) {
            return false; // blank line or unrelated code ends the block
        }
    }
    false
}

/// `unsafe-safety`: every `unsafe` must carry a justification. Blocks need a
/// `SAFETY:` comment on the same line or within the 5 lines above;
/// `unsafe fn`/`unsafe impl`/`unsafe trait` items accept a `Safety` section
/// anywhere in their attached doc block.
fn unsafe_safety(rel: &str, s: &Scrubbed, pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    let code_lines = s.code_lines();
    let comment_lines = s.comment_lines();
    let cs: Vec<char> = s.code.chars().collect();
    for pos in word_positions(&s.code, "unsafe") {
        let line0 = line_of(&s.code, pos) - 1;
        if analyze::allowed(pf, line0 + 1, RULE_UNSAFE) {
            continue;
        }
        // item or block?
        let mut j = pos + "unsafe".len();
        while j < cs.len() && cs[j].is_whitespace() {
            j += 1;
        }
        let rest: String = cs[j..cs.len().min(j + 6)].iter().collect();
        let is_item =
            rest.starts_with("fn") || rest.starts_with("impl") || rest.starts_with("trait");
        let justified = if is_item {
            block_above_contains(&code_lines, &comment_lines, line0, &["SAFETY", "Safety"])
        } else {
            let lo = line0.saturating_sub(5);
            (lo..=line0).any(|l| comment_lines.get(l).is_some_and(|c| c.contains("SAFETY")))
        };
        if !justified {
            diags.push(Diagnostic::new(
                rel,
                line0 + 1,
                RULE_UNSAFE,
                if is_item {
                    "`unsafe` item without a Safety section in its docs".into()
                } else {
                    "`unsafe` block without a preceding `// SAFETY:` comment".into()
                },
            ));
        }
    }
}

/// Is `tok` a float-typed token: a numeric literal with a `.` or exponent,
/// an `f64`/`f32` suffix, or an `f64::`/`f32::` associated const?
fn float_token(tok: &str) -> bool {
    if tok.is_empty() {
        return false;
    }
    if tok.starts_with("f64::") || tok.starts_with("f32::") {
        return true;
    }
    let c0 = tok.chars().next().unwrap_or(' ');
    if !c0.is_ascii_digit() {
        return false;
    }
    if tok.starts_with("0x") || tok.starts_with("0b") || tok.starts_with("0o") {
        return false;
    }
    tok.contains('.') || tok.contains("f64") || tok.contains("f32") || tok.contains('e')
}

/// `float-eq`: no `==`/`!=` against a float literal (compare `to_bits()`, use a
/// tolerance, or annotate an exact-zero guard with `lint: allow(float-eq)`).
/// Type inference is out of reach for this lint, so it flags the
/// decidable case: a floating-point *literal* (or `f64::` const) as either
/// operand.
fn float_eq(rel: &str, s: &Scrubbed, pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    for (line0, line) in s.code.lines().enumerate() {
        if line.contains(".to_bits()") {
            continue;
        }
        let cs: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i + 1 < cs.len() {
            let two: String = cs[i..i + 2].iter().collect();
            let is_cmp = (two == "==" || two == "!=")
                && (i == 0 || !matches!(cs[i - 1], '=' | '!' | '<' | '>' | '&' | '|'))
                && (i + 2 >= cs.len() || cs[i + 2] != '=');
            if is_cmp {
                // right operand token
                let mut r = i + 2;
                while r < cs.len() && cs[r] == ' ' {
                    r += 1;
                }
                if r < cs.len() && (cs[r] == '-' || cs[r] == '&') {
                    r += 1;
                }
                let rs = r;
                while r < cs.len() && (is_ident(cs[r]) || cs[r] == '.' || cs[r] == ':') {
                    r += 1;
                }
                let right: String = cs[rs..r].iter().collect();
                // left operand token
                let mut l = i;
                while l > 0 && cs[l - 1] == ' ' {
                    l -= 1;
                }
                let le = l;
                while l > 0 && (is_ident(cs[l - 1]) || cs[l - 1] == '.' || cs[l - 1] == ':') {
                    l -= 1;
                }
                let left: String = cs[l..le].iter().collect();
                if (float_token(&right) || float_token(&left))
                    && !analyze::allowed(pf, line0 + 1, RULE_FLOAT_EQ)
                {
                    diags.push(Diagnostic::new(
                        rel,
                        line0 + 1,
                        RULE_FLOAT_EQ,
                        format!(
                            "float `{two}` comparison against `{}`",
                            if float_token(&right) { &right } else { &left }
                        ),
                    ));
                }
                i += 2;
                continue;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags_for(src: &str, rule: &str) -> Vec<Diagnostic> {
        let s = Scrubbed::new(src);
        check_file("crates/sem/src/x.rs", &s, &crate::parse::parse_file(&s))
            .into_iter()
            .filter(|d| d.rule == rule)
            .collect()
    }

    #[test]
    fn unsafe_block_needs_safety_comment() {
        let bad = "fn f(p: *mut u8) { unsafe { *p = 0; } }\n";
        assert_eq!(diags_for(bad, RULE_UNSAFE).len(), 1);
        let good = "fn f(p: *mut u8) {\n    // SAFETY: p is valid\n    unsafe { *p = 0; }\n}\n";
        assert!(diags_for(good, RULE_UNSAFE).is_empty());
    }

    #[test]
    fn unsafe_item_accepts_doc_safety_section() {
        let good = "\
/// Does a thing.
///
/// # Safety
///
/// Caller promises the pointer is live.
unsafe fn f(p: *mut u8) { let _ = p; }
";
        assert!(diags_for(good, RULE_UNSAFE).is_empty());
        let bad = "unsafe fn f(p: *mut u8) { let _ = p; }\n";
        assert_eq!(diags_for(bad, RULE_UNSAFE).len(), 1);
    }

    /// The SIMD intrinsics idiom (`crates/sem/src/simd.rs`): a
    /// `#[target_feature]` kernel is an `unsafe fn` whose Safety section
    /// states the CPU-support precondition, and each dispatch call site
    /// carries a `// SAFETY:` comment citing the runtime detection. The
    /// attribute between docs and `unsafe fn` must not break doc-block
    /// attachment, and macro-generated bodies are scanned like any other.
    #[test]
    fn unsafe_target_feature_kernel_idiom() {
        let good = "\
/// Batched stiffness kernel.
///
/// # Safety
///
/// Caller must ensure the CPU supports this instruction set (runtime
/// dispatch via `is_x86_feature_detected!`).
#[target_feature(enable = \"avx2\")]
#[inline]
pub unsafe fn kernel(x: *const f64) { let _ = x; }

fn dispatch(x: *const f64, supported: bool) {
    if supported {
        // SAFETY: `supported` is the cached is_x86_feature_detected!
        // result for avx2, the only precondition `kernel` documents.
        unsafe { kernel(x) }
    }
}
";
        assert!(diags_for(good, RULE_UNSAFE).is_empty());
        // the attribute alone is not a justification: no Safety docs → diag
        let bad_fn = "\
#[target_feature(enable = \"avx2\")]
pub unsafe fn kernel(x: *const f64) { let _ = x; }
";
        assert_eq!(diags_for(bad_fn, RULE_UNSAFE).len(), 1);
        // a bare dispatch call without the SAFETY citation → diag
        let bad_call = "\
fn dispatch(x: *const f64, supported: bool) {
    if supported {
        unsafe { ext(x) }
    }
}
";
        assert_eq!(diags_for(bad_call, RULE_UNSAFE).len(), 1);
    }

    #[test]
    fn float_eq_literal_comparisons() {
        assert_eq!(
            diags_for("fn f(x: f64) -> bool { x == 0.0 }\n", RULE_FLOAT_EQ).len(),
            1
        );
        assert_eq!(
            diags_for("fn f(x: f64) -> bool { 1.5 != x }\n", RULE_FLOAT_EQ).len(),
            1
        );
        assert_eq!(
            diags_for(
                "fn f(x: f64) -> bool { x == f64::INFINITY }\n",
                RULE_FLOAT_EQ
            )
            .len(),
            1
        );
        // integers, to_bits, and annotated exact-zero guards pass
        assert!(diags_for("fn f(x: usize) -> bool { x == 0 }\n", RULE_FLOAT_EQ).is_empty());
        assert!(diags_for(
            "fn f(x: f64) -> bool { x.to_bits() == 0.0f64.to_bits() }\n",
            RULE_FLOAT_EQ
        )
        .is_empty());
        assert!(diags_for(
            "fn f(x: f64) -> bool {\n    // lint: allow(float-eq) — exact zero guard\n    x == 0.0\n}\n",
            RULE_FLOAT_EQ
        )
        .is_empty());
        // `<=`, `>=`, `=>`, `..=` must not trip the detector
        assert!(diags_for(
            "fn f(x: f64) -> bool { x <= 0.5 && x >= -1.0 }\n",
            RULE_FLOAT_EQ
        )
        .is_empty());
    }
}
