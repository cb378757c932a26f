//! Item-level parsing of one Rust source file into the facts the semantic
//! analyses consume: function items with impl context, call sites, construct
//! hits (allocation / panic / determinism), lock acquisitions
//! with held-lock context, and blocking-wait sites.
//!
//! `syn` is unavailable offline, so this is a purpose-built structural
//! parser over the `Scrubbed` code view (comments, strings and
//! `#[cfg(test)] mod` regions already blanked). It is *conservative*: it
//! never needs to type-check, only to over-approximate — a call site it
//! cannot resolve precisely becomes an edge to every same-name candidate
//! (see `graph.rs`), and a construct it cannot prove cold is reported.
//! The known soundness holes (function pointers, trait objects dispatched
//! outside the workspace, macro-expanded calls from foreign macros) are
//! documented in DESIGN.md §11.

use crate::source::{line_of, Scrubbed};

/// What a construct hit means to the analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HitKind {
    /// Heap allocation on a hot path (`Vec::new`, `format!`, `.clone()`, …).
    Alloc,
    /// Panic-capable construct (`unwrap`, `panic!`, `assert!`, …).
    Panic,
    /// Run-nondeterminism hazard (`HashMap` iteration order, `Instant::now`,
    /// FMA / horizontal-reduction intrinsics, thread identity).
    Det,
}

/// One construct occurrence inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct Hit {
    pub(crate) kind: HitKind,
    /// The matched token, for the diagnostic message.
    pub(crate) token: String,
    /// 1-based line.
    pub(crate) line: usize,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// Written path: `"helper"`, `"Vec::new"`, `"Self::load"`; for method
    /// calls, just the method name.
    pub(crate) path: String,
    /// `true` for `.name(…)` receiver syntax.
    pub(crate) method: bool,
    /// 1-based line.
    pub(crate) line: usize,
    /// Lock names held (structurally) when the call is made.
    pub(crate) holding: Vec<String>,
}

/// A lock acquisition (`lock(&x.y)` helper or `x.y.lock()`).
#[derive(Debug, Clone)]
pub(crate) struct LockAcq {
    /// Lock identity: the last path segment of the locked place (`buf`,
    /// `bells`) — field names identify the lock class.
    pub(crate) lock: String,
}

/// A potentially-unbounded blocking site.
#[derive(Debug, Clone)]
pub(crate) struct Wait {
    /// What blocks: `"Condvar::wait"`, `"recv()"`, `"recv_into"`, or
    /// `"recv_into_timeout(None)"`.
    pub(crate) what: &'static str,
    pub(crate) line: usize,
}

/// One function item.
#[derive(Debug, Clone)]
pub(crate) struct ParsedFn {
    pub(crate) name: String,
    /// Enclosing `impl` target (or trait for default methods), if any.
    pub(crate) impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub(crate) line: usize,
    /// Carries `#[cold]` — treated as a terminal error path by the hot-path
    /// purity analysis.
    pub(crate) is_cold: bool,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) hits: Vec<Hit>,
    pub(crate) locks: Vec<LockAcq>,
    /// `(held lock, held-at line, acquired lock, acquired-at line)` — an
    /// intra-function lock-order edge.
    pub(crate) lock_edges: Vec<(String, usize, String, usize)>,
    pub(crate) waits: Vec<Wait>,
}

/// One `// lint: allow(rule) — justification` escape.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    pub(crate) rule: String,
    /// 1-based line the comment sits on.
    pub(crate) line: usize,
    /// 1-based line the escape covers: the comment's own line when it
    /// trails code, else the first code line after the comment block.
    pub(crate) covers: usize,
    /// `true` when text follows the `allow(rule)` beyond punctuation.
    pub(crate) justified: bool,
}

/// Everything the analyses need from one file.
#[derive(Debug, Clone, Default)]
pub(crate) struct ParsedFile {
    pub(crate) fns: Vec<ParsedFn>,
    pub(crate) allows: Vec<Allow>,
}

pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Method names that heap-allocate when called on owned/borrowed data.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "clone",
    "collect",
    "to_string",
    "to_owned",
    "with_capacity",
];

/// Path heads whose `::new` / `::from` / `::with_capacity` allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Methods that can panic.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that panic (`debug_assert*` compiles out of release builds and is
/// deliberately not listed).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Method names that are construct hits at their call site. Calls through
/// them never become graph edges: `.clone()` on a hot path is flagged where
/// it happens, and linking every workspace `clone`/`unwrap` impl to every
/// such call would only multiply the same finding.
pub(crate) fn is_leaf_method(name: &str) -> bool {
    ALLOC_METHODS.contains(&name) || PANIC_METHODS.contains(&name)
}

/// Identifier keywords that look like `name(` but are not calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "in", "as", "let", "mut", "ref", "move", "return", "break",
    "continue", "loop", "else", "unsafe", "dyn", "where", "fn", "impl", "pub", "use", "mod",
    "struct", "enum", "trait", "const", "static", "type",
];

/// An active lock guard during the body walk.
struct Guard {
    var: Option<String>,
    lock: String,
    line: usize,
    /// Brace depth at which the guard was bound; falling below releases it.
    depth: i32,
}

/// Span of one `impl` block: target type name and body char range.
struct ImplSpan {
    target: String,
    body: std::ops::Range<usize>,
}

/// Find `impl` blocks and their target type. Handles `impl<T> Type {`,
/// `impl Trait for Type {` and nested generic arguments.
fn impl_spans(cs: &[char]) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    let code: String = cs.iter().collect();
    for start in word_positions(&code, "impl") {
        let mut j = start + 4;
        // skip generic parameter list
        skip_ws(cs, &mut j);
        if j < cs.len() && cs[j] == '<' {
            let mut angle = 0i32;
            while j < cs.len() {
                match cs[j] {
                    '<' => angle += 1,
                    '>' => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // header text up to body `{` at angle depth 0
        let header_start = j;
        let mut angle = 0i32;
        let mut open = None;
        while j < cs.len() {
            match cs[j] {
                '<' => angle += 1,
                '>' if angle > 0 => angle -= 1,
                '{' if angle == 0 => {
                    open = Some(j);
                    break;
                }
                ';' if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let header: String = cs[header_start..open].iter().collect();
        // `A for B` → B; else the first path segment chain
        let target_text = match header.find(" for ") {
            Some(p) => &header[p + 5..],
            None => &header[..],
        };
        let target: String = target_text
            .trim()
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if target.is_empty() {
            continue;
        }
        let close = match_brace(cs, open);
        out.push(ImplSpan {
            target,
            body: open..close,
        });
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or `cs.len()`).
fn match_brace(cs: &[char], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < cs.len() {
        match cs[k] {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    cs.len()
}

fn skip_ws(cs: &[char], j: &mut usize) {
    while *j < cs.len() && cs[*j].is_whitespace() {
        *j += 1;
    }
}

/// Word-boundary occurrences of `word` (char offsets).
pub(crate) fn word_positions(text: &str, word: &str) -> Vec<usize> {
    let cs: Vec<char> = text.chars().collect();
    let w: Vec<char> = word.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + w.len() <= cs.len() {
        if cs[i..i + w.len()] == w[..]
            && (i == 0 || !is_ident(cs[i - 1]))
            && (i + w.len() == cs.len() || !is_ident(cs[i + w.len()]))
        {
            out.push(i);
        }
        i += 1;
    }
    out
}

/// Raw function item: name + header line + body span, before impl
/// attribution and body scanning.
struct RawFn {
    name: String,
    fn_pos: usize,
    body: std::ops::Range<usize>,
}

fn raw_fns(code: &str, cs: &[char]) -> Vec<RawFn> {
    let mut out = Vec::new();
    for start in word_positions(code, "fn") {
        let mut j = start + 2;
        skip_ws(cs, &mut j);
        let name_start = j;
        while j < cs.len() && is_ident(cs[j]) {
            j += 1;
        }
        if j == name_start {
            continue; // `Fn(...)` trait sugar or `fn` pointer type
        }
        let name: String = cs[name_start..j].iter().collect();
        // find the body `{` at paren/bracket depth 0 (skipping `where`
        // clauses, which contain no braces) or `;` for bodyless items
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut open = None;
        while j < cs.len() {
            match cs[j] {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '<' => angle += 1,
                '>' if angle > 0 => angle -= 1,
                '{' if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ';' if depth == 0 && angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        out.push(RawFn {
            name,
            fn_pos: start,
            body: open..match_brace(cs, open),
        });
    }
    out
}

/// Does the attribute block above (or on the `fn` line itself) carry
/// `#[attr]`?
fn has_attr_above(code_lines: &[&str], fn_line0: usize, attr: &str) -> bool {
    let needle = format!("#[{attr}]");
    // the attribute may share the fn line (`#[cold] fn f…`)
    if code_lines
        .get(fn_line0)
        .is_some_and(|l| l.contains(&needle))
    {
        return true;
    }
    let mut l = fn_line0;
    while l > 0 {
        l -= 1;
        let t = code_lines.get(l).map_or("", |s| s.trim());
        if t.contains(&needle) {
            return true;
        }
        if !(t.starts_with("#[") || t.is_empty()) {
            return false;
        }
    }
    false
}

/// Scan the comments view for `lint: allow(rule)` escapes.
fn scan_allows(s: &Scrubbed) -> Vec<Allow> {
    let mut out = Vec::new();
    let code_lines: Vec<&str> = s.code.lines().collect();
    // an allow trailing code covers its own line; an allow on a comment-only
    // line (possibly one of several) covers the next line carrying code
    let covers_of = |line0: usize| -> usize {
        if code_lines.get(line0).is_some_and(|l| !l.trim().is_empty()) {
            return line0 + 1;
        }
        for (j, l) in code_lines.iter().enumerate().skip(line0 + 1) {
            if !l.trim().is_empty() {
                return j + 1;
            }
        }
        line0 + 1
    };
    for (line0, line) in s.comments.lines().enumerate() {
        // doc comments (`///`, `//!`) describe the syntax, they don't use it
        let t = line.trim_start();
        if t.starts_with("///") || t.starts_with("//!") {
            continue;
        }
        let mut from = 0;
        while let Some(p) = line[from..].find("lint: allow(") {
            let at = from + p + "lint: allow(".len();
            let rest = &line[at..];
            let rule: String = rest
                .chars()
                .take_while(|&c| is_ident(c) || c == '-')
                .collect();
            from = at;
            if rule.is_empty() {
                continue;
            }
            let Some(close) = rest.find(')') else {
                continue;
            };
            // prose mentioning the escape syntax (`allow(<rule>)`) is not an
            // escape; require the rule to start at the paren
            if !rest.starts_with(&rule) {
                continue;
            }
            let tail = rest[close + 1..].trim_matches(|c: char| {
                c.is_whitespace() || matches!(c, '—' | '-' | '–' | ':' | '.')
            });
            out.push(Allow {
                rule,
                line: line0 + 1,
                covers: covers_of(line0),
                justified: tail.chars().filter(|c| c.is_alphanumeric()).count() >= 3,
            });
        }
    }
    out
}

/// Walk one body span, extracting calls, hits, locks and waits.
#[allow(clippy::too_many_lines)]
fn walk_body(
    code: &str,
    cs: &[char],
    span: std::ops::Range<usize>,
    skip: &[std::ops::Range<usize>],
    f: &mut ParsedFn,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = span.start;
    while i < span.end {
        // skip nested fn items (attributed to their own ParsedFn)
        if let Some(r) = skip.iter().find(|r| r.start == i) {
            i = r.end;
            continue;
        }
        let c = cs[i];
        match c {
            '{' => {
                depth += 1;
                i += 1;
                continue;
            }
            '}' => {
                depth -= 1;
                // leaving a block drops every guard declared inside it
                guards.retain(|g| g.depth <= depth);
                i += 1;
                continue;
            }
            _ => {}
        }
        if !is_ident(c) || c.is_ascii_digit() {
            i += 1;
            continue;
        }
        // read a path: ident(::ident)*
        let path_start = i;
        let mut j = i;
        let mut segs: Vec<String> = Vec::new();
        loop {
            let s0 = j;
            while j < span.end && is_ident(cs[j]) {
                j += 1;
            }
            segs.push(cs[s0..j].iter().collect());
            if j + 1 < span.end && cs[j] == ':' && cs[j + 1] == ':' {
                let mut k = j + 2;
                if k < span.end && cs[k] == '<' {
                    // turbofish: skip the generic args, then expect `(`
                    let mut angle = 0i32;
                    while k < span.end {
                        match cs[k] {
                            '<' => angle += 1,
                            '>' => {
                                angle -= 1;
                                if angle == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    j = k;
                    break;
                }
                if k < span.end && is_ident(cs[k]) && !cs[k].is_ascii_digit() {
                    j = k;
                    continue;
                }
            }
            break;
        }
        let line = line_of(code, path_start);
        let name = segs.last().cloned().unwrap_or_default();
        let full_path = segs.join("::");
        let single_keyword = segs.len() == 1 && KEYWORDS.contains(&name.as_str());
        // look ahead: macro bang or call parens?
        let mut k = j;
        skip_ws(cs, &mut k);
        let is_macro = k < span.end && cs[k] == '!';
        let is_call = !is_macro && k < span.end && cs[k] == '(' && !single_keyword;
        // method call if the path is preceded by `.`
        let mut b = path_start;
        while b > span.start && cs[b - 1].is_whitespace() {
            b -= 1;
        }
        let is_method = b > span.start && cs[b - 1] == '.' && segs.len() == 1;

        if is_macro {
            if ALLOC_MACROS.contains(&name.as_str()) {
                f.hits.push(Hit {
                    kind: HitKind::Alloc,
                    token: format!("{name}!"),
                    line,
                });
            } else if PANIC_MACROS.contains(&name.as_str()) {
                f.hits.push(Hit {
                    kind: HitKind::Panic,
                    token: format!("{name}!"),
                    line,
                });
            }
            i = j;
            continue;
        }

        // determinism hazards fire on any appearance, call or not:
        // HashMap/HashSet types, time sources, thread identity, FMA and
        // horizontal-reduction intrinsics
        match name.as_str() {
            "HashMap" | "HashSet" => f.hits.push(Hit {
                kind: HitKind::Det,
                token: name.clone(),
                line,
            }),
            _ => {
                let fp = full_path.as_str();
                if fp == "Instant::now"
                    || fp == "SystemTime::now"
                    || fp == "thread::current"
                    || fp.ends_with("available_parallelism")
                    || name == "mul_add"
                    || name.contains("fmadd")
                    || name.contains("fmsub")
                    || name.contains("hadd")
                    || name.contains("reduce_add")
                {
                    f.hits.push(Hit {
                        kind: HitKind::Det,
                        token: full_path.clone(),
                        line,
                    });
                }
            }
        }

        if is_call {
            // allocation / panic construct hits
            if is_method && ALLOC_METHODS.contains(&name.as_str()) {
                // `.collect()` `.clone()` … on a receiver
                f.hits.push(Hit {
                    kind: HitKind::Alloc,
                    token: format!(".{name}()"),
                    line,
                });
            } else if segs.len() >= 2
                && ALLOC_TYPES.contains(&segs[segs.len() - 2].as_str())
                && matches!(name.as_str(), "new" | "from" | "with_capacity")
                && full_path != "Arc::clone"
                && full_path != "Rc::clone"
            {
                f.hits.push(Hit {
                    kind: HitKind::Alloc,
                    token: full_path.clone(),
                    line,
                });
            }
            if is_method && PANIC_METHODS.contains(&name.as_str()) {
                f.hits.push(Hit {
                    kind: HitKind::Panic,
                    token: format!(".{name}()"),
                    line,
                });
            }

            // blocking-wait sites
            if is_method && name == "wait" {
                f.waits.push(Wait {
                    what: "Condvar::wait (no timeout)",
                    line,
                });
            }
            if is_method && matches!(name.as_str(), "recv" | "recv_into") {
                f.waits.push(Wait {
                    what: if name == "recv" {
                        "recv() (no timeout)"
                    } else {
                        "recv_into (no timeout)"
                    },
                    line,
                });
            }
            if is_method && name == "recv_into_timeout" {
                // unbounded only when literally passed `None`
                let arg_end = paren_end(cs, k, span.end);
                let args: String = cs[k..arg_end].iter().collect();
                if args.contains("None") {
                    f.waits.push(Wait {
                        what: "recv_into_timeout(None)",
                        line,
                    });
                }
            }

            // lock acquisitions
            let lockname = if name == "lock" && !is_method && segs.len() == 1 {
                // helper form: lock(&x.y)
                let arg_end = paren_end(cs, k, span.end);
                let args: String = cs[k + 1..arg_end.saturating_sub(1)].iter().collect();
                last_segment(&args)
            } else if name == "lock" && is_method {
                // x.y.lock(): walk the receiver back from the dot
                let r = b - 1; // at '.'
                let mut e = r;
                while e > span.start && (is_ident(cs[e - 1]) || cs[e - 1] == '.') {
                    e -= 1;
                }
                let recv: String = cs[e..r].iter().collect();
                last_segment(&recv)
            } else {
                None
            };
            if let Some(lockname) = lockname {
                for g in &guards {
                    f.lock_edges
                        .push((g.lock.clone(), g.line, lockname.clone(), line));
                }
                f.locks.push(LockAcq {
                    lock: lockname.clone(),
                });
                // bound to a guard variable? `let [mut] g = [... ] lock(...)`
                if let Some(var) = binding_var(cs, span.start, path_start) {
                    guards.push(Guard {
                        var: Some(var),
                        lock: lockname,
                        line,
                        depth,
                    });
                }
                i = j;
                continue;
            }

            // guard release: drop(g)
            if name == "drop" && segs.len() == 1 && !is_method {
                let arg_end = paren_end(cs, k, span.end);
                let arg: String = cs[k + 1..arg_end.saturating_sub(1)].iter().collect();
                let arg = arg.trim().to_string();
                guards.retain(|g| g.var.as_deref() != Some(arg.as_str()));
            }

            // the call edge itself
            f.calls.push(CallSite {
                path: full_path,
                method: is_method,
                line,
                holding: guards.iter().map(|g| g.lock.clone()).collect(),
            });
        }
        i = j.max(path_start + 1);
    }
}

/// Char index one past the `)` closing the paren at `open`.
fn paren_end(cs: &[char], open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < limit {
        match cs[k] {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    limit
}

/// Last `.`-separated identifier segment of a place expression, e.g.
/// `&ring.buf` → `buf`.
fn last_segment(place: &str) -> Option<String> {
    let cleaned: String = place
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .chars()
        .take_while(|&c| is_ident(c) || c == '.' || c == ':')
        .collect();
    let seg = cleaned.rsplit(['.', ':']).find(|s| !s.is_empty())?;
    if seg.chars().all(is_ident) && !seg.is_empty() {
        Some(seg.to_string())
    } else {
        None
    }
}

/// If the call starting at `call_start` is the RHS of `let [mut] v = …`,
/// return `v`. Scans back across one `=` not part of `==`/`>=` etc.
fn binding_var(cs: &[char], lo: usize, call_start: usize) -> Option<String> {
    let mut k = call_start;
    // allow an expression prefix on the RHS like `match ring.buf.lock()`;
    // walk back to the start of the statement (a `;`, `{` or `}`)
    while k > lo && !matches!(cs[k - 1], ';' | '{' | '}') {
        k -= 1;
    }
    let stmt: String = cs[k..call_start].iter().collect();
    let t = stmt.trim_start();
    let t = t.strip_prefix("let ")?;
    let t = t.trim_start().trim_start_matches("mut ").trim_start();
    let var: String = t.chars().take_while(|&c| is_ident(c)).collect();
    let rest = &t[var.len()..];
    if var.is_empty() || !rest.trim_start().starts_with('=') {
        return None;
    }
    Some(var)
}

/// Parse one scrubbed file into analysis facts.
pub(crate) fn parse_file(s: &Scrubbed) -> ParsedFile {
    let cs: Vec<char> = s.code.chars().collect();
    let code_lines: Vec<&str> = s.code.lines().collect();
    let impls = impl_spans(&cs);
    let raws = raw_fns(&s.code, &cs);
    let mut out = ParsedFile {
        allows: scan_allows(s),
        ..ParsedFile::default()
    };
    for (idx, r) in raws.iter().enumerate() {
        let fn_line0 = line_of(&s.code, r.fn_pos) - 1;
        let impl_type = impls
            .iter()
            .filter(|im| im.body.start < r.fn_pos && r.fn_pos < im.body.end)
            .min_by_key(|im| im.body.end - im.body.start)
            .map(|im| im.target.clone());
        let mut f = ParsedFn {
            name: r.name.clone(),
            impl_type,
            line: fn_line0 + 1,
            is_cold: has_attr_above(&code_lines, fn_line0, "cold"),
            calls: Vec::new(),
            hits: Vec::new(),
            locks: Vec::new(),
            lock_edges: Vec::new(),
            waits: Vec::new(),
        };
        // immediate nested fn items are excluded from this body's walk
        let nested: Vec<std::ops::Range<usize>> = raws
            .iter()
            .enumerate()
            .filter(|(k, o)| *k != idx && r.body.start < o.body.start && o.body.end <= r.body.end)
            .map(|(_, o)| o.body.clone())
            .collect();
        walk_body(&s.code, &cs, r.body.clone(), &nested, &mut f);
        out.fns.push(f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&Scrubbed::new(src))
    }

    #[test]
    fn finds_fns_with_impl_context() {
        let p = parse("struct A;\nimpl A {\n    fn m(&self) {}\n}\nfn free() {}\nimpl Clone for A {\n    fn clone(&self) -> A { A }\n}\n");
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(names[0], ("m".into(), Some("A".into())));
        assert_eq!(names[1], ("free".into(), None));
        assert_eq!(names[2], ("clone".into(), Some("A".into())));
    }

    #[test]
    fn extracts_calls_free_method_and_path() {
        let p = parse("fn f() { helper(1); x.method(2); Vec::with_capacity(3); Self::load(p); }\n");
        let calls: Vec<(&str, bool)> = p.fns[0]
            .calls
            .iter()
            .map(|c| (c.path.as_str(), c.method))
            .collect();
        assert!(calls.contains(&("helper", false)));
        assert!(calls.contains(&("method", true)));
        assert!(calls.contains(&("Self::load", false)));
        // Vec::with_capacity is an alloc hit, and also a call edge
        assert!(p.fns[0]
            .hits
            .iter()
            .any(|h| h.kind == HitKind::Alloc && h.token == "Vec::with_capacity"));
    }

    #[test]
    fn alloc_and_panic_hits_with_lines() {
        let src = "fn f(v: &[f64], o: Option<u32>) {\n    let a = v.to_vec();\n    let b: Vec<u32> = it.collect();\n    o.unwrap();\n    assert!(a.len() > 0);\n    let s = format!(\"x\");\n}\n";
        let p = parse(src);
        let h = &p.fns[0].hits;
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Alloc && x.token == ".to_vec()" && x.line == 2));
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Alloc && x.token == ".collect()" && x.line == 3));
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Panic && x.token == ".unwrap()" && x.line == 4));
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Panic && x.token == "assert!" && x.line == 5));
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Alloc && x.token == "format!" && x.line == 6));
    }

    #[test]
    fn turbofish_collect_is_a_hit() {
        let p = parse("fn f() { let v = (0..4).collect::<Vec<u32>>(); }\n");
        assert!(p.fns[0]
            .hits
            .iter()
            .any(|x| x.kind == HitKind::Alloc && x.token == ".collect()"));
    }

    #[test]
    fn determinism_hits() {
        let src = "fn f() {\n    let m: HashMap<u32, u32> = make();\n    let t = Instant::now();\n    let z = a.mul_add(b, c);\n}\n";
        let p = parse(src);
        let h = &p.fns[0].hits;
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Det && x.token == "HashMap" && x.line == 2));
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Det && x.token == "Instant::now"));
        assert!(h
            .iter()
            .any(|x| x.kind == HitKind::Det && x.token == "mul_add"));
    }

    #[test]
    fn lock_edges_and_guard_release() {
        let src = "\
fn f(a: &M, b: &M) {
    let ga = lock(&a.buf);
    let gb = lock(&b.bells);
    drop(ga);
    let gc = lock(&a.third);
}
";
        let p = parse(src);
        let e = &p.fns[0].lock_edges;
        assert!(e.iter().any(|(l, _, m, _)| l == "buf" && m == "bells"));
        // after drop(ga) only gb is held when third is taken
        assert!(e.iter().any(|(l, _, m, _)| l == "bells" && m == "third"));
        assert!(!e.iter().any(|(l, _, m, _)| l == "buf" && m == "third"));
    }

    #[test]
    fn method_lock_and_held_calls() {
        let src = "fn f(s: &S) {\n    let g = s.inner.lock();\n    helper(1);\n}\n";
        let p = parse(src);
        assert!(p.fns[0].locks.iter().any(|l| l.lock == "inner"));
        let call = p.fns[0].calls.iter().find(|c| c.path == "helper").unwrap();
        assert_eq!(call.holding, vec!["inner".to_string()]);
    }

    #[test]
    fn temporary_guard_does_not_hold() {
        let p = parse("fn f(d: &D) { lock(&d.bells).push_back(1); helper(); }\n");
        let call = p.fns[0].calls.iter().find(|c| c.path == "helper").unwrap();
        assert!(call.holding.is_empty());
    }

    #[test]
    fn wait_sites() {
        let src = "\
fn f(cv: &Condvar, g: G, rx: &Rx, t: &mut T, buf: &mut Vec<f64>) {
    let g = cv.wait(g);
    let m = rx.recv();
    let b = t.recv_into(buf);
    let c = t.recv_into_timeout(buf, None);
    let d = t.recv_into_timeout(buf, Some(dur));
    let e = cv.wait_timeout(g, dur);
}
";
        let p = parse(src);
        let whats: Vec<&str> = p.fns[0].waits.iter().map(|w| w.what).collect();
        assert_eq!(
            whats,
            vec![
                "Condvar::wait (no timeout)",
                "recv() (no timeout)",
                "recv_into (no timeout)",
                "recv_into_timeout(None)"
            ]
        );
    }

    #[test]
    fn cold_attribute_is_detected() {
        let src = "\
#[cold]
fn cold_fn() {}

#[inline]
fn warm_fn() {}
";
        let p = parse(src);
        assert!(p.fns[0].is_cold);
        assert!(!p.fns[1].is_cold);
    }

    #[test]
    fn allows_with_and_without_justification() {
        let src = "fn f() {\n    // lint: allow(no-panic) — structural invariant, cannot fail\n    x.unwrap();\n    // lint: allow(float-eq)\n    y == 0.0;\n}\n";
        let p = parse(src);
        assert_eq!(p.allows.len(), 2);
        assert!(p.allows[0].justified);
        assert_eq!(p.allows[0].rule, "no-panic");
        assert!(!p.allows[1].justified);
    }

    #[test]
    fn nested_fn_bodies_not_double_attributed() {
        let src = "fn outer() {\n    fn inner() { x.unwrap(); }\n    inner();\n}\n";
        let p = parse(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.hits.is_empty(), "{:?}", outer.hits);
        assert_eq!(inner.hits.len(), 1);
        assert!(outer.calls.iter().any(|c| c.path == "inner"));
    }

    #[test]
    fn match_arm_patterns_do_not_hit() {
        // `Some(x)` / `Bell::Msg(from)` in patterns look like calls but must
        // not produce construct hits (they resolve to nothing in the graph)
        let p = parse("fn f(b: Bell) { match b { Bell::Msg(from) => use_it(from), _ => {} } }\n");
        assert!(p.fns[0].hits.is_empty());
        assert!(p.fns[0].calls.iter().any(|c| c.path == "Bell::Msg"));
    }
}
