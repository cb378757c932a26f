//! Lexical preprocessing: split a Rust source file into a *code* view and a
//! *comment* view with identical line structure.
//!
//! The parser reads tokens, so the one thing that must be exact is knowing
//! what is code and what is not: a `.unwrap()` inside a string literal or a
//! doc comment is not a hit, and a `// lint: allow(…)` escape lives in
//! comment text. Instead of a full parser (the usual
//! tool, `syn`, is not available offline) this module runs a small lexer
//! that understands exactly the constructs that matter:
//!
//! * line comments `//…` and (nested) block comments `/* … */`;
//! * string literals, byte strings, raw strings `r#"…"#` with any number of
//!   hashes, and their escapes;
//! * character literals vs. lifetimes (`'x'` vs `'a`);
//! * `#[cfg(test)] mod … { … }` regions, which are blanked entirely — the
//!   analyses cover non-test code only.
//!
//! Both views preserve every newline, so a char offset in either maps to
//! the same line number as in the original file.

/// A source file split into code and comment views of identical shape.
#[derive(Debug)]
pub(crate) struct Scrubbed {
    /// Comments blanked, string/char literal *contents* blanked (delimiters
    /// kept), test regions blanked.
    pub(crate) code: String,
    /// Everything except comment text blanked (test regions too).
    pub(crate) comments: String,
}

impl Scrubbed {
    pub(crate) fn new(src: &str) -> Scrubbed {
        let mut s = scrub(src);
        blank_test_regions(&mut s);
        s
    }
}

pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Push `c` to whichever view is active, a space to the other; newlines go
/// to both so line structure is shared.
fn emit(code: &mut String, comments: &mut String, c: char, to_code: bool) {
    if c == '\n' {
        code.push('\n');
        comments.push('\n');
    } else if to_code {
        code.push(c);
        comments.push(' ');
    } else {
        code.push(' ');
        comments.push(c);
    }
}

fn scrub(src: &str) -> Scrubbed {
    let cs: Vec<char> = src.chars().collect();
    let n = cs.len();
    let mut code = String::with_capacity(src.len());
    let mut comments = String::with_capacity(src.len());
    let mut i = 0;
    while i < n {
        let c = cs[i];
        // line comment (also covers `///` and `//!` doc comments)
        if c == '/' && i + 1 < n && cs[i + 1] == '/' {
            while i < n && cs[i] != '\n' {
                emit(&mut code, &mut comments, cs[i], false);
                i += 1;
            }
            continue;
        }
        // nested block comment
        if c == '/' && i + 1 < n && cs[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if i + 1 < n && cs[i] == '/' && cs[i + 1] == '*' {
                    depth += 1;
                    emit(&mut code, &mut comments, '/', false);
                    emit(&mut code, &mut comments, '*', false);
                    i += 2;
                } else if i + 1 < n && cs[i] == '*' && cs[i + 1] == '/' {
                    depth -= 1;
                    emit(&mut code, &mut comments, '*', false);
                    emit(&mut code, &mut comments, '/', false);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    emit(&mut code, &mut comments, cs[i], false);
                    i += 1;
                }
            }
            continue;
        }
        // raw string r"…", r#"…"#, br#"…"# (only when not an identifier tail)
        if (c == 'r' || c == 'b') && (i == 0 || !is_ident(cs[i - 1])) {
            let mut j = i + 1;
            if c == 'b' && j < n && cs[j] == 'r' {
                j += 1;
            }
            let is_r = c == 'r' || (c == 'b' && j > i + 1);
            let hash_start = j;
            while is_r && j < n && cs[j] == '#' {
                j += 1;
            }
            let hashes = j - hash_start;
            if is_r && j < n && cs[j] == '"' {
                // prefix and opening quote stay in the code view
                for &c in &cs[i..=j] {
                    emit(&mut code, &mut comments, c, true);
                }
                i = j + 1;
                // contents blanked until `"` followed by `hashes` hashes
                'raw: while i < n {
                    if cs[i] == '"' {
                        let mut h = 0;
                        while h < hashes && i + 1 + h < n && cs[i + 1 + h] == '#' {
                            h += 1;
                        }
                        if h == hashes {
                            for &c in &cs[i..=i + hashes] {
                                emit(&mut code, &mut comments, c, true);
                            }
                            i += hashes + 1;
                            break 'raw;
                        }
                    }
                    emit(&mut code, &mut comments, cs[i], false);
                    i += 1;
                }
                continue;
            }
        }
        // plain / byte string
        if c == '"' {
            emit(&mut code, &mut comments, '"', true);
            i += 1;
            while i < n {
                if cs[i] == '\\' && i + 1 < n {
                    // an escaped newline (string continuation) must keep its
                    // newline in both views or every later line number shifts
                    for k in 0..2 {
                        let c = if cs[i + k] == '\n' { '\n' } else { ' ' };
                        emit(&mut code, &mut comments, c, true);
                    }
                    i += 2;
                } else if cs[i] == '"' {
                    emit(&mut code, &mut comments, '"', true);
                    i += 1;
                    break;
                } else {
                    emit(&mut code, &mut comments, cs[i], false);
                    i += 1;
                }
            }
            continue;
        }
        // char literal vs lifetime: `'\…'` or `'x'` is a literal, else `'a`
        if c == '\'' && i + 1 < n {
            let lit = cs[i + 1] == '\\' || (i + 2 < n && cs[i + 1] != '\'' && cs[i + 2] == '\'');
            if lit {
                emit(&mut code, &mut comments, '\'', true);
                i += 1;
                while i < n {
                    if cs[i] == '\\' && i + 1 < n {
                        for k in 0..2 {
                            let c = if cs[i + k] == '\n' { '\n' } else { ' ' };
                            emit(&mut code, &mut comments, c, true);
                        }
                        i += 2;
                    } else if cs[i] == '\'' {
                        emit(&mut code, &mut comments, '\'', true);
                        i += 1;
                        break;
                    } else {
                        emit(&mut code, &mut comments, cs[i], false);
                        i += 1;
                    }
                }
                continue;
            }
        }
        emit(&mut code, &mut comments, c, true);
        i += 1;
    }
    Scrubbed { code, comments }
}

/// Blank every `#[cfg(test)] mod … { … }` region in both views. Operates on
/// the already-scrubbed code so braces inside strings/comments are gone.
fn blank_test_regions(s: &mut Scrubbed) {
    let code: Vec<char> = s.code.chars().collect();
    let mut comments: Vec<char> = s.comments.chars().collect();
    let mut out = code.clone();
    let mut i = 0;
    let n = code.len();
    let pat: Vec<char> = "#[cfg(test)]".chars().collect();
    while i < n {
        if code[i] == '#' && code[i..].starts_with(&pat[..]) {
            let attr_start = i;
            let mut j = i + pat.len();
            // allow further attributes / whitespace before the item
            loop {
                while j < n && code[j].is_whitespace() {
                    j += 1;
                }
                if j < n && code[j] == '#' {
                    while j < n && code[j] != '\n' {
                        j += 1;
                    }
                } else {
                    break;
                }
            }
            // only whole `mod` regions are blanked; `#[cfg(test)]` on other
            // items (a use, a helper fn) is left for the parser to see
            let is_mod = code[j..].starts_with(&"mod ".chars().collect::<Vec<_>>()[..])
                || code[j..].starts_with(&"pub mod ".chars().collect::<Vec<_>>()[..]);
            if is_mod {
                while j < n && code[j] != '{' && code[j] != ';' {
                    j += 1;
                }
                if j < n && code[j] == '{' {
                    let mut depth = 0usize;
                    while j < n {
                        if code[j] == '{' {
                            depth += 1;
                        } else if code[j] == '}' {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                    for k in attr_start..j.min(n) {
                        if out[k] != '\n' {
                            out[k] = ' ';
                        }
                        if comments[k] != '\n' {
                            comments[k] = ' ';
                        }
                    }
                    i = j;
                    continue;
                }
            }
        }
        i += 1;
    }
    s.code = out.into_iter().collect();
    s.comments = comments.into_iter().collect();
}

/// 1-based line number of char offset `pos` in `text`.
pub(crate) fn line_of(text: &str, pos: usize) -> usize {
    text.chars().take(pos).filter(|&c| c == '\n').count() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated() {
        let s = Scrubbed::new("let x = \"a.unwrap()\"; // SAFETY: fine\n");
        assert!(!s.code.contains("unwrap"));
        assert!(!s.code.contains("SAFETY"));
        assert!(s.comments.contains("SAFETY: fine"));
        assert!(s.code.contains("let x ="));
    }

    #[test]
    fn nested_block_comments() {
        let s = Scrubbed::new("a /* x /* y */ z */ b\n");
        assert_eq!(s.code.trim(), "a                   b".trim());
        assert!(s.comments.contains('y'));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let s = Scrubbed::new("let j = r#\"panic!(\" inside \")\"#; let k = 1;\n");
        assert!(!s.code.contains("panic"));
        assert!(s.code.contains("let k = 1"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let s = Scrubbed::new("fn f<'a>(x: &'a str) -> char { '\\'' }\n");
        assert!(s.code.contains("<'a>"));
        assert!(s.code.contains("&'a str"));
        let s2 = Scrubbed::new("let c = '{'; let d = 0;\n");
        assert!(!s2.code.contains('{'), "brace literal must be blanked");
        assert!(s2.code.contains("let d = 0"));
    }

    #[test]
    fn test_mod_is_blanked() {
        let src = "fn real() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn after() {}\n";
        let s = Scrubbed::new(src);
        assert!(s.code.contains("x.unwrap()"));
        assert!(!s.code.contains("y.unwrap()"));
        assert!(s.code.contains("fn after"));
        // line structure preserved
        assert_eq!(s.code.lines().count(), src.lines().count());
    }

    #[test]
    fn escaped_quote_in_string() {
        let s = Scrubbed::new("let a = \"he said \\\"hi\\\" ok\"; let b = 2;\n");
        assert!(s.code.contains("let b = 2"));
        assert!(!s.code.contains("hi"));
    }

    #[test]
    fn string_continuation_keeps_line_structure() {
        // regression: `"a \<newline>b"` used to emit a space for the escaped
        // newline, collapsing a line and shifting every later diagnostic —
        // a per-line rule then fired on `==` text sitting in doc comments and raw
        // strings because it read the wrong line.
        let src = "let s = \"a \\\n   b\";\n/// doc: x == 1.0 here\nlet t = r\"y == 2.0\";\nlet bad = x == 1.0;\n";
        let s = Scrubbed::new(src);
        assert_eq!(s.code.lines().count(), src.lines().count());
        // the real comparison is still on line 5 of the code view
        let code_lines: Vec<&str> = s.code.lines().collect();
        assert!(code_lines[4].contains("== 1.0"), "{code_lines:?}");
        assert!(
            !code_lines[2].contains("=="),
            "doc comment leaked into code"
        );
        assert!(
            !code_lines[3].contains("2.0"),
            "raw string leaked into code"
        );
    }

    #[test]
    fn line_numbers() {
        let t = "a\nb\nc";
        assert_eq!(line_of(t, 0), 1);
        assert_eq!(line_of(t, 2), 2);
        assert_eq!(line_of(t, 4), 3);
    }
}
