//! SARIF 2.1.0 output for CI annotation, hand-rolled (no JSON dependency
//! exists offline) plus a small strict JSON syntax checker used to
//! self-validate every file we emit — a malformed SARIF artifact would
//! silently break CI ingestion, so `check.sh`'s artifact is verified at
//! write time.

use crate::rules::Diagnostic;
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn location(file: &str, line: usize) -> String {
    format!(
        "{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}",
        esc(file),
        line.max(1)
    )
}

/// Render `diags` as a SARIF 2.1.0 log with one run. Blame chains become
/// `relatedLocations`, root-first.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    let rules_json: Vec<String> = rules
        .iter()
        .map(|r| format!("{{\"id\":\"{}\"}}", esc(r)))
        .collect();
    let results: Vec<String> = diags
        .iter()
        .map(|d| {
            let related: Vec<String> = d
                .chain
                .iter()
                .map(|h| {
                    format!(
                        "{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}},\"message\":{{\"text\":\"{}\"}}}}",
                        esc(&h.file),
                        h.line.max(1),
                        esc(&h.what)
                    )
                })
                .collect();
            let related = if related.is_empty() {
                String::new()
            } else {
                format!(",\"relatedLocations\":[{}]", related.join(","))
            };
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\"locations\":[{}]{}}}",
                esc(d.rule),
                esc(&d.msg),
                location(&d.file.to_string_lossy(), d.line),
                related
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"lts-lint\",\"informationUri\":\"https://example.invalid/lts-lint\",\"version\":\"{}\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}\n",
        env!("CARGO_PKG_VERSION"),
        rules_json.join(","),
        results.join(",")
    )
}

/// Strict JSON syntax check (structure only, no data model). Returns the
/// byte offset of the first error.
pub fn validate_json(text: &str) -> Result<(), String> {
    let b: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    fn ws(b: &[char], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], ' ' | '\t' | '\n' | '\r') {
            *i += 1;
        }
    }
    fn value(b: &[char], i: &mut usize) -> Result<(), String> {
        ws(b, i);
        let Some(&c) = b.get(*i) else {
            return Err(format!("offset {}: unexpected end of input", i));
        };
        match c {
            '{' => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    ws(b, i);
                    string(b, i)?;
                    ws(b, i);
                    if b.get(*i) != Some(&':') {
                        return Err(format!("offset {}: expected ':'", i));
                    }
                    *i += 1;
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(',') => *i += 1,
                        Some('}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("offset {}: expected ',' or '}}'", i)),
                    }
                }
            }
            '[' => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(',') => *i += 1,
                        Some(']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("offset {}: expected ',' or ']'", i)),
                    }
                }
            }
            '"' => string(b, i),
            't' => lit(b, i, "true"),
            'f' => lit(b, i, "false"),
            'n' => lit(b, i, "null"),
            '-' | '0'..='9' => {
                *i += 1;
                while *i < b.len() && matches!(b[*i], '0'..='9' | '.' | 'e' | 'E' | '+' | '-') {
                    *i += 1;
                }
                Ok(())
            }
            c => Err(format!("offset {}: unexpected char {c:?}", i)),
        }
    }
    fn string(b: &[char], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&'"') {
            return Err(format!("offset {}: expected string", i));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                '"' => {
                    *i += 1;
                    return Ok(());
                }
                '\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => *i += 1,
                        Some('u') => {
                            if b.len() < *i + 5
                                || !b[*i + 1..*i + 5].iter().all(char::is_ascii_hexdigit)
                            {
                                return Err(format!("offset {}: bad \\u escape", i));
                            }
                            *i += 5;
                        }
                        _ => return Err(format!("offset {}: bad escape", i)),
                    }
                }
                c if (c as u32) < 0x20 => {
                    return Err(format!("offset {}: raw control char in string", i));
                }
                _ => *i += 1,
            }
        }
        Err(format!("offset {}: unterminated string", i))
    }
    fn lit(b: &[char], i: &mut usize, word: &str) -> Result<(), String> {
        let w: Vec<char> = word.chars().collect();
        if b.len() >= *i + w.len() && b[*i..*i + w.len()] == w[..] {
            *i += w.len();
            Ok(())
        } else {
            Err(format!("offset {}: expected `{word}`", i))
        }
    }
    value(&b, &mut i)?;
    ws(&b, &mut i);
    if i != b.len() {
        return Err(format!("offset {}: trailing content", i));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlameHop;

    #[test]
    fn sarif_is_valid_json_with_chain() {
        let mut d = Diagnostic::new(
            "crates/a/src/lib.rs",
            7,
            "hot-path-alloc",
            "`vec!` allocates".into(),
        );
        d.chain = vec![
            BlameHop {
                file: "crates/a/src/lib.rs".into(),
                line: 1,
                what: "root".into(),
            },
            BlameHop {
                file: "crates/a/src/lib.rs".into(),
                line: 7,
                what: "`vec!`".into(),
            },
        ];
        let q = Diagnostic::new(
            "b.rs",
            2,
            "float-eq",
            "msg with \"quotes\"\nand newline".into(),
        );
        let text = to_sarif(&[d, q]);
        validate_json(&text).expect("valid sarif json");
        assert!(text.contains("\"version\":\"2.1.0\""));
        assert!(text.contains("relatedLocations"));
        assert!(text.contains("\"level\":\"error\""));
    }

    #[test]
    fn empty_report_is_valid() {
        validate_json(&to_sarif(&[])).expect("valid");
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("[1, 2").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("{\"a\":\"\u{1}\"}").is_err());
        assert!(validate_json("{\"a\":[true,false,null,-1.5e3]}").is_ok());
    }
}
