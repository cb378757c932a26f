//! Hand-rolled JSON and CSV exporters.
//!
//! The build environment has no serde, so this module carries a tiny JSON
//! document model ([`Json`]) with a spec-compliant renderer, plus converters
//! from a [`MetricsRegistry`] to JSON and CSV. Output is deterministic: the
//! registry's `BTreeMap` ordering fixes metric order.

use std::fmt::Write as _;

use crate::registry::{Histogram, Metric, MetricsRegistry};

/// Minimal JSON document model.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int`/`UInt`/`Num` as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// Exact unsigned view (`UInt`, or a non-negative `Int`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document (the inverse of [`Json::render`]). Integers
    /// without `.`/`e` parse as `Int`/`UInt`, everything else numeric as
    /// `Num`; object field order is preserved.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render with two-space indentation (stable across runs).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Recursive-descent JSON parser over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                self.expect_byte(b'\\')?;
                                self.expect_byte(b'u')?;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                        }
                        other => return Err(format!("invalid escape \\{}", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(hex).map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("non-UTF-8 bytes in number at byte {start}"))?;
        if !float {
            if let Ok(u) = s.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = s.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("invalid number {s:?}: {e}"))
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// JSON has no NaN/Infinity; map them to null.
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{:?}` for finite f64 is round-trippable and valid JSON.
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn level_json(level: Option<u8>) -> Json {
    match level {
        Some(l) => Json::UInt(l as u64),
        None => Json::Null,
    }
}

fn histogram_json(h: &Histogram) -> Json {
    let mut fields = vec![
        ("count".to_string(), Json::UInt(h.count)),
        ("sum".to_string(), Json::Num(h.sum)),
        ("mean".to_string(), Json::Num(h.mean())),
    ];
    if h.count > 0 {
        fields.push(("min".to_string(), Json::Num(h.min)));
        fields.push(("max".to_string(), Json::Num(h.max)));
    }
    Json::Obj(fields)
}

/// Convert a registry into a JSON object with `counters`, `gauges` and
/// `histograms` arrays. Each entry carries its full key.
pub fn registry_to_json(reg: &MetricsRegistry) -> Json {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (key, metric) in reg.iter() {
        let mut fields = vec![("name".to_string(), Json::str(key.name))];
        fields.push(("level".to_string(), level_json(key.level)));
        if let Some(label) = &key.label {
            fields.push(("label".to_string(), Json::str(label.clone())));
        }
        match metric {
            Metric::Counter(c) => {
                fields.push(("value".to_string(), Json::UInt(*c)));
                counters.push(Json::Obj(fields));
            }
            Metric::Gauge(g) => {
                fields.push(("value".to_string(), Json::Num(*g)));
                gauges.push(Json::Obj(fields));
            }
            Metric::Histogram(h) => {
                fields.push(("value".to_string(), histogram_json(h)));
                histograms.push(Json::Obj(fields));
            }
        }
    }
    Json::Obj(vec![
        ("counters".to_string(), Json::Arr(counters)),
        ("gauges".to_string(), Json::Arr(gauges)),
        ("histograms".to_string(), Json::Arr(histograms)),
    ])
}

/// Quote a CSV field per RFC 4180: any comma, quote, CR or LF forces the
/// field into double quotes with embedded quotes doubled.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Flatten a registry to CSV, one metric per row:
/// `kind,name,level,label,value,count,sum,min,max`. Counters and gauges fill
/// `value`; histograms fill `count,sum,min,max` and leave `value` empty.
pub fn registry_to_csv(reg: &MetricsRegistry) -> String {
    let mut out = String::from("kind,name,level,label,value,count,sum,min,max\n");
    for (key, metric) in reg.iter() {
        let level = key.level.map(|l| l.to_string()).unwrap_or_default();
        let label = key.label.as_deref().unwrap_or("");
        let (kind, value, count, sum, min, max) = match metric {
            Metric::Counter(c) => (
                "counter",
                c.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            Metric::Gauge(g) => (
                "gauge",
                format!("{g:?}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            Metric::Histogram(h) => (
                "histogram",
                String::new(),
                h.count.to_string(),
                format!("{:?}", h.sum),
                if h.count > 0 {
                    format!("{:?}", h.min)
                } else {
                    String::new()
                },
                if h.count > 0 {
                    format!("{:?}", h.max)
                } else {
                    String::new()
                },
            ),
        };
        let _ = writeln!(
            out,
            "{kind},{},{level},{},{value},{count},{sum},{min},{max}",
            csv_field(key.name),
            csv_field(label),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_scalars_and_escaping() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(7).render(), "7");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn render_nested() {
        let doc = Json::Obj(vec![
            (
                "xs".to_string(),
                Json::Arr(vec![Json::UInt(1), Json::UInt(2)]),
            ),
            ("name".to_string(), Json::str("lvl")),
        ]);
        assert_eq!(doc.render(), r#"{"xs":[1,2],"name":"lvl"}"#);
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\"xs\": [\n"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn registry_json_roundtrip_structure() {
        let mut r = MetricsRegistry::new();
        r.inc_level("elem_ops", 0, 12);
        r.set_gauge("imbalance_pct", 6.25);
        {
            let _s = r.start_span("busy", Some(1));
        }
        let json = registry_to_json(&r).render();
        assert!(json.contains(r#""counters":[{"name":"elem_ops","level":0,"value":12}]"#));
        assert!(json.contains(r#""name":"imbalance_pct","level":null,"value":6.25"#));
        assert!(json.contains(r#""histograms":[{"name":"busy","level":1"#));
        assert!(!json.contains("trace"));
    }

    #[test]
    fn registry_csv_has_rows() {
        let mut r = MetricsRegistry::new();
        r.inc_level("msgs", 2, 5);
        r.observe("busy", Some(2), 0.25);
        let csv = registry_to_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,level,label,value,count,sum,min,max");
        assert!(lines.iter().any(|l| l.starts_with("counter,msgs,2,,5,")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("histogram,busy,2,,,1,0.25,0.25,0.25")));
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
        assert_eq!(csv_field("cr\rlf\n"), "\"cr\rlf\n\"");
    }

    /// Regression: a label carrying commas and quotes must stay one CSV
    /// column (RFC 4180), not shift every following field.
    #[test]
    fn csv_labels_with_commas_and_quotes_stay_one_column() {
        use crate::registry::Key;
        let mut r = MetricsRegistry::new();
        r.inc_key(
            Key {
                name: "msgs",
                level: Some(1),
                label: Some("peer=3,phase=\"fine\"".to_string()),
            },
            7,
        );
        let csv = registry_to_csv(&r);
        let row = csv.lines().nth(1).expect("one metric row");
        assert_eq!(row, "counter,msgs,1,\"peer=3,phase=\"\"fine\"\"\",7,,,,");
        // splitting on unquoted commas only must still give 9 columns
        let mut cols = 0;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => cols += 1,
                _ => {}
            }
        }
        assert_eq!(cols + 1, 9, "row: {row}");
    }

    #[test]
    fn histogram_json_reports_the_summary() {
        let mut r = MetricsRegistry::new();
        for _ in 0..20 {
            r.observe("busy", Some(0), 1e-3);
        }
        let json = registry_to_json(&r).render();
        assert!(json.contains("\"count\":20"), "json: {json}");
        assert!(json.contains("\"min\":0.001"), "json: {json}");
        assert!(json.contains("\"max\":0.001"), "json: {json}");
    }

    // ---- parser -----------------------------------------------------------

    #[test]
    fn parse_roundtrips_renderer_output() {
        let doc = Json::Obj(vec![
            ("s".to_string(), Json::str("a\"b\\c\nd\te\u{1}")),
            ("i".to_string(), Json::Int(-42)),
            ("u".to_string(), Json::UInt(7)),
            ("f".to_string(), Json::Num(1.25e-3)),
            ("nul".to_string(), Json::Null),
            ("b".to_string(), Json::Bool(false)),
            (
                "arr".to_string(),
                Json::Arr(vec![Json::UInt(1), Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_accessors() {
        let v = Json::parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_unicode_escapes() {
        // BMP escape plus a surrogate pair (U+1F600), and raw UTF-8 passthrough
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap(),
            Json::str("é😀")
        );
        assert_eq!(Json::parse("\"é😀\"").unwrap(), Json::str("é😀"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
