//! Per-file parse cache so the semantic gate stays fast in CI: parsing is
//! re-done only for files whose (mtime, size, content hash) changed. The
//! cache stores each file's [`ParsedFile`] facts *and* its per-file rule
//! diagnostics, because both are pure functions of the file text; the
//! call graph and its analyses are global and always run fresh. A policy-file or lint-version change busts the whole cache via
//! the header key.
//!
//! The format is line-oriented text under `target/` — corrupt or
//! unrecognized content degrades to an empty cache, never to an error.

use crate::parse::{Allow, CallSite, Hit, HitKind, LockAcq, ParsedFile, ParsedFn, Wait};
use crate::rules::{Diagnostic, ALL_RULES};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Bump when the serialized schema or any parser/rule semantics change.
const SCHEMA: u32 = 3;

/// What one cached file contributes back to the driver.
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    pub parsed: ParsedFile,
    /// Findings of the per-file rules ([`crate::rules::check_file`]).
    pub diags: Vec<Diagnostic>,
}

struct Entry {
    mtime_ns: u128,
    size: u64,
    hash: u64,
    summary: FileSummary,
}

pub struct Cache {
    key: String,
    entries: BTreeMap<String, Entry>,
    pub hits: usize,
    pub misses: usize,
}

/// `(mtime_ns, size)` of a file — the cheap part of the cache key.
pub fn file_stamp(path: &Path) -> io::Result<(u128, u64)> {
    let md = std::fs::metadata(path)?;
    let mtime = md
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok((mtime, md.len()))
}

fn cache_key(cfg_hash: u64) -> String {
    format!(
        "lts-lint-cache v{SCHEMA} cfg={cfg_hash:016x} pkg={}",
        env!("CARGO_PKG_VERSION")
    )
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0a"),
            '\t' => out.push_str("%09"),
            c => out.push(c),
        }
    }
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

fn unesc(s: &str) -> String {
    if s == "%00" {
        return String::new();
    }
    let mut out = String::with_capacity(s.len());
    let cs: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        if cs[i] == '%' && i + 2 < cs.len() {
            let code: String = cs[i + 1..i + 3].iter().collect();
            if let Ok(b) = u8::from_str_radix(&code, 16) {
                out.push(b as char);
                i += 3;
                continue;
            }
        }
        out.push(cs[i]);
        i += 1;
    }
    out
}

const WAIT_WHATS: [&str; 4] = [
    "Condvar::wait (no timeout)",
    "recv() (no timeout)",
    "recv_into (no timeout)",
    "recv_into_timeout(None)",
];

fn static_rule(name: &str) -> Option<&'static str> {
    ALL_RULES.iter().copied().find(|r| *r == name)
}

impl Cache {
    pub fn empty(cfg_hash: u64) -> Cache {
        Cache {
            key: cache_key(cfg_hash),
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Load from `path`; any mismatch or parse trouble yields an empty
    /// cache (a cache must never be able to fail the lint).
    pub fn load(path: &Path, cfg_hash: u64) -> Cache {
        let mut cache = Cache::empty(cfg_hash);
        let Ok(text) = std::fs::read_to_string(path) else {
            return cache;
        };
        let mut lines = text.lines();
        if lines.next() != Some(cache.key.as_str()) {
            return cache;
        }
        let mut cur: Option<(String, Entry)> = None;
        for line in lines {
            let parts: Vec<&str> = line.split(' ').collect();
            let ok = Self::apply_record(&mut cur, &mut cache.entries, &parts);
            if !ok {
                // corrupt record: drop everything parsed so far
                return Cache::empty(cfg_hash);
            }
        }
        if let Some((rel, e)) = cur.take() {
            cache.entries.insert(rel, e);
        }
        cache
    }

    #[allow(clippy::too_many_lines)]
    fn apply_record(
        cur: &mut Option<(String, Entry)>,
        entries: &mut BTreeMap<String, Entry>,
        parts: &[&str],
    ) -> bool {
        let p = |s: &str| -> Option<usize> { s.parse().ok() };
        match parts.first().copied() {
            Some("F") if parts.len() == 5 => {
                if let Some((rel, e)) = cur.take() {
                    entries.insert(rel, e);
                }
                let (Some(mtime), Some(size), Ok(hash)) = (
                    parts[2].parse::<u128>().ok(),
                    parts[3].parse::<u64>().ok(),
                    u64::from_str_radix(parts[4], 16),
                ) else {
                    return false;
                };
                *cur = Some((
                    unesc(parts[1]),
                    Entry {
                        mtime_ns: mtime,
                        size,
                        hash,
                        summary: FileSummary::default(),
                    },
                ));
                true
            }
            Some("f") if parts.len() == 5 => {
                let Some((_, e)) = cur.as_mut() else {
                    return false;
                };
                let Some(line) = p(parts[2]) else {
                    return false;
                };
                e.summary.parsed.fns.push(ParsedFn {
                    name: unesc(parts[1]),
                    impl_type: (parts[3] != "-").then(|| unesc(parts[3])),
                    line,
                    is_cold: parts[4] == "1",
                    calls: Vec::new(),
                    hits: Vec::new(),
                    locks: Vec::new(),
                    lock_edges: Vec::new(),
                    waits: Vec::new(),
                });
                true
            }
            Some("c") if parts.len() == 5 => {
                let Some(f) = cur
                    .as_mut()
                    .and_then(|(_, e)| e.summary.parsed.fns.last_mut())
                else {
                    return false;
                };
                let Some(line) = p(parts[1]) else {
                    return false;
                };
                f.calls.push(CallSite {
                    path: unesc(parts[3]),
                    method: parts[2] == "1",
                    line,
                    holding: if parts[4] == "-" {
                        Vec::new()
                    } else {
                        parts[4].split(',').map(str::to_string).collect()
                    },
                });
                true
            }
            Some("h") if parts.len() == 4 => {
                let Some(f) = cur
                    .as_mut()
                    .and_then(|(_, e)| e.summary.parsed.fns.last_mut())
                else {
                    return false;
                };
                let (Some(line), Some(kind)) = (
                    p(parts[1]),
                    match parts[2] {
                        "A" => Some(HitKind::Alloc),
                        "P" => Some(HitKind::Panic),
                        "D" => Some(HitKind::Det),
                        _ => None,
                    },
                ) else {
                    return false;
                };
                f.hits.push(Hit {
                    kind,
                    token: unesc(parts[3]),
                    line,
                });
                true
            }
            Some("l") if parts.len() == 3 => {
                let Some(f) = cur
                    .as_mut()
                    .and_then(|(_, e)| e.summary.parsed.fns.last_mut())
                else {
                    return false;
                };
                let Some(line) = p(parts[1]) else {
                    return false;
                };
                f.locks.push(LockAcq {
                    lock: unesc(parts[2]),
                    line,
                });
                true
            }
            Some("e") if parts.len() == 5 => {
                let Some(f) = cur
                    .as_mut()
                    .and_then(|(_, e)| e.summary.parsed.fns.last_mut())
                else {
                    return false;
                };
                let (Some(l1), Some(l2)) = (p(parts[1]), p(parts[3])) else {
                    return false;
                };
                f.lock_edges
                    .push((unesc(parts[2]), l1, unesc(parts[4]), l2));
                true
            }
            Some("w") if parts.len() == 3 => {
                let Some(f) = cur
                    .as_mut()
                    .and_then(|(_, e)| e.summary.parsed.fns.last_mut())
                else {
                    return false;
                };
                let (Some(line), Some(idx)) = (p(parts[1]), p(parts[2])) else {
                    return false;
                };
                let Some(&what) = WAIT_WHATS.get(idx) else {
                    return false;
                };
                f.waits.push(Wait { what, line });
                true
            }
            Some("a") if parts.len() == 5 => {
                let Some((_, e)) = cur.as_mut() else {
                    return false;
                };
                let (Some(line), Some(covers)) = (p(parts[1]), p(parts[2])) else {
                    return false;
                };
                e.summary.parsed.allows.push(Allow {
                    rule: unesc(parts[3]),
                    line,
                    covers,
                    justified: parts[4] == "1",
                });
                true
            }
            Some("d") if parts.len() == 4 => {
                let Some((rel, e)) = cur.as_mut() else {
                    return false;
                };
                let (Some(line), Some(rule)) = (p(parts[1]), static_rule(&unesc(parts[2]))) else {
                    return false;
                };
                e.summary
                    .diags
                    .push(Diagnostic::new(rel.clone(), line, rule, unesc(parts[3])));
                true
            }
            _ => false,
        }
    }

    pub fn get(&mut self, rel: &str, mtime_ns: u128, size: u64, hash: u64) -> Option<FileSummary> {
        match self.entries.get(rel) {
            Some(e) if e.mtime_ns == mtime_ns && e.size == size && e.hash == hash => {
                self.hits += 1;
                Some(e.summary.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    pub fn put(&mut self, rel: &str, mtime_ns: u128, size: u64, hash: u64, summary: FileSummary) {
        self.entries.insert(
            rel.to_string(),
            Entry {
                mtime_ns,
                size,
                hash,
                summary,
            },
        );
    }

    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        out.push_str(&self.key);
        out.push('\n');
        for (rel, e) in &self.entries {
            out.push_str(&format!(
                "F {} {} {} {:016x}\n",
                esc(rel),
                e.mtime_ns,
                e.size,
                e.hash
            ));
            for f in &e.summary.parsed.fns {
                out.push_str(&format!(
                    "f {} {} {} {}\n",
                    esc(&f.name),
                    f.line,
                    f.impl_type.as_deref().map_or("-".to_string(), esc),
                    u8::from(f.is_cold)
                ));
                for c in &f.calls {
                    out.push_str(&format!(
                        "c {} {} {} {}\n",
                        c.line,
                        u8::from(c.method),
                        esc(&c.path),
                        if c.holding.is_empty() {
                            "-".to_string()
                        } else {
                            c.holding.join(",")
                        }
                    ));
                }
                for h in &f.hits {
                    let k = match h.kind {
                        HitKind::Alloc => "A",
                        HitKind::Panic => "P",
                        HitKind::Det => "D",
                    };
                    out.push_str(&format!("h {} {} {}\n", h.line, k, esc(&h.token)));
                }
                for l in &f.locks {
                    out.push_str(&format!("l {} {}\n", l.line, esc(&l.lock)));
                }
                for (a, al, b, bl) in &f.lock_edges {
                    out.push_str(&format!("e {al} {} {bl} {}\n", esc(a), esc(b)));
                }
                for w in &f.waits {
                    let idx = WAIT_WHATS
                        .iter()
                        .position(|&x| x == w.what)
                        .unwrap_or(WAIT_WHATS.len());
                    out.push_str(&format!("w {} {idx}\n", w.line));
                }
            }
            for a in &e.summary.parsed.allows {
                out.push_str(&format!(
                    "a {} {} {} {}\n",
                    a.line,
                    a.covers,
                    esc(&a.rule),
                    u8::from(a.justified)
                ));
            }
            for d in &e.summary.diags {
                out.push_str(&format!("d {} {} {}\n", d.line, esc(d.rule), esc(&d.msg)));
            }
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Scrubbed;

    #[test]
    fn round_trips_a_parsed_file_and_its_diags() {
        let src = "\
fn hot(v: &[f64]) {
    let g = lock(&s.buf);
    let h = s.bells.lock();
    helper(v[0]);
    let x = v.to_vec();
    x.unwrap();
    t.recv_into(buf);
}
// lint: allow(no-panic) — checked above
#[cold]
fn cold_fn() {}
";
        let parsed = crate::parse::parse_file(&Scrubbed::new(src));
        let diags = vec![Diagnostic::new(
            "crates/a/src/lib.rs",
            6,
            crate::rules::RULE_NO_PANIC,
            "`.unwrap()` in non-test code (return a Result instead)".into(),
        )];
        let mut cache = Cache::empty(42);
        cache.put(
            "crates/a/src/lib.rs",
            123_456_789,
            src.len() as u64,
            crate::fnv64(src.as_bytes()),
            FileSummary {
                parsed: parsed.clone(),
                diags: diags.clone(),
            },
        );
        let dir = std::env::temp_dir().join(format!("lint-cache-test-{}", std::process::id()));
        let path = dir.join("cache.txt");
        cache.save(&path).unwrap();
        let mut loaded = Cache::load(&path, 42);
        let got = loaded
            .get(
                "crates/a/src/lib.rs",
                123_456_789,
                src.len() as u64,
                crate::fnv64(src.as_bytes()),
            )
            .expect("hit");
        assert_eq!(got.parsed.fns.len(), parsed.fns.len());
        let (a, b) = (&got.parsed.fns[0], &parsed.fns[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.calls
                .iter()
                .map(|c| (&c.path, c.line))
                .collect::<Vec<_>>(),
            b.calls
                .iter()
                .map(|c| (&c.path, c.line))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            a.hits
                .iter()
                .map(|h| (h.kind, &h.token, h.line))
                .collect::<Vec<_>>(),
            b.hits
                .iter()
                .map(|h| (h.kind, &h.token, h.line))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.lock_edges, b.lock_edges);
        assert_eq!(
            a.waits.iter().map(|w| (w.what, w.line)).collect::<Vec<_>>(),
            b.waits.iter().map(|w| (w.what, w.line)).collect::<Vec<_>>()
        );
        assert!(got.parsed.fns[1].is_cold);
        assert_eq!(got.parsed.allows.len(), parsed.allows.len());
        assert_eq!(got.diags, diags);
        // stale stamp misses
        assert!(loaded
            .get("crates/a/src/lib.rs", 1, src.len() as u64, 0)
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_or_corruption_degrades_to_empty() {
        let dir = std::env::temp_dir().join(format!("lint-cache-test2-{}", std::process::id()));
        let path = dir.join("cache.txt");
        let cache = Cache::empty(7);
        cache.save(&path).unwrap();
        assert!(Cache::load(&path, 8).entries.is_empty(), "cfg change busts");
        std::fs::write(&path, "garbage\nF x\n").unwrap();
        assert!(Cache::load(&path, 7).entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
