//! The workspace model: a symbol table over every parsed function, a
//! conservative intra-workspace call graph, and a fixpoint reachability
//! engine that yields per-function blame chains (root → … → offender).
//!
//! Resolution is name-based — no type inference exists at this layer — and
//! errs toward over-approximation, ranked tightest-first:
//!
//! * `Type::name(…)` / `Self::name(…)` → functions named `name` whose impl
//!   target matches (`Self` resolves to the caller's own impl target);
//! * `.name(…)` method calls → every workspace method named `name`;
//! * bare `name(…)` → same-file functions named `name`, else same-crate,
//!   else every workspace function of that name.
//!
//! Calls that resolve to nothing are external (std or shims); their effects
//! are covered by the construct-token scan inside the caller instead.

use crate::parse::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Index into [`Workspace::fns`].
pub type FnId = usize;

/// One symbol-table entry: a function plus its location and parsed facts.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file with forward slashes.
    pub file: String,
    /// Crate key: `"crates/runtime"`, `"src"` (root package), …
    pub krate: String,
    pub f: crate::parse::ParsedFn,
}

/// One resolved call-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub caller: FnId,
    pub callee: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
}

/// The whole-workspace model.
#[derive(Debug, Default)]
pub struct Workspace {
    pub fns: Vec<FnNode>,
    pub edges: Vec<Edge>,
    /// name → candidate FnIds (all files).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// Adjacency: caller → (callee, line).
    adj: Vec<Vec<(FnId, usize)>>,
    /// Crate key → transitive workspace dependencies. Empty map = no
    /// dependency information, cross-crate edges unrestricted.
    deps: BTreeMap<String, BTreeSet<String>>,
}

/// One hop of a blame chain: `function` at `file:line` called the next hop
/// from `call_line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameHop {
    pub file: String,
    pub line: usize,
    pub what: String,
}

fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        format!("crates/{}", parts[1])
    } else {
        parts.first().unwrap_or(&"").to_string()
    }
}

impl Workspace {
    /// Assemble the model from parsed files: intern every function, then
    /// resolve every call site against the symbol table. Without dependency
    /// information — cross-crate candidates are unrestricted.
    pub fn build(files: &BTreeMap<String, ParsedFile>) -> Workspace {
        Workspace::build_with_deps(files, BTreeMap::new())
    }

    /// Like [`Workspace::build`], but cross-crate edges are only admitted
    /// along the real crate dependency graph: a call in crate A can only
    /// resolve into crate B if A (transitively) depends on B. This kills
    /// the method-name collisions that would otherwise link runtime code
    /// into crates nothing depends on (the lint crate itself, benches).
    pub fn build_with_deps(
        files: &BTreeMap<String, ParsedFile>,
        deps: BTreeMap<String, BTreeSet<String>>,
    ) -> Workspace {
        let mut ws = Workspace {
            deps,
            ..Workspace::default()
        };
        for (rel, pf) in files {
            for f in &pf.fns {
                ws.fns.push(FnNode {
                    file: rel.clone(),
                    krate: crate_of(rel),
                    f: f.clone(),
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (id, n) in ws.fns.iter().enumerate() {
            by_name.entry(n.f.name.clone()).or_default().push(id);
        }
        ws.by_name = by_name;
        let mut edges = Vec::new();
        for caller in 0..ws.fns.len() {
            let node = &ws.fns[caller];
            for call in &node.f.calls {
                if call.method && crate::parse::is_leaf_method(&call.path) {
                    continue;
                }
                // a written `drop(x)` is `std::mem::drop` (guard release);
                // `Drop::drop` cannot be called directly, so linking it to a
                // workspace `fn drop` would be a phantom edge into teardown
                if call.path == "drop" || call.path.ends_with("::drop") {
                    continue;
                }
                for callee in ws.resolve(caller, &call.path, call.method) {
                    if callee != caller {
                        edges.push(Edge {
                            caller,
                            callee,
                            line: call.line,
                        });
                    }
                }
            }
        }
        edges.sort_by_key(|e| (e.caller, e.callee, e.line));
        edges.dedup();
        ws.edges = edges;
        let mut adj = vec![Vec::new(); ws.fns.len()];
        for e in &ws.edges {
            adj[e.caller].push((e.callee, e.line));
        }
        ws.adj = adj;
        ws
    }

    /// Is an edge from crate `from` into crate `to` admissible? Same crate
    /// always; otherwise only along the dependency map (a crate missing
    /// from the map is unrestricted — no manifest was found for it).
    fn dep_ok(&self, from: &str, to: &str) -> bool {
        from == to
            || match self.deps.get(from) {
                Some(d) => d.contains(to),
                None => true,
            }
    }

    /// Candidate callees for one written call path, tightest rank first.
    fn resolve(&self, caller: FnId, path: &str, method: bool) -> Vec<FnId> {
        let segs: Vec<&str> = path.split("::").collect();
        let name = *segs.last().unwrap_or(&"");
        let Some(all_cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let from = self.fns[caller].krate.clone();
        let cands: Vec<FnId> = all_cands
            .iter()
            .copied()
            .filter(|&id| self.dep_ok(&from, &self.fns[id].krate))
            .collect();
        if method {
            // `.name(…)`: any workspace method (or free fn — trait fns on
            // primitives are written method-style too) of that name
            return cands;
        }
        if segs.len() >= 2 {
            // `Qual::name`: match the qualifier against the impl target
            // (`Self` → caller's own impl target) or the file's module stem
            let mut qual = segs[segs.len() - 2].to_string();
            if qual == "Self" {
                if let Some(t) = &self.fns[caller].f.impl_type {
                    qual = t.clone();
                }
            }
            let matched: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    let n = &self.fns[id];
                    n.f.impl_type.as_deref() == Some(qual.as_str()) || module_stem(&n.file) == qual
                })
                .collect();
            // no workspace symbol matches the qualifier (e.g. `Vec::new`):
            // external, no edge
            return matched;
        }
        // bare `name(…)`: same file, else same crate, else everywhere
        let file = &self.fns[caller].file;
        let same_file: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&id| &self.fns[id].file == file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let krate = &self.fns[caller].krate;
        let same_crate: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&id| &self.fns[id].krate == krate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        cands.clone()
    }

    /// All functions in `file` named `name`.
    pub fn lookup(&self, file: &str, name: &str) -> Vec<FnId> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.f.name == name)
            .map(|(id, _)| id)
            .collect()
    }

    /// Human name for diagnostics: `Type::name` or `name`.
    pub fn qualified(&self, id: FnId) -> String {
        let n = &self.fns[id];
        match &n.f.impl_type {
            Some(t) => format!("{}::{}", t, n.f.name),
            None => n.f.name.clone(),
        }
    }

    /// BFS reachability from `roots`, stopping at `stop` functions (cold
    /// error paths, config-excluded amortized setup). Returns, per reached
    /// function, the parent pointer `(caller, call line)` of the *first*
    /// (shortest) path that reached it.
    pub fn reach(
        &self,
        roots: &[FnId],
        stop: &BTreeSet<FnId>,
    ) -> BTreeMap<FnId, Option<(FnId, usize)>> {
        let mut parent: BTreeMap<FnId, Option<(FnId, usize)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        for &r in roots {
            if !stop.contains(&r) && !parent.contains_key(&r) {
                parent.insert(r, None);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &(v, line) in &self.adj[u] {
                if stop.contains(&v) || parent.contains_key(&v) {
                    continue;
                }
                parent.insert(v, Some((u, line)));
                queue.push_back(v);
            }
        }
        parent
    }

    /// Reconstruct the blame chain root → … → `id` from `reach` parents.
    /// Every hop names the function and the line the *next* hop is called
    /// from; the final entry is the offending function itself.
    pub fn blame_chain(
        &self,
        parents: &BTreeMap<FnId, Option<(FnId, usize)>>,
        id: FnId,
    ) -> Vec<BlameHop> {
        // walk up to the root collecting (fn, call-line-into-child)
        let mut rev: Vec<(FnId, Option<usize>)> = Vec::new();
        let mut cur = id;
        let mut call_into: Option<usize> = None;
        loop {
            rev.push((cur, call_into));
            match parents.get(&cur) {
                Some(Some((p, line))) => {
                    call_into = Some(*line);
                    cur = *p;
                }
                _ => break,
            }
        }
        rev.reverse();
        rev.into_iter()
            .map(|(fid, _)| {
                let n = &self.fns[fid];
                BlameHop {
                    file: n.file.clone(),
                    line: n.f.line,
                    what: self.qualified(fid),
                }
            })
            .collect()
    }

    /// Deterministic text dump of the call graph, with a self-check
    /// round-trip parser (see `--mode graph-dump`).
    pub fn dump(&self) -> String {
        let mut out = String::from("# lts-lint call graph v1\n");
        for (id, n) in self.fns.iter().enumerate() {
            out.push_str(&format!(
                "node {} {}:{} {}\n",
                id,
                n.file,
                n.f.line,
                self.qualified(id)
            ));
        }
        for e in &self.edges {
            out.push_str(&format!("edge {} {} {}\n", e.caller, e.callee, e.line));
        }
        out
    }

    /// Parse a [`dump`] back into `(nodes, edges)` for the round-trip smoke.
    #[allow(clippy::type_complexity)]
    pub fn parse_dump(text: &str) -> Result<(Vec<(usize, String)>, Vec<Edge>), String> {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            match it.next() {
                Some("node") => {
                    let id: usize = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("dump line {}: bad node id", i + 1))?;
                    let loc = it
                        .next()
                        .ok_or_else(|| format!("dump line {}: missing location", i + 1))?;
                    nodes.push((id, loc.to_string()));
                }
                Some("edge") => {
                    let mut three = || -> Result<usize, String> {
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| format!("dump line {}: bad edge field", i + 1))
                    };
                    let caller = three()?;
                    let callee = three()?;
                    let line_no = three()?;
                    edges.push(Edge {
                        caller,
                        callee,
                        line: line_no,
                    });
                }
                other => return Err(format!("dump line {}: unknown record {:?}", i + 1, other)),
            }
        }
        Ok((nodes, edges))
    }

    /// Verify `dump()` round-trips through `parse_dump` losslessly.
    pub fn dump_round_trips(&self) -> Result<(), String> {
        let text = self.dump();
        let (nodes, edges) = Workspace::parse_dump(&text)?;
        if nodes.len() != self.fns.len() {
            return Err(format!(
                "round-trip lost nodes: {} vs {}",
                nodes.len(),
                self.fns.len()
            ));
        }
        for (id, loc) in &nodes {
            let n = self
                .fns
                .get(*id)
                .ok_or_else(|| format!("round-trip: node id {id} out of range"))?;
            let want = format!("{}:{}", n.file, n.f.line);
            if *loc != want {
                return Err(format!("round-trip: node {id} is {loc}, expected {want}"));
            }
        }
        if edges != self.edges {
            return Err("round-trip: edge set mismatch".into());
        }
        Ok(())
    }
}

fn module_stem(rel: &str) -> String {
    std::path::Path::new(rel)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::source::Scrubbed;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let parsed: BTreeMap<String, ParsedFile> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse_file(&Scrubbed::new(src))))
            .collect();
        Workspace::build(&parsed)
    }

    #[test]
    fn bare_calls_prefer_same_file_then_same_crate() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "fn f() { g(); }\nfn g() {}\n"),
            ("crates/b/src/lib.rs", "fn g() {}\n"),
        ]);
        let f = w.lookup("crates/a/src/lib.rs", "f")[0];
        let g_same = w.lookup("crates/a/src/lib.rs", "g")[0];
        let callees: Vec<FnId> = w
            .edges
            .iter()
            .filter(|e| e.caller == f)
            .map(|e| e.callee)
            .collect();
        assert_eq!(callees, vec![g_same]);
    }

    #[test]
    fn method_calls_link_to_every_candidate() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "impl X { fn send(&self) {} }\nfn f(t: &T) { t.send(); }\n",
            ),
            ("crates/b/src/lib.rs", "impl Y { fn send(&self) {} }\n"),
        ]);
        let f = w.lookup("crates/a/src/lib.rs", "f")[0];
        let callees: Vec<FnId> = w
            .edges
            .iter()
            .filter(|e| e.caller == f)
            .map(|e| e.callee)
            .collect();
        assert_eq!(callees.len(), 2, "conservative: both `send` impls linked");
    }

    #[test]
    fn dep_map_restricts_cross_crate_edges() {
        let parsed: BTreeMap<String, ParsedFile> = [
            (
                "crates/a/src/lib.rs",
                "fn f(t: &T) { t.send(); }\nimpl X { fn send(&self) {} }\n",
            ),
            ("crates/b/src/lib.rs", "impl Y { fn send(&self) {} }\n"),
        ]
        .iter()
        .map(|(rel, src)| (rel.to_string(), parse_file(&Scrubbed::new(src))))
        .collect();
        // a depends on nothing: only the same-crate `send` is linked
        let deps: BTreeMap<String, BTreeSet<String>> =
            [("crates/a".to_string(), BTreeSet::new())].into();
        let w = Workspace::build_with_deps(&parsed, deps);
        let f = w.lookup("crates/a/src/lib.rs", "f")[0];
        let callees: Vec<String> = w
            .edges
            .iter()
            .filter(|e| e.caller == f)
            .map(|e| w.fns[e.callee].krate.clone())
            .collect();
        assert_eq!(callees, vec!["crates/a".to_string()]);
    }

    #[test]
    fn qualified_calls_filter_by_impl_target() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl A { fn new() {} }\nimpl B { fn new() {} }\nfn f() { A::new(); }\n",
        )]);
        let f = w.lookup("crates/a/src/lib.rs", "f")[0];
        let callees: Vec<String> = w
            .edges
            .iter()
            .filter(|e| e.caller == f)
            .map(|e| w.qualified(e.callee))
            .collect();
        assert_eq!(callees, vec!["A::new".to_string()]);
    }

    #[test]
    fn self_resolves_to_own_impl_target() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl A { fn go(&self) { Self::helper(); } fn helper() {} }\nimpl B { fn helper() {} }\n",
        )]);
        let go = w.lookup("crates/a/src/lib.rs", "go")[0];
        let callees: Vec<String> = w
            .edges
            .iter()
            .filter(|e| e.caller == go)
            .map(|e| w.qualified(e.callee))
            .collect();
        assert_eq!(callees, vec!["A::helper".to_string()]);
    }

    #[test]
    fn reach_and_blame_two_deep() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        )]);
        let root = w.lookup("crates/a/src/lib.rs", "root")[0];
        let leaf = w.lookup("crates/a/src/lib.rs", "leaf")[0];
        let island = w.lookup("crates/a/src/lib.rs", "island")[0];
        let parents = w.reach(&[root], &BTreeSet::new());
        assert!(parents.contains_key(&leaf));
        assert!(!parents.contains_key(&island));
        let chain = w.blame_chain(&parents, leaf);
        let names: Vec<&str> = chain.iter().map(|h| h.what.as_str()).collect();
        assert_eq!(names, vec!["root", "mid", "leaf"]);
    }

    #[test]
    fn stop_set_terminates_traversal() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        )]);
        let root = w.lookup("crates/a/src/lib.rs", "root")[0];
        let mid = w.lookup("crates/a/src/lib.rs", "mid")[0];
        let leaf = w.lookup("crates/a/src/lib.rs", "leaf")[0];
        let stop: BTreeSet<FnId> = [mid].into_iter().collect();
        let parents = w.reach(&[root], &stop);
        assert!(parents.contains_key(&root));
        assert!(!parents.contains_key(&mid));
        assert!(!parents.contains_key(&leaf));
    }

    #[test]
    fn dump_round_trips() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        )]);
        w.dump_round_trips().expect("round trip");
        // and corruption is caught
        let text = w.dump().replace("edge 0 1", "edge 0 2");
        let (_, edges) = Workspace::parse_dump(&text).unwrap();
        assert_ne!(edges, w.edges);
    }
}
