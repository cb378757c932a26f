//! End-to-end fixtures for the lint pass: each seeded violation must
//! produce exactly one diagnostic (with the expected blame chain where the
//! rule has one), and a clean workspace must produce none. Every test drives the real
//! [`lts_lint::run`] entry point against a throwaway workspace under the
//! system temp dir — the same code path `cargo xtask lint` takes.

use lts_lint::rules::Diagnostic;
use lts_lint::{run, Options, Report};
use std::fs;
use std::path::{Path, PathBuf};

/// A throwaway workspace rooted in the system temp dir; removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("lts-lint-fixture-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel has a parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture file");
    }

    fn run(&self) -> Report {
        run(&Options::new(&self.root)).expect("lint run")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// The chain's human labels, for compact assertions.
fn chain(d: &Diagnostic) -> Vec<&str> {
    d.chain.iter().map(|h| h.what.as_str()).collect()
}

fn the_one(report: &Report) -> &Diagnostic {
    assert_eq!(
        report.diags.len(),
        1,
        "expected exactly one diagnostic, got: {:#?}",
        report.diags
    );
    &report.diags[0]
}

#[test]
fn transitive_alloc_two_calls_deep_is_blamed_to_the_root() {
    let fx = Fixture::new("alloc");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn root(x: &mut f64) { mid(x); }\n\
         fn mid(x: &mut f64) { leaf(x); }\n\
         fn leaf(_x: &mut f64) { let v = vec![0.0; 4]; use_it(&v); }\n\
         fn use_it(_v: &Vec<f64>) {}\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"root\"\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!(d.rule, "hot-path-alloc");
    assert_eq!(d.file, Path::new("crates/core/src/lib.rs"));
    assert_eq!(d.line, 3);
    assert_eq!(chain(d), vec!["root", "mid", "leaf", "`vec!`"]);
}

#[test]
fn transitive_panic_is_an_error_with_a_chain() {
    let fx = Fixture::new("panic");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn root(o: Option<u32>) { helper(o); }\n\
         fn helper(o: Option<u32>) { deeper(o); }\n\
         fn deeper(o: Option<u32>) -> u32 { o.unwrap() }\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"root\"\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!(d.rule, "hot-path-panic");
    assert_eq!(d.line, 3);
    assert_eq!(chain(d), vec!["root", "helper", "deeper", "`.unwrap()`"]);
}

#[test]
fn opposite_lock_orders_in_transport_are_a_cycle() {
    let fx = Fixture::new("lockorder");
    fx.write(
        "crates/runtime/src/transport/ring.rs",
        "pub fn one(m: &M) {\n\
         \x20   let ga = m.alpha.lock();\n\
         \x20   let gb = m.beta.lock();\n\
         \x20   drop(gb);\n\
         \x20   drop(ga);\n\
         }\n\
         pub fn two(m: &M) {\n\
         \x20   let gb = m.beta.lock();\n\
         \x20   let ga = m.alpha.lock();\n\
         \x20   drop(ga);\n\
         \x20   drop(gb);\n\
         }\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!(d.rule, "lock-order");
    assert!(
        d.msg.contains("alpha") && d.msg.contains("beta"),
        "{}",
        d.msg
    );
    assert_eq!(d.chain.len(), 2, "one hop per edge of the 2-cycle");
}

#[test]
fn unbounded_wait_reachable_from_hot_root_is_flagged() {
    let fx = Fixture::new("lockblock");
    fx.write(
        "crates/runtime/src/transport/mod.rs",
        "pub fn pump(cv: &Condvar, g: G) { let _g = cv.wait(g); }\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/runtime/src/transport/mod.rs\"\nfunction = \"pump\"\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!(d.rule, "lock-block");
    assert!(d.msg.contains("Condvar::wait"), "{}", d.msg);
    assert_eq!(chain(d), vec!["pump", "`Condvar::wait (no timeout)`"]);
}

#[test]
fn stale_hotpaths_entry_is_a_config_error_at_its_line() {
    let fx = Fixture::new("stale");
    fx.write("crates/core/src/lib.rs", "pub fn real() {}\n");
    fx.write(
        "lint/hotpaths.toml",
        "# roots\n[[hotpath]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"gone\"\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!(d.rule, "config");
    assert_eq!(d.file, Path::new("lint/hotpaths.toml"));
    assert_eq!(d.line, 2, "blame points at the [[hotpath]] header");
    assert!(d.msg.contains("no function `gone`"), "{}", d.msg);
}

/// A workspace whose hot root allocates on line 3, under the comment
/// `allow_line` on line 2.
fn escaped_alloc(name: &str, allow_line: &str) -> Fixture {
    let fx = Fixture::new(name);
    fx.write(
        "crates/core/src/lib.rs",
        &format!(
            "pub fn root() {{\n\
             \x20   {allow_line}\n\
             \x20   let v = vec![0.0; 4];\n\
             \x20   use_it(&v);\n\
             }}\n\
             fn use_it(_v: &Vec<f64>) {{}}\n"
        ),
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"root\"\n",
    );
    fx
}

#[test]
fn justified_allow_suppresses_and_is_counted() {
    let fx = escaped_alloc(
        "allow",
        "// lint: allow(hot-path-alloc) — one-time table build, amortized",
    );
    let report = fx.run();
    assert_eq!(report.diags.len(), 0, "{:#?}", report.diags);
    assert_eq!(report.allows.get("hot-path-alloc"), Some(&1));
}

#[test]
fn unjustified_allow_is_itself_an_error() {
    let fx = escaped_alloc("allow-unjustified", "// lint: allow(hot-path-alloc)");
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!((d.rule, d.line), ("allow-audit", 2));
    assert!(d.msg.contains("unjustified"), "{}", d.msg);
}

#[test]
fn allow_of_a_retired_rule_is_an_unknown_rule() {
    // `no-panic` is clippy's now (`clippy::unwrap_used` and kin)
    let fx = Fixture::new("allow-unknown");
    fx.write(
        "crates/runtime/src/a.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n\
         \x20   // lint: allow(no-panic) — structural invariant, cannot fail\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!((d.rule, d.line), ("allow-audit", 2));
    assert!(d.msg.contains("unknown rule `no-panic`"), "{}", d.msg);
}

#[test]
fn allow_that_suppresses_nothing_is_stale() {
    // the escape names the wrong rule: the allocation is reported, and the
    // escape, which covers no `hot-path-panic` finding, is stale
    let fx = escaped_alloc(
        "allow-stale",
        "// lint: allow(hot-path-panic) — cannot fail",
    );
    let report = fx.run();
    let found: Vec<(&str, usize)> = report.diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(found, vec![("allow-audit", 2), ("hot-path-alloc", 3)]);
    assert!(
        report.diags[0].msg.contains("stale escape"),
        "{}",
        report.diags[0].msg
    );
    // a right-rule escape on a line no hot root reaches is stale as well
    let fx = escaped_alloc("allow-unreached", "// lint: allow(hot-path-alloc) — setup");
    fx.write("lint/hotpaths.toml", "");
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!((d.rule, d.line), ("allow-audit", 2));
    assert!(
        d.msg.contains("suppresses no finding on line 3"),
        "{}",
        d.msg
    );
}

#[test]
fn clean_workspace_produces_zero_diagnostics() {
    let fx = Fixture::new("clean");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn root(x: &mut f64, y: f64) { *x = step(*x, y); }\n\
         fn step(x: f64, y: f64) -> f64 { x + y }\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"root\"\n",
    );
    let report = fx.run();
    assert_eq!(report.diags.len(), 0, "{:#?}", report.diags);
    assert_eq!(report.n_fns, 2);
    assert_eq!(report.n_edges, 1);
}

#[test]
fn exclude_entry_stops_traversal_into_amortized_setup() {
    let fx = Fixture::new("exclude");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn root(x: &mut f64) { setup(x); }\n\
         fn setup(_x: &mut f64) { let v = vec![0.0; 4]; use_it(&v); }\n\
         fn use_it(_v: &Vec<f64>) {}\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"root\"\n\n\
         [[exclude]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"setup\"\nreason = \"amortized: runs once before the first step\"\n",
    );
    let report = fx.run();
    assert_eq!(report.diags.len(), 0, "{:#?}", report.diags);
}

#[test]
fn hot_path_panic_skips_tests_strings_and_allows() {
    let fx = Fixture::new("panic-skips");
    fx.write(
        "crates/sem/src/a.rs",
        "pub fn root(x: Option<u32>) -> u32 {\n\
         \x20   f(x) + g(x) + h(x)\n\
         }\n\
         fn f(x: Option<u32>) -> u32 {\n\
         \x20   let s = \"don't .unwrap() me\";\n\
         \x20   // lint: allow(hot-path-panic) — structural invariant, cannot fail\n\
         \x20   x.expect(s)\n\
         }\n\
         fn g(x: Option<u32>) -> u32 {\n\
         \x20   x.unwrap()\n\
         }\n\
         fn h(x: Option<u32>) -> u32 {\n\
         \x20   x.unwrap() // lint: allow(hot-path-panic) — checked by the caller\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn t() { None::<u32>.unwrap(); }\n\
         }\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/sem/src/a.rs\"\nfunction = \"root\"\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!((d.rule, d.line), ("hot-path-panic", 10));
    assert_eq!(report.allows.get("hot-path-panic"), Some(&2));
}

#[test]
fn diagnostics_render_file_line_rule() {
    let fx = Fixture::new("panic-render");
    fx.write(
        "crates/sem/src/a.rs",
        "pub fn f() { None::<u32>.unwrap(); }\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/sem/src/a.rs\"\nfunction = \"f\"\n",
    );
    let report = fx.run();
    assert_eq!(
        format!("{}", the_one(&report)),
        "crates/sem/src/a.rs:1: [hot-path-panic] `.unwrap()` can panic in `f`, reachable from hot root `f`"
    );
}
