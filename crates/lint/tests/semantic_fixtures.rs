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
fn hashmap_reachable_from_kernel_root_breaks_determinism() {
    let fx = Fixture::new("det");
    fx.write(
        "crates/sem/src/kernel.rs",
        "pub fn kernel(x: &mut f64) { helper(x); }\n\
         fn helper(_x: &mut f64) { let m: HashMap<u32, u32> = make(); touch(&m); }\n\
         fn touch(_m: &HashMap<u32, u32>) {}\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[kernel]]\nfile = \"crates/sem/src/kernel.rs\"\nfunction = \"kernel\"\n",
    );
    let report = fx.run();
    // `touch`'s HashMap type is also reachable, so assert on the first;
    // both findings are the same hazard class
    assert!(!report.diags.is_empty(), "{:#?}", report.diags);
    let d = report
        .diags
        .iter()
        .find(|d| d.line == 2)
        .expect("diagnostic at the HashMap line");
    assert_eq!(d.rule, "determinism");
    assert_eq!(chain(d), vec!["kernel", "helper", "`HashMap`"]);
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

#[test]
fn justified_allow_suppresses_and_is_counted() {
    let fx = Fixture::new("allow");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn root() {\n\
         \x20   // lint: allow(hot-path-alloc) — one-time table build, amortized\n\
         \x20   let v = vec![0.0; 4];\n\
         \x20   use_it(&v);\n\
         }\n\
         fn use_it(_v: &Vec<f64>) {}\n",
    );
    fx.write(
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/core/src/lib.rs\"\nfunction = \"root\"\n",
    );
    let report = fx.run();
    assert_eq!(report.diags.len(), 0, "{:#?}", report.diags);
    assert_eq!(report.allows.get("hot-path-alloc"), Some(&1));
}

#[test]
fn unjustified_allow_is_itself_an_error() {
    let fx = Fixture::new("allow-audit");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f(x: f64) -> bool {\n\
         \x20   // lint: allow(float-eq)\n\
         \x20   x == 0.0\n\
         }\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!(d.rule, "allow-audit");
    assert!(d.msg.contains("unjustified"), "{}", d.msg);
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

/// One `.unwrap()` that no hot root reaches.
const UNWRAP_SRC: &str = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";

#[test]
fn scoping_applies_no_panic_only_to_runtime_and_sem() {
    for (rel, in_scope) in [
        ("crates/runtime/src/a.rs", true),
        ("crates/sem/src/a.rs", true),
        ("crates/mesh/src/a.rs", false),
        ("src/bin/a.rs", false),
    ] {
        let fx = Fixture::new("nopanic-scope");
        fx.write(rel, UNWRAP_SRC);
        let report = fx.run();
        if in_scope {
            let d = the_one(&report);
            assert_eq!((d.rule, d.line), ("no-panic", 1), "{rel}");
            assert!(d.chain.is_empty(), "no hot root reaches it");
        } else {
            assert_eq!(report.diags.len(), 0, "{rel}: {:#?}", report.diags);
        }
    }
}

#[test]
fn assert_in_runtime_is_not_a_no_panic_finding() {
    let fx = Fixture::new("nopanic-assert");
    fx.write(
        "crates/runtime/src/a.rs",
        "pub fn f(x: u32) {\n\
         \x20   assert!(x > 0, \"x must be positive\");\n\
         \x20   assert_eq!(x % 2, 1);\n\
         }\n",
    );
    let report = fx.run();
    assert_eq!(report.diags.len(), 0, "{:#?}", report.diags);
}

#[test]
fn no_panic_skips_tests_strings_and_allows() {
    let fx = Fixture::new("nopanic-skips");
    fx.write(
        "crates/sem/src/a.rs",
        "fn f(x: Option<u32>) -> u32 {\n\
         \x20   let s = \"don't .unwrap() me\";\n\
         \x20   // lint: allow(no-panic) — structural invariant, cannot fail\n\
         \x20   x.expect(s)\n\
         }\n\
         fn g(x: Option<u32>) -> u32 {\n\
         \x20   x.unwrap()\n\
         }\n\
         fn h(x: Option<u32>) -> u32 {\n\
         \x20   x.unwrap() // lint: allow(no-panic) — checked by the caller\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn t() { None::<u32>.unwrap(); }\n\
         }\n",
    );
    let report = fx.run();
    let d = the_one(&report);
    assert_eq!(d.rule, "no-panic");
    assert_eq!(d.line, 7);
    assert_eq!(report.allows.get("no-panic"), Some(&2));
}

#[test]
fn diagnostics_render_file_line_rule() {
    let fx = Fixture::new("nopanic-render");
    fx.write("crates/sem/src/a.rs", "fn f() { None::<u32>.unwrap(); }\n");
    let report = fx.run();
    assert_eq!(
        format!("{}", the_one(&report)),
        "crates/sem/src/a.rs:1: [no-panic] `.unwrap()` in non-test code (return a Result instead)"
    );
}
