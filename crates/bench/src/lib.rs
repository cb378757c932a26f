//! Shared harness utilities for the figure/table binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the index) and accepts `--elements N` to change the mesh
//! scale (defaults are laptop-sized; paper-scale runs are a flag away).

#![forbid(unsafe_code)]

pub mod profile;
pub mod scaling;

use lts_mesh::{BenchmarkMesh, MeshKind};

/// Minimal flag parser: `--key value` pairs. Strict: a flag the binary does
/// not accept, a stray word, a flag without a value or a value that does
/// not parse is a usage error, which [`Args::parse`], [`Args::get`] and
/// [`Args::get_list`] report naming the argument before exiting with
/// status 2.
pub struct Args {
    pairs: Vec<(String, String)>,
    accepted: &'static [&'static str],
}

/// Print a usage error and exit with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

impl Args {
    /// Parse the process arguments against the flag names (without `--`)
    /// the binary reads.
    pub fn parse(accepted: &'static [&'static str]) -> Self {
        Self::from_argv(std::env::args().skip(1), accepted).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parse `argv` (without the program name) against `accepted`.
    pub(crate) fn from_argv(
        argv: impl IntoIterator<Item = String>,
        accepted: &'static [&'static str],
    ) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if !accepted.contains(&key) {
                let names: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
                let names = if names.is_empty() {
                    "none".to_string()
                } else {
                    names.join(", ")
                };
                return Err(format!("unknown flag --{key}; accepted: {names}"));
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            pairs.push((key.to_string(), value));
        }
        Ok(Args { pairs, accepted })
    }

    fn value(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.accepted.contains(&key),
            "--{key} is read but missing from the accepted flags"
        );
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--key`, or `default` when the flag is absent.
    pub(crate) fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
            None => Ok(default),
        }
    }

    /// `Args::try_get`, exiting with status 2 on an unparsable value.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default)
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// Comma-separated list (e.g. `--parts 16,32,64`), or `default` when the
    /// flag is absent.
    pub(crate) fn try_get_list(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        match self.value(key) {
            Some(v) => v
                .split(',')
                .map(|s| s.trim().parse().ok())
                .collect::<Option<Vec<usize>>>()
                .ok_or_else(|| format!("invalid list {v:?} for --{key}")),
            None => Ok(default.to_vec()),
        }
    }

    /// `Args::try_get_list`, exiting with status 2 on an unparsable list.
    pub fn get_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        self.try_get_list(key, default)
            .unwrap_or_else(|e| usage_error(&e))
    }
}

/// Build a benchmark mesh and print its headline stats.
pub fn build_mesh(kind: MeshKind, elements: usize) -> BenchmarkMesh {
    let b = BenchmarkMesh::build(kind, elements);
    eprintln!(
        "# {} mesh: {} elements ({} requested), {} levels, model speed-up {:.2}x (paper: {:.1}x at {}M elements)",
        kind.name(),
        b.mesh.n_elems(),
        elements,
        b.levels.n_levels,
        b.speedup(),
        kind.paper_speedup(),
        kind.paper_elements() / 1_000_000,
    );
    b
}

/// Fixed-width table printer.
pub struct Table {
    pub(crate) header: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{:>width$}  ", c, width = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Engineering formatter: 1.4e6 → "1.4e6"-style short scientific.
pub fn sci(x: f64) -> String {
    // exact-zero guard before log10 (±0 → "0")
    if x == 0.0 {
        return "0".into();
    }
    let mut exp = x.abs().log10().floor() as i32;
    let mut mant = x / 10f64.powi(exp);
    if format!("{mant:.1}").parse::<f64>().unwrap().abs() >= 10.0 {
        mant /= 10.0;
        exp += 1;
    }
    format!("{mant:.1}e{exp}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(sci(1.4e6), "1.4e6");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(3.0e7), "3.0e7");
    }

    const FLAGS: &[&str] = &["elements", "parts", "seed", "nodes"];

    fn argv(words: &[&str]) -> Result<Args, String> {
        Args::from_argv(words.iter().map(|w| w.to_string()), FLAGS)
    }

    #[test]
    fn args_parse_pairs_last_wins() {
        let a = argv(&["--elements", "500", "--parts", "2,4", "--elements", "700"]).unwrap();
        assert_eq!(a.try_get("elements", 1usize), Ok(700));
        assert_eq!(a.try_get("seed", 9u64), Ok(9));
        assert_eq!(a.try_get_list("parts", &[1]), Ok(vec![2, 4]));
        assert_eq!(a.try_get_list("nodes", &[8, 16]), Ok(vec![8, 16]));
    }

    #[test]
    fn args_reject_stray_words_and_bad_values() {
        let e = argv(&["--elements", "500", "extra"]).err().unwrap();
        assert!(e.contains("\"extra\""), "{e}");
        let e = argv(&["--elements"]).err().unwrap();
        assert!(e.contains("--elements"), "{e}");
        let a = argv(&["--elements", "5k", "--parts", "4,x"]).unwrap();
        let e = a.try_get("elements", 1usize).unwrap_err();
        assert!(e.contains("--elements") && e.contains("5k"), "{e}");
        let e = a.try_get_list("parts", &[1]).unwrap_err();
        assert!(e.contains("--parts") && e.contains("4,x"), "{e}");
    }

    #[test]
    fn args_reject_a_flag_the_binary_does_not_read() {
        let e = argv(&["--elements", "500", "--elemnts", "700"])
            .err()
            .unwrap();
        assert!(e.contains("--elemnts"), "{e}");
        assert!(e.contains("--elements, --parts, --seed, --nodes"), "{e}");
        let e = Args::from_argv(["--elements".to_string(), "5".to_string()], &[])
            .err()
            .unwrap();
        assert!(e.contains("accepted: none"), "{e}");
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        t.print();
    }
}
