//! Workspace task runner. Currently one task:
//!
//! ```text
//! cargo xtask lint [FLAGS]
//! ```
//!
//! which is the `lts-lint` driver (see `lts_lint::cli::HELP` for the flag
//! set). The `xtask` alias lives in `.cargo/config.toml`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(task) = args.first() else {
        eprintln!("usage: cargo xtask lint [flags] (--help for details)");
        return ExitCode::from(2);
    };
    if task != "lint" {
        eprintln!("unknown task `{task}` (available: lint)");
        return ExitCode::from(2);
    }
    match u8::try_from(lts_lint::cli::main(&args[1..])) {
        Ok(code) => ExitCode::from(code),
        Err(_) => ExitCode::FAILURE,
    }
}
