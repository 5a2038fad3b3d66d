//! Reproduce the paper's figures and the extension studies.
//!
//! `repro [--full] [--out DIR] [NAME...]` runs the named figures (every
//! figure when none is named) one after another. Reports go to stdout,
//! or to `DIR/NAME.txt` with `--out`; a `NAME  wall_s  SHAPE OK|FAILED`
//! line per figure goes to stderr. A figure whose paper-shape check fails
//! writes no report; the exit status is non-zero if any figure failed.
//! `--full` runs Figs. 11–15 at paper scale.
//!
//! `repro --out results && git diff --exit-code -- results/` is the
//! golden gate on every published number.

use std::path::PathBuf;
use std::process::ExitCode;

use mlcc_bench::figures::{self, Figure, FIGURES};

fn usage(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: repro [--full] [--out DIR] [NAME...]");
    eprintln!("names: {}", names.join(" "));
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut full = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut selected: Vec<Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--out" => {
                let dir = args
                    .next()
                    .unwrap_or_else(|| usage("--out needs a directory"));
                out_dir = Some(PathBuf::from(dir));
            }
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some(&figure) => selected.push(figure),
                None => usage(&format!("unknown figure or option `{name}`")),
            },
        }
    }
    if selected.is_empty() {
        selected = FIGURES.to_vec();
    }
    let passed = figures::run(
        &selected,
        full,
        out_dir.as_deref(),
        &mut std::io::stdout(),
        &mut std::io::stderr(),
    );
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}
