//! Every figure and study report, one function each, grouped by the
//! scenario family it drives, and the runner behind the `repro` binary.
//!
//! A figure function runs its simulations (fanned out with
//! [`run_parallel`](crate::scenarios::run_parallel)), returns its report
//! text and panics if the paper-shape check fails. `full` selects the
//! paper-scale topology; only the large-scale Figs. 11–15 read it.
//! Reports are built with `let _ = writeln!(out, …)`: writing to a
//! `String` cannot fail.

mod convergence;
mod extensions;
mod large_scale;
mod motivation;
mod testbed;

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::scenarios::downsample;

/// A named report: `full` selects the paper-scale variant.
pub type Figure = (&'static str, fn(full: bool) -> String);

/// Every report `repro` can produce. Each name has a golden copy at
/// `results/NAME.txt`.
pub const FIGURES: &[Figure] = &[
    ("fig02", motivation::fig02),
    ("fig03", motivation::fig03),
    ("fig04", motivation::fig04),
    ("fig07", convergence::fig07),
    ("fig08", convergence::fig08),
    ("fig09", convergence::fig09),
    ("fig10", convergence::fig10),
    ("fig11", large_scale::fig11),
    ("fig12", large_scale::fig12),
    ("fig13", large_scale::fig13),
    ("fig14", large_scale::fig14),
    ("fig15", large_scale::fig15),
    ("fig16", testbed::fig16),
    ("ablation", large_scale::ablation),
    ("hybrid", large_scale::hybrid),
    ("incast", testbed::incast),
    ("robustness", large_scale::robustness),
    ("collective", extensions::collective),
    ("fault_sweep", extensions::fault_sweep),
];

/// Runs `figures` one after another. Each report goes to `out_dir/NAME.txt`
/// when `out_dir` is given and to `stdout` otherwise; one
/// `NAME  wall_s  SHAPE OK|FAILED` line per figure goes to `status`. A
/// figure whose shape check panics is reported `FAILED`, writes no report,
/// and does not stop the rest. Returns whether every figure passed.
pub fn run(
    figures: &[Figure],
    full: bool,
    out_dir: Option<&Path>,
    stdout: &mut dyn Write,
    status: &mut dyn Write,
) -> io::Result<bool> {
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut all_ok = true;
    for &(name, figure) in figures {
        let t0 = Instant::now();
        let report = std::panic::catch_unwind(|| figure(full));
        let wall = t0.elapsed().as_secs_f64();
        let verdict = match report {
            Ok(report) => {
                match out_dir {
                    Some(dir) => std::fs::write(dir.join(format!("{name}.txt")), report)?,
                    None => stdout.write_all(report.as_bytes())?,
                }
                "SHAPE OK"
            }
            Err(_) => {
                all_ok = false;
                "FAILED"
            }
        };
        writeln!(status, "{name}  {wall:.2}  {verdict}")?;
    }
    Ok(all_ok)
}

/// Indices of at most `n` evenly spaced samples out of `len` (for compact
/// printing of index-aligned series).
fn sample_indices(len: usize, n: usize) -> Vec<usize> {
    let idx: Vec<(u64, usize)> = (0..len).map(|i| (i as u64, i)).collect();
    downsample(&idx, n).into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_figure_has_exactly_one_golden() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let goldens: BTreeSet<String> = std::fs::read_dir(&results)
            .expect("results/ is readable")
            .map(|e| e.expect("results/ entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        let names: BTreeSet<String> = FIGURES.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
        assert_eq!(names, goldens, "FIGURES and results/*.txt must match");
    }

    #[test]
    fn a_failed_shape_check_is_reported_and_the_run_goes_on() {
        fn ok(_: bool) -> String {
            "report\n".to_string()
        }
        fn broken(_: bool) -> String {
            panic!("deliberately failing shape check")
        }
        let dir = std::env::temp_dir().join(format!("repro-runner-{}", std::process::id()));
        let figures: &[Figure] = &[("broken", broken), ("ok", ok)];
        let (mut stdout, mut status) = (Vec::new(), Vec::new());
        let passed = run(figures, false, Some(&dir), &mut stdout, &mut status).unwrap();

        assert!(!passed);
        assert!(stdout.is_empty());
        let status = String::from_utf8(status).unwrap();
        let verdicts: Vec<&str> = status
            .lines()
            .map(|l| l.rsplit("  ").next().unwrap())
            .collect();
        assert_eq!(verdicts, ["FAILED", "SHAPE OK"], "{status}");
        assert!(!dir.join("broken.txt").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("ok.txt")).unwrap(),
            "report\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
