#![allow(clippy::identity_op)] // `1 * MS` reads better than `MS` in timing code

//! # mlcc-bench — the reproduction harness
//!
//! Every figure of the paper's evaluation (Figs. 2–16) and every
//! extension study is a function in [`figures`], built on the reusable
//! scenario modules in [`scenarios`]. Each prints a CSV series or table
//! and a summary of the paper-shape checks (who wins, by roughly what
//! factor), and panics if a check fails.
//!
//! Run e.g. `cargo run --release -p mlcc-bench --bin repro -- fig11`; with
//! no name, `repro` runs every figure. `results/` holds the golden report
//! of each, and `EXPERIMENTS.md` at the repository root has
//! paper-vs-measured notes. `fuzz_sim` fuzzes the engine; the repository
//! benchmark in `xdcbench/` times it.

pub mod algo;
pub mod figures;
pub mod scenarios;

pub use algo::Algo;
