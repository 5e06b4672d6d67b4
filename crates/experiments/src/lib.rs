//! # sw-experiments — the figure/table regeneration harness
//!
//! Every paper artifact is one row of [`catalogue::CATALOGUE`], and one
//! binary drives them all: `sw-exp list` prints the index, `sw-exp run
//! <name>` / `sw-exp all` print the paper-shaped table to stdout and
//! write `results/<name>.json` for EXPERIMENTS.md, and `sw-exp check`
//! regenerates every artifact and compares it byte for byte with the
//! committed file.
//!
//! Simulation points run the full discrete-event simulator. For the
//! 10⁶-item scenarios (2, 4, 6) the simulated database is scaled down
//! (default 10⁴ items, hotspots and rates unchanged) because hit ratios
//! are independent of `n` in the paper's model (per-item λ and μ fixed)
//! while the report-size terms are analytic; EXPERIMENTS.md states this
//! substitution wherever it applies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod figures;
pub mod live_cli;
pub mod plot;
pub mod replicate;
pub mod results;

pub use figures::{FigureResult, FigureSpec, SimPoint, SimSettings};
pub use plot::ascii_chart;
